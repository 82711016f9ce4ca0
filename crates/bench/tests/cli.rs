//! `prima-bench` rejects a malformed command line with a usage error
//! (exit 2) before it runs any suite or writes any file.

use std::process::Command;

#[test]
fn malformed_command_lines_are_usage_errors() {
    for args in [
        &["--suite", "pipeline", "--out"][..],
        &["--suite", "serve", "--out", "--smoke"],
        &["--out", "report.json", "--suite"],
        &["--suite", "--smoke"],
        &["--out", "--suite", "pipeline"],
        &["--suite", "nope"],
        &["--verbose"],
    ] {
        let dir = std::env::temp_dir().join(format!("prima-bench-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let status = Command::new(env!("CARGO_BIN_EXE_prima-bench"))
            .args(args)
            .current_dir(&dir)
            .output()
            .unwrap()
            .status;
        let wrote = std::fs::read_dir(&dir).unwrap().next().is_some();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!((status.code(), wrote), (Some(2), false), "{args:?}");
    }
}
