//! `prima coverage` on a malformed trail: a blank attribute is a clean
//! error that names the entry, never a panic.

use std::path::PathBuf;
use std::process::Command;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(name)
}

fn coverage(name: &str, audit_jsonl: &str, extra: &[&str]) -> std::process::Output {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli_coverage");
    std::fs::create_dir_all(&dir).unwrap();
    let audit = dir.join(format!("{name}.jsonl"));
    std::fs::write(&audit, audit_jsonl).unwrap();
    Command::new(env!("CARGO_BIN_EXE_prima"))
        .arg("coverage")
        .arg("--policy")
        .arg(fixture("fixtures/analyze/clean.dsl"))
        .arg("--audit")
        .arg(&audit)
        .args(extra)
        .output()
        .expect("run the prima binary")
}

const GOOD: &str = r#"{"time":1,"op":"Allow","user":"tim","data":"referral","purpose":"treatment","authorized":"nurse","status":"Regular"}"#;
const BLANK_PURPOSE: &str = r#"{"time":2,"op":"Allow","user":"eve","data":"referral","purpose":"   ","authorized":"nurse","status":"Exception"}"#;

#[test]
fn blank_purpose_exits_non_zero_and_names_the_entry() {
    let trail = format!("{GOOD}\n{BLANK_PURPOSE}\n");
    for extra in [&[][..], &["--set"][..]] {
        let out = coverage("blank-purpose", &trail, extra);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
        assert!(!stderr.contains("panicked"), "stderr: {stderr}");
        assert!(stderr.contains("position 1"), "stderr: {stderr}");
        assert!(stderr.contains("time 2"), "stderr: {stderr}");
        assert!(stderr.contains("blank purpose"), "stderr: {stderr}");
    }
}

#[test]
fn well_formed_trail_reports_coverage() {
    let out = coverage("well-formed", &format!("{GOOD}\n"), &[]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("entry coverage: 1/1"), "stdout: {stdout}");
}
