//! `prima-bench` — runs one load suite and checks its gates.
//!
//! ```text
//! prima-bench --suite pipeline|stream|serve|surge [--smoke] [--out FILE]
//! ```
//!
//! Prints each gate to stderr and the report envelope to FILE (stdout
//! without `--out`). Exits 1 when any gate fails, 2 on a usage or I/O
//! error.

use prima_bench::suite::{run_suite, SUITES};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(problem: &str) -> ExitCode {
    eprintln!(
        "prima-bench: {problem}\nusage: prima-bench --suite {} [--smoke] [--out FILE]",
        SUITES.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let (mut suite, mut smoke, mut out) = (None, false, None);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--suite" => suite = args.next(),
            "--smoke" => smoke = true,
            "--out" => out = args.next().map(PathBuf::from),
            _ => return usage(&format!("unknown argument '{arg}'")),
        }
    }
    let Some(name) = suite else {
        return usage("--suite needs a name");
    };
    let Some(report) = run_suite(&name, smoke) else {
        return usage(&format!("unknown suite '{name}'"));
    };
    match report.finish(out.as_deref()) {
        Ok(status) => ExitCode::from(status),
        Err(e) => {
            eprintln!("prima-bench: cannot write the report: {e}");
            ExitCode::from(2)
        }
    }
}
