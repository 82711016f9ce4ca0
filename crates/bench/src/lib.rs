//! # prima-bench — the experiment harness
//!
//! One binary per paper artifact (see `EXPERIMENTS.md` for the index):
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `exp_fig1_vocabulary` | Figure 1 — sample privacy policy vocabulary |
//! | `exp_fig3_coverage` | Figure 3 — 50 % coverage worked example |
//! | `exp_table1_usecase` | Table 1 + Section 5 — 30 % coverage, refinement |
//! | `exp_fig2_trajectory` | Figure 2 — coverage-gap closing over rounds |
//! | `exp_fig4_pipeline` | Figure 4 — per-component cost of a PRIMA round |
//! | `exp_fig5_hdb_overhead` | Figure 5 — AE/CA correctness and overhead |
//! | `exp_sensitivity` | §5 remark — miner threshold sensitivity (E7) |
//! | `exp_miner_comparison` | §5 future work — SQL miner vs Apriori (E8) |
//!
//! Criterion benches (`cargo bench -p prima-bench`) cover the
//! machine-measured side: `bench_coverage` (E2/E9 + the
//! materialize-vs-lazy and hash-vs-sort-merge ablations), `bench_mining`
//! (E8), `bench_refinement` (E3), `bench_hdb` (E6), and `bench_pipeline`
//! (E5).
//!
//! The load suites ([`suite`]: `pipeline`, `stream`, `serve`, `surge`)
//! carry acceptance gates and run through one binary,
//! `prima-bench --suite NAME [--smoke] [--out FILE]`, which writes the
//! shared [`report::BenchReport`] envelope (the `BENCH_*.json` shape)
//! and exits 1 when a gate fails.
//!
//! This library also holds the shared glue: wall-clock timing, aligned
//! table rendering, and the standard workloads the binaries and benches
//! share.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use prima_audit::AuditEntry;
use prima_workload::sim::{entries, SimConfig};
use prima_workload::Scenario;
use std::time::Instant;

pub mod report;
pub mod suite;

/// Times a closure, returning `(result, milliseconds)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// Renders rows as an aligned ASCII table with a header.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let sep: String = widths
        .iter()
        .map(|w| format!("+{}", "-".repeat(w + 2)))
        .collect::<String>()
        + "+\n";
    out.push_str(&sep);
    out.push('|');
    for (h, w) in headers.iter().zip(&widths) {
        out.push_str(&format!(" {h:w$} |", w = w));
    }
    out.push('\n');
    out.push_str(&sep);
    for row in rows {
        out.push('|');
        for (cell, w) in row.iter().zip(&widths) {
            out.push_str(&format!(" {cell:w$} |", w = w));
        }
        out.push('\n');
    }
    out.push_str(&sep);
    out
}

/// A standard simulated trail of `n` entries from the community-hospital
/// scenario (seeded; identical across runs and binaries).
pub fn standard_trail(n: usize, seed: u64) -> Vec<AuditEntry> {
    let scenario = Scenario::community_hospital();
    let sim = scenario.simulator();
    let config = SimConfig {
        seed,
        n_entries: n,
        ..SimConfig::default()
    };
    entries(&sim.generate(&config))
}

/// Section header for experiment output.
pub fn banner(title: &str) {
    println!("\n=== {title} ===");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_returns_result_and_duration() {
        let (v, ms) = timed(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(ms >= 0.0);
    }

    #[test]
    fn render_table_aligns() {
        let t = render_table(
            &["name", "n"],
            &[
                vec!["referral".into(), "5".into()],
                vec!["x".into(), "123".into()],
            ],
        );
        assert!(t.contains("| referral | 5   |"));
        assert!(t.contains("| x        | 123 |"));
    }

    #[test]
    fn standard_trail_is_deterministic() {
        assert_eq!(standard_trail(100, 1), standard_trail(100, 1));
        assert_ne!(standard_trail(100, 1), standard_trail(100, 2));
    }
}
