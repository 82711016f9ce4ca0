//! E5 — Figure 4: end-to-end cost of one PRIMA round, decomposed per
//! architecture component, as the trail grows.
//!
//! Each row is one instrumented auto-accept round over a four-site
//! federated trail, run by the same function as `prima-bench --suite
//! pipeline`. The stage columns are the totals of the system's own
//! profile (`PrimaSystem::pipeline_report()`): federate, ground, filter,
//! mine, prune, propose and coverage. `staged` is the share of the
//! round's wall time those stages account for. Expected shape: every
//! stage is near-linear in the trail, and coverage costs little because
//! it follows the distinct access shapes, not the entries.
//!
//! Each trail length also gets a `2nd` row: a second round over the
//! unchanged trail. The stores counted their entries at append and the
//! federation's key space kept its ids and verdicts, so that round scans
//! no row and joins no key (asserted from the system's own counters),
//! and its cost follows the distinct triples and users, not the trail.
//! A `grown` row follows: a third round after 1 % more entries were
//! appended across the sites. It too scans no row, and joins only the
//! ids the appended entries brought.

use prima_bench::suite::pipeline::{run_pipeline, LaterRound};
use prima_bench::{banner, render_table};
use prima_core::observe::STAGES;

fn main() {
    banner("Figure 4 (measured): per-stage cost of a PRIMA round");
    let mut rows = Vec::new();
    for n in [1_000usize, 5_000, 20_000, 50_000, 100_000] {
        let round = run_pipeline(n);
        assert!(round.all_stages_observed, "every stage observed at {n}");
        let share = round.staged_share();
        assert!(share <= 1.0, "stages exceed the round at {n}: {share}");
        let mut row = vec![n.to_string(), format!("{:.2}", round.round_seconds * 1e3)];
        row.extend(
            STAGES
                .iter()
                .map(|stage| format!("{:.2}", round.stage_seconds(stage) * 1e3)),
        );
        row.push(format!("{:.0}%", share * 100.0));
        row.push(format!("{:.1}%", round.coverage_after * 100.0));
        rows.push(row);

        let second = &round.second;
        assert_eq!(
            (second.rows_scanned, second.keys_joined),
            (0, 0),
            "a second round over the unchanged trail reads the books at {n}"
        );
        rows.push(later_row(format!("{n} (2nd)"), second));
        let grown = &round.grown;
        assert_eq!(
            grown.rows_scanned, 0,
            "a grown trail reads the books at {n}"
        );
        assert!(
            grown.keys_joined <= 3 * round.grown_entries as u64,
            "a grown trail hashes at most a triple, a shape and a user per new entry at {n}"
        );
        rows.push(later_row(
            format!("{n} (+{}, {} keys)", round.grown_entries, grown.keys_joined),
            grown,
        ));
    }
    let mut headers = vec!["entries".to_string(), "round (ms)".to_string()];
    headers.extend(STAGES.iter().map(|stage| format!("{stage} (ms)")));
    headers.extend(["staged".to_string(), "coverage after".to_string()]);
    let headers: Vec<&str> = headers.iter().map(String::as_str).collect();
    println!("{}", render_table(&headers, &rows));
    println!(
        "shape: every stage is near-linear in trail size, and a 100k-entry round completes \
         in well under a second; a second round over the unchanged trail scans no row and \
         joins no key, and one over a trail grown by 1 % joins only the new ids."
    );
}

/// A table row for a round after the first.
fn later_row(label: String, round: &LaterRound) -> Vec<String> {
    let share = round.staged_share();
    assert!(share <= 1.0, "stages exceed the round ({label}): {share}");
    let mut row = vec![label, format!("{:.2}", round.round_seconds * 1e3)];
    row.extend(
        round
            .stage_seconds
            .iter()
            .map(|seconds| format!("{:.2}", seconds * 1e3)),
    );
    row.push(format!("{:.0}%", share * 100.0));
    row.push(String::new());
    row
}
