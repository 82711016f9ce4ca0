//! E9 — range materialization vs lazy coverage (Algorithm 1 at scale).
//!
//! `Range(P)` cardinality is the product of per-term `RT'` sizes, so one
//! broad composite rule over a deep vocabulary explodes combinatorially.
//! This experiment sweeps synthetic taxonomy fan-out and reports the range
//! size, materialization time, and the lazy engine's time for the same
//! coverage query — the ablation that justifies the lazy engine's
//! existence.
//!
//! A second table is the strategy ablation of DESIGN.md §6 on simulated
//! community-hospital trails: materialize-hash vs materialize-sort-merge
//! vs lazy set coverage, plus entry-weighted coverage. The binary asserts
//! that the three strategies return the same report.

use prima_bench::{banner, render_table, standard_trail, timed};
use prima_model::{CoverageEngine, Policy, Rule, StoreTag, Strategy};
use prima_vocab::synthetic::{synthetic_vocabulary, SyntheticSpec};
use prima_workload::Scenario;

fn main() {
    fan_out_sweep();
    strategy_ablation();
}

fn fan_out_sweep() {
    banner("E9: range explosion — materializing vs lazy coverage");
    let mut rows = Vec::new();
    for fan_out in [2usize, 3, 4, 5, 6] {
        let spec = SyntheticSpec {
            attributes: 3,
            fan_out,
            depth: 3,
            roots: 1,
        };
        let v = synthetic_vocabulary(spec);
        let ps = Policy::with_rules(
            StoreTag::PolicyStore,
            vec![Rule::of(&[
                ("attr0", "a0-r0"),
                ("attr1", "a1-r0"),
                ("attr2", "a2-r0"),
            ])],
        );
        let leaf = |a: usize| format!("a{a}-r0-c0-c0-c0");
        let al = Policy::with_rules(
            StoreTag::AuditLog,
            vec![Rule::of(&[
                ("attr0", &leaf(0)),
                ("attr1", &leaf(1)),
                ("attr2", &leaf(2)),
            ])],
        );
        let range_size = ps.expansion_size(&v);

        let materialize = {
            let engine = CoverageEngine::new(Strategy::MaterializeHash);
            let (result, ms) = timed(|| engine.coverage(&ps, &al, &v));
            match result {
                Ok(r) => {
                    assert!(r.is_complete());
                    format!("{ms:.1} ms")
                }
                Err(e) => format!("FAILS ({e})"),
            }
        };
        let lazy = {
            let engine = CoverageEngine::new(Strategy::Lazy);
            let (result, ms) = timed(|| engine.coverage(&ps, &al, &v));
            assert!(result.expect("lazy never materializes").is_complete());
            format!("{:.1} µs", ms * 1e3)
        };
        rows.push(vec![
            fan_out.to_string(),
            range_size.to_string(),
            materialize,
            lazy,
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "fan-out",
                "|Range(P_PS)|",
                "materialize (Algorithm 1)",
                "lazy"
            ],
            &rows
        )
    );
    println!(
        "shape: materialization time tracks |Range| = (fan_out^3)^3 and hits the safety \
         budget at fan-out 6; the lazy engine is flat (three subsumption walks per probe)."
    );
}

fn strategy_ablation() {
    banner("E9: coverage strategies on simulated community-hospital trails");
    let scenario = Scenario::community_hospital();
    let mut rows = Vec::new();
    for n in [1_000usize, 10_000] {
        let rules: Vec<_> = standard_trail(n, 5)
            .iter()
            .map(|e| e.to_ground_rule().expect("well-formed"))
            .collect();
        let al = Policy::from_ground_rules(StoreTag::AuditLog, rules.iter().cloned());
        let mut reports = Vec::new();
        let mut row = vec![n.to_string()];
        for strategy in [
            Strategy::MaterializeHash,
            Strategy::MaterializeSortMerge,
            Strategy::Lazy,
        ] {
            let engine = CoverageEngine::new(strategy);
            let (report, ms) = timed(|| engine.coverage(&scenario.policy, &al, &scenario.vocab));
            reports.push(report.expect("the scenario's range fits the budget"));
            row.push(format!("{ms:.2}"));
        }
        assert!(
            reports.windows(2).all(|w| w[0] == w[1]),
            "strategies disagree at {n} entries"
        );
        let (entry, ms) = timed(|| {
            CoverageEngine::default().entry_coverage(&scenario.policy, &rules, &scenario.vocab)
        });
        row.extend([
            format!("{ms:.2}"),
            reports[0].target_cardinality.to_string(),
            format!("{:.1}%", reports[0].percent()),
            format!("{:.1}%", entry.percent()),
        ]);
        rows.push(row);
    }
    println!(
        "{}",
        render_table(
            &[
                "entries",
                "hash (ms)",
                "sort-merge (ms)",
                "lazy (ms)",
                "entry-weighted (ms)",
                "|Range(P_AL)|",
                "set coverage",
                "entry coverage"
            ],
            &rows
        )
    );
    println!(
        "shape: the three set strategies return identical reports; entry-weighted \
         coverage interns the trail by shape and decides each distinct shape once."
    );
}
