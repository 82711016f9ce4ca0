//! Incremental coverage counters.
//!
//! Each shard keeps one counter per distinct ground rule it owns; every
//! entry updates exactly one counter, so maintaining both the set view
//! (Definition 9's `CoverageReport`) and the entry-weighted view is O(1)
//! per entry — and a run of identical consecutive entries inside a block
//! is one `observe_run` bump. The counters are also the shard's only
//! verdict memo: a rule's `covered` flag is computed once, when the rule
//! is first seen, and kept current by `relabel` on every policy epoch.
//! Because ground rules are hash-partitioned, per-shard key sets are
//! disjoint and a snapshot merge is a concatenation followed by one
//! sort — no cross-shard reconciliation.

use prima_model::{CoverageReport, GroundRule};
use std::collections::HashMap;
use std::sync::Arc;

/// Hit/miss book of the verdict lookups one shard (or an aggregate of
/// several) ran against its counters: a hit is an entry whose rule the
/// counters already held, a miss is a full `PolicyMatcher::covers` probe.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Entries whose verdict the counters already held.
    pub hits: u64,
    /// Entries that ran the full subsumption probe.
    pub misses: u64,
    /// Policy epochs installed (each re-labels the counters).
    pub invalidations: u64,
}

impl CacheStats {
    /// `hits ÷ (hits + misses)`, 0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Component-wise sum (for aggregating shard stats).
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.invalidations += other.invalidations;
    }
}

/// Running totals for one distinct ground rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatternStats {
    /// Entries observed with this shape.
    pub count: u64,
    /// Verdict under the current policy epoch.
    pub covered: bool,
}

/// Entry-weighted totals across a counter set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamTotals {
    /// Entries whose ground rule the policy sanctions.
    pub covered_entries: u64,
    /// All successfully classified entries.
    pub total_entries: u64,
}

impl StreamTotals {
    /// `covered ÷ total`, defined as 1 for an empty stream (matching
    /// [`prima_model::EntryCoverageReport::ratio`]).
    pub fn ratio(&self) -> f64 {
        if self.total_entries == 0 {
            1.0
        } else {
            self.covered_entries as f64 / self.total_entries as f64
        }
    }

    /// Component-wise sum.
    pub fn merge(&mut self, other: &StreamTotals) {
        self.covered_entries += other.covered_entries;
        self.total_entries += other.total_entries;
    }
}

/// One shard's counters.
#[derive(Debug, Default)]
pub struct CoverageCounters {
    by_rule: HashMap<Arc<GroundRule>, PatternStats>,
    totals: StreamTotals,
}

impl CoverageCounters {
    /// An empty counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a run of `n` entries sharing one rule — one counter bump,
    /// identical end state to `n` one-entry runs. `covers` runs only for
    /// a rule not seen before; a seen rule answers with the verdict its
    /// counter holds. Returns `(verdict, probed)`, where `probed` says
    /// whether `covers` ran.
    pub fn observe_run<F: FnOnce(&GroundRule) -> bool>(
        &mut self,
        g: &Arc<GroundRule>,
        n: u64,
        covers: F,
    ) -> (bool, bool) {
        let (covered, probed) = match self.by_rule.get_mut(g) {
            Some(stats) => {
                stats.count += n;
                (stats.covered, false)
            }
            None => {
                let covered = covers(g);
                self.by_rule
                    .insert(Arc::clone(g), PatternStats { count: n, covered });
                (covered, true)
            }
        };
        self.totals.total_entries += n;
        if covered {
            self.totals.covered_entries += n;
        }
        (covered, probed)
    }

    /// Re-labels every counter under a new policy verdict function (run
    /// on epoch bump: counts are kept, verdicts are refreshed).
    ///
    /// The entry-weighted totals are recomputed from the per-pattern
    /// counts so that `covered_entries` always reflects the *current*
    /// policy over the *whole* observed stream — the same answer a batch
    /// recomputation over the full trail would give.
    pub fn relabel<F: FnMut(&GroundRule) -> bool>(&mut self, mut covers: F) {
        let mut covered_entries = 0u64;
        for (g, stats) in self.by_rule.iter_mut() {
            stats.covered = covers(g.as_ref());
            if stats.covered {
                covered_entries += stats.count;
            }
        }
        self.totals.covered_entries = covered_entries;
    }

    /// Entry-weighted totals.
    pub fn totals(&self) -> StreamTotals {
        self.totals
    }

    /// Number of distinct ground rules observed.
    pub fn distinct(&self) -> usize {
        self.by_rule.len()
    }

    /// Drains this shard's per-pattern state for a snapshot merge.
    pub fn export(&self) -> Vec<(GroundRule, PatternStats)> {
        self.by_rule
            .iter()
            .map(|(g, s)| ((**g).clone(), *s))
            .collect()
    }

    /// Rebuilds a counter set from an export (checkpoint recovery). The
    /// entry-weighted totals are recomputed from the per-pattern counts,
    /// so a restored shard answers exactly as it did at the checkpoint.
    pub fn from_export(patterns: Vec<(GroundRule, PatternStats)>) -> Self {
        let mut totals = StreamTotals::default();
        let mut by_rule = HashMap::with_capacity(patterns.len());
        for (g, stats) in patterns {
            totals.total_entries += stats.count;
            if stats.covered {
                totals.covered_entries += stats.count;
            }
            by_rule.insert(Arc::new(g), stats);
        }
        Self { by_rule, totals }
    }
}

/// Merges per-shard exports into the batch engine's report shape.
///
/// Inputs must have pairwise-disjoint ground-rule sets (guaranteed by
/// hash partitioning); the output is bit-for-bit the `CoverageReport`
/// that `compute_coverage(policy, trail_policy, vocab)` produces over
/// the same observed trail, because `covered`/`uncovered` are canonically
/// sorted and the distinct-rule set *is* `Range(P_AL)`.
pub fn merge_reports(exports: Vec<Vec<(GroundRule, PatternStats)>>) -> CoverageReport {
    let mut covered = Vec::new();
    let mut uncovered = Vec::new();
    for export in exports {
        for (g, stats) in export {
            if stats.covered {
                covered.push(g);
            } else {
                uncovered.push(g);
            }
        }
    }
    covered.sort();
    uncovered.sort();
    CoverageReport {
        overlap: covered.len(),
        target_cardinality: covered.len() + uncovered.len(),
        covered,
        uncovered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g(data: &str) -> GroundRule {
        GroundRule::of(&[
            ("data", data),
            ("purpose", "treatment"),
            ("authorized", "nurse"),
        ])
    }

    /// Records one entry whose verdict, if the rule is new, is `covered`.
    fn observe(c: &mut CoverageCounters, data: &str, covered: bool) {
        c.observe_run(&Arc::new(g(data)), 1, |_| covered);
    }

    #[test]
    fn observe_is_count_weighted() {
        let mut c = CoverageCounters::new();
        observe(&mut c, "referral", true);
        observe(&mut c, "referral", true);
        observe(&mut c, "psychiatry", false);
        assert_eq!(c.distinct(), 2);
        let t = c.totals();
        assert_eq!(t.total_entries, 3);
        assert_eq!(t.covered_entries, 2);
        assert!((t.ratio() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn observe_run_matches_one_entry_runs() {
        let mut runs = CoverageCounters::new();
        let mut seq = CoverageCounters::new();
        for (data, covered, n) in [("referral", true, 5u64), ("psychiatry", false, 2)] {
            let rule = Arc::new(g(data));
            runs.observe_run(&rule, n, |_| covered);
            for _ in 0..n {
                seq.observe_run(&rule, 1, |_| covered);
            }
        }
        assert_eq!(runs.totals(), seq.totals());
        assert_eq!(runs.distinct(), seq.distinct());
        let mut a = runs.export();
        let mut b = seq.export();
        a.sort_by(|x, y| x.0.cmp(&y.0));
        b.sort_by(|x, y| x.0.cmp(&y.0));
        assert_eq!(a, b);
    }

    #[test]
    fn observe_run_probes_only_unseen_rules() {
        let mut c = CoverageCounters::new();
        let rule = Arc::new(g("referral"));
        assert_eq!(c.observe_run(&rule, 3, |_| true), (true, true));
        // A value-equal rule under another Arc is the same counter.
        let again = Arc::new(g("referral"));
        let verdict = c.observe_run(&again, 2, |_| panic!("seen rules are not probed"));
        assert_eq!(verdict, (true, false));
        // After a relabel the held verdict is the new policy's.
        c.relabel(|_| false);
        assert_eq!(c.observe_run(&rule, 1, |_| true), (false, false));
        assert_eq!(c.totals().total_entries, 6);
        assert_eq!(c.totals().covered_entries, 0);
    }

    #[test]
    fn empty_book_hit_rate_is_zero() {
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn relabel_refreshes_verdicts_and_totals() {
        let mut c = CoverageCounters::new();
        observe(&mut c, "referral", true);
        observe(&mut c, "psychiatry", false);
        observe(&mut c, "psychiatry", false);
        // New policy covers everything.
        c.relabel(|_| true);
        let t = c.totals();
        assert_eq!(t.covered_entries, 3);
        assert_eq!(t.total_entries, 3);
    }

    #[test]
    fn merge_produces_sorted_disjoint_report() {
        let mut a = CoverageCounters::new();
        observe(&mut a, "referral", true);
        let mut b = CoverageCounters::new();
        observe(&mut b, "psychiatry", false);
        observe(&mut b, "address", true);
        let report = merge_reports(vec![a.export(), b.export()]);
        assert_eq!(report.overlap, 2);
        assert_eq!(report.target_cardinality, 3);
        assert!(report.covered.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(report.uncovered.len(), 1);
    }

    #[test]
    fn empty_stream_ratio_is_one() {
        assert_eq!(StreamTotals::default().ratio(), 1.0);
    }
}
