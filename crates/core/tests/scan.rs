//! A round's one scan over the stores' interned columns gives what
//! Algorithm 2 gives over the consolidated entries: the same practice
//! count, the same mined patterns in the same order, the same pruned
//! proposals and the same coverage before and after.

use prima_audit::{
    AccessStatus, AuditEntry, AuditStore, FetchResponse, LogSource, Op, RawRecord, SourceError,
    Tally, TrainingWindow,
};
use prima_core::{PrimaSystem, ReviewMode};
use prima_mining::{Miner, MinerConfig, SqlMiner};
use prima_model::samples::figure_3_policy_store;
use prima_model::{CoverageEngine, GroundRule, Policy, PolicyMatcher, StoreTag};
use prima_refine::extract::practice_table;
use prima_refine::filter::filter;
use prima_refine::prune::prune;
use prima_refine::ReviewQueue;
use prima_vocab::samples::figure_1;
use proptest::prelude::*;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Case and whitespace variants of a few concepts, plus a value the
/// vocabulary does not know.
const DATA: [&str; 5] = ["referral", "Referral", " referral ", "psychiatry", "x-ray"];
const PURPOSE: [&str; 3] = ["registration", "Registration", "treatment"];
const AUTHORIZED: [&str; 3] = ["nurse", "NURSE", "doctor"];
/// Shared across stores, so one user can break the glass at two sites.
const USERS: [&str; 4] = ["mark", "tim", "bob", "Mark"];

/// One random entry: regular, exception, or a refused exception.
fn arb_entry() -> impl Strategy<Value = AuditEntry> {
    (
        (0i64..30, 0..USERS.len()),
        (0..DATA.len(), 0..PURPOSE.len(), 0..AUTHORIZED.len()),
        0u8..4,
    )
        .prop_map(|((time, user), (d, p, a), kind)| {
            let mut e = AuditEntry::regular(time, USERS[user], DATA[d], PURPOSE[p], AUTHORIZED[a]);
            if kind > 0 {
                e.status = AccessStatus::Exception;
            }
            if kind == 3 {
                e.op = Op::Disallow;
            }
            e
        })
}

/// 2–4 stores of up to 40 entries each.
fn arb_sites() -> impl Strategy<Value = Vec<Vec<AuditEntry>>> {
    collection::vec(collection::vec(arb_entry(), 0..40), 2..5)
}

fn patterns(queue: &ReviewQueue) -> Vec<prima_mining::Pattern> {
    queue
        .candidates()
        .iter()
        .map(|c| c.pattern.clone())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn the_scan_equals_the_entry_path(
        sites in arb_sites(),
        window in (0u8..2, 0i64..30, 0i64..30),
        thresholds in (1usize..4, 0usize..2),
    ) {
        let (windowed, a, b) = window;
        let window = (windowed == 1).then(|| TrainingWindow::new(a.min(b), a.max(b) + 1));
        let miner = SqlMiner::new(MinerConfig {
            min_frequency: thresholds.0,
            min_distinct_users: thresholds.1,
            ..MinerConfig::default()
        });
        let vocab = figure_1();
        let policy_before = figure_3_policy_store();
        let mut sys = PrimaSystem::new(vocab.clone(), policy_before.clone())
            .with_miner(miner.clone());
        let stores: Vec<AuditStore> = sites
            .iter()
            .enumerate()
            .map(|(i, site)| {
                let store = AuditStore::new(&format!("site-{i}"));
                store.append_all(site).unwrap();
                store
            })
            .collect();
        for store in &stores {
            sys.attach_store(store.clone()).unwrap();
        }

        // The entry path: Algorithm 2 over the consolidated entries.
        let consolidated = sys.federation().consolidated_entries();
        let entries: Vec<AuditEntry> = consolidated
            .iter()
            .filter(|e| window.is_none_or(|w| w.contains(e.time)))
            .cloned()
            .collect();
        let practice = filter(&entries);
        let raw = miner.mine(&practice_table(&practice)).unwrap();
        let pruned = prune(raw.clone(), &policy_before, &vocab);
        let rules: Vec<GroundRule> = entries
            .iter()
            .map(|e| e.to_ground_rule().unwrap())
            .collect();
        let before = CoverageEngine::default().entry_coverage(&policy_before, &rules, &vocab);

        // The group-by over the merged column tallies.
        let tally = Tally::merge(stores.iter().map(|s| s.tally(window)));
        prop_assert_eq!(miner.mine_tally(&tally).unwrap(), raw.clone());

        let record = match window {
            Some(w) => sys.run_round_windowed(w, ReviewMode::AutoAccept),
            None => sys.run_round(ReviewMode::AutoAccept),
        }
        .unwrap();
        prop_assert_eq!(record.audit_entries, entries.len());
        prop_assert_eq!(record.practice_entries, practice.len());
        prop_assert_eq!(record.patterns_found, raw.len());
        prop_assert_eq!(record.patterns_useful, pruned.useful.len());
        prop_assert_eq!(record.entry_coverage_before, before.ratio());
        let after = CoverageEngine::default().entry_coverage(sys.policy(), &rules, &vocab);
        prop_assert_eq!(record.entry_coverage_after, after.ratio());

        let mut queue = ReviewQueue::new();
        queue.propose(pruned.useful, 1);
        queue.accept_all_pending();
        let mut policy_after = policy_before.clone();
        queue.apply_accepted(&mut policy_after);
        prop_assert_eq!(patterns(sys.review()), patterns(&queue));
        prop_assert_eq!(sys.policy().cardinality(), policy_after.cardinality());

        // The snapshot after the round: one matcher verdict per
        // consolidated entry, in the same order.
        let matcher = PolicyMatcher::new(sys.policy(), sys.vocab());
        let uncovered: Vec<usize> = consolidated
            .iter()
            .enumerate()
            .filter(|(_, e)| !matcher.covers(&e.to_ground_rule().unwrap()))
            .map(|(i, _)| i)
            .collect();
        let snapshot = sys.entry_coverage();
        prop_assert_eq!(snapshot.total_entries, consolidated.len());
        prop_assert_eq!(snapshot.uncovered_indices, uncovered);

        // Set coverage over the distinct shapes.
        let shapes = Policy::from_ground_rules(
            StoreTag::AuditLog,
            consolidated.iter().map(|e| e.to_ground_rule().unwrap()),
        );
        let expected = CoverageEngine::new(prima_model::Strategy::Lazy)
            .coverage(sys.policy(), &shapes, &vocab)
            .unwrap();
        let set = sys.coverage().unwrap();
        prop_assert_eq!(
            (set.overlap, set.target_cardinality),
            (expected.overlap, expected.target_cardinality)
        );
    }
}

/// A remote site whose next fetch serves whatever its script holds then.
#[derive(Debug)]
struct Scripted(Arc<Mutex<Vec<AuditEntry>>>);

impl LogSource for Scripted {
    fn name(&self) -> &str {
        "remote"
    }

    fn fetch(&mut self) -> Result<FetchResponse, SourceError> {
        let entries = self.0.lock().unwrap();
        Ok(FetchResponse {
            records: entries.iter().cloned().map(RawRecord::Entry).collect(),
            expected: entries.len(),
            latency: Duration::ZERO,
        })
    }
}

/// A system over `stores` and a remote site serving `remote`, synced
/// once, holding `kept`'s policy and review queue, whose key space starts
/// empty.
fn fresh_like(
    kept: &PrimaSystem,
    stores: &[AuditStore],
    remote: &[AuditEntry],
    miner: &SqlMiner,
) -> PrimaSystem {
    let mut fresh =
        PrimaSystem::new(kept.vocab().clone(), kept.policy().clone()).with_miner(miner.clone());
    for store in stores {
        fresh.attach_store(store.clone()).unwrap();
    }
    let script = Arc::new(Mutex::new(remote.to_vec()));
    fresh.attach_source(Box::new(Scripted(script))).unwrap();
    fresh.sync_sources();
    *fresh.review_mut() = kept.review().clone();
    fresh
}

/// Runs one round, and after a manual one accepts and applies every
/// pending candidate.
fn round(
    sys: &mut PrimaSystem,
    window: Option<TrainingWindow>,
    manual: bool,
) -> prima_core::RoundRecord {
    let mode = if manual {
        ReviewMode::Manual
    } else {
        ReviewMode::AutoAccept
    };
    let record = match window {
        Some(w) => sys.run_round_windowed(w, mode),
        None => sys.run_round(mode),
    }
    .unwrap();
    if manual {
        sys.review_mut().accept_all_pending();
        sys.apply_review_decisions();
    }
    record
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A system that keeps its key space across appends, attaches,
    /// re-syncs of a remote site and rounds reads what a fresh system over
    /// the same stores, the remote's current records and the same policy
    /// reads: the same round records, the same per-entry snapshot and the
    /// same set coverage, after every step. A re-synced fetch repeats the
    /// last one, grows it, truncates it or rewrites an early entry.
    #[test]
    fn a_kept_key_space_equals_a_fresh_one(
        first in collection::vec(arb_entry(), 0..30),
        remote in collection::vec(arb_entry(), 0..20),
        steps in collection::vec(
            (0u8..5, 0usize..4, collection::vec(arb_entry(), 0..20), (0i64..30, 0i64..30), 0u8..2),
            1..10,
        ),
    ) {
        let miner = SqlMiner::new(MinerConfig {
            min_frequency: 2,
            min_distinct_users: 0,
            ..MinerConfig::default()
        });
        let mut kept = PrimaSystem::new(figure_1(), figure_3_policy_store()).with_miner(miner.clone());
        let mut stores = vec![AuditStore::new("site-0")];
        stores[0].append_all(&first).unwrap();
        kept.attach_store(stores[0].clone()).unwrap();
        let script = Arc::new(Mutex::new(remote));
        kept.attach_source(Box::new(Scripted(script.clone()))).unwrap();
        kept.sync_sources();
        for (kind, site, entries, (a, b), manual) in steps {
            match kind {
                // Appends: new raw triples, case variants and users.
                0 => {
                    stores[site % stores.len()].append_all(&entries).unwrap();
                }
                // A store attached mid-way.
                1 => {
                    let store = AuditStore::new(&format!("site-{}", stores.len()));
                    store.append_all(&entries).unwrap();
                    kept.attach_store(store.clone()).unwrap();
                    stores.push(store);
                }
                // The remote's next fetch, then a re-sync.
                4 => {
                    let mut records = script.lock().unwrap();
                    match site {
                        0 => {}
                        1 => records.extend(entries),
                        2 => {
                            let keep = entries.len().min(records.len().saturating_sub(1));
                            records.truncate(keep);
                        }
                        _ => {
                            if let (Some(early), Some(new)) = (records.first_mut(), entries.first()) {
                                *early = new.clone();
                            }
                        }
                    }
                    drop(records);
                    kept.sync_sources();
                }
                // An unwindowed or a windowed round, auto-accept or manual.
                _ => {
                    let window = (kind == 3).then(|| TrainingWindow::new(a.min(b), a.max(b) + 1));
                    let mut fresh = fresh_like(&kept, &stores, &script.lock().unwrap(), &miner);
                    let mut ours = round(&mut kept, window, manual == 1);
                    let theirs = round(&mut fresh, window, manual == 1);
                    ours.round = theirs.round;
                    prop_assert_eq!(
                        serde_json::to_string(&ours).unwrap(),
                        serde_json::to_string(&theirs).unwrap()
                    );
                    prop_assert_eq!(kept.policy(), fresh.policy());
                }
            }
            let fresh = fresh_like(&kept, &stores, &script.lock().unwrap(), &miner);
            prop_assert_eq!(kept.entry_coverage(), fresh.entry_coverage());
            prop_assert_eq!(kept.coverage().unwrap(), fresh.coverage().unwrap());
        }
    }
}
