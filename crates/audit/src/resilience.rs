//! Fault-tolerant federation: degraded consolidated views with explicit
//! completeness.
//!
//! [`crate::AuditFederation`] assumes every source is an in-process
//! store that is always reachable and well-formed. This module drops
//! that assumption: a [`ResilientFederation`] consolidates
//! [`LogSource`]s through a [`RetryPolicy`] and per-source
//! [`CircuitBreaker`], parks malformed records in a [`Quarantine`]
//! instead of aborting, keeps each source's *last good fetch* as an
//! [`AuditStore`] that stays readable while the site is down, and reports
//! a [`FederationHealth`] from which every coverage number over the
//! degraded view gets a [`prima_model::CompletenessBound`].
//!
//! The consolidation loop never blocks the pipeline on a flaky site:
//! a source that exhausts its retry budget simply contributes its last
//! good fetch this round and is retried (or circuit-broken) the next.
//!
//! A fetch whose well-formed entries start with exactly the slot store's
//! entries only appends the rest, so the store's book and a reader's
//! remaps grow with what the site gained. Any other fetch (shorter,
//! reordered or rewritten) starts a new store.

use crate::entry::AuditEntry;
use crate::federation::FederationError;
use crate::health::{FederationHealth, SourceHealth, SourceStatus};
use crate::obs::FederationObs;
use crate::quarantine::{Quarantine, QuarantineReason};
use crate::retry::{BreakerConfig, CircuitBreaker, RetryPolicy};
use crate::source::{LogSource, RawRecord, SourceError};
use crate::store::AuditStore;
use std::time::{Duration, Instant};

/// One registered source plus its degraded-mode state.
#[derive(Debug)]
struct SourceSlot {
    source: Box<dyn LogSource>,
    breaker: CircuitBreaker,
    /// Last good fetch (well-formed entries only); served while the
    /// source is unreachable.
    store: AuditStore,
    /// Latest advertised entry count (fetch response, or manifest hint
    /// when unreachable).
    expected: usize,
    /// Records quarantined out of the latest successful fetch.
    quarantined: usize,
    status: SourceStatus,
    attempts: u32,
}

/// A consolidated view over fallible [`LogSource`]s.
#[derive(Debug)]
pub struct ResilientFederation {
    slots: Vec<SourceSlot>,
    retry: RetryPolicy,
    breaker_config: BreakerConfig,
    quarantine: Quarantine,
    round: u64,
    obs: FederationObs,
}

impl Default for ResilientFederation {
    fn default() -> Self {
        Self::new(RetryPolicy::default(), BreakerConfig::default())
    }
}

impl ResilientFederation {
    /// An empty federation with the given fault-handling knobs.
    pub fn new(retry: RetryPolicy, breaker_config: BreakerConfig) -> Self {
        Self {
            slots: Vec::new(),
            retry,
            breaker_config,
            quarantine: Quarantine::new(),
            round: 0,
            obs: FederationObs::disabled(),
        }
    }

    /// Routes retry/breaker/quarantine accounting and `federation.sync`
    /// spans into `obs` (see [`crate::obs`] for the metric catalog).
    pub fn with_observability(mut self, obs: FederationObs) -> Self {
        self.obs = obs;
        self
    }

    /// Registers a source. Names are the dedup key: a second source
    /// with the name of an existing one is rejected (same hazard as
    /// [`crate::AuditFederation::register`] — silent double-counted
    /// provenance).
    pub fn attach(&mut self, source: Box<dyn LogSource>) -> Result<(), FederationError> {
        let name = source.name().to_string();
        if self.slots.iter().any(|s| s.source.name() == name) {
            return Err(FederationError::DuplicateSource { name });
        }
        let expected = source.expected_len().unwrap_or(0);
        self.slots.push(SourceSlot {
            source,
            breaker: CircuitBreaker::new(self.breaker_config),
            store: AuditStore::new(&name),
            expected,
            quarantined: 0,
            status: SourceStatus::Unavailable,
            attempts: 0,
        });
        Ok(())
    }

    /// Registered source count.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True iff no source is registered.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Completed consolidation rounds.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The quarantine table.
    pub fn quarantine(&self) -> &Quarantine {
        &self.quarantine
    }

    /// Runs one consolidation round: every source whose breaker allows
    /// it is fetched under the retry policy; failures fall back to the
    /// last good fetch. Returns the round's health report.
    pub fn sync(&mut self) -> FederationHealth {
        let started = Instant::now();
        self.round += 1;
        let round = self.round;
        let mut span = self
            .obs
            .tracer()
            .span("federation.sync")
            .with_field("round", round)
            .with_field("sources", self.slots.len());
        for slot in &mut self.slots {
            let name = slot.source.name().to_string();
            let state_before = slot.breaker.state();
            if !slot.breaker.allows(round) {
                slot.status = SourceStatus::CircuitOpen;
                slot.attempts = 0;
                if let Some(hint) = slot.source.expected_len() {
                    slot.expected = slot.expected.max(hint);
                }
                self.obs.fetch_outcome(&name, "skipped");
                continue;
            }
            let mut fetch_span = self.obs.fetch_span(&name);
            let (result, attempts) = fetch_with_retries(&mut *slot.source, &self.retry, &name);
            fetch_span.field("attempts", attempts);
            slot.attempts = attempts;
            self.obs.retry_attempts(&name, attempts);
            match result {
                Ok(records) => {
                    slot.breaker.record_success();
                    let (entries, corrupt) = consolidate(records.0);
                    slot.quarantined = corrupt.len();
                    for reason in self.quarantine.replace(&name, round, corrupt) {
                        self.obs.quarantined(&name, reason);
                    }
                    slot.expected = records.1;
                    slot.keep(&entries);
                    slot.status = if slot.store.len() == slot.expected {
                        SourceStatus::Healthy
                    } else {
                        SourceStatus::Degraded
                    };
                    self.obs.fetch_outcome(&name, "ok");
                }
                Err(_) => {
                    slot.breaker.record_failure(round);
                    if let Some(hint) = slot.source.expected_len() {
                        slot.expected = slot.expected.max(hint);
                    }
                    slot.status = SourceStatus::Unavailable;
                    self.obs.fetch_outcome(&name, "error");
                }
            }
            fetch_span.field("status", format!("{:?}", slot.status));
            self.obs
                .breaker_transition(&name, state_before, slot.breaker.state());
        }
        let health = self.health();
        span.field("completeness", health.completeness());
        self.obs.sync_complete(
            started.elapsed(),
            health.completeness(),
            self.quarantine.len(),
        );
        health
    }

    /// The current health report (per-source status, fetched vs.
    /// expected, quarantine counts, breaker states).
    pub fn health(&self) -> FederationHealth {
        FederationHealth {
            round: self.round,
            sources: self
                .slots
                .iter()
                .map(|slot| SourceHealth {
                    name: slot.source.name().to_string(),
                    status: slot.status,
                    fetched: slot.store.len(),
                    expected: slot.expected.max(slot.store.len()),
                    quarantined: slot.quarantined,
                    attempts: slot.attempts,
                    breaker: slot.breaker.state(),
                })
                .collect(),
        }
    }

    /// Each source's last good fetch, in registration order: the degraded
    /// view, one store per source.
    pub fn stores(&self) -> impl Iterator<Item = &AuditStore> + '_ {
        self.slots.iter().map(|s| &s.store)
    }
}

impl SourceSlot {
    /// Keeps `entries`, a fetch's well-formed entries, as the last good
    /// fetch: appends the entries past the store's own when they start
    /// with them, and starts a new store otherwise.
    fn keep(&mut self, entries: &[AuditEntry]) {
        if !entries.starts_with(&self.store.entries()) {
            self.store = AuditStore::new(self.source.name());
        }
        let kept = self.store.len();
        self.store
            .append_all(&entries[kept..])
            .expect("consolidation quarantines entries with a blank attribute");
    }
}

/// Runs the retry loop for one source in one round. Returns the parsed
/// `(records, expected)` on success and the attempt count either way.
#[allow(clippy::type_complexity)]
fn fetch_with_retries(
    source: &mut dyn LogSource,
    retry: &RetryPolicy,
    name: &str,
) -> (Result<(Vec<RawRecord>, usize), SourceError>, u32) {
    let mut attempts = 0u32;
    let mut spent = Duration::ZERO;
    loop {
        attempts += 1;
        let outcome = match source.fetch() {
            Ok(resp) if resp.latency > retry.attempt_timeout => {
                // The response exists but arrived past the per-attempt
                // budget: we waited out the timeout, then gave up on it.
                spent += retry.attempt_timeout;
                Err(SourceError::Timeout {
                    source: name.to_string(),
                    latency: resp.latency,
                })
            }
            Ok(resp) => {
                spent += resp.latency;
                Ok(resp)
            }
            Err(e) => Err(e),
        };
        match outcome {
            Ok(resp) => return (Ok((resp.records, resp.expected)), attempts),
            Err(err) => {
                if attempts >= retry.max_attempts {
                    return (Err(err), attempts);
                }
                spent += retry.backoff_before_retry(name, attempts - 1);
                if spent > retry.deadline {
                    return (
                        Err(SourceError::DeadlineExceeded {
                            source: name.to_string(),
                            attempts,
                        }),
                        attempts,
                    );
                }
            }
        }
    }
}

/// Splits fetched records into consolidated entries and the `(raw,
/// reason)` records to quarantine. Entries that cannot project to a
/// ground rule are quarantined too — downstream coverage and mining
/// assume projectability.
fn consolidate(records: Vec<RawRecord>) -> (Vec<AuditEntry>, Vec<(String, QuarantineReason)>) {
    let mut entries = Vec::with_capacity(records.len());
    let mut corrupt = Vec::new();
    for record in records {
        match record {
            RawRecord::Entry(e) if e.blank_attribute().is_none() => entries.push(e),
            RawRecord::Entry(e) => corrupt.push((e.to_string(), QuarantineReason::EmptyAttribute)),
            RawRecord::Corrupt { raw, reason } => corrupt.push((raw, reason)),
        }
    }
    (entries, corrupt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::retry::BreakerState;
    use crate::source::{FaultySource, FetchResponse, SourceFaults, StoreSource};
    use crate::store::AuditStore;

    fn site(name: &str, times: &[i64]) -> AuditStore {
        let s = AuditStore::new(name);
        for &t in times {
            s.append(&AuditEntry::exception(
                t,
                "u",
                "referral",
                "registration",
                "nurse",
            ))
            .unwrap();
        }
        s
    }

    /// Entries kept across every source's last good fetch.
    fn kept(f: &ResilientFederation) -> usize {
        f.stores().map(AuditStore::len).sum()
    }

    fn fed() -> ResilientFederation {
        ResilientFederation::new(
            RetryPolicy {
                max_attempts: 2,
                ..RetryPolicy::default()
            },
            BreakerConfig {
                failure_threshold: 2,
                cooldown_rounds: 2,
            },
        )
    }

    #[test]
    fn healthy_sources_consolidate_exactly() {
        let mut f = fed();
        f.attach(Box::new(StoreSource::new(site("icu", &[3, 1]))))
            .unwrap();
        f.attach(Box::new(StoreSource::new(site("lab", &[2]))))
            .unwrap();
        let h = f.sync();
        assert!(h.all_healthy());
        assert_eq!(h.missing_entries(), 0);
        let times: Vec<Vec<i64>> = f
            .stores()
            .map(|s| s.entries().iter().map(|e| e.time).collect())
            .collect();
        assert_eq!(times, [vec![3, 1], vec![2]]);
        assert!(h.bound_for(2, 3).is_exact());
    }

    #[test]
    fn duplicate_source_names_are_rejected() {
        let mut f = fed();
        f.attach(Box::new(StoreSource::new(site("icu", &[1]))))
            .unwrap();
        let err = f
            .attach(Box::new(StoreSource::new(site("icu", &[2]))))
            .unwrap_err();
        assert!(matches!(err, FederationError::DuplicateSource { ref name } if name == "icu"));
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn unavailable_source_counts_as_missing_via_manifest_hint() {
        let mut f = fed();
        f.attach(Box::new(StoreSource::new(site("icu", &[1, 2]))))
            .unwrap();
        f.attach(Box::new(FaultySource::new(
            site("ward", &[5, 6, 7]),
            SourceFaults::none().permanently_down(),
        )))
        .unwrap();
        let h = f.sync();
        assert!(!h.all_healthy());
        assert_eq!(h.observed_entries(), 2);
        assert_eq!(h.missing_entries(), 3, "manifest hint counts the dark site");
        assert_eq!(h.source("ward").unwrap().status, SourceStatus::Unavailable);
        assert_eq!(h.source("ward").unwrap().attempts, 2, "retried once");
        // Coverage over the degraded view gets an honest interval.
        let b = h.bound_for(1, 2);
        assert!((b.lower - 0.2).abs() < 1e-12);
        assert!((b.upper - 0.8).abs() < 1e-12);
    }

    #[test]
    fn intermittent_source_converges_across_rounds() {
        let mut f = fed();
        // 2 attempts per round: fails all of round 1, succeeds in round 2.
        f.attach(Box::new(FaultySource::new(
            site("flaky", &[1, 2]),
            SourceFaults::none().fail_first_attempts(3),
        )))
        .unwrap();
        let h1 = f.sync();
        assert_eq!(
            h1.source("flaky").unwrap().status,
            SourceStatus::Unavailable
        );
        assert_eq!(h1.missing_entries(), 2);
        let h2 = f.sync();
        assert_eq!(h2.source("flaky").unwrap().status, SourceStatus::Healthy);
        assert_eq!(h2.missing_entries(), 0);
        assert_eq!(kept(&f), 2);
    }

    #[test]
    fn stale_cache_serves_while_site_is_down() {
        let store = site("ward", &[1, 2]);
        let mut f = fed();
        f.attach(Box::new(FaultySource::new(
            store.clone(),
            // Healthy on round 1, down from round 2 on: 0 failed
            // attempts first, then fail the next 100.
            SourceFaults::none(),
        )))
        .unwrap();
        f.sync();
        assert_eq!(kept(&f), 2);
        // The site grows an entry, then goes dark: swap in a down script.
        // (Simplest deterministic way to model "was up, now down".)
        store
            .append(&AuditEntry::regular(
                9,
                "u",
                "referral",
                "treatment",
                "nurse",
            ))
            .unwrap();
        let mut f2 = fed();
        f2.attach(Box::new(FaultySource::new(
            store.clone(),
            SourceFaults::none().permanently_down(),
        )))
        .unwrap();
        let h = f2.sync();
        // Nothing ever fetched here, but the hint still exposes 3 missing.
        assert_eq!(h.missing_entries(), 3);
        assert_eq!(kept(&f2), 0);
    }

    #[test]
    fn slow_source_times_out_and_falls_back() {
        let mut f = ResilientFederation::new(
            RetryPolicy {
                max_attempts: 2,
                attempt_timeout: Duration::from_millis(10),
                ..RetryPolicy::default()
            },
            BreakerConfig::default(),
        );
        f.attach(Box::new(FaultySource::new(
            site("molasses", &[1]),
            SourceFaults::none().latency(Duration::from_millis(50)),
        )))
        .unwrap();
        let h = f.sync();
        assert_eq!(
            h.source("molasses").unwrap().status,
            SourceStatus::Unavailable
        );
        assert_eq!(h.missing_entries(), 1);
    }

    #[test]
    fn breaker_opens_after_repeated_failures_then_probes() {
        let mut f = fed(); // threshold 2, cooldown 2
        f.attach(Box::new(FaultySource::new(
            site("down", &[1]),
            // Down for rounds 1-2 (2 attempts each), back from round 3 —
            // but by then the breaker is open.
            SourceFaults::none().fail_first_attempts(4),
        )))
        .unwrap();
        f.sync();
        let h2 = f.sync();
        assert_eq!(h2.source("down").unwrap().breaker, BreakerState::Open);
        // Round 3: still cooling down, no attempt made.
        let h3 = f.sync();
        assert_eq!(h3.source("down").unwrap().status, SourceStatus::CircuitOpen);
        assert_eq!(h3.source("down").unwrap().attempts, 0);
        // Round 4: half-open probe succeeds and closes the breaker.
        let h4 = f.sync();
        assert_eq!(h4.source("down").unwrap().status, SourceStatus::Healthy);
        assert_eq!(h4.source("down").unwrap().breaker, BreakerState::Closed);
        assert_eq!(kept(&f), 1);
    }

    #[test]
    fn corrupt_records_are_quarantined_not_fatal() {
        let mut f = fed();
        f.attach(Box::new(FaultySource::new(
            site("noisy", &[1, 2, 3, 4]),
            SourceFaults::none().corrupt_every(2),
        )))
        .unwrap();
        let h = f.sync();
        let s = h.source("noisy").unwrap();
        assert_eq!(s.status, SourceStatus::Degraded);
        assert_eq!(s.fetched, 2);
        assert_eq!(s.expected, 4);
        assert_eq!(s.quarantined, 2);
        assert_eq!(f.quarantine().for_source("noisy"), 2);
        // Quarantined records are excluded from the consolidated view
        // (the coverage denominator) but still count as missing.
        assert_eq!(kept(&f), 2);
        assert_eq!(h.missing_entries(), 2);
    }

    type Script = std::sync::Arc<std::sync::Mutex<Vec<AuditEntry>>>;

    /// A remote site serving whatever records its script holds at each
    /// fetch, blank attributes included (an `AuditStore` refuses those at
    /// append).
    #[derive(Debug)]
    struct RawSite(Script);

    impl LogSource for RawSite {
        fn name(&self) -> &str {
            "raw"
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

    #[test]
    fn unprojectable_entries_are_quarantined_with_reason() {
        let mut f = fed();
        f.attach(Box::new(RawSite(Script::new(
            vec![
                AuditEntry::regular(1, "u", "", "treatment", "nurse"),
                AuditEntry::regular(2, "u", "referral", "treatment", "nurse"),
            ]
            .into(),
        ))))
        .unwrap();
        let h = f.sync();
        assert_eq!(h.source("raw").unwrap().fetched, 1);
        assert_eq!(h.source("raw").unwrap().quarantined, 1);
        assert_eq!(
            f.quarantine().records()[0].reason,
            QuarantineReason::EmptyAttribute
        );
        assert_eq!(kept(&f), 1, "coverage denominator excludes it");
    }

    #[test]
    fn a_resync_parks_only_new_corrupt_records() {
        let registry = prima_obs::MetricsRegistry::new();
        let obs = FederationObs::over(registry.clone(), prima_obs::Tracer::new());
        let blank = |t: i64| AuditEntry::regular(t, "u", " ", "treatment", "nurse");
        let script = Script::new(vec![blank(1), blank(1)].into());
        let mut f = fed().with_observability(obs);
        f.attach(Box::new(RawSite(script.clone()))).unwrap();
        let labels = [("source", "raw"), ("reason", "empty-attribute")];
        let parked = registry.counter_with("prima_audit_quarantined_total", "", &labels);
        f.sync();
        f.sync();
        assert_eq!((f.quarantine().len(), parked.get()), (2, 2));
        script.lock().unwrap().push(blank(2));
        f.sync();
        f.sync();
        assert_eq!((f.quarantine().len(), parked.get()), (3, 3));
    }

    #[test]
    fn a_fetch_that_extends_the_last_appends_and_any_other_starts_a_new_store() {
        let e = |t: i64, data: &str| AuditEntry::exception(t, "u", data, "treatment", "nurse");
        let script = Script::new(vec![e(1, "referral")].into());
        let mut f = fed();
        f.attach(Box::new(RawSite(script.clone()))).unwrap();
        let store = |f: &ResilientFederation| f.stores().next().unwrap().clone();
        f.sync();
        let first = store(&f);
        // Unchanged, then grown: the same store, holding the fetch.
        f.sync();
        script.lock().unwrap().push(e(2, "psychiatry"));
        f.sync();
        assert!(store(&f).same_trail(&first));
        assert_eq!(first.entries(), *script.lock().unwrap());
        // Rewritten early, or truncated: a new store each time.
        script.lock().unwrap()[0] = e(1, "address");
        f.sync();
        let rewritten = store(&f);
        assert!(!rewritten.same_trail(&first));
        assert_eq!(rewritten.entries(), *script.lock().unwrap());
        script.lock().unwrap().pop();
        f.sync();
        assert!(!store(&f).same_trail(&rewritten));
        assert_eq!(store(&f).entries(), [e(1, "address")]);
        // A quarantined record is left out of the prefix it sits in.
        script.lock().unwrap().splice(
            0..0,
            [AuditEntry::exception(0, "u", " ", "treatment", "nurse")],
        );
        let kept_before = store(&f);
        let h = f.sync();
        assert_eq!(h.sources[0].quarantined, 1);
        assert!(
            store(&f).same_trail(&kept_before),
            "the well-formed entries extend it"
        );
    }

    #[test]
    fn instrumented_sync_books_retries_breakers_and_quarantine() {
        let registry = prima_obs::MetricsRegistry::new();
        let tracer = prima_obs::Tracer::new();
        let mut f = fed().with_observability(FederationObs::over(registry.clone(), tracer.clone()));
        f.attach(Box::new(FaultySource::new(
            site("noisy", &[1, 2, 3, 4]),
            SourceFaults::none().corrupt_every(2),
        )))
        .unwrap();
        f.attach(Box::new(FaultySource::new(
            site("down", &[9]),
            SourceFaults::none().permanently_down(),
        )))
        .unwrap();
        // Rounds 1-2: "down" burns 2 attempts each and opens the breaker
        // (threshold 2); round 3 is skipped under cooldown.
        f.sync();
        f.sync();
        let h3 = f.sync();
        assert_eq!(h3.source("down").unwrap().status, SourceStatus::CircuitOpen);

        let count =
            |name: &str, labels: &[(&str, &str)]| registry.counter_with(name, "", labels).get();
        assert_eq!(
            count("prima_audit_retry_attempts_total", &[("source", "noisy")]),
            3,
            "one clean attempt per round"
        );
        assert_eq!(
            count("prima_audit_retry_attempts_total", &[("source", "down")]),
            4,
            "two attempts in each of rounds 1-2, none under cooldown"
        );
        assert_eq!(
            count(
                "prima_audit_fetch_total",
                &[("source", "down"), ("outcome", "error")]
            ),
            2
        );
        assert_eq!(
            count(
                "prima_audit_fetch_total",
                &[("source", "down"), ("outcome", "skipped")]
            ),
            1
        );
        assert_eq!(
            count(
                "prima_audit_breaker_transitions_total",
                &[("source", "down"), ("to", "open")]
            ),
            1
        );
        assert_eq!(
            count(
                "prima_audit_quarantined_total",
                &[("source", "noisy"), ("reason", "malformed-record")]
            ),
            2,
            "the 2 corrupt records count once, however often they are re-fetched"
        );
        assert_eq!(count("prima_audit_sync_rounds_total", &[]), 3);
        let latencies = registry.histograms("prima_audit_sync_seconds");
        assert_eq!(latencies.len(), 1);
        assert_eq!(latencies[0].1.count(), 3);

        let spans = tracer.drain();
        let syncs: Vec<_> = spans
            .iter()
            .filter(|s| s.name == "federation.sync")
            .collect();
        let fetches: Vec<_> = spans
            .iter()
            .filter(|s| s.name == "federation.fetch")
            .collect();
        assert_eq!(syncs.len(), 3);
        assert_eq!(
            fetches.len(),
            5,
            "noisy 3x, down 2x (cooldown skips the probe)"
        );
        assert!(
            fetches
                .iter()
                .all(|s| syncs.iter().any(|p| p.id == s.parent)),
            "fetch spans parent to their sync round"
        );
    }

    #[test]
    fn empty_federation_is_well_behaved() {
        let mut f = ResilientFederation::default();
        let h = f.sync();
        assert!(h.all_healthy());
        assert_eq!(h.completeness(), 1.0);
        assert_eq!(kept(&f), 0);
        assert!(f.is_empty());
    }
}
