//! The long-lived PRIMA system object.

use prima_analyze::SafetyGate;
use prima_audit::{
    AuditEntry, AuditFederation, AuditStore, FederationError, FederationHealth, LogSource,
    NoViolations, ResilientFederation, ShapeTrail,
};
use prima_mining::{Miner, MiningError, SqlMiner};
use prima_model::{
    entry_ratio, CompiledPolicy, CompletenessBound, CoverageEngine, CoverageReport, Diagnostic,
    EntryCoverageReport, ModelError, Policy, Strategy,
};
use prima_refine::{refinement_with, RefinementConfig, ReviewQueue};
use prima_vocab::Vocabulary;

use crate::observe::{Stage, SystemObs};

/// How refinement candidates are decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReviewMode {
    /// Every useful pattern is accepted immediately (closed-loop
    /// experiments; Figure 2's idealized trajectory).
    AutoAccept,
    /// Candidates wait in the review queue for stakeholder decisions (the
    /// deployment mode the paper insists on).
    Manual,
}

/// What one refinement round did.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct RoundRecord {
    /// 1-based round number.
    pub round: usize,
    /// Entries visible to this round (federation-wide).
    pub audit_entries: usize,
    /// Entries surviving the Filter stage.
    pub practice_entries: usize,
    /// Patterns the miner surfaced.
    pub patterns_found: usize,
    /// Patterns surviving Prune (proposed to the review queue).
    pub patterns_useful: usize,
    /// Candidates newly enqueued (after dedup against prior decisions).
    pub candidates_enqueued: usize,
    /// Rules folded into the policy this round (auto-accept mode only).
    pub rules_added: usize,
    /// Entry-weighted coverage before the round's policy change.
    pub entry_coverage_before: f64,
    /// Entry-weighted coverage after (same trail, updated policy).
    pub entry_coverage_after: f64,
    /// Policy cardinality after the round.
    pub policy_cardinality: usize,
    /// Lower bound on the true post-round entry coverage, accounting for
    /// trail entries known to exist but unreachable this round (equals
    /// `entry_coverage_after` when every source was healthy).
    pub completeness_lower: f64,
    /// Upper bound on the true post-round entry coverage (see
    /// `completeness_lower`).
    pub completeness_upper: f64,
    /// True when mining was skipped because the consolidated trail fell
    /// below the system's completeness floor — rules proposed from a
    /// trail that degraded would overfit whatever happened to be
    /// reachable.
    pub refinement_deferred: bool,
}

/// The outcome of [`PrimaSystem::run_served_round`]: the refinement
/// round plus the serving layer's state after the republish.
#[derive(Debug)]
pub struct ServedRound {
    /// What the refinement round did.
    pub record: RoundRecord,
    /// Whether the republish actually changed the serving policy (an
    /// unchanged snapshot is a no-op; a rejected or held install also
    /// reports `false` — see `health`).
    pub refreshed: bool,
    /// Service health sampled right after the republish: degraded
    /// (pinned last-known-good), install holds, breaker state, worker
    /// pool status, overload counters.
    pub health: prima_serve::ServeHealth,
}

/// The PRIMA system: Figure 4 as an object.
pub struct PrimaSystem {
    vocab: Vocabulary,
    policy: Policy,
    federation: AuditFederation,
    /// Remote log sources consolidated with retries, circuit breaking,
    /// and quarantine; empty unless [`Self::attach_source`] was used.
    resilient: ResilientFederation,
    /// Minimum trail completeness (`observed ÷ (observed + missing)`)
    /// required before a round is allowed to mine; 0 never defers.
    completeness_floor: f64,
    review: ReviewQueue,
    history: Vec<RoundRecord>,
    miner: Box<dyn Miner + Send + Sync>,
    /// Refinement-safety gate: when set, mined candidates must be strictly
    /// subsumed by the gate's umbrella envelope or they are rejected with
    /// a `PA005` diagnostic instead of widening the policy.
    gate: Option<SafetyGate>,
    /// `PA005` diagnostics from the most recent round (or manual apply);
    /// reset at the start of each.
    last_gate_diagnostics: Vec<Diagnostic>,
    /// Metrics and spans around rounds; disabled (free) by default.
    obs: SystemObs,
}

impl PrimaSystem {
    /// Creates a system with the paper's default miner (SQL group-by with
    /// `f = 5`, `COUNT(DISTINCT user) > 1`).
    pub fn new(vocab: Vocabulary, policy: Policy) -> Self {
        Self {
            vocab,
            policy,
            federation: AuditFederation::new(),
            resilient: ResilientFederation::default(),
            completeness_floor: 0.0,
            review: ReviewQueue::new(),
            history: Vec::new(),
            miner: Box::new(SqlMiner::default()),
            gate: None,
            last_gate_diagnostics: Vec::new(),
            obs: SystemObs::disabled(),
        }
    }

    /// Replaces the miner (e.g. with the Apriori miner of experiment E8).
    pub fn with_miner(mut self, miner: Box<dyn Miner + Send + Sync>) -> Self {
        self.miner = miner;
        self
    }

    /// Installs a refinement-safety envelope: mined candidates must be
    /// strictly subsumed by some rule of `envelope` or they are rejected
    /// with a `PA005` diagnostic — in auto-accept rounds the rule is not
    /// added, and in manual mode an accept decision on a widening
    /// candidate is overturned at apply time. The diagnostics of the most
    /// recent round are available via [`Self::last_gate_diagnostics`].
    ///
    /// The envelope is a *separate* umbrella policy, not the evolving
    /// `P_PS`: Prune already removes patterns the policy store covers, so
    /// gating against `P_PS` itself would reject every surviving pattern.
    pub fn with_safety_envelope(mut self, envelope: Policy) -> Self {
        self.gate = Some(SafetyGate::new(envelope));
        self
    }

    /// The installed refinement-safety gate, if any.
    pub fn safety_gate(&self) -> Option<&SafetyGate> {
        self.gate.as_ref()
    }

    /// `PA005` diagnostics produced by the most recent
    /// [`Self::run_round`] / [`Self::apply_review_decisions`] call (empty
    /// when no gate is installed or nothing widened).
    pub fn last_gate_diagnostics(&self) -> &[Diagnostic] {
        &self.last_gate_diagnostics
    }

    /// Installs observability: rounds record per-stage timings, coverage
    /// gauges, and spans into `obs`. Pass [`SystemObs::enabled`] for a
    /// fresh registry, or [`SystemObs::over`] to share a registry and
    /// tracer with the stream engine and federation.
    ///
    /// The resilient source federation is rewired onto the same registry
    /// and tracer, so one scrape covers rounds and federation alike.
    /// (Stream engines share the books via
    /// [`prima_stream::StreamConfig::observability`] at
    /// [`Self::attach_stream`] time.)
    pub fn with_observability(mut self, obs: SystemObs) -> Self {
        self.resilient = std::mem::take(&mut self.resilient).with_observability(
            prima_audit::FederationObs::over(obs.registry().clone(), obs.tracer().clone()),
        );
        self.obs = obs;
        self
    }

    /// This system's observability handle (registry, tracer, profile).
    pub fn obs(&self) -> &SystemObs {
        &self.obs
    }

    /// Per-stage latency profile of every round run so far.
    pub fn pipeline_report(&self) -> prima_obs::PipelineReport {
        self.obs.pipeline_report()
    }

    /// Sets the completeness floor: a round whose consolidated trail is
    /// less complete than `floor` (because sources were unreachable or
    /// truncated) records its coverage interval but refuses to mine —
    /// patterns from a partial trail would encode the outage, not the
    /// practice. Clamped to `[0, 1]`; the default 0 never defers.
    pub fn with_completeness_floor(mut self, floor: f64) -> Self {
        self.completeness_floor = floor.clamp(0.0, 1.0);
        self
    }

    /// Registers an audit source — e.g. the store an HDB Compliance
    /// Auditing instance writes to, or a per-site trail. Rejects a store
    /// whose name is already registered (a double registration would
    /// double-count every entry in provenance and coverage).
    pub fn attach_store(&mut self, store: AuditStore) -> Result<(), FederationError> {
        self.federation.register(store)
    }

    /// Registers a remote log source behind the resilience layer: it is
    /// fetched with retries and a circuit breaker on every
    /// [`Self::sync_sources`], its malformed records are quarantined,
    /// and its gaps show up in [`Self::federation_health`] rather than
    /// silently shrinking the trail.
    pub fn attach_source(&mut self, source: Box<dyn LogSource>) -> Result<(), FederationError> {
        self.resilient.attach(source)
    }

    /// Runs one consolidation round over the resilient sources and
    /// returns the resulting health report. Call before a refinement
    /// round to refresh the remote slice of the trail.
    pub fn sync_sources(&mut self) -> FederationHealth {
        self.resilient.sync()
    }

    /// Health of the resilient sources after the latest
    /// [`Self::sync_sources`] (a default, all-healthy report when no
    /// sources are attached or no sync has run).
    pub fn federation_health(&self) -> FederationHealth {
        self.resilient.health()
    }

    /// The resilient remote-source federation (retry/breaker tuning).
    pub fn resilient_mut(&mut self) -> &mut ResilientFederation {
        &mut self.resilient
    }

    /// Attaches a live ingestion pipeline: starts a
    /// [`prima_stream::StreamEngine`] classifying against the current
    /// policy, whose durable sink is a fresh store registered with this
    /// system's federation under the first unused `stream-{n}` name.
    /// Streamed entries are therefore visible to every batch
    /// computation (`run_round`, `coverage`, …) while the engine
    /// maintains the same coverage incrementally.
    ///
    /// The caller owns the returned engine and drives ingestion;
    /// [`Self::run_streamed_round`] closes the loop back into
    /// refinement. Ingestion is block-based —
    /// [`prima_stream::StreamConfig::block_size`] entries accumulate
    /// per shard before a flush — but every barrier the engine runs
    /// (snapshot, checkpoint, policy refresh) flushes partial blocks
    /// first, so the rounds this system trains never observe a
    /// block-size-dependent cut of the trail.
    pub fn attach_stream(
        &mut self,
        config: prima_stream::StreamConfig,
    ) -> prima_stream::StreamEngine {
        let sources = self.federation.sources();
        let mut n = sources.len();
        while sources.iter().any(|s| s.name() == format!("stream-{n}")) {
            n += 1;
        }
        let store = AuditStore::new(&format!("stream-{n}"));
        self.federation
            .register(store.clone())
            .expect("the sink name was checked unused");
        let matcher = prima_model::PolicyMatcher::new(&self.policy, &self.vocab);
        prima_stream::StreamEngine::start(config, matcher).with_sink(store)
    }

    /// Attaches the serving layer: starts a [`prima_serve::PolicyService`]
    /// answering decision requests against the current policy, sharing
    /// this system's metrics registry and tracer so one scrape covers
    /// refinement rounds and serving alike. The caller owns the returned
    /// service and its transports; after a refinement round changes the
    /// policy, [`Self::refresh_serve`] (or [`Self::run_served_round`])
    /// republishes it and invalidates the service's decision cache.
    pub fn attach_serve(&self, config: prima_serve::ServeConfig) -> prima_serve::PolicyService {
        let config = config
            .metrics(self.obs.registry().clone())
            .tracer(self.obs.tracer().clone());
        prima_serve::PolicyService::start(config, &self.policy, &self.vocab)
    }

    /// Republishes the current policy store into a serving instance.
    /// Returns `true` when the install took effect (the policy actually
    /// changed since the service last saw it) — every cached decision
    /// from older revisions is invalidated at that instant.
    pub fn refresh_serve(&self, service: &prima_serve::PolicyService) -> bool {
        service.install_policy(&self.policy)
    }

    /// Runs one refinement round, then immediately republishes the
    /// (possibly refined) policy to the serving layer so in-flight
    /// traffic never sees a verdict from the superseded revision.
    ///
    /// The returned [`ServedRound`] carries the service's health sampled
    /// right after the republish: a rejected install (the service pins
    /// last-known-good and serves degraded) or an install hold (crash-
    /// loop breaker open) shows up here instead of vanishing into a
    /// swallowed boolean.
    pub fn run_served_round(
        &mut self,
        service: &prima_serve::PolicyService,
        mode: ReviewMode,
    ) -> Result<ServedRound, MiningError> {
        let record = self.run_round(mode)?;
        let refreshed = self.refresh_serve(service);
        Ok(ServedRound {
            record,
            refreshed,
            health: service.health(),
        })
    }

    /// Runs one refinement round over the stream's trailing training
    /// window, then pushes the (possibly refined) policy back into the
    /// engine so its shards re-label their verdicts under the new epoch.
    ///
    /// Returns `None` when the stream has no training window yet (window
    /// tracking off or no events ingested): there is nothing to train
    /// on, and running an unwindowed round here would silently violate
    /// the "train on the latest period" contract.
    pub fn run_streamed_round(
        &mut self,
        engine: &mut prima_stream::StreamEngine,
        mode: ReviewMode,
    ) -> Result<Option<RoundRecord>, MiningError> {
        let snapshot = engine.snapshot();
        let Some(window) = snapshot.window else {
            return Ok(None);
        };
        let record = self.run_round_windowed(window, mode)?;
        engine.refresh_policy(&self.policy);
        Ok(Some(record))
    }

    /// The audit federation (Audit Management component).
    pub fn federation(&self) -> &AuditFederation {
        &self.federation
    }

    /// The current policy store.
    pub fn policy(&self) -> &Policy {
        &self.policy
    }

    /// The vocabulary.
    pub fn vocab(&self) -> &Vocabulary {
        &self.vocab
    }

    /// The review queue (manual mode drives decisions through this).
    pub fn review_mut(&mut self) -> &mut ReviewQueue {
        &mut self.review
    }

    /// Read access to the review queue.
    pub fn review(&self) -> &ReviewQueue {
        &self.review
    }

    /// Refinement-round history.
    pub fn history(&self) -> &[RoundRecord] {
        &self.history
    }

    /// The full consolidated trail: local federated stores plus the
    /// latest synced view of the resilient sources, merged in timestamp
    /// order (stable — local stores first within a tie, matching each
    /// federation's own documented tie-break).
    fn all_entries(&self) -> Vec<AuditEntry> {
        let mut entries = self.federation.consolidated_entries();
        if !self.resilient.is_empty() {
            entries.extend(self.resilient.consolidated_entries());
            entries.sort_by_key(|e| e.time);
        }
        entries
    }

    /// Set-based coverage (Definition 9) of the current policy with
    /// respect to the consolidated audit trail's distinct shapes, using the
    /// lazy engine. An entry with a blank attribute has no shape and fails
    /// the computation with [`ModelError::EmptyTerm`].
    pub fn coverage(&self) -> Result<CoverageReport, ModelError> {
        let shapes = ShapeTrail::of(&self.all_entries()).map_err(|_| ModelError::EmptyTerm)?;
        let trail = Policy::from_ground_rules(
            prima_model::StoreTag::AuditLog,
            shapes.shapes().iter().cloned(),
        );
        CoverageEngine::new(Strategy::Lazy).coverage(&self.policy, &trail, &self.vocab)
    }

    /// Entry-weighted coverage (the Section 5 computation) over the
    /// consolidated trail. `uncovered_indices` index the trail
    /// [`Self::run_round`] sees: local and resilient entries merged in
    /// timestamp order. An entry that projects to no ground rule (a blank
    /// attribute) counts as uncovered.
    pub fn entry_coverage(&self) -> EntryCoverageReport {
        self.entry_coverage_over(&self.all_entries())
    }

    fn entry_coverage_over(&self, entries: &[AuditEntry]) -> EntryCoverageReport {
        let trail = ShapeTrail::lossy(entries);
        EntryCoverageReport::weigh(&self.verdicts(&trail), trail.shape_ids())
    }

    /// One verdict per distinct shape of `trail` under the current policy
    /// revision, compiled once for the call.
    fn verdicts(&self, trail: &ShapeTrail) -> Vec<bool> {
        CompiledPolicy::new(&self.policy, &self.vocab).verdicts(trail.shapes())
    }

    /// Entry-weighted coverage annotated with its completeness bound:
    /// the interval the *true* coverage (over the trail including
    /// entries currently unreachable or quarantined) must lie in. Exact
    /// when every source is healthy.
    pub fn entry_coverage_with_bound(&self) -> (EntryCoverageReport, CompletenessBound) {
        let report = self.entry_coverage();
        let bound = self
            .federation_health()
            .bound_for(report.covered_entries, report.total_entries);
        (report, bound)
    }

    /// Runs one refinement round over the consolidated trail.
    ///
    /// # Errors
    /// [`MiningError::Trail`] when a trail entry projects to no ground
    /// rule; otherwise whatever the miner reports.
    pub fn run_round(&mut self, mode: ReviewMode) -> Result<RoundRecord, MiningError> {
        let entries = self.round_entries(None);
        self.run_round_over(entries, mode)
    }

    /// Runs one refinement round over only the entries inside the training
    /// window (Section 4.3's training period) — the deployment shape where
    /// refinement runs "at regular intervals" over the latest period.
    pub fn run_round_windowed(
        &mut self,
        window: prima_audit::TrainingWindow,
        mode: ReviewMode,
    ) -> Result<RoundRecord, MiningError> {
        let entries = self.round_entries(Some(window));
        self.run_round_over(entries, mode)
    }

    /// The consolidated trail a round runs over, optionally cut to a
    /// training window, timed as the round's `federate` stage.
    fn round_entries(&self, window: Option<prima_audit::TrainingWindow>) -> Vec<AuditEntry> {
        let start = std::time::Instant::now();
        let mut entries = self.all_entries();
        if let Some(window) = window {
            entries.retain(|e| window.contains(e.time));
        }
        self.obs
            .stage(Stage::Federate)
            .observe_duration(start.elapsed());
        entries
    }

    fn run_round_over(
        &mut self,
        entries: Vec<AuditEntry>,
        mode: ReviewMode,
    ) -> Result<RoundRecord, MiningError> {
        let round = self.history.len() + 1;
        self.last_gate_diagnostics.clear();
        // A round is one trace: nested stage spans (refine, propose,
        // coverage) inherit this root thread-locally, and incident dumps
        // mark its trace in the flight-recorder replay.
        let mut round_span = self
            .obs
            .tracer()
            .root_span("round.run")
            .with_field("round", round)
            .with_field("entries", entries.len());
        let ground_start = std::time::Instant::now();
        let trail = ShapeTrail::of(&entries)?;
        self.obs
            .stage(Stage::Ground)
            .observe_duration(ground_start.elapsed());
        let coverage_start = std::time::Instant::now();
        let before = entry_ratio(trail.covered_entries(&self.verdicts(&trail)), trail.len());
        let before_elapsed = coverage_start.elapsed();

        let health = self.federation_health();
        let deferred = health.completeness() < self.completeness_floor;

        let (practice_entries, patterns_found, patterns_useful, candidates_enqueued, rules_added) =
            if deferred {
                // Below the floor: record the round, but don't mine — a
                // pattern "frequent" in a half-visible trail may only be
                // frequent because the other half is dark.
                self.obs.deferred_total.inc();
                drop(
                    self.obs
                        .tracer()
                        .span("round.deferred")
                        .with_field("completeness", health.completeness()),
                );
                // A blind round is an incident: keep its trace and dump
                // the black box so the spans leading up to it replay.
                round_span.mark_interesting();
                self.obs
                    .incident("round_deferred", round_span.context().trace_id);
                (0, 0, 0, 0, 0)
            } else {
                let mine_span = self.obs.tracer().span("round.refine");
                let classifier = NoViolations;
                let mut config = RefinementConfig::new(&*self.miner, &classifier);
                if let Some(gate) = self.gate.as_ref() {
                    config = config.with_gate(gate);
                }
                let report = refinement_with(&self.policy, &entries, &self.vocab, &config)?;
                drop(
                    mine_span
                        .with_field("practice", report.practice_entries)
                        .with_field("patterns", report.raw_patterns.len()),
                );
                // Widening patterns the gate diverted never reach the
                // review queue; keep their diagnostics for the caller.
                self.last_gate_diagnostics
                    .extend(report.gate_rejected.iter().map(|(_, d)| d.clone()));
                // The refine pipeline hands back its own stage clocks, so
                // the histograms see the true per-stage split rather than
                // one lump.
                self.obs
                    .stage(Stage::Filter)
                    .observe_duration(report.filter_duration);
                self.obs
                    .stage(Stage::Mine)
                    .observe_duration(report.mine_duration);
                self.obs
                    .stage(Stage::Prune)
                    .observe_duration(report.prune_duration);
                let propose_span = self.obs.tracer().span("round.propose");
                let propose_start = std::time::Instant::now();
                let enqueued = self.review.propose(report.useful_patterns.clone(), round);
                let added = match mode {
                    ReviewMode::AutoAccept => {
                        self.review.accept_all_pending();
                        match self.gate.as_ref() {
                            Some(gate) => {
                                let (added, diags) = self.review.apply_accepted_gated(
                                    &mut self.policy,
                                    gate,
                                    &self.vocab,
                                );
                                self.last_gate_diagnostics.extend(diags);
                                added
                            }
                            None => self.review.apply_accepted(&mut self.policy),
                        }
                    }
                    ReviewMode::Manual => 0,
                };
                self.obs
                    .stage(Stage::Propose)
                    .observe_duration(propose_start.elapsed());
                drop(propose_span.with_field("enqueued", enqueued));
                self.obs
                    .patterns_useful_total
                    .add(report.useful_patterns.len() as u64);
                self.obs.rules_added_total.add(added as u64);
                (
                    report.practice_entries,
                    report.raw_patterns.len(),
                    report.useful_patterns.len(),
                    enqueued,
                    added,
                )
            };

        let after_span = self.obs.tracer().span("round.coverage");
        let after_start = std::time::Instant::now();
        let covered_after = trail.covered_entries(&self.verdicts(&trail));
        // The coverage stage is both passes over the trail (before and
        // after the policy change), so the histogram sees their sum.
        self.obs
            .stage(Stage::Coverage)
            .observe_duration(before_elapsed + after_start.elapsed());
        drop(after_span);
        let after = entry_ratio(covered_after, trail.len());
        let bound = health.bound_for(covered_after, trail.len());

        self.obs.rounds_total.inc();
        self.obs.coverage_ratio.set(after);
        self.obs.completeness_lower.set(bound.lower);
        self.obs.completeness_upper.set(bound.upper);
        // SLO: the fraction of rounds running blind (trail completeness
        // under the floor) feeds the multi-window burn rates.
        self.obs
            .slo()
            .record("coverage_completeness", f64::from(deferred), 1.0);
        round_span.field("coverage", format!("{after:.4}"));
        if !self.last_gate_diagnostics.is_empty() {
            // The safety gate refused at least one candidate this round:
            // always keep the trace, and dump the black box with this
            // round's trace marked (the nested stage spans have already
            // closed into the ring).
            round_span.field("gate_rejections", self.last_gate_diagnostics.len());
            round_span.mark_interesting();
            self.obs
                .incident("gate_rejected", round_span.context().trace_id);
        }

        let record = RoundRecord {
            round,
            audit_entries: entries.len(),
            practice_entries,
            patterns_found,
            patterns_useful,
            candidates_enqueued,
            rules_added,
            entry_coverage_before: before,
            entry_coverage_after: after,
            policy_cardinality: self.policy.cardinality(),
            completeness_lower: bound.lower,
            completeness_upper: bound.upper,
            refinement_deferred: deferred,
        };
        self.history.push(record.clone());
        Ok(record)
    }

    /// Applies accepted manual-review decisions to the policy, returning
    /// the number of rules added. When a safety envelope is installed, an
    /// accepted candidate the gate rejects is *not* applied: its state is
    /// overturned to Rejected with the `PA005` diagnostic as the note,
    /// and the diagnostic lands in [`Self::last_gate_diagnostics`].
    pub fn apply_review_decisions(&mut self) -> usize {
        match self.gate.as_ref() {
            Some(gate) => {
                let (added, diags) =
                    self.review
                        .apply_accepted_gated(&mut self.policy, gate, &self.vocab);
                self.last_gate_diagnostics = diags;
                added
            }
            None => self.review.apply_accepted(&mut self.policy),
        }
    }

    /// Installs restored review/history state (used by
    /// [`crate::snapshot`]).
    pub(crate) fn restore_state(&mut self, review: ReviewQueue, history: Vec<RoundRecord>) {
        self.review = review;
        self.history = history;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prima_model::samples::figure_3_policy_store;
    use prima_refine::CandidateState;
    use prima_vocab::samples::figure_1;
    use prima_workload::fixtures::table_1;

    fn system_with_table_1() -> PrimaSystem {
        let mut sys = PrimaSystem::new(figure_1(), figure_3_policy_store());
        let store = AuditStore::new("main");
        store.append_all(&table_1()).unwrap();
        sys.attach_store(store).unwrap();
        sys
    }

    #[test]
    fn section_5_auto_accept_round() {
        let mut sys = system_with_table_1();
        let before = sys.entry_coverage();
        assert!((before.percent() - 30.0).abs() < 1e-9, "paper's 30%");

        let record = sys.run_round(ReviewMode::AutoAccept).unwrap();
        assert_eq!(record.audit_entries, 10);
        assert_eq!(record.practice_entries, 7);
        assert_eq!(record.patterns_found, 1);
        assert_eq!(record.patterns_useful, 1);
        assert_eq!(record.rules_added, 1);
        assert_eq!(record.policy_cardinality, 4);
        // Accepting Referral:Registration:Nurse covers t3, t7-t10: 8/10.
        assert!((record.entry_coverage_after - 0.8).abs() < 1e-9);
        assert!(record.entry_coverage_after > record.entry_coverage_before);
        assert_eq!(sys.history().len(), 1);
    }

    #[test]
    fn manual_mode_waits_for_decisions() {
        let mut sys = system_with_table_1();
        let record = sys.run_round(ReviewMode::Manual).unwrap();
        assert_eq!(record.rules_added, 0);
        assert_eq!(record.candidates_enqueued, 1);
        assert_eq!(sys.policy().cardinality(), 3, "policy unchanged");

        let id = sys.review().pending().next().unwrap().id;
        sys.review_mut()
            .decide(id, CandidateState::Accepted, Some("ward workflow"));
        assert_eq!(sys.apply_review_decisions(), 1);
        assert_eq!(sys.policy().cardinality(), 4);
        assert!((sys.entry_coverage().ratio() - 0.8).abs() < 1e-9);
    }

    #[test]
    fn rejected_patterns_are_not_reproposed() {
        let mut sys = system_with_table_1();
        sys.run_round(ReviewMode::Manual).unwrap();
        let id = sys.review().pending().next().unwrap().id;
        sys.review_mut()
            .decide(id, CandidateState::Rejected, Some("should stop"));
        let second = sys.run_round(ReviewMode::Manual).unwrap();
        assert_eq!(second.patterns_useful, 1, "still mined");
        assert_eq!(second.candidates_enqueued, 0, "but not re-proposed");
    }

    #[test]
    fn safety_envelope_rejects_widening_round_with_pa005() {
        use prima_model::{Rule, StoreTag};
        // Envelope allows only administrative-staff billing access to
        // demographic data; the Table 1 mined pattern
        // referral:registration:nurse widens past it.
        let envelope = Policy::with_rules(
            StoreTag::Named("envelope".into()),
            vec![Rule::of(&[
                ("data", "demographic"),
                ("purpose", "billing"),
                ("authorized", "administrative-staff"),
            ])],
        );
        let mut sys = system_with_table_1().with_safety_envelope(envelope);
        let record = sys.run_round(ReviewMode::AutoAccept).unwrap();
        assert_eq!(record.patterns_useful, 0, "gate diverted the pattern");
        assert_eq!(record.rules_added, 0);
        assert_eq!(sys.policy().cardinality(), 3, "policy unchanged");
        let diags = sys.last_gate_diagnostics();
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code.as_str(), "PA005");
        assert!(diags[0].is_error());
        // Coverage stays at the paper's starting 30%.
        assert!((record.entry_coverage_after - 0.3).abs() < 1e-9);
    }

    #[test]
    fn gate_rejection_dumps_the_flight_recorder_with_the_rounds_trace() {
        use prima_model::{Rule, StoreTag};
        use prima_obs::FlightRecorder;
        let envelope = Policy::with_rules(
            StoreTag::Named("envelope".into()),
            vec![Rule::of(&[
                ("data", "demographic"),
                ("purpose", "billing"),
                ("authorized", "administrative-staff"),
            ])],
        );
        let flight = FlightRecorder::new(128);
        let mut sys = system_with_table_1()
            .with_safety_envelope(envelope)
            .with_observability(SystemObs::flight_enabled(flight.clone()));
        sys.run_round(ReviewMode::AutoAccept).unwrap();
        assert_eq!(sys.last_gate_diagnostics().len(), 1);

        // The rejection dumped the black box: the trigger names it, the
        // round's own trace is marked, and the nested stage spans that
        // led up to the rejection replay from the ring.
        let dump = flight.last_dump().expect("gate rejection dumped");
        assert_eq!(dump.trigger, "gate_rejected");
        assert_ne!(dump.trace_id, 0, "the round was traced");
        assert!(
            dump.records
                .iter()
                .any(|r| r.trace_id == dump.trace_id && r.name == "round.refine"),
            "dump replays the round's refine stage: {:?}",
            dump.records
        );
        assert!(dump.to_jsonl().contains("\"marked\":true"));
        // The SLO engine saw a healthy (non-deferred) round.
        assert!(!sys.obs().slo().is_breached("coverage_completeness"));
    }

    #[test]
    fn safety_envelope_admits_specializing_round() {
        use prima_model::{Rule, StoreTag};
        // Generous umbrella: medical-staff access to medical data for
        // administering healthcare. referral:registration:nurse is a
        // strict specialization, so the Section 5 round goes through.
        let envelope = Policy::with_rules(
            StoreTag::Named("envelope".into()),
            vec![Rule::of(&[
                ("data", "medical"),
                ("purpose", "administering-healthcare"),
                ("authorized", "medical-staff"),
            ])],
        );
        let mut sys = system_with_table_1().with_safety_envelope(envelope);
        let record = sys.run_round(ReviewMode::AutoAccept).unwrap();
        assert_eq!(record.rules_added, 1);
        assert!((record.entry_coverage_after - 0.8).abs() < 1e-9);
        assert!(sys.last_gate_diagnostics().is_empty());
        assert!(sys.safety_gate().is_some());
    }

    #[test]
    fn manual_accept_of_widening_candidate_is_overturned_at_apply() {
        use prima_model::{Rule, StoreTag};
        let envelope = Policy::with_rules(
            StoreTag::Named("envelope".into()),
            vec![Rule::of(&[
                ("data", "demographic"),
                ("purpose", "billing"),
                ("authorized", "administrative-staff"),
            ])],
        );
        let mut sys = system_with_table_1();
        // Run the round *without* a gate so the candidate reaches the
        // queue, then install the envelope before the reviewer applies —
        // the gated apply must overturn the stale accept.
        let record = sys.run_round(ReviewMode::Manual).unwrap();
        assert_eq!(record.candidates_enqueued, 1);
        let id = sys.review().pending().next().unwrap().id;
        sys.review_mut()
            .decide(id, CandidateState::Accepted, Some("looks fine"));
        sys = sys.with_safety_envelope(envelope);
        assert_eq!(sys.apply_review_decisions(), 0);
        assert_eq!(sys.policy().cardinality(), 3, "widening rule blocked");
        assert_eq!(sys.last_gate_diagnostics().len(), 1);
        assert_eq!(sys.last_gate_diagnostics()[0].code.as_str(), "PA005");
        let overturned = sys
            .review()
            .candidates()
            .iter()
            .find(|c| c.id == id)
            .unwrap();
        assert_eq!(overturned.state, CandidateState::Rejected);
        assert!(overturned.note.as_deref().unwrap().contains("PA005"));
    }

    #[test]
    fn set_coverage_also_available() {
        let sys = system_with_table_1();
        let report = sys.coverage().unwrap();
        // Set view: 6 distinct ground rules, 3 covered (paper's Fig 3).
        assert_eq!(report.target_cardinality, 6);
        assert_eq!(report.overlap, 3);
    }

    #[test]
    fn windowed_round_ignores_entries_outside_the_training_period() {
        let mut sys = system_with_table_1();
        // Window covering only t1..t5: the frequent pattern (t3, t7-t10)
        // has just one occurrence inside, so nothing is mined.
        let early = prima_audit::TrainingWindow::new(1, 6);
        let record = sys
            .run_round_windowed(early, ReviewMode::AutoAccept)
            .unwrap();
        assert_eq!(record.audit_entries, 5);
        assert_eq!(record.patterns_found, 0);
        // The full-trail window reproduces the Section 5 outcome.
        let full = prima_audit::TrainingWindow::new(1, 11);
        let record = sys
            .run_round_windowed(full, ReviewMode::AutoAccept)
            .unwrap();
        assert_eq!(record.audit_entries, 10);
        assert_eq!(record.rules_added, 1);
    }

    #[test]
    fn empty_federation_round_is_graceful() {
        let mut sys = PrimaSystem::new(figure_1(), figure_3_policy_store());
        let record = sys.run_round(ReviewMode::AutoAccept).unwrap();
        assert_eq!(record.audit_entries, 0);
        assert_eq!(record.patterns_found, 0);
        assert!((record.entry_coverage_before - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn streamed_entries_reach_batch_rounds() {
        use prima_stream::StreamConfig;
        let mut sys = PrimaSystem::new(figure_1(), figure_3_policy_store());
        let mut engine = sys.attach_stream(StreamConfig::with_shards(2));
        engine.ingest_all(&table_1());
        engine.drain();
        // The sink store is federated: the batch round sees the streamed
        // trail and reproduces the Section 5 outcome.
        let record = sys.run_round(ReviewMode::AutoAccept).unwrap();
        assert_eq!(record.audit_entries, 10);
        assert_eq!(record.rules_added, 1);
        assert!((record.entry_coverage_after - 0.8).abs() < 1e-9);
    }

    #[test]
    fn stream_sink_skips_a_taken_name() {
        use prima_stream::StreamConfig;
        let mut sys = PrimaSystem::new(figure_1(), figure_3_policy_store());
        let store = AuditStore::new("stream-1");
        store.append_all(&table_1()).unwrap();
        sys.attach_store(store).unwrap();
        let mut first = sys.attach_stream(StreamConfig::with_shards(1));
        let mut second = sys.attach_stream(StreamConfig::with_shards(1));
        first.ingest_all(&table_1());
        second.ingest_all(&table_1());
        first.drain();
        second.drain();
        let names: Vec<&str> = sys
            .federation()
            .sources()
            .iter()
            .map(|s| s.name())
            .collect();
        assert_eq!(names, ["stream-1", "stream-2", "stream-3"]);
        assert_eq!(sys.all_entries().len(), 30);
    }

    #[test]
    fn streamed_round_trains_on_window_and_refreshes_engine() {
        use prima_stream::StreamConfig;
        let mut sys = PrimaSystem::new(figure_1(), figure_3_policy_store());
        // Table 1's entries carry times 1..=10; a 100-second window
        // holds them all.
        let mut engine = sys.attach_stream(StreamConfig::with_shards(2).window_secs(100));
        engine.ingest_all(&table_1());

        let record = sys
            .run_streamed_round(&mut engine, ReviewMode::AutoAccept)
            .unwrap()
            .expect("window has events");
        assert_eq!(record.audit_entries, 10);
        assert_eq!(record.rules_added, 1);

        // The engine picked up the refined policy: its incremental view
        // now matches the post-refinement coverage.
        let snap = engine.shutdown();
        assert_eq!(snap.epoch, 1);
        assert!((snap.totals.ratio() - 0.8).abs() < 1e-9);
        assert!((snap.totals.ratio() - sys.entry_coverage().ratio()).abs() < 1e-12);
    }

    #[test]
    fn streamed_round_is_block_size_agnostic() {
        use prima_stream::StreamConfig;
        // The same streamed round at a block size that doesn't divide
        // the trail (partial flush at the snapshot barrier) must train
        // on the identical window and refine identically to the
        // row-at-a-time configuration.
        let run = |block_size: usize| {
            let mut sys = PrimaSystem::new(figure_1(), figure_3_policy_store());
            let mut engine = sys.attach_stream(
                StreamConfig::with_shards(2)
                    .window_secs(100)
                    .block_size(block_size),
            );
            engine.ingest_all(&table_1());
            let record = sys
                .run_streamed_round(&mut engine, ReviewMode::AutoAccept)
                .unwrap()
                .expect("window has events");
            (record, engine.shutdown())
        };
        let (record_row, snap_row) = run(1);
        let (record_blk, snap_blk) = run(7);
        assert_eq!(record_row.audit_entries, record_blk.audit_entries);
        assert_eq!(record_row.rules_added, record_blk.rules_added);
        assert_eq!(snap_row.totals, snap_blk.totals);
        assert_eq!(snap_row.epoch, snap_blk.epoch);
    }

    #[test]
    fn healthy_round_records_exact_completeness() {
        let mut sys = system_with_table_1();
        let record = sys.run_round(ReviewMode::AutoAccept).unwrap();
        assert!(!record.refinement_deferred);
        assert!((record.completeness_lower - record.entry_coverage_after).abs() < 1e-12);
        assert!((record.completeness_upper - record.entry_coverage_after).abs() < 1e-12);
    }

    #[test]
    fn outage_widens_coverage_to_an_interval_containing_the_truth() {
        use prima_audit::{FaultySource, SourceFaults, StoreSource};
        // Ground truth: both sites reachable. 10 entries from table 1
        // plus 5 uncovered psychiatry accesses at a second site.
        let site_a = AuditStore::new("site-a");
        site_a.append_all(&table_1()).unwrap();
        let site_b = AuditStore::new("site-b");
        for i in 0..5 {
            site_b
                .append(&AuditEntry::regular(
                    100 + i,
                    "u9",
                    "psychiatry",
                    "treatment",
                    "nurse",
                ))
                .unwrap();
        }

        let mut truth = PrimaSystem::new(figure_1(), figure_3_policy_store());
        truth
            .attach_source(Box::new(StoreSource::new(site_a.clone())))
            .unwrap();
        truth
            .attach_source(Box::new(StoreSource::new(site_b.clone())))
            .unwrap();
        assert!(truth.sync_sources().all_healthy());
        let true_coverage = truth.entry_coverage().ratio();

        // Degraded run: site-b is down (its manifest still advertises 5
        // entries), so coverage must become an interval containing the
        // true ratio.
        let mut sys = PrimaSystem::new(figure_1(), figure_3_policy_store());
        sys.attach_source(Box::new(StoreSource::new(site_a)))
            .unwrap();
        sys.attach_source(Box::new(FaultySource::new(
            site_b,
            SourceFaults::none().permanently_down(),
        )))
        .unwrap();
        let health = sys.sync_sources();
        assert!(!health.all_healthy());
        assert_eq!(health.missing_entries(), 5);

        let (report, bound) = sys.entry_coverage_with_bound();
        assert_eq!(report.total_entries, 10, "only site-a is visible");
        assert!(!bound.is_exact());
        assert!(
            bound.contains(true_coverage),
            "true coverage {true_coverage} outside [{}, {}]",
            bound.lower,
            bound.upper
        );

        let record = sys.run_round(ReviewMode::Manual).unwrap();
        assert!(record.completeness_lower <= true_coverage);
        assert!(record.completeness_upper >= true_coverage);
        assert!(record.completeness_upper > record.completeness_lower);
    }

    #[test]
    fn completeness_floor_defers_mining_until_sources_recover() {
        use prima_audit::{FaultySource, SourceFaults, StoreSource};
        let site_a = AuditStore::new("site-a");
        site_a.append_all(&table_1()).unwrap();
        // A second site as large as the first, unreachable for the first
        // two sync rounds: completeness is 10/20 = 0.5 < 0.75.
        let site_b = AuditStore::new("site-b");
        for i in 0..10 {
            site_b
                .append(&AuditEntry::regular(
                    100 + i,
                    "u9",
                    "referral",
                    "registration",
                    "nurse",
                ))
                .unwrap();
        }
        let mut sys =
            PrimaSystem::new(figure_1(), figure_3_policy_store()).with_completeness_floor(0.75);
        sys.attach_source(Box::new(StoreSource::new(site_a)))
            .unwrap();
        sys.attach_source(Box::new(FaultySource::new(
            site_b,
            SourceFaults::none().fail_first_attempts(8),
        )))
        .unwrap();

        sys.sync_sources();
        let degraded = sys.run_round(ReviewMode::AutoAccept).unwrap();
        assert!(degraded.refinement_deferred, "below the floor: no mining");
        assert_eq!(degraded.rules_added, 0);
        assert_eq!(sys.policy().cardinality(), 3, "policy untouched");

        // Retries eventually reach the source; the next round mines.
        let mut recovered = sys.sync_sources();
        while !recovered.all_healthy() {
            recovered = sys.sync_sources();
        }
        let healthy = sys.run_round(ReviewMode::AutoAccept).unwrap();
        assert!(!healthy.refinement_deferred);
        assert_eq!(healthy.audit_entries, 20);
        assert!(healthy.rules_added >= 1, "registration pattern now mined");
    }

    #[test]
    fn observed_round_profiles_every_stage() {
        let mut sys = system_with_table_1().with_observability(SystemObs::enabled());
        sys.run_round(ReviewMode::AutoAccept).unwrap();

        let report = sys.pipeline_report();
        assert_eq!(report.stages.len(), crate::observe::STAGES.len());
        assert!(
            report.all_stages_observed(),
            "every stage observed at least once: {report}"
        );
        for stage in ["federate", "ground", "coverage"] {
            assert_eq!(report.stage(stage).unwrap().count, 1, "{stage}");
        }
        assert_eq!(sys.obs().rounds_total.get(), 1);
        assert_eq!(sys.obs().rules_added_total.get(), 1);
        let coverage = sys.obs().coverage_ratio.get();
        assert!((coverage - 0.8).abs() < 1e-9, "gauge tracks the round");

        let spans = sys.obs().tracer().drain();
        let round = spans.iter().find(|s| s.name == "round.run").unwrap();
        let refine = spans.iter().find(|s| s.name == "round.refine").unwrap();
        assert_eq!(refine.parent, round.id, "refine nests under the round");
        assert!(spans.iter().any(|s| s.name == "round.propose"));
        assert!(spans.iter().any(|s| s.name == "round.coverage"));
    }

    #[test]
    fn deferred_round_counts_and_skips_stage_timings() {
        use prima_audit::{FaultySource, SourceFaults};
        let site = AuditStore::new("site");
        site.append_all(&table_1()).unwrap();
        let mut sys = PrimaSystem::new(figure_1(), figure_3_policy_store())
            .with_completeness_floor(0.75)
            .with_observability(SystemObs::enabled());
        sys.attach_source(Box::new(FaultySource::new(
            site,
            SourceFaults::none().permanently_down(),
        )))
        .unwrap();
        sys.sync_sources();
        let record = sys.run_round(ReviewMode::AutoAccept).unwrap();
        assert!(record.refinement_deferred);
        assert_eq!(sys.obs().deferred_total.get(), 1);
        let report = sys.pipeline_report();
        let mine = report.stage("mine").unwrap();
        assert_eq!(mine.count, 0, "deferred rounds never mine");
    }

    #[test]
    fn unobserved_round_exports_nothing() {
        let mut sys = system_with_table_1();
        sys.run_round(ReviewMode::AutoAccept).unwrap();
        assert!(!sys.obs().is_enabled());
        assert!(sys.pipeline_report().stages.is_empty());
        assert!(sys.obs().tracer().drain().is_empty());
    }

    #[test]
    fn served_round_republishes_the_refined_policy() {
        use prima_serve::{DecisionRequest, ServeConfig, Transport};
        let mut sys = system_with_table_1();
        let service = sys.attach_serve(ServeConfig::new().workers(2));
        let handle = service.handle();

        // Before refinement, the Section 5 informal workflow is denied.
        let req = DecisionRequest::new("u3", "nurse", "referral", "registration", "granted");
        let before = handle.decide(req.clone()).unwrap();
        assert!(!before.verdict.is_allow());
        assert_eq!(before.policy_revision, sys.policy().revision());

        // The auto-accept round promotes referral:registration:nurse and
        // pushes it straight to the serving layer: the very next decision
        // (which would otherwise hit the cached denial) allows.
        let outcome = sys
            .run_served_round(&service, ReviewMode::AutoAccept)
            .unwrap();
        assert_eq!(outcome.record.rules_added, 1);
        assert!(outcome.refreshed, "the refined policy was republished");
        assert!(
            outcome.health.healthy(),
            "clean round leaves full service: {:?}",
            outcome.health
        );
        assert_eq!(outcome.health.policy_revision, sys.policy().revision());
        let after = handle.decide(req).unwrap();
        assert!(after.verdict.is_allow(), "refined rule visible immediately");
        assert_eq!(after.policy_revision, sys.policy().revision());
        assert!(after.policy_revision > before.policy_revision);

        let snap = service.shutdown();
        assert!(snap.cache.invalidations >= 1, "republish invalidated");
    }

    #[test]
    fn refresh_serve_is_idempotent_until_the_policy_changes() {
        use prima_serve::ServeConfig;
        let mut sys = system_with_table_1();
        let service = sys.attach_serve(ServeConfig::new().workers(1));
        assert!(!sys.refresh_serve(&service), "unchanged policy: no-op");
        sys.run_round(ReviewMode::AutoAccept).unwrap();
        assert!(sys.refresh_serve(&service), "refined policy installs");
        assert!(!sys.refresh_serve(&service), "and only once");
        service.shutdown();
    }

    #[test]
    fn attached_service_shares_the_system_metrics_registry() {
        use prima_serve::{DecisionRequest, ServeConfig};
        let sys = system_with_table_1().with_observability(SystemObs::enabled());
        let service = sys.attach_serve(ServeConfig::new().workers(1));
        let req = DecisionRequest::new("u1", "nurse", "prescription", "treatment", "granted");
        service.engine().decide(&req);
        service.shutdown();
        // The decision counter landed in the *system's* registry.
        let rendered = prima_obs::export::prometheus(sys.obs().registry());
        assert!(
            rendered.contains("prima_serve_decisions_total 1"),
            "serve metrics share the system registry:\n{rendered}"
        );
    }

    #[test]
    fn streamed_round_without_window_is_none() {
        use prima_stream::StreamConfig;
        let mut sys = PrimaSystem::new(figure_1(), figure_3_policy_store());
        let mut engine = sys.attach_stream(StreamConfig::with_shards(1));
        engine.ingest_all(&table_1());
        let outcome = sys
            .run_streamed_round(&mut engine, ReviewMode::AutoAccept)
            .unwrap();
        assert!(outcome.is_none(), "no window tracking, no training period");
    }

    #[test]
    fn entry_coverage_indexes_the_trail_rounds_see() {
        use prima_audit::StoreSource;
        // Local and resilient timestamps interleave: the uncovered
        // indices must point into the time-merged trail, not into
        // "local, then resilient".
        let shape = |t: i64, data: &str| AuditEntry::regular(t, "u", data, "treatment", "nurse");
        let local = AuditStore::new("local");
        local
            .append_all(&[
                shape(1, "referral"),
                shape(3, "psychiatry"),
                shape(5, "referral"),
            ])
            .unwrap();
        let remote = AuditStore::new("remote");
        remote
            .append_all(&[shape(2, "psychiatry"), shape(4, "referral")])
            .unwrap();
        let mut sys = PrimaSystem::new(figure_1(), figure_3_policy_store());
        sys.attach_store(local).unwrap();
        sys.attach_source(Box::new(StoreSource::new(remote)))
            .unwrap();
        assert!(sys.sync_sources().all_healthy());

        let trail = sys.all_entries();
        let times: Vec<i64> = trail.iter().map(|e| e.time).collect();
        assert_eq!(times, vec![1, 2, 3, 4, 5]);
        let report = sys.entry_coverage();
        assert_eq!(report.uncovered_indices, vec![1, 2]);
        assert!(report
            .uncovered_indices
            .iter()
            .all(|&i| trail[i].data == "psychiatry"));
        assert_eq!(sys.coverage().unwrap().target_cardinality, 2);
        let record = sys.run_round(ReviewMode::Manual).unwrap();
        assert_eq!(record.audit_entries, 5);
        assert!((record.entry_coverage_before - report.ratio()).abs() < 1e-12);
    }

    #[test]
    fn blank_purpose_is_refused_before_it_reaches_a_round() {
        // A blank purpose is refused at the store, so no round ever has
        // to ground it: the round runs on the rest and 30 % → 80 % holds.
        let mut sys = system_with_table_1();
        let blank = AuditEntry::exception(11, "eve", "referral", "   ", "nurse");
        let err = sys.federation().sources()[0].append(&blank).unwrap_err();
        assert_eq!(err.attribute, "purpose");
        let record = sys.run_round(ReviewMode::AutoAccept).unwrap();
        assert_eq!(record.audit_entries, 10);
        assert!((record.entry_coverage_before - 0.3).abs() < 1e-9);
        assert!((record.entry_coverage_after - 0.8).abs() < 1e-9);
    }

    #[test]
    fn case_variants_are_one_shape_and_two_entries() {
        let store = AuditStore::new("main");
        store
            .append_all(&[
                AuditEntry::regular(1, "tim", "Referral", "Treatment", "Nurse"),
                AuditEntry::regular(2, "ann", " referral ", "treatment", "nurse"),
            ])
            .unwrap();
        let mut sys = PrimaSystem::new(figure_1(), figure_3_policy_store());
        sys.attach_store(store).unwrap();
        let set = sys.coverage().unwrap();
        assert_eq!((set.overlap, set.target_cardinality), (1, 1));
        let entries = sys.entry_coverage();
        assert_eq!((entries.covered_entries, entries.total_entries), (2, 2));
        assert!(entries.uncovered_indices.is_empty());
    }

    #[test]
    fn paper_examples_stay_exact() {
        let mut figure_3 = PrimaSystem::new(figure_1(), figure_3_policy_store());
        let store = AuditStore::new("figure-3");
        store
            .append_all(&prima_workload::fixtures::figure_3_trail())
            .unwrap();
        figure_3.attach_store(store).unwrap();
        let set = figure_3.coverage().unwrap();
        assert_eq!((set.overlap, set.target_cardinality), (3, 6));
        assert_eq!(set.percent(), 50.0);

        let mut sys = system_with_table_1();
        let record = sys.run_round(ReviewMode::AutoAccept).unwrap();
        assert_eq!(record.entry_coverage_before, 0.3);
        assert_eq!(record.entry_coverage_after, 0.8);
        let mined: Vec<String> = sys
            .review()
            .candidates()
            .iter()
            .map(|c| c.pattern.compact(&["data", "purpose", "authorized"]))
            .collect();
        assert_eq!(mined, vec!["referral:registration:nurse"]);
        assert_eq!(sys.entry_coverage().ratio(), 0.8);
    }

    #[test]
    fn blank_attribute_fails_the_round_and_is_uncovered_in_coverage() {
        // Stores refuse blank attributes, so build the trail directly, as
        // a source that skipped those checks would hand it over.
        let mut sys = system_with_table_1();
        let mut entries = table_1();
        entries.insert(
            4,
            AuditEntry::exception(11, "eve", "referral", "   ", "nurse"),
        );

        let err = sys
            .run_round_over(entries.clone(), ReviewMode::AutoAccept)
            .unwrap_err();
        assert_eq!(
            err,
            MiningError::Trail(prima_audit::TrailError {
                index: 4,
                attribute: "purpose"
            })
        );
        assert!(sys.history().is_empty(), "a failed round records nothing");
        assert_eq!(sys.policy().cardinality(), 3, "policy untouched");

        let report = sys.entry_coverage_over(&entries);
        assert_eq!((report.covered_entries, report.total_entries), (3, 11));
        assert!(report.uncovered_indices.contains(&4));
    }
}
