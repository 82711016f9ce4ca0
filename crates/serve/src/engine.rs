//! The decision engine: validated request → cached verdict.
//!
//! One engine holds one *policy snapshot* — an owned [`PolicyMatcher`]
//! plus the `Policy::revision` it was built from — behind a `RwLock`,
//! next to the sharded decision cache. The hot path never takes the
//! write side: a cache hit is a shard probe plus two atomic loads, and a
//! miss takes the read lock just long enough to clone the `Arc` of the
//! current matcher.
//!
//! # Invalidation protocol
//!
//! The engine keeps its own monotonic **epoch**, advanced on every
//! effective [`DecisionEngine::install_policy`]. An install is effective
//! when the incoming policy's `(revision, rules-fingerprint)` differs
//! from the installed snapshot — the fingerprint catches the corner
//! where two unrelated fresh policies both sit at revision 0. The
//! install order is what makes the cache coherent:
//!
//! 1. take the state write lock, build the new matcher;
//! 2. bump the epoch **inside the lock** and record it in the state;
//! 3. release the lock, then advance the cache to the new epoch.
//!
//! A worker that decided under the old snapshot carries the old epoch as
//! its stamp; once the cache has advanced, that stamp no longer matches
//! and the entry is dropped on insert (or lazily evicted on probe). So a
//! promoted or overturned rule is visible to the very next decision —
//! the property `tests/coherence.rs` checks under random interleaving.

use crate::api::{
    Consent, DecisionReply, DecisionRequest, DenyReason, RewriteReply, RewriteRequest, Verdict,
};
use crate::cache::{DecisionKey, ServeCacheStats, ShardedDecisionCache};
use crate::obs::ServeObs;
use parking_lot::RwLock;
use prima_hdb::ColumnMap;
use prima_model::{GroundRule, Policy, PolicyMatcher};
use prima_vocab::{Vocabulary, ATTR_AUTHORIZED, ATTR_DATA, ATTR_PURPOSE};
use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Why a policy install was refused. The engine pins the last-known-good
/// snapshot either way: a failed install never degrades what is already
/// serving, it only blocks the *new* snapshot from taking effect.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InstallError {
    /// A rule term names a concept absent from the serving vocabulary —
    /// installing it would turn every affected decision into an
    /// unanswerable probe. The engine enters degraded mode (cache
    /// read-only) until a valid snapshot arrives.
    UnknownConcept {
        /// The attribute of the offending term.
        attr: String,
        /// The unresolvable concept name.
        concept: String,
    },
    /// Installs are administratively held — the service-level circuit
    /// breaker is open after a worker crash loop, so widening promotions
    /// wait until the service proves stable again.
    InstallsHeld,
}

impl fmt::Display for InstallError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstallError::UnknownConcept { attr, concept } => {
                write!(
                    f,
                    "policy rule names unknown concept '{concept}' (attribute '{attr}')"
                )
            }
            InstallError::InstallsHeld => {
                write!(
                    f,
                    "policy installs are held while the service breaker is open"
                )
            }
        }
    }
}

impl std::error::Error for InstallError {}

/// The installed policy snapshot. Guarded by one `RwLock` so matcher,
/// revision and epoch always change together.
#[derive(Debug)]
struct PolicyState {
    matcher: Arc<PolicyMatcher>,
    revision: u64,
    fingerprint: u64,
    epoch: u64,
}

/// The shared decision engine. All methods take `&self`; share it across
/// workers behind an `Arc`.
#[derive(Debug)]
pub struct DecisionEngine {
    vocab: Arc<Vocabulary>,
    state: RwLock<PolicyState>,
    /// Mirror of `state.revision` readable without the lock — the cache
    /// hit path stamps replies from here.
    revision: AtomicU64,
    cache: ShardedDecisionCache,
    columns: Option<ColumnMap>,
    /// Degraded mode: a policy install failed validation. The pinned
    /// last-known-good snapshot keeps answering, but the cache goes
    /// read-only (no new inserts) until a valid snapshot installs.
    degraded: AtomicBool,
    /// Installs administratively held (service breaker open): widening
    /// promotions wait; decisions keep flowing from the pinned snapshot.
    installs_held: AtomicBool,
    obs: ServeObs,
}

/// Segments of every engine's decision cache.
pub const CACHE_SHARDS: usize = 64;

fn fingerprint(policy: &Policy) -> u64 {
    let mut h = DefaultHasher::new();
    for rule in policy.rules() {
        rule.hash(&mut h);
    }
    h.finish()
}

impl DecisionEngine {
    /// Builds an engine over `policy`, with a cache of [`CACHE_SHARDS`]
    /// segments.
    pub fn new(
        policy: &Policy,
        vocab: Arc<Vocabulary>,
        columns: Option<ColumnMap>,
        obs: ServeObs,
    ) -> Self {
        let matcher = Arc::new(PolicyMatcher::with_shared_vocab(policy, Arc::clone(&vocab)));
        Self {
            vocab,
            state: RwLock::new(PolicyState {
                matcher,
                revision: policy.revision(),
                fingerprint: fingerprint(policy),
                epoch: 0,
            }),
            revision: AtomicU64::new(policy.revision()),
            cache: ShardedDecisionCache::new(CACHE_SHARDS),
            columns,
            degraded: AtomicBool::new(false),
            installs_held: AtomicBool::new(false),
            obs,
        }
    }

    /// The revision of the currently installed policy.
    pub fn policy_revision(&self) -> u64 {
        self.revision.load(Ordering::Acquire)
    }

    /// True while the engine serves in degraded mode: a policy install
    /// failed, the last-known-good snapshot is pinned, and the decision
    /// cache is read-only.
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Acquire)
    }

    /// True while installs are administratively held (service breaker
    /// open after a worker crash loop).
    pub fn installs_held(&self) -> bool {
        self.installs_held.load(Ordering::Acquire)
    }

    /// Holds or releases policy installs. While held,
    /// [`Self::try_install_policy`] refuses with
    /// [`InstallError::InstallsHeld`] and the cache is read-only — the
    /// supervisor flips this when the service-level breaker opens and
    /// closes.
    pub fn hold_installs(&self, hold: bool) {
        self.installs_held.store(hold, Ordering::Release);
    }

    /// Installs a new policy snapshot, invalidating the whole cache iff
    /// the policy actually changed. Returns `true` when an install took
    /// effect; an install rejected by validation or a hold counts as
    /// "no install" (`false`) and pins the last-known-good snapshot.
    pub fn install_policy(&self, policy: &Policy) -> bool {
        self.try_install_policy(policy).unwrap_or(false)
    }

    /// Fallible install: validates the snapshot before swapping it in.
    ///
    /// Validation requires every rule term to resolve in the serving
    /// vocabulary — a rule over unknown concepts can never match a
    /// request and would silently widen or narrow nothing while claiming
    /// a fresh revision. On failure the engine keeps answering from the
    /// pinned `(matcher, revision)` and enters degraded mode: cached
    /// verdicts are still served, new verdicts are computed but not
    /// cached, and [`crate::ServeHealth`] surfaces the state. The next
    /// valid install clears degradation.
    pub fn try_install_policy(&self, policy: &Policy) -> Result<bool, InstallError> {
        if self.installs_held.load(Ordering::Acquire) {
            self.obs.install_failures.inc();
            return Err(InstallError::InstallsHeld);
        }
        if let Some((attr, concept)) = self.first_unknown_concept(policy) {
            self.degraded.store(true, Ordering::Release);
            self.obs.install_failures.inc();
            self.obs.degraded.set(1.0);
            let mut span = self.obs.tracer.span("serve.install_rejected");
            span.field("attr", attr.clone());
            span.field("concept", concept.clone());
            return Err(InstallError::UnknownConcept { attr, concept });
        }
        let effective = self.install_validated(policy);
        // A valid snapshot (even an unchanged one) restores full service.
        if self.degraded.swap(false, Ordering::AcqRel) {
            self.obs.degraded.set(0.0);
        }
        Ok(effective)
    }

    /// The first rule term that does not resolve in the vocabulary.
    fn first_unknown_concept(&self, policy: &Policy) -> Option<(String, String)> {
        for rule in policy.rules() {
            for term in rule.terms() {
                if self.vocab.resolve(&term.attr, &term.value).is_none() {
                    return Some((term.attr.clone(), term.value.clone()));
                }
            }
        }
        None
    }

    fn install_validated(&self, policy: &Policy) -> bool {
        let fp = fingerprint(policy);
        {
            let state = self.state.read();
            if state.revision == policy.revision() && state.fingerprint == fp {
                return false;
            }
        }
        let new_epoch;
        {
            let mut state = self.state.write();
            // Re-check under the write lock: a racing install may have
            // already brought this exact snapshot in.
            if state.revision == policy.revision() && state.fingerprint == fp {
                return false;
            }
            state.matcher = Arc::new(PolicyMatcher::with_shared_vocab(
                policy,
                Arc::clone(&self.vocab),
            ));
            state.revision = policy.revision();
            state.fingerprint = fp;
            state.epoch += 1;
            new_epoch = state.epoch;
            self.revision.store(policy.revision(), Ordering::Release);
        }
        self.cache.advance(new_epoch);
        self.obs.policy_installs.inc();
        self.obs.cache_invalidations.inc();
        let mut span = self.obs.tracer.span("serve.install_policy");
        span.field("revision", policy.revision());
        span.field("epoch", new_epoch);
        true
    }

    /// Decides a request through the cache. Never panics: malformed or
    /// unknown input maps to a structured denial.
    pub fn decide(&self, req: &DecisionRequest) -> DecisionReply {
        let start = Instant::now();
        let reply = self.decide_inner(req, true);
        self.obs.decision_latency.observe_duration(start.elapsed());
        self.obs.decisions.inc();
        match reply.verdict {
            Verdict::Allow => self.obs.allows.inc(),
            Verdict::Deny(_) => self.obs.denials.inc(),
        }
        reply
    }

    /// Decides a request bypassing the cache entirely — the oracle the
    /// coherence property test and the bench sampling compare against.
    pub fn decide_uncached(&self, req: &DecisionRequest) -> DecisionReply {
        self.decide_inner(req, false)
    }

    fn decide_inner(&self, req: &DecisionRequest, use_cache: bool) -> DecisionReply {
        // Validation runs before the cache: a denial for malformed input
        // is cheap to recompute and must not occupy cache slots.
        if req.role.trim().is_empty() || req.op.trim().is_empty() || req.purpose.trim().is_empty() {
            return self.deny(DenyReason::EmptyField);
        }
        let Some(consent) = Consent::parse(&req.consent) else {
            return self.deny(DenyReason::MalformedConsent);
        };
        if self.vocab.resolve(ATTR_AUTHORIZED, &req.role).is_none() {
            return self.deny(DenyReason::UnknownRole);
        }
        if self.vocab.resolve(ATTR_DATA, &req.op).is_none() {
            return self.deny(DenyReason::UnknownOp);
        }
        if self.vocab.resolve(ATTR_PURPOSE, &req.purpose).is_none() {
            return self.deny(DenyReason::UnknownPurpose);
        }

        let key = DecisionKey {
            role: req.role.clone(),
            op: req.op.clone(),
            purpose: req.purpose.clone(),
            consent,
        };
        if use_cache {
            // The hit replies with the revision stored beside its
            // verdict: an install landing after the lookup must not
            // re-stamp a verdict the old policy computed.
            if let Some((verdict, revision)) = self.cache.lookup(&key) {
                self.obs.cache_hits.inc();
                return self.reply(req, verdict, revision, true);
            }
            self.obs.cache_misses.inc();
        }

        // Miss: probe the installed matcher. Clone the Arc under the read
        // lock and probe outside it, remembering the epoch of the
        // snapshot that computes this verdict.
        let (matcher, revision, stamp) = {
            let state = self.state.read();
            (Arc::clone(&state.matcher), state.revision, state.epoch)
        };
        let ground = GroundRule::of(&[
            (ATTR_DATA, &req.op),
            (ATTR_PURPOSE, &req.purpose),
            (ATTR_AUTHORIZED, &req.role),
        ]);
        let verdict = if !matcher.covers(&ground) {
            Verdict::Deny(DenyReason::PolicyDenied)
        } else if consent == Consent::OptedOut {
            Verdict::Deny(DenyReason::ConsentWithheld)
        } else {
            Verdict::Allow
        };
        // Degraded / held service keeps the cache read-only: existing
        // coherent entries still hit, but nothing new is admitted while
        // the policy plane is suspect.
        if use_cache && !self.is_degraded() && !self.installs_held() {
            self.cache.insert(key, stamp, revision, verdict);
        }
        self.reply(req, verdict, revision, false)
    }

    fn deny(&self, reason: DenyReason) -> DecisionReply {
        DecisionReply {
            verdict: Verdict::Deny(reason),
            rewritten_query: None,
            policy_revision: self.policy_revision(),
            cached: false,
        }
    }

    fn reply(
        &self,
        req: &DecisionRequest,
        verdict: Verdict,
        revision: u64,
        cached: bool,
    ) -> DecisionReply {
        let rewritten_query = match verdict {
            Verdict::Allow => Some(format!(
                "SELECT {} FROM records WHERE purpose = '{}' -- role {}",
                req.op, req.purpose, req.role
            )),
            Verdict::Deny(_) => None,
        };
        DecisionReply {
            verdict,
            rewritten_query,
            policy_revision: revision,
            cached,
        }
    }

    /// Rewrites a multi-column query: each column is mapped to its data
    /// category (through the configured [`ColumnMap`]) and decided via
    /// the same cached path; suppressed columns carry structured reasons.
    pub fn rewrite(&self, req: &RewriteRequest) -> RewriteReply {
        let mut served = Vec::new();
        let mut suppressed = Vec::new();
        let revision = self.policy_revision();
        for column in &req.columns {
            let category = match &self.columns {
                Some(map) => match map.category_of(&req.table, column) {
                    Some(c) => c.to_string(),
                    None => {
                        suppressed.push((column.clone(), DenyReason::UnmappedColumn));
                        continue;
                    }
                },
                // No schema mapping configured: treat the column name as
                // the category itself (symbolic-table mode).
                None => column.clone(),
            };
            let decision = self.decide(&DecisionRequest {
                principal: req.principal.clone(),
                role: req.role.clone(),
                op: category,
                purpose: req.purpose.clone(),
                consent: req.consent.clone(),
                priority: crate::api::Priority::Bulk,
                deadline_us: None,
                trace_id: 0,
                trace_span: 0,
            });
            match decision.verdict {
                Verdict::Allow => served.push(column.clone()),
                Verdict::Deny(reason) => suppressed.push((column.clone(), reason)),
            }
        }
        let rewritten_query = if served.is_empty() {
            None
        } else {
            Some(format!(
                "SELECT {} FROM {} WHERE purpose = '{}'",
                served.join(", "),
                req.table,
                req.purpose
            ))
        };
        RewriteReply {
            served,
            suppressed,
            rewritten_query,
            policy_revision: revision,
        }
    }

    /// Cache counters.
    pub fn cache_stats(&self) -> ServeCacheStats {
        self.cache.stats()
    }

    /// The engine's metric handles.
    pub fn obs(&self) -> &ServeObs {
        &self.obs
    }

    /// The shared vocabulary.
    pub fn vocab(&self) -> &Arc<Vocabulary> {
        &self.vocab
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prima_model::{Rule, StoreTag};

    fn vocab() -> Arc<Vocabulary> {
        let v = Vocabulary::builder()
            .attribute(ATTR_DATA)
            .category("clinical", &["referral", "lab-result"])
            .attribute(ATTR_PURPOSE)
            .category("care", &["treatment"])
            .attribute(ATTR_AUTHORIZED)
            .category("staff", &["nurse", "physician"])
            .build()
            .expect("test vocabulary");
        Arc::new(v)
    }

    fn policy() -> Policy {
        Policy::with_rules(
            StoreTag::PolicyStore,
            vec![Rule::of(&[
                (ATTR_DATA, "referral"),
                (ATTR_PURPOSE, "treatment"),
                (ATTR_AUTHORIZED, "nurse"),
            ])],
        )
    }

    fn engine() -> DecisionEngine {
        DecisionEngine::new(&policy(), vocab(), None, ServeObs::disabled())
    }

    fn req(role: &str, op: &str, purpose: &str, consent: &str) -> DecisionRequest {
        DecisionRequest::new("p-1", role, op, purpose, consent)
    }

    #[test]
    fn allows_sanctioned_access_and_caches_it() {
        let e = engine();
        let r1 = e.decide(&req("nurse", "referral", "treatment", "granted"));
        assert_eq!(r1.verdict, Verdict::Allow);
        assert!(r1.rewritten_query.is_some());
        assert!(!r1.cached, "first decision probes the matcher");
        let r2 = e.decide(&req("nurse", "referral", "treatment", "granted"));
        assert_eq!(r2.verdict, Verdict::Allow);
        assert!(r2.cached, "second decision is a cache hit");
        let s = e.cache_stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn structured_denials_cover_every_malformed_input() {
        let e = engine();
        let cases = [
            (
                req("", "referral", "treatment", "granted"),
                DenyReason::EmptyField,
            ),
            (
                req("nurse", "referral", "treatment", "perhaps"),
                DenyReason::MalformedConsent,
            ),
            (
                req("janitor", "referral", "treatment", "granted"),
                DenyReason::UnknownRole,
            ),
            (
                req("nurse", "billing-code", "treatment", "granted"),
                DenyReason::UnknownOp,
            ),
            (
                req("nurse", "referral", "marketing", "granted"),
                DenyReason::UnknownPurpose,
            ),
            (
                req("physician", "lab-result", "treatment", "granted"),
                DenyReason::PolicyDenied,
            ),
            (
                req("nurse", "referral", "treatment", "opted-out"),
                DenyReason::ConsentWithheld,
            ),
        ];
        for (request, want) in cases {
            let reply = e.decide(&request);
            assert_eq!(reply.verdict, Verdict::Deny(want), "{request:?}");
            assert!(reply.rewritten_query.is_none());
        }
    }

    #[test]
    fn install_invalidates_and_next_decision_sees_new_policy() {
        let e = engine();
        let denied = req("physician", "lab-result", "treatment", "granted");
        assert_eq!(
            e.decide(&denied).verdict,
            Verdict::Deny(DenyReason::PolicyDenied)
        );

        let mut p = policy();
        p.push(Rule::of(&[
            (ATTR_DATA, "lab-result"),
            (ATTR_PURPOSE, "treatment"),
            (ATTR_AUTHORIZED, "physician"),
        ]));
        assert!(e.install_policy(&p));
        assert_eq!(e.policy_revision(), p.revision());

        // The very next decision reflects the promoted rule.
        let reply = e.decide(&denied);
        assert_eq!(reply.verdict, Verdict::Allow);
        assert_eq!(reply.policy_revision, p.revision());
        assert_eq!(e.cache_stats().invalidations, 1);
    }

    #[test]
    fn reinstalling_the_same_snapshot_is_a_noop() {
        let e = engine();
        assert!(!e.install_policy(&policy()));
        assert_eq!(e.cache_stats().invalidations, 0);
    }

    #[test]
    fn distinct_policies_at_the_same_revision_still_invalidate() {
        // Two fresh policies both sit at revision 0; the fingerprint must
        // tell them apart.
        let e = engine();
        let other = Policy::with_rules(
            StoreTag::PolicyStore,
            vec![Rule::of(&[
                (ATTR_DATA, "lab-result"),
                (ATTR_PURPOSE, "treatment"),
                (ATTR_AUTHORIZED, "physician"),
            ])],
        );
        assert_eq!(other.revision(), 0);
        assert!(e.install_policy(&other));
        let reply = e.decide(&req("physician", "lab-result", "treatment", "granted"));
        assert_eq!(reply.verdict, Verdict::Allow);
    }

    #[test]
    fn rejected_install_pins_last_known_good_and_suspends_caching() {
        let e = engine();
        let good_revision = e.policy_revision();
        let allowed = req("nurse", "referral", "treatment", "granted");
        assert_eq!(e.decide(&allowed).verdict, Verdict::Allow);

        // An install referencing a concept the vocabulary cannot resolve
        // must be rejected wholesale, not partially applied.
        let mut bad = policy();
        bad.push(Rule::of(&[
            (ATTR_DATA, "quantum-flux"),
            (ATTR_PURPOSE, "treatment"),
            (ATTR_AUTHORIZED, "nurse"),
        ]));
        let err = e.try_install_policy(&bad).unwrap_err();
        assert_eq!(
            err,
            InstallError::UnknownConcept {
                attr: ATTR_DATA.to_string(),
                concept: "quantum-flux".to_string(),
            }
        );
        assert!(e.is_degraded());
        // Pinned: decisions keep answering at the last-known-good
        // revision, and cached verdicts still serve.
        let pinned = e.decide(&allowed);
        assert_eq!(pinned.verdict, Verdict::Allow);
        assert_eq!(pinned.policy_revision, good_revision);
        // Read-only cache: a fresh key decided while degraded is NOT
        // inserted — deciding it twice misses twice.
        let fresh = req("physician", "referral", "treatment", "granted");
        let misses_before = e.cache_stats().misses;
        e.decide(&fresh);
        e.decide(&fresh);
        assert_eq!(e.cache_stats().misses, misses_before + 2);

        // The next valid install (even the unchanged snapshot) restores
        // full service, caching included.
        assert_eq!(e.try_install_policy(&policy()), Ok(false));
        assert!(!e.is_degraded());
        e.decide(&fresh); // miss + insert
        let hits_before = e.cache_stats().hits;
        e.decide(&fresh); // hit
        assert_eq!(e.cache_stats().hits, hits_before + 1);
    }

    #[test]
    fn held_installs_refuse_and_keep_the_cache_read_only() {
        let e = engine();
        e.hold_installs(true);
        assert!(e.installs_held());
        let mut p = policy();
        p.push(Rule::of(&[
            (ATTR_DATA, "lab-result"),
            (ATTR_PURPOSE, "treatment"),
            (ATTR_AUTHORIZED, "physician"),
        ]));
        assert_eq!(e.try_install_policy(&p), Err(InstallError::InstallsHeld));
        // Decisions still serve, but nothing new is cached while held.
        let fresh = req("nurse", "referral", "treatment", "granted");
        e.decide(&fresh);
        e.decide(&fresh);
        assert_eq!(e.cache_stats().misses, 2);
        assert_eq!(e.cache_stats().hits, 0);
        // Released: the held install now takes effect and caching resumes.
        e.hold_installs(false);
        assert_eq!(e.try_install_policy(&p), Ok(true));
        e.decide(&fresh);
        e.decide(&fresh);
        assert_eq!(e.cache_stats().hits, 1);
    }

    #[test]
    fn cached_and_uncached_decisions_agree() {
        let e = engine();
        for consent in ["granted", "unspecified", "opted-out"] {
            let request = req("nurse", "referral", "treatment", consent);
            let warm = e.decide(&request); // populates cache
            let hit = e.decide(&request); // served from cache
            let fresh = e.decide_uncached(&request);
            assert_eq!(warm.verdict, fresh.verdict, "{consent}");
            assert_eq!(hit.verdict, fresh.verdict, "{consent}");
        }
    }

    #[test]
    fn rewrite_maps_columns_and_suppresses_with_reasons() {
        let mut columns = ColumnMap::new();
        columns.map("records", "referral_note", "referral");
        columns.map("records", "lab_panel", "lab-result");
        let e = DecisionEngine::new(&policy(), vocab(), Some(columns), ServeObs::disabled());
        let reply = e.rewrite(&RewriteRequest::new(
            "p-1",
            "nurse",
            "treatment",
            "records",
            &["referral_note", "lab_panel", "free_text"],
            "granted",
        ));
        assert_eq!(reply.served, vec!["referral_note".to_string()]);
        assert_eq!(
            reply.suppressed,
            vec![
                ("lab_panel".to_string(), DenyReason::PolicyDenied),
                ("free_text".to_string(), DenyReason::UnmappedColumn),
            ]
        );
        let q = reply.rewritten_query.expect("one column survives");
        assert!(q.contains("referral_note") && !q.contains("lab_panel"));
    }

    #[test]
    fn rewrite_with_nothing_served_is_a_denial() {
        let e = engine();
        let reply = e.rewrite(&RewriteRequest::new(
            "p-1",
            "physician",
            "treatment",
            "records",
            &["lab-result"],
            "granted",
        ));
        assert!(reply.denied());
        assert!(reply.rewritten_query.is_none());
    }
}
