//! The human checkpoint after pruning.
//!
//! "This implies that human input is prudent at this stage to determine
//! which patterns are actually good practice and which should be
//! investigated or terminated." The review queue turns useful patterns
//! into candidate rules awaiting a stakeholder decision; accepted
//! candidates become policy rules, rejected ones are remembered so the
//! same pattern is not re-proposed every round.

use prima_mining::Pattern;
use prima_model::{Policy, Rule};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// The stakeholder's verdict on a candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CandidateState {
    /// Awaiting review.
    Pending,
    /// Good practice — fold into the policy store.
    Accepted,
    /// Bad practice — do not propose again; the behaviour should stop.
    Rejected,
    /// Suspicious — hand to the security/compliance team.
    UnderInvestigation,
}

/// A candidate policy rule derived from a mined pattern.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Candidate {
    /// Monotonic id within the queue.
    pub id: u64,
    /// The mined evidence.
    pub pattern: Pattern,
    /// The rule that would be added to the policy store on acceptance.
    pub proposed_rule: Rule,
    /// Review state.
    pub state: CandidateState,
    /// Reviewer note.
    pub note: Option<String>,
    /// Which refinement round proposed it.
    pub round: usize,
}

/// The review queue.
#[derive(Debug, Default, Clone)]
pub struct ReviewQueue {
    next_id: u64,
    candidates: Vec<Candidate>,
    /// Rules already decided (accepted or rejected) — used to suppress
    /// re-proposals of the same pattern in later rounds.
    decided_cache: HashMap<Rule, CandidateState>,
}

impl ReviewQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Proposes patterns from refinement round `round`. Patterns whose rule
    /// was already accepted or rejected are suppressed; duplicates of a
    /// pending candidate are merged (support refreshed). Returns how many
    /// new candidates were enqueued.
    pub fn propose(&mut self, patterns: Vec<Pattern>, round: usize) -> usize {
        let mut added = 0;
        for p in patterns {
            let rule = Rule::from_ground(&p.rule);
            if self.decided_cache.contains_key(&rule) {
                continue;
            }
            if let Some(existing) = self
                .candidates
                .iter_mut()
                .find(|c| c.proposed_rule == rule && c.state == CandidateState::Pending)
            {
                existing.pattern = p;
                existing.round = round;
                continue;
            }
            self.candidates.push(Candidate {
                id: self.next_id,
                pattern: p,
                proposed_rule: rule,
                state: CandidateState::Pending,
                note: None,
                round,
            });
            self.next_id += 1;
            added += 1;
        }
        added
    }

    /// All candidates (every state), in proposal order.
    pub fn candidates(&self) -> &[Candidate] {
        &self.candidates
    }

    /// Pending candidates.
    pub fn pending(&self) -> impl Iterator<Item = &Candidate> {
        self.candidates
            .iter()
            .filter(|c| c.state == CandidateState::Pending)
    }

    /// Decides a candidate by id. Returns `false` if the id is unknown or
    /// already decided.
    pub fn decide(&mut self, id: u64, state: CandidateState, note: Option<&str>) -> bool {
        if state == CandidateState::Pending {
            return false;
        }
        let Some(c) = self
            .candidates
            .iter_mut()
            .find(|c| c.id == id && c.state == CandidateState::Pending)
        else {
            return false;
        };
        c.state = state;
        c.note = note.map(str::to_string);
        if matches!(state, CandidateState::Accepted | CandidateState::Rejected) {
            self.decided_cache.insert(c.proposed_rule.clone(), state);
        }
        true
    }

    /// Accepts every pending candidate (the fully-automated loop used by
    /// the trajectory experiment; real deployments review individually).
    pub fn accept_all_pending(&mut self) -> usize {
        let ids: Vec<u64> = self.pending().map(|c| c.id).collect();
        for id in &ids {
            self.decide(*id, CandidateState::Accepted, Some("auto-accepted"));
        }
        ids.len()
    }

    /// Folds all accepted-but-not-yet-applied candidates into `policy`,
    /// returning how many rules were added. Idempotent: a rule already in
    /// the policy is skipped.
    pub fn apply_accepted(&self, policy: &mut Policy) -> usize {
        let mut added = 0;
        for c in &self.candidates {
            if c.state == CandidateState::Accepted && policy.push_unique(c.proposed_rule.clone()) {
                added += 1;
            }
        }
        added
    }

    /// [`ReviewQueue::apply_accepted`] with the refinement-safety gate
    /// enforced: an accepted candidate the gate rejects is **not** folded
    /// into the policy — its state is flipped to
    /// [`CandidateState::Rejected`] with the `PA005` diagnostic as the
    /// reviewer note, so the unsafe promotion is blocked *and* the
    /// pattern is never re-proposed. Returns how many rules were added
    /// and the diagnostics of every blocked candidate.
    pub fn apply_accepted_gated(
        &mut self,
        policy: &mut Policy,
        gate: &prima_analyze::SafetyGate,
        vocab: &prima_vocab::Vocabulary,
    ) -> (usize, Vec<prima_model::Diagnostic>) {
        let mut added = 0;
        let mut diags = Vec::new();
        for (i, c) in self.candidates.iter_mut().enumerate() {
            if c.state != CandidateState::Accepted {
                continue;
            }
            match gate.check(i, &c.proposed_rule, vocab) {
                Ok(()) => {
                    if policy.push_unique(c.proposed_rule.clone()) {
                        added += 1;
                    }
                }
                Err(diag) => {
                    c.state = CandidateState::Rejected;
                    c.note = Some(diag.to_string());
                    self.decided_cache
                        .insert(c.proposed_rule.clone(), CandidateState::Rejected);
                    // An overturned accept is a policy-level decision even
                    // though no rule text changed: bump the revision so
                    // decision caches cannot keep serving verdicts made
                    // while the promotion was still considered accepted.
                    policy.touch();
                    diags.push(diag);
                }
            }
        }
        (added, diags)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prima_model::{GroundRule, StoreTag};

    fn pattern(d: &str, p: &str, a: &str) -> Pattern {
        Pattern::new(
            GroundRule::of(&[("data", d), ("purpose", p), ("authorized", a)]),
            5,
            3,
        )
    }

    #[test]
    fn propose_decide_apply() {
        let mut q = ReviewQueue::new();
        assert_eq!(
            q.propose(vec![pattern("referral", "registration", "nurse")], 1),
            1
        );
        assert_eq!(q.pending().count(), 1);
        let id = q.pending().next().unwrap().id;
        assert!(q.decide(id, CandidateState::Accepted, Some("fits ward flow")));
        let mut policy = Policy::new(StoreTag::PolicyStore);
        assert_eq!(q.apply_accepted(&mut policy), 1);
        assert_eq!(policy.cardinality(), 1);
        // Idempotent.
        assert_eq!(q.apply_accepted(&mut policy), 0);
    }

    #[test]
    fn decided_rules_are_not_reproposed() {
        let mut q = ReviewQueue::new();
        q.propose(vec![pattern("a", "b", "c")], 1);
        let id = q.pending().next().unwrap().id;
        q.decide(id, CandidateState::Rejected, Some("should stop"));
        assert_eq!(q.propose(vec![pattern("a", "b", "c")], 2), 0);
        assert_eq!(q.pending().count(), 0);
    }

    #[test]
    fn pending_duplicates_merge_and_refresh() {
        let mut q = ReviewQueue::new();
        q.propose(vec![pattern("a", "b", "c")], 1);
        let mut refreshed = pattern("a", "b", "c");
        refreshed.support = 9;
        assert_eq!(q.propose(vec![refreshed], 2), 0);
        let c = q.pending().next().unwrap();
        assert_eq!(c.pattern.support, 9);
        assert_eq!(c.round, 2);
    }

    #[test]
    fn decide_rejects_bad_ids_and_double_decisions() {
        let mut q = ReviewQueue::new();
        q.propose(vec![pattern("a", "b", "c")], 1);
        let id = q.pending().next().unwrap().id;
        assert!(!q.decide(999, CandidateState::Accepted, None));
        assert!(!q.decide(id, CandidateState::Pending, None));
        assert!(q.decide(id, CandidateState::UnderInvestigation, None));
        assert!(
            !q.decide(id, CandidateState::Accepted, None),
            "already decided"
        );
    }

    #[test]
    fn investigation_does_not_block_reproposal() {
        let mut q = ReviewQueue::new();
        q.propose(vec![pattern("a", "b", "c")], 1);
        let id = q.pending().next().unwrap().id;
        q.decide(id, CandidateState::UnderInvestigation, None);
        // Investigation is not a final verdict; the pattern may return.
        assert_eq!(q.propose(vec![pattern("a", "b", "c")], 2), 1);
    }

    #[test]
    fn accept_all_pending_applies_in_bulk() {
        let mut q = ReviewQueue::new();
        q.propose(vec![pattern("a", "b", "c"), pattern("d", "e", "f")], 1);
        assert_eq!(q.accept_all_pending(), 2);
        let mut policy = Policy::new(StoreTag::PolicyStore);
        assert_eq!(q.apply_accepted(&mut policy), 2);
    }

    #[test]
    fn gated_apply_blocks_widening_and_remembers_the_verdict() {
        use prima_analyze::SafetyGate;
        use prima_vocab::samples::figure_1;
        let v = figure_1();
        let envelope = Policy::with_rules(
            StoreTag::Named("envelope".into()),
            vec![Rule::of(&[
                ("data", "medical"),
                ("purpose", "administering-healthcare"),
                ("authorized", "medical-staff"),
            ])],
        );
        let gate = SafetyGate::new(envelope, &v);
        let mut q = ReviewQueue::new();
        q.propose(
            vec![
                pattern("referral", "registration", "nurse"), // inside the envelope
                pattern("insurance", "marketing", "clerk"),   // widening
            ],
            1,
        );
        q.accept_all_pending();
        let mut policy = Policy::new(StoreTag::PolicyStore);
        let (added, diags) = q.apply_accepted_gated(&mut policy, &gate, &v);
        assert_eq!(added, 1);
        assert_eq!(policy.cardinality(), 1);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code.as_str(), "PA005");
        // The blocked candidate is now Rejected, with the diagnostic as note…
        let blocked = q
            .candidates()
            .iter()
            .find(|c| c.state == CandidateState::Rejected)
            .unwrap();
        assert!(blocked.note.as_deref().unwrap().contains("PA005"));
        // …and will not be re-proposed.
        assert_eq!(
            q.propose(vec![pattern("insurance", "marketing", "clerk")], 2),
            0
        );
    }

    #[test]
    fn gated_apply_bumps_revision_once_per_promotion_and_once_per_overturn() {
        use prima_analyze::SafetyGate;
        use prima_vocab::samples::figure_1;
        let v = figure_1();
        let envelope = Policy::with_rules(
            StoreTag::Named("envelope".into()),
            vec![Rule::of(&[
                ("data", "medical"),
                ("purpose", "administering-healthcare"),
                ("authorized", "medical-staff"),
            ])],
        );
        let gate = SafetyGate::new(envelope, &v);
        let mut q = ReviewQueue::new();
        q.propose(
            vec![
                pattern("referral", "registration", "nurse"), // promoted
                pattern("insurance", "marketing", "clerk"),   // overturned
            ],
            1,
        );
        q.accept_all_pending();
        let mut policy = Policy::new(StoreTag::PolicyStore);
        assert_eq!(policy.revision(), 0);
        let (added, diags) = q.apply_accepted_gated(&mut policy, &gate, &v);
        assert_eq!((added, diags.len()), (1, 1));
        // One bump for the promotion (push_unique), one for the overturn
        // (touch): caches keyed on the old revision must re-decide.
        assert_eq!(policy.revision(), 2);
    }
}
