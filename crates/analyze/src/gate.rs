//! `PA005` — the refinement-safety gate: no candidate may widen
//! privileges beyond the umbrella envelope.
//!
//! Refinement promotes mined patterns into `P_PS`. The prune stage only
//! removes patterns *already covered* by `P_PS` — it never checks that a
//! surviving candidate stays inside the authorizations stakeholders
//! signed off on. A buggy miner (or adversarial audit data) could
//! propose `(data, medical) ∧ (purpose, marketing) ∧ (authorized,
//! administrative-staff)` and auto-accept would silently fold it in.
//!
//! [`SafetyGate`] holds an **envelope** policy: the broad umbrella
//! authorizations that bound what refinement may ever specialize. A
//! candidate is admitted iff some envelope rule subsumes it — i.e. the
//! candidate is a narrowing of an authorization that already existed.
//! Note the envelope is deliberately *separate* from the evolving
//! `P_PS`: prune removes every pattern `P_PS` covers, so surviving
//! candidates are by construction **not** subsumed by the current
//! `P_PS`; gating against it would reject every useful refinement,
//! including the paper's own Section 5 example.
//!
//! The envelope is compiled once, when the gate is built, into a
//! [`CompiledPolicy`]; a candidate's verdict is one subsumer query
//! against it. Strict mode then compares expansion sizes: a composite
//! with a single leaf has the same expansion as that leaf, so a
//! subsumer that is a different rule can still fail to narrow anything.

use prima_model::diag::{DiagCode, DiagLocation, Diagnostic};
use prima_model::{CompiledPolicy, Policy, Rule};
use prima_vocab::Vocabulary;

/// The refinement-safety gate. See the module docs for the envelope
/// semantics.
#[derive(Debug, Clone)]
pub struct SafetyGate {
    envelope: Policy,
    /// `envelope` compiled under the vocabulary the gate was built with.
    compiled: CompiledPolicy,
    /// The expansion size of each envelope rule, under that vocabulary.
    sizes: Vec<u128>,
    strict: bool,
}

impl SafetyGate {
    /// A gate admitting candidates subsumed by some `envelope` rule
    /// (an exact match of an envelope rule is admitted — re-stating an
    /// authorization is not a widening). The envelope is compiled under
    /// `vocab` here, once; every later call must pass the same
    /// vocabulary.
    pub fn new(envelope: Policy, vocab: &Vocabulary) -> Self {
        Self {
            compiled: CompiledPolicy::new(&envelope, vocab),
            sizes: envelope
                .rules()
                .iter()
                .map(|u| u.expansion_size(vocab))
                .collect(),
            envelope,
            strict: false,
        }
    }

    /// Requires candidates to be **strictly** narrower than the subsuming
    /// envelope rule: an exact restatement of an umbrella rule is
    /// rejected too, since it refines nothing.
    pub fn strict(mut self) -> Self {
        self.strict = true;
        self
    }

    /// The envelope policy.
    pub fn envelope(&self) -> &Policy {
        &self.envelope
    }

    /// True iff the gate admits `candidate`. `vocab` must be the
    /// vocabulary the gate was built with: it sizes the candidate's
    /// expansion in strict mode.
    pub fn admits(&self, candidate: &Rule, vocab: &Vocabulary) -> bool {
        self.rejection(candidate, vocab).is_none()
    }

    /// Why the gate rejects `candidate`, if it does: one subsumer query,
    /// then, in strict mode, the expansion sizes of the subsumers.
    fn rejection(&self, candidate: &Rule, vocab: &Vocabulary) -> Option<&'static str> {
        let subsumers = self.compiled.subsumers(candidate.terms());
        if subsumers.is_empty() {
            return Some(
                "no umbrella rule subsumes it, so promoting it would widen the \
                 authorized range beyond what stakeholders approved",
            );
        }
        let narrows = || {
            let size = candidate.expansion_size(vocab);
            subsumers.iter().any(|u| size < self.sizes[u])
        };
        (self.strict && !narrows())
            .then_some("it restates an umbrella rule exactly instead of narrowing it")
    }

    /// Checks one candidate, returning the `PA005` diagnostic on
    /// rejection. `index` locates the candidate in whatever queue the
    /// caller holds.
    // Rejection is the interesting outcome and callers consume the
    // diagnostic immediately; boxing it would only add noise.
    #[allow(clippy::result_large_err)]
    pub fn check(
        &self,
        index: usize,
        candidate: &Rule,
        vocab: &Vocabulary,
    ) -> Result<(), Diagnostic> {
        let Some(detail) = self.rejection(candidate, vocab) else {
            return Ok(());
        };
        Err(Diagnostic::new(
            DiagCode::WideningCandidate,
            DiagLocation::rule(index).in_policy("envelope"),
            format!("candidate {candidate} rejected by the safety gate — {detail}"),
        )
        .with_witness(format!(
            "envelope has {} umbrella rule(s); none strictly subsumes the candidate",
            self.envelope.cardinality()
        )))
    }

    /// Checks many candidates; returns the diagnostics of every rejected
    /// one (indexes refer to positions in `candidates`).
    pub fn check_all(&self, candidates: &[Rule], vocab: &Vocabulary) -> Vec<Diagnostic> {
        candidates
            .iter()
            .enumerate()
            .filter_map(|(i, c)| self.check(i, c, vocab).err())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prima_model::StoreTag;
    use prima_vocab::samples::figure_1;

    fn envelope() -> Policy {
        Policy::with_rules(
            StoreTag::Named("envelope".into()),
            vec![Rule::of(&[
                ("data", "medical"),
                ("purpose", "administering-healthcare"),
                ("authorized", "medical-staff"),
            ])],
        )
    }

    #[test]
    fn narrowing_candidate_is_admitted() {
        let v = figure_1();
        let gate = SafetyGate::new(envelope(), &v);
        // The paper's Section 5 refinement result.
        let cand = Rule::of(&[
            ("data", "referral"),
            ("purpose", "registration"),
            ("authorized", "nurse"),
        ]);
        assert!(gate.admits(&cand, &v));
        assert!(gate.check(0, &cand, &v).is_ok());
    }

    #[test]
    fn widening_candidate_is_rejected_with_pa005() {
        let v = figure_1();
        let gate = SafetyGate::new(envelope(), &v);
        // marketing is outside administering-healthcare.
        let cand = Rule::of(&[
            ("data", "referral"),
            ("purpose", "marketing"),
            ("authorized", "nurse"),
        ]);
        let diag = gate.check(3, &cand, &v).unwrap_err();
        assert_eq!(diag.code, DiagCode::WideningCandidate);
        assert!(diag.is_error());
        assert_eq!(diag.location.rule_index, Some(3));
        assert!(diag.message.contains("widen"), "{diag}");
    }

    #[test]
    fn strict_gate_rejects_exact_restatement() {
        let v = figure_1();
        let umbrella = Rule::of(&[
            ("data", "medical"),
            ("purpose", "administering-healthcare"),
            ("authorized", "medical-staff"),
        ]);
        let lax = SafetyGate::new(envelope(), &v);
        let strict = SafetyGate::new(envelope(), &v).strict();
        assert!(lax.admits(&umbrella, &v));
        assert!(!strict.admits(&umbrella, &v));
        let diag = strict.check(0, &umbrella, &v).unwrap_err();
        assert!(diag.message.contains("restates"), "{diag}");
    }

    #[test]
    fn check_all_reports_only_rejections() {
        let v = figure_1();
        let gate = SafetyGate::new(envelope(), &v);
        let cands = vec![
            Rule::of(&[
                ("data", "referral"),
                ("purpose", "treatment"),
                ("authorized", "nurse"),
            ]),
            Rule::of(&[
                ("data", "insurance"), // financial: outside medical
                ("purpose", "treatment"),
                ("authorized", "nurse"),
            ]),
        ];
        let diags = gate.check_all(&cands, &v);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].location.rule_index, Some(1));
    }
}
