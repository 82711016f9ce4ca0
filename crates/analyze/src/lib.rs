//! # prima-analyze — static policy analysis and the refinement-safety gate
//!
//! A multi-pass semantic analyzer over [`Policy`]/[`prima_model::Rule`]
//! sets. Every finding is a [`Diagnostic`] (shared with the vocabulary
//! linter in `prima-model`) carrying a stable `PAxxx` code:
//!
//! | code | severity | pass |
//! |---|---|---|
//! | `PA001` | warning | [`shadow`] — rule fully subsumed inside one policy |
//! | `PA002` | error | [`conflict`] — range intersects denied accesses |
//! | `PA003` | error | [`vacuity`] — rule can never match an audit entry |
//! | `PA004` | warning | [`blowup`] — ground expansion over budget |
//! | `PA005` | error | [`gate`] — candidate widens privileges |
//! | `PA010`–`PA012` | warning/note | vocabulary lint (`prima_model::lint`) |
//!
//! The headline [`SafetyGate`] is consumed by `prima-refine`: candidates
//! surviving Filter→Mine→Prune must still be *narrowings* of an umbrella
//! envelope before they may be folded into `P_PS`.
//!
//! ```
//! use prima_analyze::Analyzer;
//! use prima_model::{Policy, Rule, StoreTag};
//! use prima_vocab::samples::figure_1;
//!
//! let vocab = figure_1();
//! let policy = Policy::with_rules(
//!     StoreTag::PolicyStore,
//!     vec![
//!         Rule::of(&[("data", "medical"), ("purpose", "treatment"), ("authorized", "medical-staff")]),
//!         // Shadowed: already granted by the rule above.
//!         Rule::of(&[("data", "referral"), ("purpose", "treatment"), ("authorized", "nurse")]),
//!     ],
//! );
//! let diags = Analyzer::new(&vocab).analyze(&policy);
//! assert!(diags.iter().any(|d| d.code.as_str() == "PA001"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blowup;
pub mod config;
pub mod conflict;
pub mod gate;
pub mod obs;
pub mod shadow;
pub mod vacuity;

pub use config::{default_audit_schema, AnalyzeConfig};
pub use gate::SafetyGate;
pub use obs::AnalyzerObs;

use prima_audit::AuditEntry;
use prima_model::diag::Diagnostic;
use prima_model::{lint_policy, Policy};
use prima_vocab::Vocabulary;
use std::time::Instant;

/// The multi-pass static analyzer. Borrow a vocabulary, optionally set a
/// config and an observability sink, then run [`Analyzer::analyze`] (or
/// [`Analyzer::analyze_with_audit`] to include the cross-policy conflict
/// pass).
#[derive(Debug, Clone)]
pub struct Analyzer<'a> {
    vocab: &'a Vocabulary,
    config: AnalyzeConfig,
    obs: AnalyzerObs,
}

impl<'a> Analyzer<'a> {
    /// An analyzer with default config and no-op observability.
    pub fn new(vocab: &'a Vocabulary) -> Self {
        Self {
            vocab,
            config: AnalyzeConfig::default(),
            obs: AnalyzerObs::disabled(),
        }
    }

    /// Replaces the configuration.
    pub fn with_config(mut self, config: AnalyzeConfig) -> Self {
        self.config = config;
        self
    }

    /// Attaches metric handles (counters and per-pass timings).
    pub fn with_obs(mut self, obs: AnalyzerObs) -> Self {
        self.obs = obs;
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &AnalyzeConfig {
        &self.config
    }

    /// Runs the intra-policy passes — lint (`PA010`–`PA012`), shadowing
    /// (`PA001`), vacuity (`PA003`), blowup (`PA004`) — and returns the
    /// findings sorted most-severe first.
    pub fn analyze(&self, policy: &Policy) -> Vec<Diagnostic> {
        self.run(policy, None)
    }

    /// [`Analyzer::analyze`] plus the cross-policy conflict pass
    /// (`PA002`) against an audit trail's denied entries.
    pub fn analyze_with_audit(&self, policy: &Policy, entries: &[AuditEntry]) -> Vec<Diagnostic> {
        self.run(policy, Some(entries))
    }

    fn run(&self, policy: &Policy, entries: Option<&[AuditEntry]>) -> Vec<Diagnostic> {
        self.obs.runs_total.inc();
        let mut diags = Vec::new();
        diags.extend(self.timed(0, || lint_policy(policy, self.vocab)));
        diags.extend(self.timed(1, || shadow::shadowing_pass(policy, self.vocab)));
        diags.extend(self.timed(2, || {
            vacuity::vacuity_pass(policy, self.vocab, &self.config)
        }));
        diags.extend(self.timed(3, || {
            blowup::blowup_pass(policy, self.vocab, self.config.expansion_budget)
        }));
        if let Some(entries) = entries {
            diags.extend(self.timed(4, || conflict::conflict_pass(policy, entries, self.vocab)));
        }
        for d in &diags {
            match d.severity {
                prima_model::Severity::Error => self.obs.errors_total.inc(),
                prima_model::Severity::Warning => self.obs.warnings_total.inc(),
                prima_model::Severity::Note => self.obs.notes_total.inc(),
            }
        }
        diags.sort_by(|a, b| {
            (a.severity, a.location.rule_index, a.code.as_str()).cmp(&(
                b.severity,
                b.location.rule_index,
                b.code.as_str(),
            ))
        });
        diags
    }

    fn timed(&self, pass: usize, f: impl FnOnce() -> Vec<Diagnostic>) -> Vec<Diagnostic> {
        let start = Instant::now();
        let out = f();
        self.obs.passes[pass].observe(start.elapsed().as_secs_f64());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prima_model::diag::DiagCode;
    use prima_model::{Rule, StoreTag};
    use prima_vocab::samples::figure_1;

    fn dpa(data: &str, purpose: &str, authorized: &str) -> Rule {
        Rule::of(&[
            ("data", data),
            ("purpose", purpose),
            ("authorized", authorized),
        ])
    }

    #[test]
    fn clean_policy_yields_no_error_diagnostics() {
        let v = figure_1();
        let p = Policy::with_rules(
            StoreTag::PolicyStore,
            vec![
                dpa("general-care", "treatment", "nurse"),
                dpa("mental-health", "treatment", "physician"),
                dpa("demographic", "billing", "clerk"),
            ],
        );
        let diags = Analyzer::new(&v).analyze(&p);
        assert!(
            diags.iter().all(|d| !d.is_error()),
            "figure-3 policy must be clean: {diags:?}"
        );
    }

    #[test]
    fn seeded_defects_each_trip_their_code() {
        let v = figure_1();
        let p = Policy::with_rules(
            StoreTag::PolicyStore,
            vec![
                dpa("medical", "administering-healthcare", "medical-staff"),
                dpa("referral", "treatment", "nurse"), // shadowed by rule 1
                Rule::of(&[("data", "referral"), ("ward", "icu")]), // vacuous
            ],
        );
        let config = AnalyzeConfig::default().with_budget(10);
        let diags = Analyzer::new(&v).with_config(config).analyze(&p);
        let codes: Vec<&str> = diags.iter().map(|d| d.code.as_str()).collect();
        assert!(codes.contains(&"PA001"), "{codes:?}");
        assert!(codes.contains(&"PA003"), "{codes:?}");
        assert!(codes.contains(&"PA004"), "{codes:?}");
        assert!(codes.contains(&"PA010"), "{codes:?}"); // 'ward' unknown attr
    }

    #[test]
    fn diagnostics_sort_errors_first() {
        let v = figure_1();
        let p = Policy::with_rules(
            StoreTag::PolicyStore,
            vec![
                dpa("medical", "administering-healthcare", "medical-staff"), // PA012 note
                Rule::of(&[("data", "referral"), ("ward", "icu")]),          // PA003 error
            ],
        );
        let diags = Analyzer::new(&v).analyze(&p);
        assert!(diags.len() >= 2);
        assert!(diags[0].is_error(), "errors sort first: {diags:?}");
    }

    #[test]
    fn obs_counts_runs_and_severities() {
        let v = figure_1();
        let obs = AnalyzerObs::enabled();
        let analyzer = Analyzer::new(&v).with_obs(obs.clone());
        let p = Policy::with_rules(
            StoreTag::PolicyStore,
            vec![Rule::of(&[("data", "referral"), ("ward", "icu")])],
        );
        let diags = analyzer.analyze(&p);
        assert!(diags.iter().any(|d| d.code == DiagCode::VacuousRule));
        assert_eq!(obs.runs_total.get(), 1);
        assert!(obs.errors_total.get() >= 1);
        let gathered = obs.registry().gather();
        assert!(gathered
            .iter()
            .any(|m| m.name == "prima_analyze_runs_total"));
    }
}
