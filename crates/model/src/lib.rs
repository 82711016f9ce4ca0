//! # prima-model — the paper's formal model (Section 3)
//!
//! Implements Definitions 1–10 and Algorithm 1 (`ComputeCoverage`) of
//! *"Towards Improved Privacy Policy Coverage in Healthcare Using Policy
//! Refinement"*:
//!
//! | Paper construct | This crate |
//! |---|---|
//! | Definition 1, `RuleTerm` | [`RuleTerm`] |
//! | Definition 2, ground/composite terms | [`RuleTerm::is_ground`] |
//! | Definition 3, existence of ground term (`RT'`) | [`RuleTerm::ground_terms`] |
//! | Definition 4, term equivalence | [`RuleTerm::equivalent`] |
//! | Definition 5, `Rule` (conjunction, cardinality `#R`) | [`Rule`] |
//! | Corollary 1, ground rule existence | [`Rule::ground_expansion`] |
//! | Definition 6, rule equivalence | [`Rule::equivalent`] / [`GroundRule`] equality |
//! | Definition 7, `Policy` tied to a store | [`Policy`], [`StoreTag`] |
//! | Corollary 2 / Definition 8, `Range` | [`RangeSet`] |
//! | Definition 9, `Coverage` + Algorithm 1 | [`coverage::compute_coverage`] |
//! | Definition 10, complete coverage | [`coverage::CoverageReport::is_complete`] |
//!
//! Two coverage strategies are provided (an ablation called out in
//! `DESIGN.md` §6): the paper-faithful **materializing** engine that builds
//! both `Range` sets explicitly, and a **lazy** engine that decides ground
//! rules against the policy compiled into a per-term bitset table
//! ([`CompiledPolicy`]) without ever materializing the policy-store range.
//! Both produce identical reports (property-tested in `tests/`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compiled;
pub mod completeness;
pub mod coverage;
pub mod diag;
pub mod dsl;
pub mod error;
pub mod ground;
pub mod lint;
pub mod policy;
pub mod range;
pub mod rule;
pub mod samples;
pub mod simplify;
pub mod term;

pub use compiled::{CompiledPolicy, Subsumers, TermRow};
pub use completeness::CompletenessBound;
pub use coverage::{
    compute_coverage, entry_ratio, CoverageEngine, CoverageReport, EntryCoverageReport,
    PolicyMatcher, Strategy,
};
pub use diag::{DiagCode, DiagLocation, Diagnostic, Severity};
pub use error::ModelError;
pub use ground::GroundRule;
pub use lint::lint_policy;
pub use policy::{Policy, StoreTag};
pub use range::RangeSet;
pub use rule::Rule;
pub use simplify::{rule_subsumes, simplify_policy, SimplifyOutcome};
pub use term::RuleTerm;
