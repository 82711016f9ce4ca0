//! # prima-refine — the policy-refinement pipeline (Section 4.3)
//!
//! "Refinement is based on the premise that a feedback loop is required
//! between real and ideal policy." The pipeline is Algorithm 2:
//!
//! ```text
//! Refinement(P_PS, P_AL, V):
//!   Practice      ← Filter(P_AL)                 (Algorithm 3)
//!   Patterns      ← extractPatterns(Practice, V) (Algorithm 4 → prima-mining)
//!   usefulPatterns← Prune(Patterns, P_PS, V)     (Algorithm 6)
//!   return usefulPatterns
//! ```
//!
//! * [`filter`] — keeps exception-based accesses, drops prohibitions, and
//!   (through an [`AccessClassifier`](prima_audit::AccessClassifier))
//!   separates suspected violations from informal practice;
//! * [`extract`] — materializes the `Practice` table and runs any
//!   [`Miner`](prima_mining::Miner);
//! * [`prune`] — removes patterns the policy store already covers;
//! * [`pipeline`] — the composed `Refinement` function with a full
//!   [`RefinementReport`], and [`prune_and_gate`], the Prune-then-gate
//!   tail a `PrimaSystem` round shares with it;
//! * [`review`] — the human checkpoint the paper insists on ("human input
//!   is prudent at this stage"): a queue of candidate rules that
//!   stakeholders accept, reject, or send for investigation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod extract;
pub mod filter;
pub mod generalize;
pub mod pipeline;
pub mod prune;
pub mod review;

pub use generalize::{generalize, Generalization, GeneralizeOutcome};
pub use pipeline::{
    prune_and_gate, refinement, refinement_with, refinement_with_miner, RefinementConfig,
    RefinementReport,
};
pub use review::{Candidate, CandidateState, ReviewQueue};
