//! # prima-core — the PRIMA system (Figure 4)
//!
//! Wires the paper's architecture together:
//!
//! ```text
//! Stakeholders ──▶ Privacy Policy Definition (P_PS, HDB Control Center)
//!                        │ embedded privacy controls
//!                        ▼
//!                 Clinical environment (prima-hdb AE + CA)
//!                        │ audit entries
//!                        ▼
//!                 Audit Management (prima-audit federation)
//!                        │ P_AL
//!                        ▼
//!                 Policy Refinement (prima-refine)
//!                        │ useful patterns
//!                        ▼
//!                 Review queue ──accepted──▶ back into P_PS
//! ```
//!
//! * [`system::PrimaSystem`] — the long-lived object: current policy
//!   store, federated audit sources, review queue, refinement rounds, and
//!   coverage tracking over time;
//! * [`trajectory`] — the closed-loop driver behind experiment E4
//!   (Figure 2's coverage-gap picture made measurable): simulate a round
//!   of clinical workload, refine, accept, re-simulate — informal
//!   workflows that became policy move into the regular flow, and coverage
//!   climbs toward the violation floor.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod observe;
pub mod system;
pub mod trajectory;

pub use observe::SystemObs;
pub use system::{PrimaSystem, ReviewMode, RoundRecord, ServedRound};
pub use trajectory::{run_trajectory, TrajectoryConfig, TrajectoryPoint};
