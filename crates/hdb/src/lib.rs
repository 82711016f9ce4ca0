//! # prima-hdb — the Hippocratic Database substrate (Figures 4 and 5)
//!
//! PRIMA's first instantiation sits on IBM's Hippocratic Database
//! components: **Active Enforcement** ("when the AE component receives user
//! queries, it rewrites the queries so that only data consistent with policy
//! and patient preferences is returned") and **Compliance Auditing** (the
//! rewritten request "is also stored along with the query issuer, purpose,
//! time and date in the audit log"). Both products are closed source, so
//! this crate rebuilds their contracts over the `prima-store` engine:
//!
//! * [`consent`] — the patient-preference registry AE consults ("patient
//!   consent" in Figure 5): per-patient opt-outs of (purpose, data
//!   category) combinations, vocabulary-aware;
//! * [`request`] — the structured access-request interface: requester,
//!   role, purpose, requested columns, row filter, and the access mode
//!   (purpose *chosen* from the policy list vs *break-the-glass*), which is
//!   exactly the signal the paper uses to set the audit `status` bit;
//! * [`enforcement`] — Active Enforcement: column-level policy decisions
//!   (via the formal model's lazy coverage test), consent-based row
//!   exclusion, cell suppression, and break-the-glass override;
//! * [`auditing`] — Compliance Auditing: every decision (served, denied,
//!   or overridden) lands in a `prima-audit` store with the paper's
//!   seven-attribute schema;
//! * [`control`] — the HDB Control Center facade stakeholders use to
//!   "enter fine-grained rules, patient consent information"; what
//!   "needs to be auditable" is the [`auditing::AuditScope`] a
//!   [`ComplianceAuditing`] is built with;
//! * [`clinical`] — a sample clinical database (an encounters table)
//!   with its column→data-category map, used by examples and experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod auditing;
pub mod clinical;
pub mod consent;
pub mod control;
pub mod enforcement;
pub mod error;
pub mod request;

pub use auditing::ComplianceAuditing;
pub use consent::ConsentRegistry;
pub use control::ControlCenter;
pub use enforcement::{ActiveEnforcement, ColumnMap, EnforcedResult};
pub use error::HdbError;
pub use request::{AccessMode, AccessRequest};
