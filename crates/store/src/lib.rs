//! # prima-store — the relational substrate
//!
//! PRIMA's first instantiation runs against a relational clinical database
//! (Section 4.1: the HDB components "operate at the middleware layer between
//! the clinical database and the end user query interface"), keeps the audit
//! trail in relational form (the Section 4.2 audit schema), and performs
//! pattern extraction as a SQL statement over that trail (Algorithm 5).
//! None of those systems are available to a reproduction, so this crate
//! implements the minimal-but-real storage engine they need:
//!
//! * typed [`Value`]s and [`Schema`]s with validation,
//! * in-memory row [`Table`]s with validated insertion and scans,
//! * [`Predicate`]s for filtering (the HDB enforcement rewriter's and the
//!   query engine's),
//! * a [`Catalog`] of shared tables guarded by `parking_lot` locks, which is
//!   what the query engine (`prima-query`) executes against.
//!
//! The engine is deliberately column-name-oriented rather than
//! column-id-oriented: the workloads here are audit analytics over a handful
//! of columns, not OLTP, and name orientation keeps the HDB query-rewriting
//! middleware (which splices predicates into user queries) simple and
//! auditable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod error;
pub mod predicate;
pub mod row;
pub mod schema;
pub mod table;
pub mod value;

pub use catalog::{Catalog, SharedTable};
pub use error::StoreError;
pub use predicate::Predicate;
pub use row::Row;
pub use schema::{Column, DataType, Schema};
pub use table::Table;
pub use value::Value;
