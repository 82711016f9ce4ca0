//! Federation of audit trails — the paper's Audit Management component.
//!
//! "In the first instantiation, we use DB2 Information Integrator as the
//! federation technology in the PRIMA Audit Management component to create a
//! virtual view of all the audit trails." This module plays that role: it
//! registers any number of per-site [`AuditStore`]s and materializes a
//! consolidated view — either as entries (Algorithm 2's input) or as a
//! relational table with a provenance column (for ad-hoc analytics).

use crate::entry::AuditEntry;
use crate::schema::audit_schema;
use crate::store::AuditStore;
use prima_store::{Column, DataType, Row, Schema, StoreError, Table, Value};

/// Name of the provenance column added by [`AuditFederation::consolidated_table`].
pub const COL_SITE: &str = "site";

/// Federation registration error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FederationError {
    /// A source with this name is already registered. Registering the
    /// same name twice — including the same [`AuditStore`] twice, since
    /// clones share one table — would silently double-count every entry
    /// in coverage denominators and mined pattern supports.
    DuplicateSource {
        /// The offending source name.
        name: String,
    },
}

impl std::fmt::Display for FederationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FederationError::DuplicateSource { name } => {
                write!(f, "audit source '{name}' is already registered")
            }
        }
    }
}

impl std::error::Error for FederationError {}

/// A consolidated view over multiple audit stores.
#[derive(Debug, Default, Clone)]
pub struct AuditFederation {
    sources: Vec<AuditStore>,
}

impl AuditFederation {
    /// Creates an empty federation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a log source. Sources are iterated in registration order,
    /// and entries within a source in append order, so the consolidated
    /// view is deterministic.
    ///
    /// Source names are the identity: registering a second store with an
    /// already-registered name (including a clone of a registered store,
    /// which shares its table) is rejected rather than double-counted.
    pub fn register(&mut self, store: AuditStore) -> Result<(), FederationError> {
        if self.sources.iter().any(|s| s.name() == store.name()) {
            return Err(FederationError::DuplicateSource {
                name: store.name().to_string(),
            });
        }
        self.sources.push(store);
        Ok(())
    }

    /// The registered sources.
    pub fn sources(&self) -> &[AuditStore] {
        &self.sources
    }

    /// Total entries across all sources.
    pub fn total_len(&self) -> usize {
        self.sources.iter().map(AuditStore::len).sum()
    }

    /// All entries, rebuilt from each store's columns, merged and sorted
    /// by timestamp (stable: ties keep source order, then append order).
    /// This is the "consistent consolidated view" of Algorithm 2's input;
    /// a refinement round reads the same trail as per-source
    /// [`crate::Tally`]s instead.
    pub fn consolidated_entries(&self) -> Vec<AuditEntry> {
        let mut out = Vec::with_capacity(self.total_len());
        for s in &self.sources {
            out.extend(s.entries());
        }
        out.sort_by_key(|e| e.time);
        out
    }

    /// The consolidated trail as a relational table named
    /// `audit_consolidated`, with a leading provenance column `site`.
    pub fn consolidated_table(&self) -> Result<Table, StoreError> {
        let base = audit_schema();
        let mut columns = vec![Column::required(COL_SITE, DataType::Str)];
        columns.extend(base.columns().iter().cloned());
        let schema = Schema::new(columns)?;
        let mut table = Table::new("audit_consolidated", schema);
        for s in &self.sources {
            for e in s.entries() {
                let mut values = vec![Value::str(s.name())];
                values.extend(e.to_row().into_values());
                table.insert(Row::new(values))?;
            }
        }
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn federation() -> AuditFederation {
        let a = AuditStore::new("icu");
        a.append(&AuditEntry::regular(
            5,
            "tim",
            "referral",
            "treatment",
            "nurse",
        ))
        .unwrap();
        a.append(&AuditEntry::exception(
            1,
            "mark",
            "referral",
            "registration",
            "nurse",
        ))
        .unwrap();
        let b = AuditStore::new("billing-office");
        b.append(&AuditEntry::exception(
            3,
            "jason",
            "prescription",
            "billing",
            "clerk",
        ))
        .unwrap();
        let mut f = AuditFederation::new();
        f.register(a).unwrap();
        f.register(b).unwrap();
        f
    }

    #[test]
    fn consolidated_entries_are_time_sorted() {
        let f = federation();
        let entries = f.consolidated_entries();
        assert_eq!(entries.len(), 3);
        let times: Vec<i64> = entries.iter().map(|e| e.time).collect();
        assert_eq!(times, vec![1, 3, 5]);
        assert_eq!(f.total_len(), 3);
    }

    #[test]
    fn consolidated_table_has_site_column() {
        let f = federation();
        let t = f.consolidated_table().unwrap();
        assert_eq!(t.name(), "audit_consolidated");
        assert_eq!(t.schema().index_of(COL_SITE), Some(0));
        assert_eq!(t.len(), 3);
        assert_eq!(t.schema().arity(), 8);
    }

    #[test]
    fn empty_federation_is_well_behaved() {
        let f = AuditFederation::new();
        assert_eq!(f.total_len(), 0);
        assert!(f.consolidated_entries().is_empty());
        assert_eq!(f.consolidated_table().unwrap().len(), 0);
        assert!(f.sources().is_empty());
    }

    #[test]
    fn duplicate_registration_is_rejected_not_double_counted() {
        let store = AuditStore::new("icu");
        store
            .append(&AuditEntry::regular(
                1,
                "tim",
                "referral",
                "treatment",
                "nurse",
            ))
            .unwrap();
        let mut f = AuditFederation::new();
        f.register(store.clone()).unwrap();
        // The same store again (a clone shares the table) — and any other
        // store reusing the name — must be rejected.
        let err = f.register(store).unwrap_err();
        assert_eq!(err, FederationError::DuplicateSource { name: "icu".into() });
        assert!(err.to_string().contains("icu"));
        let err2 = f.register(AuditStore::new("icu")).unwrap_err();
        assert!(matches!(err2, FederationError::DuplicateSource { .. }));
        // Provenance stayed single-counted.
        assert_eq!(f.total_len(), 1);
        assert_eq!(f.consolidated_entries().len(), 1);
    }

    #[test]
    fn equal_timestamps_tie_break_by_registration_then_append_order() {
        // Three sites, every entry at the same instant: the documented
        // stable tie-break is registration order, then append order
        // within a source.
        let a = AuditStore::new("alpha");
        a.append(&AuditEntry::regular(
            7,
            "a1",
            "referral",
            "treatment",
            "nurse",
        ))
        .unwrap();
        a.append(&AuditEntry::regular(
            7,
            "a2",
            "referral",
            "treatment",
            "nurse",
        ))
        .unwrap();
        let b = AuditStore::new("beta");
        b.append(&AuditEntry::regular(
            7,
            "b1",
            "referral",
            "treatment",
            "nurse",
        ))
        .unwrap();
        let c = AuditStore::new("gamma");
        c.append(&AuditEntry::regular(
            7,
            "c1",
            "referral",
            "treatment",
            "nurse",
        ))
        .unwrap();
        c.append(&AuditEntry::regular(
            5,
            "c0",
            "referral",
            "treatment",
            "nurse",
        ))
        .unwrap();
        let mut f = AuditFederation::new();
        f.register(a).unwrap();
        f.register(b).unwrap();
        f.register(c).unwrap();
        let users: Vec<String> = f
            .consolidated_entries()
            .iter()
            .map(|e| e.user.clone())
            .collect();
        assert_eq!(users, vec!["c0", "a1", "a2", "b1", "c1"]);
    }
}
