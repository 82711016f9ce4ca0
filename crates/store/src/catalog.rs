//! The catalog: a thread-safe registry of named tables.
//!
//! The HDB middleware, the audit writers, and the analytics queries all
//! touch the same tables concurrently (Compliance Auditing appends while
//! Policy Refinement reads), so tables are shared behind `parking_lot`
//! read-write locks.

use crate::error::StoreError;
use crate::table::Table;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A table shared across components.
pub type SharedTable = Arc<RwLock<Table>>;

/// A registry of named tables.
#[derive(Debug, Default)]
pub struct Catalog {
    tables: RwLock<BTreeMap<String, SharedTable>>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an existing table under its own name, failing on conflict.
    pub fn register(&self, table: Table) -> Result<SharedTable, StoreError> {
        let name = table.name().to_string();
        let mut tables = self.tables.write();
        if tables.contains_key(&name) {
            return Err(StoreError::DuplicateTable { name });
        }
        let shared = Arc::new(RwLock::new(table));
        tables.insert(name, Arc::clone(&shared));
        Ok(shared)
    }

    /// Fetches a table by name.
    pub fn get(&self, name: &str) -> Result<SharedTable, StoreError> {
        self.tables
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| StoreError::UnknownTable {
                name: name.to_string(),
            })
    }

    /// Number of registered tables.
    pub fn len(&self) -> usize {
        self.tables.read().len()
    }

    /// True iff no tables are registered.
    pub fn is_empty(&self) -> bool {
        self.tables.read().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::Row;
    use crate::schema::{Column, DataType, Schema};
    use crate::value::Value;

    fn schema() -> Schema {
        Schema::new(vec![Column::required("x", DataType::Int)]).unwrap()
    }

    #[test]
    fn register_existing_table() {
        let cat = Catalog::new();
        let mut t = Table::new("pre", schema());
        t.insert(Row::new(vec![Value::Int(5)])).unwrap();
        cat.register(t).unwrap();
        assert_eq!(cat.get("pre").unwrap().read().len(), 1);
        assert_eq!(cat.len(), 1);
        assert!(matches!(
            cat.register(Table::new("pre", schema())),
            Err(StoreError::DuplicateTable { .. })
        ));
        assert!(matches!(cat.get("t"), Err(StoreError::UnknownTable { .. })));
    }

    #[test]
    fn shared_mutation_is_visible() {
        let cat = Catalog::new();
        let t = cat.register(Table::new("t", schema())).unwrap();
        t.write().insert(Row::new(vec![Value::Int(1)])).unwrap();
        let again = cat.get("t").unwrap();
        assert_eq!(again.read().len(), 1);
    }

    #[test]
    fn concurrent_appends() {
        let cat = Arc::new(Catalog::new());
        cat.register(Table::new("t", schema())).unwrap();
        let mut handles = Vec::new();
        for worker in 0..4 {
            let cat = Arc::clone(&cat);
            handles.push(std::thread::spawn(move || {
                let t = cat.get("t").unwrap();
                for i in 0..100 {
                    t.write()
                        .insert(Row::new(vec![Value::Int(worker * 1000 + i)]))
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(cat.get("t").unwrap().read().len(), 400);
    }
}
