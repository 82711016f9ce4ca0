//! In-memory row tables with validated insertion and scans.

use crate::error::StoreError;
use crate::row::Row;
use crate::schema::Schema;
use crate::value::Value;

/// An in-memory, append-mostly row table.
///
/// Rows are validated against the schema on insertion, so scans never need
/// to re-check types. Deletion is not supported — neither the audit trail
/// (append-only by design, Section 4.2) nor the clinical fixtures need it;
/// retention in `prima-audit` works by epoch-partitioned tables instead.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    rows: Vec<Row>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(name: &str, schema: Schema) -> Self {
        Self {
            name: name.to_string(),
            schema,
            rows: Vec::new(),
        }
    }

    /// The table's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True iff the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Validates and appends a row, returning its index.
    pub fn insert(&mut self, row: Row) -> Result<usize, StoreError> {
        self.schema.validate(&row)?;
        self.rows.push(row);
        Ok(self.rows.len() - 1)
    }

    /// The row at `idx`.
    pub fn row(&self, idx: usize) -> Result<&Row, StoreError> {
        self.rows.get(idx).ok_or(StoreError::RowOutOfBounds {
            index: idx,
            len: self.rows.len(),
        })
    }

    /// Full scan.
    pub fn scan(&self) -> impl Iterator<Item = &Row> {
        self.rows.iter()
    }

    /// Projects named columns from every row (helper for fixtures/tests and
    /// for the audit federation's column harmonisation).
    pub fn project(&self, columns: &[&str]) -> Result<Vec<Row>, StoreError> {
        let indices: Vec<usize> = columns
            .iter()
            .map(|c| self.schema.require(c, &self.name))
            .collect::<Result<_, _>>()?;
        Ok(self.rows.iter().map(|r| r.project(&indices)).collect())
    }

    /// Approximate heap footprint in bytes (schema excluded). Used by the
    /// audit-storage experiment (E6) to report bytes/entry.
    pub fn approx_bytes(&self) -> usize {
        let mut total = self.rows.capacity() * size_of::<Row>();
        for row in &self.rows {
            total += size_of_val(row.values());
            for v in row.values() {
                if let Value::Str(s) = v {
                    total += s.capacity();
                }
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, DataType};

    fn patients() -> Table {
        let schema = Schema::new(vec![
            Column::required("name", DataType::Str),
            Column::required("age", DataType::Int),
            Column::nullable("ward", DataType::Str),
        ])
        .unwrap();
        let mut t = Table::new("patients", schema);
        t.insert(Row::new(vec![
            Value::str("alice"),
            Value::Int(70),
            Value::str("icu"),
        ]))
        .unwrap();
        t.insert(Row::new(vec![
            Value::str("bob"),
            Value::Int(35),
            Value::Null,
        ]))
        .unwrap();
        t
    }

    #[test]
    fn insert_validates() {
        let mut t = patients();
        let err = t
            .insert(Row::new(vec![Value::Int(1), Value::Int(2), Value::Null]))
            .unwrap_err();
        assert!(matches!(err, StoreError::TypeMismatch { .. }));
        assert_eq!(t.len(), 2, "failed insert must not change the table");
    }

    #[test]
    fn project_selects_columns() {
        let t = patients();
        let rows = t.project(&["age", "name"]).unwrap();
        assert_eq!(rows[0].values(), &[Value::Int(70), Value::str("alice")]);
        assert!(t.project(&["missing"]).is_err());
    }

    #[test]
    fn approx_bytes_grows_with_rows() {
        let mut t = patients();
        let before = t.approx_bytes();
        t.insert(Row::new(vec![
            Value::str("someone-with-a-long-name"),
            Value::Int(1),
            Value::Null,
        ]))
        .unwrap();
        assert!(t.approx_bytes() > before);
    }
}
