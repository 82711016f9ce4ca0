//! A sample clinical database for examples and experiments.
//!
//! One table, `encounters`, whose clinical and financial columns
//! (`referral`, `prescription`, `psychiatry`, `insurance`) are mapped onto
//! the Figure 1 vocabulary, keyed by a `patient` column that consent
//! filtering reads.
//!
//! [`generate_encounters`] scales the encounter table for the overhead
//! experiment (E6) deterministically — no RNG, so benchmark inputs are
//! reproducible byte-for-byte.

use prima_store::{Column, DataType, Row, Schema, Table, Value};

/// Builds the `encounters` table with its column→category mappings.
pub fn encounters_table() -> (Table, Vec<(String, String)>) {
    let (t, m) = build_encounters(3);
    (t, m)
}

/// Builds an `encounters` table with `n` rows (cycling over the sample
/// patients) for scale experiments.
pub fn generate_encounters(n: usize) -> (Table, Vec<(String, String)>) {
    build_encounters(n)
}

fn build_encounters(n: usize) -> (Table, Vec<(String, String)>) {
    let schema = Schema::new(vec![
        Column::required("patient", DataType::Str),
        Column::required("referral", DataType::Str),
        Column::required("prescription", DataType::Str),
        Column::required("psychiatry", DataType::Str),
        Column::required("insurance", DataType::Str),
    ])
    .unwrap();
    let mut t = Table::new("encounters", schema);
    let patients = ["p1", "p2", "p3"];
    for i in 0..n {
        let p = patients[i % patients.len()];
        t.insert(Row::new(vec![
            Value::str(p),
            Value::str(format!("referral-{i}")),
            Value::str(format!("rx-{i}")),
            Value::str(format!("psy-note-{i}")),
            Value::str(format!("plan-{}", i % 7)),
        ]))
        .unwrap();
    }
    let mappings = vec![
        ("patient".to_string(), "name".to_string()),
        ("referral".to_string(), "referral".to_string()),
        ("prescription".to_string(), "prescription".to_string()),
        ("psychiatry".to_string(), "psychiatry".to_string()),
        ("insurance".to_string(), "insurance".to_string()),
    ];
    (t, mappings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prima_vocab::samples::figure_1;

    #[test]
    fn tables_build_and_map_to_vocabulary() {
        let v = figure_1();
        let (t, mappings) = encounters_table();
        assert!(!t.is_empty());
        for (col, cat) in &mappings {
            assert!(
                t.schema().index_of(col).is_some(),
                "{col} must exist in {}",
                t.name()
            );
            assert!(
                v.is_ground("data", cat) || v.resolve("data", cat).is_some(),
                "{cat} must be a known data category"
            );
        }
    }

    #[test]
    fn generate_encounters_scales_deterministically() {
        let (a, _) = generate_encounters(100);
        let (b, _) = generate_encounters(100);
        assert_eq!(a.len(), 100);
        assert_eq!(
            a.row(42).unwrap().values(),
            b.row(42).unwrap().values(),
            "generation must be deterministic"
        );
    }
}
