//! Property-based tests for the SQL-subset engine.

use prima_query::execute;
use prima_store::{Column, DataType, Row, Schema, Table, Value};
use proptest::prelude::*;

/// Random small audit-shaped tables.
fn arb_table() -> impl Strategy<Value = Table> {
    let row = (
        0..4usize, // user
        0..5usize, // data
        0..3usize, // purpose
        0..2i64,   // status
    );
    collection::vec(row, 0..60).prop_map(|rows| {
        let schema = Schema::new(vec![
            Column::required("user", DataType::Str),
            Column::required("data", DataType::Str),
            Column::required("purpose", DataType::Str),
            Column::required("status", DataType::Int),
        ])
        .expect("static schema");
        let mut t = Table::new("t", schema);
        for (u, d, p, s) in rows {
            t.insert(Row::new(vec![
                Value::str(format!("u{u}")),
                Value::str(format!("d{d}")),
                Value::str(format!("p{p}")),
                Value::Int(s),
            ]))
            .expect("typed row");
        }
        t
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// COUNT(*) equals the table length; WHERE TRUE-ish filters partition.
    #[test]
    fn count_star_counts_rows(t in arb_table()) {
        let r = execute(&t, "SELECT COUNT(*) AS n FROM t").unwrap();
        prop_assert_eq!(r.value_at(0, "n"), Some(&Value::Int(t.len() as i64)));
    }

    /// A filter and its negation partition the rows.
    #[test]
    fn where_partitions(t in arb_table()) {
        let yes = execute(&t, "SELECT COUNT(*) AS n FROM t WHERE status = 0").unwrap();
        let no = execute(&t, "SELECT COUNT(*) AS n FROM t WHERE NOT status = 0").unwrap();
        let y = yes.value_at(0, "n").unwrap().as_int().unwrap();
        let n = no.value_at(0, "n").unwrap().as_int().unwrap();
        prop_assert_eq!((y + n) as usize, t.len());
    }

    /// Group counts sum to the filtered row count, and groups are distinct.
    #[test]
    fn group_counts_sum_to_total(t in arb_table()) {
        let r = execute(&t, "SELECT data, COUNT(*) AS n FROM t GROUP BY data").unwrap();
        let total: i64 = r.rows.iter().map(|row| row.get(1).as_int().unwrap()).sum();
        prop_assert_eq!(total as usize, t.len());
        let mut keys: Vec<&Value> = r.rows.iter().map(|row| row.get(0)).collect();
        let before = keys.len();
        keys.dedup();
        prop_assert_eq!(keys.len(), before, "group keys must be distinct and sorted");
    }

    /// HAVING is a restriction of the unfiltered grouping.
    #[test]
    fn having_is_subset(t in arb_table()) {
        let all = execute(&t, "SELECT data, COUNT(*) AS n FROM t GROUP BY data").unwrap();
        let some = execute(
            &t,
            "SELECT data, COUNT(*) AS n FROM t GROUP BY data HAVING COUNT(*) >= 3",
        )
        .unwrap();
        prop_assert!(some.len() <= all.len());
        for row in &some.rows {
            prop_assert!(row.get(1).as_int().unwrap() >= 3);
            prop_assert!(all.rows.iter().any(|a| a.get(0) == row.get(0)));
        }
    }

    /// COUNT(DISTINCT user) never exceeds COUNT(*) per group.
    #[test]
    fn distinct_bounded_by_count(t in arb_table()) {
        let r = execute(
            &t,
            "SELECT data, COUNT(*) AS n, COUNT(DISTINCT user) AS u FROM t GROUP BY data",
        )
        .unwrap();
        for row in &r.rows {
            let n = row.get(1).as_int().unwrap();
            let u = row.get(2).as_int().unwrap();
            prop_assert!(u >= 1 && u <= n, "1 <= distinct ({u}) <= count ({n})");
        }
    }

    /// ORDER BY ... DESC returns the counts in non-increasing order.
    #[test]
    fn order_by_desc_is_sorted(t in arb_table()) {
        let all = execute(&t, "SELECT data, COUNT(*) AS n FROM t GROUP BY data ORDER BY n DESC").unwrap();
        for w in all.rows.windows(2) {
            prop_assert!(w[0].get(1).as_int() >= w[1].get(1).as_int());
        }
    }

    /// SELECT * preserves every row (identity query).
    #[test]
    fn select_star_is_identity(t in arb_table()) {
        let r = execute(&t, "SELECT * FROM t").unwrap();
        prop_assert_eq!(r.len(), t.len());
        for (orig, got) in t.scan().zip(&r.rows) {
            prop_assert_eq!(orig, got);
        }
    }

    /// IN-list equals the disjunction of equalities.
    #[test]
    fn in_list_equals_or(t in arb_table()) {
        let a = execute(&t, "SELECT COUNT(*) AS n FROM t WHERE data IN ('d0', 'd1')").unwrap();
        let b = execute(&t, "SELECT COUNT(*) AS n FROM t WHERE data = 'd0' OR data = 'd1'").unwrap();
        prop_assert_eq!(a.value_at(0, "n"), b.value_at(0, "n"));
    }
}
