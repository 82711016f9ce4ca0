//! # prima-query — a SQL-subset query engine
//!
//! Algorithm 5 of the paper (`dataAnalysis`) is literally a SQL statement:
//!
//! ```sql
//! SELECT attr_1, …, attr_n FROM practice
//! GROUP BY attr_1, …, attr_n
//! HAVING COUNT(*) > f AND COUNT(DISTINCT user) > 1
//! ```
//!
//! The paper stresses that the data-analysis routine has "a well-defined
//! interface that allows the extractPatterns algorithm to evolve and be
//! easily customizable" — i.e. the miner issues *queries*, it is not a
//! hard-coded aggregation loop. This crate supplies the engine those
//! queries run on:
//!
//! * [`lexer`] / [`parser`] — SQL-subset text to [`ast::SelectStmt`];
//! * [`plan`] — semantic validation against a table's schema (column
//!   resolution, GROUP BY discipline, aggregate placement);
//! * [`exec`] — execution: filter → hash-group → aggregate → HAVING →
//!   project → ORDER BY, producing a [`QueryResult`].
//!
//! Supported surface: single-table `SELECT` with `*` or expression
//! projections (optional `AS` aliases), `WHERE` (comparisons, `IN`,
//! `IS [NOT] NULL`, `AND`/`OR`/`NOT`), `GROUP BY` columns, `HAVING` over
//! `COUNT(*)`, `COUNT(col)` and `COUNT(DISTINCT col)`, and `ORDER BY …
//! [ASC|DESC]`: what Algorithm 5 needs. Any other aggregate, or one where
//! SQL allows none, is a typed [`QueryError`]. Joins are out of scope — audit federation (in `prima-audit`) consolidates sources into
//! one virtual table *before* analysis, matching the paper's architecture.
//!
//! Group output order is canonical (sorted by group key) unless `ORDER BY`
//! overrides it, so experiment output is reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod error;
pub mod exec;
pub mod lexer;
pub mod obs;
pub mod parser;
pub mod plan;
pub mod result;

pub use error::QueryError;
pub use obs::QueryObs;
pub use result::QueryResult;

use prima_store::Table;

/// Parses and executes `sql` against a single table.
///
/// The `FROM` clause must name `table.name()`; this keeps the engine
/// honest about what it reads while the audit federation decides what the
/// "one big table" contains.
pub fn execute(table: &Table, sql: &str) -> Result<QueryResult, QueryError> {
    execute_observed(table, sql, &QueryObs::disabled())
}

/// [`execute`] with plan-node timings, rows-scanned/returned counters,
/// and a `query.run` span routed into `obs` (see [`obs`] for the metric
/// catalog). Parse + validation time lands in
/// `prima_query_node_seconds{node="plan"}`.
pub fn execute_observed(
    table: &Table,
    sql: &str,
    obs: &QueryObs,
) -> Result<QueryResult, QueryError> {
    let plan = obs
        .plan_seconds
        .time(|| -> Result<plan::PlannedQuery, QueryError> {
            let stmt = parser::parse(sql)?;
            if stmt.from != table.name() {
                return Err(QueryError::UnknownTable {
                    name: stmt.from.clone(),
                });
            }
            plan::plan(&stmt, table.schema())
        })?;
    exec::run_observed(&plan, table, obs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prima_store::{Column, DataType, Row, Schema, Value};

    fn audit_table() -> Table {
        let schema = Schema::new(vec![
            Column::required("user", DataType::Str),
            Column::required("data", DataType::Str),
            Column::required("purpose", DataType::Str),
        ])
        .unwrap();
        let mut t = Table::new("practice", schema);
        for (u, d, p) in [
            ("mark", "referral", "registration"),
            ("tim", "referral", "registration"),
            ("bob", "referral", "registration"),
            ("mark", "referral", "registration"),
            ("mark", "referral", "registration"),
            ("sarah", "psychiatry", "treatment"),
            ("jason", "prescription", "billing"),
        ] {
            t.insert(Row::new(vec![Value::str(u), Value::str(d), Value::str(p)]))
                .unwrap();
        }
        t
    }

    #[test]
    fn algorithm_5_statement_shape_runs_end_to_end() {
        let t = audit_table();
        let r = execute(
            &t,
            "SELECT data, purpose FROM practice \
             GROUP BY data, purpose \
             HAVING COUNT(*) >= 5 AND COUNT(DISTINCT user) > 1",
        )
        .unwrap();
        assert_eq!(r.columns, vec!["data", "purpose"]);
        assert_eq!(r.rows.len(), 1);
        assert_eq!(
            r.rows[0].values(),
            &[Value::str("referral"), Value::str("registration")]
        );
    }

    #[test]
    fn from_must_match_table_name() {
        let t = audit_table();
        let err = execute(&t, "SELECT * FROM other").unwrap_err();
        assert!(matches!(err, QueryError::UnknownTable { .. }));
    }

    #[test]
    fn observed_execution_times_nodes_and_counts_rows() {
        let registry = prima_obs::MetricsRegistry::new();
        let tracer = prima_obs::Tracer::new();
        let obs = QueryObs::over(&registry, tracer.clone());
        let t = audit_table();
        let r = execute_observed(
            &t,
            "SELECT data, COUNT(*) AS n FROM practice GROUP BY data",
            &obs,
        )
        .unwrap();
        assert_eq!(r.rows.len(), 3);
        execute_observed(&t, "SELECT user FROM practice ORDER BY user", &obs).unwrap();

        let count = |name: &str| registry.counter(name, "").get();
        assert_eq!(count("prima_query_statements_total"), 2);
        assert_eq!(
            count("prima_query_rows_scanned_total"),
            14,
            "7 rows x 2 scans"
        );
        assert_eq!(
            count("prima_query_rows_returned_total"),
            10,
            "3 groups + 7 rows"
        );

        let nodes = registry.histograms("prima_query_node_seconds");
        let node_count = |node: &str| {
            nodes
                .iter()
                .find(|(labels, _)| labels == &vec![("node".to_string(), node.to_string())])
                .map(|(_, snap)| snap.count())
                .unwrap_or(0)
        };
        assert_eq!(node_count("plan"), 2);
        assert_eq!(node_count("filter"), 2);
        assert_eq!(node_count("group"), 1, "aggregate statement only");
        assert_eq!(node_count("finalize"), 1);
        assert_eq!(node_count("sort"), 1, "plain statement only");
        assert_eq!(node_count("project"), 1);

        let spans = tracer.drain();
        let runs: Vec<_> = spans.iter().filter(|s| s.name == "query.run").collect();
        assert_eq!(runs.len(), 2);
        assert!(runs.iter().all(|s| s
            .fields
            .iter()
            .any(|(k, v)| k == "rows_scanned" && v == "7")));
    }

    #[test]
    fn disabled_obs_matches_plain_execution() {
        let t = audit_table();
        let sql = "SELECT DISTINCT data FROM practice ORDER BY data";
        let plain = execute(&t, sql).unwrap();
        let observed = execute_observed(&t, sql, &QueryObs::disabled()).unwrap();
        assert_eq!(plain.rows, observed.rows);
    }
}
