//! Observability handles for the query engine.
//!
//! [`QueryObs`] pre-registers one timing histogram per plan node and the
//! row-flow counters, so instrumented execution
//! ([`crate::exec::run_observed`], [`crate::execute_observed`]) never
//! takes the registry mutex per statement. The uninstrumented entry
//! points run with [`QueryObs::disabled`]: node timers are no-op
//! histograms whose `time` closure skips the clock entirely.
//!
//! Metric catalog (see DESIGN.md for the workspace-wide table):
//!
//! | metric | kind | meaning |
//! |---|---|---|
//! | `prima_query_statements_total` | counter | statements executed |
//! | `prima_query_rows_scanned_total` | counter | rows read from the table scan |
//! | `prima_query_rows_returned_total` | counter | rows in the final result |
//! | `prima_query_node_seconds{node}` | histogram | per-plan-node execution time |
//!
//! Plan nodes: `plan` (parse + validate), `filter` (WHERE scan), `sort`,
//! `project` (plain queries), `group` (accumulation), `finalize`
//! (HAVING + project + sort, aggregate queries).

use prima_obs::{Counter, Histogram, MetricsRegistry, Tracer};

/// Observability sink for the query engine; `Default` is disabled.
#[derive(Debug, Clone, Default)]
pub struct QueryObs {
    /// Statements executed.
    pub(crate) statements: Counter,
    /// Rows read from the base table scan.
    pub(crate) rows_scanned: Counter,
    /// Rows in final results.
    pub(crate) rows_returned: Counter,
    /// Parse + plan time.
    pub(crate) plan_seconds: Histogram,
    /// WHERE scan time.
    pub(crate) filter_seconds: Histogram,
    /// Sort-key computation + sort time (plain queries).
    pub(crate) sort_seconds: Histogram,
    /// Projection/DISTINCT time (plain queries).
    pub(crate) project_seconds: Histogram,
    /// Group accumulation time (aggregate queries).
    pub(crate) group_seconds: Histogram,
    /// HAVING + project + sort time (aggregate queries).
    pub(crate) finalize_seconds: Histogram,
    pub(crate) tracer: Tracer,
}

impl QueryObs {
    /// No-op handles (what the plain `run`/`execute` entry points use).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Live handles over a shared registry and tracer.
    pub fn over(registry: &MetricsRegistry, tracer: Tracer) -> Self {
        let node = |node: &str| {
            registry.histogram_with(
                "prima_query_node_seconds",
                "Per-plan-node execution time in seconds.",
                &[("node", node)],
                &prima_obs::DEFAULT_LATENCY_BUCKETS,
            )
        };
        Self {
            statements: registry.counter(
                "prima_query_statements_total",
                "Statements executed by the query engine.",
            ),
            rows_scanned: registry.counter(
                "prima_query_rows_scanned_total",
                "Rows read from base-table scans.",
            ),
            rows_returned: registry.counter(
                "prima_query_rows_returned_total",
                "Rows returned in query results.",
            ),
            plan_seconds: node("plan"),
            filter_seconds: node("filter"),
            sort_seconds: node("sort"),
            project_seconds: node("project"),
            group_seconds: node("group"),
            finalize_seconds: node("finalize"),
            tracer,
        }
    }

    /// True when this sink records anything.
    pub fn is_enabled(&self) -> bool {
        self.statements.is_live() || self.tracer.is_enabled()
    }
}
