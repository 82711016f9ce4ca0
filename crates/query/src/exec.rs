//! Query execution: filter → group → aggregate → HAVING → project →
//! ORDER BY.

use crate::ast::{AggArg, Expr, SortDir};
use crate::error::QueryError;
use crate::obs::QueryObs;
use crate::plan::PlannedQuery;
use crate::result::QueryResult;
use prima_store::{Row, Schema, Table, Value};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Runs a planned query against its table.
pub fn run(plan: &PlannedQuery, table: &Table) -> Result<QueryResult, QueryError> {
    run_observed(plan, table, &QueryObs::disabled())
}

/// [`run`] with per-node timings, row-flow counters, and a `query.run`
/// span routed into `obs` (see [`crate::obs`] for the catalog). The
/// disabled sink makes this identical to `run`.
pub fn run_observed(
    plan: &PlannedQuery,
    table: &Table,
    obs: &QueryObs,
) -> Result<QueryResult, QueryError> {
    let mut span = obs
        .tracer
        .span("query.run")
        .with_field("table", table.name());
    let schema = table.schema();
    // WHERE.
    let mut scanned = 0usize;
    let input = obs
        .filter_seconds
        .time(|| -> Result<Vec<&Row>, QueryError> {
            let mut input: Vec<&Row> = Vec::new();
            for row in table.scan() {
                scanned += 1;
                let keep = match &plan.where_clause {
                    Some(w) => truthy(&eval_scalar(w, schema, row)?),
                    None => true,
                };
                if keep {
                    input.push(row);
                }
            }
            Ok(input)
        })?;

    let result = if plan.is_aggregate {
        run_aggregate(plan, schema, &input, obs)
    } else {
        run_plain(plan, schema, &input, obs)
    }?;
    obs.statements.inc();
    obs.rows_scanned.add(scanned as u64);
    obs.rows_returned.add(result.rows.len() as u64);
    span.field("rows_scanned", scanned);
    span.field("rows_returned", result.rows.len());
    Ok(result)
}

fn run_plain(
    plan: &PlannedQuery,
    schema: &Schema,
    input: &[&Row],
    obs: &QueryObs,
) -> Result<QueryResult, QueryError> {
    // Compute sort keys against the *source* rows (SQL allows ordering by
    // columns that are not projected).
    let keyed = obs
        .sort_seconds
        .time(|| -> Result<Vec<(Vec<Value>, &Row)>, QueryError> {
            let mut keyed: Vec<(Vec<Value>, &Row)> = Vec::with_capacity(input.len());
            for row in input {
                let mut keys = Vec::with_capacity(plan.order_by.len());
                for (e, _) in &plan.order_by {
                    keys.push(eval_scalar(e, schema, row)?);
                }
                keyed.push((keys, row));
            }
            sort_by_keys(&mut keyed, &plan.order_by);
            Ok(keyed)
        })?;
    obs.project_seconds.time(|| {
        let mut rows = Vec::new();
        // DISTINCT dedups projected rows in (sorted) arrival order.
        let mut seen: HashSet<Row> = HashSet::new();
        for (_, row) in keyed {
            let mut out = Vec::with_capacity(plan.projections.len());
            for p in &plan.projections {
                out.push(eval_scalar(&p.expr, schema, row)?);
            }
            let out = Row::new(out);
            if plan.distinct && !seen.insert(out.clone()) {
                continue;
            }
            rows.push(out);
        }
        Ok(QueryResult {
            columns: plan.output_columns.clone(),
            rows,
        })
    })
}

/// Per-group `COUNT` accumulator.
#[derive(Debug, Default)]
struct Accumulator {
    count: i64,
    distinct: HashSet<Value>,
}

impl Accumulator {
    fn update(&mut self, arg: &AggArg, schema: &Schema, row: &Row) {
        let (AggArg::Column(c) | AggArg::Distinct(c)) = arg else {
            self.count += 1;
            return;
        };
        let idx = schema
            .index_of(c)
            .expect("aggregate argument validated by the planner");
        let v = row.get(idx);
        if v.is_null() {
            return; // SQL: NULLs are invisible to aggregates
        }
        match arg {
            AggArg::Distinct(_) => {
                self.distinct.insert(v.clone());
            }
            _ => self.count += 1,
        }
    }

    fn finish(&self, arg: &AggArg) -> Value {
        match arg {
            AggArg::Distinct(_) => Value::Int(self.distinct.len() as i64),
            _ => Value::Int(self.count),
        }
    }
}

fn collect_aggregates(e: &Expr, out: &mut Vec<AggArg>) {
    match e {
        Expr::Count(arg) => {
            if !out.contains(arg) {
                out.push(arg.clone());
            }
        }
        Expr::Column(_) | Expr::Literal(_) => {}
        Expr::Compare { lhs, rhs, .. } => {
            collect_aggregates(lhs, out);
            collect_aggregates(rhs, out);
        }
        Expr::InList { expr, list, .. } => {
            collect_aggregates(expr, out);
            for e in list {
                collect_aggregates(e, out);
            }
        }
        Expr::IsNull { expr, .. } => collect_aggregates(expr, out),
        Expr::And(a, b) | Expr::Or(a, b) => {
            collect_aggregates(a, out);
            collect_aggregates(b, out);
        }
        Expr::Not(e) => collect_aggregates(e, out),
    }
}

fn run_aggregate(
    plan: &PlannedQuery,
    schema: &Schema,
    input: &[&Row],
    obs: &QueryObs,
) -> Result<QueryResult, QueryError> {
    // Which aggregates do we need?
    let mut agg_keys: Vec<AggArg> = Vec::new();
    for p in &plan.projections {
        collect_aggregates(&p.expr, &mut agg_keys);
    }
    if let Some(h) = &plan.having {
        collect_aggregates(h, &mut agg_keys);
    }
    for (e, _) in &plan.order_by {
        collect_aggregates(e, &mut agg_keys);
    }

    let group_indices: Vec<usize> = plan
        .group_by
        .iter()
        .map(|g| schema.index_of(g).expect("validated by the planner"))
        .collect();

    let groups = obs.group_seconds.time(|| {
        // BTreeMap gives canonical (sorted-by-key) group order for free,
        // which keeps experiment output reproducible without an explicit
        // ORDER BY.
        let mut groups: BTreeMap<Vec<Value>, Vec<Accumulator>> = BTreeMap::new();
        for row in input {
            let key: Vec<Value> = group_indices.iter().map(|&i| row.get(i).clone()).collect();
            let accs = groups.entry(key).or_insert_with(|| {
                (0..agg_keys.len())
                    .map(|_| Accumulator::default())
                    .collect()
            });
            for (acc, arg) in accs.iter_mut().zip(&agg_keys) {
                acc.update(arg, schema, row);
            }
        }
        // A global aggregate over zero rows still yields one group (SQL).
        if groups.is_empty() && plan.group_by.is_empty() {
            groups.insert(
                Vec::new(),
                (0..agg_keys.len())
                    .map(|_| Accumulator::default())
                    .collect(),
            );
        }
        groups
    });

    obs.finalize_seconds.time(|| {
        // Evaluate per group.
        let mut keyed_rows: Vec<(Vec<Value>, Row)> = Vec::new();
        for (key, accs) in &groups {
            let agg_values: HashMap<&AggArg, Value> = agg_keys
                .iter()
                .zip(accs)
                .map(|(arg, acc)| (arg, acc.finish(arg)))
                .collect();
            let ctx = GroupContext {
                group_by: &plan.group_by,
                key,
                agg_values: &agg_values,
            };
            if let Some(h) = &plan.having {
                if !truthy(&eval_group(h, &ctx)?) {
                    continue;
                }
            }
            let mut out = Vec::with_capacity(plan.projections.len());
            for p in &plan.projections {
                out.push(eval_group(&p.expr, &ctx)?);
            }
            let mut sort_key = Vec::with_capacity(plan.order_by.len());
            for (e, _) in &plan.order_by {
                sort_key.push(eval_group(e, &ctx)?);
            }
            keyed_rows.push((sort_key, Row::new(out)));
        }

        let mut keyed: Vec<(Vec<Value>, Row)> = keyed_rows;
        sort_by_keys(&mut keyed, &plan.order_by);
        let mut rows: Vec<Row> = keyed.into_iter().map(|(_, r)| r).collect();
        if plan.distinct {
            // Groups are distinct on their keys, but a projection of fewer
            // columns than keys can still repeat.
            let mut seen: HashSet<Row> = HashSet::new();
            rows.retain(|r| seen.insert(r.clone()));
        }
        Ok(QueryResult {
            columns: plan.output_columns.clone(),
            rows,
        })
    })
}

/// Evaluation context inside one group.
struct GroupContext<'a> {
    group_by: &'a [String],
    key: &'a [Value],
    agg_values: &'a HashMap<&'a AggArg, Value>,
}

fn eval_group(e: &Expr, ctx: &GroupContext<'_>) -> Result<Value, QueryError> {
    match e {
        Expr::Column(c) => {
            let pos = ctx
                .group_by
                .iter()
                .position(|g| g == c)
                .expect("planner guarantees grouped columns");
            Ok(ctx.key[pos].clone())
        }
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Count(arg) => Ok(ctx
            .agg_values
            .get(arg)
            .expect("all aggregates were collected before grouping")
            .clone()),
        Expr::Compare { op, lhs, rhs } => {
            compare(*op, &eval_group(lhs, ctx)?, &eval_group(rhs, ctx)?)
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let v = eval_group(expr, ctx)?;
            let mut items = Vec::with_capacity(list.len());
            for e in list {
                items.push(eval_group(e, ctx)?);
            }
            Ok(in_list(&v, &items, *negated))
        }
        Expr::IsNull { expr, negated } => {
            let v = eval_group(expr, ctx)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
        Expr::And(a, b) => Ok(and3(eval_group(a, ctx)?, eval_group(b, ctx)?)),
        Expr::Or(a, b) => Ok(or3(eval_group(a, ctx)?, eval_group(b, ctx)?)),
        Expr::Not(e) => Ok(not3(eval_group(e, ctx)?)),
    }
}

/// Evaluates a scalar (aggregate-free) expression against one row.
pub fn eval_scalar(e: &Expr, schema: &Schema, row: &Row) -> Result<Value, QueryError> {
    match e {
        Expr::Column(c) => {
            let idx = schema
                .index_of(c)
                .expect("expression validated against schema by the planner");
            Ok(row.get(idx).clone())
        }
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Count(_) => Err(QueryError::MisplacedAggregate {
            clause: "a row expression",
        }),
        Expr::Compare { op, lhs, rhs } => compare(
            *op,
            &eval_scalar(lhs, schema, row)?,
            &eval_scalar(rhs, schema, row)?,
        ),
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let v = eval_scalar(expr, schema, row)?;
            let mut items = Vec::with_capacity(list.len());
            for e in list {
                items.push(eval_scalar(e, schema, row)?);
            }
            Ok(in_list(&v, &items, *negated))
        }
        Expr::IsNull { expr, negated } => {
            let v = eval_scalar(expr, schema, row)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
        Expr::And(a, b) => Ok(and3(
            eval_scalar(a, schema, row)?,
            eval_scalar(b, schema, row)?,
        )),
        Expr::Or(a, b) => Ok(or3(
            eval_scalar(a, schema, row)?,
            eval_scalar(b, schema, row)?,
        )),
        Expr::Not(e) => Ok(not3(eval_scalar(e, schema, row)?)),
    }
}

fn compare(op: prima_store::predicate::CmpOp, a: &Value, b: &Value) -> Result<Value, QueryError> {
    use prima_store::predicate::CmpOp::*;
    match a.sql_cmp(b) {
        None => Ok(Value::Null),
        Some(ord) => {
            let res = match op {
                Eq => ord == std::cmp::Ordering::Equal,
                Ne => ord != std::cmp::Ordering::Equal,
                Lt => ord == std::cmp::Ordering::Less,
                Le => ord != std::cmp::Ordering::Greater,
                Gt => ord == std::cmp::Ordering::Greater,
                Ge => ord != std::cmp::Ordering::Less,
            };
            Ok(Value::Bool(res))
        }
    }
}

fn in_list(v: &Value, items: &[Value], negated: bool) -> Value {
    if v.is_null() {
        return Value::Null;
    }
    let found = items.iter().any(|i| i == v);
    let mut result = found;
    if negated {
        result = !result;
    }
    // SQL nuance: `x NOT IN (…, NULL)` is UNKNOWN when x is absent.
    if !found && items.iter().any(Value::is_null) {
        return Value::Null;
    }
    Value::Bool(result)
}

fn truthy(v: &Value) -> bool {
    matches!(v, Value::Bool(true))
}

fn and3(a: Value, b: Value) -> Value {
    match (a, b) {
        (Value::Bool(false), _) | (_, Value::Bool(false)) => Value::Bool(false),
        (Value::Bool(true), Value::Bool(true)) => Value::Bool(true),
        _ => Value::Null,
    }
}

fn or3(a: Value, b: Value) -> Value {
    match (a, b) {
        (Value::Bool(true), _) | (_, Value::Bool(true)) => Value::Bool(true),
        (Value::Bool(false), Value::Bool(false)) => Value::Bool(false),
        _ => Value::Null,
    }
}

fn not3(v: Value) -> Value {
    match v {
        Value::Bool(b) => Value::Bool(!b),
        _ => Value::Null,
    }
}

/// Stable sort of `(keys, payload)` pairs honouring per-key direction.
/// NULLs sort first ascending (matching `Value`'s total order).
fn sort_by_keys<T>(items: &mut [(Vec<Value>, T)], dirs: &[(Expr, SortDir)]) {
    if dirs.is_empty() {
        return;
    }
    items.sort_by(|(ka, _), (kb, _)| {
        for (i, (_, dir)) in dirs.iter().enumerate() {
            let ord = ka[i].cmp(&kb[i]);
            let ord = match dir {
                SortDir::Asc => ord,
                SortDir::Desc => ord.reverse(),
            };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::plan::plan;
    use prima_store::{Column, DataType, Schema};

    fn table() -> Table {
        let schema = Schema::new(vec![
            Column::required("user", DataType::Str),
            Column::required("data", DataType::Str),
            Column::required("status", DataType::Int),
            Column::nullable("ward", DataType::Str),
        ])
        .unwrap();
        let mut t = Table::new("audit", schema);
        for (u, d, s, w) in [
            ("mark", "referral", 0, Some("a")),
            ("tim", "referral", 0, Some("a")),
            ("mark", "referral", 0, None),
            ("sarah", "psychiatry", 0, Some("b")),
            ("bill", "address", 1, Some("b")),
            ("jason", "prescription", 0, Some("c")),
            ("mark", "referral", 0, Some("a")),
            ("bob", "referral", 0, Some("a")),
        ] {
            t.insert(Row::new(vec![
                Value::str(u),
                Value::str(d),
                Value::Int(s),
                w.map(Value::str).unwrap_or(Value::Null),
            ]))
            .unwrap();
        }
        t
    }

    fn query(sql: &str) -> QueryResult {
        let t = table();
        let stmt = parse(sql).unwrap();
        let p = plan(&stmt, t.schema()).unwrap();
        run(&p, &t).unwrap()
    }

    #[test]
    fn plain_select_with_where() {
        let r = query("SELECT user FROM audit WHERE data = 'referral' AND status = 0");
        assert_eq!(r.len(), 5);
        assert_eq!(r.columns, vec!["user"]);
    }

    #[test]
    fn group_by_with_count_star() {
        let r = query("SELECT data, COUNT(*) AS n FROM audit GROUP BY data");
        // Canonical sorted group order: address, prescription, psychiatry, referral.
        assert_eq!(r.len(), 4);
        assert_eq!(r.rows[0].values()[0], Value::str("address"));
        assert_eq!(r.value_at(3, "n"), Some(&Value::Int(5)));
    }

    #[test]
    fn count_distinct_and_having() {
        let r = query(
            "SELECT data FROM audit GROUP BY data \
             HAVING COUNT(*) >= 5 AND COUNT(DISTINCT user) > 1",
        );
        assert_eq!(r.len(), 1);
        assert_eq!(r.rows[0].values()[0], Value::str("referral"));
    }

    #[test]
    fn count_column_skips_nulls() {
        let r = query("SELECT COUNT(ward) AS w, COUNT(*) AS n FROM audit");
        assert_eq!(r.value_at(0, "w"), Some(&Value::Int(7)));
        assert_eq!(r.value_at(0, "n"), Some(&Value::Int(8)));
    }

    #[test]
    fn global_aggregate_over_empty_filter_yields_one_row() {
        let r = query("SELECT COUNT(*) AS n FROM audit WHERE user = 'nobody'");
        assert_eq!(r.len(), 1);
        assert_eq!(r.value_at(0, "n"), Some(&Value::Int(0)));
    }

    #[test]
    fn empty_group_by_result_when_no_groups_match() {
        let r = query("SELECT data FROM audit WHERE user = 'nobody' GROUP BY data");
        assert!(r.is_empty());
    }

    #[test]
    fn order_by_desc() {
        let r = query("SELECT data, COUNT(*) AS n FROM audit GROUP BY data ORDER BY n DESC");
        assert_eq!(r.len(), 4);
        assert_eq!(r.rows[0].values()[0], Value::str("referral"));
        assert_eq!(r.value_at(0, "n"), Some(&Value::Int(5)));
    }

    #[test]
    fn order_by_unprojected_column_in_plain_query() {
        let r = query("SELECT user FROM audit ORDER BY data, user");
        assert_eq!(r.rows[0].values()[0], Value::str("bill")); // address row
    }

    #[test]
    fn where_with_in_and_null_handling() {
        let r = query("SELECT user FROM audit WHERE ward IN ('a', 'c')");
        assert_eq!(r.len(), 5);
        // NULL ward row never matches IN.
        let r2 = query("SELECT user FROM audit WHERE ward NOT IN ('a', 'c')");
        assert_eq!(r2.len(), 2); // only 'b' rows; NULL is UNKNOWN
    }

    #[test]
    fn is_null_filters() {
        let r = query("SELECT user FROM audit WHERE ward IS NULL");
        assert_eq!(r.len(), 1);
        let r2 = query("SELECT user FROM audit WHERE ward IS NOT NULL");
        assert_eq!(r2.len(), 7);
    }

    #[test]
    fn select_distinct_dedups_rows() {
        let r = query("SELECT DISTINCT data FROM audit");
        assert_eq!(r.len(), 4);
        let without = query("SELECT data FROM audit");
        assert_eq!(without.len(), 8);
    }

    #[test]
    fn distinct_respects_order() {
        let r = query("SELECT DISTINCT data FROM audit ORDER BY data DESC");
        assert_eq!(r.rows[0].get(0), &Value::str("referral"));
        assert_eq!(r.rows[1].get(0), &Value::str("psychiatry"));
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn distinct_on_multiple_columns() {
        let r = query("SELECT DISTINCT user, data FROM audit WHERE data = 'referral'");
        // mark, tim, bob touched referral: (mark, referral) repeats.
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn group_key_with_null_groups_together() {
        // Two rows share ward 'b'; one row has NULL ward.
        let r = query("SELECT ward, COUNT(*) AS n FROM audit GROUP BY ward");
        // NULL group sorts first under Value's total order.
        assert_eq!(r.rows[0].values()[0], Value::Null);
        assert_eq!(r.value_at(0, "n"), Some(&Value::Int(1)));
    }
}
