//! Semantic validation: statement × schema → executable plan.

use crate::ast::{Expr, SelectItem, SelectStmt, SortDir};
use crate::error::QueryError;
use prima_store::Schema;

/// A validated, executable query.
#[derive(Debug, Clone)]
pub struct PlannedQuery {
    /// Deduplicate output rows (`SELECT DISTINCT`).
    pub distinct: bool,
    /// Projections (with `SELECT *` expanded to all schema columns).
    pub projections: Vec<SelectItem>,
    /// Optional row filter.
    pub where_clause: Option<Expr>,
    /// Grouping columns.
    pub group_by: Vec<String>,
    /// Optional group filter.
    pub having: Option<Expr>,
    /// Sort keys.
    pub order_by: Vec<(Expr, SortDir)>,
    /// Whether execution takes the grouped/aggregated path.
    pub is_aggregate: bool,
    /// Output column names, in order.
    pub output_columns: Vec<String>,
}

/// Validates `stmt` against `schema` and produces a plan.
pub fn plan(stmt: &SelectStmt, schema: &Schema) -> Result<PlannedQuery, QueryError> {
    // Resolve every referenced column.
    let check_columns = |e: &Expr| -> Result<(), QueryError> {
        let mut missing: Option<String> = None;
        e.visit_columns(&mut |c| {
            if missing.is_none() && schema.index_of(c).is_none() {
                missing = Some(c.to_string());
            }
        });
        match missing {
            Some(column) => Err(QueryError::UnknownColumn { column }),
            None => Ok(()),
        }
    };

    for g in &stmt.group_by {
        if schema.index_of(g).is_none() {
            return Err(QueryError::UnknownColumn { column: g.clone() });
        }
    }
    if let Some(w) = &stmt.where_clause {
        check_columns(w)?;
        if w.contains_aggregate() {
            return Err(QueryError::MisplacedAggregate { clause: "WHERE" });
        }
    }

    let has_projection_agg = stmt.projections.iter().any(|p| p.expr.contains_aggregate());
    let has_having = stmt.having.is_some();
    let is_aggregate = !stmt.group_by.is_empty() || has_projection_agg || has_having;

    // Expand SELECT *.
    let projections: Vec<SelectItem> = if stmt.is_star() {
        if is_aggregate {
            return Err(QueryError::semantic(
                "SELECT * is not valid in a grouped/aggregated query",
            ));
        }
        schema
            .names()
            .map(|n| SelectItem {
                expr: Expr::Column(n.to_string()),
                alias: None,
            })
            .collect()
    } else {
        stmt.projections.clone()
    };

    for p in &projections {
        check_columns(&p.expr)?;
    }
    if let Some(h) = &stmt.having {
        check_columns(h)?;
        if !is_aggregate {
            return Err(QueryError::semantic(
                "HAVING requires GROUP BY or aggregates",
            ));
        }
    }
    // ORDER BY may reference projection aliases; substitute them with the
    // aliased expression before validation (standard SQL behaviour).
    let order_by: Vec<(Expr, SortDir)> = stmt
        .order_by
        .iter()
        .map(|(e, dir)| {
            let resolved = match e {
                Expr::Column(name) => projections
                    .iter()
                    .find(|p| p.alias.as_deref() == Some(name.as_str()))
                    .map(|p| p.expr.clone())
                    .unwrap_or_else(|| e.clone()),
                other => other.clone(),
            };
            (resolved, *dir)
        })
        .collect();
    for (e, _) in &order_by {
        check_columns(e)?;
        if e.contains_aggregate() && !is_aggregate {
            return Err(QueryError::MisplacedAggregate {
                clause: "the ORDER BY of a non-aggregated query",
            });
        }
    }

    if is_aggregate {
        // Every bare column outside an aggregate must be a group key.
        let validate_grouped = |e: &Expr, clause: &str| -> Result<(), QueryError> {
            let mut offending: Option<String> = None;
            collect_bare_columns(e, &mut |c| {
                if offending.is_none() && !stmt.group_by.iter().any(|g| g == c) {
                    offending = Some(c.to_string());
                }
            });
            match offending {
                Some(c) => Err(QueryError::semantic(format!(
                    "column '{c}' in {clause} must appear in GROUP BY or an aggregate"
                ))),
                None => Ok(()),
            }
        };
        for p in &projections {
            validate_grouped(&p.expr, "SELECT")?;
        }
        if let Some(h) = &stmt.having {
            validate_grouped(h, "HAVING")?;
        }
        for (e, _) in &order_by {
            validate_grouped(e, "ORDER BY")?;
        }
    }

    let output_columns = projections.iter().map(SelectItem::output_name).collect();
    Ok(PlannedQuery {
        distinct: stmt.distinct,
        projections,
        where_clause: stmt.where_clause.clone(),
        group_by: stmt.group_by.clone(),
        having: stmt.having.clone(),
        order_by,
        is_aggregate,
        output_columns,
    })
}

/// Visits columns that appear *outside* aggregate calls.
fn collect_bare_columns<'a>(e: &'a Expr, f: &mut impl FnMut(&'a str)) {
    match e {
        Expr::Column(c) => f(c),
        Expr::Literal(_) | Expr::Count(_) => {}
        Expr::Compare { lhs, rhs, .. } => {
            collect_bare_columns(lhs, f);
            collect_bare_columns(rhs, f);
        }
        Expr::InList { expr, list, .. } => {
            collect_bare_columns(expr, f);
            for e in list {
                collect_bare_columns(e, f);
            }
        }
        Expr::IsNull { expr, .. } => collect_bare_columns(expr, f),
        Expr::And(a, b) | Expr::Or(a, b) => {
            collect_bare_columns(a, f);
            collect_bare_columns(b, f);
        }
        Expr::Not(e) => collect_bare_columns(e, f),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use prima_store::{Column, DataType};

    fn schema() -> Schema {
        Schema::new(vec![
            Column::required("user", DataType::Str),
            Column::required("data", DataType::Str),
            Column::required("status", DataType::Int),
        ])
        .unwrap()
    }

    fn plan_sql(sql: &str) -> Result<PlannedQuery, QueryError> {
        plan(&parse(sql).unwrap(), &schema())
    }

    #[test]
    fn star_expands_in_schema_order() {
        let p = plan_sql("SELECT * FROM t").unwrap();
        assert_eq!(p.output_columns, vec!["user", "data", "status"]);
        assert!(!p.is_aggregate);
    }

    #[test]
    fn grouped_query_is_aggregate() {
        let p = plan_sql("SELECT data, COUNT(*) FROM t GROUP BY data").unwrap();
        assert!(p.is_aggregate);
        assert_eq!(p.output_columns, vec!["data", "COUNT(*)"]);
    }

    #[test]
    fn global_aggregate_without_group_by() {
        let p = plan_sql("SELECT COUNT(*) AS n FROM t").unwrap();
        assert!(p.is_aggregate);
        assert_eq!(p.output_columns, vec!["n"]);
    }

    #[test]
    fn rejects_unknown_columns_everywhere() {
        assert!(matches!(
            plan_sql("SELECT nope FROM t"),
            Err(QueryError::UnknownColumn { .. })
        ));
        assert!(matches!(
            plan_sql("SELECT * FROM t WHERE nope = 1"),
            Err(QueryError::UnknownColumn { .. })
        ));
        assert!(matches!(
            plan_sql("SELECT data FROM t GROUP BY nope"),
            Err(QueryError::UnknownColumn { .. })
        ));
        assert!(matches!(
            plan_sql("SELECT data FROM t GROUP BY data HAVING COUNT(DISTINCT nope) > 1"),
            Err(QueryError::UnknownColumn { .. })
        ));
    }

    #[test]
    fn rejects_aggregate_in_where() {
        let err = plan_sql("SELECT * FROM t WHERE COUNT(*) > 1").unwrap_err();
        assert_eq!(err, QueryError::MisplacedAggregate { clause: "WHERE" });
        let err = plan_sql("SELECT data FROM t ORDER BY COUNT(*)").unwrap_err();
        assert!(matches!(err, QueryError::MisplacedAggregate { .. }));
    }

    #[test]
    fn rejects_ungrouped_column_in_projection() {
        let err = plan_sql("SELECT user FROM t GROUP BY data").unwrap_err();
        assert!(err.to_string().contains("user"));
    }

    #[test]
    fn rejects_ungrouped_column_in_having_and_order() {
        assert!(plan_sql("SELECT data FROM t GROUP BY data HAVING user = 'x'").is_err());
        assert!(plan_sql("SELECT data FROM t GROUP BY data ORDER BY user").is_err());
    }

    #[test]
    fn rejects_star_with_group_by() {
        assert!(plan_sql("SELECT * FROM t GROUP BY data").is_err());
    }

    #[test]
    fn rejects_having_without_aggregation_context() {
        // HAVING forces aggregate context; bare column must then be grouped.
        assert!(plan_sql("SELECT data FROM t HAVING data = 'x'").is_err());
    }

    #[test]
    fn having_with_aggregate_only_is_fine() {
        let p = plan_sql("SELECT COUNT(*) FROM t HAVING COUNT(*) > 3").unwrap();
        assert!(p.is_aggregate);
    }
}
