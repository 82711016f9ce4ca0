//! Abstract syntax for the SQL subset.

use prima_store::predicate::CmpOp;
use prima_store::Value;
use std::fmt;

/// The argument of a `COUNT` call, the one aggregate the engine runs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AggArg {
    /// `COUNT(*)`
    Star,
    /// `COUNT(column)` — NULLs are skipped, per SQL.
    Column(String),
    /// `COUNT(DISTINCT column)` — distinct non-NULL values.
    Distinct(String),
}

impl fmt::Display for AggArg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AggArg::Star => write!(f, "*"),
            AggArg::Column(c) => write!(f, "{c}"),
            AggArg::Distinct(c) => write!(f, "DISTINCT {c}"),
        }
    }
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A column reference.
    Column(String),
    /// A literal value.
    Literal(Value),
    /// Binary comparison.
    Compare {
        /// Operator.
        op: CmpOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// `expr IN (v1, v2, …)` / `expr NOT IN (…)`.
    InList {
        /// Tested expression.
        expr: Box<Expr>,
        /// Candidate values.
        list: Vec<Expr>,
        /// True for `NOT IN`.
        negated: bool,
    },
    /// `expr IS NULL` / `expr IS NOT NULL`.
    IsNull {
        /// Tested expression.
        expr: Box<Expr>,
        /// True for `IS NOT NULL`.
        negated: bool,
    },
    /// Conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Negation.
    Not(Box<Expr>),
    /// `COUNT` call (only legal in projections, HAVING, and ORDER BY of
    /// grouped queries; the planner enforces placement).
    Count(AggArg),
}

impl Expr {
    /// True iff the expression contains an aggregate call.
    pub fn contains_aggregate(&self) -> bool {
        match self {
            Expr::Count(_) => true,
            Expr::Column(_) | Expr::Literal(_) => false,
            Expr::Compare { lhs, rhs, .. } => lhs.contains_aggregate() || rhs.contains_aggregate(),
            Expr::InList { expr, list, .. } => {
                expr.contains_aggregate() || list.iter().any(Expr::contains_aggregate)
            }
            Expr::IsNull { expr, .. } => expr.contains_aggregate(),
            Expr::And(a, b) | Expr::Or(a, b) => a.contains_aggregate() || b.contains_aggregate(),
            Expr::Not(e) => e.contains_aggregate(),
        }
    }

    /// Visits every column reference (including aggregate arguments).
    pub fn visit_columns<'a>(&'a self, f: &mut impl FnMut(&'a str)) {
        match self {
            Expr::Column(c) => f(c),
            Expr::Literal(_) => {}
            Expr::Compare { lhs, rhs, .. } => {
                lhs.visit_columns(f);
                rhs.visit_columns(f);
            }
            Expr::InList { expr, list, .. } => {
                expr.visit_columns(f);
                for e in list {
                    e.visit_columns(f);
                }
            }
            Expr::IsNull { expr, .. } => expr.visit_columns(f),
            Expr::And(a, b) | Expr::Or(a, b) => {
                a.visit_columns(f);
                b.visit_columns(f);
            }
            Expr::Not(e) => e.visit_columns(f),
            Expr::Count(arg) => match arg {
                AggArg::Star => {}
                AggArg::Column(c) | AggArg::Distinct(c) => f(c),
            },
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column(c) => write!(f, "{c}"),
            Expr::Literal(v) => match v {
                Value::Str(s) => write!(f, "'{s}'"),
                other => write!(f, "{other}"),
            },
            Expr::Compare { op, lhs, rhs } => write!(f, "{lhs} {op} {rhs}"),
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                write!(f, "{expr} {}IN (", if *negated { "NOT " } else { "" })?;
                for (i, e) in list.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
            Expr::IsNull { expr, negated } => {
                write!(f, "{expr} IS {}NULL", if *negated { "NOT " } else { "" })
            }
            Expr::And(a, b) => write!(f, "({a} AND {b})"),
            Expr::Or(a, b) => write!(f, "({a} OR {b})"),
            Expr::Not(e) => write!(f, "(NOT {e})"),
            Expr::Count(arg) => write!(f, "COUNT({arg})"),
        }
    }
}

/// One projection item.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectItem {
    /// The projected expression.
    pub expr: Expr,
    /// Optional `AS` alias.
    pub alias: Option<String>,
}

impl SelectItem {
    /// The output column name: the alias if given, else the rendered
    /// expression.
    pub fn output_name(&self) -> String {
        match &self.alias {
            Some(a) => a.clone(),
            None => self.expr.to_string(),
        }
    }
}

/// Sort direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortDir {
    /// Ascending (default).
    Asc,
    /// Descending.
    Desc,
}

/// A parsed `SELECT` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    /// `SELECT DISTINCT`: deduplicate output rows.
    pub distinct: bool,
    /// Projections; empty means `SELECT *`.
    pub projections: Vec<SelectItem>,
    /// Source table name.
    pub from: String,
    /// Optional `WHERE`.
    pub where_clause: Option<Expr>,
    /// `GROUP BY` column names.
    pub group_by: Vec<String>,
    /// Optional `HAVING`.
    pub having: Option<Expr>,
    /// `ORDER BY` expressions with direction.
    pub order_by: Vec<(Expr, SortDir)>,
}

impl SelectStmt {
    /// True for `SELECT *`.
    pub fn is_star(&self) -> bool {
        self.projections.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contains_aggregate_walks_tree() {
        let agg = Expr::Count(AggArg::Star);
        let cmp = Expr::Compare {
            op: CmpOp::Gt,
            lhs: Box::new(agg),
            rhs: Box::new(Expr::Literal(Value::Int(5))),
        };
        assert!(cmp.contains_aggregate());
        assert!(!Expr::Column("x".into()).contains_aggregate());
    }

    #[test]
    fn visit_columns_includes_aggregate_args() {
        let e = Expr::And(
            Box::new(Expr::Compare {
                op: CmpOp::Eq,
                lhs: Box::new(Expr::Column("a".into())),
                rhs: Box::new(Expr::Literal(Value::Int(1))),
            }),
            Box::new(Expr::Count(AggArg::Distinct("user".into()))),
        );
        let mut cols = Vec::new();
        e.visit_columns(&mut |c| cols.push(c.to_string()));
        assert_eq!(cols, vec!["a", "user"]);
    }

    #[test]
    fn display_roundtrips_shape() {
        let e = Expr::Compare {
            op: CmpOp::Gt,
            lhs: Box::new(Expr::Count(AggArg::Distinct("user".into()))),
            rhs: Box::new(Expr::Literal(Value::Int(1))),
        };
        assert_eq!(e.to_string(), "COUNT(DISTINCT user) > 1");
    }

    #[test]
    fn select_item_output_name() {
        let item = SelectItem {
            expr: Expr::Count(AggArg::Star),
            alias: Some("n".into()),
        };
        assert_eq!(item.output_name(), "n");
        let bare = SelectItem {
            expr: Expr::Column("data".into()),
            alias: None,
        };
        assert_eq!(bare.output_name(), "data");
    }
}
