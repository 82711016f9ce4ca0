//! Recursive-descent parser for the SQL subset.

use crate::ast::{AggArg, Expr, SelectItem, SelectStmt, SortDir};
use crate::error::QueryError;
use crate::lexer::{lex, Token};
use prima_store::predicate::CmpOp;
use prima_store::Value;

/// Parses a single `SELECT` statement.
pub fn parse(sql: &str) -> Result<SelectStmt, QueryError> {
    let tokens = lex(sql)?;
    let mut p = Parser { tokens, pos: 0 };
    let stmt = p.select()?;
    if p.pos != p.tokens.len() {
        return Err(QueryError::parse(format!(
            "trailing input after statement: {:?}",
            p.tokens[p.pos]
        )));
    }
    Ok(stmt)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat_kw(&mut self, word: &str) -> bool {
        if matches!(self.peek(), Some(t) if t.is_kw(word)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, word: &str) -> Result<(), QueryError> {
        if self.eat_kw(word) {
            Ok(())
        } else {
            Err(QueryError::parse(format!(
                "expected {word}, found {:?}",
                self.peek()
            )))
        }
    }

    fn expect(&mut self, tok: &Token, what: &str) -> Result<(), QueryError> {
        match self.next() {
            Some(ref t) if t == tok => Ok(()),
            other => Err(QueryError::parse(format!(
                "expected {what}, found {other:?}"
            ))),
        }
    }

    fn ident(&mut self, what: &str) -> Result<String, QueryError> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            other => Err(QueryError::parse(format!(
                "expected {what}, found {other:?}"
            ))),
        }
    }

    fn select(&mut self) -> Result<SelectStmt, QueryError> {
        self.expect_kw("SELECT")?;
        let distinct = self.eat_kw("DISTINCT");
        let projections = if matches!(self.peek(), Some(Token::Star)) {
            self.pos += 1;
            Vec::new()
        } else {
            let mut items = vec![self.select_item()?];
            while matches!(self.peek(), Some(Token::Comma)) {
                self.pos += 1;
                items.push(self.select_item()?);
            }
            items
        };
        self.expect_kw("FROM")?;
        let from = self.ident("table name")?;
        let where_clause = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        let group_by = if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            let mut cols = vec![self.ident("group-by column")?];
            while matches!(self.peek(), Some(Token::Comma)) {
                self.pos += 1;
                cols.push(self.ident("group-by column")?);
            }
            cols
        } else {
            Vec::new()
        };
        let having = if self.eat_kw("HAVING") {
            Some(self.expr()?)
        } else {
            None
        };
        let order_by = if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            let mut items = vec![self.order_item()?];
            while matches!(self.peek(), Some(Token::Comma)) {
                self.pos += 1;
                items.push(self.order_item()?);
            }
            items
        } else {
            Vec::new()
        };
        Ok(SelectStmt {
            distinct,
            projections,
            from,
            where_clause,
            group_by,
            having,
            order_by,
        })
    }

    fn select_item(&mut self) -> Result<SelectItem, QueryError> {
        let expr = self.expr()?;
        let alias = if self.eat_kw("AS") {
            Some(self.ident("alias")?)
        } else {
            None
        };
        Ok(SelectItem { expr, alias })
    }

    fn order_item(&mut self) -> Result<(Expr, SortDir), QueryError> {
        let expr = self.expr()?;
        let dir = if self.eat_kw("DESC") {
            SortDir::Desc
        } else {
            self.eat_kw("ASC");
            SortDir::Asc
        };
        Ok((expr, dir))
    }

    // expr := or
    fn expr(&mut self) -> Result<Expr, QueryError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr, QueryError> {
        let mut lhs = self.and_expr()?;
        while self.eat_kw("OR") {
            let rhs = self.and_expr()?;
            lhs = Expr::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, QueryError> {
        let mut lhs = self.not_expr()?;
        while self.eat_kw("AND") {
            let rhs = self.not_expr()?;
            lhs = Expr::And(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<Expr, QueryError> {
        if self.eat_kw("NOT") {
            // Guard: NOT IN is handled in comparison(); here NOT negates a
            // boolean term.
            let inner = self.not_expr()?;
            return Ok(Expr::Not(Box::new(inner)));
        }
        self.comparison()
    }

    fn comparison(&mut self) -> Result<Expr, QueryError> {
        let lhs = self.operand()?;
        // IS [NOT] NULL
        if self.eat_kw("IS") {
            let negated = self.eat_kw("NOT");
            self.expect_kw("NULL")?;
            return Ok(Expr::IsNull {
                expr: Box::new(lhs),
                negated,
            });
        }
        // [NOT] IN (…)
        let negated_in = if matches!(self.peek(), Some(t) if t.is_kw("NOT")) {
            // Only treat NOT as part of NOT IN when IN follows.
            if matches!(self.tokens.get(self.pos + 1), Some(t) if t.is_kw("IN")) {
                self.pos += 1;
                true
            } else {
                false
            }
        } else {
            false
        };
        if self.eat_kw("IN") {
            self.expect(&Token::LParen, "'('")?;
            let mut list = vec![self.operand()?];
            while matches!(self.peek(), Some(Token::Comma)) {
                self.pos += 1;
                list.push(self.operand()?);
            }
            self.expect(&Token::RParen, "')'")?;
            return Ok(Expr::InList {
                expr: Box::new(lhs),
                list,
                negated: negated_in,
            });
        }
        if negated_in {
            return Err(QueryError::parse("expected IN after NOT"));
        }
        let op = match self.peek() {
            Some(Token::Eq) => Some(CmpOp::Eq),
            Some(Token::Ne) => Some(CmpOp::Ne),
            Some(Token::Lt) => Some(CmpOp::Lt),
            Some(Token::Le) => Some(CmpOp::Le),
            Some(Token::Gt) => Some(CmpOp::Gt),
            Some(Token::Ge) => Some(CmpOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let rhs = self.operand()?;
            return Ok(Expr::Compare {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            });
        }
        Ok(lhs)
    }

    fn operand(&mut self) -> Result<Expr, QueryError> {
        match self.peek().cloned() {
            Some(Token::LParen) => {
                self.pos += 1;
                let e = self.expr()?;
                self.expect(&Token::RParen, "')'")?;
                Ok(e)
            }
            Some(Token::IntLit(n)) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Int(n)))
            }
            Some(Token::StringLit(s)) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Str(s)))
            }
            Some(Token::Ident(name)) => {
                if matches!(self.tokens.get(self.pos + 1), Some(Token::LParen)) {
                    if !name.eq_ignore_ascii_case("count") {
                        return Err(QueryError::UnsupportedAggregate { name });
                    }
                    self.pos += 2; // consume name and '('
                    let arg = if matches!(self.peek(), Some(Token::Star)) {
                        self.pos += 1;
                        AggArg::Star
                    } else if self.eat_kw("DISTINCT") {
                        AggArg::Distinct(self.ident("aggregate column")?)
                    } else {
                        AggArg::Column(self.ident("aggregate column")?)
                    };
                    self.expect(&Token::RParen, "')'")?;
                    return Ok(Expr::Count(arg));
                }
                // Literal keywords.
                if name.eq_ignore_ascii_case("true") {
                    self.pos += 1;
                    return Ok(Expr::Literal(Value::Bool(true)));
                }
                if name.eq_ignore_ascii_case("false") {
                    self.pos += 1;
                    return Ok(Expr::Literal(Value::Bool(false)));
                }
                if name.eq_ignore_ascii_case("null") {
                    self.pos += 1;
                    return Ok(Expr::Literal(Value::Null));
                }
                self.pos += 1;
                Ok(Expr::Column(name))
            }
            other => Err(QueryError::parse(format!(
                "expected expression, found {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_algorithm_5_statement() {
        let s = parse(
            "SELECT data, purpose, authorized FROM practice \
             GROUP BY data, purpose, authorized \
             HAVING COUNT(*) > 5 AND COUNT(DISTINCT user) > 1",
        )
        .unwrap();
        assert_eq!(s.projections.len(), 3);
        assert_eq!(s.from, "practice");
        assert_eq!(s.group_by, vec!["data", "purpose", "authorized"]);
        let having = s.having.unwrap();
        assert!(having.contains_aggregate());
        assert_eq!(
            having.to_string(),
            "(COUNT(*) > 5 AND COUNT(DISTINCT user) > 1)"
        );
    }

    #[test]
    fn parses_star_where_order() {
        let s = parse(
            "SELECT * FROM audit WHERE status = 0 AND user <> 'bob' \
             ORDER BY time DESC, user",
        )
        .unwrap();
        assert!(s.is_star());
        assert!(s.where_clause.is_some());
        assert_eq!(s.order_by.len(), 2);
        assert_eq!(s.order_by[0].1, SortDir::Desc);
        assert_eq!(s.order_by[1].1, SortDir::Asc);
    }

    #[test]
    fn parses_aliases_and_aggregates() {
        let s =
            parse("SELECT data, COUNT(*) AS n, COUNT(DISTINCT user) FROM t GROUP BY data").unwrap();
        assert_eq!(s.projections[1].output_name(), "n");
        assert_eq!(s.projections[2].output_name(), "COUNT(DISTINCT user)");
    }

    #[test]
    fn parses_in_and_is_null() {
        let s = parse(
            "SELECT * FROM t WHERE purpose IN ('billing', 'treatment') \
             AND ward IS NOT NULL AND note IS NULL AND role NOT IN ('clerk')",
        )
        .unwrap();
        let w = s.where_clause.unwrap().to_string();
        assert!(w.contains("purpose IN ('billing', 'treatment')"));
        assert!(w.contains("ward IS NOT NULL"));
        assert!(w.contains("note IS NULL"));
        assert!(w.contains("role NOT IN ('clerk')"));
    }

    #[test]
    fn parses_not_and_parentheses() {
        let s = parse("SELECT * FROM t WHERE NOT (a = 1 OR b = 2)").unwrap();
        let w = s.where_clause.unwrap();
        assert_eq!(w.to_string(), "(NOT (a = 1 OR b = 2))");
    }

    #[test]
    fn precedence_and_binds_tighter_than_or() {
        let s = parse("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3").unwrap();
        assert_eq!(
            s.where_clause.unwrap().to_string(),
            "(a = 1 OR (b = 2 AND c = 3))"
        );
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("SELECT * FROM t ORDER BY a extra").is_err());
    }

    #[test]
    fn rejects_every_aggregate_but_count_with_a_typed_error() {
        for (sql, name) in [
            ("SELECT SUM(*) FROM t", "SUM"),
            (
                "SELECT data FROM t GROUP BY data HAVING min(status) > 0",
                "min",
            ),
            ("SELECT data FROM t ORDER BY Avg(status)", "Avg"),
        ] {
            assert_eq!(
                parse(sql),
                Err(QueryError::UnsupportedAggregate { name: name.into() }),
                "{sql}"
            );
        }
        // A LIMIT clause is not part of the subset either.
        assert!(parse("SELECT * FROM t LIMIT 5").is_err());
    }

    #[test]
    fn rejects_missing_from() {
        assert!(parse("SELECT a, b").is_err());
    }

    #[test]
    fn boolean_and_null_literals() {
        let s = parse("SELECT * FROM t WHERE flag = TRUE AND other = FALSE").unwrap();
        let w = s.where_clause.unwrap().to_string();
        assert!(w.contains("flag = true"));
        assert!(w.contains("other = false"));
    }

    #[test]
    fn aggregate_name_without_parens_is_a_column() {
        let s = parse("SELECT count FROM t").unwrap();
        assert_eq!(s.projections[0].expr, Expr::Column("count".into()));
    }
}
