//! The paper's data-analysis miner (Algorithms 4 and 5).
//!
//! Algorithm 5 builds and executes
//!
//! ```sql
//! SELECT Attr_1, …, Attr_n FROM <practice>
//! GROUP BY Attr_1, …, Attr_n
//! HAVING COUNT(*) >= f AND <condition>
//! ```
//!
//! One fidelity note: Algorithm 5's pseudocode writes `COUNT(*) > f`, but
//! the Section 5 walkthrough sets `f = 5` and accepts the pattern that
//! occurs exactly 5 times (entries t3, t7–t10) — so the intended semantics
//! is *at least* `f` ("returns those tuples … that occur at least 5
//! times"). We implement `>= f` and record the discrepancy in
//! `EXPERIMENTS.md` §E3.

use crate::error::MiningError;
use crate::pattern::{sort_patterns, Pattern};
use crate::Miner;
use prima_audit::schema::{COL_USER, PATTERN_ATTRIBUTES};
use prima_audit::Tally;
use prima_model::{GroundRule, RuleTerm};
use prima_store::{Table, Value};
use std::collections::{HashMap, HashSet};

/// Configuration of the SQL group-by miner — the `(A, f, c)` triple of
/// Algorithm 4.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinerConfig {
    /// The attribute subset `A` to group on (defaults to
    /// `data, purpose, authorized`).
    pub attributes: Vec<String>,
    /// The frequency threshold `f` (default 5, per Algorithm 4).
    pub min_frequency: usize,
    /// The condition `c`: require `COUNT(DISTINCT user) > min_distinct_users`
    /// (default 1, per Algorithm 4's
    /// `COUNT(DISTINCT(User)) > 1`).
    pub min_distinct_users: usize,
    /// The column holding the requesting user (for the distinct-user
    /// condition).
    pub user_column: String,
}

impl Default for MinerConfig {
    fn default() -> Self {
        Self {
            attributes: vec!["data".into(), "purpose".into(), "authorized".into()],
            min_frequency: 5,
            min_distinct_users: 1,
            user_column: "user".into(),
        }
    }
}

/// The SQL group-by miner.
#[derive(Debug, Clone, Default)]
pub struct SqlMiner {
    config: MinerConfig,
}

impl SqlMiner {
    /// Creates a miner with the given configuration.
    pub fn new(config: MinerConfig) -> Self {
        Self { config }
    }

    /// The miner's configuration.
    pub fn config(&self) -> &MinerConfig {
        &self.config
    }

    /// The SQL statement Algorithm 5 constructs for `practice_table`.
    pub fn statement(&self, practice_table: &str) -> String {
        let attrs = self.config.attributes.join(", ");
        format!(
            "SELECT {attrs}, COUNT(*) AS support, COUNT(DISTINCT {user}) AS users \
             FROM {practice_table} \
             GROUP BY {attrs} \
             HAVING COUNT(*) >= {f} AND COUNT(DISTINCT {user}) > {c} \
             ORDER BY support DESC",
            user = self.config.user_column,
            f = self.config.min_frequency,
            c = self.config.min_distinct_users,
        )
    }

    fn validate(&self, practice: &Table) -> Result<(), MiningError> {
        if self.config.attributes.is_empty() {
            return Err(MiningError::Config {
                message: "attribute subset must be non-empty".into(),
            });
        }
        for a in &self.config.attributes {
            if practice.schema().index_of(a).is_none() {
                return Err(MiningError::MissingAttribute {
                    attribute: a.clone(),
                });
            }
        }
        if practice
            .schema()
            .index_of(&self.config.user_column)
            .is_none()
        {
            return Err(MiningError::MissingAttribute {
                attribute: self.config.user_column.clone(),
            });
        }
        Ok(())
    }
}

impl SqlMiner {
    /// Algorithm 5's `(A, f, c)` as a hash group-by over a [`Tally`]: the
    /// same patterns [`Miner::mine`] returns for the tally's practice
    /// entries, in the same order.
    ///
    /// The tally is keyed by the *raw* logged strings, exactly what the
    /// SQL groups on, so case variants stay separate groups here too; a
    /// group's `COUNT(DISTINCT user)` counts user names across every
    /// source the tally merged. The group-by reads only the columns a
    /// tally keeps: an attribute outside `data`, `purpose` and
    /// `authorized`, or a user column other than `user`, is refused with
    /// [`MiningError::MissingAttribute`].
    pub fn mine_tally(&self, tally: &Tally) -> Result<Vec<Pattern>, MiningError> {
        if self.config.attributes.is_empty() {
            return Err(MiningError::Config {
                message: "attribute subset must be non-empty".into(),
            });
        }
        let columns = self
            .config
            .attributes
            .iter()
            .map(|a| {
                // The order of `prima_audit::Group::raw`.
                PATTERN_ATTRIBUTES
                    .iter()
                    .position(|c| c == a)
                    .ok_or_else(|| MiningError::MissingAttribute {
                        attribute: a.clone(),
                    })
            })
            .collect::<Result<Vec<usize>, _>>()?;
        if self.config.user_column != COL_USER {
            return Err(MiningError::MissingAttribute {
                attribute: self.config.user_column.clone(),
            });
        }

        // GROUP BY the projected raw strings; COUNT(*) sums the groups'
        // practice counts. Tally groups are distinct raw triples, so a
        // projection onto all three attributes keeps each its own row.
        let whole_triple = PATTERN_ATTRIBUTES
            .iter()
            .all(|a| self.config.attributes.iter().any(|b| b == a));
        let mut keys: HashMap<Vec<&str>, usize> = HashMap::new();
        let mut support: Vec<usize> = Vec::new();
        let mut rows: Vec<Vec<&str>> = Vec::new();
        let mut row_of_group = vec![usize::MAX; tally.groups().len()];
        for (group, g) in tally.groups().iter().enumerate() {
            if g.practice == 0 {
                continue;
            }
            let key: Vec<&str> = columns.iter().map(|&c| &*g.raw[c]).collect();
            let found = if whole_triple {
                None
            } else {
                keys.get(&key).copied()
            };
            let row = match found {
                Some(row) => row,
                None => {
                    if !whole_triple {
                        keys.insert(key.clone(), rows.len());
                    }
                    rows.push(key);
                    support.push(0);
                    rows.len() - 1
                }
            };
            support[row] += g.practice;
            row_of_group[group] = row;
        }
        // COUNT(DISTINCT user): the tally's (group, user) pairs are
        // distinct, but a narrower projection can fold groups into a row.
        let mut users = vec![0usize; rows.len()];
        let mut seen: HashSet<(usize, u32)> = HashSet::new();
        for &(group, user) in tally.practice_users() {
            let row = row_of_group[group as usize];
            if whole_triple || seen.insert((row, user)) {
                users[row] += 1;
            }
        }

        let mut patterns = Vec::new();
        for ((values, support), users) in rows.iter().zip(support).zip(users) {
            if support < self.config.min_frequency || users <= self.config.min_distinct_users {
                continue;
            }
            let terms = self
                .config
                .attributes
                .iter()
                .zip(values)
                .map(|(attr, value)| RuleTerm::new(attr, value))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| MiningError::Malformed {
                    message: e.to_string(),
                })?;
            let rule = GroundRule::new(terms).map_err(|e| MiningError::Malformed {
                message: e.to_string(),
            })?;
            patterns.push(Pattern::new(rule, support, users));
        }
        sort_patterns(&mut patterns);
        Ok(patterns)
    }
}

impl Miner for SqlMiner {
    fn mine(&self, practice: &Table) -> Result<Vec<Pattern>, MiningError> {
        self.validate(practice)?;
        let sql = self.statement(practice.name());
        let result = prima_query::execute(practice, &sql)?;
        let n_attrs = self.config.attributes.len();
        let mut patterns = Vec::with_capacity(result.len());
        for row in &result.rows {
            let mut terms = Vec::with_capacity(n_attrs);
            for (i, attr) in self.config.attributes.iter().enumerate() {
                let value = match row.get(i) {
                    Value::Str(s) => s.clone(),
                    other => other.to_string(),
                };
                terms.push(
                    RuleTerm::new(attr, &value).map_err(|e| MiningError::Malformed {
                        message: e.to_string(),
                    })?,
                );
            }
            let rule = GroundRule::new(terms).map_err(|e| MiningError::Malformed {
                message: e.to_string(),
            })?;
            let support = row.get(n_attrs).as_int().unwrap_or(0) as usize;
            let users = row.get(n_attrs + 1).as_int().unwrap_or(0) as usize;
            patterns.push(Pattern::new(rule, support, users));
        }
        sort_patterns(&mut patterns);
        Ok(patterns)
    }

    fn describe(&self) -> String {
        format!(
            "sql-miner(A=[{}], f={}, c=COUNT(DISTINCT {})>{})",
            self.config.attributes.join(","),
            self.config.min_frequency,
            self.config.user_column,
            self.config.min_distinct_users
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prima_audit::{audit_schema, AuditEntry};
    use prima_store::Table;

    /// The Practice array of the Section 5 use case: Table 1's exception
    /// entries t3, t4, t6, t7, t8, t9, t10.
    fn practice() -> Table {
        let mut t = Table::new("practice", audit_schema());
        let entries = vec![
            AuditEntry::exception(3, "Mark", "Referral", "Registration", "Nurse"),
            AuditEntry::exception(4, "Sarah", "Psychiatry", "Treatment", "Doctor"),
            AuditEntry::exception(6, "Jason", "Prescription", "Billing", "Clerk"),
            AuditEntry::exception(7, "Mark", "Referral", "Registration", "Nurse"),
            AuditEntry::exception(8, "Tim", "Referral", "Registration", "Nurse"),
            AuditEntry::exception(9, "Bob", "Referral", "Registration", "Nurse"),
            AuditEntry::exception(10, "Mark", "Referral", "Registration", "Nurse"),
        ];
        for e in &entries {
            t.insert(e.to_row()).unwrap();
        }
        t
    }

    #[test]
    fn section_5_use_case_mines_the_single_pattern() {
        let miner = SqlMiner::default();
        let patterns = miner.mine(&practice()).unwrap();
        assert_eq!(patterns.len(), 1, "exactly one pattern passes f=5");
        let p = &patterns[0];
        assert_eq!(
            p.compact(&["data", "purpose", "authorized"]),
            "referral:registration:nurse"
        );
        assert_eq!(p.support, 5, "tuples t3 and t7-t10");
        assert_eq!(p.distinct_users, 3, "Mark, Tim, Bob");
    }

    #[test]
    fn statement_shape_matches_algorithm_5() {
        let miner = SqlMiner::default();
        let sql = miner.statement("practice");
        assert!(sql.contains("GROUP BY data, purpose, authorized"));
        assert!(sql.contains("HAVING COUNT(*) >= 5"));
        assert!(sql.contains("COUNT(DISTINCT user) > 1"));
    }

    #[test]
    fn distinct_user_condition_filters_single_user_habits() {
        let mut t = Table::new("practice", audit_schema());
        // One user hammering the same access 10 times.
        for i in 0..10 {
            t.insert(
                AuditEntry::exception(i, "solo", "referral", "registration", "nurse").to_row(),
            )
            .unwrap();
        }
        let patterns = SqlMiner::default().mine(&t).unwrap();
        assert!(
            patterns.is_empty(),
            "COUNT(DISTINCT user) > 1 must reject one person's habit"
        );
    }

    #[test]
    fn lower_threshold_surfaces_more_patterns() {
        let config = MinerConfig {
            min_frequency: 1,
            min_distinct_users: 0,
            ..MinerConfig::default()
        };
        let patterns = SqlMiner::new(config).mine(&practice()).unwrap();
        assert_eq!(patterns.len(), 3);
        // Sorted by support descending.
        assert!(patterns[0].support >= patterns[1].support);
    }

    #[test]
    fn narrower_attribute_subset() {
        let config = MinerConfig {
            attributes: vec!["data".into(), "purpose".into()],
            min_frequency: 5,
            min_distinct_users: 1,
            ..MinerConfig::default()
        };
        let patterns = SqlMiner::new(config).mine(&practice()).unwrap();
        assert_eq!(patterns.len(), 1);
        assert_eq!(
            patterns[0].compact(&["data", "purpose"]),
            "referral:registration"
        );
    }

    #[test]
    fn missing_columns_are_rejected() {
        let t = Table::new(
            "practice",
            prima_store::Schema::new(vec![prima_store::Column::required(
                "data",
                prima_store::DataType::Str,
            )])
            .unwrap(),
        );
        let err = SqlMiner::default().mine(&t).unwrap_err();
        assert!(matches!(err, MiningError::MissingAttribute { .. }));
    }

    #[test]
    fn empty_attribute_set_is_config_error() {
        let config = MinerConfig {
            attributes: vec![],
            ..MinerConfig::default()
        };
        let err = SqlMiner::new(config).mine(&practice()).unwrap_err();
        assert!(matches!(err, MiningError::Config { .. }));
    }

    fn tally(entries: &[AuditEntry]) -> Tally {
        Tally::of_entries(entries, None).unwrap()
    }

    fn practice_entries() -> Vec<AuditEntry> {
        vec![
            AuditEntry::exception(3, "Mark", "Referral", "Registration", "Nurse"),
            AuditEntry::exception(4, "Sarah", "Psychiatry", "Treatment", "Doctor"),
            AuditEntry::exception(6, "Jason", "Prescription", "Billing", "Clerk"),
            AuditEntry::exception(7, "Mark", "Referral", "Registration", "Nurse"),
            AuditEntry::exception(8, "Tim", "Referral", "Registration", "Nurse"),
            AuditEntry::exception(9, "Bob", "Referral", "Registration", "Nurse"),
            AuditEntry::exception(10, "Mark", "Referral", "Registration", "Nurse"),
        ]
    }

    #[test]
    fn group_by_over_a_tally_equals_the_sql() {
        let tally = tally(&practice_entries());
        for config in [
            MinerConfig::default(),
            MinerConfig {
                min_frequency: 1,
                min_distinct_users: 0,
                ..MinerConfig::default()
            },
            MinerConfig {
                attributes: vec!["authorized".into(), "data".into()],
                min_frequency: 1,
                min_distinct_users: 0,
                ..MinerConfig::default()
            },
        ] {
            let miner = SqlMiner::new(config);
            assert_eq!(
                miner.mine_tally(&tally).unwrap(),
                miner.mine(&practice()).unwrap()
            );
        }
    }

    #[test]
    fn group_by_keeps_case_variants_apart_like_the_sql() {
        let mut entries = practice_entries();
        for (t, user) in [(11, "Ann"), (12, "Eve"), (13, "Ann")] {
            entries.push(AuditEntry::exception(
                t,
                user,
                "referral",
                "registration",
                "nurse",
            ));
        }
        let mut table = Table::new("practice", audit_schema());
        for e in &entries {
            table.insert(e.to_row()).unwrap();
        }
        let miner = SqlMiner::new(MinerConfig {
            min_frequency: 2,
            ..MinerConfig::default()
        });
        let patterns = miner.mine_tally(&tally(&entries)).unwrap();
        assert_eq!(patterns, miner.mine(&table).unwrap());
        let supports: Vec<usize> = patterns.iter().map(|p| p.support).collect();
        assert_eq!(supports, vec![5, 3], "two groups for one normalized rule");
    }

    #[test]
    fn group_by_refuses_columns_a_tally_does_not_keep() {
        let tally = tally(&practice_entries());
        let time = SqlMiner::new(MinerConfig {
            attributes: vec!["data".into(), "time".into()],
            ..MinerConfig::default()
        });
        assert_eq!(
            time.mine_tally(&tally).unwrap_err(),
            MiningError::MissingAttribute {
                attribute: "time".into()
            }
        );
        let who = SqlMiner::new(MinerConfig {
            user_column: "who".into(),
            ..MinerConfig::default()
        });
        assert!(matches!(
            who.mine_tally(&tally),
            Err(MiningError::MissingAttribute { attribute }) if attribute == "who"
        ));
        let empty = SqlMiner::new(MinerConfig {
            attributes: vec![],
            ..MinerConfig::default()
        });
        assert!(matches!(
            empty.mine_tally(&tally),
            Err(MiningError::Config { .. })
        ));
    }

    #[test]
    fn describe_mentions_parameters() {
        let d = SqlMiner::default().describe();
        assert!(d.contains("f=5"));
        assert!(d.contains("data,purpose,authorized"));
    }
}
