//! Active Enforcement: policy- and consent-consistent query rewriting.
//!
//! For each requested column, AE asks the formal model whether the policy
//! store sanctions `(data = category(column), purpose, authorized = role)`.
//! It asks the policy's [`CompiledPolicy`], compiled whenever the policy
//! is set: the same subsumption table batch coverage, Prune and the
//! safety gate ask, so policy semantics are identical everywhere.
//! Unsanctioned columns are suppressed (or, under break-the-glass, served
//! and audited as exceptions). Consent is enforced at cell granularity:
//! cells of patients who opted out of the (category, purpose) combination
//! come back NULL.

use crate::consent::ConsentRegistry;
use crate::error::HdbError;
use crate::request::{AccessMode, AccessRequest};
use prima_audit::{AccessStatus, AuditEntry, Op};
use prima_model::{CompiledPolicy, Policy};
use prima_store::{Predicate, Row, Table, Value};
use prima_vocab::{normalize, Vocabulary};
use std::collections::{BTreeSet, HashMap};

/// Maps `(table, column)` to the privacy-vocabulary data category the
/// column carries. Enforcement fails closed on unmapped columns.
#[derive(Debug, Clone, Default)]
pub struct ColumnMap {
    map: HashMap<(String, String), String>,
}

impl ColumnMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Maps `table.column` to `category`.
    pub fn map(&mut self, table: &str, column: &str, category: &str) -> &mut Self {
        self.map
            .insert((table.to_string(), column.to_string()), normalize(category));
        self
    }

    /// The category of `table.column`, if mapped.
    pub fn category_of(&self, table: &str, column: &str) -> Option<&str> {
        self.map
            .get(&(table.to_string(), column.to_string()))
            .map(String::as_str)
    }

    /// Number of mapped columns.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True iff nothing is mapped.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// The outcome of an enforced query.
#[derive(Debug, Clone)]
pub struct EnforcedResult {
    /// Columns actually served, in request order.
    pub columns: Vec<String>,
    /// The served rows (consent-suppressed cells are NULL).
    pub rows: Vec<Row>,
    /// Columns suppressed by policy (empty under break-the-glass).
    pub suppressed_columns: Vec<String>,
    /// Number of cells nulled for lack of consent.
    pub consent_suppressed_cells: usize,
    /// The audit entries this access generated (already appended to the
    /// audit store when executed through the control center).
    pub audit_entries: Vec<AuditEntry>,
    /// True iff the whole request was denied (no columns served). The
    /// result still carries the denial's audit entries so Compliance
    /// Auditing can record the refused attempt.
    pub denied: bool,
}

/// The Active Enforcement middleware.
#[derive(Debug, Clone)]
pub struct ActiveEnforcement {
    policy: Policy,
    /// `policy` compiled under `vocab`; every column decision reads it.
    compiled: CompiledPolicy,
    vocab: Vocabulary,
    columns: ColumnMap,
    consent: ConsentRegistry,
    patient_column: String,
}

impl ActiveEnforcement {
    /// Builds the middleware. `patient_column` names the column holding the
    /// patient identifier in clinical tables (used for consent).
    pub fn new(
        policy: Policy,
        vocab: Vocabulary,
        columns: ColumnMap,
        consent: ConsentRegistry,
        patient_column: &str,
    ) -> Self {
        Self {
            compiled: CompiledPolicy::new(&policy, &vocab),
            policy,
            vocab,
            columns,
            consent,
            patient_column: patient_column.to_string(),
        }
    }

    /// The policy store this middleware enforces.
    pub fn policy(&self) -> &Policy {
        &self.policy
    }

    /// Replaces the enforced policy (the refinement loop does this after
    /// stakeholders accept new rules).
    pub fn set_policy(&mut self, policy: Policy) {
        self.compiled = CompiledPolicy::new(&policy, &self.vocab);
        self.policy = policy;
    }

    /// Mutable access to the column→category map.
    pub fn columns_mut(&mut self) -> &mut ColumnMap {
        &mut self.columns
    }

    /// Mutable access to the consent registry.
    pub fn consent_mut(&mut self) -> &mut ConsentRegistry {
        &mut self.consent
    }

    /// Does the policy store sanction `(category, purpose, role)`? A
    /// blank field fails closed ([`CompiledPolicy::allows`]).
    pub fn policy_allows(&self, category: &str, purpose: &str, role: &str) -> bool {
        self.compiled.allows(category, purpose, role)
    }

    /// Rewrites and executes `request` against `table`, producing served
    /// rows plus the audit entries describing what happened.
    pub fn execute(
        &self,
        table: &Table,
        request: &AccessRequest,
    ) -> Result<EnforcedResult, HdbError> {
        // Resolve columns and their categories (fail closed on unmapped).
        let mut categories: Vec<String> = Vec::with_capacity(request.columns.len());
        for c in &request.columns {
            if table.schema().index_of(c).is_none() {
                return Err(HdbError::UnknownColumn { column: c.clone() });
            }
            let cat = self
                .columns
                .category_of(&request.table, c)
                .ok_or_else(|| HdbError::UnmappedColumn { column: c.clone() })?;
            categories.push(cat.to_string());
        }

        // Column-level policy decisions.
        let mut served: Vec<(String, String)> = Vec::new(); // (column, category)
        let mut suppressed: Vec<(String, String)> = Vec::new();
        for (col, cat) in request.columns.iter().zip(&categories) {
            if self.policy_allows(cat, &request.purpose, &request.role) {
                served.push((col.clone(), cat.clone()));
            } else {
                suppressed.push((col.clone(), cat.clone()));
            }
        }

        let status = match request.mode {
            AccessMode::Chosen => AccessStatus::Regular,
            AccessMode::BreakTheGlass => AccessStatus::Exception,
        };

        // Break-the-glass: serve everything, audit as exception. The entry
        // is an exception even for columns policy would have allowed — the
        // user bypassed the purpose-selection flow entirely (Section 4.2).
        if request.mode == AccessMode::BreakTheGlass {
            served = request
                .columns
                .iter()
                .cloned()
                .zip(categories.iter().cloned())
                .collect();
            suppressed.clear();
        }

        let mut audit_entries = Vec::new();
        let served_cats: BTreeSet<&str> = served.iter().map(|(_, c)| c.as_str()).collect();
        let suppressed_cats: BTreeSet<&str> = suppressed.iter().map(|(_, c)| c.as_str()).collect();
        for cat in &served_cats {
            audit_entries.push(AuditEntry {
                time: request.time,
                op: Op::Allow,
                user: request.user.clone(),
                data: cat.to_string(),
                purpose: request.purpose.clone(),
                authorized: request.role.clone(),
                status,
            });
        }
        for cat in &suppressed_cats {
            audit_entries.push(AuditEntry {
                time: request.time,
                op: Op::Disallow,
                user: request.user.clone(),
                data: cat.to_string(),
                purpose: request.purpose.clone(),
                authorized: request.role.clone(),
                status: AccessStatus::Regular,
            });
        }

        if served.is_empty() {
            // Fully denied: no rows, but the attempt is still auditable.
            return Ok(EnforcedResult {
                columns: Vec::new(),
                rows: Vec::new(),
                suppressed_columns: suppressed.into_iter().map(|(c, _)| c).collect(),
                consent_suppressed_cells: 0,
                audit_entries,
                denied: true,
            });
        }

        // Row selection: the user's own filter.
        let filter = request.filter.clone().unwrap_or(Predicate::True);
        filter.validate(table.schema()).map_err(HdbError::from)?;

        // Consent needs the patient id per row.
        let need_consent = self.consent.patients_with_opt_outs() > 0;
        let patient_idx = table.schema().index_of(&self.patient_column);
        if need_consent && patient_idx.is_none() {
            return Err(HdbError::MissingPatientColumn {
                column: self.patient_column.clone(),
            });
        }

        let served_indices: Vec<usize> = served
            .iter()
            .map(|(c, _)| table.schema().index_of(c).expect("validated above"))
            .collect();

        let mut rows = Vec::new();
        let mut consent_suppressed_cells = 0usize;
        for row in table.scan() {
            if !filter.matches(table.schema(), row) {
                continue;
            }
            let mut out = Vec::with_capacity(served.len());
            let patient: Option<String> =
                patient_idx.and_then(|i| row.get(i).as_str().map(str::to_string));
            for (slot, (_, cat)) in served_indices.iter().zip(&served) {
                let mut v = row.get(*slot).clone();
                if need_consent {
                    if let Some(p) = &patient {
                        if !self.consent.permits(&self.vocab, p, cat, &request.purpose) {
                            v = Value::Null;
                            consent_suppressed_cells += 1;
                        }
                    }
                }
                out.push(v);
            }
            rows.push(Row::new(out));
        }

        Ok(EnforcedResult {
            columns: served.into_iter().map(|(c, _)| c).collect(),
            rows,
            suppressed_columns: suppressed.into_iter().map(|(c, _)| c).collect(),
            consent_suppressed_cells,
            audit_entries,
            denied: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prima_model::{Rule, StoreTag};
    use prima_store::{Column, DataType, Schema};
    use prima_vocab::samples::figure_1;

    fn encounters() -> Table {
        let schema = Schema::new(vec![
            Column::required("patient", DataType::Str),
            Column::required("referral", DataType::Str),
            Column::required("psychiatry", DataType::Str),
            Column::required("address", DataType::Str),
        ])
        .unwrap();
        let mut t = Table::new("encounters", schema);
        for (p, r, psy, a) in [
            ("p1", "cardiology-referral", "notes-1", "12 oak st"),
            ("p2", "renal-referral", "notes-2", "3 elm ave"),
        ] {
            t.insert(Row::new(vec![
                Value::str(p),
                Value::str(r),
                Value::str(psy),
                Value::str(a),
            ]))
            .unwrap();
        }
        t
    }

    fn column_map() -> ColumnMap {
        let mut m = ColumnMap::new();
        m.map("encounters", "patient", "name")
            .map("encounters", "referral", "referral")
            .map("encounters", "psychiatry", "psychiatry")
            .map("encounters", "address", "address");
        m
    }

    fn ae(consent: ConsentRegistry) -> ActiveEnforcement {
        let policy = Policy::with_rules(
            StoreTag::PolicyStore,
            vec![
                Rule::of(&[
                    ("data", "general-care"),
                    ("purpose", "treatment"),
                    ("authorized", "nurse"),
                ]),
                Rule::of(&[
                    ("data", "demographic"),
                    ("purpose", "billing"),
                    ("authorized", "clerk"),
                ]),
            ],
        );
        ActiveEnforcement::new(policy, figure_1(), column_map(), consent, "patient")
    }

    #[test]
    fn allowed_request_is_served_and_audited_regular() {
        let ae = ae(ConsentRegistry::new());
        let t = encounters();
        let req =
            AccessRequest::chosen(10, "tim", "nurse", "treatment", "encounters", &["referral"]);
        let res = ae.execute(&t, &req).unwrap();
        assert_eq!(res.columns, vec!["referral"]);
        assert_eq!(res.rows.len(), 2);
        assert!(res.suppressed_columns.is_empty());
        assert_eq!(res.audit_entries.len(), 1);
        let e = &res.audit_entries[0];
        assert_eq!(e.op, Op::Allow);
        assert_eq!(e.status, AccessStatus::Regular);
        assert_eq!(e.data, "referral");
    }

    #[test]
    fn partially_denied_request_suppresses_columns() {
        let ae = ae(ConsentRegistry::new());
        let t = encounters();
        let req = AccessRequest::chosen(
            11,
            "tim",
            "nurse",
            "treatment",
            "encounters",
            &["referral", "psychiatry"],
        );
        let res = ae.execute(&t, &req).unwrap();
        assert_eq!(res.columns, vec!["referral"]);
        assert_eq!(res.suppressed_columns, vec!["psychiatry"]);
        // One Allow entry + one Disallow entry.
        assert_eq!(res.audit_entries.len(), 2);
        assert!(res
            .audit_entries
            .iter()
            .any(|e| e.op == Op::Disallow && e.data == "psychiatry"));
    }

    #[test]
    fn fully_denied_chosen_request_returns_denied_result() {
        let ae = ae(ConsentRegistry::new());
        let t = encounters();
        let req =
            AccessRequest::chosen(12, "bill", "clerk", "billing", "encounters", &["referral"]);
        let res = ae.execute(&t, &req).unwrap();
        assert!(res.denied);
        assert!(res.rows.is_empty() && res.columns.is_empty());
        assert_eq!(res.audit_entries.len(), 1);
        assert_eq!(res.audit_entries[0].op, Op::Disallow);
    }

    #[test]
    fn break_the_glass_serves_everything_as_exception() {
        let ae = ae(ConsentRegistry::new());
        let t = encounters();
        let req = AccessRequest::break_the_glass(
            13,
            "mark",
            "nurse",
            "registration",
            "encounters",
            &["referral", "psychiatry"],
        );
        let res = ae.execute(&t, &req).unwrap();
        assert_eq!(res.columns, vec!["referral", "psychiatry"]);
        assert!(res.suppressed_columns.is_empty());
        assert_eq!(res.audit_entries.len(), 2);
        assert!(res
            .audit_entries
            .iter()
            .all(|e| e.status == AccessStatus::Exception && e.op == Op::Allow));
    }

    #[test]
    fn consent_nulls_cells_of_refusing_patients() {
        let mut consent = ConsentRegistry::new();
        consent.opt_out("p2", "treatment", Some("general-care"));
        let ae = ae(consent);
        let t = encounters();
        let req =
            AccessRequest::chosen(14, "tim", "nurse", "treatment", "encounters", &["referral"]);
        let res = ae.execute(&t, &req).unwrap();
        assert_eq!(res.consent_suppressed_cells, 1);
        assert_eq!(res.rows[0].get(0), &Value::str("cardiology-referral"));
        assert_eq!(res.rows[1].get(0), &Value::Null);
    }

    #[test]
    fn row_filter_is_conjoined() {
        let ae = ae(ConsentRegistry::new());
        let t = encounters();
        let req =
            AccessRequest::chosen(15, "tim", "nurse", "treatment", "encounters", &["referral"])
                .with_filter(Predicate::eq("patient", Value::str("p1")));
        let res = ae.execute(&t, &req).unwrap();
        assert_eq!(res.rows.len(), 1);
    }

    #[test]
    fn unmapped_and_unknown_columns_fail_closed() {
        let ae = ActiveEnforcement::new(
            Policy::new(StoreTag::PolicyStore),
            figure_1(),
            ColumnMap::new(),
            ConsentRegistry::new(),
            "patient",
        );
        let t = encounters();
        let req = AccessRequest::chosen(16, "u", "nurse", "treatment", "encounters", &["referral"]);
        assert!(matches!(
            ae.execute(&t, &req),
            Err(HdbError::UnmappedColumn { .. })
        ));
        let req2 = AccessRequest::chosen(17, "u", "nurse", "treatment", "encounters", &["ghost"]);
        assert!(matches!(
            ae.execute(&t, &req2),
            Err(HdbError::UnknownColumn { .. })
        ));
    }

    #[test]
    fn missing_patient_column_with_active_consent_errors() {
        let mut consent = ConsentRegistry::new();
        consent.opt_out("p1", "treatment", None);
        let mut map = ColumnMap::new();
        map.map("bare", "referral", "referral");
        let policy = Policy::with_rules(
            StoreTag::PolicyStore,
            vec![Rule::of(&[
                ("data", "referral"),
                ("purpose", "treatment"),
                ("authorized", "nurse"),
            ])],
        );
        let ae = ActiveEnforcement::new(policy, figure_1(), map, consent, "patient");
        let schema = Schema::new(vec![Column::required("referral", DataType::Str)]).unwrap();
        let mut t = Table::new("bare", schema);
        t.insert(Row::new(vec![Value::str("x")])).unwrap();
        let req = AccessRequest::chosen(18, "u", "nurse", "treatment", "bare", &["referral"]);
        assert!(matches!(
            ae.execute(&t, &req),
            Err(HdbError::MissingPatientColumn { .. })
        ));
    }

    #[test]
    fn policy_allows_uses_subsumption() {
        let ae = ae(ConsentRegistry::new());
        assert!(ae.policy_allows("referral", "treatment", "nurse"));
        assert!(ae.policy_allows("prescription", "treatment", "nurse"));
        assert!(!ae.policy_allows("psychiatry", "treatment", "nurse"));
        assert!(ae.policy_allows("address", "billing", "clerk"));
        assert!(!ae.policy_allows("address", "billing", "nurse"));
    }

    #[test]
    fn set_policy_changes_decisions() {
        let mut ae = ae(ConsentRegistry::new());
        assert!(!ae.policy_allows("referral", "registration", "nurse"));
        let mut p = ae.policy().clone();
        p.push(Rule::of(&[
            ("data", "referral"),
            ("purpose", "registration"),
            ("authorized", "nurse"),
        ]));
        ae.set_policy(p);
        assert!(ae.policy_allows("referral", "registration", "nurse"));
    }

    #[test]
    fn blank_field_fails_closed_even_against_an_invalid_rule() {
        let mut ae = ae(ConsentRegistry::new());
        let mut p = ae.policy().clone();
        p.push(Rule::of(&[
            ("data", "referral"),
            ("purpose", "invalid"),
            ("authorized", "nurse"),
        ]));
        ae.set_policy(p);
        assert!(ae.policy_allows("referral", "invalid", "nurse"));
        assert!(!ae.policy_allows("referral", "   ", "nurse"));
        assert!(!ae.policy_allows("", "treatment", "nurse"));
        assert!(!ae.policy_allows("referral", "treatment", ""));
    }
}
