//! Patient consent (the "patient preferences" Active Enforcement honours).
//!
//! Privacy regulation lets a patient restrict uses of their data beyond
//! what organizational policy allows. The registry records *opt-outs*: a
//! patient withdraws consent for a purpose, optionally narrowed to a data
//! category. Category matching is vocabulary-aware: opting out of
//! `demographic` for `marketing` blocks `address` for `telemarketing`,
//! because the vocabulary subsumes both.

use prima_vocab::{normalize, Vocabulary};
use std::collections::HashMap;

/// One opt-out: a purpose (possibly composite) and an optional data
/// category (possibly composite). `data = None` means "all data".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OptOut {
    /// The purpose being refused (e.g. `marketing`).
    pub purpose: String,
    /// The data category refused, or `None` for every category.
    pub data: Option<String>,
}

/// Per-patient consent state. Patients are consent-by-default (HIPAA's
/// treatment/payment/operations do not require authorization); opt-outs
/// subtract.
#[derive(Debug, Clone, Default)]
pub struct ConsentRegistry {
    by_patient: HashMap<String, Vec<OptOut>>,
}

impl ConsentRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an opt-out for `patient`.
    pub fn opt_out(&mut self, patient: &str, purpose: &str, data: Option<&str>) {
        self.by_patient
            .entry(normalize(patient))
            .or_default()
            .push(OptOut {
                purpose: normalize(purpose),
                data: data.map(normalize),
            });
    }

    /// Number of patients with at least one opt-out.
    pub fn patients_with_opt_outs(&self) -> usize {
        self.by_patient.values().filter(|v| !v.is_empty()).count()
    }

    /// Is `patient` willing to have `data` used for `purpose`?
    ///
    /// An opt-out applies when its purpose subsumes (or equals) the
    /// requested purpose *and* its data scope (if any) subsumes the
    /// requested category.
    pub fn permits(&self, vocab: &Vocabulary, patient: &str, data: &str, purpose: &str) -> bool {
        let Some(opt_outs) = self.by_patient.get(&normalize(patient)) else {
            return true;
        };
        !opt_outs.iter().any(|o| {
            let purpose_hit = vocab.value_subsumes("purpose", &o.purpose, purpose);
            let data_hit = match &o.data {
                None => true,
                Some(d) => vocab.value_subsumes("data", d, data),
            };
            purpose_hit && data_hit
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prima_vocab::samples::figure_1;

    #[test]
    fn default_is_permitted() {
        let r = ConsentRegistry::new();
        let v = figure_1();
        assert!(r.permits(&v, "p1", "address", "billing"));
        assert_eq!(r.patients_with_opt_outs(), 0);
    }

    #[test]
    fn purpose_wide_opt_out() {
        let v = figure_1();
        let mut r = ConsentRegistry::new();
        r.opt_out("p1", "marketing", None);
        // telemarketing is under marketing: blocked for any data.
        assert!(!r.permits(&v, "p1", "address", "telemarketing"));
        assert!(!r.permits(&v, "p1", "psychiatry", "marketing"));
        // Unrelated purpose unaffected; other patients unaffected.
        assert!(r.permits(&v, "p1", "address", "billing"));
        assert!(r.permits(&v, "p2", "address", "telemarketing"));
    }

    #[test]
    fn category_scoped_opt_out_uses_subsumption() {
        let v = figure_1();
        let mut r = ConsentRegistry::new();
        r.opt_out("p1", "research", Some("mental-health"));
        assert!(!r.permits(&v, "p1", "psychiatry", "research"));
        assert!(r.permits(&v, "p1", "prescription", "research"));
    }

    #[test]
    fn patient_names_normalize() {
        let v = figure_1();
        let mut r = ConsentRegistry::new();
        r.opt_out("Patient One", "marketing", None);
        assert!(!r.permits(&v, "patient-one", "address", "telemarketing"));
        assert_eq!(r.patients_with_opt_outs(), 1);
    }
}
