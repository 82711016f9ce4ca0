//! The seeded-defect corpus: every fixture under `fixtures/analyze/`
//! trips exactly the diagnostics it was written to trip, the clean
//! sample trips none, and the refinement-safety gate blocks a
//! privilege-widening candidate end to end.

use prima::analyze::{AnalyzeConfig, Analyzer, SafetyGate};
use prima::audit::export::import_jsonl;
use prima::model::diag::{count_severities, render_json, DiagCode, Diagnostic};
use prima::model::dsl::parse_policy;
use prima::model::{Policy, Rule, StoreTag};
use prima::vocab::samples::figure_1;
use std::io::BufReader;
use std::path::PathBuf;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures/analyze")
        .join(name)
}

fn load(name: &str) -> Policy {
    let text = std::fs::read_to_string(fixture(name)).expect("fixture exists");
    parse_policy(&text).expect("fixture parses")
}

fn codes(diags: &[Diagnostic]) -> Vec<&str> {
    diags.iter().map(|d| d.code.as_str()).collect()
}

#[test]
fn clean_fixture_has_zero_diagnostics() {
    let v = figure_1();
    let diags = Analyzer::new(&v).analyze(&load("clean.dsl"));
    assert!(diags.is_empty(), "no false positives: {diags:?}");
}

#[test]
fn shadowed_fixture_flags_both_narrow_rules() {
    let v = figure_1();
    let diags = Analyzer::new(&v).analyze(&load("shadowed.dsl"));
    let shadowed: Vec<usize> = diags
        .iter()
        .filter(|d| d.code == DiagCode::ShadowedRule)
        .filter_map(|d| d.location.rule_index)
        .collect();
    assert_eq!(shadowed, vec![1, 2], "rules 2 and 3 are shadowed");
    assert!(
        diags.iter().all(|d| d.code == DiagCode::ShadowedRule),
        "nothing but PA001: {diags:?}"
    );
    // Both name the umbrella rule 1, the lowest subsumer, not rule 2 (the
    // identical copy of rule 3).
    for d in &diags {
        assert!(d.message.contains("subsumed by rule 1 "), "{d:?}");
        let witness = d.witness.as_deref().expect("PA001 carries a witness");
        assert!(witness.starts_with("rule 1: "), "{witness}");
        assert!(witness.contains("nurse ⊑ medical-staff"), "{witness}");
        assert!(witness.contains("referral ⊑ medical"), "{witness}");
    }
}

#[test]
fn vacuous_fixture_flags_the_unmatchable_rule() {
    let v = figure_1();
    let diags = Analyzer::new(&v).analyze(&load("vacuous.dsl"));
    let c = codes(&diags);
    assert!(c.contains(&"PA003"), "{c:?}");
    assert!(
        c.contains(&"PA010"),
        "'ward' is not in the vocabulary: {c:?}"
    );
    let vacuous = diags
        .iter()
        .find(|d| d.code == DiagCode::VacuousRule)
        .unwrap();
    assert_eq!(vacuous.location.rule_index, Some(1));
    assert!(vacuous.is_error());
}

#[test]
fn blowup_fixture_trips_under_a_tight_budget() {
    let v = figure_1();
    let policy = load("blowup.dsl");
    // Under the default (generous) budget the grant is acceptable…
    assert!(Analyzer::new(&v).analyze(&policy).is_empty());
    // …under a 10-ground-rule review budget its 30-rule expansion trips.
    let diags = Analyzer::new(&v)
        .with_config(AnalyzeConfig::default().with_budget(10))
        .analyze(&policy);
    assert_eq!(codes(&diags), vec!["PA004"]);
    assert!(diags[0].message.contains("30 ground rules"));
    assert!(diags[0].witness.as_deref().unwrap().contains("×"));
}

#[test]
fn typo_fixture_suggests_the_nearest_concept() {
    let v = figure_1();
    let diags = Analyzer::new(&v).analyze(&load("typo.dsl"));
    let typo = diags
        .iter()
        .find(|d| d.code == DiagCode::UnknownValue)
        .expect("PA011 present");
    assert!(
        typo.message.contains("referral"),
        "suggestion names the nearest concept: {}",
        typo.message
    );
}

#[test]
fn conflicting_fixture_trips_pa002_against_denied_trail() {
    let v = figure_1();
    let policy = load("conflicting.dsl");
    let file = std::fs::File::open(fixture("denied.jsonl")).unwrap();
    let entries = import_jsonl(BufReader::new(file)).unwrap();
    let diags = Analyzer::new(&v).analyze_with_audit(&policy, &entries);
    let conflicts: Vec<&Diagnostic> = diags
        .iter()
        .filter(|d| d.code == DiagCode::CrossPolicyConflict)
        .collect();
    assert_eq!(conflicts.len(), 1, "only the mental-health grant conflicts");
    assert_eq!(conflicts[0].location.rule_index, Some(0));
    assert!(conflicts[0].is_error());
    // The clean fixture stays clean even against the denied trail.
    let clean = Analyzer::new(&v).analyze_with_audit(&load("clean.dsl"), &entries);
    assert!(clean.is_empty(), "{clean:?}");
}

#[test]
fn json_rendering_round_trips_stable_codes() {
    let v = figure_1();
    let diags = Analyzer::new(&v).analyze(&load("vacuous.dsl"));
    let json = render_json(&diags);
    assert!(json.contains("\"PA003\""));
    assert!(json.contains("\"error\""));
    let (errors, _, _) = count_severities(&diags);
    assert!(errors >= 1);
}

/// The acceptance criterion end to end: a refinement round whose mined
/// candidate widens past the safety envelope must reject it with a
/// PA-coded diagnostic and leave the policy untouched.
#[test]
fn refinement_rejects_widening_candidate_with_pa005() {
    use prima::system::{PrimaSystem, ReviewMode};
    let envelope = Policy::with_rules(
        StoreTag::Named("envelope".into()),
        vec![Rule::of(&[
            ("data", "demographic"),
            ("purpose", "billing"),
            ("authorized", "administrative-staff"),
        ])],
    );
    let mut sys = PrimaSystem::new(figure_1(), prima::model::samples::figure_3_policy_store())
        .with_safety_envelope(envelope);
    let store = prima::audit::AuditStore::new("main");
    store
        .append_all(&prima::workload::fixtures::table_1())
        .unwrap();
    sys.attach_store(store).unwrap();

    let record = sys.run_round(ReviewMode::AutoAccept).unwrap();
    assert_eq!(record.rules_added, 0, "widening candidate blocked");
    assert_eq!(sys.policy().cardinality(), 3);
    let diags = sys.last_gate_diagnostics();
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].code, DiagCode::WideningCandidate);
    assert!(diags[0].to_string().contains("PA005"));

    // The same round under a generous envelope reproduces Section 5.
    let envelope = Policy::with_rules(
        StoreTag::Named("envelope".into()),
        vec![Rule::of(&[
            ("data", "medical"),
            ("purpose", "administering-healthcare"),
            ("authorized", "medical-staff"),
        ])],
    );
    let gate = SafetyGate::new(envelope, sys.vocab());
    let candidate = Rule::of(&[
        ("data", "referral"),
        ("purpose", "registration"),
        ("authorized", "nurse"),
    ]);
    assert!(gate.admits(&candidate, sys.vocab()));
}
