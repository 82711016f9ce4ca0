//! Tree records — the cost of parsing a hierarchical patient record and
//! redacting it for one request, as the record grows.
//!
//! The record holds `regions` clinical records, each with eight referral
//! leaves and a mental-health subtree. Every record's mental-health
//! subtree maps to `psychiatry` and the rest to `general-care`. The
//! policy sanctions `general-care : treatment : nurse`, so the nurse's
//! treatment view must serve `general-care` and redact `psychiatry`;
//! the binary asserts both before it prints a timing.

use prima_bench::{banner, render_table, timed};
use prima_hier::enforce::TreeAccessMode;
use prima_hier::{Document, PathCategoryMap, TreeEnforcement};
use prima_model::{Policy, Rule, StoreTag};
use prima_vocab::samples::figure_1;

/// Repetitions per timed operation; the table reports the mean.
const REPS: u32 = 200;

fn record(regions: usize) -> Document {
    let mut d = Document::new("patient");
    for i in 0..regions {
        let rec = d.add_child(d.root(), &format!("record-{i}"));
        for l in 0..8 {
            d.add_text_child(rec, &format!("referral-{l}"), "lorem ipsum dolor sit amet");
        }
        let mh = d.add_child(rec, "mental-health");
        d.add_text_child(mh, "psychiatry", "session notes, long-form");
    }
    d
}

fn enforcement(regions: usize) -> TreeEnforcement {
    let mut m = PathCategoryMap::new();
    for i in 0..regions {
        m.map(
            &format!("/patient/record-{i}/mental-health/**"),
            "psychiatry",
        )
        .and_then(|m| m.map(&format!("/patient/record-{i}/**"), "general-care"))
        .expect("valid patterns");
    }
    let policy = Policy::with_rules(
        StoreTag::PolicyStore,
        vec![Rule::of(&[
            ("data", "general-care"),
            ("purpose", "treatment"),
            ("authorized", "nurse"),
        ])],
    );
    TreeEnforcement::new(policy, figure_1(), m)
}

/// Mean microseconds of `REPS` runs of `f`.
fn mean_us<T>(mut f: impl FnMut() -> T) -> f64 {
    let (_, ms) = timed(|| {
        for _ in 0..REPS {
            std::hint::black_box(f());
        }
    });
    ms * 1e3 / f64::from(REPS)
}

fn main() {
    banner("Tree records: XML parsing and subtree redaction");
    let mut rows = Vec::new();
    for regions in [10usize, 100] {
        let doc = record(regions);
        let xml = doc.to_xml();
        assert_eq!(Document::parse_xml(&xml).expect("own output parses"), doc);

        let e = enforcement(regions);
        let view = || e.enforce(&doc, 1, "tim", "nurse", "treatment", TreeAccessMode::Chosen);
        let outcome = view();
        assert_eq!(outcome.served_categories, ["general-care"]);
        assert_eq!(outcome.redacted_categories, ["psychiatry"]);

        rows.push(vec![
            regions.to_string(),
            doc.len().to_string(),
            xml.len().to_string(),
            format!("{:.1}", mean_us(|| Document::parse_xml(&xml))),
            format!("{:.1}", mean_us(view)),
            outcome.redacted_nodes.to_string(),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "regions",
                "nodes",
                "xml bytes",
                "parse-xml (µs)",
                "redact (µs)",
                "redacted nodes"
            ],
            &rows
        )
    );
    println!(
        "shape: parsing is linear in the record; redaction walks each node's path down \
         the map's pattern trie, so it tries only the patterns that can match and grows \
         with the nodes, although this map holds two patterns per region. The nurse's \
         treatment view serves general-care and redacts every psychiatry subtree."
    );
}
