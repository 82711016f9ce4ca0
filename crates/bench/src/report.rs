//! The one report every load suite emits.
//!
//! A suite's measurement struct implements [`Measured`]: it names its
//! bench, serializes its configuration and measured fields, and lists
//! its acceptance gates. [`Measured::report`] lowers it into a
//! [`BenchReport`], whose JSON is the envelope `{bench, git_rev, cores,
//! profile, config, figures, gates}` that perfbench emits too.

use prima_obs::PipelineReport;
use serde::{Serialize, Value};
use std::io::Write;
use std::path::Path;

/// A named acceptance check and whether it passed.
pub type Gate = (&'static str, bool);

/// What one suite run measured: its serialized fields are the report's
/// figures.
pub trait Measured: Serialize {
    /// The envelope's `bench` name.
    const BENCH: &'static str;

    /// The configuration the run used.
    fn config(&self) -> Value;

    /// Figures computed from the measured fields, reported after them.
    fn derived(&self) -> Vec<(&'static str, Value)> {
        Vec::new()
    }

    /// The acceptance gates, in report order.
    fn gates(&self) -> Vec<Gate>;

    /// True iff every gate passes.
    fn passed(&self) -> bool {
        self.gates().iter().all(|(_, ok)| *ok)
    }

    /// The shared report of this run.
    fn report(&self) -> BenchReport {
        let mut figures = self.serialize();
        if let Value::Map(fields) = &mut figures {
            fields.extend(self.derived().into_iter().map(|(k, v)| (k.to_string(), v)));
        }
        BenchReport {
            bench: Self::BENCH,
            config: self.config(),
            figures,
            gates: self.gates(),
        }
    }
}

/// A suite's configuration, figures and gates.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Which suite produced the report.
    pub bench: &'static str,
    /// The configuration the run used.
    pub config: Value,
    /// What the run measured.
    pub figures: Value,
    /// The acceptance gates, in report order.
    pub gates: Vec<Gate>,
}

impl BenchReport {
    /// True iff every gate passes.
    pub fn passed(&self) -> bool {
        self.gates.iter().all(|(_, ok)| *ok)
    }

    /// The envelope `{bench, git_rev, cores, profile, config, figures,
    /// gates}`.
    pub fn to_json(&self) -> Value {
        let gates = self
            .gates
            .iter()
            .map(|(name, ok)| (name.to_string(), Value::Bool(*ok)))
            .collect();
        let profile = if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        };
        Value::Map(vec![
            ("bench".into(), Value::Str(self.bench.into())),
            ("git_rev".into(), Value::Str(git_rev())),
            ("cores".into(), Value::U64(cores() as u64)),
            ("profile".into(), Value::Str(profile.into())),
            ("config".into(), self.config.clone()),
            ("figures".into(), self.figures.clone()),
            ("gates".into(), Value::Map(gates)),
        ])
    }

    /// Prints every gate, writes the envelope to `out` (stdout when
    /// `None`), and returns the process exit status: 0 when every gate
    /// passes, 1 otherwise.
    pub fn finish(&self, out: Option<&Path>) -> std::io::Result<u8> {
        for (gate, ok) in &self.gates {
            eprintln!("gate {gate}: {}", if *ok { "pass" } else { "FAIL" });
        }
        let text = serde_json::to_string_pretty(&self.to_json())
            .expect("reports are plain value trees")
            + "\n";
        match out {
            Some(path) => {
                std::fs::write(path, text)?;
                eprintln!("report written to {}", path.display());
            }
            None => std::io::stdout().write_all(text.as_bytes())?,
        }
        Ok(if self.passed() { 0 } else { 1 })
    }
}

/// Cores the host offers (`available_parallelism`).
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit (suffixed `-dirty` when the working tree has
/// changes), or `"unknown"` outside a git checkout.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--abbrev=12"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// A [`PipelineReport`]'s stage profiles as a JSON sequence.
pub fn stage_profiles(report: &PipelineReport) -> Value {
    Value::Seq(
        report
            .stages
            .iter()
            .map(|s| {
                Value::Map(vec![
                    ("stage".into(), Value::Str(s.stage.clone())),
                    ("count".into(), Value::U64(s.count)),
                    ("total_seconds".into(), Value::F64(s.total_seconds)),
                    ("p50_seconds".into(), Value::F64(s.p50_seconds)),
                    ("p95_seconds".into(), Value::F64(s.p95_seconds)),
                    ("max_seconds".into(), Value::F64(s.max_seconds)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Serialize)]
    struct Probe {
        decisions: u64,
        #[serde(skip)]
        ok: bool,
    }

    impl Measured for Probe {
        const BENCH: &'static str = "probe";

        fn config(&self) -> Value {
            Value::Map(vec![("smoke".into(), Value::Bool(true))])
        }

        fn derived(&self) -> Vec<(&'static str, Value)> {
            vec![("hit_rate", Value::F64(0.5))]
        }

        fn gates(&self) -> Vec<Gate> {
            vec![("always", true), ("probe_ok", self.ok)]
        }
    }

    fn field<'a>(value: &'a Value, key: &str) -> &'a Value {
        serde::map_get(value.as_map().expect("a map"), key)
    }

    #[test]
    fn envelope_carries_every_key_and_one_false_gate_fails_the_run() {
        let passing = Probe {
            decisions: 7,
            ok: true,
        };
        assert!(passing.passed() && passing.report().passed());

        let failing = Probe {
            decisions: 7,
            ok: false,
        };
        assert!(!failing.passed());
        let report = failing.report();
        assert!(!report.passed());

        let json = report.to_json();
        let keys: Vec<&str> = json
            .as_map()
            .expect("the envelope is a map")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            ["bench", "git_rev", "cores", "profile", "config", "figures", "gates"]
        );
        assert_eq!(field(&json, "bench").as_str(), Some("probe"));
        assert!(field(&json, "cores").as_u64().is_some_and(|n| n >= 1));
        let figures = field(&json, "figures");
        assert_eq!(field(figures, "decisions").as_u64(), Some(7));
        assert_eq!(field(figures, "hit_rate").as_f64(), Some(0.5));
        assert!(field(figures, "ok").is_null(), "skipped fields stay out");

        // The binary's exit status: 1 on the failing report, 0 otherwise.
        let dir = std::env::temp_dir();
        let path = dir.join(format!("prima-bench-probe-{}.json", std::process::id()));
        assert_eq!(report.finish(Some(&path)).unwrap(), 1);
        let written = serde_json::parse_value(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).unwrap();
        let gates = field(&written, "gates");
        assert_eq!(field(gates, "always").as_bool(), Some(true));
        assert_eq!(field(gates, "probe_ok").as_bool(), Some(false));
        assert_eq!(passing.report().finish(Some(&path)).unwrap(), 0);
        std::fs::remove_file(&path).unwrap();
    }
}
