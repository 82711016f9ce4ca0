//! What one run measured and checked, and the JSON it prints.

use std::fmt::Write as _;
use std::time::Duration;

/// Raw measurements of one quantity, summarized by exact sample
/// statistics (no histogram interpolation).
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, value: f64) {
        self.0.push(value);
    }

    pub fn push_us(&mut self, d: Duration) {
        self.push(d.as_secs_f64() * 1e6);
    }

    pub fn push_ms(&mut self, d: Duration) {
        self.push(d.as_secs_f64() * 1e3);
    }

    pub fn push_s(&mut self, d: Duration) {
        self.push(d.as_secs_f64());
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank quantile: the smallest sample with at least `q` of
    /// the samples at or below it. 0 for an empty set.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = (q * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.sum() / self.0.len() as f64
        }
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }
}

/// One reported figure.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// How many measurements the value summarizes.
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Self {
        Self {
            name,
            unit,
            value,
            samples,
        }
    }
}

/// Operations attempted and failed, by correctness gate.
#[derive(Debug, Default)]
pub struct Checks {
    gates: Vec<(String, u64, u64)>,
}

impl Checks {
    /// Records `attempted` operations of kind `gate`, `failed` of which
    /// errored or produced a wrong result.
    pub fn record(&mut self, gate: &str, attempted: u64, failed: u64) {
        match self.gates.iter_mut().find(|(g, _, _)| g == gate) {
            Some((_, a, f)) => {
                *a += attempted;
                *f += failed;
            }
            None => self.gates.push((gate.to_string(), attempted, failed)),
        }
    }

    /// One operation that either held (`ok`) or did not.
    pub fn expect(&mut self, gate: &str, ok: bool) {
        self.record(gate, 1, u64::from(!ok));
    }

    pub fn attempted(&self) -> u64 {
        self.gates.iter().map(|(_, a, _)| a).sum()
    }

    pub fn failed(&self) -> u64 {
        self.gates.iter().map(|(_, _, f)| f).sum()
    }

    pub fn gates(&self) -> &[(String, u64, u64)] {
        &self.gates
    }
}

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Workload configuration, rendered for the envelope.
    pub config: Vec<(&'static str, String)>,
    pub end_to_end: Vec<Metric>,
    pub layers: Vec<Metric>,
    pub checks: Checks,
}

impl Report {
    pub fn config(&mut self, key: &'static str, value: impl ToString) {
        self.config.push((key, value.to_string()));
    }
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit of the measurement (`null` if the
/// value is not finite).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn metric_list(metrics: &[Metric]) -> String {
    let items: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{{\"name\":{},\"value\":{},\"unit\":{},\"samples\":{}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit),
                m.samples
            )
        })
        .collect();
    format!("[{}]", items.join(","))
}

/// The shared bench envelope `{bench, git_rev, cores, profile, config,
/// layers[], gates{}}`, plus the end-to-end figures of this run.
pub fn envelope(
    bench: &str,
    git_rev: &str,
    cores: usize,
    report: &Report,
    extra_config: &[(&str, String)],
) -> String {
    let config: Vec<String> = extra_config
        .iter()
        .map(|(k, v)| (*k, v))
        .chain(report.config.iter().map(|(k, v)| (*k, v)))
        .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
        .collect();
    let gates: Vec<String> = report
        .checks
        .gates()
        .iter()
        .map(|(g, a, f)| {
            format!(
                "{}:{{\"passed\":{},\"attempted\":{a},\"failed\":{f}}}",
                json_str(g),
                *f == 0
            )
        })
        .collect();
    format!(
        "{{\"bench\":{},\"git_rev\":{},\"cores\":{cores},\"profile\":{},\"config\":{{{}}},\"end_to_end\":{},\"layers\":{},\"gates\":{{{}}}}}",
        json_str(bench),
        json_str(git_rev),
        json_str(if cfg!(debug_assertions) { "debug" } else { "release" }),
        config.join(","),
        metric_list(&report.end_to_end),
        metric_list(&report.layers),
        gates.join(",")
    )
}

/// The one-line result object: `{correct, attempted, failed, metrics}`.
pub fn result_line(report: &Report, metrics: &[Metric]) -> String {
    let items: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    let failed = report.checks.failed();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0,
        report.checks.attempted().max(1),
        items.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut s = Samples::default();
        for v in 1..=100 {
            s.push(f64::from(v));
        }
        assert_eq!(s.median(), 50.0);
        assert_eq!(s.quantile(0.9), 90.0);
        assert_eq!(s.quantile(0.99), 99.0);
        assert_eq!(s.quantile(1.0), 100.0);
        assert_eq!(Samples::default().median(), 0.0);
    }

    #[test]
    fn checks_accumulate_per_gate() {
        let mut c = Checks::default();
        c.record("a", 10, 0);
        c.record("a", 5, 1);
        c.expect("b", true);
        assert_eq!(c.attempted(), 16);
        assert_eq!(c.failed(), 1);
        assert_eq!(c.gates().len(), 2);
    }

    #[test]
    fn json_escapes() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_num(1.5), "1.5");
    }
}
