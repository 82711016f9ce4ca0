//! PRIMA's benchmark: four workloads over the public system APIs, each
//! reporting end-to-end figures (untraced) or per-layer figures from
//! spans recorded around every call into a layer (traced).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload round-300k --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object
//! `{correct, attempted, failed, metrics}`; the line before it is the
//! shared bench envelope `{bench, git_rev, cores, profile, config,
//! layers[], gates{}}`. Any failed correctness check makes the exit code
//! non-zero.

mod report;
mod round;
mod serve;
mod stream;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use prima_audit::AuditStore;
use prima_core::{PrimaSystem, ReviewMode};
use prima_model::compute_coverage;
use prima_model::samples::{figure_3_audit_policy, figure_3_policy_store};
use prima_vocab::samples::figure_1;
use prima_workload::fixtures::table_1;

use report::{envelope, peak_rss_mb, result_line, Metric, Report, Samples};
use trace::Tracer;

/// The seed figures are tuned and compared on.
const DEFAULT_SEED: u64 = 1;
/// A seed kept out of tuning, for confirming a claimed gain.
const HELD_OUT_SEED: u64 = 20_070_923;

const WORKLOADS: [&str; 4] = ["round-300k", "stream-2m", "serve-zipf", "serve-republish"];

/// End-to-end figures printed (human-readable lines and envelope) but
/// left out of the result line. On a shared two-vCPU machine one call's
/// p99 moves by more than any regression bound from run to run, while
/// its p90 holds, so `call_us_p90` is the tail a change is judged by.
const PRINTED_ONLY: [&str; 1] = ["call_us_p99"];

/// Every per-layer figure, in report order. A traced run reports all of
/// them; a layer off the workload's path did no work there and reads 0.
const PER_LAYER: [(&str, &str); 32] = [
    ("audit.consolidate_s", "s"),
    ("model.ground_s", "s"),
    ("model.coverage_s", "s"),
    ("model.policy_rules", "count"),
    ("model.distinct_shapes", "count"),
    ("model.matcher_covers_us", "us"),
    ("refine.filter_s", "s"),
    ("store.practice_table_s", "s"),
    ("mining.mine_s", "s"),
    ("mining.patterns", "count"),
    ("refine.prune_s", "s"),
    ("refine.useful_ratio", "ratio"),
    ("refine.review_s", "s"),
    ("core.round_s", "s"),
    ("core.unattributed_s", "s"),
    ("stream.ingest_s", "s"),
    ("stream.snapshot_ms", "ms"),
    ("stream.refresh_ms", "ms"),
    ("stream.cache_hit_ratio", "ratio"),
    ("stream.cache_misses", "count"),
    ("stream.lost", "count"),
    ("stream.poisoned", "count"),
    ("serve.engine_decide_us_p50", "us"),
    ("serve.engine_decide_us_p99", "us"),
    ("serve.transport_us_p50", "us"),
    ("serve.uncached_decide_us_p50", "us"),
    ("serve.uncached_decide_us_p99", "us"),
    ("serve.install_ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.invalidations", "count"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.spans", "count"),
];

/// The workload's layer figures completed to the full per-layer list.
fn all_layers(measured: &[Metric]) -> Result<Vec<Metric>, String> {
    if let Some(m) = measured
        .iter()
        .find(|m| !PER_LAYER.iter().any(|(n, u)| *n == m.name && *u == m.unit))
    {
        return Err(format!(
            "layer figure {} ({}) is not in the per-layer list",
            m.name, m.unit
        ));
    }
    Ok(PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            measured
                .iter()
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or_else(|| Metric::new(name, unit, 0.0, 0))
        })
        .collect())
}

/// One invocation's settings and its span recorder.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    /// Traced run: per-layer figures instead of end-to-end ones.
    pub trace: bool,
    /// When measuring started (after the inputs were generated).
    measuring: Option<Instant>,
    pub tracer: Tracer,
}

impl Run {
    /// Starts the measuring clock; workloads call this once their inputs
    /// are generated.
    pub fn start_measuring(&mut self) {
        self.measuring = Some(Instant::now());
    }

    fn started(&self) -> Instant {
        self.measuring.expect("measuring started")
    }

    /// True while the run's measuring time is not used up.
    pub fn time_left(&self) -> bool {
        self.started().elapsed().as_secs_f64() < self.seconds
    }

    pub fn remaining(&self) -> Duration {
        Duration::from_secs_f64(self.seconds).saturating_sub(self.started().elapsed())
    }
}

/// Raw end-to-end measurements of a whole run; every workload fills every
/// field (see `perfbench/README.md` for what each means on each
/// workload). Figures are taken over everything measured, not per pass:
/// a shared machine drifts between faster and slower states for tens of
/// seconds at a time, and a pooled figure moves with the share of time
/// spent in each where a median over passes jumps between them.
#[derive(Debug, Default)]
pub struct EndToEnd {
    pub setup: Samples,
    /// Entries or decisions completed, and the seconds they took.
    work: f64,
    busy_s: f64,
    pub snapshot_ms: Samples,
    pub call_us: Samples,
    pub install_ms: Samples,
}

impl EndToEnd {
    /// Records `done` entries or decisions completed in `d`.
    pub fn add_work(&mut self, done: usize, d: Duration) {
        self.work += done as f64;
        self.busy_s += d.as_secs_f64();
    }

    fn metrics(&self) -> Vec<Metric> {
        let quantile = |name, unit, samples: &Samples, q| {
            Metric::new(name, unit, samples.quantile(q), samples.len())
        };
        let rate = self.work / self.busy_s;
        vec![
            Metric::new("setup_s", "s", self.setup.median(), self.setup.len()),
            Metric::new("entries_per_s", "1/s", rate, self.work as usize),
            Metric::new("decisions_per_s", "1/s", rate, self.work as usize),
            quantile("snapshot_ms_p50", "ms", &self.snapshot_ms, 0.5),
            quantile("snapshot_ms_p90", "ms", &self.snapshot_ms, 0.9),
            quantile("call_us_p50", "us", &self.call_us, 0.5),
            quantile("call_us_p90", "us", &self.call_us, 0.9),
            quantile("call_us_p99", "us", &self.call_us, 0.99),
            quantile("install_ms_p50", "ms", &self.install_ms, 0.5),
            Metric::new("peak_rss_mb", "MiB", peak_rss_mb(), 1),
        ]
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--trace-out PATH]\n\
         default seed {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED}",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        trace_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--trace-out" => args.trace_out = Some(PathBuf::from(value()?)),
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}\n{}", args.workload, usage()));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// The paper's worked examples stay exact: Figure 3 at 50 %, and the
/// Table 1 round from 30 % to 80 % by mining `referral:registration:nurse`.
fn preflight(report: &mut Report) {
    let v = figure_1();
    let figure_3 = compute_coverage(&figure_3_policy_store(), &figure_3_audit_policy(), &v);
    report.checks.expect(
        "preflight.figure_3_is_50pct",
        figure_3.is_ok_and(|r| (r.percent() - 50.0).abs() < 1e-9),
    );

    let mut sys = PrimaSystem::new(v, figure_3_policy_store());
    let store = AuditStore::new("table-1");
    let loaded = store.append_all(&table_1()).is_ok() && sys.attach_store(store).is_ok();
    let before = sys.entry_coverage().percent();
    let round = sys.run_round(ReviewMode::AutoAccept);
    let mined: Vec<String> = sys
        .review()
        .candidates()
        .iter()
        .map(|c| c.pattern.compact(&["data", "purpose", "authorized"]))
        .collect();
    report.checks.expect(
        "preflight.table_1_30_to_80pct",
        loaded
            && (before - 30.0).abs() < 1e-9
            && round
                .is_ok_and(|r| (r.entry_coverage_after - 0.8).abs() < 1e-9 && r.rules_added == 1)
            && mined == ["referral:registration:nurse"],
    );
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn default_trace_path(workload: &str, seed: u64) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("perfbench/target"));
    target
        .join("perfbench-trace")
        .join(format!("{workload}-seed{seed}.jsonl"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let origin = Instant::now();
    let mut run = Run {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        measuring: None,
        tracer: Tracer::new(origin),
    };
    let mut report = Report::default();
    preflight(&mut report);

    let outcome = match args.workload.as_str() {
        "round-300k" => round::run(&mut run, &mut report),
        "stream-2m" => stream::run(&mut run, &mut report),
        "serve-zipf" => serve::run_zipf(&mut run, &mut report),
        _ => serve::run_republish(&mut run, &mut report),
    };
    let e2e = match outcome {
        Ok(e2e) => e2e,
        Err(msg) => {
            eprintln!("{}: {msg}", args.workload);
            report.checks.expect("workload.completed", false);
            EndToEnd::default()
        }
    };
    if args.trace {
        let spans = run.tracer.spans().len();
        report
            .layers
            .push(Metric::new("bench.spans", "count", spans as f64, 1));
        match all_layers(&report.layers) {
            Ok(layers) => report.layers = layers,
            Err(msg) => {
                eprintln!("{msg}");
                report.checks.expect("bench.layer_list", false);
            }
        }
    } else {
        report.end_to_end = e2e.metrics();
    }

    if args.trace {
        let trace_path = args
            .trace_out
            .clone()
            .unwrap_or_else(|| default_trace_path(&args.workload, args.seed));
        match run.tracer.write_jsonl(&trace_path) {
            Ok(()) => eprintln!(
                "wrote {} spans to {}",
                run.tracer.spans().len(),
                trace_path.display()
            ),
            Err(e) => eprintln!("could not write spans to {}: {e}", trace_path.display()),
        }
    }

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# perfbench {} seed={} seconds={} trace={} cores={cores}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for m in report.end_to_end.iter().chain(&report.layers) {
        println!(
            "{:<34} {:>16.6} {:<6} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    for (gate, attempted, failed) in report.checks.gates() {
        let status = if *failed == 0 { "ok" } else { "FAILED" };
        println!("check {gate:<44} {status} ({failed}/{attempted} failed)");
    }
    let attempted = report.checks.attempted().max(1);
    println!(
        "failed_ratio {} ({} of {attempted})",
        report.checks.failed() as f64 / attempted as f64,
        report.checks.failed()
    );
    let extra = [
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
    ];
    println!(
        "{}",
        envelope(
            &format!("perfbench/{}", args.workload),
            &git_rev(),
            cores,
            &report,
            &extra
        )
    );
    let metrics: Vec<Metric> = if args.trace {
        report.layers.clone()
    } else {
        report
            .end_to_end
            .iter()
            .filter(|m| !PRINTED_ONLY.contains(&m.name))
            .cloned()
            .collect()
    };
    println!("{}", result_line(&report, &metrics));
    if report.checks.failed() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
