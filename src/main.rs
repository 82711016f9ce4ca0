//! `prima` — the command-line front end.
//!
//! ```text
//! prima demo                                        # the paper's Section 5 use case
//! prima vocab [figure1|hospital]                    # print a vocabulary
//! prima simulate --out trail.jsonl [--entries N] [--seed S] [--scenario S]
//! prima coverage --policy ps.dsl --audit trail.jsonl [--vocab v.txt] [--set]
//! prima refine   --policy ps.dsl --audit trail.jsonl [--vocab v.txt]
//!                [--f N] [--users N] [--apply refined.dsl]
//! ```
//!
//! Policies use the authoring DSL (`prima_model::dsl`), trails are JSON
//! lines (`prima_audit::export`), vocabularies the indented text format
//! (`prima_vocab::parse`); `--vocab` defaults to the paper's Figure 1
//! vocabulary.

use prima::audit::AuditEntry;
use prima::model::dsl::{parse_policy, render_policy};
use prima::model::{CoverageEngine, Policy, StoreTag, Strategy};
use prima::vocab::parse::{parse_vocabulary, render_vocabulary};
use prima::vocab::samples as vocab_samples;
use prima::vocab::Vocabulary;
use std::collections::HashMap;
use std::io::BufReader;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("demo") => cmd_demo(&args[1..]),
        Some("vocab") => cmd_vocab(&args[1..]),
        Some("simulate") => cmd_simulate(&args[1..]),
        Some("coverage") => cmd_coverage(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("refine") => cmd_refine(&args[1..]),
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("serve-bench") => cmd_serve_bench(&args[1..]),
        Some("stream-bench") => cmd_stream_bench(&args[1..]),
        Some("flight-dump") => cmd_flight_dump(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown command '{other}' (try 'prima help')")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    println!(
        "prima — privacy policy coverage & refinement (PRIMA reproduction)\n\n\
         commands:\n  \
         demo                         run the paper's Section 5 use case\n    \
           [--profile] [--metrics-out FILE] [--trace-out FILE]\n      \
             (--profile prints the per-stage PipelineReport; the --*-out\n      \
              flags export Prometheus text / span JSONL)\n  \
         vocab [figure1|hospital]     print a sample vocabulary\n  \
         simulate --out FILE          generate a labelled clinical trail\n    \
           [--entries N] [--seed S] [--scenario community|paper]\n  \
         stats --audit FILE           trail statistics and top glass-breakers\n  \
         coverage --policy FILE --audit FILE   measure policy coverage\n    \
           [--vocab FILE] [--set]     (--set: Definition 9 range semantics)\n  \
         refine --policy FILE --audit FILE     run one refinement round\n    \
           [--vocab FILE] [--f N] [--users N] [--generalize] [--apply OUT.dsl]\n  \
         analyze --policy FILE        static policy analysis (PA0xx diagnostics)\n    \
           [--vocab FILE] [--audit FILE] [--format human|json] [--budget N]\n      \
             (--audit enables the cross-policy conflict pass against denied\n      \
              accesses; exits non-zero when error-severity diagnostics exist)\n  \
         serve-bench                  load-test the policy-decision service\n    \
           [--smoke] [--principals N] [--requests N] [--clients N] [--workers N]\n    \
           [--shards N] [--batch N] [--zipf S] [--seed S] [--promote-every N]\n    \
           [--out FILE]               (writes the gate report as JSON; exits\n      \
              non-zero when any acceptance gate fails)\n    \
           [--surge]                  overload run instead: 10-100x burst with\n      \
              an elevated break-the-glass rate; gates graceful degradation\n      \
              (SRV-011 shedding, SRV-012 deadlines, emergency certainty)\n    \
           [--suite]                  full sweep: load at workers=1 and =4 plus\n      \
              the surge run, written as one aggregate report (BENCH_serve.json)\n  \
         stream-bench                 shard-scaling ingest benchmark (prima-stream)\n    \
           [--smoke] [--entries N] [--seed S] [--block-size N] [--capacity N]\n    \
           [--passes N] [--out FILE]  (ladders 1/2/4/8 shards over the hospital\n      \
              trail; writes the gate report as JSON and exits non-zero when an\n      \
              acceptance gate — scaling floor, throughput, hit rate — fails)\n  \
         flight-dump                  demonstrate the flight recorder end to end\n    \
           [--requests N] [--out FILE]  (serves N traced decisions, injects one\n      \
              worker panic, and writes the black-box dump — the span ring with\n      \
              the panicking request's trace marked — as JSONL)"
    );
}

/// Parses `--key value` flags; returns the map or an error on stray args.
fn parse_flags(args: &[String], allowed: &[&str]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a --flag, found '{}'", args[i]))?;
        if !allowed.contains(&key) {
            return Err(format!("unknown flag '--{key}'"));
        }
        // Boolean flags take no value.
        if key == "set"
            || key == "generalize"
            || key == "profile"
            || key == "smoke"
            || key == "surge"
            || key == "suite"
        {
            flags.insert(key.to_string(), "true".to_string());
            i += 1;
            continue;
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("flag '--{key}' needs a value"))?;
        flags.insert(key.to_string(), value.clone());
        i += 2;
    }
    Ok(flags)
}

fn load_vocab(flags: &HashMap<String, String>) -> Result<Vocabulary, String> {
    match flags.get("vocab") {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read vocabulary '{path}': {e}"))?;
            parse_vocabulary(&text).map_err(|e| e.to_string())
        }
        None => Ok(vocab_samples::figure_1()),
    }
}

fn load_policy(flags: &HashMap<String, String>) -> Result<Policy, String> {
    let path = flags
        .get("policy")
        .ok_or("missing --policy FILE (authoring DSL)")?;
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read policy '{path}': {e}"))?;
    parse_policy(&text).map_err(|e| e.to_string())
}

/// Prints lint findings (typos, unknown attributes, umbrella
/// authorizations) to stderr so they never corrupt piped output.
fn lint_and_report(policy: &Policy, vocab: &Vocabulary) {
    for finding in prima::model::lint_policy(policy, vocab) {
        eprintln!("{finding}");
    }
}

fn load_audit(flags: &HashMap<String, String>) -> Result<Vec<AuditEntry>, String> {
    let path = flags
        .get("audit")
        .ok_or("missing --audit FILE (JSON lines)")?;
    let file = std::fs::File::open(path).map_err(|e| format!("cannot read audit '{path}': {e}"))?;
    prima::audit::export::import_jsonl(BufReader::new(file)).map_err(|e| e.to_string())
}

fn cmd_demo(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, &["profile", "metrics-out", "trace-out"])?;
    let observe = flags.contains_key("profile")
        || flags.contains_key("metrics-out")
        || flags.contains_key("trace-out");
    let vocab = vocab_samples::figure_1();
    let policy = prima::model::samples::figure_3_policy_store();
    let trail = prima::workload::fixtures::table_1();

    let mut system = prima::system::PrimaSystem::new(vocab, policy);
    if observe {
        system = system.with_observability(prima::system::SystemObs::enabled());
    }
    let store = prima::audit::AuditStore::new("main");
    store.append_all(&trail).map_err(|e| e.to_string())?;
    system.attach_store(store).expect("unique source name");

    let before = system.entry_coverage();
    println!(
        "coverage before: {}/{} = {:.0}%",
        before.covered_entries,
        before.total_entries,
        before.percent()
    );
    let round = system
        .run_round(prima::system::ReviewMode::AutoAccept)
        .map_err(|e| e.to_string())?;
    println!(
        "refinement: {} practice entries, {} pattern(s), {} rule(s) accepted",
        round.practice_entries, round.patterns_found, round.rules_added
    );
    let after = system.entry_coverage();
    println!(
        "coverage after:  {}/{} = {:.0}%",
        after.covered_entries,
        after.total_entries,
        after.percent()
    );
    println!("\nrefined policy:\n{}", render_policy(system.policy()));
    if flags.contains_key("profile") {
        println!("\n{}", system.pipeline_report());
    }
    if let Some(path) = flags.get("metrics-out") {
        let text = prima::obs::export::prometheus(system.obs().registry());
        std::fs::write(path, text).map_err(|e| format!("cannot write '{path}': {e}"))?;
        println!("metrics (Prometheus text) written to {path}");
    }
    if let Some(path) = flags.get("trace-out") {
        let spans = system.obs().tracer().drain();
        let text = prima::obs::export::spans_jsonl(&spans);
        std::fs::write(path, text).map_err(|e| format!("cannot write '{path}': {e}"))?;
        println!("trace ({} spans, JSONL) written to {path}", spans.len());
    }
    Ok(())
}

fn cmd_vocab(args: &[String]) -> Result<(), String> {
    let which = args.first().map(String::as_str).unwrap_or("figure1");
    let v = match which {
        "figure1" => vocab_samples::figure_1(),
        "hospital" => vocab_samples::hospital(),
        other => return Err(format!("unknown vocabulary '{other}' (figure1|hospital)")),
    };
    print!("{}", render_vocabulary(&v));
    Ok(())
}

fn cmd_simulate(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, &["out", "entries", "seed", "scenario"])?;
    let out_path = flags.get("out").ok_or("missing --out FILE")?;
    let entries: usize = flags
        .get("entries")
        .map(|s| s.parse().map_err(|_| format!("bad --entries '{s}'")))
        .transpose()?
        .unwrap_or(10_000);
    let seed: u64 = flags
        .get("seed")
        .map(|s| s.parse().map_err(|_| format!("bad --seed '{s}'")))
        .transpose()?
        .unwrap_or(42);
    let scenario = match flags.get("scenario").map(String::as_str) {
        Some("paper") => prima::workload::Scenario::paper_example(),
        Some("community") | None => prima::workload::Scenario::community_hospital(),
        Some(other) => return Err(format!("unknown scenario '{other}' (community|paper)")),
    };
    let sim = scenario.simulator();
    let trail = sim.generate(&prima::workload::SimConfig {
        seed,
        n_entries: entries,
        ..prima::workload::SimConfig::default()
    });
    let plain = prima::workload::sim::entries(&trail);
    let file =
        std::fs::File::create(out_path).map_err(|e| format!("cannot create '{out_path}': {e}"))?;
    prima::audit::export::export_jsonl(&plain, file).map_err(|e| e.to_string())?;
    let (sanc, informal, viol) = prima::workload::sim::census(&trail);
    println!(
        "wrote {entries} entries to {out_path} (scenario={}, sanctioned={sanc}, informal={informal}, violations={viol})",
        scenario.name
    );
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, &["audit"])?;
    let entries = load_audit(&flags)?;
    let s = prima::audit::trail_stats(&entries);
    println!(
        "entries: {} (regular {}, exceptions {}, denials {})",
        s.total, s.regular, s.exceptions, s.denials
    );
    println!(
        "exception share of served accesses: {:.1}%",
        s.exception_share() * 100.0
    );
    println!("distinct users: {}", s.distinct_users);
    if let Some((a, b)) = s.time_span {
        println!("time span: {a}..{b}");
    }
    println!("top glass-breakers:");
    for (user, n) in prima::audit::glass_breakers(&entries, 5) {
        println!("  {user}: {n}");
    }
    println!("top exception data categories:");
    for (data, n) in prima::audit::stats::top_exception_attribute(&entries, 5, |e| &e.data) {
        println!("  {data}: {n}");
    }
    Ok(())
}

fn cmd_coverage(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, &["policy", "audit", "vocab", "set"])?;
    let vocab = load_vocab(&flags)?;
    let policy = load_policy(&flags)?;
    lint_and_report(&policy, &vocab);
    // The store refuses a trail with a blank attribute, naming the entry.
    let store = prima::audit::AuditStore::new("coverage");
    store
        .append_all(&load_audit(&flags)?)
        .map_err(|e| e.to_string())?;
    let rules = store.ground_rules();

    if flags.contains_key("set") {
        let al = Policy::from_ground_rules(StoreTag::AuditLog, rules);
        let report = CoverageEngine::new(Strategy::Lazy)
            .coverage(&policy, &al, &vocab)
            .map_err(|e| e.to_string())?;
        println!(
            "set coverage (Definition 9): {}/{} = {:.1}%",
            report.overlap,
            report.target_cardinality,
            report.percent()
        );
        for g in &report.uncovered {
            println!("  uncovered: {g}");
        }
    } else {
        let report = CoverageEngine::default().entry_coverage(&policy, &rules, &vocab);
        println!(
            "entry coverage: {}/{} = {:.1}%",
            report.covered_entries,
            report.total_entries,
            report.percent()
        );
    }
    Ok(())
}

fn cmd_analyze(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, &["policy", "vocab", "audit", "format", "budget"])?;
    let vocab = load_vocab(&flags)?;
    let policy = load_policy(&flags)?;
    let mut config = prima::analyze::AnalyzeConfig::default();
    if let Some(b) = flags.get("budget") {
        config.expansion_budget = b.parse().map_err(|_| format!("bad --budget '{b}'"))?;
    }
    let analyzer = prima::analyze::Analyzer::new(&vocab).with_config(config);
    let diags = match flags.get("audit") {
        Some(_) => {
            let entries = load_audit(&flags)?;
            analyzer.analyze_with_audit(&policy, &entries)
        }
        None => analyzer.analyze(&policy),
    };
    match flags.get("format").map(String::as_str) {
        Some("json") => println!("{}", prima::model::diag::render_json(&diags)),
        Some("human") | None => print!("{}", prima::model::diag::render_human(&diags)),
        Some(other) => return Err(format!("unknown format '{other}' (human|json)")),
    }
    let (errors, _, _) = prima::model::diag::count_severities(&diags);
    if errors > 0 {
        Err(format!("{errors} error-severity diagnostic(s)"))
    } else {
        Ok(())
    }
}

fn cmd_serve_bench(args: &[String]) -> Result<(), String> {
    use prima::serve::LoadConfig;
    let flags = parse_flags(
        args,
        &[
            "smoke",
            "surge",
            "suite",
            "principals",
            "requests",
            "clients",
            "workers",
            "shards",
            "batch",
            "zipf",
            "seed",
            "promote-every",
            "out",
        ],
    )?;
    if flags.contains_key("suite") {
        return serve_bench_suite(&flags);
    }
    if flags.contains_key("surge") {
        return serve_bench_surge(&flags);
    }
    let mut config = if flags.contains_key("smoke") {
        LoadConfig::smoke()
    } else {
        LoadConfig::default()
    };
    fn num<T: std::str::FromStr>(
        flags: &HashMap<String, String>,
        key: &str,
        into: &mut T,
    ) -> Result<(), String> {
        if let Some(s) = flags.get(key) {
            *into = s.parse().map_err(|_| format!("bad --{key} '{s}'"))?;
        }
        Ok(())
    }
    num(&flags, "principals", &mut config.principals)?;
    num(&flags, "requests", &mut config.requests)?;
    num(&flags, "clients", &mut config.clients)?;
    num(&flags, "workers", &mut config.workers)?;
    num(&flags, "shards", &mut config.cache_shards)?;
    num(&flags, "batch", &mut config.batch)?;
    num(&flags, "zipf", &mut config.zipf)?;
    num(&flags, "seed", &mut config.seed)?;
    num(&flags, "promote-every", &mut config.promote_every)?;

    println!(
        "serve-bench: {} request(s) over {} principal(s), {} client(s) x {} worker(s), \
         {} shard(s), zipf {} ({} mode)",
        config.requests,
        config.principals,
        config.clients,
        config.workers,
        config.cache_shards,
        config.zipf,
        if config.smoke { "smoke" } else { "full" }
    );
    let report = prima::serve::run_load(config);
    println!(
        "{:.0} decisions/s ({} decisions in {:.2}s); hit rate {:.1}%, \
         {} invalidation(s), {} promotion(s), p50 {:.1}us, p99 {:.1}us",
        report.decisions_per_sec,
        report.decisions,
        report.elapsed_secs,
        report.hit_rate() * 100.0,
        report.invalidations,
        report.promotions,
        report.p50_us,
        report.p99_us
    );
    println!(
        "coherence: {} audited, {} skipped (revision raced), {} mismatch(es)",
        report.coherence_checked, report.coherence_skipped, report.coherence_mismatches
    );
    for (gate, ok) in report.gates() {
        println!("gate {gate}: {}", if ok { "pass" } else { "FAIL" });
    }

    if let Some(path) = flags.get("out") {
        let text = serde_json::to_string_pretty(&report.to_json())
            .map_err(|e| format!("cannot serialize report: {e}"))?;
        std::fs::write(path, text).map_err(|e| format!("cannot write '{path}': {e}"))?;
        println!("report written to {path}");
    }
    if report.passed() {
        Ok(())
    } else {
        Err("serve-bench acceptance gate(s) failed".to_string())
    }
}

fn cmd_stream_bench(args: &[String]) -> Result<(), String> {
    use prima::stream::{run_stream_bench, StreamBenchConfig};
    let flags = parse_flags(
        args,
        &[
            "smoke",
            "entries",
            "seed",
            "block-size",
            "capacity",
            "passes",
            "out",
        ],
    )?;
    let mut config = if flags.contains_key("smoke") {
        StreamBenchConfig::smoke()
    } else {
        StreamBenchConfig::default()
    };
    flag_num(&flags, "entries", &mut config.trail_len)?;
    flag_num(&flags, "seed", &mut config.seed)?;
    flag_num(&flags, "block-size", &mut config.block_size)?;
    flag_num(&flags, "capacity", &mut config.channel_capacity)?;
    flag_num(&flags, "passes", &mut config.passes)?;

    println!(
        "stream-bench: {} entr(ies) over shard widths {:?}, block size {}, \
         capacity {}, best of {} pass(es) ({} mode)",
        config.trail_len,
        config.widths,
        config.block_size,
        config.channel_capacity,
        config.passes,
        if config.smoke { "smoke" } else { "full" }
    );
    let report = run_stream_bench(config);
    for w in &report.widths {
        println!(
            "  {} shard(s): {:.0} entries/s, hit rate {:.2}%",
            w.shards,
            w.entries_per_sec,
            w.cache_hit_rate * 100.0
        );
    }
    println!(
        "scaling {:.2}x wide-over-narrow (floor {:.2} at {} core(s)); \
         metrics overhead {:.2}%",
        report.scaling_ratio(),
        prima::stream::loadbench::scaling_floor(report.cores),
        report.cores,
        report.overhead_pct()
    );
    for (gate, ok) in report.gates() {
        println!("gate {gate}: {}", if ok { "pass" } else { "FAIL" });
    }

    if let Some(path) = flags.get("out") {
        let text = serde_json::to_string_pretty(&report.to_json())
            .map_err(|e| format!("cannot serialize report: {e}"))?;
        std::fs::write(path, text).map_err(|e| format!("cannot write '{path}': {e}"))?;
        println!("report written to {path}");
    }
    if report.passed() {
        Ok(())
    } else {
        Err("stream-bench acceptance gate(s) failed".to_string())
    }
}

/// Demonstrates the flight recorder end to end: serve traced decisions,
/// inject one worker panic, and write the black-box dump the incident
/// produced — the recent-span ring as JSONL with the panicking request's
/// trace marked.
fn cmd_flight_dump(args: &[String]) -> Result<(), String> {
    use prima::obs::{FlightRecorder, MetricsRegistry, Tracer};
    use prima::serve::{DecisionRequest, PolicyService, ServeConfig, Transport, Verdict};
    use prima::vocab::{ATTR_AUTHORIZED, ATTR_DATA, ATTR_PURPOSE};
    const PANIC_TOKEN: &str = "☠-flight";

    let flags = parse_flags(args, &["requests", "out"])?;
    let mut requests: usize = 64;
    flag_num(&flags, "requests", &mut requests)?;

    // The injected panic is the point of the exercise; silence its
    // backtrace but leave every other panic loud.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<&str>()
            .is_some_and(|m| m.contains("injected worker panic"))
            || info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.contains("injected worker panic"));
        if !injected {
            default_hook(info);
        }
    }));

    let scenario = prima::workload::Scenario::community_hospital();
    let flight = FlightRecorder::new(256);
    let tracer = Tracer::configured(None, flight.clone());
    let service = PolicyService::start(
        ServeConfig::new()
            .workers(2)
            .panic_token(PANIC_TOKEN)
            .metrics(MetricsRegistry::new())
            .tracer(tracer),
        &scenario.policy,
        &scenario.vocab,
    );
    let handle = service.handle();

    // Healthy context first, so the ring has history for the dump to
    // replay: one request per (role, op, purpose) leaf combination.
    let leaf = |attr: &str| -> Vec<String> {
        let t = scenario.vocab.attribute(attr).expect("scenario attribute");
        t.all_leaves()
            .iter()
            .map(|&id| t.name(id).to_string())
            .collect()
    };
    let (roles, ops, purposes) = (leaf(ATTR_AUTHORIZED), leaf(ATTR_DATA), leaf(ATTR_PURPOSE));
    for i in 0..requests {
        let req = DecisionRequest::new(
            &format!("p-{i}"),
            &roles[i % roles.len()],
            &ops[i % ops.len()],
            &purposes[i % purposes.len()],
            "granted",
        );
        handle
            .decide(req)
            .map_err(|e| format!("service failed mid-run: {e:?}"))?;
    }
    // The incident: a request whose principal is the panic token crashes
    // its worker; the supervisor dumps the black box with this request's
    // trace marked, and the client still gets a fail-closed denial.
    let boom = DecisionRequest::new(PANIC_TOKEN, &roles[0], &ops[0], &purposes[0], "granted");
    let reply = handle
        .decide(boom)
        .map_err(|e| format!("service failed on the seeded panic: {e:?}"))?;
    if !matches!(reply.verdict, Verdict::Deny(_)) {
        return Err("seeded panic did not fail closed".to_string());
    }
    let dump = flight
        .last_dump()
        .ok_or("the worker panic produced no flight dump")?;
    service.shutdown();

    println!(
        "flight dump: trigger={}, trace={}, {} span record(s) in the ring",
        dump.trigger,
        dump.trace_id,
        dump.records.len()
    );
    let jsonl = dump.to_jsonl();
    match flags.get("out") {
        Some(path) => {
            std::fs::write(path, &jsonl).map_err(|e| format!("cannot write '{path}': {e}"))?;
            println!("dump (JSONL) written to {path}");
        }
        None => print!("{jsonl}"),
    }
    Ok(())
}

fn flag_num<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    into: &mut T,
) -> Result<(), String> {
    if let Some(s) = flags.get(key) {
        *into = s.parse().map_err(|_| format!("bad --{key} '{s}'"))?;
    }
    Ok(())
}

fn surge_config_from(flags: &HashMap<String, String>) -> Result<prima::serve::SurgeConfig, String> {
    let mut config = if flags.contains_key("smoke") {
        prima::serve::SurgeConfig::smoke()
    } else {
        prima::serve::SurgeConfig::default()
    };
    flag_num(flags, "principals", &mut config.principals)?;
    flag_num(flags, "clients", &mut config.bulk_clients)?;
    flag_num(flags, "workers", &mut config.workers)?;
    flag_num(flags, "zipf", &mut config.zipf)?;
    flag_num(flags, "seed", &mut config.seed)?;
    Ok(config)
}

fn print_surge_report(report: &prima::serve::SurgeReport) {
    println!(
        "capacity {:.0}/s, offered {:.0}/s — surge factor {:.1}x over {:.2}s",
        report.capacity_per_sec, report.offered_per_sec, report.surge_factor, report.elapsed_secs
    );
    let lane = |name: &str, o: &prima::serve::LaneOutcomes| {
        println!(
            "{name}: {} offered, {} decided, {} shed (SRV-011), {} expired (SRV-012), \
             {} unexpected",
            o.offered, o.decided, o.shed, o.expired, o.unexpected
        );
    };
    lane("bulk", &report.bulk);
    lane("emergency", &report.emergency);
    println!(
        "coherence: {} audited, {} mismatch(es)",
        report.coherence_checked, report.coherence_mismatches
    );
    for (gate, ok) in report.gates() {
        println!("gate {gate}: {}", if ok { "pass" } else { "FAIL" });
    }
}

fn serve_bench_surge(flags: &HashMap<String, String>) -> Result<(), String> {
    let config = surge_config_from(flags)?;
    println!(
        "serve-bench --surge: {} bulk + {} emergency client(s) for {}ms, \
         {} worker(s) at {}us/decision ({} mode)",
        config.bulk_clients,
        config.emergency_clients,
        config.duration_ms,
        config.workers,
        config.decision_delay_us,
        if config.smoke { "smoke" } else { "full" }
    );
    let report = prima::serve::run_surge(config);
    print_surge_report(&report);
    if let Some(path) = flags.get("out") {
        let text = serde_json::to_string_pretty(&report.to_json())
            .map_err(|e| format!("cannot serialize report: {e}"))?;
        std::fs::write(path, text).map_err(|e| format!("cannot write '{path}': {e}"))?;
        println!("report written to {path}");
    }
    if report.passed() {
        Ok(())
    } else {
        Err("serve-bench surge gate(s) failed".to_string())
    }
}

fn serve_bench_suite(flags: &HashMap<String, String>) -> Result<(), String> {
    use prima::serve::LoadConfig;
    let smoke = flags.contains_key("smoke");
    let base = if smoke {
        LoadConfig::smoke()
    } else {
        LoadConfig::default()
    };
    let mut load_reports = Vec::new();
    for workers in [1usize, 4] {
        let config = LoadConfig {
            workers,
            ..base.clone()
        };
        println!("suite: load bench, {workers} worker(s) …");
        let report = prima::serve::run_load(config);
        println!(
            "  {:.0} decisions/s, hit rate {:.1}%, {} coherence mismatch(es): {}",
            report.decisions_per_sec,
            report.hit_rate() * 100.0,
            report.coherence_mismatches,
            if report.passed() { "pass" } else { "FAIL" }
        );
        load_reports.push(report);
    }
    println!("suite: surge bench …");
    let surge = prima::serve::run_surge(surge_config_from(flags)?);
    print_surge_report(&surge);

    let passed = load_reports.iter().all(|r| r.passed()) && surge.passed();
    if let Some(path) = flags.get("out") {
        let json = serde_json::Value::Map(vec![
            ("bench".into(), serde_json::Value::Str("serve_suite".into())),
            (
                "load".into(),
                serde_json::Value::Seq(load_reports.iter().map(|r| r.to_json()).collect()),
            ),
            ("surge".into(), surge.to_json()),
        ]);
        let text = serde_json::to_string_pretty(&json)
            .map_err(|e| format!("cannot serialize report: {e}"))?;
        std::fs::write(path, text).map_err(|e| format!("cannot write '{path}': {e}"))?;
        println!("report written to {path}");
    }
    if passed {
        Ok(())
    } else {
        Err("serve-bench suite gate(s) failed".to_string())
    }
}

fn cmd_refine(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(
        args,
        &[
            "policy",
            "audit",
            "vocab",
            "f",
            "users",
            "apply",
            "generalize",
        ],
    )?;
    let vocab = load_vocab(&flags)?;
    let mut policy = load_policy(&flags)?;
    lint_and_report(&policy, &vocab);
    let entries = load_audit(&flags)?;
    let f: usize = flags
        .get("f")
        .map(|s| s.parse().map_err(|_| format!("bad --f '{s}'")))
        .transpose()?
        .unwrap_or(5);
    let users: usize = flags
        .get("users")
        .map(|s| s.parse().map_err(|_| format!("bad --users '{s}'")))
        .transpose()?
        .unwrap_or(1);

    let miner = prima::mining::SqlMiner::new(prima::mining::MinerConfig {
        min_frequency: f,
        min_distinct_users: users,
        ..prima::mining::MinerConfig::default()
    });
    let report = prima::refine::refinement_with_miner(&policy, &entries, &vocab, &miner)
        .map_err(|e| e.to_string())?;
    println!(
        "{} entries -> {} practice -> {} pattern(s) -> {} useful",
        report.input_entries,
        report.practice_entries,
        report.raw_patterns.len(),
        report.useful_patterns.len()
    );
    for p in &report.useful_patterns {
        println!("  {p}");
    }
    let candidate_rules: Vec<prima::model::Rule> = if flags.contains_key("generalize") {
        let out = prima::refine::generalize(&report.useful_patterns, &vocab);
        for step in &out.steps {
            println!(
                "  generalized {} sibling rule(s) over '{}' into {}",
                step.covers.len(),
                step.attr,
                step.rule
            );
        }
        out.rules
    } else {
        report
            .useful_patterns
            .iter()
            .map(|p| prima::model::Rule::from_ground(&p.rule))
            .collect()
    };
    if let Some(out) = flags.get("apply") {
        for r in candidate_rules {
            policy.push_unique(r);
        }
        std::fs::write(out, render_policy(&policy))
            .map_err(|e| format!("cannot write '{out}': {e}"))?;
        println!("refined policy written to {out}");
    }
    Ok(())
}
