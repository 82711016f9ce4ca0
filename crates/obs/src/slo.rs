//! Multi-window SLO burn-rate tracking.
//!
//! Benches tell you whether the system *was* healthy during a run; an
//! SLO engine tells you whether it *is* healthy right now, and how fast
//! it is spending its error budget. Each tracked SLO is an objective
//! ("at most 5% of requests shed") evaluated over two sliding windows —
//! a short one that reacts within a few ticks and a long one that
//! filters blips — in the classic multi-window burn-rate shape: page
//! only when **both** windows burn faster than the breach factor, so a
//! single bad tick cannot page but a sustained burn cannot hide.
//!
//! Time here is *tick time*, not wall time: the serve supervisor ticks
//! per supervision interval and the refinement pipeline ticks per round,
//! so the same engine serves both the 400k-QPS service and the batch
//! pipeline, and tests can drive it deterministically.
//!
//! Every tracked SLO exports `prima_slo_burn_rate{slo,window}` and
//! `prima_slo_breached{slo}` gauges through the shared registry, and the
//! roll-up [`SloHealth`] is folded into `ServeHealth`.

use crate::metrics::Gauge;
use crate::registry::MetricsRegistry;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Definition of one service-level objective.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// Stable name, used as the `slo` label (e.g. `decision_p99`).
    pub name: String,
    /// Allowed bad fraction (error budget per tick): `0.05` means "at
    /// most 5% of events may be bad".
    pub objective: f64,
    /// Ticks in the fast-reacting window.
    pub short_window: usize,
    /// Ticks in the blip-filtering window.
    pub long_window: usize,
    /// Burn-rate multiple above which a window counts as burning; the
    /// SLO is breached when **both** windows exceed it.
    pub breach_factor: f64,
}

impl SloSpec {
    /// An SLO with 5-tick short and 60-tick long windows (the 5m/1h shape
    /// at one tick per minute) and breach factor 2.0.
    pub fn new(name: &str, objective: f64) -> Self {
        Self {
            name: name.to_string(),
            objective: objective.max(f64::MIN_POSITIVE),
            short_window: 5,
            long_window: 60,
            breach_factor: 2.0,
        }
    }
}

/// Burn rates of one SLO over its two windows.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct BurnRates {
    /// Short-window burn rate (1.0 = burning budget exactly at the
    /// objective rate; 0.0 = no bad events).
    short: f64,
    /// Long-window burn rate.
    long: f64,
}

/// Roll-up of every tracked SLO, cheap to copy into health snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SloHealth {
    /// SLOs being tracked.
    pub tracked: u32,
    /// SLOs currently breached (both windows over the breach factor).
    pub breached: u32,
    /// Highest short-window burn rate across all SLOs.
    pub worst_short_burn: f64,
    /// Highest long-window burn rate across all SLOs.
    pub worst_long_burn: f64,
}

#[derive(Debug)]
struct WindowRing {
    samples: VecDeque<(f64, f64)>,
    cap: usize,
}

impl WindowRing {
    fn new(cap: usize) -> Self {
        Self {
            samples: VecDeque::new(),
            cap,
        }
    }

    fn push(&mut self, bad: f64, total: f64) {
        self.samples.push_back((bad, total));
        while self.samples.len() > self.cap {
            self.samples.pop_front();
        }
    }

    /// Bad fraction over the window (0 when the window saw no events).
    fn bad_fraction(&self) -> f64 {
        let (bad, total) = self
            .samples
            .iter()
            .fold((0.0, 0.0), |(b, t), (sb, st)| (b + sb, t + st));
        if total > 0.0 {
            bad / total
        } else {
            0.0
        }
    }
}

#[derive(Debug)]
struct TrackedSlo {
    spec: SloSpec,
    short: WindowRing,
    long: WindowRing,
    burn_short: Gauge,
    burn_long: Gauge,
    breached_gauge: Gauge,
    breached: bool,
}

impl TrackedSlo {
    fn rates(&self) -> BurnRates {
        BurnRates {
            short: self.short.bad_fraction() / self.spec.objective,
            long: self.long.bad_fraction() / self.spec.objective,
        }
    }
}

#[derive(Debug, Default)]
struct SloInner {
    slos: Vec<TrackedSlo>,
}

/// Shared burn-rate engine. `Clone` shares the engine; the default
/// handle is disabled and records nothing.
#[derive(Debug, Clone, Default)]
pub struct SloEngine {
    inner: Option<Arc<Mutex<SloInner>>>,
    registry: MetricsRegistry,
}

impl SloEngine {
    /// A live engine exporting its gauges through `registry`.
    pub fn new(registry: &MetricsRegistry) -> Self {
        Self {
            inner: Some(Arc::new(Mutex::new(SloInner::default()))),
            registry: registry.clone(),
        }
    }

    /// A disabled engine: tracking and recording are no-ops.
    pub fn disabled() -> Self {
        Self {
            inner: None,
            registry: MetricsRegistry::disabled(),
        }
    }

    /// True when this engine tracks anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Starts tracking an SLO (idempotent per name: re-tracking an
    /// existing name is ignored so shared engines can't double-count).
    pub fn track(&self, spec: SloSpec) {
        let Some(inner) = &self.inner else { return };
        let mut guard = inner.lock().expect("slo mutex");
        if guard.slos.iter().any(|s| s.spec.name == spec.name) {
            return;
        }
        let burn = "prima_slo_burn_rate";
        let burn_help = "SLO burn rate per window (1.0 = at objective)";
        let tracked = TrackedSlo {
            burn_short: self.registry.gauge_with(
                burn,
                burn_help,
                &[("slo", &spec.name), ("window", "short")],
            ),
            burn_long: self.registry.gauge_with(
                burn,
                burn_help,
                &[("slo", &spec.name), ("window", "long")],
            ),
            breached_gauge: self.registry.gauge_with(
                "prima_slo_breached",
                "1 when both SLO windows burn past the breach factor",
                &[("slo", &spec.name)],
            ),
            short: WindowRing::new(spec.short_window),
            long: WindowRing::new(spec.long_window),
            breached: false,
            spec,
        };
        guard.slos.push(tracked);
    }

    /// Records one tick of an SLO: `bad` bad events out of `total`.
    /// A tick with `total == 0` still advances the windows (a quiet tick
    /// ages out old badness). Unknown names are ignored.
    pub fn record(&self, name: &str, bad: f64, total: f64) {
        let Some(inner) = &self.inner else { return };
        let mut guard = inner.lock().expect("slo mutex");
        let Some(slo) = guard.slos.iter_mut().find(|s| s.spec.name == name) else {
            return;
        };
        slo.short.push(bad, total);
        slo.long.push(bad, total);
        let rates = slo.rates();
        slo.breached = rates.short > slo.spec.breach_factor && rates.long > slo.spec.breach_factor;
        slo.burn_short.set(rates.short);
        slo.burn_long.set(rates.long);
        slo.breached_gauge.set(if slo.breached { 1.0 } else { 0.0 });
    }

    /// True when `name` is currently breached.
    pub fn is_breached(&self, name: &str) -> bool {
        let Some(inner) = &self.inner else {
            return false;
        };
        let guard = inner.lock().expect("slo mutex");
        guard
            .slos
            .iter()
            .find(|s| s.spec.name == name)
            .is_some_and(|s| s.breached)
    }

    /// Roll-up across every tracked SLO.
    pub fn health(&self) -> SloHealth {
        let Some(inner) = &self.inner else {
            return SloHealth::default();
        };
        let guard = inner.lock().expect("slo mutex");
        let mut health = SloHealth {
            tracked: guard.slos.len() as u32,
            ..SloHealth::default()
        };
        for slo in &guard.slos {
            let rates = slo.rates();
            if slo.breached {
                health.breached += 1;
            }
            health.worst_short_burn = health.worst_short_burn.max(rates.short);
            health.worst_long_burn = health.worst_long_burn.max(rates.long);
        }
        health
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::SampleValue;

    #[test]
    fn disabled_engine_is_inert() {
        let e = SloEngine::disabled();
        e.track(SloSpec::new("x", 0.05));
        e.record("x", 1.0, 1.0);
        assert!(!e.is_enabled());
        assert!(!e.is_breached("x"));
        assert_eq!(e.health(), SloHealth::default());
    }

    #[test]
    fn burn_rate_is_bad_fraction_over_objective() {
        let r = MetricsRegistry::new();
        let e = SloEngine::new(&r);
        e.track(SloSpec::new("shed", 0.05));
        e.record("shed", 5.0, 100.0); // exactly at objective
        let h = e.health();
        assert!((h.worst_short_burn - 1.0).abs() < 1e-9);
        assert!((h.worst_long_burn - 1.0).abs() < 1e-9);
        assert!(!e.is_breached("shed"), "at objective is not a breach");
    }

    #[test]
    fn breach_needs_both_windows_burning() {
        let r = MetricsRegistry::new();
        let e = SloEngine::new(&r);
        e.track(SloSpec::new("p99", 0.1));
        // Long window mostly healthy: a short burst must not breach.
        for _ in 0..55 {
            e.record("p99", 0.0, 1.0);
        }
        e.record("p99", 1.0, 1.0);
        e.record("p99", 1.0, 1.0);
        assert!(e.health().worst_short_burn > 2.0, "short window is burning");
        assert!(!e.is_breached("p99"), "long window still filters the blip");
        // Sustain the burn until the long window agrees: 13 bad ticks of
        // the last 60 burn at 2.17.
        for _ in 0..11 {
            e.record("p99", 1.0, 1.0);
        }
        assert!(e.is_breached("p99"));
        // Recovery: healthy ticks age the badness out of both windows.
        for _ in 0..60 {
            e.record("p99", 0.0, 1.0);
        }
        assert!(!e.is_breached("p99"));
        assert_eq!(e.health().worst_long_burn, 0.0);
    }

    #[test]
    fn gauges_export_with_slo_and_window_labels() {
        let r = MetricsRegistry::new();
        let e = SloEngine::new(&r);
        e.track(SloSpec::new("panics", 0.001));
        e.record("panics", 1.0, 100.0); // 1% bad vs 0.1% objective = 10x
        let fams = r.gather();
        let burn = fams
            .iter()
            .find(|f| f.name == "prima_slo_burn_rate")
            .unwrap();
        assert_eq!(burn.samples.len(), 2, "short + long series");
        for s in &burn.samples {
            match s.value {
                SampleValue::Gauge(v) => assert!((v - 10.0).abs() < 1e-9),
                _ => panic!("burn rate must be a gauge"),
            }
        }
        let breached = fams
            .iter()
            .find(|f| f.name == "prima_slo_breached")
            .unwrap();
        match breached.samples[0].value {
            SampleValue::Gauge(v) => assert_eq!(v, 1.0),
            _ => panic!("breached must be a gauge"),
        }
    }

    #[test]
    fn health_rolls_up_worst_burns_and_breaches() {
        let r = MetricsRegistry::new();
        let e = SloEngine::new(&r);
        e.track(SloSpec::new("a", 0.5));
        e.track(SloSpec::new("b", 0.5));
        e.track(SloSpec::new("a", 0.01)); // duplicate name: ignored
        e.record("a", 1.0, 1.0); // burn 2.0 — not > factor 2.0
        e.record("b", 0.0, 1.0);
        let h = e.health();
        assert_eq!(h.tracked, 2);
        assert_eq!(h.breached, 0);
        assert!((h.worst_short_burn - 2.0).abs() < 1e-9);
        // Push `a` past the factor on both windows: 2 bad of 1.4 events.
        e.record("a", 1.0, 0.4);
        assert!(e.is_breached("a"));
        assert_eq!(e.health().breached, 1);
    }
}
