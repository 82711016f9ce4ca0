//! # prima-obs — observability for the PRIMA pipeline
//!
//! The rest of the workspace grew machinery whose behavior is invisible
//! at runtime: sharded stream ingestion, circuit-broken federation,
//! checkpoint recovery, deferred refinement. This crate is the substrate
//! that makes those decisions explainable — in the spirit of
//! explanation-based auditing, the audit system must be able to account
//! for *its own* behavior, not just its subjects'.
//!
//! Three layers, all zero-dependency and cheap enough to leave on:
//!
//! * **Metrics** — a [`MetricsRegistry`] of atomic [`Counter`]s,
//!   [`Gauge`]s, and fixed-bucket [`Histogram`]s. Handles are
//!   `Arc`-shared and update with relaxed atomics; a registry created
//!   with [`MetricsRegistry::disabled`] hands out no-op handles whose
//!   hot-path cost is one branch on an `Option` discriminant.
//! * **Tracing** — a [`Tracer`] producing timed, parented spans with
//!   key/value fields, buffered in striped per-thread buffers and
//!   drained as JSON lines. A [`TraceContext`] carries a trace across
//!   thread and channel hops ([`Tracer::root_span`] starts a trace,
//!   [`SpanGuard::context`] stamps it onto a message,
//!   [`Tracer::span_in`] restores it on the far side), and a
//!   [`SamplePolicy`] tail-samples at the root: interesting traces
//!   (marked, or slower than a threshold) are kept 100%, the boring
//!   rest keep 1-in-N.
//! * **Incidents** — a [`FlightRecorder`] ring sees every span before
//!   sampling and snapshots a [`FlightDump`] on panic/breaker/degraded/
//!   gate triggers; an [`SloEngine`] tracks multi-window burn rates
//!   against [`SloSpec`] objectives and rolls up into [`SloHealth`].
//! * **Export** — [`export::prometheus`] renders the registry in the
//!   Prometheus text exposition format; [`export::spans_jsonl`] and
//!   [`export::metrics_jsonl`] render machine-readable JSON lines. A
//!   [`PipelineReport`] summarizes per-stage latency histograms
//!   (count/p50/p95/max) as a printable profile.
//!
//! ## Naming conventions
//!
//! Metric names are `prima_<area>_<what>_<unit>` (Prometheus style:
//! `prima_stream_ingested_total`, `prima_round_stage_seconds`). Span
//! names are dotted lowercase paths, `area.verb` or `area.stage`
//! (`round.mine`, `stream.checkpoint`, `federation.sync`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod context;
pub mod export;
pub mod histogram;
pub mod metrics;
pub mod registry;
pub mod report;
pub mod ring;
pub mod sampler;
pub mod slo;
pub mod trace;

pub use context::TraceContext;
pub use histogram::{Histogram, HistogramSnapshot, DEFAULT_LATENCY_BUCKETS};
pub use metrics::{Counter, Gauge};
pub use registry::{MetricFamily, MetricKind, MetricSample, MetricsRegistry};
pub use report::{PipelineReport, StageProfile};
pub use ring::{FlightDump, FlightRecorder};
pub use sampler::{SamplePolicy, SampleStats};
pub use slo::{SloEngine, SloHealth, SloSpec};
pub use trace::{SpanGuard, SpanRecord, Tracer};
