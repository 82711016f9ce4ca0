//! The load suites behind `prima-bench --suite`: each runs a full or
//! smoke preset and returns the shared [`BenchReport`].

pub mod pipeline;
pub mod serve;
pub mod stream;
pub mod surge;

use crate::report::{BenchReport, Measured};

/// Every suite name `prima-bench --suite` accepts.
pub const SUITES: [&str; 4] = ["pipeline", "stream", "serve", "surge"];

/// Runs the suite called `name` in its smoke or full preset; `None` for
/// an unknown name.
pub fn run_suite(name: &str, smoke: bool) -> Option<BenchReport> {
    fn preset<C: Default>(smoke: bool, smoke_preset: fn() -> C) -> C {
        if smoke {
            smoke_preset()
        } else {
            C::default()
        }
    }
    Some(match name {
        "pipeline" => pipeline::run_pipeline(pipeline::TRAIL_ENTRIES).report(),
        "stream" => {
            stream::run_stream_bench(preset(smoke, stream::StreamBenchConfig::smoke)).report()
        }
        "serve" => serve::run_load(preset(smoke, serve::LoadConfig::smoke)).report(),
        "surge" => surge::run_surge(preset(smoke, surge::SurgeConfig::smoke)).report(),
        _ => return None,
    })
}
