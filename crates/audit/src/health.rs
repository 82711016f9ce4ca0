//! Federation health: what the consolidated view is actually made of.
//!
//! A degraded consolidation is only trustworthy if it says *how*
//! degraded it is. [`FederationHealth`] records, per source, what was
//! fetched versus expected, what was quarantined, and where the circuit
//! breaker stands — enough to derive a completeness bound
//! ([`prima_model::CompletenessBound`]) for any coverage number computed
//! over the degraded view.

use crate::retry::BreakerState;
use prima_model::CompletenessBound;
use std::fmt;

/// How one source fared in the latest consolidation round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceStatus {
    /// Fetched everything it advertised.
    Healthy,
    /// Answered, but returned fewer entries than advertised (truncated
    /// tail) or some records were quarantined.
    Degraded,
    /// Did not answer this round; the consolidated view holds its last
    /// good fetch (possibly empty).
    Unavailable,
    /// The breaker was open; no fetch was attempted this round.
    CircuitOpen,
}

impl fmt::Display for SourceStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SourceStatus::Healthy => "healthy",
            SourceStatus::Degraded => "degraded",
            SourceStatus::Unavailable => "unavailable",
            SourceStatus::CircuitOpen => "circuit-open",
        };
        write!(f, "{s}")
    }
}

/// Per-source health after a consolidation round.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceHealth {
    /// Source name.
    pub name: String,
    /// Outcome of the round.
    pub status: SourceStatus,
    /// Well-formed entries currently contributed to the consolidated
    /// view (from this round's fetch, or the last good fetch if the
    /// source was unreachable).
    pub fetched: usize,
    /// Entries the source is believed to hold (its latest advertised
    /// count; for an unreachable source, the last known count).
    pub expected: usize,
    /// Records quarantined from this source's latest fetch. Quarantined
    /// records are advertised-but-not-consolidated, so they are already
    /// inside `expected − fetched`; this field breaks out how much of
    /// the gap is corruption rather than truncation or outage.
    pub quarantined: usize,
    /// Fetch attempts spent on this source in the latest round.
    pub attempts: u32,
    /// Circuit-breaker state after the round.
    pub breaker: BreakerState,
}

impl SourceHealth {
    /// Entries this source is known to hold but which are absent from
    /// the consolidated view (missing tail, unreachable site, or
    /// quarantined records — all inside `expected − fetched`).
    pub fn missing(&self) -> usize {
        self.expected.saturating_sub(self.fetched)
    }
}

/// Federation-wide health after a consolidation round.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FederationHealth {
    /// The round this report describes (1-based; 0 = never synced).
    pub round: u64,
    /// Per-source reports, in registration order.
    pub sources: Vec<SourceHealth>,
}

impl FederationHealth {
    /// True iff every source fetched completely with nothing
    /// quarantined — coverage over this view is exact.
    pub fn all_healthy(&self) -> bool {
        self.sources
            .iter()
            .all(|s| s.status == SourceStatus::Healthy && s.missing() == 0)
    }

    /// Total entries known to exist but absent from the consolidated
    /// view.
    pub fn missing_entries(&self) -> usize {
        self.sources.iter().map(SourceHealth::missing).sum()
    }

    /// Total entries contributed to the consolidated view.
    pub fn observed_entries(&self) -> usize {
        self.sources.iter().map(|s| s.fetched).sum()
    }

    /// Total quarantined records across sources (latest fetches).
    pub fn quarantined_entries(&self) -> usize {
        self.sources.iter().map(|s| s.quarantined).sum()
    }

    /// Fraction of the believed-complete trail that is present:
    /// `observed ÷ (observed + missing)`, 1 when nothing is known
    /// missing.
    pub fn completeness(&self) -> f64 {
        let observed = self.observed_entries();
        let total = observed + self.missing_entries();
        if total == 0 {
            1.0
        } else {
            observed as f64 / total as f64
        }
    }

    /// The completeness bound for an entry-weighted coverage value of
    /// `covered` covered entries out of the `observed` entries this
    /// health report describes.
    pub fn bound_for(&self, covered: usize, observed: usize) -> CompletenessBound {
        CompletenessBound::over(covered, observed, self.missing_entries())
    }

    /// The report for one source, by name.
    pub fn source(&self, name: &str) -> Option<&SourceHealth> {
        self.sources.iter().find(|s| s.name == name)
    }
}

impl fmt::Display for FederationHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "federation round {}: {:.1}% complete ({} observed, {} missing, {} quarantined)",
            self.round,
            self.completeness() * 100.0,
            self.observed_entries(),
            self.missing_entries(),
            self.quarantined_entries(),
        )?;
        for s in &self.sources {
            writeln!(
                f,
                "  {} [{}] fetched {}/{} quarantined {} breaker {}",
                s.name, s.status, s.fetched, s.expected, s.quarantined, s.breaker
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn health() -> FederationHealth {
        FederationHealth {
            round: 3,
            sources: vec![
                SourceHealth {
                    name: "icu".into(),
                    status: SourceStatus::Healthy,
                    fetched: 10,
                    expected: 10,
                    quarantined: 0,
                    attempts: 1,
                    breaker: BreakerState::Closed,
                },
                SourceHealth {
                    name: "lab".into(),
                    status: SourceStatus::Degraded,
                    fetched: 6,
                    expected: 9,
                    quarantined: 1,
                    attempts: 2,
                    breaker: BreakerState::Closed,
                },
            ],
        }
    }

    #[test]
    fn missing_counts_tail_and_quarantine() {
        let h = health();
        assert!(!h.all_healthy());
        assert_eq!(h.observed_entries(), 16);
        assert_eq!(h.missing_entries(), 3, "2 truncated + 1 quarantined");
        assert_eq!(h.quarantined_entries(), 1);
        assert!((h.completeness() - 16.0 / 19.0).abs() < 1e-12);
    }

    #[test]
    fn bound_for_widens_by_missing() {
        let h = health();
        let b = h.bound_for(8, 16);
        assert!((b.lower - 8.0 / 19.0).abs() < 1e-12);
        assert!((b.upper - 11.0 / 19.0).abs() < 1e-12);
        assert!(b.contains(0.5));
    }

    #[test]
    fn fully_healthy_is_exact() {
        let mut h = health();
        h.sources.truncate(1);
        assert!(h.all_healthy());
        assert_eq!(h.completeness(), 1.0);
        assert!(h.bound_for(5, 10).is_exact());
    }

    #[test]
    fn lookup_and_display() {
        let h = health();
        assert_eq!(h.source("lab").unwrap().fetched, 6);
        assert!(h.source("nope").is_none());
        let text = h.to_string();
        assert!(text.contains("84.2% complete"));
        assert!(text.contains("lab [degraded] fetched 6/9"));
    }
}
