//! Surge profiles: the shape of a hospital traffic burst.
//!
//! The access-log literature the paper builds on (Rostad & Edsburg,
//! ACSAC 2006) shows exception-based access is routine, not rare — and
//! during an incident it spikes together with overall load: a mass
//! casualty event multiplies request volume 10–100× while *raising* the
//! break-the-glass share, exactly when a policy-decision service is
//! least able to afford queueing collapse. A [`SurgeProfile`] captures
//! that shape declaratively so the serve-layer surge bench
//! (`prima-bench --suite surge`) and chaos suites can drive realistic
//! overload instead of a flat uniform blast.

use rand::rngs::StdRng;
use rand::Rng;

/// The declarative shape of a traffic surge: how far offered load
/// exceeds capacity, how much of it is break-the-glass, and the latency
/// budgets each lane carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SurgeProfile {
    /// Target offered-load multiple of service capacity (≥ 1.0).
    pub surge_factor: f64,
    /// Fraction of requests that are emergency (break-the-glass) in
    /// `[0, 1]`. Elevated during incidents.
    pub emergency_share: f64,
    /// Deadline budget carried by bulk requests, in microseconds.
    pub bulk_deadline_us: u64,
    /// Deadline budget carried by emergency requests, in microseconds.
    /// Generous relative to bulk: the requirement is *certainty*, not
    /// speed — an emergency decision must never be shed or expired.
    pub emergency_deadline_us: u64,
}

impl SurgeProfile {
    /// Mass-casualty incident: 25× load with one request in five
    /// break-the-glass — the canonical worst case the overload design
    /// must survive.
    pub fn mass_casualty() -> Self {
        Self {
            surge_factor: 25.0,
            emergency_share: 0.20,
            bulk_deadline_us: 5_000,
            emergency_deadline_us: 50_000,
        }
    }

    /// Samples whether the next request is emergency (break-the-glass).
    pub fn is_emergency(&self, rng: &mut StdRng) -> bool {
        rng.gen::<f64>() < self.emergency_share
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn emergency_sampling_tracks_the_share() {
        let profile = SurgeProfile::mass_casualty();
        let mut rng = StdRng::seed_from_u64(7);
        let hits = (0..10_000)
            .filter(|_| profile.is_emergency(&mut rng))
            .count();
        let share = hits as f64 / 10_000.0;
        assert!(
            (share - profile.emergency_share).abs() < 0.02,
            "share {share}"
        );
    }
}
