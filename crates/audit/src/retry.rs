//! Retry policy and per-source circuit breaker for federated fetches.
//!
//! Both are deterministic on purpose. Backoff jitter comes from a hash
//! of `(seed, source, attempt)` rather than a wall-clock RNG, and the
//! breaker advances on *consolidation rounds* (a logical clock) rather
//! than on real time — so every chaos test replays bit-for-bit, and the
//! same fault script always produces the same fetch schedule.
//!
//! Time inside a fetch attempt is likewise modeled, not measured: a
//! [`crate::LogSource`] *declares* the latency of each response, and the
//! policy compares that declaration against its per-attempt timeout and
//! overall deadline. A production transport would substitute measured
//! wall-clock durations; nothing else changes.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Duration;

/// Bounded exponential backoff with deterministic jitter, a per-attempt
/// timeout, and an overall deadline.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Maximum fetch attempts per consolidation round (≥ 1).
    pub max_attempts: u32,
    /// Backoff before attempt `n + 1` starts at `base_backoff · 2ⁿ`…
    pub base_backoff: Duration,
    /// …capped at `max_backoff` before jitter is added.
    pub max_backoff: Duration,
    /// Deterministic jitter: up to half the capped backoff, keyed by
    /// `(jitter_seed, source, attempt)`.
    pub jitter_seed: u64,
    /// An attempt whose declared latency exceeds this is a timeout.
    pub attempt_timeout: Duration,
    /// Total budget (latencies + backoffs) for one source per round.
    pub deadline: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 4,
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
            jitter_seed: 0,
            attempt_timeout: Duration::from_millis(500),
            deadline: Duration::from_secs(5),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (one attempt, generous timeouts).
    pub fn no_retries() -> Self {
        Self {
            max_attempts: 1,
            ..Self::default()
        }
    }

    /// Sets the jitter seed (chaos suites sweep this).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.jitter_seed = seed;
        self
    }

    /// The backoff to wait before retrying after failed attempt
    /// `attempt` (0-based): `min(base · 2^attempt, max)` plus
    /// deterministic jitter in `[0, capped/2]`.
    pub fn backoff_before_retry(&self, source: &str, attempt: u32) -> Duration {
        let exp = self
            .base_backoff
            .saturating_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX));
        let capped = exp.min(self.max_backoff);
        let half = capped.as_nanos() as u64 / 2;
        if half == 0 {
            return capped;
        }
        let mut hasher = DefaultHasher::new();
        self.jitter_seed.hash(&mut hasher);
        source.hash(&mut hasher);
        attempt.hash(&mut hasher);
        let jitter = Duration::from_nanos(hasher.finish() % (half + 1));
        capped + jitter
    }
}

/// Breaker tuning.
#[derive(Debug, Clone, Copy)]
pub struct BreakerConfig {
    /// Consecutive failed rounds before the breaker opens.
    pub failure_threshold: u32,
    /// Rounds the breaker stays open before allowing a half-open probe.
    pub cooldown_rounds: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self {
            failure_threshold: 3,
            cooldown_rounds: 2,
        }
    }
}

/// The breaker's observable state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Fetches flow normally; tracks consecutive failures.
    Closed,
    /// Fetches are skipped until the cooldown expires.
    Open,
    /// One probe fetch is allowed; its outcome decides the next state.
    HalfOpen,
}

impl std::fmt::Display for BreakerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        };
        write!(f, "{s}")
    }
}

/// Per-source circuit breaker over a logical round clock.
///
/// `closed → open` after `failure_threshold` consecutive failed rounds;
/// `open → half-open` once `cooldown_rounds` rounds have elapsed;
/// `half-open → closed` on a successful probe, back to `open` on a
/// failed one.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
    open_until_round: u64,
}

impl CircuitBreaker {
    /// A closed breaker.
    pub fn new(config: BreakerConfig) -> Self {
        Self {
            config,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            open_until_round: 0,
        }
    }

    /// The tuning the breaker was built with.
    pub fn config(&self) -> BreakerConfig {
        self.config
    }

    /// Current state (transitions happen in [`Self::allows`] and the
    /// record calls, never spontaneously).
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Whether a fetch may be attempted in `round`. An open breaker
    /// whose cooldown has elapsed transitions to half-open and allows
    /// exactly the probe.
    pub fn allows(&mut self, round: u64) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                if round >= self.open_until_round {
                    self.state = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Records a successful round: half-open probes close the breaker,
    /// and the failure streak resets.
    pub fn record_success(&mut self) {
        self.state = BreakerState::Closed;
        self.consecutive_failures = 0;
    }

    /// Records a failed round in `round`: a half-open probe reopens
    /// immediately; a closed breaker opens once the streak reaches the
    /// threshold.
    pub fn record_failure(&mut self, round: u64) {
        match self.state {
            BreakerState::HalfOpen => {
                self.state = BreakerState::Open;
                self.open_until_round = round + self.config.cooldown_rounds;
            }
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.config.failure_threshold {
                    self.state = BreakerState::Open;
                    self.open_until_round = round + self.config.cooldown_rounds;
                }
            }
            BreakerState::Open => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_is_capped_and_deterministic() {
        let p = RetryPolicy {
            base_backoff: Duration::from_millis(100),
            max_backoff: Duration::from_millis(400),
            ..RetryPolicy::default()
        };
        let b0 = p.backoff_before_retry("icu", 0);
        let b1 = p.backoff_before_retry("icu", 1);
        let b9 = p.backoff_before_retry("icu", 9);
        // Base values 100/200/400 (capped) plus jitter ≤ half the cap.
        assert!(b0 >= Duration::from_millis(100) && b0 <= Duration::from_millis(150));
        assert!(b1 >= Duration::from_millis(200) && b1 <= Duration::from_millis(300));
        assert!(b9 >= Duration::from_millis(400) && b9 <= Duration::from_millis(600));
        // Deterministic: same inputs, same jitter.
        assert_eq!(b0, p.backoff_before_retry("icu", 0));
        // Different sources de-synchronize (jitter differs, overwhelmingly).
        let other = p.backoff_before_retry("billing", 0);
        assert_ne!(b0, other, "distinct sources should not thundering-herd");
    }

    #[test]
    fn huge_attempt_counts_do_not_overflow() {
        let p = RetryPolicy::default();
        let b = p.backoff_before_retry("s", u32::MAX);
        assert!(b <= p.max_backoff + p.max_backoff / 2 + Duration::from_nanos(1));
    }

    #[test]
    fn breaker_walks_closed_open_halfopen_closed() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 2,
            cooldown_rounds: 3,
        });
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allows(1));
        b.record_failure(1);
        assert_eq!(b.state(), BreakerState::Closed, "one failure is tolerated");
        assert!(b.allows(2));
        b.record_failure(2);
        assert_eq!(b.state(), BreakerState::Open);
        // Cooling down: rounds 3 and 4 are skipped.
        assert!(!b.allows(3));
        assert!(!b.allows(4));
        // Round 5: half-open probe allowed.
        assert!(b.allows(5));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn failed_probe_reopens() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 1,
            cooldown_rounds: 2,
        });
        b.record_failure(1);
        assert_eq!(b.state(), BreakerState::Open);
        assert!(b.allows(3));
        b.record_failure(3);
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allows(4));
        assert!(b.allows(5));
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 2,
            cooldown_rounds: 1,
        });
        b.record_failure(1);
        b.record_success();
        b.record_failure(2);
        assert_eq!(b.state(), BreakerState::Closed, "streak was reset");
    }
}
