//! Training windows.
//!
//! Section 4.3: "we assume that there is a training period, where a
//! reasonable amount of information is collected in the audit log. This
//! training period is totally dependent on the particular healthcare
//! entity deploying the system." Refinement therefore runs over a *window*
//! of the trail; a store scan reads only the rows inside it.

/// A half-open time window `[start, end)` over audit timestamps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrainingWindow {
    /// Inclusive start.
    pub start: i64,
    /// Exclusive end.
    pub end: i64,
}

impl TrainingWindow {
    /// Creates a window; `start` must not exceed `end`.
    pub fn new(start: i64, end: i64) -> Self {
        assert!(start <= end, "window start must not exceed end");
        Self { start, end }
    }

    /// The trailing window of length `duration` ending at `now`
    /// (exclusive).
    pub fn trailing(now: i64, duration: i64) -> Self {
        Self::new(now.saturating_sub(duration), now)
    }

    /// Window length.
    pub fn duration(&self) -> i64 {
        self.end - self.start
    }

    /// True iff `time` falls inside the window.
    pub fn contains(&self, time: i64) -> bool {
        time >= self.start && time < self.end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_contains_half_open() {
        let w = TrainingWindow::new(5, 20);
        assert!(w.contains(5));
        assert!(w.contains(19));
        assert!(!w.contains(20));
        assert!(!w.contains(4));
        assert_eq!(w.duration(), 15);
    }

    #[test]
    fn trailing_window_extends_before_epoch() {
        // Timestamps are an arbitrary epoch; a window reaching before it is
        // fine (it just matches nothing there). Saturation only guards the
        // i64 extremes.
        let w = TrainingWindow::trailing(10, 100);
        assert_eq!(w.start, -90);
        assert_eq!(w.end, 10);
        let extreme = TrainingWindow::trailing(i64::MIN + 5, 100);
        assert_eq!(extreme.start, i64::MIN);
    }

    #[test]
    #[should_panic(expected = "window start")]
    fn inverted_window_panics() {
        TrainingWindow::new(10, 5);
    }
}
