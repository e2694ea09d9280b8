//! Wall-clock timing plus the "simulated minutes" accounting used for the
//! LLM-prompting baselines' efficiency column (see DESIGN.md).
//!
//! This is the single source of wall-clock truth for the workspace: span
//! durations ([`crate::Span`]) read the same monotonic clock.

use std::time::{Duration, Instant};

/// A stopwatch that can also accumulate *simulated* time, so baselines that
/// stand in for remote LLM calls can charge a per-call latency without
/// actually sleeping.
#[derive(Clone, Debug)]
pub struct Stopwatch {
    started: Instant,
    simulated: Duration,
}

impl Default for Stopwatch {
    fn default() -> Self {
        Self::start()
    }
}

impl Stopwatch {
    /// Starts a stopwatch now.
    pub fn start() -> Self {
        Stopwatch { started: Instant::now(), simulated: Duration::ZERO }
    }

    /// Adds simulated time (e.g. one LLM round-trip).
    pub fn charge(&mut self, d: Duration) {
        self.simulated += d;
    }

    /// Real elapsed wall-clock time.
    pub fn elapsed_real(&self) -> Duration {
        self.started.elapsed()
    }

    /// Simulated time charged so far.
    pub fn elapsed_simulated(&self) -> Duration {
        self.simulated
    }

    /// Real + simulated time, the number reported in Table 4's T column.
    pub fn elapsed_total(&self) -> Duration {
        self.started.elapsed() + self.simulated
    }
}

/// Measures the wall-clock seconds a closure takes, returning its result.
pub fn time_it<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_accumulates_simulated_time() {
        let mut sw = Stopwatch::start();
        sw.charge(Duration::from_secs(3));
        sw.charge(Duration::from_secs(4));
        assert_eq!(sw.elapsed_simulated(), Duration::from_secs(7));
        assert!(sw.elapsed_total() >= Duration::from_secs(7));
    }

    #[test]
    fn time_it_returns_result_and_seconds() {
        let (value, secs) = time_it(|| 6 * 7);
        assert_eq!(value, 42);
        assert!(secs >= 0.0);
    }
}
