//! # gs-obs
//!
//! Structured observability for the GoalSpotter pipeline: hierarchical
//! spans (scoped RAII timers), a metrics registry (counters, gauges,
//! fixed-bucket histograms with percentile summaries), and pluggable sinks
//! (in-memory, human-readable report, JSONL).
//!
//! It is also the base crate every other workspace crate builds on, so it
//! holds the two std-only utilities they all share: the JSON codec
//! ([`json`]) and the seeded random-number generator ([`Rng`]).
//!
//! ## Design
//!
//! A process has at most one installed [`Collector`]. Instrumented code
//! calls the free functions in this module ([`span`], [`counter`],
//! [`observe`], [`emit`], ...), which short-circuit on a single relaxed
//! atomic load when nothing is installed — the instrumented hot paths cost
//! nothing in production unless someone is watching.
//!
//! ```
//! let sink = gs_obs::MemorySink::new();
//! gs_obs::install(gs_obs::Collector::with_sink(Box::new(sink.clone())));
//! {
//!     let mut span = gs_obs::span("demo");
//!     span.add("items", 3);
//!     gs_obs::counter("demo.calls", 1);
//! }
//! let collector = gs_obs::uninstall().expect("was installed");
//! assert_eq!(collector.registry().counter("demo.calls").get(), 1);
//! assert_eq!(sink.of_kind("span").len(), 1);
//! ```

#![warn(missing_docs)]

pub mod clock;
pub mod event;
pub mod json;
pub mod metrics;
pub mod prof;
pub mod report;
pub mod rng;
pub mod sink;
pub mod span;

pub use clock::{time_it, Stopwatch};
pub use event::{Event, FieldValue};
pub use json::Json;
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot, Registry};
pub use report::render_report;
pub use rng::Rng;
pub use sink::{JsonlSink, MemorySink, Sink};
pub use span::Span;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// The telemetry hub: a metrics [`Registry`] plus any number of event
/// [`Sink`]s, with a shared epoch for event timestamps.
pub struct Collector {
    epoch: Instant,
    registry: Registry,
    sinks: Vec<Box<dyn Sink>>,
}

impl Default for Collector {
    fn default() -> Self {
        Self::new()
    }
}

impl Collector {
    /// A collector with metrics only (no event sinks).
    pub fn new() -> Self {
        Collector { epoch: Instant::now(), registry: Registry::new(), sinks: Vec::new() }
    }

    /// A collector with one event sink.
    pub fn with_sink(sink: Box<dyn Sink>) -> Self {
        let mut c = Self::new();
        c.add_sink(sink);
        c
    }

    /// Adds an event sink (builder-time, before [`install`]).
    pub fn add_sink(&mut self, sink: Box<dyn Sink>) {
        self.sinks.push(sink);
    }

    /// The metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Microseconds elapsed since the collector was created.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Delivers an event to every sink.
    pub fn emit(&self, event: Event) {
        for sink in &self.sinks {
            sink.record(&event);
        }
    }

    /// Flushes every sink.
    pub fn flush(&self) {
        for sink in &self.sinks {
            sink.flush();
        }
    }

    /// Renders the human-readable end-of-run report.
    pub fn report(&self) -> String {
        report::render_report(&self.registry.snapshot())
    }
}

/// Fast-path switch: true iff a collector is installed.
static ENABLED: AtomicBool = AtomicBool::new(false);
/// The installed collector (if any).
static COLLECTOR: RwLock<Option<Arc<Collector>>> = RwLock::new(None);

/// Whether a collector is installed. One relaxed atomic load — this is the
/// only cost instrumented code pays when telemetry is off.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Installs `collector` as the process-global telemetry hub, replacing any
/// previous one, and returns a handle to it.
pub fn install(collector: Collector) -> Arc<Collector> {
    let arc = Arc::new(collector);
    *COLLECTOR.write().unwrap_or_else(|e| e.into_inner()) = Some(Arc::clone(&arc));
    ENABLED.store(true, Ordering::SeqCst);
    arc
}

/// Uninstalls the global collector, flushing its sinks. Returns the
/// collector so callers can read final metrics.
pub fn uninstall() -> Option<Arc<Collector>> {
    ENABLED.store(false, Ordering::SeqCst);
    let taken = COLLECTOR.write().unwrap_or_else(|e| e.into_inner()).take();
    if let Some(c) = &taken {
        c.flush();
    }
    taken
}

/// Runs `f` against the installed collector, or returns `None` without
/// touching the lock when telemetry is off.
#[inline]
pub fn with_collector<R>(f: impl FnOnce(&Collector) -> R) -> Option<R> {
    if !enabled() {
        return None;
    }
    let guard = COLLECTOR.read().unwrap_or_else(|e| e.into_inner());
    guard.as_ref().map(|c| f(c))
}

/// Opens a hierarchical span named `name`; a no-op guard when telemetry is
/// off.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span::noop();
    }
    let guard = COLLECTOR.read().unwrap_or_else(|e| e.into_inner());
    match guard.as_ref() {
        Some(c) => Span::enter(name, Arc::clone(c)),
        None => Span::noop(),
    }
}

/// Adds `delta` to the counter `name`.
#[inline]
pub fn counter(name: &str, delta: u64) {
    with_collector(|c| c.registry().counter(name).add(delta));
}

/// Sets the gauge `name`.
#[inline]
pub fn gauge(name: &str, value: f64) {
    with_collector(|c| c.registry().gauge(name).set(value));
}

/// Records `value` into the histogram `name` (default duration buckets).
#[inline]
pub fn observe(name: &str, value: f64) {
    with_collector(|c| c.registry().histogram(name).record(value));
}

/// Records `value` into the histogram `name`, creating it with the given
/// bucket `bounds` on first use (bounds are ignored once the histogram
/// exists, matching [`Registry::histogram_with`]).
#[inline]
pub fn observe_with(name: &str, value: f64, bounds: &[f64]) {
    with_collector(|c| c.registry().histogram_with(name, bounds).record(value));
}

/// Emits a structured event to every installed sink.
#[inline]
pub fn emit(kind: &str, name: &str, fields: Vec<(&str, FieldValue)>) {
    with_collector(|c| {
        let mut event = Event::new(kind, name, c.now_us());
        for (key, value) in fields {
            event.fields.push((key.to_string(), value));
        }
        c.emit(event);
    });
}

/// A snapshot of the installed collector's metrics.
pub fn snapshot() -> Option<MetricsSnapshot> {
    with_collector(|c| c.registry().snapshot())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes tests that install the process-global collector.
    static GLOBAL_TEST_LOCK: Mutex<()> = Mutex::new(());

    fn with_global<R>(f: impl FnOnce() -> R) -> R {
        let _guard = GLOBAL_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let _ = uninstall();
        let out = f();
        let _ = uninstall();
        out
    }

    #[test]
    fn disabled_free_functions_are_noops() {
        with_global(|| {
            assert!(!enabled());
            counter("x", 1);
            gauge("g", 1.0);
            observe("h", 1.0);
            emit("k", "n", vec![]);
            let mut s = span("dead");
            s.add("items", 1);
            assert!(!s.is_enabled());
            assert_eq!(s.path(), "");
            drop(s);
            assert!(snapshot().is_none());
        });
    }

    #[test]
    fn install_enables_and_uninstall_returns_collector() {
        with_global(|| {
            let handle = install(Collector::new());
            assert!(enabled());
            counter("hits", 2);
            counter("hits", 3);
            assert_eq!(handle.registry().counter("hits").get(), 5);
            let back = uninstall().expect("collector");
            assert!(!enabled());
            assert_eq!(back.registry().counter("hits").get(), 5);
            assert!(uninstall().is_none());
        });
    }

    #[test]
    fn spans_nest_and_emit_ordered_events() {
        with_global(|| {
            let sink = MemorySink::new();
            install(Collector::with_sink(Box::new(sink.clone())));
            {
                let _outer = span("develop");
                {
                    let mut inner = span("tokenize");
                    inner.add("tokens", 10);
                    inner.add("tokens", 5);
                    assert_eq!(inner.path(), "develop/tokenize");
                }
                let _sibling = span("train");
                assert_eq!(_sibling.path(), "develop/train");
            }
            // A root span opened after everything closed has no parent.
            {
                let s = span("extract");
                assert_eq!(s.path(), "extract");
            }
            let events = sink.events();
            let paths: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
            // Children close before parents.
            assert_eq!(paths, vec!["develop/tokenize", "develop/train", "develop", "extract"]);
            // Per-span counters merged into the end event.
            let tokenize = &events[0];
            assert_eq!(tokenize.field("tokens").and_then(FieldValue::as_f64), Some(15.0));
            // Durations are recorded as histograms under span.<name>.
            let collector = uninstall().expect("collector");
            let snap = collector.registry().snapshot();
            for name in ["span.develop", "span.tokenize", "span.train", "span.extract"] {
                assert_eq!(snap.histogram(name).expect(name).total, 1, "{name}");
            }
            // Timestamps are monotone in emission order.
            for pair in events.windows(2) {
                assert!(pair[0].at_us <= pair[1].at_us);
            }
        });
    }

    #[test]
    fn span_durations_are_positive_and_nested_spans_are_shorter() {
        with_global(|| {
            install(Collector::new());
            {
                let _outer = span("outer");
                std::thread::sleep(std::time::Duration::from_millis(2));
                let _inner = span("inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            let collector = uninstall().expect("collector");
            let snap = collector.registry().snapshot();
            let outer = snap.histogram("span.outer").expect("outer");
            let inner = snap.histogram("span.inner").expect("inner");
            assert!(outer.max >= inner.max, "outer {} inner {}", outer.max, inner.max);
            assert!(inner.min > 0.0);
        });
    }

    #[test]
    fn events_flow_to_all_sinks() {
        with_global(|| {
            let a = MemorySink::new();
            let b = MemorySink::new();
            let mut collector = Collector::with_sink(Box::new(a.clone()));
            collector.add_sink(Box::new(b.clone()));
            install(collector);
            emit("tokenize", "text.tokenize", vec![("pieces", 12usize.into())]);
            uninstall();
            assert_eq!(a.len(), 1);
            assert_eq!(b.len(), 1);
            assert_eq!(a.events()[0].field("pieces").and_then(FieldValue::as_f64), Some(12.0));
        });
    }

    #[test]
    fn reinstall_replaces_collector() {
        with_global(|| {
            install(Collector::new());
            counter("c", 1);
            let first = install(Collector::new());
            counter("c", 1);
            assert_eq!(first.registry().counter("c").get(), 1);
        });
    }
}
