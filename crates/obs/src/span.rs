//! Hierarchical spans: scoped RAII timers with parent/child nesting and
//! per-span counters.
//!
//! A [`Span`] is created with [`crate::span`](fn@crate::span); while it lives, spans opened
//! on the same thread become its children (their `path` is prefixed with the
//! parent chain, `"a/b/c"` style). Dropping the span records its duration
//! into the histogram `span.<name>` and emits a `"span"` event carrying the
//! full path, the duration in microseconds, and any per-span counters.
//!
//! When no collector is installed, [`crate::span`](fn@crate::span) returns a no-op guard
//! without reading the clock or allocating.

use crate::event::Event;
use crate::Collector;
use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::Arc;
use std::time::Instant;

thread_local! {
    /// Paths of the enabled spans currently open on this thread.
    static SPAN_STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// A scoped timer; see the module docs. Must be dropped on the thread that
/// created it (enforced by `!Send`).
pub struct Span {
    inner: Option<SpanInner>,
    /// Spans manipulate a thread-local stack, so they must not cross
    /// threads.
    _not_send: PhantomData<*const ()>,
}

struct SpanInner {
    name: &'static str,
    path: String,
    depth: usize,
    start: Instant,
    counters: Vec<(&'static str, u64)>,
    collector: Arc<Collector>,
}

impl Span {
    /// A disabled span: every operation is a no-op.
    pub(crate) fn noop() -> Self {
        Span { inner: None, _not_send: PhantomData }
    }

    /// Opens a span under the current thread's innermost open span.
    pub(crate) fn enter(name: &'static str, collector: Arc<Collector>) -> Self {
        let (path, depth) = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let path = match stack.last() {
                Some(parent) => format!("{parent}/{name}"),
                None => name.to_string(),
            };
            stack.push(path.clone());
            (path, stack.len())
        });
        Span {
            inner: Some(SpanInner {
                name,
                path,
                depth,
                start: Instant::now(),
                counters: Vec::new(),
                collector,
            }),
            _not_send: PhantomData,
        }
    }

    /// Whether this span is live (a collector was installed at creation).
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The full `parent/child` path (empty for disabled spans).
    pub fn path(&self) -> &str {
        self.inner.as_ref().map_or("", |i| i.path.as_str())
    }

    /// Adds `n` to a per-span counter, reported in the span's end event.
    pub fn add(&mut self, key: &'static str, n: u64) {
        let Some(inner) = &mut self.inner else { return };
        match inner.counters.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => *v += n,
            None => inner.counters.push((key, n)),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else { return };
        let seconds = inner.start.elapsed().as_secs_f64();
        // Unwind this span and anything left open beneath it (a child
        // leaked across scopes must not corrupt deeper frames).
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            stack.truncate(inner.depth.saturating_sub(1));
        });
        let registry = inner.collector.registry();
        registry.histogram(&format!("span.{}", inner.name)).record(seconds);
        let mut event = Event::new("span", &inner.path, inner.collector.now_us())
            .with("seconds", seconds)
            .with("depth", inner.depth);
        for (key, value) in inner.counters {
            event = event.with(key, value);
        }
        inner.collector.emit(event);
    }
}
