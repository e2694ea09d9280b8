//! Op-level kernel profiler: per-op wall time, flop, and byte accounting
//! with roofline columns and flamegraph-compatible collapsed-stack output.
//!
//! Where [`crate::span`](fn@crate::span) answers "which pipeline stage is slow", this module
//! answers "which *kernel* the milliseconds go to": every instrumented op
//! (matmul, softmax, layer-norm, ...) records its wall time together with an
//! estimate of the floating-point work and memory traffic it performed, keyed
//! by the provenance path it ran under (`l0.attn`, `head`, ...). The
//! aggregate exposes % of total, flops/s, and arithmetic intensity
//! (flops/byte) per op — the inputs to a roofline argument about whether a
//! kernel is compute- or bandwidth-bound.
//!
//! Profiling is off by default and costs instrumented code one relaxed
//! atomic load (or one plain-bool branch where call sites latch the flag,
//! as the tape does) while disabled. Enabling it is global to the process:
//! records from every thread — including gs-par pool workers — merge into
//! one table behind a mutex, so profiling mode is a measurement tool, not
//! something to leave on in production serving.
//!
//! ```
//! gs_obs::prof::reset();
//! gs_obs::prof::set_enabled(true);
//! {
//!     let _scope = gs_obs::prof::scope("demo");
//!     let mut op = gs_obs::prof::op("matmul");
//!     op.set_cost(gs_obs::prof::Cost::new(1_000_000, 12_000));
//! }
//! gs_obs::prof::set_enabled(false);
//! let snap = gs_obs::prof::snapshot();
//! assert_eq!(snap.rows.len(), 1);
//! assert_eq!(snap.rows[0].path, "demo");
//! assert_eq!(snap.rows[0].op, "matmul");
//! ```

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Fast-path switch: true iff profiling is on.
static PROF_ENABLED: AtomicBool = AtomicBool::new(false);

/// Per-`(path, op)` accumulators. A plain global mutex: profiling mode
/// optimizes for attribution fidelity, not throughput.
static STORE: Mutex<BTreeMap<(String, &'static str), StatCell>> = Mutex::new(BTreeMap::new());

#[derive(Default, Clone, Copy)]
struct StatCell {
    calls: u64,
    ns: u64,
    flops: u64,
    bytes: u64,
}

thread_local! {
    /// Full profiler scope paths currently open on this thread.
    static PROF_PATH: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// Whether profiling is on. One relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    PROF_ENABLED.load(Ordering::Relaxed)
}

/// Turns profiling on or off process-wide. Accumulated stats are kept;
/// call [`reset`] to clear them.
pub fn set_enabled(on: bool) {
    PROF_ENABLED.store(on, Ordering::SeqCst);
}

/// Clears every accumulated op record.
pub fn reset() {
    STORE.lock().unwrap_or_else(|e| e.into_inner()).clear();
}

/// Estimated work performed by one op invocation: floating-point operations
/// and bytes moved between the kernel and memory. These are analytic
/// estimates from shapes (`2·m·k·n` flops for a matmul, ...), not hardware
/// counters; their job is ranking kernels and computing arithmetic
/// intensity, not cycle-exact accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Cost {
    /// Floating-point operations.
    pub flops: u64,
    /// Bytes read plus bytes written.
    pub bytes: u64,
}

impl Cost {
    /// A cost of `flops` floating-point ops and `bytes` bytes moved.
    pub const fn new(flops: u64, bytes: u64) -> Self {
        Cost { flops, bytes }
    }

    /// Zero work (bookkeeping-only ops).
    pub const fn zero() -> Self {
        Cost { flops: 0, bytes: 0 }
    }
}

/// RAII guard for a named profiler scope; ops recorded on this thread while
/// it lives are keyed under `parent.name`. Must stay on the creating thread
/// (it manipulates a thread-local stack).
pub struct ProfScope {
    pushed: bool,
    _not_send: PhantomData<*const ()>,
}

/// Opens a profiler scope named `name` on this thread; a no-op guard while
/// profiling is off. Nested scopes join with dots, matching the tape's
/// provenance paths (`scope("l0")` then `scope("attn")` keys ops under
/// `l0.attn`).
#[inline]
pub fn scope(name: &str) -> ProfScope {
    if !enabled() {
        return ProfScope { pushed: false, _not_send: PhantomData };
    }
    PROF_PATH.with(|stack| {
        let mut stack = stack.borrow_mut();
        let path = match stack.last() {
            Some(parent) => format!("{parent}.{name}"),
            None => name.to_string(),
        };
        stack.push(path);
    });
    ProfScope { pushed: true, _not_send: PhantomData }
}

impl Drop for ProfScope {
    fn drop(&mut self) {
        if self.pushed {
            PROF_PATH.with(|stack| {
                stack.borrow_mut().pop();
            });
        }
    }
}

/// RAII timer for one op invocation: created by [`op`] / [`op_at`], records
/// wall time and the [`Cost`] set via [`set_cost`](OpTimer::set_cost) when
/// dropped. The disabled form carries no state and records nothing.
pub struct OpTimer {
    inner: Option<OpTimerInner>,
}

struct OpTimerInner {
    op: &'static str,
    /// Explicit path; `None` resolves the thread's scope stack at drop.
    path: Option<String>,
    cost: Cost,
    start: Instant,
}

/// Starts timing op `name` under this thread's current profiler scope; a
/// no-op timer while profiling is off.
#[inline]
pub fn op(name: &'static str) -> OpTimer {
    if !enabled() {
        return OpTimer::noop();
    }
    OpTimer {
        inner: Some(OpTimerInner {
            op: name,
            path: None,
            cost: Cost::zero(),
            start: Instant::now(),
        }),
    }
}

/// Starts timing op `name` under an explicit `path`, ignoring the thread's
/// scope stack. The tape uses this to key ops by its own provenance scopes.
#[inline]
pub fn op_at(path: String, name: &'static str) -> OpTimer {
    if !enabled() {
        return OpTimer::noop();
    }
    OpTimer {
        inner: Some(OpTimerInner {
            op: name,
            path: Some(path),
            cost: Cost::zero(),
            start: Instant::now(),
        }),
    }
}

impl OpTimer {
    /// A timer that records nothing.
    #[inline]
    pub const fn noop() -> Self {
        OpTimer { inner: None }
    }

    /// Whether this timer will record (profiling was on at creation).
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Sets the work estimate reported with this invocation.
    #[inline]
    pub fn set_cost(&mut self, cost: Cost) {
        if let Some(inner) = &mut self.inner {
            inner.cost = cost;
        }
    }
}

impl Drop for OpTimer {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else { return };
        let ns = inner.start.elapsed().as_nanos() as u64;
        let path = match inner.path {
            Some(path) => path,
            None => current_path(),
        };
        record_raw(path, inner.op, ns, inner.cost);
    }
}

/// Runs `f` as op `op` under the explicit `path` when `on` is set (callers
/// latch [`enabled`] once per forward, so a mid-forward toggle is harmless
/// and the disabled path is one branch). Explicit paths let pool workers
/// record under scopes opened on the coordinating thread.
#[inline]
pub fn time_at<R>(on: bool, path: &str, op: &'static str, cost: Cost, f: impl FnOnce() -> R) -> R {
    if !on {
        return f();
    }
    let start = Instant::now();
    let out = f();
    record_at(path, op, start.elapsed().as_nanos() as u64, cost);
    out
}

/// Records one completed invocation of `op` under an explicit `path` with a
/// pre-measured duration. The tape's backward pass uses this: gradient arms
/// run far from the scope stack that was live during the forward pass, but
/// each node remembers its provenance path.
#[inline]
pub fn record_at(path: &str, op: &'static str, ns: u64, cost: Cost) {
    if !enabled() {
        return;
    }
    record_raw(path.to_string(), op, ns, cost);
}

fn current_path() -> String {
    PROF_PATH.with(|stack| stack.borrow().last().cloned()).unwrap_or_default()
}

fn record_raw(path: String, op: &'static str, ns: u64, cost: Cost) {
    let mut store = STORE.lock().unwrap_or_else(|e| e.into_inner());
    let cell = store.entry((path, op)).or_default();
    cell.calls += 1;
    cell.ns += ns;
    cell.flops += cost.flops;
    cell.bytes += cost.bytes;
}

/// One `(path, op)` aggregate in a [`ProfSnapshot`].
#[derive(Clone, Debug)]
pub struct ProfRow {
    /// Provenance path the op ran under (empty at the root).
    pub path: String,
    /// Op name (`matmul`, `softmax_last_dim.bwd`, ...).
    pub op: &'static str,
    /// Invocations.
    pub calls: u64,
    /// Total wall seconds.
    pub seconds: f64,
    /// Total estimated floating-point operations.
    pub flops: u64,
    /// Total estimated bytes moved.
    pub bytes: u64,
}

/// Per-op totals across every path, with roofline columns.
#[derive(Clone, Debug)]
pub struct OpTotal {
    /// Op name.
    pub op: &'static str,
    /// Invocations.
    pub calls: u64,
    /// Total wall seconds.
    pub seconds: f64,
    /// Fraction of the snapshot's total profiled seconds (0..=1).
    pub share: f64,
    /// Total estimated floating-point operations.
    pub flops: u64,
    /// Total estimated bytes moved.
    pub bytes: u64,
}

impl OpTotal {
    /// Achieved throughput in Gflop/s (0 when no time was recorded).
    pub fn gflops_per_sec(&self) -> f64 {
        if self.seconds > 0.0 {
            self.flops as f64 / self.seconds / 1e9
        } else {
            0.0
        }
    }

    /// Arithmetic intensity in flops per byte moved (the roofline x-axis;
    /// 0 when no bytes were recorded).
    pub fn intensity(&self) -> f64 {
        if self.bytes > 0 {
            self.flops as f64 / self.bytes as f64
        } else {
            0.0
        }
    }
}

/// A point-in-time copy of every op accumulator.
#[derive(Clone, Debug, Default)]
pub struct ProfSnapshot {
    /// One row per `(path, op)`, sorted by total seconds descending.
    pub rows: Vec<ProfRow>,
}

/// Snapshots the accumulated op records (profiling may stay on; records
/// landing after the snapshot are not included).
pub fn snapshot() -> ProfSnapshot {
    let store = STORE.lock().unwrap_or_else(|e| e.into_inner());
    let mut rows: Vec<ProfRow> = store
        .iter()
        .map(|((path, op), cell)| ProfRow {
            path: path.clone(),
            op,
            calls: cell.calls,
            seconds: cell.ns as f64 / 1e9,
            flops: cell.flops,
            bytes: cell.bytes,
        })
        .collect();
    drop(store);
    rows.sort_by(|a, b| {
        b.seconds.total_cmp(&a.seconds).then_with(|| (&a.path, a.op).cmp(&(&b.path, b.op)))
    });
    ProfSnapshot { rows }
}

impl ProfSnapshot {
    /// Total profiled wall seconds across every row.
    pub fn total_seconds(&self) -> f64 {
        self.rows.iter().map(|r| r.seconds).sum()
    }

    /// Aggregates rows by op across paths, sorted by seconds descending.
    pub fn by_op(&self) -> Vec<OpTotal> {
        let mut per_op: BTreeMap<&'static str, OpTotal> = BTreeMap::new();
        for row in &self.rows {
            let t = per_op.entry(row.op).or_insert(OpTotal {
                op: row.op,
                calls: 0,
                seconds: 0.0,
                share: 0.0,
                flops: 0,
                bytes: 0,
            });
            t.calls += row.calls;
            t.seconds += row.seconds;
            t.flops += row.flops;
            t.bytes += row.bytes;
        }
        let total = self.total_seconds();
        let mut out: Vec<OpTotal> = per_op.into_values().collect();
        if total > 0.0 {
            for t in &mut out {
                t.share = t.seconds / total;
            }
        }
        out.sort_by(|a, b| b.seconds.total_cmp(&a.seconds).then_with(|| a.op.cmp(b.op)));
        out
    }

    /// Flamegraph-compatible collapsed-stack text: one `path;op value` line
    /// per row, value in microseconds. Feed to standard flamegraph tooling
    /// (`flamegraph.pl`, speedscope, ...) as-is.
    pub fn collapsed(&self) -> String {
        let mut lines: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                let us = r.seconds * 1e6;
                if r.path.is_empty() {
                    format!("{} {}", r.op, us.round() as u64)
                } else {
                    format!("{};{} {}", r.path, r.op, us.round() as u64)
                }
            })
            .collect();
        lines.sort();
        let mut out = lines.join("\n");
        if !out.is_empty() {
            out.push('\n');
        }
        out
    }

    /// Human-readable per-op table with roofline columns.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<22} {:>9} {:>12} {:>7} {:>9} {:>11}",
            "op", "calls", "seconds", "%total", "gflop/s", "flops/byte"
        );
        for t in self.by_op() {
            let _ = writeln!(
                out,
                "{:<22} {:>9} {:>12.6} {:>6.1}% {:>9.2} {:>11.2}",
                t.op,
                t.calls,
                t.seconds,
                t.share * 100.0,
                t.gflops_per_sec(),
                t.intensity()
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as TestMutex;

    /// Serializes tests that toggle the process-global profiler.
    static PROF_TEST_LOCK: TestMutex<()> = TestMutex::new(());

    fn with_prof<R>(f: impl FnOnce() -> R) -> R {
        let _guard = PROF_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(false);
        reset();
        let out = f();
        set_enabled(false);
        reset();
        out
    }

    #[test]
    fn disabled_profiler_records_nothing() {
        with_prof(|| {
            let _scope = scope("dead");
            let mut t = op("matmul");
            assert!(!t.is_enabled());
            t.set_cost(Cost::new(100, 10));
            drop(t);
            record_at("x", "softmax_last_dim", 1_000, Cost::zero());
            assert!(snapshot().rows.is_empty());
        });
    }

    #[test]
    fn records_merge_by_path_and_op() {
        with_prof(|| {
            set_enabled(true);
            {
                let _s = scope("l0");
                let _inner = scope("attn");
                for _ in 0..3 {
                    let mut t = op("matmul");
                    t.set_cost(Cost::new(1000, 100));
                }
            }
            time_at(true, "ffn", "gelu", Cost::new(10, 20), || std::hint::black_box(1 + 1));
            time_at(false, "ffn", "gelu", Cost::new(10, 20), || std::hint::black_box(1 + 1));
            record_at("l0.attn", "matmul.bwd", 5_000, Cost::new(2000, 200));
            let snap = snapshot();
            let mm = snap
                .rows
                .iter()
                .find(|r| r.op == "matmul" && r.path == "l0.attn")
                .expect("matmul row");
            assert_eq!(mm.calls, 3);
            assert_eq!(mm.flops, 3000);
            assert_eq!(mm.bytes, 300);
            assert!(mm.seconds > 0.0);
            let bwd = snap.rows.iter().find(|r| r.op == "matmul.bwd").expect("bwd row");
            assert_eq!(bwd.path, "l0.attn");
            assert_eq!(bwd.seconds, 5e-6);
            let gelu = snap.rows.iter().find(|r| r.op == "gelu").expect("gelu row");
            assert_eq!((gelu.path.as_str(), gelu.calls), ("ffn", 1));
            assert_eq!(gelu.flops, 10);
        });
    }

    #[test]
    fn by_op_aggregates_and_shares_sum_to_one() {
        with_prof(|| {
            set_enabled(true);
            record_at("a", "matmul", 3_000_000, Cost::new(6_000_000, 1_000));
            record_at("b", "matmul", 1_000_000, Cost::new(2_000_000, 1_000));
            record_at("a", "softmax_last_dim", 1_000_000, Cost::new(500, 100));
            let snap = snapshot();
            let ops = snap.by_op();
            assert_eq!(ops[0].op, "matmul");
            assert_eq!(ops[0].calls, 2);
            assert!((ops[0].share - 0.8).abs() < 1e-9);
            assert!((ops.iter().map(|t| t.share).sum::<f64>() - 1.0).abs() < 1e-9);
            // 8e6 flops in 4 ms = 2 Gflop/s; 8e6 flops / 2e3 bytes = 4000.
            assert!((ops[0].gflops_per_sec() - 2.0).abs() < 1e-9);
            assert!((ops[0].intensity() - 4000.0).abs() < 1e-9);
            assert!(snap.table().contains("matmul"));
        });
    }

    #[test]
    fn collapsed_stacks_are_flamegraph_shaped() {
        with_prof(|| {
            set_enabled(true);
            record_at("l0.attn", "matmul", 2_000_000, Cost::zero());
            record_at("", "leaf", 1_000_000, Cost::zero());
            let text = snapshot().collapsed();
            let lines: Vec<&str> = text.lines().collect();
            assert_eq!(lines, vec!["l0.attn;matmul 2000", "leaf 1000"]);
        });
    }

    #[test]
    fn reset_clears_and_scopes_unwind() {
        with_prof(|| {
            set_enabled(true);
            {
                let _s = scope("outer");
                record_at("x", "matmul", 1, Cost::zero());
            }
            // After the scope guard dropped, new ops land at the root.
            let mut t = op("add");
            t.set_cost(Cost::zero());
            drop(t);
            assert!(snapshot().rows.iter().any(|r| r.op == "add" && r.path.is_empty()));
            reset();
            assert!(snapshot().rows.is_empty());
            assert_eq!(snapshot().total_seconds(), 0.0);
        });
    }
}
