//! The deterministic model-execution scheduler.
//!
//! A model execution runs its "threads" as real OS threads, but only one is
//! ever unparked: every instrumented operation first *yields* — the thread
//! parks and hands control to the controller (the thread that called
//! [`explore`](crate::model::explore)), which picks the next thread to grant
//! one step, per the exploration policy. Because exactly one thread runs
//! between yield points, executions are fully determined by the sequence of
//! scheduling choices, which is what makes schedules replayable and
//! exhaustively explorable.
//!
//! Blocking primitives are *modeled*, not delegated to the OS:
//!
//! - a model mutex tracks its owner here; a thread that finds it held parks
//!   as `BlockedMutex` and becomes schedulable again when the owner
//!   releases (the underlying `std::sync::Mutex` is then taken
//!   uncontended, purely to hold the data);
//! - a condvar wait releases the model mutex and parks as `WaitingCv`; a
//!   notify marks waiters woken in FIFO order but they only run once
//!   scheduled *and* the mutex is free;
//! - join parks as `BlockedJoin` until the target finishes.
//!
//! If no thread is schedulable and some are unfinished, the execution
//! deadlocked: the controller reports every blocked thread's state and
//! site. A panic in any model thread (assertion failure) is caught at that
//! thread's root and reported with the schedule trace. In either case the
//! execution is abandoned: still-parked threads are leaked deliberately
//! (they hold no OS resources beyond a parked thread, and exploration
//! stops at the first failure).

use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};

use crate::detect::{Detector, Loc, RaceReport};

/// One recorded step of a model execution.
#[derive(Clone, Debug)]
pub struct Event {
    /// Position in the schedule (0-based).
    pub step: usize,
    /// Model thread id.
    pub tid: usize,
    /// Model thread name.
    pub thread: String,
    /// What the step did (e.g. `atomic_store(Release)`).
    pub desc: String,
    /// Source location of the operation.
    pub loc: Loc,
}

impl std::fmt::Display for Event {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:>4}. [T{} {}] {} at {}:{}",
            self.step,
            self.tid,
            self.thread,
            self.desc,
            self.loc.file(),
            self.loc.line()
        )
    }
}

/// Why an execution failed.
#[derive(Clone, Debug)]
pub enum FailureKind {
    /// A model thread panicked (assertion violation), with the payload.
    Panic(String),
    /// No thread was schedulable; one line per unfinished thread.
    Deadlock(Vec<String>),
    /// The happens-before detector found a race during this schedule.
    Race(RaceReport),
    /// The execution exceeded the per-schedule step budget (livelock guard).
    StepBudget(usize),
}

/// Scheduling state of one model thread.
#[derive(Clone, Debug)]
pub(crate) enum Status {
    /// Parked at a yield point, waiting for a grant.
    Ready,
    /// Currently granted (at most one thread).
    Running,
    /// Parked on a model mutex; schedulable when the owner releases.
    BlockedMutex(usize),
    /// Parked in a condvar wait.
    WaitingCv {
        /// Condvar address.
        cv: usize,
        /// Mutex to re-acquire on wake.
        mutex: usize,
        /// Set by notify; the thread still re-acquires the mutex.
        woken: bool,
        /// FIFO order among waiters.
        seq: u64,
    },
    /// Parked joining another model thread.
    BlockedJoin(usize),
    /// The thread's closure returned (or panicked).
    Finished,
}

pub(crate) struct MThread {
    pub name: String,
    pub status: Status,
    /// The next event to record when this thread is granted.
    pub pending: Option<(String, Loc)>,
}

pub(crate) struct ExecInner {
    pub threads: Vec<MThread>,
    pub detector: Detector,
    pub mutex_owner: HashMap<usize, usize>,
    pub trace: Vec<Event>,
    pub step: usize,
    pub active: Option<usize>,
    pub failure: Option<FailureKind>,
    pub wait_seq: u64,
}

/// Shared state of one model execution.
pub(crate) struct Execution {
    pub inner: Mutex<ExecInner>,
    pub cv: Condvar,
    pub handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

thread_local! {
    /// Set while this OS thread runs as a model thread.
    static MODEL_CTX: std::cell::RefCell<Option<Ctx>> = const { std::cell::RefCell::new(None) };
}

/// This OS thread's identity inside a model execution.
#[derive(Clone)]
pub(crate) struct Ctx {
    pub exec: Arc<Execution>,
    pub tid: usize,
}

/// The current model context, if this thread is a model thread.
pub(crate) fn current() -> Option<Ctx> {
    MODEL_CTX.with(|c| c.borrow().clone())
}

/// Whether the current OS thread is a model thread (no Arc clone).
#[inline]
pub(crate) fn in_model() -> bool {
    MODEL_CTX.with(|c| c.borrow().is_some())
}

fn lock_inner(exec: &Execution) -> std::sync::MutexGuard<'_, ExecInner> {
    exec.inner.lock().unwrap_or_else(|e| e.into_inner())
}

impl Execution {
    pub fn new() -> Arc<Execution> {
        Arc::new(Execution {
            inner: Mutex::new(ExecInner {
                threads: Vec::new(),
                detector: Detector::new(),
                mutex_owner: HashMap::new(),
                trace: Vec::new(),
                step: 0,
                active: None,
                failure: None,
                wait_seq: 0,
            }),
            cv: Condvar::new(),
            handles: Mutex::new(Vec::new()),
        })
    }

    /// Runs `f` on the execution state. Callers hold the grant, so this is
    /// bookkeeping, not a scheduling point.
    pub fn with_inner<R>(&self, f: impl FnOnce(&mut ExecInner) -> R) -> R {
        let mut g = lock_inner(self);
        f(&mut g)
    }

    /// Parks until the controller grants this thread.
    fn wait_granted(&self, tid: usize) {
        let mut g = lock_inner(self);
        while g.active != Some(tid) {
            g = self.cv.wait(g).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Hands the grant back (after `prepare` updates this thread's state)
    /// and parks until re-granted.
    fn park(&self, tid: usize, prepare: impl FnOnce(&mut ExecInner)) {
        let mut g = lock_inner(self);
        prepare(&mut g);
        g.active = None;
        self.cv.notify_all();
        while g.active != Some(tid) {
            g = self.cv.wait(g).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// The standard yield point: record `desc` as this thread's next event,
    /// hand back the grant, park until granted again.
    pub fn reschedule(&self, tid: usize, desc: String, loc: Loc) {
        self.park(tid, |g| {
            g.threads[tid].pending = Some((desc, loc));
            g.threads[tid].status = Status::Ready;
        });
    }

    /// Registers a new model thread (detector clock seeded from `parent`)
    /// and returns its tid. Caller must hold the grant.
    pub fn register_thread(
        &self,
        name: &str,
        parent: Option<usize>,
        first_op: &str,
        loc: Loc,
    ) -> usize {
        let mut g = lock_inner(self);
        let tid = g.detector.register_thread(name, parent);
        debug_assert_eq!(tid, g.threads.len());
        g.threads.push(MThread {
            name: name.to_string(),
            status: Status::Ready,
            pending: Some((first_op.to_string(), loc)),
        });
        tid
    }
}

/// The body run by each model thread's OS thread.
pub(crate) fn thread_main(exec: Arc<Execution>, tid: usize, f: Box<dyn FnOnce() + Send>) {
    MODEL_CTX.with(|c| *c.borrow_mut() = Some(Ctx { exec: Arc::clone(&exec), tid }));
    exec.wait_granted(tid);
    let result = panic::catch_unwind(AssertUnwindSafe(f));
    {
        let mut g = lock_inner(&exec);
        g.threads[tid].status = Status::Finished;
        if let Err(payload) = result {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "model thread panicked".to_string());
            if g.failure.is_none() {
                g.failure = Some(FailureKind::Panic(msg));
            }
        }
        g.active = None;
        exec.cv.notify_all();
    }
    MODEL_CTX.with(|c| *c.borrow_mut() = None);
}

// ---------------------------------------------------------------------------
// Thread-side operation protocol (called from the sync wrappers).
// ---------------------------------------------------------------------------

/// An instrumented atomic op: yield, perform, record.
pub(crate) fn model_atomic<T>(
    ctx: &Ctx,
    addr: usize,
    kind: &str,
    ordering: std::sync::atomic::Ordering,
    loc: Loc,
    op: impl FnOnce() -> T,
) -> T {
    ctx.exec.reschedule(ctx.tid, format!("atomic_{kind}({ordering:?})"), loc);
    let value = op();
    ctx.exec.with_inner(|g| match kind {
        "load" => g.detector.atomic_load(ctx.tid, addr, ordering),
        "store" => g.detector.atomic_store(ctx.tid, addr, ordering),
        _ => g.detector.atomic_rmw(ctx.tid, addr, ordering),
    });
    value
}

/// An instrumented non-atomic data access (RawCell / Probe): yield,
/// perform, run the happens-before check.
pub(crate) fn model_data<T>(
    ctx: &Ctx,
    addr: usize,
    what: &'static str,
    write: bool,
    loc: Loc,
    op: impl FnOnce() -> T,
) -> T {
    let kind = if write { "write" } else { "read" };
    ctx.exec.reschedule(ctx.tid, format!("{kind} `{what}`"), loc);
    let value = op();
    ctx.exec.with_inner(|g| {
        if write {
            g.detector.data_write(ctx.tid, addr, what, loc);
        } else {
            g.detector.data_read(ctx.tid, addr, what, loc);
        }
    });
    value
}

/// Model-mutex lock: parks while held; the std mutex is taken by the caller
/// afterwards, uncontended by construction.
pub(crate) fn model_mutex_lock(ctx: &Ctx, addr: usize, loc: Loc) {
    ctx.exec.reschedule(ctx.tid, "mutex_lock".to_string(), loc);
    loop {
        let acquired = ctx.exec.with_inner(|g| {
            if let std::collections::hash_map::Entry::Vacant(slot) = g.mutex_owner.entry(addr) {
                slot.insert(ctx.tid);
                g.detector.lock_acquired(ctx.tid, addr);
                true
            } else {
                false
            }
        });
        if acquired {
            return;
        }
        ctx.exec.park(ctx.tid, |g| {
            g.threads[ctx.tid].pending = Some(("mutex_acquired".to_string(), loc));
            g.threads[ctx.tid].status = Status::BlockedMutex(addr);
        });
    }
}

/// Model-mutex unlock: yields, then `drop_guard` releases the std mutex
/// *before* the model ownership clears, so a granted waiter can never block
/// on the real lock.
pub(crate) fn model_mutex_unlock(ctx: &Ctx, addr: usize, loc: Loc, drop_guard: impl FnOnce()) {
    ctx.exec.reschedule(ctx.tid, "mutex_unlock".to_string(), loc);
    drop_guard();
    ctx.exec.with_inner(|g| {
        g.mutex_owner.remove(&addr);
        g.detector.lock_released(ctx.tid, addr);
    });
}

/// Model condvar wait: releases the mutex and parks as a waiter until a
/// notify wakes it. The caller re-locks the std mutex.
pub(crate) fn model_condvar_wait(
    ctx: &Ctx,
    cv_addr: usize,
    mutex_addr: usize,
    loc: Loc,
    drop_guard: impl FnOnce(),
) {
    ctx.exec.reschedule(ctx.tid, "condvar_wait".to_string(), loc);
    drop_guard();
    ctx.exec.park(ctx.tid, |g| {
        g.mutex_owner.remove(&mutex_addr);
        g.detector.lock_released(ctx.tid, mutex_addr);
        let seq = g.wait_seq;
        g.wait_seq += 1;
        g.threads[ctx.tid].pending = Some(("condvar_wake".to_string(), loc));
        g.threads[ctx.tid].status =
            Status::WaitingCv { cv: cv_addr, mutex: mutex_addr, woken: false, seq };
    });
    // Granted again: the controller guarantees the mutex is free.
    ctx.exec.with_inner(|g| {
        g.mutex_owner.insert(mutex_addr, ctx.tid);
        g.detector.lock_acquired(ctx.tid, mutex_addr);
    });
}

/// Model condvar notify: marks waiters woken in FIFO order. A notify with
/// no waiters is lost, exactly like the real primitive.
pub(crate) fn model_condvar_notify(ctx: &Ctx, cv_addr: usize, all: bool, loc: Loc) {
    let desc = if all { "condvar_notify_all" } else { "condvar_notify_one" };
    ctx.exec.reschedule(ctx.tid, desc.to_string(), loc);
    ctx.exec.with_inner(|g| loop {
        let mut candidate: Option<(usize, u64)> = None;
        for (t, thread) in g.threads.iter().enumerate() {
            if let Status::WaitingCv { cv, woken: false, seq, .. } = thread.status {
                if cv == cv_addr && candidate.map(|(_, s)| seq < s).unwrap_or(true) {
                    candidate = Some((t, seq));
                }
            }
        }
        let Some((t, _)) = candidate else { break };
        if let Status::WaitingCv { woken, .. } = &mut g.threads[t].status {
            *woken = true;
        }
        if !all {
            break;
        }
    });
}

/// Model join: parks until `child` finishes, then inherits its clock.
pub(crate) fn model_join(ctx: &Ctx, child: usize, loc: Loc) {
    ctx.exec.reschedule(ctx.tid, format!("join T{child}"), loc);
    loop {
        let done = ctx.exec.with_inner(|g| {
            if matches!(g.threads[child].status, Status::Finished) {
                g.detector.join_edge(ctx.tid, child);
                true
            } else {
                false
            }
        });
        if done {
            return;
        }
        ctx.exec.park(ctx.tid, |g| {
            g.threads[ctx.tid].pending = Some((format!("join T{child} resumed"), loc));
            g.threads[ctx.tid].status = Status::BlockedJoin(child);
        });
    }
}

/// Model spawn: registers the child (spawn edge in the detector) and starts
/// its OS thread, which parks until first granted.
pub(crate) fn model_spawn(ctx: &Ctx, name: &str, f: Box<dyn FnOnce() + Send>, loc: Loc) -> usize {
    ctx.exec.reschedule(ctx.tid, format!("spawn [{name}]"), loc);
    let tid = ctx.exec.register_thread(name, Some(ctx.tid), "thread_start", loc);
    let exec2 = Arc::clone(&ctx.exec);
    let handle = std::thread::Builder::new()
        .name(format!("gs-race-model-{name}"))
        .spawn(move || thread_main(exec2, tid, f))
        .expect("spawn model thread");
    ctx.exec.handles.lock().unwrap_or_else(|e| e.into_inner()).push(handle);
    tid
}

// ---------------------------------------------------------------------------
// Controller: runs one execution under a scheduling policy.
// ---------------------------------------------------------------------------

/// One scheduling decision: which threads were schedulable (after any
/// preemption-bound restriction) and which was chosen.
#[derive(Clone, Debug)]
pub(crate) struct ChoiceRec {
    pub options: Vec<usize>,
    pub chosen: usize,
}

/// How the controller picks among schedulable threads.
pub(crate) enum Policy {
    /// Depth-first: replay `prefix`, then default to running the current
    /// thread as long as possible, switching only when forced or when the
    /// preemption budget allows an alternative to exist.
    Dfs { prefix: Vec<usize>, bound: usize },
    /// Uniform random choice from a seeded xorshift stream.
    Random { state: u64 },
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x.max(1);
    *state
}

fn runnable_threads(g: &ExecInner) -> Vec<usize> {
    let mut out = Vec::new();
    for (t, thread) in g.threads.iter().enumerate() {
        let ready = match &thread.status {
            Status::Ready => true,
            Status::Running | Status::Finished => false,
            Status::BlockedMutex(m) => !g.mutex_owner.contains_key(m),
            Status::WaitingCv { mutex, woken, .. } => *woken && !g.mutex_owner.contains_key(mutex),
            Status::BlockedJoin(c) => matches!(g.threads[*c].status, Status::Finished),
        };
        if ready {
            out.push(t);
        }
    }
    out
}

fn blocked_summary(g: &ExecInner) -> Vec<String> {
    g.threads
        .iter()
        .enumerate()
        .filter(|(_, t)| !matches!(t.status, Status::Finished))
        .map(|(tid, t)| {
            let state = match &t.status {
                Status::BlockedMutex(_) => "blocked on mutex_lock".to_string(),
                Status::WaitingCv { woken, .. } => {
                    format!("waiting on condvar (notified: {woken})")
                }
                Status::BlockedJoin(c) => format!("joining T{c}"),
                other => format!("{other:?}"),
            };
            let site = t
                .pending
                .as_ref()
                .map(|(_, loc)| format!("{}:{}", loc.file(), loc.line()))
                .unwrap_or_else(|| "?".to_string());
            format!("T{tid} [{}] {state} at {site}", t.name)
        })
        .collect()
}

/// Outcome of one controlled execution.
pub(crate) struct ExecOutcome {
    pub failure: Option<(FailureKind, Vec<Event>)>,
    pub choices: Vec<ChoiceRec>,
    pub steps: usize,
}

/// Runs `body` as model thread 0 under `policy`, stepping threads until all
/// finish, a failure fires, or the step budget runs out.
pub(crate) fn run_one(
    policy: Policy,
    max_steps: usize,
    body: Arc<dyn Fn() + Send + Sync>,
) -> ExecOutcome {
    let exec = Execution::new();
    let root_loc = std::panic::Location::caller();
    let tid0 = exec.register_thread("main", None, "thread_start", root_loc);
    {
        let exec2 = Arc::clone(&exec);
        let body = Arc::clone(&body);
        let handle = std::thread::Builder::new()
            .name("gs-race-model-main".to_string())
            .spawn(move || thread_main(exec2, tid0, Box::new(move || body())))
            .expect("spawn model main thread");
        exec.handles.lock().unwrap_or_else(|e| e.into_inner()).push(handle);
    }

    let mut choices: Vec<ChoiceRec> = Vec::new();
    let mut policy = policy;
    let mut last: Option<usize> = None;
    let mut preemptions = 0usize;
    let mut depth = 0usize;

    let failure = loop {
        let mut g = lock_inner(&exec);
        while g.active.is_some() {
            g = exec.cv.wait(g).unwrap_or_else(|e| e.into_inner());
        }
        // A race recorded by the last step fails the execution.
        if g.failure.is_none() {
            if let Some(race) = g.detector.races().first() {
                g.failure = Some(FailureKind::Race(race.clone()));
            }
        }
        if let Some(kind) = g.failure.clone() {
            break Some((kind, g.trace.clone()));
        }
        if g.threads.iter().all(|t| matches!(t.status, Status::Finished)) {
            break None;
        }
        if g.step >= max_steps {
            break Some((FailureKind::StepBudget(max_steps), g.trace.clone()));
        }
        let runnable = runnable_threads(&g);
        if runnable.is_empty() {
            break Some((FailureKind::Deadlock(blocked_summary(&g)), g.trace.clone()));
        }

        let chosen = match &mut policy {
            Policy::Dfs { prefix, bound } => {
                // Once the preemption budget is spent, the only alternative
                // is to keep running the current thread (when it can run) —
                // recorded as a singleton so DFS backtracking respects the
                // bound.
                let restricted: Vec<usize> = match last {
                    Some(l) if preemptions >= *bound && runnable.contains(&l) => vec![l],
                    _ => runnable.clone(),
                };
                // The recorded order IS the exploration order, and
                // `next_prefix` advances strictly rightwards through it —
                // so the first-visit default must sit at index 0. Rotate
                // the non-preemptive choice (continue the current thread)
                // to the front; the rest stay in ascending-tid order.
                let mut options = restricted;
                if let Some(l) = last {
                    if let Some(p) = options.iter().position(|&t| t == l) {
                        options.remove(p);
                        options.insert(0, l);
                    }
                }
                let chosen = if depth < prefix.len() {
                    let t = prefix[depth];
                    assert!(
                        options.contains(&t),
                        "schedule replay diverged: T{t} not schedulable at step {depth} \
                         (model code must be deterministic — no wall-clock or OS randomness)"
                    );
                    t
                } else {
                    options[0]
                };
                choices.push(ChoiceRec { options, chosen });
                chosen
            }
            Policy::Random { state } => {
                let i = (xorshift(state) % runnable.len() as u64) as usize;
                runnable[i]
            }
        };
        if let Some(l) = last {
            if chosen != l && runnable.contains(&l) {
                preemptions += 1;
            }
        }
        last = Some(chosen);
        depth += 1;

        // Grant: record the thread's pending event, unpark it.
        let step = g.step;
        g.step += 1;
        if let Some((desc, loc)) = g.threads[chosen].pending.take() {
            let thread = g.threads[chosen].name.clone();
            g.trace.push(Event { step, tid: chosen, thread, desc, loc });
        }
        g.threads[chosen].status = Status::Running;
        g.active = Some(chosen);
        exec.cv.notify_all();
        drop(g);
    };

    let steps = exec.with_inner(|g| g.step);
    if failure.is_none() {
        // Clean finish: every model thread exited; reap the OS threads.
        let handles: Vec<_> =
            std::mem::take(&mut *exec.handles.lock().unwrap_or_else(|e| e.into_inner()));
        for h in handles {
            let _ = h.join();
        }
    }
    // On failure the execution is abandoned: parked threads stay parked and
    // are leaked together with the execution state (exploration stops at
    // the first failure, so the leak is bounded by one execution).
    ExecOutcome { failure, choices, steps }
}
