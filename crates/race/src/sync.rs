//! Drop-in sync primitives: `std::sync` semantics, race-checker visibility.
//!
//! Production code (`gs-par`, `gs-store`, `gs-serve`, `gs_tensor::arena`)
//! uses these instead of the std types. Without the `model` feature every
//! type here is a `#[repr(transparent)]`/`#[inline(always)]` passthrough —
//! the compiled code is byte-for-byte what std would produce, pinned by the
//! `wrapper_overhead` test. With `cfg(feature = "model")` each operation
//! first checks a runtime gate:
//!
//! - on a **model thread** (inside `model::explore`) the op is a
//!   scheduling point: the thread yields to the deterministic scheduler,
//!   performs the real op once granted, and records it with the
//!   execution's happens-before detector;
//! - when the **live detector** is on (`GS_RACE=1` or
//!   [`crate::detect::set_detecting`]) the op is performed normally and
//!   recorded with the process-global detector, so the *real* test suites
//!   run race-checked;
//! - otherwise the op goes straight to std (one relaxed load + one
//!   thread-local check of overhead).
//!
//! One deliberate deviation from `std::sync`: [`Mutex::lock`] and
//! [`Condvar::wait`] recover from poisoning instead of returning `Result`
//! — every call site in this workspace did
//! `unwrap_or_else(|e| e.into_inner())` anyway, and a poisoned lock still
//! guards memory-safe data. `Condvar` offers no timed wait: no caller in
//! the workspace needs one.
//!
//! [`Probe`] annotates a non-atomic publication (e.g. the `Arc<ShardView>`
//! slot an epoch guards): pair `probe.write()` with the publish and
//! `probe.read()` with the consume, and the detector checks the two are
//! ordered by real synchronization.

pub use std::sync::atomic::Ordering;

#[cfg(feature = "model")]
use std::panic::Location;

#[cfg(feature = "model")]
use crate::{detect, sched};

// ---------------------------------------------------------------------------
// Instrumented-path dispatch (compiled only with the feature).
// ---------------------------------------------------------------------------

#[cfg(feature = "model")]
fn instrumented_atomic<T>(
    addr: usize,
    kind: &'static str,
    ordering: Ordering,
    loc: detect::Loc,
    op: impl FnOnce() -> T,
) -> T {
    if let Some(ctx) = sched::current() {
        return sched::model_atomic(&ctx, addr, kind, ordering, loc, op);
    }
    debug_assert!(detect::detecting());
    let record = |d: &mut detect::Detector, tid: usize| match kind {
        "load" => d.atomic_load(tid, addr, ordering),
        "store" => d.atomic_store(tid, addr, ordering),
        _ => d.atomic_rmw(tid, addr, ordering),
    };
    // Live mode races the recording against real concurrent ops. Record a
    // releasing store/RMW *before* performing it, so a concurrent acquire
    // load that observes the new value finds the release edge already
    // published. The error this admits is a spuriously-early edge (a missed
    // race), never a missed edge (a false accusation).
    if kind != "load" && detect::releases(ordering) {
        detect::with_global(record);
        op()
    } else {
        let value = op();
        detect::with_global(record);
        value
    }
}

/// Whether an op on this thread needs the instrumented path at all.
#[cfg(feature = "model")]
#[inline]
fn gated() -> bool {
    sched::in_model() || detect::detecting()
}

// ---------------------------------------------------------------------------
// Atomics.
// ---------------------------------------------------------------------------

macro_rules! atomic_common {
    ($name:ident, $std:ty, $prim:ty, $doc:expr) => {
        #[doc = $doc]
        #[doc = ""]
        #[doc = "Semantics match the std atomic; under `feature = \"model\"` every"]
        #[doc = "op is also a scheduling point / detector event (see module docs)."]
        #[repr(transparent)]
        #[derive(Debug, Default)]
        pub struct $name {
            inner: $std,
        }

        impl $name {
            /// Creates the atomic (usable in statics).
            pub const fn new(value: $prim) -> Self {
                Self { inner: <$std>::new(value) }
            }

            #[cfg(feature = "model")]
            #[inline(always)]
            fn addr(&self) -> usize {
                self as *const Self as usize
            }

            /// Atomic load.
            #[cfg_attr(feature = "model", track_caller)]
            #[inline(always)]
            pub fn load(&self, ordering: Ordering) -> $prim {
                #[cfg(feature = "model")]
                if gated() {
                    return instrumented_atomic(
                        self.addr(),
                        "load",
                        ordering,
                        Location::caller(),
                        || self.inner.load(ordering),
                    );
                }
                self.inner.load(ordering)
            }

            /// Atomic store.
            #[cfg_attr(feature = "model", track_caller)]
            #[inline(always)]
            pub fn store(&self, value: $prim, ordering: Ordering) {
                #[cfg(feature = "model")]
                if gated() {
                    return instrumented_atomic(
                        self.addr(),
                        "store",
                        ordering,
                        Location::caller(),
                        || self.inner.store(value, ordering),
                    );
                }
                self.inner.store(value, ordering)
            }

            /// Atomic swap (an RMW: continues a release sequence even when
            /// `Relaxed`).
            #[cfg_attr(feature = "model", track_caller)]
            #[inline(always)]
            pub fn swap(&self, value: $prim, ordering: Ordering) -> $prim {
                #[cfg(feature = "model")]
                if gated() {
                    return instrumented_atomic(
                        self.addr(),
                        "swap",
                        ordering,
                        Location::caller(),
                        || self.inner.swap(value, ordering),
                    );
                }
                self.inner.swap(value, ordering)
            }

            /// Consumes the atomic, returning the value (never instrumented:
            /// exclusive ownership is synchronization enough).
            pub fn into_inner(self) -> $prim {
                self.inner.into_inner()
            }
        }
    };
}

macro_rules! atomic_numeric {
    ($name:ident, $std:ty, $prim:ty, $doc:expr) => {
        atomic_common!($name, $std, $prim, $doc);

        impl $name {
            /// Atomic add, returning the previous value.
            #[cfg_attr(feature = "model", track_caller)]
            #[inline(always)]
            pub fn fetch_add(&self, value: $prim, ordering: Ordering) -> $prim {
                #[cfg(feature = "model")]
                if gated() {
                    return instrumented_atomic(
                        self.addr(),
                        "fetch_add",
                        ordering,
                        Location::caller(),
                        || self.inner.fetch_add(value, ordering),
                    );
                }
                self.inner.fetch_add(value, ordering)
            }

            /// Atomic subtract, returning the previous value.
            #[cfg_attr(feature = "model", track_caller)]
            #[inline(always)]
            pub fn fetch_sub(&self, value: $prim, ordering: Ordering) -> $prim {
                #[cfg(feature = "model")]
                if gated() {
                    return instrumented_atomic(
                        self.addr(),
                        "fetch_sub",
                        ordering,
                        Location::caller(),
                        || self.inner.fetch_sub(value, ordering),
                    );
                }
                self.inner.fetch_sub(value, ordering)
            }

            /// Atomic max, returning the previous value.
            #[cfg_attr(feature = "model", track_caller)]
            #[inline(always)]
            pub fn fetch_max(&self, value: $prim, ordering: Ordering) -> $prim {
                #[cfg(feature = "model")]
                if gated() {
                    return instrumented_atomic(
                        self.addr(),
                        "fetch_max",
                        ordering,
                        Location::caller(),
                        || self.inner.fetch_max(value, ordering),
                    );
                }
                self.inner.fetch_max(value, ordering)
            }

            /// Atomic compare-exchange; records as an RMW at the stronger of
            /// the two orderings on success-path semantics.
            #[cfg_attr(feature = "model", track_caller)]
            #[inline(always)]
            pub fn compare_exchange(
                &self,
                current: $prim,
                new: $prim,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$prim, $prim> {
                #[cfg(feature = "model")]
                if gated() {
                    return instrumented_atomic(
                        self.addr(),
                        "compare_exchange",
                        success,
                        Location::caller(),
                        || self.inner.compare_exchange(current, new, success, failure),
                    );
                }
                self.inner.compare_exchange(current, new, success, failure)
            }
        }
    };
}

atomic_numeric!(
    AtomicUsize,
    std::sync::atomic::AtomicUsize,
    usize,
    "Instrumentable `AtomicUsize`."
);
atomic_numeric!(AtomicU64, std::sync::atomic::AtomicU64, u64, "Instrumentable `AtomicU64`.");
atomic_numeric!(AtomicU8, std::sync::atomic::AtomicU8, u8, "Instrumentable `AtomicU8`.");
atomic_common!(AtomicBool, std::sync::atomic::AtomicBool, bool, "Instrumentable `AtomicBool`.");

// ---------------------------------------------------------------------------
// Mutex.
// ---------------------------------------------------------------------------

/// How a live guard was taken (decides what its drop must record).
#[cfg(feature = "model")]
#[derive(Clone, Copy, PartialEq)]
enum GuardMode {
    /// Gate was off at lock time: plain std behavior.
    Plain,
    /// Taken on a model thread: unlock is a scheduling point.
    Model,
    /// Taken under the live detector: unlock publishes the clock.
    Live,
}

/// Instrumentable mutex. [`lock`](Mutex::lock) recovers from poisoning (see
/// module docs); under the model the lock order is decided by the explored
/// schedule, not the OS.
#[derive(Debug, Default)]
pub struct Mutex<T> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates the mutex (usable in statics).
    pub const fn new(value: T) -> Self {
        Mutex { inner: std::sync::Mutex::new(value) }
    }

    #[cfg(feature = "model")]
    #[inline(always)]
    fn addr(&self) -> usize {
        self as *const Self as usize
    }

    fn lock_std(&self) -> std::sync::MutexGuard<'_, T> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Acquires the mutex, recovering from poisoning.
    #[cfg_attr(feature = "model", track_caller)]
    #[inline(always)]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(feature = "model")]
        {
            let loc = Location::caller();
            if let Some(ctx) = sched::current() {
                sched::model_mutex_lock(&ctx, self.addr(), loc);
                // Granted with model ownership: the std lock is free.
                return MutexGuard {
                    std: Some(self.lock_std()),
                    mx: self,
                    mode: GuardMode::Model,
                    loc,
                };
            }
            if detect::detecting() {
                let std = self.lock_std();
                // Record after acquiring: the previous holder recorded its
                // release before unlocking, so the edge is already there.
                detect::with_global(|d, tid| d.lock_acquired(tid, self.addr()));
                return MutexGuard { std: Some(std), mx: self, mode: GuardMode::Live, loc };
            }
            MutexGuard { std: Some(self.lock_std()), mx: self, mode: GuardMode::Plain, loc }
        }
        #[cfg(not(feature = "model"))]
        MutexGuard(self.lock_std())
    }

    /// Exclusive access without locking (never instrumented: `&mut self` is
    /// synchronization enough).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }

    /// Consumes the mutex, returning the value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

/// Guard returned by [`Mutex::lock`].
#[cfg(not(feature = "model"))]
pub struct MutexGuard<'a, T>(std::sync::MutexGuard<'a, T>);

/// Guard returned by [`Mutex::lock`].
#[cfg(feature = "model")]
pub struct MutexGuard<'a, T> {
    /// `None` only transiently, while a condvar wait has given the lock up
    /// (the drop impl then does nothing).
    std: Option<std::sync::MutexGuard<'a, T>>,
    mx: &'a Mutex<T>,
    mode: GuardMode,
    loc: detect::Loc,
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    #[inline(always)]
    fn deref(&self) -> &T {
        #[cfg(feature = "model")]
        {
            self.std.as_deref().expect("guard released by condvar wait")
        }
        #[cfg(not(feature = "model"))]
        {
            &self.0
        }
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    #[inline(always)]
    fn deref_mut(&mut self) -> &mut T {
        #[cfg(feature = "model")]
        {
            self.std.as_deref_mut().expect("guard released by condvar wait")
        }
        #[cfg(not(feature = "model"))]
        {
            &mut self.0
        }
    }
}

#[cfg(feature = "model")]
impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        if self.std.is_none() {
            return;
        }
        match self.mode {
            GuardMode::Plain => {}
            GuardMode::Model => {
                if let Some(ctx) = sched::current() {
                    let addr = self.mx.addr();
                    let std = self.std.take();
                    sched::model_mutex_unlock(&ctx, addr, self.loc, move || drop(std));
                    return;
                }
            }
            GuardMode::Live => {
                // Publish the clock before the real unlock so the next
                // holder's post-acquire record always sees it.
                let addr = self.mx.addr();
                detect::with_global(|d, tid| d.lock_released(tid, addr));
            }
        }
        drop(self.std.take());
    }
}

// ---------------------------------------------------------------------------
// Condvar.
// ---------------------------------------------------------------------------

/// Instrumentable condition variable. Under the model, waits and wakeups
/// are modeled (FIFO notify), so lost-wakeup bugs surface as deterministic
/// deadlocks.
#[derive(Debug, Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    /// Creates the condvar (usable in statics).
    pub const fn new() -> Self {
        Condvar { inner: std::sync::Condvar::new() }
    }

    #[cfg(feature = "model")]
    #[inline(always)]
    fn addr(&self) -> usize {
        self as *const Self as usize
    }

    /// Waits until notified, releasing and re-acquiring the guard's mutex.
    #[cfg_attr(feature = "model", track_caller)]
    #[inline(always)]
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        #[cfg(feature = "model")]
        {
            self.wait_inner(guard)
        }
        #[cfg(not(feature = "model"))]
        {
            MutexGuard(self.inner.wait(guard.0).unwrap_or_else(|e| e.into_inner()))
        }
    }

    #[cfg(feature = "model")]
    #[track_caller]
    fn wait_inner<'a, T>(&self, mut guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        let mx = guard.mx;
        let loc = guard.loc;
        let mode = guard.mode;
        match mode {
            GuardMode::Model => {
                let ctx = sched::current().expect("model guard waited outside a model thread");
                let mut std = guard.std.take();
                drop(guard); // no-op: the std guard was taken out
                sched::model_condvar_wait(&ctx, self.addr(), mx.addr(), loc, || drop(std.take()));
                // Granted with model ownership restored: std lock is free.
                let std = mx.lock_std();
                MutexGuard { std: Some(std), mx, mode, loc }
            }
            GuardMode::Live | GuardMode::Plain => {
                if mode == GuardMode::Live {
                    let addr = mx.addr();
                    detect::with_global(|d, tid| d.lock_released(tid, addr));
                }
                let std = guard.std.take().expect("guard released by condvar wait");
                drop(guard);
                let std = self.inner.wait(std).unwrap_or_else(|e| e.into_inner());
                if mode == GuardMode::Live {
                    let addr = mx.addr();
                    detect::with_global(|d, tid| d.lock_acquired(tid, addr));
                }
                MutexGuard { std: Some(std), mx, mode, loc }
            }
        }
    }

    /// Wakes one waiter.
    #[cfg_attr(feature = "model", track_caller)]
    #[inline(always)]
    pub fn notify_one(&self) {
        #[cfg(feature = "model")]
        if let Some(ctx) = sched::current() {
            sched::model_condvar_notify(&ctx, self.addr(), false, Location::caller());
            return;
        }
        self.inner.notify_one()
    }

    /// Wakes all waiters.
    #[cfg_attr(feature = "model", track_caller)]
    #[inline(always)]
    pub fn notify_all(&self) {
        #[cfg(feature = "model")]
        if let Some(ctx) = sched::current() {
            sched::model_condvar_notify(&ctx, self.addr(), true, Location::caller());
            return;
        }
        self.inner.notify_all()
    }
}

// ---------------------------------------------------------------------------
// Probe.
// ---------------------------------------------------------------------------

/// Annotation for a non-atomic publication the checker should verify — e.g.
/// the `Arc<ShardView>` slot an epoch counter guards. Call
/// [`write`](Probe::write) where the data is published and
/// [`read`](Probe::read) where it is consumed; the detector then checks
/// every read is ordered after the write by real synchronization. Free when
/// instrumentation is off. Deliberately one byte (not a ZST) so distinct
/// probes have distinct addresses.
#[derive(Debug)]
pub struct Probe(#[allow(dead_code)] u8);

impl Probe {
    /// Creates a probe (usable in statics/consts).
    pub const fn new() -> Self {
        Probe(0)
    }

    /// Records a consume of the annotated data.
    #[cfg_attr(feature = "model", track_caller)]
    #[inline(always)]
    pub fn read(&self, what: &'static str) {
        let _ = what;
        #[cfg(feature = "model")]
        {
            let addr = self as *const Self as usize;
            let loc = Location::caller();
            if let Some(ctx) = sched::current() {
                sched::model_data(&ctx, addr, what, false, loc, || ());
            } else if detect::detecting() {
                detect::with_global(|d, tid| d.data_read(tid, addr, what, loc));
            }
        }
    }

    /// Records a publication of the annotated data.
    #[cfg_attr(feature = "model", track_caller)]
    #[inline(always)]
    pub fn write(&self, what: &'static str) {
        let _ = what;
        #[cfg(feature = "model")]
        {
            let addr = self as *const Self as usize;
            let loc = Location::caller();
            if let Some(ctx) = sched::current() {
                sched::model_data(&ctx, addr, what, true, loc, || ());
            } else if detect::detecting() {
                detect::with_global(|d, tid| d.data_write(tid, addr, what, loc));
            }
        }
    }
}

impl Default for Probe {
    fn default() -> Self {
        Probe::new()
    }
}
