//! Model of the serve batcher's worker-pull queue
//! (`crates/serve/src/batcher.rs`): submitters push under a mutex and
//! notify arrival; the worker parks while the queue is empty, then drains
//! up to a batch at once (work-conserving: it never waits for
//! batch-mates) and acknowledges; shutdown wakes the worker, which drains
//! whatever is still queued before it exits.
//!
//! The first submission is a ping-pong: the submitter waits for its item
//! to be consumed before pushing the next one, which makes a lost wakeup a
//! *deadlock* instead of a delay. The last submission is not waited for,
//! so it races the shutdown signal: the worker may see the flag with that
//! item still queued, and must drain it anyway.

use std::sync::Arc;

use crate::model::{explore, ExploreOpts, RawCell, Report};
use crate::sync::{Condvar, Mutex};

/// Seeded bugs for the batcher model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bug {
    /// The worker's park is one `if`-guarded wait instead of a re-check
    /// loop, and it trusts any wake to be an arrival: the shutdown
    /// broadcast, which is not, falls through to a pop of an empty queue.
    IfInsteadOfWhile,
    /// The submitter notifies arrival *before* publishing the item (and
    /// outside the lock): the wakeup can land in the window where the
    /// worker has decided to wait but is not yet a waiter — a classic lost
    /// wakeup, surfacing as a deadlock.
    NotifyBeforePush,
    /// The worker returns as soon as it sees the shutdown flag instead of
    /// once the queue is drained: a submission that raced the shutdown
    /// signal is never answered.
    ExitBeforeDrain,
}

impl Bug {
    /// All batcher bugs.
    pub const ALL: &'static [Bug] =
        &[Bug::IfInsteadOfWhile, Bug::NotifyBeforePush, Bug::ExitBeforeDrain];
}

const ITEMS: u64 = 2;
const BATCH: usize = 2;

struct State {
    queue: Vec<u64>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    arrived: Condvar,
    consumed: Condvar,
    /// Total items drained, written only by the worker; the owner reads it
    /// after joining, so the join edge must make it visible.
    drained: RawCell<u64>,
}

fn worker_body(sh: &Shared, bug: Option<Bug>) {
    let mut total = 0u64;
    loop {
        let mut st = sh.state.lock();
        if bug == Some(Bug::IfInsteadOfWhile) {
            // Seeded bug: one wait, then a pop that assumes an arrival.
            if st.queue.is_empty() && !st.shutdown {
                st = sh.arrived.wait(st);
            }
            st.queue.pop().expect("woken with an empty queue");
            total += 1;
        } else {
            while st.queue.is_empty() && !st.shutdown {
                st = sh.arrived.wait(st);
            }
            let exit = if bug == Some(Bug::ExitBeforeDrain) {
                // Seeded bug: the flag alone ends the worker.
                st.shutdown
            } else {
                // Shutting down and fully drained.
                st.queue.is_empty()
            };
            if exit {
                return;
            }
            let take = st.queue.len().min(BATCH);
            total += st.queue.drain(..take).count() as u64;
        }
        sh.drained.write(total);
        sh.consumed.notify_all();
    }
}

fn submitter_body(sh: &Shared, bug: Option<Bug>) {
    for item in 0..ITEMS {
        if bug == Some(Bug::NotifyBeforePush) {
            // Seeded bug: signal first, publish after.
            sh.arrived.notify_one();
            let mut st = sh.state.lock();
            st.queue.push(item);
            drop(st);
        } else {
            let mut st = sh.state.lock();
            st.queue.push(item);
            drop(st);
            sh.arrived.notify_one();
        }
        if item + 1 == ITEMS {
            // The last submission races the owner's shutdown signal.
            break;
        }
        // Ping-pong: wait for the worker to consume before the next push,
        // so a lost wakeup is a deadlock rather than a delay.
        let mut st = sh.state.lock();
        while !st.queue.is_empty() {
            st = sh.consumed.wait(st);
        }
    }
}

/// Explores the model; `bug` seeds one mutation, `None` is the clean
/// protocol (must pass exhaustively).
pub fn run(bug: Option<Bug>, opts: ExploreOpts) -> Report {
    explore(opts, move || {
        let sh = Arc::new(Shared {
            state: Mutex::new(State { queue: Vec::new(), shutdown: false }),
            arrived: Condvar::new(),
            consumed: Condvar::new(),
            drained: RawCell::new("Batcher.drained", 0),
        });

        let worker = {
            let sh = Arc::clone(&sh);
            crate::model::spawn("batch-worker", move || worker_body(&sh, bug))
        };
        let submitter = {
            let sh = Arc::clone(&sh);
            crate::model::spawn("submitter", move || submitter_body(&sh, bug))
        };

        submitter.join();
        {
            let mut st = sh.state.lock();
            st.shutdown = true;
            sh.arrived.notify_all();
        }
        worker.join();
        assert_eq!(sh.drained.read(), ITEMS, "worker exited before draining everything");
    })
}
