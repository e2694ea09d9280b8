//! The dynamic micro-batcher: requests land in a bounded queue and worker
//! threads pull from it directly, each draining up to `max_batch` items
//! per pull and running one batched extraction forward.
//!
//! Dispatch is work-conserving: an idle worker runs whatever is queued
//! the moment anything is queued, and never waits for batch-mates. Batches
//! still form, from the requests that arrive while the previous forward
//! runs: with every worker busy, arrivals accumulate in the queue, so the
//! next pull drains them together. A lone request therefore pays no
//! scheduling delay, and coalescing grows exactly with load.
//!
//! Workers pull straight from the queue rather than a scheduler pushing
//! into a worker channel, so dispatch is coupled to worker availability,
//! and an unbounded staging area between queue and workers (which would
//! defeat both coalescing and the queue bound) never exists.
//!
//! Robustness is part of the design: the queue sheds load when full
//! (callers translate that into HTTP 503), a submission larger than the
//! whole queue is refused outright (HTTP 413), every item carries a
//! deadline that is re-checked at dispatch time, and shutdown drains
//! queued work before returning.

use std::collections::VecDeque;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gs_race::sync::{AtomicU64, Condvar, Mutex, Ordering};

/// One extraction result: field name/value pairs, in the engine's order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Extraction {
    /// Extracted field name/value pairs (e.g. `("Deadline", "2030")`).
    pub fields: Vec<(String, String)>,
}

/// The model behind the service. Implementations must return exactly one
/// [`Extraction`] per input text, in order.
pub trait ExtractEngine: Send + Sync + 'static {
    /// Runs extraction over a micro-batch of texts.
    fn extract_batch(&self, texts: &[String]) -> Vec<Extraction>;

    /// Bytes currently parked in the engine's buffer arena, if it runs its
    /// forwards through one. Engines without an arena report `None` and the
    /// worker loop skips the `serve.arena_bytes` gauge.
    fn arena_bytes(&self) -> Option<u64> {
        None
    }
}

/// Why a request was rejected or abandoned instead of answered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShedReason {
    /// The bounded queue was full (backpressure; retry later).
    QueueFull,
    /// The submission holds more texts than the whole queue; it can never
    /// be admitted, so retrying it cannot help.
    TooLarge {
        /// The queue capacity the submission exceeds.
        capacity: usize,
    },
    /// The request's deadline expired before a worker got to it.
    DeadlineExceeded,
    /// The batcher is shutting down and no longer admits work.
    ShuttingDown,
}

/// Outcome of one batched item, delivered back to the submitting thread.
#[derive(Clone, Debug)]
pub struct ItemResult {
    /// Index of the item within its originating submission.
    pub index: usize,
    /// The extraction, or why it was dropped.
    pub outcome: Result<Extraction, ShedReason>,
    /// Time the item spent queued before its batch was dispatched.
    pub queue_wait: Duration,
    /// Size of the micro-batch the item was served in (0 when shed).
    pub batch_size: usize,
    /// Engine forward time of the serving batch (zero when shed).
    pub forward: Duration,
}

/// Batching knobs.
#[derive(Clone, Debug)]
pub struct BatchConfig {
    /// Largest micro-batch handed to the engine.
    pub max_batch: usize,
    /// Bound on queued items; submissions beyond it are shed.
    pub queue_capacity: usize,
    /// Worker threads running engine forwards.
    pub workers: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig { max_batch: 8, queue_capacity: 256, workers: 1 }
    }
}

impl BatchConfig {
    fn validated(mut self) -> Self {
        self.max_batch = self.max_batch.max(1);
        self.queue_capacity = self.queue_capacity.max(1);
        self.workers = self.workers.max(1);
        self
    }
}

struct Job {
    text: String,
    index: usize,
    /// Trace id of the originating request (shared across a submission).
    trace: Arc<str>,
    enqueued: Instant,
    deadline: Instant,
    reply: Sender<ItemResult>,
}

#[derive(Default)]
struct QueueState {
    queue: VecDeque<Job>,
    shutting_down: bool,
}

struct Shared {
    state: Mutex<QueueState>,
    /// Signals the scheduler that items arrived or shutdown began.
    arrived: Condvar,
    depth: AtomicU64,
}

/// The micro-batching front of an [`ExtractEngine`].
pub struct Batcher {
    shared: Arc<Shared>,
    config: BatchConfig,
    workers: Vec<JoinHandle<()>>,
}

impl Batcher {
    /// Starts the worker threads.
    pub fn start(engine: Arc<dyn ExtractEngine>, config: BatchConfig) -> Batcher {
        let config = config.validated();
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState::default()),
            arrived: Condvar::new(),
            depth: AtomicU64::new(0),
        });

        let workers = (0..config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let config = config.clone();
                let engine = Arc::clone(&engine);
                std::thread::Builder::new()
                    .name(format!("gs-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared, &config, engine.as_ref()))
                    .expect("spawn worker")
            })
            .collect();

        Batcher { shared, config, workers }
    }

    /// The batching configuration in effect.
    pub fn config(&self) -> &BatchConfig {
        &self.config
    }

    /// Current queue depth (approximate; for health endpoints).
    pub fn queue_depth(&self) -> usize {
        // ordering: Relaxed — an advisory gauge mirror of the queue length;
        // the queue itself is only ever touched under the state mutex.
        self.shared.depth.load(Ordering::Relaxed) as usize
    }

    /// Submits `texts` as one admission unit under the request trace id
    /// `trace`: either every text is enqueued or none is (so a batch
    /// request cannot be half-shed by the queue bound). The id travels with
    /// every queued item, so a batch dispatch can be tied back to the
    /// requests it served. Results arrive on the returned receiver in
    /// arbitrary order, tagged with their submission index.
    pub fn submit(
        &self,
        texts: Vec<String>,
        deadline: Instant,
        trace: &str,
    ) -> Result<Receiver<ItemResult>, ShedReason> {
        let capacity = self.config.queue_capacity;
        if texts.len() > capacity {
            return Err(ShedReason::TooLarge { capacity });
        }
        let (tx, rx) = channel();
        let now = Instant::now();
        if now >= deadline {
            return Err(ShedReason::DeadlineExceeded);
        }
        let trace: Arc<str> = Arc::from(trace);
        {
            let mut state = self.shared.state.lock();
            if state.shutting_down {
                return Err(ShedReason::ShuttingDown);
            }
            if state.queue.len() + texts.len() > capacity {
                gs_obs::counter("serve.shed.queue_full", texts.len() as u64);
                return Err(ShedReason::QueueFull);
            }
            for (index, text) in texts.into_iter().enumerate() {
                state.queue.push_back(Job {
                    text,
                    index,
                    trace: Arc::clone(&trace),
                    enqueued: now,
                    deadline,
                    reply: tx.clone(),
                });
            }
            // ordering: Relaxed — see queue_depth(): statistics mirror only.
            self.shared.depth.store(state.queue.len() as u64, Ordering::Relaxed);
            gs_obs::gauge("serve.queue.depth", state.queue.len() as f64);
        }
        self.shared.arrived.notify_one();
        Ok(rx)
    }

    /// Stops admitting work, drains everything already queued through the
    /// workers, and joins all threads.
    pub fn shutdown(mut self) {
        self.begin_shutdown();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }

    fn begin_shutdown(&self) {
        let mut state = self.shared.state.lock();
        state.shutting_down = true;
        drop(state);
        self.shared.arrived.notify_all();
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        self.begin_shutdown();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Worker: parks until anything is queued, then at once pulls up to
/// `max_batch` items (a lone item dispatches alone), drops items
/// whose deadline already passed, runs one engine forward over the
/// survivors, and replies per item. On shutdown, keeps pulling until the
/// queue is drained, then exits.
fn worker_loop(shared: &Shared, config: &BatchConfig, engine: &dyn ExtractEngine) {
    loop {
        let mut state = shared.state.lock();
        while state.queue.is_empty() && !state.shutting_down {
            state = shared.arrived.wait(state);
        }
        if state.queue.is_empty() {
            return; // shutting down and fully drained
        }
        let take = state.queue.len().min(config.max_batch);
        let batch: Vec<Job> = state.queue.drain(..take).collect();
        // ordering: Relaxed — see queue_depth(): statistics mirror only.
        shared.depth.store(state.queue.len() as u64, Ordering::Relaxed);
        gs_obs::gauge("serve.queue.depth", state.queue.len() as f64);
        // Leftover items beyond max_batch: hand them to an idle sibling
        // (this worker is about to be busy with the forward).
        if !state.queue.is_empty() {
            shared.arrived.notify_one();
        }
        drop(state);

        let dispatched = Instant::now();
        let mut live: Vec<Job> = Vec::with_capacity(batch.len());
        for job in batch {
            if dispatched >= job.deadline {
                gs_obs::counter("serve.shed.deadline", 1);
                let _ = job.reply.send(ItemResult {
                    index: job.index,
                    outcome: Err(ShedReason::DeadlineExceeded),
                    queue_wait: dispatched - job.enqueued,
                    batch_size: 0,
                    forward: Duration::ZERO,
                });
            } else {
                live.push(job);
            }
        }
        if live.is_empty() {
            continue;
        }

        let texts: Vec<String> = live.iter().map(|j| j.text.clone()).collect();
        let forward_start = Instant::now();
        let _span = gs_obs::span("serve.batch_forward");
        let mut extractions = engine.extract_batch(&texts);
        drop(_span);
        let forward = forward_start.elapsed();
        let forward_seconds = forward.as_secs_f64();
        // A well-behaved engine returns one result per text; pad
        // defensively so a short answer cannot wedge waiting clients.
        extractions.resize_with(live.len(), Extraction::default);

        let batch_size = live.len();
        gs_obs::observe_with(
            "serve.batch.size",
            batch_size as f64,
            &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0],
        );
        gs_obs::observe("serve.batch.forward_seconds", forward_seconds);
        gs_obs::counter("serve.extracted_items", batch_size as u64);
        if let Some(bytes) = engine.arena_bytes() {
            gs_obs::gauge("serve.arena_bytes", bytes as f64);
        }
        // Trace propagation record: which request traces this dispatch
        // served, so a flight-recorder entry can be tied to its batch-mates.
        let mut traces = String::new();
        for (i, job) in live.iter().enumerate() {
            if i > 0 {
                traces.push(',');
            }
            traces.push_str(&job.trace);
        }
        gs_obs::emit(
            "trace",
            "batch_dispatch",
            vec![
                ("traces", gs_obs::FieldValue::Str(traces)),
                ("batch_size", gs_obs::FieldValue::U64(batch_size as u64)),
                ("forward_seconds", gs_obs::FieldValue::F64(forward_seconds)),
            ],
        );

        for (job, extraction) in live.into_iter().zip(extractions) {
            let queue_wait = dispatched - job.enqueued;
            gs_obs::observe("serve.queue.wait_seconds", queue_wait.as_secs_f64());
            let _ = job.reply.send(ItemResult {
                index: job.index,
                outcome: Ok(extraction),
                queue_wait,
                batch_size,
                forward,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// Echoes each text back as a single field, recording batch sizes.
    struct EchoEngine {
        batches: Mutex<Vec<usize>>,
        delay: Duration,
        calls: AtomicUsize,
    }

    impl EchoEngine {
        fn new(delay: Duration) -> Self {
            EchoEngine { batches: Mutex::new(Vec::new()), delay, calls: AtomicUsize::new(0) }
        }
    }

    impl ExtractEngine for EchoEngine {
        fn extract_batch(&self, texts: &[String]) -> Vec<Extraction> {
            self.calls.fetch_add(1, Ordering::Relaxed);
            self.batches.lock().push(texts.len());
            if !self.delay.is_zero() {
                std::thread::sleep(self.delay);
            }
            texts
                .iter()
                .map(|t| Extraction { fields: vec![("Echo".to_string(), t.clone())] })
                .collect()
        }
    }

    const TRACE: &str = "unit-test";

    fn far_deadline() -> Instant {
        Instant::now() + Duration::from_secs(30)
    }

    #[test]
    fn single_item_roundtrips() {
        let engine = Arc::new(EchoEngine::new(Duration::ZERO));
        let batcher = Batcher::start(engine, BatchConfig::default());
        let rx = batcher.submit(vec!["hello".into()], far_deadline(), TRACE).unwrap();
        let result = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(result.index, 0);
        let extraction = result.outcome.unwrap();
        assert_eq!(extraction.fields, vec![("Echo".to_string(), "hello".to_string())]);
        assert!(result.batch_size >= 1);
        batcher.shutdown();
    }

    #[test]
    fn multi_item_submission_returns_all_indices() {
        let engine = Arc::new(EchoEngine::new(Duration::ZERO));
        let batcher = Batcher::start(engine, BatchConfig::default());
        let texts: Vec<String> = (0..5).map(|i| format!("t{i}")).collect();
        let rx = batcher.submit(texts, far_deadline(), TRACE).unwrap();
        let mut results: Vec<ItemResult> = Vec::new();
        for _ in 0..5 {
            results.push(rx.recv_timeout(Duration::from_secs(5)).unwrap());
        }
        results.sort_by_key(|r| r.index);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.index, i);
            assert_eq!(
                r.outcome.as_ref().unwrap().fields,
                vec![("Echo".to_string(), format!("t{i}"))]
            );
        }
        batcher.shutdown();
    }

    #[test]
    fn concurrent_submissions_coalesce_into_batches() {
        // A slow engine forces later submissions to pile up in the queue
        // while the first batch runs, so the next dispatch is > 1 item.
        let engine = Arc::new(EchoEngine::new(Duration::from_millis(30)));
        let batcher = Arc::new(Batcher::start(
            Arc::clone(&engine) as Arc<dyn ExtractEngine>,
            BatchConfig { max_batch: 16, ..Default::default() },
        ));
        std::thread::scope(|scope| {
            for i in 0..12 {
                let batcher = Arc::clone(&batcher);
                scope.spawn(move || {
                    let rx =
                        batcher.submit(vec![format!("req{i}")], far_deadline(), TRACE).unwrap();
                    let result = rx.recv_timeout(Duration::from_secs(10)).unwrap();
                    assert!(result.outcome.is_ok());
                });
            }
        });
        let batches = engine.batches.lock().clone();
        assert_eq!(batches.iter().sum::<usize>(), 12);
        // Far fewer engine calls than requests: batching actually happened.
        assert!(batches.iter().any(|&b| b > 1), "no coalescing in {batches:?}");
        match Arc::try_unwrap(batcher) {
            Ok(b) => b.shutdown(),
            Err(_) => panic!("batcher still shared"),
        }
    }

    #[test]
    fn queue_bound_sheds_load() {
        // One slow batch occupies the worker; capacity 2 then fills.
        let engine = Arc::new(EchoEngine::new(Duration::from_millis(100)));
        let batcher =
            Batcher::start(engine, BatchConfig { max_batch: 1, queue_capacity: 2, workers: 1 });
        let first = batcher.submit(vec!["a".into()], far_deadline(), TRACE).unwrap();
        // Give the scheduler a moment to hand "a" to the (now busy) worker.
        std::thread::sleep(Duration::from_millis(20));
        let _second = batcher.submit(vec!["b".into()], far_deadline(), TRACE).unwrap();
        // One slot is free. Admission is all-or-none: two texts fit the
        // capacity but not the free space, so neither is enqueued.
        let bulk = batcher.submit(vec!["x".into(); 2], far_deadline(), TRACE);
        assert!(matches!(bulk, Err(ShedReason::QueueFull)), "got {bulk:?}");
        assert_eq!(batcher.queue_depth(), 1);
        let _third = batcher.submit(vec!["c".into()], far_deadline(), TRACE).unwrap();
        // Queue now holds b and c; the next submission must shed.
        let shed = batcher.submit(vec!["d".into()], far_deadline(), TRACE);
        assert!(matches!(shed, Err(ShedReason::QueueFull)), "got {shed:?}");
        // More texts than the whole queue holds can never be admitted:
        // refused as too large, not as a retryable full queue.
        let oversized = batcher.submit(vec!["x".into(); 3], far_deadline(), TRACE);
        assert!(
            matches!(oversized, Err(ShedReason::TooLarge { capacity: 2 })),
            "got {oversized:?}"
        );
        assert!(first.recv_timeout(Duration::from_secs(5)).unwrap().outcome.is_ok());
        batcher.shutdown();
    }

    #[test]
    fn expired_deadlines_are_rejected_or_dropped() {
        let engine = Arc::new(EchoEngine::new(Duration::from_millis(50)));
        let batcher = Batcher::start(engine, BatchConfig { max_batch: 1, ..Default::default() });
        // Already-expired deadline: rejected at admission.
        let past = Instant::now() - Duration::from_millis(1);
        assert!(matches!(
            batcher.submit(vec!["late".into()], past, TRACE),
            Err(ShedReason::DeadlineExceeded)
        ));
        // Tight deadline behind a slow batch: dropped at dispatch.
        let _busy = batcher.submit(vec!["slow".into()], far_deadline(), TRACE).unwrap();
        std::thread::sleep(Duration::from_millis(5));
        let rx = batcher
            .submit(vec!["urgent".into()], Instant::now() + Duration::from_millis(10), TRACE)
            .unwrap();
        let result = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(matches!(result.outcome, Err(ShedReason::DeadlineExceeded)), "{result:?}");
        batcher.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_work() {
        let engine = Arc::new(EchoEngine::new(Duration::from_millis(10)));
        let batcher = Batcher::start(engine, BatchConfig { max_batch: 2, ..Default::default() });
        let receivers: Vec<_> = (0..6)
            .map(|i| batcher.submit(vec![format!("q{i}")], far_deadline(), TRACE).unwrap())
            .collect();
        batcher.shutdown();
        // Every queued item was answered (not dropped) during the drain.
        for rx in receivers {
            let result = rx.recv_timeout(Duration::from_secs(5)).unwrap();
            assert!(result.outcome.is_ok(), "{result:?}");
        }
    }

    #[test]
    fn submissions_after_shutdown_are_refused() {
        let engine = Arc::new(EchoEngine::new(Duration::ZERO));
        let batcher = Batcher::start(engine, BatchConfig::default());
        batcher.begin_shutdown();
        assert!(matches!(
            batcher.submit(vec!["x".into()], far_deadline(), TRACE),
            Err(ShedReason::ShuttingDown)
        ));
        batcher.shutdown();
    }

    #[test]
    fn max_batch_caps_dispatch_size() {
        let engine = Arc::new(EchoEngine::new(Duration::from_millis(5)));
        let batcher = Batcher::start(
            Arc::clone(&engine) as Arc<dyn ExtractEngine>,
            BatchConfig { max_batch: 3, ..Default::default() },
        );
        let rx = batcher.submit(vec!["a".into(); 10], far_deadline(), TRACE).unwrap();
        for _ in 0..10 {
            let r = rx.recv_timeout(Duration::from_secs(5)).unwrap();
            assert!(r.batch_size <= 3, "batch of {}", r.batch_size);
        }
        assert!(engine.batches.lock().iter().all(|&b| b <= 3));
        batcher.shutdown();
    }
}
