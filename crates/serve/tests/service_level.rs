//! Service-level tests against a live `gs-serve` server with a fake
//! engine: endpoint contracts, concurrent batching, backpressure (503 +
//! Retry-After, or 413 for a batch no queue state could admit), deadlines
//! (504), admission control, client disconnects, and graceful drain.
//! These run with no model so the serving layer is tested in isolation.

use gs_serve::{BatchConfig, Client, ExtractEngine, Extraction, Json, Server, ServerConfig};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Serializes the tests that install the process-global gs-obs collector
/// and read counters from it against the tests that move those counters.
static TELEMETRY: Mutex<()> = Mutex::new(());

fn telemetry_lock() -> MutexGuard<'static, ()> {
    TELEMETRY.lock().unwrap_or_else(|e| e.into_inner())
}

/// Deterministic fake: "extracts" the uppercased text, recording batches.
struct FakeEngine {
    delay: Duration,
    batch_sizes: Mutex<Vec<usize>>,
    calls: AtomicUsize,
}

impl FakeEngine {
    fn new(delay: Duration) -> Self {
        FakeEngine { delay, batch_sizes: Mutex::new(Vec::new()), calls: AtomicUsize::new(0) }
    }
}

impl ExtractEngine for FakeEngine {
    fn extract_batch(&self, texts: &[String]) -> Vec<Extraction> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.batch_sizes.lock().unwrap().push(texts.len());
        if !self.delay.is_zero() {
            std::thread::sleep(self.delay);
        }
        texts
            .iter()
            .map(|t| Extraction { fields: vec![("Upper".to_string(), t.to_uppercase())] })
            .collect()
    }
}

/// Holds its first forward until the test releases it, so requests can be
/// lined up behind a running batch without sleeping; later forwards run at
/// once.
struct GatedEngine {
    gate: Mutex<Option<(Sender<()>, Receiver<()>)>>,
    batch_sizes: Mutex<Vec<usize>>,
}

impl ExtractEngine for GatedEngine {
    fn extract_batch(&self, texts: &[String]) -> Vec<Extraction> {
        self.batch_sizes.lock().unwrap().push(texts.len());
        let gate = self.gate.lock().unwrap().take();
        if let Some((entered, release)) = gate {
            entered.send(()).unwrap();
            release.recv().unwrap();
        }
        texts
            .iter()
            .map(|t| Extraction { fields: vec![("Upper".to_string(), t.to_uppercase())] })
            .collect()
    }
}

fn start(engine: Arc<FakeEngine>, batch: BatchConfig) -> Server {
    let config = ServerConfig {
        batch,
        read_timeout: Duration::from_secs(2),
        default_deadline: Duration::from_secs(5),
        ..Default::default()
    };
    Server::start(engine, config).expect("server starts")
}

fn client(server: &Server) -> Client {
    Client::connect(server.addr(), Duration::from_secs(10)).expect("connect")
}

#[test]
fn extract_endpoint_returns_fields() {
    let server = start(Arc::new(FakeEngine::new(Duration::ZERO)), BatchConfig::default());
    let mut c = client(&server);
    let resp = c.post_json("/v1/extract", r#"{"text": "reduce emissions"}"#).unwrap();
    assert_eq!(resp.status, 200, "body: {}", resp.body);
    let v = gs_serve::json::parse(&resp.body).unwrap();
    assert_eq!(
        v.get("fields").and_then(|f| f.get("Upper")).and_then(Json::as_str),
        Some("REDUCE EMISSIONS")
    );
    assert!(v.get("batch_size").and_then(Json::as_u64).unwrap() >= 1);
    server.shutdown();
}

#[test]
fn batch_endpoint_preserves_order() {
    let server = start(Arc::new(FakeEngine::new(Duration::ZERO)), BatchConfig::default());
    let mut c = client(&server);
    let resp = c.post_json("/v1/extract_batch", r#"{"texts": ["a", "b", "c"]}"#).unwrap();
    assert_eq!(resp.status, 200, "body: {}", resp.body);
    let v = gs_serve::json::parse(&resp.body).unwrap();
    let results = v.get("results").and_then(Json::as_arr).unwrap();
    let uppers: Vec<&str> = results
        .iter()
        .map(|r| r.get("fields").unwrap().get("Upper").unwrap().as_str().unwrap())
        .collect();
    assert_eq!(uppers, vec!["A", "B", "C"]);
    server.shutdown();
}

#[test]
fn keep_alive_serves_many_requests_per_connection() {
    let server = start(Arc::new(FakeEngine::new(Duration::ZERO)), BatchConfig::default());
    let mut c = client(&server);
    for i in 0..20 {
        let resp = c.post_json("/v1/extract", &format!(r#"{{"text": "req {i}"}}"#)).unwrap();
        assert_eq!(resp.status, 200);
    }
    let health = c.get("/healthz").unwrap();
    assert_eq!(health.status, 200);
    server.shutdown();
}

#[test]
fn healthz_and_metrics_respond() {
    let server = start(Arc::new(FakeEngine::new(Duration::ZERO)), BatchConfig::default());
    let mut c = client(&server);
    let health = c.get("/healthz").unwrap();
    assert_eq!(health.status, 200);
    let v = gs_serve::json::parse(&health.body).unwrap();
    assert_eq!(v.get("status").and_then(Json::as_str), Some("ok"));
    // Metrics endpoint renders even without an installed collector.
    let metrics = c.get("/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    server.shutdown();
}

#[test]
fn malformed_requests_get_4xx_not_hangs() {
    let server = start(Arc::new(FakeEngine::new(Duration::ZERO)), BatchConfig::default());
    let mut c = client(&server);
    assert_eq!(c.post_json("/v1/extract", "not json").unwrap().status, 400);
    assert_eq!(c.post_json("/v1/extract", r#"{"wrong": 1}"#).unwrap().status, 400);
    assert_eq!(c.post_json("/v1/extract", r#"{"text": 5}"#).unwrap().status, 400);
    assert_eq!(
        c.post_json("/v1/extract", r#"{"text": "x", "deadline_ms": -2}"#).unwrap().status,
        400
    );
    assert_eq!(c.post_json("/v1/extract_batch", r#"{"texts": [1]}"#).unwrap().status, 400);
    assert_eq!(c.post_json("/nope", "{}").unwrap().status, 404);
    assert_eq!(c.get("/v1/extract").unwrap().status, 405);
    server.shutdown();
}

#[test]
fn empty_batch_is_ok_and_empty() {
    let server = start(Arc::new(FakeEngine::new(Duration::ZERO)), BatchConfig::default());
    let mut c = client(&server);
    let resp = c.post_json("/v1/extract_batch", r#"{"texts": []}"#).unwrap();
    assert_eq!(resp.status, 200);
    let v = gs_serve::json::parse(&resp.body).unwrap();
    assert_eq!(v.get("results").and_then(Json::as_arr).map(<[Json]>::len), Some(0));
    server.shutdown();
}

#[test]
fn concurrent_requests_coalesce_into_micro_batches() {
    let engine = Arc::new(FakeEngine::new(Duration::from_millis(25)));
    let server = start(Arc::clone(&engine), BatchConfig { max_batch: 16, ..Default::default() });
    let addr = server.addr();
    std::thread::scope(|scope| {
        for i in 0..12 {
            scope.spawn(move || {
                let mut c = Client::connect(addr, Duration::from_secs(10)).unwrap();
                let resp =
                    c.post_json("/v1/extract", &format!(r#"{{"text": "text {i}"}}"#)).unwrap();
                assert_eq!(resp.status, 200);
            });
        }
    });
    let sizes = engine.batch_sizes.lock().unwrap().clone();
    assert_eq!(sizes.iter().sum::<usize>(), 12);
    assert!(sizes.iter().any(|&s| s > 1), "12 concurrent requests never coalesced: {sizes:?}");
    server.shutdown();
}

#[test]
fn full_queue_sheds_with_503_and_retry_after() {
    let _serial = telemetry_lock();
    // Slow engine + tiny queue: flood and expect a mix of 200s and 503s,
    // with every 503 carrying Retry-After and arriving fast.
    let engine = Arc::new(FakeEngine::new(Duration::from_millis(40)));
    let server =
        start(Arc::clone(&engine), BatchConfig { max_batch: 1, queue_capacity: 2, workers: 1 });
    let addr = server.addr();
    let shed = Arc::new(AtomicUsize::new(0));
    let served = Arc::new(AtomicUsize::new(0));
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let shed = Arc::clone(&shed);
            let served = Arc::clone(&served);
            scope.spawn(move || {
                let mut c = Client::connect(addr, Duration::from_secs(10)).unwrap();
                for i in 0..8 {
                    let resp =
                        c.post_json("/v1/extract", &format!(r#"{{"text": "flood {i}"}}"#)).unwrap();
                    match resp.status {
                        200 => {
                            served.fetch_add(1, Ordering::Relaxed);
                        }
                        503 => {
                            assert!(
                                resp.header("retry-after").is_some(),
                                "503 without Retry-After"
                            );
                            shed.fetch_add(1, Ordering::Relaxed);
                        }
                        other => panic!("unexpected status {other}: {}", resp.body),
                    }
                }
            });
        }
    });
    assert_eq!(shed.load(Ordering::Relaxed) + served.load(Ordering::Relaxed), 32);
    assert!(shed.load(Ordering::Relaxed) > 0, "queue bound never shed");
    assert!(served.load(Ordering::Relaxed) > 0, "nothing served under load");
    server.shutdown();
}

#[test]
fn tight_deadline_times_out_with_504() {
    let engine = Arc::new(FakeEngine::new(Duration::from_millis(80)));
    let server = start(Arc::clone(&engine), BatchConfig { max_batch: 1, ..Default::default() });
    let addr = server.addr();
    // Occupy the single worker...
    let busy = std::thread::spawn(move || {
        let mut c = Client::connect(addr, Duration::from_secs(10)).unwrap();
        c.post_json("/v1/extract", r#"{"text": "slow"}"#).unwrap().status
    });
    std::thread::sleep(Duration::from_millis(15));
    // ...then submit with a deadline shorter than the in-flight batch.
    let mut c = client(&server);
    let resp = c.post_json("/v1/extract", r#"{"text": "urgent", "deadline_ms": 20}"#).unwrap();
    assert_eq!(resp.status, 504, "body: {}", resp.body);
    assert_eq!(busy.join().unwrap(), 200);
    server.shutdown();
}

#[test]
fn graceful_shutdown_drains_inflight_work() {
    let engine = Arc::new(FakeEngine::new(Duration::from_millis(30)));
    let server = start(Arc::clone(&engine), BatchConfig { max_batch: 2, ..Default::default() });
    let addr = server.addr();
    let workers: Vec<_> = (0..4)
        .map(|i| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr, Duration::from_secs(10)).unwrap();
                c.post_json("/v1/extract", &format!(r#"{{"text": "drain {i}"}}"#)).unwrap().status
            })
        })
        .collect();
    // Let requests reach the queue, then shut down mid-flight.
    std::thread::sleep(Duration::from_millis(10));
    server.shutdown();
    for worker in workers {
        let status = worker.join().unwrap();
        // Drained requests answer 200; anything the server refused must be
        // an orderly 503, never a dropped connection.
        assert!(status == 200 || status == 503, "got {status}");
    }
}

#[test]
fn shutdown_does_not_wait_out_an_idle_keep_alive_client() {
    let config = ServerConfig { read_timeout: Duration::from_secs(10), ..Default::default() };
    let server = Server::start(Arc::new(FakeEngine::new(Duration::ZERO)), config).unwrap();
    let mut c = client(&server);
    assert_eq!(c.post_json("/v1/extract", r#"{"text": "then idle"}"#).unwrap().status, 200);
    // The connection stays open: its handler is blocked reading the next
    // request, with ten seconds left on its read timeout.
    let started = Instant::now();
    server.shutdown();
    let took = started.elapsed();
    assert!(took < Duration::from_secs(1), "shutdown waited {took:?} on an idle client");
    assert!(c.get("/healthz").is_err(), "the idle connection outlived the server");
}

#[test]
fn batch_larger_than_the_queue_gets_413_without_retry_after() {
    let _serial = telemetry_lock();
    gs_obs::install(gs_obs::Collector::new());
    let engine = Arc::new(FakeEngine::new(Duration::ZERO));
    let server =
        start(Arc::clone(&engine), BatchConfig { queue_capacity: 2, ..Default::default() });
    let mut c = client(&server);
    // Idle server, three texts against a two-slot queue: no retry can ever
    // be admitted, so the answer is a client error naming the limit.
    for _ in 0..3 {
        let resp = c.post_json("/v1/extract_batch", r#"{"texts": ["a", "b", "c"]}"#).unwrap();
        assert_eq!(resp.status, 413, "body: {}", resp.body);
        assert_eq!(resp.header("retry-after"), None, "413 must not invite a retry");
        assert!(resp.body.contains("queue capacity of 2"), "body: {}", resp.body);
    }
    assert_eq!(engine.calls.load(Ordering::Relaxed), 0, "an oversized batch reached the engine");
    // A batch that fits the queue is served on the same connection.
    let resp = c.post_json("/v1/extract_batch", r#"{"texts": ["a", "b"]}"#).unwrap();
    assert_eq!(resp.status, 200, "body: {}", resp.body);
    drop(c);
    let snapshot = gs_obs::snapshot().expect("collector installed");
    gs_obs::uninstall();
    assert_eq!(snapshot.counter("serve.responses.413"), 3);
    assert_eq!(snapshot.counter("serve.shed.queue_full"), 0, "a 413 counted as a full queue");
    server.shutdown();
}

/// One `/v1/extract` request as raw bytes, for a client that hangs up
/// without reading its answer.
fn raw_extract(addr: SocketAddr, text: &str) -> TcpStream {
    let body = format!(r#"{{"text": "{text}"}}"#);
    let request = format!(
        "POST /v1/extract HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(request.as_bytes()).expect("write request");
    stream
}

/// Polls `probe` until it holds, failing the test after ten seconds.
fn wait_for(what: &str, mut probe: impl FnMut() -> bool) {
    let give_up = Instant::now() + Duration::from_secs(10);
    while !probe() {
        assert!(Instant::now() < give_up, "timed out waiting for {what}");
        std::thread::yield_now();
    }
}

#[test]
fn client_disconnect_mid_batch_does_not_fail_or_delay_its_batch_mates() {
    let _serial = telemetry_lock();
    gs_obs::install(gs_obs::Collector::new());
    let (entered_tx, entered) = channel();
    let (release, release_rx) = channel();
    let engine = Arc::new(GatedEngine {
        gate: Mutex::new(Some((entered_tx, release_rx))),
        batch_sizes: Mutex::new(Vec::new()),
    });
    // A long read timeout, so only a client hang-up can close a connection
    // within the test's bounds.
    let config = ServerConfig {
        batch: BatchConfig { max_batch: 8, workers: 1, ..Default::default() },
        read_timeout: Duration::from_secs(60),
        ..Default::default()
    };
    let server = Server::start(Arc::clone(&engine) as Arc<dyn ExtractEngine>, config).unwrap();
    let addr = server.addr();
    let post = move |text: &str| {
        let mut c = Client::connect(addr, Duration::from_secs(10)).unwrap();
        c.post_json("/v1/extract", &format!(r#"{{"text": "{text}"}}"#)).unwrap()
    };

    // A's forward starts and is held in the engine.
    let a = std::thread::spawn(move || post("a"));
    entered.recv_timeout(Duration::from_secs(10)).expect("first forward never started");
    // B and C queue behind it; B's client will hang up before its batch.
    let b = raw_extract(addr, "b");
    let c = std::thread::spawn(move || post("c"));
    let mut probe = client(&server);
    wait_for("B and C to be queued", || {
        let health = gs_serve::json::parse(&probe.get("/healthz").unwrap().body).unwrap();
        health.get("queue_depth").and_then(Json::as_u64) == Some(2)
    });
    drop(probe);
    drop(b);
    release.send(()).unwrap();

    assert_eq!(a.join().unwrap().status, 200);
    let c = c.join().unwrap();
    assert_eq!(c.status, 200, "body: {}", c.body);
    let v = gs_serve::json::parse(&c.body).unwrap();
    assert_eq!(v.get("batch_size").and_then(Json::as_u64), Some(2), "C lost its batch-mate");
    assert_eq!(*engine.batch_sizes.lock().unwrap(), vec![1, 2]);
    // The service is unharmed: the next request is answered.
    assert_eq!(post("d").status, 200);
    wait_for("every connection to close", || server.active_connections() == 0);
    let snapshot = gs_obs::snapshot().expect("collector installed");
    gs_obs::uninstall();
    assert_eq!(snapshot.counter("serve.responses.500"), 0);
    server.shutdown();
}
