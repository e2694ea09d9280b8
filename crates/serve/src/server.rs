//! The HTTP front: a `std::net::TcpListener` accept loop, per-connection
//! handler threads with keep-alive, connection-count admission control,
//! request routing, and graceful shutdown that drains the batcher.

use crate::batcher::{BatchConfig, Batcher, ExtractEngine, ItemResult, ShedReason};
use crate::http::{self, ParseOutcome, Request, Response, Status};
use crate::json::{self, Json};
use crate::metrics_text;
use crate::slo::{SloConfig, SloTracker};
use crate::store_hook::{IngestHook, ObjectiveStoreHook};
use crate::trace::{mint_trace_id, FlightRecorder, Trace};
use std::collections::HashMap;
use std::io::BufReader;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Micro-batching configuration.
    pub batch: BatchConfig,
    /// Socket read timeout (idle keep-alive connections are closed after
    /// this long without a request).
    pub read_timeout: Duration,
    /// Deadline budget applied to requests that do not set `deadline_ms`.
    pub default_deadline: Duration,
    /// Largest accepted request body.
    pub max_body_bytes: usize,
    /// Connection-level admission control: beyond this many concurrent
    /// connections, new ones get an immediate 503.
    pub max_connections: usize,
    /// How many recent request traces the flight recorder keeps
    /// (`GET /debug/traces`).
    pub trace_capacity: usize,
    /// SLO watchdog budgets and windows.
    pub slo: SloConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            batch: BatchConfig::default(),
            read_timeout: Duration::from_secs(10),
            default_deadline: Duration::from_secs(5),
            max_body_bytes: 1024 * 1024,
            max_connections: 256,
            trace_capacity: 256,
            slo: SloConfig::default(),
        }
    }
}

struct ServerShared {
    batcher: Batcher,
    config: ServerConfig,
    shutting_down: AtomicBool,
    active_connections: AtomicUsize,
    /// A clone of each admitted connection's stream, by connection number,
    /// so shutdown can end the read side of idle keep-alive connections.
    connections: Mutex<HashMap<u64, TcpStream>>,
    recorder: FlightRecorder,
    slo: Mutex<SloTracker>,
    store: Option<Arc<dyn ObjectiveStoreHook>>,
    ingest: Option<Arc<dyn IngestHook>>,
}

/// A running extraction server. Dropping it without calling
/// [`shutdown`](Server::shutdown) also shuts down, but `shutdown` should
/// be preferred for a deterministic drain.
pub struct Server {
    shared: Arc<ServerShared>,
    addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds, starts the batcher, and begins accepting connections.
    pub fn start(engine: Arc<dyn ExtractEngine>, config: ServerConfig) -> std::io::Result<Server> {
        Self::start_with_store(engine, config, None)
    }

    /// Like [`start`](Self::start), additionally attaching an objective
    /// store: extractions that carry a `company` field are upserted into
    /// it, and `GET /v1/objectives?company=<name>` serves reads from it.
    pub fn start_with_store(
        engine: Arc<dyn ExtractEngine>,
        config: ServerConfig,
        store: Option<Arc<dyn ObjectiveStoreHook>>,
    ) -> std::io::Result<Server> {
        Self::start_with_hooks(engine, config, store, None)
    }

    /// The full-surface constructor: optionally attaches both the
    /// objective store and a whole-report ingestion hook. With an
    /// [`IngestHook`], `POST /v1/ingest` accepts raw report text and
    /// answers with provenance-tagged extractions; without one it is 404.
    pub fn start_with_hooks(
        engine: Arc<dyn ExtractEngine>,
        config: ServerConfig,
        store: Option<Arc<dyn ObjectiveStoreHook>>,
        ingest: Option<Arc<dyn IngestHook>>,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(ServerShared {
            batcher: Batcher::start(engine, config.batch.clone()),
            recorder: FlightRecorder::new(config.trace_capacity),
            slo: Mutex::new(SloTracker::new(config.slo.clone())),
            config,
            shutting_down: AtomicBool::new(false),
            active_connections: AtomicUsize::new(0),
            connections: Mutex::new(HashMap::new()),
            store,
            ingest,
        });
        let accept_thread = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("gs-serve-accept".to_string())
                .spawn(move || accept_loop(&listener, &shared))?
        };
        Ok(Server { shared, addr, accept_thread: Some(accept_thread) })
    }

    /// The bound address (useful with ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of request traces currently held by the flight recorder.
    pub fn trace_count(&self) -> usize {
        self.shared.recorder.len()
    }

    /// Number of open client connections, each served by its own handler
    /// thread.
    pub fn active_connections(&self) -> usize {
        self.shared.active_connections.load(Ordering::SeqCst)
    }

    /// Stops accepting connections, drains queued and in-flight batches,
    /// and joins the server threads.
    pub fn shutdown(mut self) {
        self.stop_accepting();
        // Wait briefly for in-flight handlers to finish writing responses.
        let patience = Instant::now() + self.shared.config.read_timeout + Duration::from_secs(1);
        while self.shared.active_connections.load(Ordering::SeqCst) > 0 && Instant::now() < patience
        {
            std::thread::sleep(Duration::from_millis(2));
        }
        // Batcher::drop drains the queue through the workers and joins.
    }

    /// Stops the accept loop, then ends the read side of every open
    /// connection: a handler blocked reading an idle keep-alive connection
    /// sees end of stream at once instead of waiting out `read_timeout`,
    /// while one that has already read a request still writes its response.
    fn stop_accepting(&mut self) {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        // The accept loop registers each connection before spawning its
        // handler, so after the join no handler can start unregistered.
        let connections = self.shared.connections.lock().unwrap_or_else(|e| e.into_inner());
        for stream in connections.values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_accepting();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<ServerShared>) {
    // Handler threads detach; active_connections tracks them for shutdown.
    let mut next_id = 0u64;
    loop {
        let (stream, _) = match listener.accept() {
            Ok(pair) => pair,
            Err(_) => {
                if shared.shutting_down.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.shutting_down.load(Ordering::SeqCst) {
            return;
        }
        let active = shared.active_connections.fetch_add(1, Ordering::SeqCst) + 1;
        gs_obs::gauge("serve.connections.active", active as f64);
        if active > shared.config.max_connections {
            gs_obs::counter("serve.shed.connections", 1);
            let mut stream = stream;
            let response = Response::json(
                Status::ServiceUnavailable,
                Json::obj(vec![("error", "too many connections".into())]).to_string(),
            )
            .with_header("retry-after", "1".to_string());
            let _ = http::write_response(&mut stream, &response, true);
            release_connection(shared);
            continue;
        }
        let id = next_id;
        next_id += 1;
        if let Ok(clone) = stream.try_clone() {
            shared.connections.lock().unwrap_or_else(|e| e.into_inner()).insert(id, clone);
        }
        let conn_shared = Arc::clone(shared);
        let spawned =
            std::thread::Builder::new().name("gs-serve-conn".to_string()).spawn(move || {
                handle_connection(stream, &conn_shared);
                unregister_connection(&conn_shared, id);
                release_connection(&conn_shared);
            });
        if spawned.is_err() {
            unregister_connection(shared, id);
            release_connection(shared);
        }
    }
}

/// Drops connection `id`'s registered clone, so the socket closes once
/// its handler's own handles are gone.
fn unregister_connection(shared: &ServerShared, id: u64) {
    shared.connections.lock().unwrap_or_else(|e| e.into_inner()).remove(&id);
}

fn release_connection(shared: &ServerShared) {
    let now = shared.active_connections.fetch_sub(1, Ordering::SeqCst) - 1;
    gs_obs::gauge("serve.connections.active", now as f64);
}

/// Serves requests on one connection until close, error, idle timeout, or
/// server shutdown.
fn handle_connection(stream: TcpStream, shared: &ServerShared) {
    let _ = stream.set_read_timeout(Some(shared.config.read_timeout));
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        let request = match http::read_request(&mut reader, shared.config.max_body_bytes) {
            ParseOutcome::Ok(request) => request,
            ParseOutcome::Closed | ParseOutcome::TimedOut | ParseOutcome::Io(_) => return,
            ParseOutcome::Malformed(status) => {
                let body = Json::obj(vec![("error", status.reason().into())]).to_string();
                let _ = http::write_response(&mut writer, &Response::json(status, body), true);
                return;
            }
        };
        // During shutdown, answer this request and then close.
        let close = request.close || shared.shutting_down.load(Ordering::SeqCst);
        let started = Instant::now();
        let response = route(&request, shared);
        observe_request(shared, &request.path, &response, started.elapsed());
        if http::write_response(&mut writer, &response, close).is_err() || close {
            return;
        }
    }
}

fn observe_request(shared: &ServerShared, path: &str, response: &Response, elapsed: Duration) {
    let endpoint = match path.split('?').next().unwrap_or(path) {
        "/v1/extract" => "extract",
        "/v1/extract_batch" => "extract_batch",
        "/v1/ingest" => "ingest",
        "/v1/objectives" => "objectives",
        "/healthz" => "healthz",
        "/metrics" => "metrics",
        "/debug/traces" | "/debug/prof" => "debug",
        _ => "other",
    };
    gs_obs::counter(&format!("serve.requests.{endpoint}"), 1);
    gs_obs::counter(&format!("serve.responses.{}", response.status.code()), 1);
    gs_obs::observe(&format!("serve.latency.{endpoint}"), elapsed.as_secs_f64());
    // The SLO watchdog judges the extraction service, not scrapes of its
    // own health/metrics/debug surfaces.
    if matches!(endpoint, "extract" | "extract_batch") {
        let mut slo = shared.slo.lock().unwrap_or_else(|e| e.into_inner());
        slo.record(elapsed, response.status.code());
    }
}

fn route(request: &Request, shared: &ServerShared) -> Response {
    let (path, query) = match request.path.split_once('?') {
        Some((path, query)) => (path, query),
        None => (request.path.as_str(), ""),
    };
    match (request.method.as_str(), path) {
        ("GET", "/healthz") => healthz(shared),
        ("GET", "/metrics") => metrics(),
        ("GET", "/debug/traces") => debug_traces(shared, query),
        ("GET", "/debug/prof") => debug_prof(query),
        ("POST", "/v1/extract") => extract_single(request, shared),
        ("POST", "/v1/extract_batch") => extract_batch(request, shared),
        ("POST", "/v1/ingest") => ingest_report(request, shared),
        ("GET", "/v1/objectives") => objectives(shared, query),
        ("GET" | "HEAD", "/v1/extract" | "/v1/extract_batch" | "/v1/ingest") => {
            error_response(Status::MethodNotAllowed, "use POST with a JSON body")
        }
        ("POST" | "PUT" | "DELETE", "/v1/objectives") => {
            error_response(Status::MethodNotAllowed, "objectives are read-only over HTTP")
        }
        _ => error_response(Status::NotFound, "unknown endpoint"),
    }
}

/// `GET /debug/traces[?id=<trace_id>]`: the flight recorder's recent
/// request traces, newest last; with `id=` only the matching trace.
fn debug_traces(shared: &ServerShared, query: &str) -> Response {
    let wanted = query.split('&').find_map(|kv| kv.strip_prefix("id="));
    let traces: Vec<Json> = match wanted {
        Some(id) => match shared.recorder.find(id) {
            Some(t) => vec![t.to_json()],
            None => return error_response(Status::NotFound, "trace id not found"),
        },
        None => shared.recorder.snapshot().iter().map(Trace::to_json).collect(),
    };
    Response::json(
        Status::Ok,
        Json::obj(vec![("count", traces.len().into()), ("traces", Json::Arr(traces))]).to_string(),
    )
}

/// `GET /debug/prof[?format=collapsed]`: the live op-profiler table, or
/// flamegraph-compatible collapsed stacks. Reports whether the profiler
/// is even on, since an empty table usually just means "not enabled".
fn debug_prof(query: &str) -> Response {
    let collapsed = query.split('&').any(|kv| kv == "format=collapsed");
    let snapshot = gs_obs::prof::snapshot();
    let body = if collapsed {
        snapshot.collapsed()
    } else {
        format!("# profiler enabled: {}\n{}", gs_obs::prof::enabled(), snapshot.table())
    };
    Response::text(Status::Ok, body)
}

fn error_response(status: Status, message: &str) -> Response {
    Response::json(status, Json::obj(vec![("error", message.into())]).to_string())
}

fn shed_response(reason: ShedReason) -> Response {
    match reason {
        ShedReason::QueueFull => error_response(Status::ServiceUnavailable, "queue full")
            .with_header("retry-after", "1".to_string()),
        // No Retry-After: the same request can never fit.
        ShedReason::TooLarge { capacity } => error_response(
            Status::PayloadTooLarge,
            &format!("more texts than the queue capacity of {capacity}; split the request"),
        ),
        ShedReason::ShuttingDown => error_response(Status::ServiceUnavailable, "shutting down")
            .with_header("retry-after", "2".to_string()),
        ShedReason::DeadlineExceeded => error_response(Status::GatewayTimeout, "deadline exceeded"),
    }
}

fn healthz(shared: &ServerShared) -> Response {
    Response::json(
        Status::Ok,
        Json::obj(vec![
            ("status", "ok".into()),
            ("queue_depth", shared.batcher.queue_depth().into()),
            ("max_batch", shared.batcher.config().max_batch.into()),
        ])
        .to_string(),
    )
}

fn metrics() -> Response {
    let snapshot = gs_obs::snapshot().unwrap_or_default();
    Response::text(Status::Ok, metrics_text::render(&snapshot))
}

/// `GET /v1/objectives?company=<percent-encoded name>`: every stored
/// objective of one company, streamed from the store's lock-free reader
/// path (never blocked behind ingest) straight into the response body.
/// The body is `{"company","count","records","trace_id"}`, byte for byte
/// what printing that `Json` object gives. Requires a store hook; servers
/// started without one answer 404.
fn objectives(shared: &ServerShared, query: &str) -> Response {
    let started = Instant::now();
    let Some(store) = shared.store.as_ref() else {
        return error_response(Status::NotFound, "no objective store attached");
    };
    let Some(raw) = query.split('&').find_map(|kv| kv.strip_prefix("company=")) else {
        return error_response(Status::BadRequest, "missing query parameter \"company\"");
    };
    let Some(company) = http::percent_decode(raw) else {
        return error_response(Status::BadRequest, "malformed percent-encoding in \"company\"");
    };
    if company.is_empty() {
        return error_response(Status::BadRequest, "\"company\" must be non-empty");
    }
    let trace_id = mint_trace_id();
    // The envelope is written by hand in the sorted key order a `Json`
    // object prints in; the count goes in once the records are written.
    let mut body = String::with_capacity(256);
    body.push_str("{\"company\":");
    json::write_string(&mut body, &company);
    body.push_str(",\"count\":");
    let count_at = body.len();
    body.push_str(",\"records\":");
    let count = store.write_company_records(&company, &mut body);
    body.push_str(",\"trace_id\":");
    json::write_string(&mut body, &trace_id);
    body.push('}');
    body.insert_str(count_at, &count.to_string());
    finish_traced(
        shared,
        Response::json(Status::Ok, body),
        trace_id,
        "objectives",
        count,
        started,
        None,
    )
}

/// `POST /v1/ingest`: `{"company": "...", "text": "<raw report>",
/// "document"?: "..."}` — parse a whole semi-structured report, detect and
/// extract its objectives, and upsert them with section provenance.
/// Answers with ingestion stats plus every detected objective (section
/// path, block kind, byte range). Requires an ingest hook; servers started
/// without one answer 404. Ingestion runs synchronously on the handler
/// thread, outside the micro-batcher: a report is one indivisible unit of
/// work, not a batchable item.
fn ingest_report(request: &Request, shared: &ServerShared) -> Response {
    let started = Instant::now();
    let Some(hook) = shared.ingest.as_ref() else {
        return error_response(Status::NotFound, "no ingestion pipeline attached");
    };
    let (body, _deadline) = match parse_body(request) {
        Ok(parsed) => parsed,
        Err(response) => return response,
    };
    let Some(company) = body.get("company").and_then(Json::as_str) else {
        return error_response(Status::BadRequest, "missing string field \"company\"");
    };
    if company.is_empty() {
        return error_response(Status::BadRequest, "\"company\" must be non-empty");
    }
    let Some(text) = body.get("text").and_then(Json::as_str) else {
        return error_response(Status::BadRequest, "missing string field \"text\"");
    };
    let document = body.get("document").and_then(Json::as_str).unwrap_or("ingest");
    let trace_id = mint_trace_id();
    let (status, mut fields) = match hook.ingest_report(company, document, text) {
        Ok(Json::Obj(map)) => (Status::Ok, map),
        Ok(other) => (Status::Ok, std::iter::once(("result".to_string(), other)).collect()),
        Err(err) => {
            gs_obs::counter("serve.ingest.errors", 1);
            let map = std::iter::once(("error".to_string(), Json::Str(err))).collect();
            (Status::InternalError, map)
        }
    };
    let items = match fields.get("objectives") {
        Some(Json::Arr(objectives)) => objectives.len(),
        _ => 0,
    };
    fields.insert("trace_id".to_string(), Json::Str(trace_id.clone()));
    finish_traced(
        shared,
        Response::json(status, Json::Obj(fields).to_string()),
        trace_id,
        "ingest",
        items,
        started,
        None,
    )
}

/// Upserts one successful extraction into the attached store, if the
/// request named a company. Store failures never fail the extraction
/// response — the client got its answer; the loss is counted and traced.
fn store_extraction(
    shared: &ServerShared,
    body: &Json,
    text: &str,
    fields: &[(String, String)],
    trace_id: &str,
) -> Option<(&'static str, Json)> {
    let store = shared.store.as_ref()?;
    let company = body.get("company").and_then(Json::as_str)?;
    if company.is_empty() {
        return None;
    }
    let document = body.get("document").and_then(Json::as_str).unwrap_or("api");
    match store.record_extraction(company, document, text, fields) {
        Ok(outcome) => {
            gs_obs::counter(&format!("serve.store.{outcome}"), 1);
            Some(("stored", Json::Str(outcome.to_string())))
        }
        Err(err) => {
            gs_obs::counter("serve.store.errors", 1);
            gs_obs::emit(
                "store_error",
                "serve.store",
                vec![("trace", trace_id.into()), ("error", err.as_str().into())],
            );
            Some(("stored", Json::Str("error".to_string())))
        }
    }
}

/// Largest accepted `deadline_ms` (one hour). Anything bigger is a client
/// error; unbounded values would overflow `Instant::now() + budget` and
/// panic the connection handler instead of producing a 400.
const MAX_DEADLINE_MS: u64 = 3_600_000;

/// Parses the request body and the optional `deadline_ms` budget.
fn parse_body(request: &Request) -> Result<(Json, Option<Duration>), Response> {
    let Some(text) = request.body_utf8() else {
        return Err(error_response(Status::BadRequest, "body is not UTF-8"));
    };
    let value = json::parse(text)
        .map_err(|_| error_response(Status::BadRequest, "body is not valid JSON"))?;
    let deadline = match value.get("deadline_ms") {
        None => None,
        Some(v) => match v.as_u64() {
            Some(ms) if ms <= MAX_DEADLINE_MS => Some(Duration::from_millis(ms)),
            Some(_) => {
                return Err(error_response(
                    Status::BadRequest,
                    "deadline_ms exceeds the one-hour maximum",
                ))
            }
            None => {
                return Err(error_response(
                    Status::BadRequest,
                    "deadline_ms must be a non-negative integer",
                ))
            }
        },
    };
    Ok((value, deadline))
}

fn extraction_json(fields: &[(String, String)]) -> Json {
    Json::Obj(fields.iter().map(|(k, v)| (k.clone(), Json::Str(v.clone()))).collect())
}

/// Finalizes an extraction response: stamps the trace id into the
/// `X-Trace-Id` header and writes the request's flight-recorder entry.
fn finish_traced(
    shared: &ServerShared,
    response: Response,
    trace_id: String,
    endpoint: &'static str,
    items: usize,
    started: Instant,
    result: Option<&ItemResult>,
) -> Response {
    shared.recorder.record(Trace {
        id: trace_id.clone(),
        endpoint,
        status: response.status.code(),
        items,
        queue_wait: result.map(|r| r.queue_wait).unwrap_or_default(),
        batch_size: result.map(|r| r.batch_size).unwrap_or_default(),
        forward: result.map(|r| r.forward).unwrap_or_default(),
        total: started.elapsed(),
    });
    response.with_header("x-trace-id", trace_id)
}

fn extract_single(request: &Request, shared: &ServerShared) -> Response {
    let started = Instant::now();
    let (body, deadline_budget) = match parse_body(request) {
        Ok(parsed) => parsed,
        Err(response) => return response,
    };
    let Some(text) = body.get("text").and_then(Json::as_str) else {
        return error_response(Status::BadRequest, "missing string field \"text\"");
    };
    // Admission: the request is valid and enters the batching pipeline
    // under this trace id.
    let trace_id = mint_trace_id();
    let finish = |response, result: Option<&ItemResult>| {
        finish_traced(shared, response, trace_id.clone(), "extract", 1, started, result)
    };
    let budget = deadline_budget.unwrap_or(shared.config.default_deadline);
    let deadline = Instant::now() + budget;
    let receiver = match shared.batcher.submit(vec![text.to_string()], deadline, &trace_id) {
        Ok(receiver) => receiver,
        Err(reason) => return finish(shed_response(reason), None),
    };
    match await_result(&receiver, deadline) {
        Ok(result) => match &result.outcome {
            Ok(extraction) => {
                let mut pairs = vec![
                    ("fields", extraction_json(&extraction.fields)),
                    ("batch_size", result.batch_size.into()),
                    ("queue_us", (result.queue_wait.as_micros() as u64).into()),
                    ("trace_id", Json::Str(trace_id.clone())),
                ];
                if let Some(stored) =
                    store_extraction(shared, &body, text, &extraction.fields, &trace_id)
                {
                    pairs.push(stored);
                }
                let body = Json::obj(pairs).to_string();
                finish(Response::json(Status::Ok, body), Some(&result))
            }
            Err(reason) => finish(shed_response(*reason), Some(&result)),
        },
        Err(response) => finish(response, None),
    }
}

fn extract_batch(request: &Request, shared: &ServerShared) -> Response {
    let started = Instant::now();
    let (body, deadline_budget) = match parse_body(request) {
        Ok(parsed) => parsed,
        Err(response) => return response,
    };
    let Some(items) = body.get("texts").and_then(Json::as_arr) else {
        return error_response(Status::BadRequest, "missing array field \"texts\"");
    };
    let mut texts = Vec::with_capacity(items.len());
    for item in items {
        match item.as_str() {
            Some(s) => texts.push(s.to_string()),
            None => return error_response(Status::BadRequest, "\"texts\" must contain strings"),
        }
    }
    let trace_id = mint_trace_id();
    if texts.is_empty() {
        let body = Json::obj(vec![
            ("results", Json::Arr(Vec::new())),
            ("trace_id", Json::Str(trace_id.clone())),
        ])
        .to_string();
        return finish_traced(
            shared,
            Response::json(Status::Ok, body),
            trace_id,
            "extract_batch",
            0,
            started,
            None,
        );
    }
    let n = texts.len();
    let finish = |response, result: Option<&ItemResult>| {
        finish_traced(shared, response, trace_id.clone(), "extract_batch", n, started, result)
    };
    let budget = deadline_budget.unwrap_or(shared.config.default_deadline);
    let deadline = Instant::now() + budget;
    let receiver = match shared.batcher.submit(texts, deadline, &trace_id) {
        Ok(receiver) => receiver,
        Err(reason) => return finish(shed_response(reason), None),
    };
    let mut results: Vec<Option<ItemResult>> = (0..n).map(|_| None).collect();
    for _ in 0..n {
        match await_result(&receiver, deadline) {
            Ok(result) => {
                let slot = result.index;
                results[slot] = Some(result);
            }
            Err(response) => return finish(response, None),
        }
    }
    // Whole-request semantics: if any item timed out, the request did. The
    // recorded trace carries the slowest item's queue wait and its batch.
    let mut rendered = Vec::with_capacity(n);
    let mut slowest: Option<ItemResult> = None;
    for result in results.into_iter().flatten() {
        match &result.outcome {
            Ok(extraction) => {
                rendered.push(Json::obj(vec![("fields", extraction_json(&extraction.fields))]));
                if slowest.as_ref().is_none_or(|s| result.queue_wait > s.queue_wait) {
                    slowest = Some(result);
                }
            }
            Err(reason) => {
                let reason = *reason;
                return finish(shed_response(reason), Some(&result));
            }
        }
    }
    let body = Json::obj(vec![
        ("results", Json::Arr(rendered)),
        ("trace_id", Json::Str(trace_id.clone())),
    ])
    .to_string();
    finish(Response::json(Status::Ok, body), slowest.as_ref())
}

/// Waits for one batcher result, translating channel loss/timeouts into
/// error responses.
fn await_result(
    receiver: &std::sync::mpsc::Receiver<ItemResult>,
    deadline: Instant,
) -> Result<ItemResult, Response> {
    // Small grace period: the worker checks the deadline at dispatch; a
    // batch admitted just in time may complete just after it.
    let wait_until = deadline + Duration::from_secs(2);
    let now = Instant::now();
    let timeout = wait_until.saturating_duration_since(now);
    match receiver.recv_timeout(timeout) {
        Ok(result) => Ok(result),
        Err(RecvTimeoutError::Timeout) => {
            gs_obs::counter("serve.shed.deadline", 1);
            Err(shed_response(ShedReason::DeadlineExceeded))
        }
        Err(RecvTimeoutError::Disconnected) => {
            Err(error_response(Status::InternalError, "worker dropped request"))
        }
    }
}
