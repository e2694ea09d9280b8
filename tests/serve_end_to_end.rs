//! End-to-end service integration: a trained extractor served over HTTP
//! with micro-batching must return exactly the same extractions as calling
//! the model directly, shed load under a tiny queue instead of queueing
//! without bound, and keep serving after the overload drains.

use goalspotter::core::Objective;
use goalspotter::models::transformer::{
    ExtractorOptions, TrainConfig, TransformerConfig, TransformerExtractor,
};
use goalspotter::models::DetailExtractor;
use goalspotter::pipeline::{DbStoreHook, ExtractorEngine};
use goalspotter::serve::{
    json, BatchConfig, Client, Json, ObjectiveStoreHook, Server, ServerConfig,
};
use goalspotter::store::{ObjectiveDb, StoreConfig};
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// One tiny trained extractor shared by every test in this file (training
/// dominates test runtime; serving itself is cheap).
fn engine() -> Arc<ExtractorEngine> {
    static ENGINE: OnceLock<Arc<ExtractorEngine>> = OnceLock::new();
    ENGINE
        .get_or_init(|| {
            let dataset = goalspotter::data::sustaingoals::generate(64, 42);
            let refs: Vec<&Objective> = dataset.objectives.iter().collect();
            let options = ExtractorOptions {
                model: TransformerConfig {
                    d_model: 32,
                    n_heads: 2,
                    n_layers: 1,
                    d_ff: 64,
                    max_len: 48,
                    subword_budget: 250,
                    ..TransformerConfig::roberta_sim()
                },
                train: TrainConfig { epochs: 8, lr: 3e-3, batch_size: 8, ..Default::default() },
                ..Default::default()
            };
            Arc::new(ExtractorEngine(TransformerExtractor::train(&refs, &dataset.labels, options)))
        })
        .clone()
}

fn sample_texts(n: usize) -> Vec<String> {
    let dataset = goalspotter::data::sustaingoals::generate(64, 42);
    dataset.texts().into_iter().take(n).map(str::to_string).collect()
}

/// What the service should answer for `text`: the direct model extraction,
/// minus empty fields (the service omits them).
fn expected_fields(extractor: &TransformerExtractor, text: &str) -> BTreeMap<String, String> {
    extractor.extract(text).fields.into_iter().filter(|(_, v)| !v.is_empty()).collect()
}

fn fields_of(value: &Json) -> BTreeMap<String, String> {
    let Some(Json::Obj(map)) = value.get("fields") else {
        panic!("no fields object in {value:?}");
    };
    map.iter().map(|(k, v)| (k.clone(), v.as_str().expect("string field").to_string())).collect()
}

fn single_body(text: &str) -> String {
    Json::obj(vec![("text", Json::from(text))]).to_string()
}

#[test]
fn concurrent_clients_receive_exact_model_outputs() {
    let engine = engine();
    let server = Server::start(
        engine.clone(),
        ServerConfig {
            batch: BatchConfig { max_batch: 8, ..Default::default() },
            ..Default::default()
        },
    )
    .expect("start server");
    let addr = server.addr();
    let texts = sample_texts(24);

    // Six concurrent clients hammer /v1/extract; micro-batched inference
    // must be bitwise-faithful to the direct single-text path.
    std::thread::scope(|scope| {
        for chunk in texts.chunks(4) {
            let engine = &engine;
            scope.spawn(move || {
                let mut client = Client::connect(addr, Duration::from_secs(10)).expect("connect");
                for text in chunk {
                    let resp =
                        client.post_json("/v1/extract", &single_body(text)).expect("request");
                    assert_eq!(resp.status, 200, "body: {}", resp.body);
                    let value = json::parse(&resp.body).expect("response json");
                    assert_eq!(fields_of(&value), expected_fields(&engine.0, text), "for {text:?}");
                    let batch_size = value.get("batch_size").and_then(Json::as_u64);
                    assert!(batch_size >= Some(1), "bad batch_size in {}", resp.body);
                }
            });
        }
    });

    // The batch endpoint returns per-text results in order, each equal to
    // the direct prediction.
    let mut client = Client::connect(addr, Duration::from_secs(10)).expect("connect");
    let array = Json::Arr(texts.iter().take(8).map(|t| Json::from(t.as_str())).collect());
    let body = Json::obj(vec![("texts", array)]).to_string();
    let resp = client.post_json("/v1/extract_batch", &body).expect("batch request");
    assert_eq!(resp.status, 200, "body: {}", resp.body);
    let value = json::parse(&resp.body).expect("response json");
    let results = value.get("results").and_then(Json::as_arr).expect("results array");
    assert_eq!(results.len(), 8);
    for (result, text) in results.iter().zip(&texts) {
        assert_eq!(fields_of(result), expected_fields(&engine.0, text), "for {text:?}");
    }

    let health = client.get("/healthz").expect("healthz");
    assert_eq!(health.status, 200);
    server.shutdown();
}

#[test]
fn tiny_queue_sheds_excess_load_and_recovers() {
    let engine = engine();
    let server = Server::start(
        engine.clone(),
        ServerConfig {
            batch: BatchConfig { max_batch: 1, queue_capacity: 2, workers: 1 },
            ..Default::default()
        },
    )
    .expect("start server");
    let addr = server.addr();
    let texts = sample_texts(4);

    // Admission is all-or-none: a batch larger than the whole queue can
    // never be admitted, so it is refused at once as too large, with no
    // Retry-After inviting a retry that could never succeed.
    let mut client = Client::connect(addr, Duration::from_secs(10)).expect("connect");
    let array = Json::Arr(texts.iter().map(|t| Json::from(t.as_str())).collect());
    let body = Json::obj(vec![("texts", array)]).to_string();
    let resp = client.post_json("/v1/extract_batch", &body).expect("oversized batch");
    assert_eq!(resp.status, 413, "body: {}", resp.body);
    assert_eq!(resp.header("retry-after"), None);

    // A concurrent flood gets a mix of successes and fast 503s — never
    // hangs, never errors at the transport level.
    let per_client = 10usize;
    let mut ok = 0usize;
    let mut shed = 0usize;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..6)
            .map(|c| {
                let texts = &texts;
                scope.spawn(move || {
                    let mut client =
                        Client::connect(addr, Duration::from_secs(10)).expect("connect");
                    let (mut ok, mut shed) = (0usize, 0usize);
                    for i in 0..per_client {
                        let text = &texts[(c + i) % texts.len()];
                        let resp =
                            client.post_json("/v1/extract", &single_body(text)).expect("request");
                        match resp.status {
                            200 => ok += 1,
                            503 => shed += 1,
                            other => panic!("unexpected status {other}: {}", resp.body),
                        }
                    }
                    (ok, shed)
                })
            })
            .collect();
        for handle in handles {
            let (o, s) = handle.join().expect("client thread");
            ok += o;
            shed += s;
        }
    });
    assert_eq!(ok + shed, 6 * per_client);
    assert!(ok > 0, "flood starved every request");

    // Once the flood drains, the same server keeps serving correct answers.
    let resp = client.post_json("/v1/extract", &single_body(&texts[0])).expect("post-flood");
    assert_eq!(resp.status, 200, "body: {}", resp.body);
    let value = json::parse(&resp.body).expect("response json");
    assert_eq!(fields_of(&value), expected_fields(&engine.0, &texts[0]));

    server.shutdown();
    let after =
        Client::connect(addr, Duration::from_millis(250)).and_then(|mut c| c.get("/healthz"));
    assert!(after.is_err(), "server accepted connections after shutdown");
}

#[test]
fn every_response_carries_a_resolvable_trace_id() {
    let engine = engine();
    // A collector so SLO gauges reach /metrics (telemetry is otherwise a
    // no-op); other tests in this binary don't inspect metrics, so the
    // shared global is safe here.
    let _collector = goalspotter::obs::install(goalspotter::obs::Collector::new());
    let server = Server::start(engine.clone(), ServerConfig::default()).expect("start server");
    let addr = server.addr();
    let texts = sample_texts(3);

    let mut client = Client::connect(addr, Duration::from_secs(10)).expect("connect");
    let mut ids = Vec::new();
    for text in &texts {
        let resp = client.post_json("/v1/extract", &single_body(text)).expect("request");
        assert_eq!(resp.status, 200, "body: {}", resp.body);
        let value = json::parse(&resp.body).expect("response json");
        let body_id = value
            .get("trace_id")
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("no trace_id in {}", resp.body))
            .to_string();
        // Header and body agree.
        assert_eq!(resp.header("x-trace-id"), Some(body_id.as_str()), "header/body mismatch");
        assert_eq!(body_id.len(), 16);
        ids.push(body_id);
    }
    // Batch responses carry one too.
    let array = Json::Arr(texts.iter().map(|t| Json::from(t.as_str())).collect());
    let body = Json::obj(vec![("texts", array)]).to_string();
    let resp = client.post_json("/v1/extract_batch", &body).expect("batch request");
    assert_eq!(resp.status, 200);
    let batch_id = json::parse(&resp.body)
        .expect("json")
        .get("trace_id")
        .and_then(Json::as_str)
        .expect("batch trace_id")
        .to_string();
    ids.push(batch_id);

    // Every id resolves through the flight recorder, with the request's
    // timing attached.
    for id in &ids {
        let resp = client.get(&format!("/debug/traces?id={id}")).expect("trace lookup");
        assert_eq!(resp.status, 200, "trace {id} not resolvable: {}", resp.body);
        let value = json::parse(&resp.body).expect("traces json");
        let traces = value.get("traces").and_then(Json::as_arr).expect("traces array");
        assert_eq!(traces.len(), 1);
        let trace = &traces[0];
        assert_eq!(trace.get("trace_id").and_then(Json::as_str), Some(id.as_str()));
        assert_eq!(trace.get("status").and_then(Json::as_u64), Some(200));
        assert!(trace.get("total_us").and_then(Json::as_u64) > Some(0), "no total in {trace:?}");
        assert!(trace.get("batch_size").and_then(Json::as_u64) >= Some(1));
    }
    // The full dump lists all of them; unknown ids 404.
    let resp = client.get("/debug/traces").expect("trace dump");
    let value = json::parse(&resp.body).expect("traces json");
    assert!(value.get("count").and_then(Json::as_u64) >= Some(ids.len() as u64));
    let missing = client.get("/debug/traces?id=ffffffffffffffff").expect("missing trace");
    assert_eq!(missing.status, 404);

    // /debug/prof serves the live op table; with the profiler enabled it
    // attributes the forward's kernels, and the collapsed form nests
    // path;op lines.
    let resp = client.get("/debug/prof").expect("prof");
    assert_eq!(resp.status, 200);
    assert!(resp.body.contains("profiler enabled: false"), "body: {}", resp.body);
    goalspotter::obs::prof::reset();
    goalspotter::obs::prof::set_enabled(true);
    let resp = client.post_json("/v1/extract", &single_body(&texts[0])).expect("profiled request");
    assert_eq!(resp.status, 200);
    goalspotter::obs::prof::set_enabled(false);
    let table = client.get("/debug/prof").expect("prof table");
    assert!(table.body.contains("matmul"), "no ops in profile: {}", table.body);
    let collapsed = client.get("/debug/prof?format=collapsed").expect("collapsed");
    assert!(collapsed.body.contains(";matmul"), "bad collapsed: {}", collapsed.body);
    goalspotter::obs::prof::reset();

    // The SLO gauges from this healthy traffic surface in /metrics.
    let metrics = client.get("/metrics").expect("metrics");
    assert!(metrics.body.contains("slo_burn_rate_errors_short"), "body: {}", metrics.body);
    server.shutdown();
    let _ = goalspotter::obs::uninstall();
}

#[test]
fn objectives_endpoint_persists_extractions_across_server_restarts() {
    let engine = engine();
    let dir = std::env::temp_dir().join(format!("gs-serve-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Without a store attached, the endpoint is absent.
    {
        let server = Server::start(engine.clone(), ServerConfig::default()).expect("start");
        let mut client = Client::connect(server.addr(), Duration::from_secs(10)).expect("connect");
        let resp = client.get("/v1/objectives?company=Acme").expect("request");
        assert_eq!(resp.status, 404, "body: {}", resp.body);
        server.shutdown();
    }

    let open_hook = |dir: &std::path::Path| -> Arc<dyn ObjectiveStoreHook> {
        let (db, _) = ObjectiveDb::open(dir, StoreConfig::default()).expect("open db");
        Arc::new(DbStoreHook::new(Arc::new(db)))
    };
    let text = "Cut waste by 27% by 2029.";
    let body = Json::obj(vec![
        ("text", Json::from(text)),
        ("company", Json::from("Acme Corp")),
        ("document", Json::from("esg-2029")),
    ])
    .to_string();

    let count_after_first_run;
    {
        let server = Server::start_with_store(
            engine.clone(),
            ServerConfig::default(),
            Some(open_hook(&dir)),
        )
        .expect("start with store");
        let mut client = Client::connect(server.addr(), Duration::from_secs(10)).expect("connect");

        // First extraction with a company is stored; the identical repeat
        // is recognised as unchanged (idempotent re-ingestion).
        let resp = client.post_json("/v1/extract", &body).expect("request");
        assert_eq!(resp.status, 200, "body: {}", resp.body);
        let value = json::parse(&resp.body).expect("json");
        assert_eq!(value.get("stored").and_then(Json::as_str), Some("inserted"), "{}", resp.body);
        let resp = client.post_json("/v1/extract", &body).expect("repeat");
        let value = json::parse(&resp.body).expect("json");
        assert_eq!(value.get("stored").and_then(Json::as_str), Some("unchanged"), "{}", resp.body);

        // A company-less request is served but not stored.
        let resp = client.post_json("/v1/extract", &single_body(text)).expect("no company");
        assert_eq!(resp.status, 200);
        assert!(json::parse(&resp.body).expect("json").get("stored").is_none());

        // Query back via the read path; the space survives percent-encoding.
        let resp = client.get("/v1/objectives?company=Acme%20Corp").expect("query");
        assert_eq!(resp.status, 200, "body: {}", resp.body);
        let value = json::parse(&resp.body).expect("json");
        assert_eq!(value.get("company").and_then(Json::as_str), Some("Acme Corp"));
        let records = value.get("records").and_then(Json::as_arr).expect("records");
        assert_eq!(value.get("count").and_then(Json::as_u64), Some(records.len() as u64));
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].get("objective").and_then(Json::as_str), Some(text));
        assert_eq!(records[0].get("document").and_then(Json::as_str), Some("esg-2029"));
        let trace_id = value.get("trace_id").and_then(Json::as_str).expect("trace_id").to_string();
        assert_eq!(resp.header("x-trace-id"), Some(trace_id.as_str()));

        // `+` decodes to a space too; unknown companies yield empty lists.
        let resp = client.get("/v1/objectives?company=Acme+Corp").expect("plus form");
        assert_eq!(resp.status, 200);
        let resp = client.get("/v1/objectives?company=Nobody").expect("unknown");
        assert_eq!(
            json::parse(&resp.body).expect("json").get("count").and_then(Json::as_u64),
            Some(0)
        );

        // Malformed queries are client errors; writes are rejected.
        for query in ["", "?company=", "?company=%zz", "?other=x"] {
            let resp = client.get(&format!("/v1/objectives{query}")).expect("bad query");
            assert_eq!(resp.status, 400, "query {query:?}: {}", resp.body);
        }
        let resp = client.post_json("/v1/objectives", "{}").expect("write attempt");
        assert_eq!(resp.status, 405, "body: {}", resp.body);

        count_after_first_run = records.len();
        server.shutdown();
    }

    // A fresh server over the same directory replays the logs and serves
    // the same records.
    let server =
        Server::start_with_store(engine.clone(), ServerConfig::default(), Some(open_hook(&dir)))
            .expect("restart with store");
    let mut client = Client::connect(server.addr(), Duration::from_secs(10)).expect("connect");
    let resp = client.get("/v1/objectives?company=Acme%20Corp").expect("query after restart");
    assert_eq!(resp.status, 200, "body: {}", resp.body);
    let value = json::parse(&resp.body).expect("json");
    assert_eq!(value.get("count").and_then(Json::as_u64), Some(count_after_first_run as u64));
    // Re-ingestion after restart is still recognised as a duplicate.
    let resp = client.post_json("/v1/extract", &body).expect("repeat after restart");
    let value = json::parse(&resp.body).expect("json");
    assert_eq!(value.get("stored").and_then(Json::as_str), Some("unchanged"), "{}", resp.body);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn threaded_pool_serving_matches_the_serial_path_exactly() {
    let engine = engine();
    let texts = sample_texts(12);

    // Ground truth computed with the pool pinned to one thread: the
    // serial per-text extraction path.
    let serial: Vec<BTreeMap<String, String>> =
        gs_par::with_threads(1, || texts.iter().map(|t| expected_fields(&engine.0, t)).collect());

    // Serve the same texts with a 4-thread pool active. The batch worker
    // thread fans per-sequence encoding out across gs-par workers
    // (`predict_tags_batch`), so this exercises the threaded service path
    // end to end; responses must stay bitwise-faithful to the serial run.
    let _scope = gs_par::ParScope::new(4);
    let server = Server::start(
        engine.clone(),
        ServerConfig {
            batch: BatchConfig { max_batch: 6, ..Default::default() },
            ..Default::default()
        },
    )
    .expect("start server");
    let addr = server.addr();

    let mut client = Client::connect(addr, Duration::from_secs(10)).expect("connect");
    let array = Json::Arr(texts.iter().map(|t| Json::from(t.as_str())).collect());
    let body = Json::obj(vec![("texts", array)]).to_string();
    let resp = client.post_json("/v1/extract_batch", &body).expect("batch request");
    assert_eq!(resp.status, 200, "body: {}", resp.body);
    let value = json::parse(&resp.body).expect("response json");
    let results = value.get("results").and_then(Json::as_arr).expect("results array");
    assert_eq!(results.len(), texts.len());
    for ((result, text), want) in results.iter().zip(&texts).zip(&serial) {
        assert_eq!(&fields_of(result), want, "threaded serving diverged for {text:?}");
    }

    // Single-text requests through the micro-batcher agree too.
    for (text, want) in texts.iter().take(4).zip(&serial) {
        let resp = client.post_json("/v1/extract", &single_body(text)).expect("request");
        assert_eq!(resp.status, 200, "body: {}", resp.body);
        let value = json::parse(&resp.body).expect("response json");
        assert_eq!(&fields_of(&value), want, "threaded serving diverged for {text:?}");
    }
    server.shutdown();
}
