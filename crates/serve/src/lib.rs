//! # gs-serve
//!
//! The request-serving surface of GoalSpotter: a dependency-free (std +
//! gs-obs) HTTP/1.1 extraction service with **dynamic micro-batching**,
//! **backpressure**, and **admission control**.
//!
//! The paper deploys the weakly supervised extractor inside a live system
//! that fills a structured database on demand; this crate is that serving
//! layer. Requests to `POST /v1/extract` land in a bounded queue, and a
//! worker pool pulls them in micro-batches of up to `max_batch` items,
//! running one batched model forward per batch — amortizing encoder costs
//! across concurrent callers. Dispatch is work-conserving: an idle worker
//! takes whatever is queued at once, so batches form only from requests
//! that arrive while a forward is running, and a lone request never waits.
//!
//! ## Endpoints
//!
//! | Route | Method | Purpose |
//! |---|---|---|
//! | `/v1/extract` | POST | `{"text": "...", "deadline_ms"?: n}` → extracted fields |
//! | `/v1/extract_batch` | POST | `{"texts": [...]}` → one result per text |
//! | `/v1/ingest` | POST | `{"company": "...", "text": "<raw report>"}` → provenance-tagged extractions (needs an [`IngestHook`]) |
//! | `/healthz` | GET | liveness + queue depth |
//! | `/metrics` | GET | Prometheus text rendered from the gs-obs registry |
//! | `/debug/traces` | GET | flight-recorder dump; `?id=` looks up one trace |
//! | `/debug/prof` | GET | live op-profiler table; `?format=collapsed` for flamegraphs |
//!
//! ## Tracing and SLOs
//!
//! Every admitted extraction request is minted a **trace id** that rides
//! through the batcher with each queued item, comes back in the response
//! (`trace_id` field and `X-Trace-Id` header), and lands in a bounded
//! in-memory [flight recorder](trace::FlightRecorder) queryable via
//! `GET /debug/traces?id=...` — queue wait, batch size, forward time, and
//! end-to-end latency per request. An [SLO watchdog](slo::SloTracker)
//! keeps sliding-window p99 latency, error-rate, and shed-rate burn rates
//! (short + long window), publishes them as `slo.*` gauges in `/metrics`,
//! and emits `slo_alert` / `slo_resolve` events on threshold crossings.
//!
//! ## Robustness semantics
//!
//! - **Load shedding:** when the bounded queue is full, requests get HTTP
//!   503 with `Retry-After` instead of unbounded queueing latency. A
//!   batch with more texts than the whole queue holds could never be
//!   admitted, so it gets 413 naming the limit, with no `Retry-After`.
//! - **Deadlines:** every request carries a budget (`deadline_ms` or the
//!   server default); items whose deadline passes while queued are
//!   dropped at dispatch and answered with 504.
//! - **Admission control:** beyond `max_connections` concurrent
//!   connections, new connections are turned away with 503.
//! - **Graceful shutdown:** the server stops accepting, answers requests
//!   already on open connections, and drains every queued item through
//!   the workers before [`Server::shutdown`] returns.
//!
//! ```no_run
//! use gs_serve::{ExtractEngine, Extraction, Server, ServerConfig};
//! use std::sync::Arc;
//!
//! struct Upper;
//! impl ExtractEngine for Upper {
//!     fn extract_batch(&self, texts: &[String]) -> Vec<Extraction> {
//!         texts
//!             .iter()
//!             .map(|t| Extraction { fields: vec![("Upper".into(), t.to_uppercase())] })
//!             .collect()
//!     }
//! }
//!
//! let server = Server::start(Arc::new(Upper), ServerConfig::default()).unwrap();
//! println!("listening on http://{}", server.addr());
//! server.shutdown();
//! ```

#![warn(missing_docs)]

pub mod batcher;
pub mod client;
pub mod http;
pub mod metrics_text;
pub mod server;
pub mod slo;
pub mod store_hook;
pub mod trace;

pub use batcher::{BatchConfig, Batcher, ExtractEngine, Extraction, ItemResult, ShedReason};
pub use client::{Client, ClientResponse};
/// The workspace JSON codec (defined in gs-obs), re-exported so service
/// clients parse and build bodies with `gs_serve::json`.
pub use gs_obs::json;
pub use http::{Request, Response, Status};
pub use json::Json;
pub use server::{Server, ServerConfig};
pub use slo::{SloConfig, SloDimension, SloTracker, WindowStats};
pub use store_hook::{IngestHook, ObjectiveStoreHook};
pub use trace::{mint_trace_id, FlightRecorder, Trace};
