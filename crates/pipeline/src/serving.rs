//! Adapters wiring the trained system into the `gs-serve` HTTP service:
//! [`gs_serve::ExtractEngine`] implementations whose batched entry points
//! run one packed encoder forward per micro-batch.

use crate::ingest::{ingest_report_text, IngestStats, IngestedObjective};
use crate::system::GoalSpotter;
use gs_core::ExtractedDetails;
use gs_models::transformer::TransformerExtractor;
use gs_obs::json::{write_f64, write_string};
use gs_serve::{ExtractEngine, Extraction, IngestHook, Json, ObjectiveStoreHook};
use gs_store::{ObjectiveDb, ObjectiveRecord, UpsertOutcome};
use gs_tensor::arena;
use std::sync::Arc;

fn to_extraction(details: ExtractedDetails) -> Extraction {
    Extraction { fields: details.fields.into_iter().filter(|(_, v)| !v.is_empty()).collect() }
}

impl ExtractEngine for GoalSpotter {
    fn extract_batch(&self, texts: &[String]) -> Vec<Extraction> {
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        arena::scope(|| GoalSpotter::extract_batch(self, &refs))
            .into_iter()
            .map(to_extraction)
            .collect()
    }

    fn arena_bytes(&self) -> Option<u64> {
        Some(arena::stats().pooled_bytes)
    }
}

/// A serving engine around a bare [`TransformerExtractor`] (no detection
/// stage), for deployments that only expose the extraction service. Each
/// micro-batch forward runs inside a buffer-arena scope, so steady-state
/// serving recycles its kernel buffers instead of hitting the allocator.
pub struct ExtractorEngine(pub TransformerExtractor);

impl ExtractEngine for ExtractorEngine {
    fn extract_batch(&self, texts: &[String]) -> Vec<Extraction> {
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        arena::scope(|| self.0.extract_batch(&refs)).into_iter().map(to_extraction).collect()
    }

    fn arena_bytes(&self) -> Option<u64> {
        Some(arena::stats().pooled_bytes)
    }
}

/// Bridges the serving layer's [`ObjectiveStoreHook`] to the log-structured
/// [`ObjectiveDb`]: served extractions that name a company are upserted
/// (same dedupe/merge semantics as the batch pipeline), and
/// `GET /v1/objectives` reads stream from the store's lock-free reader
/// path into the response body.
///
/// When built [`with_spotter`](Self::with_spotter), each upserted record is
/// scored by the detector, so API-ingested records rank comparably with
/// batch-pipeline records in `top_objectives`; without one the score is
/// 1.0 (the client asserted it is an objective by asking for extraction).
pub struct DbStoreHook {
    db: Arc<ObjectiveDb>,
    spotter: Option<Arc<GoalSpotter>>,
}

impl DbStoreHook {
    /// A hook that stores served extractions with score 1.0.
    pub fn new(db: Arc<ObjectiveDb>) -> Self {
        DbStoreHook { db, spotter: None }
    }

    /// A hook that scores each stored objective with `spotter`'s detector.
    pub fn with_spotter(db: Arc<ObjectiveDb>, spotter: Arc<GoalSpotter>) -> Self {
        DbStoreHook { db, spotter: Some(spotter) }
    }

    /// The underlying store.
    pub fn db(&self) -> &Arc<ObjectiveDb> {
        &self.db
    }
}

fn json_opt(field: &Option<String>) -> Json {
    match field {
        Some(s) => Json::Str(s.clone()),
        None => Json::Null,
    }
}

/// One record as a `Json` tree: the reference the streaming
/// [`write_record`] must match byte for byte once printed.
fn record_json(record: &ObjectiveRecord) -> Json {
    Json::obj(vec![
        ("company", Json::Str(record.company.clone())),
        ("document", Json::Str(record.document.clone())),
        ("objective", Json::Str(record.objective.clone())),
        ("action", json_opt(&record.action)),
        ("amount", json_opt(&record.amount)),
        ("qualifier", json_opt(&record.qualifier)),
        ("baseline", json_opt(&record.baseline)),
        ("deadline", json_opt(&record.deadline)),
        ("score", if record.score.is_finite() { Json::Num(record.score) } else { Json::Null }),
        ("section_id", json_opt(&record.section_id)),
        ("section_path", json_opt(&record.section_path)),
        ("block_kind", json_opt(&record.block_kind)),
        ("source_range", json_opt(&record.source_range)),
    ])
}

/// Appends what printing [`record_json`] gives, without building the tree:
/// the same 13 keys in the same (sorted) order.
fn write_record(out: &mut String, record: &ObjectiveRecord) {
    let text = |out: &mut String, key: &str, value: &str| {
        out.push_str(key);
        write_string(out, value);
    };
    let opt = |out: &mut String, key: &str, value: &Option<String>| {
        out.push_str(key);
        match value {
            Some(s) => write_string(out, s),
            None => out.push_str("null"),
        }
    };
    opt(out, "{\"action\":", &record.action);
    opt(out, ",\"amount\":", &record.amount);
    opt(out, ",\"baseline\":", &record.baseline);
    opt(out, ",\"block_kind\":", &record.block_kind);
    text(out, ",\"company\":", &record.company);
    opt(out, ",\"deadline\":", &record.deadline);
    text(out, ",\"document\":", &record.document);
    text(out, ",\"objective\":", &record.objective);
    opt(out, ",\"qualifier\":", &record.qualifier);
    out.push_str(",\"score\":");
    write_f64(out, record.score);
    opt(out, ",\"section_id\":", &record.section_id);
    opt(out, ",\"section_path\":", &record.section_path);
    opt(out, ",\"source_range\":", &record.source_range);
    out.push('}');
}

fn stats_json(stats: &IngestStats) -> Json {
    Json::obj(vec![
        ("bytes", stats.bytes.into()),
        ("blocks", stats.blocks.into()),
        ("sections", stats.sections.into()),
        ("units", stats.units.into()),
        ("candidates", stats.candidates.into()),
        ("detected", stats.detected.into()),
        ("inserted", stats.inserted.into()),
        ("updated", stats.updated.into()),
        ("unchanged", stats.unchanged.into()),
        ("store_errors", stats.store_errors.into()),
    ])
}

fn ingested_json(o: &IngestedObjective) -> Json {
    Json::obj(vec![
        ("text", Json::Str(o.text.clone())),
        ("score", Json::Num(f64::from(o.score))),
        (
            "fields",
            Json::Obj(o.fields.iter().map(|(k, v)| (k.clone(), Json::Str(v.clone()))).collect()),
        ),
        ("section_id", Json::Str(o.section_id.clone())),
        ("section_path", Json::Str(o.section_path.clone())),
        ("block_kind", Json::Str(o.block_kind.clone())),
        ("byte_range", Json::Arr(vec![o.byte_range.0.into(), o.byte_range.1.into()])),
        (
            "table_header",
            match &o.table_header {
                Some(h) => Json::Str(h.clone()),
                None => Json::Null,
            },
        ),
    ])
}

impl ObjectiveStoreHook for DbStoreHook {
    fn record_extraction(
        &self,
        company: &str,
        document: &str,
        objective: &str,
        fields: &[(String, String)],
    ) -> Result<&'static str, String> {
        let mut details = ExtractedDetails::new();
        for (key, value) in fields {
            details.set(key, value);
        }
        let score = match &self.spotter {
            Some(gs) => f64::from(gs.detection_score(objective)),
            None => 1.0,
        };
        let record = ObjectiveRecord::from_details(company, document, objective, &details, score);
        match self.db.upsert(&record) {
            Ok(UpsertOutcome::Inserted) => Ok("inserted"),
            Ok(UpsertOutcome::Updated) => Ok("updated"),
            Ok(UpsertOutcome::Unchanged) => Ok("unchanged"),
            Err(e) => Err(e.to_string()),
        }
    }

    fn company_records(&self, company: &str) -> Vec<Json> {
        self.db.reader().by_company(company).iter().map(record_json).collect()
    }

    /// Streams the records from the shard view straight into `out`: no
    /// record clones and no `Json` trees.
    fn write_company_records(&self, company: &str, out: &mut String) -> usize {
        out.push('[');
        let open = out.len();
        let count = self.db.reader().visit_company(company, |record| {
            if out.len() > open {
                out.push(',');
            }
            write_record(out, record);
        });
        out.push(']');
        count
    }

    fn record_count(&self) -> usize {
        self.db.len()
    }
}

impl IngestHook for DbStoreHook {
    fn ingest_report(&self, company: &str, document: &str, text: &str) -> Result<Json, String> {
        let Some(gs) = &self.spotter else {
            return Err(
                "ingestion needs a detection stage; build the hook with_spotter".to_string()
            );
        };
        let (stats, objectives) = ingest_report_text(gs, company, document, text, self.db.as_ref());
        Ok(Json::obj(vec![
            ("company", Json::Str(company.to_string())),
            ("document", Json::Str(document.to_string())),
            ("stats", stats_json(&stats)),
            ("objectives", Json::Arr(objectives.iter().map(ingested_json).collect())),
        ]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::tests::tiny_config;
    use gs_core::{Annotations, Objective};
    use gs_text::labels::LabelSet;

    #[test]
    fn goalspotter_engine_matches_direct_extraction() {
        let mut data = Vec::new();
        for (i, (v, t)) in
            [("Reduce", "emissions"), ("Cut", "waste"), ("Lower", "usage"), ("Trim", "intake")]
                .iter()
                .enumerate()
        {
            let pct = 10 + i * 17;
            let year = 2026 + i;
            data.push(Objective::annotated(
                i as u64,
                format!("{v} {t} by {pct}% by {year}."),
                Annotations::new()
                    .with("Action", v)
                    .with("Qualifier", t)
                    .with("Amount", &format!("{pct}%"))
                    .with("Deadline", &year.to_string()),
            ));
        }
        let refs: Vec<&Objective> = data.iter().collect();
        let noise = ["The audit committee reviewed the statements.", "Revenue grew moderately."];
        let labels = LabelSet::sustainability_goals();
        let gs = GoalSpotter::develop(&refs, &noise, &labels, tiny_config());

        let texts = vec!["Cut waste by 27% by 2029.".to_string(), String::new()];
        let via_engine = ExtractEngine::extract_batch(&gs, &texts);
        assert_eq!(via_engine.len(), 2);
        let direct = gs.extract("Cut waste by 27% by 2029.");
        for (key, value) in &via_engine[0].fields {
            assert_eq!(direct.get(key), Some(value.as_str()));
        }
        assert_eq!(
            via_engine[0].fields.len(),
            direct.fields.values().filter(|v| !v.is_empty()).count()
        );
        assert!(via_engine[1].fields.is_empty());
    }

    #[test]
    fn ingest_endpoint_round_trips_a_report_into_the_store() {
        use gs_obs::Rng;
        use gs_serve::{Client, Server, ServerConfig};
        use std::time::Duration;

        let gs = Arc::new(crate::ingest::tests::tiny_ingest_system());
        let db = Arc::new(ObjectiveDb::ephemeral(gs_store::StoreConfig::default()));
        let hook = Arc::new(DbStoreHook::with_spotter(Arc::clone(&db), Arc::clone(&gs)));
        let server =
            Server::start_with_hooks(gs, ServerConfig::default(), Some(hook.clone()), Some(hook))
                .expect("server");
        let mut client = Client::connect(server.addr(), Duration::from_secs(30)).expect("client");

        let mut rng = Rng::seed_from_u64(5);
        let report = gs_data::fullreport::generate_full_report(
            "Acme Corp",
            "CSR 2026",
            &gs_data::fullreport::FullReportConfig::default(),
            &mut rng,
        );
        let body = Json::obj(vec![
            ("company", Json::Str("Acme Corp".to_string())),
            ("document", Json::Str("csr-2026".to_string())),
            ("text", Json::Str(report.text.clone())),
        ])
        .to_string();
        let response = client.post_json("/v1/ingest", &body).expect("ingest");
        assert_eq!(response.status, 200, "body {}", response.body);
        let parsed = gs_serve::json::parse(&response.body).expect("json");
        let detected = parsed.get("stats").and_then(|s| s.get("detected")).and_then(Json::as_u64);
        assert!(detected.unwrap_or(0) > 0, "body {}", response.body);
        assert!(response.body.contains("section_path"), "body {}", response.body);
        assert!(response.header("x-trace-id").is_some());
        assert!(!db.is_empty(), "records landed in the store");

        // Stored provenance surfaces on the objectives read path too.
        let read = client.get("/v1/objectives?company=Acme%20Corp").expect("objectives");
        assert_eq!(read.status, 200);
        assert!(read.body.contains("section_path"), "body {}", read.body);

        // Bad requests are client errors, not 500s.
        let missing = client.post_json("/v1/ingest", "{\"text\": \"x\"}").expect("post");
        assert_eq!(missing.status, 400);
        server.shutdown();
    }

    #[test]
    fn ingest_endpoint_is_absent_without_a_hook() {
        use gs_serve::{Client, Server, ServerConfig};
        use std::time::Duration;

        struct Null;
        impl ExtractEngine for Null {
            fn extract_batch(&self, texts: &[String]) -> Vec<Extraction> {
                texts.iter().map(|_| Extraction { fields: vec![] }).collect()
            }
        }
        let server = Server::start(Arc::new(Null), ServerConfig::default()).expect("server");
        let mut client = Client::connect(server.addr(), Duration::from_secs(5)).expect("client");
        let response =
            client.post_json("/v1/ingest", "{\"company\": \"A\", \"text\": \"t\"}").expect("post");
        assert_eq!(response.status, 404);
        server.shutdown();
    }
}
