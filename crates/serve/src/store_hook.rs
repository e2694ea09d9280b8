//! The serving layer's bridge to an objective store.
//!
//! gs-serve is deliberately std-only and does not depend on gs-store; the
//! server talks to persistence through this trait instead. The production
//! implementation (in `gs-pipeline`) upserts into the log-structured
//! `ObjectiveDb` and streams company queries from its lock-free reader
//! path, so `GET /v1/objectives` stays fast under write load.

use crate::json::Json;

/// Store operations the server needs. Implementations must be cheap to
/// call concurrently: `record_extraction` runs on extraction handler
/// threads and `write_company_records` on read handler threads.
pub trait ObjectiveStoreHook: Send + Sync + 'static {
    /// Upserts one served extraction under `(company, objective)`. Returns
    /// a short outcome label for metrics (`"inserted"`, `"updated"`,
    /// `"unchanged"`) or an error message if the store rejected the write.
    fn record_extraction(
        &self,
        company: &str,
        document: &str,
        objective: &str,
        fields: &[(String, String)],
    ) -> Result<&'static str, String>;

    /// All stored records of one company, each rendered as a JSON object,
    /// in stable first-insert order.
    ///
    /// The server never calls this directly; it reads through
    /// [`write_company_records`](Self::write_company_records), whose
    /// provided method encodes these trees. It stays a required method
    /// only for hooks that wrap another hook and time this call (the
    /// benchmark's traced store does), and goes once they are gone.
    fn company_records(&self, company: &str) -> Vec<Json>;

    /// Appends one company's records to `out` as a compact JSON array and
    /// returns how many it wrote. This is the server's only read path.
    ///
    /// The provided method encodes [`company_records`](Self::company_records)
    /// and is the reference: an override must write exactly these bytes,
    /// typically by streaming the store's records into `out` without
    /// building the trees.
    fn write_company_records(&self, company: &str, out: &mut String) -> usize {
        let records = self.company_records(company);
        out.push('[');
        for (i, record) in records.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            record.write(out);
        }
        out.push(']');
        records.len()
    }

    /// Live record count across the store.
    fn record_count(&self) -> usize;
}

/// Whole-report ingestion behind `POST /v1/ingest`.
///
/// Like [`ObjectiveStoreHook`], this keeps gs-serve free of pipeline and
/// store dependencies: the production implementation (in `gs-pipeline`)
/// parses the raw report text with `gs-ingest`, runs detection and
/// extraction over its sentence units, and upserts provenance-tagged
/// records. Ingestion runs synchronously on the handler thread — callers
/// should budget a generous `deadline_ms` for large reports.
pub trait IngestHook: Send + Sync + 'static {
    /// Ingests one raw report text for `company`, recording extractions
    /// under `document`. Returns the response body fields: ingestion
    /// stats plus every detected objective with its section path and
    /// byte range. `Err` messages become HTTP 500 bodies.
    fn ingest_report(&self, company: &str, document: &str, text: &str) -> Result<Json, String>;
}
