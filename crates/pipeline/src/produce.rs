//! Production-phase document processing: run GoalSpotter over reports,
//! detect objective blocks, extract their details, and store the structured
//! records (paper §5's deployment scenarios).

use crate::ingest::tally;
use crate::system::GoalSpotter;
use gs_data::deployment::DeploymentCorpus;
use gs_data::documents::Report;
use gs_store::{ObjectiveRecord, ObjectiveSink};

/// Processing statistics for one report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReportStats {
    /// Pages scanned.
    pub pages: usize,
    /// Blocks classified.
    pub blocks: usize,
    /// Blocks detected as objectives (and streamed into the store).
    pub detected: usize,
    /// Detection errors vs ground truth: noise blocks detected as
    /// objectives.
    pub false_positives: usize,
    /// Detection errors vs ground truth: objective blocks missed.
    pub false_negatives: usize,
    /// Upserts that created a new record.
    pub inserted: usize,
    /// Upserts that merged new detail into an existing record.
    pub updated: usize,
    /// Upserts that found content-identical state (re-processing an
    /// already-ingested report lands here — the idempotent path).
    pub unchanged: usize,
    /// Upserts the store rejected with an I/O error (records are dropped,
    /// not retried; the count surfaces the loss).
    pub store_errors: usize,
}

/// Per-company aggregate over a corpus (the shape of the paper's Table 5).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CompanyStats {
    /// Company label.
    pub company: String,
    /// Documents processed.
    pub documents: usize,
    /// Pages scanned.
    pub pages: usize,
    /// Objectives extracted into the store.
    pub extracted_objectives: usize,
    /// Upserts that created a new record (deduplicated, so re-processing a
    /// company's reports leaves this at 0).
    pub new_records: usize,
}

/// Runs detection + extraction over one report and hands every detected
/// objective to `store` in one `upsert_batch` call: new objectives insert,
/// re-extracted ones merge details under their (company, objective)
/// identity, and content-identical re-runs are no-ops — so processing the
/// same report twice leaves the store bit-identical.
///
/// Extraction is two-phase: detection sweeps all blocks first, then one
/// [`GoalSpotter::extract_batch`] call runs a packed encoder forward over
/// every detected block — the same amortization the serving layer's
/// micro-batcher applies, here per report.
pub fn process_report(
    gs: &GoalSpotter,
    report: &Report,
    store: &(impl ObjectiveSink + ?Sized),
) -> ReportStats {
    let mut stats = ReportStats { pages: report.pages.len(), ..Default::default() };
    let blocks: Vec<_> = report.pages.iter().flat_map(|p| p.blocks.iter()).collect();
    stats.blocks = blocks.len();
    // Per-block detection is independent, so it fans out across the gs-par
    // pool; scores come back in block order and the accounting below folds
    // serially, keeping stats identical at any pool size.
    let scores = gs_par::map_collect(blocks.len(), |i| gs.detection_score(&blocks[i].text));
    let mut detected: Vec<(&str, f32)> = Vec::new();
    for (block, score) in blocks.iter().zip(scores) {
        let is_detected = score >= 0.5;
        match (is_detected, block.is_objective) {
            (true, false) => stats.false_positives += 1,
            (false, true) => stats.false_negatives += 1,
            _ => {}
        }
        if is_detected {
            stats.detected += 1;
            detected.push((&block.text, score));
        }
    }
    if detected.is_empty() {
        return stats;
    }
    let texts: Vec<&str> = detected.iter().map(|(t, _)| *t).collect();
    let all_details = gs.extract_batch(&texts);
    let records: Vec<ObjectiveRecord> = detected
        .iter()
        .zip(&all_details)
        .map(|((text, score), details)| {
            ObjectiveRecord::from_details(
                &report.company,
                &report.title,
                text,
                details,
                f64::from(*score),
            )
        })
        .collect();
    (stats.inserted, stats.updated, stats.unchanged, stats.store_errors) =
        tally(store.upsert_batch(&records));
    stats
}

/// Runs the corpus through the system using `threads` worker threads (the
/// store is already thread-safe; reports are partitioned across workers).
/// Produces the same totals as [`process_corpus`] — ordering of rows within
/// the store differs, per-company aggregates do not.
pub fn process_corpus_parallel(
    gs: &GoalSpotter,
    corpus: &DeploymentCorpus,
    store: &(impl ObjectiveSink + ?Sized),
    threads: usize,
) -> Vec<CompanyStats> {
    let threads = threads.max(1);
    let chunk = corpus.reports.len().div_ceil(threads);
    let mut all: Vec<(usize, String, ReportStats)> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = corpus
            .reports
            .chunks(chunk.max(1))
            .enumerate()
            .map(|(ci, reports)| {
                scope.spawn(move || {
                    reports
                        .iter()
                        .enumerate()
                        .map(|(ri, report)| {
                            (
                                ci * chunk + ri,
                                report.company.clone(),
                                process_report(gs, report, store),
                            )
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            all.extend(h.join().expect("worker panicked"));
        }
    });
    all.sort_by_key(|(i, _, _)| *i);

    let mut order: Vec<String> = Vec::new();
    let mut stats: std::collections::HashMap<String, CompanyStats> =
        std::collections::HashMap::new();
    for (_, company, rs) in all {
        let entry = stats.entry(company.clone()).or_insert_with(|| {
            order.push(company.clone());
            CompanyStats { company, ..Default::default() }
        });
        entry.documents += 1;
        entry.pages += rs.pages;
        entry.extracted_objectives += rs.detected;
        entry.new_records += rs.inserted;
    }
    order.into_iter().map(|c| stats.remove(&c).expect("company stats")).collect()
}

/// Runs the full deployment corpus through the system, returning Table 5
/// style per-company rows in corpus order.
pub fn process_corpus(
    gs: &GoalSpotter,
    corpus: &DeploymentCorpus,
    store: &(impl ObjectiveSink + ?Sized),
) -> Vec<CompanyStats> {
    let mut order: Vec<String> = Vec::new();
    let mut stats: std::collections::HashMap<String, CompanyStats> =
        std::collections::HashMap::new();
    for report in &corpus.reports {
        let entry = stats.entry(report.company.clone()).or_insert_with(|| {
            order.push(report.company.clone());
            CompanyStats { company: report.company.clone(), ..Default::default() }
        });
        let rs = process_report(gs, report, store);
        entry.documents += 1;
        entry.pages += rs.pages;
        entry.extracted_objectives += rs.detected;
        entry.new_records += rs.inserted;
    }
    order.into_iter().map(|c| stats.remove(&c).expect("company stats")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::GoalSpotterConfig;
    use gs_core::{Annotations, Objective};
    use gs_data::documents::{generate_report, ReportConfig};
    use gs_models::transformer::{ExtractorOptions, TrainConfig, TransformerConfig};
    use gs_obs::Rng;
    use gs_store::ObjectiveStore;
    use gs_text::labels::LabelSet;

    fn tiny_system() -> GoalSpotter {
        // Train on a slice of the synthetic Sustainability Goals data so the
        // detector generalizes to generated reports.
        let dataset = gs_data::sustaingoals::generate(80, 11);
        let refs: Vec<&Objective> = dataset.objectives.iter().collect();
        let noise: Vec<&str> = gs_data::banks::NOISE_BLOCKS.to_vec();
        let config = GoalSpotterConfig {
            extractor: ExtractorOptions {
                model: TransformerConfig {
                    name: "tiny".into(),
                    d_model: 32,
                    n_heads: 2,
                    n_layers: 1,
                    d_ff: 64,
                    max_len: 48,
                    subword_budget: 250,
                    ..TransformerConfig::roberta_sim()
                },
                train: TrainConfig { epochs: 6, lr: 3e-3, batch_size: 8, ..Default::default() },
                ..Default::default()
            },
            ..Default::default()
        };
        GoalSpotter::develop(&refs, &noise, &LabelSet::sustainability_goals(), config)
    }

    #[test]
    fn report_processing_fills_the_store_and_reprocessing_is_idempotent() {
        let gs = tiny_system();
        let mut rng = Rng::seed_from_u64(5);
        let report = generate_report("C1", "CSR 2025", 6, 8, &ReportConfig::default(), &mut rng);
        let store = ObjectiveStore::new();
        let stats = process_report(&gs, &report, &store);
        assert_eq!(stats.pages, 6);
        assert!(stats.blocks >= 8);
        assert_eq!(store.len(), stats.inserted);
        assert_eq!(
            stats.inserted + stats.updated + stats.unchanged + stats.store_errors,
            stats.detected,
            "every detected objective must be accounted for"
        );
        // Detection on this clean synthetic data should be near-perfect.
        assert!(stats.false_positives + stats.false_negatives <= 2, "stats {stats:?}");
        assert!(stats.detected >= 6);

        // Re-processing the same report must change nothing.
        let before = store.export_json();
        let again = process_report(&gs, &report, &store);
        assert_eq!(again.inserted, 0, "re-run must not insert: {again:?}");
        assert_eq!(again.unchanged, again.detected);
        assert_eq!(store.export_json(), before, "store must be bit-identical after re-run");

        // Same invariants hold for the log-structured ObjectiveDb sink.
        let db = gs_store::ObjectiveDb::ephemeral(gs_store::StoreConfig::default());
        let first = process_report(&gs, &report, &db);
        assert_eq!(db.len(), first.inserted);
        let before = db.reader().export_json();
        let second = process_report(&gs, &report, &db);
        assert_eq!(second.inserted, 0, "db re-run must not insert: {second:?}");
        assert_eq!(db.reader().export_json(), before);
    }

    #[test]
    fn parallel_processing_matches_sequential_totals() {
        let gs = tiny_system();
        let corpus = gs_data::deployment::generate_corpus(0.01, 3);
        let seq_store = ObjectiveStore::new();
        let seq = process_corpus(&gs, &corpus, &seq_store);
        let par_store = ObjectiveStore::new();
        let par = process_corpus_parallel(&gs, &corpus, &par_store, 4);
        assert_eq!(seq_store.len(), par_store.len());
        let total = |s: &[CompanyStats]| s.iter().map(|c| c.extracted_objectives).sum::<usize>();
        assert_eq!(total(&seq), total(&par));
        // Per-company aggregates identical.
        for s in &seq {
            let p = par.iter().find(|p| p.company == s.company).expect("company");
            assert_eq!(p.extracted_objectives, s.extracted_objectives);
            assert_eq!(p.documents, s.documents);
            assert_eq!(p.pages, s.pages);
        }
    }

    #[test]
    fn corpus_processing_aggregates_per_company() {
        let gs = tiny_system();
        let corpus = gs_data::deployment::generate_corpus(0.01, 3);
        let store = ObjectiveStore::new();
        let stats = process_corpus(&gs, &corpus, &store);
        assert_eq!(stats.len(), 14);
        let total_new: usize = stats.iter().map(|s| s.new_records).sum();
        assert_eq!(total_new, store.len(), "every new record lands exactly once");
        let total_extracted: usize = stats.iter().map(|s| s.extracted_objectives).sum();
        assert!(total_extracted >= store.len(), "dedupe can only shrink the store");

        let ann = Annotations::new();
        let _ = ann; // silence unused in non-test builds
    }
}
