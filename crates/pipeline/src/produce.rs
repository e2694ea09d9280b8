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
    use gs_store::{ObjectiveDb, StoreConfig, UpsertOutcome};
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
        let store = ObjectiveDb::new();
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
        let before = store.reader().export_json();
        let again = process_report(&gs, &report, &store);
        assert_eq!(again.inserted, 0, "re-run must not insert: {again:?}");
        assert_eq!(again.unchanged, again.detected);
        assert_eq!(
            store.reader().export_json(),
            before,
            "store must be bit-identical after re-run"
        );
    }

    /// Records each batch the pipeline hands its store, acknowledging all.
    #[derive(Default)]
    struct Recorder(std::sync::Mutex<Vec<Vec<ObjectiveRecord>>>);

    impl ObjectiveSink for Recorder {
        fn upsert_record(&self, record: &ObjectiveRecord) -> std::io::Result<UpsertOutcome> {
            self.upsert_batch(std::slice::from_ref(record)).remove(0)
        }

        fn upsert_batch(&self, records: &[ObjectiveRecord]) -> Vec<std::io::Result<UpsertOutcome>> {
            self.0.lock().expect("recorder").push(records.to_vec());
            records.iter().map(|_| Ok(UpsertOutcome::Inserted)).collect()
        }

        fn record_count(&self) -> usize {
            0
        }
    }

    /// A record list as a sorted multiset, scores compared bit for bit.
    fn multiset(records: Vec<ObjectiveRecord>) -> Vec<String> {
        let mut lines: Vec<String> = records.iter().map(gs_store::encode_record).collect();
        lines.sort_unstable();
        lines
    }

    #[test]
    fn one_and_eight_shards_answer_every_query_alike_on_the_deployment_corpus() {
        // table5's deployment corpus at its `--quick` scale, extracted once.
        let gs = tiny_system();
        let corpus = gs_data::deployment::generate_corpus(0.05, 20240511);
        let recorder = Recorder::default();
        process_corpus(&gs, &corpus, &recorder);
        let batches = recorder.0.into_inner().expect("recorder");
        let one = ObjectiveDb::ephemeral(StoreConfig { shards: 1, ..StoreConfig::default() });
        let eight = ObjectiveDb::ephemeral(StoreConfig { shards: 8, ..StoreConfig::default() });
        for batch in &batches {
            one.upsert_batch(batch);
            eight.upsert_batch(batch);
        }
        assert!(one.len() > 100, "only {} records", one.len());
        assert_eq!(eight.len(), one.len());
        let (mut one, mut eight) = (one.reader(), eight.reader());
        // Store-wide answers list shards in turn, so only their multisets
        // can agree.
        assert_eq!(multiset(eight.records()), multiset(one.records()));
        for (from, to) in [(2020, 2030), (2031, 2060), (2025, 2025), (i64::MIN, i64::MAX)] {
            let want = multiset(one.deadlines_between(from, to));
            assert_eq!(
                multiset(eight.deadlines_between(from, to)),
                want,
                "deadlines {from}..={to}"
            );
        }
        let counts = one.counts_by_company();
        assert_eq!(counts.len(), 14);
        assert_eq!(eight.counts_by_company(), counts);
        assert_eq!(eight.specificity_by_company(), one.specificity_by_company());
        let mut ties = 0;
        for (company, n) in &counts {
            assert_eq!(eight.by_company(company), one.by_company(company), "{company}");
            for k in [1, 2, n / 2, *n, n + 1] {
                let top = one.top_objectives(company, k);
                assert_eq!(top.len(), k.min(*n), "{company} top {k}");
                assert_eq!(eight.top_objectives(company, k), top, "{company} top {k}");
            }
            let top = one.top_objectives(company, *n);
            for w in top.windows(2) {
                let key = |r: &ObjectiveRecord| (r.score, r.completeness());
                assert!(key(&w[0]) >= key(&w[1]), "{company}: {:?} before {:?}", w[0], w[1]);
            }
            ties += top.windows(2).filter(|w| w[0].score == w[1].score).count();
        }
        assert!(ties > 0, "the corpus must exercise score ties");
    }

    #[test]
    fn corpus_processing_aggregates_per_company() {
        let gs = tiny_system();
        let corpus = gs_data::deployment::generate_corpus(0.01, 3);
        let store = ObjectiveDb::new();
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
