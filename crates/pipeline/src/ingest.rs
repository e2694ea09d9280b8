//! Full-report ingestion: raw semi-structured report text in, provenance-
//! tagged objective records out.
//!
//! This is the front half of the production pipeline for deployments that
//! receive *documents* rather than pre-segmented block lists:
//! [`gs_ingest::parse`] builds the section tree, block-level sentence
//! segmentation produces detection candidates with byte-accurate
//! [`SectionProvenance`](gs_ingest::SectionProvenance), detection fans out
//! across the `gs-par` pool, one packed [`GoalSpotter::extract_batch`]
//! forward extracts details from everything detected, and the records go
//! to the store in one `upsert_batch` call (one WAL write and one fsync
//! for a one-company report), each carrying its section id,
//! human-readable section path, block kind, and source byte range.
//!
//! Candidates whose text has no alphabetic character are skipped before
//! detection: numeric baseline cells (`2019: 48,200`) and page-number
//! artifacts are never objectives, and scoring them would only burn
//! encoder time and invite false positives.

use crate::system::GoalSpotter;
use gs_ingest::SentenceUnit;
use gs_store::{ObjectiveRecord, ObjectiveSink, UpsertOutcome};

/// Ingestion statistics for one report text.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Bytes of raw report text parsed.
    pub bytes: usize,
    /// Blocks the parser produced (including blanks and rules).
    pub blocks: usize,
    /// Non-root sections in the parsed tree.
    pub sections: usize,
    /// Sentence/cell units the segmenter produced.
    pub units: usize,
    /// Units that survived the alphabetic-content filter and were scored.
    pub candidates: usize,
    /// Candidates detected as objectives (score >= 0.5).
    pub detected: usize,
    /// Upserts that created a new record.
    pub inserted: usize,
    /// Upserts that merged new detail or provenance into an existing
    /// record.
    pub updated: usize,
    /// Upserts that found content-identical state (the idempotent re-run
    /// path).
    pub unchanged: usize,
    /// Upserts the store rejected (dropped, counted, not retried).
    pub store_errors: usize,
}

/// One detected-and-extracted objective with its provenance, in document
/// order — the ingestion result the API surfaces back to the caller.
#[derive(Clone, Debug, PartialEq)]
pub struct IngestedObjective {
    /// Whitespace-normalized objective text.
    pub text: String,
    /// Detection score in [0, 1].
    pub score: f32,
    /// Extracted detail fields, empty values dropped.
    pub fields: Vec<(String, String)>,
    /// Stable id of the owning section.
    pub section_id: String,
    /// Human-readable section path (`"Report > Climate > Targets"`).
    pub section_path: String,
    /// Block kind label (`"paragraph"`, `"list_item"`, `"table_cell"`).
    pub block_kind: String,
    /// Byte range of the sentence in the source report.
    pub byte_range: (usize, usize),
    /// Column header for table-cell units, when the table has one.
    pub table_header: Option<String>,
}

/// Whether a unit is worth scoring at all.
fn is_candidate(unit: &SentenceUnit) -> bool {
    unit.text.chars().any(|c| c.is_alphabetic())
}

/// Parses one raw report text, detects and extracts objectives from it,
/// and streams provenance-tagged records into `store`.
///
/// Mirrors [`process_report`](crate::process_report)'s two-phase shape —
/// detection fans out per candidate across the `gs-par` pool, then a single
/// packed extraction forward covers every detected unit — so the result is
/// bit-identical at any pool size. Upserts reuse the store's versioned
/// merge: re-ingesting the same text is a no-op, and a later flat
/// (provenance-less) pipeline run never erases provenance already stored.
pub fn ingest_report_text(
    gs: &GoalSpotter,
    company: &str,
    document: &str,
    text: &str,
    store: &(impl ObjectiveSink + ?Sized),
) -> (IngestStats, Vec<IngestedObjective>) {
    let _span = gs_obs::span("pipeline.ingest");
    let doc = gs_ingest::parse(text);
    let units = doc.sentence_units(text);
    let candidates: Vec<&SentenceUnit> = units.iter().filter(|u| is_candidate(u)).collect();
    let mut stats = IngestStats {
        bytes: text.len(),
        blocks: doc.blocks.len(),
        sections: doc.num_sections(),
        units: units.len(),
        candidates: candidates.len(),
        ..Default::default()
    };

    let scores = gs_par::map_collect(candidates.len(), |i| gs.detection_score(&candidates[i].text));
    let detected: Vec<(&SentenceUnit, f32)> = candidates
        .iter()
        .zip(scores)
        .filter(|(_, score)| *score >= 0.5)
        .map(|(unit, score)| (*unit, score))
        .collect();
    stats.detected = detected.len();
    gs_obs::counter("pipeline.ingest.units", units.len() as u64);
    gs_obs::counter("pipeline.ingest.detected", detected.len() as u64);
    if detected.is_empty() {
        return (stats, Vec::new());
    }

    let texts: Vec<&str> = detected.iter().map(|(u, _)| u.text.as_str()).collect();
    let all_details = gs.extract_batch(&texts);
    let mut records = Vec::with_capacity(detected.len());
    let mut objectives = Vec::with_capacity(detected.len());
    for ((unit, score), details) in detected.iter().zip(&all_details) {
        let record = ObjectiveRecord::from_details(
            company,
            document,
            &unit.text,
            details,
            f64::from(*score),
        )
        .with_provenance(
            &unit.provenance.section_id,
            &unit.provenance.path,
            &unit.provenance.block_kind,
            unit.provenance.byte_range,
        );
        records.push(record);
        objectives.push(IngestedObjective {
            text: unit.text.clone(),
            score: *score,
            fields: details
                .fields
                .iter()
                .filter(|(_, v)| !v.is_empty())
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
            section_id: unit.provenance.section_id.clone(),
            section_path: unit.provenance.path.clone(),
            block_kind: unit.provenance.block_kind.clone(),
            byte_range: unit.provenance.byte_range,
            table_header: unit.table_header.clone(),
        });
    }
    (stats.inserted, stats.updated, stats.unchanged, stats.store_errors) =
        tally(store.upsert_batch(&records));
    (stats, objectives)
}

/// Folds upsert results, in order, into (inserted, updated, unchanged,
/// store errors) counts, counting errors in `pipeline.store_errors`.
pub(crate) fn tally(results: Vec<std::io::Result<UpsertOutcome>>) -> (usize, usize, usize, usize) {
    let mut counts = (0, 0, 0, 0);
    for result in results {
        match result {
            Ok(UpsertOutcome::Inserted) => counts.0 += 1,
            Ok(UpsertOutcome::Updated) => counts.1 += 1,
            Ok(UpsertOutcome::Unchanged) => counts.2 += 1,
            Err(_) => {
                counts.3 += 1;
                gs_obs::counter("pipeline.store_errors", 1);
            }
        }
    }
    counts
}

/// Deterministic, line-oriented snapshot of one ingest run: the section
/// tree, the [`IngestStats`], and every ingested objective with its
/// provenance. Detection scores are written as `f32` hex bit patterns, so
/// a snapshot pins bit-exact behavior.
///
/// This is the golden-fixture format of `tests/golden/ingest_expected.txt`
/// — `goldengen --ingest` writes it and `tests/golden_extraction.rs`
/// recomputes it against the frozen detector and extractor.
pub fn ingest_snapshot(
    doc: &gs_ingest::Document,
    stats: &IngestStats,
    objectives: &[IngestedObjective],
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    out.push_str("== sections\n");
    for s in &doc.sections {
        writeln!(out, "{}\t{}\t{}", s.id, s.level, s.path).unwrap();
    }
    out.push_str("== stats\n");
    for (name, value) in [
        ("bytes", stats.bytes),
        ("blocks", stats.blocks),
        ("sections", stats.sections),
        ("units", stats.units),
        ("candidates", stats.candidates),
        ("detected", stats.detected),
        ("inserted", stats.inserted),
        ("updated", stats.updated),
        ("unchanged", stats.unchanged),
        ("store_errors", stats.store_errors),
    ] {
        writeln!(out, "{name}\t{value}").unwrap();
    }
    out.push_str("== objectives\n");
    for o in objectives {
        writeln!(out, ">>> {}", o.text).unwrap();
        writeln!(out, "score\t{:08x}", o.score.to_bits()).unwrap();
        writeln!(out, "section\t{}\t{}", o.section_id, o.section_path).unwrap();
        writeln!(out, "kind\t{}", o.block_kind).unwrap();
        writeln!(out, "range\t{}..{}", o.byte_range.0, o.byte_range.1).unwrap();
        writeln!(out, "header\t{}", o.table_header.as_deref().unwrap_or("-")).unwrap();
        for (k, v) in &o.fields {
            writeln!(out, "field\t{k}\t{v}").unwrap();
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::system::GoalSpotterConfig;
    use gs_core::Objective;
    use gs_data::fullreport::{generate_full_report, FullReportConfig, TruthPlacement};
    use gs_models::transformer::{ExtractorOptions, TrainConfig, TransformerConfig};
    use gs_obs::Rng;
    use gs_store::{ObjectiveDb, StoreConfig};
    use gs_text::labels::LabelSet;

    /// A tiny system whose detector has seen indicator names as noise —
    /// table Indicator cells are number/keyword-dense hard negatives, and
    /// an ingest-grade detector must reject them.
    pub(crate) fn tiny_ingest_system() -> GoalSpotter {
        let dataset = gs_data::sustaingoals::generate(80, 11);
        let refs: Vec<&Objective> = dataset.objectives.iter().collect();
        let mut noise: Vec<&str> = gs_data::banks::NOISE_BLOCKS.to_vec();
        noise.extend_from_slice(gs_data::banks::INDICATOR_NAMES);
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

    fn report() -> gs_data::fullreport::FullReport {
        let mut rng = Rng::seed_from_u64(5);
        generate_full_report("Acme Corp", "CSR 2026", &FullReportConfig::default(), &mut rng)
    }

    #[test]
    fn ingests_a_full_report_with_provenance_and_reruns_idempotently() {
        let gs = tiny_ingest_system();
        let report = report();
        let store = ObjectiveDb::new();
        let (stats, objectives) = ingest_report_text(&gs, "Acme Corp", "csr", &report.text, &store);

        assert_eq!(stats.bytes, report.text.len());
        assert!(stats.sections >= 4, "stats {stats:?}");
        assert!(stats.candidates < stats.units, "numeric cells must be filtered: {stats:?}");
        assert_eq!(stats.detected, objectives.len());
        assert_eq!(
            stats.inserted + stats.updated + stats.unchanged + stats.store_errors,
            stats.detected
        );
        assert_eq!(store.len(), stats.inserted);

        // Detection recall: every planted objective overlaps a detected unit.
        let mut hits = 0usize;
        for truth in &report.truths {
            let hit = objectives
                .iter()
                .any(|o| o.byte_range.0 < truth.span.1 && truth.span.0 < o.byte_range.1);
            hits += usize::from(hit);
        }
        assert!(
            hits + 1 >= report.truths.len(),
            "recall too low: {hits}/{} on {stats:?}",
            report.truths.len()
        );

        // Provenance: bullet objectives carry a Targets path; table
        // objectives carry their column header and an Indicators path.
        let bullets: Vec<_> = objectives.iter().filter(|o| o.block_kind == "list_item").collect();
        assert!(!bullets.is_empty());
        for b in &bullets {
            assert!(b.section_path.ends_with("> Targets"), "path {}", b.section_path);
            assert_eq!(b.section_id.len(), 16);
        }
        let cells: Vec<_> = objectives.iter().filter(|o| o.block_kind == "table_cell").collect();
        assert!(!cells.is_empty());
        for c in &cells {
            assert_eq!(c.table_header.as_deref(), Some("Target"));
            assert!(c.section_path.ends_with("> Indicators"), "path {}", c.section_path);
        }
        // Byte ranges slice back into the source.
        for o in &objectives {
            assert!(o.byte_range.0 < o.byte_range.1 && o.byte_range.1 <= report.text.len());
            assert!(report.text.is_char_boundary(o.byte_range.0));
            assert!(report.text.is_char_boundary(o.byte_range.1));
        }

        // Provenance landed in the store.
        let stored = store.reader().export_json();
        assert!(stored.contains("section_path"), "export carries provenance: {stored}");

        // Re-ingesting the same text changes nothing.
        let (again, _) = ingest_report_text(&gs, "Acme Corp", "csr", &report.text, &store);
        assert_eq!(again.inserted, 0, "re-run must not insert: {again:?}");
        assert_eq!(again.unchanged, again.detected);
        assert_eq!(store.reader().export_json(), stored);
    }

    /// The bar the ingest pipeline must clear to run unattended: over 48
    /// generated reports (seeds 100-147), a detected unit is a true
    /// positive when it overlaps a planted objective's bytes; precision
    /// and recall must both reach 0.9.
    #[test]
    fn detection_precision_and_recall_clear_the_ingest_bar() {
        let gs = tiny_ingest_system();
        let db = ObjectiveDb::ephemeral(StoreConfig::default());
        let overlaps = |a: (usize, usize), b: (usize, usize)| a.0 < b.1 && b.0 < a.1;
        let (mut tp, mut fp, mut truth_hits, mut truths) = (0usize, 0usize, 0usize, 0usize);
        for i in 0..48u64 {
            let mut rng = Rng::seed_from_u64(100 + i);
            let report = generate_full_report(
                &format!("Company-{i:03}"),
                &format!("CSR Report {}", 2020 + i % 7),
                &FullReportConfig::default(),
                &mut rng,
            );
            let (_, objectives) =
                ingest_report_text(&gs, &report.company, "csr", &report.text, &db);
            for o in &objectives {
                if report.truths.iter().any(|t| overlaps(o.byte_range, t.span)) {
                    tp += 1;
                } else {
                    fp += 1;
                }
            }
            truths += report.truths.len();
            truth_hits += report
                .truths
                .iter()
                .filter(|t| objectives.iter().any(|o| overlaps(o.byte_range, t.span)))
                .count();
        }
        let precision = tp as f64 / (tp + fp).max(1) as f64;
        let recall = truth_hits as f64 / truths.max(1) as f64;
        assert!(truths > 0);
        assert!(
            precision >= 0.9 && recall >= 0.9,
            "precision {precision:.3} ({tp} of {}), recall {recall:.3} ({truth_hits} of {truths})",
            tp + fp
        );
    }

    #[test]
    fn table_cell_precision_rejects_indicator_and_baseline_cells() {
        let gs = tiny_ingest_system();
        let report = report();
        let store = ObjectiveDb::new();
        let (_, objectives) = ingest_report_text(&gs, "Acme", "csr", &report.text, &store);
        let truth_cells: std::collections::HashSet<&str> = report
            .truths
            .iter()
            .filter(|t| t.placement == TruthPlacement::TableCell)
            .map(|t| t.text.as_str())
            .collect();
        let mut wrong = 0usize;
        for o in objectives.iter().filter(|o| o.block_kind == "table_cell") {
            if !truth_cells.contains(o.text.as_str()) {
                wrong += 1;
            }
        }
        assert!(wrong <= 1, "{wrong} non-Target table cells detected as objectives");
    }

    #[test]
    fn ingestion_is_bit_identical_across_pool_sizes() {
        let gs = tiny_ingest_system();
        let report = report();
        let run = |threads: usize| {
            gs_par::with_threads(threads, || {
                let store = ObjectiveDb::new();
                let (stats, objectives) =
                    ingest_report_text(&gs, "Acme", "csr", &report.text, &store);
                (stats, objectives, store.reader().export_json())
            })
        };
        let (s1, o1, e1) = run(1);
        let (s4, o4, e4) = run(4);
        assert_eq!(s1, s4);
        assert_eq!(o1, o4);
        assert_eq!(e1, e4, "store contents must not depend on pool size");
        for (a, b) in o1.iter().zip(&o4) {
            assert_eq!(a.score.to_bits(), b.score.to_bits(), "scores bit-identical");
        }
    }

    /// A report's records reach an on-disk store as one group commit: one
    /// fsync, one WAL frame per logged record and one view publish, through
    /// both `ingest_report_text` and `process_report`.
    #[test]
    fn one_report_is_one_group_commit() {
        let gs = tiny_ingest_system();
        let full = report();
        let mut rng = Rng::seed_from_u64(5);
        let config = gs_data::documents::ReportConfig::default();
        let paged = gs_data::documents::generate_report("Bcme", "CSR", 6, 8, &config, &mut rng);
        let dir = std::env::temp_dir().join(format!("gs-ingest-commit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (db, _) = ObjectiveDb::open(&dir, StoreConfig::default()).expect("open");
        let collector = gs_obs::install(gs_obs::Collector::new());
        let count = |name: &str| collector.registry().counter(name).get();

        let epoch = db.shard_for("Acme Corp").cell().epoch();
        let (stats, _) = ingest_report_text(&gs, "Acme Corp", "csr", &full.text, &db);
        let logged = (stats.inserted + stats.updated) as u64;
        assert!(logged > 1, "{stats:?}");
        assert_eq!(count("store.wal.fsyncs"), 1, "{stats:?}");
        assert_eq!(count("store.wal.appends"), logged, "{stats:?}");
        assert_eq!(db.shard_for("Acme Corp").cell().epoch(), epoch + 1, "{stats:?}");

        let epoch = db.shard_for("Bcme").cell().epoch();
        let rs = crate::process_report(&gs, &paged, &db);
        let logged_too = (rs.inserted + rs.updated) as u64;
        assert!(logged_too > 1, "{rs:?}");
        assert_eq!(count("store.wal.fsyncs"), 2, "{rs:?}");
        assert_eq!(count("store.wal.appends"), logged + logged_too, "{rs:?}");
        assert_eq!(db.shard_for("Bcme").cell().epoch(), epoch + 1, "{rs:?}");
        assert_eq!(db.wal_syncs(), 2);
        gs_obs::uninstall();
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_and_degenerate_inputs_ingest_cleanly() {
        let gs = tiny_ingest_system();
        let store = ObjectiveDb::new();
        for text in ["", "\n\n\n", "| | |\n", "####\n", "12345 67 89\n"] {
            let (stats, objectives) = ingest_report_text(&gs, "Acme", "csr", text, &store);
            assert_eq!(stats.detected, objectives.len(), "input {text:?}");
            assert_eq!(stats.bytes, text.len());
        }
        assert_eq!(store.len(), 0, "nothing detectable in degenerate inputs");
    }
}
