//! Report-level analysis (paper Figure 1 + §5.2): run GoalSpotter over a
//! single sustainability report — detect the objective blocks among the
//! boilerplate, extract their details, and build the structured table.
//!
//! Run with: `cargo run --release --example single_report`

use goalspotter::data::documents::{generate_report, ReportConfig};
use goalspotter::models::transformer::{ExtractorOptions, TrainConfig, TransformerConfig};
use goalspotter::pipeline::{process_report, GoalSpotter, GoalSpotterConfig};
use goalspotter::store::ObjectiveDb;
use goalspotter::text::labels::LabelSet;

fn main() {
    // Development phase: train the system on historical annotations.
    let labels = LabelSet::sustainability_goals();
    let history = goalspotter::data::sustaingoals::generate(250, 9);
    let train: Vec<&goalspotter::core::Objective> = history.objectives.iter().collect();
    let noise: Vec<&str> = goalspotter::data::banks::NOISE_BLOCKS.to_vec();
    println!("training GoalSpotter on {} historical objectives...", train.len());
    let gs = GoalSpotter::develop(
        &train,
        &noise,
        &labels,
        GoalSpotterConfig {
            extractor: ExtractorOptions {
                model: TransformerConfig {
                    d_model: 32,
                    n_layers: 1,
                    d_ff: 64,
                    subword_budget: 400,
                    ..TransformerConfig::roberta_sim()
                },
                train: TrainConfig { epochs: 10, lr: 2e-3, batch_size: 8, ..Default::default() },
                ..Default::default()
            },
            ..Default::default()
        },
    );

    // A fresh report to analyze.
    let mut rng = gs_obs::Rng::seed_from_u64(99);
    let report = generate_report(
        "DemoCorp",
        "DemoCorp Sustainability Report 2025",
        8,
        6,
        &ReportConfig::default(),
        &mut rng,
    );

    // Figure 1: show detection on the first page.
    println!("\npage 1 blocks (detected objectives in [brackets]):");
    for block in &report.pages[0].blocks {
        let marker = if gs.detect(&block.text) { "[OBJECTIVE]" } else { "           " };
        let preview: String = block.text.chars().take(84).collect();
        println!("  {marker} {preview}");
    }

    // Production phase over the whole report.
    let store = ObjectiveDb::new();
    let stats = process_report(&gs, &report, &store);
    println!(
        "\nscanned {} pages / {} blocks; detected {} ({} FP, {} FN vs ground truth)",
        stats.pages, stats.blocks, stats.detected, stats.false_positives, stats.false_negatives
    );

    println!("\nstructured records (paper Table 7 format):");
    for record in store.reader().by_company("DemoCorp") {
        let objective: String = record.objective.chars().take(60).collect();
        println!(
            "  {:<62} action={:?} amount={:?} deadline={:?}",
            objective,
            record.action.as_deref().unwrap_or("-"),
            record.amount.as_deref().unwrap_or("-"),
            record.deadline.as_deref().unwrap_or("-"),
        );
    }
}
