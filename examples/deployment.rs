//! A miniature version of the paper's §5.1 deployment: train GoalSpotter,
//! sweep a multi-company report corpus (a scaled-down Table 5), fill the
//! structured database, and print the per-company summary plus the top
//! objectives (a scaled-down Table 6).
//!
//! Run with: `cargo run --release --example deployment`

use goalspotter::models::transformer::{ExtractorOptions, TrainConfig, TransformerConfig};
use goalspotter::pipeline::{process_corpus, GoalSpotter, GoalSpotterConfig};
use goalspotter::store::ObjectiveDb;
use goalspotter::text::labels::LabelSet;

fn main() {
    // Development phase.
    let labels = LabelSet::sustainability_goals();
    let history = goalspotter::data::sustaingoals::generate(250, 5);
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

    // Production: a 2%-scale version of the paper's 14-company corpus.
    let corpus = goalspotter::data::deployment::generate_corpus(0.02, 11);
    println!("processing {} reports / {} pages...", corpus.reports.len(), corpus.num_pages());
    let store = ObjectiveDb::new();
    let stats = process_corpus(&gs, &corpus, &store);

    println!("\nper-company summary (Table 5 at 2% scale):");
    println!("  {:<8} {:>6} {:>7} {:>12}", "Company", "#Docs", "#Pages", "#Objectives");
    for s in &stats {
        println!(
            "  {:<8} {:>6} {:>7} {:>12}",
            s.company, s.documents, s.pages, s.extracted_objectives
        );
    }
    println!("  total structured records: {}", store.len());

    println!("\ntop objective per company (Table 6 style):");
    let mut reader = store.reader();
    for s in &stats {
        if let Some(top) = reader.top_objectives(&s.company, 1).into_iter().next() {
            let objective: String = top.objective.chars().take(70).collect();
            println!(
                "  {:<5} {:<72} {}",
                top.company,
                objective,
                top.deadline.map(|d| format!("deadline {d}")).unwrap_or_default()
            );
        }
    }
}
