//! Regenerates **Table 6**: the extracted details for the top 2
//! sustainability objectives per company from the post-deployment corpus
//! (paper §5.1), plus the specificity comparison the paper discusses
//! (companies like C12/C13 stating amounts and timelines more often).
//!
//! Usage:
//!   cargo run --release -p gs-bench --bin table6 [--quick] [--scale F]
//!       [--json PATH]

use gs_bench::deploy::{build_goalspotter, record_row, DeployBudget};
use gs_bench::Args;
use gs_eval::TextTable;
use gs_pipeline::process_corpus;
use gs_store::ObjectiveDb;
use std::path::Path;

fn main() {
    let args = Args::from_env();
    gs_bench::obs::init(&args);
    let quick = args.has("quick");
    // Table 6 only needs enough corpus for top-2 per company.
    let scale: f64 = args.get_or("scale", if quick { 0.05 } else { 0.2 });
    let budget = if quick { DeployBudget::quick() } else { DeployBudget::full() };

    let gs = build_goalspotter(&budget, Path::new("results"));
    let corpus = gs_data::deployment::generate_corpus(scale, 20240511);
    let store = ObjectiveDb::new();
    let _ = process_corpus(&gs, &corpus, &store);
    let mut reader = store.reader();

    println!(
        "\n## Table 6 — extracted details for the top 2 objectives per company (scale {scale})\n"
    );
    let mut table = TextTable::new(&[
        "Company",
        "Sustainability Objective",
        "Action",
        "Amount",
        "Qualifier",
        "Baseline",
        "Deadline",
    ]);
    let mut json_rows = Vec::new();
    for profile in gs_data::deployment::TABLE5 {
        for record in reader.top_objectives(profile.name, 2) {
            table.row(&record_row(&record, 70));
            json_rows.push(record);
        }
    }
    print!("{}", table.render());

    println!("\n## Specificity per company (mean extracted fields per objective, paper §5.1)\n");
    let mut spec = reader.specificity_by_company();
    spec.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    let mut spec_table = TextTable::new(&["Company", "Mean fields/objective"]);
    for (company, mean) in &spec {
        spec_table.row(&[company.clone(), format!("{mean:.2}")]);
    }
    print!("{}", spec_table.render());

    if let Some(path) = args.get("json") {
        std::fs::write(path, gs_store::records_to_json(&json_rows)).expect("write json");
        println!("wrote {path}");
    }

    gs_bench::obs::finish(&args);
}
