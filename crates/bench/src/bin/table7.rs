//! Regenerates **Table 7**: detail extraction from a single sustainability
//! report (paper §5.2's report-level scenario). Runs GoalSpotter over one
//! generated report, organizes every detected objective's details into a
//! structured table, and prints the detection statistics.
//!
//! Usage:
//!   cargo run --release -p gs-bench --bin table7 [--quick] [--pages N]
//!       [--objectives N] [--json PATH]

use gs_bench::deploy::{build_goalspotter, record_row, DeployBudget};
use gs_bench::Args;
use gs_eval::TextTable;
use gs_pipeline::process_report;
use gs_store::ObjectiveDb;
use std::path::Path;

fn main() {
    let args = Args::from_env();
    gs_bench::obs::init(&args);
    let quick = args.has("quick");
    let pages: usize = args.get_or("pages", 30);
    let objectives: usize = args.get_or("objectives", 12);
    let budget = if quick { DeployBudget::quick() } else { DeployBudget::full() };

    let gs = build_goalspotter(&budget, Path::new("results"));
    let mut rng = gs_obs::Rng::seed_from_u64(7781);
    let report = gs_data::documents::generate_report(
        "DemoCorp",
        "DemoCorp Sustainability Report 2025",
        pages,
        objectives,
        &gs_data::documents::ReportConfig::default(),
        &mut rng,
    );

    let store = ObjectiveDb::new();
    let stats = process_report(&gs, &report, &store);
    let mut reader = store.reader();
    println!(
        "\nScanned {} pages / {} blocks; detected {} objectives ({} FP, {} FN vs ground truth).",
        stats.pages, stats.blocks, stats.detected, stats.false_positives, stats.false_negatives
    );

    println!("\n## Table 7 — extracted details from a single report\n");
    let mut table = TextTable::new(&[
        "Company",
        "Sustainability Objective",
        "Action",
        "Amount",
        "Qualifier",
        "Baseline",
        "Deadline",
    ]);
    let records = reader.by_company("DemoCorp");
    for record in &records {
        table.row(&record_row(record, 80));
    }
    print!("{}", table.render());

    // The paper stores these in a database for later monitoring; show the
    // monitoring query working.
    let upcoming = reader.deadlines_between(2024, 2045);
    println!(
        "\nmonitoring query: {} of {} objectives have deadlines in 2024-2045",
        upcoming.len(),
        records.len()
    );

    if let Some(path) = args.get("json") {
        std::fs::write(path, gs_store::records_to_json(&records)).expect("write json");
        println!("wrote {path}");
    }

    gs_bench::obs::finish(&args);
}
