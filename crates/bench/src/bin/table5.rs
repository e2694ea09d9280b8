//! Regenerates **Table 5**: the post-deployment data summary — per company,
//! the number of documents, pages, and objectives GoalSpotter extracts from
//! the 14-company deployment corpus (paper §5.1).
//!
//! Usage:
//!   cargo run --release -p gs-bench --bin table5 [--quick] [--scale F]
//!       [--json PATH]

use gs_bench::deploy::{build_goalspotter, DeployBudget};
use gs_bench::Args;
use gs_eval::TextTable;
use gs_obs::Json;
use gs_pipeline::process_corpus;
use gs_store::ObjectiveDb;
use std::path::Path;

fn main() {
    let args = Args::from_env();
    gs_bench::obs::init(&args);
    let quick = args.has("quick");
    let scale: f64 = args.get_or("scale", if quick { 0.05 } else { 1.0 });
    let budget = if quick { DeployBudget::quick() } else { DeployBudget::full() };

    let gs = build_goalspotter(&budget, Path::new("results"));
    eprintln!("generating deployment corpus at scale {scale}...");
    let corpus = gs_data::deployment::generate_corpus(scale, 20240511);
    eprintln!("processing {} reports / {} pages...", corpus.reports.len(), corpus.num_pages());
    let store = ObjectiveDb::new();
    let (stats, secs) = gs_obs::time_it(|| process_corpus(&gs, &corpus, &store));

    println!("\n## Table 5 — post-deployment data summary (scale {scale})\n");
    let mut table = TextTable::new(&[
        "Company",
        "#Documents",
        "#Pages",
        "#Extracted Objectives",
        "(paper: docs/pages/objectives)",
    ]);
    let mut total_docs = 0;
    let mut total_pages = 0;
    let mut total_obj = 0;
    let mut json_rows = Vec::new();
    for s in &stats {
        let paper =
            gs_data::deployment::TABLE5.iter().find(|p| p.name == s.company).expect("paper row");
        table.row(&[
            s.company.clone(),
            s.documents.to_string(),
            s.pages.to_string(),
            s.extracted_objectives.to_string(),
            format!("{}/{}/{}", paper.documents, paper.pages, paper.objectives),
        ]);
        total_docs += s.documents;
        total_pages += s.pages;
        total_obj += s.extracted_objectives;
        json_rows.push(Json::obj(vec![
            ("company", s.company.as_str().into()),
            ("documents", s.documents.into()),
            ("pages", s.pages.into()),
            ("extracted_objectives", s.extracted_objectives.into()),
            ("paper_documents", paper.documents.into()),
            ("paper_pages", paper.pages.into()),
            ("paper_objectives", paper.objectives.into()),
        ]));
    }
    let t = gs_data::deployment::TABLE5_TOTALS;
    table.row(&[
        "Total".into(),
        total_docs.to_string(),
        total_pages.to_string(),
        total_obj.to_string(),
        format!("{}/{}/{}", t.documents, t.pages, t.objectives),
    ]);
    print!("{}", table.render());
    println!("\nprocessed in {:.1}s; store now holds {} structured records", secs, store.len());

    if let Some(path) = args.get("json") {
        std::fs::write(path, Json::Arr(json_rows).to_pretty_string()).expect("write json");
        println!("wrote {path}");
    }

    gs_bench::obs::finish(&args);
}
