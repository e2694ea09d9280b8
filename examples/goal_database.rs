//! The structured objective database (paper §2.4, §5): upserting extracted
//! details, then running the monitoring queries domain experts use —
//! per-company views, deadline windows, specificity ranking, ad-hoc
//! filters, and a JSON export.
//!
//! Run with: `cargo run --example goal_database`

use goalspotter::core::ExtractedDetails;
use goalspotter::store::{ObjectiveDb, ObjectiveRecord};

fn record(company: &str, objective: &str, fields: &[(&str, &str)], score: f64) -> ObjectiveRecord {
    let mut details = ExtractedDetails::new();
    for (k, v) in fields {
        details.set(k, *v);
    }
    ObjectiveRecord::from_details(company, "CSR 2025", objective, &details, score)
}

fn main() {
    // Rows in the spirit of the paper's Table 1/Table 6.
    let records = [
        record(
            "C12",
            "30% increase in the representation of women in key leadership roles",
            &[
                ("Action", "increase"),
                ("Amount", "30%"),
                ("Qualifier", "representation of women in key leadership roles"),
            ],
            0.97,
        ),
        record(
            "C12",
            "Reached goal of 20% of women in key positions a year ahead of schedule",
            &[("Action", "Reached"), ("Amount", "20%"), ("Qualifier", "women in key positions")],
            0.93,
        ),
        record(
            "C13",
            "Reduce energy consumption by 20% by 2025 (baseline 2017)",
            &[
                ("Action", "Reduce"),
                ("Amount", "20%"),
                ("Qualifier", "energy consumption"),
                ("Baseline", "2017"),
                ("Deadline", "2025"),
            ],
            0.99,
        ),
        record(
            "C13",
            "Reach net-zero carbon by 2040",
            &[
                ("Action", "Reach"),
                ("Amount", "net-zero"),
                ("Qualifier", "carbon"),
                ("Deadline", "2040"),
            ],
            0.98,
        ),
        record(
            "C4",
            "Explore innovative value-based approaches",
            &[("Action", "Explore"), ("Qualifier", "value-based approaches")],
            0.81,
        ),
    ];
    let store = ObjectiveDb::new();
    for result in store.upsert_batch(&records) {
        result.expect("an in-memory upsert cannot fail");
    }
    let mut reader = store.reader();

    println!("store holds {} records\n", reader.len());

    // Monitoring: which commitments come due soon?
    println!("deadlines in 2024-2030:");
    for r in reader.deadlines_between(2024, 2030) {
        println!("  {} — {} (deadline {})", r.company, r.objective, r.deadline.expect("deadline"));
    }

    // Specificity ranking (paper §5.1: C12/C13 are more specific).
    println!("\nspecificity by company (mean extracted fields per objective):");
    let mut spec = reader.specificity_by_company();
    spec.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("ordered"));
    for (company, mean) in spec {
        println!("  {company}: {mean:.2}");
    }

    // Ad-hoc filters over the records.
    let with_amount_no_deadline = reader
        .records()
        .into_iter()
        .filter(|r| r.amount.is_some() && r.deadline_year().is_none())
        .count();
    println!("\nobjectives stating an amount but no deadline: {with_amount_no_deadline}");
    println!("C13 objectives: {}", reader.by_company("C13").len());

    let json = reader.export_json();
    println!("\nJSON export is {} bytes", json.len());
}
