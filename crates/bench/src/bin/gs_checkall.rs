//! `gs-checkall`: static pre-flight validation of every encoder
//! configuration the paper evaluates.
//!
//! For each Figure-4 variant (RoBERTa-sim, DistilRoBERTa-sim, BERT-sim,
//! DistilBERT-sim) it instantiates the model, traces the training forward
//! (one full-length sequence) and the serving forward (a packed batch of
//! several sequences) under one loss over the gs-check symbolic tape, and
//! runs every shape rule and autograd lint — no forward pass is ever
//! executed, so the whole sweep takes milliseconds. Exit status is non-zero
//! if any finding is reported.
//!
//! ```text
//! gs-checkall [--vocab N] [--seed S] [--obs-jsonl PATH] [--no-obs]
//! ```

use gs_bench::{obs, Args};
use gs_models::transformer::{validate_classifier, TokenClassifier, TransformerConfig};
use gs_text::labels::LabelSet;
use std::time::Instant;

fn main() {
    let args = Args::from_env();
    obs::init(&args);
    let vocab = args.get_or("vocab", 1200usize);
    let seed = args.get_or("seed", 0u64);
    let num_classes = LabelSet::sustainability_goals().num_classes();

    let mut total_findings = 0usize;
    for config in TransformerConfig::figure4_variants() {
        let start = Instant::now();
        let model = TokenClassifier::new(config.clone(), vocab, num_classes, seed);
        let analysis = validate_classifier(&model);
        let micros = start.elapsed().as_micros();
        println!(
            "{}: {} nodes, {} params, {} finding(s), {} us",
            config.name,
            analysis.nodes,
            analysis.params,
            analysis.findings.len(),
            micros
        );
        for finding in &analysis.findings {
            println!("  {finding}");
        }
        gs_obs::counter("check.configs", 1);
        gs_obs::counter("check.findings", analysis.findings.len() as u64);
        total_findings += analysis.findings.len();
    }
    obs::finish(&args);
    if total_findings > 0 {
        eprintln!("gs-checkall: {total_findings} finding(s)");
        std::process::exit(1);
    }
    println!("gs-checkall: all configurations clean");
}
