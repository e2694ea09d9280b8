//! Shared evaluation driver: run any [`DetailExtractor`] over a held-out
//! test set and score it with the paper's field-level P/R/F1, tracking both
//! real and simulated (LLM round-trip) time.

use gs_core::Objective;
use gs_eval::{evaluate_extractions, FieldEval};
use gs_models::DetailExtractor;
use gs_obs::Stopwatch;
use gs_text::labels::LabelSet;
use std::time::Duration;

/// The outcome of evaluating one approach on one test set.
#[derive(Clone, Debug)]
pub struct ApproachResult {
    /// Approach display name.
    pub name: String,
    /// Field-level scores.
    pub eval: FieldEval,
    /// Real wall-clock inference time.
    pub inference_real: Duration,
    /// Real + simulated inference time (Table 4's T column for prompting
    /// baselines).
    pub inference_total: Duration,
}

impl ApproachResult {
    /// Micro precision.
    pub fn precision(&self) -> f64 {
        self.eval.micro.precision()
    }

    /// Micro recall.
    pub fn recall(&self) -> f64 {
        self.eval.micro.recall()
    }

    /// Micro F1.
    pub fn f1(&self) -> f64 {
        self.eval.micro.f1()
    }
}

/// Runs `extractor` over every test objective and scores the extractions
/// against the gold annotations.
///
/// Test objectives without annotations are skipped (they carry no gold).
pub fn evaluate_extractor(
    extractor: &dyn DetailExtractor,
    test: &[&Objective],
    labels: &LabelSet,
) -> ApproachResult {
    let mut sw = Stopwatch::start();
    sw.charge(extractor.simulated_setup_latency());
    let mut pairs = Vec::with_capacity(test.len());
    for o in test {
        let Some(gold) = o.annotations.as_ref() else { continue };
        let extracted = extractor.extract(&o.text);
        sw.charge(extractor.simulated_latency_per_call());
        pairs.push((gold.clone(), extracted));
    }
    let eval = evaluate_extractions(pairs.iter().map(|(g, e)| (g, e)), labels);
    ApproachResult {
        name: extractor.name().to_string(),
        eval,
        inference_real: sw.elapsed_real(),
        inference_total: sw.elapsed_total(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_core::{Annotations, ExtractedDetails};
    use std::time::Duration;

    /// An oracle that returns the gold annotations verbatim.
    struct Oracle;
    impl DetailExtractor for Oracle {
        fn name(&self) -> &str {
            "Oracle"
        }
        fn extract(&self, text: &str) -> ExtractedDetails {
            let mut d = ExtractedDetails::new();
            // Parse our test fixture format "Action=x;Deadline=y".
            for part in text.split(';') {
                if let Some((k, v)) = part.split_once('=') {
                    d.set(k, v);
                }
            }
            d
        }
        fn simulated_latency_per_call(&self) -> Duration {
            Duration::from_secs(2)
        }
    }

    #[test]
    fn oracle_scores_perfectly_and_charges_latency() {
        let labels = gs_text::labels::LabelSet::sustainability_goals();
        let objectives = [
            Objective::annotated(
                0,
                "Action=Reduce;Deadline=2030",
                Annotations::new().with("Action", "Reduce").with("Deadline", "2030"),
            ),
            Objective::annotated(1, "Action=Cut", Annotations::new().with("Action", "Cut")),
        ];
        let refs: Vec<&Objective> = objectives.iter().collect();
        let result = evaluate_extractor(&Oracle, &refs, &labels);
        assert_eq!(result.f1(), 1.0);
        assert!(result.inference_total >= Duration::from_secs(4));
        assert!(result.inference_real < Duration::from_secs(1));
    }

    #[test]
    fn unannotated_objectives_are_skipped() {
        let labels = gs_text::labels::LabelSet::sustainability_goals();
        let objectives = [Objective::new(0, "Action=X")];
        let refs: Vec<&Objective> = objectives.iter().collect();
        let result = evaluate_extractor(&Oracle, &refs, &labels);
        assert_eq!(result.eval.micro.tp + result.eval.micro.fp + result.eval.micro.fn_, 0);
    }
}
