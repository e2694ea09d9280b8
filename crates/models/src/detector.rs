//! Sustainability objective detection (the GoalSpotter upstream task,
//! §2.3): classify report text blocks into *objective* vs *noise*.
//!
//! The default detector is a hashed-feature logistic regression — fast
//! enough to sweep the 37k-page deployment corpus on one core. The paper's
//! own detector is a fine-tuned transformer; the pipeline accepts any
//! [`ObjectiveDetector`], and a transformer-backed one can be plugged in
//! where accuracy matters more than throughput.
//!
//! Each feature (`u=` unigram, `s=` word shape, `b=` bigram, `has_pct`,
//! `has_year`, `len=` length bucket) is FNV-1a hashed piece by piece
//! straight from the lowercased tokens, so extracting a text's features
//! builds no string per feature. `tests/detector_equivalence.rs` pins the
//! indices, scores and trained weights to the string-building form.

use crate::features::{looks_like_year, push_word_shape};
use gs_obs::Rng;
use gs_text::{pretokenize, Normalizer};

/// A binary objective-vs-noise classifier over text blocks.
pub trait ObjectiveDetector {
    /// Detection score in [0, 1]; >= 0.5 means objective.
    fn score(&self, text: &str) -> f32;

    /// Whether the block is classified as a sustainability objective.
    fn is_objective(&self, text: &str) -> bool {
        self.score(text) >= 0.5
    }
}

/// Logistic-regression detector configuration.
#[derive(Clone, Debug)]
pub struct LinearDetectorConfig {
    /// Feature-hashing dimensionality.
    pub dim: usize,
    /// Training epochs.
    pub epochs: usize,
    /// SGD learning rate.
    pub lr: f32,
    /// L2 regularization.
    pub l2: f32,
    /// Shuffle seed.
    pub seed: u64,
}

impl Default for LinearDetectorConfig {
    fn default() -> Self {
        LinearDetectorConfig { dim: 1 << 15, epochs: 8, lr: 0.2, l2: 1e-6, seed: 0 }
    }
}

/// Hashed-feature logistic regression detector.
#[derive(Clone, Debug)]
pub struct LinearDetector {
    weights: Vec<f32>,
    bias: f32,
    dim: usize,
    normalizer: Normalizer,
}

/// FNV-1a, cheap and deterministic, fed piece by piece: hashing `"u="`
/// and then `"co2"` equals hashing `"u=co2"`.
#[derive(Clone, Copy)]
struct Fnv1a(u64);

impl Fnv1a {
    const START: Fnv1a = Fnv1a(0xcbf29ce484222325);

    fn str(mut self, s: &str) -> Fnv1a {
        for b in s.as_bytes() {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
        self
    }
}

/// The `len=` bucket names, `(tokens / 5).min(10)`.
const LEN_BUCKETS: [&str; 11] = ["0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10"];

/// The hashed feature indices of `text`, in the order the weights are
/// summed: per token its unigram, shape and (but for the last) bigram,
/// then `has_pct`, `has_year` and the length bucket.
fn features(normalizer: &Normalizer, text: &str, dim: usize) -> Vec<usize> {
    let text = normalizer.normalize(text);
    let tokens = pretokenize(&text);
    // Every lowercased token in one buffer; token i ends at `ends[i]`.
    let mut lowers = String::with_capacity(text.len());
    let mut ends = Vec::with_capacity(tokens.len());
    for t in &tokens {
        if t.text.is_ascii() {
            lowers.extend(t.text.bytes().map(|b| char::from(b.to_ascii_lowercase())));
        } else {
            lowers.push_str(&t.text.to_lowercase());
        }
        ends.push(lowers.len());
    }
    let lower = |i: usize| &lowers[if i == 0 { 0 } else { ends[i - 1] }..ends[i]];
    let n = tokens.len();
    let mut out = Vec::with_capacity(n * 3 + 3);
    let mut push = |h: Fnv1a| out.push((h.0 % dim as u64) as usize);
    let mut shape = String::new();
    for (i, token) in tokens.iter().enumerate() {
        push(Fnv1a::START.str("u=").str(lower(i)));
        shape.clear();
        push_word_shape(&token.text, &mut shape);
        push(Fnv1a::START.str("s=").str(&shape));
        if i + 1 < n {
            push(Fnv1a::START.str("b=").str(lower(i)).str("_").str(lower(i + 1)));
        }
    }
    if (0..n).any(|i| lower(i) == "%") {
        push(Fnv1a::START.str("has_pct"));
    }
    if (0..n).any(|i| looks_like_year(lower(i))) {
        push(Fnv1a::START.str("has_year"));
    }
    push(Fnv1a::START.str("len=").str(LEN_BUCKETS[(n / 5).min(10)]));
    out
}

/// `σ(bias + Σ weights[f])`, the weights summed in feature order.
fn probability(bias: f32, weights: &[f32], feats: &[usize]) -> f32 {
    let z: f32 = bias + feats.iter().map(|&f| weights[f]).sum::<f32>();
    1.0 / (1.0 + (-z).exp())
}

impl LinearDetector {
    /// Trains on (text, is_objective) examples.
    pub fn train(examples: &[(&str, bool)], config: LinearDetectorConfig) -> Self {
        assert!(!examples.is_empty(), "no detector training examples");
        let normalizer = Normalizer::default();
        let featurized: Vec<(Vec<usize>, f32)> = examples
            .iter()
            .map(|(text, y)| (features(&normalizer, text, config.dim), f32::from(*y)))
            .collect();

        let mut weights = vec![0.0f32; config.dim];
        let mut bias = 0.0f32;
        let mut order: Vec<usize> = (0..featurized.len()).collect();
        let mut rng = Rng::seed_from_u64(config.seed);
        for _ in 0..config.epochs {
            rng.shuffle(&mut order);
            for &i in &order {
                let (feats, y) = &featurized[i];
                let grad = probability(bias, &weights, feats) - y;
                bias -= config.lr * grad;
                for &f in feats {
                    weights[f] -= config.lr * (grad + config.l2 * weights[f]);
                }
            }
        }
        LinearDetector { weights, bias, dim: config.dim, normalizer }
    }

    /// The hashed feature indices of `text`, in the order
    /// [`score`](ObjectiveDetector::score) adds their weights.
    pub fn feature_indices(&self, text: &str) -> Vec<usize> {
        features(&self.normalizer, text, self.dim)
    }

    /// Rebuilds a detector from saved parts (see [`save_text`](Self::save_text)).
    pub fn from_parts(dim: usize, bias: f32, weights: Vec<f32>) -> Self {
        assert_eq!(weights.len(), dim, "weight vector must match dim");
        LinearDetector { weights, bias, dim, normalizer: Normalizer::default() }
    }

    /// Serializes the detector as line-oriented text with bit-exact f32
    /// round-trips (hex bit patterns, following the repo's text-serialization
    /// discipline). Only nonzero weights are written, so frozen detectors
    /// stay reviewable in version control.
    pub fn save_text(&self) -> String {
        let mut out = String::with_capacity(64 + self.weights.len() / 4);
        out.push_str("gs-linear-detector v1\n");
        out.push_str(&format!("dim {}\n", self.dim));
        out.push_str(&format!("bias {:08x}\n", self.bias.to_bits()));
        for (i, w) in self.weights.iter().enumerate() {
            if *w != 0.0 {
                out.push_str(&format!("{i} {:08x}\n", w.to_bits()));
            }
        }
        out
    }

    /// Restores a detector from [`save_text`](Self::save_text) output.
    pub fn load_text(text: &str) -> Result<Self, String> {
        let mut lines = text.lines();
        if lines.next() != Some("gs-linear-detector v1") {
            return Err("not a gs-linear-detector v1 file".to_string());
        }
        let field = |line: Option<&str>, name: &str| -> Result<String, String> {
            let line = line.ok_or_else(|| format!("missing {name} line"))?;
            line.strip_prefix(name)
                .and_then(|rest| rest.strip_prefix(' '))
                .map(str::to_string)
                .ok_or_else(|| format!("malformed {name} line"))
        };
        let dim: usize = field(lines.next(), "dim")?.parse().map_err(|_| "bad dim".to_string())?;
        let bias_bits = u32::from_str_radix(&field(lines.next(), "bias")?, 16)
            .map_err(|_| "bad bias bits".to_string())?;
        let mut weights = vec![0.0f32; dim];
        for line in lines {
            let (idx, bits) =
                line.split_once(' ').ok_or_else(|| format!("malformed weight line {line:?}"))?;
            let idx: usize = idx.parse().map_err(|_| "bad weight index".to_string())?;
            if idx >= dim {
                return Err(format!("weight index {idx} out of range for dim {dim}"));
            }
            let bits = u32::from_str_radix(bits, 16).map_err(|_| "bad weight bits".to_string())?;
            weights[idx] = f32::from_bits(bits);
        }
        Ok(LinearDetector::from_parts(dim, f32::from_bits(bias_bits), weights))
    }
}

impl ObjectiveDetector for LinearDetector {
    fn score(&self, text: &str) -> f32 {
        probability(self.bias, &self.weights, &self.feature_indices(text))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn training_data() -> Vec<(&'static str, bool)> {
        vec![
            ("Reduce energy consumption by 20% by 2025.", true),
            ("Reach net-zero carbon emissions by 2040.", true),
            ("Restore 100% of our global water use by 2025.", true),
            ("Achieve zero waste to landfill by 2030.", true),
            ("Cut scope 1 emissions by half by 2035.", true),
            ("Install 1 million thermostats by 2023.", true),
            ("Double renewable electricity sourcing by 2028.", true),
            ("Eliminate single-use plastics across all operations.", true),
            ("This report was prepared in accordance with GRI standards.", false),
            ("The audit committee reviewed the financial statements.", false),
            ("Forward-looking statements involve risks and uncertainties.", false),
            ("Our products are sold in more than 90 countries.", false),
            ("Management discussion and analysis follows in section four.", false),
            ("The photograph shows our apprentices at the facility.", false),
            ("Revenue grew moderately while expenses remained stable.", false),
            ("For definitions of key terms refer to the glossary.", false),
        ]
    }

    #[test]
    fn separates_objectives_from_noise() {
        let det = LinearDetector::train(&training_data(), LinearDetectorConfig::default());
        assert!(det.is_objective("Lower water withdrawal by 15% by 2027."));
        assert!(!det.is_objective("The glossary defines key terms used in this report."));
    }

    #[test]
    fn scores_are_probabilities() {
        let det = LinearDetector::train(&training_data(), LinearDetectorConfig::default());
        for (text, _) in training_data() {
            let s = det.score(text);
            assert!((0.0..=1.0).contains(&s));
        }
    }

    #[test]
    fn training_is_deterministic() {
        let a = LinearDetector::train(&training_data(), LinearDetectorConfig::default());
        let b = LinearDetector::train(&training_data(), LinearDetectorConfig::default());
        let t = "Expand recycling programs by 2030.";
        assert_eq!(a.score(t), b.score(t));
    }

    #[test]
    #[should_panic(expected = "no detector training examples")]
    fn rejects_empty_training() {
        let _ = LinearDetector::train(&[], LinearDetectorConfig::default());
    }

    #[test]
    fn text_serialization_roundtrips_scores_bit_exactly() {
        let det = LinearDetector::train(&training_data(), LinearDetectorConfig::default());
        let saved = det.save_text();
        let back = LinearDetector::load_text(&saved).expect("load");
        for (text, _) in training_data() {
            assert_eq!(det.score(text).to_bits(), back.score(text).to_bits(), "{text}");
        }
        // And the frozen form is itself stable.
        assert_eq!(back.save_text(), saved);
        assert!(LinearDetector::load_text("nonsense").is_err());
        assert!(LinearDetector::load_text("gs-linear-detector v1\ndim 4\nbias zz").is_err());
        assert!(
            LinearDetector::load_text("gs-linear-detector v1\ndim 4\nbias 00000000\n9 00000000")
                .is_err(),
            "out-of-range index rejected"
        );
    }
}
