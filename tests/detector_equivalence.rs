//! The linear detector's feature indices, scores and trained weights must
//! equal the string-building reference below bit for bit: every feature
//! formatted as a `String` and hashed whole, weights summed with
//! `sum::<f32>()`. The texts are every sentence unit of the golden report,
//! scored by the frozen golden detector, and seeded texts (mixed case,
//! digits, years, `%`, non-ASCII letters including a final sigma, empty
//! and whitespace-only text) scored by the frozen detector and by one
//! trained from seeded examples.

use goalspotter::models::{
    looks_like_year, word_shape, LinearDetector, LinearDetectorConfig, ObjectiveDetector,
};
use goalspotter::obs::Rng;
use goalspotter::text::{pretokenize, Normalizer};
use std::path::{Path, PathBuf};

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests").join("golden")
}

fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// The feature extractor as it was: one `format!` per feature.
fn reference_features(text: &str, dim: usize) -> Vec<usize> {
    let text = Normalizer::default().normalize(text);
    let tokens = pretokenize(&text);
    let lowers: Vec<String> = tokens.iter().map(|t| t.text.to_lowercase()).collect();
    let mut out = Vec::new();
    let mut push = |f: String| out.push((fnv1a(&f) % dim as u64) as usize);
    for (i, low) in lowers.iter().enumerate() {
        push(format!("u={low}"));
        push(format!("s={}", word_shape(&tokens[i].text)));
        if i + 1 < lowers.len() {
            push(format!("b={low}_{}", lowers[i + 1]));
        }
    }
    if lowers.iter().any(|l| l == "%") {
        push("has_pct".into());
    }
    if lowers.iter().any(|l| looks_like_year(l)) {
        push("has_year".into());
    }
    push(format!("len={}", (lowers.len() / 5).min(10)));
    out
}

/// A detector's parts, read back from its text form.
struct Parts {
    dim: usize,
    bias: f32,
    weights: Vec<f32>,
}

fn parts(det: &LinearDetector) -> Parts {
    let saved = det.save_text();
    let mut lines = saved.lines().skip(1);
    let mut field = |name: &str| {
        let line = lines.next().expect("header line");
        line.strip_prefix(name).expect("header field").trim().to_string()
    };
    let dim: usize = field("dim").parse().expect("dim");
    let bias = f32::from_bits(u32::from_str_radix(&field("bias"), 16).expect("bias bits"));
    let mut weights = vec![0.0f32; dim];
    for line in lines {
        let (idx, bits) = line.split_once(' ').expect("weight line");
        weights[idx.parse::<usize>().expect("index")] =
            f32::from_bits(u32::from_str_radix(bits, 16).expect("weight bits"));
    }
    Parts { dim, bias, weights }
}

fn reference_score(p: &Parts, text: &str) -> f32 {
    let feats = reference_features(text, p.dim);
    let z: f32 = p.bias + feats.iter().map(|&f| p.weights[f]).sum::<f32>();
    1.0 / (1.0 + (-z).exp())
}

/// The training loop as it was, over the reference features.
fn reference_train(examples: &[(&str, bool)], config: &LinearDetectorConfig) -> Parts {
    let featurized: Vec<(Vec<usize>, f32)> = examples
        .iter()
        .map(|(text, y)| (reference_features(text, config.dim), f32::from(*y)))
        .collect();
    let mut weights = vec![0.0f32; config.dim];
    let mut bias = 0.0f32;
    let mut order: Vec<usize> = (0..featurized.len()).collect();
    let mut rng = Rng::seed_from_u64(config.seed);
    for _ in 0..config.epochs {
        rng.shuffle(&mut order);
        for &i in &order {
            let (feats, y) = &featurized[i];
            let z: f32 = bias + feats.iter().map(|&f| weights[f]).sum::<f32>();
            let p = 1.0 / (1.0 + (-z).exp());
            let grad = p - y;
            bias -= config.lr * grad;
            for &f in feats {
                weights[f] -= config.lr * (grad + config.l2 * weights[f]);
            }
        }
    }
    Parts { dim: config.dim, bias, weights }
}

fn frozen_detector() -> LinearDetector {
    let text = std::fs::read_to_string(fixture_dir().join("detector.txt")).expect("detector.txt");
    LinearDetector::load_text(&text).expect("parse frozen detector")
}

fn golden_units() -> Vec<String> {
    let report = std::fs::read_to_string(fixture_dir().join("report.txt")).expect("report.txt");
    goalspotter::ingest::parse(&report)
        .sentence_units(&report)
        .into_iter()
        .map(|u| u.text)
        .collect()
}

/// Words the seeded texts draw from, space-separated.
const WORDS: &str = "Reduce emissions by 50 % 2030 1999 2101 scope CO2 net-zero Ü-Boot ΟΔΟΣ naïve İstanbul €5.2m (baseline 2019) water WASTE renewable Électricité x ... 3,500 tCO₂e 漢字 🌍 's -";

/// Seeded texts, 0 to 24 words each, plus fixed edge cases.
fn seeded_texts(seed: u64, count: usize) -> Vec<String> {
    let words: Vec<&str> = WORDS.split(' ').collect();
    let mut rng = Rng::seed_from_u64(seed);
    let mut out: Vec<String> = (0..count)
        .map(|_| {
            let len = rng.random_range(0..25usize);
            let words: Vec<&str> =
                (0..len).map(|_| *rng.choose(&words).expect("non-empty word list")).collect();
            words.join(if rng.random_bool(0.2) { "  " } else { " " })
        })
        .collect();
    out.extend(["", " ", "\t\n", "%", "2030", "ΣΟΦΟΣ ΣΟΦΟΣ."].map(str::to_string));
    out
}

fn assert_equivalent(det: &LinearDetector, p: &Parts, texts: &[String]) {
    for text in texts {
        assert_eq!(
            det.feature_indices(text),
            reference_features(text, p.dim),
            "features of {text:?}"
        );
        assert_eq!(
            det.score(text).to_bits(),
            reference_score(p, text).to_bits(),
            "score of {text:?}"
        );
    }
}

#[test]
fn golden_report_units_score_as_the_reference_does() {
    let det = frozen_detector();
    let units = golden_units();
    assert!(units.len() > 20, "the golden report has {} units", units.len());
    assert_equivalent(&det, &parts(&det), &units);
}

#[test]
fn seeded_texts_score_as_the_reference_does() {
    let det = frozen_detector();
    assert_equivalent(&det, &parts(&det), &seeded_texts(5, 3000));
}

#[test]
fn training_matches_the_reference_bit_for_bit() {
    let texts = seeded_texts(11, 400);
    let mut rng = Rng::seed_from_u64(23);
    let examples: Vec<(&str, bool)> =
        texts.iter().map(|t| (t.as_str(), t.contains('%') || rng.random_bool(0.3))).collect();
    let config = LinearDetectorConfig { dim: 1 << 12, epochs: 3, seed: 9, ..Default::default() };
    let det = LinearDetector::train(&examples, config.clone());
    let want = reference_train(&examples, &config);
    let got = parts(&det);
    assert_eq!(got.bias.to_bits(), want.bias.to_bits(), "trained bias");
    let bits = |w: &[f32]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&got.weights), bits(&want.weights), "trained weights");
    assert_equivalent(&det, &got, &texts);
}
