//! Token features for the traditional sequence models (CRF/HMM baseline).
//!
//! The paper trains its CRF with "token-level lexical, orthographic, and
//! contextual features" (§4.1). Each group can be toggled for the feature
//! ablation benchmarks.

use gs_text::PreToken;

/// Which feature groups to extract.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FeatureConfig {
    /// Word identity, lowercase form, prefixes/suffixes.
    pub lexical: bool,
    /// Capitalization, digit/punctuation shape, year/percent detectors.
    pub orthographic: bool,
    /// Neighboring words and shapes.
    pub contextual: bool,
    /// Context window radius (the standard CRF feature set uses +-1;
    /// +-2 is evaluated in the feature ablation).
    pub window: usize,
}

impl Default for FeatureConfig {
    fn default() -> Self {
        FeatureConfig { lexical: true, orthographic: true, contextual: true, window: 1 }
    }
}

impl FeatureConfig {
    /// Lexical features only.
    pub fn lexical_only() -> Self {
        FeatureConfig { lexical: true, orthographic: false, contextual: false, window: 0 }
    }

    /// Lexical + orthographic.
    pub fn no_context() -> Self {
        FeatureConfig { lexical: true, orthographic: true, contextual: false, window: 0 }
    }

    /// A wider +-2 context window (ablation variant).
    pub fn wide_context() -> Self {
        FeatureConfig { window: 2, ..Default::default() }
    }
}

/// The word-shape abstraction: `Xx` for "Reduce", `dddd` for "2040",
/// `dd%` for "20%"-like mixes, `x-x` keeps punctuation.
pub fn word_shape(word: &str) -> String {
    let mut shape = String::new();
    push_word_shape(word, &mut shape);
    shape
}

/// Appends [`word_shape`]`(word)` to `shape`.
pub(crate) fn push_word_shape(word: &str, shape: &mut String) {
    let mut last: Option<char> = None;
    let mut run_len = 0usize;
    for c in word.chars() {
        let s = if c.is_ascii_digit() {
            'd'
        } else if c.is_uppercase() {
            'X'
        } else if c.is_lowercase() {
            'x'
        } else {
            c
        };
        if last == Some(s) {
            run_len += 1;
            // Collapse runs beyond length 2 so shapes stay low-cardinality.
            if run_len > 2 {
                continue;
            }
        } else {
            run_len = 1;
            last = Some(s);
        }
        shape.push(s);
    }
}

/// Whether a token looks like a calendar year (1900..=2099).
pub fn looks_like_year(word: &str) -> bool {
    word.len() == 4
        && word.chars().all(|c| c.is_ascii_digit())
        && (word.starts_with("19") || word.starts_with("20"))
}

/// Whether a token is numeric (possibly with separators or decimal point).
pub fn is_numeric(word: &str) -> bool {
    !word.is_empty()
        && word.chars().all(|c| c.is_ascii_digit() || c == '.' || c == ',')
        && word.chars().any(|c| c.is_ascii_digit())
}

/// Extracts feature strings for every token in a sentence.
pub fn sentence_features(tokens: &[PreToken], config: &FeatureConfig) -> Vec<Vec<String>> {
    let lowers: Vec<String> = tokens.iter().map(|t| t.text.to_lowercase()).collect();
    let shapes: Vec<String> = tokens.iter().map(|t| word_shape(&t.text)).collect();
    (0..tokens.len()).map(|i| token_features(tokens, &lowers, &shapes, i, config)).collect()
}

fn token_features(
    tokens: &[PreToken],
    lowers: &[String],
    shapes: &[String],
    i: usize,
    config: &FeatureConfig,
) -> Vec<String> {
    let mut f = Vec::with_capacity(16);
    let word = &tokens[i].text;
    f.push("bias".to_string());

    if config.lexical {
        f.push(format!("w={}", lowers[i]));
        let chars: Vec<char> = lowers[i].chars().collect();
        if chars.len() >= 3 {
            f.push(format!("pre3={}", chars[..3].iter().collect::<String>()));
            f.push(format!("suf3={}", chars[chars.len() - 3..].iter().collect::<String>()));
        }
        f.push(format!("len={}", chars.len().min(8)));
    }

    if config.orthographic {
        f.push(format!("shape={}", shapes[i]));
        if word.chars().next().is_some_and(char::is_uppercase) {
            f.push("cap".to_string());
        }
        if word.chars().all(char::is_uppercase) && word.len() > 1 {
            f.push("allcaps".to_string());
        }
        if is_numeric(word) {
            f.push("num".to_string());
        }
        if looks_like_year(word) {
            f.push("year".to_string());
        }
        if word == "%" {
            f.push("pct".to_string());
        }
        if word.len() == 1 && !word.chars().next().expect("char").is_alphanumeric() {
            f.push("punct".to_string());
        }
        if i == 0 {
            f.push("first".to_string());
        }
        if i + 1 == tokens.len() {
            f.push("last".to_string());
        }
    }

    if config.contextual && config.window > 0 {
        let w = config.window as i64;
        for offset in -w..=w {
            if offset == 0 {
                continue;
            }
            let j = i as i64 + offset;
            if j < 0 || j as usize >= tokens.len() {
                f.push(format!("ctx{offset}=<pad>"));
            } else {
                let j = j as usize;
                f.push(format!("ctx{offset}={}", lowers[j]));
                if offset.abs() == 1 {
                    f.push(format!("ctxshape{offset}={}", shapes[j]));
                }
            }
        }
    }

    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_text::pretokenize;

    #[test]
    fn shapes_abstract_words() {
        assert_eq!(word_shape("Reduce"), "Xxx");
        assert_eq!(word_shape("2040"), "dd");
        assert_eq!(word_shape("CO2"), "XXd");
        assert_eq!(word_shape("net-zero"), "xx-xx");
        assert_eq!(word_shape("%"), "%");
    }

    #[test]
    fn year_detector() {
        assert!(looks_like_year("2040"));
        assert!(looks_like_year("1999"));
        assert!(!looks_like_year("2140"));
        assert!(!looks_like_year("204"));
        assert!(!looks_like_year("20a0"));
    }

    #[test]
    fn numeric_detector() {
        assert!(is_numeric("20"));
        assert!(is_numeric("8.1"));
        assert!(is_numeric("500,000"));
        assert!(!is_numeric("20%"));
        assert!(!is_numeric("abc"));
        assert!(!is_numeric("."));
    }

    #[test]
    fn features_include_all_groups_by_default() {
        let toks = pretokenize("Reduce emissions by 2040");
        let feats = sentence_features(&toks, &FeatureConfig::default());
        assert_eq!(feats.len(), 4);
        let f0: &Vec<String> = &feats[0];
        assert!(f0.contains(&"w=reduce".to_string()));
        assert!(f0.contains(&"cap".to_string()));
        assert!(f0.contains(&"first".to_string()));
        assert!(f0.iter().any(|f| f.starts_with("ctx1=")));
        let f3 = &feats[3];
        assert!(f3.contains(&"year".to_string()));
        assert!(f3.contains(&"last".to_string()));
    }

    #[test]
    fn lexical_only_omits_shape_and_context() {
        let toks = pretokenize("Reduce emissions");
        let feats = sentence_features(&toks, &FeatureConfig::lexical_only());
        for tf in &feats {
            assert!(tf.iter().all(|f| !f.starts_with("shape=") && !f.starts_with("ctx")));
        }
    }

    #[test]
    fn context_features_pad_at_boundaries() {
        let toks = pretokenize("one two");
        let feats = sentence_features(&toks, &FeatureConfig::default());
        assert!(feats[0].contains(&"ctx-1=<pad>".to_string()));
        assert!(feats[1].contains(&"ctx1=<pad>".to_string()));
    }
}
