//! Word-level pre-tokenization with offsets.
//!
//! Algorithm 1 in the paper operates on word-level tokens (Table 3 shows
//! `co`, `-`, `founded` as separate tokens), so the pre-tokenizer splits on
//! whitespace and treats each punctuation character as its own token.
//! Offsets into the original string are preserved so decoded entities can be
//! mapped back to the source text.

use crate::span::Span;

/// A word-level token with its source span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PreToken {
    /// The token text (owned; always equal to `span.slice(source)`).
    pub text: String,
    /// Byte span in the source string.
    pub span: Span,
}

impl PreToken {
    /// Convenience constructor.
    pub fn new(text: impl Into<String>, start: usize, end: usize) -> Self {
        PreToken { text: text.into(), span: Span::new(start, end) }
    }
}

/// Character classes the pre-tokenizer distinguishes.
#[derive(Clone, Copy, PartialEq, Eq)]
enum CharClass {
    Space,
    Punct,
    Word,
}

fn classify(c: char) -> CharClass {
    if c.is_whitespace() {
        CharClass::Space
    } else if c.is_alphanumeric() {
        CharClass::Word
    } else {
        CharClass::Punct
    }
}

/// Splits text into word and punctuation tokens with byte offsets.
///
/// Runs of alphanumeric characters form one token; every punctuation
/// character is its own token; whitespace separates tokens and is dropped.
/// `"co-founded"` therefore becomes `["co", "-", "founded"]`, matching the
/// paper's Table 3.
pub fn pretokenize(text: &str) -> Vec<PreToken> {
    let mut tokens = Vec::new();
    let mut word_start: Option<usize> = None;
    for (i, c) in text.char_indices() {
        match classify(c) {
            CharClass::Word => {
                if word_start.is_none() {
                    word_start = Some(i);
                }
            }
            CharClass::Space | CharClass::Punct => {
                if let Some(start) = word_start.take() {
                    tokens.push(PreToken::new(&text[start..i], start, i));
                }
                if classify(c) == CharClass::Punct {
                    let end = i + c.len_utf8();
                    tokens.push(PreToken::new(&text[i..end], i, end));
                }
            }
        }
    }
    if let Some(start) = word_start {
        tokens.push(PreToken::new(&text[start..], start, text.len()));
    }
    tokens
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(tokens: &[PreToken]) -> Vec<&str> {
        tokens.iter().map(|t| t.text.as_str()).collect()
    }

    #[test]
    fn splits_paper_example_like_table3() {
        let toks = pretokenize(
            "We co-founded The Climate Pledge, a commitment to reach net-zero carbon by 2040.",
        );
        assert_eq!(
            texts(&toks),
            vec![
                "We",
                "co",
                "-",
                "founded",
                "The",
                "Climate",
                "Pledge",
                ",",
                "a",
                "commitment",
                "to",
                "reach",
                "net",
                "-",
                "zero",
                "carbon",
                "by",
                "2040",
                "."
            ]
        );
    }

    #[test]
    fn offsets_roundtrip_to_source() {
        let text = "Reduce energy consumption by 20% by 2025 (baseline 2017).";
        for tok in pretokenize(text) {
            assert_eq!(tok.span.slice(text), tok.text);
        }
    }

    #[test]
    fn percent_stays_attached_to_nothing() {
        let toks = pretokenize("20% by 2025");
        assert_eq!(texts(&toks), vec!["20", "%", "by", "2025"]);
    }

    #[test]
    fn handles_unicode_words() {
        let toks = pretokenize("Zurich Zürich naïve");
        assert_eq!(texts(&toks), vec!["Zurich", "Zürich", "naïve"]);
        let text = "Zurich Zürich naïve";
        for tok in pretokenize(text) {
            assert_eq!(tok.span.slice(text), tok.text);
        }
    }

    #[test]
    fn empty_and_whitespace_only() {
        assert!(pretokenize("").is_empty());
        assert!(pretokenize("   \t\n ").is_empty());
    }

    #[test]
    fn consecutive_punctuation_splits() {
        let toks = pretokenize("goals...done");
        assert_eq!(texts(&toks), vec!["goals", ".", ".", ".", "done"]);
    }

    #[test]
    fn numbers_are_single_tokens() {
        let toks = pretokenize("CO2 37871 2040");
        assert_eq!(texts(&toks), vec!["CO2", "37871", "2040"]);
    }
}
