//! Token vocabularies with special tokens.

use std::collections::HashMap;

/// Padding token (id 0).
pub const PAD: &str = "<pad>";
/// Unknown token (id 1).
pub const UNK: &str = "<unk>";
/// Begin-of-sequence token (id 2), like RoBERTa's `<s>` / BERT's `[CLS]`.
pub const BOS: &str = "<s>";
/// End-of-sequence token (id 3), like RoBERTa's `</s>` / BERT's `[SEP]`.
pub const EOS: &str = "</s>";
/// Mask token (id 4), reserved for MLM-style extensions.
pub const MASK: &str = "<mask>";

/// Bidirectional token <-> id mapping. Ids `0..5` are always the special
/// tokens above, in that order.
#[derive(Clone, Debug)]
pub struct Vocab {
    tokens: Vec<String>,
    ids: HashMap<String, u32>,
}

impl Vocab {
    /// Creates a vocabulary containing only the special tokens.
    pub fn with_specials() -> Self {
        let mut v = Vocab { tokens: Vec::new(), ids: HashMap::new() };
        for s in [PAD, UNK, BOS, EOS, MASK] {
            v.add(s);
        }
        v
    }

    /// Adds a token if absent; returns its id either way.
    pub fn add(&mut self, token: &str) -> u32 {
        if let Some(&id) = self.ids.get(token) {
            return id;
        }
        let id = self.tokens.len() as u32;
        self.tokens.push(token.to_string());
        self.ids.insert(token.to_string(), id);
        id
    }

    /// The id of `token`, or `None` if unknown.
    pub fn id(&self, token: &str) -> Option<u32> {
        self.ids.get(token).copied()
    }

    /// The id of `token`, falling back to [`UNK`].
    pub fn id_or_unk(&self, token: &str) -> u32 {
        self.id(token).unwrap_or(1)
    }

    /// The token with the given id.
    pub fn token(&self, id: u32) -> Option<&str> {
        self.tokens.get(id as usize).map(String::as_str)
    }

    /// Number of tokens including specials.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Whether the vocab holds nothing (never true after `with_specials`).
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// Id of the unknown token.
    pub fn unk_id(&self) -> u32 {
        1
    }

    /// Id of the begin-of-sequence token.
    pub fn bos_id(&self) -> u32 {
        2
    }

    /// Id of the end-of-sequence token.
    pub fn eos_id(&self) -> u32 {
        3
    }

    /// All tokens in id order (specials first).
    pub fn tokens(&self) -> &[String] {
        &self.tokens
    }

    /// Rebuilds a vocabulary from [`tokens`](Self::tokens) output.
    ///
    /// # Errors
    /// When the list does not start with the special tokens or repeats a
    /// token.
    pub fn from_tokens(tokens: Vec<String>) -> Result<Self, String> {
        let mut v = Vocab::with_specials();
        if !tokens.starts_with(&v.tokens) {
            return Err("vocabulary must start with the special tokens".to_string());
        }
        for token in &tokens[v.tokens.len()..] {
            if v.id(token).is_some() {
                return Err(format!("duplicate vocabulary token {token:?}"));
            }
            v.add(token);
        }
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specials_have_fixed_ids() {
        let v = Vocab::with_specials();
        assert_eq!(v.id(PAD), Some(0));
        assert_eq!(v.id(UNK), Some(1));
        assert_eq!(v.id(BOS), Some(2));
        assert_eq!(v.id(EOS), Some(3));
        assert_eq!(v.id(MASK), Some(4));
        assert_eq!(v.len(), 5);
    }

    #[test]
    fn add_is_idempotent() {
        let mut v = Vocab::with_specials();
        let a = v.add("carbon");
        let b = v.add("carbon");
        assert_eq!(a, b);
        assert_eq!(v.len(), 6);
        assert_eq!(v.token(a), Some("carbon"));
    }

    #[test]
    fn unknown_tokens_fall_back() {
        let v = Vocab::with_specials();
        assert_eq!(v.id_or_unk("never-seen"), v.unk_id());
    }

    #[test]
    fn from_tokens_restores_ids() {
        let mut v = Vocab::with_specials();
        v.add("net");
        v.add("zero");
        let back = Vocab::from_tokens(v.tokens().to_vec()).expect("valid");
        assert_eq!(back.id("zero"), v.id("zero"));
        assert_eq!(back.len(), v.len());
        assert!(Vocab::from_tokens(vec!["net".into()]).is_err());
        let mut dup = v.tokens().to_vec();
        dup.push("net".into());
        assert!(Vocab::from_tokens(dup).is_err());
    }
}
