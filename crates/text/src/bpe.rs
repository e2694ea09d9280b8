//! Trainable byte-pair encoding (Sennrich et al. 2016), the subword scheme
//! RoBERTa-style encoders use (paper §3.2 cites BPE as the robust subword
//! mechanism for rare words and domain terminology).
//!
//! Training works on symbol strings. Encoding works on interned ids:
//! [`Bpe::from_merges`] gives every symbol a merge names or builds a `u32`
//! id, and [`Bpe::encode_word`] merges id pairs through one
//! `(left, right) → (rank, merged)` table, so a merge step allocates
//! nothing and hashes one `u64`. The rule is the string encoder's: the
//! lowest-rank pair merges first, the leftmost on ties; a pair listed twice
//! keeps its last rank; a character no merge names stays its own symbol.
//! `tests/bpe_equivalence.rs` pins the pieces to the string-keyed encoder.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// End-of-word marker appended to the last symbol of every word so merges
/// can distinguish word-final pieces (`est</w>` vs `est`).
const EOW: &str = "</w>";

/// Hashes the `u64` keys of the encoder's tables: one multiply by an odd
/// constant, then the high half folded into the low half so that both
/// halves of a key reach the bucket bits.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, key: u64) {
        let h = key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type IdMap<V> = HashMap<u64, V, BuildHasherDefault<IdHasher>>;

/// The `pairs` key of two adjacent symbol ids.
fn pair_key(left: u32, right: u32) -> u64 {
    u64::from(left) << 32 | u64::from(right)
}

/// The `initial` key of a word's character `c`, word-final or not.
fn char_key(c: char, last: bool) -> u64 {
    u64::from(u32::from(c)) << 1 | u64::from(last)
}

/// A trained BPE model: an ordered list of merges plus the symbol set.
#[derive(Clone, Debug)]
pub struct Bpe {
    merges: Vec<(String, String)>,
    /// Every symbol a merge names or builds, by id.
    symbols: Vec<String>,
    /// The id of each one-character symbol (`c`, or `c</w>` word-finally),
    /// keyed by [`char_key`].
    initial: IdMap<u32>,
    /// `(rank, merged id)` of each merge, keyed by [`pair_key`] of its
    /// sides; a pair listed twice keeps its last rank.
    pairs: IdMap<(u32, u32)>,
}

impl Bpe {
    /// Learns `num_merges` merges from an iterator of (word, count) pairs.
    ///
    /// Words should be pre-tokenized units (no whitespace). Training stops
    /// early if no pair occurs at least twice.
    pub fn train<'a>(
        word_counts: impl IntoIterator<Item = (&'a str, u64)>,
        num_merges: usize,
    ) -> Self {
        // Represent each distinct word as its current symbol sequence.
        let mut words: Vec<(Vec<String>, u64)> = word_counts
            .into_iter()
            .filter(|(w, _)| !w.is_empty())
            .map(|(w, c)| (word_symbols(w), c))
            .collect();

        let mut merges = Vec::with_capacity(num_merges);
        for _ in 0..num_merges {
            let mut pair_counts: HashMap<(&str, &str), u64> = HashMap::new();
            for (syms, count) in &words {
                for pair in syms.windows(2) {
                    *pair_counts.entry((pair[0].as_str(), pair[1].as_str())).or_insert(0) += count;
                }
            }
            // Deterministic tie-break: highest count, then lexicographic.
            let best = pair_counts
                .iter()
                .max_by(|a, b| a.1.cmp(b.1).then_with(|| b.0.cmp(a.0)))
                .map(|(&(a, b), &c)| ((a.to_string(), b.to_string()), c));
            let Some(((left, right), count)) = best else { break };
            if count < 2 {
                break;
            }
            let merged = format!("{left}{right}");
            for (syms, _) in &mut words {
                apply_merge(syms, &left, &right, &merged);
            }
            merges.push((left, right));
        }

        Bpe::from_merges(merges)
    }

    /// A model applying `merges` in order (the first merge has the highest
    /// priority), as [`merges`](Self::merges) lists them.
    pub fn from_merges(merges: Vec<(String, String)>) -> Self {
        let mut symbols: Vec<String> = Vec::new();
        let mut ids: HashMap<String, u32> = HashMap::new();
        let mut intern = |s: String| {
            *ids.entry(s).or_insert_with_key(|s| {
                symbols.push(s.clone());
                (symbols.len() - 1) as u32
            })
        };
        let mut pairs = IdMap::default();
        for (rank, (a, b)) in merges.iter().enumerate() {
            let merged = intern(format!("{a}{b}"));
            let key = pair_key(intern(a.clone()), intern(b.clone()));
            pairs.insert(key, (rank as u32, merged));
        }
        let mut initial = IdMap::default();
        for (id, s) in symbols.iter().enumerate() {
            let mut chars = s.chars();
            if let Some(c) = chars.next() {
                match chars.as_str() {
                    "" => initial.insert(char_key(c, false), id as u32),
                    EOW => initial.insert(char_key(c, true), id as u32),
                    _ => None,
                };
            }
        }
        Bpe { merges, symbols, initial, pairs }
    }

    /// The learned merges in priority order.
    pub fn merges(&self) -> &[(String, String)] {
        &self.merges
    }

    /// Number of learned merges.
    pub fn num_merges(&self) -> usize {
        self.merges.len()
    }

    /// Encodes a single word into subword symbols. The final symbol carries
    /// the `</w>` marker.
    pub fn encode_word(&self, word: &str) -> Vec<String> {
        // A character no merge names gets id `known + its byte offset`,
        // which no merge can pair with.
        let known = self.symbols.len() as u32;
        let mut syms: Vec<u32> = Vec::with_capacity(word.len());
        let mut chars = word.char_indices().peekable();
        while let Some((at, c)) = chars.next() {
            let key = char_key(c, chars.peek().is_none());
            syms.push(self.initial.get(&key).copied().unwrap_or(known + at as u32));
        }
        // Repeatedly apply the lowest-rank applicable merge, as in the
        // original BPE encoder.
        loop {
            let mut best: Option<(u32, usize, u32)> = None; // (rank, position, merged)
            for (i, pair) in syms.windows(2).enumerate() {
                if let Some(&(rank, merged)) = self.pairs.get(&pair_key(pair[0], pair[1])) {
                    if best.is_none_or(|(r, _, _)| rank < r) {
                        best = Some((rank, i, merged));
                    }
                }
            }
            let Some((_, pos, merged)) = best else { break };
            syms[pos] = merged;
            syms.remove(pos + 1);
        }
        syms.into_iter()
            .map(|id| match self.symbols.get(id as usize) {
                Some(s) => s.clone(),
                None => {
                    let at = (id - known) as usize;
                    let c = word[at..].chars().next().expect("a character starts here");
                    if at + c.len_utf8() == word.len() {
                        format!("{c}{EOW}")
                    } else {
                        c.to_string()
                    }
                }
            })
            .collect()
    }

    /// All symbols the encoder can emit over the given training words —
    /// used to build a closed vocabulary.
    pub fn symbol_set<'a>(&self, words: impl IntoIterator<Item = &'a str>) -> Vec<String> {
        let mut set = std::collections::BTreeSet::new();
        for w in words {
            for s in self.encode_word(w) {
                set.insert(s);
            }
        }
        set.into_iter().collect()
    }
}

fn word_symbols(word: &str) -> Vec<String> {
    let chars: Vec<char> = word.chars().collect();
    let n = chars.len();
    chars
        .iter()
        .enumerate()
        .map(|(i, c)| if i + 1 == n { format!("{c}{EOW}") } else { c.to_string() })
        .collect()
}

fn apply_merge(syms: &mut Vec<String>, left: &str, right: &str, merged: &str) {
    let mut i = 0;
    while i + 1 < syms.len() {
        if syms[i] == left && syms[i + 1] == right {
            syms[i] = merged.to_string();
            syms.remove(i + 1);
        } else {
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_corpus() -> Vec<(&'static str, u64)> {
        vec![
            ("low", 5),
            ("lower", 2),
            ("newest", 6),
            ("widest", 3),
            ("emission", 8),
            ("emissions", 7),
        ]
    }

    #[test]
    fn training_learns_frequent_pairs() {
        let bpe = Bpe::train(sample_corpus(), 50);
        assert!(bpe.num_merges() > 0);
        // "emission" occurs 15 times in total (with plural); after enough
        // merges it should encode to very few symbols.
        let pieces = bpe.encode_word("emission");
        assert!(pieces.len() <= 3, "pieces: {:?}", pieces);
    }

    #[test]
    fn encode_unseen_word_falls_back_to_pieces() {
        let bpe = Bpe::train(sample_corpus(), 30);
        let pieces = bpe.encode_word("lowest");
        // Must reconstruct the word when markers are stripped.
        let joined: String =
            pieces.iter().map(|p| p.trim_end_matches(EOW)).collect::<Vec<_>>().join("");
        assert_eq!(joined, "lowest");
        assert!(pieces.last().expect("non-empty").ends_with(EOW));
    }

    #[test]
    fn encode_is_deterministic() {
        let bpe = Bpe::train(sample_corpus(), 30);
        assert_eq!(bpe.encode_word("emissions"), bpe.encode_word("emissions"));
    }

    #[test]
    fn zero_merges_yields_characters() {
        let bpe = Bpe::train(sample_corpus(), 0);
        let pieces = bpe.encode_word("net");
        assert_eq!(pieces, vec!["n".to_string(), "e".to_string(), format!("t{EOW}")]);
    }

    #[test]
    fn empty_word_encodes_to_nothing() {
        let bpe = Bpe::train(sample_corpus(), 10);
        assert!(bpe.encode_word("").is_empty());
    }

    #[test]
    fn single_char_word_has_eow() {
        let bpe = Bpe::train(sample_corpus(), 10);
        assert_eq!(bpe.encode_word("a"), vec![format!("a{EOW}")]);
    }

    #[test]
    fn training_is_deterministic() {
        let a = Bpe::train(sample_corpus(), 40);
        let b = Bpe::train(sample_corpus(), 40);
        assert_eq!(a.merges, b.merges);
    }

    #[test]
    fn symbol_set_covers_training_words() {
        let bpe = Bpe::train(sample_corpus(), 20);
        let symbols = bpe.symbol_set(sample_corpus().iter().map(|(w, _)| *w));
        assert!(!symbols.is_empty());
        for (w, _) in sample_corpus() {
            for piece in bpe.encode_word(w) {
                assert!(symbols.contains(&piece), "missing {piece}");
            }
        }
    }

    #[test]
    fn from_merges_rebuilds_the_encoder() {
        let bpe = Bpe::train(sample_corpus(), 25);
        let back = Bpe::from_merges(bpe.merges().to_vec());
        assert_eq!(back.encode_word("newest"), bpe.encode_word("newest"));
    }
}
