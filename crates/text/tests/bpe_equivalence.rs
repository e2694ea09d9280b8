//! `Bpe::encode_word` must equal the string-keyed reference encoder below
//! piece for piece: lowest merge rank first, leftmost on ties, a pair
//! listed twice in the merges keeping its last rank, and a character no
//! merge names kept as its own symbol. The words are every word of the
//! golden corpus under its golden tokenizer (300 merges), seeded words
//! drawn from the corpus alphabet plus characters no merge names,
//! multibyte words, runs like `aaaa`, and the empty word.

use gs_obs::Rng;
use gs_text::{pretokenize, Bpe, Normalizer};
use std::collections::{BTreeSet, HashMap};
use std::path::Path;

/// The encoder as it was before symbols were interned: every merge step
/// looks each adjacent pair up as a `(String, String)` key.
struct Reference {
    ranks: HashMap<(String, String), usize>,
}

impl Reference {
    fn new(merges: &[(String, String)]) -> Self {
        Reference {
            ranks: merges
                .iter()
                .enumerate()
                .map(|(i, (a, b))| ((a.clone(), b.clone()), i))
                .collect(),
        }
    }

    fn encode_word(&self, word: &str) -> Vec<String> {
        if word.is_empty() {
            return Vec::new();
        }
        let chars: Vec<char> = word.chars().collect();
        let mut syms: Vec<String> = chars
            .iter()
            .enumerate()
            .map(|(i, c)| if i + 1 == chars.len() { format!("{c}</w>") } else { c.to_string() })
            .collect();
        loop {
            let mut best: Option<(usize, usize)> = None;
            for (i, pair) in syms.windows(2).enumerate() {
                if let Some(&rank) = self.ranks.get(&(pair[0].clone(), pair[1].clone())) {
                    if best.is_none_or(|(r, _)| rank < r) {
                        best = Some((rank, i));
                    }
                }
            }
            let Some((_, pos)) = best else { break };
            let merged = format!("{}{}", syms[pos], syms[pos + 1]);
            syms[pos] = merged;
            syms.remove(pos + 1);
        }
        syms
    }
}

/// The golden corpus's words and the BPE the golden tokenizer trains on
/// them (`Tokenizer::train_bpe` with the default normalizer, 300 merges).
fn golden() -> (Vec<String>, Bpe) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/corpus.txt");
    let corpus = std::fs::read_to_string(path).expect("read the golden corpus");
    let normalizer = Normalizer::default();
    let mut counts: HashMap<String, u64> = HashMap::new();
    for line in corpus.lines() {
        for tok in pretokenize(&normalizer.normalize(line)) {
            *counts.entry(tok.text).or_insert(0) += 1;
        }
    }
    let bpe = Bpe::train(counts.iter().map(|(w, c)| (w.as_str(), *c)), 300);
    let mut words: Vec<String> = counts.into_keys().collect();
    words.sort();
    (words, bpe)
}

fn assert_same(bpe: &Bpe, reference: &Reference, word: &str) {
    assert_eq!(bpe.encode_word(word), reference.encode_word(word), "pieces of {word:?}");
}

/// Seeded words over `alphabet`, 0 to 14 characters long.
fn seeded_words(alphabet: &[char], seed: u64, count: usize) -> Vec<String> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let len = rng.random_range(0..15usize);
            (0..len).map(|_| *rng.choose(alphabet).expect("non-empty alphabet")).collect()
        })
        .collect()
}

#[test]
fn golden_corpus_words_encode_as_the_reference_does() {
    let (words, bpe) = golden();
    assert!(bpe.num_merges() > 50, "the golden corpus should learn many merges");
    let reference = Reference::new(bpe.merges());
    for word in &words {
        assert_same(&bpe, &reference, word);
    }
}

#[test]
fn seeded_and_edge_words_encode_as_the_reference_does() {
    let (words, bpe) = golden();
    let reference = Reference::new(bpe.merges());
    let corpus_chars: BTreeSet<char> = words.iter().flat_map(|w| w.chars()).collect();
    let mut alphabet: Vec<char> = corpus_chars.into_iter().collect();
    // Characters no merge names, multibyte ones among them.
    alphabet.extend(['q', 'Z', '~', 'é', 'ß', '€', '漢', '🌍']);
    let mut cases = seeded_words(&alphabet, 17, 4000);
    cases.extend(
        [
            "",
            "a",
            "aa",
            "aaa",
            "aaaa",
            "aaaaaaaaa",
            "eeee",
            "ssss",
            "2025",
            "20252025",
            "%",
            "é",
            "éé",
            "ééé",
            "naïve",
            "ÉMISSIONS",
            "co₂",
            "漢字漢字",
            "🌍🌍🌍",
            "qqqq",
            "x</w>",
        ]
        .map(str::to_string),
    );
    for word in &cases {
        assert_same(&bpe, &reference, word);
    }
}

#[test]
fn a_duplicated_merge_keeps_its_last_rank() {
    let pair = |a: &str, b: &str| (a.to_string(), b.to_string());
    let lists = [
        // ("a", "b") at ranks 0 and 2: its last rank loses to ("b", "c").
        vec![pair("a", "b"), pair("b", "c"), pair("a", "b"), pair("ab", "c</w>")],
        vec![pair("b", "c</w>"), pair("a", "b"), pair("b", "c</w>"), pair("a", "bc</w>")],
        vec![pair("a", "a"), pair("a", "a"), pair("aa", "a"), pair("a", "a</w>")],
        vec![pair("x", "y"), pair("x", "y")],
        // Two merges that build the same string: later merges name it once.
        vec![
            pair("b", "c"),
            pair("a", "bc"),
            pair("a", "b"),
            pair("ab", "c"),
            pair("abc", "abc</w>"),
        ],
    ];
    let words = ["abc", "abab", "abcabc", "aaaa", "aaa", "aa", "bc", "xy", "xyxy", "cab", ""];
    for merges in lists {
        let bpe = Bpe::from_merges(merges.clone());
        let reference = Reference::new(&merges);
        for word in words {
            assert_same(&bpe, &reference, word);
        }
        for word in seeded_words(&['a', 'b', 'c', 'x', 'y'], 29, 500) {
            assert_same(&bpe, &reference, &word);
        }
    }
}
