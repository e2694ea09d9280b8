//! # gs-text
//!
//! Text-processing substrate for the GoalSpotter reproduction: deterministic
//! normalization (paper §3.2's preprocessing), word-level pre-tokenization
//! with source offsets (the level Algorithm 1 labels at), trainable
//! subword tokenizers (BPE for RoBERTa-style models, WordPiece for
//! BERT-style models), closed vocabularies, and IOB label schemes with
//! span encode/decode/repair.

#![warn(missing_docs)]

mod bpe;
mod normalize;
mod pretokenize;
mod sentence;
mod span;
mod tokenizer;
mod vocab;
mod wordpiece;

pub mod labels;

pub use bpe::Bpe;
pub use normalize::{match_key, Normalizer, NormalizerConfig};
pub use pretokenize::{pretokenize, PreToken};
pub use sentence::sentence_spans;
pub use span::Span;
pub use tokenizer::{Encoding, SubwordModel, Tokenizer};
pub use vocab::{Vocab, BOS, EOS, MASK, PAD, UNK};
pub use wordpiece::{WordPiece, CONT};
