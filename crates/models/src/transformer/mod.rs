//! Trainable transformer encoders for sequence labeling (paper §3.3).

mod check;
mod config;
mod extractor;
mod model;
mod pretrain;
mod trainer;

pub use check::{assert_classifier_valid, validate_classifier};
pub use config::{ModelFamily, TrainConfig, TransformerConfig};
pub use extractor::{ExtractorOptions, ExtractorView, TransformerExtractor};
pub use model::TokenClassifier;
pub use pretrain::{pretrain_encoder, pretrain_encoder_shared, PretrainConfig, PretrainedEncoder};
pub use trainer::{train_token_classifier, train_token_classifier_cb, EpochStats, TrainExample};
