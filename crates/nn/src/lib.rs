//! # spark-nn — neural-network substrate for the SPARK reproduction
//!
//! Two halves:
//!
//! 1. **Workloads** ([`workload`]): the paper's evaluated networks (VGG16,
//!    ResNet-18/50/152, BERT, ViT, GPT-2, BART) expressed as the GEMM
//!    sequences their inference lowers to. The cycle-accurate simulator in
//!    `spark-sim` consumes these.
//! 2. **Trainable proxies** ([`layers`], [`model`], [`train`], [`proxy`]):
//!    small networks — an im2col CNN and a single-head attention classifier —
//!    with full manual backprop and SGD, trained on the synthetic tasks from
//!    `spark-data`. They provide the *real* end-to-end accuracy numbers for
//!    Tables III/IV/V and the Fig 13 ablation: train in FP32, compress the
//!    weights with any [`spark_quant::Codec`], re-evaluate, optionally
//!    finetune with the codec in the loop.
//!
//! # Example
//!
//! ```no_run
//! use spark_data::Dataset;
//! use spark_nn::{proxy, train};
//! use spark_quant::SparkCodec;
//!
//! let data = Dataset::blobs(512, 16, 4, 1);
//! let (train_set, test_set) = data.split(0.8);
//! let mut model = proxy::tiny_mlp(16, 32, 4, 7);
//! train::train(&mut model, &train_set, &train::TrainConfig::quick());
//! let fp32_acc = train::evaluate(&mut model, &test_set);
//! train::compress_weights(&mut model, &SparkCodec::default()).unwrap();
//! let spark_acc = train::evaluate(&mut model, &test_set);
//! assert!(fp32_acc - spark_acc < 0.1);
//! ```

#![warn(missing_docs)]

pub mod layers;
pub mod model;
pub mod proxy;
pub mod train;
pub mod workload;

pub use model::Sequential;
pub use workload::{Gemm, ModelWorkload};
