//! Minimal dense tensor library for the SPARK reproduction.
//!
//! This crate provides the numeric substrate every other crate builds on:
//! row-major dense tensors over `f32` (and raw byte tensors for quantized
//! data), shape arithmetic, matrix multiplication, `im2col` lowering for
//! convolutions, and the reduction / statistics helpers the quantizers need.
//!
//! The API is intentionally small: the SPARK paper's workloads decompose into
//! GEMMs, so [`Tensor`], [`ops::matmul`] and [`im2col`] carry almost all the
//! weight. The one deliberate coupling is [`encoded`]: weights can live in
//! memory as SPARK nibble streams ([`EncodedMatrix`]) and feed the GEMM
//! engine through a decode-fused panel packer, bit-identical to decoding
//! first. Nothing here depends on the simulator.
//!
//! # Example
//!
//! ```
//! use spark_tensor::{Tensor, ops};
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::eye(2);
//! let c = ops::matmul(&a, &b)?;
//! assert_eq!(c.as_slice(), a.as_slice());
//! # Ok::<(), spark_tensor::ShapeError>(())
//! ```

#![warn(missing_docs)]

mod error;
mod shape;
mod tensor;

pub mod emit;
pub mod encoded;
pub mod gemm;
pub mod im2col;
pub mod ops;
pub mod quantize;
pub mod stats;

pub use encoded::{EncodedError, EncodedMatrix, PrecisionProfile};
pub use error::ShapeError;
pub use shape::Shape;
pub use tensor::{QuantTensor, Tensor};
