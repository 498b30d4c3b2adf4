//! Tensor substrate for the PBQP-DNN primitive-selection system.
//!
//! This crate provides the dense tensors that every convolution primitive
//! in the workspace operates on — `f32` by default, with `i8` (affine
//! quantized) and `i32` (accumulator) storage behind the same API —
//! together with the *data layouts* that are the heart of the paper's
//! optimization problem: a convolution primitive is a triple
//! `{L_in, P, L_out}` and connecting two primitives whose layouts
//! disagree requires a data-layout transformation. Precision extends the
//! same idea: [`Repr`] pairs a layout with a [`DType`], and
//! quantize/dequantize are just more edges of the transformation graph.
//!
//! # Layouts
//!
//! A feature-map tensor is logically a 3-D array indexed by
//! `(channel, row, column)` — `(c, h, w)`. Physically it can be stored in any
//! permutation of those dimensions ([`Layout::Chw`], [`Layout::Hwc`], …) or
//! in a channel-blocked form ([`Layout::Chw4`], [`Layout::Chw8`]) where
//! groups of 4 or 8 channels are interleaved innermost, as used by
//! vectorized kernels and vendor libraries.
//!
//! # Example
//!
//! ```
//! use pbqp_dnn_tensor::{Layout, Tensor};
//!
//! let t = Tensor::from_fn(3, 4, 5, Layout::Chw, |c, h, w| (c + h + w) as f32);
//! let u = t.to_layout(Layout::Hwc);
//! assert_eq!(t.at(2, 3, 4), u.at(2, 3, 4));
//! assert_eq!(u.layout(), Layout::Hwc);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dtype;
mod error;
mod kernel;
mod layout;
pub mod pool;
pub mod rng;
mod tensor;
pub mod transform;
pub mod wire;

pub use dtype::{DType, QuantParams, Repr};
pub use error::TensorError;
pub use kernel::{KernelTensor, QuantizedKernel};
pub use layout::{Layout, Strides};
pub use tensor::Tensor;
