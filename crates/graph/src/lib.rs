//! DNN graph intermediate representation and the published model zoo.
//!
//! A DNN is a directed acyclic graph of layers (§2 of the paper). The
//! primitive-selection problem assigns an implementation to **every**
//! layer: convolutions select among the primitive library, every other
//! operator selects among its per-class kernel candidates over the full
//! representation (layout × dtype) space — see
//! [`LayerKind::selection_class`]. (The paper models non-conv layers as
//! zero-cost dummies, §5.2; this repo generalizes them to first-class
//! selection nodes so int8 islands can span activation layers.)
//!
//! The [`models`] module reconstructs the evaluation networks from their
//! publications: AlexNet, the VGG family (A, B, C, D, E) and GoogleNet's
//! inception architecture.
//!
//! # Example
//!
//! ```
//! use pbqp_dnn_graph::models;
//!
//! let net = models::alexnet();
//! assert_eq!(net.conv_nodes().len(), 5);
//! let shapes = net.infer_shapes().unwrap();
//! // conv1 of AlexNet produces 96 feature maps of 55x55.
//! let conv1 = net.conv_nodes()[0];
//! assert_eq!(shapes[conv1.index()], (96, 55, 55));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod graph;
mod layer;
pub mod models;
mod scenario;

pub use graph::{DnnGraph, Fnv1a, GraphError, NodeId};
pub use layer::{pool_out_dim, Layer, LayerKind, OpClass, PoolKind, SelectionClass};
pub use scenario::ConvScenario;
