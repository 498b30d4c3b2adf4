use std::fmt;

use crate::ConvScenario;

/// Pooling operator flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PoolKind {
    /// Maximum over the window.
    Max,
    /// Arithmetic mean over the window.
    Avg,
}

/// Output extent of a pooling layer along one spatial axis, by Caffe's
/// ceil convention: `ceil((h + 2·pad − k) / stride) + 1`, so the last
/// window may overhang the padded input. The one definition shape
/// inference, the model builders, the pooling kernels and the profiler
/// share.
///
/// Returns `None` when no window fits (`k > h + 2·pad`) or `stride == 0`.
///
/// # Example
///
/// ```
/// use pbqp_dnn_graph::pool_out_dim;
///
/// assert_eq!(pool_out_dim(55, 3, 2, 0), Some(27)); // AlexNet pool1
/// assert_eq!(pool_out_dim(5, 7, 1, 0), None);
/// ```
pub fn pool_out_dim(h: usize, k: usize, stride: usize, pad: usize) -> Option<usize> {
    if stride == 0 {
        return None;
    }
    Some((h + 2 * pad).checked_sub(k)?.div_ceil(stride) + 1)
}

/// The operator class of a non-convolution selection node.
///
/// Every non-conv layer kind maps to exactly one class; the primitive
/// registry keeps a per-class candidate set of `OpKernel`s (f32 at every
/// layout, plus int8 variants where they exist), so the PBQP instance can
/// price non-conv layers over the full `Repr` space instead of treating
/// them as zero-cost f32 dummies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpClass {
    /// Rectified linear activation.
    Relu,
    /// Spatial max pooling.
    MaxPool,
    /// Spatial average pooling.
    AvgPool,
    /// Local response normalization.
    Lrn,
    /// Inference-time identity.
    Dropout,
    /// Fully-connected layer.
    FullyConnected,
    /// Channel-wise concatenation.
    Concat,
    /// Elementwise residual merge.
    Add,
    /// Softmax over the flattened input.
    Softmax,
}

impl OpClass {
    /// All classes in a stable display order.
    pub const ALL: [OpClass; 9] = [
        OpClass::Relu,
        OpClass::MaxPool,
        OpClass::AvgPool,
        OpClass::Lrn,
        OpClass::Dropout,
        OpClass::FullyConnected,
        OpClass::Concat,
        OpClass::Add,
        OpClass::Softmax,
    ];

    /// Short lowercase name used in kernel registry names.
    pub fn name(self) -> &'static str {
        match self {
            OpClass::Relu => "relu",
            OpClass::MaxPool => "maxpool",
            OpClass::AvgPool => "avgpool",
            OpClass::Lrn => "lrn",
            OpClass::Dropout => "dropout",
            OpClass::FullyConnected => "fc",
            OpClass::Concat => "concat",
            OpClass::Add => "add",
            OpClass::Softmax => "softmax",
        }
    }

    /// Whether the class carries cost-model terms. The activation-memory
    /// ops — ReLU, pooling, concat and add — have candidates in more than
    /// one precision, so their relative costs steer the solver's
    /// f32-vs-int8 choice. The parameterized f32-only layers (LRN, FC,
    /// softmax, dropout) have no alternative to weigh against: every
    /// candidate would carry the same constant, which can never change an
    /// argmin, so both cost sources price them at zero and predicted
    /// times stay comparable with the paper's conv-centric model.
    pub fn is_costed(self) -> bool {
        matches!(
            self,
            OpClass::Relu | OpClass::MaxPool | OpClass::AvgPool | OpClass::Concat | OpClass::Add
        )
    }
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The candidate space of one graph node — what kind of PBQP decision it
/// is (§3.2, generalized beyond the paper's conv-only decision nodes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SelectionClass {
    /// A convolution: candidates are the registry's `ConvAlgorithm`
    /// primitives supporting the scenario.
    Conv(ConvScenario),
    /// A graph source: the decision is the representation the canonical
    /// f32 network input is delivered in.
    Source,
    /// A non-conv operator: candidates are the registry's per-class
    /// `OpKernel`s (f32 at every layout ∪ int8 where kernels exist).
    Op(OpClass),
}

/// The operator a DNN graph node performs.
///
/// Every kind is a first-class PBQP selection node: convolutions select
/// among the primitive library, every other operator selects among its
/// [`OpClass`] kernel candidates over the full `Repr` (layout × dtype)
/// space — see [`LayerKind::selection_class`]. The non-conv kinds carry
/// enough shape information for whole-network shape inference and
/// execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// Network input producing a `c × h × w` tensor.
    Input {
        /// Channels.
        c: usize,
        /// Height.
        h: usize,
        /// Width.
        w: usize,
    },
    /// A convolution layer with its full scenario.
    Conv(ConvScenario),
    /// Spatial pooling. Output dims use Caffe's ceil convention.
    Pool {
        /// Max or average.
        kind: PoolKind,
        /// Window radix.
        k: usize,
        /// Stride.
        stride: usize,
        /// Zero padding.
        pad: usize,
    },
    /// Rectified linear activation (shape-preserving).
    Relu,
    /// Local response normalization (shape-preserving).
    Lrn,
    /// Dropout (identity at inference time).
    Dropout,
    /// Fully-connected layer flattening its input to `out` values.
    FullyConnected {
        /// Output neuron count.
        out: usize,
    },
    /// Channel-wise concatenation of all predecessors.
    Concat,
    /// Elementwise addition of all predecessors (residual merge); all
    /// operand shapes must agree exactly.
    Add,
    /// Softmax over the flattened input (shape-preserving).
    Softmax,
}

impl LayerKind {
    /// The candidate space this node selects over.
    pub fn selection_class(&self) -> SelectionClass {
        match self {
            LayerKind::Input { .. } => SelectionClass::Source,
            LayerKind::Conv(s) => SelectionClass::Conv(*s),
            LayerKind::Pool { kind: PoolKind::Max, .. } => SelectionClass::Op(OpClass::MaxPool),
            LayerKind::Pool { kind: PoolKind::Avg, .. } => SelectionClass::Op(OpClass::AvgPool),
            LayerKind::Relu => SelectionClass::Op(OpClass::Relu),
            LayerKind::Lrn => SelectionClass::Op(OpClass::Lrn),
            LayerKind::Dropout => SelectionClass::Op(OpClass::Dropout),
            LayerKind::FullyConnected { .. } => SelectionClass::Op(OpClass::FullyConnected),
            LayerKind::Concat => SelectionClass::Op(OpClass::Concat),
            LayerKind::Add => SelectionClass::Op(OpClass::Add),
            LayerKind::Softmax => SelectionClass::Op(OpClass::Softmax),
        }
    }

    /// The convolution scenario, if this is a conv node.
    pub fn scenario(&self) -> Option<&ConvScenario> {
        match self {
            LayerKind::Conv(s) => Some(s),
            _ => None,
        }
    }
}

impl fmt::Display for LayerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayerKind::Input { c, h, w } => write!(f, "input {c}x{h}x{w}"),
            LayerKind::Conv(s) => write!(f, "conv {s}"),
            LayerKind::Pool { kind: PoolKind::Max, k, stride, .. } => {
                write!(f, "maxpool {k}x{k}/{stride}")
            }
            LayerKind::Pool { kind: PoolKind::Avg, k, stride, .. } => {
                write!(f, "avgpool {k}x{k}/{stride}")
            }
            LayerKind::Relu => f.write_str("relu"),
            LayerKind::Lrn => f.write_str("lrn"),
            LayerKind::Dropout => f.write_str("dropout"),
            LayerKind::FullyConnected { out } => write!(f, "fc {out}"),
            LayerKind::Concat => f.write_str("concat"),
            LayerKind::Add => f.write_str("add"),
            LayerKind::Softmax => f.write_str("softmax"),
        }
    }
}

/// A named node of a [`crate::DnnGraph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layer {
    /// Human-readable unique name, e.g. `"conv2"` or `"inception_3a/5x5"`.
    pub name: String,
    /// What the layer computes.
    pub kind: LayerKind,
}

impl Layer {
    /// Creates a named layer.
    pub fn new(name: impl Into<String>, kind: LayerKind) -> Layer {
        Layer { name: name.into(), kind }
    }
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.name, self.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selection_classes_cover_every_kind() {
        let conv = LayerKind::Conv(ConvScenario::new(3, 8, 8, 1, 3, 4));
        assert!(matches!(conv.selection_class(), SelectionClass::Conv(_)));
        assert!(conv.scenario().is_some());
        assert_eq!(LayerKind::Input { c: 1, h: 1, w: 1 }.selection_class(), SelectionClass::Source);
        assert_eq!(LayerKind::Relu.selection_class(), SelectionClass::Op(OpClass::Relu));
        assert_eq!(
            LayerKind::Pool { kind: PoolKind::Max, k: 2, stride: 2, pad: 0 }.selection_class(),
            SelectionClass::Op(OpClass::MaxPool)
        );
        assert_eq!(
            LayerKind::Pool { kind: PoolKind::Avg, k: 2, stride: 2, pad: 0 }.selection_class(),
            SelectionClass::Op(OpClass::AvgPool)
        );
        assert_eq!(LayerKind::Add.selection_class(), SelectionClass::Op(OpClass::Add));
        assert!(LayerKind::Relu.scenario().is_none());
    }

    #[test]
    fn costed_classes_are_the_multi_precision_ones() {
        for class in OpClass::ALL {
            let expect = matches!(
                class,
                OpClass::Relu
                    | OpClass::MaxPool
                    | OpClass::AvgPool
                    | OpClass::Concat
                    | OpClass::Add
            );
            assert_eq!(class.is_costed(), expect, "{class}");
        }
    }

    #[test]
    fn display_forms() {
        assert_eq!(
            LayerKind::Pool { kind: PoolKind::Max, k: 3, stride: 2, pad: 0 }.to_string(),
            "maxpool 3x3/2"
        );
        assert_eq!(LayerKind::FullyConnected { out: 1000 }.to_string(), "fc 1000");
        assert_eq!(LayerKind::Add.to_string(), "add");
        let l = Layer::new("relu1", LayerKind::Relu);
        assert_eq!(l.to_string(), "relu1 (relu)");
    }
}
