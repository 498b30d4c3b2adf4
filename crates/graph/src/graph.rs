use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use crate::{pool_out_dim, ConvScenario, Layer, LayerKind};

/// Identifier of a node in a [`DnnGraph`].
///
/// Stable for the life of the graph; also usable as a dense index via
/// [`NodeId::index`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// Dense index of this node (0-based insertion order).
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Errors raised by graph construction and shape inference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge endpoint does not exist.
    UnknownNode(usize),
    /// The graph contains a cycle, so no topological order exists.
    Cyclic,
    /// A node that needs exactly one input has zero or several.
    ArityMismatch {
        /// Offending node name.
        node: String,
        /// Number of predecessors found.
        found: usize,
    },
    /// A conv scenario's `(c, h, w)` disagrees with its producer's shape.
    ShapeMismatch {
        /// Offending node name.
        node: String,
        /// Shape the node expected.
        expected: (usize, usize, usize),
        /// Shape the producer supplies.
        found: (usize, usize, usize),
    },
    /// Concat inputs disagree on spatial dimensions.
    ConcatMismatch {
        /// Offending node name.
        node: String,
    },
    /// Add inputs disagree on their full shape (residual merges require
    /// exact shape agreement).
    AddMismatch {
        /// Offending node name.
        node: String,
    },
    /// A pool layer's window parameters are degenerate: `k == 0`,
    /// `stride == 0`, or `pad >= k` (a window that never covers any
    /// input). Rejected at [`DnnGraph::try_add`] time, the same treatment
    /// [`crate::ConvScenario::new`] gives conv parameters.
    InvalidPool {
        /// Offending node name.
        node: String,
        /// Window radix.
        k: usize,
        /// Stride.
        stride: usize,
        /// Zero padding.
        pad: usize,
    },
    /// A pool layer's window is larger than its padded input
    /// (`k > h + 2·pad` on either axis), so it has no output.
    PoolExceedsInput {
        /// Offending node name.
        node: String,
        /// Window radix.
        k: usize,
        /// Zero padding.
        pad: usize,
        /// Shape the producer supplies.
        found: (usize, usize, usize),
    },
    /// Two layers share a name; names must be unique for reporting.
    DuplicateName(String),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::UnknownNode(ix) => write!(f, "unknown node id {ix}"),
            GraphError::Cyclic => f.write_str("graph is cyclic"),
            GraphError::ArityMismatch { node, found } => {
                write!(f, "layer `{node}` needs exactly one input, found {found}")
            }
            GraphError::ShapeMismatch { node, expected, found } => {
                write!(f, "layer `{node}` expects input {expected:?}, producer supplies {found:?}")
            }
            GraphError::ConcatMismatch { node } => {
                write!(f, "concat `{node}` inputs disagree on spatial dimensions")
            }
            GraphError::AddMismatch { node } => {
                write!(f, "add `{node}` inputs disagree on shape")
            }
            GraphError::InvalidPool { node, k, stride, pad } => {
                write!(
                    f,
                    "pool `{node}` has degenerate window parameters \
                     (k = {k}, stride = {stride}, pad = {pad}): \
                     k and stride must be >= 1 and pad < k"
                )
            }
            GraphError::PoolExceedsInput { node, k, pad, found } => {
                write!(
                    f,
                    "pool `{node}` has a {k}x{k} window (pad {pad}), \
                     larger than its padded input {found:?}"
                )
            }
            GraphError::DuplicateName(name) => write!(f, "duplicate layer name `{name}`"),
        }
    }
}

impl Error for GraphError {}

/// A directed acyclic graph of DNN layers.
///
/// Nodes are added with [`DnnGraph::add`] and wired with
/// [`DnnGraph::connect`]; layer data flows along directed edges in
/// topological order (§2 of the paper).
///
/// # Example
///
/// ```
/// use pbqp_dnn_graph::{ConvScenario, DnnGraph, Layer, LayerKind};
///
/// let mut g = DnnGraph::new();
/// let input = g.add(Layer::new("data", LayerKind::Input { c: 3, h: 32, w: 32 }));
/// let conv = g.add(Layer::new(
///     "conv1",
///     LayerKind::Conv(ConvScenario::new(3, 32, 32, 1, 3, 16)),
/// ));
/// g.connect(input, conv).unwrap();
/// assert_eq!(g.topo_order().unwrap(), vec![input, conv]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct DnnGraph {
    layers: Vec<Layer>,
    succs: Vec<Vec<NodeId>>,
    preds: Vec<Vec<NodeId>>,
}

impl DnnGraph {
    /// Creates an empty graph.
    pub fn new() -> DnnGraph {
        DnnGraph::default()
    }

    /// Adds a layer and returns its id.
    ///
    /// # Panics
    ///
    /// Panics on degenerate pool parameters (see [`DnnGraph::try_add`] for
    /// the fallible form) — the same treatment [`ConvScenario::new`] gives
    /// conv parameters, so malformed windows never survive construction.
    pub fn add(&mut self, layer: Layer) -> NodeId {
        match self.try_add(layer) {
            Ok(id) => id,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible form of [`DnnGraph::add`]: validates the layer's
    /// parameters before admitting it.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidPool`] for a pool layer with `k == 0`,
    /// `stride == 0` or `pad >= k` — parameters the pooling output
    /// formulas would underflow or divide by zero on.
    pub fn try_add(&mut self, layer: Layer) -> Result<NodeId, GraphError> {
        if let LayerKind::Pool { k, stride, pad, .. } = layer.kind {
            if k == 0 || stride == 0 || pad >= k {
                return Err(GraphError::InvalidPool { node: layer.name, k, stride, pad });
            }
        }
        let id = NodeId(self.layers.len());
        self.layers.push(layer);
        self.succs.push(Vec::new());
        self.preds.push(Vec::new());
        Ok(id)
    }

    /// Adds a directed edge `from → to`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownNode`] if either endpoint is not in the
    /// graph.
    pub fn connect(&mut self, from: NodeId, to: NodeId) -> Result<(), GraphError> {
        for id in [from, to] {
            if id.0 >= self.layers.len() {
                return Err(GraphError::UnknownNode(id.0));
            }
        }
        self.succs[from.0].push(to);
        self.preds[to.0].push(from);
        Ok(())
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the graph has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// The layer stored at `id`.
    pub fn layer(&self, id: NodeId) -> &Layer {
        &self.layers[id.0]
    }

    /// All node ids in insertion order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.layers.len()).map(NodeId)
    }

    /// Direct successors of `id`.
    pub fn successors(&self, id: NodeId) -> &[NodeId] {
        &self.succs[id.0]
    }

    /// Direct predecessors of `id`.
    pub fn predecessors(&self, id: NodeId) -> &[NodeId] {
        &self.preds[id.0]
    }

    /// All edges as `(from, to)` pairs.
    pub fn edges(&self) -> Vec<(NodeId, NodeId)> {
        let mut out = Vec::new();
        for (ix, succs) in self.succs.iter().enumerate() {
            for &to in succs {
                out.push((NodeId(ix), to));
            }
        }
        out
    }

    /// Ids of all convolution nodes, in insertion order.
    pub fn conv_nodes(&self) -> Vec<NodeId> {
        self.node_ids().filter(|&id| matches!(self.layer(id).kind, LayerKind::Conv(_))).collect()
    }

    /// Convolution scenarios keyed by node, in insertion order.
    pub fn conv_scenarios(&self) -> Vec<(NodeId, ConvScenario)> {
        self.conv_nodes()
            .into_iter()
            .map(|id| (id, *self.layer(id).kind.scenario().expect("conv node")))
            .collect()
    }

    /// Kahn topological order.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Cyclic`] if the graph has a cycle.
    pub fn topo_order(&self) -> Result<Vec<NodeId>, GraphError> {
        let mut indeg: Vec<usize> = self.preds.iter().map(Vec::len).collect();
        let mut queue: Vec<NodeId> = self.node_ids().filter(|id| indeg[id.0] == 0).collect();
        let mut order = Vec::with_capacity(self.len());
        let mut head = 0;
        while head < queue.len() {
            let id = queue[head];
            head += 1;
            order.push(id);
            for &s in &self.succs[id.0] {
                indeg[s.0] -= 1;
                if indeg[s.0] == 0 {
                    queue.push(s);
                }
            }
        }
        if order.len() == self.len() {
            Ok(order)
        } else {
            Err(GraphError::Cyclic)
        }
    }

    /// Infers the output shape `(c, h, w)` of every node and validates the
    /// wiring (arity, conv scenario consistency, concat compatibility).
    ///
    /// # Errors
    ///
    /// Returns the first structural or shape error found.
    pub fn infer_shapes(&self) -> Result<Vec<(usize, usize, usize)>, GraphError> {
        let mut names = HashMap::new();
        for layer in &self.layers {
            if names.insert(layer.name.as_str(), ()).is_some() {
                return Err(GraphError::DuplicateName(layer.name.clone()));
            }
        }

        let order = self.topo_order()?;
        let mut shapes = vec![(0usize, 0usize, 0usize); self.len()];
        for id in order {
            let layer = &self.layers[id.0];
            let preds = &self.preds[id.0];
            let single =
                |found: usize| GraphError::ArityMismatch { node: layer.name.clone(), found };
            shapes[id.0] = match &layer.kind {
                LayerKind::Input { c, h, w } => {
                    if !preds.is_empty() {
                        return Err(single(preds.len()));
                    }
                    (*c, *h, *w)
                }
                LayerKind::Conv(s) => {
                    if preds.len() != 1 {
                        return Err(single(preds.len()));
                    }
                    let got = shapes[preds[0].0];
                    if got != (s.c, s.h, s.w) {
                        return Err(GraphError::ShapeMismatch {
                            node: layer.name.clone(),
                            expected: (s.c, s.h, s.w),
                            found: got,
                        });
                    }
                    (s.m, s.out_h(), s.out_w())
                }
                LayerKind::Pool { k, stride, pad, .. } => {
                    if preds.len() != 1 {
                        return Err(single(preds.len()));
                    }
                    let (c, h, w) = shapes[preds[0].0];
                    let out = |extent| pool_out_dim(extent, *k, *stride, *pad);
                    let (Some(oh), Some(ow)) = (out(h), out(w)) else {
                        return Err(GraphError::PoolExceedsInput {
                            node: layer.name.clone(),
                            k: *k,
                            pad: *pad,
                            found: (c, h, w),
                        });
                    };
                    (c, oh, ow)
                }
                LayerKind::Relu | LayerKind::Lrn | LayerKind::Dropout | LayerKind::Softmax => {
                    if preds.len() != 1 {
                        return Err(single(preds.len()));
                    }
                    shapes[preds[0].0]
                }
                LayerKind::FullyConnected { out } => {
                    if preds.len() != 1 {
                        return Err(single(preds.len()));
                    }
                    (*out, 1, 1)
                }
                LayerKind::Concat => {
                    if preds.is_empty() {
                        return Err(single(0));
                    }
                    let (_, h0, w0) = shapes[preds[0].0];
                    let mut c_sum = 0;
                    for p in preds {
                        let (c, h, w) = shapes[p.0];
                        if (h, w) != (h0, w0) {
                            return Err(GraphError::ConcatMismatch { node: layer.name.clone() });
                        }
                        c_sum += c;
                    }
                    (c_sum, h0, w0)
                }
                LayerKind::Add => {
                    // A residual merge needs at least two operands, and
                    // elementwise addition requires exact shape agreement.
                    if preds.len() < 2 {
                        return Err(single(preds.len()));
                    }
                    let first = shapes[preds[0].0];
                    for p in &preds[1..] {
                        if shapes[p.0] != first {
                            return Err(GraphError::AddMismatch { node: layer.name.clone() });
                        }
                    }
                    first
                }
            };
        }
        Ok(shapes)
    }

    /// Total convolution FLOPs of the network (the dominant cost, §2.1).
    pub fn conv_flops(&self) -> usize {
        self.conv_scenarios().iter().map(|(_, s)| s.flops()).sum()
    }

    /// Looks up a node by layer name.
    pub fn find(&self, name: &str) -> Option<NodeId> {
        self.node_ids().find(|&id| self.layer(id).name == name)
    }

    /// The [`NodeId`] at dense index `index`, if the graph has one —
    /// the safe inverse of [`NodeId::index`] used when rehydrating
    /// serialized plans against their graph.
    pub fn node_id(&self, index: usize) -> Option<NodeId> {
        (index < self.layers.len()).then_some(NodeId(index))
    }

    /// A structural fingerprint of the graph: a 64-bit FNV-1a hash over
    /// every layer (name and kind, including full conv scenarios) and every
    /// edge, in insertion order.
    ///
    /// Two graphs with the same fingerprint describe the same network, so
    /// the fingerprint keys plan caches: repeated requests for a known
    /// (graph, strategy, cost source) triple can skip the PBQP solve.
    ///
    /// # Example
    ///
    /// ```
    /// use pbqp_dnn_graph::{DnnGraph, Layer, LayerKind};
    ///
    /// let mut a = DnnGraph::new();
    /// a.add(Layer::new("data", LayerKind::Input { c: 3, h: 8, w: 8 }));
    /// let mut b = a.clone();
    /// assert_eq!(a.fingerprint(), b.fingerprint());
    /// b.add(Layer::new("relu", LayerKind::Relu));
    /// assert_ne!(a.fingerprint(), b.fingerprint());
    /// ```
    pub fn fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = Fnv1a::default();
        self.layers.len().hash(&mut h);
        for layer in &self.layers {
            layer.name.hash(&mut h);
            layer.kind.hash(&mut h);
        }
        for (from, to) in self.edges() {
            from.index().hash(&mut h);
            to.index().hash(&mut h);
        }
        h.finish()
    }
}

/// 64-bit FNV-1a: a tiny, stable, dependency-free hasher behind the
/// workspace's structural fingerprints (the std `DefaultHasher` is
/// explicitly not stable across releases, so it cannot key anything that
/// should be reproducible).
///
/// # Example
///
/// ```
/// use std::hash::Hasher;
///
/// let mut h = pbqp_dnn_graph::Fnv1a::default();
/// h.write(b"conv1");
/// let fp = h.finish();
/// let mut h2 = pbqp_dnn_graph::Fnv1a::default();
/// h2.write(b"conv1");
/// assert_eq!(fp, h2.finish());
/// ```
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf29ce484222325)
    }
}

impl std::hash::Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PoolKind;

    fn linear_graph() -> (DnnGraph, NodeId, NodeId, NodeId) {
        let mut g = DnnGraph::new();
        let input = g.add(Layer::new("data", LayerKind::Input { c: 3, h: 8, w: 8 }));
        let conv = g.add(Layer::new("conv1", LayerKind::Conv(ConvScenario::new(3, 8, 8, 1, 3, 4))));
        let relu = g.add(Layer::new("relu1", LayerKind::Relu));
        g.connect(input, conv).unwrap();
        g.connect(conv, relu).unwrap();
        (g, input, conv, relu)
    }

    #[test]
    fn topo_order_respects_edges() {
        let (g, input, conv, relu) = linear_graph();
        assert_eq!(g.topo_order().unwrap(), vec![input, conv, relu]);
        assert_eq!(g.predecessors(conv), &[input]);
        assert_eq!(g.successors(conv), &[relu]);
        assert_eq!(g.edges().len(), 2);
    }

    #[test]
    fn cycles_are_detected() {
        let (mut g, input, _, relu) = linear_graph();
        g.connect(relu, input).unwrap();
        assert_eq!(g.topo_order(), Err(GraphError::Cyclic));
    }

    #[test]
    fn shapes_flow_through_pool_and_fc() {
        let mut g = DnnGraph::new();
        let input = g.add(Layer::new("data", LayerKind::Input { c: 4, h: 9, w: 9 }));
        let pool = g.add(Layer::new(
            "pool",
            LayerKind::Pool { kind: PoolKind::Max, k: 3, stride: 2, pad: 0 },
        ));
        let fc = g.add(Layer::new("fc", LayerKind::FullyConnected { out: 10 }));
        g.connect(input, pool).unwrap();
        g.connect(pool, fc).unwrap();
        let shapes = g.infer_shapes().unwrap();
        assert_eq!(shapes[pool.index()], (4, 4, 4));
        assert_eq!(shapes[fc.index()], (10, 1, 1));
    }

    #[test]
    fn pool_uses_ceil_convention() {
        // AlexNet pool1: 55 -> ceil((55-3)/2)+1 = 27.
        let mut g = DnnGraph::new();
        let input = g.add(Layer::new("data", LayerKind::Input { c: 96, h: 55, w: 55 }));
        let pool = g.add(Layer::new(
            "pool1",
            LayerKind::Pool { kind: PoolKind::Max, k: 3, stride: 2, pad: 0 },
        ));
        g.connect(input, pool).unwrap();
        assert_eq!(g.infer_shapes().unwrap()[pool.index()], (96, 27, 27));
    }

    #[test]
    fn pool_window_larger_than_its_input_is_a_typed_error() {
        let mut g = DnnGraph::new();
        let input = g.add(Layer::new("data", LayerKind::Input { c: 2, h: 5, w: 5 }));
        let pool = g.add(Layer::new(
            "big",
            LayerKind::Pool { kind: PoolKind::Avg, k: 7, stride: 1, pad: 0 },
        ));
        g.connect(input, pool).unwrap();
        assert_eq!(
            g.infer_shapes().unwrap_err(),
            GraphError::PoolExceedsInput { node: "big".into(), k: 7, pad: 0, found: (2, 5, 5) }
        );
        // Padding that makes the window fit is fine: 5 + 2·1 = 7.
        let mut g = DnnGraph::new();
        let input = g.add(Layer::new("data", LayerKind::Input { c: 2, h: 5, w: 5 }));
        let pool = g.add(Layer::new(
            "fits",
            LayerKind::Pool { kind: PoolKind::Avg, k: 7, stride: 1, pad: 1 },
        ));
        g.connect(input, pool).unwrap();
        assert_eq!(g.infer_shapes().unwrap()[pool.index()], (2, 1, 1));
    }

    #[test]
    fn conv_shape_mismatch_is_reported() {
        let mut g = DnnGraph::new();
        let input = g.add(Layer::new("data", LayerKind::Input { c: 3, h: 8, w: 8 }));
        let conv = g.add(Layer::new("bad", LayerKind::Conv(ConvScenario::new(5, 8, 8, 1, 3, 4))));
        g.connect(input, conv).unwrap();
        assert!(matches!(g.infer_shapes(), Err(GraphError::ShapeMismatch { .. })));
    }

    #[test]
    fn concat_sums_channels_and_checks_spatial_dims() {
        let mut g = DnnGraph::new();
        let a = g.add(Layer::new("a", LayerKind::Input { c: 2, h: 4, w: 4 }));
        let b = g.add(Layer::new("b", LayerKind::Input { c: 3, h: 4, w: 4 }));
        let cat = g.add(Layer::new("cat", LayerKind::Concat));
        g.connect(a, cat).unwrap();
        g.connect(b, cat).unwrap();
        assert_eq!(g.infer_shapes().unwrap()[cat.index()], (5, 4, 4));
    }

    #[test]
    fn add_requires_exact_shape_agreement() {
        let mut g = DnnGraph::new();
        let a = g.add(Layer::new("a", LayerKind::Input { c: 2, h: 4, w: 4 }));
        let b = g.add(Layer::new("b", LayerKind::Input { c: 2, h: 4, w: 4 }));
        let add = g.add(Layer::new("sum", LayerKind::Add));
        g.connect(a, add).unwrap();
        g.connect(b, add).unwrap();
        assert_eq!(g.infer_shapes().unwrap()[add.index()], (2, 4, 4));

        // A channel mismatch is rejected with the typed error.
        let mut bad = DnnGraph::new();
        let a = bad.add(Layer::new("a", LayerKind::Input { c: 2, h: 4, w: 4 }));
        let b = bad.add(Layer::new("b", LayerKind::Input { c: 3, h: 4, w: 4 }));
        let add = bad.add(Layer::new("sum", LayerKind::Add));
        bad.connect(a, add).unwrap();
        bad.connect(b, add).unwrap();
        assert_eq!(bad.infer_shapes(), Err(GraphError::AddMismatch { node: "sum".into() }));

        // A single-operand add is an arity error, not a silent identity.
        let mut unary = DnnGraph::new();
        let a = unary.add(Layer::new("a", LayerKind::Input { c: 2, h: 4, w: 4 }));
        let add = unary.add(Layer::new("sum", LayerKind::Add));
        unary.connect(a, add).unwrap();
        assert!(matches!(unary.infer_shapes(), Err(GraphError::ArityMismatch { .. })));
    }

    #[test]
    fn degenerate_pool_windows_are_rejected_at_add_time() {
        let pool = |k, stride, pad| {
            Layer::new("p", LayerKind::Pool { kind: PoolKind::Max, k, stride, pad })
        };
        for (k, stride, pad) in [(0usize, 2usize, 0usize), (3, 0, 0), (3, 2, 3), (2, 1, 5)] {
            let mut g = DnnGraph::new();
            let err = g.try_add(pool(k, stride, pad)).unwrap_err();
            assert_eq!(
                err,
                GraphError::InvalidPool { node: "p".into(), k, stride, pad },
                "k={k} stride={stride} pad={pad}"
            );
            assert!(g.is_empty(), "rejected layers must not be admitted");
        }
        // Valid windows (including pad = k - 1) are accepted.
        let mut g = DnnGraph::new();
        assert!(g.try_add(pool(3, 2, 2)).is_ok());
        assert!(g.try_add(Layer::new("q", LayerKind::Relu)).is_ok());
    }

    #[test]
    #[should_panic(expected = "degenerate window parameters")]
    fn infallible_add_panics_on_degenerate_pool() {
        let mut g = DnnGraph::new();
        g.add(Layer::new("p", LayerKind::Pool { kind: PoolKind::Avg, k: 0, stride: 1, pad: 0 }));
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut g = DnnGraph::new();
        g.add(Layer::new("x", LayerKind::Input { c: 1, h: 1, w: 1 }));
        g.add(Layer::new("x", LayerKind::Input { c: 1, h: 1, w: 1 }));
        assert_eq!(g.infer_shapes(), Err(GraphError::DuplicateName("x".into())));
    }

    #[test]
    fn find_by_name() {
        let (g, _, conv, _) = linear_graph();
        assert_eq!(g.find("conv1"), Some(conv));
        assert_eq!(g.find("nope"), None);
    }

    #[test]
    fn fingerprint_is_stable_and_distinguishes_structure() {
        let (g, _, _, _) = linear_graph();
        let (h, _, _, _) = linear_graph();
        assert_eq!(g.fingerprint(), h.fingerprint());

        // Same layers, different wiring.
        let mut rewired = DnnGraph::new();
        let input = rewired.add(Layer::new("data", LayerKind::Input { c: 3, h: 8, w: 8 }));
        let conv =
            rewired.add(Layer::new("conv1", LayerKind::Conv(ConvScenario::new(3, 8, 8, 1, 3, 4))));
        let relu = rewired.add(Layer::new("relu1", LayerKind::Relu));
        rewired.connect(input, relu).unwrap();
        rewired.connect(relu, conv).unwrap();
        assert_ne!(g.fingerprint(), rewired.fingerprint());

        // A changed scenario parameter changes the fingerprint.
        let mut scaled = DnnGraph::new();
        let input = scaled.add(Layer::new("data", LayerKind::Input { c: 3, h: 8, w: 8 }));
        let conv =
            scaled.add(Layer::new("conv1", LayerKind::Conv(ConvScenario::new(3, 8, 8, 1, 3, 5))));
        let relu = scaled.add(Layer::new("relu1", LayerKind::Relu));
        scaled.connect(input, conv).unwrap();
        scaled.connect(conv, relu).unwrap();
        assert_ne!(g.fingerprint(), scaled.fingerprint());
    }
}
