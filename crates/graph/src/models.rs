//! Reconstruction of the evaluation networks from their publications:
//! AlexNet (Krizhevsky et al.), the VGG family (Simonyan & Zisserman,
//! configurations A–E) and GoogleNet (Szegedy et al.).
//!
//! These follow the public BVLC Caffe deploy definitions (the ones the
//! paper benchmarks): AlexNet takes 3×227×227 input; VGG and GoogleNet
//! take 3×224×224.

use crate::{pool_out_dim, ConvScenario, DnnGraph, Layer, LayerKind, NodeId, PoolKind};

/// VGG configuration letter (Simonyan & Zisserman, Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VggVariant {
    /// 11 weight layers (8 conv).
    A,
    /// 13 weight layers (10 conv).
    B,
    /// 16 weight layers with 1×1 convolutions (13 conv).
    C,
    /// 16 weight layers, all 3×3 (13 conv).
    D,
    /// 19 weight layers (16 conv).
    E,
}

impl VggVariant {
    /// All variants in publication order.
    pub const ALL: [VggVariant; 5] =
        [VggVariant::A, VggVariant::B, VggVariant::C, VggVariant::D, VggVariant::E];

    /// Configuration name, e.g. `"VGG-E"`.
    pub fn name(self) -> &'static str {
        match self {
            VggVariant::A => "VGG-A",
            VggVariant::B => "VGG-B",
            VggVariant::C => "VGG-C",
            VggVariant::D => "VGG-D",
            VggVariant::E => "VGG-E",
        }
    }

    /// Per-block conv specs: `(out_channels, kernel_radix)` per conv.
    fn blocks(self) -> Vec<Vec<(usize, usize)>> {
        let c = |m: usize| (m, 3);
        match self {
            VggVariant::A => vec![
                vec![c(64)],
                vec![c(128)],
                vec![c(256), c(256)],
                vec![c(512), c(512)],
                vec![c(512), c(512)],
            ],
            VggVariant::B => vec![
                vec![c(64), c(64)],
                vec![c(128), c(128)],
                vec![c(256), c(256)],
                vec![c(512), c(512)],
                vec![c(512), c(512)],
            ],
            VggVariant::C => vec![
                vec![c(64), c(64)],
                vec![c(128), c(128)],
                vec![c(256), c(256), (256, 1)],
                vec![c(512), c(512), (512, 1)],
                vec![c(512), c(512), (512, 1)],
            ],
            VggVariant::D => vec![
                vec![c(64), c(64)],
                vec![c(128), c(128)],
                vec![c(256), c(256), c(256)],
                vec![c(512), c(512), c(512)],
                vec![c(512), c(512), c(512)],
            ],
            VggVariant::E => vec![
                vec![c(64), c(64)],
                vec![c(128), c(128)],
                vec![c(256), c(256), c(256), c(256)],
                vec![c(512), c(512), c(512), c(512)],
                vec![c(512), c(512), c(512), c(512)],
            ],
        }
    }
}

/// Builder state threading the "current" node and shape through a chain.
struct Chain<'g> {
    g: &'g mut DnnGraph,
    tip: NodeId,
    shape: (usize, usize, usize),
}

impl<'g> Chain<'g> {
    fn conv(&mut self, name: &str, m: usize, k: usize, stride: usize, pad: usize) -> NodeId {
        let (c, h, w) = self.shape;
        let s = ConvScenario { c, h, w, stride, k, m, pad, sparsity_pm: 0, batch: 1 };
        let id = self.g.add(Layer::new(name, LayerKind::Conv(s)));
        self.g.connect(self.tip, id).expect("valid ids");
        self.tip = id;
        self.shape = (m, s.out_h(), s.out_w());
        id
    }

    fn relu(&mut self, name: &str) {
        self.unary(name, LayerKind::Relu);
    }

    fn lrn(&mut self, name: &str) {
        self.unary(name, LayerKind::Lrn);
    }

    fn dropout(&mut self, name: &str) {
        self.unary(name, LayerKind::Dropout);
    }

    fn unary(&mut self, name: &str, kind: LayerKind) {
        let id = self.g.add(Layer::new(name, kind));
        self.g.connect(self.tip, id).expect("valid ids");
        self.tip = id;
    }

    fn pool(&mut self, name: &str, kind: PoolKind, k: usize, stride: usize, pad: usize) {
        let id = self.g.add(Layer::new(name, LayerKind::Pool { kind, k, stride, pad }));
        self.g.connect(self.tip, id).expect("valid ids");
        self.tip = id;
        let (c, h, w) = self.shape;
        let out =
            |extent| pool_out_dim(extent, k, stride, pad).expect("zoo pools fit their inputs");
        self.shape = (c, out(h), out(w));
    }

    fn fc(&mut self, name: &str, out: usize) {
        let id = self.g.add(Layer::new(name, LayerKind::FullyConnected { out }));
        self.g.connect(self.tip, id).expect("valid ids");
        self.tip = id;
        self.shape = (out, 1, 1);
    }
}

/// AlexNet as published via the BVLC Caffe model zoo (5 conv layers,
/// 3×227×227 input).
pub fn alexnet() -> DnnGraph {
    let mut g = DnnGraph::new();
    let input = g.add(Layer::new("data", LayerKind::Input { c: 3, h: 227, w: 227 }));
    let mut ch = Chain { g: &mut g, tip: input, shape: (3, 227, 227) };
    ch.conv("conv1", 96, 11, 4, 0);
    ch.relu("relu1");
    ch.lrn("norm1");
    ch.pool("pool1", PoolKind::Max, 3, 2, 0);
    ch.conv("conv2", 256, 5, 1, 2);
    ch.relu("relu2");
    ch.lrn("norm2");
    ch.pool("pool2", PoolKind::Max, 3, 2, 0);
    ch.conv("conv3", 384, 3, 1, 1);
    ch.relu("relu3");
    ch.conv("conv4", 384, 3, 1, 1);
    ch.relu("relu4");
    ch.conv("conv5", 256, 3, 1, 1);
    ch.relu("relu5");
    ch.pool("pool5", PoolKind::Max, 3, 2, 0);
    ch.fc("fc6", 4096);
    ch.relu("relu6");
    ch.dropout("drop6");
    ch.fc("fc7", 4096);
    ch.relu("relu7");
    ch.dropout("drop7");
    ch.fc("fc8", 1000);
    ch.unary("prob", LayerKind::Softmax);
    g
}

/// One VGG configuration (3×224×224 input, 2×2/2 max pools after each
/// block, three fully-connected layers).
pub fn vgg(variant: VggVariant) -> DnnGraph {
    let mut g = DnnGraph::new();
    let input = g.add(Layer::new("data", LayerKind::Input { c: 3, h: 224, w: 224 }));
    let mut ch = Chain { g: &mut g, tip: input, shape: (3, 224, 224) };
    for (bi, block) in variant.blocks().into_iter().enumerate() {
        for (ci, (m, k)) in block.into_iter().enumerate() {
            let name = format!("conv{}_{}", bi + 1, ci + 1);
            // 3×3 convs pad 1; 1×1 convs pad 0. Both preserve H×W.
            ch.conv(&name, m, k, 1, (k - 1) / 2);
            ch.relu(&format!("relu{}_{}", bi + 1, ci + 1));
        }
        ch.pool(&format!("pool{}", bi + 1), PoolKind::Max, 2, 2, 0);
    }
    ch.fc("fc6", 4096);
    ch.relu("relu6");
    ch.dropout("drop6");
    ch.fc("fc7", 4096);
    ch.relu("relu7");
    ch.dropout("drop7");
    ch.fc("fc8", 1000);
    ch.unary("prob", LayerKind::Softmax);
    g
}

/// Parameters of one inception module: `(#1×1, #3×3 reduce, #3×3,
/// #5×5 reduce, #5×5, pool proj)`.
type InceptionSpec = (usize, usize, usize, usize, usize, usize);

/// Appends an inception module (Figure 3 of the paper) and returns the
/// concat node.
fn inception(
    g: &mut DnnGraph,
    from: NodeId,
    shape: (usize, usize, usize),
    prefix: &str,
    spec: InceptionSpec,
) -> (NodeId, (usize, usize, usize)) {
    let (c, h, w) = shape;
    let (n1, r3, n3, r5, n5, pp) = spec;
    let conv = |g: &mut DnnGraph, from: NodeId, name: String, cin: usize, m: usize, k: usize| {
        let s = ConvScenario {
            c: cin,
            h,
            w,
            stride: 1,
            k,
            m,
            pad: (k - 1) / 2,
            sparsity_pm: 0,
            batch: 1,
        };
        let conv_id = g.add(Layer::new(name.clone(), LayerKind::Conv(s)));
        g.connect(from, conv_id).expect("valid ids");
        let relu_id = g.add(Layer::new(format!("{name}_relu"), LayerKind::Relu));
        g.connect(conv_id, relu_id).expect("valid ids");
        relu_id
    };

    // Branch 1: 1×1.
    let b1 = conv(g, from, format!("{prefix}/1x1"), c, n1, 1);
    // Branch 2: 1×1 reduce then 3×3.
    let b2r = conv(g, from, format!("{prefix}/3x3_reduce"), c, r3, 1);
    let b2 = conv(g, b2r, format!("{prefix}/3x3"), r3, n3, 3);
    // Branch 3: 1×1 reduce then 5×5.
    let b3r = conv(g, from, format!("{prefix}/5x5_reduce"), c, r5, 1);
    let b3 = conv(g, b3r, format!("{prefix}/5x5"), r5, n5, 5);
    // Branch 4: 3×3/1 max pool then 1×1 projection.
    let pool = g.add(Layer::new(
        format!("{prefix}/pool"),
        LayerKind::Pool { kind: PoolKind::Max, k: 3, stride: 1, pad: 1 },
    ));
    g.connect(from, pool).expect("valid ids");
    let b4 = conv(g, pool, format!("{prefix}/pool_proj"), c, pp, 1);

    let cat = g.add(Layer::new(format!("{prefix}/output"), LayerKind::Concat));
    for b in [b1, b2, b3, b4] {
        g.connect(b, cat).expect("valid ids");
    }
    (cat, (n1 + n3 + n5 + pp, h, w))
}

/// GoogleNet (inception v1) as published: 57 convolution layers across a
/// stem and nine inception modules.
pub fn googlenet() -> DnnGraph {
    let mut g = DnnGraph::new();
    let input = g.add(Layer::new("data", LayerKind::Input { c: 3, h: 224, w: 224 }));
    let mut ch = Chain { g: &mut g, tip: input, shape: (3, 224, 224) };
    ch.conv("conv1/7x7_s2", 64, 7, 2, 3);
    ch.relu("conv1/relu");
    ch.pool("pool1/3x3_s2", PoolKind::Max, 3, 2, 0);
    ch.lrn("pool1/norm1");
    ch.conv("conv2/3x3_reduce", 64, 1, 1, 0);
    ch.relu("conv2/relu_reduce");
    ch.conv("conv2/3x3", 192, 3, 1, 1);
    ch.relu("conv2/relu");
    ch.lrn("conv2/norm2");
    ch.pool("pool2/3x3_s2", PoolKind::Max, 3, 2, 0);
    let (mut tip, mut shape) = (ch.tip, ch.shape);

    let specs: [(&str, InceptionSpec); 9] = [
        ("inception_3a", (64, 96, 128, 16, 32, 32)),
        ("inception_3b", (128, 128, 192, 32, 96, 64)),
        ("inception_4a", (192, 96, 208, 16, 48, 64)),
        ("inception_4b", (160, 112, 224, 24, 64, 64)),
        ("inception_4c", (128, 128, 256, 24, 64, 64)),
        ("inception_4d", (112, 144, 288, 32, 64, 64)),
        ("inception_4e", (256, 160, 320, 32, 128, 128)),
        ("inception_5a", (256, 160, 320, 32, 128, 128)),
        ("inception_5b", (384, 192, 384, 48, 128, 128)),
    ];
    for (i, (prefix, spec)) in specs.iter().enumerate() {
        (tip, shape) = inception(&mut g, tip, shape, prefix, *spec);
        // Grid-reduction pools after 3b and 4e.
        if i == 1 || i == 6 {
            let mut ch = Chain { g: &mut g, tip, shape };
            ch.pool(&format!("pool{}/3x3_s2", i + 2), PoolKind::Max, 3, 2, 0);
            (tip, shape) = (ch.tip, ch.shape);
        }
    }

    let mut ch = Chain { g: &mut g, tip, shape };
    ch.pool("pool5/7x7_s1", PoolKind::Avg, 7, 1, 0);
    ch.dropout("pool5/drop");
    ch.fc("loss3/classifier", 1000);
    ch.unary("prob", LayerKind::Softmax);
    g
}

/// Every model evaluated in the paper's §5, with its display name.
pub fn evaluation_models() -> Vec<(&'static str, DnnGraph)> {
    vec![
        ("AlexNet", alexnet()),
        ("VGG-B", vgg(VggVariant::B)),
        ("VGG-C", vgg(VggVariant::C)),
        ("VGG-E", vgg(VggVariant::E)),
        ("GoogleNet", googlenet()),
    ]
}

/// AlexNet's structure at roughly 1/4 scale: strided K11 head, K5 middle,
/// K3 tail, LRN and pooling in between. Small enough for tests and
/// benchmarks that execute on real tensors, while still exercising every
/// layer kind of the full network.
pub fn micro_alexnet() -> DnnGraph {
    let mut g = DnnGraph::new();
    let mut prev = g.add(Layer::new("data", LayerKind::Input { c: 3, h: 57, w: 57 }));
    let tack = |g: &mut DnnGraph, layer: Layer, prev: &mut NodeId| {
        let id = g.add(layer);
        g.connect(*prev, id).unwrap();
        *prev = id;
    };
    tack(
        &mut g,
        Layer::new("conv1", LayerKind::Conv(ConvScenario::new(3, 57, 57, 4, 11, 12).with_pad(0))),
        &mut prev,
    );
    tack(&mut g, Layer::new("relu1", LayerKind::Relu), &mut prev);
    tack(&mut g, Layer::new("norm1", LayerKind::Lrn), &mut prev);
    tack(
        &mut g,
        Layer::new("pool1", LayerKind::Pool { kind: PoolKind::Max, k: 3, stride: 2, pad: 0 }),
        &mut prev,
    );
    tack(
        &mut g,
        Layer::new("conv2", LayerKind::Conv(ConvScenario::new(12, 6, 6, 1, 5, 24))),
        &mut prev,
    );
    tack(&mut g, Layer::new("relu2", LayerKind::Relu), &mut prev);
    tack(
        &mut g,
        Layer::new("conv3", LayerKind::Conv(ConvScenario::new(24, 6, 6, 1, 3, 16))),
        &mut prev,
    );
    tack(&mut g, Layer::new("fc", LayerKind::FullyConnected { out: 10 }), &mut prev);
    tack(&mut g, Layer::new("prob", LayerKind::Softmax), &mut prev);
    g
}

/// A miniature mixed-precision serving chain: one big strided 5×5
/// convolution (GEMM-bound, no Winograd/FFT candidates because of the
/// stride — the layer shape that tips to int8 under a mixed-precision
/// registry) feeding a heavily pruned 3×3 tail whose sparse f32 CSR
/// routines (§8) have no quantized counterpart and win outright. One
/// solve splits the network: the dense strided head stays quantized —
/// with the ReLU joining the island via its int8 kernel, so the interior
/// of the island has no quantize/dequantize edges — while the sparse
/// tail stays f32. The canonical fixture shared by the mixed-precision
/// tests, example and benchmark.
pub fn micro_mixed() -> DnnGraph {
    let mut g = DnnGraph::new();
    let data = g.add(Layer::new("data", LayerKind::Input { c: 16, h: 20, w: 20 }));
    let big = g.add(Layer::new(
        "conv_big",
        LayerKind::Conv(ConvScenario::new(16, 20, 20, 2, 5, 32).with_pad(0)),
    ));
    let relu = g.add(Layer::new("relu", LayerKind::Relu));
    let small = g.add(Layer::new(
        "conv_small",
        LayerKind::Conv(ConvScenario::new(32, 8, 8, 1, 3, 32).with_sparsity_pm(950)),
    ));
    g.connect(data, big).unwrap();
    g.connect(big, relu).unwrap();
    g.connect(relu, small).unwrap();
    g
}

/// A miniature residual network: a strided int8-friendly stem
/// (conv → relu → pool → conv, no LRN in between — the chain an int8
/// island can span end to end once non-conv operators are first-class
/// selection nodes), followed by a residual block whose skip edge meets
/// the body in an elementwise [`LayerKind::Add`] merge, and a small
/// classifier head.
///
/// Both stem convolutions are strided 5×5 layers (no Winograd/FFT/kn2
/// candidates), the shape that tips to int8 under a mixed-precision
/// registry — so on the ARM machine model the optimal plan keeps the
/// whole stem quantized with **zero** interior quantize/dequantize edges.
pub fn micro_resnet() -> DnnGraph {
    let mut g = DnnGraph::new();
    let data = g.add(Layer::new("data", LayerKind::Input { c: 16, h: 48, w: 48 }));
    let conv1 = g.add(Layer::new(
        "conv1",
        LayerKind::Conv(ConvScenario::new(16, 48, 48, 2, 5, 32).with_pad(0)),
    ));
    let relu1 = g.add(Layer::new("relu1", LayerKind::Relu));
    let pool1 = g
        .add(Layer::new("pool1", LayerKind::Pool { kind: PoolKind::Max, k: 3, stride: 2, pad: 0 }));
    let conv2 = g.add(Layer::new(
        "conv2",
        LayerKind::Conv(ConvScenario::new(32, 11, 11, 2, 5, 48).with_pad(2)),
    ));
    let relu2 = g.add(Layer::new("relu2", LayerKind::Relu));
    // Residual block: body conv vs identity skip, merged elementwise.
    let conv3 = g.add(Layer::new("conv3", LayerKind::Conv(ConvScenario::new(48, 6, 6, 1, 3, 48))));
    let add = g.add(Layer::new("res_add", LayerKind::Add));
    let relu3 = g.add(Layer::new("relu3", LayerKind::Relu));
    let fc = g.add(Layer::new("fc", LayerKind::FullyConnected { out: 10 }));
    let prob = g.add(Layer::new("prob", LayerKind::Softmax));
    for (a, b) in [
        (data, conv1),
        (conv1, relu1),
        (relu1, pool1),
        (pool1, conv2),
        (conv2, relu2),
        (relu2, conv3),
        (conv3, add),
        (relu2, add), // identity skip
        (add, relu3),
        (relu3, fc),
        (fc, prob),
    ] {
        g.connect(a, b).unwrap();
    }
    g
}

/// A GoogleNet-style inception module at miniature scale: fan-out into
/// 1×1 / 3×3 / 5×5 / pool-proj branches joined by concat — the branching
/// shape that gives a wavefront scheduler independent nodes to run
/// concurrently.
pub fn micro_inception() -> DnnGraph {
    let mut g = DnnGraph::new();
    let data = g.add(Layer::new("data", LayerKind::Input { c: 8, h: 14, w: 14 }));
    let conv = |c, k, m| LayerKind::Conv(ConvScenario::new(c, 14, 14, 1, k, m));
    let b1 = g.add(Layer::new("1x1", conv(8, 1, 4)));
    let b2r = g.add(Layer::new("3x3_reduce", conv(8, 1, 4)));
    let b2 = g.add(Layer::new("3x3", conv(4, 3, 6)));
    let b3r = g.add(Layer::new("5x5_reduce", conv(8, 1, 2)));
    let b3 = g.add(Layer::new("5x5", conv(2, 5, 4)));
    let pool =
        g.add(Layer::new("pool", LayerKind::Pool { kind: PoolKind::Max, k: 3, stride: 1, pad: 1 }));
    let b4 = g.add(Layer::new("pool_proj", conv(8, 1, 2)));
    let cat = g.add(Layer::new("concat", LayerKind::Concat));
    let out = g.add(Layer::new("out", conv(16, 3, 8)));
    for (a, b) in [
        (data, b1),
        (data, b2r),
        (b2r, b2),
        (data, b3r),
        (b3r, b3),
        (data, pool),
        (pool, b4),
        (b1, cat),
        (b2, cat),
        (b3, cat),
        (b4, cat),
        (cat, out),
    ] {
        g.connect(a, b).unwrap();
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alexnet_shapes_match_publication() {
        let net = alexnet();
        let shapes = net.infer_shapes().unwrap();
        let at = |name: &str| shapes[net.find(name).unwrap().index()];
        assert_eq!(at("conv1"), (96, 55, 55));
        assert_eq!(at("pool1"), (96, 27, 27));
        assert_eq!(at("conv2"), (256, 27, 27));
        assert_eq!(at("pool2"), (256, 13, 13));
        assert_eq!(at("conv3"), (384, 13, 13));
        assert_eq!(at("conv5"), (256, 13, 13));
        assert_eq!(at("pool5"), (256, 6, 6));
        assert_eq!(at("fc8"), (1000, 1, 1));
        assert_eq!(net.conv_nodes().len(), 5);
    }

    #[test]
    fn vgg_conv_counts_match_publication() {
        let counts = [
            (VggVariant::A, 8),
            (VggVariant::B, 10),
            (VggVariant::C, 13),
            (VggVariant::D, 13),
            (VggVariant::E, 16),
        ];
        for (v, n) in counts {
            let net = vgg(v);
            net.infer_shapes().unwrap_or_else(|e| panic!("{}: {e}", v.name()));
            assert_eq!(net.conv_nodes().len(), n, "{}", v.name());
        }
    }

    #[test]
    fn vgg_c_contains_pointwise_convs() {
        let net = vgg(VggVariant::C);
        let pointwise = net.conv_scenarios().iter().filter(|(_, s)| s.is_pointwise()).count();
        assert_eq!(pointwise, 3);
        // VGG-D is the same depth but all 3×3.
        let d = vgg(VggVariant::D);
        assert_eq!(d.conv_scenarios().iter().filter(|(_, s)| s.is_pointwise()).count(), 0);
    }

    #[test]
    fn vgg_final_feature_map_is_7x7() {
        let net = vgg(VggVariant::E);
        let shapes = net.infer_shapes().unwrap();
        assert_eq!(shapes[net.find("pool5").unwrap().index()], (512, 7, 7));
    }

    #[test]
    fn googlenet_structure_matches_publication() {
        let net = googlenet();
        let shapes = net.infer_shapes().unwrap();
        let at = |name: &str| shapes[net.find(name).unwrap().index()];
        assert_eq!(net.conv_nodes().len(), 57);
        assert_eq!(at("conv1/7x7_s2"), (64, 112, 112));
        assert_eq!(at("conv2/3x3"), (192, 56, 56));
        assert_eq!(at("inception_3a/output"), (256, 28, 28));
        assert_eq!(at("inception_3b/output"), (480, 28, 28));
        assert_eq!(at("inception_4a/output"), (512, 14, 14));
        assert_eq!(at("inception_4e/output"), (832, 14, 14));
        assert_eq!(at("inception_5b/output"), (1024, 7, 7));
        assert_eq!(at("pool5/7x7_s1"), (1024, 1, 1));
        assert_eq!(at("loss3/classifier"), (1000, 1, 1));
    }

    #[test]
    fn googlenet_has_dag_fanout() {
        let net = googlenet();
        // The inception input fans out to 4 branches (1x1, two reduces, pool).
        let pool2 = net.find("pool2/3x3_s2").unwrap();
        assert_eq!(net.successors(pool2).len(), 4);
        let cat = net.find("inception_3a/output").unwrap();
        assert_eq!(net.predecessors(cat).len(), 4);
    }

    #[test]
    fn vgg_flops_dwarf_alexnet() {
        // VGG-E performs roughly 20x the convolution work of AlexNet, which
        // is why winograd dominates there (§5.8).
        let vgg_flops = vgg(VggVariant::E).conv_flops();
        let alex_flops = alexnet().conv_flops();
        assert!(vgg_flops > 15 * alex_flops, "{vgg_flops} vs {alex_flops}");
    }

    #[test]
    fn micro_resnet_validates_and_has_a_residual_merge() {
        let net = micro_resnet();
        let shapes = net.infer_shapes().unwrap();
        let at = |name: &str| shapes[net.find(name).unwrap().index()];
        assert_eq!(at("conv1"), (32, 22, 22));
        assert_eq!(at("pool1"), (32, 11, 11));
        assert_eq!(at("conv2"), (48, 6, 6));
        assert_eq!(at("res_add"), (48, 6, 6));
        assert_eq!(at("fc"), (10, 1, 1));
        let add = net.find("res_add").unwrap();
        assert_eq!(net.predecessors(add).len(), 2, "residual merge has body + skip");
        // The int8-island chain exists: conv1 → relu1 → pool1 → conv2 with
        // no LRN or other f32-only layer in between.
        let chain = ["conv1", "relu1", "pool1", "conv2"];
        for pair in chain.windows(2) {
            let from = net.find(pair[0]).unwrap();
            let to = net.find(pair[1]).unwrap();
            assert!(net.successors(from).contains(&to), "{} -> {}", pair[0], pair[1]);
        }
    }

    #[test]
    fn evaluation_models_all_validate() {
        for (name, net) in evaluation_models() {
            net.infer_shapes().unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(net.conv_flops() > 0, "{name}");
        }
    }
}
