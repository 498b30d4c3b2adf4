//! The data-transformation (DT) graph and its all-pairs shortest paths
//! (§3.1 of the paper), extended along the precision axis.
//!
//! Nodes are the supported tensor [`Repr`]s — every layout at f32 plus the
//! quantized int8 layouts; directed edges are the library's direct
//! conversion routines: layout transforms, quantize and dequantize. The
//! edge set is incomplete, so some conversions require chains; the
//! optimizer needs both the least cost of every pair (for PBQP edge
//! matrices) and the realizing chain (for legalization). Where no path
//! exists the cost is infinite.

use pbqp_dnn_tensor::transform::{repr_transforms, DirectTransform, ReprTransform};
use pbqp_dnn_tensor::{DType, Repr};

/// The DT graph: a set of direct transformation routines over [`Repr`]s.
///
/// # Example
///
/// ```
/// use pbqp_dnn_cost::DtGraph;
/// use pbqp_dnn_tensor::{Layout, Repr};
///
/// let dt = DtGraph::standard();
/// let table = dt.shortest_paths(|_t| 1.0); // unit edge costs
/// // CHWc8 → HWC has no direct routine but a 2-hop chain exists.
/// let (chw8, hwc) = (Repr::f32(Layout::Chw8), Repr::f32(Layout::Hwc));
/// assert_eq!(table.cost(chw8, hwc), 2.0);
/// assert_eq!(table.path(chw8, hwc).unwrap().len(), 2);
/// let chw = Repr::f32(Layout::Chw);
/// // Entering the int8 subgraph is one quantize edge.
/// assert_eq!(table.cost(chw, Repr::i8(Layout::Chw)), 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct DtGraph {
    edges: Vec<ReprTransform>,
}

impl DtGraph {
    /// The DT graph induced by the tensor crate's shipped routines:
    /// every f32 layout transform plus the quantize/dequantize and int8
    /// layout edges.
    pub fn standard() -> DtGraph {
        DtGraph { edges: repr_transforms() }
    }

    /// A DT graph over an explicit f32 layout edge set (used in tests and
    /// for the §8 multi-library ensembles; no quantized edges).
    pub fn with_edges(edges: Vec<DirectTransform>) -> DtGraph {
        DtGraph { edges: edges.into_iter().map(ReprTransform::Layout).collect() }
    }

    /// A DT graph over an explicit representation edge set.
    pub fn with_repr_edges(edges: Vec<ReprTransform>) -> DtGraph {
        DtGraph { edges }
    }

    /// The direct routines (edges).
    pub fn edges(&self) -> &[ReprTransform] {
        &self.edges
    }

    /// Floyd–Warshall all-pairs shortest paths under a per-edge cost
    /// function (typically a [`crate::CostSource`] evaluated at one tensor
    /// size). Unreachable pairs get infinite cost.
    ///
    /// Layout conversions are exact but quantization is lossy, so routes
    /// between two **f32** representations are structurally forbidden
    /// from detouring through the int8 subgraph — even if a cost source
    /// prices a quantize → i8-hop → dequantize round trip below the f32
    /// permutation (plausible for measured costs on bandwidth-bound
    /// machines, since the i8 hop moves a quarter of the bytes). A plan
    /// never loses precision on an edge unless one of its endpoints
    /// chose an int8 primitive.
    pub fn shortest_paths<F>(&self, mut edge_cost: F) -> DtPathTable
    where
        F: FnMut(ReprTransform) -> f64,
    {
        let n = Repr::ALL.len();
        let lossy: Vec<bool> = Repr::ALL.iter().map(|r| r.dtype != DType::F32).collect();
        let mut cost = vec![vec![f64::INFINITY; n]; n];
        let mut via: Vec<Vec<Option<ReprTransform>>> = vec![vec![None; n]; n];
        for (i, row) in cost.iter_mut().enumerate() {
            row[i] = 0.0;
        }
        for &t in &self.edges {
            let (i, j) = (t.from().index(), t.to().index());
            let c = edge_cost(t);
            if c < cost[i][j] {
                cost[i][j] = c;
                via[i][j] = Some(t);
            }
        }
        // via[i][j] holds the FIRST hop on the best i→j path. Skipping
        // int8 intermediates for f32→f32 pairs inside the relaxation
        // keeps the table self-consistent: any f32→f32 sub-leg of a
        // longer route composes the already-restricted entry.
        for k in 0..n {
            for i in 0..n {
                if cost[i][k] == f64::INFINITY {
                    continue;
                }
                for j in 0..n {
                    if lossy[k] && !lossy[i] && !lossy[j] {
                        continue;
                    }
                    let through = cost[i][k] + cost[k][j];
                    if through < cost[i][j] {
                        cost[i][j] = through;
                        via[i][j] = via[i][k];
                    }
                }
            }
        }
        DtPathTable { cost, via }
    }
}

impl Default for DtGraph {
    fn default() -> Self {
        DtGraph::standard()
    }
}

/// All-pairs shortest-path result over the DT graph: costs for PBQP edge
/// matrices and first-hop pointers for chain reconstruction.
#[derive(Debug, Clone)]
pub struct DtPathTable {
    cost: Vec<Vec<f64>>,
    via: Vec<Vec<Option<ReprTransform>>>,
}

impl DtPathTable {
    /// Least-cost conversion from `from` to `to` (0 for identity, infinite
    /// when unreachable).
    pub fn cost(&self, from: Repr, to: Repr) -> f64 {
        self.cost[from.index()][to.index()]
    }

    /// The chain of direct routines realizing the least-cost conversion.
    /// Empty for the identity; `None` when unreachable.
    pub fn path(&self, from: Repr, to: Repr) -> Option<Vec<ReprTransform>> {
        if from == to {
            return Some(Vec::new());
        }
        if self.cost(from, to) == f64::INFINITY {
            return None;
        }
        let mut chain = Vec::new();
        let mut cur = from;
        while cur != to {
            let hop = self.via[cur.index()][to.index()]?;
            chain.push(hop);
            cur = hop.to();
            if chain.len() > Repr::ALL.len() {
                return None; // corrupt table; avoid looping forever
            }
        }
        Some(chain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbqp_dnn_tensor::transform::DIRECT_TRANSFORMS;
    use pbqp_dnn_tensor::Layout;

    fn f(l: Layout) -> Repr {
        Repr::f32(l)
    }

    #[test]
    fn identity_is_free_and_direct_edges_cost_their_edge() {
        let dt = DtGraph::standard();
        let t = dt.shortest_paths(|_| 2.0);
        for &r in &Repr::ALL {
            assert_eq!(t.cost(r, r), 0.0);
            assert_eq!(t.path(r, r).unwrap().len(), 0);
        }
        assert_eq!(t.cost(f(Layout::Chw), f(Layout::Hwc)), 2.0);
        assert_eq!(t.path(f(Layout::Chw), f(Layout::Hwc)).unwrap().len(), 1);
        assert_eq!(t.cost(f(Layout::Chw), Repr::i8(Layout::Chw)), 2.0);
    }

    #[test]
    fn standard_graph_is_strongly_connected_over_reprs() {
        let dt = DtGraph::standard();
        let t = dt.shortest_paths(|_| 1.0);
        for &a in &Repr::ALL {
            for &b in &Repr::ALL {
                assert!(t.cost(a, b).is_finite(), "{a} -> {b} unreachable");
            }
        }
    }

    #[test]
    fn chains_are_consistent_with_costs() {
        let dt = DtGraph::standard();
        let weight = |tr: ReprTransform| (tr.from().index() + 2 * tr.to().index() + 1) as f64;
        let t = dt.shortest_paths(weight);
        for &a in &Repr::ALL {
            for &b in &Repr::ALL {
                let chain = t.path(a, b).unwrap();
                let sum: f64 = chain.iter().map(|&tr| weight(tr)).sum();
                assert!((sum - t.cost(a, b)).abs() < 1e-9, "{a}->{b}");
                // Chain endpoints must line up.
                let mut cur = a;
                for hop in &chain {
                    assert_eq!(hop.from(), cur);
                    cur = hop.to();
                }
                assert_eq!(cur, b);
            }
        }
    }

    #[test]
    fn missing_routes_are_infinite() {
        // A graph with a single edge: most pairs unreachable.
        let only = DIRECT_TRANSFORMS[0];
        let dt = DtGraph::with_edges(vec![only]);
        let t = dt.shortest_paths(|_| 1.0);
        assert!(t.cost(f(only.from), f(only.to)).is_finite());
        assert_eq!(t.cost(f(only.to), f(only.from)), f64::INFINITY);
        assert!(t.path(f(only.to), f(only.from)).is_none());
        // Without quantize edges the int8 subgraph is unreachable.
        assert_eq!(t.cost(f(only.from), Repr::i8(Layout::Chw)), f64::INFINITY);
    }

    #[test]
    fn indirect_paths_beat_expensive_direct_edges() {
        // Make the direct CHW→HWC routine absurdly expensive: the solver
        // should route CHW→HCW→HWC instead.
        let dt = DtGraph::standard();
        let t = dt.shortest_paths(|tr| {
            if matches!(tr, ReprTransform::Layout(d) if d.name == "chw_to_hwc") {
                100.0
            } else {
                1.0
            }
        });
        assert_eq!(t.cost(f(Layout::Chw), f(Layout::Hwc)), 2.0);
        let chain = t.path(f(Layout::Chw), f(Layout::Hwc)).unwrap();
        assert_eq!(chain.len(), 2);
    }

    #[test]
    fn f32_routes_never_detour_through_the_lossy_int8_subgraph() {
        // Quantize→dequantize is lossy, so the exclusion is structural —
        // it must hold even under an adversarial cost source that prices
        // the int8 round trip far below any f32 permutation (plausible
        // for measured costs: the i8 hop moves a quarter of the bytes).
        let dt = DtGraph::standard();
        let adversarial = |tr: ReprTransform| match tr {
            ReprTransform::Layout(_) => 100.0,
            _ => 0.01, // quantize/dequantize/i8 hops nearly free
        };
        for t in [dt.shortest_paths(|_| 1.0), dt.shortest_paths(adversarial)] {
            for &a in &Repr::ALL {
                for &b in &Repr::ALL {
                    if a.dtype != DType::F32 || b.dtype != DType::F32 {
                        continue;
                    }
                    let chain = t.path(a, b).unwrap();
                    for hop in &chain {
                        assert_eq!(
                            hop.to().dtype,
                            DType::F32,
                            "f32 route {a}->{b} detours through {}",
                            hop.to()
                        );
                    }
                }
            }
        }
        // Mixed-endpoint routes still work and chains still sum to costs
        // under the adversarial pricing.
        let t = dt.shortest_paths(adversarial);
        for &a in &Repr::ALL {
            for &b in &Repr::ALL {
                let chain = t.path(a, b).unwrap();
                let sum: f64 = chain.iter().map(|&h| adversarial(h)).sum();
                assert!((sum - t.cost(a, b)).abs() < 1e-9, "{a}->{b}");
            }
        }
    }
}
