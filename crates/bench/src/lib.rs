//! Regenerates every table and figure of the paper's evaluation (§5).
//! Each artifact has a dedicated binary:
//!
//! | artifact | binary | contents |
//! |---|---|---|
//! | Figure 4 | `fig4` | per-layer PBQP selections, Intel-like vs ARM-like |
//! | Figure 5 | `fig5` | single-threaded whole-network speedups, Intel-like |
//! | Figure 6 | `fig6` | multithreaded whole-network speedups, Intel-like |
//! | Figure 7 | `fig7` | single- and multithreaded speedups, ARM-like |
//! | Table 1 | `table1` | qualitative family strengths/weaknesses |
//! | Table 2 | `table2` | absolute inference times, Intel-like |
//! | Table 3 | `table3` | absolute inference times, ARM-like |
//! | §5.4 | `overhead` | PBQP solve times per network |
//! | §3.1/E11 | `measured` | wall-clock profiled selection on the build host |
//!
//! The headline figures use the deterministic analytic machine models
//! (the documented substitution for the paper's physical hardware); the
//! `measured` binary exercises the paper's actual methodology — per-layer
//! wall-clock profiling — on the build machine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use pbqp_dnn_cost::{AnalyticCost, MachineModel};
use pbqp_dnn_graph::DnnGraph;
use pbqp_dnn_primitives::registry::{full_library, Registry};
use pbqp_dnn_select::{Optimizer, Strategy};

/// One evaluated configuration: strategy plus its predicted latency.
#[derive(Debug, Clone)]
pub struct StrategyResult {
    /// The strategy evaluated.
    pub strategy: Strategy,
    /// Predicted whole-network latency in µs.
    pub predicted_us: f64,
    /// Speedup relative to the single-threaded sum2d baseline (the paper's
    /// common reference for all bars).
    pub speedup: f64,
}

/// The fixed strategy lineup of Figures 5–7, in legend order.
pub fn figure_strategies(vendor_vector_width: usize) -> Vec<Strategy> {
    let mut v = Strategy::family_bars();
    v.push(Strategy::LocalOptimalChw);
    v.push(Strategy::Pbqp);
    v.push(Strategy::VendorLike { vector_width: vendor_vector_width });
    v.push(Strategy::CaffeLike);
    v
}

/// Evaluates `strategies` on one network under one machine model.
///
/// `threads` applies to every strategy; the speedup denominator is always
/// the **single-threaded** sum2d baseline, matching §5.2 ("all bars
/// represent a speedup over a common baseline … with single-threaded
/// execution").
pub fn evaluate_network(
    net: &DnnGraph,
    registry: &Registry,
    machine: &MachineModel,
    threads: usize,
    strategies: &[Strategy],
) -> Vec<StrategyResult> {
    let st_cost = AnalyticCost::new(machine.clone(), 1);
    let baseline = Optimizer::new(registry, &st_cost)
        .plan(net, Strategy::Sum2d)
        .expect("sum2d always plans")
        .predicted_us;

    let cost = AnalyticCost::new(machine.clone(), threads);
    let optimizer = Optimizer::new(registry, &cost);
    let shapes = net.infer_shapes().expect("valid model");
    let table = optimizer.cost_table(net);
    strategies
        .iter()
        .map(|&strategy| {
            let plan = optimizer
                .plan_with_table(net, &shapes, &table, strategy)
                .expect("evaluation strategies always plan");
            StrategyResult {
                strategy,
                predicted_us: plan.predicted_us,
                speedup: baseline / plan.predicted_us,
            }
        })
        .collect()
}

/// Renders a figure as aligned text columns plus ASCII bars (one block per
/// 0.5x of speedup), the closest a terminal gets to the paper's charts.
pub fn render_figure(title: &str, networks: &[(&str, Vec<StrategyResult>)]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{title}\n"));
    out.push_str(&format!("{}\n", "=".repeat(title.len())));
    for (name, results) in networks {
        out.push_str(&format!("\n{name}\n"));
        for r in results {
            let bar = "#".repeat((r.speedup * 2.0).round().max(0.0) as usize);
            out.push_str(&format!(
                "  {:22} {:7.2}x  {:10.1} µs  {bar}\n",
                r.strategy.label(),
                r.speedup,
                r.predicted_us
            ));
        }
    }
    out
}

/// The default registry used by every benchmark binary.
pub fn registry() -> Registry {
    Registry::new(full_library())
}

/// The evaluation model list for the Intel figures (§5.2).
pub fn intel_models() -> Vec<(&'static str, DnnGraph)> {
    pbqp_dnn_graph::models::evaluation_models()
}

/// The evaluation model list for the ARM figures: the VGG models "are too
/// large to fit on this platform" (§5.7).
pub fn arm_models() -> Vec<(&'static str, DnnGraph)> {
    pbqp_dnn_graph::models::evaluation_models()
        .into_iter()
        .filter(|(name, _)| *name == "AlexNet" || *name == "GoogleNet")
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_lineup_matches_the_paper_legend() {
        let s = figure_strategies(8);
        let labels: Vec<String> = s.iter().map(|x| x.label()).collect();
        assert_eq!(
            labels,
            [
                "direct",
                "im2",
                "kn2",
                "winograd",
                "fft",
                "Local Optimal (CHW)",
                "PBQP",
                "mkldnn",
                "caffe"
            ]
        );
    }

    #[test]
    fn arm_lineup_excludes_vgg() {
        let names: Vec<&str> = arm_models().iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["AlexNet", "GoogleNet"]);
    }

    #[test]
    fn pbqp_tops_every_figure_cell_on_a_small_model() {
        let reg = registry();
        let net = pbqp_dnn_graph::models::alexnet();
        let machine = MachineModel::intel_haswell_like();
        let results = evaluate_network(&net, &reg, &machine, 1, &figure_strategies(8));
        let pbqp = results.iter().find(|r| r.strategy == Strategy::Pbqp).unwrap().speedup;
        for r in &results {
            assert!(pbqp + 1e-9 >= r.speedup, "{} beat PBQP", r.strategy.label());
        }
        assert!(pbqp > 5.0, "PBQP should deliver a large speedup over sum2d");
    }
}
