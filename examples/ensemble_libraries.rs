//! The §8 ensemble idea: "our approach can enable the construction of
//! DNNs using convolution routines from different libraries, if at least
//! one edge in the DT graph connects a convolution from library A to one
//! from library B."
//!
//! Models two vendor libraries:
//!
//! * **library A** — a planar-layout BLAS-style library (im2col/kn2row/
//!   direct loops over CHW-family layouts, no interleaved routines);
//! * **library B** — an interleaved-layout (HWC-family) library whose
//!   im2row kernels stream patches contiguously and run slightly faster.
//!
//! The network input arrives planar, so library B is only reachable
//! through the DT graph. With the CHW↔HWC bridge present, PBQP pays the
//! conversion once and runs the whole stack out of library B; with the
//! bridge removed it must stay in library A.
//!
//! ```sh
//! cargo run --release --example ensemble_libraries
//! ```

use pbqp_dnn::cost::{AnalyticCost, DtGraph, MachineModel};
use pbqp_dnn::graph::models::{self, VggVariant};
use pbqp_dnn::primitives::registry::{full_library, Registry};
use pbqp_dnn::primitives::Family;
use pbqp_dnn::select::{Optimizer, Strategy};
use pbqp_dnn::tensor::transform::DIRECT_TRANSFORMS;
use pbqp_dnn::tensor::Layout;
use pbqp_dnn::Error;

fn main() -> Result<(), Error> {
    let planar = [Layout::Chw, Layout::Hcw, Layout::Chw4, Layout::Chw8];
    let lib_of = |layout: Layout| if planar.contains(&layout) { "A" } else { "B" };

    // Library A: planar routines, but no fast-convolution algorithms (a
    // plain BLAS-backed library). Library B: every interleaved routine.
    // Note the second condition: a primitive that reads one library's
    // layout and writes the other's (e.g. `im2row_packed_chw_out`) is
    // itself a DT-graph bridge, so a faithful "isolated libraries"
    // experiment must exclude such cross-layout routines.
    let ensemble: Vec<_> = full_library()
        .into_iter()
        .filter(|p| {
            let d = p.descriptor();
            let within_one_library = lib_of(d.input_layout) == lib_of(d.output_layout);
            within_one_library
                && match lib_of(d.input_layout) {
                    "A" => !matches!(d.family, Family::Winograd | Family::Fft),
                    _ => true,
                }
        })
        .collect();
    let registry = Registry::new(ensemble);
    println!("ensemble registry: {} primitives", registry.len());

    let net = models::vgg(VggVariant::C);
    let cost = AnalyticCost::new(MachineModel::intel_haswell_like(), 4);

    // Full DT graph: the CHW↔HWC bridge connects the libraries.
    let bridged = Optimizer::new(&registry, &cost);
    let plan_bridged = bridged.plan(&net, Strategy::Pbqp)?;

    // Remove every edge crossing the planar/interleaved boundary.
    let isolated_edges: Vec<_> =
        DIRECT_TRANSFORMS.iter().copied().filter(|t| lib_of(t.from) == lib_of(t.to)).collect();
    let isolated =
        Optimizer::new(&registry, &cost).with_dt_graph(DtGraph::with_edges(isolated_edges));
    let plan_isolated = isolated.plan(&net, Strategy::Pbqp)?;

    let libs_used = |plan: &pbqp_dnn::select::ExecutionPlan| {
        let (mut a, mut b) = (0, 0);
        for (_, prim) in plan.selected_primitives() {
            match lib_of(registry.by_name(prim).unwrap().descriptor().input_layout) {
                "A" => a += 1,
                _ => b += 1,
            }
        }
        (a, b)
    };

    let (a1, b1) = libs_used(&plan_bridged);
    let (a2, b2) = libs_used(&plan_isolated);
    println!("VGG-C, 13 convolution layers:");
    println!(
        "  bridged DT graph  : {:8.1} ms predicted, library A x{a1}, library B x{b1}, {} transforms",
        plan_bridged.predicted_us / 1000.0,
        plan_bridged.transform_count(),
    );
    println!(
        "  isolated libraries: {:8.1} ms predicted, library A x{a2}, library B x{b2}",
        plan_isolated.predicted_us / 1000.0
    );
    assert!(plan_bridged.predicted_us < plan_isolated.predicted_us, "the bridge must pay off");
    assert!(b1 > 0, "bridged plan should reach library B");
    assert_eq!(b2, 0, "isolated plan must stay inside library A");
    println!(
        "ensembles pay off: bridge saves {:.1} ms ({:.1}%)",
        (plan_isolated.predicted_us - plan_bridged.predicted_us) / 1000.0,
        100.0 * (1.0 - plan_bridged.predicted_us / plan_isolated.predicted_us)
    );
    Ok(())
}
