//! Parallel-vs-serial equivalence: the wavefront scheduler and the
//! batched executor must produce **bit-identical** outputs to the serial
//! reference executor — not merely close. The engine only ever partitions
//! work between threads; it never changes a kernel's per-element
//! accumulation order, so exact equality is the contract.
//!
//! Random cases (strategy × parallelism × input seed) are drawn from a
//! fixed-seed splitmix64 generator over the two canonical test networks:
//! micro-AlexNet (a deep chain — wavefront levels of width 1) and a
//! micro inception module (a branching DAG — real inter-op parallelism).

use pbqp_dnn_cost::{AnalyticCost, MachineModel};
use pbqp_dnn_graph::models::{micro_alexnet, micro_inception};
use pbqp_dnn_graph::DnnGraph;
use pbqp_dnn_primitives::registry::{full_library, Registry};
use pbqp_dnn_runtime::{Executor, Parallelism, Weights};
use pbqp_dnn_select::{Optimizer, Strategy};
use pbqp_dnn_tensor::rng::SplitMix64;
use pbqp_dnn_tensor::{Layout, Tensor};

fn strategies() -> Vec<Strategy> {
    let mut v = vec![
        Strategy::Pbqp,
        Strategy::PbqpHeuristic,
        Strategy::Sum2d,
        Strategy::LocalOptimalChw,
        Strategy::CaffeLike,
        Strategy::VendorLike { vector_width: 8 },
        Strategy::VendorLike { vector_width: 4 },
    ];
    v.extend(Strategy::family_bars());
    v
}

fn check_network(name: &str, net: &DnnGraph, rng: &mut SplitMix64, cases: usize) {
    let reg = Registry::new(full_library());
    let cost = AnalyticCost::new(MachineModel::intel_haswell_like(), 2);
    let opt = Optimizer::new(&reg, &cost);
    let weights = Weights::random(net, rng.next_u64());
    let (c, h, w) = net.infer_shapes().unwrap()[0];
    let all = strategies();

    for case in 0..cases {
        let strategy = all[rng.usize(0, all.len())];
        let plan = opt.plan(net, strategy).unwrap();
        let exec = Executor::new(net, &plan, &reg, &weights);
        let par =
            Parallelism::serial().with_inter_op(rng.usize(1, 6)).with_intra_op(rng.usize(1, 4));

        // Serial reference for a batch of random inputs.
        let batch: Vec<Tensor> = (0..rng.usize(1, 10))
            .map(|_| Tensor::random(c, h, w, Layout::Chw, rng.next_u64()))
            .collect();
        let serial: Vec<Tensor> = batch.iter().map(|input| exec.run(input, 1).unwrap()).collect();

        // Wavefront on the first input.
        let wave = exec.run_with(&batch[0], par).unwrap();
        assert_eq!(
            wave.data(),
            serial[0].data(),
            "{name} case {case} ({}, {par}): wavefront diverged",
            strategy.label()
        );
        assert_eq!(wave.layout(), serial[0].layout());

        // Batched over every input.
        let outs = exec.run_batch(&batch, par).unwrap();
        assert_eq!(outs.len(), serial.len());
        for (i, (got, want)) in outs.iter().zip(&serial).enumerate() {
            assert_eq!(
                got.data(),
                want.data(),
                "{name} case {case} item {i} ({}, {par}): batch diverged",
                strategy.label()
            );
        }
    }
}

/// The same contract with the int8 kernels in play and the runtime ISA
/// dispatch active (no override): a mixed-precision plan's quantized
/// islands run the host's best SIMD micro-kernels, whose integer
/// accumulation is order-exact — so wavefront and batch must still be
/// bit-identical to serial.
#[test]
fn mixed_precision_parallel_modes_are_bit_identical_with_simd_dispatch_active() {
    use pbqp_dnn::gemm::arch;
    use pbqp_dnn::primitives::registry::mixed_precision_library;

    // Precondition, not an assumption: dispatch is live and reports the
    // strongest tier this host supports, or the `PBQP_DNN_FORCE_ISA` pin.
    assert_eq!(arch::active_isa(), arch::forced().unwrap_or_else(|| arch::features().best()));

    let net = pbqp_dnn::graph::models::micro_resnet();
    let mut rng = SplitMix64::new(0x51D_D15B);
    let reg = Registry::new(mixed_precision_library());
    let cost = AnalyticCost::new(MachineModel::arm_a57_like(), 1);
    let plan = Optimizer::new(&reg, &cost).plan(&net, Strategy::Pbqp).unwrap();
    assert!(!plan.int8_layers().is_empty(), "fixture must exercise the int8 kernels");
    let weights = Weights::random(&net, rng.next_u64());
    let exec = Executor::new(&net, &plan, &reg, &weights);
    let (c, h, w) = net.infer_shapes().unwrap()[0];

    for case in 0..4 {
        let batch: Vec<Tensor> = (0..rng.usize(1, 5))
            .map(|_| Tensor::random(c, h, w, Layout::Chw, rng.next_u64()))
            .collect();
        let par =
            Parallelism::serial().with_inter_op(rng.usize(2, 6)).with_intra_op(rng.usize(1, 4));
        let serial: Vec<Tensor> = batch.iter().map(|input| exec.run(input, 1).unwrap()).collect();
        let wave = exec.run_with(&batch[0], par).unwrap();
        assert_eq!(wave.data(), serial[0].data(), "case {case} ({par}): wavefront diverged");
        let outs = exec.run_batch(&batch, par).unwrap();
        for (i, (got, want)) in outs.iter().zip(&serial).enumerate() {
            assert_eq!(got.data(), want.data(), "case {case} item {i} ({par}): batch diverged");
        }
    }
}

#[test]
fn micro_alexnet_parallel_modes_are_bit_identical_to_serial() {
    let mut rng = SplitMix64::new(0xA1EC);
    check_network("micro_alexnet", &micro_alexnet(), &mut rng, 8);
}

#[test]
fn micro_inception_parallel_modes_are_bit_identical_to_serial() {
    let mut rng = SplitMix64::new(0x10CE);
    check_network("micro_inception", &micro_inception(), &mut rng, 8);
}
