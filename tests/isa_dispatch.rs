//! Runtime ISA dispatch, end to end: the same compiled plan must serve
//! correctly under every instruction set the host can force, serial /
//! wavefront / `Session::infer` must agree bit-for-bit within each ISA,
//! and an artifact compiled under one forced ISA must serve under
//! another.
//!
//! The override is process-global state, so every test that touches it
//! serializes on one mutex and restores automatic dispatch on exit
//! (a drop guard, so a failing assertion cannot poison later tests).

use std::sync::{Mutex, MutexGuard};

use pbqp_dnn::gemm::arch::{self, Isa};
use pbqp_dnn::graph::models;
use pbqp_dnn::prelude::*;
use pbqp_dnn::tensor::rng::SplitMix64;

static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

/// Holds the override lock and pins dispatch to `isa`; restores
/// automatic dispatch when dropped.
struct ForcedIsa {
    _guard: MutexGuard<'static, ()>,
}

impl ForcedIsa {
    fn new(isa: Isa) -> ForcedIsa {
        let guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        arch::set_override(Some(isa));
        ForcedIsa { _guard: guard }
    }
}

impl Drop for ForcedIsa {
    fn drop(&mut self) {
        arch::set_override(None);
    }
}

fn isas() -> Vec<Isa> {
    arch::available_kernels().iter().map(|k| k.isa()).collect()
}

/// Serves `model` on `inputs`, returning the final activations.
fn serve(model: &CompiledModel, inputs: &[Tensor]) -> Vec<Tensor> {
    let mut session = model.engine().session();
    let mut out = Tensor::empty();
    inputs
        .iter()
        .map(|input| {
            session.infer(input, &mut out).expect("model serves");
            out.clone()
        })
        .collect()
}

#[test]
fn every_forced_isa_serves_the_mixed_network_and_low_tiers_match_scalar_exactly() {
    let net = models::micro_mixed();
    let mut rng = SplitMix64::new(0x15A_D15B);
    let weights = Weights::random(&net, rng.next_u64());
    let options =
        CompileOptions::new().machine(MachineModel::intel_haswell_like()).mixed_precision(true);
    let model = Compiler::new(options).compile(&net, &weights).expect("compiles");
    assert!(!model.plan().int8_layers().is_empty(), "fixture must exercise the int8 kernels");
    let (c, h, w) = net.infer_shapes().unwrap()[0];
    let inputs: Vec<Tensor> =
        (0..4).map(|_| Tensor::random(c, h, w, Layout::Chw, rng.next_u64())).collect();

    let scalar_outs = {
        let _force = ForcedIsa::new(Isa::Scalar);
        serve(&model, &inputs)
    };
    for isa in isas() {
        let _force = ForcedIsa::new(isa);
        let outs = serve(&model, &inputs);
        for (i, (got, want)) in outs.iter().zip(&scalar_outs).enumerate() {
            assert_eq!(got.dims(), want.dims());
            match isa {
                // int8 kernels are bit-exact everywhere; SSE2 f32
                // reproduces scalar's rounding sequence exactly.
                Isa::Scalar | Isa::Sse2 => {
                    assert_eq!(got.data(), want.data(), "{isa} input {i} diverged from scalar")
                }
                // AVX2 f32 uses FMA: ULP-level kernel differences, at
                // worst amplified to single-code shifts across
                // quantization boundaries.
                Isa::Avx2 => {
                    let scale = want.data().iter().fold(1.0f32, |m, &v| m.max(v.abs()));
                    let diff = got.max_abs_diff(want).unwrap();
                    assert!(diff <= 0.02 * scale, "{isa} input {i}: diff {diff} vs scale {scale}");
                }
            }
        }
    }
}

#[test]
fn every_forced_isa_serves_fc_lrn_and_pools() {
    // micro-AlexNet runs every dispatched or ISA-sensitive op body: the
    // fully-connected GEMV (`f32_dot`), LRN (sqrt-based power), max pool,
    // relu and softmax, behind f32 convolutions.
    let net = models::micro_alexnet();
    let mut rng = SplitMix64::new(0xFC_15A);
    let weights = Weights::random(&net, rng.next_u64());
    let options = CompileOptions::new().machine(MachineModel::intel_haswell_like());
    let model = Compiler::new(options).compile(&net, &weights).expect("compiles");
    let (c, h, w) = net.infer_shapes().unwrap()[0];
    let inputs: Vec<Tensor> =
        (0..3).map(|_| Tensor::random(c, h, w, Layout::Chw, rng.next_u64())).collect();
    let oracle: Vec<Tensor> =
        inputs.iter().map(|input| reference_forward(&net, &weights, input)).collect();

    let scalar_outs = {
        let _force = ForcedIsa::new(Isa::Scalar);
        serve(&model, &inputs)
    };
    for isa in isas() {
        let _force = ForcedIsa::new(isa);
        let outs = serve(&model, &inputs);
        for (i, got) in outs.iter().enumerate() {
            // SSE2 inherits scalar's f32 summation orders exactly; AVX2
            // differs by FMA rounding only.
            if isa != Isa::Avx2 {
                assert_eq!(got.data(), scalar_outs[i].data(), "{isa} input {i} != scalar");
            }
            let diff = got.max_abs_diff(&oracle[i]).unwrap();
            assert!(diff <= 1e-4, "{isa} input {i}: {diff} from the oracle");
        }
    }
}

#[test]
fn serial_wavefront_and_session_agree_bit_for_bit_under_every_forced_isa() {
    use pbqp_dnn::cost::AnalyticCost;
    use pbqp_dnn::primitives::registry::{mixed_precision_library, Registry};
    use pbqp_dnn::runtime::{Executor, Parallelism};
    use pbqp_dnn::select::{Optimizer, Strategy};

    let net = models::micro_resnet();
    let mut rng = SplitMix64::new(0xD15B_A7C4);
    let weights = Weights::random(&net, rng.next_u64());
    let reg = Registry::new(mixed_precision_library());
    let cost = AnalyticCost::new(MachineModel::arm_a57_like(), 1);
    let plan = Optimizer::new(&reg, &cost).plan(&net, Strategy::Pbqp).unwrap();
    let exec = Executor::new(&net, &plan, &reg, &weights);
    let (c, h, w) = net.infer_shapes().unwrap()[0];
    let input = Tensor::random(c, h, w, Layout::Chw, rng.next_u64());

    for isa in isas() {
        let _force = ForcedIsa::new(isa);
        let serial = exec.run(&input, 1).unwrap();
        let wave =
            exec.run_with(&input, Parallelism::serial().with_inter_op(4).with_intra_op(2)).unwrap();
        assert_eq!(serial.data(), wave.data(), "{isa}: wavefront diverged from serial");
        assert_eq!(serial.layout(), wave.layout());
    }
}

#[test]
fn artifact_compiled_under_one_isa_serves_under_another() {
    let net = models::micro_resnet();
    let mut rng = SplitMix64::new(0xA271_FAC7);
    let weights = Weights::random(&net, rng.next_u64());
    let (c, h, w) = net.infer_shapes().unwrap()[0];
    let inputs: Vec<Tensor> =
        (0..3).map(|_| Tensor::random(c, h, w, Layout::Chw, rng.next_u64())).collect();

    // Compile and save on a "build machine" pinned to scalar…
    let bytes = {
        let _force = ForcedIsa::new(Isa::Scalar);
        let options =
            CompileOptions::new().machine(MachineModel::arm_a57_like()).mixed_precision(true);
        let model = Compiler::new(options).compile(&net, &weights).expect("compiles");
        let mut bytes = Vec::new();
        model.save(&mut bytes).expect("saving to a Vec cannot fail");
        (bytes, serve(&model, &inputs))
    };
    let (bytes, build_outs) = bytes;

    // …then load and serve on this host's best ISA: the plan is ISA-
    // independent, so the artifact must serve everywhere the crate runs.
    let loaded = CompiledModel::load(&mut bytes.as_slice()).expect("artifact loads");
    let served = serve(&loaded, &inputs);
    for (i, (got, want)) in served.iter().zip(&build_outs).enumerate() {
        assert_eq!(got.dims(), want.dims());
        let scale = want.data().iter().fold(1.0f32, |m, &v| m.max(v.abs()));
        let diff = got.max_abs_diff(want).unwrap();
        assert!(diff <= 0.02 * scale, "input {i}: diff {diff} vs scale {scale}");
    }
}
