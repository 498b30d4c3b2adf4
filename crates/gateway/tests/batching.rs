//! Gateway serving behavior that needs no held worker: the unbatched
//! tier, admission checks and multi-tenant isolation. The drills that
//! pin what queues behind a busy worker (batch formation, backpressure,
//! shutdown draining) hold it with the `gateway.flush` failpoint, so
//! they live in `chaos.rs`.

use pbqp_dnn::graph::models;
use pbqp_dnn::prelude::*;
use pbqp_dnn_gateway::{BatchConfig, Gateway, GatewayError};

fn compile(net: &pbqp_dnn::graph::DnnGraph, seed: u64) -> CompiledModel {
    let weights = Weights::random(net, seed);
    Compiler::new(CompileOptions::new()).compile(net, &weights).expect("compiles")
}

fn input_for(net: &pbqp_dnn::graph::DnnGraph, seed: u64) -> Tensor {
    let (c, h, w) = net.infer_shapes().expect("shapes")[0];
    Tensor::random(c, h, w, Layout::Chw, seed)
}

#[test]
fn unbatched_tier_serves_every_request_alone() {
    let net = models::micro_alexnet();
    let model = compile(&net, 44);
    let gateway = Gateway::with_workers(1);
    let fp = gateway.register_with(&model, BatchConfig::new().with_max_batch(1));

    for i in 0..5 {
        let response = gateway.infer(fp, input_for(&net, 200 + i)).expect("serves");
        assert_eq!(response.batch_size, 1);
    }
    let stats = gateway.stats(fp).expect("registered");
    assert_eq!(stats.batches, 5);
    assert_eq!(stats.flushed_by_size, 5, "with max_batch=1 every batch leaves full");
}

#[test]
fn admission_rejects_malformed_inputs_and_unknown_models() {
    let net = models::micro_alexnet();
    let model = compile(&net, 46);
    let gateway = Gateway::new();
    let fp = gateway.register(&model);

    let err = gateway.submit(0xDEAD_BEEF, input_for(&net, 1)).expect_err("not registered");
    assert!(matches!(err, GatewayError::UnknownModel(0xDEAD_BEEF)), "got {err}");

    let (c, h, w) = net.infer_shapes().expect("shapes")[0];
    let bad = Tensor::random(c, h + 1, w, Layout::Chw, 2);
    let err = gateway.submit(fp, bad).expect_err("wrong shape");
    assert!(matches!(err, GatewayError::BadRequest(_)), "got {err}");

    // The good path still serves after both rejections.
    gateway.infer(fp, input_for(&net, 3)).expect("serves");
}

#[test]
fn tenants_are_isolated_and_each_served_by_its_own_model() {
    let alex = models::micro_alexnet();
    let mixed = models::micro_mixed();
    let model_a = compile(&alex, 47);
    let model_b = compile(&mixed, 48);
    let engine_a = model_a.engine();
    let engine_b = model_b.engine();

    let gateway = Gateway::new();
    let fp_a = gateway.register_with(&model_a, BatchConfig::new().with_max_batch(4));
    let fp_b = gateway.register_with(&model_b, BatchConfig::new().with_max_batch(2));
    assert_ne!(fp_a, fp_b, "different graphs must fingerprint differently");
    let mut fps = gateway.models();
    fps.sort_unstable();
    let mut want = vec![fp_a, fp_b];
    want.sort_unstable();
    assert_eq!(fps, want);

    // Interleave tenants; every response must come from the right model.
    let submissions: Vec<(u64, Tensor, Tensor)> = (0..6)
        .map(|i| {
            if i % 2 == 0 {
                let x = input_for(&alex, 500 + i);
                let want = engine_a.infer(&x).expect("solo");
                (fp_a, x, want)
            } else {
                let x = input_for(&mixed, 500 + i);
                let want = engine_b.infer(&x).expect("solo");
                (fp_b, x, want)
            }
        })
        .collect();
    let tickets: Vec<_> = submissions
        .iter()
        .map(|(fp, x, _)| gateway.submit(*fp, x.clone()).expect("admits"))
        .collect();
    for ((_, _, want), ticket) in submissions.iter().zip(tickets) {
        let response = ticket.wait().expect("serves");
        assert_eq!(response.output.data(), want.data());
    }

    assert_eq!(gateway.stats(fp_a).expect("a").served, 3);
    assert_eq!(gateway.stats(fp_b).expect("b").served, 3);
    assert!(gateway.health(fp_a).expect("a").is_pristine());
    assert!(gateway.health(fp_b).expect("b").is_pristine());
}
