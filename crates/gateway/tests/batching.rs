//! Gateway batching behavior: coalescing, deadline flushes, typed
//! backpressure, admission checks, multi-tenant isolation and shutdown
//! draining.

use std::time::Duration;

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
fn a_burst_coalesces_into_one_full_fused_batch() {
    let net = models::micro_alexnet();
    let model = compile(&net, 42);
    let engine = model.engine();
    let gateway = Gateway::with_workers(1);
    // A long window so the flush can only be triggered by batch size.
    let fp = gateway.register_with(
        &model,
        BatchConfig::new().with_max_batch(4).with_window(Duration::from_secs(5)),
    );

    let inputs: Vec<Tensor> = (0..4).map(|i| input_for(&net, 100 + i)).collect();
    let tickets: Vec<_> =
        inputs.iter().map(|x| gateway.submit(fp, x.clone()).expect("admits")).collect();
    for (input, ticket) in inputs.iter().zip(tickets) {
        let response = ticket.wait().expect("serves");
        assert_eq!(response.batch_size, 4, "the full burst must flush as one batch");
        assert_eq!(response.generation, 0);
        assert_eq!(
            response.output.data(),
            engine.infer(input).expect("solo").data(),
            "batched response must be bit-identical to solo serving"
        );
    }

    let stats = gateway.stats(fp).expect("registered");
    assert_eq!(stats.admitted, 4);
    assert_eq!(stats.served, 4);
    assert_eq!(stats.batches, 1);
    assert_eq!(stats.flushed_by_size, 1);
    assert_eq!(stats.flushed_by_deadline, 0);
    assert_eq!(stats.batch_histogram[4], 1);
    assert!((stats.mean_batch_size() - 4.0).abs() < 1e-9);
}

#[test]
fn a_lone_request_is_flushed_by_its_deadline() {
    let net = models::micro_alexnet();
    let model = compile(&net, 43);
    let gateway = Gateway::with_workers(1);
    // max_batch far above what one submit can reach: only the window
    // deadline can flush.
    let fp = gateway.register_with(
        &model,
        BatchConfig::new().with_max_batch(64).with_window(Duration::from_millis(2)),
    );

    let response = gateway.infer(fp, input_for(&net, 7)).expect("serves");
    assert_eq!(response.batch_size, 1);
    assert!(
        response.latency >= Duration::from_millis(2),
        "a lone request waits out its window ({:?})",
        response.latency
    );

    let stats = gateway.stats(fp).expect("registered");
    assert_eq!(stats.flushed_by_deadline, 1);
    assert_eq!(stats.flushed_by_size, 0);
    assert_eq!(stats.batch_histogram[1], 1);
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
    assert_eq!(stats.flushed_by_size, 5, "max_batch=1 flushes by size on every submit");

    // Resetting separates a warmup phase from a measured one.
    assert!(gateway.reset_stats(fp), "the model is registered");
    assert!(!gateway.reset_stats(fp ^ 1), "an unknown fingerprint has no stats");
    gateway.infer(fp, input_for(&net, 205)).expect("serves");
    let stats = gateway.stats(fp).expect("registered");
    assert_eq!((stats.admitted, stats.served, stats.batches, stats.rejected), (1, 1, 1, 0));
}

#[test]
fn overload_is_a_typed_rejection_and_shutdown_answers_the_queue() {
    let net = models::micro_alexnet();
    let model = compile(&net, 45);
    let gateway = Gateway::with_workers(1);
    // An unreachable batch size and a far-future window freeze the
    // queue so admission control is all that can respond.
    let fp = gateway.register_with(
        &model,
        BatchConfig::new()
            .with_max_batch(64)
            .with_window(Duration::from_secs(60))
            .with_queue_cap(4),
    );

    let tickets: Vec<_> = (0..4)
        .map(|i| gateway.submit(fp, input_for(&net, 300 + i)).expect("under the cap"))
        .collect();
    let err = gateway.submit(fp, input_for(&net, 399)).expect_err("queue is full");
    match err {
        GatewayError::Overloaded { fingerprint, queued, limit } => {
            assert_eq!(fingerprint, fp);
            assert_eq!(limit, 4);
            assert!(queued <= limit, "pending never exceeds the cap ({queued} > {limit})");
        }
        other => panic!("expected Overloaded, got {other}"),
    }
    assert_eq!(gateway.stats(fp).expect("registered").rejected, 1);

    // Shutdown answers every still-queued request instead of dropping it.
    gateway.shutdown();
    for ticket in tickets {
        assert_eq!(ticket.wait().expect_err("answered at shutdown"), GatewayError::ShuttingDown);
    }
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
    let fp_a = gateway.register_with(
        &model_a,
        BatchConfig::new().with_max_batch(4).with_window(Duration::from_micros(300)),
    );
    let fp_b = gateway.register_with(
        &model_b,
        BatchConfig::new().with_max_batch(2).with_window(Duration::from_micros(300)),
    );
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
