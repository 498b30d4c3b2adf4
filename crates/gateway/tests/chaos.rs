//! Chaos drills for the `gateway.flush` failpoint, and the batching
//! policy drills that need it.
//!
//! The load-bearing invariants under an injected slow flush:
//!
//! 1. **Backpressure bounds hold** — the hammered model's queue never
//!    grows past its cap; excess load is rejected with a typed
//!    `Overloaded`, not buffered.
//! 2. **No model starves** — a model with requests left over goes to the
//!    back of the job FIFO, so while every flush sleeps in a worker, a
//!    *different* model's requests keep being served. Nothing
//!    deadlocks; every admitted request completes.
//!
//! The policy drills hold the only worker in a delayed flush of a
//! blocker model's request (see [`held_worker`]), so exactly what is
//! submitted meanwhile is queued when the worker comes back — no
//! wall-clock assertion needed.
//!
//! Failpoints are process-global state and libtest runs tests in
//! parallel threads, so every drill serializes on [`FAULT_LOCK`].

use std::sync::Mutex;
use std::time::Duration;

use pbqp_dnn::graph::{models, DnnGraph};
use pbqp_dnn::prelude::*;
use pbqp_dnn::{faults, CompiledModel};
use pbqp_dnn_gateway::{BatchConfig, Gateway, GatewayError, Ticket};

/// Serializes the drills: armed failpoints are process-global.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn compile(net: &DnnGraph, seed: u64) -> CompiledModel {
    let weights = Weights::random(net, seed);
    Compiler::new(CompileOptions::new()).compile(net, &weights).expect("compiles")
}

fn input_for(net: &DnnGraph, seed: u64) -> Tensor {
    let (c, h, w) = net.infer_shapes().expect("shapes")[0];
    Tensor::random(c, h, w, Layout::Chw, seed)
}

/// A one-worker gateway whose worker is held for 100 ms in the flush of
/// a blocker model's lone request: the job FIFO runs that flush first,
/// so requests submitted next queue up behind it. Returns the gateway
/// and the blocker's ticket; call with [`FAULT_LOCK`] held.
fn held_worker() -> (Gateway, Ticket) {
    let net = models::micro_mixed();
    let blocker = compile(&net, 80);
    let gateway = Gateway::with_workers(1);
    let fp = gateway.register(&blocker);
    faults::arm(faults::GATEWAY_FLUSH, "nth(1):delay(100)").expect("arms");
    let ticket = gateway.submit(fp, input_for(&net, 81)).expect("admits");
    (gateway, ticket)
}

#[test]
fn a_burst_coalesces_into_one_full_fused_batch() {
    let _serial = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let net = models::micro_alexnet();
    let model = compile(&net, 42);
    let engine = model.engine();
    let (gateway, blocker) = held_worker();
    let fp = gateway.register_with(&model, BatchConfig::new().with_max_batch(4));

    // Five queue behind the held worker: the first four leave as one
    // full batch, and the leftover — re-enqueued, with no later submit
    // to schedule it — is served alone.
    let inputs: Vec<Tensor> = (0..5).map(|i| input_for(&net, 100 + i)).collect();
    let tickets: Vec<_> =
        inputs.iter().map(|x| gateway.submit(fp, x.clone()).expect("admits")).collect();
    blocker.wait().expect("the held flush is slow, not failed");
    faults::disarm_all();
    for (i, (input, ticket)) in inputs.iter().zip(tickets).enumerate() {
        let response = ticket.wait().expect("serves");
        assert_eq!(response.batch_size, if i < 4 { 4 } else { 1 }, "request {i}");
        assert_eq!(response.generation, 0);
        assert_eq!(
            response.output.data(),
            engine.infer(input).expect("solo").data(),
            "batched response must be bit-identical to solo serving"
        );
    }

    let stats = gateway.stats(fp).expect("registered");
    assert_eq!(stats.admitted, 5);
    assert_eq!(stats.served, 5);
    assert_eq!(stats.batches, 2);
    assert_eq!(stats.flushed_by_size, 1);
    assert_eq!(stats.batch_histogram[4], 1);
    assert_eq!(stats.batch_histogram[1], 1);
}

#[test]
fn overload_is_a_typed_rejection_and_shutdown_answers_the_queue() {
    let _serial = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let net = models::micro_alexnet();
    let model = compile(&net, 45);
    let (gateway, blocker) = held_worker();
    let fp = gateway.register_with(&model, BatchConfig::new().with_queue_cap(4));

    let tickets: Vec<_> = (0..4)
        .map(|i| gateway.submit(fp, input_for(&net, 300 + i)).expect("under the cap"))
        .collect();
    let err = gateway.submit(fp, input_for(&net, 399)).expect_err("queue is full");
    assert_eq!(err, GatewayError::Overloaded { fingerprint: fp, queued: 4, limit: 4 });
    assert_eq!(gateway.stats(fp).expect("registered").rejected, 1);

    // Shutdown lets the held flush finish, then answers every
    // still-queued request instead of dropping it.
    gateway.shutdown();
    faults::disarm_all();
    blocker.wait().expect("the in-flight batch completes");
    for ticket in tickets {
        assert_eq!(ticket.wait().expect_err("answered at shutdown"), GatewayError::ShuttingDown);
    }
}

#[test]
fn a_lone_request_is_served_alone() {
    let _serial = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let net = models::micro_alexnet();
    let model = compile(&net, 43);
    let gateway = Gateway::with_workers(1);
    // A batch of 64 never fills; the request is served without it.
    let fp = gateway.register_with(&model, BatchConfig::new().with_max_batch(64));

    let response = gateway.infer(fp, input_for(&net, 7)).expect("serves");
    assert_eq!(response.batch_size, 1);

    let stats = gateway.stats(fp).expect("registered");
    assert_eq!(stats.batches, 1);
    assert_eq!(stats.flushed_by_size, 0);
    assert_eq!(stats.batch_histogram[1], 1);
}

#[test]
fn slow_flushes_keep_backpressure_bounded_and_other_models_flushing() {
    let _serial = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let alex = models::micro_alexnet();
    let mixed = models::micro_mixed();
    let hammered = compile(&alex, 60);
    let bystander = compile(&mixed, 61);
    let (hc, hh, hw) = alex.infer_shapes().expect("shapes")[0];
    let (bc, bh, bw) = mixed.infer_shapes().expect("shapes")[0];

    let gateway = Gateway::with_workers(2);
    let fp_hammered =
        gateway.register_with(&hammered, BatchConfig::new().with_max_batch(4).with_queue_cap(8));
    let fp_bystander = gateway.register_with(&bystander, BatchConfig::new().with_max_batch(4));

    // Every flush — either model's — sleeps 25 ms in its worker.
    faults::arm(faults::GATEWAY_FLUSH, "every:delay(25)").expect("arms");

    // Open-loop hammer: submit far faster than delayed flushes can
    // drain. Keep every admitted ticket; count the typed rejections.
    let mut tickets = Vec::new();
    let mut rejected = 0u64;
    for i in 0..120u64 {
        match gateway.submit(fp_hammered, Tensor::random(hc, hh, hw, Layout::Chw, 1000 + i)) {
            Ok(ticket) => tickets.push(ticket),
            Err(GatewayError::Overloaded { queued, limit, .. }) => {
                assert!(
                    queued <= limit,
                    "backpressure bound violated under slow flushes: {queued} queued > cap {limit}"
                );
                rejected += 1;
            }
            Err(other) => panic!("unexpected admission error: {other}"),
        }
        // Interleave a bystander request every 12 submits; it must be
        // served even while workers sleep in the hammered model's flushes.
        if i % 12 == 0 {
            tickets.push(
                gateway
                    .submit(fp_bystander, Tensor::random(bc, bh, bw, Layout::Chw, 2000 + i))
                    .expect("the bystander's small queue never fills"),
            );
        }
        std::thread::sleep(Duration::from_micros(300));
    }

    // With ≥25 ms per flush, 2 workers and ~36 ms of submission, the
    // 8-deep queue must have overflowed — the drill is vacuous otherwise.
    assert!(rejected > 0, "load was too light to exercise backpressure");

    // Every admitted request completes: flushes are slow, never stuck.
    for ticket in tickets {
        ticket.wait().expect("admitted requests are served despite injected delays");
    }
    faults::disarm_all();

    let hammered_stats = gateway.stats(fp_hammered).expect("registered");
    assert_eq!(hammered_stats.rejected, rejected);
    assert_eq!(
        hammered_stats.served, hammered_stats.admitted,
        "every admitted hammered request was served"
    );

    // No model starved: every bystander request was served, while every
    // worker was repeatedly captive in 25 ms injected sleeps.
    let bystander_stats = gateway.stats(fp_bystander).expect("registered");
    assert_eq!(bystander_stats.served, bystander_stats.admitted);
    assert!(bystander_stats.served >= 10);

    // The injected delay is not a fault the engines should have seen.
    assert!(gateway.health(fp_hammered).expect("registered").is_pristine());
    assert!(gateway.health(fp_bystander).expect("registered").is_pristine());
}

#[test]
fn injected_flush_errors_and_panics_fail_only_their_batch() {
    let _serial = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let net = models::micro_alexnet();
    let model = compile(&net, 62);
    let (c, h, w) = net.infer_shapes().expect("shapes")[0];
    let gateway = Gateway::with_workers(1);
    let fp = gateway.register_with(&model, BatchConfig::new().with_max_batch(2));

    // First flush fails with an injected error; the gateway stays up.
    faults::arm(faults::GATEWAY_FLUSH, "nth(1):error(injected outage)").expect("arms");
    let err = gateway
        .infer(fp, Tensor::random(c, h, w, Layout::Chw, 70))
        .expect_err("first flush is poisoned");
    assert!(
        matches!(&err, GatewayError::Inference(msg) if msg.contains("injected outage")),
        "got {err}"
    );
    let ok = gateway.infer(fp, Tensor::random(c, h, w, Layout::Chw, 71)).expect("recovered");
    assert_eq!(ok.batch_size, 1);

    // A panicking flush is contained to its batch's tickets too.
    faults::arm(faults::GATEWAY_FLUSH, "nth(1):panic(flush blew up)").expect("arms");
    let err = gateway
        .infer(fp, Tensor::random(c, h, w, Layout::Chw, 72))
        .expect_err("panicked flush fails its batch");
    assert!(matches!(&err, GatewayError::Inference(msg) if msg.contains("panicked")), "got {err}");
    faults::disarm_all();

    // The worker survived the panic and serves on.
    let ok = gateway.infer(fp, Tensor::random(c, h, w, Layout::Chw, 73)).expect("still serving");
    assert_eq!(ok.generation, 0);
    let stats = gateway.stats(fp).expect("registered");
    assert_eq!(stats.admitted, 4);
    assert_eq!(stats.served, 2, "the two poisoned batches failed, the two healthy ones served");
}
