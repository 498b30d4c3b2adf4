//! Hot-swap under concurrent load: an open loop hammers one model while
//! new generations (same graph and fingerprint, fresh weights) are
//! re-registered underneath it.
//!
//! The contract being drilled:
//!
//! * **zero dropped** — every admitted request is answered exactly once
//!   (tickets are one-shot, so double-serving is structurally counted);
//! * **bit-exact generation matching** — every response is bit-identical
//!   to what the engine of its *admitted* generation produces for that
//!   input, even for requests in flight while the swap landed;
//! * batches never mix generations (implied by the bit-exactness check:
//!   a mixed batch would serve some items with the wrong weights).

use std::time::Duration;

use pbqp_dnn::graph::models;
use pbqp_dnn::prelude::*;
use pbqp_dnn_gateway::{BatchConfig, Gateway};

#[test]
fn responses_stay_bit_exact_to_their_admitted_generation_across_swaps() {
    let net = models::micro_alexnet();
    let (c, h, w) = net.infer_shapes().expect("shapes")[0];

    // Four generations of the same graph: same fingerprint (it hashes
    // the graph/strategy/cost/library, not the weights), different
    // weights — so a response served by the wrong generation is a bit
    // mismatch, not a silent coincidence.
    let generations: Vec<CompiledModel> = (0..4)
        .map(|g| {
            let weights = Weights::random(&net, 0xABC0 + g);
            Compiler::new(CompileOptions::new()).compile(&net, &weights).expect("compiles")
        })
        .collect();
    let fp = generations[0].fingerprint();
    for model in &generations {
        assert_eq!(model.fingerprint(), fp, "weights must not perturb the fingerprint");
    }

    // The input pool and, per generation, each input's expected output.
    let inputs: Vec<Tensor> =
        (0..8).map(|i| Tensor::random(c, h, w, Layout::Chw, 0x900 + i)).collect();
    let expected: Vec<Vec<Tensor>> = generations
        .iter()
        .map(|model| {
            let engine = model.engine();
            inputs.iter().map(|x| engine.infer(x).expect("solo")).collect()
        })
        .collect();

    let gateway = Gateway::with_workers(2);
    gateway
        .register_with(&generations[0], BatchConfig::new().with_max_batch(4).with_queue_cap(4096));

    // Open-loop load from a submitter thread; swaps land from this
    // thread at fixed intervals while requests are in flight.
    let total: usize = 240;
    let tickets = std::thread::scope(|scope| {
        let submitter = scope.spawn(|| {
            (0..total)
                .map(|i| {
                    let ticket = gateway
                        .submit(fp, inputs[i % inputs.len()].clone())
                        .expect("queue_cap is sized to admit the whole drill");
                    std::thread::sleep(Duration::from_micros(250));
                    (i, ticket)
                })
                .collect::<Vec<_>>()
        });
        for model in &generations[1..] {
            std::thread::sleep(Duration::from_millis(15));
            gateway.register(model);
        }
        submitter.join().expect("submitter")
    });

    // Swaps are done; late traffic must be served by the final
    // generation.
    assert_eq!(gateway.generation(fp), Some(3));
    let late = gateway.infer(fp, inputs[0].clone()).expect("serves");
    assert_eq!(late.generation, 3);
    assert_eq!(late.output.data(), expected[3][0].data());

    // Every in-flight response: answered exactly once, bit-identical to
    // the engine of the generation that admitted it.
    let mut served_by_generation = [0u64; 4];
    for (i, ticket) in tickets {
        let response = ticket.wait().expect("no request is dropped across swaps");
        let generation = response.generation as usize;
        served_by_generation[generation] += 1;
        assert_eq!(
            response.output.data(),
            expected[generation][i % inputs.len()].data(),
            "request {i}: response does not match its admitted generation {generation}"
        );
    }
    assert_eq!(served_by_generation.iter().sum::<u64>(), total as u64);
    assert!(
        served_by_generation.iter().filter(|&&n| n > 0).count() >= 2,
        "the drill must actually straddle a swap: {served_by_generation:?}"
    );

    let stats = gateway.stats(fp).expect("registered");
    assert_eq!(stats.admitted, total as u64 + 1);
    assert_eq!(stats.served, total as u64 + 1, "zero dropped, zero double-served");
    assert_eq!(stats.rejected, 0);
    assert_eq!(stats.generation, 3);
    assert!(gateway.health(fp).expect("registered").is_pristine());
}
