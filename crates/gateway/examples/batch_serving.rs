//! Batched serving through the gateway: one [`Gateway`] serving many
//! concurrent callers, batching only what queues while its workers are
//! busy.
//!
//! A serving process receives many requests for the same model. The
//! compiler pays the PBQP solve once (and memoizes it by artifact
//! fingerprint); the gateway admits requests into a bounded queue, an
//! idle worker serves whatever is queued at once — requests that built
//! up behind a busy worker go as one fused batch — and every ticket is
//! answered by the generation that admitted it, bit-identical to the
//! serial reference, as always.
//!
//! ```sh
//! cargo run --release -p pbqp-dnn-gateway --example batch_serving
//! ```

use std::time::Instant;

use pbqp_dnn::prelude::*;
use pbqp_dnn_gateway::{BatchConfig, Gateway, GatewayError};

fn main() -> Result<(), Error> {
    // The served model: a miniature inception module.
    let net = models::micro_inception();
    let weights = Weights::random(&net, 0x5EED);

    // 1. Compile once; recompiles of a known model are fingerprint-keyed
    //    cache hits.
    let compiler = Compiler::new(CompileOptions::new());
    let t0 = Instant::now();
    let model = compiler.compile(&net, &weights)?;
    let cold_us = t0.elapsed().as_secs_f64() * 1e6;
    let t1 = Instant::now();
    let _again = compiler.compile(&net, &weights)?;
    let warm_us = t1.elapsed().as_secs_f64() * 1e6;
    let (hits, misses) = compiler.cache_stats();
    println!("compile: cold {cold_us:.0} µs, cached {warm_us:.1} µs ({hits} hit / {misses} miss)");
    println!("{}", model.plan());

    // 2. Register the model under its artifact fingerprint. The knobs
    //    are per model: `max_batch` caps how many queued requests one
    //    batch takes, `queue_cap` bounds admission. No request waits for
    //    a batch to fill.
    let gateway = Gateway::with_workers(2);
    let fp = gateway.register_with(&model, BatchConfig::new().with_max_batch(8).with_queue_cap(64));
    println!("registered fingerprint {fp:#018x}");

    // 3. Concurrent callers submit and block on their tickets — requests
    //    that queue behind a busy worker are batched across callers.
    //    Here 4 caller threads each send
    //    16 requests; every response carries its serving provenance.
    let (c, h, w) = net.infer_shapes()?[0];
    let inputs: Vec<Tensor> =
        (0..16).map(|i| Tensor::random(c, h, w, Layout::Chw, 40 + i)).collect();
    let t2 = Instant::now();
    let served: usize = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(|| {
                    inputs
                        .iter()
                        .map(|input| {
                            let ticket = gateway
                                .submit(fp, input.clone())
                                .expect("queue_cap admits this load");
                            ticket.wait().expect("request served")
                        })
                        .count()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("caller panicked")).sum()
    });
    let batch_ms = t2.elapsed().as_secs_f64() * 1e3;
    println!("served {served} requests through the gateway in {batch_ms:.2} ms");

    // 4. The stats ledger says how much batching actually happened: the
    //    batch-size histogram, the full-batch count and exact latency
    //    percentiles — the ledger pbqp-bench's traced `gateway_open_loop`
    //    run reads for `gateway.mean_batch` and `gateway.flush_by_size_share`.
    let stats = gateway.stats(fp).expect("registered");
    println!(
        "batches {} ({} full), mean batch {:.2}, p50 {} µs, p99 {} µs, histogram {:?}",
        stats.batches,
        stats.flushed_by_size,
        stats.mean_batch_size(),
        stats.p50_latency_us,
        stats.p99_latency_us,
        stats.batch_histogram,
    );
    assert_eq!(stats.served, served as u64);
    assert_eq!(stats.rejected, 0);

    // 5. Hot-swap: re-registering the same fingerprint bumps the model
    //    generation with zero dropped requests; every response names the
    //    generation that admitted it.
    let swapped = compiler.compile(&net, &Weights::random(&net, 0xF00D))?;
    assert_eq!(swapped.fingerprint(), fp, "weights do not perturb the fingerprint");
    gateway.register(&swapped);
    let response = gateway.infer(fp, inputs[0].clone()).expect("served by the new generation");
    println!(
        "hot-swapped to generation {} (batch of {}, {} µs)",
        response.generation,
        response.batch_size,
        response.latency.as_micros(),
    );
    assert_eq!(response.generation, 1);

    // 6. Bit-exactness through the gateway: the coalesced path must
    //    match a fresh single-request session of the same generation.
    let reference = swapped.engine().infer(&inputs[0])?;
    assert_eq!(response.output.data(), reference.data());
    println!("gateway output matches the single-request engine bit-for-bit");

    // 7. Backpressure is typed, not silent: past `queue_cap` the gateway
    //    sheds with `Overloaded` instead of buffering unboundedly. The
    //    whole burst is submitted before any ticket is awaited, so it
    //    outruns the one worker.
    let tiny = Gateway::with_workers(1);
    tiny.register_with(&model, BatchConfig::new().with_queue_cap(1).with_max_batch(1));
    let mut admitted = Vec::new();
    let mut sheds = 0;
    for input in &inputs {
        match tiny.submit(fp, input.clone()) {
            Ok(ticket) => admitted.push(ticket),
            Err(GatewayError::Overloaded { queued, limit, .. }) => {
                if sheds == 0 {
                    println!("backpressure: shed with Overloaded ({queued} queued, limit {limit})");
                }
                sheds += 1;
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    for ticket in admitted {
        ticket.wait().expect("admitted requests are served");
    }
    assert!(sheds > 0, "the tiny queue must shed under this burst");
    assert!(gateway.health(fp).expect("registered").is_pristine());
    Ok(())
}
