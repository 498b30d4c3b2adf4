//! The benchmark's contract as data: workloads, end-to-end metrics with
//! their bounds, per-layer metrics. `BENCHMARK.json` is generated from
//! these tables (`pbqp-bench manifest`) and a unit test fails when the
//! committed file and the tables disagree, so the file the driver reads
//! and the names the binary prints cannot drift apart.

use crate::json::Json;

/// How long one run measures, in seconds (`run_seconds`). 114 driver runs
/// plus two ~25 s builds must fit 3420 s; with the slowest workload's
/// fixed costs (three GoogleNet set-ups, the oracle check) a 20 s window
/// keeps every run under 27 s and the whole schedule near 75 % of that.
pub const RUN_SECONDS: u64 = 20;

/// The command the driver runs from the root of a checkout; it appends
/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
pub const COMMAND: [&str; 10] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--bin",
    "pbqp-bench",
    "--",
];

pub const PATHS: [&str; 1] = ["benchmark"];

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct WorkloadSpec {
    pub name: &'static str,
    /// One line: which layers the workload stresses and which it bypasses.
    pub why: &'static str,
    /// The fixed percentile of `latency_tail_ms`. The full-size nets
    /// finish 50-85 ops in a window: the highest of p80 / p85 that keeps
    /// ten of them beyond it. The small-op workloads: p90 — p95 and p99
    /// spread 10-35 % between identical runs here, more than any bound the
    /// driver allows — except `compile_ship`, whose op allocates and frees
    /// tens of MB, so that its upper tail is the virtual machine's
    /// page-fault tail: in a noisy hour its p90 spread 18 %, its p80 9 %.
    pub tail: f64,
    /// Untimed ops at the end of set-up.
    pub warmup_ops: u64,
}

pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "googlenet_f32",
        why: "closed loop, full GoogleNet, f32 library: f32 conv/gemm/fft kernels do >90% of the work, runtime and gateway almost none",
        tail: 0.80,
        warmup_ops: 2,
    },
    WorkloadSpec {
        name: "alexnet_mixed",
        why: "closed loop, full AlexNet, mixed precision: int8 GEMM, quant/dequant edges and memory-bound f32 FC layers; bypasses the gateway",
        tail: 0.85,
        warmup_ops: 2,
    },
    WorkloadSpec {
        name: "micro_zoo",
        why: "closed loop, one sweep over four micro models: kernels are tiny, so runtime's step loop, dispatch and edge conversions dominate",
        tail: 0.90,
        warmup_ops: 16,
    },
    WorkloadSpec {
        name: "gateway_open_loop",
        why: "open loop, Poisson 600 req/s over the micro zoo through Gateway(1 worker): admission, window timer, flush, fused batches, tickets",
        tail: 0.90,
        warmup_ops: 16,
    },
    WorkloadSpec {
        name: "compile_ship",
        why: "closed loop, compile GoogleNet + micro zoo (mixed), save and load the zoo: cost, pbqp, core, Schedule::compile, wire codecs; no kernel runs",
        tail: 0.80,
        warmup_ops: 2,
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Debug)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before it counts as a regression. Each is at
    /// least three times the widest run-to-run spread (interquartile
    /// range over median of ten runs on ten seeds) measured on this host
    /// on any workload — see the README table.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec { name, unit, better, bound }
}

/// The same five on every workload.
pub const END_TO_END: [MetricSpec; 5] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("latency_p50_ms", "ms", Better::Lower, 0.12),
    e2e("latency_tail_ms", "ms", Better::Lower, 0.20),
    e2e("throughput_ops_s", "ops/s", Better::Higher, 0.10),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.10),
];

const fn lo(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec { name, unit, better: Better::Lower, bound: 0.0 }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec { name, unit, better: Better::Higher, bound: 0.0 }
}

/// Per-layer metrics of the traced run; layer = crate name = the part of
/// the name before the first `.`.
///
/// *Host probes* (first block) are measured the same way whatever the
/// workload: a fixed shape or the micro zoo, named by their suffix.
/// Everything after is *workload-scoped*: measured on the models and
/// requests of the workload being traced, and 0 where that workload
/// never reaches the layer (no kernel runs in `compile_ship`; only
/// `gateway_open_loop` has a gateway) — the bypass is the information.
pub const PER_LAYER: [MetricSpec; 77] = [
    // ---- host probes -------------------------------------------------
    hi("gemm.f32_gflops", "GFLOP/s"),
    hi("gemm.int8_gops", "GOP/s"),
    hi("gemm.int8_over_f32_x", "x"),
    hi("tensor.layout_gbps", "GB/s"),
    hi("tensor.quantize_gbps", "GB/s"),
    hi("tensor.dequantize_gbps", "GB/s"),
    hi("cost.int8_speedup_calibrated", "x"),
    hi("cost.pred_meas_spearman.micro_zoo", "rho"),
    lo("pbqp.synthetic_solve_ms", "ms"),
    lo("pbqp.synthetic_bb_steps", "count"),
    lo("runtime.session_infer_ms.micro_alexnet", "ms"),
    lo("runtime.session_infer_ms.micro_mixed", "ms"),
    lo("runtime.session_infer_ms.micro_resnet", "ms"),
    lo("runtime.session_infer_ms.micro_inception", "ms"),
    lo("runtime.fused_batch4_per_item_x.micro_alexnet", "x"),
    lo("runtime.fused_batch4_per_item_x.micro_mixed", "x"),
    lo("runtime.fused_batch4_per_item_x.micro_resnet", "x"),
    lo("runtime.fused_batch4_per_item_x.micro_inception", "x"),
    lo("runtime.session_over_schedule_x.micro_zoo", "x"),
    lo("runtime.step_overhead_us.micro_zoo", "us"),
    lo("runtime.sampler_armed_x.micro_zoo", "x"),
    lo("runtime.allocs_per_infer", "count"),
    lo("autotune.resolve_ms", "ms"),
    lo("autotune.fold_us", "us"),
    lo("autotune.divergence", "ratio"),
    // ---- workload-scoped: serving side ---------------------------------
    lo("primitives.conv_sum_ms", "ms"),
    lo("primitives.op_sum_ms", "ms"),
    lo("primitives.conv_calls", "count"),
    lo("primitives.op_calls", "count"),
    lo("runtime.session_infer_ms", "ms"),
    hi("runtime.steps_sum_over_infer", "ratio"),
    lo("runtime.edge_conversion_share", "share"),
    hi("runtime.wavefront_x", "x"),
    hi("runtime.intra2_x", "x"),
    hi("core.pbqp_vs_sum2d_x", "x"),
    hi("core.pbqp_vs_local_chw_x", "x"),
    hi("core.pbqp_vs_caffe_x", "x"),
    hi("core.pbqp_vs_vendor_x", "x"),
    hi("core.predicted_over_measured", "ratio"),
    hi("cost.pred_over_meas_geomean", "ratio"),
    // ---- workload-scoped: compile side ---------------------------------
    lo("primitives.registry_build_ms", "ms"),
    lo("cost.table_build_ms", "ms"),
    lo("core.plan_ms", "ms"),
    lo("pbqp.solve_us", "us"),
    lo("runtime.schedule_compile_ms", "ms"),
    lo("facade.compile_ms", "ms"),
    lo("artifact.save_ms", "ms"),
    lo("artifact.load_ms", "ms"),
    lo("artifact.bytes", "bytes"),
    lo("pbqp.nodes", "count"),
    lo("pbqp.edges", "count"),
    lo("pbqp.options_total", "count"),
    lo("pbqp.r0", "count"),
    lo("pbqp.r1", "count"),
    lo("pbqp.r2", "count"),
    lo("pbqp.core_nodes", "count"),
    lo("pbqp.bb_steps", "count"),
    lo("core.plan_hash", "hash32"),
    hi("core.int8_layers", "count"),
    lo("core.quant_edges", "count"),
    // ---- workload-scoped: gateway --------------------------------------
    lo("gateway.submit_us_p50", "us"),
    hi("gateway.mean_batch", "count"),
    hi("gateway.flush_by_size_share", "share"),
    lo("gateway.rejected", "count"),
    lo("gateway.reported_p50_ms", "ms"),
    lo("gateway.overhead_p50_ms", "ms"),
    lo("gateway.lateness_p99_ms", "ms"),
    lo("gateway.p99_ms", "ms"),
    lo("gateway.batch1_p50_ms", "ms"),
    lo("gateway.r300.p50_ms", "ms"),
    lo("gateway.r300.p90_ms", "ms"),
    lo("gateway.r900.p50_ms", "ms"),
    lo("gateway.r900.p90_ms", "ms"),
    lo("gateway.r1200.p50_ms", "ms"),
    lo("gateway.r1200.p90_ms", "ms"),
    hi("gateway.max_rate_in_limit_ops_s", "ops/s"),
    // ---- the cost of looking --------------------------------------------
    lo("trace.overhead_x", "x"),
];

/// The metric values of one run, in table order. Starts at 0 for every
/// name; setting a name the table does not declare is a harness bug.
pub struct Metrics {
    table: &'static [MetricSpec],
    values: Vec<f64>,
}

impl Metrics {
    pub fn new(table: &'static [MetricSpec]) -> Metrics {
        Metrics { table, values: vec![0.0; table.len()] }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let ix = self
            .table
            .iter()
            .position(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not declared in metrics.rs"));
        if !value.is_finite() {
            eprintln!("warning: metric `{name}` measured as {value}; reported as 0");
        }
        self.values[ix] = if value.is_finite() { value } else { 0.0 };
    }

    pub fn get(&self, name: &str) -> f64 {
        self.iter().find(|(m, _)| m.name == name).map_or(0.0, |(_, v)| v)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static MetricSpec, f64)> + '_ {
        self.table.iter().zip(self.values.iter().copied())
    }

    /// `{"name": {"value": v, "unit": u}, ...}` — the shape of the result
    /// line's `metrics` member.
    pub fn to_json(&self) -> Json {
        Json::obj(self.iter().map(|(m, v)| {
            (m.name, Json::obj([("value", Json::Num(v)), ("unit", Json::str(m.unit))]))
        }))
    }
}

/// `BENCHMARK.json`, generated from the tables above.
pub fn manifest() -> Json {
    let strings = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    Json::obj([
        ("command", strings(&COMMAND)),
        ("paths", strings(&PATHS)),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn tables_respect_the_driver_limits() {
        let mut names = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name) && names.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}: why too long", w.name);
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(m.name) && names.insert(m.name), "{}", m.name);
            assert!(
                m.unit.len() <= 16
                    && m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}: unit {}",
                m.name,
                m.unit
            );
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(COMMAND.len() <= 32 && manifest().pretty().len() <= 64 * 1024);
    }

    #[test]
    fn committed_benchmark_json_is_the_generated_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(
            Json::parse(&committed).expect("valid JSON") == manifest(),
            "BENCHMARK.json is stale: regenerate it with `pbqp-bench manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn metrics_start_at_zero_and_refuse_undeclared_names() {
        let mut m = Metrics::new(&END_TO_END);
        m.set("setup_s", 0.5);
        m.set("latency_p50_ms", f64::NAN);
        assert_eq!(m.get("setup_s"), 0.5);
        assert_eq!(m.get("latency_p50_ms"), 0.0);
        let json = m.to_json();
        assert!(END_TO_END.iter().all(|spec| json.get(spec.name).is_some()));
        assert_eq!(json.get("setup_s").unwrap().get("unit").unwrap().as_str(), Some("s"));
        assert!(std::panic::catch_unwind(move || m.set("no_such_metric", 1.0)).is_err());
    }
}
