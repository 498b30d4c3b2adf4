//! `pbqp-bench` — the one benchmark spine of pbqp-dnn.
//!
//! ```text
//! pbqp-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>   (the one way to run a workload)
//! pbqp-bench run <name> ... | trace <name> ...                          (the same, spelled --trace 0 | 1)
//! pbqp-bench trace [--seed N] [--seconds S]                             (all five traced, one table)
//! pbqp-bench repeat [--sets 2] [--runs 5] [--workload W] [--seed N] [--seconds S]
//! pbqp-bench compare A.json B.json
//! pbqp-bench manifest                                                   (prints BENCHMARK.json)
//! ```
//! `--quick` stands for `--seconds 2`.
//!
//! One run = one workload in its own process. The human-readable report
//! goes to standard error; the last line of standard output is the result
//! object `{"correct", "attempted", "failed", "metrics"}` — the five
//! end-to-end metrics with `--trace 0`, every per-layer metric with
//! `--trace 1`. Exit code 0 only when every op succeeded and every output
//! was correct.

mod alloc;
mod json;
mod layers;
mod load;
mod metrics;
mod report;
mod span;
mod stats;
mod workloads;

use std::process::{Command, ExitCode};
use std::time::Instant;

use pbqp_dnn::cost::host_calibration;
use pbqp_dnn::gemm::arch;

use json::Json;
use load::LoopResult;
use metrics::{Metrics, WorkloadSpec, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use span::Tracer;
use stats::{median, percentile_of, samples_beyond};
use workloads::Workload;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// `setup_s` is the median of cold set-ups, each the first and only thing
/// a child process does, so that what a process pays once (host
/// calibration, ISA dispatch, lazy statics, first-touch pages) is in every
/// sample: `SETUP_CHILDREN.0` of them, and up to `SETUP_CHILDREN.1` while
/// those so far took under `SETUP_CHILDREN_BUDGET_S` together (a 40 ms
/// set-up needs more than three samples to sit still; a 0.8 s one cannot
/// afford more). The run's own set-up comes after them and is not a
/// sample: a process that has just spawned and reaped others is not a
/// fresh one (its set-up usually measured 5-40 % slower than theirs), and
/// a median wants like samples.
const SETUP_CHILDREN: (usize, usize) = (3, 5);
const SETUP_CHILDREN_BUDGET_S: f64 = 0.5;
/// The window of `--quick` smoke runs, in seconds.
const QUICK_SECONDS: u64 = 2;

const USAGE: &str = "usage: pbqp-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
       pbqp-bench trace | repeat | compare A.json B.json | manifest
workloads: googlenet_f32 alexnet_mixed micro_zoo gateway_open_loop compile_ship";

struct Args {
    command: Option<String>,
    positional: Vec<String>,
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    sets: usize,
    runs: usize,
}

fn parse_args(raw: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        command: None,
        positional: Vec::new(),
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        sets: 2,
        runs: 5,
    };
    let mut raw = raw.peekable();
    if raw.peek().is_some_and(|a| !a.starts_with("--")) {
        args.command = raw.next();
    }
    while let Some(arg) = raw.next() {
        let mut value = |what: &str| raw.next().ok_or(format!("{arg} needs {what}"));
        let number = |text: String| {
            text.parse::<u64>().map_err(|_| format!("`{text}` is not a whole number"))
        };
        match arg.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => args.seed = number(value("a number")?)?,
            "--seconds" => args.seconds = number(value("a number")?)?.max(1),
            "--trace" => args.trace = number(value("0 or 1")?)? != 0,
            "--sets" => args.sets = number(value("a number")?)?.max(1) as usize,
            "--runs" => args.runs = number(value("a number")?)?.max(2) as usize,
            "--quick" => args.seconds = QUICK_SECONDS,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => args.positional.push(arg),
        }
    }
    // `run W` and `trace W` are the driver form by another name.
    if let Some(alias @ ("run" | "trace")) = args.command.as_deref() {
        if let Some(workload) = args.positional.pop().or(args.workload.take()) {
            args.trace = alias == "trace";
            args.workload = Some(workload);
            args.command = None;
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => return usage_error(&e),
    };
    let outcome = match (args.command.as_deref(), &args.workload) {
        (None, Some(workload)) => run_workload(workload, &args, started),
        (Some("trace"), None) => trace_all(&args),
        // What an end-to-end run starts for its `setup_s` samples.
        (Some("setup"), Some(workload)) => cold_setup(workload, args.seed).map(|(_, seconds)| {
            println!("{seconds}");
            0
        }),
        (Some("repeat"), only) => {
            report::repeat(args.sets, args.runs, args.seconds, args.seed, only.as_deref())
        }
        (Some("compare"), _) => match args.positional.as_slice() {
            [a, b] => report::compare(a, b),
            _ => return usage_error("compare needs two result files"),
        },
        (Some("manifest"), _) => {
            print!("{}", metrics::manifest().pretty());
            Ok(0)
        }
        _ => return usage_error("nothing to do"),
    };
    match outcome {
        Ok(0) => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn usage_error(message: &str) -> ExitCode {
    eprintln!("error: {message}\n{USAGE}");
    ExitCode::from(2)
}

/// One run of one workload: set-up, the timed window (or the traced
/// probes), the oracle check, the report, the result line.
fn run_workload(name: &str, args: &Args, started: Instant) -> Result<i32, String> {
    let spec = spec_of(name)?;
    let (trace, seconds) = (args.trace, args.seconds as f64);
    let (mut result, metrics, mut workload) = if trace {
        traced(spec, args.seed, seconds, started)?
    } else {
        end_to_end(spec, args.seed, seconds)?
    };
    // After the measurement, so the oracle's time and memory are in no
    // metric.
    if let Err(e) = workload.check_oracle() {
        result.attempted += 1;
        result.fail(format!("oracle check: {e}"));
    }
    drop(workload);

    let correct = result.failed == 0 && result.attempted > 0;
    print_report(spec, args, trace, &result, &metrics);
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(result.attempted as f64)),
            ("failed", Json::Num(result.failed as f64)),
            ("metrics", metrics.to_json()),
        ])
        .compact()
    );
    Ok(i32::from(!correct))
}

fn spec_of(name: &str) -> Result<&'static WorkloadSpec, String> {
    metrics::workload(name).ok_or_else(|| format!("unknown workload `{name}`\n{USAGE}"))
}

/// Sets the workload up, as the first thing this process does with the
/// library, and times it.
fn cold_setup(name: &str, seed: u64) -> Result<(Workload, f64), String> {
    let start = Instant::now();
    let workload = Workload::setup(spec_of(name)?, seed, &mut Tracer::off())?;
    Ok((workload, start.elapsed().as_secs_f64()))
}

/// The same in a child process, which prints its seconds and exits.
fn cold_setup_in_child(name: &str, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["setup", "--workload", name, "--seed", &seed.to_string()])
        .output()
        .map_err(|e| format!("could not start a set-up process: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    stdout.trim().parse().map_err(|_| {
        format!("a set-up process failed:\n{}", String::from_utf8_lossy(&output.stderr))
    })
}

/// Tracing off: the cold set-ups, then the timed window.
fn end_to_end(
    spec: &'static WorkloadSpec,
    seed: u64,
    seconds: f64,
) -> Result<(LoopResult, Metrics, Workload), String> {
    let mut setups = Vec::new();
    while setups.len() < SETUP_CHILDREN.0
        || (setups.len() < SETUP_CHILDREN.1 && setups.iter().sum::<f64>() < SETUP_CHILDREN_BUDGET_S)
    {
        setups.push(cold_setup_in_child(spec.name, seed)?);
    }
    let (mut workload, own) = cold_setup(spec.name, seed)?;
    eprintln!("set-ups: {setups:.4?} s in child processes, {own:.4} s here");
    let result = workload.run(seed, seconds);
    let peak_rss_mb = peak_rss_mb()?;

    let mut m = Metrics::new(&END_TO_END);
    m.set("setup_s", median(&mut setups));
    m.set("latency_p50_ms", result.percentile(0.5));
    m.set("latency_tail_ms", result.percentile(spec.tail));
    m.set("throughput_ops_s", load::calm_decile(&result.block_throughputs, true));
    m.set("peak_rss_mb", peak_rss_mb);
    Ok((result, m, workload))
}

/// Tracing on: one set-up, then the layer probes; spans go to
/// `out/trace-<workload>.json`.
fn traced(
    spec: &'static WorkloadSpec,
    seed: u64,
    seconds: f64,
    started: Instant,
) -> Result<(LoopResult, Metrics, Workload), String> {
    let mut t = Tracer::new(true, started);
    let mut workload = t.span("setup", span::NO_REQUEST, |t| Workload::setup(spec, seed, t))?;
    let mut m = Metrics::new(&PER_LAYER);
    let result = layers::traced_run(&mut workload, seed, seconds, &mut m, &mut t)?;
    match layers::write_trace(&t, spec.name) {
        Ok(path) => eprintln!("{} spans -> {}", t.spans().len(), path.display()),
        Err(e) => eprintln!("warning: could not write the trace: {e}"),
    }
    Ok((result, m, workload))
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

fn tool_version(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The human-readable report, on standard error.
fn print_report(spec: &WorkloadSpec, args: &Args, trace: bool, r: &LoopResult, m: &Metrics) {
    let cal = host_calibration();
    eprintln!(
        "host: nproc={} isa={} calibration(f32 {:.0} ns, int8 {:.0} ns, int8 speedup {:.2}) {} git={} seed={}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        arch::active_isa().name(),
        cal.f32_gemm_ns,
        cal.int8_gemm_ns,
        cal.int8_speedup,
        tool_version("rustc", &["--version"]),
        tool_version("git", &["rev-parse", "--short", "HEAD"]),
        args.seed,
    );
    eprintln!(
        "{} ({}, {} s): ops attempted {} succeeded {} failed {}",
        spec.name,
        if trace { "traced" } else { "end to end" },
        args.seconds,
        r.attempted,
        r.succeeded(),
        r.failed
    );
    for e in &r.errors {
        eprintln!("  failed: {e}");
    }
    let n = r.latencies_ms.len();
    if !trace && n > 0 {
        let ladder: Vec<String> = [0.5, 0.8, 0.9, 0.99, 1.0]
            .iter()
            .map(|&p| format!("p{:.0}={:.4}", p * 100.0, percentile_of(&r.latencies_ms, p)))
            .collect();
        eprintln!("  whole-run latency (ms): {}", ladder.join(" "));
    }
    for (spec_m, value) in m.iter() {
        // What stands behind a percentile: "p90: calm decile of 93
        // blocks of 100 ops, 10 beyond in each of 1 lane(s)".
        let support = |p: f64| {
            let blocks = r.percentile_blocks(p).len();
            format!(
                "  (p{:.0}: calm decile of {blocks} block(s) of {} ops, {} beyond in each of {} lane(s))",
                p * 100.0,
                n / blocks,
                samples_beyond(n / blocks / r.lane_count(), p),
                r.lane_count()
            )
        };
        let note = match spec_m.name {
            "latency_p50_ms" => support(0.5),
            "latency_tail_ms" => support(spec.tail),
            "throughput_ops_s" => {
                format!("  (calm decile of {} block(s))", r.block_throughputs.len())
            }
            _ => String::new(),
        };
        eprintln!("  {:50} {:>16.6} {}{note}", spec_m.name, value, spec_m.unit);
    }
}

/// `pbqp-bench trace` with no workload: the traced run of all five, one
/// child process each, as one table (metric rows, workload columns).
fn trace_all(args: &Args) -> Result<i32, String> {
    let mut columns = Vec::new();
    for w in &WORKLOADS {
        eprintln!("tracing {} ...", w.name);
        columns.push(report::child_run(w.name, args.seed, args.seconds, true)?);
    }
    print!("{:50}", "metric");
    WORKLOADS.iter().for_each(|w| print!(" {:>17}", w.name));
    println!();
    for metric in &PER_LAYER {
        print!("{:50}", format!("{} [{}]", metric.name, metric.unit));
        for column in &columns {
            let value = column
                .get("metrics")
                .and_then(|m| m.get(metric.name)?.get("value")?.as_f64())
                .unwrap_or(f64::NAN);
            print!(" {value:>17.4}");
        }
        println!();
    }
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Args {
        parse_args(line.split_whitespace().map(str::to_owned)).unwrap()
    }

    #[test]
    fn run_and_trace_with_a_name_are_the_driver_form() {
        for (alias, driver) in [
            (
                "run micro_zoo --seed 3 --quick",
                "--workload micro_zoo --seed 3 --seconds 2 --trace 0",
            ),
            ("trace --workload micro_zoo", "--workload micro_zoo --trace 1"),
        ] {
            let (a, d) = (parse(alias), parse(driver));
            assert_eq!(a.command, None, "{alias}");
            assert_eq!(
                (a.workload, a.seed, a.seconds, a.trace),
                (d.workload, d.seed, d.seconds, d.trace),
                "{alias}"
            );
        }
        // Without a name, `trace` is the table of all five.
        let all = parse("trace --seed 9");
        assert_eq!((all.command.as_deref(), all.workload, all.seed), (Some("trace"), None, 9));
        assert!(parse_args(["--bogus".to_owned()].into_iter()).is_err());
    }
}
