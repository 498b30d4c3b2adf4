//! `repeat` and `compare`: the noise protocol and the regression gate.
//!
//! A *set* is a file of run results (the result lines of `pbqp-bench`
//! runs, one workload each). `compare A B` reads two sets and judges
//! every workload x end-to-end-metric pair on its own row — never an
//! average across workloads. `repeat` produces sets of the same code,
//! alternating between them run by run so that host drift lands on both,
//! and compares them with that same logic: if two sets of identical code
//! differ by more than a bound, the bound (or the metric) is wrong.

use std::path::{Path, PathBuf};
use std::process::Command;

use crate::json::Json;
use crate::metrics::{Better, MetricSpec, END_TO_END, WORKLOADS};
use crate::stats::{iqr_share, median, quartiles};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B improved on A by more than either side's own spread.
    Better,
    /// B is worse than A by more than the metric's bound.
    Worse,
    Unchanged,
    /// The run-to-run spread is wider than the bound: this pair cannot
    /// say "unchanged", so it says nothing.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One workload x metric row of a comparison.
#[derive(Debug)]
pub struct Row {
    pub workload: String,
    pub metric: &'static MetricSpec,
    pub base: f64,
    pub new: f64,
    /// `new / base` — always given with its base.
    pub ratio: f64,
    /// The wider of the two sides' interquartile range over median.
    pub spread: f64,
    pub verdict: Verdict,
}

/// Judges one metric: `a` are the base's values, `b` the change's.
pub fn judge(metric: &'static MetricSpec, workload: &str, a: &[f64], b: &[f64]) -> Row {
    let (base, new) = (median(&mut a.to_vec()), median(&mut b.to_vec()));
    let spread_of = |v: &[f64]| if v.len() >= 2 { iqr_share(v) } else { 0.0 };
    let spread = spread_of(a).max(spread_of(b));
    let change = if base == 0.0 { 0.0 } else { (new - base) / base.abs() };
    let worsening = match metric.better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    let verdict = if spread > metric.bound {
        Verdict::Unresolved
    } else if worsening > metric.bound {
        Verdict::Worse
    } else if -worsening > spread.max(0.01) {
        Verdict::Better
    } else {
        Verdict::Unchanged
    };
    let ratio = if base == 0.0 { 0.0 } else { new / base };
    Row { workload: workload.to_owned(), metric, base, new, ratio, spread, verdict }
}

/// The values of `metric` on `workload` in a set, in run order.
fn values(set: &Json, workload: &str, metric: &str) -> Vec<f64> {
    set.get("runs")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter(|run| run.get("workload").and_then(Json::as_str) == Some(workload))
        .filter_map(|run| run.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Every workload x end-to-end metric present in both sets.
pub fn compare_sets(a: &Json, b: &Json) -> Vec<Row> {
    let mut rows = Vec::new();
    for w in &WORKLOADS {
        for metric in &END_TO_END {
            let (va, vb) = (values(a, w.name, metric.name), values(b, w.name, metric.name));
            if !va.is_empty() && !vb.is_empty() {
                rows.push(judge(metric, w.name, &va, &vb));
            }
        }
    }
    rows
}

pub fn print_rows(rows: &[Row]) {
    println!(
        "{:18} {:17} {:>12} {:>12} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "base", "new", "new/base", "spread", "bound"
    );
    for r in rows {
        println!(
            "{:18} {:17} {:>12.4} {:>12.4} {:>8.4} {:>7.2}% {:>6.0}%  {}",
            r.workload,
            r.metric.name,
            r.base,
            r.new,
            r.ratio,
            r.spread * 100.0,
            r.metric.bound * 100.0,
            r.verdict.as_str()
        );
    }
}

fn read_set(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `pbqp-bench compare A.json B.json`. Exit code 1 when any row is worse.
pub fn compare(a: &str, b: &str) -> Result<i32, String> {
    let rows = compare_sets(&read_set(a)?, &read_set(b)?);
    if rows.is_empty() {
        return Err("the two sets share no workload".to_owned());
    }
    print_rows(&rows);
    Ok(i32::from(rows.iter().any(|r| r.verdict == Verdict::Worse)))
}

/// Runs this binary as a child process for one workload and parses the
/// result line (the last line of its standard output).
pub fn child_run(workload: &str, seed: u64, seconds: u64, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("could not start a child run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or("");
    let mut result = Json::parse(line).map_err(|e| {
        format!(
            "{workload} (seed {seed}) printed no result ({e}); its standard error was:\n{}",
            String::from_utf8_lossy(&output.stderr)
        )
    })?;
    if let Json::Obj(pairs) = &mut result {
        pairs.insert(0, ("seed".to_owned(), Json::Num(seed as f64)));
        pairs.insert(0, ("workload".to_owned(), Json::str(workload)));
    }
    if result.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!(
            "{workload} (seed {seed}) reported failed ops: {line}\n{}",
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    Ok(result)
}

/// `benchmark/out/`, where sets and traces are written (created on demand).
pub fn out_dir() -> Result<PathBuf, String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// `pbqp-bench repeat --sets S --runs R`: S sets of R runs of every
/// selected workload, each run on its own seed, the sets interleaved run
/// by run. Prints each metric's per-set median, quartiles, interquartile
/// spread and (max - min) / median, writes the sets to
/// `out/repeat-<set>.json`, and compares set 0 with every other set.
/// Exit code 1 when two sets of this same code differ by more than a
/// bound.
pub fn repeat(
    sets: usize,
    runs: usize,
    seconds: u64,
    base_seed: u64,
    only: Option<&str>,
) -> Result<i32, String> {
    let workloads: Vec<&str> =
        WORKLOADS.iter().map(|w| w.name).filter(|w| only.is_none_or(|o| o == *w)).collect();
    if workloads.is_empty() {
        return Err(format!("unknown workload `{}`", only.unwrap_or("")));
    }
    let mut results: Vec<Vec<Json>> = vec![Vec::new(); sets];
    for run in 0..runs {
        for (set, bucket) in results.iter_mut().enumerate() {
            for workload in &workloads {
                let seed = base_seed + (run * sets + set) as u64;
                eprintln!("set {set} run {run}: {workload} --seed {seed}");
                bucket.push(child_run(workload, seed, seconds, false)?);
            }
        }
    }
    let dir = out_dir()?;
    let sets_json: Vec<Json> = results
        .into_iter()
        .map(|runs| Json::obj([("seconds", Json::Num(seconds as f64)), ("runs", Json::Arr(runs))]))
        .collect();
    for (i, set) in sets_json.iter().enumerate() {
        let path = dir.join(format!("repeat-{i}.json"));
        std::fs::write(&path, set.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("wrote {}", path.display());
    }

    println!(
        "{:18} {:17} {:>3} {:>12} {:>12} {:>12} {:>8} {:>9} {:>6}",
        "workload", "metric", "set", "q1", "median", "q3", "iqr/med", "range/med", "bound"
    );
    for workload in &workloads {
        for metric in &END_TO_END {
            for (i, set) in sets_json.iter().enumerate() {
                let v = values(set, workload, metric.name);
                if v.len() < 2 {
                    continue;
                }
                let [q1, q2, q3] = quartiles(&v);
                let range = v.iter().copied().fold(f64::MIN, f64::max)
                    - v.iter().copied().fold(f64::MAX, f64::min);
                println!(
                    "{:18} {:17} {:>3} {:>12.4} {:>12.4} {:>12.4} {:>7.2}% {:>8.2}% {:>5.0}%",
                    workload,
                    metric.name,
                    i,
                    q1,
                    q2,
                    q3,
                    iqr_share(&v) * 100.0,
                    range / q2 * 100.0,
                    metric.bound * 100.0
                );
            }
        }
    }
    let mut code = 0;
    for (i, other) in sets_json.iter().enumerate().skip(1) {
        println!("\nset 0 vs set {i} (same code: every row should read unchanged)");
        let rows = compare_sets(&sets_json[0], other);
        print_rows(&rows);
        // Same code on both sides, so a difference beyond the bound in
        // either direction is the benchmark's own noise.
        if rows.iter().any(|r| (r.ratio - 1.0).abs() > r.metric.bound) {
            code = 1;
        }
    }
    Ok(code)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static MetricSpec {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let p50 = metric("latency_p50_ms"); // lower is better
        let steady = [100.0, 100.5, 99.5, 100.2, 99.8];
        let by = |f: f64| steady.map(|v| v * f);
        assert_eq!(
            judge(p50, "w", &steady, &by(1.0 + 0.5 * p50.bound)).verdict,
            Verdict::Unchanged
        );
        assert_eq!(judge(p50, "w", &steady, &by(1.0 + 1.2 * p50.bound)).verdict, Verdict::Worse);
        assert_eq!(judge(p50, "w", &steady, &by(0.90)).verdict, Verdict::Better);
        // Noisier than the bound on either side: no verdict either way.
        let noisy = [80.0, 120.0, 100.0, 90.0, 115.0];
        assert_eq!(judge(p50, "w", &noisy, &by(1.3)).verdict, Verdict::Unresolved);
        assert_eq!(judge(p50, "w", &steady, &noisy).verdict, Verdict::Unresolved);

        let tput = metric("throughput_ops_s"); // higher is better
        assert_eq!(judge(tput, "w", &steady, &by(1.0 - 1.5 * tput.bound)).verdict, Verdict::Worse);
        assert_eq!(judge(tput, "w", &steady, &by(1.10)).verdict, Verdict::Better);
        let row = judge(tput, "w", &steady, &by(1.10));
        assert!((row.ratio - 1.10).abs() < 1e-9 && (row.base - 100.0).abs() < 1e-9);
        // A single run per side has no spread to speak of.
        assert_eq!(judge(p50, "w", &[100.0], &[100.4]).verdict, Verdict::Unchanged);
    }

    #[test]
    fn sets_compare_row_by_row_and_only_where_both_have_runs() {
        let run = |workload: &str, p50: f64| {
            Json::obj([
                ("workload", Json::str(workload)),
                (
                    "metrics",
                    Json::obj([(
                        "latency_p50_ms",
                        Json::obj([("value", Json::Num(p50)), ("unit", Json::str("ms"))]),
                    )]),
                ),
            ])
        };
        let set = |runs: Vec<Json>| Json::obj([("runs", Json::Arr(runs))]);
        let a = set(vec![run("micro_zoo", 2.0), run("micro_zoo", 2.02), run("compile_ship", 66.0)]);
        let b = set(vec![run("micro_zoo", 3.0), run("micro_zoo", 3.02)]);
        let rows = compare_sets(&Json::parse(&a.pretty()).unwrap(), &b);
        assert_eq!(rows.len(), 1, "compile_ship has no runs in B; no other metric is present");
        assert_eq!(rows[0].workload, "micro_zoo");
        assert_eq!(rows[0].verdict, Verdict::Worse);
        assert!((rows[0].ratio - 3.01 / 2.01).abs() < 1e-9);
    }
}
