//! `perf_ab` — alternating A/B runs of two `perfbench` binaries.
//!
//! Builds nothing: pass two already-built `perfbench` binaries, usually the
//! parent commit's (built in a second checkout) and the change's. Each of
//! `--pairs` pairs runs both on the same workload, seed and window, and
//! the side that runs first flips from one pair to the next, so drift of
//! the host within a pair does not favour one side.
//!
//! ```sh
//! perf_ab --parent ../parent/perfbench/target/release/perfbench \
//!         --change perfbench/target/release/perfbench \
//!         --workload payload_small [--seed 42] [--seconds 25] [--pairs 10] \
//!         [--spec BENCHMARK.json]
//! ```
//!
//! The end-to-end metrics, their better direction and their regression
//! bounds are read from the benchmark spec (`BENCHMARK.json` by default).
//! For each metric it prints each side's median and quartiles, the pairs
//! the change won (ties count for neither side) and a verdict:
//!
//! * `gain` — the change won at least nine tenths of at least ten pairs
//!   and the medians differ, in the better direction, by more than the
//!   parent's interquartile range (`too few pairs` if all but the pair
//!   count holds);
//! * `regression` — the change's median is worse than the parent's by
//!   more than the metric's bound;
//! * `unresolved` — the parent's own interquartile range is wider than
//!   the bound, so "within the bound" cannot be told, and not every run of
//!   the change beat every run of the parent;
//! * `within bound` — otherwise;
//! * `missing` — some run did not report the metric (perfbench refuses a
//!   percentile with fewer than ten samples beyond it).
//!
//! It also prints each side's failed and attempted operations, summed over
//! its runs. Exits non-zero if a run fails to start or does not end in a
//! perfbench JSON line, or if more of the change's operations fail than
//! the parent's. Counts, not shares, are compared: perfbench's attempted
//! count includes every timed call, and the number of timed calls in a
//! window varies from run to run with the host's speed.

use defa_bench::json::{parse, Json};
use std::process::{Command, ExitCode};

fn fail(msg: &str) -> ExitCode {
    eprintln!("perf_ab: {msg}");
    ExitCode::FAILURE
}

/// One end-to-end metric of the benchmark spec.
struct Metric {
    name: String,
    unit: String,
    higher_is_better: bool,
    bound: f64,
}

fn field<'a>(v: &'a Json, key: &str) -> Option<&'a Json> {
    match v {
        Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn number(v: &Json) -> Option<f64> {
    match v {
        Json::Int(i) => Some(*i as f64),
        Json::Num(x) => Some(*x),
        _ => None,
    }
}

fn text(v: &Json) -> Option<&str> {
    match v {
        Json::Str(s) => Some(s),
        _ => None,
    }
}

fn read_spec(path: &str) -> Result<Vec<Metric>, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = parse(&src).map_err(|e| format!("{path}: {e}"))?;
    let Some(Json::Arr(list)) = field(&doc, "end_to_end") else {
        return Err(format!("{path}: no `end_to_end` list"));
    };
    list.iter()
        .map(|m| {
            let get = |k: &str| field(m, k).ok_or_else(|| format!("{path}: metric without `{k}`"));
            Ok(Metric {
                name: text(get("name")?).ok_or("metric name is not a string")?.to_string(),
                unit: text(get("unit")?).unwrap_or("").to_string(),
                higher_is_better: text(get("better")?) == Some("higher"),
                bound: number(get("bound")?).ok_or("metric bound is not a number")?,
            })
        })
        .collect()
}

/// What one perfbench run reported.
struct Run {
    attempted: f64,
    failed: f64,
    /// Each spec metric's value, in spec order; `None` if not reported.
    values: Vec<Option<f64>>,
}

/// Runs one perfbench binary and parses its last line.
fn run_once(bin: &str, args: &[String], spec: &[Metric]) -> Result<Run, String> {
    let out = Command::new(bin).args(args).output().map_err(|e| format!("{bin}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let Some(last) = stdout.lines().rev().find(|l| !l.trim().is_empty()) else {
        return Err(format!("{bin}: no output (status {})", out.status));
    };
    let doc = parse(last).map_err(|e| format!("{bin}: last line is not JSON: {e}"))?;
    let count = |k: &str| {
        field(&doc, k).and_then(number).ok_or_else(|| format!("{bin}: no `{k}` in {last}"))
    };
    let (attempted, failed) = (count("attempted")?, count("failed")?);
    let metrics = field(&doc, "metrics").ok_or_else(|| format!("{bin}: no `metrics`"))?;
    let values = spec
        .iter()
        .map(|m| field(metrics, &m.name).and_then(|v| field(v, "value")).and_then(number))
        .collect();
    Ok(Run { attempted, failed, values })
}

/// Quantile `q` of sorted samples, linearly interpolated.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// `(q1, median, q3)` of a non-empty sample.
fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    (quantile(&s, 0.25), quantile(&s, 0.5), quantile(&s, 0.75))
}

/// Pairs below which no gain is claimed.
const MIN_PAIRS_FOR_GAIN: usize = 10;

fn verdict(m: &Metric, parent: &[f64], change: &[f64]) -> (usize, &'static str) {
    // `gain(a, b)`: how much better `b` is than `a`, in the metric's units.
    let gain = |a: f64, b: f64| if m.higher_is_better { b - a } else { a - b };
    let wins = parent.iter().zip(change).filter(|(a, b)| gain(**a, **b) > 0.0).count();
    let (p1, pmed, p3) = quartiles(parent);
    let (_, cmed, _) = quartiles(change);
    let iqr = p3 - p1;
    let every_run_better = change.iter().all(|&b| parent.iter().all(|&a| gain(a, b) > 0.0));
    let v = if wins * 10 >= parent.len() * 9 && gain(pmed, cmed) > iqr {
        if parent.len() >= MIN_PAIRS_FOR_GAIN {
            "gain"
        } else {
            "too few pairs"
        }
    } else if -gain(pmed, cmed) > m.bound * pmed.abs() {
        "regression"
    } else if iqr > m.bound * pmed.abs() && !every_run_better {
        "unresolved"
    } else {
        "within bound"
    };
    (wins, v)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut parent = None;
    let mut change = None;
    let mut workload = None;
    let mut spec_path = "BENCHMARK.json".to_string();
    let (mut seed, mut seconds, mut pairs) = ("42".to_string(), "25".to_string(), 10usize);
    let mut i = 0;
    while i < args.len() {
        let Some(v) = args.get(i + 1).cloned() else {
            return fail(&format!("{} needs a value", args[i]));
        };
        match args[i].as_str() {
            "--parent" => parent = Some(v),
            "--change" => change = Some(v),
            "--workload" => workload = Some(v),
            "--spec" => spec_path = v,
            "--seed" => seed = v,
            "--seconds" => seconds = v,
            "--pairs" => match v.parse() {
                Ok(n) if n > 0 => pairs = n,
                _ => return fail(&format!("--pairs must be a positive integer, got {v}")),
            },
            other => return fail(&format!("unknown argument {other}")),
        }
        i += 2;
    }
    let (Some(parent), Some(change), Some(workload)) = (parent, change, workload) else {
        return fail("--parent, --change and --workload are required");
    };
    let spec = match read_spec(&spec_path) {
        Ok(s) if !s.is_empty() => s,
        Ok(_) => return fail(&format!("{spec_path}: empty `end_to_end` list")),
        Err(e) => return fail(&e),
    };
    let run_args: Vec<String> = ["--workload", &workload, "--seed", &seed, "--seconds", &seconds]
        .iter()
        .map(|s| s.to_string())
        .chain(["--trace".to_string(), "0".to_string()])
        .collect();

    // runs[side][pair]; side 0 is the parent.
    let mut runs: [Vec<Run>; 2] = [Vec::new(), Vec::new()];
    for pair in 0..pairs {
        let order = if pair % 2 == 0 { [0, 1] } else { [1, 0] };
        for side in order {
            let bin = if side == 0 { &parent } else { &change };
            match run_once(bin, &run_args, &spec) {
                Ok(run) => runs[side].push(run),
                Err(e) => return fail(&e),
            }
        }
        let first = if order[0] == 0 { "parent" } else { "change" };
        let show = |r: &Run| r.values[0].map_or("missing".to_string(), |v| format!("{v:.4}"));
        println!(
            "pair {:>2}/{pairs} ({first} first): {} parent {} change {}",
            pair + 1,
            spec[0].name,
            show(&runs[0][pair]),
            show(&runs[1][pair])
        );
    }

    println!(
        "\n{workload}, seed {seed}, {seconds} s, {pairs} pairs; medians [q1, q3]; \
         wins are the change's"
    );
    println!(
        "{:<18} {:>32} {:>32} {:>8} {:>6}  verdict",
        "metric", "parent", "change", "delta", "wins"
    );
    for (k, m) in spec.iter().enumerate() {
        let side = |s: usize| runs[s].iter().map(|r| r.values[k]).collect::<Option<Vec<f64>>>();
        let (Some(p), Some(c)) = (side(0), side(1)) else {
            println!("{:<18} {:>32} {:>32} {:>8} {:>6}  missing", m.name, "", "", "", "");
            continue;
        };
        let (p1, pmed, p3) = quartiles(&p);
        let (c1, cmed, c3) = quartiles(&c);
        let (wins, v) = verdict(m, &p, &c);
        let delta = if pmed != 0.0 { (cmed - pmed) / pmed.abs() * 100.0 } else { 0.0 };
        println!(
            "{:<18} {:>32} {:>32} {:>+7.1}% {:>3}/{:<2}  {v}",
            m.name,
            format!("{pmed:.4} [{p1:.4}, {p3:.4}] {}", m.unit),
            format!("{cmed:.4} [{c1:.4}, {c3:.4}] {}", m.unit),
            delta,
            wins,
            pairs
        );
    }
    let failed = |s: usize| {
        let (f, a) = runs[s].iter().fold((0.0, 0.0), |(f, a), r| (f + r.failed, a + r.attempted));
        println!("{} failed/attempted = {f}/{a}", ["parent", "change"][s]);
        f
    };
    let (parent_failed, change_failed) = (failed(0), failed(1));
    if change_failed > parent_failed {
        return fail("more of the change's operations fail than the parent's");
    }
    ExitCode::SUCCESS
}
