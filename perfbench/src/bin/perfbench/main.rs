//! `perfbench` — the end-to-end and per-layer benchmark of the DEFA
//! serving engine and compute stack.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <oneshot_replay|sessions_replay|payload_small|payload_tiny> \
//!     [--seed 42] [--seconds 25] [--trace 0|1]
//! ```
//!
//! With `--trace 0` the run times the workload untraced and reports the
//! end-to-end metrics; with `--trace 1` it times it untraced for half the
//! window and traced for the other half, and reports the per-layer metrics
//! plus the gap between the two (tracing overhead). Every run checks the
//! workload's outputs first. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`. See
//! `perfbench/README.md` for the metric tables and why each workload
//! exists.

mod layers;
mod payload;
mod pins;
mod replay;
mod spans;
mod staged;
mod stats;
mod timed;

use std::time::Instant;

pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// The workload seed when none is given.
pub const DEFAULT_SEED: u64 = 42;

/// Samples a timed loop collects at least, even past its window: enough
/// for a p90 with ten samples beyond it.
pub const MIN_SAMPLES: usize = 100;

/// Samples a traced loop collects at least: enough for a median with ten
/// samples beyond it.
pub const MIN_TRACED_SAMPLES: usize = 20;

/// Times each workload's set-up is repeated; `setup_s` is the median.
pub const SETUP_REPS: usize = 31;

pub const WORKLOADS: [&str; 4] =
    ["oneshot_replay", "sessions_replay", "payload_small", "payload_tiny"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: DEFAULT_SEED, seconds: 25.0, trace: false };
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err(format!("--seconds {value}: must be positive"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {}", WORKLOADS.join(", ")));
    }
    Ok(args)
}

/// What one run observed: checks, timed operations and metrics.
pub struct Run {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    /// `std::thread::available_parallelism` of the host.
    pub nproc: usize,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Run {
    /// Pool workers of a payload `serve` runtime: with the accounting
    /// thread they make nproc threads.
    pub fn pool_threads(&self) -> usize {
        self.nproc.saturating_sub(1).max(1)
    }

    /// Records a check; failures are printed.
    pub fn check(&mut self, name: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            println!("[{}] check FAILED: {name}", self.workload);
        }
    }

    /// Records an operation that returned `Result`; errors are printed.
    pub fn op<T>(&mut self, what: &str, r: Res<T>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                println!("[{}] {what} failed: {e}", self.workload);
                None
            }
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Prints a human-readable line.
    pub fn say(&self, line: impl AsRef<str>) {
        println!("[{}] {}", self.workload, line.as_ref());
    }

    /// Prints a percentile with its sample count, or the refusal.
    pub fn say_quantile(&self, name: &str, unit: &str, q: Option<stats::Quantile>) {
        match q {
            Some(q) => self.say(format!(
                "{name} = {:.4} {unit} (n={}, {} beyond)",
                q.value, q.samples, q.beyond
            )),
            None => self.say(format!(
                "{name}: refused, fewer than {} samples beyond it",
                stats::MIN_BEYOND
            )),
        }
    }
}

/// Times `setup` [`SETUP_REPS`] times; returns the median seconds and the
/// last value built.
pub fn measure_setup<T>(run: &mut Run, mut setup: impl FnMut() -> Res<T>) -> Option<(f64, T)> {
    let mut secs = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let built = setup();
        secs.push(t.elapsed().as_secs_f64());
        last = Some(run.op("set-up", built)?);
    }
    Some((stats::median(&secs), last.expect("SETUP_REPS > 0")))
}

/// One timed call: its host seconds and the work items it completed.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub secs: f64,
    pub items: f64,
}

/// Calls `unit` until `seconds` have passed and at least `min_samples`
/// calls were made (giving up at four times the window); each call may
/// record checks on the run and returns the work items it completed.
/// Failed calls are counted and leave no sample.
pub fn timed_loop(
    run: &mut Run,
    seconds: f64,
    min_samples: usize,
    mut unit: impl FnMut(&mut Run, u64) -> Res<f64>,
) -> Vec<Sample> {
    let mut samples = Vec::new();
    let start = Instant::now();
    let mut i = 0u64;
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= seconds && samples.len() >= min_samples || elapsed >= 4.0 * seconds {
            break;
        }
        let t = Instant::now();
        let r = unit(run, i);
        let secs = t.elapsed().as_secs_f64();
        if let Some(items) = run.op("timed call", r) {
            samples.push(Sample { secs, items });
        }
        i += 1;
    }
    samples
}

/// Reports the end-to-end metrics from an untraced loop: throughput as
/// the items completed over the loop's summed call time, and per-call
/// latency percentiles.
pub fn report_e2e(run: &mut Run, samples: &[Sample], setup_s: f64, item: &str) {
    let items: f64 = samples.iter().map(|s| s.items).sum();
    let secs: f64 = samples.iter().map(|s| s.secs).sum();
    let ms: Vec<f64> = samples.iter().map(|s| s.secs * 1e3).collect();
    let (p50, p90) = (stats::quantile(&ms, 0.5), stats::quantile(&ms, 0.9));
    let throughput = items / secs;
    run.say(format!(
        "throughput_per_s = {throughput:.4} 1/s ({items} {item} in {secs:.3} s over {} calls)",
        samples.len()
    ));
    run.say_quantile("latency_ms_p50 (per timed call)", "ms", p50);
    run.say_quantile("latency_ms_p90 (per timed call)", "ms", p90);
    run.say(format!("setup_s = {setup_s:.6} s (median of {SETUP_REPS})"));
    let mut put = |name: &str, q: Option<stats::Quantile>, unit| match q {
        Some(q) => run.metric(name, q.value, unit),
        None => run.check(&format!("{name} has ten samples beyond it"), false),
    };
    put("latency_ms_p50", p50, "ms");
    put("latency_ms_p90", p90, "ms");
    run.metric("throughput_per_s", throughput, "1/s");
    run.metric("setup_s", setup_s, "s");
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workload = WORKLOADS.into_iter().find(|w| *w == args.workload).expect("validated");
    let mut run = Run {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        nproc,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };
    run.say(format!(
        "seed {} | {} s | trace {} | nproc {nproc}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    ));
    // The timed loops run the compute helpers on one thread: on a small
    // shared host a second helper thread buys little at these sizes and
    // makes every figure hostage to whatever else runs on the other
    // core. Serve pools add workers up to nproc, and the checks compare
    // reports at 1 and nproc threads.
    defa_parallel::with_num_threads(1, || match workload {
        "oneshot_replay" => replay::oneshot(&mut run, args.trace),
        "sessions_replay" => replay::sessions(&mut run, args.trace),
        "payload_small" => payload::small(&mut run, args.trace),
        "payload_tiny" => payload::tiny(&mut run, args.trace),
        _ => unreachable!("validated workload"),
    });
    if !args.trace {
        if let Some(mb) = run.op("peak RSS read", peak_rss_mb()) {
            run.say(format!("peak_rss_mb = {mb:.3} MiB"));
            run.metric("peak_rss_mb", mb, "MiB");
        }
    }
    run.say(format!("failed/attempted = {}/{}", run.failed, run.attempted));
    let metrics: Vec<String> = run
        .metrics
        .iter()
        .map(|(name, v, unit)| {
            // JSON has no NaN or infinity; a non-finite value is a failure.
            let v = if v.is_finite() { *v } else { 0.0 };
            // Names and units are this program's own constants: nothing to
            // escape.
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let non_finite = run.metrics.iter().filter(|m| !m.1.is_finite()).count() as u64;
    let failed = run.failed + non_finite;
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        run.attempted.max(1),
        metrics.join(", ")
    );
}
