//! `serve_scale` — trace-scale throughput of the simulator itself.
//!
//! Every other serving bench measures the *modeled system* (virtual-time
//! latency, energy, drops). This bin measures the *simulator*: how many
//! trace requests the discrete-event engine retires per second of wall
//! clock, at scales where engine overheads dominate — 10M requests by
//! default, 1M under `--quick` (the CI smoke mode).
//!
//! The workload is a diurnal trace served by a payload-free
//! [`ReplayBackend`] (calibrated against the accelerator backend's cost
//! and energy models) on the default FIFO + round-robin + static-fleet
//! policies, so the run exercises the event loop, admission, batching
//! and streamed accounting without materializing a single tensor.
//!
//! Every invocation also asserts the engine's scale contracts directly:
//!
//! * the same trace under a 1-thread and a 4-thread worker pool yields
//!   **equal reports** (full `PartialEq`, digest included);
//! * peak live state is bounded by **in-flight work** (queue capacity
//!   plus one batch per shard) and the event list by the fleet size plus
//!   its two cursors — never by the trace length;
//! * conservation: every request completes or drops.
//!
//! `--sessions` switches to the session engine: chat sessions (3–6
//! iterations, 500 µs mean think time) under EDF with a per-shard state
//! budget of 64 and Poisson prefills at 10% of the fleet's scenario-mean
//! modeled capacity (the shape of perfbench's `sessions_replay`; 20,000
//! sessions reproduce its pins). It measures settled iterations per wall
//! second and asserts pool-size report equality, conservation, the
//! event-list bound and that every completed session settled between
//! `min_len` and `max_len` iterations.
//!
//! Flags (on top of the shared `--seed`):
//!
//! * `--quick` — 1M requests, or 1M sessions with `--sessions` (CI smoke);
//! * `--requests <n>` — explicit trace length (sessions with `--sessions`);
//! * `--sessions` — the session-engine workload above;
//! * `--json` — machine-readable output for the `bench_diff` gate. The
//!   virtual-time fields gate exactly; `sim_req_per_wall_s` (one-shot) or
//!   `sim_iter_per_wall_s` (sessions) gates as a ratcheted floor and
//!   `trace_wall_s` is informational (see `bench_diff --help` text for
//!   the tolerance classes);
//! * `--profile` — run with the wall-clock self-profiler on and print
//!   the per-section table (ns/call and % of loop). Profiling adds two
//!   host-clock reads per section, so the CI floor keeps gating the
//!   unprofiled path; profiled throughput is reported for context only.
//!   One-shot only: the session engine has no profiler probes;
//! * `--profile-out <path>` — write the profile as a standalone JSON
//!   document (the bench-smoke CI artifact); implies `--profile`;
//! * `--profile-baseline <path>` — add a `vs baseline` delta column
//!   against a previously saved `--profile-out` document, making a
//!   before/after comparison one command; implies `--profile`.

use defa_bench::json::{to_document, Json};
use defa_bench::profile::{print_profile, profile_json, read_profile};
use defa_bench::table::print_table;
use defa_bench::RunOptions;
use defa_model::workload::RequestGenerator;
use defa_model::MsdaConfig;
use defa_parallel::with_num_threads;
use defa_serve::loadgen::TraceSchedule;
use defa_serve::{
    ArrivalProcess, Backend, BackendKind, ControlConfig, ControllerKind, ObsConfig, ReplayBackend,
    SchedulerKind, ServeConfig, ServeReport, ServeRuntime, ServeSpec, SessionConfig,
    SessionProfile,
};
use std::sync::Arc;
use std::time::Instant;

const SHARDS: usize = 2;
const MAX_BATCH: usize = 32;
const QUEUE_CAPACITY: usize = 1024;
/// Long control epochs keep the report timeline at trace scale to a few
/// hundred entries — the one report section that grows with virtual
/// time rather than live state.
const EPOCH_US: u64 = 100_000;
/// One simulated diurnal "day" per second of virtual time.
const DIURNAL_PERIOD_US: u64 = 1_000_000;
/// `--sessions`: chat sessions of 3–6 iterations, 500 µs mean think time.
const CHAT: SessionProfile = SessionProfile { min_len: 3, max_len: 6, think_mean_us: 500 };
/// `--sessions`: resident sessions per shard before eviction.
const STATE_BUDGET: usize = 64;
/// `--sessions`: prefill load as a share of one-shot capacity; decode
/// steps add load on top.
const SESSION_LOAD: f64 = 0.1;

type BoxResult<T> = Result<T, Box<dyn std::error::Error>>;

/// Modeled fleet capacity in requests per virtual second from the
/// scenario-mean calibrated cost: full batches plus the dispatch
/// overhead. Unlike a probe of the trace's first requests, it does not
/// depend on the seed, so every seed offers the same session load.
fn scenario_mean_capacity_rps(
    gen: &RequestGenerator,
    replay: &dyn Backend,
    overhead_us: u64,
) -> BoxResult<f64> {
    let n = gen.scenarios().len();
    let mut total_ns = 0.0;
    for i in 0..n {
        total_ns += replay.estimate_cost_ns(gen.scenario(i)?) as f64;
    }
    let batch_ns = overhead_us as f64 * 1e3 + MAX_BATCH as f64 * total_ns / n as f64;
    Ok(MAX_BATCH as f64 / batch_ns * 1e9 * SHARDS as f64)
}

/// The `--sessions` workload over `n_sessions` sessions.
fn run_sessions_once(
    seed: u64,
    n_sessions: usize,
    threads: usize,
) -> BoxResult<(ServeReport, f64)> {
    with_num_threads(threads, || {
        let gen = RequestGenerator::standard(&MsdaConfig::tiny(), seed)?;
        let runtime = ServeRuntime::with_pool_threads(gen, threads);
        let replay: Arc<dyn Backend> = Arc::new(ReplayBackend::calibrated(
            runtime.generator(),
            BackendKind::Accelerator.build(),
        )?);
        let base = ServeConfig::at_load(1.0, n_sessions);
        let capacity = scenario_mean_capacity_rps(
            runtime.generator(),
            replay.as_ref(),
            base.batch_overhead_us,
        )?;
        let cfg = ServeConfig {
            offered_load: capacity * SESSION_LOAD,
            queue_capacity: QUEUE_CAPACITY,
            max_batch: MAX_BATCH,
            shards: SHARDS,
            scheduler: SchedulerKind::Edf,
            control: ControlConfig {
                epoch_us: EPOCH_US,
                max_shards: 0,
                controller: ControllerKind::NoOp,
            },
            outcome_capture: 64,
            sessions: SessionConfig { profile: CHAT, state_budget: STATE_BUDGET, gang: false },
            ..base
        };
        let wall = Instant::now();
        let report = runtime.serve(&ServeSpec::homogeneous(&replay, &cfg))?;
        Ok((report, wall.elapsed().as_secs_f64()))
    })
}

/// `--sessions`: runs, asserts and prints the session-engine workload.
fn sessions_main(seed: u64, n_sessions: usize, json: bool) -> BoxResult<()> {
    let (r1, wall1) = run_sessions_once(seed, n_sessions, 1)?;
    let (r4, wall4) = run_sessions_once(seed, n_sessions, 4)?;
    assert_eq!(r1, r4, "ServeReport differs across worker-pool sizes");
    assert_eq!(r1.completed + r1.dropped, n_sessions as u64, "conservation");
    assert!(
        r1.live.peak_events as usize <= SHARDS + 2,
        "peak event-list depth {} exceeds fleet ({SHARDS}) + boundary/arrival cursors",
        r1.live.peak_events
    );
    let (lo, hi) = (u64::from(CHAT.min_len), u64::from(CHAT.max_len));
    assert!(
        (lo * r1.completed..=hi * r1.completed).contains(&r1.iterations),
        "{} iterations for {} completed sessions of {lo}-{hi} iterations",
        r1.iterations,
        r1.completed
    );
    let trace_wall_s = wall1.min(wall4);
    let sim_iter_per_wall_s = r1.iterations as f64 / trace_wall_s;

    if json {
        let doc = Json::obj([
            ("bench", Json::str("serve_scale_sessions")),
            ("seed", Json::uint(seed as u128)),
            ("sessions", Json::uint(n_sessions as u128)),
            ("profile", Json::str(format!("chat {}-{}", CHAT.min_len, CHAT.max_len))),
            ("think_mean_us", Json::uint(CHAT.think_mean_us as u128)),
            ("scheduler", Json::str(SchedulerKind::Edf.name())),
            ("state_budget", Json::uint(STATE_BUDGET as u128)),
            ("backend", Json::str(r1.backend.clone())),
            ("shards", Json::uint(SHARDS as u128)),
            ("max_batch", Json::uint(MAX_BATCH as u128)),
            ("queue_capacity", Json::uint(QUEUE_CAPACITY as u128)),
            ("completed", Json::uint(r1.completed as u128)),
            ("dropped", Json::uint(r1.dropped as u128)),
            ("slo_violations", Json::uint(r1.slo_violations as u128)),
            ("iterations", Json::uint(r1.iterations as u128)),
            ("evictions", Json::uint(r1.evictions as u128)),
            ("batches", Json::uint(r1.batches as u128)),
            ("makespan_ns", Json::uint(r1.makespan_ns as u128)),
            ("energy_total_pj", Json::uint(r1.energy.total_pj())),
            ("digest", Json::str(format!("{:#018x}", r1.digest))),
            ("peak_inflight", Json::uint(r1.live.peak_inflight as u128)),
            ("peak_events", Json::uint(r1.live.peak_events as u128)),
            ("peak_reorder", Json::uint(r1.live.peak_reorder as u128)),
            ("sim_iter_per_wall_s", Json::num(sim_iter_per_wall_s)),
            ("trace_wall_s", Json::num(trace_wall_s)),
        ]);
        print!("{}", to_document(&doc));
        return Ok(());
    }

    println!(
        "serve_scale --sessions: {n_sessions} chat sessions ({}-{} iterations, {} us think) \
         under EDF, state budget {STATE_BUDGET}/shard ({} replaying defa-accel cost/energy \
         models)",
        CHAT.min_len, CHAT.max_len, CHAT.think_mean_us, r1.backend,
    );
    println!(
        "  virtual     : {:.2} s makespan, {} completed / {} dropped, {} iterations, \
         {} evictions, {} batches",
        r1.makespan_ns as f64 / 1e9,
        r1.completed,
        r1.dropped,
        r1.iterations,
        r1.evictions,
        r1.batches,
    );
    println!(
        "  live state  : peak in-flight {}, peak events {} (<= {}), peak reorder {}",
        r1.live.peak_inflight,
        r1.live.peak_events,
        SHARDS + 2,
        r1.live.peak_reorder,
    );
    println!(
        "  simulator   : {:.2} s wall ({:.2} s @ 1 thread, {:.2} s @ 4) = {:.2} M iterations/s; \
         reports byte-identical across pool sizes",
        trace_wall_s,
        wall1,
        wall4,
        sim_iter_per_wall_s / 1e6,
    );
    Ok(())
}

fn run_once(
    seed: u64,
    n_requests: usize,
    threads: usize,
    profile: bool,
) -> BoxResult<(ServeReport, f64)> {
    with_num_threads(threads, || {
        let gen = RequestGenerator::standard(&MsdaConfig::tiny(), seed)?;
        let runtime = ServeRuntime::with_pool_threads(gen, threads);
        let replay: Arc<dyn Backend> = Arc::new(ReplayBackend::calibrated(
            runtime.generator(),
            BackendKind::Accelerator.build(),
        )?);
        let base = ServeConfig::at_load(1.0, n_requests);
        // Offer 80% of the fleet's modeled capacity: busy enough that
        // batches run deep, with headroom so the diurnal peaks — not the
        // baseline — are what pushes the queue.
        let capacity =
            runtime.modeled_capacity_rps(&replay, SHARDS, MAX_BATCH, base.batch_overhead_us)?;
        let offered = capacity * 0.8;
        let cfg = ServeConfig {
            arrival: ArrivalProcess::Trace(TraceSchedule::diurnal(DIURNAL_PERIOD_US)),
            queue_capacity: QUEUE_CAPACITY,
            max_batch: MAX_BATCH,
            shards: SHARDS,
            control: ControlConfig {
                epoch_us: EPOCH_US,
                max_shards: 0,
                controller: ControllerKind::NoOp,
            },
            // The aggregates are exact for the whole trace; keep only a
            // token debug capture.
            outcome_capture: 64,
            obs: if profile { ObsConfig::disabled().with_profile() } else { ObsConfig::disabled() },
            ..ServeConfig::at_load(offered, n_requests)
        };
        let wall = Instant::now();
        let report = runtime.serve(&ServeSpec::homogeneous(&replay, &cfg))?;
        Ok((report, wall.elapsed().as_secs_f64()))
    })
}

fn main() -> BoxResult<()> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = RunOptions::parse(args.iter().cloned());
    let quick = args.iter().any(|a| a == "--quick");
    let json = args.iter().any(|a| a == "--json");
    let mut n_requests = if quick { 1_000_000 } else { 10_000_000 };
    let mut profile = args.iter().any(|a| a == "--profile");
    let mut profile_out: Option<String> = None;
    let mut profile_baseline: Option<String> = None;
    for w in args.windows(2) {
        match w[0].as_str() {
            "--requests" => n_requests = w[1].parse().unwrap_or(n_requests),
            "--profile-out" => profile_out = Some(w[1].clone()),
            "--profile-baseline" => profile_baseline = Some(w[1].clone()),
            _ => {}
        }
    }
    profile |= profile_out.is_some() || profile_baseline.is_some();
    if args.iter().any(|a| a == "--sessions") {
        if profile {
            return Err(
                "--profile is one-shot only: the session engine has no profiler probes".into()
            );
        }
        return sessions_main(opts.seed, n_requests, json);
    }

    // Thread-count invariance, asserted in-process on every invocation.
    // (The self-profile is wall clock and excluded from report equality.)
    let (r1, wall1) = run_once(opts.seed, n_requests, 1, profile)?;
    let (r4, wall4) = run_once(opts.seed, n_requests, 4, profile)?;
    assert_eq!(r1, r4, "ServeReport differs across worker-pool sizes");

    // Live state is bounded by in-flight work, never trace length.
    let fleet = r1.config.control.fleet_size(r1.config.shards);
    let inflight_bound = (r1.config.queue_capacity + fleet * r1.config.max_batch) as u64;
    assert!(
        r1.live.peak_inflight <= inflight_bound,
        "peak in-flight {} exceeds the queue + one-batch-per-shard bound {inflight_bound}",
        r1.live.peak_inflight
    );
    assert!(
        r1.live.peak_events as usize <= fleet + 2,
        "peak event-list depth {} exceeds fleet ({fleet}) + boundary/arrival cursors",
        r1.live.peak_events
    );
    assert_eq!(r1.completed + r1.dropped, n_requests as u64, "conservation");

    // The wall-clock metric takes the better of the two runs: both
    // simulate the identical trace, so the delta is host noise.
    let trace_wall_s = wall1.min(wall4);
    let sim_req_per_wall_s = n_requests as f64 / trace_wall_s;

    // Profile artifacts: the 1-thread run's section totals (the pool
    // size only affects exec submission, not the instrumented loop).
    if let Some(path) = &profile_out {
        let doc = profile_json("serve_scale_profile", n_requests, &r1.obs.profile);
        std::fs::write(path, to_document(&doc))?;
    }

    if json {
        let doc = Json::obj([
            ("bench", Json::str("serve_scale")),
            ("seed", Json::uint(opts.seed as u128)),
            ("requests", Json::uint(n_requests as u128)),
            ("trace", Json::str("diurnal")),
            ("backend", Json::str(r1.backend.clone())),
            ("shards", Json::uint(SHARDS as u128)),
            ("max_batch", Json::uint(MAX_BATCH as u128)),
            ("queue_capacity", Json::uint(QUEUE_CAPACITY as u128)),
            ("epoch_us", Json::uint(EPOCH_US as u128)),
            ("completed", Json::uint(r1.completed as u128)),
            ("dropped", Json::uint(r1.dropped as u128)),
            ("slo_violations", Json::uint(r1.slo_violations as u128)),
            ("batches", Json::uint(r1.batches as u128)),
            ("makespan_ns", Json::uint(r1.makespan_ns as u128)),
            ("energy_total_pj", Json::uint(r1.energy.total_pj())),
            ("digest", Json::str(format!("{:#018x}", r1.digest))),
            ("peak_inflight", Json::uint(r1.live.peak_inflight as u128)),
            ("peak_events", Json::uint(r1.live.peak_events as u128)),
            ("peak_reorder", Json::uint(r1.live.peak_reorder as u128)),
            ("epochs_stepped", Json::uint(r1.live.epochs_stepped as u128)),
            ("epochs_skipped", Json::uint(r1.live.epochs_skipped as u128)),
            ("sim_req_per_wall_s", Json::num(sim_req_per_wall_s)),
            ("trace_wall_s", Json::num(trace_wall_s)),
        ]);
        print!("{}", to_document(&doc));
        return Ok(());
    }

    println!(
        "serve_scale: {} requests over a diurnal trace ({} replaying defa-accel \
         cost/energy models)",
        n_requests, r1.backend,
    );
    println!(
        "  virtual     : {:.2} s makespan, {} completed / {} dropped, {} batches",
        r1.makespan_ns as f64 / 1e9,
        r1.completed,
        r1.dropped,
        r1.batches,
    );
    let live_rows: Vec<Vec<String>> = vec![
        vec![
            "peak in-flight".into(),
            r1.live.peak_inflight.to_string(),
            format!("<= {inflight_bound} (queue + one batch/shard)"),
        ],
        vec![
            "peak events".into(),
            r1.live.peak_events.to_string(),
            format!("<= {} (fleet + 2 cursors)", fleet + 2),
        ],
        vec!["peak reorder".into(), r1.live.peak_reorder.to_string(), "scheduler fairness".into()],
        vec!["epochs stepped".into(), r1.live.epochs_stepped.to_string(), "-".into()],
        vec![
            "epochs skipped".into(),
            r1.live.epochs_skipped.to_string(),
            "quiescent skip-ahead".into(),
        ],
    ];
    print_table(
        "Engine live state (high-water marks, bounded by in-flight work)",
        &["metric", "value", "bound"],
        &live_rows,
    );
    if profile {
        let baseline = match &profile_baseline {
            Some(path) => Some(read_profile(&std::fs::read_to_string(path)?)?),
            None => None,
        };
        print_profile(
            "Engine self-profile (host wall clock, 1-thread run)",
            &r1.obs.profile,
            baseline.as_deref(),
        );
        if let Some(path) = &profile_out {
            println!("  profile     : written to {path}");
        }
    }
    println!(
        "  simulator   : {:.2} s wall ({:.2} s @ 1 thread, {:.2} s @ 4) = {:.2} Mreq/s; \
         reports byte-identical across pool sizes",
        trace_wall_s,
        wall1,
        wall4,
        sim_req_per_wall_s / 1e6,
    );
    Ok(())
}
