//! The two replay workloads — `oneshot_replay` and `sessions_replay` —
//! plus the checks and traced metrics every `serve` workload shares.
//!
//! Both replay workloads serve a payload-free fleet: a `ReplayBackend`
//! calibrated to `defa-accel`, two shards of batch 32, queue 1024. No
//! tensor is built, so the engine's event loop, admission, dispatch and
//! settle do all the work.

use crate::layers::Layers;
use crate::spans::Recorder;
use crate::timed::{forwarding_mismatches, CallStats, TimedBackend};
use crate::{measure_setup, pins, report_e2e, stats, timed_loop, Res, Run, MIN_TRACED_SAMPLES};
use defa_model::workload::RequestGenerator;
use defa_model::MsdaConfig;
use defa_serve::loadgen::TraceSchedule;
use defa_serve::{
    ArrivalProcess, Backend, BackendKind, ControlConfig, ControllerKind, ObsConfig, ProfSection,
    ReplayBackend, SchedulerKind, ServeConfig, ServeReport, ServeRuntime, ServeSpec, SessionConfig,
    SessionProfile,
};
use std::sync::Arc;
use std::time::Instant;

const SHARDS: usize = 2;
const MAX_BATCH: usize = 32;
const QUEUE_CAPACITY: usize = 1024;
/// Long control epochs keep the report timeline to a few entries per call.
const EPOCH_US: u64 = 100_000;
/// One simulated diurnal "day" per second of virtual time.
const DIURNAL_PERIOD_US: u64 = 1_000_000;
/// Requests per `serve()` call of `oneshot_replay`: ~0.75 s of virtual
/// time at 80% of modelled capacity, and short enough in host time that a
/// run collects the 100 calls a p90 needs.
const ONESHOT_REQUESTS: usize = 500_000;
/// Sessions per `serve()` call of `sessions_replay`.
const SESSIONS: usize = 20_000;
/// Chat sessions: 3–6 iterations, 500 µs mean think time.
const CHAT: SessionProfile = SessionProfile { min_len: 3, max_len: 6, think_mean_us: 500 };
const STATE_BUDGET: usize = 64;
/// Prefill load of `sessions_replay` as a share of one-shot capacity;
/// decode steps add load on top.
const SESSION_LOAD: f64 = 0.1;

/// One `serve` workload, built by its set-up.
pub struct ServeFleet {
    pub runtime: ServeRuntime,
    pub fleet: Vec<Arc<dyn Backend>>,
    pub config: ServeConfig,
    /// Host seconds the set-up spent building the request generator.
    pub generator_s: f64,
    /// Host seconds spent in `ReplayBackend::calibrated` (0 without one).
    pub calibrate_s: f64,
}

impl ServeFleet {
    pub fn spec(&self) -> ServeSpec {
        ServeSpec::fleet(self.fleet.clone(), &self.config)
    }
}

/// Work items of one report: settled iterations plus shed requests. For
/// the one-shot engine, where every request is one iteration, that is
/// every request of the trace.
pub fn items(report: &ServeReport) -> f64 {
    (report.iterations + report.dropped) as f64
}

/// Modelled capacity of the replay fleet in requests per virtual second:
/// full batches at the scenario-mean calibrated cost plus the dispatch
/// overhead. The scenario mean, unlike a probe of the trace's first
/// requests, does not depend on the seed, so every seed offers the same
/// load.
fn capacity_rps(gen: &RequestGenerator, replay: &dyn Backend, overhead_us: u64) -> Res<f64> {
    let n = gen.scenarios().len();
    let mut total_ns = 0.0;
    for i in 0..n {
        total_ns += replay.estimate_cost_ns(gen.scenario(i)?) as f64;
    }
    let batch_ns = overhead_us as f64 * 1e3 + MAX_BATCH as f64 * total_ns / n as f64;
    Ok(MAX_BATCH as f64 / batch_ns * 1e9 * SHARDS as f64)
}

fn replay_fleet(seed: u64, pool: usize, sessions: bool) -> Res<ServeFleet> {
    let t = Instant::now();
    let gen = RequestGenerator::standard(&MsdaConfig::tiny(), seed)?;
    let generator_s = t.elapsed().as_secs_f64();
    let runtime = ServeRuntime::with_pool_threads(gen, pool);
    let t = Instant::now();
    let replay: Arc<dyn Backend> =
        Arc::new(ReplayBackend::calibrated(runtime.generator(), BackendKind::Accelerator.build())?);
    let calibrate_s = t.elapsed().as_secs_f64();
    let base = ServeConfig::at_load(1.0, 1);
    let capacity = capacity_rps(runtime.generator(), replay.as_ref(), base.batch_overhead_us)?;
    let shape = ServeConfig {
        queue_capacity: QUEUE_CAPACITY,
        max_batch: MAX_BATCH,
        shards: SHARDS,
        arrival: ArrivalProcess::Trace(TraceSchedule::diurnal(DIURNAL_PERIOD_US)),
        control: ControlConfig {
            epoch_us: EPOCH_US,
            max_shards: 0,
            controller: ControllerKind::NoOp,
        },
        outcome_capture: 64,
        ..base
    };
    let config = if sessions {
        ServeConfig {
            offered_load: capacity * SESSION_LOAD,
            n_requests: SESSIONS,
            scheduler: SchedulerKind::Edf,
            arrival: ArrivalProcess::Poisson,
            sessions: SessionConfig { profile: CHAT, state_budget: STATE_BUDGET, gang: false },
            ..shape
        }
    } else {
        // 80% of modelled capacity: batches run deep, and the diurnal
        // peaks push the queue.
        ServeConfig { offered_load: capacity * 0.8, n_requests: ONESHOT_REQUESTS, ..shape }
    };
    let fleet = vec![Arc::clone(&replay); SHARDS];
    Ok(ServeFleet { runtime, fleet, config, generator_s, calibrate_s })
}

/// Checks shared by the `serve` workloads; returns the reference report
/// every timed call must reproduce. `build(threads)` builds the workload
/// with a `threads`-worker pool.
///
/// * conservation: completed + dropped = requests offered;
/// * the reports at 1 thread (helpers and pool) and at nproc threads
///   equal the timed configuration's;
/// * the report with every backend behind the timing wrapper equals the
///   unwrapped one, and the wrapper forwards every `Backend` method;
/// * at the default seed, the modelled outputs equal their pins.
pub fn serve_checks(
    run: &mut Run,
    wl: &ServeFleet,
    build: impl Fn(usize) -> Res<ServeFleet>,
) -> Option<ServeReport> {
    let reference = run.op("serve", wl.runtime.serve(&wl.spec()).map_err(Into::into))?;
    let n = wl.config.n_requests as u64;
    run.check(
        "conservation: completed + dropped = offered",
        reference.completed + reference.dropped == n,
    );
    for threads in [1, run.nproc] {
        let r = defa_parallel::with_num_threads(threads, || -> Res<ServeReport> {
            let at = build(threads)?;
            Ok(at.runtime.serve(&at.spec())?)
        });
        if let Some(r) = run.op(&format!("serve ({threads} threads)"), r) {
            run.check(
                &format!("report at {threads} threads equals the timed report"),
                r == reference,
            );
        }
    }
    let wrapped: Vec<Arc<TimedBackend>> =
        wl.fleet.iter().map(|b| Arc::new(TimedBackend::new(Arc::clone(b), "run", None))).collect();
    let spec = ServeSpec::fleet(
        wrapped.iter().map(|b| Arc::clone(b) as Arc<dyn Backend>).collect(),
        &wl.config,
    );
    if let Some(r) = run.op("serve (wrapped)", wl.runtime.serve(&spec).map_err(Into::into)) {
        run.check("wrapped report equals unwrapped report", r == reference);
    }
    let gen = wl.runtime.generator();
    let req = gen.request(1);
    for (w, inner) in wrapped.iter().zip(&wl.fleet) {
        let r = gen.scenario(req.scenario).map_err(Into::into).and_then(|sc| {
            Ok(forwarding_mismatches(w.as_ref(), inner.as_ref(), req.scenario, sc, &req)?)
        });
        if let Some(bad) = run.op("wrapper forwarding self-test", r) {
            run.check(
                &format!(
                    "wrapper forwards every Backend method ({} differs: {bad:?})",
                    inner.name()
                ),
                bad.is_empty(),
            );
        }
    }
    let w = run.workload;
    pins::check(run, &format!("{w}.digest"), u128::from(reference.digest));
    pins::check(run, &format!("{w}.completed"), u128::from(reference.completed));
    pins::check(run, &format!("{w}.dropped"), u128::from(reference.dropped));
    pins::check(run, &format!("{w}.iterations"), u128::from(reference.iterations));
    pins::check(run, &format!("{w}.evictions"), u128::from(reference.evictions));
    pins::check(run, &format!("{w}.batches"), u128::from(reference.batches));
    pins::check(run, &format!("{w}.makespan_ns"), u128::from(reference.makespan_ns));
    pins::check(run, &format!("{w}.energy_pj"), reference.energy.total_pj());
    Some(reference)
}

/// One untraced timed `serve()` call, checked against the reference.
pub fn serve_unit(wl: &ServeFleet, spec: &ServeSpec, reference: &ServeReport) -> Res<f64> {
    let r = wl.runtime.serve(spec)?;
    if r != *reference {
        return Err(format!("report differs from the reference (digest {:#x})", r.digest).into());
    }
    Ok(items(&r))
}

/// The report-derived `serve.*` metrics.
pub fn report_layers(layers: &mut Layers, r: &ServeReport) {
    layers.set("serve.batches", r.batches as f64);
    layers.set("serve.mean_batch", r.mean_batch_size());
    layers.set("serve.drop_frac", r.drop_fraction());
    layers.set("serve.evictions", r.evictions as f64);
    layers.set("serve.useful_iter_frac", r.iterations as f64 / (r.iterations + r.evictions) as f64);
    layers.set("serve.peak_inflight", r.live.peak_inflight as f64);
    layers.set("serve.peak_events", r.live.peak_events as f64);
}

/// Per traced `serve()` call: the engine's self-profile sections, per
/// work item.
pub fn profile_layers(layers: &mut Layers, run: &mut Run, profiles: &[(ServeReport, f64)]) {
    let names = [
        (ProfSection::EventPop, "serve.event_pop_ns_per_req"),
        (ProfSection::ArrivalPull, "serve.arrival_pull_ns_per_req"),
        (ProfSection::Dispatch, "serve.dispatch_ns_per_req"),
        (ProfSection::Settle, "serve.settle_ns_per_req"),
        (ProfSection::ControllerStep, "serve.controller_step_ns_per_req"),
    ];
    let calls: u64 = profiles.iter().map(|(r, _)| r.obs.profile.total_calls()).sum();
    layers.set("serve.profile_calls", calls as f64 / profiles.len().max(1) as f64);
    if calls == 0 {
        run.say("self-profile: 0 calls (this engine has no profiler probes)");
        return;
    }
    for (section, metric) in names {
        let per_item: Vec<f64> = profiles
            .iter()
            .map(|(r, items)| r.obs.profile.stat(section).wall_ns as f64 / items)
            .collect();
        layers.p50(run, metric, &per_item);
    }
}

/// Tracing overhead: the traced calls' median against the untraced ones'.
pub fn overhead_layers(layers: &mut Layers, run: &mut Run, untraced_ms: &[f64], traced_ms: &[f64]) {
    let (u, t) = (stats::quantile(untraced_ms, 0.5), stats::quantile(traced_ms, 0.5));
    match (u, t) {
        (Some(u), Some(t)) => {
            layers.set("trace.untraced_ms_p50", u.value);
            layers.set("trace.traced_ms_p50", t.value);
            layers.set("trace.overhead_frac", (t.value - u.value) / u.value);
            run.say(format!(
                "tracing overhead = {:+.2}% (traced p50 {:.4} ms, n={}; untraced p50 {:.4} ms, n={})",
                100.0 * (t.value - u.value) / u.value,
                t.value,
                t.samples,
                u.value,
                u.samples
            ));
        }
        _ => run.check("tracing overhead has ten samples beyond each median", false),
    }
    layers.set("trace.samples", traced_ms.len() as f64);
}

fn replay_workload(run: &mut Run, trace: bool, sessions: bool) {
    let (seed, pool) = (run.seed, run.pool_threads());
    let Some((setup_s, wl)) = measure_setup(run, || replay_fleet(seed, pool, sessions)) else {
        return;
    };
    let Some(reference) = serve_checks(run, &wl, |threads| replay_fleet(seed, threads, sessions))
    else {
        return;
    };
    let cfg = &reference.config;
    run.say(format!(
        "{} requests/call, offered {:.0} req/virtual-s, {} shards x batch {}, queue {}, {}: \
         {} completed, {} dropped, {} iterations, {} evictions ({:.1}%)",
        cfg.n_requests,
        cfg.offered_load,
        cfg.shards,
        cfg.max_batch,
        cfg.queue_capacity,
        cfg.scheduler.name(),
        reference.completed,
        reference.dropped,
        reference.iterations,
        reference.evictions,
        100.0 * reference.evictions as f64 / reference.iterations as f64,
    ));
    let spec = wl.spec();
    let window = if trace { run.seconds / 2.0 } else { run.seconds };
    let min = if trace { MIN_TRACED_SAMPLES } else { crate::MIN_SAMPLES };
    let samples = timed_loop(run, window, min, |_, _| serve_unit(&wl, &spec, &reference));
    let item =
        if sessions { "simulated session iterations" } else { "simulated one-shot requests" };
    if !trace {
        report_e2e(run, &samples, setup_s, item);
        return;
    }

    // Traced: the replay backend behind the counting wrapper, the engine's
    // self-profile on, one span per serve() call.
    let rec = Recorder::new();
    let wrapped = Arc::new(TimedBackend::new(Arc::clone(&wl.fleet[0]), "run", None));
    let traced_cfg = ServeConfig { obs: ObsConfig::disabled().with_profile(), ..wl.config.clone() };
    let traced_spec =
        ServeSpec::fleet(vec![Arc::clone(&wrapped) as Arc<dyn Backend>; SHARDS], &traced_cfg);
    let mut profiles: Vec<(ServeReport, f64)> = Vec::new();
    let mut calls: Vec<CallStats> = Vec::new();
    let mut call = 0u64;
    let traced = timed_loop(run, window, MIN_TRACED_SAMPLES, |_, _| {
        let span = rec.open("serve.call", call, None);
        let r = wl.runtime.serve(&traced_spec);
        rec.close(span);
        call += 1;
        let r = r?;
        let stats = wrapped.take();
        if r.digest != reference.digest || r.completed != reference.completed {
            return Err("traced report differs from the reference".into());
        }
        let n = items(&r);
        calls.push(stats);
        profiles.push((r, n));
        Ok(n)
    });
    let spans = rec.snapshot();
    let mut layers = Layers::default();
    let self_ns: Vec<f64> =
        traced.iter().zip(&calls).map(|(s, c)| (s.secs * 1e9 - c.ns as f64) / s.items).collect();
    layers.p50(run, "serve.engine_self_ns_per_req", &self_ns);
    let per_call: Vec<f64> = calls.iter().map(|c| c.ns as f64 / c.calls.max(1) as f64).collect();
    layers.p50(run, "serve.backend_ns_per_call", &per_call);
    layers.set("serve.backend_calls", calls.first().map_or(0.0, |c| c.calls as f64));
    report_layers(&mut layers, &reference);
    profile_layers(&mut layers, run, &profiles);
    layers.set("serve.calibrate_ms", wl.calibrate_s * 1e3);
    layers.set("model.generator_setup_ms", wl.generator_s * 1e3);
    // Payload-free batches run inline on the accounting thread.
    layers.set("parallel.threads", 1.0);
    layers.set("trace.spans", spans.len() as f64);
    let untraced_ms: Vec<f64> = samples.iter().map(|s| s.secs * 1e3).collect();
    let traced_ms: Vec<f64> = traced.iter().map(|s| s.secs * 1e3).collect();
    overhead_layers(&mut layers, run, &untraced_ms, &traced_ms);
    write_spans(run, &rec);
    layers.emit(run);
}

/// Writes the traced run's spans under `perfbench/out/`.
pub fn write_spans(run: &mut Run, rec: &Recorder) {
    let path = std::path::PathBuf::from(format!(
        "perfbench/out/{}-seed{}.spans.jsonl",
        run.workload, run.seed
    ));
    if run.op("write spans", rec.write_jsonl(&path).map_err(Into::into)).is_some() {
        run.say(format!("spans written to {}", path.display()));
    }
}

pub fn oneshot(run: &mut Run, trace: bool) {
    replay_workload(run, trace, false);
}

pub fn sessions(run: &mut Run, trace: bool) {
    replay_workload(run, trace, true);
}
