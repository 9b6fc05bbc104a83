//! The two payload workloads: `payload_small` (one closed-loop caller
//! running each request through the dense, pruned and `defa-accel`
//! backends in turn) and `payload_tiny` (`ServeRuntime::serve` on a
//! three-shard `[dense, pruned, defa-accel]` fleet).

use crate::layers::Layers;
use crate::replay::{
    items, overhead_layers, profile_layers, report_layers, serve_checks, serve_unit, write_spans,
    ServeFleet,
};
use crate::spans::{Recorder, Span, SpanId};
use crate::staged::{self, Work};
use crate::timed::TimedBackend;
use crate::{measure_setup, pins, report_e2e, stats, timed_loop, Res, Run, MIN_TRACED_SAMPLES};
use defa_core::dataflow::{simulate_block, BlockPruning};
use defa_core::{DefaAccelerator, MsgsEngine, MsgsStats};
use defa_model::encoder::run_encoder_from;
use defa_model::workload::{InferenceRequest, RequestGenerator};
use defa_model::MsdaConfig;
use defa_prune::pipeline::{
    run_pruned_encoder_from, run_pruned_encoder_observed_from, PruneSettings,
};
use defa_serve::backend::tensor_digest;
use defa_serve::{
    Backend, BackendKind, ObsConfig, ServeConfig, ServeReport, ServeRuntime, ServeSpec,
};
use std::sync::Arc;
use std::time::Instant;

/// Dense-vs-pruned relative L2 error band of a request's final features.
/// Pruning and INT12 quantization must change the output (above the low
/// edge) without breaking it (below the high edge, the pipeline's own
/// test bound).
const L2_BAND: (f32, f32) = (1e-3, 1.2);

/// Requests per `serve()` call of `payload_tiny`: enough that the
/// seed's draw of scenarios and shards averages out.
const TINY_REQUESTS: usize = 384;
/// Offered load of `payload_tiny`, requests per virtual second: batches
/// of about 8 (the default maximum) form, and nothing drops.
const TINY_LOAD: f64 = 5_000.0;

/// Requests per scenario that `payload_small` cycles through.
const PER_SCENARIO: usize = 16;

/// Where traced replays number their spans' requests from, so they never
/// share an id with a request of a `serve()` call.
const TRACE_ID_BASE: u64 = 1 << 32;

/// The first `per_scenario` request ids of every scenario, interleaved
/// scenario by scenario. A fixed scenario mix keeps the latency
/// distribution's shape the same on every seed, where the generator's
/// own draw would vary it by a few requests.
fn balanced_ids(gen: &RequestGenerator, per_scenario: usize) -> Vec<u64> {
    let n = gen.scenarios().len();
    let mut by_scenario: Vec<Vec<u64>> = vec![Vec::new(); n];
    let mut id = 0;
    while by_scenario.iter().any(|ids| ids.len() < per_scenario) {
        let ids = &mut by_scenario[gen.request_scenario(id)];
        if ids.len() < per_scenario {
            ids.push(id);
        }
        id += 1;
    }
    (0..per_scenario).flat_map(|k| by_scenario.iter().map(move |ids| ids[k])).collect()
}

fn fleet_span(kind: BackendKind) -> &'static str {
    match kind {
        BackendKind::Dense => "serve.backend.dense",
        BackendKind::Pruned => "serve.backend.pruned",
        BackendKind::Accelerator => "serve.backend.accel",
    }
}

/// The accelerator and pruning point the `defa-accel` backend serves with.
fn accel() -> (DefaAccelerator, PruneSettings) {
    (
        DefaAccelerator { measure_fidelity: false, ..DefaAccelerator::paper_default() },
        PruneSettings::paper_defaults(),
    )
}

/// What the traced replay of one request measured and checked.
struct RequestTrace {
    dense: Work,
    pruned: Work,
    point_keep: f64,
    pixel_keep: f64,
    flop_keep: f64,
    cycles: u64,
    conflicts: u64,
    msgs_points: u64,
    energy_pj: f64,
}

/// Replays one request through every compute layer under spans: the
/// library's dense, pruned and accelerator entry points, the staged
/// replays, and the MSGS simulation inside the pruned pipeline's observer
/// hook. Checks each staged replay bit-identical to its library call, the
/// accelerator's features equal to the pruned pipeline's, and the hook's
/// cycle count equal to the accelerator report's.
fn trace_request(
    run: &mut Run,
    gen: &RequestGenerator,
    req: &InferenceRequest,
    id: u64,
    rec: &Recorder,
    root: SpanId,
) -> Res<RequestTrace> {
    let p = Some(root);
    let wl = gen.scenario(req.scenario)?;
    let cfg = wl.config();
    let (accelerator, settings) = accel();

    let lib_dense = rec.time("model.encoder", id, p, || run_encoder_from(wl, &req.fmap))?;
    let staged_span = rec.open("staged.dense", id, p);
    let (dense_out, dense) = staged::dense(wl, &req.fmap, rec, id, staged_span)?;
    rec.close(staged_span);
    run.check(
        "staged dense replay is bit-identical to run_encoder_from",
        dense_out == lib_dense.final_features,
    );

    let lib_pruned =
        rec.time("prune.pipeline", id, p, || run_pruned_encoder_from(wl, &settings, &req.fmap))?;
    let staged_span = rec.open("staged.pruned", id, p);
    let (pruned_out, stats, pruned) =
        staged::pruned(wl, &settings, &req.fmap, rec, id, staged_span)?;
    rec.close(staged_span);
    run.check(
        "staged pruned replay is bit-identical to run_pruned_encoder_from",
        pruned_out == lib_pruned.final_features && stats == lib_pruned.stats,
    );

    let accel_run = rec.time("core.accel_run", id, p, || {
        accelerator.run_workload_from(wl, &req.fmap, &settings)
    })?;
    run.check(
        "defa-accel features equal the pruned pipeline's",
        accel_run.final_features == lib_pruned.final_features,
    );

    // The accelerator's schedule, with each block's MSGS simulation timed
    // inside the pipeline's public observer hook.
    let hook_span = rec.open("core.accel_replay", id, p);
    let engine = MsgsEngine::new(cfg, accelerator.msgs)?;
    let mut counters = defa_arch::EventCounters::new();
    let mut msgs = MsgsStats::default();
    let mut sim_err = None;
    run_pruned_encoder_observed_from(wl, &settings, &req.fmap, |_, out, info| {
        let pruning = BlockPruning {
            point_keep: info.point_mask.keep_fraction(),
            pixel_keep: info.fmap_mask.keep_fraction(),
        };
        let r = rec.time("core.msgs_sim", id, Some(hook_span), || {
            simulate_block(
                cfg,
                &engine,
                &accelerator.pe,
                &out.locations,
                info.point_mask.as_bools(),
                pruning,
                &mut counters,
            )
        });
        match r {
            Ok((s, _)) => msgs.points += s.points,
            Err(e) => sim_err = Some(e),
        }
    })?;
    rec.close(hook_span);
    if let Some(e) = sim_err {
        return Err(e.into());
    }
    let report = &accel_run.report;
    run.check(
        "MSGS replay in the observer hook matches the accelerator's cycles",
        counters.total_cycles() == report.counters.total_cycles()
            && msgs.points == report.msgs.points,
    );
    Ok(RequestTrace {
        dense,
        pruned,
        point_keep: lib_pruned.stats.point_keep_fraction(),
        pixel_keep: lib_pruned.stats.pixel_keep_fraction(),
        flop_keep: 1.0 - lib_pruned.stats.flop_reduction(),
        cycles: report.counters.total_cycles(),
        conflicts: report.msgs.conflicts,
        msgs_points: report.msgs.points,
        energy_pj: report.energy.total_pj(),
    })
}

/// The compute-layer metrics from the spans and per-request traces.
fn compute_layers(run: &mut Run, layers: &mut Layers, spans: &[Span], traces: &[RequestTrace]) {
    layers.span_ms(run, "model.request_gen_ms", spans, "model.request_gen", None);
    layers.span_ms(run, "model.encoder_ms", spans, "model.encoder", None);
    layers.span_ms(run, "prune.pipeline_ms", spans, "prune.pipeline", None);
    layers.span_ms(run, "core.accel_run_ms", spans, "core.accel_run", None);
    layers.span_ms(run, "core.msgs_sim_ms", spans, "core.msgs_sim", None);
    let stages = [
        ("model.attn_probs", "model.attn_probs.dense_ms", "model.attn_probs.pruned_ms"),
        ("tensor.offset_gemm", "tensor.offset_gemm.dense_ms", "tensor.offset_gemm.pruned_ms"),
        ("model.locations", "model.locations.dense_ms", "model.locations.pruned_ms"),
        ("tensor.value_gemm", "tensor.value_gemm.dense_ms", "tensor.value_gemm.pruned_ms"),
        ("model.msgs_sample", "model.msgs_sample.dense_ms", "model.msgs_sample.pruned_ms"),
        ("model.block_update", "model.block_update.dense_ms", "model.block_update.pruned_ms"),
    ];
    for (span, dense, pruned) in stages {
        layers.span_ms(run, dense, spans, span, Some("staged.dense"));
        layers.span_ms(run, pruned, spans, span, Some("staged.pruned"));
    }
    for (span, metric) in [
        ("prune.quantize", "prune.quantize_ms"),
        ("prune.pap_mask", "prune.pap_mask_ms"),
        ("prune.range_clamp", "prune.range_clamp_ms"),
        ("prune.fwp_count", "prune.fwp_count_ms"),
    ] {
        layers.span_ms(run, metric, spans, span, Some("staged.pruned"));
    }
    layers.unattributed_ms(
        run,
        "model.unattributed.dense_ms",
        spans,
        "model.encoder",
        "staged.dense",
    );
    layers.unattributed_ms(run, "prune.unattributed_ms", spans, "prune.pipeline", "staged.pruned");
    let med =
        |f: &dyn Fn(&RequestTrace) -> f64| stats::median(&traces.iter().map(f).collect::<Vec<_>>());
    layers.set("prune.point_keep_frac", med(&|t| t.point_keep));
    layers.set("prune.pixel_keep_frac", med(&|t| t.pixel_keep));
    layers.set("prune.flop_keep_frac", med(&|t| t.flop_keep));
    layers.set("model.points_sampled.dense", med(&|t| t.dense.points_sampled as f64));
    layers.set("model.points_sampled.pruned", med(&|t| t.pruned.points_sampled as f64));
    layers.set("tensor.gemm_macs.dense", med(&|t| t.dense.gemm_macs as f64));
    layers.set("tensor.gemm_macs.pruned", med(&|t| t.pruned.gemm_macs as f64));
    layers.set("tensor.gemm_bytes.dense", med(&|t| t.dense.gemm_bytes as f64));
    layers.set("tensor.gemm_bytes.pruned", med(&|t| t.pruned.gemm_bytes as f64));
    layers.set("core.sim_cycles", med(&|t| t.cycles as f64));
    layers.set("core.bank_conflicts", med(&|t| t.conflicts as f64));
    layers.set("core.msgs_points", med(&|t| t.msgs_points as f64));
    layers.set("core.energy_pj", med(&|t| t.energy_pj));
}

/// Checks on a request's final features shared by both payload
/// workloads: the dense-vs-pruned error band and pruned = `defa-accel`.
fn fidelity_checks(run: &mut Run, gen: &RequestGenerator, id: u64) {
    let r = (|| -> Res<(f32, bool)> {
        let req = gen.request(id);
        let wl = gen.scenario(req.scenario)?;
        let (accelerator, settings) = accel();
        let dense = run_encoder_from(wl, &req.fmap)?.final_features;
        let pruned = run_pruned_encoder_from(wl, &settings, &req.fmap)?.final_features;
        let accel = accelerator.run_workload_from(wl, &req.fmap, &settings)?.final_features;
        Ok((pruned.relative_l2_error(&dense)?, tensor_digest(&pruned) == tensor_digest(&accel)))
    })();
    if let Some((err, same)) = run.op("fidelity check", r) {
        run.say(format!("request {id}: dense-vs-pruned relative L2 error {err:.4}"));
        run.check(
            &format!("dense-vs-pruned relative L2 error {err} in ({}, {})", L2_BAND.0, L2_BAND.1),
            err > L2_BAND.0 && err < L2_BAND.1,
        );
        run.check("pruned digest equals defa-accel digest", same);
    }
}

/// Staged-replay fidelity self-test on one request (outside the traced
/// run, so it holds on untraced runs too).
fn staged_self_test(run: &mut Run, gen: &RequestGenerator, id: u64) {
    let rec = Recorder::new();
    let root = rec.open("request", id, None);
    let r = trace_request(run, gen, &gen.request(id), id, &rec, root);
    run.op("staged replay self-test", r);
}

struct SmallSetup {
    gen: RequestGenerator,
    ids: Vec<u64>,
    fleet: Vec<Arc<dyn Backend>>,
    generator_s: f64,
}

/// Builds request `gen_id` and runs it through the three backends in
/// turn, recording each backend's host ms. With a recorder, the request
/// build and each run are also spans of trace request `id` under `root`.
/// Fails when the pruned and `defa-accel` digests differ.
fn small_unit(
    s: &SmallSetup,
    gen_id: u64,
    times: &mut [Vec<f64>; 3],
    spans: Option<(&Recorder, u64, SpanId)>,
) -> Res<f64> {
    let timed = |name: &'static str, f: &mut dyn FnMut()| match spans {
        Some((rec, id, root)) => rec.time(name, id, Some(root), f),
        None => f(),
    };
    let mut req = None;
    timed("model.request_gen", &mut || req = Some(s.gen.request(gen_id)));
    let req = req.expect("request built");
    let wl = s.gen.scenario(req.scenario)?;
    let mut digests = [0u64; 3];
    for (k, (b, kind)) in s.fleet.iter().zip(BackendKind::all()).enumerate() {
        let t = Instant::now();
        let mut out = None;
        timed(fleet_span(kind), &mut || out = Some(b.run(wl, &req)));
        times[k].push(t.elapsed().as_secs_f64() * 1e3);
        digests[k] = out.expect("backend ran")?.digest;
    }
    if digests[1] != digests[2] {
        return Err(format!(
            "request {gen_id}: pruned digest {:#x} != defa-accel digest {:#x}",
            digests[1], digests[2]
        )
        .into());
    }
    Ok(1.0)
}

/// The per-backend `Backend::run` medians from the spans.
fn backend_layers(run: &mut Run, layers: &mut Layers, spans: &[Span]) {
    for (kind, metric) in BackendKind::all().into_iter().zip([
        "serve.backend.dense_ms_p50",
        "serve.backend.pruned_ms_p50",
        "serve.backend.accel_ms_p50",
    ]) {
        layers.call_p50_ms(run, metric, spans, fleet_span(kind));
    }
}

pub fn small(run: &mut Run, trace: bool) {
    let seed = run.seed;
    let setup = || -> Res<SmallSetup> {
        let t = Instant::now();
        let gen = RequestGenerator::standard(&MsdaConfig::small(), seed)?;
        let generator_s = t.elapsed().as_secs_f64();
        let ids = balanced_ids(&gen, PER_SCENARIO);
        Ok(SmallSetup {
            gen,
            ids,
            fleet: BackendKind::build_fleet(&BackendKind::all()),
            generator_s,
        })
    };
    let Some((setup_s, s)) = measure_setup(run, setup) else { return };

    // Checks on one request per scenario: fidelity band, staged replays,
    // thread invariance and pins.
    let check_ids = &s.ids[..s.gen.scenarios().len()];
    for &id in check_ids {
        fidelity_checks(run, &s.gen, id);
    }
    staged_self_test(run, &s.gen, check_ids[0]);
    let outputs = |threads: usize| -> Res<Vec<defa_serve::BackendOutput>> {
        defa_parallel::with_num_threads(threads, || {
            let mut out = Vec::new();
            for &id in check_ids {
                let req = s.gen.request(id);
                let wl = s.gen.scenario(req.scenario)?;
                for b in &s.fleet {
                    out.push(b.run(wl, &req)?);
                }
            }
            Ok(out)
        })
    };
    if let (Some(n), Some(one)) = (
        run.op("backend runs (nproc threads)", outputs(run.nproc)),
        run.op("backend runs (1 thread)", outputs(1)),
    ) {
        run.check("backend outputs at 1 thread equal those at nproc threads", n == one);
        let fold = n.iter().fold(defa_serve::backend::FNV_OFFSET, |h, o| {
            defa_serve::backend::fnv_fold(h, o.digest)
        });
        pins::check(run, "payload_small.digest", u128::from(fold));
        pins::check(run, "payload_small.cost_ns", n.iter().map(|o| u128::from(o.cost_ns)).sum());
        pins::check(run, "payload_small.energy_pj", n.iter().map(|o| o.energy.total_pj()).sum());
        let (accelerator, settings) = accel();
        let cycles = check_ids.iter().try_fold(0u128, |acc, &id| -> Res<u128> {
            let req = s.gen.request(id);
            let wl = s.gen.scenario(req.scenario)?;
            Ok(acc
                + u128::from(
                    accelerator
                        .run_workload_from(wl, &req.fmap, &settings)?
                        .report
                        .counters
                        .total_cycles(),
                ))
        });
        if let Some(c) = run.op("accelerator cycles", cycles) {
            pins::check(run, "payload_small.accel_cycles", c);
        }
    }

    let window = if trace { run.seconds / 2.0 } else { run.seconds };
    let min = if trace { MIN_TRACED_SAMPLES } else { crate::MIN_SAMPLES };
    let mut times: [Vec<f64>; 3] = Default::default();
    let samples = timed_loop(run, window, min, |_, i| {
        small_unit(&s, s.ids[i as usize % s.ids.len()], &mut times, None)
    });
    if !trace {
        report_e2e(run, &samples, setup_s, "requests through all three backends");
        for (k, name) in ["dense", "pruned", "accel"].iter().enumerate() {
            run.say_quantile(&format!("{name}_ms_p50"), "ms", stats::quantile(&times[k], 0.5));
            run.say_quantile(&format!("{name}_ms_p90"), "ms", stats::quantile(&times[k], 0.9));
        }
        return;
    }

    // Traced: each request under a root span, its three backend runs as
    // spans, then every compute layer replayed under spans.
    let rec = Recorder::new();
    let mut traces = Vec::new();
    let mut e2e_ms = Vec::new();
    let mut traced_times: [Vec<f64>; 3] = Default::default();
    timed_loop(run, window, MIN_TRACED_SAMPLES, |run, i| {
        let gen_id = s.ids[i as usize % s.ids.len()];
        let id = TRACE_ID_BASE + i;
        let root = rec.open("request", id, None);
        let t = Instant::now();
        small_unit(&s, gen_id, &mut traced_times, Some((&rec, id, root)))?;
        e2e_ms.push(t.elapsed().as_secs_f64() * 1e3);
        traces.push(trace_request(run, &s.gen, &s.gen.request(gen_id), id, &rec, root)?);
        rec.close(root);
        Ok(1.0)
    });
    let spans = rec.snapshot();
    let mut layers = Layers::default();
    backend_layers(run, &mut layers, &spans);
    compute_layers(run, &mut layers, &spans, &traces);
    layers.set("model.generator_setup_ms", s.generator_s * 1e3);
    layers.set("parallel.threads", 1.0);
    layers.set("trace.spans", spans.len() as f64);
    let untraced_ms: Vec<f64> = samples.iter().map(|s| s.secs * 1e3).collect();
    overhead_layers(&mut layers, run, &untraced_ms, &e2e_ms);
    write_spans(run, &rec);
    layers.emit(run);
}

fn tiny_fleet(seed: u64, pool: usize) -> Res<ServeFleet> {
    let t = Instant::now();
    let gen = RequestGenerator::standard(&MsdaConfig::tiny(), seed)?;
    let generator_s = t.elapsed().as_secs_f64();
    let runtime = ServeRuntime::with_pool_threads(gen, pool);
    let config = ServeConfig { shards: 3, ..ServeConfig::at_load(TINY_LOAD, TINY_REQUESTS) };
    let fleet = BackendKind::build_fleet(&BackendKind::all());
    Ok(ServeFleet { runtime, fleet, config, generator_s, calibrate_s: 0.0 })
}

pub fn tiny(run: &mut Run, trace: bool) {
    let (seed, pool) = (run.seed, run.pool_threads());
    let Some((setup_s, wl)) = measure_setup(run, || tiny_fleet(seed, pool)) else { return };
    let Some(reference) = serve_checks(run, &wl, |threads| tiny_fleet(seed, threads)) else {
        return;
    };
    run.check("payload_tiny drops nothing", reference.dropped == 0);
    let gen = wl.runtime.generator();
    let ids = balanced_ids(gen, PER_SCENARIO);
    for &id in &ids[..gen.scenarios().len()] {
        fidelity_checks(run, gen, id);
    }
    staged_self_test(run, gen, ids[0]);
    run.say(format!(
        "{} requests/call at {} req/virtual-s on {}: {} batches (mean {:.2}), {} dropped",
        TINY_REQUESTS,
        TINY_LOAD,
        reference.backend,
        reference.batches,
        reference.mean_batch_size(),
        reference.dropped
    ));

    let spec = wl.spec();
    let window = if trace { run.seconds / 2.0 } else { run.seconds };
    let min = if trace { MIN_TRACED_SAMPLES } else { crate::MIN_SAMPLES };
    let samples = timed_loop(run, window, min, |_, _| serve_unit(&wl, &spec, &reference));
    if !trace {
        report_e2e(run, &samples, setup_s, "real-payload requests through ServeRuntime::serve");
        return;
    }

    // Traced: every fleet backend behind the span-recording wrapper, the
    // self-profile on; after each serve() call, one request replayed
    // through every compute layer.
    let rec = Arc::new(Recorder::new());
    let wrapped: Vec<Arc<TimedBackend>> = wl
        .fleet
        .iter()
        .zip(BackendKind::all())
        .map(|(b, kind)| {
            Arc::new(TimedBackend::new(Arc::clone(b), fleet_span(kind), Some(Arc::clone(&rec))))
        })
        .collect();
    let traced_cfg = ServeConfig { obs: ObsConfig::disabled().with_profile(), ..wl.config.clone() };
    let traced_spec = ServeSpec::fleet(
        wrapped.iter().map(|b| Arc::clone(b) as Arc<dyn Backend>).collect(),
        &traced_cfg,
    );
    let mut profiles: Vec<(ServeReport, f64)> = Vec::new();
    let mut serve_ms = Vec::new();
    let mut backend = Vec::new();
    let mut traces = Vec::new();
    timed_loop(run, window, MIN_TRACED_SAMPLES, |run, i| {
        let span = rec.open("serve.call", i, None);
        for w in &wrapped {
            w.set_parent(span);
        }
        let t = Instant::now();
        let r = wl.runtime.serve(&traced_spec);
        serve_ms.push(t.elapsed().as_secs_f64() * 1e3);
        rec.close(span);
        let r = r?;
        backend.push(wrapped.iter().fold(crate::timed::CallStats::default(), |acc, w| {
            let c = w.take();
            crate::timed::CallStats { calls: acc.calls + c.calls, ns: acc.ns + c.ns }
        }));
        if r.digest != reference.digest || r.completed != reference.completed {
            return Err("traced report differs from the reference".into());
        }
        let n = items(&r);
        profiles.push((r, n));
        let id = TRACE_ID_BASE + i;
        let root = rec.open("request", id, None);
        let gen_id = ids[i as usize % ids.len()];
        let req = rec.time("model.request_gen", id, Some(root), || gen.request(gen_id));
        traces.push(trace_request(run, gen, &req, id, &rec, root)?);
        rec.close(root);
        Ok(n)
    });
    let spans = rec.snapshot();
    let selfs = crate::spans::self_times(&spans);
    let mut layers = Layers::default();
    let self_ns: Vec<f64> = spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.name == "serve.call")
        .map(|(_, own)| *own as f64 / TINY_REQUESTS as f64)
        .collect();
    layers.p50(run, "serve.engine_self_ns_per_req", &self_ns);
    let per_call: Vec<f64> = backend.iter().map(|c| c.ns as f64 / c.calls.max(1) as f64).collect();
    layers.p50(run, "serve.backend_ns_per_call", &per_call);
    layers.set("serve.backend_calls", backend.first().map_or(0.0, |c| c.calls as f64));
    report_layers(&mut layers, &reference);
    profile_layers(&mut layers, run, &profiles);
    backend_layers(run, &mut layers, &spans);
    compute_layers(run, &mut layers, &spans, &traces);
    layers.set("model.generator_setup_ms", wl.generator_s * 1e3);
    // The accounting thread plus the pool workers.
    layers.set("parallel.threads", (1 + pool) as f64);
    layers.set("trace.spans", spans.len() as f64);
    let untraced_ms: Vec<f64> = samples.iter().map(|s| s.secs * 1e3).collect();
    overhead_layers(&mut layers, run, &untraced_ms, &serve_ms);
    write_spans(run, &rec);
    layers.emit(run);
}
