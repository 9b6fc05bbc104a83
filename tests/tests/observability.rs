//! The observability layer's determinism contract.
//!
//! Everything the `obs` module records is a pure function of the seeded
//! virtual schedule, so:
//!
//! * the exported Chrome trace and the metrics time-series are **byte
//!   identical** across `RAYON_NUM_THREADS`;
//! * they are also invariant to the `outcome_capture` debug cap, which
//!   changes what the report *retains*, never what the engine *does*;
//! * the seeded sampler is exact: the set of traced request ids matches
//!   an externally constructed [`SpanSampler`] id for id, at every rate;
//! * a disabled (default) configuration records nothing — the
//!   zero-overhead path every pre-observability pin runs on;
//! * the bounded span buffer caps deterministically: the kept prefix
//!   and the overflow count are identical across thread counts.

use defa_bench::json::parse;
use defa_model::workload::RequestGenerator;
use defa_model::MsdaConfig;
use defa_parallel::with_num_threads;
use defa_serve::{
    ArrivalProcess, AutoscalerConfig, BackendKind, ControlConfig, ControllerKind, ObsConfig,
    ServeConfig, ServeReport, ServeRuntime, SpanEvent, SpanSampler, TraceSchedule,
};

const MAX_BATCH: usize = 4;
const OVERHEAD_US: u64 = 5;
const SEED: u64 = 42;

fn us_for(requests: f64, rate: f64) -> u64 {
    (requests / rate * 1e6).round().max(1.0) as u64
}

fn serve(
    rt: &ServeRuntime,
    backend: &std::sync::Arc<dyn defa_serve::Backend>,
    cfg: &ServeConfig,
) -> Result<ServeReport, defa_serve::ServeError> {
    rt.serve(&defa_serve::ServeSpec::homogeneous(backend, cfg))
}

/// The 96-request autoscale surge scenario the `serve_obs` bench runs,
/// with the given observability configuration.
fn surge_config(rt: &ServeRuntime, obs: ObsConfig) -> ServeConfig {
    let base = rt
        .modeled_capacity_rps(&BackendKind::Accelerator.build(), 2, MAX_BATCH, OVERHEAD_US)
        .unwrap()
        * 0.5;
    let trace = TraceSchedule::step_surge(us_for(14.0, base), us_for(10.0, base), 8.0);
    ServeConfig {
        queue_capacity: 16,
        max_batch: MAX_BATCH,
        batch_overhead_us: OVERHEAD_US,
        shards: 2,
        arrival: ArrivalProcess::Trace(trace),
        control: ControlConfig {
            epoch_us: us_for(1.0, base),
            max_shards: 8,
            controller: ControllerKind::Autoscaler(AutoscalerConfig {
                min_shards: 2,
                ..AutoscalerConfig::default()
            }),
        },
        obs,
        ..ServeConfig::at_load(base, 96)
    }
}

fn run_with(threads: usize, obs: ObsConfig) -> ServeReport {
    with_num_threads(threads, || {
        let gen = RequestGenerator::standard(&MsdaConfig::tiny(), SEED).unwrap();
        let rt = ServeRuntime::with_pool_threads(gen, threads);
        let cfg = surge_config(&rt, obs);
        serve(&rt, &BackendKind::Accelerator.build(), &cfg).unwrap()
    })
}

#[test]
fn trace_and_metrics_are_byte_identical_across_thread_counts() {
    let r1 = run_with(1, ObsConfig::full());
    let r4 = run_with(4, ObsConfig::full());
    assert_eq!(r1, r4, "full reports must match across pool sizes");
    assert_eq!(r1.obs.events, r4.obs.events, "span streams must match event for event");
    assert_eq!(r1.obs.chrome_trace(), r4.obs.chrome_trace(), "Chrome trace bytes must match");
    let m1 = r1.obs.metrics.as_ref().expect("metrics on");
    let m4 = r4.obs.metrics.as_ref().expect("metrics on");
    assert_eq!(m1, m4, "metrics registries (snapshots included) must match");
    assert!(!m1.snapshots().is_empty(), "stepped boundaries must have snapshotted");
    parse(&r1.obs.chrome_trace()).expect("exported trace must be valid JSON");
}

#[test]
fn observability_output_is_invariant_to_the_outcome_capture_cap() {
    let full = run_with(1, ObsConfig::full());
    let gen = RequestGenerator::standard(&MsdaConfig::tiny(), SEED).unwrap();
    let rt = ServeRuntime::with_pool_threads(gen, 1);
    for cap in [0usize, usize::MAX] {
        let cfg = ServeConfig { outcome_capture: cap, ..surge_config(&rt, ObsConfig::full()) };
        let r = serve(&rt, &BackendKind::Accelerator.build(), &cfg).unwrap();
        assert_eq!(r.obs.events, full.obs.events, "capture cap {cap} changed the span stream");
        assert_eq!(
            r.obs.chrome_trace(),
            full.obs.chrome_trace(),
            "capture cap {cap} changed the trace bytes"
        );
        assert_eq!(r.obs.metrics, full.obs.metrics, "capture cap {cap} changed the metrics");
        assert_eq!(r.digest, full.digest, "capture cap {cap} changed the response digest");
    }
}

#[test]
fn sampled_span_count_matches_the_seeded_sampler_exactly() {
    for rate in [0.0, 0.25, 1.0] {
        let r =
            run_with(1, ObsConfig { tracing: true, trace_sample: rate, ..ObsConfig::default() });
        let sampler = SpanSampler::new(SEED, rate);
        let expected: Vec<u64> = (0..96).filter(|&id| sampler.sampled(id)).collect();
        assert_eq!(
            r.obs.sampled_requests,
            expected.len() as u64,
            "rate {rate}: sampled count must match the sampler"
        );
        // Exactly the sampled ids leave lifecycle spans — no more, no
        // fewer.
        for id in 0..96u64 {
            let has_spans = !r.obs.request_events(id).is_empty();
            assert_eq!(
                has_spans,
                expected.contains(&id),
                "rate {rate}: request {id} sampling mismatch"
            );
        }
        // Arrival spans are one per sampled request.
        let arrivals =
            r.obs.events.iter().filter(|e| matches!(e, SpanEvent::Arrival { .. })).count();
        assert_eq!(arrivals, expected.len(), "rate {rate}");
    }
}

#[test]
fn disabled_observability_records_nothing_and_is_the_default() {
    let r = run_with(1, ObsConfig::disabled());
    assert!(!r.obs.enabled());
    assert!(r.obs.events.is_empty());
    assert!(r.obs.metrics.is_none());
    assert_eq!(r.obs.events_dropped, 0);
    assert_eq!(r.obs.profile.total_wall_ns(), 0, "profiling off must never read the clock");
    assert_eq!(ServeConfig::at_load(1_000.0, 8).obs, ObsConfig::disabled());
    // Observability must not perturb the schedule: aggregates match a
    // fully observed run of the same operating point.
    let observed = run_with(1, ObsConfig::full());
    assert_eq!(r.digest, observed.digest, "observability changed the virtual schedule");
    assert_eq!(r.makespan_ns, observed.makespan_ns);
    assert_eq!(r.completed, observed.completed);
    assert_eq!(r.dropped, observed.dropped);
}

#[test]
fn bounded_span_buffer_caps_deterministically() {
    let tiny = ObsConfig { tracing: true, trace_buffer: 16, ..ObsConfig::default() };
    let r1 = run_with(1, tiny.clone());
    let r4 = run_with(4, tiny);
    assert_eq!(r1.obs.events.len(), 16, "buffer must cap at its configured size");
    assert!(r1.obs.events_dropped > 0, "the surge scenario must overflow a 16-event buffer");
    assert_eq!(r1.obs.events, r4.obs.events, "kept prefix must match across pool sizes");
    assert_eq!(r1.obs.events_dropped, r4.obs.events_dropped);
}

#[test]
fn degenerate_obs_configs_are_rejected_by_validate() {
    let base = ServeConfig::at_load(1_000.0, 8);
    for (obs, field) in [
        (
            ObsConfig { tracing: true, trace_sample: 2.0, ..ObsConfig::default() },
            "obs.trace_sample",
        ),
        (
            ObsConfig { tracing: true, trace_sample: f64::NAN, ..ObsConfig::default() },
            "obs.trace_sample",
        ),
        (ObsConfig { tracing: true, trace_buffer: 0, ..ObsConfig::default() }, "obs.trace_buffer"),
        (
            ObsConfig { metrics: true, metrics_buffer: 0, ..ObsConfig::default() },
            "obs.metrics_buffer",
        ),
    ] {
        let cfg = ServeConfig { obs, ..base.clone() };
        match cfg.validate() {
            Err(defa_serve::ServeError::DegenerateConfig { field: f, .. }) => {
                assert_eq!(f, field)
            }
            other => panic!("{field}: expected DegenerateConfig, got {other:?}"),
        }
    }
}
