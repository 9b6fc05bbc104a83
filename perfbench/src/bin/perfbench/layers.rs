//! The per-layer metrics of the traced run.
//!
//! Every workload prints every metric, so the set is fixed here; a metric
//! a workload does not exercise reads 0 (the replay workloads build no
//! tensors, the session engine has no self-profile probes, and
//! `payload_small` never enters `serve`). Times are per request, as a
//! median over the traced run, unless the name says otherwise.

use crate::spans::{per_request_ns, self_times, Span};
use crate::stats::quantile;
use crate::Run;
use std::collections::BTreeMap;

/// Name and unit of every per-layer metric, in report order.
pub const LAYER_METRICS: [(&str, &str); 63] = [
    ("serve.engine_self_ns_per_req", "ns"),
    ("serve.backend_ns_per_call", "ns"),
    ("serve.backend_calls", "count"),
    ("serve.profile_calls", "count"),
    ("serve.event_pop_ns_per_req", "ns"),
    ("serve.arrival_pull_ns_per_req", "ns"),
    ("serve.dispatch_ns_per_req", "ns"),
    ("serve.settle_ns_per_req", "ns"),
    ("serve.controller_step_ns_per_req", "ns"),
    ("serve.batches", "count"),
    ("serve.mean_batch", "req"),
    ("serve.drop_frac", "frac"),
    ("serve.evictions", "count"),
    ("serve.useful_iter_frac", "frac"),
    ("serve.peak_inflight", "count"),
    ("serve.peak_events", "count"),
    ("serve.calibrate_ms", "ms"),
    ("serve.backend.dense_ms_p50", "ms"),
    ("serve.backend.pruned_ms_p50", "ms"),
    ("serve.backend.accel_ms_p50", "ms"),
    ("model.generator_setup_ms", "ms"),
    ("model.request_gen_ms", "ms"),
    ("model.encoder_ms", "ms"),
    ("prune.pipeline_ms", "ms"),
    ("core.accel_run_ms", "ms"),
    ("core.msgs_sim_ms", "ms"),
    ("model.attn_probs.dense_ms", "ms"),
    ("model.attn_probs.pruned_ms", "ms"),
    ("tensor.offset_gemm.dense_ms", "ms"),
    ("tensor.offset_gemm.pruned_ms", "ms"),
    ("model.locations.dense_ms", "ms"),
    ("model.locations.pruned_ms", "ms"),
    ("tensor.value_gemm.dense_ms", "ms"),
    ("tensor.value_gemm.pruned_ms", "ms"),
    ("model.msgs_sample.dense_ms", "ms"),
    ("model.msgs_sample.pruned_ms", "ms"),
    ("model.block_update.dense_ms", "ms"),
    ("model.block_update.pruned_ms", "ms"),
    ("prune.quantize_ms", "ms"),
    ("prune.pap_mask_ms", "ms"),
    ("prune.range_clamp_ms", "ms"),
    ("prune.fwp_count_ms", "ms"),
    ("model.unattributed.dense_ms", "ms"),
    ("prune.unattributed_ms", "ms"),
    ("prune.point_keep_frac", "frac"),
    ("prune.pixel_keep_frac", "frac"),
    ("prune.flop_keep_frac", "frac"),
    ("model.points_sampled.dense", "count"),
    ("model.points_sampled.pruned", "count"),
    ("tensor.gemm_macs.dense", "count"),
    ("tensor.gemm_macs.pruned", "count"),
    ("tensor.gemm_bytes.dense", "bytes"),
    ("tensor.gemm_bytes.pruned", "bytes"),
    ("core.sim_cycles", "cycles"),
    ("core.bank_conflicts", "count"),
    ("core.msgs_points", "count"),
    ("core.energy_pj", "pJ"),
    ("parallel.threads", "count"),
    ("trace.overhead_frac", "frac"),
    ("trace.spans", "count"),
    ("trace.untraced_ms_p50", "ms"),
    ("trace.traced_ms_p50", "ms"),
    ("trace.samples", "count"),
];

/// Per-layer values of one traced run; unset metrics read 0.
#[derive(Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(LAYER_METRICS.iter().any(|(n, _)| *n == name), "unknown metric {name}");
        self.values.insert(name, value);
    }

    /// Sets `metric` to the median of `samples` when at least ten samples
    /// lie beyond it; otherwise records a failed check.
    pub fn p50(&mut self, run: &mut Run, metric: &'static str, samples: &[f64]) {
        match quantile(samples, 0.5) {
            Some(q) => self.set(metric, q.value),
            None => run.check(&format!("{metric} has ten samples beyond its median"), false),
        }
    }

    /// Median over requests of the summed duration of spans `name` (under
    /// an ancestor named `under`), in ms.
    pub fn span_ms(
        &mut self,
        run: &mut Run,
        metric: &'static str,
        spans: &[Span],
        name: &str,
        under: Option<&str>,
    ) {
        let ms: Vec<f64> = per_request_ns(spans, name, under).iter().map(|ns| ns / 1e6).collect();
        self.p50(run, metric, &ms);
    }

    /// Median duration of single spans named `name`, in ms.
    pub fn call_p50_ms(&mut self, run: &mut Run, metric: &'static str, spans: &[Span], name: &str) {
        let ms: Vec<f64> =
            spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64 / 1e6).collect();
        self.p50(run, metric, &ms);
    }

    /// Per request, a library call's time minus the time its staged replay
    /// attributed to stages (the staged span minus its self time), in ms.
    pub fn unattributed_ms(
        &mut self,
        run: &mut Run,
        metric: &'static str,
        spans: &[Span],
        lib: &str,
        staged: &str,
    ) {
        let selfs = self_times(spans);
        let mut lib_ns: BTreeMap<u64, f64> = BTreeMap::new();
        let mut staged_ns: BTreeMap<u64, f64> = BTreeMap::new();
        for (s, own) in spans.iter().zip(&selfs) {
            if s.name == lib {
                *lib_ns.entry(s.request).or_default() += s.duration_ns() as f64;
            } else if s.name == staged {
                *staged_ns.entry(s.request).or_default() += (s.duration_ns() - own) as f64;
            }
        }
        let diffs: Vec<f64> =
            lib_ns.iter().filter_map(|(r, l)| staged_ns.get(r).map(|st| (l - st) / 1e6)).collect();
        self.p50(run, metric, &diffs);
    }

    /// Adds every metric to the run, printing each.
    pub fn emit(&self, run: &mut Run) {
        for (name, unit) in LAYER_METRICS {
            let v = self.values.get(name).copied().unwrap_or(0.0);
            run.say(format!("{name} = {v} {unit}"));
            run.metric(name, v, unit);
        }
    }
}
