//! A [`Backend`] wrapper that times the engine's calls into a backend.
//!
//! Every trait method forwards to the wrapped backend unchanged; `run`,
//! `run_modeled` and `decode_output` are also counted and timed. For
//! replay fleets the wrapper keeps only per-call counts and summed time
//! (a span per simulated request would dwarf the work measured); for
//! payload fleets it also opens one span per `run` under the current
//! `serve()` span, from whichever pool worker makes the call.

use crate::spans::{Recorder, SpanId};
use defa_model::workload::{InferenceRequest, SyntheticWorkload};
use defa_serve::{Backend, BackendOutput, DvfsPoint, ServeError};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// No enclosing span.
const NO_PARENT: usize = usize::MAX;

pub struct TimedBackend {
    inner: Arc<dyn Backend>,
    /// Span name of this backend's `run` calls.
    span_name: &'static str,
    spans: Option<Arc<Recorder>>,
    parent: AtomicUsize,
    // Statistics only: they publish no other data, so `Relaxed` suffices.
    calls: AtomicU64,
    ns: AtomicU64,
}

/// Calls counted and host time summed across one or more wrappers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallStats {
    pub calls: u64,
    pub ns: u64,
}

impl TimedBackend {
    /// A counting wrapper; with `spans`, each `run` also records a span
    /// named `span_name`.
    pub fn new(
        inner: Arc<dyn Backend>,
        span_name: &'static str,
        spans: Option<Arc<Recorder>>,
    ) -> Self {
        TimedBackend {
            inner,
            span_name,
            spans,
            parent: AtomicUsize::new(NO_PARENT),
            calls: AtomicU64::new(0),
            ns: AtomicU64::new(0),
        }
    }

    /// Sets the span the next calls' spans hang under.
    pub fn set_parent(&self, parent: SpanId) {
        self.parent.store(parent, Ordering::Relaxed);
    }

    /// Returns and resets the counters.
    pub fn take(&self) -> CallStats {
        CallStats {
            calls: self.calls.swap(0, Ordering::Relaxed),
            ns: self.ns.swap(0, Ordering::Relaxed),
        }
    }

    fn timed<R>(&self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let out = f();
        self.ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        out
    }
}

impl Backend for TimedBackend {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn run(
        &self,
        scenario: &SyntheticWorkload,
        req: &InferenceRequest,
    ) -> Result<BackendOutput, ServeError> {
        match &self.spans {
            Some(rec) => {
                let parent = match self.parent.load(Ordering::Relaxed) {
                    NO_PARENT => None,
                    p => Some(p),
                };
                let id = rec.open(self.span_name, req.id, parent);
                let out = self.timed(|| self.inner.run(scenario, req));
                rec.close(id);
                out
            }
            None => self.timed(|| self.inner.run(scenario, req)),
        }
    }

    fn estimate_cost_ns(&self, scenario: &SyntheticWorkload) -> u64 {
        self.inner.estimate_cost_ns(scenario)
    }

    fn estimate_energy_pj(&self, scenario: &SyntheticWorkload) -> u128 {
        self.inner.estimate_energy_pj(scenario)
    }

    fn reprice(&self, out: BackendOutput, clock: DvfsPoint) -> BackendOutput {
        self.inner.reprice(out, clock)
    }

    fn idle_power_mw(&self, clock: DvfsPoint) -> u64 {
        self.inner.idle_power_mw(clock)
    }

    fn payload_free(&self) -> bool {
        self.inner.payload_free()
    }

    fn run_modeled(
        &self,
        scenario_idx: usize,
        scenario: &SyntheticWorkload,
        id: u64,
    ) -> Result<BackendOutput, ServeError> {
        self.timed(|| self.inner.run_modeled(scenario_idx, scenario, id))
    }

    fn estimate_prefill_ns(&self, scenario: &SyntheticWorkload) -> u64 {
        self.inner.estimate_prefill_ns(scenario)
    }

    fn estimate_decode_ns(&self, scenario: &SyntheticWorkload) -> u64 {
        self.inner.estimate_decode_ns(scenario)
    }

    fn decode_output(&self, prefill: &BackendOutput, iter: u64) -> BackendOutput {
        self.timed(|| self.inner.decode_output(prefill, iter))
    }
}

/// Checks that `wrapped` answers every [`Backend`] method exactly as
/// `inner` does, on scenario `scenario_idx` and request `req`; returns
/// the name of each method that differs. `run_modeled` is compared only
/// for payload-free backends and `run` only for the others, since the
/// other combination is an error by contract.
pub fn forwarding_mismatches(
    wrapped: &dyn Backend,
    inner: &dyn Backend,
    scenario_idx: usize,
    scenario: &SyntheticWorkload,
    req: &InferenceRequest,
) -> Result<Vec<&'static str>, ServeError> {
    let mut bad = Vec::new();
    let mut check = |name: &'static str, same: bool| {
        if !same {
            bad.push(name);
        }
    };
    check("name", wrapped.name() == inner.name());
    check("payload_free", wrapped.payload_free() == inner.payload_free());
    check(
        "estimate_cost_ns",
        wrapped.estimate_cost_ns(scenario) == inner.estimate_cost_ns(scenario),
    );
    check(
        "estimate_energy_pj",
        wrapped.estimate_energy_pj(scenario) == inner.estimate_energy_pj(scenario),
    );
    check(
        "estimate_prefill_ns",
        wrapped.estimate_prefill_ns(scenario) == inner.estimate_prefill_ns(scenario),
    );
    check(
        "estimate_decode_ns",
        wrapped.estimate_decode_ns(scenario) == inner.estimate_decode_ns(scenario),
    );
    let out = if inner.payload_free() {
        let a = wrapped.run_modeled(scenario_idx, scenario, req.id)?;
        check("run_modeled", a == inner.run_modeled(scenario_idx, scenario, req.id)?);
        a
    } else {
        let a = wrapped.run(scenario, req)?;
        check("run", a == inner.run(scenario, req)?);
        a
    };
    check("decode_output", wrapped.decode_output(&out, 3) == inner.decode_output(&out, 3));
    for clock in defa_serve::DVFS_LADDER {
        check("reprice", wrapped.reprice(out, clock) == inner.reprice(out, clock));
        check("idle_power_mw", wrapped.idle_power_mw(clock) == inner.idle_power_mw(clock));
    }
    bad.dedup();
    Ok(bad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use defa_model::workload::RequestGenerator;
    use defa_model::MsdaConfig;
    use defa_serve::{BackendKind, ReplayBackend};

    #[test]
    fn wrapper_forwards_every_method_for_every_backend() {
        let gen = RequestGenerator::standard(&MsdaConfig::tiny(), 42).unwrap();
        let req = gen.request(5);
        let scenario = gen.scenario(req.scenario).unwrap();
        let replay: Arc<dyn Backend> =
            Arc::new(ReplayBackend::calibrated(&gen, BackendKind::Accelerator.build()).unwrap());
        let mut fleet = BackendKind::build_fleet(&BackendKind::all());
        fleet.push(replay);
        for inner in fleet {
            let rec = Arc::new(Recorder::new());
            let wrapped = TimedBackend::new(Arc::clone(&inner), "run", Some(Arc::clone(&rec)));
            let bad = forwarding_mismatches(&wrapped, inner.as_ref(), req.scenario, scenario, &req)
                .unwrap();
            assert!(bad.is_empty(), "{} differs on {bad:?}", inner.name());
            // One run/run_modeled plus one decode_output were timed.
            assert_eq!(wrapped.take().calls, 2, "{}", inner.name());
            assert_eq!(wrapped.take(), CallStats::default());
            let spans = rec.snapshot();
            assert_eq!(spans.len(), usize::from(!inner.payload_free()), "{}", inner.name());
        }
    }
}
