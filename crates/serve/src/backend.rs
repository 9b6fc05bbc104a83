//! Pluggable inference backends behind one [`Backend`] trait.
//!
//! A backend turns one [`InferenceRequest`] into a response digest plus a
//! *modeled* compute cost in virtual nanoseconds:
//!
//! * [`DenseBackend`] — the exact encoder ([`defa_model::encoder`]) served
//!   by a GPU-class device (calibrated [`GpuSpec`] latency model);
//! * [`PrunedBackend`] — the DEFA pruned pipeline
//!   ([`defa_prune::pipeline`]) on the same device, with the cost scaled
//!   by the FLOP reduction that *this request* actually achieved;
//! * [`AcceleratorBackend`] — the MSGS-simulated DEFA accelerator
//!   ([`defa_core`]), costed by its own simulated cycle count.
//!
//! Costs — time *and* energy (see [`crate::energy`]) — are pure functions
//! of the request and configuration — no wall-clock measurement — which is
//! what lets the runtime's accounting stay bit-deterministic across thread
//! counts (see [`crate::runtime`]).

use crate::control::DvfsPoint;
use crate::energy::EnergyBreakdown;
use crate::ServeError;
use defa_arch::CLOCK_HZ;
use defa_baseline::gpu::GpuSpec;
use defa_core::runner::DefaAccelerator;
use defa_model::encoder::run_encoder_from;
use defa_model::flops::BlockFlops;
use defa_model::workload::{InferenceRequest, SyntheticWorkload};
use defa_prune::pipeline::{run_pruned_encoder_from, PruneSettings};
use defa_tensor::Tensor;

/// FNV-1a offset basis — the starting accumulator for [`fnv_fold`].
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds one 64-bit word into an FNV-1a accumulator.
pub fn fnv_fold(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x100_0000_01b3)
}

/// FNV-1a digest of a tensor's exact bit pattern.
///
/// Responses are compared across runs by digest (bit-identical features ⇔
/// equal digests up to hash collisions), so determinism tests don't need
/// to hold every output tensor in memory.
pub fn tensor_digest(t: &Tensor) -> u64 {
    t.as_slice().iter().fold(FNV_OFFSET, |h, &v| fnv_fold(h, u64::from(v.to_bits())))
}

/// One request's outcome: response identity plus modeled compute cost and
/// energy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackendOutput {
    /// Digest of the final feature tensor (the response payload).
    pub digest: u64,
    /// Modeled service time of this request in virtual nanoseconds.
    pub cost_ns: u64,
    /// Modeled energy of this request, in integer picojoules (see
    /// [`crate::energy`] for which model prices which backend).
    pub energy: EnergyBreakdown,
    /// Dense-equivalent attention FLOPs of this request — the numerator of
    /// effective-throughput metrics (GOPS, GOPS/W), as sparse accelerators
    /// report them; identical across backends for the same request.
    pub dense_flops: u64,
}

/// Dense-equivalent attention FLOPs of one request of a scenario: the full
/// (unpruned) MSDeformAttn work over all encoder layers.
///
/// This is the single definition behind every backend's
/// [`BackendOutput::dense_flops`] and the efficiency tables' GOPS/W
/// numerators — change it here and they all move together.
pub fn scenario_dense_flops(scenario: &SyntheticWorkload) -> u64 {
    let cfg = scenario.config();
    BlockFlops::for_config(cfg).attention_only() * cfg.n_layers as u64
}

/// Nominal FLOP share the DEFA pruning operating point keeps, used only
/// by the scheduling/routing *estimates* (Fig. 6(b) reports ~55 %
/// reduction; accounting always uses the per-request measured share).
const NOMINAL_PRUNE_KEEP: f64 = 0.45;

/// Effective fraction of the accelerator's peak MAC throughput reached on
/// the pruned workload — an estimate-only constant, calibrated so the
/// routing estimate lands in the measured latency-parity ballpark of the
/// ROADMAP serve table.
const ACCEL_EFFECTIVE_UTILIZATION: f64 = 0.5;

/// Nominal accelerator board power in watts for the energy *estimate*
/// (the ROADMAP table measures ~0.12 W average at the paper design
/// point; accounting always uses the event-priced model).
const ACCEL_NOMINAL_W: f64 = 0.12;

/// Accelerator idle (static/leakage) power at the nominal DVFS point, in
/// milliwatts — roughly a quarter of the ~0.12 W loaded average, scaled
/// with `f · V²` as the clock steps down the ladder. Static power is
/// accounted per control epoch (`ServeReport::static_energy_pj`), never
/// per request, so per-request energy pins are untouched.
const ACCEL_IDLE_MW_NOMINAL: u64 = 30;

/// GPU-class board idle power in milliwatts (display-off idle of a
/// high-end card). The GPU model has no DVFS ladder here, so this is
/// clock-independent.
const GPU_IDLE_MW: u64 = 30_000;

/// Idle power of an `f·V²`-scaled device: `base_mw` at the nominal point,
/// scaled by `(f/f_nom) · (V/V_nom)²` in exact integer arithmetic.
fn scaled_idle_mw(base_mw: u64, clock: DvfsPoint) -> u64 {
    let num = base_mw as u128 * clock.freq_mhz as u128 * (clock.mv as u128) * (clock.mv as u128);
    let den = DvfsPoint::NOMINAL.freq_mhz as u128
        * (DvfsPoint::NOMINAL.mv as u128)
        * (DvfsPoint::NOMINAL.mv as u128);
    (num / den) as u64
}

/// Integer rounding division (`num / den` to nearest, ties up).
fn div_round(num: u128, den: u128) -> u128 {
    (num + den / 2) / den
}

/// A pluggable inference engine the serving runtime dispatches batches to.
///
/// Implementations must be deterministic: the same `(scenario, request)`
/// pair must produce the same [`BackendOutput`] bits on every call,
/// independent of threads, batch composition or call order — the runtime's
/// determinism contract is only as strong as its backends'.
///
/// Beyond execution, a backend quotes cheap *estimates* of what one
/// request of a scenario will cost it — the signals cost-aware schedulers
/// (SJF) and latency-/energy-aware routers steer by. Estimates never feed
/// accounting (reports always use the per-request modeled cost and
/// energy); they only have to be deterministic and sanely ordered across
/// backends.
pub trait Backend: Send + Sync {
    /// Short display name for tables and reports.
    fn name(&self) -> &'static str;

    /// Executes one request against its scenario's workload.
    ///
    /// # Errors
    ///
    /// Propagates model/pruning/simulation failures.
    fn run(
        &self,
        scenario: &SyntheticWorkload,
        req: &InferenceRequest,
    ) -> Result<BackendOutput, ServeError>;

    /// Cheap deterministic estimate of one request's service time on this
    /// backend, in virtual nanoseconds — analytic only, never runs the
    /// model.
    fn estimate_cost_ns(&self, scenario: &SyntheticWorkload) -> u64;

    /// Cheap deterministic estimate of one request's energy on this
    /// backend, in picojoules — analytic only, never runs the model.
    fn estimate_energy_pj(&self, scenario: &SyntheticWorkload) -> u128;

    /// Re-prices an output for the DVFS operating point the batch was
    /// dispatched at: latency stretches with `f_nom / f`, dynamic energy
    /// shrinks with `(V / V_nom)²`.
    ///
    /// The default is the identity — GPU-modeled backends are not on the
    /// accelerator's clock domain. Implementations must be exact at
    /// [`DvfsPoint::NOMINAL`] (the runtime relies on it to keep
    /// `NoOp`-controlled runs byte-identical to uncontrolled ones) and
    /// pure in `(out, clock)`.
    fn reprice(&self, out: BackendOutput, clock: DvfsPoint) -> BackendOutput {
        let _ = clock;
        out
    }

    /// Modeled idle (static) power of one shard of this backend at the
    /// given clock, in milliwatts. Accounted per control epoch into
    /// [`crate::ServeReport::static_energy_pj`] — never into the
    /// per-request energy attribution.
    fn idle_power_mw(&self, clock: DvfsPoint) -> u64 {
        let _ = clock;
        0
    }

    /// Whether this backend serves requests without materialized feature
    /// payloads ([`Self::run_modeled`]). When every shard of a fleet is
    /// payload-free, the runtime skips pyramid generation *and* the
    /// worker-pool round-trip entirely — the fast path that makes
    /// 10M-request traces feasible. Model-executing backends keep the
    /// default `false`.
    fn payload_free(&self) -> bool {
        false
    }

    /// Serves request `id` of scenario `scenario_idx` without its
    /// payload. Only meaningful when [`Self::payload_free`] is `true`;
    /// the default refuses (a model-executing backend cannot produce a
    /// response from thin air). Must obey the same determinism contract
    /// as [`Self::run`].
    ///
    /// # Errors
    ///
    /// The default returns [`ServeError::InvalidConfig`]; implementations
    /// propagate their own failures.
    fn run_modeled(
        &self,
        scenario_idx: usize,
        scenario: &SyntheticWorkload,
        id: u64,
    ) -> Result<BackendOutput, ServeError> {
        let _ = (scenario_idx, scenario, id);
        Err(ServeError::InvalidConfig(format!(
            "backend '{}' requires materialized request payloads (payload_free() is false)",
            self.name()
        )))
    }

    /// Cheap deterministic estimate of a session's *prefill* iteration on
    /// this backend, in virtual nanoseconds. Prefill is the full-context
    /// pass, so the default is the whole-request estimate; phase-split
    /// backends (xLLM-style prefill/decode fleets) override to quote their
    /// prefill-optimized rate.
    fn estimate_prefill_ns(&self, scenario: &SyntheticWorkload) -> u64 {
        self.estimate_cost_ns(scenario)
    }

    /// Cheap deterministic estimate of one *decode* iteration on this
    /// backend, in virtual nanoseconds. A decode step reuses the resident
    /// session state instead of re-running the full context, so the
    /// default models it at `1/DECODE_COST_DIV` of a prefill (floored at
    /// 1 ns); decode-optimized backends override.
    fn estimate_decode_ns(&self, scenario: &SyntheticWorkload) -> u64 {
        (self.estimate_cost_ns(scenario) / DECODE_COST_DIV).max(1)
    }

    /// Derives iteration `iter ≥ 1` of a session from its settled prefill
    /// output: the decode digest chains deterministically off the prefill
    /// digest and the iteration index, while cost, energy and FLOPs scale
    /// by the same `1/DECODE_COST_DIV` phase ratio as
    /// [`Self::estimate_decode_ns`]. Pure in `(prefill, iter)`, so any
    /// shard can derive any iteration without coordination — the session
    /// analogue of the request-level determinism contract.
    fn decode_output(&self, prefill: &BackendOutput, iter: u64) -> BackendOutput {
        let div = DECODE_COST_DIV as u128;
        BackendOutput {
            digest: splitmix64(prefill.digest ^ iter.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            cost_ns: (prefill.cost_ns / DECODE_COST_DIV).max(1),
            energy: EnergyBreakdown {
                compute_pj: prefill.energy.compute_pj / div,
                sram_pj: prefill.energy.sram_pj / div,
                dram_pj: prefill.energy.dram_pj / div,
            },
            dense_flops: prefill.dense_flops / DECODE_COST_DIV,
        }
    }
}

/// Modeled cost ratio between a prefill and one decode iteration: a
/// decode step runs `1/8` of the prefill's work (it touches only the new
/// query against resident state, not the full context). One shared
/// constant keeps estimates ([`Backend::estimate_decode_ns`]) and
/// accounting ([`Backend::decode_output`]) on the same phase model.
pub const DECODE_COST_DIV: u64 = 8;

/// Converts modeled seconds to clamped virtual nanoseconds.
fn secs_to_ns(s: f64) -> u64 {
    (s * 1e9).round().max(1.0) as u64
}

/// The exact dense encoder on a GPU-class device.
#[derive(Debug, Clone)]
pub struct DenseBackend {
    gpu: GpuSpec,
}

impl DenseBackend {
    /// Dense serving on the paper's RTX 3090Ti latency model.
    pub fn new() -> Self {
        DenseBackend { gpu: GpuSpec::rtx_3090ti() }
    }
}

impl Default for DenseBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl Backend for DenseBackend {
    fn name(&self) -> &'static str {
        "dense"
    }

    fn run(
        &self,
        scenario: &SyntheticWorkload,
        req: &InferenceRequest,
    ) -> Result<BackendOutput, ServeError> {
        let trace = run_encoder_from(scenario, &req.fmap)?;
        let cost = self.gpu.msda_latency(scenario.config()).total_s();
        let cost_ns = secs_to_ns(cost);
        Ok(BackendOutput {
            digest: tensor_digest(&trace.final_features),
            cost_ns,
            energy: EnergyBreakdown::from_gpu(&self.gpu, cost_ns),
            dense_flops: scenario_dense_flops(scenario),
        })
    }

    fn estimate_cost_ns(&self, scenario: &SyntheticWorkload) -> u64 {
        // The dense cost model is itself analytic, so the estimate is
        // exact.
        secs_to_ns(self.gpu.msda_latency(scenario.config()).total_s())
    }

    fn estimate_energy_pj(&self, scenario: &SyntheticWorkload) -> u128 {
        self.gpu.energy_picojoules(self.estimate_cost_ns(scenario))
    }

    fn idle_power_mw(&self, _clock: DvfsPoint) -> u64 {
        GPU_IDLE_MW
    }
}

/// The DEFA pruned pipeline on a GPU-class device.
#[derive(Debug, Clone)]
pub struct PrunedBackend {
    gpu: GpuSpec,
    settings: PruneSettings,
}

impl PrunedBackend {
    /// Pruned serving at the paper's operating point on the RTX 3090Ti
    /// model.
    pub fn new(settings: PruneSettings) -> Self {
        PrunedBackend { gpu: GpuSpec::rtx_3090ti(), settings }
    }

    /// The pruning configuration this backend serves with.
    pub fn settings(&self) -> &PruneSettings {
        &self.settings
    }
}

impl Backend for PrunedBackend {
    fn name(&self) -> &'static str {
        "pruned"
    }

    fn run(
        &self,
        scenario: &SyntheticWorkload,
        req: &InferenceRequest,
    ) -> Result<BackendOutput, ServeError> {
        let run = run_pruned_encoder_from(scenario, &self.settings, &req.fmap)?;
        // Cost model: the dense device latency scaled by the FLOP share
        // this request's masks actually kept. Irregular sparsity rarely
        // reaches its arithmetic speedup on real GPUs, so this is the
        // backend's *optimistic* bound — the accelerator's win over it in
        // the serve tables is therefore conservative.
        let keep = (1.0 - run.stats.flop_reduction()).clamp(0.0, 1.0);
        let cost = self.gpu.msda_latency(scenario.config()).total_s() * keep;
        let cost_ns = secs_to_ns(cost);
        // Energy rides the keep-scaled time, so each request's energy
        // reflects the FLOP share its own masks kept.
        Ok(BackendOutput {
            digest: tensor_digest(&run.final_features),
            cost_ns,
            energy: EnergyBreakdown::from_gpu(&self.gpu, cost_ns),
            dense_flops: scenario_dense_flops(scenario),
        })
    }

    fn estimate_cost_ns(&self, scenario: &SyntheticWorkload) -> u64 {
        // Dense device latency scaled by the *nominal* paper keep — the
        // real per-request keep needs the pruning pipeline, which an
        // estimate must not run.
        let dense = self.gpu.msda_latency(scenario.config()).total_s();
        secs_to_ns(dense * NOMINAL_PRUNE_KEEP)
    }

    fn estimate_energy_pj(&self, scenario: &SyntheticWorkload) -> u128 {
        self.gpu.energy_picojoules(self.estimate_cost_ns(scenario))
    }

    fn idle_power_mw(&self, _clock: DvfsPoint) -> u64 {
        GPU_IDLE_MW
    }
}

/// The cycle-simulated DEFA accelerator.
#[derive(Debug, Clone)]
pub struct AcceleratorBackend {
    accel: DefaAccelerator,
    settings: PruneSettings,
}

impl AcceleratorBackend {
    /// The paper's design point serving the paper's pruning operating
    /// point. Fidelity measurement is disabled — serving doesn't re-run
    /// the exact encoder per request.
    pub fn new() -> Self {
        AcceleratorBackend {
            accel: DefaAccelerator { measure_fidelity: false, ..DefaAccelerator::paper_default() },
            settings: PruneSettings::paper_defaults(),
        }
    }

    /// An explicit accelerator instance and pruning configuration.
    pub fn with(accel: DefaAccelerator, settings: PruneSettings) -> Self {
        AcceleratorBackend { accel: DefaAccelerator { measure_fidelity: false, ..accel }, settings }
    }
}

impl Default for AcceleratorBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl Backend for AcceleratorBackend {
    fn name(&self) -> &'static str {
        "defa-accel"
    }

    fn run(
        &self,
        scenario: &SyntheticWorkload,
        req: &InferenceRequest,
    ) -> Result<BackendOutput, ServeError> {
        let run = self.accel.run_workload_from(scenario, &req.fmap, &self.settings)?;
        // Exact integer conversion: cycles · 1e9 / f_clk.
        let cycles = run.report.counters.total_cycles() as u128;
        let cost_ns = ((cycles * 1_000_000_000) / CLOCK_HZ as u128).max(1) as u64;
        Ok(BackendOutput {
            digest: tensor_digest(&run.final_features),
            cost_ns,
            energy: EnergyBreakdown::from_accelerator(&run.report.energy),
            dense_flops: run.report.dense_flops,
        })
    }

    fn estimate_cost_ns(&self, scenario: &SyntheticWorkload) -> u64 {
        // Kept FLOPs over the PE array's effective throughput at the
        // design clock — the cycle-accurate number needs the MSGS
        // simulation, which an estimate must not run.
        let kept_flops = scenario_dense_flops(scenario) as f64 * NOMINAL_PRUNE_KEEP;
        let ops_per_s =
            self.accel.pe.peak_ops_per_sec(CLOCK_HZ) as f64 * ACCEL_EFFECTIVE_UTILIZATION;
        ((kept_flops / ops_per_s) * 1e9).round().max(1.0) as u64
    }

    fn estimate_energy_pj(&self, scenario: &SyntheticWorkload) -> u128 {
        // Nominal board power over the estimated time (1 W·ns = 1000 pJ).
        (ACCEL_NOMINAL_W * 1e3 * self.estimate_cost_ns(scenario) as f64).round() as u128
    }

    fn reprice(&self, out: BackendOutput, clock: DvfsPoint) -> BackendOutput {
        if clock == DvfsPoint::NOMINAL {
            return out; // exact identity — the NoOp byte-compat anchor
        }
        // Same cycle count at a slower clock: time scales by f_nom / f.
        let cost_ns = div_round(
            out.cost_ns as u128 * DvfsPoint::NOMINAL.freq_mhz as u128,
            clock.freq_mhz as u128,
        )
        .max(1) as u64;
        // Dynamic energy per event scales with V² (CV²): each component
        // is rescaled in exact integer arithmetic.
        let v2 = clock.mv as u128 * clock.mv as u128;
        let v2_nom = DvfsPoint::NOMINAL.mv as u128 * DvfsPoint::NOMINAL.mv as u128;
        let scale = |pj: u128| div_round(pj * v2, v2_nom);
        BackendOutput {
            digest: out.digest,
            cost_ns,
            energy: EnergyBreakdown {
                compute_pj: scale(out.energy.compute_pj),
                sram_pj: scale(out.energy.sram_pj),
                dram_pj: scale(out.energy.dram_pj),
            },
            dense_flops: out.dense_flops,
        }
    }

    fn idle_power_mw(&self, clock: DvfsPoint) -> u64 {
        scaled_idle_mw(ACCEL_IDLE_MW_NOMINAL, clock)
    }
}

/// SplitMix64 — the digest/jitter mixer of [`ReplayBackend`]. Chosen for
/// full 64-bit avalanche at three multiplies; any stateless mixer would
/// do, determinism is the only requirement.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A payload-free *replay* backend: serves from per-scenario calibration
/// tables instead of executing the model, so one request costs a table
/// lookup and a hash — the backend that lets the discrete-event engine
/// push 10M-request traces through in seconds.
///
/// Calibration snapshots the wrapped backend's analytic per-scenario
/// estimates once at construction ([`ReplayBackend::calibrated`]);
/// serving then replays them with a deterministic ±12.5 % per-request
/// cost jitter (so batches don't degenerate into identical-latency
/// lockstep) and a per-request SplitMix64 response digest. Estimates,
/// DVFS re-pricing and idle power delegate to the wrapped backend, so
/// replay fleets stay consistent with the policy layers and the energy
/// model of what they stand in for.
pub struct ReplayBackend {
    inner: std::sync::Arc<dyn Backend>,
    /// Per-scenario calibrated service time, indexed by scenario.
    cost_ns: Vec<u64>,
    /// Per-scenario calibrated energy (whole estimate as compute; the
    /// wrapped backend's estimate has no component split).
    energy_pj: Vec<u128>,
    /// Per-scenario dense-equivalent FLOPs.
    dense_flops: Vec<u64>,
    /// Digest/jitter salt, derived from the generator seed.
    salt: u64,
}

impl ReplayBackend {
    /// Calibrates a replay table against `inner`'s analytic estimates
    /// over every scenario of `gen`.
    ///
    /// # Errors
    ///
    /// Propagates scenario-lookup failures from the generator.
    pub fn calibrated(
        gen: &defa_model::workload::RequestGenerator,
        inner: std::sync::Arc<dyn Backend>,
    ) -> Result<Self, ServeError> {
        // The nominal rows of a cost table *are* the analytic estimates,
        // so calibration is one memoized pricing pass (modeled service
        // times are clamped to ≥ 1 ns so virtual time always advances).
        let table = crate::cost::CostTable::build(inner.as_ref(), gen, &[])?;
        let cost_ns = table.nominal_cost_row().iter().map(|&c| c.max(1)).collect();
        let energy_pj = table.nominal_energy_row().to_vec();
        let mut dense_flops = Vec::with_capacity(gen.scenarios().len());
        for i in 0..gen.scenarios().len() {
            dense_flops.push(scenario_dense_flops(gen.scenario(i)?));
        }
        let salt = splitmix64(gen.seed() ^ 0x5EED_0A11_0E57_A717);
        Ok(ReplayBackend { inner, cost_ns, energy_pj, dense_flops, salt })
    }
}

/// Salt folded into the generator seed for replay digests, so replayed
/// responses never collide with real tensor digests by construction.
const REPLAY_DIGEST_SALT: u64 = 0x9E1A_7000_D16E_57A1;

impl Backend for ReplayBackend {
    fn name(&self) -> &'static str {
        "replay"
    }

    fn run(
        &self,
        scenario: &SyntheticWorkload,
        req: &InferenceRequest,
    ) -> Result<BackendOutput, ServeError> {
        // A replay backend never needs the payload, but `run` keeps the
        // generic contract so mixed fleets can still dispatch to it.
        self.run_modeled(req.scenario, scenario, req.id)
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
        true
    }

    fn run_modeled(
        &self,
        scenario_idx: usize,
        _scenario: &SyntheticWorkload,
        id: u64,
    ) -> Result<BackendOutput, ServeError> {
        let base = self.cost_ns[scenario_idx];
        // ±12.5 % deterministic jitter: offset in [0, base/4], centred.
        let spread = base / 4;
        let jitter = splitmix64(self.salt ^ id.wrapping_mul(0xA24B_AED4_963E_E407));
        let cost_ns = (base - spread / 2 + jitter % (spread + 1)).max(1);
        Ok(BackendOutput {
            digest: splitmix64(self.salt ^ REPLAY_DIGEST_SALT ^ id),
            cost_ns,
            energy: EnergyBreakdown {
                compute_pj: self.energy_pj[scenario_idx],
                sram_pj: 0,
                dram_pj: 0,
            },
            dense_flops: self.dense_flops[scenario_idx],
        })
    }
}

/// The three shipped backends, for sweeps and CLI selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// [`DenseBackend`].
    Dense,
    /// [`PrunedBackend`] at paper defaults.
    Pruned,
    /// [`AcceleratorBackend`] at paper defaults.
    Accelerator,
}

impl BackendKind {
    /// All backends in presentation order.
    pub fn all() -> [BackendKind; 3] {
        [BackendKind::Dense, BackendKind::Pruned, BackendKind::Accelerator]
    }

    /// The backend's display name.
    pub fn name(&self) -> &'static str {
        match self {
            BackendKind::Dense => "dense",
            BackendKind::Pruned => "pruned",
            BackendKind::Accelerator => "defa-accel",
        }
    }

    /// Builds the backend at its default operating point.
    pub fn build(&self) -> std::sync::Arc<dyn Backend> {
        match self {
            BackendKind::Dense => std::sync::Arc::new(DenseBackend::new()),
            BackendKind::Pruned => {
                std::sync::Arc::new(PrunedBackend::new(PruneSettings::paper_defaults()))
            }
            BackendKind::Accelerator => std::sync::Arc::new(AcceleratorBackend::new()),
        }
    }

    /// Builds one backend per kind — a (possibly heterogeneous) fleet for
    /// [`crate::ServeSpec::fleet`] and [`crate::ServeRuntime::serve`], one
    /// shard per entry.
    pub fn build_fleet(kinds: &[BackendKind]) -> Vec<std::sync::Arc<dyn Backend>> {
        kinds.iter().map(|k| k.build()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use defa_model::workload::RequestGenerator;
    use defa_model::MsdaConfig;

    fn tiny_gen() -> RequestGenerator {
        RequestGenerator::standard(&MsdaConfig::tiny(), 17).unwrap()
    }

    #[test]
    fn backends_are_deterministic_per_request() {
        let gen = tiny_gen();
        let req = gen.request(2);
        let wl = gen.scenario(req.scenario).unwrap();
        for kind in BackendKind::all() {
            let backend = kind.build();
            let a = backend.run(wl, &req).unwrap();
            let b = backend.run(wl, &req).unwrap();
            assert_eq!(a, b, "{} not deterministic", backend.name());
            assert!(a.cost_ns > 0);
        }
    }

    #[test]
    fn distinct_requests_have_distinct_responses() {
        let gen = tiny_gen();
        let backend = DenseBackend::new();
        let (mut last_digest, mut distinct) = (0u64, 0);
        for id in 0..6 {
            let req = gen.request(id);
            let wl = gen.scenario(req.scenario).unwrap();
            let out = backend.run(wl, &req).unwrap();
            if out.digest != last_digest {
                distinct += 1;
            }
            last_digest = out.digest;
        }
        assert!(distinct >= 5, "responses should differ per request");
    }

    #[test]
    fn cost_models_are_ordered_sanely() {
        let gen = tiny_gen();
        let req = gen.request(0);
        let wl = gen.scenario(req.scenario).unwrap();
        let dense = DenseBackend::new().run(wl, &req).unwrap();
        let pruned = PrunedBackend::new(PruneSettings::paper_defaults()).run(wl, &req).unwrap();
        let accel = AcceleratorBackend::new().run(wl, &req).unwrap();
        assert!(pruned.cost_ns < dense.cost_ns, "pruning must cut modeled cost");
        // The 400 MHz edge accelerator lands in the same latency ballpark
        // as the 40-TFLOPS GPU model (its paper win is energy, not raw
        // speed); pin the ballpark so a cost-model regression is loud.
        assert!(
            accel.cost_ns < dense.cost_ns * 10 && accel.cost_ns * 100 > dense.cost_ns,
            "accel {} vs dense {} out of ballpark",
            accel.cost_ns,
            dense.cost_ns
        );
    }

    #[test]
    fn energy_attribution_reproduces_the_paper_level_ordering() {
        let gen = tiny_gen();
        let req = gen.request(0);
        let wl = gen.scenario(req.scenario).unwrap();
        let dense = DenseBackend::new().run(wl, &req).unwrap();
        let pruned = PrunedBackend::new(PruneSettings::paper_defaults()).run(wl, &req).unwrap();
        let accel = AcceleratorBackend::new().run(wl, &req).unwrap();
        for out in [&dense, &pruned, &accel] {
            assert!(out.energy.total_pj() > 0, "every request must cost energy");
        }
        // All backends account the same dense-equivalent work.
        assert_eq!(dense.dense_flops, pruned.dense_flops);
        assert_eq!(dense.dense_flops, accel.dense_flops);
        assert!(dense.dense_flops > 0);
        // Pruning cuts GPU energy (keep-scaled time at the same power).
        assert!(pruned.energy.total_pj() < dense.energy.total_pj());
        // The paper's headline: the accelerator's event-priced energy is
        // orders of magnitude below the GPU board model's.
        assert!(
            accel.energy.total_pj() * 100 < dense.energy.total_pj(),
            "accel {} pJ vs dense {} pJ",
            accel.energy.total_pj(),
            dense.energy.total_pj()
        );
        // GPU backends are board-priced (no component split); the
        // accelerator keeps the Figure-8 split.
        assert_eq!(dense.energy.sram_pj + dense.energy.dram_pj, 0);
        assert!(accel.energy.dram_pj > 0 && accel.energy.sram_pj > 0);
    }

    #[test]
    fn pruned_and_dense_disagree_on_features_but_not_wildly() {
        let gen = tiny_gen();
        let req = gen.request(1);
        let wl = gen.scenario(req.scenario).unwrap();
        let dense = DenseBackend::new().run(wl, &req).unwrap();
        let pruned = PrunedBackend::new(PruneSettings::paper_defaults()).run(wl, &req).unwrap();
        assert_ne!(dense.digest, pruned.digest, "pruning approximates the output");
    }

    #[test]
    fn decode_phase_scales_estimates_and_outputs_together() {
        let gen = tiny_gen();
        let wl = gen.scenario(0).unwrap();
        for kind in BackendKind::all() {
            let backend = kind.build();
            // Prefill is the full-context pass; decode is the phase ratio.
            assert_eq!(backend.estimate_prefill_ns(wl), backend.estimate_cost_ns(wl));
            assert_eq!(
                backend.estimate_decode_ns(wl),
                (backend.estimate_cost_ns(wl) / DECODE_COST_DIV).max(1),
                "{} decode estimate off the phase model",
                backend.name()
            );
        }
        let req = gen.request(3);
        let backend = AcceleratorBackend::new();
        let prefill = backend.run(gen.scenario(req.scenario).unwrap(), &req).unwrap();
        let d1 = backend.decode_output(&prefill, 1);
        let d2 = backend.decode_output(&prefill, 2);
        assert_eq!(d1, backend.decode_output(&prefill, 1), "pure in (prefill, iter)");
        assert_ne!(d1.digest, d2.digest, "iterations must have distinct responses");
        assert_ne!(d1.digest, prefill.digest);
        assert_eq!(d1.cost_ns, (prefill.cost_ns / DECODE_COST_DIV).max(1));
        assert!(d1.energy.total_pj() <= prefill.energy.total_pj() / DECODE_COST_DIV as u128);
        assert_eq!(d1.dense_flops, prefill.dense_flops / DECODE_COST_DIV);
    }

    #[test]
    fn estimates_are_cheap_deterministic_and_sanely_ordered() {
        let gen = tiny_gen();
        let wl = gen.scenario(0).unwrap();
        let dense = DenseBackend::new();
        let pruned = PrunedBackend::new(PruneSettings::paper_defaults());
        let accel = AcceleratorBackend::new();
        // Deterministic and positive.
        for (cost, energy) in [
            (dense.estimate_cost_ns(wl), dense.estimate_energy_pj(wl)),
            (pruned.estimate_cost_ns(wl), pruned.estimate_energy_pj(wl)),
            (accel.estimate_cost_ns(wl), accel.estimate_energy_pj(wl)),
        ] {
            assert!(cost > 0 && energy > 0);
        }
        assert_eq!(dense.estimate_cost_ns(wl), dense.estimate_cost_ns(wl));
        // Pruning cuts the estimated cost; the dense estimate is exact.
        assert!(pruned.estimate_cost_ns(wl) < dense.estimate_cost_ns(wl));
        let req = gen.request(0);
        let exact = dense.run(gen.scenario(req.scenario).unwrap(), &req).unwrap();
        let wl0 = gen.scenario(req.scenario).unwrap();
        assert_eq!(dense.estimate_cost_ns(wl0), exact.cost_ns);
        // The accelerator's energy estimate undercuts the GPU backends by
        // orders of magnitude — the signal energy-aware routing steers by.
        assert!(accel.estimate_energy_pj(wl) * 100 < dense.estimate_energy_pj(wl));
    }

    #[test]
    fn fleets_build_one_backend_per_kind() {
        let fleet = BackendKind::build_fleet(&[BackendKind::Dense, BackendKind::Accelerator]);
        assert_eq!(fleet.len(), 2);
        assert_eq!(fleet[0].name(), "dense");
        assert_eq!(fleet[1].name(), "defa-accel");
    }

    #[test]
    fn repricing_is_identity_at_nominal_and_scaled_down_the_ladder() {
        let gen = tiny_gen();
        let req = gen.request(0);
        let wl = gen.scenario(req.scenario).unwrap();
        let accel = AcceleratorBackend::new();
        let out = accel.run(wl, &req).unwrap();
        assert_eq!(accel.reprice(out, DvfsPoint::NOMINAL), out, "nominal must be exact identity");
        let slow = accel.reprice(out, crate::control::DVFS_LADDER[3]); // 100 MHz @ 0.7 V
        assert_eq!(slow.digest, out.digest, "DVFS never changes the response bits");
        assert_eq!(slow.dense_flops, out.dense_flops);
        assert_eq!(slow.cost_ns, out.cost_ns * 4, "quarter clock, 4x latency");
        // 0.49x dynamic energy (0.7² V scaling), within integer rounding.
        let want = out.energy.total_pj() * 49 / 100;
        let got = slow.energy.total_pj();
        assert!(got.abs_diff(want) <= 3, "V² scaling: got {got}, want ~{want}");
        // GPU backends are not on the accelerator clock domain.
        let dense = DenseBackend::new();
        let d = dense.run(wl, &req).unwrap();
        assert_eq!(dense.reprice(d, crate::control::DVFS_LADDER[3]), d);
    }

    #[test]
    fn idle_power_scales_with_frequency_and_voltage() {
        let accel = AcceleratorBackend::new();
        let nominal = accel.idle_power_mw(DvfsPoint::NOMINAL);
        assert_eq!(nominal, 30);
        let floor = accel.idle_power_mw(crate::control::DVFS_LADDER[3]);
        assert!(
            floor * 4 < nominal,
            "bottom of the ladder must cut idle power multiples: {floor} vs {nominal} mW"
        );
        // GPU idle power is clock-independent and far above the
        // accelerator's — the fleet-level energy-proportionality gap.
        let dense = DenseBackend::new();
        assert_eq!(
            dense.idle_power_mw(DvfsPoint::NOMINAL),
            dense.idle_power_mw(crate::control::DVFS_LADDER[3]),
            "the GPU model is not on the accelerator's clock domain"
        );
        assert!(dense.idle_power_mw(DvfsPoint::NOMINAL) > 100 * nominal);
    }

    #[test]
    fn replay_backend_is_deterministic_cheap_and_clock_aware() {
        let gen = tiny_gen();
        let accel: std::sync::Arc<dyn Backend> = std::sync::Arc::new(AcceleratorBackend::new());
        let replay = ReplayBackend::calibrated(&gen, accel.clone()).unwrap();
        assert!(replay.payload_free());
        let wl = gen.scenario(0).unwrap();
        let a = replay.run_modeled(0, wl, 3).unwrap();
        let b = replay.run_modeled(0, wl, 3).unwrap();
        assert_eq!(a, b, "replay must be deterministic per (scenario, id)");
        // `run` with a materialized request takes the same path.
        let req = gen.request(3);
        let via_run = replay.run(gen.scenario(req.scenario).unwrap(), &req).unwrap();
        assert_eq!(via_run, replay.run_modeled(req.scenario, wl, 3).unwrap());
        // Jitter spreads costs across ids but stays near the calibrated
        // estimate.
        let est = accel.estimate_cost_ns(wl);
        let costs: Vec<u64> =
            (0..16).map(|id| replay.run_modeled(0, wl, id).unwrap().cost_ns).collect();
        assert!(costs.iter().any(|&c| c != costs[0]), "jitter must vary by id");
        for &c in &costs {
            assert!(
                c >= est - est / 4 && c <= est + est / 4,
                "cost {c} strayed from estimate {est}"
            );
        }
        // Distinct ids get distinct digests; energy and estimates track
        // the wrapped backend.
        let d0 = replay.run_modeled(0, wl, 0).unwrap().digest;
        let d1 = replay.run_modeled(0, wl, 1).unwrap().digest;
        assert_ne!(d0, d1);
        assert_eq!(replay.estimate_cost_ns(wl), est);
        assert_eq!(
            replay.idle_power_mw(DvfsPoint::NOMINAL),
            accel.idle_power_mw(DvfsPoint::NOMINAL)
        );
        // Re-pricing rides the wrapped backend's clock domain.
        let slow = replay.reprice(a, crate::control::DVFS_LADDER[3]);
        assert_eq!(slow.cost_ns, a.cost_ns * 4);
        // The default hook on a model-executing backend refuses.
        assert!(matches!(
            DenseBackend::new().run_modeled(0, wl, 0),
            Err(ServeError::InvalidConfig(_))
        ));
    }

    #[test]
    fn digest_tracks_bit_patterns() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], [3]).unwrap();
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0], [3]).unwrap();
        let c = Tensor::from_vec(vec![1.0, 2.0, 3.001], [3]).unwrap();
        assert_eq!(tensor_digest(&a), tensor_digest(&b));
        assert_ne!(tensor_digest(&a), tensor_digest(&c));
    }
}
