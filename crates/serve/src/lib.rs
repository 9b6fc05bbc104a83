//! `defa-serve`: a session-oriented multi-backend inference runtime for
//! the DEFA reproduction.
//!
//! The paper's accelerator argument is about *throughput under a stream of
//! detection queries*; this crate supplies the serving layer that turns
//! the workspace's single-run pipelines into a service. Its unit of
//! serving is the **session**: a seeded sequence of iterations — one
//! *prefill* (the full detection query) followed by cheaper *decode*
//! steps separated by seeded think times
//! ([`defa_model::workload::SessionProfile`]). A legacy one-shot request
//! is exactly a session of length 1, and the default configuration
//! ([`config::SessionConfig`] at `SessionProfile::ONE_SHOT`) runs the
//! pre-session engine byte-for-byte.
//!
//! ```text
//!  ArrivalProcess ──> AdmissionQueue ──> Scheduler ──> Router ──> shard 0 ──┐
//!  (poisson /          (bounded; drop    (fifo / sjf   (rr / low  shard 1 ──┤─> report
//!   bursty MMPP /       policy on         / edf over    / latency- ...      │   (latency,
//!   uniform)            overflow)         SLO classes)  / energy-  shard S ──┘   TTFT/TBT,
//!                                             ▲          aware)      │  │        energy,
//!                                             │   decode steps ready │  │        SLO)
//!                                             └──── after think time ┘  │
//!                                                 (continuous batching,  │
//!                                                  per-shard state budget)
//! ```
//!
//! With sessions enabled the engine batches at **iteration level**
//! (continuous batching): each settled iteration immediately frees its
//! batch slot, due decode steps rejoin their resident shard's next batch
//! ahead of new prefills, and a per-shard *state budget*
//! ([`config::SessionConfig::state_budget`] — the KV-cache analogue)
//! bounds resident sessions, forcing deterministic least-recently-settled
//! eviction and priced prefill recompute. [`Backend`] pricing splits into
//! prefill vs decode phases ([`Backend::estimate_prefill_ns`],
//! [`Backend::estimate_decode_ns`], [`Backend::decode_output`]) so
//! routers see both; the report grows streaming SLOs — time-to-first-token
//! and time-between-tokens histograms against per-class
//! [`defa_model::workload::StreamingBudget`]s. Setting
//! `SessionConfig::gang` schedules each session as one gang instead — the
//! baseline continuous batching is measured against.
//!
//! Every layer is a policy behind a trait, configured per [`ServeConfig`]
//! and driven through one typed entry point,
//! [`ServeSpec`] → [`ServeRuntime::serve`]:
//!
//! * [`loadgen`] — pluggable [`loadgen::ArrivalProcess`] (Poisson, bursty
//!   on/off MMPP, uniform pacing) derives the arrival trace from a seed;
//!   [`defa_model::workload::RequestGenerator`] materializes each request
//!   (scenario pick + SLO class + fresh feature pyramid) purely from
//!   `(seed, id)`.
//! * [`admission`] — a bounded arrival-order queue with a
//!   [`admission::DropPolicy`] (tail drop or evict-oldest) deciding who is
//!   shed on overflow.
//! * [`scheduler`] — a [`scheduler::Scheduler`] picks which queued
//!   prefills form the next batch: FIFO, shortest-job-first over the
//!   backends' cost estimates, or earliest-deadline-first over per-request
//!   [`defa_model::workload::SloClass`] budgets. Iteration-level admission
//!   goes through [`scheduler::Scheduler::admit_into`], which fills only
//!   the slots left after a shard's due decode steps.
//! * [`router`] — a [`router::Router`] places each batch on a shard:
//!   round-robin, least-outstanding-work, or latency-/energy-aware over
//!   heterogeneous fleets where shards wrap *different* backends
//!   ([`ServeSpec::fleet`]); [`router::ShardView`] carries phase-split
//!   prefill/decode estimates for phase-aware placement.
//! * [`backend`] — the three execution engines behind one trait: the dense
//!   reference encoder, the DEFA pruned pipeline, and the cycle-simulated
//!   accelerator — plus the analytic cost/energy estimates the cost-aware
//!   policies steer by, now split into prefill and decode phases.
//! * [`cost`] — memoized [`cost::CostTable`]s: every backend's estimate
//!   surface (cost, energy, idle power per scenario × DVFS point) is
//!   priced once at fleet construction, so the hot loops index integers
//!   instead of re-running analytic estimators; the tables are pinned
//!   exactly equal to the live estimators by property test.
//! * [`control`] — the closed loop above the per-batch layers: virtual
//!   time is split into epochs, and a [`control::Controller`] observes a
//!   [`control::FleetView`] at every boundary and actuates the fleet —
//!   [`control::ShardAutoscaler`] grows/drains shards (drain-before-stop)
//!   and [`control::DvfsGovernor`] steps the accelerator clock down a
//!   frequency/voltage ladder, re-pricing latency and energy through
//!   [`Backend::reprice`]. [`loadgen::TraceSchedule`] supplies the
//!   time-varying traces (diurnal / surge / sawtooth / random-walk) the
//!   controllers are exercised against.
//! * [`obs`] — the deterministic observability layer: seeded-sampled
//!   span tracing of every request lifecycle (exported as Chrome
//!   `trace_event` JSON), an integer metrics registry snapshotted at
//!   epoch boundaries, and flag-gated wall-clock self-profiling of the
//!   engine hot paths. Disabled by default at zero overhead; when on,
//!   every deterministic surface is byte-identical across thread counts
//!   like the rest of the report.
//! * [`histogram`] accounts queue/compute/total latency per request in
//!   fixed log2 buckets with deterministic p50/p95/p99; [`energy`]
//!   attributes deterministic per-request energy in integer picojoules;
//!   [`report`] folds both into the [`ServeReport`] together with drop,
//!   SLO-violation and per-epoch timeline accounting
//!   ([`report::EpochStat`], including idle/static energy).
//!
//! **Determinism contract.** With a fixed generator seed and
//! [`ServeConfig`] — *including* the policy selection — per-request
//! responses are bit-identical regardless of batch size, shard count or
//! `RAYON_NUM_THREADS`, and the full [`ServeReport`] (outcomes, bucket
//! counts, quantiles, fixed-point energy totals) is byte-identical across
//! thread counts — time is virtual, driven by the load trace and the
//! backends' deterministic cost models, never by the wall clock. The
//! default Poisson + FIFO + round-robin configuration reproduces the
//! PR 2/PR 3 runtime byte-for-byte. `tests/tests/serving.rs` pins all of
//! this.
//!
//! # Example
//!
//! ```
//! use defa_model::workload::RequestGenerator;
//! use defa_model::MsdaConfig;
//! use defa_serve::{BackendKind, ServeConfig, ServeRuntime, ServeSpec};
//!
//! # fn main() -> Result<(), defa_serve::ServeError> {
//! let gen = RequestGenerator::standard(&MsdaConfig::tiny(), 42)?;
//! let runtime = ServeRuntime::new(gen);
//! let spec = ServeSpec::homogeneous(&BackendKind::Pruned.build(), &ServeConfig::at_load(800.0, 12));
//! let report = runtime.serve(&spec)?;
//! println!("{report}");
//! assert_eq!(report.completed + report.dropped, 12);
//! # Ok(())
//! # }
//! ```

pub mod admission;
pub mod backend;
pub mod config;
pub mod control;
pub mod cost;
pub mod energy;
pub mod error;
pub mod events;
pub mod histogram;
pub mod loadgen;
pub mod obs;
pub mod report;
pub mod router;
pub mod runtime;
pub mod scheduler;
mod slab;

pub use admission::{Admission, AdmissionQueue, DropPolicy, QueuedRequest};
pub use backend::{Backend, BackendKind, BackendOutput, ReplayBackend, DECODE_COST_DIV};
pub use config::{ControlConfig, ServeConfig, SessionConfig, DEFAULT_OUTCOME_CAPTURE};
pub use control::{
    AutoscalerConfig, ControlAction, Controller, ControllerKind, DvfsConfig, DvfsGovernor,
    DvfsPoint, FleetView, NoOpController, ShardAutoscaler, DVFS_LADDER,
};
pub use cost::CostTable;
pub use energy::EnergyBreakdown;
pub use error::ServeError;
pub use events::{EventClass, EventList};
pub use histogram::LatencyHistogram;
pub use loadgen::{ArrivalIter, ArrivalProcess, RateSegment, SegmentProcess, TraceSchedule};
pub use obs::{
    Log2Histogram, MetricsRegistry, ObsConfig, ObsReport, ProfSection, SelfProfile, SpanEvent,
    SpanSampler,
};
pub use report::{EpochStat, LiveStats, RequestOutcome, ServeReport};
pub use router::{Router, RouterKind, ShardView};
pub use runtime::{ServeRuntime, ServeSpec};
pub use scheduler::{Scheduler, SchedulerKind};

// Session workload surfaces, re-exported so serving callers need not
// depend on `defa_model` directly.
pub use defa_model::workload::{SessionProfile, StreamingBudget};
