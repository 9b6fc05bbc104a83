//! Serving operating points: load, batching, the three policy knobs,
//! and the epoch-stepped control loop.

use crate::admission::DropPolicy;
use crate::control::ControllerKind;
use crate::loadgen::ArrivalProcess;
use crate::obs::ObsConfig;
use crate::router::RouterKind;
use crate::scheduler::SchedulerKind;
use crate::ServeError;
use defa_model::workload::SessionProfile;

/// The epoch-stepped fleet-control configuration.
///
/// The runtime always divides virtual time into `epoch_us` epochs — the
/// per-epoch timeline in [`crate::ServeReport`] exists for every run —
/// but only a non-[`ControllerKind::NoOp`] controller actually *acts* on
/// the boundaries. `max_shards` is the fleet ceiling an autoscaler may
/// grow into; the fleet of the [`crate::ServeSpec`] passed to
/// [`crate::ServeRuntime::serve`] must cover it, and shards beyond [`ServeConfig::shards`] start inactive.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlConfig {
    /// Control-epoch length in virtual microseconds.
    pub epoch_us: u64,
    /// Fleet-size ceiling; 0 means "exactly [`ServeConfig::shards`]" (no
    /// growth headroom).
    pub max_shards: usize,
    /// The controller observed/actuated at epoch boundaries.
    pub controller: ControllerKind,
}

impl Default for ControlConfig {
    fn default() -> Self {
        ControlConfig { epoch_us: 1_000, max_shards: 0, controller: ControllerKind::NoOp }
    }
}

impl ControlConfig {
    /// The number of shards that must exist (active or not) for a run
    /// with `shards` initially active.
    pub fn fleet_size(&self, shards: usize) -> usize {
        if self.max_shards == 0 {
            shards
        } else {
            self.max_shards.max(shards)
        }
    }
}

/// The session-serving configuration: session shapes, the per-shard
/// state budget (the KV-cache analogue) and the batching discipline.
///
/// The default — [`SessionProfile::ONE_SHOT`], unlimited budget,
/// continuous batching — keeps every request a single-iteration session
/// and routes the run through the legacy one-shot engine, byte-identical
/// to every pre-session pin. Only a multi-iteration profile
/// ([`SessionConfig::enabled`]) engages the iteration-level session
/// engine; `state_budget` and `gang` are inert for one-shot profiles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionConfig {
    /// Seeded session-length / think-time distributions. Request `id`
    /// becomes the prefill of session `id`.
    pub profile: SessionProfile,
    /// Maximum sessions whose state may be resident on one shard at once
    /// (the modeled KV-cache capacity); 0 means unlimited. Admitting a
    /// prefill beyond the budget deterministically evicts the
    /// least-recently-settled resident session, whose next iteration must
    /// then *recompute* (pay a prefill plus its decode).
    pub state_budget: usize,
    /// Gang scheduling: a session, once admitted, occupies its shard for
    /// *all* its iterations (think times block the shard). The baseline
    /// continuous batching (`false`) releases the shard between
    /// iterations so new sessions join the batch between steps.
    pub gang: bool,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig { profile: SessionProfile::ONE_SHOT, state_budget: 0, gang: false }
    }
}

impl SessionConfig {
    /// Whether this configuration engages the session engine: only a
    /// multi-iteration profile does. One-shot profiles always run the
    /// legacy engine regardless of `state_budget`/`gang` (a session of
    /// length 1 holds no state between iterations, so both knobs are
    /// vacuous), which is what pins `session_len = 1` byte-identical to
    /// the pre-session runtime.
    pub fn enabled(&self) -> bool {
        !self.profile.is_one_shot()
    }
}

/// One serving operating point.
///
/// The first seven fields shape the load and the batching window; the
/// next four pick the policy at each layer (arrival process → admission
/// drop policy → scheduler → router); `control` closes the loop at epoch
/// granularity. The defaults — Poisson, tail drop, FIFO, round-robin, a
/// static fleet — reproduce the PR 2/PR 3 runtime byte-for-byte, pinned
/// by `tests/tests/serving.rs` and `tests/tests/control.rs`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Offered load of the open-loop generator, requests per virtual
    /// second.
    pub offered_load: f64,
    /// Number of requests in the trace.
    pub n_requests: usize,
    /// Admission-queue capacity; arrivals beyond it invoke `drop`.
    pub queue_capacity: usize,
    /// Maximum requests coalesced into one batch.
    pub max_batch: usize,
    /// Oldest-request age (virtual µs) that forces a partial batch out.
    pub batch_deadline_us: u64,
    /// Fixed per-batch dispatch overhead (virtual µs) — the cost batching
    /// amortizes.
    pub batch_overhead_us: u64,
    /// Number of worker shards serving batches.
    pub shards: usize,
    /// How arrivals are spaced at the offered rate.
    pub arrival: ArrivalProcess,
    /// What happens to an arrival that finds the queue full.
    pub drop: DropPolicy,
    /// Which queued requests form the next batch.
    pub scheduler: SchedulerKind,
    /// Which shard a formed batch runs on.
    pub router: RouterKind,
    /// The epoch-stepped fleet-control loop (epoch length, shard
    /// ceiling, controller).
    pub control: ControlConfig,
    /// Per-request outcome capture cap: the runtime keeps full
    /// [`crate::RequestOutcome`] records only for request ids below this
    /// bound ([`ServeReport::outcomes`](crate::ServeReport::outcomes) is
    /// a *prefix capture*, not the whole trace). Every aggregate —
    /// digests, histograms, energy, the timeline — is streamed exactly
    /// for **all** requests regardless; the cap only bounds the debug
    /// records, which is what keeps a 10M-request run in constant
    /// memory. Set 0 to capture nothing, `usize::MAX` to capture
    /// everything.
    pub outcome_capture: usize,
    /// The observability layer: span tracing, the metrics registry and
    /// wall-clock self-profiling. Defaults to fully disabled — the
    /// zero-overhead path every pre-observability pin runs on.
    pub obs: ObsConfig,
    /// Session shapes, per-shard state budget and batching discipline.
    /// Defaults to one-shot sessions — the legacy engine path.
    pub sessions: SessionConfig,
}

/// Default [`ServeConfig::outcome_capture`]: large enough that every
/// toy/test scale keeps full per-request outcomes (all existing pins
/// predate the cap), small enough that million-request runs stay
/// bounded.
pub const DEFAULT_OUTCOME_CAPTURE: usize = 4_096;

impl ServeConfig {
    /// A reasonable operating point at a given offered load: queue of 64,
    /// batches of up to 8 with a 2 ms deadline, 50 µs dispatch overhead,
    /// two shards, and the default Poisson/FIFO/round-robin policies.
    pub fn at_load(offered_load: f64, n_requests: usize) -> Self {
        ServeConfig {
            offered_load,
            n_requests,
            queue_capacity: 64,
            max_batch: 8,
            batch_deadline_us: 2_000,
            batch_overhead_us: 50,
            shards: 2,
            arrival: ArrivalProcess::Poisson,
            drop: DropPolicy::RejectNewest,
            scheduler: SchedulerKind::Fifo,
            router: RouterKind::RoundRobin,
            control: ControlConfig::default(),
            outcome_capture: DEFAULT_OUTCOME_CAPTURE,
            obs: ObsConfig::default(),
            sessions: SessionConfig::default(),
        }
    }

    /// Validates the configuration.
    ///
    /// Degenerate scalars (zero counts, zero deadline, non-finite or
    /// non-positive load) are rejected with
    /// [`ServeError::DegenerateConfig`] naming the offending field;
    /// cross-field inconsistencies with [`ServeError::InvalidConfig`].
    ///
    /// # Errors
    ///
    /// Returns the error variants above; never panics.
    pub fn validate(&self) -> Result<(), ServeError> {
        let degenerate =
            |field: &'static str, got: String| Err(ServeError::DegenerateConfig { field, got });
        if !(self.offered_load.is_finite() && self.offered_load > 0.0) {
            return degenerate(
                "offered_load",
                format!("{} (must be finite and positive)", self.offered_load),
            );
        }
        if self.n_requests == 0 {
            return degenerate("n_requests", "0 (must be at least 1)".into());
        }
        if self.queue_capacity == 0 {
            return degenerate("queue_capacity", "0 (must be at least 1)".into());
        }
        if self.max_batch == 0 {
            return degenerate("max_batch", "0 (must be at least 1)".into());
        }
        if self.batch_deadline_us == 0 {
            return degenerate(
                "batch_deadline_us",
                "0 (a zero batching window can never coalesce; use max_batch = 1 instead)".into(),
            );
        }
        if self.shards == 0 {
            return degenerate("shards", "0 (must be at least 1)".into());
        }
        match &self.arrival {
            ArrivalProcess::Bursty { burst } => {
                if !(burst.is_finite() && *burst > 1.0) {
                    return degenerate(
                        "arrival.burst",
                        format!("{burst} (must be finite and exceed 1)"),
                    );
                }
            }
            ArrivalProcess::Trace(schedule) => {
                if schedule.segments.is_empty() {
                    return degenerate("arrival.trace", "no segments".into());
                }
                for (i, seg) in schedule.segments.iter().enumerate() {
                    if !(seg.rate_mult.is_finite() && seg.rate_mult >= 0.0) {
                        return degenerate(
                            "arrival.trace",
                            format!(
                                "segment {i} rate_mult {} (must be finite and >= 0)",
                                seg.rate_mult
                            ),
                        );
                    }
                    if let crate::loadgen::SegmentProcess::Bursty { burst } = seg.process {
                        if !(burst.is_finite() && burst > 1.0) {
                            return degenerate(
                                "arrival.trace",
                                format!("segment {i} burst {burst} (must exceed 1)"),
                            );
                        }
                    }
                }
                if !schedule.can_arrive() {
                    return degenerate(
                        "arrival.trace",
                        "no segment with positive duration and positive rate — the schedule \
                         could never produce an arrival"
                            .into(),
                    );
                }
                // offered_load is already known positive (checked first).
                if !schedule.productive_at(self.offered_load) {
                    return degenerate(
                        "arrival.trace",
                        format!(
                            "no segment can fire at offered_load {} — every productive window \
                             is uniform-paced with a gap longer than the window itself",
                            self.offered_load
                        ),
                    );
                }
            }
            ArrivalProcess::Poisson | ArrivalProcess::Uniform => {}
        }
        if self.control.epoch_us == 0 {
            return degenerate("control.epoch_us", "0 (must be at least 1)".into());
        }
        if !(self.obs.trace_sample.is_finite() && (0.0..=1.0).contains(&self.obs.trace_sample)) {
            return degenerate(
                "obs.trace_sample",
                format!("{} (must be a finite fraction in [0, 1])", self.obs.trace_sample),
            );
        }
        if self.obs.tracing && self.obs.trace_buffer == 0 {
            return degenerate(
                "obs.trace_buffer",
                "0 (tracing is enabled; the span buffer needs capacity)".into(),
            );
        }
        if self.obs.metrics && self.obs.metrics_buffer == 0 {
            return degenerate(
                "obs.metrics_buffer",
                "0 (metrics are enabled; the snapshot series needs capacity)".into(),
            );
        }
        if self.sessions.profile.min_len == 0 {
            return degenerate(
                "sessions.profile.min_len",
                "0 (a session runs at least one iteration)".into(),
            );
        }
        if self.sessions.profile.max_len < self.sessions.profile.min_len {
            return degenerate(
                "sessions.profile.max_len",
                format!(
                    "{} (below min_len {})",
                    self.sessions.profile.max_len, self.sessions.profile.min_len
                ),
            );
        }
        if self.sessions.enabled() && !matches!(self.control.controller, ControllerKind::NoOp) {
            return Err(ServeError::InvalidConfig(format!(
                "session serving does not yet support fleet controllers (controller {:?} with a \
                 multi-iteration session profile); use ControllerKind::NoOp",
                self.control.controller
            )));
        }
        if self.control.max_shards != 0 && self.control.max_shards < self.shards {
            return Err(ServeError::InvalidConfig(format!(
                "control.max_shards {} below shards {} — the initial fleet would not fit its \
                 own ceiling",
                self.control.max_shards, self.shards
            )));
        }
        if self.max_batch > self.queue_capacity {
            return Err(ServeError::InvalidConfig(format!(
                "max_batch {} exceeds queue_capacity {} — full batches could never form",
                self.max_batch, self.queue_capacity
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policies_are_the_pr2_configuration() {
        let cfg = ServeConfig::at_load(1_000.0, 8);
        assert_eq!(cfg.arrival, ArrivalProcess::Poisson);
        assert_eq!(cfg.drop, DropPolicy::RejectNewest);
        assert_eq!(cfg.scheduler, SchedulerKind::Fifo);
        assert_eq!(cfg.router, RouterKind::RoundRobin);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn degenerate_scalars_name_their_field() {
        let base = ServeConfig::at_load(1_000.0, 8);
        let tracing_at = |trace_sample| crate::obs::ObsConfig {
            tracing: true,
            trace_sample,
            ..crate::obs::ObsConfig::default()
        };
        for (cfg, field) in [
            (ServeConfig { offered_load: 0.0, ..base.clone() }, "offered_load"),
            (ServeConfig { offered_load: -3.0, ..base.clone() }, "offered_load"),
            (ServeConfig { offered_load: f64::NAN, ..base.clone() }, "offered_load"),
            (ServeConfig { offered_load: f64::INFINITY, ..base.clone() }, "offered_load"),
            (ServeConfig { n_requests: 0, ..base.clone() }, "n_requests"),
            (ServeConfig { queue_capacity: 0, ..base.clone() }, "queue_capacity"),
            (ServeConfig { max_batch: 0, ..base.clone() }, "max_batch"),
            (ServeConfig { batch_deadline_us: 0, ..base.clone() }, "batch_deadline_us"),
            (ServeConfig { shards: 0, ..base.clone() }, "shards"),
            (
                ServeConfig { arrival: ArrivalProcess::Bursty { burst: 1.0 }, ..base.clone() },
                "arrival.burst",
            ),
            (
                ServeConfig { arrival: ArrivalProcess::Bursty { burst: f64::NAN }, ..base.clone() },
                "arrival.burst",
            ),
            (
                ServeConfig {
                    arrival: ArrivalProcess::Trace(crate::loadgen::TraceSchedule::new(
                        "dead",
                        vec![crate::loadgen::RateSegment::poisson(1_000, 0.0)],
                    )),
                    ..base.clone()
                },
                "arrival.trace",
            ),
            (
                ServeConfig {
                    arrival: ArrivalProcess::Trace(crate::loadgen::TraceSchedule::new(
                        "nan",
                        vec![crate::loadgen::RateSegment::poisson(1_000, f64::NAN)],
                    )),
                    ..base.clone()
                },
                "arrival.trace",
            ),
            (
                // Uniform window shorter than its own gap at this load:
                // deterministically silent, must be rejected up front.
                ServeConfig {
                    offered_load: 100.0,
                    arrival: ArrivalProcess::Trace(crate::loadgen::TraceSchedule::new(
                        "stuck",
                        vec![crate::loadgen::RateSegment {
                            duration_us: 1_000,
                            rate_mult: 1.0,
                            process: crate::loadgen::SegmentProcess::Uniform,
                        }],
                    )),
                    ..base.clone()
                },
                "arrival.trace",
            ),
            (
                ServeConfig {
                    control: ControlConfig { epoch_us: 0, ..ControlConfig::default() },
                    ..base.clone()
                },
                "control.epoch_us",
            ),
            (ServeConfig { obs: tracing_at(1.5), ..base.clone() }, "obs.trace_sample"),
            (ServeConfig { obs: tracing_at(-0.1), ..base.clone() }, "obs.trace_sample"),
            (ServeConfig { obs: tracing_at(f64::NAN), ..base.clone() }, "obs.trace_sample"),
            (
                ServeConfig {
                    obs: crate::obs::ObsConfig {
                        trace_buffer: 0,
                        tracing: true,
                        ..crate::obs::ObsConfig::default()
                    },
                    ..base.clone()
                },
                "obs.trace_buffer",
            ),
            (
                ServeConfig {
                    obs: crate::obs::ObsConfig {
                        metrics_buffer: 0,
                        metrics: true,
                        ..crate::obs::ObsConfig::default()
                    },
                    ..base.clone()
                },
                "obs.metrics_buffer",
            ),
            (
                ServeConfig {
                    sessions: SessionConfig {
                        profile: SessionProfile { min_len: 0, max_len: 1, think_mean_us: 0 },
                        ..SessionConfig::default()
                    },
                    ..base.clone()
                },
                "sessions.profile.min_len",
            ),
            (
                ServeConfig {
                    sessions: SessionConfig {
                        profile: SessionProfile { min_len: 4, max_len: 2, think_mean_us: 0 },
                        ..SessionConfig::default()
                    },
                    ..base.clone()
                },
                "sessions.profile.max_len",
            ),
        ] {
            match cfg.validate() {
                Err(ServeError::DegenerateConfig { field: f, .. }) => {
                    assert_eq!(f, field, "wrong field blamed");
                }
                other => panic!("{field}: expected DegenerateConfig, got {other:?}"),
            }
        }
    }

    #[test]
    fn cross_field_nonsense_stays_invalid_config() {
        let cfg =
            ServeConfig { max_batch: 100, queue_capacity: 10, ..ServeConfig::at_load(1.0, 1) };
        assert!(matches!(cfg.validate(), Err(ServeError::InvalidConfig(_))));
        let ceiling = ServeConfig {
            shards: 4,
            control: ControlConfig { max_shards: 2, ..ControlConfig::default() },
            ..ServeConfig::at_load(1.0, 1)
        };
        assert!(matches!(ceiling.validate(), Err(ServeError::InvalidConfig(_))));
    }

    #[test]
    fn session_configs_gate_the_engine_and_reject_controllers() {
        // The default is one-shot: the legacy engine, knobs inert.
        let base = ServeConfig::at_load(1.0, 1);
        assert!(!base.sessions.enabled());
        assert!(base.validate().is_ok());
        // state_budget / gang on a one-shot profile stay on the legacy
        // path (and validate — they are vacuous, not wrong).
        let inert = ServeConfig {
            sessions: SessionConfig { state_budget: 2, gang: true, ..SessionConfig::default() },
            ..base.clone()
        };
        assert!(!inert.sessions.enabled());
        assert!(inert.validate().is_ok());
        // A multi-iteration profile engages the session engine…
        let multi = SessionConfig {
            profile: SessionProfile { min_len: 1, max_len: 4, think_mean_us: 100 },
            ..SessionConfig::default()
        };
        assert!(multi.enabled());
        assert!(ServeConfig { sessions: multi.clone(), ..base.clone() }.validate().is_ok());
        // …and refuses non-NoOp fleet controllers for now.
        let controlled = ServeConfig {
            sessions: multi,
            control: ControlConfig {
                max_shards: 4,
                controller: ControllerKind::Autoscaler(Default::default()),
                ..ControlConfig::default()
            },
            ..base
        };
        assert!(matches!(controlled.validate(), Err(ServeError::InvalidConfig(_))));
    }

    #[test]
    fn fleet_size_defaults_to_shards_and_respects_the_ceiling() {
        assert_eq!(ControlConfig::default().fleet_size(3), 3);
        let ctl = ControlConfig { max_shards: 8, ..ControlConfig::default() };
        assert_eq!(ctl.fleet_size(2), 8);
        assert_eq!(ctl.fleet_size(8), 8);
    }

    #[test]
    fn degenerate_errors_display_the_field() {
        let err =
            ServeConfig { max_batch: 0, ..ServeConfig::at_load(1.0, 1) }.validate().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("max_batch"), "{msg}");
    }
}
