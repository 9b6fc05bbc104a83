//! The serving runtime: the discrete-event virtual-time engine that
//! composes the policy layers.
//!
//! # Execution model
//!
//! The runtime separates *what* is computed from *when* it is deemed to
//! happen:
//!
//! * **Real execution** — every admitted request is materialized from the
//!   seeded [`RequestGenerator`] and evaluated by its shard's backend on a
//!   long-lived [`WorkerPool`] worker. Requests are independent, so
//!   per-request results are bit-identical regardless of batch
//!   composition, shard count or thread count. Pool workers are
//!   persistent threads, so the thread-local [`defa_tensor::Scratch`]
//!   arenas inside the GEMM kernels act as per-shard arenas: after the
//!   first batch warms the high-water mark, steady-state serving performs
//!   no packing allocations. Payload-free backends
//!   ([`Backend::payload_free`], e.g. [`crate::backend::ReplayBackend`])
//!   skip materialization *and* the pool round-trip entirely: their
//!   batches execute inline on the accounting thread, which is what makes
//!   10M-request traces feasible in seconds.
//!
//! * **Virtual-time accounting** — arrivals, queueing, batching triggers
//!   and service times are tracked on an integer virtual clock driven by
//!   the seeded load generator and the backends' deterministic cost
//!   models. Latency numbers therefore never observe wall-clock jitter:
//!   the full [`ServeReport`] — digest, histogram buckets, quantiles,
//!   timeline — is byte-identical for any `RAYON_NUM_THREADS`, pinned by
//!   `tests/tests/serving.rs`.
//!
//! # The event loop
//!
//! The loop is driven by a typed event list ([`crate::events`]): one
//! pending epoch-boundary event, one pending arrival (the head of the
//! lazy [`crate::loadgen::ArrivalIter`] — the trace is never
//! materialized), and a binary heap of per-shard free events. Live state
//! is therefore bounded by *in-flight* work — the admission queue, one
//! batch per shard, and a small settle-reorder window — never by the
//! trace length:
//!
//! * **Arrivals** stream from the pull iterator one at a time; consuming
//!   the cursor pulls the next.
//! * **Outcomes** stream into the log2 latency histograms, fixed-point
//!   energy accumulators and the id-ordered FNV digest as they settle; a
//!   reorder window no deeper than the scheduler's fairness bound puts
//!   out-of-order settles back in id order. Per-request
//!   [`RequestOutcome`] records are an opt-in debug capture of the first
//!   [`crate::config::ServeConfig::outcome_capture`] requests.
//! * **Epoch boundaries** are scheduled events. Across an idle gap with a
//!   quiescent controller ([`Controller::quiescent`]) the loop
//!   fast-forwards the boundary cursor in O(1) instead of stepping every
//!   boundary — a multi-second silent trace segment costs one skip, not
//!   O(idle-epochs) controller calls. Peak live state and the
//!   stepped/skipped split are reported in [`crate::report::LiveStats`].
//!
//! # The policy layers
//!
//! Each decision the loop takes is delegated to a layer behind a trait,
//! configured per [`ServeConfig`]:
//!
//! ```text
//!  ArrivalProcess ─> AdmissionQueue ─> Scheduler ─> Router ─> fleet ─> report
//!  (when requests    (who may wait;    (who rides   (which     (which
//!   arrive)           who is dropped)   the batch)   shard)     backend)
//! ```
//!
//! The loop itself owns only the *timing* rules, identical for every
//! policy: a batch launches when [`ServeConfig::max_batch`] requests are
//! waiting or the oldest waiting request has aged past
//! [`ServeConfig::batch_deadline_us`]; the chosen shard serves it
//! sequentially after a fixed dispatch overhead. With the default
//! policies (Poisson, tail drop, FIFO, round-robin) the loop replays the
//! PR 2 runtime decision-for-decision — the byte-compat test pins it.
//!
//! # The control loop
//!
//! On top of the per-batch policies sits the per-epoch control loop
//! ([`crate::control`]): virtual time is divided into
//! [`crate::config::ControlConfig::epoch_us`] epochs, and before each
//! routing decision the loop settles every boundary the decision time has
//! crossed — handing the [`Controller`] a [`FleetView`] of the epoch that
//! ended and applying its actions (activate a shard, drain a shard, step
//! the DVFS clock) before any further batch forms. Draining is
//! *drain-before-stop*: a drained shard takes no new batches but its
//! in-flight batch settles through the normal path, so conservation and
//! byte-determinism survive every resize. Batches carry the clock they
//! were dispatched at; settling re-prices their latency and energy
//! through [`Backend::reprice`], which is exactly the identity at the
//! nominal point — a [`crate::control::NoOpController`] run is
//! byte-identical to PR 4 (`tests/tests/control.rs` pins it against the
//! same digests as `tests/tests/serving.rs`).

use crate::admission::{Admission, AdmissionQueue, QueuedRequest};
use crate::backend::{Backend, BackendOutput};
use crate::config::ServeConfig;
use crate::control::{ControlAction, Controller, DvfsPoint, FleetView};
use crate::cost::CostTable;
use crate::energy::EnergyBreakdown;
use crate::events::EventList;
use crate::histogram::LatencyHistogram;
use crate::loadgen::ArrivalIter;
use crate::obs::{Obs, ProfSection};
use crate::report::{EpochStat, LiveStats, RequestOutcome, ServeReport};
use crate::router::ShardView;
use crate::slab::IdSlab;
use crate::ServeError;
use defa_model::workload::{RequestGenerator, SloClass};
use defa_parallel::WorkerPool;
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};
use std::fmt::Write as _;
use std::sync::{mpsc, Arc};

/// Salt applied to the generator seed for the arrival-time stream, so load
/// timing and request payloads draw from independent streams.
const ARRIVAL_SALT: u64 = 0x5E54_1A7E_57A6_0001;

/// Digest marker mixed in for dropped requests.
const DROP_MARK: u64 = 0xD20D_D20D_D20D_D20D;

/// Where a batch's real results come from: a worker-pool channel for
/// backends that need materialized payloads, or the already-computed
/// vector for payload-free backends executed inline.
enum BatchResults {
    Pool(mpsc::Receiver<Vec<Result<BackendOutput, ServeError>>>),
    Ready(Vec<Result<BackendOutput, ServeError>>),
}

/// A batch handed to a shard: its virtual start, the clock it dispatched
/// at, plus where its real results arrive.
struct Inflight {
    start_ns: u64,
    batch: u64,
    clock: DvfsPoint,
    members: Vec<QueuedRequest>,
    results: BatchResults,
}

/// Streams settled outcomes into the id-ordered FNV digest without
/// holding them all.
///
/// Settles arrive out of id order (pipelined shards, non-FIFO
/// schedulers), but the digest folds in id order, so a small reorder
/// window buffers outcomes until the id watermark (`base`) reaches them.
/// The window depth is bounded by how far the scheduler lets a request
/// fall behind its successors — the fairness bound — not by the trace
/// length; its high-water mark is reported as
/// [`LiveStats::peak_reorder`].
///
/// The window holds only the 8-byte *digest word* per pending request
/// (the response digest, or [`DROP_MARK`] for drops) — never the full
/// [`RequestOutcome`]. At trace scale the window runs hundreds of
/// entries deep, so keeping it to a `u64` ring instead of ~120-byte
/// outcome records is a measured hot-path win (the settle section of
/// the self-profile); the fold order and `peak_window` accounting are
/// unchanged. The opt-in debug capture of the first `capture_cap`
/// outcomes (by id) is collected out of settle order on the side and
/// sorted once at `finish` — ids are unique, so the sorted capture is
/// byte-identical to the fold-order capture it replaced.
struct OutcomeLedger {
    digest: u64,
    /// All outcomes with id < base are folded into `digest`.
    base: u64,
    /// Pending digest words for ids `base..base + window.len()`.
    window: VecDeque<Option<u64>>,
    captured: Vec<(u64, RequestOutcome)>,
    capture_cap: u64,
    peak_window: usize,
}

impl OutcomeLedger {
    fn new(capture_cap: usize) -> Self {
        OutcomeLedger {
            digest: crate::backend::FNV_OFFSET,
            base: 0,
            window: VecDeque::new(),
            captured: Vec::new(),
            capture_cap: capture_cap as u64,
            peak_window: 0,
        }
    }

    /// Whether request `id` falls in the opt-in debug capture; callers
    /// only materialize a [`RequestOutcome`] when it does.
    #[inline(always)]
    fn captures(&self, id: u64) -> bool {
        id < self.capture_cap
    }

    /// Keeps one captured outcome (any settle order; sorted at finish).
    #[inline(always)]
    fn capture(&mut self, id: u64, outcome: RequestOutcome) {
        debug_assert!(self.captures(id));
        self.captured.push((id, outcome));
    }

    /// Buffers one settled digest word and folds every now-contiguous
    /// prefix into the digest.
    #[inline(always)]
    fn record(&mut self, id: u64, word: u64) {
        debug_assert!(id >= self.base, "request {id} settled twice");
        let off = (id - self.base) as usize;
        if off >= self.window.len() {
            self.window.resize_with(off + 1, || None);
        }
        debug_assert!(self.window[off].is_none(), "request {id} settled twice");
        self.window[off] = Some(word);
        self.peak_window = self.peak_window.max(self.window.len());
        while let Some(&Some(w)) = self.window.front() {
            self.window.pop_front();
            self.digest = crate::backend::fnv_fold(self.digest, w);
            self.base += 1;
        }
    }

    /// Conservation check and final accounting:
    /// `(digest, captured outcomes, peak reorder depth)`.
    fn finish(mut self, n_requests: u64) -> (u64, Vec<RequestOutcome>, u64) {
        assert_eq!(
            self.base, n_requests,
            "outcome ledger: {} of {n_requests} requests settled",
            self.base
        );
        self.captured.sort_unstable_by_key(|&(id, _)| id);
        let captured = self.captured.into_iter().map(|(_, o)| o).collect();
        (self.digest, captured, self.peak_window as u64)
    }
}

/// One epoch's worth of streamed timeline counters.
#[derive(Debug, Clone, Copy)]
struct SlotAcc {
    arrivals: u64,
    completed: u64,
    dropped: u64,
    slo_violations: u64,
    energy: EnergyBreakdown,
}

impl SlotAcc {
    const EMPTY: SlotAcc = SlotAcc {
        arrivals: 0,
        completed: 0,
        dropped: 0,
        slo_violations: 0,
        energy: EnergyBreakdown::ZERO,
    };
}

/// Streaming accumulator for the per-epoch report timeline.
///
/// Counters stream in by exact virtual timestamp as requests settle (the
/// makespan — and hence the final epoch count — is unknown until the
/// run ends); `finalize` clamps any counters recorded past the makespan
/// into the last epoch, exactly as the outcome-replay builder it
/// replaced did.
struct TimelineAcc {
    epoch_ns: u64,
    slots: Vec<SlotAcc>,
    /// Slot index and half-open `[start, end)` window of the last lookup.
    /// Timestamps cluster heavily within one control epoch, so caching
    /// the window turns the per-event `u64` division into two compares
    /// on the hot path (`cached_end == 0` initially, so the first lookup
    /// always misses).
    cached_idx: usize,
    cached_start: u64,
    cached_end: u64,
}

impl TimelineAcc {
    fn new(epoch_ns: u64) -> Self {
        TimelineAcc { epoch_ns, slots: Vec::new(), cached_idx: 0, cached_start: 0, cached_end: 0 }
    }

    #[inline(always)]
    fn slot(&mut self, t: u64) -> &mut SlotAcc {
        if t < self.cached_start || t >= self.cached_end {
            let idx = (t / self.epoch_ns) as usize;
            if idx >= self.slots.len() {
                self.slots.resize(idx + 1, SlotAcc::EMPTY);
            }
            self.cached_idx = idx;
            self.cached_start = t - t % self.epoch_ns;
            self.cached_end = self.cached_start.saturating_add(self.epoch_ns);
        }
        &mut self.slots[self.cached_idx]
    }

    /// An offered request at its arrival time.
    #[inline(always)]
    fn arrival(&mut self, t: u64) {
        self.slot(t).arrivals += 1;
    }

    /// A dropped request at its arrival time (drops count as offered).
    #[inline(always)]
    fn drop_at(&mut self, t: u64) {
        let s = self.slot(t);
        s.arrivals += 1;
        s.dropped += 1;
    }

    /// A completion (and its energy and SLO verdict) at its completion
    /// time.
    #[inline(always)]
    fn completion(&mut self, t: u64, energy: EnergyBreakdown, violated: bool) {
        let s = self.slot(t);
        s.completed += 1;
        s.energy += energy;
        if violated {
            s.slo_violations += 1;
        }
    }

    /// Builds the report timeline: one [`EpochStat`] per epoch up to the
    /// makespan, fleet states looked up from the run's change-point log.
    fn finalize(mut self, makespan_ns: u64, states: &[(u64, EpochFleetState)]) -> Vec<EpochStat> {
        let n_epochs =
            if makespan_ns == 0 { 1 } else { makespan_ns.div_ceil(self.epoch_ns) } as usize;
        if self.slots.len() < n_epochs {
            self.slots.resize(n_epochs, SlotAcc::EMPTY);
        }
        // Timestamps at the very edge of the trace (a drop offered past
        // the final completion, or a completion exactly at the makespan)
        // clamp into the last epoch.
        let overflow: Vec<SlotAcc> = self.slots.split_off(n_epochs);
        if let Some(last) = self.slots.last_mut() {
            for extra in overflow {
                last.arrivals += extra.arrivals;
                last.completed += extra.completed;
                last.dropped += extra.dropped;
                last.slo_violations += extra.slo_violations;
                last.energy += extra.energy;
            }
        }
        // Fleet states are change-points `(from_epoch, state)`; epochs
        // between change-points (including every skipped boundary) carry
        // the last recorded state forward.
        let mut si = 0usize;
        self.slots
            .into_iter()
            .enumerate()
            .map(|(e, s)| {
                while si + 1 < states.len() && states[si + 1].0 <= e as u64 {
                    si += 1;
                }
                let st = states[si].1;
                let start_ns = e as u64 * self.epoch_ns;
                let end_ns = (start_ns.saturating_add(self.epoch_ns)).min(makespan_ns);
                EpochStat {
                    epoch: e as u64,
                    start_ns,
                    end_ns,
                    active_shards: st.active_shards,
                    clock: st.clock,
                    arrivals: s.arrivals,
                    completed: s.completed,
                    dropped: s.dropped,
                    slo_violations: s.slo_violations,
                    energy: s.energy,
                    static_pj: st.idle_mw as u128 * end_ns.saturating_sub(start_ns) as u128,
                }
            })
            .collect()
    }
}

/// Mutable accounting state of one serving run — the scaffold both
/// engines share. Each engine keeps only its own timing loop; arrival
/// admission, request completion and the report go through here.
struct SimState {
    ledger: OutcomeLedger,
    timeline: TimelineAcc,
    queue: LatencyHistogram,
    compute: LatencyHistogram,
    total: LatencyHistogram,
    ttft: LatencyHistogram,
    tbt: LatencyHistogram,
    completed: u64,
    dropped: u64,
    slo_violations: u64,
    ttft_violations: u64,
    tbt_violations: u64,
    iterations: u64,
    evictions: u64,
    batches: u64,
    batched_requests: u64,
    per_shard_completed: Vec<u64>,
    shard_free: Vec<u64>,
    makespan_ns: u64,
    energy: EnergyBreakdown,
    dense_flops: u128,
    events: EventList,
    /// The lazy arrival trace; `events` holds its next arrival.
    stream: ArrivalIter,
    n_requests: u64,
    /// Requests currently riding an in-flight batch.
    inflight_members: u64,
    peak_inflight: u64,
    epochs_stepped: u64,
    epochs_skipped: u64,
    /// Events processed since the last epoch boundary — the controller's
    /// metric window (see [`FleetView`]).
    ep_arrivals: u64,
    ep_dropped: u64,
    ep_completed: u64,
    ep_slo: u64,
    /// The observability collector (every hook bails on one boolean when
    /// its pillar is disabled — the zero-overhead contract).
    obs: Obs,
    /// Recycled batch-member buffers: settle clears and returns them,
    /// dispatch pops one for the scheduler to fill. Grow-on-touch, never
    /// shrink — steady-state dispatch/settle performs no allocation.
    scratch_members: Vec<Vec<QueuedRequest>>,
    /// Recycled batch-result buffers, same discipline (inline-executed
    /// fleets only; pool batches allocate on the worker side).
    scratch_results: Vec<Vec<Result<BackendOutput, ServeError>>>,
}

impl SimState {
    /// Empty accounting for one run of `cfg` on a `fleet_size`-shard
    /// fleet, with the trace's first arrival pending. `sessions` selects
    /// the session engine's observability counters.
    fn new(cfg: &ServeConfig, seed: u64, fleet_size: usize, sessions: bool) -> Self {
        // The arrival trace streams lazily: the event list holds exactly
        // one pending arrival; consuming it pulls the next.
        let mut stream = cfg.arrival.stream(cfg.offered_load, seed ^ ARRIVAL_SALT);
        let mut events = EventList::new(fleet_size);
        events.set_arrival(stream.next_ns(), 0);
        SimState {
            ledger: OutcomeLedger::new(cfg.outcome_capture),
            timeline: TimelineAcc::new(cfg.control.epoch_us.saturating_mul(1_000).max(1)),
            queue: LatencyHistogram::new(),
            compute: LatencyHistogram::new(),
            total: LatencyHistogram::new(),
            ttft: LatencyHistogram::new(),
            tbt: LatencyHistogram::new(),
            completed: 0,
            dropped: 0,
            slo_violations: 0,
            ttft_violations: 0,
            tbt_violations: 0,
            iterations: 0,
            evictions: 0,
            batches: 0,
            batched_requests: 0,
            per_shard_completed: vec![0; fleet_size],
            shard_free: vec![0; fleet_size],
            makespan_ns: 0,
            energy: EnergyBreakdown::ZERO,
            dense_flops: 0,
            events,
            stream,
            n_requests: cfg.n_requests as u64,
            inflight_members: 0,
            peak_inflight: 0,
            epochs_stepped: 0,
            epochs_skipped: 0,
            ep_arrivals: 0,
            ep_dropped: 0,
            ep_completed: 0,
            ep_slo: 0,
            obs: Obs::new(&cfg.obs, seed, fleet_size, sessions),
            scratch_members: Vec::new(),
            scratch_results: Vec::new(),
        }
    }

    /// Settles a shard's in-flight batch: collects its real results,
    /// re-prices them for the clock the batch dispatched at, and advances
    /// the shard's virtual clock through them in batch order.
    fn settle(
        &mut self,
        shard: usize,
        slot: &mut Option<Inflight>,
        overhead_ns: u64,
        backend: &dyn Backend,
        shard_active: bool,
    ) -> Result<(), ServeError> {
        let Some(inf) = slot.take() else { return Ok(()) };
        let prof = self.obs.prof_begin();
        let mut results = match inf.results {
            BatchResults::Pool(rx) => rx.recv().map_err(|_| {
                ServeError::WorkerLost(format!("shard {shard} dropped batch {}", inf.batch))
            })?,
            BatchResults::Ready(r) => r,
        };
        debug_assert_eq!(results.len(), inf.members.len());
        self.inflight_members -= inf.members.len() as u64;
        // Re-pricing is the identity at the nominal clock (a documented
        // [`Backend::reprice`] requirement); skipping the virtual call
        // for nominal batches keeps the uncontrolled fast path free of
        // per-request dynamic dispatch.
        let nominal = inf.clock == DvfsPoint::NOMINAL;
        let mut t = inf.start_ns + overhead_ns;
        for (m, res) in inf.members.iter().zip(results.drain(..)) {
            // Re-pricing happens once, here, on the accounting thread:
            // the worker computed the response at whatever wall-clock
            // speed; the virtual cost and energy belong to the DVFS point
            // the batch dispatched at (identity at nominal).
            let out = if nominal { res? } else { backend.reprice(res?, inf.clock) };
            t += out.cost_ns;
            let queue_ns = inf.start_ns - m.arrival_ns;
            let compute_ns = t - inf.start_ns;
            self.queue.record(queue_ns);
            self.compute.record(compute_ns);
            // An SLO miss is total latency above the class deadline,
            // judged without building the outcome record (only the
            // debug capture materializes one).
            let violated = queue_ns + compute_ns > m.slo.deadline_ns();
            self.complete(shard, inf.batch, t, &Tally::new(m, queue_ns, &out, violated));
            self.obs.on_settle(
                t,
                m.id,
                shard,
                inf.batch,
                queue_ns,
                compute_ns,
                violated,
                out.energy.total_pj(),
            );
        }
        // Both batch buffers are drained/done: return them to the scratch
        // pools for the next dispatch (grow-on-touch, never shrink).
        self.scratch_results.push(results);
        let mut members = inf.members;
        members.clear();
        self.scratch_members.push(members);
        self.shard_free[shard] = t;
        if shard_active {
            self.events.reschedule_shard(shard, t);
        }
        self.makespan_ns = self.makespan_ns.max(t);
        self.obs.prof_end(ProfSection::Settle, prof);
        Ok(())
    }

    /// Folds a finished request or session, completed at `t` on `shard`
    /// in batch `batch`, into the report accumulators: one ledger word,
    /// one completion, one total-latency sample — requests and sessions,
    /// not iterations, are the unit every aggregate counts.
    #[inline(always)]
    fn complete(&mut self, shard: usize, batch: u64, t: u64, tally: &Tally) {
        let total_ns = t.saturating_sub(tally.arrival_ns);
        self.total.record(total_ns);
        self.completed += 1;
        self.ep_completed += 1;
        self.per_shard_completed[shard] += 1;
        if tally.violated {
            self.slo_violations += 1;
            self.ep_slo += 1;
        }
        // Fixed reduction order: completions fold on the accounting
        // thread in batch order, and the energies are integers, so the
        // totals are byte-identical however the batches were executed.
        self.energy += tally.energy;
        self.dense_flops += tally.flops;
        if self.ledger.captures(tally.id) {
            self.ledger.capture(
                tally.id,
                RequestOutcome::Completed {
                    scenario: tally.scenario,
                    slo: tally.slo,
                    arrival_ns: tally.arrival_ns,
                    digest: tally.digest,
                    shard,
                    batch,
                    queue_ns: tally.queue_ns,
                    // Everything after admission — compute, think times,
                    // per-step waits — so queue + compute spans the whole.
                    compute_ns: total_ns.saturating_sub(tally.queue_ns),
                    energy: tally.energy,
                },
            );
        }
        self.timeline.arrival(tally.arrival_ns);
        self.timeline.completion(t, tally.energy, tally.violated);
        self.ledger.record(tally.id, tally.digest);
    }

    /// Admits the pending arrival: consumes it, primes the next from the
    /// lazy stream, offers the request to the bounded queue and records
    /// the verdict. Under evict-oldest the dropped id can be an older
    /// waiter while the newcomer itself is admitted.
    #[inline(always)]
    fn admit_next(&mut self, queue: &mut AdmissionQueue, gen: &RequestGenerator, est: &Estimates) {
        let (t, id) = self.events.take_arrival().expect("caller checked a pending arrival");
        if id + 1 < self.n_requests {
            let t_next = self.stream.next_ns();
            debug_assert!(t_next >= t, "arrival stream went backwards");
            self.events.set_arrival(t_next, id + 1);
        }
        let req = est.queued(gen, id, t);
        let verdict = queue.offer(req);
        let depth = queue.len();
        self.obs.on_arrival(t, id, req.scenario);
        self.ep_arrivals += 1;
        match verdict {
            Admission::Admitted => self.obs.on_admitted(t, id, depth),
            Admission::Dropped { id: dropped, arrival_ns } => {
                if dropped != id {
                    // Evict-oldest: the newcomer got in; an old waiter
                    // was shed at the newcomer's arrival instant.
                    self.obs.on_admitted(t, id, depth);
                }
                self.obs.on_dropped(t, dropped);
                self.dropped += 1;
                self.ep_dropped += 1;
                self.timeline.drop_at(arrival_ns);
                if self.ledger.captures(dropped) {
                    self.ledger.capture(dropped, RequestOutcome::Dropped { arrival_ns });
                }
                self.ledger.record(dropped, DROP_MARK);
            }
        }
    }

    /// Tracks the peak of queued + in-flight requests — the live-state
    /// bound [`LiveStats::peak_inflight`] reports.
    #[inline(always)]
    fn note_live(&mut self, queued: usize) {
        self.peak_inflight = self.peak_inflight.max(queued as u64 + self.inflight_members);
    }

    /// Drains the epoch-window counters, returning
    /// `(arrivals, dropped, completed, slo_violations)`.
    fn take_epoch_counters(&mut self) -> (u64, u64, u64, u64) {
        let c = (self.ep_arrivals, self.ep_dropped, self.ep_completed, self.ep_slo);
        self.ep_arrivals = 0;
        self.ep_dropped = 0;
        self.ep_completed = 0;
        self.ep_slo = 0;
        c
    }

    /// Checks conservation and assembles the report; `epoch_states` is
    /// the run's fleet-state change-point log.
    fn into_report(
        self,
        fleet: &[Arc<dyn Backend>],
        cfg: &ServeConfig,
        epoch_states: &[(u64, EpochFleetState)],
    ) -> ServeReport {
        // Conservation: every observed arrival was either served or shed.
        // `drop_fraction` divides by this sum, so the invariant is what
        // keeps the reported rate meaningful for partial traces too.
        assert_eq!(
            self.completed + self.dropped,
            self.n_requests,
            "runtime lost requests: {} completed + {} dropped != {} arrivals",
            self.completed,
            self.dropped,
            self.n_requests
        );
        let (digest, outcomes, peak_reorder) = self.ledger.finish(self.n_requests);
        let timeline = self.timeline.finalize(self.makespan_ns, epoch_states);
        let static_energy_pj = timeline.iter().map(|e| e.static_pj).sum();
        ServeReport {
            backend: fleet_label(fleet),
            config: cfg.clone(),
            completed: self.completed,
            dropped: self.dropped,
            slo_violations: self.slo_violations,
            iterations: self.iterations,
            evictions: self.evictions,
            ttft_violations: self.ttft_violations,
            tbt_violations: self.tbt_violations,
            batches: self.batches,
            batched_requests: self.batched_requests,
            queue: self.queue,
            compute: self.compute,
            total: self.total,
            ttft: self.ttft,
            tbt: self.tbt,
            makespan_ns: self.makespan_ns,
            energy: self.energy,
            dense_flops: self.dense_flops,
            digest,
            outcomes,
            per_shard_completed: self.per_shard_completed,
            live: LiveStats {
                peak_inflight: self.peak_inflight,
                peak_events: self.events.peak_depth() as u64,
                peak_reorder,
                epochs_stepped: self.epochs_stepped,
                epochs_skipped: self.epochs_skipped,
            },
            timeline,
            static_energy_pj,
            obs: self.obs.finish(),
        }
    }
}

/// A request's or session's running tally — its static draw plus the
/// accumulators of every iteration it ran — which [`SimState::complete`]
/// folds into the report once it finishes.
struct Tally {
    id: u64,
    scenario: usize,
    slo: SloClass,
    arrival_ns: u64,
    /// Admission wait (first batch start − arrival).
    queue_ns: u64,
    /// The raw response digest of a single-iteration request; an FNV fold
    /// over the iteration digests for a longer session.
    digest: u64,
    energy: EnergyBreakdown,
    flops: u128,
    /// Blew its deadline (one-shot) or its TTFT or any TBT budget
    /// (session).
    violated: bool,
}

impl Tally {
    /// The tally after the first iteration of `m` settled with `out`.
    #[inline(always)]
    fn new(m: &QueuedRequest, queue_ns: u64, out: &BackendOutput, violated: bool) -> Self {
        Tally {
            id: m.id,
            scenario: m.scenario,
            slo: m.slo,
            arrival_ns: m.arrival_ns,
            queue_ns,
            digest: out.digest,
            energy: out.energy,
            flops: out.dense_flops as u128,
            violated,
        }
    }
}

/// Fleet state in effect during one epoch, recorded at each boundary
/// where it changed for the report timeline and the static-energy
/// accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EpochFleetState {
    active_shards: usize,
    clock: DvfsPoint,
    /// Σ over active shards of the backend's idle power at `clock`.
    idle_mw: u64,
}

impl EpochFleetState {
    /// The state of the `active` shards at `clock`, idle power read from
    /// the fleet's memoized pricing tables. Clocks only ever come from
    /// [`crate::control::ControllerKind::pricing_points`] — the set the
    /// tables were built over — so the lookup always hits.
    fn of(tables: &[CostTable], active: &[bool], clock: DvfsPoint) -> Self {
        let idle_mw = tables
            .iter()
            .zip(active)
            .filter(|(_, a)| **a)
            .map(|(t, _)| t.idle_mw(t.point_index(clock).expect("clock is a pricing point")))
            .sum();
        EpochFleetState { active_shards: active.iter().filter(|a| **a).count(), clock, idle_mw }
    }
}

/// Runs one request on `backend`: the payload-free fast path for
/// backends that model results from the scenario alone, the
/// materialize-and-run path otherwise.
#[inline(always)]
fn exec_request(
    gen: &RequestGenerator,
    backend: &dyn Backend,
    id: u64,
    scenario: usize,
) -> Result<BackendOutput, ServeError> {
    if backend.payload_free() {
        let wl = gen.scenario(scenario)?;
        backend.run_modeled(scenario, wl, id)
    } else {
        let req = gen.request(id);
        gen.scenario(req.scenario).map_err(ServeError::from).and_then(|wl| backend.run(wl, &req))
    }
}

/// Per-scenario and per-shard scheduling/routing estimates, computed once
/// per run from the backends' analytic models.
struct Estimates {
    /// Fleet-mean service-time estimate per scenario (what queued
    /// requests carry for SJF).
    scenario_cost_ns: Vec<u64>,
    /// Scenario-mean service-time estimate per shard (what routers see).
    shard_cost_ns: Vec<u64>,
    /// Scenario-mean energy estimate per shard (what routers see).
    shard_energy_pj: Vec<u128>,
    /// Scenario-mean prefill-phase estimate per shard
    /// ([`Backend::estimate_prefill_ns`]) — the phase split routers see.
    shard_prefill_ns: Vec<u64>,
    /// Scenario-mean decode-step estimate per shard
    /// ([`Backend::estimate_decode_ns`]).
    shard_decode_ns: Vec<u64>,
}

impl Estimates {
    /// Folds the fleet's memoized nominal pricing rows into the
    /// per-scenario and per-shard means the policies consume. Nominal
    /// table rows are exactly the live estimator outputs, so these are
    /// the same integers as folding the estimators directly — including
    /// the phase split, whose trait contract defines prefill as the full
    /// nominal cost and one decode step as `1/DECODE_COST_DIV` of it
    /// (floored at 1 ns). Folding rows instead of calling the live
    /// estimators keeps backend model evaluation out of the serve path.
    fn from_tables(tables: &[CostTable]) -> Self {
        let n_scen = tables[0].scenarios();
        let scenario_cost_ns = (0..n_scen)
            .map(|s| {
                let sum: u128 = tables.iter().map(|t| t.nominal_cost_row()[s] as u128).sum();
                (sum / tables.len() as u128) as u64
            })
            .collect();
        let shard_cost_ns = tables
            .iter()
            .map(|t| {
                (t.nominal_cost_row().iter().map(|&v| v as u128).sum::<u128>() / n_scen as u128)
                    as u64
            })
            .collect();
        let shard_energy_pj = tables
            .iter()
            .map(|t| t.nominal_energy_row().iter().sum::<u128>() / n_scen as u128)
            .collect();
        let mut shard_prefill_ns = Vec::with_capacity(tables.len());
        let mut shard_decode_ns = Vec::with_capacity(tables.len());
        for t in tables {
            let mut prefill: u128 = 0;
            let mut decode: u128 = 0;
            for &cost in t.nominal_cost_row() {
                prefill += cost as u128;
                decode += (cost / crate::backend::DECODE_COST_DIV).max(1) as u128;
            }
            shard_prefill_ns.push((prefill / n_scen.max(1) as u128) as u64);
            shard_decode_ns.push((decode / n_scen.max(1) as u128) as u64);
        }
        Estimates {
            scenario_cost_ns,
            shard_cost_ns,
            shard_energy_pj,
            shard_prefill_ns,
            shard_decode_ns,
        }
    }

    /// The queue entry of request `id` arriving at `arrival_ns`: its
    /// seeded scenario and SLO class, the fleet-mean cost estimate SJF
    /// orders on, and the absolute deadline EDF orders on.
    #[inline(always)]
    fn queued(&self, gen: &RequestGenerator, id: u64, arrival_ns: u64) -> QueuedRequest {
        let scenario = gen.request_scenario(id);
        let slo = gen.request_slo(id);
        QueuedRequest {
            id,
            arrival_ns,
            scenario,
            slo,
            est_cost_ns: self.scenario_cost_ns[scenario],
            deadline_ns: arrival_ns.saturating_add(slo.deadline_ns()),
        }
    }

    /// Per-shard static router rating: the dispatch overhead plus a full
    /// `max_batch`-deep batch of scenario-mean requests.
    fn batch_ns(&self, overhead_ns: u64, max_batch: usize) -> Vec<u64> {
        self.shard_cost_ns
            .iter()
            .map(|&c| overhead_ns.saturating_add(c.saturating_mul(max_batch as u64)))
            .collect()
    }
}

/// Memoizes each backend's pricing surface once per run, over the
/// controller's pricing points, and folds the scheduler and router
/// estimates from it. The engines and the per-epoch idle accounting
/// index these tables instead of re-running analytic estimators; the
/// `cost` property tests pin every entry equal to the live path.
fn price_fleet(
    fleet: &[Arc<dyn Backend>],
    gen: &RequestGenerator,
    cfg: &ServeConfig,
) -> Result<(Vec<CostTable>, Estimates), ServeError> {
    let points = cfg.control.controller.pricing_points();
    let tables: Vec<CostTable> = fleet
        .iter()
        .map(|b| CostTable::build(b.as_ref(), gen, &points))
        .collect::<Result<_, _>>()?;
    let est = Estimates::from_tables(&tables);
    Ok((tables, est))
}

/// Display name of a fleet: the single backend name, or the distinct
/// names joined with `+` in shard order.
fn fleet_label(fleet: &[Arc<dyn Backend>]) -> String {
    let mut label = String::new();
    let mut seen: Vec<&str> = Vec::new();
    for b in fleet {
        if !seen.contains(&b.name()) {
            if !seen.is_empty() {
                let _ = write!(label, "+");
            }
            let _ = write!(label, "{}", b.name());
            seen.push(b.name());
        }
    }
    label
}

/// One fully-specified serving run: the fleet plus the operating point.
///
/// This is the single typed entry point of [`ServeRuntime::serve`]:
/// fleet and configuration travel as named fields, so new run
/// parameters grow the config instead of every call site.
#[derive(Clone)]
pub struct ServeSpec {
    /// One backend per shard, covering the control ceiling:
    /// `config.control.fleet_size(config.shards)` entries. Shards beyond
    /// `config.shards` start inactive (autoscaling headroom).
    pub fleet: Vec<Arc<dyn Backend>>,
    /// The operating point to serve at.
    pub config: ServeConfig,
}

impl ServeSpec {
    /// A homogeneous fleet: the same backend on every shard, including
    /// any autoscaling headroom up to the control ceiling.
    pub fn homogeneous(backend: &Arc<dyn Backend>, config: &ServeConfig) -> Self {
        let fleet =
            (0..config.control.fleet_size(config.shards)).map(|_| Arc::clone(backend)).collect();
        ServeSpec { fleet, config: config.clone() }
    }

    /// An explicit — possibly heterogeneous — fleet, one backend per
    /// shard (the mixed-fleet mode phase-aware routers exist for).
    pub fn fleet(fleet: Vec<Arc<dyn Backend>>, config: &ServeConfig) -> Self {
        ServeSpec { fleet, config: config.clone() }
    }
}

/// The batched inference runtime: one request generator, one worker pool,
/// any number of [`Self::serve`] calls across backends, fleets and
/// operating points.
///
/// The pool is created once and reused, so a sweep over backends × loads ×
/// batch sizes pays the thread-spawn cost a single time.
///
/// # Example
///
/// ```
/// use defa_model::workload::RequestGenerator;
/// use defa_model::MsdaConfig;
/// use defa_serve::{BackendKind, ServeConfig, ServeRuntime, ServeSpec};
///
/// # fn main() -> Result<(), defa_serve::ServeError> {
/// let gen = RequestGenerator::standard(&MsdaConfig::tiny(), 42)?;
/// let runtime = ServeRuntime::new(gen);
/// let report = runtime.serve(&ServeSpec::homogeneous(
///     &BackendKind::Accelerator.build(),
///     &ServeConfig::at_load(500.0, 8),
/// ))?;
/// assert_eq!(report.completed + report.dropped, 8);
/// # Ok(())
/// # }
/// ```
pub struct ServeRuntime {
    gen: Arc<RequestGenerator>,
    pool: WorkerPool,
}

impl ServeRuntime {
    /// A runtime over `gen` with one pool worker per configured thread
    /// ([`defa_parallel::current_num_threads`]).
    pub fn new(gen: RequestGenerator) -> Self {
        Self::with_pool_threads(gen, defa_parallel::current_num_threads())
    }

    /// A runtime with an explicit pool size.
    pub fn with_pool_threads(gen: RequestGenerator, threads: usize) -> Self {
        ServeRuntime { gen: Arc::new(gen), pool: WorkerPool::new(threads) }
    }

    /// The request generator backing this runtime.
    pub fn generator(&self) -> &RequestGenerator {
        &self.gen
    }

    /// Batch-effective modeled capacity of `shards` shards of `backend`
    /// in requests per virtual second: full `max_batch`-deep batches of
    /// mean-cost requests plus the `overhead_us` dispatch overhead.
    ///
    /// The mean cost is probed deterministically by *running* the first
    /// eight requests of the trace (analytic estimates undershoot the
    /// simulated cycle counts at small scales), so the result is a pure
    /// function of the generator seed — what the trace-driven bench bins
    /// calibrate their offered loads against.
    ///
    /// # Errors
    ///
    /// Propagates backend failures from the probe runs.
    pub fn modeled_capacity_rps(
        &self,
        backend: &Arc<dyn Backend>,
        shards: usize,
        max_batch: usize,
        overhead_us: u64,
    ) -> Result<f64, ServeError> {
        let probes = 8u64;
        let mut total_cost_ns = 0f64;
        for id in 0..probes {
            let scenario = self.gen.request_scenario(id);
            total_cost_ns +=
                exec_request(&self.gen, backend.as_ref(), id, scenario)?.cost_ns as f64;
        }
        let mean_cost_ns = total_cost_ns / probes as f64;
        let batch_ns = overhead_us as f64 * 1e3 + max_batch.max(1) as f64 * mean_cost_ns;
        Ok(max_batch.max(1) as f64 / batch_ns * 1e9 * shards.max(1) as f64)
    }

    /// Serves one fully-specified run ([`ServeSpec`]) and reports
    /// latency, energy and SLO accounting.
    ///
    /// Dispatches on [`crate::config::SessionConfig::enabled`]: a
    /// one-shot session profile (the default) runs the legacy pipelined
    /// engine byte-for-byte, a multi-iteration profile runs the session
    /// engine with iteration-level continuous batching.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::DegenerateConfig`] /
    /// [`ServeError::InvalidConfig`] for a bad configuration,
    /// [`ServeError::FleetMismatch`] when the fleet does not cover the
    /// control ceiling (`config.control.fleet_size(config.shards)`
    /// backends), and propagates backend failures.
    pub fn serve(&self, spec: &ServeSpec) -> Result<ServeReport, ServeError> {
        spec.config.validate()?;
        let fleet_size = spec.config.control.fleet_size(spec.config.shards);
        if spec.fleet.len() != fleet_size {
            return Err(ServeError::FleetMismatch { fleet: spec.fleet.len(), shards: fleet_size });
        }
        if spec.config.sessions.enabled() {
            self.serve_sessions(&spec.fleet, &spec.config)
        } else {
            self.serve_oneshot(&spec.fleet, &spec.config)
        }
    }

    /// The legacy pipelined one-shot engine: every request is a session
    /// of exactly one iteration. `serve` validated the config and the
    /// fleet size. All pre-session digest/fingerprint pins ride this
    /// path unchanged.
    fn serve_oneshot(
        &self,
        fleet: &[Arc<dyn Backend>],
        cfg: &ServeConfig,
    ) -> Result<ServeReport, ServeError> {
        let fleet_size = fleet.len();
        let scheduler = cfg.scheduler.build();
        let router = cfg.router.build();
        let mut controller: Box<dyn Controller> = cfg.control.controller.build();
        let (tables, est) = price_fleet(fleet, &self.gen, cfg)?;
        let deadline_ns = cfg.batch_deadline_us.saturating_mul(1_000);
        let overhead_ns = cfg.batch_overhead_us.saturating_mul(1_000);
        // Payload-free fleets (replay/modeled backends) execute batches
        // inline on the accounting thread: no materialization, no pool
        // round-trip — the fast path trace-scale simulation rides on.
        let inline = fleet.iter().all(|b| b.payload_free());

        let mut state = SimState::new(cfg, self.gen.seed(), fleet_size, false);
        let epoch_ns = state.timeline.epoch_ns;
        let mut queue = AdmissionQueue::new(cfg.queue_capacity, cfg.drop);
        let mut inflight: Vec<Option<Inflight>> = (0..fleet_size).map(|_| None).collect();

        // Control-loop state: which shards take new batches, the clock
        // batches dispatch at, and the fleet-state change-points for the
        // timeline. Shards beyond cfg.shards start inactive (autoscaling
        // headroom).
        let mut active: Vec<bool> = (0..fleet_size).map(|s| s < cfg.shards).collect();
        let mut clock = DvfsPoint::NOMINAL;
        let mut epoch_states = vec![(0, EpochFleetState::of(&tables, &active, clock))];
        for (s, _) in active.iter().enumerate().filter(|(_, a)| **a) {
            state.events.activate_shard(s, 0);
        }
        state.events.set_boundary(epoch_ns, 0);

        let gen = &self.gen;
        // Per-shard static router ratings, computed once; the routable
        // view buffer is rebuilt per dispatch (the active set can change
        // at any boundary) into reused storage.
        let est_batch_ns = est.batch_ns(overhead_ns, cfg.max_batch);
        let mut views: Vec<ShardView> = Vec::with_capacity(fleet_size);

        loop {
            if queue.is_empty() && state.events.arrival().is_none() {
                break;
            }
            // The earliest moment the next batch could start: no sooner
            // than the earliest *active* shard frees and no sooner than
            // work exists to serve. (Under the pipelined round-robin path
            // free times may be stale-low; the bound is still
            // deterministic, which is all the control loop needs.)
            let prof_pop = state.obs.prof_begin();
            let pending = queue
                .front()
                .map(|r| r.arrival_ns)
                .or_else(|| state.events.arrival().map(|(t, _)| t))
                .expect("loop not done: work exists");
            let min_free = state.events.min_active_free().expect("at least one active shard");
            let t_now = min_free.max(pending);
            state.obs.prof_end(ProfSection::EventPop, prof_pop);

            // Settle every epoch boundary the decision time has crossed:
            // snapshot the ended epoch, let the controller act, apply its
            // actions before any further batch forms. Across an idle gap
            // with a quiescent controller the whole run of boundaries
            // fast-forwards in one O(1) skip.
            while let Some((boundary, epoch)) = state.events.boundary_due(t_now) {
                let (arrivals_w, dropped_w, completed_w, slo_w) = state.take_epoch_counters();
                let view = FleetView {
                    epoch,
                    start_ns: boundary - epoch_ns,
                    end_ns: boundary,
                    active_shards: active.iter().filter(|a| **a).count(),
                    max_shards: fleet_size,
                    queue_depth: queue.len(),
                    arrivals: arrivals_w,
                    dropped: dropped_w,
                    completed: completed_w,
                    slo_violations: slo_w,
                    clock,
                };
                let all_quiet = arrivals_w == 0
                    && dropped_w == 0
                    && completed_w == 0
                    && slo_w == 0
                    && queue.is_empty();
                if all_quiet && controller.quiescent(&view) {
                    // Every remaining boundary up to t_now would see a
                    // view identical to this one (up to epoch index and
                    // timestamps): nothing settles or arrives before
                    // t_now, and a quiescent controller's decide is a
                    // no-op on all of them. Skip the whole run.
                    let skipped = (t_now - boundary) / epoch_ns + 1;
                    state.epochs_skipped += skipped;
                    state.events.set_boundary(
                        boundary.saturating_add(epoch_ns.saturating_mul(skipped)),
                        epoch.saturating_add(skipped),
                    );
                    continue;
                }
                let prof_ctl = state.obs.prof_begin();
                for action in controller.decide(&view) {
                    state.obs.on_control(boundary, epoch, &action);
                    match action {
                        ControlAction::AddShard => {
                            if let Some(s) = active.iter().position(|a| !a) {
                                active[s] = true;
                                state.events.activate_shard(s, state.shard_free[s]);
                            }
                        }
                        ControlAction::DrainShard => {
                            let n_active = active.iter().filter(|a| **a).count();
                            if n_active > 1 {
                                if let Some(s) = active.iter().rposition(|a| *a) {
                                    // Drain-before-stop: the shard takes
                                    // no new batches; its in-flight batch
                                    // settles through the normal path.
                                    active[s] = false;
                                    state.events.deactivate_shard(s);
                                }
                            }
                        }
                        ControlAction::SetClock(p) => {
                            debug_assert!(p.freq_mhz > 0 && p.mv > 0, "degenerate clock {p:?}");
                            clock = p;
                        }
                    }
                }
                let st = EpochFleetState::of(&tables, &active, clock);
                if epoch_states.last().map(|(_, prev)| *prev != st).unwrap_or(true) {
                    epoch_states.push((epoch + 1, st));
                }
                state.obs.prof_end(ProfSection::ControllerStep, prof_ctl);
                let inflight_now = state.inflight_members;
                let ev_depth = state.events.depth() as u64;
                let free_ev = state.events.live_shard_events() as u64;
                state.obs.on_epoch(
                    boundary,
                    epoch,
                    st.active_shards,
                    queue.len(),
                    clock,
                    inflight_now,
                    ev_depth,
                    free_ev,
                );
                state.epochs_stepped += 1;
                state.events.set_boundary(boundary.saturating_add(epoch_ns), epoch + 1);
            }

            // Routing over the *active* shards only. Routers that read
            // shard backlogs ask for fleet state: every in-flight batch is
            // settled first so free times are exact. Stateless routers
            // (round-robin) route on possibly stale views and settle only
            // the chosen shard, keeping up to one batch in flight per
            // shard — the PR 2 pipeline.
            let shard = if router.needs_fleet_state() {
                for (s, slot) in inflight.iter_mut().enumerate() {
                    state.settle(s, slot, overhead_ns, fleet[s].as_ref(), active[s])?;
                }
                let min_free = state.events.min_active_free().expect("at least one active shard");
                fill_views(&mut views, &active, &state.shard_free, &est_batch_ns, &est);
                let pos = router.route(state.batches, min_free.max(pending), &views);
                views[pos].shard
            } else {
                fill_views(&mut views, &active, &state.shard_free, &est_batch_ns, &est);
                let pos = router.route(state.batches, 0, &views);
                let s = views[pos].shard;
                state.settle(s, &mut inflight[s], overhead_ns, fleet[s].as_ref(), active[s])?;
                s
            };
            debug_assert!(shard < fleet_size, "router returned shard {shard}");
            let t_free = state.shard_free[shard];

            // Admission: everything that arrived while this shard was
            // busy faces the bounded queue and its drop policy.
            let prof_pull = state.obs.prof_begin();
            while state.events.arrival().is_some_and(|(t, _)| t <= t_free) {
                state.admit_next(&mut queue, gen, &est);
            }
            if queue.is_empty() {
                if state.events.arrival().is_none() {
                    state.obs.prof_end(ProfSection::ArrivalPull, prof_pull);
                    continue; // other shards may still be in flight; loop exits above
                }
                // Idle shard: virtually wait for the next arrival (an
                // empty queue always admits).
                state.admit_next(&mut queue, gen, &est);
            }
            // Batching window: wait for a full batch unless the oldest
            // waiting request's deadline fires first.
            let t_deadline = queue.front().expect("queue non-empty").arrival_ns + deadline_ns;
            while queue.len() < cfg.max_batch
                && state.events.arrival().is_some_and(|(t, _)| t <= t_deadline)
            {
                state.admit_next(&mut queue, gen, &est);
            }
            // One live-state probe per pull phase: the queue only grows
            // between dispatches and in-flight membership is constant
            // here, so the end-of-phase depth *is* the phase's maximum —
            // the per-offer probes it replaces measured the same peak.
            state.note_live(queue.len());
            state.obs.prof_end(ProfSection::ArrivalPull, prof_pull);
            // Scheduling: the policy picks who rides this batch, filling
            // a recycled member buffer (no steady-state allocation).
            let prof_dispatch = state.obs.prof_begin();
            let mut members = state.scratch_members.pop().unwrap_or_default();
            scheduler.select_into(&mut queue, cfg.max_batch, t_free, &mut members);
            debug_assert!(!members.is_empty(), "scheduler returned an empty batch");
            let last_arrival = members.iter().map(|m| m.arrival_ns).max().expect("batch non-empty");
            let ready_at = if members.len() >= cfg.max_batch {
                last_arrival // when the filling request arrived
            } else if state.events.arrival().is_some() {
                t_deadline
            } else {
                last_arrival // trace exhausted: flush
            };
            let start_ns = t_free.max(ready_at);
            let batch = state.batches;
            state.batched_requests += members.len() as u64;
            state.obs.on_dispatch(start_ns, batch, shard, members.len(), clock);
            for m in &members {
                state.obs.on_scheduled(start_ns, m.id, batch, shard);
            }

            // Real execution. Payload-free fleets evaluate the batch
            // inline; otherwise the batch materializes and runs on this
            // shard's pool worker, results returning over a per-batch
            // channel. Timing comes from the cost model either way, never
            // the wall clock.
            let results = if inline {
                let backend = fleet[shard].as_ref();
                let mut out = state.scratch_results.pop().unwrap_or_default();
                out.extend(members.iter().map(|m| exec_request(gen, backend, m.id, m.scenario)));
                BatchResults::Ready(out)
            } else {
                let (tx, rx) = mpsc::channel();
                let gen = Arc::clone(&self.gen);
                let backend = Arc::clone(&fleet[shard]);
                let work: Vec<(u64, usize)> = members.iter().map(|m| (m.id, m.scenario)).collect();
                self.pool.submit(shard, move || {
                    let results = work
                        .iter()
                        .map(|&(id, sc)| exec_request(&gen, backend.as_ref(), id, sc))
                        .collect();
                    // The receiver disappears only if `serve` already
                    // failed; nothing to report to in that case.
                    let _ = tx.send(results);
                });
                BatchResults::Pool(rx)
            };
            state.inflight_members += members.len() as u64;
            state.note_live(queue.len());
            inflight[shard] = Some(Inflight { start_ns, batch, clock, members, results });
            state.batches += 1;
            state.obs.prof_end(ProfSection::Dispatch, prof_dispatch);
        }
        for (shard, slot) in inflight.iter_mut().enumerate() {
            state.settle(shard, slot, overhead_ns, fleet[shard].as_ref(), active[shard])?;
        }
        // Every request is a single-iteration session: its first token is
        // its only token, so TTFT equals total latency, the TTFT budget
        // equals the class deadline, and no token-to-token gap exists.
        state.iterations = state.completed;
        state.ttft = state.total.clone();
        state.ttft_violations = state.slo_violations;
        Ok(state.into_report(fleet, cfg, &epoch_states))
    }

    /// The session engine: sessions as the unit of serving, with
    /// iteration-level continuous batching.
    ///
    /// Every request id is the *prefill* of a session whose length and
    /// think times are pure functions of `(seed, id)` — see
    /// [`defa_model::workload::SessionProfile`]. Prefills face admission
    /// and the scheduler exactly as legacy requests do; each settled
    /// iteration then schedules the next decode step on the session's
    /// resident shard after its seeded think time, and due decode steps
    /// rejoin that shard's next batch ahead of new prefills (they
    /// already hold state there). A per-shard state budget
    /// ([`crate::config::SessionConfig::state_budget`]) caps resident
    /// sessions; making room evicts the least-recently-settled resident
    /// not riding the forming batch, whose next step then pays a priced
    /// prefill recompute. Gang mode schedules a session as one unit:
    /// its decode steps and think times hold the shard (and its state
    /// slot) from prefill to completion — the baseline continuous
    /// batching is measured against.
    ///
    /// Batches settle synchronously at dispatch (each decode step's
    /// cost derives from its session's settled prefill via
    /// [`Backend::decode_output`]), so free times are always exact and
    /// `batch_deadline_us` never applies: dispatch is greedy, which is
    /// what iteration-level batching means. Fleet controllers are
    /// rejected by validation for now, so the configured shards serve
    /// and any autoscaling headroom stays inactive.
    fn serve_sessions(
        &self,
        fleet: &[Arc<dyn Backend>],
        cfg: &ServeConfig,
    ) -> Result<ServeReport, ServeError> {
        let fleet_size = fleet.len();
        let scheduler = cfg.scheduler.build();
        let router = cfg.router.build();
        let profile = cfg.sessions.profile;
        let budget = cfg.sessions.state_budget;
        let gang = cfg.sessions.gang;
        let seed = self.gen.seed();
        let (tables, est) = price_fleet(fleet, &self.gen, cfg)?;
        let overhead_ns = cfg.batch_overhead_us.saturating_mul(1_000);
        // Distinct sessions per batch: the whole batch becomes resident
        // at settle, so it must itself fit the state budget.
        let cap = if budget > 0 { cfg.max_batch.min(budget) } else { cfg.max_batch };

        let mut state = SimState::new(cfg, seed, fleet_size, true);
        let mut queue = AdmissionQueue::new(cfg.queue_capacity, cfg.drop);

        // Live session state, looked up by id only (never iterated).
        let mut sessions: IdSlab<SessionLive> = IdSlab::new();
        // Per shard: decode steps whose think time has (or will have)
        // elapsed, popped in `(ready_ns, id)` order — the settle order
        // within a batch's decode segment.
        let mut ready: Vec<ReadySet> = (0..fleet_size).map(|_| ReadySet::new()).collect();
        // Per shard: resident sessions keyed `(last_settle_ns, id)` —
        // eviction order under the state budget. Iterated, so a BTree.
        let mut lru: Vec<BTreeSet<(u64, u64)>> = (0..fleet_size).map(|_| BTreeSet::new()).collect();
        let mut pending_decodes = 0usize;
        // Per-batch buffers, reused across the whole run.
        let mut decode_members: Vec<(u64, u64)> = Vec::with_capacity(cap);
        let mut batch_ids: Vec<u64> = Vec::with_capacity(cap);
        let mut victims: Vec<(u64, u64)> = Vec::new();

        let gen = &self.gen;
        let est_batch_ns = est.batch_ns(overhead_ns, cfg.max_batch);
        let active: Vec<bool> = (0..fleet_size).map(|s| s < cfg.shards).collect();
        let mut views: Vec<ShardView> = Vec::with_capacity(fleet_size);

        loop {
            let have_prefill = !queue.is_empty() || state.events.arrival().is_some();
            if !have_prefill && pending_decodes == 0 {
                break;
            }
            // Earliest decode dispatch over the fleet: each shard's first
            // ready step, bounded below by the shard's free time; ties go
            // to the lower shard.
            let mut decode_at: Option<(u64, usize)> = None;
            for (s, rdy) in ready.iter().enumerate() {
                if let Some(&Reverse((rn, _))) = rdy.peek() {
                    let t = rn.max(state.shard_free[s]);
                    let better = match decode_at {
                        None => true,
                        Some((bt, _)) => t < bt,
                    };
                    if better {
                        decode_at = Some((t, s));
                    }
                }
            }
            // Earliest prefill dispatch: pending work bounded below by
            // the earliest free active shard (the router picks the shard).
            let prefill_at = if have_prefill {
                let pending = queue
                    .front()
                    .map(|r| r.arrival_ns)
                    .or_else(|| state.events.arrival().map(|(t, _)| t))
                    .unwrap_or(0);
                let min_free = state
                    .shard_free
                    .iter()
                    .zip(&active)
                    .filter(|(_, a)| **a)
                    .map(|(f, _)| *f)
                    .min()
                    .unwrap_or(0);
                Some(min_free.max(pending))
            } else {
                None
            };
            // A due decode step wins ties: the resident session continues
            // before new work claims the shard.
            let (t_start, shard) = match (decode_at, prefill_at) {
                (Some((td, s)), Some(tp)) if td <= tp => (td, s),
                (Some((td, s)), None) => (td, s),
                (None, Some(tp)) | (Some(_), Some(tp)) => {
                    fill_views(&mut views, &active, &state.shard_free, &est_batch_ns, &est);
                    let pos = router.route(state.batches, tp, &views);
                    let s = views[pos].shard;
                    (tp.max(state.shard_free[s]), s)
                }
                (None, None) => break,
            };

            // Admission: everything that arrived by the batch start faces
            // the bounded queue and its drop policy.
            while state.events.arrival().is_some_and(|(t, _)| t <= t_start) {
                state.admit_next(&mut queue, gen, &est);
            }

            // Batch formation: due decode steps of this shard first, in
            // `(ready_ns, id)` order — they already hold state here —
            // then prefills the scheduler picks for the remaining slots,
            // appended after them (iteration-level continuous batching).
            decode_members.clear();
            while decode_members.len() < cap {
                match ready[shard].peek() {
                    Some(&Reverse(step)) if step.0 <= t_start => {
                        ready[shard].pop();
                        pending_decodes -= 1;
                        decode_members.push(step);
                    }
                    _ => break,
                }
            }
            let mut members = state.scratch_members.pop().unwrap_or_default();
            let slots = cap.saturating_sub(decode_members.len());
            if slots > 0 && !queue.is_empty() {
                scheduler.select_into(&mut queue, slots, t_start, &mut members);
            }
            if decode_members.is_empty() && members.is_empty() {
                // Nothing dispatchable this instant (every arrival up to
                // t_start was dropped); recycle and re-evaluate.
                state.scratch_members.push(members);
                continue;
            }

            // State budget: the batch's sessions stay resident through
            // the step; evict the least-recently-settled residents not
            // riding this batch until everyone fits.
            if !gang && budget > 0 {
                let newcomers = members.len()
                    + decode_members
                        .iter()
                        .filter(|&&(_, id)| sessions.get(id).is_some_and(|s| !s.resident))
                        .count();
                let excess = (lru[shard].len() + newcomers).saturating_sub(budget);
                if excess > 0 {
                    batch_ids.clear();
                    batch_ids.extend(decode_members.iter().map(|&(_, id)| id));
                    batch_ids.extend(members.iter().map(|m| m.id));
                    batch_ids.sort_unstable();
                    victims.clear();
                    victims.extend(
                        lru[shard]
                            .iter()
                            .filter(|&&(_, id)| batch_ids.binary_search(&id).is_err())
                            .take(excess)
                            .copied(),
                    );
                    for &(ls, id) in &victims {
                        lru[shard].remove(&(ls, id));
                        if let Some(sess) = sessions.get_mut(id) {
                            sess.resident = false;
                            sess.needs_prefill = true;
                        }
                        state.evictions += 1;
                        state.obs.on_evicted(t_start, id);
                    }
                }
            }

            let batch = state.batches;
            let size = decode_members.len() + members.len();
            state.batched_requests += size as u64;
            state.obs.on_dispatch(t_start, batch, shard, size, DvfsPoint::NOMINAL);
            for &(_, id) in &decode_members {
                state.obs.on_scheduled(t_start, id, batch, shard);
            }
            for m in &members {
                state.obs.on_scheduled(t_start, m.id, batch, shard);
            }
            state.note_live(queue.len() + sessions.len());

            // Per-iteration settle path: synchronous, in batch order.
            let backend = fleet[shard].as_ref();
            let mut t = t_start + overhead_ns;
            for &(rn, id) in &decode_members {
                state.iterations += 1;
                state.obs.on_iteration();
                let mut finished = false;
                if let Some(sess) = sessions.get_mut(id) {
                    let out = backend.decode_output(&sess.prefill, sess.next_iter as u64);
                    let recompute = sess.needs_prefill;
                    t += out.cost_ns;
                    let mut step_energy = out.energy;
                    let mut step_flops = out.dense_flops as u128;
                    if recompute {
                        // The evicted state rebuilds: this step pays the
                        // prefill again in time, energy and FLOPs (the
                        // response bits are unchanged — recompute is
                        // deterministic).
                        t += sess.prefill.cost_ns;
                        step_energy += sess.prefill.energy;
                        step_flops += sess.prefill.dense_flops as u128;
                    }
                    let tbt = t - rn;
                    state.tbt.record(tbt);
                    let tally = &mut sess.tally;
                    if tbt > tally.slo.streaming_budgets().tbt_ns {
                        state.tbt_violations += 1;
                        tally.violated = true;
                    }
                    state.compute.record(t - t_start);
                    tally.digest = crate::backend::fnv_fold(tally.digest, out.digest);
                    tally.energy += step_energy;
                    tally.flops += step_flops;
                    sess.needs_prefill = false;
                    if sess.resident {
                        lru[shard].remove(&(sess.last_settle_ns, id));
                    }
                    sess.last_settle_ns = t;
                    sess.resident = true;
                    lru[shard].insert((t, id));
                    sess.next_iter += 1;
                    state.obs.on_settle(
                        t,
                        id,
                        shard,
                        batch,
                        tbt,
                        t - t_start,
                        sess.tally.violated,
                        step_energy.total_pj(),
                    );
                    finished = sess.next_iter >= sess.len;
                    if !finished {
                        let think = profile.think_ns(seed, id, sess.next_iter);
                        ready[shard].push(Reverse((t.saturating_add(think), id)));
                        pending_decodes += 1;
                    }
                }
                if finished {
                    if let Some(sess) = sessions.remove(id) {
                        lru[shard].remove(&(sess.last_settle_ns, id));
                        state.complete(shard, batch, t, &sess.tally);
                    }
                }
            }
            let mut results = state.scratch_results.pop().unwrap_or_default();
            results.extend(members.iter().map(|m| exec_request(gen, backend, m.id, m.scenario)));
            for (m, res) in members.iter().zip(results.drain(..)) {
                state.iterations += 1;
                state.obs.on_iteration();
                let out = res?;
                t += out.cost_ns;
                let queue_ns = t_start - m.arrival_ns;
                let ttft = t - m.arrival_ns;
                state.queue.record(queue_ns);
                state.compute.record(t - t_start);
                state.ttft.record(ttft);
                let budgets = m.slo.streaming_budgets();
                let ttft_violated = ttft > budgets.ttft_ns;
                if ttft_violated {
                    state.ttft_violations += 1;
                }
                state.obs.on_settle(
                    t,
                    m.id,
                    shard,
                    batch,
                    queue_ns,
                    t - t_start,
                    ttft_violated,
                    out.energy.total_pj(),
                );
                let len = profile.session_len(seed, m.id);
                let mut tally = Tally::new(m, queue_ns, &out, ttft_violated);
                if len > 1 {
                    tally.digest = crate::backend::fnv_fold(crate::backend::FNV_OFFSET, out.digest);
                }
                if gang || len <= 1 {
                    // Gang scheduling: the session holds its batch slot
                    // from prefill to completion; decode steps and think
                    // times serialize on the shard. A single-iteration
                    // session (no decode steps) is exactly a legacy
                    // request: digest word `d0`, total == TTFT.
                    for iter in 1..len {
                        state.iterations += 1;
                        state.obs.on_iteration();
                        let rn = t.saturating_add(profile.think_ns(seed, m.id, iter));
                        t = rn;
                        let dout = backend.decode_output(&out, iter as u64);
                        t += dout.cost_ns;
                        let tbt = t - rn;
                        state.tbt.record(tbt);
                        if tbt > budgets.tbt_ns {
                            state.tbt_violations += 1;
                            tally.violated = true;
                        }
                        state.compute.record(t - t_start);
                        tally.digest = crate::backend::fnv_fold(tally.digest, dout.digest);
                        tally.energy += dout.energy;
                        tally.flops += dout.dense_flops as u128;
                        state.obs.on_settle(
                            t,
                            m.id,
                            shard,
                            batch,
                            tbt,
                            t - t_start,
                            tally.violated,
                            dout.energy.total_pj(),
                        );
                    }
                    state.complete(shard, batch, t, &tally);
                } else {
                    let think = profile.think_ns(seed, m.id, 1);
                    ready[shard].push(Reverse((t.saturating_add(think), m.id)));
                    pending_decodes += 1;
                    lru[shard].insert((t, m.id));
                    sessions.insert(
                        m.id,
                        SessionLive {
                            tally,
                            len,
                            next_iter: 1,
                            prefill: out,
                            needs_prefill: false,
                            resident: true,
                            last_settle_ns: t,
                        },
                    );
                }
            }
            state.scratch_results.push(results);
            members.clear();
            state.scratch_members.push(members);
            state.shard_free[shard] = t;
            state.makespan_ns = state.makespan_ns.max(t);
            state.batches += 1;
        }
        debug_assert!(sessions.is_empty(), "sessions left live: {}", sessions.len());
        let epoch_states = [(0, EpochFleetState::of(&tables, &active, DvfsPoint::NOMINAL))];
        Ok(state.into_report(fleet, cfg, &epoch_states))
    }
}

/// One shard's due decode steps as a min-heap on `(ready_ns, id)`. The
/// engine only peeks, pops and pushes the minimum, and a session sits in
/// at most one ready set at a time, so keys are unique and the pop order
/// is exactly the ascending order a `BTreeSet` of the same keys iterates.
type ReadySet = BinaryHeap<Reverse<(u64, u64)>>;

/// One session mid-flight in the session engine: its running tally, the
/// settled prefill output (the pricing base for every decode step), and
/// its residency on its shard.
struct SessionLive {
    /// What the session's final settle folds into the report.
    tally: Tally,
    /// Total iterations ([`defa_model::workload::SessionProfile::session_len`]).
    len: u32,
    /// The next iteration to settle (0 is the prefill).
    next_iter: u32,
    /// The settled prefill output: decode steps derive from it, and a
    /// post-eviction recompute re-prices it.
    prefill: BackendOutput,
    /// Evicted since the last step: the next step pays the prefill again.
    needs_prefill: bool,
    /// Holds a state slot on its shard (tracked in the shard's LRU set).
    resident: bool,
    last_settle_ns: u64,
}

/// Rebuilds the routable shard views — one per *active* shard, in shard
/// order — into the reused `views` buffer.
#[inline(always)]
fn fill_views(
    views: &mut Vec<ShardView>,
    active: &[bool],
    shard_free: &[u64],
    est_batch_ns: &[u64],
    est: &Estimates,
) {
    views.clear();
    for (shard, _) in active.iter().enumerate().filter(|(_, a)| **a) {
        views.push(ShardView {
            shard,
            free_ns: shard_free[shard],
            est_batch_ns: est_batch_ns[shard],
            est_energy_pj: est.shard_energy_pj[shard],
            est_prefill_ns: est.shard_prefill_ns[shard],
            est_decode_ns: est.shard_decode_ns[shard],
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::DropPolicy;
    use crate::backend::BackendKind;
    use crate::loadgen::ArrivalProcess;
    use crate::router::RouterKind;
    use crate::scheduler::SchedulerKind;
    use defa_model::MsdaConfig;

    fn runtime() -> ServeRuntime {
        ServeRuntime::new(RequestGenerator::standard(&MsdaConfig::tiny(), 42).unwrap())
    }

    fn serve(
        rt: &ServeRuntime,
        backend: &Arc<dyn Backend>,
        cfg: &ServeConfig,
    ) -> Result<ServeReport, ServeError> {
        rt.serve(&ServeSpec::homogeneous(backend, cfg))
    }

    fn serve_fleet(
        rt: &ServeRuntime,
        fleet: Vec<Arc<dyn Backend>>,
        cfg: &ServeConfig,
    ) -> Result<ServeReport, ServeError> {
        rt.serve(&ServeSpec::fleet(fleet, cfg))
    }

    /// A session profile that exercises the session engine: short
    /// multi-iteration sessions with sub-epoch think times.
    fn chatty(cfg: &ServeConfig) -> ServeConfig {
        ServeConfig {
            sessions: crate::config::SessionConfig {
                profile: defa_model::workload::SessionProfile {
                    min_len: 2,
                    max_len: 5,
                    think_mean_us: 200,
                },
                state_budget: 0,
                gang: false,
            },
            ..cfg.clone()
        }
    }

    #[test]
    fn every_request_is_accounted_for() {
        let rt = runtime();
        let cfg = ServeConfig::at_load(2_000.0, 24);
        let report = serve(&rt, &BackendKind::Accelerator.build(), &cfg).unwrap();
        assert_eq!(report.completed + report.dropped, 24);
        assert_eq!(report.outcomes.len(), 24);
        assert_eq!(report.total.count(), report.completed);
        assert!(report.makespan_ns > 0);
        assert!(report.batches > 0);
        assert!(report.mean_batch_size() >= 1.0);
    }

    #[test]
    fn repeated_runs_are_byte_identical() {
        let rt = runtime();
        let cfg = ServeConfig::at_load(1_000.0, 16);
        let backend = BackendKind::Pruned.build();
        let a = serve(&rt, &backend, &cfg).unwrap();
        let b = serve(&rt, &backend, &cfg).unwrap();
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn overload_triggers_backpressure_drops() {
        let rt = runtime();
        // A tiny queue, one shard and a huge offered load must shed.
        let cfg = ServeConfig {
            queue_capacity: 2,
            max_batch: 2,
            shards: 1,
            ..ServeConfig::at_load(5e6, 64)
        };
        let report = serve(&rt, &BackendKind::Dense.build(), &cfg).unwrap();
        assert!(report.dropped > 0, "expected drops under overload");
        assert_eq!(report.completed + report.dropped, 64);
        // Drops are outcomes too.
        let drops =
            report.outcomes.iter().filter(|o| matches!(o, RequestOutcome::Dropped { .. })).count()
                as u64;
        assert_eq!(drops, report.dropped);
    }

    #[test]
    fn evict_oldest_sheds_the_stalest_work() {
        let rt = runtime();
        let base = ServeConfig {
            queue_capacity: 2,
            max_batch: 2,
            shards: 1,
            ..ServeConfig::at_load(5e6, 64)
        };
        let reject = serve(&rt, &BackendKind::Dense.build(), &base).unwrap();
        let evict = serve(
            &rt,
            &BackendKind::Dense.build(),
            &ServeConfig { drop: DropPolicy::EvictOldest, ..base.clone() },
        )
        .unwrap();
        assert!(evict.dropped > 0);
        assert_eq!(evict.completed + evict.dropped, 64);
        // Same load, same shedding volume — only *who* is shed differs:
        // eviction keeps later arrivals, so the set of completed ids skews
        // later than under tail drop.
        let mean_completed_id = |r: &ServeReport| {
            let ids: Vec<u64> = r
                .outcomes
                .iter()
                .enumerate()
                .filter(|(_, o)| matches!(o, RequestOutcome::Completed { .. }))
                .map(|(id, _)| id as u64)
                .collect();
            ids.iter().sum::<u64>() as f64 / ids.len() as f64
        };
        assert!(
            mean_completed_id(&evict) > mean_completed_id(&reject),
            "eviction must favour fresher requests ({} vs {})",
            mean_completed_id(&evict),
            mean_completed_id(&reject)
        );
    }

    #[test]
    fn low_load_produces_partial_deadline_batches() {
        let rt = runtime();
        // Offered load far below service rate: batches go out on the
        // deadline with few requests each.
        let cfg =
            ServeConfig { max_batch: 8, batch_deadline_us: 100, ..ServeConfig::at_load(50.0, 12) };
        let report = serve(&rt, &BackendKind::Accelerator.build(), &cfg).unwrap();
        assert_eq!(report.dropped, 0);
        assert!(
            report.mean_batch_size() < 4.0,
            "deadline batching should stay small at low load, got {}",
            report.mean_batch_size()
        );
    }

    #[test]
    fn deeper_batches_amortize_dispatch_overhead() {
        let rt = runtime();
        let backend = BackendKind::Accelerator.build();
        let base = ServeConfig {
            shards: 1,
            batch_overhead_us: 500,
            batch_deadline_us: 10_000,
            queue_capacity: 256,
            ..ServeConfig::at_load(4_000.0, 32)
        };
        let singles = serve(&rt, &backend, &ServeConfig { max_batch: 1, ..base.clone() }).unwrap();
        let batched = serve(&rt, &backend, &ServeConfig { max_batch: 16, ..base.clone() }).unwrap();
        assert_eq!(singles.dropped, 0);
        assert_eq!(batched.dropped, 0);
        assert!(
            batched.makespan_ns < singles.makespan_ns,
            "batching must amortize overhead: {} vs {}",
            batched.makespan_ns,
            singles.makespan_ns
        );
    }

    #[test]
    fn energy_totals_equal_the_sum_of_per_request_attributions() {
        let rt = runtime();
        let cfg = ServeConfig::at_load(2_000.0, 20);
        for kind in BackendKind::all() {
            let report = serve(&rt, &kind.build(), &cfg).unwrap();
            let mut sum = EnergyBreakdown::ZERO;
            for o in &report.outcomes {
                if let RequestOutcome::Completed { energy, .. } = o {
                    sum += *energy;
                }
            }
            assert_eq!(sum, report.energy, "{} energy totals disagree", kind.name());
            assert!(report.energy.total_pj() > 0);
            assert!(report.joules_per_request() > 0.0);
            assert!(report.requests_per_joule() > 0.0);
            assert!(report.average_power_w() > 0.0);
            assert!(report.gops_per_watt() > 0.0);
            assert!(report.dense_flops > 0);
        }
    }

    #[test]
    fn energy_per_request_is_load_invariant() {
        // Energy is a property of the request, not of the schedule: two
        // very different load points must attribute identical totals when
        // they serve the same (complete) trace.
        let rt = runtime();
        let backend = BackendKind::Accelerator.build();
        let low = serve(&rt, &backend, &ServeConfig::at_load(300.0, 12)).unwrap();
        let high = serve(&rt, &backend, &ServeConfig::at_load(30_000.0, 12)).unwrap();
        assert_eq!(low.dropped, 0);
        assert_eq!(high.dropped, 0);
        assert_eq!(low.energy, high.energy);
        assert_eq!(low.dense_flops, high.dense_flops);
    }

    #[test]
    fn drop_fraction_divides_by_observed_arrivals() {
        let rt = runtime();
        let cfg = ServeConfig {
            queue_capacity: 2,
            max_batch: 2,
            shards: 1,
            ..ServeConfig::at_load(5e6, 64)
        };
        let report = serve(&rt, &BackendKind::Dense.build(), &cfg).unwrap();
        assert!(report.dropped > 0);
        let arrivals = report.completed + report.dropped;
        assert_eq!(arrivals, 64, "full trace: arrivals match the config");
        assert!((report.drop_fraction() - report.dropped as f64 / arrivals as f64).abs() < 1e-12);
        assert!(report.drop_fraction() > 0.0 && report.drop_fraction() < 1.0);
        // A drop-free run reports zero.
        let calm =
            serve(&rt, &BackendKind::Dense.build(), &ServeConfig::at_load(100.0, 4)).unwrap();
        assert_eq!(calm.dropped, 0);
        assert_eq!(calm.drop_fraction(), 0.0);
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        let rt = runtime();
        let backend = BackendKind::Dense.build();
        for cfg in [
            ServeConfig { offered_load: 0.0, ..ServeConfig::at_load(1.0, 1) },
            ServeConfig { n_requests: 0, ..ServeConfig::at_load(1.0, 1) },
            ServeConfig { shards: 0, ..ServeConfig::at_load(1.0, 1) },
            ServeConfig { batch_deadline_us: 0, ..ServeConfig::at_load(1.0, 1) },
        ] {
            assert!(matches!(serve(&rt, &backend, &cfg), Err(ServeError::DegenerateConfig { .. })));
        }
        let cross =
            ServeConfig { max_batch: 100, queue_capacity: 10, ..ServeConfig::at_load(1.0, 1) };
        assert!(matches!(serve(&rt, &backend, &cross), Err(ServeError::InvalidConfig(_))));
    }

    #[test]
    fn fleets_must_match_the_shard_count() {
        let rt = runtime();
        let fleet = BackendKind::build_fleet(&[BackendKind::Dense]);
        let cfg = ServeConfig { shards: 2, ..ServeConfig::at_load(500.0, 4) };
        assert!(matches!(
            serve_fleet(&rt, fleet, &cfg),
            Err(ServeError::FleetMismatch { fleet: 1, shards: 2 })
        ));
    }

    #[test]
    fn heterogeneous_fleets_attribute_work_per_shard() {
        let rt = runtime();
        let fleet = BackendKind::build_fleet(&[BackendKind::Dense, BackendKind::Accelerator]);
        let cfg = ServeConfig {
            shards: 2,
            router: RouterKind::EnergyAware,
            ..ServeConfig::at_load(2_000.0, 16)
        };
        let report = serve_fleet(&rt, fleet, &cfg).unwrap();
        assert_eq!(report.backend, "dense+defa-accel");
        assert_eq!(report.completed + report.dropped, 16);
        let per_shard = report.completed_per_shard();
        assert_eq!(per_shard.iter().sum::<u64>(), report.completed);
        // Energy-aware routing must drain most work through the
        // accelerator shard (index 1), whose energy rating is ~2000x
        // lower.
        assert!(
            per_shard[1] > per_shard[0],
            "energy-aware routing sent {per_shard:?} to [dense, accel]"
        );
    }

    #[test]
    fn policy_layers_compose_without_losing_requests() {
        let rt = runtime();
        let backend = BackendKind::Accelerator.build();
        for arrival in
            [ArrivalProcess::Poisson, ArrivalProcess::bursty_default(), ArrivalProcess::Uniform]
        {
            for scheduler in SchedulerKind::all() {
                for router in RouterKind::all() {
                    let cfg = ServeConfig {
                        arrival: arrival.clone(),
                        scheduler,
                        router,
                        ..ServeConfig::at_load(4_000.0, 12)
                    };
                    let report = serve(&rt, &backend, &cfg).unwrap();
                    assert_eq!(
                        report.completed + report.dropped,
                        12,
                        "{}/{}/{} lost requests",
                        arrival.label(),
                        scheduler.name(),
                        router.name()
                    );
                }
            }
        }
    }

    #[test]
    fn outcome_capture_caps_the_debug_record_without_touching_aggregates() {
        let rt = runtime();
        let backend = BackendKind::Accelerator.build();
        let cfg = ServeConfig::at_load(2_000.0, 16);
        let full = serve(&rt, &backend, &cfg).unwrap();
        let capped =
            serve(&rt, &backend, &ServeConfig { outcome_capture: 4, ..cfg.clone() }).unwrap();
        // The capture is a strict prefix of the full record; every
        // aggregate — digest included — is computed from all requests
        // either way.
        assert_eq!(full.outcomes.len(), 16);
        assert_eq!(capped.outcomes.len(), 4);
        assert_eq!(&full.outcomes[..4], &capped.outcomes[..]);
        assert_eq!(full.digest, capped.digest);
        assert_eq!(full.completed, capped.completed);
        assert_eq!(full.energy, capped.energy);
        assert_eq!(full.timeline, capped.timeline);
        assert_eq!(full.live, capped.live);
        // Live-state accounting is populated.
        assert!(capped.live.peak_inflight > 0);
        assert!(capped.live.peak_events > 0);
        assert!(capped.live.peak_reorder > 0);
        assert!(capped.live.epochs_stepped + capped.live.epochs_skipped > 0);
        // And zero capture means zero retained outcomes.
        let none = serve(&rt, &backend, &ServeConfig { outcome_capture: 0, ..cfg }).unwrap();
        assert!(none.outcomes.is_empty());
        assert_eq!(none.digest, full.digest);
    }

    #[test]
    fn display_covers_the_key_lines() {
        let rt = runtime();
        let report =
            serve(&rt, &BackendKind::Accelerator.build(), &ServeConfig::at_load(500.0, 8)).unwrap();
        let s = report.to_string();
        for key in
            ["serve report", "offered", "policy", "served", "throughput", "total", "p99", "fifo"]
        {
            assert!(s.contains(key), "missing {key} in:\n{s}");
        }
    }

    #[test]
    fn legacy_reports_mirror_streaming_fields() {
        // Under the one-shot profile the streaming view degenerates:
        // every request is one iteration, TTFT is the total latency.
        let rt = runtime();
        let report =
            serve(&rt, &BackendKind::Accelerator.build(), &ServeConfig::at_load(2_000.0, 16))
                .unwrap();
        assert_eq!(report.iterations, report.completed);
        assert_eq!(report.evictions, 0);
        assert_eq!(report.ttft, report.total);
        assert_eq!(report.tbt.count(), 0);
        assert_eq!(report.ttft_violations, report.slo_violations);
        assert_eq!(report.tbt_violations, 0);
    }

    #[test]
    fn sessions_conserve_requests_and_count_iterations() {
        let rt = runtime();
        let cfg = chatty(&ServeConfig::at_load(1_000.0, 16));
        let report = serve(&rt, &BackendKind::Accelerator.build(), &cfg).unwrap();
        assert_eq!(report.completed + report.dropped, 16);
        assert_eq!(report.outcomes.len(), 16);
        // Sessions, not iterations, are the unit of completion...
        assert_eq!(report.total.count(), report.completed);
        assert_eq!(report.ttft.count(), report.completed);
        // ...but every decode step is accounted: min_len 2 guarantees
        // strictly more iterations than sessions.
        assert!(report.iterations > report.completed);
        assert_eq!(report.tbt.count(), report.iterations - report.completed);
        assert!(report.makespan_ns > 0);
    }

    #[test]
    fn session_runs_are_byte_identical() {
        let rt = runtime();
        let cfg = chatty(&ServeConfig::at_load(2_000.0, 16));
        let backend = BackendKind::Pruned.build();
        let a = serve(&rt, &backend, &cfg).unwrap();
        let b = serve(&rt, &backend, &cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn gang_and_continuous_agree_on_response_bits() {
        // Scheduling differs, bits do not: both engines fold the same
        // per-iteration digests, so at drop-free load the ledgers match.
        let rt = runtime();
        let backend = BackendKind::Accelerator.build();
        let cfg = chatty(&ServeConfig::at_load(400.0, 12));
        let cont = serve(&rt, &backend, &cfg).unwrap();
        let gang = serve(
            &rt,
            &backend,
            &ServeConfig {
                sessions: crate::config::SessionConfig { gang: true, ..cfg.sessions },
                ..cfg.clone()
            },
        )
        .unwrap();
        assert_eq!(cont.dropped, 0);
        assert_eq!(gang.dropped, 0);
        assert_eq!(cont.digest, gang.digest);
        assert_eq!(cont.energy, gang.energy);
        assert_eq!(cont.iterations, gang.iterations);
        assert_eq!(gang.evictions, 0, "gang sessions never release state mid-flight");
    }

    #[test]
    fn state_budget_forces_deterministic_evictions() {
        let rt = runtime();
        let backend = BackendKind::Accelerator.build();
        let base =
            chatty(&ServeConfig { shards: 1, max_batch: 4, ..ServeConfig::at_load(8_000.0, 24) });
        let unconstrained = serve(&rt, &backend, &base).unwrap();
        assert_eq!(unconstrained.evictions, 0);
        let tight = ServeConfig {
            sessions: crate::config::SessionConfig { state_budget: 2, ..base.sessions },
            ..base.clone()
        };
        let constrained = serve(&rt, &backend, &tight).unwrap();
        assert!(
            constrained.evictions > 0,
            "a 2-session budget under 24 overlapping sessions must evict"
        );
        // Recompute is deterministic: response bits survive eviction,
        // while the re-run prefills cost extra energy and FLOPs.
        if constrained.dropped == unconstrained.dropped {
            assert_eq!(constrained.digest, unconstrained.digest);
        }
        assert!(constrained.energy.total_pj() >= unconstrained.energy.total_pj());
        let b = serve(&rt, &backend, &tight).unwrap();
        assert_eq!(constrained, b, "evictions are part of the deterministic schedule");
    }

    /// The ready sets' ordering contract: a [`ReadySet`] pops
    /// `(ready_ns, id)` keys in exactly the ascending order a `BTreeSet`
    /// of the same keys iterates — sessions sharing a `ready_ns` leave by
    /// id — under the interleaved pushes and pops the engine performs.
    #[test]
    fn ready_set_pops_in_btreeset_order_when_sessions_share_a_ready_time() {
        let mut heap = ReadySet::new();
        for key in [(5, 9), (5, 2), (3, 4), (5, 7), (3, 1)] {
            heap.push(Reverse(key));
        }
        let order: Vec<(u64, u64)> =
            std::iter::from_fn(|| heap.pop().map(|Reverse(k)| k)).collect();
        assert_eq!(order, [(3, 1), (3, 4), (5, 2), (5, 7), (5, 9)]);

        let mut set = BTreeSet::new();
        let mut h = 0x5eed_u64;
        for step in 0..20_000u64 {
            h = defa_tensor::rng::splitmix64(h);
            if !h.is_multiple_of(3) || set.is_empty() {
                // Eight distinct ready times: most pushes tie on
                // `ready_ns`. Ids are unique (a session sits in one ready
                // set at a time) but pushed out of id order.
                let key = ((h >> 16) % 8, step * 7_919 % 20_011);
                heap.push(Reverse(key));
                assert!(set.insert(key), "ids are unique");
            } else {
                assert_eq!(heap.pop().map(|Reverse(k)| k), set.pop_first(), "step {step}");
            }
            assert_eq!(heap.peek().map(|&Reverse(k)| k), set.first().copied(), "step {step}");
        }
        while let Some(key) = set.pop_first() {
            assert_eq!(heap.pop(), Some(Reverse(key)));
        }
        assert!(heap.is_empty());
    }
}
