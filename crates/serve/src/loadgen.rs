//! Seeded open-loop load generation.
//!
//! The runtime drives an *open-loop* arrival process: requests arrive on a
//! schedule independent of how fast the system drains them, which is what
//! exposes queueing delay and backpressure at high offered load (a
//! closed-loop generator would politely slow down and hide both). Arrival
//! times are virtual nanoseconds derived purely from `(seed, rate)`, so a
//! trace is exactly reproducible and independent of wall-clock jitter.
//!
//! One offered rate hides very different traffic shapes, so the process is
//! pluggable ([`ArrivalProcess`]): memoryless [`ArrivalProcess::Poisson`]
//! (the classic open-loop model), an on/off Markov-modulated
//! [`ArrivalProcess::Bursty`] process that concentrates the same mean rate
//! into bursts (what stresses admission and deadline scheduling), and a
//! jitter-free [`ArrivalProcess::Uniform`] pacer (what isolates batching
//! behaviour from arrival noise — and the only process that can produce
//! *simultaneous* arrivals at extreme rates).
//!
//! A single rate also hides that production traffic is *time-varying*:
//! [`ArrivalProcess::Trace`] drives a piecewise-rate [`TraceSchedule`] —
//! each [`RateSegment`] scales the base rate for a virtual-time window
//! and spaces its arrivals with any of the point processes above. The
//! shipped shapes (diurnal ramp, step surge, sawtooth, seeded random
//! walk) are what the closed-loop controllers in [`crate::control`] are
//! exercised against.

use defa_tensor::rng::TensorRng;

/// A Poisson arrival trace: exponential inter-arrival gaps at a fixed
/// offered rate — the legacy sampler [`ArrivalProcess::Poisson`] is
/// tested against.
#[cfg(test)]
fn arrival_times(n: usize, rate_per_s: f64, seed: u64) -> Vec<u64> {
    assert!(rate_per_s > 0.0, "offered load must be positive");
    let mut rng = TensorRng::seed_from(seed);
    let mut t = 0u64;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        t = t.saturating_add(exp_gap_ns(&mut rng, rate_per_s));
        out.push(t);
    }
    out
}

/// One exponential inter-arrival gap at `rate_per_s`, at least 1 ns.
///
/// The f32 uniform gives ~2^-24 granularity — plenty for a load schedule —
/// and keeps the draw identical on every platform.
fn exp_gap_ns(rng: &mut TensorRng, rate_per_s: f64) -> u64 {
    let u = f64::from(rng.uniform_value(0.0, 1.0)).min(1.0 - 1e-9);
    let gap_s = -(1.0 - u).ln() / rate_per_s;
    (gap_s * 1e9).round().max(1.0) as u64
}

/// Bursty phase length in mean inter-arrival gaps: one on/off cycle spans
/// this many expected arrivals, so burst structure scales with the rate.
const BURSTY_CYCLE_GAPS: f64 = 64.0;

/// How one [`RateSegment`] spaces its arrivals within its window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SegmentProcess {
    /// Memoryless arrivals (exponential gaps).
    Poisson,
    /// On/off bursts at `burst ×` the segment rate (see
    /// [`ArrivalProcess::Bursty`]).
    Bursty {
        /// Peak-to-mean rate ratio of the ON phase (> 1).
        burst: f64,
    },
    /// Deterministic pacing.
    Uniform,
}

/// One window of a [`TraceSchedule`]: a duration, a multiplier on the
/// base offered rate, and the point process spacing arrivals inside it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateSegment {
    /// Virtual duration of the window in microseconds. Zero-duration
    /// segments are legal and simply skipped (the degenerate case the
    /// epoch math must survive — `tests/tests/control.rs` pins it).
    pub duration_us: u64,
    /// Multiplier applied to the base offered load for this window. Zero
    /// means a silent window (no arrivals).
    pub rate_mult: f64,
    /// How arrivals are spaced inside the window.
    pub process: SegmentProcess,
}

impl RateSegment {
    /// A Poisson-spaced segment — the default building block.
    pub fn poisson(duration_us: u64, rate_mult: f64) -> Self {
        RateSegment { duration_us, rate_mult, process: SegmentProcess::Poisson }
    }
}

/// A named piecewise-rate schedule, cycled until the trace is exhausted.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSchedule {
    /// Display name (`diurnal`, `surge(8x)`, …).
    pub name: String,
    /// The windows, cycled in order.
    pub segments: Vec<RateSegment>,
}

impl TraceSchedule {
    /// A schedule from explicit segments.
    pub fn new(name: impl Into<String>, segments: Vec<RateSegment>) -> Self {
        TraceSchedule { name: name.into(), segments }
    }

    /// A smooth day/night cycle: eight Poisson windows ramping
    /// 0.25× → 1.75× → 0.25× of the base rate over `period_us`.
    pub fn diurnal(period_us: u64) -> Self {
        let mults = [0.25, 0.5, 1.0, 1.5, 1.75, 1.5, 1.0, 0.5];
        let seg = period_us / mults.len() as u64;
        TraceSchedule::new("diurnal", mults.iter().map(|&m| RateSegment::poisson(seg, m)).collect())
    }

    /// A flash crowd: calm at the base rate, then a `surge_mult ×` spike
    /// for `surge_us`, then calm again.
    pub fn step_surge(calm_us: u64, surge_us: u64, surge_mult: f64) -> Self {
        TraceSchedule::new(
            format!("surge({surge_mult:.0}x)"),
            vec![
                RateSegment::poisson(calm_us, 1.0),
                RateSegment::poisson(surge_us, surge_mult),
                RateSegment::poisson(calm_us, 1.0),
            ],
        )
    }

    /// A sawtooth: `steps` Poisson windows ramping linearly from 0.25×
    /// up to `peak ×` over `period_us`, then snapping back down.
    pub fn sawtooth(period_us: u64, steps: usize, peak: f64) -> Self {
        let steps = steps.max(2);
        let seg = period_us / steps as u64;
        let segments = (0..steps)
            .map(|i| {
                let frac = i as f64 / (steps - 1) as f64;
                RateSegment::poisson(seg, 0.25 + (peak - 0.25) * frac)
            })
            .collect();
        TraceSchedule::new("sawtooth", segments)
    }

    /// A seeded multiplicative random walk: `n_segments` Poisson windows
    /// of `segment_us` whose multipliers take ±25 % steps from 1.0,
    /// clamped to `[0.25, 4.0]`. Pure in `walk_seed`.
    pub fn random_walk(n_segments: usize, segment_us: u64, walk_seed: u64) -> Self {
        let mut rng = TensorRng::seed_from(walk_seed ^ 0x7A1C_0FFE_E000_0001);
        let mut mult = 1.0f64;
        let segments = (0..n_segments.max(1))
            .map(|_| {
                let u = f64::from(rng.uniform_value(0.0, 1.0));
                mult = (mult * if u < 0.5 { 0.75 } else { 1.25 }).clamp(0.25, 4.0);
                RateSegment::poisson(segment_us, mult)
            })
            .collect();
        TraceSchedule::new("random-walk", segments)
    }

    /// Whether the schedule can ever produce an arrival: at least one
    /// segment with positive duration *and* positive rate (what
    /// `ServeConfig::validate` rejects otherwise — a schedule that can't
    /// arrive would spin the sampler forever).
    pub fn can_arrive(&self) -> bool {
        self.segments.iter().any(|s| s.duration_us > 0 && s.rate_mult > 0.0)
    }

    /// Whether the schedule can produce an arrival *at this base rate*.
    ///
    /// Stricter than [`Self::can_arrive`]: a [`SegmentProcess::Uniform`]
    /// segment whose fixed gap (`1e9 / rate`) is at least as long as its
    /// window deterministically never fires — only the stochastic
    /// processes can eventually land an arrival in any positive window.
    /// `ServeConfig::validate` checks this against the offered load, and
    /// the sampler asserts it, because a schedule that is unproductive at
    /// its rate would cycle forever.
    pub fn productive_at(&self, rate_per_s: f64) -> bool {
        self.segments.iter().any(|s| {
            if s.duration_us == 0 || s.rate_mult <= 0.0 {
                return false;
            }
            match s.process {
                SegmentProcess::Uniform => {
                    let gap = (1e9 / (rate_per_s * s.rate_mult)).round() as u64;
                    gap < s.duration_us.saturating_mul(1_000)
                }
                SegmentProcess::Poisson | SegmentProcess::Bursty { .. } => true,
            }
        })
    }
}

/// A pluggable open-loop arrival process.
///
/// Every variant is a pure function of `(n, rate, seed)` producing a
/// sorted virtual-nanosecond trace — the variants differ only in how the
/// arrivals are *spaced* (and, for [`ArrivalProcess::Trace`], how the
/// instantaneous rate moves around the mean), which is exactly the
/// dimension scheduling, admission and fleet-control policies differ on.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals: exponential gaps (the PR 2 default).
    Poisson,
    /// On/off Markov-modulated Poisson: exponentially-distributed ON
    /// phases arriving at `burst × rate` alternate with silent OFF phases
    /// sized so the long-run mean stays `rate`. `burst` must exceed 1.
    Bursty {
        /// Peak-to-mean rate ratio of the ON phase (> 1).
        burst: f64,
    },
    /// Deterministic pacing at exactly the offered rate. At rates above
    /// 1 GHz the rounded gap is 0 ns, i.e. genuinely simultaneous
    /// arrivals — the admission queue's hardest case.
    Uniform,
    /// Time-varying load: the [`TraceSchedule`]'s segments scale the
    /// offered rate window by window, cycling until `n` arrivals exist.
    Trace(TraceSchedule),
}

impl ArrivalProcess {
    /// The default bursty operating point: 8× peak-to-mean.
    pub fn bursty_default() -> Self {
        ArrivalProcess::Bursty { burst: 8.0 }
    }

    /// Short display name for tables (`poisson`, `bursty(8x)`, `uniform`,
    /// `trace(diurnal)`).
    pub fn label(&self) -> String {
        match self {
            ArrivalProcess::Poisson => "poisson".into(),
            ArrivalProcess::Bursty { burst } => format!("bursty({burst:.0}x)"),
            ArrivalProcess::Uniform => "uniform".into(),
            ArrivalProcess::Trace(t) => format!("trace({})", t.name),
        }
    }

    /// Samples `n` sorted arrival times at mean rate `rate_per_s` (for
    /// [`ArrivalProcess::Trace`], the *base* rate the segments multiply).
    ///
    /// Pure in `(n, rate_per_s, seed)`; the Poisson variant reproduces
    /// the legacy `arrival_times` sampler bit-for-bit, which is what
    /// keeps pre-policy serving traces byte-identical. Since the discrete-event rewrite
    /// this is literally `stream(…).take(n).collect()` — the lazy
    /// iterator is the single source of truth, and
    /// `tests/tests/engine_equivalence.rs` pins the streams that the
    /// materialized form produced before the refactor.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive rate, a `Bursty` factor ≤ 1, or a trace
    /// schedule that can never arrive (the serving layer validates all of
    /// these in `ServeConfig::validate` first).
    pub fn sample(&self, n: usize, rate_per_s: f64, seed: u64) -> Vec<u64> {
        self.stream(rate_per_s, seed).take(n).collect()
    }

    /// The lazy, unbounded form of [`Self::sample`]: an iterator yielding
    /// the same virtual-nanosecond sequence draw for draw, generated on
    /// demand in O(1) state instead of a materialized `Vec`.
    ///
    /// This is what lets the serving runtime pull 10M-request traces
    /// without holding them: live memory is the iterator's cursor, not
    /// the trace.
    ///
    /// # Panics
    ///
    /// Same contract as [`Self::sample`].
    pub fn stream(&self, rate_per_s: f64, seed: u64) -> ArrivalIter {
        assert!(rate_per_s > 0.0, "offered load must be positive");
        let mut rng = TensorRng::seed_from(seed);
        let state = match *self {
            ArrivalProcess::Poisson => IterState::Poisson { t: 0 },
            ArrivalProcess::Uniform => {
                IterState::Uniform { gap: (1e9 / rate_per_s).round() as u64, k: 0 }
            }
            ArrivalProcess::Bursty { burst } => {
                assert!(burst > 1.0, "burst factor must exceed 1, got {burst}");
                // Start inside an ON phase so short traces still arrive.
                IterState::Bursty(BurstyState::enter(&mut rng, rate_per_s, burst, 0))
            }
            ArrivalProcess::Trace(ref schedule) => {
                assert!(schedule.can_arrive(), "trace schedule can never produce an arrival");
                assert!(
                    schedule.productive_at(rate_per_s),
                    "trace schedule can never produce an arrival at base rate {rate_per_s} \
                     (every productive window is uniform-paced with a gap longer than itself)"
                );
                IterState::Trace { schedule: schedule.clone(), seg: 0, t0: 0, window: None }
            }
        };
        ArrivalIter { rng, rate: rate_per_s, state }
    }
}

/// On/off MMPP cursor shared by the standalone bursty process and bursty
/// trace segments: the current time and the end of the current ON phase.
#[derive(Debug, Clone)]
struct BurstyState {
    rate_on: f64,
    tau_on: f64,
    tau_off: f64,
    t: u64,
    phase_end: u64,
}

impl BurstyState {
    /// Opens a bursty stretch at `t`: derives the phase constants and
    /// draws the first ON-phase length (one rng draw, exactly like the
    /// materialized sampler does on window entry).
    fn enter(rng: &mut TensorRng, rate_per_s: f64, burst: f64, t: u64) -> Self {
        assert!(burst > 1.0, "burst factor must exceed 1, got {burst}");
        let cycle_s = BURSTY_CYCLE_GAPS / rate_per_s;
        let tau_on = cycle_s / burst; // duty cycle 1/burst keeps the mean
        let tau_off = cycle_s - tau_on;
        let phase_end = t.saturating_add(exp_gap_ns(rng, 1.0 / tau_on));
        BurstyState { rate_on: rate_per_s * burst, tau_on, tau_off, t, phase_end }
    }

    /// One unbounded arrival: draws gaps, skipping OFF phases, until one
    /// lands inside an ON phase.
    fn next_unbounded(&mut self, rng: &mut TensorRng) -> u64 {
        loop {
            let gap = exp_gap_ns(rng, self.rate_on);
            if self.t.saturating_add(gap) <= self.phase_end {
                self.t = self.t.saturating_add(gap);
                return self.t;
            }
            // ON phase exhausted: skip the silent OFF phase and open the
            // next ON phase.
            let off = exp_gap_ns(rng, 1.0 / self.tau_off);
            self.t = self.phase_end.saturating_add(off);
            self.phase_end = self.t.saturating_add(exp_gap_ns(rng, 1.0 / self.tau_on));
        }
    }

    /// One arrival bounded by the window end `t1`, or `None` once the
    /// cursor leaves the window (same draw sequence as
    /// `SegmentProcess::sample_window`).
    fn next_in_window(&mut self, rng: &mut TensorRng, t1: u64) -> Option<u64> {
        while self.t < t1 {
            let gap = exp_gap_ns(rng, self.rate_on);
            if self.t.saturating_add(gap) <= self.phase_end {
                self.t = self.t.saturating_add(gap);
                if self.t >= t1 {
                    return None;
                }
                return Some(self.t);
            }
            let off = exp_gap_ns(rng, 1.0 / self.tau_off);
            self.t = self.phase_end.saturating_add(off);
            self.phase_end = self.t.saturating_add(exp_gap_ns(rng, 1.0 / self.tau_on));
        }
        None
    }
}

/// Point-process cursor inside one entered trace window.
#[derive(Debug, Clone)]
enum WindowState {
    Poisson { t: u64 },
    Uniform { gap: u64, k: u64 },
    Bursty(BurstyState),
}

/// Iterator state per [`ArrivalProcess`] variant.
#[derive(Debug, Clone)]
enum IterState {
    Poisson {
        t: u64,
    },
    Uniform {
        gap: u64,
        k: u64,
    },
    Bursty(BurstyState),
    Trace {
        schedule: TraceSchedule,
        /// Index of the segment the cursor sits in (cycles).
        seg: usize,
        /// Virtual start of that segment's window.
        t0: u64,
        /// `(t0, t1, rate, cursor)` of an entered productive window.
        window: Option<(u64, u64, f64, WindowState)>,
    },
}

/// A lazy, unbounded arrival-time stream — the pull form of
/// [`ArrivalProcess::sample`], built by [`ArrivalProcess::stream`].
///
/// Yields an infinite non-decreasing sequence of virtual nanoseconds;
/// `next()` never returns `None`. Each pull performs O(1) amortized rng
/// draws and the whole iterator is O(1) state (a time cursor, a phase
/// cursor and — for traces — a segment index), so consumers decide how
/// much trace exists. The draw *order* matches the materialized sampler
/// exactly: taking `n` arrivals consumes the same rng stream as
/// `sample(n, …)`, which keeps every engine digest pinned across the
/// lazy/materialized boundary.
#[derive(Debug, Clone)]
pub struct ArrivalIter {
    rng: TensorRng,
    rate: f64,
    state: IterState,
}

impl ArrivalIter {
    /// The next arrival time. The stream is infinite by construction, so
    /// this always yields; [`Iterator::next`] wraps it in `Some`.
    pub fn next_ns(&mut self) -> u64 {
        match self.state {
            IterState::Poisson { ref mut t } => {
                *t = t.saturating_add(exp_gap_ns(&mut self.rng, self.rate));
                *t
            }
            IterState::Uniform { gap, ref mut k } => {
                *k += 1;
                k.saturating_mul(gap).max(1)
            }
            IterState::Bursty(ref mut b) => b.next_unbounded(&mut self.rng),
            IterState::Trace { ref schedule, ref mut seg, ref mut t0, ref mut window } => {
                loop {
                    if let Some((w_t0, t1, rate, cursor)) = window.as_mut() {
                        let hit = match cursor {
                            WindowState::Poisson { t } => {
                                *t = t.saturating_add(exp_gap_ns(&mut self.rng, *rate));
                                if *t >= *t1 {
                                    None
                                } else {
                                    Some(*t)
                                }
                            }
                            WindowState::Uniform { gap, k } => {
                                // A rounded gap of 0 ns means genuinely
                                // simultaneous arrivals; the consumer's
                                // take() bounds the yield count, exactly
                                // like the `n` bound did in the
                                // materialized sampler.
                                *k += 1;
                                let t = w_t0.saturating_add(k.saturating_mul(*gap));
                                if t >= *t1 {
                                    None
                                } else {
                                    Some(t)
                                }
                            }
                            WindowState::Bursty(b) => b.next_in_window(&mut self.rng, *t1),
                        };
                        if let Some(t) = hit {
                            return t;
                        }
                        // Window exhausted: the cursor crosses into the
                        // next segment.
                        *t0 = *t1;
                        *seg = (*seg + 1) % schedule.segments.len();
                        *window = None;
                        continue;
                    }
                    let s = &schedule.segments[*seg];
                    let dur_ns = s.duration_us.saturating_mul(1_000);
                    let t1 = t0.saturating_add(dur_ns);
                    // Zero-duration or silent windows contribute nothing —
                    // they only advance (or hold) the clock.
                    if dur_ns > 0 && s.rate_mult > 0.0 {
                        let rate = self.rate * s.rate_mult;
                        let cursor = match s.process {
                            SegmentProcess::Poisson => WindowState::Poisson { t: *t0 },
                            SegmentProcess::Uniform => {
                                WindowState::Uniform { gap: (1e9 / rate).round() as u64, k: 0 }
                            }
                            SegmentProcess::Bursty { burst } => WindowState::Bursty(
                                BurstyState::enter(&mut self.rng, rate, burst, *t0),
                            ),
                        };
                        *window = Some((*t0, t1, rate, cursor));
                    } else {
                        *t0 = t1;
                        *seg = (*seg + 1) % schedule.segments.len();
                    }
                }
            }
        }
    }
}

impl Iterator for ArrivalIter {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        Some(self.next_ns())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_are_reproducible() {
        assert_eq!(arrival_times(200, 500.0, 3), arrival_times(200, 500.0, 3));
        assert_ne!(arrival_times(200, 500.0, 3), arrival_times(200, 500.0, 4));
    }

    #[test]
    fn mean_gap_tracks_offered_rate() {
        let rate = 2_000.0;
        let t = arrival_times(4000, rate, 11);
        let span_s = *t.last().unwrap() as f64 * 1e-9;
        let achieved = t.len() as f64 / span_s;
        assert!((achieved - rate).abs() / rate < 0.1, "achieved {achieved} vs offered {rate}");
    }

    #[test]
    fn gaps_are_strictly_positive() {
        let t = arrival_times(1000, 1e6, 5);
        assert!(t[0] >= 1);
        assert!(t.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    #[should_panic(expected = "offered load must be positive")]
    fn zero_rate_is_rejected() {
        arrival_times(1, 0.0, 1);
    }

    #[test]
    fn poisson_process_matches_the_legacy_function() {
        let p = ArrivalProcess::Poisson.sample(300, 1234.5, 99);
        assert_eq!(p, arrival_times(300, 1234.5, 99));
    }

    #[test]
    fn every_process_is_sorted_reproducible_and_rate_faithful() {
        for proc in
            [ArrivalProcess::Poisson, ArrivalProcess::bursty_default(), ArrivalProcess::Uniform]
        {
            let rate = 5_000.0;
            let a = proc.sample(4000, rate, 7);
            let b = proc.sample(4000, rate, 7);
            assert_eq!(a, b, "{} not reproducible", proc.label());
            assert_eq!(a.len(), 4000);
            assert!(a.windows(2).all(|w| w[0] <= w[1]), "{} unsorted", proc.label());
            let achieved = a.len() as f64 / (*a.last().unwrap() as f64 * 1e-9);
            assert!(
                (achieved - rate).abs() / rate < 0.25,
                "{}: achieved {achieved} vs offered {rate}",
                proc.label()
            );
        }
    }

    #[test]
    fn bursty_concentrates_arrivals() {
        // Coefficient of variation of the gaps: bursty must exceed Poisson
        // (whose CV is 1), uniform must be (near) zero.
        let cv = |t: &[u64]| {
            let gaps: Vec<f64> = t.windows(2).map(|w| (w[1] - w[0]) as f64).collect();
            let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
            let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
            var.sqrt() / mean
        };
        let rate = 10_000.0;
        let poisson = ArrivalProcess::Poisson.sample(6000, rate, 21);
        let bursty = ArrivalProcess::bursty_default().sample(6000, rate, 21);
        let uniform = ArrivalProcess::Uniform.sample(6000, rate, 21);
        assert!(
            cv(&bursty) > 1.5 * cv(&poisson),
            "bursty CV {} vs poisson {}",
            cv(&bursty),
            cv(&poisson)
        );
        assert!(cv(&uniform) < 0.01, "uniform CV {}", cv(&uniform));
    }

    #[test]
    fn uniform_at_extreme_rate_produces_simultaneous_arrivals() {
        // Above 1 GHz the rounded gap collapses to zero: multiple requests
        // share one virtual nanosecond. The admission queue must handle it.
        let t = ArrivalProcess::Uniform.sample(16, 4e9, 1);
        assert_eq!(t.len(), 16);
        assert!(t.windows(2).any(|w| w[0] == w[1]), "expected equal timestamps: {t:?}");
    }

    #[test]
    fn labels_name_the_process() {
        assert_eq!(ArrivalProcess::Poisson.label(), "poisson");
        assert_eq!(ArrivalProcess::bursty_default().label(), "bursty(8x)");
        assert_eq!(ArrivalProcess::Uniform.label(), "uniform");
    }

    #[test]
    #[should_panic(expected = "burst factor must exceed 1")]
    fn degenerate_burst_factor_is_rejected() {
        ArrivalProcess::Bursty { burst: 1.0 }.sample(4, 100.0, 1);
    }

    #[test]
    fn traces_are_sorted_reproducible_and_cycle() {
        for schedule in [
            TraceSchedule::diurnal(40_000),
            TraceSchedule::step_surge(10_000, 5_000, 8.0),
            TraceSchedule::sawtooth(40_000, 4, 2.0),
            TraceSchedule::random_walk(6, 8_000, 9),
        ] {
            let proc = ArrivalProcess::Trace(schedule.clone());
            let a = proc.sample(500, 20_000.0, 3);
            let b = proc.sample(500, 20_000.0, 3);
            assert_eq!(a, b, "{} not reproducible", proc.label());
            assert_eq!(a.len(), 500);
            assert!(a.windows(2).all(|w| w[0] <= w[1]), "{} unsorted", proc.label());
            // 500 arrivals at ~20k/s is ~25 ms of trace — several cycles
            // of a ≤40 ms... (40_000 µs = 40 ms) at least reaches past one
            // segment; the last arrival must sit beyond the first window.
            assert!(
                *a.last().unwrap() > schedule.segments[0].duration_us * 1_000,
                "{}: trace never left its first window",
                proc.label()
            );
        }
    }

    #[test]
    fn surge_concentrates_arrivals_in_the_spike_window() {
        // calm 20 ms at 1x, surge 10 ms at 8x: the spike window covers
        // 1/5 of each 50 ms cycle but ~8/10 of its arrivals.
        let schedule = TraceSchedule::step_surge(20_000, 10_000, 8.0);
        let t = ArrivalProcess::Trace(schedule).sample(2_000, 10_000.0, 5);
        let cycle = 50_000_000u64;
        let in_surge = t
            .iter()
            .filter(|&&x| {
                let phase = x % cycle;
                (20_000_000..30_000_000).contains(&phase)
            })
            .count();
        let frac = in_surge as f64 / t.len() as f64;
        assert!(frac > 0.6, "surge window holds only {frac:.2} of arrivals");
    }

    #[test]
    fn zero_duration_segments_are_skipped() {
        let schedule = TraceSchedule::new(
            "degenerate",
            vec![
                RateSegment::poisson(0, 4.0),     // zero-length: skipped
                RateSegment::poisson(5_000, 0.0), // silent: clock advances
                RateSegment::poisson(5_000, 1.0),
            ],
        );
        assert!(schedule.can_arrive());
        let t = ArrivalProcess::Trace(schedule).sample(64, 50_000.0, 7);
        assert_eq!(t.len(), 64);
        assert!(t.windows(2).all(|w| w[0] <= w[1]));
        // The silent first window of each 10 ms cycle holds nothing.
        assert!(t.iter().all(|&x| (x % 10_000_000) >= 5_000_000), "arrival in silent window");
    }

    #[test]
    fn schedules_that_cannot_arrive_are_detected() {
        assert!(!TraceSchedule::new("dead", vec![RateSegment::poisson(0, 1.0)]).can_arrive());
        assert!(!TraceSchedule::new("dead", vec![RateSegment::poisson(1_000, 0.0)]).can_arrive());
        assert!(TraceSchedule::new("ok", vec![RateSegment::poisson(1_000, 0.5)]).can_arrive());
    }

    #[test]
    #[should_panic(expected = "can never produce an arrival")]
    fn dead_schedules_panic_at_sample_time() {
        let dead = TraceSchedule::new("dead", vec![RateSegment::poisson(1_000, 0.0)]);
        ArrivalProcess::Trace(dead).sample(1, 100.0, 1);
    }

    /// A uniform-paced window whose fixed gap outlasts the window can
    /// never fire; sampling such a schedule must fail loudly instead of
    /// cycling forever.
    #[test]
    #[should_panic(expected = "at base rate")]
    fn uniform_gap_longer_than_its_window_panics_instead_of_hanging() {
        // 1 ms window, 100 req/s -> 10 ms gap: deterministically silent.
        let stuck = TraceSchedule::new(
            "stuck",
            vec![RateSegment {
                duration_us: 1_000,
                rate_mult: 1.0,
                process: SegmentProcess::Uniform,
            }],
        );
        assert!(stuck.can_arrive(), "rate-independent check cannot see it");
        assert!(!stuck.productive_at(100.0));
        ArrivalProcess::Trace(stuck).sample(1, 100.0, 1);
    }

    #[test]
    fn productivity_depends_on_the_base_rate() {
        let schedule = TraceSchedule::new(
            "uniform",
            vec![RateSegment {
                duration_us: 1_000,
                rate_mult: 1.0,
                process: SegmentProcess::Uniform,
            }],
        );
        assert!(!schedule.productive_at(100.0), "10 ms gap vs 1 ms window");
        assert!(schedule.productive_at(10_000.0), "0.1 ms gap vs 1 ms window");
        // A stochastic segment rescues the schedule at any positive rate.
        let mixed = TraceSchedule::new(
            "mixed",
            vec![
                RateSegment {
                    duration_us: 1_000,
                    rate_mult: 1.0,
                    process: SegmentProcess::Uniform,
                },
                RateSegment::poisson(1_000, 1.0),
            ],
        );
        assert!(mixed.productive_at(100.0));
        let t = ArrivalProcess::Trace(mixed).sample(16, 100.0, 3);
        assert_eq!(t.len(), 16);
    }

    #[test]
    fn segment_processes_cover_the_point_process_family() {
        // Each point process works inside a window and respects bounds.
        for process in [
            SegmentProcess::Poisson,
            SegmentProcess::Bursty { burst: 8.0 },
            SegmentProcess::Uniform,
        ] {
            let schedule = TraceSchedule::new(
                "mixed",
                vec![RateSegment { duration_us: 10_000, rate_mult: 1.0, process }],
            );
            let t = ArrivalProcess::Trace(schedule).sample(200, 30_000.0, 11);
            assert_eq!(t.len(), 200);
            assert!(t.windows(2).all(|w| w[0] <= w[1]), "{process:?} unsorted");
        }
    }

    #[test]
    fn trace_labels_carry_the_schedule_name() {
        assert_eq!(ArrivalProcess::Trace(TraceSchedule::diurnal(1_000)).label(), "trace(diurnal)");
        assert_eq!(
            ArrivalProcess::Trace(TraceSchedule::step_surge(1_000, 500, 8.0)).label(),
            "trace(surge(8x))"
        );
    }
}
