//! Fixed-bucket latency histograms with deterministic quantiles.
//!
//! The runtime accounts latency in *virtual* nanoseconds (see
//! [`crate::runtime`]), so histogram contents must be exactly reproducible:
//! fixed power-of-two buckets, integer counts, and quantiles read off the
//! bucket boundaries. No sampling, no floating-point accumulation order —
//! two runs that record the same latencies produce byte-identical
//! histograms regardless of thread count or batch interleaving.

/// Number of buckets; see [`LatencyHistogram`] for the covered range.
pub const N_BUCKETS: usize = 48;

/// log2 of the first bucket's upper bound in nanoseconds (2^10 ≈ 1 µs).
const LOG2_LO: u32 = 10;

/// A log2-spaced latency histogram over `[0, ~2^57) ns`.
///
/// Bucket 0 covers `[0, 2^10) ns` — *everything* below ~1 µs, not one
/// power-of-two like the rest — and bucket `i ≥ 1` covers
/// `[2^(i+9), 2^(i+10)) ns`, with the last bucket additionally absorbing
/// everything from 2^57 ns up. (`index()` saturates `log2` at the low end,
/// so ns = 1 and ns = 1023 both land in bucket 0 while ns = 1024 starts
/// bucket 1; the boundary tests pin this so doc and code cannot drift.)
/// One power-of-two per bucket resolves p50/p95/p99 to within 2×, which is
/// the right fidelity for a model-driven runtime — and the fixed layout is
/// what lets determinism tests compare bucket counts across thread counts.
///
/// # Example
///
/// ```
/// use defa_serve::histogram::LatencyHistogram;
///
/// let mut h = LatencyHistogram::new();
/// for ns in [1_000u64, 2_000, 4_000, 1_000_000] {
///     h.record(ns);
/// }
/// assert_eq!(h.count(), 4);
/// assert!(h.p50_ns() <= h.p99_ns());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; N_BUCKETS],
    count: u64,
    sum_ns: u128,
    min_ns: u64,
    max_ns: u64,
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: [0; N_BUCKETS],
            count: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }

    /// Bucket index for a latency.
    fn index(ns: u64) -> usize {
        let bits = 64 - ns.max(1).leading_zeros(); // ceil(log2(ns+…)): 2^(bits-1) <= ns < 2^bits
        (bits.saturating_sub(LOG2_LO) as usize).min(N_BUCKETS - 1)
    }

    /// Records one latency observation.
    pub fn record(&mut self, ns: u64) {
        self.buckets[Self::index(ns)] += 1;
        self.count += 1;
        self.sum_ns += ns as u128;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            (self.sum_ns / self.count as u128) as u64
        }
    }

    /// Largest recorded latency (0 when empty).
    pub fn max_ns(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max_ns
        }
    }

    /// Smallest recorded latency (0 when empty).
    pub fn min_ns(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min_ns
        }
    }

    /// The latency below which a fraction `q` of observations falls,
    /// resolved to the upper bound of the containing bucket (clamped to
    /// the recorded max). Returns 0 for an empty histogram.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target observation, 1-based: ceil(q * count).
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let bound = 1u64 << (i as u32 + LOG2_LO);
                return bound.min(self.max_ns);
            }
        }
        self.max_ns
    }

    /// Median latency (bucket upper bound).
    pub fn p50_ns(&self) -> u64 {
        self.quantile_ns(0.50)
    }

    /// 95th-percentile latency (bucket upper bound).
    pub fn p95_ns(&self) -> u64 {
        self.quantile_ns(0.95)
    }

    /// 99th-percentile latency (bucket upper bound).
    pub fn p99_ns(&self) -> u64 {
        self.quantile_ns(0.99)
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Formats nanoseconds as a human-readable duration.
pub fn fmt_ns(ns: u64) -> String {
    let ns = ns as f64;
    if ns < 1e3 {
        format!("{ns:.0} ns")
    } else if ns < 1e6 {
        format!("{:.1} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_covers_the_range() {
        assert_eq!(LatencyHistogram::index(0), 0);
        assert_eq!(LatencyHistogram::index(1), 0);
        assert_eq!(LatencyHistogram::index(1 << LOG2_LO), 1);
        assert_eq!(LatencyHistogram::index(u64::MAX), N_BUCKETS - 1);
        // Buckets are monotone in latency.
        let mut prev = 0;
        for shift in 0..63 {
            let i = LatencyHistogram::index(1u64 << shift);
            assert!(i >= prev);
            prev = i;
        }
    }

    #[test]
    fn bucket_zero_boundary_matches_the_documented_layout() {
        // Bucket 0 is [0, 2^10): ns = 1 and ns = 1023 are inside, ns = 1024
        // opens bucket 1 ([2^10, 2^11)), which also holds ns = 1025.
        assert_eq!(LatencyHistogram::index(1), 0);
        assert_eq!(LatencyHistogram::index(1023), 0);
        assert_eq!(LatencyHistogram::index(1024), 1);
        assert_eq!(LatencyHistogram::index(1025), 1);
        // General layout: bucket i >= 1 covers [2^(i+9), 2^(i+10)).
        for i in 1..(N_BUCKETS - 1) as u32 {
            assert_eq!(LatencyHistogram::index(1u64 << (i + 9)), i as usize);
            assert_eq!(LatencyHistogram::index((1u64 << (i + 10)) - 1), i as usize);
        }
    }

    #[test]
    fn quantiles_are_ordered_and_bounded() {
        let mut h = LatencyHistogram::new();
        for i in 1..=1000u64 {
            h.record(i * 10_000); // 10 µs .. 10 ms
        }
        assert_eq!(h.count(), 1000);
        let (p50, p95, p99) = (h.p50_ns(), h.p95_ns(), h.p99_ns());
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        assert!(p99 <= h.max_ns());
        // p50 of uniform 10µs..10ms sits within a bucket of 5ms.
        assert!((2_500_000..=10_000_000).contains(&p50), "p50={p50}");
        assert_eq!(h.mean_ns(), 5_005_000);
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p99_ns(), 0);
        assert_eq!(h.mean_ns(), 0);
        assert_eq!(h.max_ns(), 0);
        assert_eq!(h.min_ns(), 0);
    }

    #[test]
    fn single_observation_quantiles_hit_it() {
        let mut h = LatencyHistogram::new();
        h.record(123_456);
        assert_eq!(h.p50_ns(), 123_456); // clamped to max
        assert_eq!(h.p99_ns(), 123_456);
        assert_eq!(h.min_ns(), 123_456);
    }

    #[test]
    fn formatting_scales() {
        assert!(fmt_ns(500).ends_with("ns"));
        assert!(fmt_ns(5_000).ends_with("µs"));
        assert!(fmt_ns(5_000_000).ends_with("ms"));
        assert!(fmt_ns(5_000_000_000).ends_with('s'));
    }
}
