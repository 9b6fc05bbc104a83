//! The FWP and PAP mask-generator units (Figure 3).
//!
//! Functionally the masks are produced by `defa-prune`; these units model
//! the *cost* of producing them on chip. Both generators piggyback on data
//! that is already flowing (sampling addresses in the BI pipeline,
//! probabilities out of the softmax unit), so their marginal cost is a
//! counter update or a compare per item plus small SRAM state — the paper
//! notes the pruning machinery takes "less than 0.1 % of the overall SRAM
//! access" (§5.4).

use crate::EventCounters;

/// Width of one sampled-frequency counter in bits.
pub const FREQ_COUNTER_BITS: u64 = 8;

/// Cost model of the fmap (FWP) mask generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FmapMaskGenerator;

impl FmapMaskGenerator {
    /// Creates the unit.
    pub fn new() -> Self {
        FmapMaskGenerator
    }

    /// Accounts one block's frequency counting: every sampled neighbor
    /// address increments an on-chip counter (read-modify-write of a
    /// `FREQ_COUNTER_BITS` cell), and the final thresholding scans all
    /// `n_pixels` counters once.
    ///
    /// Cycles are fully hidden behind the MSGS pipeline (the addresses are
    /// already being computed), so only SRAM traffic is charged.
    pub fn run(&self, neighbor_accesses: u64, n_pixels: u64, counters: &mut EventCounters) {
        counters.sram_read_bits += (neighbor_accesses + n_pixels) * FREQ_COUNTER_BITS;
        counters.sram_write_bits += neighbor_accesses * FREQ_COUNTER_BITS + n_pixels;
    }

    /// On-chip storage the counters require, in bits.
    pub fn storage_bits(&self, n_pixels: u64) -> u64 {
        n_pixels * FREQ_COUNTER_BITS + n_pixels
    }
}

/// Cost model of the sampling-point (PAP) mask generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PointMaskGenerator;

impl PointMaskGenerator {
    /// Creates the unit.
    pub fn new() -> Self {
        PointMaskGenerator
    }

    /// Accounts thresholding `n_probs` probabilities into a bit mask.
    /// One compare per probability as it leaves the softmax pipeline; the
    /// mask bits are written to SRAM.
    pub fn run(&self, n_probs: u64, counters: &mut EventCounters) {
        counters.sram_write_bits += n_probs; // one mask bit each
    }

    /// On-chip storage for one block's point mask, in bits.
    pub fn storage_bits(&self, n_points: u64) -> u64 {
        n_points
    }
}

/// Sanity helper: the pruning machinery's share of a run's SRAM traffic.
pub fn pruning_sram_share(pruning_bits: u64, total_bits: u64) -> f64 {
    if total_bits == 0 {
        0.0
    } else {
        pruning_bits as f64 / total_bits as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fwp_generator_charges_counter_traffic() {
        let g = FmapMaskGenerator::new();
        let mut c = EventCounters::new();
        g.run(1000, 100, &mut c);
        assert_eq!(c.sram_read_bits, (1000 + 100) * FREQ_COUNTER_BITS);
        assert_eq!(c.sram_write_bits, 1000 * FREQ_COUNTER_BITS + 100);
    }

    #[test]
    fn pap_generator_writes_one_bit_per_point() {
        let g = PointMaskGenerator::new();
        let mut c = EventCounters::new();
        g.run(512, &mut c);
        assert_eq!(c.sram_write_bits, 512);
    }

    #[test]
    fn storage_scales_linearly() {
        assert_eq!(FmapMaskGenerator::new().storage_bits(100), 900);
        assert_eq!(PointMaskGenerator::new().storage_bits(100), 100);
    }

    #[test]
    fn share_helper_handles_zero_total() {
        assert_eq!(pruning_sram_share(10, 0), 0.0);
        assert!((pruning_sram_share(1, 1000) - 0.001).abs() < 1e-12);
    }
}
