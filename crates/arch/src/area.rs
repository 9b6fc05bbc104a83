//! Area model (40 nm).
//!
//! Parametric: the design's SRAM inventory (in bits) and PE-array size are
//! priced with per-unit area constants. Constants are 40 nm estimates
//! calibrated so the paper-scale design lands near Table 1's 2.63 mm² with
//! Figure 8's breakdown (SRAM ≈72 %, PE + softmax ≈23 %, others ≈5 %).

use crate::pe::PeArray;

/// On-chip SRAM inventory of one DEFA instance, in bits.
///
/// The builder lives in `defa-core` (it knows the model configuration and
/// bounded ranges); this struct only aggregates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SramInventory {
    /// Double-buffered per-head bounded-range row buffers for MSGS.
    pub msgs_buffer_bits: u64,
    /// Weight tile double buffer for MM mode.
    pub weight_buffer_bits: u64,
    /// Query/probability/output activation staging.
    pub activation_buffer_bits: u64,
    /// Fmap and point mask storage.
    pub mask_bits: u64,
    /// FWP sampled-frequency counters.
    pub counter_bits: u64,
}

impl SramInventory {
    /// Total on-chip SRAM in bits.
    pub fn total_bits(&self) -> u64 {
        self.msgs_buffer_bits
            + self.weight_buffer_bits
            + self.activation_buffer_bits
            + self.mask_bits
            + self.counter_bits
    }
}

/// Per-unit area constants in µm².
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaModel {
    /// µm² per SRAM bit, including peripheral overhead.
    pub um2_per_sram_bit: f64,
    /// µm² per INT12 MAC (multiplier + accumulator + pipeline registers).
    pub um2_per_mac: f64,
    /// µm² for the softmax unit.
    pub um2_softmax: f64,
    /// Fraction of core area taken by "others" (control, NoC, mask
    /// generators, compression units) — Figure 8 shows ≈5 %.
    pub other_fraction: f64,
}

impl AreaModel {
    /// Calibrated 40 nm constants.
    pub fn forty_nm() -> Self {
        AreaModel {
            um2_per_sram_bit: 0.55,
            um2_per_mac: 1800.0,
            um2_softmax: 120_000.0,
            other_fraction: 0.05,
        }
    }

    /// Prices a design.
    pub fn price(&self, sram: &SramInventory, pe: &PeArray) -> AreaBreakdown {
        let sram_mm2 = sram.total_bits() as f64 * self.um2_per_sram_bit / 1e6;
        let pe_softmax_mm2 =
            (pe.macs_per_cycle() as f64 * self.um2_per_mac + self.um2_softmax) / 1e6;
        let known = sram_mm2 + pe_softmax_mm2;
        let other_mm2 = known * self.other_fraction / (1.0 - self.other_fraction);
        AreaBreakdown { sram_mm2, pe_softmax_mm2, other_mm2 }
    }
}

impl Default for AreaModel {
    fn default() -> Self {
        Self::forty_nm()
    }
}

/// Core area split by component, in mm².
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AreaBreakdown {
    /// On-chip SRAM macros.
    pub sram_mm2: f64,
    /// PE array plus softmax unit.
    pub pe_softmax_mm2: f64,
    /// Everything else (control, mask generators, compression).
    pub other_mm2: f64,
}

impl AreaBreakdown {
    /// Total core area.
    pub fn total_mm2(&self) -> f64 {
        self.sram_mm2 + self.pe_softmax_mm2 + self.other_mm2
    }

    /// Fractional shares `(sram, pe_softmax, other)`.
    pub fn shares(&self) -> (f64, f64, f64) {
        let t = self.total_mm2();
        if t == 0.0 {
            return (0.0, 0.0, 0.0);
        }
        (self.sram_mm2 / t, self.pe_softmax_mm2 / t, self.other_mm2 / t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_scale_inventory() -> SramInventory {
        // Paper-scale design (see defa-core::runner for the builder):
        // ~2.8 Mb MSGS buffers + auxiliary buffers ≈ 3.4 Mb total.
        SramInventory {
            msgs_buffer_bits: 2_760_000,
            weight_buffer_bits: 100_000,
            activation_buffer_bits: 260_000,
            mask_bits: 80_000,
            counter_bits: 160_000,
        }
    }

    #[test]
    fn paper_scale_design_lands_near_reported_area() {
        let a = AreaModel::forty_nm().price(&paper_scale_inventory(), &PeArray::new());
        let total = a.total_mm2();
        // Table 1: 2.63 mm². Accept the right neighborhood.
        assert!(total > 1.8 && total < 3.5, "total {total} mm2");
    }

    #[test]
    fn sram_dominates_like_figure8() {
        let a = AreaModel::forty_nm().price(&paper_scale_inventory(), &PeArray::new());
        let (sram, pe, other) = a.shares();
        assert!(sram > 0.6, "sram share {sram}");
        assert!(pe > 0.1 && pe < 0.4, "pe share {pe}");
        assert!(other < 0.1, "other share {other}");
        assert!((sram + pe + other - 1.0).abs() < 1e-9);
    }

    #[test]
    fn inventory_totals() {
        let inv = SramInventory {
            msgs_buffer_bits: 8192,
            weight_buffer_bits: 0,
            activation_buffer_bits: 0,
            mask_bits: 0,
            counter_bits: 0,
        };
        assert_eq!(inv.total_bits(), 8192);
    }

    #[test]
    fn empty_breakdown_is_zero() {
        assert_eq!(AreaBreakdown::default().total_mm2(), 0.0);
        assert_eq!(AreaBreakdown::default().shares(), (0.0, 0.0, 0.0));
    }
}
