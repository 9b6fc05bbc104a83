//! Energy model (40 nm, INT12).
//!
//! Event counts are priced with per-event energies. The constants are the
//! calibrated part of the model: DRAM energy is the paper's cited
//! 1.2 pJ/bit \[17\]; SRAM and MAC energies are CACTI-6.0-style estimates
//! for 40 nm, chosen so a full De-DETR run lands in the neighborhood of the
//! paper's reported efficiency (Table 1: 99.8 mW at 418 GOPS → ≈4187
//! GOPS/W) and its energy breakdown (Figure 8: DRAM ≈93 %, SRAM ≈5 %,
//! logic ≈2 %). All *relative* results (savings percentages, breakdowns)
//! come from counted events, not from these constants alone.

use crate::EventCounters;

/// Per-event energy constants in picojoules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Energy per INT12 MAC in MM mode.
    pub pj_per_mac: f64,
    /// Energy per BA channel operation (3 BI multiplies + adders + 1 AG
    /// MAC).
    pub pj_per_ba_op: f64,
    /// Energy per softmax element (LUT exponential + normalization).
    pub pj_per_softmax_elem: f64,
    /// Energy per SRAM bit accessed (read or write).
    pub pj_per_sram_bit: f64,
    /// Energy per DRAM bit transferred (paper: 1.2 pJ/b).
    pub pj_per_dram_bit: f64,
}

impl EnergyModel {
    /// The calibrated 40 nm constants.
    pub fn forty_nm() -> Self {
        EnergyModel {
            pj_per_mac: 0.18,
            pj_per_ba_op: 0.55,
            pj_per_softmax_elem: 1.2,
            pj_per_sram_bit: 0.06,
            pj_per_dram_bit: 1.2,
        }
    }

    /// Prices a set of counters.
    pub fn price(&self, c: &EventCounters) -> EnergyBreakdown {
        EnergyBreakdown {
            pe_pj: c.mm_macs as f64 * self.pj_per_mac + c.ba_channel_ops as f64 * self.pj_per_ba_op,
            softmax_pj: c.softmax_elems as f64 * self.pj_per_softmax_elem,
            sram_pj: c.sram_bits() as f64 * self.pj_per_sram_bit,
            dram_pj: c.dram_bits() as f64 * self.pj_per_dram_bit,
        }
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self::forty_nm()
    }
}

/// Energy of one priced region, split by component.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// PE array (MM + BA modes).
    pub pe_pj: f64,
    /// Softmax unit.
    pub softmax_pj: f64,
    /// On-chip SRAM.
    pub sram_pj: f64,
    /// External DRAM.
    pub dram_pj: f64,
}

impl EnergyBreakdown {
    /// Total energy in picojoules.
    pub fn total_pj(&self) -> f64 {
        self.pe_pj + self.softmax_pj + self.sram_pj + self.dram_pj
    }

    /// Total energy in joules.
    pub fn total_joules(&self) -> f64 {
        self.total_pj() * 1e-12
    }

    /// On-chip "logic" share (PE + softmax), as Figure 8 groups it.
    pub fn logic_pj(&self) -> f64 {
        self.pe_pj + self.softmax_pj
    }

    /// Fractional shares `(dram, sram, logic)` of the total.
    pub fn shares(&self) -> (f64, f64, f64) {
        let t = self.total_pj();
        if t == 0.0 {
            return (0.0, 0.0, 0.0);
        }
        (self.dram_pj / t, self.sram_pj / t, self.logic_pj() / t)
    }

    /// Component energies quantized to integer picojoules, grouped as
    /// `(compute, sram, dram)` where compute = PE + softmax.
    ///
    /// Serving-side accounting (`defa-serve`) sums per-request energies in
    /// fixed-point so totals are byte-identical regardless of summation
    /// order; this is the single quantization point, applied once per
    /// priced region (negative components clamp to zero).
    pub fn quantize_pj(&self) -> (u128, u128, u128) {
        let q = |pj: f64| if pj > 0.0 { pj.round() as u128 } else { 0 };
        (q(self.logic_pj()), q(self.sram_pj), q(self.dram_pj))
    }
}

impl std::ops::Add for EnergyBreakdown {
    type Output = EnergyBreakdown;
    fn add(self, rhs: EnergyBreakdown) -> EnergyBreakdown {
        EnergyBreakdown {
            pe_pj: self.pe_pj + rhs.pe_pj,
            softmax_pj: self.softmax_pj + rhs.softmax_pj,
            sram_pj: self.sram_pj + rhs.sram_pj,
            dram_pj: self.dram_pj + rhs.dram_pj,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pricing_multiplies_counts_by_constants() {
        let m = EnergyModel::forty_nm();
        let c = EventCounters {
            mm_macs: 100,
            ba_channel_ops: 10,
            softmax_elems: 5,
            sram_read_bits: 1000,
            sram_write_bits: 500,
            dram_read_bits: 2000,
            dram_write_bits: 0,
            ..Default::default()
        };
        let e = m.price(&c);
        assert!((e.pe_pj - (100.0 * 0.18 + 10.0 * 0.55)).abs() < 1e-9);
        assert!((e.softmax_pj - 6.0).abs() < 1e-9);
        assert!((e.sram_pj - 90.0).abs() < 1e-9);
        assert!((e.dram_pj - 2400.0).abs() < 1e-9);
    }

    #[test]
    fn shares_sum_to_one() {
        let e = EnergyBreakdown { pe_pj: 1.0, softmax_pj: 1.0, sram_pj: 3.0, dram_pj: 5.0 };
        let (d, s, l) = e.shares();
        assert!((d + s + l - 1.0).abs() < 1e-9);
        assert!((d - 0.5).abs() < 1e-9);
    }

    #[test]
    fn dram_dominates_for_traffic_heavy_runs() {
        // Figure 8: DRAM ~93% of energy. A run with paper-like ratios of
        // traffic to compute must land DRAM-dominated.
        let m = EnergyModel::forty_nm();
        let c = EventCounters {
            mm_macs: 1_000_000,         // 0.18 mJ-scale compute
            dram_read_bits: 10_000_000, // 12 mJ-scale DRAM
            sram_read_bits: 8_000_000,
            ..Default::default()
        };
        let (d, _, _) = m.price(&c).shares();
        assert!(d > 0.8, "dram share {d}");
    }

    #[test]
    fn breakdowns_add() {
        let a = EnergyBreakdown { pe_pj: 1.0, softmax_pj: 0.0, sram_pj: 2.0, dram_pj: 3.0 };
        let b = a + a;
        assert_eq!(b.total_pj(), 12.0);
    }

    #[test]
    fn empty_breakdown_has_zero_shares() {
        assert_eq!(EnergyBreakdown::default().shares(), (0.0, 0.0, 0.0));
    }

    #[test]
    fn quantization_rounds_components_to_integer_pj() {
        let e = EnergyBreakdown { pe_pj: 1.4, softmax_pj: 0.2, sram_pj: 2.5, dram_pj: 1e6 + 0.4 };
        assert_eq!(e.quantize_pj(), (2, 3, 1_000_000)); // logic = 1.4 + 0.2 -> 2
        assert_eq!(EnergyBreakdown::default().quantize_pj(), (0, 0, 0));
    }
}
