//! Activity counters shared by every hardware unit.

use std::ops::AddAssign;

/// Raw activity of one simulated region (a stage, a block, a whole run).
///
/// Counters are the single source of truth for performance and energy: the
/// units increment them, [`crate::EnergyModel`] prices them, and the
/// reports in `defa-core` aggregate them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EventCounters {
    /// Multiply–accumulates executed in MM mode.
    pub mm_macs: u64,
    /// Channel operations executed in BA mode (one = BI + aggregation for
    /// one channel of one sampling point).
    pub ba_channel_ops: u64,
    /// Elements processed by the softmax unit.
    pub softmax_elems: u64,
    /// Bits read from on-chip SRAM.
    pub sram_read_bits: u64,
    /// Bits written to on-chip SRAM.
    pub sram_write_bits: u64,
    /// Bits read from DRAM.
    pub dram_read_bits: u64,
    /// Bits written to DRAM.
    pub dram_write_bits: u64,
    /// Cycles spent in MM mode.
    pub mm_cycles: u64,
    /// Cycles spent in the BA-mode MSGS + aggregation pipeline.
    pub msgs_cycles: u64,
    /// Cycles spent in the softmax / mask-generation pipeline.
    pub softmax_cycles: u64,
    /// Cycles spent waiting on DRAM (not overlapped with compute).
    pub dram_stall_cycles: u64,
    /// Bank conflicts detected in the BA pipeline.
    pub bank_conflicts: u64,
    /// Extra cycles spent detecting conflicts and draining the pipeline.
    pub conflict_stall_cycles: u64,
}

impl EventCounters {
    /// Fresh, zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total busy cycles of the accelerator (compute phases plus
    /// non-overlapped DRAM stalls).
    pub fn total_cycles(&self) -> u64 {
        self.mm_cycles
            + self.msgs_cycles
            + self.softmax_cycles
            + self.dram_stall_cycles
            + self.conflict_stall_cycles
    }

    /// Total SRAM traffic in bits.
    pub fn sram_bits(&self) -> u64 {
        self.sram_read_bits + self.sram_write_bits
    }

    /// Total DRAM traffic in bits.
    pub fn dram_bits(&self) -> u64 {
        self.dram_read_bits + self.dram_write_bits
    }

    /// Wall-clock seconds at a given frequency.
    pub fn seconds_at(&self, hz: u64) -> f64 {
        self.total_cycles() as f64 / hz as f64
    }
}

impl AddAssign for EventCounters {
    fn add_assign(&mut self, rhs: Self) {
        self.mm_macs += rhs.mm_macs;
        self.ba_channel_ops += rhs.ba_channel_ops;
        self.softmax_elems += rhs.softmax_elems;
        self.sram_read_bits += rhs.sram_read_bits;
        self.sram_write_bits += rhs.sram_write_bits;
        self.dram_read_bits += rhs.dram_read_bits;
        self.dram_write_bits += rhs.dram_write_bits;
        self.mm_cycles += rhs.mm_cycles;
        self.msgs_cycles += rhs.msgs_cycles;
        self.softmax_cycles += rhs.softmax_cycles;
        self.dram_stall_cycles += rhs.dram_stall_cycles;
        self.bank_conflicts += rhs.bank_conflicts;
        self.conflict_stall_cycles += rhs.conflict_stall_cycles;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_compose() {
        let c = EventCounters {
            mm_macs: 10,
            ba_channel_ops: 5,
            softmax_elems: 4,
            mm_cycles: 2,
            msgs_cycles: 3,
            softmax_cycles: 1,
            dram_stall_cycles: 4,
            conflict_stall_cycles: 1,
            ..Default::default()
        };
        assert_eq!(c.total_cycles(), 11);
    }

    #[test]
    fn add_assign_merges_everything() {
        let mut a = EventCounters { mm_macs: 1, sram_read_bits: 8, ..Default::default() };
        let b = EventCounters {
            mm_macs: 2,
            sram_write_bits: 4,
            bank_conflicts: 3,
            ..Default::default()
        };
        a += b;
        assert_eq!(a.mm_macs, 3);
        assert_eq!(a.sram_bits(), 12);
        assert_eq!(a.bank_conflicts, 3);
    }

    #[test]
    fn seconds_scale_with_frequency() {
        let c = EventCounters { mm_cycles: 400, ..Default::default() };
        assert!((c.seconds_at(400) - 1.0).abs() < 1e-12);
        assert!((c.seconds_at(800) - 0.5).abs() < 1e-12);
    }
}
