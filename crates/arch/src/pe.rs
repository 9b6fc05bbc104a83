//! The reconfigurable PE array (§4.3, Figure 3).
//!
//! 16 lanes × 16 columns of INT12 multipliers that switch between:
//!
//! * **MM mode** — a 16-element query vector against a 16×16 weight tile
//!   per cycle, output-stationary: 256 MACs/cycle.
//! * **BA mode** — four BI operators (Eq. 4: 3 multipliers + 7 adders
//!   each) plus four AG (aggregation) multipliers; each cycle processes one
//!   channel of four sampling points, fed by the 16 SRAM banks delivering
//!   the 16 neighbor elements of that channel.

use crate::EventCounters;

/// The reconfigurable PE array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeArray {
    lanes: usize,
    columns: usize,
}

impl PeArray {
    /// The paper's 16×16 array.
    pub fn new() -> Self {
        PeArray { lanes: 16, columns: 16 }
    }

    /// MACs the array retires per cycle in MM mode.
    pub fn macs_per_cycle(&self) -> u64 {
        (self.lanes * self.columns) as u64
    }

    /// Sampling points processed in parallel per cycle in BA mode (one
    /// channel each); fixed at 4 by the bank organization.
    pub fn points_per_cycle(&self) -> u64 {
        crate::POINTS_PER_GROUP as u64
    }

    /// Peak throughput in ops/s at `hz` (2 ops per MAC).
    pub fn peak_ops_per_sec(&self, hz: u64) -> u64 {
        2 * self.macs_per_cycle() * hz
    }

    /// Executes a dense matrix multiply of `macs` multiply–accumulates in
    /// MM mode, updating counters; returns the cycles consumed.
    pub fn run_matmul(&self, macs: u64, counters: &mut EventCounters) -> u64 {
        let cycles = macs.div_ceil(self.macs_per_cycle());
        counters.mm_macs += macs;
        counters.mm_cycles += cycles;
        cycles
    }

    /// Executes BA-mode processing of one group of up to 4 sampling points
    /// across `head_dim` channels, where the SRAM serviced the group's
    /// reads in `sram_cycles_per_beat` cycles (1 if conflict-free).
    ///
    /// The pipeline is fetch-limited (§4.2): each beat drains
    /// [`crate::BA_CHANNELS_PER_BEAT`] channels of all four points from the
    /// 16 banks, and a bank conflict stretches *every* beat of the group
    /// (the colliding footprints re-collide on each channel word).
    pub fn run_ba_group(
        &self,
        points: usize,
        head_dim: usize,
        sram_cycles_per_beat: u64,
        counters: &mut EventCounters,
    ) -> u64 {
        let beats = (head_dim as u64).div_ceil(crate::BA_CHANNELS_PER_BEAT);
        let cycles = beats * sram_cycles_per_beat.max(1);
        counters.ba_channel_ops += (points * head_dim) as u64;
        counters.msgs_cycles += cycles;
        cycles
    }
}

impl Default for PeArray {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_array_is_256_macs_per_cycle() {
        let pe = PeArray::new();
        assert_eq!(pe.macs_per_cycle(), 256);
        // 256 MACs * 2 ops * 400 MHz = 204.8 GOPS dense-MM peak.
        assert_eq!(pe.peak_ops_per_sec(crate::CLOCK_HZ), 204_800_000_000);
    }

    #[test]
    fn matmul_cycles_round_up() {
        let pe = PeArray::new();
        let mut c = EventCounters::new();
        assert_eq!(pe.run_matmul(256, &mut c), 1);
        assert_eq!(pe.run_matmul(257, &mut c), 2);
        assert_eq!(c.mm_macs, 513);
        assert_eq!(c.mm_cycles, 3);
    }

    #[test]
    fn ba_group_is_fetch_limited() {
        let pe = PeArray::new();
        let mut c = EventCounters::new();
        // Conflict-free: head_dim / 16 beats per 4-point group.
        assert_eq!(pe.run_ba_group(4, 32, 1, &mut c), 2);
        // A 3-way conflict triples the service time of every beat.
        assert_eq!(pe.run_ba_group(4, 32, 3, &mut c), 6);
        assert_eq!(c.ba_channel_ops, 2 * 4 * 32);
        assert_eq!(c.msgs_cycles, 8);
        // head_dim below the beat width still costs one beat.
        assert_eq!(pe.run_ba_group(2, 6, 1, &mut c), 1);
    }
}
