//! Banked on-chip SRAM with per-cycle conflict serialization.

use crate::{ArchError, EventCounters};

/// A multi-banked, single-port-per-bank SRAM array.
///
/// The array does not store data — the functional results come from the
/// reference model — it accounts *accesses*: each bank serves one word per
/// cycle, so a group of simultaneous requests costs as many cycles as the
/// most-loaded bank receives requests (plus a detection stall when any
/// conflict occurs, §5.3.1: "extra clock cycles are spent on detecting bank
/// conflicts, stopping the pipeline").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BankedSram {
    n_banks: usize,
    word_bits: u64,
    reads: u64,
    writes: u64,
    conflicts: u64,
    conflict_stalls: u64,
    /// Per-bank request count of the group in flight; all zero between
    /// [`BankedSram::read_group`] calls, so it never affects equality.
    load: Vec<u64>,
}

impl BankedSram {
    /// Creates an array of `n_banks` banks with `word_bits`-wide ports.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidParameter`] if either parameter is zero.
    pub fn new(n_banks: usize, word_bits: u64) -> Result<Self, ArchError> {
        if n_banks == 0 || word_bits == 0 {
            return Err(ArchError::InvalidParameter(format!(
                "banks ({n_banks}) and word width ({word_bits}) must be positive"
            )));
        }
        Ok(BankedSram {
            n_banks,
            word_bits,
            reads: 0,
            writes: 0,
            conflicts: 0,
            conflict_stalls: 0,
            load: vec![0; n_banks],
        })
    }

    /// Number of banks.
    pub fn n_banks(&self) -> usize {
        self.n_banks
    }

    /// Port width in bits.
    pub fn word_bits(&self) -> u64 {
        self.word_bits
    }

    /// Issues one group of simultaneous single-word reads, given the target
    /// bank of each request. Returns the cycles the group takes.
    ///
    /// A conflict-free group (each bank addressed at most once) takes one
    /// cycle. Otherwise the group takes `max_load` cycles plus one
    /// detection-stall cycle.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::OutOfRange`] if any bank index is invalid.
    pub fn read_group(&mut self, banks: &[usize]) -> Result<u64, ArchError> {
        if let Some(&b) = banks.iter().find(|&&b| b >= self.n_banks) {
            return Err(ArchError::OutOfRange { what: "bank", index: b, len: self.n_banks });
        }
        // Count into the reused per-bank buffer; a bank conflicts the
        // moment its load reaches 2. Zero the touched banks afterwards.
        let mut max_load = 0;
        let mut conflicting = 0;
        for &b in banks {
            let l = &mut self.load[b];
            *l += 1;
            max_load = max_load.max(*l);
            conflicting += u64::from(*l == 2);
        }
        for &b in banks {
            self.load[b] = 0;
        }
        self.reads += banks.len() as u64;
        if max_load <= 1 {
            Ok(1)
        } else {
            self.conflicts += conflicting;
            self.conflict_stalls += 1;
            Ok(max_load + 1)
        }
    }

    /// Records `words` conflict-free single-word reads (streaming access).
    pub fn read_stream(&mut self, words: u64) {
        self.reads += words;
    }

    /// Records `words` conflict-free single-word writes (streaming access).
    pub fn write_stream(&mut self, words: u64) {
        self.writes += words;
    }

    /// Total read accesses so far.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Total write accesses so far.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Bank conflicts observed so far.
    pub fn conflicts(&self) -> u64 {
        self.conflicts
    }

    /// Detection/drain stall cycles charged so far.
    pub fn conflict_stalls(&self) -> u64 {
        self.conflict_stalls
    }

    /// Flushes the access counts into shared counters and resets them.
    pub fn drain_into(&mut self, counters: &mut EventCounters) {
        counters.sram_read_bits += self.reads * self.word_bits;
        counters.sram_write_bits += self.writes * self.word_bits;
        counters.bank_conflicts += self.conflicts;
        counters.conflict_stall_cycles += self.conflict_stalls;
        self.reads = 0;
        self.writes = 0;
        self.conflicts = 0;
        self.conflict_stalls = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conflict_free_group_takes_one_cycle() {
        let mut s = BankedSram::new(16, 12).unwrap();
        let cycles = s.read_group(&[0, 1, 2, 3]).unwrap();
        assert_eq!(cycles, 1);
        assert_eq!(s.conflicts(), 0);
        assert_eq!(s.reads(), 4);
    }

    #[test]
    fn conflicting_group_serializes_with_detection_stall() {
        let mut s = BankedSram::new(16, 12).unwrap();
        // Bank 5 addressed 3 times -> 3 cycles + 1 stall.
        let cycles = s.read_group(&[5, 5, 5, 1]).unwrap();
        assert_eq!(cycles, 4);
        assert_eq!(s.conflicts(), 1);
        assert_eq!(s.conflict_stalls(), 1);
    }

    #[test]
    fn two_conflicting_banks_count_separately() {
        let mut s = BankedSram::new(8, 12).unwrap();
        let cycles = s.read_group(&[0, 0, 1, 1]).unwrap();
        assert_eq!(cycles, 3); // max load 2 + stall
        assert_eq!(s.conflicts(), 2);
    }

    #[test]
    fn invalid_bank_is_rejected() {
        let mut s = BankedSram::new(4, 12).unwrap();
        assert!(s.read_group(&[4]).is_err());
    }

    #[test]
    fn drain_converts_words_to_bits_and_resets() {
        let mut s = BankedSram::new(16, 12).unwrap();
        s.read_stream(10);
        s.write_stream(3);
        let mut c = EventCounters::new();
        s.drain_into(&mut c);
        assert_eq!(c.sram_read_bits, 120);
        assert_eq!(c.sram_write_bits, 36);
        assert_eq!(s.reads(), 0);
        assert_eq!(s.writes(), 0);
    }

    #[test]
    fn zero_parameters_are_rejected() {
        assert!(BankedSram::new(0, 12).is_err());
        assert!(BankedSram::new(16, 0).is_err());
    }

    /// The per-group formula straight from the definition: a fresh
    /// per-bank load vector, max load, and banks loaded more than once.
    fn reference_group(n_banks: usize, banks: &[usize]) -> (u64, u64) {
        let mut load = vec![0u64; n_banks];
        for &b in banks {
            load[b] += 1;
        }
        let max_load = load.iter().copied().max().unwrap_or(0);
        let conflicts = load.iter().filter(|&&l| l > 1).count() as u64;
        if max_load <= 1 {
            (1, 0)
        } else {
            (max_load + 1, conflicts)
        }
    }

    /// The reused load buffer gives the same cycles, conflicts and stalls
    /// as counting each group from scratch, group after group — including
    /// after a rejected group, which must leave no residue behind.
    #[test]
    fn reused_load_buffer_matches_per_group_reference() {
        let mut s = BankedSram::new(16, 12).unwrap();
        let (mut conflicts, mut stalls, mut reads) = (0, 0, 0);
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for g in 0..2_000usize {
            let len = g % 9;
            let banks: Vec<usize> = (0..len)
                .map(|_| {
                    state = defa_tensor::rng::splitmix64(state);
                    (state % 16) as usize
                })
                .collect();
            if g % 97 == 0 {
                let mut bad = banks.clone();
                bad.push(16);
                assert!(s.read_group(&bad).is_err());
            }
            let (cycles, c) = reference_group(16, &banks);
            assert_eq!(s.read_group(&banks).unwrap(), cycles, "group {g}: {banks:?}");
            conflicts += c;
            stalls += u64::from(cycles > 1);
            reads += len as u64;
            assert_eq!((s.conflicts(), s.conflict_stalls(), s.reads()), (conflicts, stalls, reads));
        }
        assert_eq!(s, {
            let mut fresh = BankedSram::new(16, 12).unwrap();
            fresh.reads = reads;
            fresh.conflicts = conflicts;
            fresh.conflict_stalls = stalls;
            fresh
        });
    }

    #[test]
    fn empty_group_costs_one_idle_cycle() {
        let mut s = BankedSram::new(16, 12).unwrap();
        assert_eq!(s.read_group(&[]).unwrap(), 1);
    }
}
