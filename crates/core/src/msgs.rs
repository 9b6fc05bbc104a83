//! The multi-scale grid-sampling engine.
//!
//! Schedules one block's surviving sampling points onto the BA-mode
//! pipeline. The natural hardware schedule groups the points of one
//! `(query, head)` pair:
//!
//! * **inter-level** (§4.2, Fig. 5b): group `p` holds point `p` of *every*
//!   level — up to 4 points from 4 different levels, whose Neighbor-Window
//!   banks are disjoint by construction → one SRAM service cycle per
//!   channel.
//! * **intra-level** (Fig. 5a): group `l` holds the `N_p` points of level
//!   `l` — same-level footprints collide in the 4×4 interleaving, and each
//!   conflict serializes every channel cycle of the group.
//!
//! The engine also accounts the feature's memory policies: fine-grained
//! operator fusion (sampling values never round-trip through SRAM/DRAM)
//! and fmap reuse (bounded-range row buffers instead of per-query window
//! refetch).

use crate::CoreError;
use defa_arch::{BankMapping, BankedSram, Dram, EventCounters, PeArray, N_BANKS, PRECISION_BITS};
use defa_model::bilinear::Footprint;
use defa_model::{MsdaConfig, SamplePoint};
use defa_prune::RangeConfig;
use std::ops::AddAssign;

/// Queries per parallel simulation tile of [`MsgsEngine::run_block`].
///
/// Tiles are simulated concurrently with private SRAM/counter models and
/// reduced in tile order; the value trades scheduling granularity against
/// per-tile setup and does not affect results (which are bit-identical for
/// any tile size or thread count).
const QUERY_TILE: usize = 64;

/// Feature switches of the MSGS engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgsSettings {
    /// Bank mapping / parallelization scheme.
    pub mapping: BankMapping,
    /// Fine-grained operator fusion of MSGS and aggregation (§4.3).
    pub fused: bool,
    /// Fmap reuse between overlapping bounded ranges (§4.1, Fig. 4 right).
    pub fmap_reuse: bool,
}

impl MsgsSettings {
    /// The full DEFA design point.
    pub fn paper_default() -> Self {
        MsgsSettings { mapping: BankMapping::InterLevel, fused: true, fmap_reuse: true }
    }
}

impl Default for MsgsSettings {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Statistics of one MSGS run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MsgsStats {
    /// Point groups issued to the pipeline.
    pub groups: u64,
    /// Surviving sampling points processed.
    pub points: u64,
    /// Cycles spent in the BA pipeline (including conflict serialization).
    pub cycles: u64,
    /// Bank conflicts observed.
    pub conflicts: u64,
    /// Fmap pixels fetched from DRAM for sampling.
    pub fmap_fetch_bits: u64,
    /// Sampling-value round-trip bits (zero when fused).
    pub spill_bits: u64,
}

impl AddAssign for MsgsStats {
    fn add_assign(&mut self, rhs: Self) {
        self.groups += rhs.groups;
        self.points += rhs.points;
        self.cycles += rhs.cycles;
        self.conflicts += rhs.conflicts;
        self.fmap_fetch_bits += rhs.fmap_fetch_bits;
        self.spill_bits += rhs.spill_bits;
    }
}

impl MsgsStats {
    /// Throughput in points per cycle.
    pub fn points_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.points as f64 / self.cycles as f64
        }
    }
}

/// The grid-sampling engine bound to one configuration.
#[derive(Debug, Clone)]
pub struct MsgsEngine {
    cfg: MsdaConfig,
    ranges: RangeConfig,
    settings: MsgsSettings,
}

impl MsgsEngine {
    /// Creates an engine for a model configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Model`] if the configuration is invalid.
    pub fn new(cfg: &MsdaConfig, settings: MsgsSettings) -> Result<Self, CoreError> {
        cfg.validate()?;
        Ok(MsgsEngine { ranges: RangeConfig::paper_defaults(cfg), cfg: cfg.clone(), settings })
    }

    /// The engine's settings.
    pub fn settings(&self) -> MsgsSettings {
        self.settings
    }

    /// Simulates one block's MSGS + aggregation.
    ///
    /// `locations` holds all `n_in · points_per_query` sampling points in
    /// layer order; `keep` the PAP survival of each. Counters receive the
    /// cycle and traffic activity; the returned stats summarize the run.
    ///
    /// The sampling-point pipeline is simulated in parallel over
    /// contiguous *query tiles*: each tile accumulates its own
    /// [`MsgsStats`] and [`EventCounters`] against a private
    /// [`BankedSram`] model, and the partial results are reduced in tile
    /// order. Every per-group quantity (service cycles, conflicts,
    /// traffic) depends only on that group's own sampling points, so the
    /// reduction is exact: stats and counters are **bit-identical** to the
    /// sequential simulation for any thread count.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Inconsistent`] on length mismatches and
    /// [`CoreError::Arch`] if a bank index cannot be computed (more levels
    /// than bank groups in inter-level mode).
    pub fn run_block(
        &self,
        locations: &[SamplePoint],
        keep: &[bool],
        pixel_keep_fraction: f64,
        counters: &mut EventCounters,
    ) -> Result<MsgsStats, CoreError> {
        let cfg = &self.cfg;
        let ppq = cfg.points_per_query();
        if locations.is_empty()
            || !locations.len().is_multiple_of(ppq)
            || keep.len() != locations.len()
        {
            return Err(CoreError::Inconsistent(format!(
                "locations ({}) must be a non-empty multiple of {ppq} and match keep bits ({})",
                locations.len(),
                keep.len()
            )));
        }
        // Queries = N_in for encoder self-attention; the object-query
        // count for decoder cross-attention.
        let n = locations.len() / ppq;

        let word_bits = defa_arch::BA_CHANNELS_PER_BEAT * PRECISION_BITS;
        let dh = cfg.head_dim();

        // --- Sampling-point pipeline (query-tile parallel) ----------------
        let n_tiles = n.div_ceil(QUERY_TILE);
        let tiles = defa_parallel::par_map_collect(n_tiles, |t| {
            let q0 = t * QUERY_TILE;
            let q1 = ((t + 1) * QUERY_TILE).min(n);
            self.run_query_tile(locations, keep, q0, q1)
        });
        let mut stats = MsgsStats::default();
        let mut sram = BankedSram::new(N_BANKS, word_bits)?;
        let mut dram = Dram::hbm2();
        for tile in tiles {
            let (tile_stats, tile_counters) = tile?;
            stats += tile_stats;
            *counters += tile_counters;
        }

        // --- Fmap fetch traffic (DRAM -> SRAM row buffers) ---------------
        let fetch_bits = self.fmap_fetch_bits(n, keep, pixel_keep_fraction);
        dram.read(fetch_bits);
        sram.write_stream(fetch_bits / word_bits);
        stats.fmap_fetch_bits = fetch_bits;

        // --- Operator fusion --------------------------------------------
        if !self.settings.fused {
            // Sampling values round-trip: SRAM write + DRAM write, then
            // DRAM read + SRAM read before aggregation.
            let bits = stats.points * dh as u64 * PRECISION_BITS;
            sram.write_stream(bits / word_bits);
            sram.read_stream(bits / word_bits);
            dram.write(bits);
            dram.read(bits);
            stats.spill_bits = 2 * bits;
        }

        // --- Aggregated output ------------------------------------------
        let out_bits = (n * cfg.d_model) as u64 * PRECISION_BITS;
        sram.write_stream(out_bits / word_bits);
        dram.write(out_bits);

        sram.drain_into(counters);
        dram.drain_into(counters);
        Ok(stats)
    }

    /// Simulates the BA-pipeline groups of queries `q0..q1` against a
    /// tile-private SRAM model, returning the tile's stats and counter
    /// deltas (SRAM activity already drained into the counters).
    fn run_query_tile(
        &self,
        locations: &[SamplePoint],
        keep: &[bool],
        q0: usize,
        q1: usize,
    ) -> Result<(MsgsStats, EventCounters), CoreError> {
        let cfg = &self.cfg;
        let ppq = cfg.points_per_query();
        let pe = PeArray::new();
        let word_bits = defa_arch::BA_CHANNELS_PER_BEAT * PRECISION_BITS;
        let mut sram = BankedSram::new(N_BANKS, word_bits)?;
        let mut counters = EventCounters::new();
        let mut stats = MsgsStats::default();
        let dh = cfg.head_dim();
        let n_levels = cfg.n_levels();
        let n_points = cfg.n_points;

        // Group points per (query, head): inter-level groups take one point
        // per level; intra-level groups take the N_p points of one level.
        let mut group_banks: Vec<usize> = Vec::with_capacity(4 * N_BANKS);
        for q in q0..q1 {
            for h in 0..cfg.n_heads {
                let base = q * ppq + h * n_levels * n_points;
                let group_count = match self.settings.mapping {
                    BankMapping::InterLevel => n_points,
                    BankMapping::IntraLevel => n_levels,
                };
                for g in 0..group_count {
                    group_banks.clear();
                    let mut pts_in_group = 0usize;
                    let members = match self.settings.mapping {
                        BankMapping::InterLevel => n_levels,
                        BankMapping::IntraLevel => n_points,
                    };
                    for m in 0..members {
                        let slot = match self.settings.mapping {
                            BankMapping::InterLevel => base + m * n_points + g,
                            BankMapping::IntraLevel => base + g * n_points + m,
                        };
                        if !keep[slot] {
                            continue;
                        }
                        let pt = locations[slot];
                        let fp = Footprint::at(pt.x, pt.y);
                        let (y0, x0) = (fp.neighbors[0].y, fp.neighbors[0].x);
                        let banks =
                            self.settings.mapping.footprint_banks(pt.level as usize, y0, x0)?;
                        group_banks.extend_from_slice(&banks);
                        pts_in_group += 1;
                    }
                    if pts_in_group == 0 {
                        continue;
                    }
                    let service = sram.read_group(&group_banks)?;
                    let cycles = pe.run_ba_group(pts_in_group, dh, service, &mut counters);
                    stats.cycles += cycles;
                    stats.groups += 1;
                    stats.points += pts_in_group as u64;
                    // The group's reads repeat every beat; the first beat
                    // was charged by read_group.
                    let beats = (dh as u64).div_ceil(defa_arch::BA_CHANNELS_PER_BEAT);
                    sram.read_stream((beats - 1) * group_banks.len() as u64);
                }
            }
        }
        stats.conflicts = sram.conflicts();
        sram.drain_into(&mut counters);
        Ok((stats, counters))
    }

    /// DRAM bits fetched to feed MSGS with fmap pixels.
    ///
    /// * With fmap reuse, each level keeps a row buffer of its bounded rows
    ///   and sweeps it across the level once per head: every surviving
    ///   pixel channel is fetched once → `kept_pixels · D` channels.
    /// * Without reuse, every query whose level has surviving points
    ///   fetches the fresh bounded-range columns (`window_h` pixels, `D_h`
    ///   channels, per head) because nothing is retained between
    ///   consecutive reference points.
    fn fmap_fetch_bits(&self, n_queries: usize, keep: &[bool], pixel_keep_fraction: f64) -> u64 {
        let cfg = &self.cfg;
        let d = cfg.d_model as u64;
        if self.settings.fmap_reuse {
            // Pixels fetched belong to the *memory*, not the query set.
            let kept_pixels = (cfg.n_in() as f64 * pixel_keep_fraction).round() as u64;
            return kept_pixels * d * PRECISION_BITS;
        }
        let dh = cfg.head_dim() as u64;
        let ppq = cfg.points_per_query();
        let n_points = cfg.n_points;
        let n_levels = cfg.n_levels();
        let mut fetches = 0u64;
        for q in 0..n_queries {
            for h in 0..cfg.n_heads {
                for (l, range) in self.ranges.ranges().iter().enumerate().take(n_levels) {
                    let base = q * ppq + (h * n_levels + l) * n_points;
                    let any = (0..n_points).any(|p| keep[base + p]);
                    if any {
                        let window_h = 2 * range.half_h as u64 + 2;
                        fetches += window_h * dh;
                    }
                }
            }
        }
        fetches * PRECISION_BITS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use defa_model::workload::{Benchmark, SyntheticWorkload};

    fn block_inputs(cfg: &MsdaConfig, seed: u64) -> (Vec<SamplePoint>, Vec<bool>) {
        let wl = SyntheticWorkload::generate(Benchmark::DeformableDetr, cfg, seed).unwrap();
        let out = wl.layer(0).unwrap().forward(wl.initial_fmap(), Some(wl.warp())).unwrap();
        let keep = vec![true; out.locations.len()];
        (out.locations, keep)
    }

    #[test]
    fn inter_level_is_conflict_free() {
        let cfg = MsdaConfig::small(); // 4 levels
        let (locs, keep) = block_inputs(&cfg, 1);
        let engine = MsgsEngine::new(&cfg, MsgsSettings::paper_default()).unwrap();
        let mut c = EventCounters::new();
        let stats = engine.run_block(&locs, &keep, 1.0, &mut c).unwrap();
        assert_eq!(stats.conflicts, 0);
        assert_eq!(c.bank_conflicts, 0);
        assert!(stats.points > 0);
    }

    #[test]
    fn intra_level_suffers_conflicts_and_runs_slower() {
        let cfg = MsdaConfig::small();
        let (locs, keep) = block_inputs(&cfg, 2);
        let inter = MsgsEngine::new(&cfg, MsgsSettings::paper_default()).unwrap();
        let intra = MsgsEngine::new(
            &cfg,
            MsgsSettings { mapping: BankMapping::IntraLevel, ..MsgsSettings::paper_default() },
        )
        .unwrap();
        let mut ci = EventCounters::new();
        let si = inter.run_block(&locs, &keep, 1.0, &mut ci).unwrap();
        let mut ca = EventCounters::new();
        let sa = intra.run_block(&locs, &keep, 1.0, &mut ca).unwrap();
        assert!(sa.conflicts > 0, "intra-level should conflict");
        let boost = sa.cycles as f64 / si.cycles as f64;
        assert!(boost > 1.5, "throughput boost {boost} too small");
    }

    #[test]
    fn fusion_eliminates_spill_traffic() {
        let cfg = MsdaConfig::tiny();
        let (locs, keep) = block_inputs(&cfg, 3);
        let fused = MsgsEngine::new(&cfg, MsgsSettings::paper_default()).unwrap();
        let unfused =
            MsgsEngine::new(&cfg, MsgsSettings { fused: false, ..MsgsSettings::paper_default() })
                .unwrap();
        let mut cf = EventCounters::new();
        let sf = fused.run_block(&locs, &keep, 1.0, &mut cf).unwrap();
        let mut cu = EventCounters::new();
        let su = unfused.run_block(&locs, &keep, 1.0, &mut cu).unwrap();
        assert_eq!(sf.spill_bits, 0);
        assert!(su.spill_bits > 0);
        assert!(cu.dram_bits() > cf.dram_bits());
        assert!(cu.sram_bits() > cf.sram_bits());
    }

    #[test]
    fn reuse_cuts_fmap_fetch_traffic() {
        let cfg = MsdaConfig::tiny();
        let (locs, keep) = block_inputs(&cfg, 4);
        let reuse = MsgsEngine::new(&cfg, MsgsSettings::paper_default()).unwrap();
        let no_reuse = MsgsEngine::new(
            &cfg,
            MsgsSettings { fmap_reuse: false, ..MsgsSettings::paper_default() },
        )
        .unwrap();
        let mut cr = EventCounters::new();
        let sr = reuse.run_block(&locs, &keep, 1.0, &mut cr).unwrap();
        let mut cn = EventCounters::new();
        let sn = no_reuse.run_block(&locs, &keep, 1.0, &mut cn).unwrap();
        assert!(
            sn.fmap_fetch_bits > 2 * sr.fmap_fetch_bits,
            "no-reuse {} vs reuse {}",
            sn.fmap_fetch_bits,
            sr.fmap_fetch_bits
        );
    }

    #[test]
    fn pruned_points_are_skipped() {
        let cfg = MsdaConfig::tiny();
        let (locs, _) = block_inputs(&cfg, 5);
        let engine = MsgsEngine::new(&cfg, MsgsSettings::paper_default()).unwrap();
        let all = vec![true; locs.len()];
        let none = vec![false; locs.len()];
        let mut c1 = EventCounters::new();
        let s_all = engine.run_block(&locs, &all, 1.0, &mut c1).unwrap();
        let mut c2 = EventCounters::new();
        let s_none = engine.run_block(&locs, &none, 1.0, &mut c2).unwrap();
        assert_eq!(s_none.points, 0);
        assert_eq!(s_none.groups, 0);
        assert!(s_all.cycles > s_none.cycles);
    }

    #[test]
    fn length_mismatch_is_rejected() {
        let cfg = MsdaConfig::tiny();
        let engine = MsgsEngine::new(&cfg, MsgsSettings::paper_default()).unwrap();
        let mut c = EventCounters::new();
        assert!(engine.run_block(&[], &[], 1.0, &mut c).is_err());
    }

    #[test]
    fn points_per_cycle_peaks_near_group_parallelism() {
        // With 4 levels, no pruning and conflict-free banking, the engine
        // approaches n_levels points per head_dim-cycle group.
        let cfg = MsdaConfig::small();
        let (locs, keep) = block_inputs(&cfg, 6);
        let engine = MsgsEngine::new(&cfg, MsgsSettings::paper_default()).unwrap();
        let mut c = EventCounters::new();
        let stats = engine.run_block(&locs, &keep, 1.0, &mut c).unwrap();
        let per_group = stats.points as f64 / stats.groups as f64;
        assert!(per_group > 3.9, "avg points per group {per_group}");
    }
}
