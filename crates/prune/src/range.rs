//! Level-wise range narrowing (§4.1, Figure 4).
//!
//! Sampling offsets are dynamically generated and unbounded, which would
//! force the accelerator to keep whole fmap levels on chip. DEFA bounds the
//! offsets to a per-level window around the reference point. Because coarse
//! levels tolerate tighter windows without accuracy loss, per-level bounds
//! beat one unified bound by ~25 % of SRAM storage.

use crate::PruneError;
use defa_model::sampling::RefPoint;
use defa_model::{MsdaConfig, SamplePoint};

/// Half-extents of one level's bounded sampling range, in pixels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BoundedRange {
    /// Horizontal half-extent.
    pub half_w: u32,
    /// Vertical half-extent.
    pub half_h: u32,
}

impl BoundedRange {
    /// Creates a bounded range.
    pub fn new(half_w: u32, half_h: u32) -> Self {
        BoundedRange { half_w, half_h }
    }

    /// Pixels covered by the range window, counting the extra row/column of
    /// bilinear neighbors at the window's far edge.
    pub fn window_pixels(&self) -> u64 {
        (2 * self.half_w as u64 + 2) * (2 * self.half_h as u64 + 2)
    }
}

/// Per-level bounded ranges for a pyramid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangeConfig {
    ranges: Vec<BoundedRange>,
}

impl RangeConfig {
    /// Creates a configuration from explicit per-level ranges.
    ///
    /// # Errors
    ///
    /// Returns [`PruneError::InvalidParameter`] if `ranges` is empty.
    pub fn new(ranges: Vec<BoundedRange>) -> Result<Self, PruneError> {
        if ranges.is_empty() {
            return Err(PruneError::InvalidParameter("no bounded ranges given".into()));
        }
        Ok(RangeConfig { ranges })
    }

    /// The paper-style defaults for a configuration: the finest level gets
    /// the widest window and coarser levels progressively tighter ones
    /// (their content is blurrier, so tight bounds cost no accuracy).
    pub fn paper_defaults(cfg: &MsdaConfig) -> Self {
        let base: [u32; 8] = [8, 5, 3, 2, 2, 2, 2, 2];
        let ranges = (0..cfg.n_levels())
            .map(|l| {
                let r = base[l.min(7)];
                let shape = cfg.levels[l];
                // Never wider than the level itself.
                BoundedRange::new(
                    r.min(shape.w as u32 / 2).max(1),
                    r.min(shape.h as u32 / 2).max(1),
                )
            })
            .collect();
        RangeConfig { ranges }
    }

    /// A unified configuration that applies the *widest* level range
    /// everywhere — the strawman of Figure 4 (left).
    pub fn unified(&self) -> Self {
        let max = self
            .ranges
            .iter()
            .copied()
            .max_by_key(BoundedRange::window_pixels)
            .expect("ranges are non-empty by construction");
        RangeConfig { ranges: vec![max; self.ranges.len()] }
    }

    /// Per-level ranges.
    pub fn ranges(&self) -> &[BoundedRange] {
        &self.ranges
    }

    /// Range of level `l`.
    ///
    /// # Errors
    ///
    /// Returns [`PruneError::ShapeMismatch`] for an invalid level.
    pub fn level(&self, l: usize) -> Result<BoundedRange, PruneError> {
        self.ranges.get(l).copied().ok_or_else(|| {
            PruneError::ShapeMismatch(format!("level {l} out of {}", self.ranges.len()))
        })
    }

    /// Clamps one sampling point into its level's bounded range around a
    /// reference point, returning the clamped point and whether clamping
    /// moved it.
    ///
    /// # Errors
    ///
    /// Returns [`PruneError::ShapeMismatch`] if the point's level has no
    /// configured range.
    pub fn clamp(
        &self,
        cfg: &MsdaConfig,
        reference: RefPoint,
        pt: SamplePoint,
    ) -> Result<(SamplePoint, bool), PruneError> {
        let range = self.level(pt.level as usize)?;
        let shape = cfg.levels[pt.level as usize];
        let (cx, cy) = reference.to_level(shape);
        let x = pt.x.clamp(cx - range.half_w as f32, cx + range.half_w as f32);
        let y = pt.y.clamp(cy - range.half_h as f32, cy + range.half_h as f32);
        let moved = x != pt.x || y != pt.y;
        Ok((SamplePoint { level: pt.level, x, y }, moved))
    }

    /// On-chip pixel-vector slots needed to hold every level's bounded rows
    /// simultaneously.
    ///
    /// The fmap-reuse scheme (Figure 4 right) slides the reference point in
    /// row-major order, so each level keeps a *row buffer* of
    /// `(2·half_h + 2)` full-width rows resident (`+2` covers the bilinear
    /// neighbor row); horizontal reuse then comes for free.
    pub fn storage_pixels(&self, cfg: &MsdaConfig) -> u64 {
        self.ranges
            .iter()
            .zip(&cfg.levels)
            .map(|(r, shape)| {
                let rows = (2 * r.half_h as u64 + 2).min(shape.h as u64);
                rows * shape.w as u64
            })
            .sum()
    }

    /// Storage overhead of the unified strawman relative to level-wise
    /// ranges, as a fraction (e.g. `0.25` = 25 % extra, the paper's figure).
    pub fn unified_overhead(&self, cfg: &MsdaConfig) -> f64 {
        let unified = self.unified().storage_pixels(cfg);
        let ours = self.storage_pixels(cfg);
        unified as f64 / ours as f64 - 1.0
    }
}

/// Applies range clamping to a whole location table, in place, returning
/// how many points were moved.
///
/// `references` must hold one reference point per query and `locations`
/// exactly `n_in · points_per_query` entries in layer order. Each query's
/// per-level windows are computed once and shared by all its points; the
/// result is the same as [`RangeConfig::clamp`] on every point in order.
///
/// # Errors
///
/// Returns [`PruneError::ShapeMismatch`] on any length disagreement, or
/// for a point whose level has no configured range or pyramid level
/// (points before it are already clamped, as with a per-point loop).
pub fn clamp_locations(
    cfg: &MsdaConfig,
    ranges: &RangeConfig,
    references: &[RefPoint],
    locations: &mut [SamplePoint],
) -> Result<u64, PruneError> {
    let ppq = cfg.points_per_query();
    if references.len() != cfg.n_in() {
        return Err(PruneError::ShapeMismatch(format!(
            "{} references for {} queries",
            references.len(),
            cfg.n_in()
        )));
    }
    if locations.len() != cfg.n_in() * ppq {
        return Err(PruneError::ShapeMismatch(format!(
            "{} locations for {} expected",
            locations.len(),
            cfg.n_in() * ppq
        )));
    }
    // `[x_lo, x_hi, y_lo, y_hi]` of each level that has both a shape and a
    // range, refilled per query.
    let mut windows = vec![[0f32; 4]; cfg.n_levels().min(ranges.ranges.len())];
    let mut moved = 0u64;
    for (reference, pts) in references.iter().zip(locations.chunks_mut(ppq)) {
        for ((window, range), &shape) in windows.iter_mut().zip(&ranges.ranges).zip(&cfg.levels) {
            let (cx, cy) = reference.to_level(shape);
            let (hw, hh) = (range.half_w as f32, range.half_h as f32);
            *window = [cx - hw, cx + hw, cy - hh, cy + hh];
        }
        for pt in pts {
            let l = pt.level as usize;
            let Some(&[x_lo, x_hi, y_lo, y_hi]) = windows.get(l) else {
                ranges.level(l)?;
                return Err(PruneError::ShapeMismatch(format!(
                    "level {l} out of {} pyramid levels",
                    cfg.n_levels()
                )));
            };
            let x = pt.x.clamp(x_lo, x_hi);
            let y = pt.y.clamp(y_lo, y_hi);
            moved += (x != pt.x || y != pt.y) as u64;
            pt.x = x;
            pt.y = y;
        }
    }
    Ok(moved)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_pixels_includes_bilinear_margin() {
        // half extents 2 -> window spans 2*2+1 = 5 centers, +1 neighbor = 6.
        assert_eq!(BoundedRange::new(2, 2).window_pixels(), 36);
        assert_eq!(BoundedRange::new(1, 3).window_pixels(), 4 * 8);
    }

    #[test]
    fn paper_defaults_tighten_with_depth() {
        let cfg = MsdaConfig::full();
        let rc = RangeConfig::paper_defaults(&cfg);
        let px: Vec<u64> = rc.ranges().iter().map(BoundedRange::window_pixels).collect();
        for w in px.windows(2) {
            assert!(w[0] >= w[1], "ranges must not grow with depth: {px:?}");
        }
    }

    #[test]
    fn unified_overhead_is_roughly_a_quarter() {
        // §4.1: "Applying unified restriction on all levels ... causes an
        // extra 25% storage requirement."
        let cfg = MsdaConfig::full();
        let rc = RangeConfig::paper_defaults(&cfg);
        let overhead = rc.unified_overhead(&cfg);
        assert!(overhead > 0.15 && overhead < 0.40, "overhead {overhead}");
    }

    #[test]
    fn clamp_moves_outliers_only() {
        let cfg = MsdaConfig::tiny();
        let rc = RangeConfig::new(vec![BoundedRange::new(2, 2), BoundedRange::new(1, 1)]).unwrap();
        let reference = RefPoint { x: 0.5, y: 0.5 }; // level 0 center (3.5, 2.5)
        let inside = SamplePoint::new(0, 4.0, 2.0);
        let (pt, moved) = rc.clamp(&cfg, reference, inside).unwrap();
        assert!(!moved);
        assert_eq!(pt, inside);
        let outside = SamplePoint::new(0, 7.9, 2.0);
        let (pt, moved) = rc.clamp(&cfg, reference, outside).unwrap();
        assert!(moved);
        assert!((pt.x - 5.5).abs() < 1e-6);
    }

    #[test]
    fn clamp_locations_counts_moves() {
        let cfg = MsdaConfig::tiny();
        let rc = RangeConfig::paper_defaults(&cfg);
        let refs = defa_model::sampling::reference_points(&cfg).unwrap();
        let ppq = cfg.points_per_query();
        // All points far outside: every one must be clamped.
        let mut locs = vec![SamplePoint::new(0, 1000.0, 1000.0); cfg.n_in() * ppq];
        let moved = clamp_locations(&cfg, &rc, &refs, &mut locs).unwrap();
        assert_eq!(moved, (cfg.n_in() * ppq) as u64);
    }

    #[test]
    fn clamp_locations_validates_lengths() {
        let cfg = MsdaConfig::tiny();
        let rc = RangeConfig::paper_defaults(&cfg);
        let refs = defa_model::sampling::reference_points(&cfg).unwrap();
        let mut locs = vec![SamplePoint::new(0, 0.0, 0.0); 3];
        assert!(clamp_locations(&cfg, &rc, &refs, &mut locs).is_err());
    }

    /// Per-point oracle of [`clamp_locations`]: [`RangeConfig::clamp`] on
    /// every point in table order.
    fn clamp_oracle(
        cfg: &MsdaConfig,
        rc: &RangeConfig,
        refs: &[RefPoint],
        locs: &mut [SamplePoint],
    ) -> Result<u64, PruneError> {
        let ppq = cfg.points_per_query();
        let mut moved = 0;
        for (i, loc) in locs.iter_mut().enumerate() {
            let (pt, did_move) = rc.clamp(cfg, refs[i / ppq], *loc)?;
            *loc = pt;
            moved += did_move as u64;
        }
        Ok(moved)
    }

    /// A seeded table mixing free points, points exactly on their window's
    /// edges and infinite coordinates, all in their slot's level.
    fn seeded_table(cfg: &MsdaConfig, rc: &RangeConfig, seed: u64) -> Vec<SamplePoint> {
        let refs = defa_model::sampling::reference_points(cfg).unwrap();
        let ppq = cfg.points_per_query();
        let mut rng = defa_tensor::rng::TensorRng::seed_from(seed);
        let mut coord = |c: f32, half: u32| match rng.index(6) {
            0 => c - half as f32,
            1 => c + half as f32,
            2 => f32::INFINITY,
            3 => f32::NEG_INFINITY,
            _ => c + rng.uniform_value(-3.0, 3.0) * half as f32,
        };
        (0..cfg.n_in() * ppq)
            .map(|i| {
                let level = (i % ppq / cfg.n_points) % cfg.n_levels();
                let range = rc.ranges()[level.min(rc.ranges().len() - 1)];
                let (cx, cy) = refs[i / ppq].to_level(cfg.levels[level]);
                SamplePoint::new(level as u8, coord(cx, range.half_w), coord(cy, range.half_h))
            })
            .collect()
    }

    fn bits(pts: &[SamplePoint]) -> Vec<(u8, u32, u32)> {
        pts.iter().map(|p| (p.level, p.x.to_bits(), p.y.to_bits())).collect()
    }

    #[test]
    fn clamp_locations_matches_per_point_clamp() {
        for cfg in [MsdaConfig::tiny(), MsdaConfig::small()] {
            let refs = defa_model::sampling::reference_points(&cfg).unwrap();
            let rc = RangeConfig::paper_defaults(&cfg);
            for seed in [1, 2, 3] {
                let mut fast = seeded_table(&cfg, &rc, seed);
                let mut slow = fast.clone();
                let moved = clamp_locations(&cfg, &rc, &refs, &mut fast).unwrap();
                assert_eq!(moved, clamp_oracle(&cfg, &rc, &refs, &mut slow).unwrap());
                assert!(moved > 0 && moved < fast.len() as u64);
                assert_eq!(bits(&fast), bits(&slow));
            }
        }
    }

    #[test]
    fn clamp_locations_fails_like_per_point_clamp_on_missing_ranges() {
        let cfg = MsdaConfig::small();
        let refs = defa_model::sampling::reference_points(&cfg).unwrap();
        let full = RangeConfig::paper_defaults(&cfg);
        let short = RangeConfig::new(full.ranges()[..2].to_vec()).unwrap();
        let mut fast = seeded_table(&cfg, &full, 4);
        let mut slow = fast.clone();
        let err = clamp_locations(&cfg, &short, &refs, &mut fast).unwrap_err();
        assert_eq!(err, clamp_oracle(&cfg, &short, &refs, &mut slow).unwrap_err());
        assert!(matches!(err, PruneError::ShapeMismatch(_)));
        // Points before the failing one are clamped exactly as the loop did.
        assert_eq!(bits(&fast), bits(&slow));
    }

    #[test]
    fn missing_level_range_is_an_error() {
        let cfg = MsdaConfig::tiny();
        let rc = RangeConfig::new(vec![BoundedRange::new(2, 2)]).unwrap(); // only level 0
        let reference = RefPoint { x: 0.5, y: 0.5 };
        assert!(rc.clamp(&cfg, reference, SamplePoint::new(1, 0.0, 0.0)).is_err());
    }

    #[test]
    fn empty_config_is_rejected() {
        assert!(RangeConfig::new(vec![]).is_err());
    }

    #[test]
    fn ranges_never_exceed_level_extent() {
        let cfg = MsdaConfig::tiny(); // coarsest level is 3x4
        let rc = RangeConfig::paper_defaults(&cfg);
        for (l, r) in rc.ranges().iter().enumerate() {
            assert!(r.half_w as usize <= cfg.levels[l].w);
            assert!(r.half_h as usize <= cfg.levels[l].h);
        }
    }
}
