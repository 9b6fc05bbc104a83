//! Functional reference implementation of one MSDeformAttn layer (Eq. 1).

use crate::bilinear::Footprint;
use crate::sampling::{query_sample_points_into, reference_points, RefPoint, SamplePoint};
use crate::workload::SaliencyWarp;
use crate::{FmapPyramid, ModelError, MsdaConfig};
use defa_tensor::matmul::matmul;
use defa_tensor::softmax::softmax_inplace;
use defa_tensor::Tensor;

/// Below this many per-query sampling points / probability elements the
/// per-query loops run sequentially: the scoped-thread helpers have no
/// pool, so a spawn only pays off with real work behind it. Results are
/// identical either way.
pub(crate) const PAR_MIN_ELEMS: usize = 1 << 12;

/// Builds the full sampling-location table for `offsets` (`[n, 2·ppq]`),
/// one query per row, applying the optional saliency warp — the
/// per-query-parallel generation shared by the monolithic forward and the
/// pruned pipeline (both must produce identical geometry, which the golden
/// tests pin).
///
/// Queries are independent, so the table is filled in disjoint
/// `points_per_query` windows in parallel; results are bit-identical for
/// any thread count. The warp's per-point decisions are memoized inside
/// the warp on the first call (see [`SaliencyWarp`]), so every later
/// block, backend and request only pays for the jitter of redirected
/// points.
///
/// # Errors
///
/// Returns [`ModelError::ShapeMismatch`] if `offsets` does not have one
/// row of `2·points_per_query` offsets per reference point, or if `warp`
/// was generated for a configuration of another shape.
pub fn generate_locations(
    cfg: &MsdaConfig,
    references: &[RefPoint],
    offsets: &Tensor,
    warp: Option<&SaliencyWarp>,
) -> Result<Vec<SamplePoint>, ModelError> {
    let n = references.len();
    let ppq = cfg.points_per_query();
    if offsets.shape().dims() != [n, 2 * ppq] {
        return Err(ModelError::ShapeMismatch(format!(
            "offsets {} expected [{n}, {}]",
            offsets.shape(),
            2 * ppq
        )));
    }
    let warp = match warp {
        Some(w) => Some((w, w.choices(cfg, n)?)),
        None => None,
    };
    let odata = offsets.as_slice();
    let mut locations = vec![SamplePoint::new(0, 0.0, 0.0); n * ppq];
    defa_parallel::par_chunks_mut_if(n * ppq >= PAR_MIN_ELEMS, &mut locations, ppq, |i, pts| {
        query_sample_points_into(cfg, references[i], &odata[i * 2 * ppq..(i + 1) * 2 * ppq], pts);
        if let Some((w, choices)) = warp {
            w.apply_choices(choices, i, pts);
        }
    });
    Ok(locations)
}

/// Learnable weights of one MSDeformAttn layer.
///
/// Following the official Deformable DETR implementation, attention logits
/// and sampling offsets are linear projections of the query:
/// `Wᴬ: [D, N_h·N_l·N_p]`, `Wˢ: [D, 2·N_h·N_l·N_p]`, `Wᵥ: [D, D]`.
#[derive(Debug, Clone, PartialEq)]
pub struct MsdaWeights {
    /// Attention-logit projection.
    pub w_attn: Tensor,
    /// Sampling-offset projection.
    pub w_offset: Tensor,
    /// Value projection.
    pub w_value: Tensor,
}

impl MsdaWeights {
    /// Validates weight shapes against a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ShapeMismatch`] on any disagreement.
    pub fn validate(&self, cfg: &MsdaConfig) -> Result<(), ModelError> {
        let ppq = cfg.points_per_query();
        if self.w_attn.shape().dims() != [cfg.d_model, ppq] {
            return Err(ModelError::ShapeMismatch(format!(
                "w_attn {} expected [{}, {ppq}]",
                self.w_attn.shape(),
                cfg.d_model
            )));
        }
        if self.w_offset.shape().dims() != [cfg.d_model, 2 * ppq] {
            return Err(ModelError::ShapeMismatch(format!(
                "w_offset {} expected [{}, {}]",
                self.w_offset.shape(),
                cfg.d_model,
                2 * ppq
            )));
        }
        if self.w_value.shape().dims() != [cfg.d_model, cfg.d_model] {
            return Err(ModelError::ShapeMismatch(format!(
                "w_value {} expected [{0}, {0}]",
                self.w_value.shape()
            )));
        }
        Ok(())
    }
}

/// Everything one layer evaluation produces.
///
/// Intermediates are exposed deliberately (C-INTERMEDIATE): the pruning
/// algorithms consume `probs` and `locations`, the accelerator model
/// consumes `value` and `locations`, and the tests compare `output`.
#[derive(Debug, Clone)]
pub struct LayerOutput {
    /// Raw attention logits, `[N_in, N_h·N_l·N_p]`.
    pub logits: Tensor,
    /// Per-head softmax probabilities, same shape as `logits`.
    pub probs: Tensor,
    /// Sampling offsets, `[N_in, 2·N_h·N_l·N_p]`.
    pub offsets: Tensor,
    /// Sampling locations, one per `(query, head, level, point)` in
    /// [`crate::sampling::point_slot`] order.
    pub locations: Vec<SamplePoint>,
    /// Projected values `V = X·Wᵥ`, `[N_in, D]`.
    pub value: Tensor,
    /// Attention output, `[N_in, D]`.
    pub output: Tensor,
}

/// One MSDeformAttn layer: configuration plus weights.
#[derive(Debug, Clone)]
pub struct MsdaLayer {
    cfg: MsdaConfig,
    weights: MsdaWeights,
    references: Vec<RefPoint>,
}

impl MsdaLayer {
    /// Creates a layer after validating configuration and weight shapes.
    ///
    /// # Errors
    ///
    /// Propagates validation failures from [`MsdaConfig::validate`] and
    /// [`MsdaWeights::validate`].
    pub fn new(cfg: MsdaConfig, weights: MsdaWeights) -> Result<Self, ModelError> {
        cfg.validate()?;
        weights.validate(&cfg)?;
        let references = reference_points(&cfg)?;
        Ok(MsdaLayer { cfg, weights, references })
    }

    /// The layer's configuration.
    pub fn config(&self) -> &MsdaConfig {
        &self.cfg
    }

    /// The layer's weights.
    pub fn weights(&self) -> &MsdaWeights {
        &self.weights
    }

    /// Normalized reference points, one per query.
    pub fn references(&self) -> &[RefPoint] {
        &self.references
    }

    /// Evaluates the layer exactly (no pruning).
    ///
    /// In the encoder, queries and feature map coincide: `Q = X`. The
    /// evaluation is the plain composition of the public stages the pruned
    /// pipeline also runs: [`MsdaLayer::attention_probs`], the offset
    /// projection, [`generate_locations`], the value projection and
    /// [`MsdaLayer::sample_and_aggregate`].
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] on any shape disagreement.
    pub fn forward(
        &self,
        x: &FmapPyramid,
        warp: Option<&SaliencyWarp>,
    ) -> Result<LayerOutput, ModelError> {
        let (logits, probs) = self.attention_probs(x)?;
        let offsets = matmul(x.tensor(), &self.weights.w_offset)?;
        let locations = generate_locations(&self.cfg, &self.references, &offsets, warp)?;
        let value = matmul(x.tensor(), &self.weights.w_value)?;
        let output = self.sample_and_aggregate(&probs, &locations, &value, None)?;
        Ok(LayerOutput { logits, probs, offsets, locations, value, output })
    }

    /// Computes only the attention logits and per-head probabilities.
    ///
    /// In the DEFA dataflow (§4.1) this is the *first* stage of the block:
    /// the probabilities feed the point-mask generator (PAP) before the
    /// offset projection and MSGS run, so callers that prune want the
    /// probabilities without the rest of the layer.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ShapeMismatch`] if the pyramid disagrees with
    /// the configuration.
    pub fn attention_probs(&self, x: &FmapPyramid) -> Result<(Tensor, Tensor), ModelError> {
        let cfg = &self.cfg;
        if x.n_in() != cfg.n_in() || x.d() != cfg.d_model {
            return Err(ModelError::ShapeMismatch(format!(
                "pyramid [{} x {}] does not match config [{} x {}]",
                x.n_in(),
                x.d(),
                cfg.n_in(),
                cfg.d_model
            )));
        }
        let logits = matmul(x.tensor(), &self.weights.w_attn)?;
        let probs = head_softmax(cfg, &logits);
        Ok((logits, probs))
    }

    /// MSGS + aggregation: bilinear-samples `value` at every surviving
    /// location and sums probability-weighted samples per head.
    ///
    /// `point_mask[query · points_per_query + slot]` keeps or drops each
    /// sampling point (PAP). Dropped points are skipped entirely and the
    /// surviving probabilities are *not* renormalized, matching the
    /// paper's PAP description. Exposed so external drivers (pruned
    /// pipelines, the accelerator model) can substitute their own location
    /// tables — e.g. after range clamping — while reusing the golden
    /// sampling/aggregation kernel.
    ///
    /// Queries are independent, so their output rows are computed in
    /// parallel; each row's neighbor accumulation runs in the same fixed
    /// order regardless of thread count, so results are bit-identical to
    /// the sequential evaluation.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ShapeMismatch`] if `probs` is not
    /// `[n, points_per_query]`, if `locations` or `point_mask` do not hold
    /// one entry per point of those `n` queries, or if `value` is not
    /// `[n_in, d_model]`.
    pub fn sample_and_aggregate(
        &self,
        probs: &Tensor,
        locations: &[SamplePoint],
        value: &Tensor,
        point_mask: Option<&[bool]>,
    ) -> Result<Tensor, ModelError> {
        let cfg = &self.cfg;
        let ppq = cfg.points_per_query();
        // The number of queries is the probability tensor's row count:
        // it equals `n_in` for encoder self-attention but is the object
        // query count for decoder cross-attention. The column count must
        // be exactly points_per_query — the parallel loop below indexes
        // rows by that stride.
        if probs.shape().rank() != 2 || probs.shape().dims()[1] != ppq {
            return Err(ModelError::ShapeMismatch(format!(
                "probs {} expected [n, {ppq}]",
                probs.shape()
            )));
        }
        let n = probs.shape().dims()[0];
        if locations.len() != n * ppq {
            return Err(ModelError::ShapeMismatch(format!(
                "{} locations for {n} queries x {ppq} points",
                locations.len()
            )));
        }
        if let Some(pm) = point_mask {
            if pm.len() != locations.len() {
                return Err(ModelError::ShapeMismatch(format!(
                    "point mask length {} expected {}",
                    pm.len(),
                    locations.len()
                )));
            }
        }
        if value.shape().dims() != [cfg.n_in(), cfg.d_model] {
            return Err(ModelError::ShapeMismatch(format!(
                "value {} expected [{}, {}]",
                value.shape(),
                cfg.n_in(),
                cfg.d_model
            )));
        }
        let d = cfg.d_model;
        let dh = cfg.head_dim();
        let lp = cfg.points_per_head();
        let n_heads = cfg.n_heads;
        let vdata = value.as_slice();
        let pdata = probs.as_slice();

        // Per-level base token offsets for direct indexing into `value`.
        let mut level_base = Vec::with_capacity(cfg.n_levels());
        for l in 0..cfg.n_levels() {
            level_base.push(cfg.level_offset(l)?);
        }
        let level_base = &level_base[..];

        let mut output = Tensor::zeros([n, d]);
        // Each query's aggregation walks ppq points x 4 neighbors x dh
        // channels — substantial, so the gate is on the point count alone.
        let parallel = n * ppq >= PAR_MIN_ELEMS / 4;
        defa_parallel::par_chunks_mut_if(parallel, output.as_mut_slice(), d, |i, orow_all| {
            let prow = &pdata[i * ppq..(i + 1) * ppq];
            for h in 0..n_heads {
                let chan0 = h * dh;
                let orow = &mut orow_all[chan0..chan0 + dh];
                for s in 0..lp {
                    let slot = h * lp + s;
                    let gslot = i * ppq + slot;
                    if let Some(pm) = point_mask {
                        if !pm[gslot] {
                            continue;
                        }
                    }
                    let w = prow[slot];
                    if w == 0.0 {
                        continue;
                    }
                    let pt = locations[gslot];
                    let shape = cfg.levels[pt.level as usize];
                    let base = level_base[pt.level as usize];
                    let fp = Footprint::at(pt.x, pt.y);
                    for nb in fp.in_bounds(shape) {
                        if nb.weight == 0.0 {
                            continue;
                        }
                        let token = base + nb.y as usize * shape.w + nb.x as usize;
                        let px = &vdata[token * d + chan0..token * d + chan0 + dh];
                        let ww = w * nb.weight;
                        for (o, &v) in orow.iter_mut().zip(px) {
                            *o += ww * v;
                        }
                    }
                }
            }
        });
        Ok(output)
    }
}

/// Per-head softmax of `[n, points_per_query]` attention logits: every
/// row holds `n_heads` independent distributions over their
/// `points_per_head` sampling points. Rows are normalized in parallel,
/// bit-identically for any thread count.
pub(crate) fn head_softmax(cfg: &MsdaConfig, logits: &Tensor) -> Tensor {
    let mut probs = logits.clone();
    let lp = cfg.points_per_head();
    let ppq = cfg.points_per_query();
    let parallel = probs.len() >= PAR_MIN_ELEMS;
    defa_parallel::par_chunks_mut_if(parallel, probs.as_mut_slice(), ppq, |_, row| {
        for head in row.chunks_exact_mut(lp) {
            softmax_inplace(head);
        }
    });
    probs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Benchmark, SyntheticWorkload};
    use defa_tensor::rng::TensorRng;

    fn tiny_layer(seed: u64) -> (MsdaConfig, MsdaLayer, FmapPyramid) {
        let cfg = MsdaConfig::tiny();
        let mut rng = TensorRng::seed_from(seed);
        let weights = MsdaWeights {
            w_attn: rng.normal([cfg.d_model, cfg.points_per_query()], 0.0, 0.5),
            w_offset: rng.normal([cfg.d_model, 2 * cfg.points_per_query()], 0.0, 0.3),
            w_value: rng.normal([cfg.d_model, cfg.d_model], 0.0, 0.2),
        };
        let layer = MsdaLayer::new(cfg.clone(), weights).unwrap();
        let x = rng.uniform([cfg.n_in(), cfg.d_model], -1.0, 1.0);
        let pyramid = FmapPyramid::from_tensor(&cfg, x).unwrap();
        (cfg, layer, pyramid)
    }

    #[test]
    fn output_shapes_are_correct() {
        let (cfg, layer, x) = tiny_layer(1);
        let out = layer.forward(&x, None).unwrap();
        assert_eq!(out.output.shape().dims(), &[cfg.n_in(), cfg.d_model]);
        assert_eq!(out.probs.shape().dims(), &[cfg.n_in(), cfg.points_per_query()]);
        assert_eq!(out.locations.len(), cfg.n_in() * cfg.points_per_query());
    }

    #[test]
    fn per_head_probabilities_sum_to_one() {
        let (cfg, layer, x) = tiny_layer(2);
        let out = layer.forward(&x, None).unwrap();
        let lp = cfg.points_per_head();
        for i in [0usize, 7, cfg.n_in() - 1] {
            let row = out.probs.row(i).unwrap();
            for h in 0..cfg.n_heads {
                let s: f32 = row[h * lp..(h + 1) * lp].iter().sum();
                assert!((s - 1.0).abs() < 1e-5, "query {i} head {h}: {s}");
            }
        }
    }

    #[test]
    fn weight_validation_catches_mismatches() {
        let cfg = MsdaConfig::tiny();
        let bad = MsdaWeights {
            w_attn: Tensor::zeros([cfg.d_model, 3]),
            w_offset: Tensor::zeros([cfg.d_model, 2 * cfg.points_per_query()]),
            w_value: Tensor::zeros([cfg.d_model, cfg.d_model]),
        };
        assert!(MsdaLayer::new(cfg, bad).is_err());
    }

    #[test]
    fn all_true_masks_match_unmasked_forward() {
        let (cfg, layer, x) = tiny_layer(3);
        let exact = layer.forward(&x, None).unwrap();
        let fmap_mask = vec![true; cfg.n_in()];
        let point_mask = vec![true; cfg.n_in() * cfg.points_per_query()];
        let value = defa_tensor::matmul::matmul_row_masked(
            x.tensor(),
            &layer.weights().w_value,
            &fmap_mask,
        )
        .unwrap();
        let masked = layer
            .sample_and_aggregate(&exact.probs, &exact.locations, &value, Some(&point_mask))
            .unwrap();
        assert_eq!(masked, exact.output);
    }

    #[test]
    fn all_false_point_mask_zeroes_output() {
        let (cfg, layer, x) = tiny_layer(4);
        let exact = layer.forward(&x, None).unwrap();
        let point_mask = vec![false; cfg.n_in() * cfg.points_per_query()];
        let masked = layer
            .sample_and_aggregate(&exact.probs, &exact.locations, &exact.value, Some(&point_mask))
            .unwrap();
        assert_eq!(masked.max_abs(), 0.0);
    }

    #[test]
    fn masking_low_probability_points_changes_little() {
        let (cfg, layer, x) = tiny_layer(5);
        let exact = layer.forward(&x, None).unwrap();
        // Drop points with probability < 1%: output should barely move.
        let mask: Vec<bool> = exact.probs.as_slice().iter().map(|&p| p >= 0.01).collect();
        assert!(mask.contains(&false));
        assert_eq!(mask.len(), cfg.n_in() * cfg.points_per_query());
        let pruned = layer
            .sample_and_aggregate(&exact.probs, &exact.locations, &exact.value, Some(&mask))
            .unwrap();
        let err = pruned.relative_l2_error(&exact.output).unwrap();
        assert!(err < 0.05, "err={err}");
    }

    #[test]
    fn mask_length_is_validated() {
        let (cfg, layer, x) = tiny_layer(6);
        let exact = layer.forward(&x, None).unwrap();
        let sample = |value: &Tensor, mask: Option<&[bool]>| {
            layer.sample_and_aggregate(&exact.probs, &exact.locations, value, mask)
        };
        let short = vec![true; 3];
        let err = sample(&exact.value, Some(&short));
        assert!(matches!(err, Err(ModelError::ShapeMismatch(_))), "{err:?}");
        // A value tensor with too few token rows, or the wrong width.
        for bad in [Tensor::zeros([2, cfg.d_model]), Tensor::zeros([cfg.n_in(), cfg.d_model - 1])] {
            let err = sample(&bad, None);
            assert!(matches!(err, Err(ModelError::ShapeMismatch(_))), "{err:?}");
        }
        assert_eq!(sample(&exact.value, None).unwrap(), exact.output);
    }

    #[test]
    fn warp_changes_sampling_locations() {
        let cfg = MsdaConfig::tiny();
        let wl = SyntheticWorkload::generate(Benchmark::DeformableDetr, &cfg, 9).unwrap();
        let layer = wl.layer(0).unwrap();
        let plain = layer.forward(wl.initial_fmap(), None).unwrap();
        let warped = layer.forward(wl.initial_fmap(), Some(wl.warp())).unwrap();
        assert_ne!(plain.locations, warped.locations);
    }

    /// Per-point oracle of [`generate_locations`]: the un-memoized
    /// projection plus [`SaliencyWarp::apply`] on every point.
    fn locations_oracle(
        cfg: &MsdaConfig,
        references: &[RefPoint],
        offsets: &Tensor,
        warp: &SaliencyWarp,
    ) -> Vec<SamplePoint> {
        let ppq = cfg.points_per_query();
        let mut out = Vec::with_capacity(references.len() * ppq);
        for (i, &r) in references.iter().enumerate() {
            let row = &offsets.as_slice()[i * 2 * ppq..(i + 1) * 2 * ppq];
            let mut pts = crate::sampling::query_sample_points(cfg, r, row);
            for (slot, pt) in pts.iter_mut().enumerate() {
                warp.apply(i, slot, pt);
            }
            out.extend(pts);
        }
        out
    }

    fn bits(pts: &[SamplePoint]) -> Vec<(u8, u32, u32)> {
        pts.iter().map(|p| (p.level, p.x.to_bits(), p.y.to_bits())).collect()
    }

    #[test]
    fn memoized_warp_matches_per_point_oracle_bit_for_bit() {
        for cfg in [MsdaConfig::tiny(), MsdaConfig::small()] {
            for benchmark in Benchmark::all() {
                for threads in [1, 4] {
                    // A fresh workload per thread count, so the memo's first
                    // build runs under that count.
                    let wl = SyntheticWorkload::generate(benchmark, &cfg, 42).unwrap();
                    for layer in wl.layers() {
                        let offsets =
                            matmul(wl.initial_fmap().tensor(), &layer.weights().w_offset).unwrap();
                        let memo = defa_parallel::with_num_threads(threads, || {
                            generate_locations(&cfg, layer.references(), &offsets, Some(wl.warp()))
                                .unwrap()
                        });
                        let oracle =
                            locations_oracle(&cfg, layer.references(), &offsets, wl.warp());
                        assert_eq!(bits(&memo), bits(&oracle), "{benchmark} {threads} threads");
                    }
                }
            }
        }
    }

    #[test]
    fn warp_of_another_shape_is_a_shape_mismatch() {
        let tiny = SyntheticWorkload::generate(Benchmark::Dino, &MsdaConfig::tiny(), 5).unwrap();
        let small = SyntheticWorkload::generate(Benchmark::Dino, &MsdaConfig::small(), 5).unwrap();
        let cfg = small.config();
        let layer = small.layer(0).unwrap();
        let offsets = matmul(small.initial_fmap().tensor(), &layer.weights().w_offset).unwrap();
        let err = generate_locations(cfg, layer.references(), &offsets, Some(tiny.warp()));
        assert!(matches!(err, Err(ModelError::ShapeMismatch(_))), "{err:?}");
        // Same query count, different slot layout.
        let mut fewer_points = cfg.clone();
        fewer_points.n_points -= 1;
        let mut rng = TensorRng::seed_from(3);
        let offsets = rng.uniform([cfg.n_in(), 2 * fewer_points.points_per_query()], -1.0, 1.0);
        let err =
            generate_locations(&fewer_points, layer.references(), &offsets, Some(small.warp()));
        assert!(matches!(err, Err(ModelError::ShapeMismatch(_))), "{err:?}");
    }

    #[test]
    fn pyramid_shape_mismatch_is_rejected() {
        let (_, layer, _) = tiny_layer(7);
        let other_cfg = MsdaConfig::small();
        let x = FmapPyramid::from_tensor(
            &other_cfg,
            Tensor::zeros([other_cfg.n_in(), other_cfg.d_model]),
        )
        .unwrap();
        assert!(layer.forward(&x, None).is_err());
    }
}
