//! Residual MSDeformAttn encoder stack.
//!
//! The Deformable-DETR-family encoders apply MSDeformAttn as self-attention
//! over the flattened pyramid tokens: the output of block *k* (after a
//! residual connection and normalization) becomes the feature map of block
//! *k+1*. This inter-block data dependence is what lets FWP use block *k*'s
//! sampling frequencies to prune block *k+1*'s pixels.

use crate::workload::SyntheticWorkload;
use crate::{FmapPyramid, ModelError};
use defa_tensor::Tensor;

/// Applies the residual + RMS-normalization update between encoder blocks.
///
/// Real encoders use LayerNorm; per-token RMS normalization keeps the
/// activation scale stable across blocks (which LayerNorm also does) without
/// learnable parameters, so stacked blocks neither explode nor vanish.
///
/// # Errors
///
/// Returns [`ModelError::Tensor`] if shapes disagree.
pub fn block_update(x: &Tensor, attn_out: &Tensor) -> Result<Tensor, ModelError> {
    let mut next = x.add(attn_out)?;
    let d = next.shape().dims()[1];
    let rows = next.shape().dims()[0];
    for r in 0..rows {
        let row = next.row_mut(r)?;
        let ms: f32 = row.iter().map(|&v| v * v).sum::<f32>() / d as f32;
        let scale = 1.0 / ms.sqrt().max(1e-6);
        for v in row.iter_mut() {
            *v *= scale;
        }
    }
    Ok(next)
}

/// The result of a full encoder run.
#[derive(Debug, Clone)]
pub struct EncoderTrace {
    /// The final feature tensor after the last residual update.
    pub final_features: Tensor,
}

/// Runs every block of a workload's encoder exactly (no pruning).
///
/// # Errors
///
/// Propagates shape errors from the layer evaluations.
pub fn run_encoder(wl: &SyntheticWorkload) -> Result<EncoderTrace, ModelError> {
    run_encoder_from(wl, wl.initial_fmap())
}

/// [`run_encoder`] over a caller-provided initial feature pyramid.
///
/// The workload contributes weights, reference points and the saliency
/// warp; `initial` replaces the workload's own backbone features. This is
/// the serving entry point: one workload (scenario) handles many requests,
/// each with its own input pyramid.
///
/// # Errors
///
/// Propagates shape errors from the layer evaluations (including a
/// pyramid/configuration mismatch).
pub fn run_encoder_from(
    wl: &SyntheticWorkload,
    initial: &FmapPyramid,
) -> Result<EncoderTrace, ModelError> {
    let cfg = wl.config();
    let mut x = initial.clone();
    for k in 0..cfg.n_layers {
        let out = wl.layer(k)?.forward(&x, Some(wl.warp()))?;
        x = FmapPyramid::from_tensor(cfg, block_update(x.tensor(), &out.output)?)?;
    }
    Ok(EncoderTrace { final_features: x.into_tensor() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Benchmark;
    use crate::MsdaConfig;

    /// Runs blocks `0..=last` of `wl` one `forward` at a time.
    fn blocks_by_hand(wl: &SyntheticWorkload, last: usize) -> (Tensor, Tensor) {
        let mut x = wl.initial_fmap().clone();
        let mut out = Tensor::zeros([0]);
        for k in 0..=last {
            out = wl.layer(k).unwrap().forward(&x, Some(wl.warp())).unwrap().output;
            x = FmapPyramid::from_tensor(wl.config(), block_update(x.tensor(), &out).unwrap())
                .unwrap();
        }
        (out, x.into_tensor())
    }

    #[test]
    fn trace_runs_every_block() {
        let cfg = MsdaConfig::tiny();
        let wl = SyntheticWorkload::generate(Benchmark::DeformableDetr, &cfg, 1).unwrap();
        let trace = run_encoder(&wl).unwrap();
        assert_eq!(trace.final_features.shape().dims(), &[cfg.n_in(), cfg.d_model]);
        assert_eq!(trace.final_features, blocks_by_hand(&wl, cfg.n_layers - 1).1);
    }

    #[test]
    fn block_update_normalizes_rows() {
        let x = Tensor::full([3, 4], 2.0);
        let o = Tensor::full([3, 4], 2.0);
        let next = block_update(&x, &o).unwrap();
        for r in 0..3 {
            let ms: f32 = next.row(r).unwrap().iter().map(|&v| v * v).sum::<f32>() / 4.0;
            assert!((ms - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn activations_stay_bounded_across_blocks() {
        let cfg = MsdaConfig::tiny();
        let wl = SyntheticWorkload::generate(Benchmark::Dino, &cfg, 2).unwrap();
        let trace = run_encoder(&wl).unwrap();
        assert!(trace.final_features.max_abs() < 50.0);
        assert!(trace.final_features.max_abs() > 1e-3);
    }

    #[test]
    fn explicit_initial_fmap_matches_and_diverges() {
        let cfg = MsdaConfig::tiny();
        let wl = SyntheticWorkload::generate(Benchmark::DeformableDetr, &cfg, 8).unwrap();
        // The workload's own pyramid reproduces run_encoder exactly.
        let own = run_encoder_from(&wl, wl.initial_fmap()).unwrap();
        let plain = run_encoder(&wl).unwrap();
        assert_eq!(own.final_features, plain.final_features);
        // A different request pyramid produces different features.
        let gen = crate::workload::RequestGenerator::new(
            vec![crate::workload::RequestScenario::from_workload(wl.clone())],
            3,
        )
        .unwrap();
        let req = gen.request(0);
        let other = run_encoder_from(&wl, &req.fmap).unwrap();
        assert!(other.final_features.relative_l2_error(&plain.final_features).unwrap() > 1e-3);
    }

    #[test]
    fn consecutive_blocks_differ() {
        let cfg = MsdaConfig::tiny();
        let wl = SyntheticWorkload::generate(Benchmark::DeformableDetr, &cfg, 4).unwrap();
        let (a, _) = blocks_by_hand(&wl, 0);
        let (b, _) = blocks_by_hand(&wl, 1);
        assert!(a.relative_l2_error(&b).unwrap() > 1e-3);
    }
}
