//! Staged replays of the dense and pruned encoders.
//!
//! Each replay re-runs one encoder from the same public functions the
//! library composes (`MsdaLayer::attention_probs`, `matmul`,
//! `generate_locations`, `sample_and_aggregate`, `block_update`, and for
//! the pruned path `point_mask`, `clamp_locations`, `matmul_row_masked`,
//! `SampleFrequency` and INT-N fake quantization), timing every stage as a
//! span. Callers check the replay's output bit-identical to
//! `run_encoder_from` / `run_pruned_encoder_from`, so the stage times
//! describe the library's own schedule, and the library call minus the
//! staged sum shows any drift between the two.

use crate::spans::{Recorder, SpanId};
use crate::Res;
use defa_model::encoder::block_update;
use defa_model::flops::BlockFlops;
use defa_model::reference::{generate_locations, MsdaLayer, MsdaWeights};
use defa_model::workload::SyntheticWorkload;
use defa_model::FmapPyramid;
use defa_prune::pap::{point_mask, retained_mass};
use defa_prune::pipeline::PruneSettings;
use defa_prune::range::{clamp_locations, RangeConfig};
use defa_prune::{BitMask, ReductionStats, SampleFrequency};
use defa_tensor::matmul::{gemm_macs, matmul, matmul_row_masked};
use defa_tensor::{QuantParams, Tensor};

/// Deterministic work counts of one encoder run, computed from shapes and
/// masks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Work {
    /// Sampling points bilinear-sampled by MSGS.
    pub points_sampled: u64,
    /// Multiply-accumulates of the three projection GEMMs.
    pub gemm_macs: u64,
    /// f32 bytes the projection GEMMs read and write (operands at their
    /// computed rows plus the full output).
    pub gemm_bytes: u64,
}

impl Work {
    fn gemm(&mut self, rows: usize, all_rows: usize, k: usize, n: usize) {
        self.gemm_macs += gemm_macs(rows, k, n);
        self.gemm_bytes += 4 * (rows * k + k * n + all_rows * n) as u64;
    }
}

/// The staged dense encoder: returns the final features and work counts.
pub fn dense(
    wl: &SyntheticWorkload,
    initial: &FmapPyramid,
    rec: &Recorder,
    request: u64,
    parent: SpanId,
) -> Res<(Tensor, Work)> {
    let cfg = wl.config();
    let (n, d, ppq) = (cfg.n_in(), cfg.d_model, cfg.points_per_query());
    let p = Some(parent);
    let mut work = Work::default();
    let mut x = initial.clone();
    for k in 0..cfg.n_layers {
        let layer = wl.layer(k)?;
        let (_, probs) = rec.time("model.attn_probs", request, p, || layer.attention_probs(&x))?;
        let offsets = rec.time("tensor.offset_gemm", request, p, || {
            matmul(x.tensor(), &layer.weights().w_offset)
        })?;
        let locations = rec.time("model.locations", request, p, || {
            generate_locations(cfg, layer.references(), &offsets, Some(wl.warp()))
        })?;
        let value = rec.time("tensor.value_gemm", request, p, || {
            matmul(x.tensor(), &layer.weights().w_value)
        })?;
        let output = rec.time("model.msgs_sample", request, p, || {
            layer.sample_and_aggregate(&probs, &locations, &value, None)
        })?;
        x = rec.time("model.block_update", request, p, || -> Res<FmapPyramid> {
            Ok(FmapPyramid::from_tensor(cfg, block_update(x.tensor(), &output)?)?)
        })?;
        work.points_sampled += (n * ppq) as u64;
        work.gemm(n, n, d, ppq);
        work.gemm(n, n, d, 2 * ppq);
        work.gemm(n, n, d, d);
    }
    Ok((x.into_tensor(), work))
}

fn fake_quantize(t: &Tensor, bits: u8) -> Res<Tensor> {
    Ok(QuantParams::fit(t, bits)?.fake_quantize(t))
}

fn quantized_layer(layer: &MsdaLayer, bits: u8) -> Res<MsdaLayer> {
    let w = layer.weights();
    let weights = MsdaWeights {
        w_attn: fake_quantize(&w.w_attn, bits)?,
        w_offset: fake_quantize(&w.w_offset, bits)?,
        w_value: fake_quantize(&w.w_value, bits)?,
    };
    Ok(MsdaLayer::new(layer.config().clone(), weights)?)
}

/// The staged pruned encoder: returns the final features, the reduction
/// statistics and work counts.
pub fn pruned(
    wl: &SyntheticWorkload,
    settings: &PruneSettings,
    initial: &FmapPyramid,
    rec: &Recorder,
    request: u64,
    parent: SpanId,
) -> Res<(Tensor, ReductionStats, Work)> {
    let cfg = wl.config();
    let (n, d, ppq) = (cfg.n_in(), cfg.d_model, cfg.points_per_query());
    let p = Some(parent);
    let flops = BlockFlops::for_config(cfg);
    let ranges = settings.range_narrowing.then(|| RangeConfig::paper_defaults(cfg));
    let mut work = Work::default();

    let mut x = initial.clone();
    let quant_layers = match settings.quant_bits {
        Some(bits) => {
            rec.time("prune.quantize", request, p, || -> Res<Option<Vec<MsdaLayer>>> {
                x = FmapPyramid::from_tensor(cfg, fake_quantize(x.tensor(), bits)?)?;
                Ok(Some(wl.layers().iter().map(|l| quantized_layer(l, bits)).collect::<Res<_>>()?))
            })?
        }
        None => None,
    };

    let mut stats = ReductionStats::new();
    let mut next_fmap_mask = BitMask::keep_all(n);
    for k in 0..cfg.n_layers {
        let layer = match &quant_layers {
            Some(ls) => &ls[k],
            None => wl.layer(k)?,
        };
        let (_, probs) = rec.time("model.attn_probs", request, p, || layer.attention_probs(&x))?;
        let (pmask, mass) = rec.time("prune.pap_mask", request, p, || -> Res<(BitMask, f64)> {
            Ok(match settings.pap {
                Some(pap) => {
                    let m = point_mask(&probs, pap)?;
                    let mass = retained_mass(&probs, &m)?;
                    (m, mass)
                }
                None => (BitMask::keep_all(n * ppq), 1.0),
            })
        })?;
        let offsets = rec.time("tensor.offset_gemm", request, p, || {
            matmul(x.tensor(), &layer.weights().w_offset)
        })?;
        let mut locations = rec.time("model.locations", request, p, || {
            generate_locations(cfg, layer.references(), &offsets, Some(wl.warp()))
        })?;
        let clamped = rec.time("prune.range_clamp", request, p, || match &ranges {
            Some(rc) => clamp_locations(cfg, rc, layer.references(), &mut locations),
            None => Ok(0),
        })?;
        let fmap_mask = std::mem::replace(&mut next_fmap_mask, BitMask::keep_all(n));
        let value = rec.time("tensor.value_gemm", request, p, || {
            matmul_row_masked(x.tensor(), &layer.weights().w_value, fmap_mask.as_bools())
        })?;
        let output = rec.time("model.msgs_sample", request, p, || {
            layer.sample_and_aggregate(&probs, &locations, &value, Some(pmask.as_bools()))
        })?;
        if let Some(fwp) = settings.fwp {
            next_fmap_mask = rec.time("prune.fwp_count", request, p, || -> Res<BitMask> {
                let mut freq = SampleFrequency::new(cfg)?;
                freq.record_all(cfg, &locations, Some(pmask.as_bools()))?;
                Ok(freq.fmap_mask(fwp)?)
            })?;
        }
        stats.record_block(
            &flops,
            (n * ppq) as u64,
            pmask.kept() as u64,
            n as u64,
            fmap_mask.kept() as u64,
            k > 0 && settings.fwp.is_some(),
            clamped,
            mass,
        );
        let next =
            rec.time("model.block_update", request, p, || block_update(x.tensor(), &output))?;
        x = match settings.quant_bits {
            Some(bits) => rec.time("prune.quantize", request, p, || -> Res<FmapPyramid> {
                Ok(FmapPyramid::from_tensor(cfg, fake_quantize(&next, bits)?)?)
            })?,
            None => FmapPyramid::from_tensor(cfg, next)?,
        };
        work.points_sampled += pmask.kept() as u64;
        work.gemm(n, n, d, ppq);
        work.gemm(n, n, d, 2 * ppq);
        work.gemm(fmap_mask.kept(), n, d, d);
    }
    Ok((x.into_tensor(), stats, work))
}

#[cfg(test)]
mod tests {
    use super::*;
    use defa_model::encoder::run_encoder_from;
    use defa_model::workload::RequestGenerator;
    use defa_model::MsdaConfig;
    use defa_prune::pipeline::run_pruned_encoder_from;

    #[test]
    fn staged_replays_are_bit_identical_to_the_library() {
        let gen = RequestGenerator::standard(&MsdaConfig::tiny(), 7).unwrap();
        let rec = Recorder::new();
        let settings = PruneSettings::paper_defaults();
        for id in 0..6 {
            let req = gen.request(id);
            let wl = gen.scenario(req.scenario).unwrap();
            let root = rec.open("request", id, None);
            let (dense_out, dense_work) = dense(wl, &req.fmap, &rec, id, root).unwrap();
            assert_eq!(dense_out, run_encoder_from(wl, &req.fmap).unwrap().final_features);
            let (pruned_out, stats, pruned_work) =
                pruned(wl, &settings, &req.fmap, &rec, id, root).unwrap();
            let lib = run_pruned_encoder_from(wl, &settings, &req.fmap).unwrap();
            assert_eq!(pruned_out, lib.final_features);
            assert_eq!(stats, lib.stats);
            assert!(pruned_work.points_sampled < dense_work.points_sampled);
            assert!(pruned_work.gemm_macs <= dense_work.gemm_macs);
            rec.close(root);
        }
    }
}
