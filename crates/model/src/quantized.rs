//! Integer-domain MSDeformAttn execution.
//!
//! [`crate::reference`] emulates INT-N inference with fake-quantized `f32`
//! arithmetic; this module runs the projections with *real* integer GEMMs
//! ([`defa_tensor::qlinear`]), the way the INT12 PE array computes. The
//! two paths must agree to within accumulation rounding, which the tests
//! check — this is the software golden model for the hardware datapath.

use crate::reference::{generate_locations, LayerOutput, MsdaLayer};
use crate::workload::SaliencyWarp;
use crate::{FmapPyramid, ModelError};
use defa_tensor::qlinear::matmul_q;
use defa_tensor::softmax::softmax_inplace;
use defa_tensor::{QTensor, QuantParams, Tensor};

/// A layer with pre-quantized weights ready for integer execution.
#[derive(Debug, Clone)]
pub struct QuantizedLayer {
    layer: MsdaLayer,
    bits: u8,
    qw_attn: QTensor,
    qw_offset: QTensor,
    qw_value: QTensor,
}

impl QuantizedLayer {
    /// Quantizes a layer's weights to `bits` with fitted symmetric scales.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] for unsupported bit widths.
    pub fn from_layer(layer: &MsdaLayer, bits: u8) -> Result<Self, ModelError> {
        let q = |t: &Tensor| -> Result<QTensor, ModelError> {
            Ok(QuantParams::fit(t, bits)
                .map_err(|e| ModelError::InvalidConfig(e.to_string()))?
                .quantize(t))
        };
        let w = layer.weights();
        Ok(QuantizedLayer {
            layer: layer.clone(),
            bits,
            qw_attn: q(&w.w_attn)?,
            qw_offset: q(&w.w_offset)?,
            qw_value: q(&w.w_value)?,
        })
    }

    /// The quantization bit width.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// The underlying float layer.
    pub fn layer(&self) -> &MsdaLayer {
        &self.layer
    }

    /// Evaluates the layer with integer-GEMM projections.
    ///
    /// Activations are quantized at the layer boundary, multiplied in the
    /// integer domain with wide accumulation, and dequantized once per
    /// output — exactly the PE array's MM-mode arithmetic. Sampling and
    /// aggregation then run on the dequantized values (the BA datapath's
    /// fixed-point error is modeled separately in
    /// `defa_arch::bi_datapath`).
    ///
    /// # Errors
    ///
    /// Propagates shape and quantizer errors.
    pub fn forward(
        &self,
        x: &FmapPyramid,
        warp: Option<&SaliencyWarp>,
    ) -> Result<LayerOutput, ModelError> {
        let cfg = self.layer.config();
        let n = cfg.n_in();
        let quant_err = |e: defa_tensor::TensorError| ModelError::InvalidConfig(e.to_string());
        let qx = QuantParams::fit(x.tensor(), self.bits).map_err(quant_err)?.quantize(x.tensor());

        let (logits, _) = matmul_q(&qx, &self.qw_attn)?;
        let mut probs = logits.clone();
        let lp = cfg.points_per_head();
        for r in 0..n {
            let row = probs.row_mut(r)?;
            for h in 0..cfg.n_heads {
                softmax_inplace(&mut row[h * lp..(h + 1) * lp]);
            }
        }

        let (offsets, _) = matmul_q(&qx, &self.qw_offset)?;
        let locations = generate_locations(cfg, self.layer.references(), &offsets, warp)?;

        let (value, _) = matmul_q(&qx, &self.qw_value)?;
        let output = self.layer.sample_and_aggregate(&probs, &locations, &value, None)?;
        Ok(LayerOutput { logits, probs, offsets, locations, value, output })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Benchmark, SyntheticWorkload};
    use crate::MsdaConfig;

    fn setup() -> (SyntheticWorkload, QuantizedLayer) {
        let cfg = MsdaConfig::tiny();
        let wl = SyntheticWorkload::generate(Benchmark::DeformableDetr, &cfg, 31).unwrap();
        let q = QuantizedLayer::from_layer(wl.layer(0).unwrap(), 12).unwrap();
        (wl, q)
    }

    #[test]
    fn integer_execution_tracks_float_reference() {
        let (wl, q) = setup();
        let float = wl.layer(0).unwrap().forward(wl.initial_fmap(), None).unwrap();
        let int = q.forward(wl.initial_fmap(), None).unwrap();
        let err = int.output.relative_l2_error(&float.output).unwrap();
        assert!(err < 0.05, "INT12 layer error {err}");
    }

    #[test]
    fn int8_diverges_more_than_int12() {
        let (wl, _) = setup();
        let float = wl.layer(0).unwrap().forward(wl.initial_fmap(), None).unwrap();
        let q12 = QuantizedLayer::from_layer(wl.layer(0).unwrap(), 12).unwrap();
        let q8 = QuantizedLayer::from_layer(wl.layer(0).unwrap(), 8).unwrap();
        let e12 = q12
            .forward(wl.initial_fmap(), None)
            .unwrap()
            .output
            .relative_l2_error(&float.output)
            .unwrap();
        let e8 = q8
            .forward(wl.initial_fmap(), None)
            .unwrap()
            .output
            .relative_l2_error(&float.output)
            .unwrap();
        assert!(e8 > e12, "e8={e8} e12={e12}");
    }

    #[test]
    fn integer_path_agrees_with_fake_quantization_closely() {
        // Fake-quantized f32 (the pipeline's emulation) and true integer
        // GEMM differ only by accumulation order; outputs must be close.
        let (wl, q) = setup();
        let layer = wl.layer(0).unwrap();
        let w = layer.weights();
        let fake = crate::reference::MsdaWeights {
            w_attn: QuantParams::fit(&w.w_attn, 12).unwrap().fake_quantize(&w.w_attn),
            w_offset: QuantParams::fit(&w.w_offset, 12).unwrap().fake_quantize(&w.w_offset),
            w_value: QuantParams::fit(&w.w_value, 12).unwrap().fake_quantize(&w.w_value),
        };
        let fake_layer = MsdaLayer::new(layer.config().clone(), fake).unwrap();
        let x = wl.initial_fmap();
        let xq = FmapPyramid::from_tensor(
            layer.config(),
            QuantParams::fit(x.tensor(), 12).unwrap().fake_quantize(x.tensor()),
        )
        .unwrap();
        let emulated = fake_layer.forward(&xq, None).unwrap();
        let integer = q.forward(x, None).unwrap();
        let err = integer.output.relative_l2_error(&emulated.output).unwrap();
        assert!(err < 0.02, "integer vs fake-quant divergence {err}");
    }

    #[test]
    fn warp_applies_in_integer_path_too() {
        let (wl, q) = setup();
        let plain = q.forward(wl.initial_fmap(), None).unwrap();
        let warped = q.forward(wl.initial_fmap(), Some(wl.warp())).unwrap();
        assert_ne!(plain.locations, warped.locations);
    }

    #[test]
    fn unsupported_bits_are_rejected() {
        let (wl, _) = setup();
        assert!(QuantizedLayer::from_layer(wl.layer(0).unwrap(), 1).is_err());
        assert!(QuantizedLayer::from_layer(wl.layer(0).unwrap(), 17).is_err());
    }
}
