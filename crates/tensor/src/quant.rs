//! Symmetric fixed-point quantization.
//!
//! The paper quantizes the MSDeformAttn modules to **INT12** during
//! inference and reports that INT8 costs an unacceptable 9.7 AP on average
//! (§5.2). [`QuantParams`] captures a symmetric per-tensor scheme:
//! `q = clamp(round(x / scale), -2^(bits-1), 2^(bits-1) - 1)`.

use crate::{Tensor, TensorError};

/// Parameters of a symmetric per-tensor quantizer.
///
/// # Example
///
/// ```
/// use defa_tensor::{QuantParams, Tensor};
///
/// # fn main() -> Result<(), defa_tensor::TensorError> {
/// let t = Tensor::from_vec(vec![-1.0, 0.5, 1.0], [3])?;
/// let params = QuantParams::fit(&t, 12)?;
/// let q = params.quantize(&t);
/// assert_eq!(q.codes()[2], 2047); // the extreme maps to qmax
/// let back = params.fake_quantize(&t);
/// assert!(back.relative_l2_error(&t)? < 1e-3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantParams {
    scale: f32,
    bits: u8,
}

impl QuantParams {
    /// Creates quantizer parameters from an explicit scale.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidQuantParams`] if `scale` is not a
    /// positive finite number or `bits` is outside `2..=16`.
    pub fn new(scale: f32, bits: u8) -> Result<Self, TensorError> {
        if !(scale.is_finite() && scale > 0.0) {
            return Err(TensorError::InvalidQuantParams(format!(
                "scale must be positive and finite, got {scale}"
            )));
        }
        if !(2..=16).contains(&bits) {
            return Err(TensorError::InvalidQuantParams(format!(
                "bit width must be in 2..=16, got {bits}"
            )));
        }
        Ok(QuantParams { scale, bits })
    }

    /// Fits a symmetric scale to a tensor so the largest magnitude maps to
    /// the most positive code.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidQuantParams`] for unsupported bit
    /// widths. An all-zero tensor fits a unit scale.
    pub fn fit(t: &Tensor, bits: u8) -> Result<Self, TensorError> {
        let max = t.max_abs();
        let qmax = ((1i32 << (bits.min(16) - 1)) - 1) as f32;
        let scale = if max > 0.0 { max / qmax } else { 1.0 };
        QuantParams::new(scale, bits)
    }

    /// The quantization step size.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// The bit width of the integer codes.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Most negative representable code.
    pub fn qmin(&self) -> i32 {
        -(1i32 << (self.bits - 1))
    }

    /// Most positive representable code.
    pub fn qmax(&self) -> i32 {
        (1i32 << (self.bits - 1)) - 1
    }

    /// Quantizes a single value to its integer code.
    pub fn quantize_value(&self, x: f32) -> i32 {
        let q = (x / self.scale).round() as i64;
        q.clamp(self.qmin() as i64, self.qmax() as i64) as i32
    }

    /// Dequantizes a single code back to `f32`.
    pub fn dequantize_value(&self, q: i32) -> f32 {
        q as f32 * self.scale
    }

    /// Quantizes a whole tensor.
    pub fn quantize(&self, t: &Tensor) -> QTensor {
        let codes = t.as_slice().iter().map(|&x| self.quantize_value(x)).collect();
        QTensor { params: *self, shape: t.shape().clone(), codes }
    }

    /// Quantize–dequantize round trip ("fake quantization"), used by the
    /// functional model to emulate INT-N inference in `f32` arithmetic.
    pub fn fake_quantize(&self, t: &Tensor) -> Tensor {
        let data =
            t.as_slice().iter().map(|&x| self.dequantize_value(self.quantize_value(x))).collect();
        Tensor::from_vec(data, t.shape().clone()).expect("same shape")
    }
}

/// A tensor of integer quantization codes plus its quantizer.
#[derive(Debug, Clone, PartialEq)]
pub struct QTensor {
    params: QuantParams,
    shape: crate::Shape,
    codes: Vec<i32>,
}

impl QTensor {
    /// The quantizer that produced these codes.
    pub fn params(&self) -> QuantParams {
        self.params
    }

    /// Shape of the quantized tensor.
    pub fn shape(&self) -> &crate::Shape {
        &self.shape
    }

    /// The raw integer codes.
    pub fn codes(&self) -> &[i32] {
        &self.codes
    }

    /// Storage footprint in bits (codes only, ignoring metadata).
    pub fn storage_bits(&self) -> u64 {
        self.codes.len() as u64 * self.params.bits as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::TensorRng;

    #[test]
    fn int12_range_is_symmetric() {
        let p = QuantParams::new(0.01, 12).unwrap();
        assert_eq!(p.qmin(), -2048);
        assert_eq!(p.qmax(), 2047);
    }

    #[test]
    fn fit_maps_extreme_to_qmax() {
        let t = Tensor::from_vec(vec![-3.0, 0.0, 1.5], [3]).unwrap();
        let p = QuantParams::fit(&t, 12).unwrap();
        assert_eq!(p.quantize_value(-3.0), -2047);
    }

    #[test]
    fn round_trip_error_bounded_by_half_step() {
        let mut rng = TensorRng::seed_from(42);
        let t = rng.uniform([64, 8], -2.0, 2.0);
        let p = QuantParams::fit(&t, 12).unwrap();
        let back = p.fake_quantize(&t);
        let step = p.scale();
        for (&a, &b) in t.as_slice().iter().zip(back.as_slice()) {
            assert!((a - b).abs() <= step * 0.5 + 1e-7);
        }
    }

    #[test]
    fn int8_is_much_coarser_than_int12() {
        let mut rng = TensorRng::seed_from(1);
        let t = rng.uniform([128, 4], -1.0, 1.0);
        let e12 =
            QuantParams::fit(&t, 12).unwrap().fake_quantize(&t).relative_l2_error(&t).unwrap();
        let e8 = QuantParams::fit(&t, 8).unwrap().fake_quantize(&t).relative_l2_error(&t).unwrap();
        assert!(e8 > e12 * 8.0, "e8={e8} e12={e12}");
    }

    #[test]
    fn zero_tensor_fits_unit_scale() {
        let t = Tensor::zeros([4]);
        let p = QuantParams::fit(&t, 12).unwrap();
        assert_eq!(p.scale(), 1.0);
        assert_eq!(p.quantize_value(0.0), 0);
    }

    #[test]
    fn clamps_out_of_range_values() {
        let p = QuantParams::new(1.0, 4).unwrap();
        assert_eq!(p.quantize_value(100.0), 7);
        assert_eq!(p.quantize_value(-100.0), -8);
    }

    #[test]
    fn rejects_bad_params() {
        assert!(QuantParams::new(0.0, 12).is_err());
        assert!(QuantParams::new(f32::NAN, 12).is_err());
        assert!(QuantParams::new(1.0, 1).is_err());
        assert!(QuantParams::new(1.0, 17).is_err());
    }

    #[test]
    fn storage_bits_counts_codes() {
        let t = Tensor::zeros([10]);
        let q = QuantParams::fit(&t, 12).unwrap().quantize(&t);
        assert_eq!(q.storage_bits(), 120);
    }
}
