//! Integer linear algebra on quantized tensors.
//!
//! The DEFA datapath is INT12 end to end: activations and weights enter the
//! PE array as integer codes and accumulate in wide registers. This module
//! provides the integer GEMM the hardware actually performs, so the
//! simulator can be checked bit-for-bit against a software integer
//! reference rather than only against fake-quantized `f32`.

use crate::{QTensor, QuantParams, Tensor, TensorError};

/// Integer GEMM: multiplies two quantized matrices with `i64` accumulation
/// and returns the result as `f32` (`acc · scale_a · scale_b`), plus the
/// raw accumulators.
///
/// This mirrors the hardware exactly: INT12 × INT12 products accumulated
/// in a wide register, with one combined scale applied at the output.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] unless `a` is `[m, k]` and `b` is
/// `[k, n]`.
pub fn matmul_q(a: &QTensor, b: &QTensor) -> Result<(Tensor, Vec<i64>), TensorError> {
    if a.shape().rank() != 2 || b.shape().rank() != 2 {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_q",
            lhs: format!("{}", a.shape()),
            rhs: format!("{}", b.shape()),
        });
    }
    let (m, k) = (a.shape().dims()[0], a.shape().dims()[1]);
    let (k2, n) = (b.shape().dims()[0], b.shape().dims()[1]);
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_q",
            lhs: format!("{}", a.shape()),
            rhs: format!("{}", b.shape()),
        });
    }
    let (ac, bc) = (a.codes(), b.codes());
    let mut acc = vec![0i64; m * n];
    for i in 0..m {
        for p in 0..k {
            let aip = ac[i * k + p] as i64;
            if aip == 0 {
                continue;
            }
            for j in 0..n {
                acc[i * n + j] += aip * bc[p * n + j] as i64;
            }
        }
    }
    let scale = a.params().scale() * b.params().scale();
    let data = acc.iter().map(|&v| v as f32 * scale).collect();
    Ok((Tensor::from_vec(data, [m, n])?, acc))
}

/// Quantizes both operands with fitted symmetric scales and multiplies in
/// the integer domain.
///
/// # Errors
///
/// Propagates quantizer-fit and shape errors.
pub fn quantized_matmul(a: &Tensor, b: &Tensor, bits: u8) -> Result<Tensor, TensorError> {
    let qa = QuantParams::fit(a, bits)?.quantize(a);
    let qb = QuantParams::fit(b, bits)?.quantize(b);
    Ok(matmul_q(&qa, &qb)?.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matmul::matmul;
    use crate::rng::TensorRng;

    #[test]
    fn integer_gemm_tracks_float_gemm() {
        let mut rng = TensorRng::seed_from(5);
        let a = rng.uniform([20, 16], -1.0, 1.0);
        let b = rng.uniform([16, 12], -1.0, 1.0);
        let exact = matmul(&a, &b).unwrap();
        let q = quantized_matmul(&a, &b, 12).unwrap();
        let err = q.relative_l2_error(&exact).unwrap();
        assert!(err < 5e-3, "INT12 GEMM error {err}");
    }

    #[test]
    fn int8_is_coarser_than_int12() {
        let mut rng = TensorRng::seed_from(6);
        let a = rng.uniform([16, 16], -1.0, 1.0);
        let b = rng.uniform([16, 16], -1.0, 1.0);
        let exact = matmul(&a, &b).unwrap();
        let e12 = quantized_matmul(&a, &b, 12).unwrap().relative_l2_error(&exact).unwrap();
        let e8 = quantized_matmul(&a, &b, 8).unwrap().relative_l2_error(&exact).unwrap();
        assert!(e8 > e12 * 4.0, "e8={e8} e12={e12}");
    }

    #[test]
    fn integer_gemm_is_exact_in_the_integer_domain() {
        // Values already on the quantization grid multiply exactly.
        let pa = QuantParams::new(1.0, 12).unwrap();
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]).unwrap();
        let qa = pa.quantize(&a);
        let (out, acc) = matmul_q(&qa, &qa).unwrap();
        assert_eq!(acc, vec![7, 10, 15, 22]);
        assert_eq!(out.as_slice(), &[7.0, 10.0, 15.0, 22.0]);
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let p = QuantParams::new(1.0, 12).unwrap();
        let a = p.quantize(&Tensor::zeros([2, 3]));
        let b = p.quantize(&Tensor::zeros([2, 3]));
        assert!(matmul_q(&a, &b).is_err());
        let v = p.quantize(&Tensor::zeros([3]));
        assert!(matmul_q(&v, &b).is_err());
    }
}
