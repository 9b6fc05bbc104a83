//! Bit-accurate model of the BI operator datapath (§4.3, Eq. 4).
//!
//! The reconfigurable PE array's BI operator evaluates the factored
//! bilinear form
//!
//! ```text
//! S = N0 + (N2 − N0)·t0 + [(N1 − N0) + (N3 − N2 − N1 + N0)·t0]·t1
//! ```
//!
//! with **three multipliers and seven adders** on fixed-point operands.
//! This module reproduces that datapath operation-for-operation on
//! [`Fixed`] values, counting the arithmetic so tests can verify both the
//! numerics (against the `f32` reference within quantization error) and
//! the §4.3 resource claim.

use defa_tensor::Fixed;

/// Fractional bits of the interpolation coefficients `t0`, `t1` (the
/// sub-pixel position resolution of the sampling address path).
pub const COEFF_FRAC_BITS: u8 = 8;

/// Result of one BI-operator evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BiResult {
    /// Interpolated sample in the datapath's fixed-point format.
    pub value: Fixed,
    /// Multiplications performed (must be 3).
    pub multiplies: u32,
    /// Additions/subtractions performed (must be 7).
    pub adds: u32,
}

/// Evaluates Eq. 4 exactly as the hardware does.
///
/// `neighbors` are the pixel values `N0..N3` (top-left, top-right,
/// bottom-left, bottom-right) in the same fixed-point format; `t0`/`t1`
/// are the fractional offsets in `COEFF_FRAC_BITS` format.
///
/// # Panics
///
/// Panics if the four neighbors use different fixed-point formats (a
/// datapath wiring bug, not a data condition).
pub fn interpolate(neighbors: [Fixed; 4], t0: Fixed, t1: Fixed) -> BiResult {
    let [n0, n1, n2, n3] = neighbors;
    let frac = n0.frac();
    assert!(
        n1.frac() == frac && n2.frac() == frac && n3.frac() == frac,
        "neighbor format mismatch"
    );
    // Promote coefficients into the value format for the multiplies.
    let t0v = Fixed::from_raw(t0.raw() << (frac.saturating_sub(t0.frac())), frac);
    let t1v = Fixed::from_raw(t1.raw() << (frac.saturating_sub(t1.frac())), frac);

    // Adders (7): the four difference terms plus three accumulations.
    let d20 = n2 - n0; //               add 1
    let d10 = n1 - n0; //               add 2
    let d32 = n3 - n2; //               add 3
    let dxx = d32 - d10; //             add 4: N3 − N2 − N1 + N0
                         // Multipliers (3):
    let m1 = dxx * t0v; //              mul 1
    let inner = d10 + m1; //            add 5
    let m2 = inner * t1v; //            mul 2
    let m3 = d20 * t0v; //              mul 3
    let s = n0 + m3; //                 add 6
    let value = s + m2; //              add 7

    BiResult { value, multiplies: 3, adds: 7 }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Interpolates `f32` inputs through the fixed-point datapath.
    fn interpolate_f32(neighbors: [f32; 4], t0: f32, t1: f32, value_frac: u8) -> f32 {
        let n = neighbors.map(|v| Fixed::from_f32(v, value_frac));
        let t0 = Fixed::from_f32(t0, COEFF_FRAC_BITS);
        let t1 = Fixed::from_f32(t1, COEFF_FRAC_BITS);
        interpolate(n, t0, t1).value.to_f32()
    }

    fn reference(n: [f32; 4], t0: f32, t1: f32) -> f32 {
        n[0] * (1.0 - t1) * (1.0 - t0)
            + n[1] * t1 * (1.0 - t0)
            + n[2] * (1.0 - t1) * t0
            + n[3] * t1 * t0
    }

    #[test]
    fn uses_exactly_three_multipliers_and_seven_adders() {
        let n = [1.0, 2.0, 3.0, 4.0].map(|v| Fixed::from_f32(v, 10));
        let r = interpolate(
            n,
            Fixed::from_f32(0.5, COEFF_FRAC_BITS),
            Fixed::from_f32(0.25, COEFF_FRAC_BITS),
        );
        assert_eq!(r.multiplies, 3);
        assert_eq!(r.adds, 7);
    }

    #[test]
    fn matches_float_reference_within_quantization_error() {
        let cases = [
            ([0.0, 1.0, 10.0, 11.0], 0.5, 0.5),
            ([3.0, -2.0, 7.5, 0.25], 0.1, 0.9),
            ([-1.5, 2.25, 0.0, 4.75], 0.33, 0.77),
            ([5.0, 5.0, 5.0, 5.0], 0.9, 0.1),
        ];
        for (n, t0, t1) in cases {
            let hw = interpolate_f32(n, t0, t1, 10);
            let sw = reference(n, t0, t1);
            // Value grid 2^-10 plus coefficient grid 2^-8 round-off.
            assert!((hw - sw).abs() < 0.05, "{n:?} t0={t0} t1={t1}: hw {hw} sw {sw}");
        }
    }

    #[test]
    fn corner_coefficients_select_corner_pixels() {
        let n = [1.0f32, 2.0, 3.0, 4.0];
        assert!((interpolate_f32(n, 0.0, 0.0, 10) - 1.0).abs() < 1e-2);
        assert!((interpolate_f32(n, 0.0, 1.0, 10) - 2.0).abs() < 1e-2);
        assert!((interpolate_f32(n, 1.0, 0.0, 10) - 3.0).abs() < 1e-2);
        assert!((interpolate_f32(n, 1.0, 1.0, 10) - 4.0).abs() < 1e-2);
    }

    #[test]
    fn constant_field_is_invariant() {
        let v = interpolate_f32([7.0; 4], 0.37, 0.61, 10);
        assert!((v - 7.0).abs() < 1e-2);
    }

    #[test]
    #[should_panic(expected = "format mismatch")]
    fn mixed_neighbor_formats_panic() {
        let n = [
            Fixed::from_f32(1.0, 10),
            Fixed::from_f32(1.0, 8),
            Fixed::from_f32(1.0, 10),
            Fixed::from_f32(1.0, 10),
        ];
        let _ = interpolate(n, Fixed::from_f32(0.5, 8), Fixed::from_f32(0.5, 8));
    }
}
