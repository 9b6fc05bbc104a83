//! Bilinear interpolation (the BI kernel of MSGS).
//!
//! Sampling locations are continuous pixel coordinates; the value at a
//! fractional point `S = (x, y)` is blended from its four integer neighbors
//! `N0..N3` (Eq. 3 of the paper). Out-of-range neighbors contribute zero,
//! matching `grid_sample(..., padding_mode="zeros")` in the official
//! implementation.
//!
//! The tap decode is call-free. On the x86-64 baseline target (no SSE4.1
//! `roundss`), `f32::floor` lowers to a call to libm's `floorf`; every
//! xmm register is caller-saved, so that call spilled whatever
//! accumulators a sampling or counting kernel kept in registers.
//! [`Footprint::at`] therefore uses the crate's own `floor`, which is
//! bit-identical to `f32::floor` on every input (NaN payloads included),
//! and [`Footprint::in_bounds`] checks bounds with one unsigned compare per
//! axis.

use crate::LevelShape;

/// One integer neighbor touched by a bilinear sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Column of the neighbor pixel.
    pub x: i64,
    /// Row of the neighbor pixel.
    pub y: i64,
    /// Interpolation weight in `[0, 1]`.
    pub weight: f32,
}

/// The ≤4 integer pixels a sample touches, with their weights.
///
/// Neighbors are reported in the paper's `N0..N3` order: top-left,
/// top-right, bottom-left, bottom-right. Out-of-bounds neighbors are still
/// listed (the hardware address generator computes them before the bounds
/// check) but carry `in_bounds == false`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Footprint {
    /// The four corner neighbors.
    pub neighbors: [Neighbor; 4],
    /// Fractional row offset `t0 = y − y0`.
    pub t0: f32,
    /// Fractional column offset `t1 = x − x0`.
    pub t1: f32,
}

/// `f32::floor` without the libm call, bit for bit.
///
/// Below `2²³` in magnitude an `f32` may have a fractional part. Adding
/// and subtracting `±2²³` there rounds it to the nearest integer exactly
/// (the sum's unit in the last place is 1), a step down fixes the values
/// that rounded up, and `copysign` restores the sign of `-0.0`; all of it
/// stays in float registers, with no conversion or saturation check. At or
/// above `2²³` every finite value is already integral; it, the infinities
/// and every NaN (signalling ones included, payload and all) come back
/// unchanged, as they do from glibc's `floorf`.
#[inline(always)]
pub(crate) fn floor(x: f32) -> f32 {
    const INTEGRAL_FROM: f32 = 8_388_608.0; // 2^23
    if x.abs() < INTEGRAL_FROM {
        let c = INTEGRAL_FROM.copysign(x);
        let r = (x + c) - c;
        let f = if r > x { r - 1.0 } else { r };
        f.copysign(x)
    } else {
        x
    }
}

impl Footprint {
    /// Computes the footprint of a sample at continuous `(x, y)`.
    #[inline]
    pub fn at(x: f32, y: f32) -> Self {
        let x0 = floor(x);
        let y0 = floor(y);
        let t1 = x - x0;
        let t0 = y - y0;
        let (x0, y0) = (x0 as i64, y0 as i64);
        let neighbors = [
            Neighbor { x: x0, y: y0, weight: (1.0 - t1) * (1.0 - t0) },
            Neighbor { x: x0 + 1, y: y0, weight: t1 * (1.0 - t0) },
            Neighbor { x: x0, y: y0 + 1, weight: (1.0 - t1) * t0 },
            Neighbor { x: x0 + 1, y: y0 + 1, weight: t1 * t0 },
        ];
        Footprint { neighbors, t0, t1 }
    }

    /// Neighbors that fall inside a level of the given shape.
    #[inline]
    pub fn in_bounds(&self, shape: LevelShape) -> impl Iterator<Item = Neighbor> + '_ {
        self.neighbors.iter().copied().filter(move |n| n.inside(shape))
    }
}

impl Neighbor {
    /// Whether the pixel lies inside a level of the given shape. A negative
    /// coordinate wraps to a huge `u64`, so one unsigned compare per axis
    /// also rejects it.
    #[inline(always)]
    pub(crate) fn inside(&self, shape: LevelShape) -> bool {
        (self.x as u64) < shape.w as u64 && (self.y as u64) < shape.h as u64
    }
}

/// Bilinearly samples a `D`-channel value from a level stored row-major as
/// `rows × cols` pixel vectors, accumulating `weight * sample` into `out`.
///
/// `level_data` must contain `shape.pixels() * d` contiguous values
/// (pixel-major). Out-of-bounds neighbors contribute zero.
///
/// # Panics
///
/// Panics in debug builds if `out.len() != d` or the level slice is too
/// short; callers inside this workspace always pass conforming slices.
pub fn sample_accumulate(
    level_data: &[f32],
    shape: LevelShape,
    d: usize,
    x: f32,
    y: f32,
    weight: f32,
    out: &mut [f32],
) {
    debug_assert_eq!(out.len(), d);
    debug_assert!(level_data.len() >= shape.pixels() * d);
    let fp = Footprint::at(x, y);
    for n in fp.in_bounds(shape) {
        if n.weight == 0.0 {
            continue;
        }
        let base = (n.y as usize * shape.w + n.x as usize) * d;
        let px = &level_data[base..base + d];
        let w = weight * n.weight;
        for (o, &v) in out.iter_mut().zip(px) {
            *o += w * v;
        }
    }
}

/// Bilinearly samples a value, returning a freshly allocated vector.
pub fn sample(level_data: &[f32], shape: LevelShape, d: usize, x: f32, y: f32) -> Vec<f32> {
    let mut out = vec![0.0; d];
    sample_accumulate(level_data, shape, d, x, y, 1.0, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: LevelShape = LevelShape { h: 3, w: 4 };

    /// Single-channel level: value = 10*y + x for easy hand computation.
    fn level() -> Vec<f32> {
        let mut v = Vec::new();
        for y in 0..3 {
            for x in 0..4 {
                v.push((10 * y + x) as f32);
            }
        }
        v
    }

    #[test]
    fn integer_points_return_exact_pixels() {
        let data = level();
        assert_eq!(sample(&data, SHAPE, 1, 2.0, 1.0), vec![12.0]);
        assert_eq!(sample(&data, SHAPE, 1, 0.0, 0.0), vec![0.0]);
    }

    #[test]
    fn midpoint_averages_four_neighbors() {
        let data = level();
        // Neighbors of (0.5, 0.5): 0, 1, 10, 11 -> mean 5.5.
        assert_eq!(sample(&data, SHAPE, 1, 0.5, 0.5), vec![5.5]);
    }

    #[test]
    fn linear_field_is_reproduced_exactly() {
        let data = level();
        // The field is linear in x and y, so BI must reproduce it anywhere inside.
        for &(x, y) in &[(1.25, 0.75), (2.9, 1.1), (0.0, 1.9)] {
            let got = sample(&data, SHAPE, 1, x, y)[0];
            assert!((got - (10.0 * y + x)).abs() < 1e-5, "({x},{y}) got {got}");
        }
    }

    #[test]
    fn out_of_bounds_contributes_zero() {
        let data = level();
        // x = -0.5: left neighbors are out of bounds, half the mass is lost.
        let got = sample(&data, SHAPE, 1, -0.5, 0.0)[0];
        assert_eq!(got, 0.0 * 0.5 + 0.0); // only N1 (0,0)=0 contributes with w=0.5
        let far = sample(&data, SHAPE, 1, 100.0, 100.0)[0];
        assert_eq!(far, 0.0);
    }

    #[test]
    fn weights_sum_to_one_inside() {
        let fp = Footprint::at(1.3, 0.6);
        let sum: f32 = fp.neighbors.iter().map(|n| n.weight).sum();
        assert!((sum - 1.0).abs() < 1e-6);
    }

    #[test]
    fn footprint_order_is_n0_to_n3() {
        let fp = Footprint::at(1.25, 2.5);
        assert_eq!((fp.neighbors[0].x, fp.neighbors[0].y), (1, 2));
        assert_eq!((fp.neighbors[1].x, fp.neighbors[1].y), (2, 2));
        assert_eq!((fp.neighbors[2].x, fp.neighbors[2].y), (1, 3));
        assert_eq!((fp.neighbors[3].x, fp.neighbors[3].y), (2, 3));
    }

    #[test]
    fn multichannel_samples_each_channel() {
        // 2 channels: ch0 = x, ch1 = y over a 2x2 level.
        let shape = LevelShape::new(2, 2);
        let data = vec![
            0.0, 0.0, // (0,0)
            1.0, 0.0, // (0,1)
            0.0, 1.0, // (1,0)
            1.0, 1.0, // (1,1)
        ];
        let s = sample(&data, shape, 2, 0.25, 0.75);
        assert!((s[0] - 0.25).abs() < 1e-6);
        assert!((s[1] - 0.75).abs() < 1e-6);
    }

    /// Inputs where a hand-written floor goes wrong first: signed zeros,
    /// subnormals, halves, the `2²³` integral boundary, the `i32` range
    /// ends, infinities and NaNs of both kinds, signs and payloads.
    fn floor_edge_set() -> Vec<f32> {
        let two23 = 8_388_608.0f32;
        let two31 = 2_147_483_648.0f32;
        let next_up = |v: f32| f32::from_bits(v.to_bits() + 1);
        let next_down = |v: f32| f32::from_bits(v.to_bits() - 1);
        let mut v = vec![
            0.0,
            f32::from_bits(1),           // smallest subnormal
            f32::from_bits(0x007f_ffff), // largest subnormal
            f32::MIN_POSITIVE,
            0.5,
            next_down(0.5),
            next_up(0.5),
            next_down(1.0),
            1.0,
            next_up(1.0),
            1.5,
            2.5,
            next_down(two23),
            two23 - 0.5,
            two23,
            next_up(two23),
            two23 + 1.0,
            next_down(two31),
            two31,
            next_up(two31),
            f32::MAX,
            f32::INFINITY,
            f32::from_bits(0x7fc0_0000), // quiet NaN
            f32::from_bits(0x7fc1_2345), // quiet NaN with payload
            f32::from_bits(0x7f80_0001), // signalling NaN
            f32::from_bits(0x7fa0_beef), // signalling NaN with payload
        ];
        let negated: Vec<f32> =
            v.iter().map(|x| f32::from_bits(x.to_bits() ^ 0x8000_0000)).collect();
        v.extend(negated);
        v
    }

    #[test]
    fn floor_matches_std_on_the_edge_set_bit_for_bit() {
        for x in floor_edge_set() {
            let x = std::hint::black_box(x);
            assert_eq!(
                floor(x).to_bits(),
                x.floor().to_bits(),
                "floor({x:e}) bits {:#010x}",
                x.to_bits()
            );
        }
    }

    /// Every one of the 2³² bit patterns; run with
    /// `cargo test --release -p defa-model -- --ignored`.
    #[test]
    #[ignore = "exhaustive: 2^32 inputs, seconds in release, minutes in debug"]
    fn floor_matches_std_on_every_bit_pattern() {
        for bits in 0..=u32::MAX {
            let x = std::hint::black_box(f32::from_bits(bits));
            assert_eq!(floor(x).to_bits(), x.floor().to_bits(), "bits {bits:#010x}");
        }
    }

    #[test]
    fn accumulate_adds_scaled_contribution() {
        let data = level();
        let mut out = vec![100.0];
        sample_accumulate(&data, SHAPE, 1, 2.0, 1.0, 0.5, &mut out);
        assert_eq!(out[0], 100.0 + 6.0);
    }
}
