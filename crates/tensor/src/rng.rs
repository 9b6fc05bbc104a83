//! Deterministic random tensor generation.
//!
//! Every synthetic workload in the workspace is seeded, so experiments are
//! exactly reproducible run to run. [`TensorRng`] wraps a small, fast PRNG
//! (xoshiro256++, seeded via SplitMix64 — self-contained so the workspace
//! builds without the `rand` crate) and offers the distributions the
//! workload generator needs: uniform, Gaussian (Box–Muller), and a
//! heavy-tailed "popularity" distribution used to emulate the non-uniform
//! pixel-access statistics the paper observes.

use crate::{Shape, Tensor};

/// One SplitMix64 step from `state`: adds the golden-gamma increment and
/// applies the finalizer (public domain construction by Steele et al.).
///
/// This doubles as the workspace's keyed hash — callers that need a
/// deterministic, well-mixed value per `(seed, index)` pair fold the key
/// into `state` and take one step, without carrying generator state.
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256++ state (<https://prng.di.unimi.it/>), public domain
/// construction by Blackman & Vigna.
#[derive(Debug, Clone)]
struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Expands a 64-bit seed into full state with SplitMix64, the
    /// recommended seeding procedure for the xoshiro family.
    fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            let out = splitmix64(sm);
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            out
        };
        Xoshiro256pp { s: [next(), next(), next(), next()] }
    }

    fn next_u64(&mut self) -> u64 {
        let out = self.s[0].wrapping_add(self.s[3]).rotate_left(23).wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        out
    }

    /// Uniform `f32` in `[0, 1)` from the top 24 bits.
    fn next_f32(&mut self) -> f32 {
        ((self.next_u64() >> 40) as f32) * (1.0 / (1u32 << 24) as f32)
    }
}

/// Seeded random generator producing tensors and common scalar draws.
///
/// # Example
///
/// ```
/// use defa_tensor::rng::TensorRng;
///
/// let mut rng = TensorRng::seed_from(1);
/// let t = rng.uniform([2, 2], 0.0, 1.0);
/// assert!(t.as_slice().iter().all(|&x| (0.0..1.0).contains(&x)));
/// ```
#[derive(Debug, Clone)]
pub struct TensorRng {
    rng: Xoshiro256pp,
}

impl TensorRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        TensorRng { rng: Xoshiro256pp::seed_from_u64(seed) }
    }

    /// Uniform scalar in `[lo, hi)`.
    pub fn uniform_value(&mut self, lo: f32, hi: f32) -> f32 {
        let v = lo + (hi - lo) * self.rng.next_f32();
        // Float rounding can land exactly on `hi`; fold back to keep the
        // half-open contract.
        if v < hi || hi <= lo {
            v
        } else {
            lo
        }
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot draw an index from an empty range");
        (self.rng.next_u64() % n as u64) as usize
    }

    /// Standard normal scalar via Box–Muller.
    pub fn normal_value(&mut self) -> f32 {
        let u1 = self.rng.next_f32().max(f32::EPSILON);
        let u2 = self.rng.next_f32();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
    }

    /// Tensor of i.i.d. uniform values in `[lo, hi)`.
    pub fn uniform(&mut self, shape: impl Into<Shape>, lo: f32, hi: f32) -> Tensor {
        let shape = shape.into();
        let data = (0..shape.volume()).map(|_| self.uniform_value(lo, hi)).collect();
        Tensor::from_vec(data, shape).expect("volume matches by construction")
    }

    /// Tensor of i.i.d. `N(mean, std²)` values.
    pub fn normal(&mut self, shape: impl Into<Shape>, mean: f32, std: f32) -> Tensor {
        let shape = shape.into();
        let data = (0..shape.volume()).map(|_| mean + std * self.normal_value()).collect();
        Tensor::from_vec(data, shape).expect("volume matches by construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = TensorRng::seed_from(99);
        let mut b = TensorRng::seed_from(99);
        assert_eq!(a.uniform([8], 0.0, 1.0), b.uniform([8], 0.0, 1.0));
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = TensorRng::seed_from(1);
        let mut b = TensorRng::seed_from(2);
        assert_ne!(a.uniform([8], 0.0, 1.0), b.uniform([8], 0.0, 1.0));
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = TensorRng::seed_from(5);
        let t = rng.uniform([1000], -0.5, 0.5);
        assert!(t.as_slice().iter().all(|&x| (-0.5..0.5).contains(&x)));
    }

    #[test]
    fn normal_has_plausible_moments() {
        let mut rng = TensorRng::seed_from(7);
        let t = rng.normal([10_000], 1.0, 2.0);
        let mean: f32 = t.as_slice().iter().sum::<f32>() / 10_000.0;
        let var: f32 =
            t.as_slice().iter().map(|&x| (x - mean) * (x - mean)).sum::<f32>() / 10_000.0;
        assert!((mean - 1.0).abs() < 0.1, "mean={mean}");
        assert!((var - 4.0).abs() < 0.3, "var={var}");
    }

    #[test]
    fn index_covers_range() {
        let mut rng = TensorRng::seed_from(19);
        let mut seen = [false; 8];
        for _ in 0..256 {
            seen[rng.index(8)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
