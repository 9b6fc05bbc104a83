//! Tensor shapes and row-major index arithmetic.

use crate::TensorError;
use std::fmt;

/// A tensor shape of rank 1..=4, stored inline.
///
/// Shapes are row-major: the last axis varies fastest. Rank-0 shapes are not
/// supported; scalars are represented by plain `f32` throughout the
/// workspace.
///
/// # Example
///
/// ```
/// use defa_tensor::Shape;
///
/// let s = Shape::from([3, 4]);
/// assert_eq!(s.volume(), 12);
/// assert_eq!(s.strides(), vec![4, 1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Creates a shape from a slice of axis lengths.
    ///
    /// # Panics
    ///
    /// Panics if `dims` is empty or longer than 4 axes; the workspace never
    /// needs higher ranks and keeping the bound tight catches bugs early.
    pub fn new(dims: &[usize]) -> Self {
        assert!(
            !dims.is_empty() && dims.len() <= 4,
            "shape rank must be 1..=4, got {}",
            dims.len()
        );
        Shape { dims: dims.to_vec() }
    }

    /// Number of axes.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Axis lengths.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Total number of elements.
    pub fn volume(&self) -> usize {
        self.dims.iter().product()
    }

    /// Row-major strides (in elements).
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1; self.dims.len()];
        for i in (0..self.dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.dims[i + 1];
        }
        strides
    }

    /// Flat row-major offset of a multi-index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if any coordinate exceeds
    /// its axis length, and [`TensorError::ShapeMismatch`] if the index rank
    /// differs from the shape rank.
    pub fn offset(&self, index: &[usize]) -> Result<usize, TensorError> {
        if index.len() != self.rank() {
            return Err(TensorError::ShapeMismatch {
                op: "offset",
                lhs: format!("{self}"),
                rhs: format!("{index:?}"),
            });
        }
        let strides = self.strides();
        let mut off = 0;
        for ((&i, &d), &s) in index.iter().zip(&self.dims).zip(&strides) {
            if i >= d {
                return Err(TensorError::IndexOutOfBounds { index: i, len: d });
            }
            off += i * s;
        }
        Ok(off)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.dims)
    }
}

impl From<usize> for Shape {
    fn from(n: usize) -> Self {
        Shape::new(&[n])
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape::new(&dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volume_and_strides_match_row_major_layout() {
        let s = Shape::from([2, 3, 4]);
        assert_eq!(s.volume(), 24);
        assert_eq!(s.strides(), vec![12, 4, 1]);
    }

    #[test]
    fn rank_one_shape_has_unit_stride() {
        let s = Shape::from(7);
        assert_eq!(s.rank(), 1);
        assert_eq!(s.strides(), vec![1]);
        assert_eq!(s.volume(), 7);
    }

    #[test]
    fn offset_walks_row_major() {
        let s = Shape::from([2, 3]);
        assert_eq!(s.offset(&[0, 0]).unwrap(), 0);
        assert_eq!(s.offset(&[0, 2]).unwrap(), 2);
        assert_eq!(s.offset(&[1, 0]).unwrap(), 3);
        assert_eq!(s.offset(&[1, 2]).unwrap(), 5);
    }

    #[test]
    fn offset_rejects_out_of_bounds() {
        let s = Shape::from([2, 3]);
        assert!(matches!(
            s.offset(&[2, 0]),
            Err(TensorError::IndexOutOfBounds { index: 2, len: 2 })
        ));
    }

    #[test]
    fn offset_rejects_rank_mismatch() {
        let s = Shape::from([2, 3]);
        assert!(matches!(s.offset(&[1]), Err(TensorError::ShapeMismatch { .. })));
    }

    #[test]
    #[should_panic(expected = "shape rank")]
    fn empty_shape_panics() {
        let _ = Shape::new(&[]);
    }

    #[test]
    fn zero_length_axis_gives_zero_volume() {
        let s = Shape::from([3, 0]);
        assert_eq!(s.volume(), 0);
    }
}
