//! Multi-scale feature-map pyramid storage.

use crate::{LevelShape, ModelError, MsdaConfig};
use defa_tensor::Tensor;

/// Flattened multi-scale feature maps, `X ∈ R^{N_in × D}`.
///
/// Levels are stored back to back in token order (finest level first), which
/// is exactly the layout the Deformable DETR family uses and the layout the
/// accelerator's DRAM model streams.
///
/// # Example
///
/// ```
/// use defa_model::{FmapPyramid, MsdaConfig};
/// use defa_tensor::Tensor;
///
/// # fn main() -> Result<(), defa_model::ModelError> {
/// let cfg = MsdaConfig::tiny();
/// let pyramid = FmapPyramid::from_tensor(&cfg, Tensor::zeros([cfg.n_in(), cfg.d_model]))?;
/// assert_eq!(pyramid.token(0)?.len(), cfg.d_model);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FmapPyramid {
    levels: Vec<LevelShape>,
    d: usize,
    data: Tensor,
}

impl FmapPyramid {
    /// Wraps an `[N_in, D]` tensor as a pyramid described by `cfg`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ShapeMismatch`] if the tensor shape does not
    /// equal `[cfg.n_in(), cfg.d_model]`.
    pub fn from_tensor(cfg: &MsdaConfig, data: Tensor) -> Result<Self, ModelError> {
        if data.shape().dims() != [cfg.n_in(), cfg.d_model] {
            return Err(ModelError::ShapeMismatch(format!(
                "fmap tensor {} does not match config [{}, {}]",
                data.shape(),
                cfg.n_in(),
                cfg.d_model
            )));
        }
        Ok(FmapPyramid { levels: cfg.levels.clone(), d: cfg.d_model, data })
    }

    /// Level shapes, finest first.
    pub fn levels(&self) -> &[LevelShape] {
        &self.levels
    }

    /// Number of pyramid levels.
    pub fn n_levels(&self) -> usize {
        self.levels.len()
    }

    /// Hidden dimension `D`.
    pub fn d(&self) -> usize {
        self.d
    }

    /// Total token count `N_in`.
    pub fn n_in(&self) -> usize {
        self.levels.iter().map(LevelShape::pixels).sum()
    }

    /// The flattened `[N_in, D]` tensor.
    pub fn tensor(&self) -> &Tensor {
        &self.data
    }

    /// Consumes the pyramid, returning the flattened tensor.
    pub fn into_tensor(self) -> Tensor {
        self.data
    }

    /// Flat token offset of the first pixel of level `l`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::IndexOutOfRange`] for an invalid level.
    pub fn level_offset(&self, l: usize) -> Result<usize, ModelError> {
        if l >= self.levels.len() {
            return Err(ModelError::IndexOutOfRange {
                what: "level",
                index: l,
                len: self.levels.len(),
            });
        }
        Ok(self.levels[..l].iter().map(LevelShape::pixels).sum())
    }

    /// Pixel vector by flat token index.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Tensor`] if `token >= n_in()`.
    pub fn token(&self, token: usize) -> Result<&[f32], ModelError> {
        Ok(self.data.row(token)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use defa_tensor::rng::TensorRng;

    fn make() -> (MsdaConfig, FmapPyramid) {
        let cfg = MsdaConfig::tiny();
        let mut rng = TensorRng::seed_from(1);
        let t = rng.uniform([cfg.n_in(), cfg.d_model], -1.0, 1.0);
        let p = FmapPyramid::from_tensor(&cfg, t).unwrap();
        (cfg, p)
    }

    #[test]
    fn shape_validation() {
        let cfg = MsdaConfig::tiny();
        assert!(FmapPyramid::from_tensor(&cfg, Tensor::zeros([3, 3])).is_err());
        assert!(FmapPyramid::from_tensor(&cfg, Tensor::zeros([cfg.n_in(), cfg.d_model])).is_ok());
    }

    #[test]
    fn bounds_are_checked() {
        let (cfg, p) = make();
        assert_eq!(p.token(cfg.n_in() - 1).unwrap().len(), cfg.d_model);
        assert!(p.token(cfg.n_in()).is_err());
        assert_eq!(p.level_offset(1).unwrap(), cfg.levels[0].pixels());
        assert!(p.level_offset(2).is_err());
    }

    #[test]
    fn into_tensor_round_trips() {
        let (cfg, p) = make();
        let t = p.clone().into_tensor();
        assert_eq!(t.shape().dims(), &[cfg.n_in(), cfg.d_model]);
    }
}
