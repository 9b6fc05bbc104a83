//! Faster R-CNN reference point (Fig. 6(a)).

/// COCO detection AP of Faster R-CNN as quoted in Fig. 6(a).
pub const FASTER_RCNN_AP: f32 = 42.0;
