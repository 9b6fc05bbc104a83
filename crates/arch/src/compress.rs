//! Compression / decompression units (Figure 3).
//!
//! Masked tensors travel between DRAM and the datapath in compressed form:
//! the bit mask plus the surviving payload. These units account the
//! bandwidth saved by shipping only kept entries.

/// Bits on the wire for a masked tensor of `total` entries of
/// `bits_per_entry` bits each, of which `kept` survive.
///
/// The stream carries the mask itself (1 bit per entry) plus the surviving
/// payload.
pub fn compressed_bits(total: u64, kept: u64, bits_per_entry: u64) -> u64 {
    total + kept * bits_per_entry
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compressed_stream_carries_mask_plus_payload() {
        assert_eq!(compressed_bits(100, 40, 12), 100 + 480);
    }
}
