//! Little-endian field decoding for the on-media formats, without a
//! panic: bytes past the end of the buffer read as zero, and the
//! formats' own validity checks reject what such a value means.

/// The little-endian `u64` at `buf[off..off + 8]`.
pub fn u64_at(buf: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(std::array::from_fn(|i| *buf.get(off + i).unwrap_or(&0)))
}

/// The little-endian `u32` at `buf[off..off + 4]`.
pub fn u32_at(buf: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(std::array::from_fn(|i| *buf.get(off + i).unwrap_or(&0)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decodes_in_place_and_zero_fills_past_the_end() {
        let buf = [1u8, 0, 0, 0, 2, 0, 0, 0, 0xff];
        assert_eq!(u32_at(&buf, 0), 1);
        assert_eq!(u32_at(&buf, 4), 2);
        assert_eq!(u64_at(&buf, 0), 1 | 2 << 32);
        assert_eq!(u64_at(&buf, 8), 0xff);
        assert_eq!(u32_at(&buf, 100), 0);
    }
}
