//! Compact binary packing of bag words, ids and lengths.
//!
//! The persistent decomposition store frames witnesses as
//! [`ArenaSnapshot`](crate::arena::ArenaSnapshot)s (every distinct bag
//! once, flat words) plus dense node tables. On disk the raw `u64` words
//! would waste most of their bytes: bag bitsets over small-to-medium
//! universes are sparse in their *high* words (usually all zero past the
//! first), and ids/lengths are tiny. This module provides the shared
//! byte-level encoding:
//!
//! - LEB128 **varints** for lengths, ids, and words (a zero word is one
//!   byte, a dense low word at most ten);
//! - **zigzag** mapping for the few signed values (evaluator depths).
//!
//! Decoders never panic on malformed input: every `get_*` returns
//! `None`/`Option` on truncation or overflow, so a corrupt store record
//! is rejected, not trusted.

/// Appends `v` as an LEB128 varint (1–10 bytes).
#[inline]
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads an LEB128 varint at `*pos`, advancing it. `None` on truncation
/// or a value that overflows 64 bits.
#[inline]
pub fn get_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *buf.get(*pos)?;
        *pos += 1;
        if shift == 63 && byte > 1 {
            return None; // would overflow u64
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
        if shift > 63 {
            return None;
        }
    }
}

/// Appends a signed value zigzag-mapped to a varint.
#[inline]
pub fn put_zigzag(out: &mut Vec<u8>, v: i64) {
    put_varint(out, ((v << 1) ^ (v >> 63)) as u64);
}

/// Reads a zigzag varint at `*pos`, advancing it.
#[inline]
pub fn get_zigzag(buf: &[u8], pos: &mut usize) -> Option<i64> {
    let raw = get_varint(buf, pos)?;
    Some(((raw >> 1) as i64) ^ -((raw & 1) as i64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip_edges() {
        let mut out = Vec::new();
        let values = [0, 1, 127, 128, 300, u32::MAX as u64, u64::MAX / 2, u64::MAX];
        for &v in &values {
            out.clear();
            put_varint(&mut out, v);
            let mut pos = 0;
            assert_eq!(get_varint(&out, &mut pos), Some(v));
            assert_eq!(pos, out.len());
        }
    }

    #[test]
    fn zigzag_roundtrip() {
        let mut out = Vec::new();
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            out.clear();
            put_zigzag(&mut out, v);
            let mut pos = 0;
            assert_eq!(get_zigzag(&out, &mut pos), Some(v));
        }
    }

    #[test]
    fn truncated_and_overflowing_varints_are_rejected() {
        // Truncation: a continuation bit with nothing after it.
        let mut pos = 0;
        assert_eq!(get_varint(&[0x80], &mut pos), None);
        // Overflow: eleven continuation bytes.
        let mut pos = 0;
        assert_eq!(get_varint(&[0xff; 11], &mut pos), None);
        // 2^64 exactly (ten bytes, top byte 2) overflows.
        let mut pos = 0;
        let buf = [0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02];
        assert_eq!(get_varint(&buf, &mut pos), None);
    }
}
