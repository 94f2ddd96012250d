//! Minimal hand-rolled binary serialization for on-disk trace caches.
//!
//! The workspace builds offline (no serde), so trace files use a tiny
//! length-prefixed little-endian format: a writer that appends primitive
//! values to a byte vector and a cursor-style reader that refuses to read
//! past the end. Every trace file ends with an FNV-1a digest of the
//! preceding bytes so truncated or bit-rotted files are rejected instead
//! of replayed.
//!
//! Reference records use LEB128 variable-length integers
//! (`put_varint` / `get_varint`): seven bits per byte, low group
//! first, the high bit set on every byte but the last. The decoder
//! accepts only the canonical (shortest) encoding of a value, so equal
//! record streams are equal byte strings.

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over `bytes` — the integrity digest appended to trace files.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Append-only primitive writer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    #[must_use]
    pub fn new() -> Writer {
        Writer::default()
    }

    /// Appends a `u8`.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16` (little-endian).
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32` (little-endian).
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` (little-endian).
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends raw bytes (the caller writes their length first).
    pub(crate) fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends the FNV-1a digest of everything written so far and
    /// returns the finished byte vector.
    #[must_use]
    pub fn finish(mut self) -> Vec<u8> {
        let digest = fnv1a(&self.buf);
        self.buf.extend_from_slice(&digest.to_le_bytes());
        self.buf
    }
}

/// Why a trace file was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The file is shorter than a well-formed record requires.
    Truncated,
    /// The trailing FNV-1a digest does not match the contents.
    DigestMismatch,
    /// The magic number or schema version is not the expected one.
    WrongSchema,
    /// A length or enum tag is out of its valid range.
    Malformed,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "trace file truncated"),
            WireError::DigestMismatch => write!(f, "trace file digest mismatch"),
            WireError::WrongSchema => write!(f, "trace file has a different schema version"),
            WireError::Malformed => write!(f, "trace file malformed"),
        }
    }
}

impl std::error::Error for WireError {}

/// Cursor-style primitive reader over a validated byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps `bytes`, first checking the trailing FNV-1a digest; the
    /// digest itself is excluded from the readable range.
    pub fn checked(bytes: &'a [u8]) -> Result<Reader<'a>, WireError> {
        if bytes.len() < 8 {
            return Err(WireError::Truncated);
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(tail.try_into().expect("8-byte tail"));
        if fnv1a(body) != stored {
            return Err(WireError::DigestMismatch);
        }
        Ok(Reader { buf: body, pos: 0 })
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Reads a `u8`.
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u16`.
    pub fn get_u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }

    /// Reads a `u32`.
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a `u64`.
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads `n` raw bytes. A length larger than what is left fails as
    /// [`WireError::Truncated`] before anything is allocated.
    pub(crate) fn get_bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string (length capped at 64 KiB —
    /// trace names are short, anything larger is corruption).
    pub fn get_str(&mut self) -> Result<String, WireError> {
        let len = self.get_u32()? as usize;
        if len > 64 * 1024 {
            return Err(WireError::Malformed);
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Malformed)
    }

    /// Whether every byte has been consumed (trailing garbage is
    /// treated as corruption by callers).
    #[must_use]
    pub fn at_end(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// Longest LEB128 encoding of a `u64`: ten 7-bit groups.
const VARINT_MAX_BYTES: usize = 10;

/// Appends `v` as a LEB128 variable-length integer (1–10 bytes).
#[inline]
pub(crate) fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Reads the LEB128 integer at `*pos` in `bytes` and moves `*pos` past
/// it. Fails as [`WireError::Truncated`] when `bytes` ends inside it and
/// as [`WireError::Malformed`] when it runs past 64 bits or is not the
/// shortest encoding of its value (a zero final byte after others).
#[inline]
pub(crate) fn get_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, WireError> {
    let mut v = 0u64;
    for i in 0..VARINT_MAX_BYTES {
        let b = *bytes.get(*pos + i).ok_or(WireError::Truncated)?;
        if i == VARINT_MAX_BYTES - 1 && b > 1 {
            return Err(WireError::Malformed);
        }
        v |= u64::from(b & 0x7f) << (7 * i);
        if b & 0x80 == 0 {
            if b == 0 && i > 0 {
                return Err(WireError::Malformed);
            }
            *pos += i + 1;
            return Ok(v);
        }
    }
    unreachable!("the tenth byte either ends the varint or is rejected")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_primitives() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u16(0xbeef);
        w.put_u32(0xdead_beef);
        w.put_u64(u64::MAX - 3);
        w.put_str("mcf");
        let bytes = w.finish();
        let mut r = Reader::checked(&bytes).unwrap();
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u16().unwrap(), 0xbeef);
        assert_eq!(r.get_u32().unwrap(), 0xdead_beef);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.get_str().unwrap(), "mcf");
        assert!(r.at_end());
    }

    #[test]
    fn corrupted_byte_is_rejected() {
        let mut w = Writer::new();
        w.put_u64(42);
        let mut bytes = w.finish();
        bytes[3] ^= 1;
        assert_eq!(
            Reader::checked(&bytes).unwrap_err(),
            WireError::DigestMismatch
        );
    }

    #[test]
    fn truncated_file_is_rejected() {
        let mut w = Writer::new();
        w.put_u64(42);
        let bytes = w.finish();
        assert_eq!(
            Reader::checked(&bytes[..bytes.len() - 1]).unwrap_err(),
            WireError::DigestMismatch
        );
        assert_eq!(
            Reader::checked(&bytes[..4]).unwrap_err(),
            WireError::Truncated
        );
        let mut r = Reader::checked(&bytes).unwrap();
        let _ = r.get_u64().unwrap();
        assert!(r.get_u8().is_err());
    }

    #[test]
    fn varints_round_trip_at_every_width() {
        let mut values = vec![0u64, 1, 0x7f, 0x80, 0x3fff, 0x4000, u64::MAX - 1, u64::MAX];
        values.extend((0..64).map(|b| 1u64 << b));
        values.extend((1..64).map(|b| (1u64 << b) - 1));
        for v in values {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let width = (64 - v.leading_zeros()).max(1).div_ceil(7) as usize;
            assert_eq!(buf.len(), width, "v={v:#x}");
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos), Ok(v));
            assert_eq!(pos, buf.len());
            // Every strict prefix ends inside the varint.
            for cut in 0..buf.len() {
                let mut pos = 0;
                assert_eq!(get_varint(&buf[..cut], &mut pos), Err(WireError::Truncated));
            }
        }
    }

    #[test]
    fn overlong_and_non_canonical_varints_are_rejected() {
        // Eleven bytes: past 64 bits.
        let mut long = vec![0xff; 10];
        long.push(0x01);
        assert_eq!(get_varint(&long, &mut 0), Err(WireError::Malformed));
        // A tenth byte carrying more than bit 63.
        let mut wide = vec![0xff; 9];
        wide.push(0x02);
        assert_eq!(get_varint(&wide, &mut 0), Err(WireError::Malformed));
        // Zero written in two bytes, and 1 padded with a zero group.
        assert_eq!(get_varint(&[0x80, 0x00], &mut 0), Err(WireError::Malformed));
        assert_eq!(
            get_varint(&[0x81, 0x80, 0x00], &mut 0),
            Err(WireError::Malformed)
        );
        // A lone zero byte is zero.
        assert_eq!(get_varint(&[0x00], &mut 0), Ok(0));
    }
}
