//! The byte-stream primitives persisted payloads are written with.
//!
//! The format is a flat little-endian byte stream with length-prefixed
//! sequences — no self-description, no schema evolution: the frame header
//! carries [`crate::store::FORMAT_VERSION`], so a format change simply
//! misses on everything written by older builds.
//!
//! Reading is total: every read is bounds-checked, returning
//! [`DecodeError`] rather than panicking, so a corrupt or truncated
//! object degrades to a cache miss.

/// Error raised when a persisted byte stream cannot be decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError(pub &'static str);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cache decode error: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

type Result<T> = std::result::Result<T, DecodeError>;

/// Append-only little-endian byte stream writer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the writer, returning the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Appends a `u32` little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u128` little-endian.
    pub fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a sequence length prefix.
    pub fn len(&mut self, n: usize) {
        self.u64(n as u64);
    }
}

/// Bounds-checked reader over a persisted byte stream.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Wraps `buf` starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// `true` if every byte has been consumed.
    pub fn is_at_end(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(DecodeError("truncated stream"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool (rejecting values other than 0/1).
    pub fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError("invalid bool")),
        }
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u128`.
    pub fn u128(&mut self) -> Result<u128> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }

    /// Reads a sequence length prefix, sanity-bounded by the remaining
    /// byte count so corrupt lengths fail fast instead of allocating.
    // Not a container length — it consumes a prefix from the stream.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&mut self) -> Result<usize> {
        let n = self.u64()?;
        let remaining = (self.buf.len() - self.pos) as u64;
        if n > remaining {
            return Err(DecodeError("length prefix exceeds stream"));
        }
        Ok(n as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One of everything the writer can append.
    fn sample() -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.bool(true);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.u128(u128::MAX / 3);
        w.len(0);
        w.into_bytes()
    }

    fn read_sample(r: &mut ByteReader) -> Result<()> {
        assert_eq!(r.u8()?, 7);
        assert!(r.bool()?);
        assert_eq!(r.u32()?, 0xDEAD_BEEF);
        assert_eq!(r.u64()?, u64::MAX - 1);
        assert_eq!(r.u128()?, u128::MAX / 3);
        assert_eq!(r.len()?, 0);
        Ok(())
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let bytes = sample();
        let mut r = ByteReader::new(&bytes);
        read_sample(&mut r).unwrap();
        assert!(r.is_at_end());
        for cut in 0..bytes.len() {
            let mut r = ByteReader::new(&bytes[..cut]);
            assert!(read_sample(&mut r).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn corrupt_tags_are_rejected() {
        assert!(ByteReader::new(&[2]).bool().is_err(), "bool is 0 or 1");
        // A length prefix larger than what follows fails before anything
        // is allocated for it.
        let mut w = ByteWriter::new();
        w.len(usize::MAX);
        let bytes = w.into_bytes();
        assert!(ByteReader::new(&bytes).len().is_err());
    }
}
