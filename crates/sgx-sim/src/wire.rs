//! Minimal explicit binary codec used for every on-the-wire and
//! MAC-/signature-covered structure in the workspace.
//!
//! A security protocol wants a deterministic, length-prefixed, explicit
//! encoding — not a general serialization framework — so structures encode
//! themselves field by field through [`WireWriter`] and decode through
//! [`WireReader`]. All integers are little-endian; variable-length byte
//! strings carry a `u32` length prefix.

use crate::error::SgxError;

/// Builds a byte buffer field by field.
///
/// # Example
///
/// ```
/// use sgx_sim::wire::{WireReader, WireWriter};
///
/// let mut w = WireWriter::new();
/// w.u32(7).bytes(b"payload");
/// let buf = w.finish();
///
/// let mut r = WireReader::new(&buf);
/// assert_eq!(r.u32().unwrap(), 7);
/// assert_eq!(r.bytes().unwrap(), b"payload");
/// assert!(r.finish().is_ok());
/// ```
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> Self {
        WireWriter { buf: Vec::new() }
    }

    /// Creates an empty writer with `capacity` bytes pre-reserved, for
    /// encoders that know the final frame length up front (batch
    /// containers, padded cells) and want a single allocation.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        WireWriter {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Continues writing at the end of `buf` (a caller that reserved a
    /// header, or sized the buffer for what follows, keeps its
    /// allocation).
    #[must_use]
    pub fn from_vec(buf: Vec<u8>) -> Self {
        WireWriter { buf }
    }

    /// Appends a single byte.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Appends a little-endian u32.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a little-endian u64.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a length-prefixed byte string (`u32` length).
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.u32(u32::try_from(v.len()).expect("wire byte strings are < 4 GiB"));
        self.buf.extend_from_slice(v);
        self
    }

    /// Appends a fixed-size array *without* a length prefix.
    pub fn array<const N: usize>(&mut self, v: &[u8; N]) -> &mut Self {
        self.buf.extend_from_slice(v);
        self
    }

    /// Returns the encoded buffer.
    #[must_use]
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// The buffer written so far, for in-place transforms of its tail
    /// (a message encoded behind its length prefix and then sealed
    /// where it lies).
    pub fn as_mut_vec(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }

    /// Current encoded length in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Reads a byte buffer field by field, validating lengths.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Creates a reader over `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SgxError> {
        if self.buf.len() - self.pos < n {
            return Err(SgxError::Decode);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads a single byte.
    ///
    /// # Errors
    ///
    /// Returns [`SgxError::Decode`] on underflow.
    pub fn u8(&mut self) -> Result<u8, SgxError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian u32.
    ///
    /// # Errors
    ///
    /// Returns [`SgxError::Decode`] on underflow.
    pub fn u32(&mut self) -> Result<u32, SgxError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a little-endian u64.
    ///
    /// # Errors
    ///
    /// Returns [`SgxError::Decode`] on underflow.
    pub fn u64(&mut self) -> Result<u64, SgxError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a length-prefixed byte string.
    ///
    /// # Errors
    ///
    /// Returns [`SgxError::Decode`] on underflow or an oversized length.
    pub fn bytes(&mut self) -> Result<&'a [u8], SgxError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Reads a length-prefixed byte string into an owned vector.
    ///
    /// # Errors
    ///
    /// Returns [`SgxError::Decode`] on underflow.
    pub fn bytes_vec(&mut self) -> Result<Vec<u8>, SgxError> {
        Ok(self.bytes()?.to_vec())
    }

    /// Reads a fixed-size array (no length prefix).
    ///
    /// # Errors
    ///
    /// Returns [`SgxError::Decode`] on underflow.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], SgxError> {
        Ok(self.take(N)?.try_into().expect("N bytes"))
    }

    /// Number of unread bytes.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Asserts that the entire buffer was consumed.
    ///
    /// # Errors
    ///
    /// Returns [`SgxError::Decode`] if trailing bytes remain — trailing
    /// garbage in a protocol message is always a decode error here.
    pub fn finish(self) -> Result<(), SgxError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SgxError::Decode)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_field_kinds() {
        let mut w = WireWriter::new();
        w.u8(0xAB)
            .u32(0xDEAD_BEEF)
            .u64(0x0123_4567_89AB_CDEF)
            .bytes(b"hello")
            .array(&[9u8; 16]);
        let buf = w.finish();

        let mut r = WireReader::new(&buf);
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(r.bytes().unwrap(), b"hello");
        assert_eq!(r.array::<16>().unwrap(), [9u8; 16]);
        r.finish().unwrap();
    }

    #[test]
    fn empty_byte_string() {
        let mut w = WireWriter::new();
        w.bytes(b"");
        let buf = w.finish();
        let mut r = WireReader::new(&buf);
        assert_eq!(r.bytes().unwrap(), b"");
        r.finish().unwrap();
    }

    #[test]
    fn underflow_is_decode_error() {
        let mut r = WireReader::new(&[1, 2]);
        assert_eq!(r.u32().unwrap_err(), SgxError::Decode);
    }

    #[test]
    fn oversized_length_prefix_is_decode_error() {
        let mut w = WireWriter::new();
        w.u32(1000); // claims 1000 bytes follow
        let buf = w.finish();
        let mut r = WireReader::new(&buf);
        assert_eq!(r.bytes().unwrap_err(), SgxError::Decode);
    }

    #[test]
    fn trailing_bytes_rejected_by_finish() {
        let mut w = WireWriter::new();
        w.u8(1).u8(2);
        let buf = w.finish();
        let mut r = WireReader::new(&buf);
        let _ = r.u8().unwrap();
        assert_eq!(r.finish().unwrap_err(), SgxError::Decode);
    }

    #[test]
    fn writer_len_tracks_content() {
        let mut w = WireWriter::new();
        assert!(w.is_empty());
        w.u32(0);
        assert_eq!(w.len(), 4);
        w.bytes(b"ab");
        assert_eq!(w.len(), 4 + 4 + 2);
    }
}
