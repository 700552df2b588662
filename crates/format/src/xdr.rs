//! XDR-like big-endian primitives with 4-byte alignment.
//!
//! NetCDF's on-disk encoding is "similar to XDR but extended to support
//! efficient storage of arrays of nonbyte data": all integers and floats are
//! big-endian, and variable-length items (names, attribute values) are
//! padded with zeros to 4-byte boundaries.

use crate::error::{FormatError, FormatResult};
use crate::swap::swap_copy;
use crate::types::NcValue;

/// Round `n` up to a multiple of 4.
pub fn pad4(n: u64) -> u64 {
    (n + 3) & !3
}

/// Append-only big-endian encoder.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// New empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Finish, returning the buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    pub fn put_i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    pub fn put_i16(&mut self, v: i16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    pub fn put_f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Raw bytes, unpadded.
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// A whole slice of elements in one bulk big-endian pass
    /// ([`swap_copy`] of the values' bytes) instead of a per-element `put_*`
    /// loop.
    pub fn put_slice<T: NcValue>(&mut self, vals: &[T]) {
        let (src, start) = (T::as_bytes(vals), self.buf.len());
        self.buf.resize(start + src.len(), 0);
        swap_copy(src, &mut self.buf[start..], T::NATURAL.size() as usize);
    }

    /// Zero-pad to the next 4-byte boundary.
    pub fn align4(&mut self) {
        while self.buf.len() % 4 != 0 {
            self.buf.push(0);
        }
    }

    /// A netCDF name: length + bytes + padding.
    pub fn put_name(&mut self, name: &str) {
        self.put_u32(name.len() as u32);
        self.put_bytes(name.as_bytes());
        self.align4();
    }
}

/// Cursor-based big-endian decoder.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wrap a byte buffer.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Current cursor position.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Bound a decoded item count against the bytes actually remaining.
    /// Each item occupies at least `min_size` encoded bytes, so a count
    /// that could not possibly fit is rejected *before* any allocation is
    /// sized from it — a corrupt 32-bit count must never drive a
    /// multi-gigabyte `Vec::with_capacity`.
    pub fn check_count(&self, n: usize, min_size: usize) -> FormatResult<()> {
        match n.checked_mul(min_size.max(1)) {
            Some(need) if need <= self.remaining() => Ok(()),
            _ => Err(FormatError::Corrupt(format!(
                "count {n} of >={min_size}-byte items at offset {} exceeds the {} bytes remaining",
                self.pos,
                self.remaining()
            ))),
        }
    }

    fn take(&mut self, n: usize) -> FormatResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(FormatError::Corrupt(format!(
                "truncated: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// The next `N` bytes, as an array.
    fn take_array<const N: usize>(&mut self) -> FormatResult<[u8; N]> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    pub fn get_u8(&mut self) -> FormatResult<u8> {
        Ok(self.take(1)?[0])
    }

    pub fn get_u32(&mut self) -> FormatResult<u32> {
        Ok(u32::from_be_bytes(self.take_array()?))
    }

    pub fn get_i32(&mut self) -> FormatResult<i32> {
        Ok(i32::from_be_bytes(self.take_array()?))
    }

    pub fn get_u64(&mut self) -> FormatResult<u64> {
        Ok(u64::from_be_bytes(self.take_array()?))
    }

    pub fn get_i16(&mut self) -> FormatResult<i16> {
        Ok(i16::from_be_bytes(self.take_array()?))
    }

    pub fn get_f32(&mut self) -> FormatResult<f32> {
        Ok(f32::from_be_bytes(self.take_array()?))
    }

    pub fn get_f64(&mut self) -> FormatResult<f64> {
        Ok(f64::from_be_bytes(self.take_array()?))
    }

    /// Raw bytes, unpadded.
    pub fn get_bytes(&mut self, n: usize) -> FormatResult<&'a [u8]> {
        self.take(n)
    }

    /// Decode `n` elements in one bulk big-endian pass ([`swap_copy`] into
    /// the values' bytes) instead of a per-element `get_*` loop.
    pub fn get_slice<T: NcValue>(&mut self, n: usize) -> FormatResult<Vec<T>> {
        let width = T::NATURAL.size() as usize;
        let need = n.checked_mul(width).ok_or_else(|| {
            FormatError::Corrupt(format!("element count {n} overflows byte length"))
        })?;
        let bytes = self.take(need)?;
        let mut vals = vec![T::ZERO; n];
        swap_copy(bytes, T::as_bytes_mut(&mut vals), width);
        Ok(vals)
    }

    /// Skip padding to the next 4-byte boundary.
    pub fn align4(&mut self) -> FormatResult<()> {
        let pad = (4 - self.pos % 4) % 4;
        self.take(pad)?;
        Ok(())
    }

    /// A netCDF name: length + bytes + padding.
    pub fn get_name(&mut self) -> FormatResult<String> {
        let len = self.get_u32()? as usize;
        let bytes = self.take(len)?.to_vec();
        self.align4()?;
        String::from_utf8(bytes).map_err(|_| FormatError::Corrupt("name is not valid UTF-8".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pad4_values() {
        assert_eq!(pad4(0), 0);
        assert_eq!(pad4(1), 4);
        assert_eq!(pad4(4), 4);
        assert_eq!(pad4(5), 8);
    }

    #[test]
    fn scalar_roundtrips_are_big_endian() {
        let mut w = Writer::new();
        w.put_u32(0x01020304);
        w.put_i32(-2);
        w.put_f64(2.5);
        w.put_i16(-300);
        w.put_f32(1.5);
        w.put_u64(0x0102030405060708);
        let bytes = w.into_bytes();
        assert_eq!(&bytes[..4], &[1, 2, 3, 4]);

        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u32().unwrap(), 0x01020304);
        assert_eq!(r.get_i32().unwrap(), -2);
        assert_eq!(r.get_f64().unwrap(), 2.5);
        assert_eq!(r.get_i16().unwrap(), -300);
        assert_eq!(r.get_f32().unwrap(), 1.5);
        assert_eq!(r.get_u64().unwrap(), 0x0102030405060708);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn name_roundtrip_pads() {
        let mut w = Writer::new();
        w.put_name("tt");
        // 4 (len) + 2 (chars) + 2 (padding)
        assert_eq!(w.len(), 8);
        let bytes = w.into_bytes();
        assert_eq!(&bytes[4..8], &[b't', b't', 0, 0]);
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_name().unwrap(), "tt");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncated_reads_error() {
        fn corrupt<T>(r: FormatResult<T>) -> bool {
            matches!(r, Err(FormatError::Corrupt(_)))
        }
        let mut r = Reader::new(&[1, 2]);
        assert!(corrupt(r.get_u32()) && corrupt(r.get_i32()) && corrupt(r.get_f32()));
        let short = [1, 2, 3, 4, 5, 6, 7];
        assert!(corrupt(Reader::new(&short).get_u64()));
        assert!(corrupt(Reader::new(&short).get_f64()));
        assert!(corrupt(Reader::new(&[1]).get_i16()));
        assert!(corrupt(Reader::new(&[]).get_u8()));
        // A failed read consumes nothing.
        assert_eq!(r.get_i16().unwrap(), 0x0102);
    }

    #[test]
    fn align4_consumes_padding() {
        let mut r = Reader::new(&[9, 0, 0, 0, 7]);
        r.get_u8().unwrap();
        r.align4().unwrap();
        assert_eq!(r.get_u8().unwrap(), 7);
    }
}
