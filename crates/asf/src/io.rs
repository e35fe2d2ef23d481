//! Little-endian byte reader/writer helpers (crate-internal).

use crate::error::AsfError;
use crate::guid::Guid;

/// Wire size of an object preamble: GUID (16) + size (8).
pub(crate) const OBJECT_HEADER_BYTES: usize = 24;

/// Wire size of [`Writer::string`]'s output for `s`.
///
/// # Errors
///
/// [`AsfError::BadSize`] when `s` does not fit the `u16` length prefix.
/// Sizing a file runs this over every string in it, so nothing reaches
/// [`Writer::string`] unchecked.
pub(crate) fn string_len(s: &str, context: &'static str) -> Result<usize, AsfError> {
    if s.len() > usize::from(u16::MAX) {
        return Err(AsfError::BadSize {
            context,
            size: s.len() as u64,
        });
    }
    Ok(2 + s.len())
}

/// Append-only little-endian writer over one `Vec<u8>`.
#[derive(Debug, Default)]
pub(crate) struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// A writer that will not reallocate before `cap` bytes.
    pub(crate) fn with_capacity(cap: usize) -> Self {
        Self {
            buf: Vec::with_capacity(cap),
        }
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn u16(&mut self, v: u16) {
        self.bytes(&v.to_le_bytes());
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub(crate) fn guid(&mut self, g: Guid) {
        self.bytes(&g.0);
    }

    pub(crate) fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Appends `n` zero bytes.
    pub(crate) fn zeros(&mut self, n: usize) {
        self.buf.resize(self.buf.len() + n, 0);
    }

    /// Length-prefixed (u16) UTF-8 string.
    ///
    /// # Panics
    ///
    /// Panics if the string exceeds 65535 bytes ([`string_len`] is the
    /// check to run first).
    pub(crate) fn string(&mut self, s: &str) {
        let b = s.as_bytes();
        let len = u16::try_from(b.len()).expect("string too long for wire");
        self.u16(len);
        self.bytes(b);
    }

    /// Writes an object in place: its GUID, a placeholder for its size,
    /// whatever `body` appends (nested objects included), and then the
    /// size — preamble and body — patched over the placeholder. Hands
    /// back what `body` returns.
    pub(crate) fn object<R>(&mut self, g: Guid, body: impl FnOnce(&mut Self) -> R) -> R {
        let start = self.buf.len();
        self.guid(g);
        self.u64(0);
        let result = body(self);
        let size = (self.buf.len() - start) as u64;
        self.buf[start + 16..start + OBJECT_HEADER_BYTES].copy_from_slice(&size.to_le_bytes());
        result
    }

    pub(crate) fn len(&self) -> usize {
        self.buf.len()
    }

    pub(crate) fn into_vec(self) -> Vec<u8> {
        self.buf
    }
}

/// Cursor-style little-endian reader with EOF checking.
#[derive(Debug)]
pub(crate) struct Reader<'a> {
    /// The whole input; this reader's window of it is `pos..end`.
    data: &'a [u8],
    pos: usize,
    end: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(data: &'a [u8]) -> Self {
        Self {
            data,
            pos: 0,
            end: data.len(),
        }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.end - self.pos
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], AsfError> {
        if self.remaining() < n {
            return Err(AsfError::UnexpectedEof { context });
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self, context: &'static str) -> Result<u8, AsfError> {
        Ok(self.take(1, context)?[0])
    }

    pub(crate) fn u16(&mut self, context: &'static str) -> Result<u16, AsfError> {
        let b = self.take(2, context)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    pub(crate) fn u32(&mut self, context: &'static str) -> Result<u32, AsfError> {
        let b = self.take(4, context)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn u64(&mut self, context: &'static str) -> Result<u64, AsfError> {
        let b = self.take(8, context)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    pub(crate) fn guid(&mut self, context: &'static str) -> Result<Guid, AsfError> {
        let b = self.take(16, context)?;
        let mut out = [0u8; 16];
        out.copy_from_slice(b);
        Ok(Guid(out))
    }

    pub(crate) fn bytes(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], AsfError> {
        self.take(n, context)
    }

    pub(crate) fn string(&mut self, context: &'static str) -> Result<String, AsfError> {
        let len = self.u16(context)? as usize;
        let b = self.take(len, context)?;
        String::from_utf8(b.to_vec()).map_err(|_| AsfError::BadString)
    }

    /// Sub-reader over the next `n` bytes.
    pub(crate) fn slice(
        &mut self,
        n: usize,
        context: &'static str,
    ) -> Result<Reader<'a>, AsfError> {
        let start = self.pos;
        self.take(n, context)?;
        Ok(Reader {
            data: self.data,
            pos: start,
            end: start + n,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_scalars() {
        let mut w = Writer::new();
        w.u8(7);
        w.u16(300);
        w.u32(70_000);
        w.u64(u64::MAX - 1);
        w.string("héllo");
        let v = w.into_vec();
        let mut r = Reader::new(&v);
        assert_eq!(r.u8("t").unwrap(), 7);
        assert_eq!(r.u16("t").unwrap(), 300);
        assert_eq!(r.u32("t").unwrap(), 70_000);
        assert_eq!(r.u64("t").unwrap(), u64::MAX - 1);
        assert_eq!(r.string("t").unwrap(), "héllo");
        assert!(r.is_empty());
    }

    #[test]
    fn eof_detected() {
        let v = vec![1u8, 2];
        let mut r = Reader::new(&v);
        assert!(matches!(
            r.u32("field"),
            Err(AsfError::UnexpectedEof { context: "field" })
        ));
    }

    #[test]
    fn bad_utf8_rejected() {
        let mut w = Writer::new();
        w.u16(2);
        w.bytes(&[0xff, 0xfe]);
        let v = w.into_vec();
        let mut r = Reader::new(&v);
        assert_eq!(r.string("t").unwrap_err(), AsfError::BadString);
    }

    #[test]
    fn object_size_is_patched_in_place() {
        let mut w = Writer::new();
        w.u8(0xEE);
        w.object(Guid([1; 16]), |w| w.object(Guid([2; 16]), |w| w.u32(7)));
        let v = w.into_vec();
        let mut r = Reader::new(&v[1..]);
        assert_eq!(r.guid("t").unwrap(), Guid([1; 16]));
        assert_eq!(r.u64("t").unwrap(), 24 + 24 + 4);
        assert_eq!(r.guid("t").unwrap(), Guid([2; 16]));
        assert_eq!(r.u64("t").unwrap(), 24 + 4);
        assert_eq!(r.u32("t").unwrap(), 7);
        assert!(r.is_empty());
    }

    #[test]
    fn string_len_is_the_check_before_string() {
        assert_eq!(string_len("héllo", "t"), Ok(2 + 6));
        let long = "x".repeat(65_536);
        assert_eq!(string_len(&long[1..], "t"), Ok(2 + 65_535));
        assert_eq!(
            string_len(&long, "field"),
            Err(AsfError::BadSize {
                context: "field",
                size: 65_536
            })
        );
    }

    #[test]
    fn sub_reader_bounds() {
        let mut w = Writer::new();
        w.u32(1);
        w.u32(2);
        let v = w.into_vec();
        let mut r = Reader::new(&v);
        let mut sub = r.slice(4, "t").unwrap();
        assert_eq!(sub.u32("t").unwrap(), 1);
        assert!(sub.is_empty());
        assert_eq!(r.u32("t").unwrap(), 2);
    }
}
