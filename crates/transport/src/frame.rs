//! Datagram framing and the `WireCodec` encode/decode surface.
//!
//! Every UDP datagram is one frame: a fixed 24-byte header, an optional
//! 32-byte trace extension, then the encoded message. All integers are
//! little-endian.
//!
//! ```text
//! offset  size  field
//!      0     2  magic "LT"
//!      2     1  version (1)
//!      3     1  flags (bit 0: sent via send_reliable; bit 1: transport
//!               control frame, payload is a repair ControlFrame, seq 0;
//!               bit 2: retransmission of an earlier data frame;
//!               bit 3: a 32-byte trace extension precedes the payload)
//!      4     8  sequence number, monotonic per (sender, receiver) pair,
//!               starting at 1 — the reorder buffer's ordering key
//!               (0 for control frames, which bypass re-sequencing)
//!     12     8  send timestamp in ticks (sender's clock)
//!     20     4  payload length in bytes (the extension not included)
//!     24    32  trace extension, only when flag bit 3 is set: the
//!               sampled TraceCtx as four u64s — lecture, segment, seq,
//!               origin tick
//!   24/56     …  payload (WireCodec encoding of the message)
//! ```
//!
//! The message encoding itself is defined by the [`WireCodec`] trait,
//! implemented next to the message type (for the streaming `Wire` enum,
//! in `lod-streaming`'s `codec` module). The helpers here — [`Reader`]
//! and the `write_*` functions — keep every implementation on the same
//! primitive layout: fixed-width little-endian integers, `u32`
//! length-prefixed byte strings, one tag byte per enum variant and one
//! presence byte per `Option`.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::fmt;

use bytes::Bytes;
use lod_obs::TraceCtx;

/// Frame magic: "LT" (lecture transport).
pub const FRAME_MAGIC: [u8; 2] = *b"LT";
/// Current frame format version.
pub const FRAME_VERSION: u8 = 1;
/// Flag bit: the message was sent with `send_reliable`.
pub const FLAG_RELIABLE: u8 = 0b0000_0001;
/// Flag bit: transport-internal control frame (repair NACK); the payload
/// is a [`crate::repair::ControlFrame`], not an application message, and
/// the sequence field is 0 — control frames bypass the reorder buffer.
pub const FLAG_CONTROL: u8 = 0b0000_0010;
/// Flag bit: this data frame is a retransmission answering a NACK.
pub const FLAG_RETRANSMIT: u8 = 0b0000_0100;
/// Flag bit: a [`TRACE_EXT_BYTES`]-byte trace extension sits between the
/// header and the payload (the frame carries a sampled segment's
/// [`TraceCtx`]).
pub const FLAG_TRACE: u8 = 0b0000_1000;
/// Fixed frame header size in bytes (the trace extension not included).
pub const FRAME_HEADER_BYTES: usize = 24;
/// Trace extension size in bytes: four little-endian u64s.
pub const TRACE_EXT_BYTES: usize = 32;

/// Decode failures, for both frame headers and message payloads.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CodecError {
    /// The buffer ended before the value did.
    Truncated,
    /// The frame does not start with [`FRAME_MAGIC`].
    BadMagic,
    /// Unknown frame format version.
    BadVersion(u8),
    /// An enum tag byte with no matching variant.
    BadTag {
        /// Which enum was being decoded.
        what: &'static str,
        /// The offending tag.
        tag: u8,
    },
    /// A length-prefixed string was not valid UTF-8.
    BadUtf8,
    /// Decoding finished with bytes left over.
    TrailingBytes(usize),
    /// The declared payload length disagrees with the datagram size.
    LengthMismatch {
        /// Length declared in the header.
        declared: usize,
        /// Bytes actually present.
        actual: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "buffer ended before the value did"),
            CodecError::BadMagic => write!(f, "frame does not start with the LT magic"),
            CodecError::BadVersion(v) => write!(f, "unknown frame version {v}"),
            CodecError::BadTag { what, tag } => write!(f, "unknown {what} tag {tag}"),
            CodecError::BadUtf8 => write!(f, "string is not valid utf-8"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing byte(s) after decode"),
            CodecError::LengthMismatch { declared, actual } => {
                write!(
                    f,
                    "declared payload length {declared} but {actual} bytes present"
                )
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Parsed frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Per-(sender, receiver) monotonic sequence number, starting at 1
    /// (0 on control frames).
    pub seq: u64,
    /// Sender clock at send time, in ticks.
    pub sent_at: u64,
    /// Whether the message was sent with `send_reliable`.
    pub reliable: bool,
    /// Whether this is a transport-internal control frame (repair NACK).
    pub control: bool,
    /// Whether this data frame is a retransmission.
    pub retransmit: bool,
    /// The trace context riding the frame, when the sender stamped one.
    pub trace: Option<TraceCtx>,
    /// Payload length in bytes (the trace extension not included).
    pub len: u32,
}

/// Encodes one frame: header + payload, ready for `send_to`.
pub fn encode_frame(seq: u64, sent_at: u64, reliable: bool, payload: &[u8]) -> Vec<u8> {
    let flags = if reliable { FLAG_RELIABLE } else { 0 };
    encode_frame_traced(seq, sent_at, flags, None, payload)
}

/// Encodes one frame with an explicit flags byte (the repair sublayer
/// passes [`FLAG_CONTROL`] for NACK frames), stamping the trace
/// extension (and [`FLAG_TRACE`]) when `trace` is present.
pub fn encode_frame_traced(
    seq: u64,
    sent_at: u64,
    flags: u8,
    trace: Option<TraceCtx>,
    payload: &[u8],
) -> Vec<u8> {
    let mut buf = Vec::with_capacity(frame_len(trace, payload.len()));
    write_header(&mut buf, seq, sent_at, flags, trace, payload.len());
    buf.extend_from_slice(payload);
    buf
}

/// Encodes `message` as one frame in one buffer: header, the trace
/// extension when the message carries a context, then its encoding,
/// allocated at the exact size `encoded_len` gives — byte for byte what
/// [`encode_frame_traced`] makes of [`WireCodec::to_frame_payload`].
/// `None`, with nothing encoded, when the frame would be longer than
/// `max_len`.
pub fn encode_message_frame<M: WireCodec>(
    seq: u64,
    sent_at: u64,
    flags: u8,
    message: &M,
    max_len: usize,
) -> Option<Vec<u8>> {
    let (trace, payload_len) = (message.trace_ctx(), message.encoded_len());
    let len = frame_len(trace, payload_len);
    if len > max_len {
        return None;
    }
    let mut buf = Vec::with_capacity(len);
    write_header(&mut buf, seq, sent_at, flags, trace, payload_len);
    message.encode_wire(&mut buf);
    debug_assert_eq!(buf.len(), len, "encoded_len is exact");
    Some(buf)
}

fn frame_len(trace: Option<TraceCtx>, payload_len: usize) -> usize {
    let ext = if trace.is_some() { TRACE_EXT_BYTES } else { 0 };
    FRAME_HEADER_BYTES + ext + payload_len
}

/// Appends the fixed header, then the trace extension when `trace` is
/// present.
fn write_header(
    buf: &mut Vec<u8>,
    seq: u64,
    sent_at: u64,
    flags: u8,
    trace: Option<TraceCtx>,
    payload_len: usize,
) {
    buf.extend_from_slice(&FRAME_MAGIC);
    buf.push(FRAME_VERSION);
    buf.push(flags | if trace.is_some() { FLAG_TRACE } else { 0 });
    write_u64(buf, seq);
    write_u64(buf, sent_at);
    write_u32(buf, wire_len(payload_len));
    if let Some(t) = trace {
        write_trace(buf, t);
    }
}

/// Marks an already-encoded frame as a retransmission in place (the
/// retransmit buffer stores original frames and flags them on resend).
pub fn mark_retransmit(frame: &mut [u8]) {
    debug_assert!(frame.len() >= FRAME_HEADER_BYTES, "not a frame");
    frame[3] |= FLAG_RETRANSMIT;
}

/// Splits a datagram into its parsed header and payload slice.
///
/// # Errors
///
/// [`CodecError`] on short, mistagged or length-inconsistent datagrams.
pub fn decode_frame(datagram: &[u8]) -> Result<(FrameHeader, &[u8]), CodecError> {
    if datagram.len() < FRAME_HEADER_BYTES {
        return Err(CodecError::Truncated);
    }
    let mut r = Reader::new(datagram);
    if r.array::<2>()? != FRAME_MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = r.u8()?;
    if version != FRAME_VERSION {
        return Err(CodecError::BadVersion(version));
    }
    let flags = r.u8()?;
    let seq = r.u64()?;
    let sent_at = r.u64()?;
    let len = r.u32()?;
    let trace = if flags & FLAG_TRACE != 0 {
        Some(r.trace()?)
    } else {
        None
    };
    let body = r.take(r.remaining())?;
    if body.len() != len as usize {
        return Err(CodecError::LengthMismatch {
            declared: len as usize,
            actual: body.len(),
        });
    }
    Ok((
        FrameHeader {
            seq,
            sent_at,
            reliable: flags & FLAG_RELIABLE != 0,
            control: flags & FLAG_CONTROL != 0,
            retransmit: flags & FLAG_RETRANSMIT != 0,
            trace,
            len,
        },
        body,
    ))
}

/// Reads just the trace extension out of an encoded frame, without
/// validating or splitting the payload — the send path peeks this when
/// a buffered frame finally reaches the socket, to close its `pace`
/// span. Returns `None` for untraced or too-short frames.
pub fn peek_trace(frame: &[u8]) -> Option<TraceCtx> {
    if frame.get(3)? & FLAG_TRACE == 0 {
        return None;
    }
    Reader::new(frame.get(FRAME_HEADER_BYTES..)?).trace().ok()
}

/// A message type that can cross a real wire.
pub trait WireCodec: Sized {
    /// Appends the encoding of `self` to `buf`.
    fn encode_wire(&self, buf: &mut Vec<u8>);

    /// Exactly how many bytes [`WireCodec::encode_wire`] appends, so a
    /// frame payload is allocated once at its final size.
    fn encoded_len(&self) -> usize;

    /// The trace context this message carries, when it is part of a
    /// sampled segment delivery. The transport stamps it into the frame
    /// header so span events can be emitted at every hop without
    /// decoding the payload. Default: untraced.
    fn trace_ctx(&self) -> Option<TraceCtx> {
        None
    }

    /// Decodes one value from the reader.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncated or malformed input.
    fn decode_wire(r: &mut Reader<'_>) -> Result<Self, CodecError>;

    /// The encoding of `self` as a fresh frame payload, allocated once.
    fn to_frame_payload(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.encoded_len());
        self.encode_wire(&mut buf);
        buf
    }

    /// Decodes a full frame payload, rejecting trailing garbage.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncated, malformed or over-long input.
    fn from_frame_payload(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(bytes);
        let v = Self::decode_wire(&mut r)?;
        r.finish()?;
        Ok(v)
    }

    /// Decodes a full frame payload held in a ref-counted buffer:
    /// decoders that call [`Reader::bytes_shared`] get zero-copy views
    /// of `payload` instead of per-field allocations (the receive path
    /// allocates once per datagram, then every media payload inside it
    /// is a slice of that one backing buffer).
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncated, malformed or over-long input.
    fn from_shared_payload(payload: &Bytes) -> Result<Self, CodecError> {
        let mut r = Reader::new_shared(payload);
        let v = Self::decode_wire(&mut r)?;
        r.finish()?;
        Ok(v)
    }
}

/// Cursor over an encoded buffer.
#[derive(Debug)]
pub struct Reader<'a> {
    /// The bytes not yet consumed.
    buf: &'a [u8],
    /// When decoding from a ref-counted buffer, the backing storage
    /// `buf` points into; lets [`Reader::bytes_shared`] hand out
    /// zero-copy views.
    backing: Option<&'a Bytes>,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, backing: None }
    }

    /// A reader over a ref-counted buffer; [`Reader::bytes_shared`]
    /// returns zero-copy slices of it.
    pub fn new_shared(backing: &'a Bytes) -> Self {
        Self {
            buf: backing,
            backing: Some(backing),
        }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let (head, rest) = self.buf.split_at_checked(n).ok_or(CodecError::Truncated)?;
        self.buf = rest;
        Ok(head)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let (head, rest) = self
            .buf
            .split_first_chunk::<N>()
            .ok_or(CodecError::Truncated)?;
        self.buf = rest;
        Ok(*head)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] at end of buffer (likewise below).
    #[inline]
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        self.array().map(u8::from_le_bytes)
    }

    /// Reads a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] at end of buffer.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        self.array().map(u16::from_le_bytes)
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] at end of buffer.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        self.array().map(u32::from_le_bytes)
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] at end of buffer.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads a [`TRACE_EXT_BYTES`]-byte trace context, the layout
    /// [`write_trace`] appends.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] at end of buffer.
    #[inline]
    pub fn trace(&mut self) -> Result<TraceCtx, CodecError> {
        Ok(TraceCtx {
            lecture: self.u64()?,
            segment: self.u64()?,
            seq: self.u64()?,
            origin: self.u64()?,
        })
    }

    /// Reads a presence/boolean byte (0 or 1; anything else is a
    /// [`CodecError::BadTag`]).
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncation or a non-boolean byte.
    #[inline]
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(CodecError::BadTag { what: "bool", tag }),
        }
    }

    /// Reads a `u32` length-prefixed byte string.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] when the declared length overruns.
    pub fn bytes(&mut self) -> Result<Vec<u8>, CodecError> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    /// Reads a `u32` length-prefixed byte string as a [`Bytes`] view:
    /// zero-copy when the reader was built with [`Reader::new_shared`],
    /// a fresh copy otherwise.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] when the declared length overruns.
    #[inline]
    pub fn bytes_shared(&mut self) -> Result<Bytes, CodecError> {
        let len = self.u32()? as usize;
        let slice = self.take(len)?;
        Ok(match self.backing {
            Some(backing) => {
                let end = backing.len() - self.buf.len();
                backing.slice(end - len..end)
            }
            None => Bytes::copy_from_slice(slice),
        })
    }

    /// Reads a `u32` length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncation or invalid UTF-8.
    pub fn string(&mut self) -> Result<String, CodecError> {
        String::from_utf8(self.bytes()?).map_err(|_| CodecError::BadUtf8)
    }

    /// Asserts the buffer is fully consumed.
    ///
    /// # Errors
    ///
    /// [`CodecError::TrailingBytes`] when it is not.
    pub fn finish(&self) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes(self.remaining()))
        }
    }
}

/// Appends a little-endian `u16`.
pub fn write_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u32`.
pub fn write_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn write_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a boolean/presence byte.
pub fn write_bool(buf: &mut Vec<u8>, v: bool) {
    buf.push(u8::from(v));
}

/// Appends a `u32` length-prefixed byte string.
pub fn write_bytes(buf: &mut Vec<u8>, v: &[u8]) {
    write_u32(buf, wire_len(v.len()));
    buf.extend_from_slice(v);
}

/// A length as its `u32` field says it. No datagram holds 4 GiB, and
/// [`encode_message_frame`] measures a frame before writing it, so a
/// longer length is only ever written into a buffer no transport sends:
/// it saturates, and the decoder refuses what follows instead of the
/// encoder aborting.
fn wire_len(len: usize) -> u32 {
    u32::try_from(len).unwrap_or(u32::MAX)
}

/// Appends a `u32` length-prefixed UTF-8 string.
pub fn write_string(buf: &mut Vec<u8>, v: &str) {
    write_bytes(buf, v.as_bytes());
}

/// Appends a trace context as the [`TRACE_EXT_BYTES`]-byte extension:
/// four little-endian `u64`s — lecture, segment, seq, origin tick.
pub fn write_trace(buf: &mut Vec<u8>, t: TraceCtx) {
    for word in [t.lecture, t.segment, t.seq, t.origin] {
        write_u64(buf, word);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trips() {
        let frame = encode_frame(42, 1_234_567, true, b"payload");
        assert_eq!(frame.len(), FRAME_HEADER_BYTES + 7);
        let (h, payload) = decode_frame(&frame).unwrap();
        assert_eq!(h.seq, 42);
        assert_eq!(h.sent_at, 1_234_567);
        assert!(h.reliable);
        assert_eq!(h.len, 7);
        assert_eq!(payload, b"payload");
    }

    #[test]
    fn a_length_past_its_field_saturates() {
        assert_eq!(wire_len(7), 7);
        assert_eq!(wire_len(u32::MAX as usize), u32::MAX);
        assert_eq!(wire_len(usize::MAX), u32::MAX);
    }

    #[test]
    fn control_and_retransmit_flags_round_trip() {
        let control = encode_frame_traced(0, 9, FLAG_CONTROL, None, b"nack");
        let (h, _) = decode_frame(&control).unwrap();
        assert!(h.control && !h.reliable && !h.retransmit);
        assert_eq!(h.seq, 0);

        let mut resent = encode_frame(7, 3, false, b"data");
        mark_retransmit(&mut resent);
        let (h, payload) = decode_frame(&resent).unwrap();
        assert!(h.retransmit && !h.control);
        assert_eq!(h.seq, 7);
        assert_eq!(payload, b"data", "marking must not disturb the payload");
    }

    #[test]
    fn traced_frame_round_trips_and_untraced_stays_24_bytes() {
        let ctx = TraceCtx {
            lecture: 0xAAAA_BBBB_CCCC_DDDD,
            segment: 42,
            seq: 7,
            origin: 1_000_000,
        };
        let frame = encode_frame_traced(9, 55, FLAG_RELIABLE, Some(ctx), b"seg");
        assert_eq!(frame.len(), FRAME_HEADER_BYTES + TRACE_EXT_BYTES + 3);
        let (h, payload) = decode_frame(&frame).unwrap();
        assert_eq!(h.trace, Some(ctx));
        assert!(h.reliable);
        assert_eq!(h.len, 3, "len counts the payload only");
        assert_eq!(payload, b"seg");
        assert_eq!(peek_trace(&frame), Some(ctx));

        let plain = encode_frame(9, 55, true, b"seg");
        assert_eq!(plain.len(), FRAME_HEADER_BYTES + 3);
        assert_eq!(decode_frame(&plain).unwrap().0.trace, None);
        assert_eq!(peek_trace(&plain), None);
    }

    #[test]
    fn mark_retransmit_preserves_the_trace_extension() {
        let ctx = TraceCtx {
            lecture: 1,
            segment: 2,
            seq: 3,
            origin: 4,
        };
        let mut frame = encode_frame_traced(5, 6, 0, Some(ctx), b"d");
        mark_retransmit(&mut frame);
        let (h, payload) = decode_frame(&frame).unwrap();
        assert!(h.retransmit);
        assert_eq!(h.trace, Some(ctx));
        assert_eq!(payload, b"d");
    }

    #[test]
    fn truncated_trace_extension_is_rejected() {
        let ctx = TraceCtx {
            lecture: 1,
            segment: 2,
            seq: 3,
            origin: 4,
        };
        let frame = encode_frame_traced(5, 6, 0, Some(ctx), b"");
        let cut = &frame[..FRAME_HEADER_BYTES + 10];
        assert_eq!(decode_frame(cut).unwrap_err(), CodecError::Truncated);
        assert_eq!(peek_trace(cut), None);
    }

    #[test]
    fn message_frame_matches_the_two_step_encoding() {
        let ctx = TraceCtx {
            lecture: 1,
            segment: 2,
            seq: 3,
            origin: 4,
        };
        for trace in [None, Some(ctx)] {
            let message = Sample { trace };
            let frame = encode_message_frame(9, 55, FLAG_RELIABLE, &message, usize::MAX).unwrap();
            let two_step =
                encode_frame_traced(9, 55, FLAG_RELIABLE, trace, &message.to_frame_payload());
            assert_eq!(frame, two_step);
            assert_eq!(frame.capacity(), frame.len(), "allocated once, at size");
            let fits = encode_message_frame(9, 55, 0, &message, frame.len());
            assert_eq!(fits.map(|f| f.len()), Some(frame.len()));
            assert_eq!(
                encode_message_frame(9, 55, 0, &message, frame.len() - 1),
                None
            );
        }
    }

    /// A message with a fixed 14-byte payload whose trace
    /// context rides only the frame header.
    struct Sample {
        trace: Option<TraceCtx>,
    }

    impl WireCodec for Sample {
        fn encode_wire(&self, buf: &mut Vec<u8>) {
            write_u64(buf, 7);
            write_bytes(buf, b"x");
            write_bool(buf, self.trace.is_some());
        }

        fn encoded_len(&self) -> usize {
            8 + 4 + 1 + 1
        }

        fn decode_wire(_: &mut Reader<'_>) -> Result<Self, CodecError> {
            Err(CodecError::Truncated)
        }

        fn trace_ctx(&self) -> Option<TraceCtx> {
            self.trace
        }
    }

    #[test]
    fn frame_rejects_garbage() {
        assert_eq!(decode_frame(b"LT"), Err(CodecError::Truncated));
        let mut bad = encode_frame(1, 0, false, b"x");
        bad[0] = b'X';
        assert_eq!(decode_frame(&bad).unwrap_err(), CodecError::BadMagic);
        let mut ver = encode_frame(1, 0, false, b"x");
        ver[2] = 9;
        assert_eq!(decode_frame(&ver).unwrap_err(), CodecError::BadVersion(9));
        let mut short = encode_frame(1, 0, false, b"xyz");
        short.truncate(short.len() - 1);
        assert!(matches!(
            decode_frame(&short).unwrap_err(),
            CodecError::LengthMismatch { .. }
        ));
    }

    #[test]
    fn primitives_round_trip() {
        let mut buf = Vec::new();
        write_u16(&mut buf, 0xBEEF);
        write_u32(&mut buf, 0xDEAD_BEEF);
        write_u64(&mut buf, u64::MAX - 1);
        write_bool(&mut buf, true);
        write_string(&mut buf, "课堂"); // non-ASCII survives
        write_bytes(&mut buf, &[1, 2, 3]);
        let mut r = Reader::new(&buf);
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert!(r.bool().unwrap());
        assert_eq!(r.string().unwrap(), "课堂");
        assert_eq!(r.bytes().unwrap(), vec![1, 2, 3]);
        r.finish().unwrap();
    }

    #[test]
    fn reader_reports_truncation_and_trailing() {
        let mut r = Reader::new(&[1, 2]);
        assert_eq!(r.u32().unwrap_err(), CodecError::Truncated);
        // A failed read consumes nothing further; trailing bytes remain.
        assert_eq!(r.finish().unwrap_err(), CodecError::TrailingBytes(2));
        let mut bad_bool = Reader::new(&[7]);
        assert!(matches!(
            bad_bool.bool().unwrap_err(),
            CodecError::BadTag { what: "bool", .. }
        ));
    }
}
