//! Fixed-size data packets, payload fragmentation and reassembly.
//!
//! ASF streams media "in packets over a network" (§2.1): every data packet
//! has the same size (declared in the file properties), and large media
//! samples are split across packets as *payload fragments*. The
//! [`Packetizer`] performs the split; the [`Reassembler`] undoes it on the
//! receiving side, tolerating packet loss (incomplete samples are simply
//! never emitted) and out-of-order arrival. Its rules see only each
//! fragment's extent; a [`LengthReassembler`] applies them keeping no
//! bytes, for a receiver that needs a sample's size, not its content.

use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

use bytes::{BufMut, Bytes, BytesMut};
use serde::{Deserialize, Serialize};

use crate::error::AsfError;
use crate::io::{Reader, Writer};

/// Wire size of a packet header: send time (8) + payload count (1).
pub const PACKET_HEADER_BYTES: usize = 9;
/// Wire size of a payload header: stream (2) + object id (4) + offset (4)
/// + total (4) + presentation time (8) + length (2).
pub const PAYLOAD_HEADER_BYTES: usize = 24;

/// Most payloads one packet can carry: the count is a `u8` on the wire.
pub const MAX_PAYLOADS: usize = u8::MAX as usize;

/// A complete media sample handed to the packetizer / produced by the
/// reassembler.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MediaSample {
    /// Stream the sample belongs to.
    pub stream: u16,
    /// Presentation time in ticks.
    pub pres_time: u64,
    /// Encoded bytes (ref-counted: fragments produced by the
    /// [`Packetizer`] are zero-copy views of this buffer).
    pub data: Bytes,
}

impl MediaSample {
    /// Creates a sample. A `Vec<u8>` converts without copying.
    pub fn new(stream: u16, pres_time: u64, data: impl Into<Bytes>) -> Self {
        Self {
            stream,
            pres_time,
            data: data.into(),
        }
    }
}

/// One payload fragment inside a packet.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Payload {
    /// Stream number.
    pub stream: u16,
    /// Media-object id: which sample of the stream this fragment belongs to.
    pub object_id: u32,
    /// Byte offset of this fragment within the sample.
    pub offset: u32,
    /// Total byte length of the sample.
    pub total: u32,
    /// Presentation time of the sample.
    pub pres_time: u64,
    /// The fragment bytes: a zero-copy view of the sample's backing
    /// buffer, shared (not duplicated) by caches and fan-out readers.
    pub data: Bytes,
}

/// A payload's header as read from the wire, apart from its bytes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PayloadHead {
    pub(crate) stream: u16,
    object_id: u32,
    offset: u32,
    total: u32,
    pres_time: u64,
    len: u16,
}

/// A fixed-size data packet. Immutable once packetized: caches, fan-out
/// and the wire share one payload list, so a clone costs one refcount.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DataPacket {
    /// Send time in ticks: when the pacer should put the packet on the wire.
    pub send_time: u64,
    /// The payload fragments, shared by every clone of the packet.
    pub payloads: Rc<[Payload]>,
}

impl DataPacket {
    /// Serializes to exactly `packet_size` bytes (zero padding at the end).
    ///
    /// # Errors
    ///
    /// [`AsfError::BadSize`] if the payloads do not fit in `packet_size`,
    /// there are more than [`MAX_PAYLOADS`] of them, or one is longer
    /// than its `u16` length field can say.
    pub fn write(&self, packet_size: u32) -> Result<Vec<u8>, AsfError> {
        let mut w = Writer::with_capacity(packet_size as usize);
        self.write_into(&mut w, packet_size)?;
        Ok(w.into_vec())
    }

    /// Appends the packet's `packet_size` bytes to `w`. Nothing is
    /// written unless the packet is valid.
    pub(crate) fn write_into(&self, w: &mut Writer, packet_size: u32) -> Result<(), AsfError> {
        let count = u8::try_from(self.payloads.len()).map_err(|_| AsfError::BadSize {
            context: "data packet payload count",
            size: self.payloads.len() as u64,
        })?;
        let mut used = PACKET_HEADER_BYTES;
        for p in self.payloads.iter() {
            if p.data.len() > usize::from(u16::MAX) {
                return Err(AsfError::BadSize {
                    context: "payload length",
                    size: p.data.len() as u64,
                });
            }
            used += PAYLOAD_HEADER_BYTES + p.data.len();
        }
        if used > packet_size as usize {
            return Err(AsfError::BadSize {
                context: "data packet payloads",
                size: used as u64,
            });
        }
        w.u64(self.send_time);
        w.u8(count);
        for p in self.payloads.iter() {
            w.u16(p.stream);
            w.u32(p.object_id);
            w.u32(p.offset);
            w.u32(p.total);
            w.u64(p.pres_time);
            w.u16(p.data.len() as u16);
            w.bytes(&p.data);
        }
        w.zeros(packet_size as usize - used);
        Ok(())
    }

    /// Parses one packet of exactly `packet_size` bytes. The payloads
    /// are views of one copy of their bytes, packed back to back.
    ///
    /// # Errors
    ///
    /// [`AsfError::UnexpectedEof`] on truncated input or a payload running
    /// past the packet end.
    pub fn read(bytes: &[u8], packet_size: u32) -> Result<Self, AsfError> {
        if bytes.len() != packet_size as usize {
            return Err(AsfError::BadSize {
                context: "data packet",
                size: bytes.len() as u64,
            });
        }
        let (mut heads, mut data) = (Vec::new(), BytesMut::with_capacity(bytes.len()));
        let send_time = Self::read_parts(&mut Reader::new(bytes), &mut heads, &mut data)?;
        Ok(Self::from_parts(send_time, &heads, &data.freeze(), &mut 0))
    }

    /// Parses the packet that fills `r` into its parts: each payload's
    /// header is pushed to `heads` and its bytes appended to `data`, so
    /// the payloads of successive packets land back to back. Returns the
    /// send time.
    pub(crate) fn read_parts(
        r: &mut Reader<'_>,
        heads: &mut Vec<PayloadHead>,
        data: &mut BytesMut,
    ) -> Result<u64, AsfError> {
        let send_time = r.u64("packet send time")?;
        let count = r.u8("payload count")?;
        for _ in 0..count {
            let head = PayloadHead {
                stream: r.u16("payload stream")?,
                object_id: r.u32("payload object id")?,
                offset: r.u32("payload offset")?,
                total: r.u32("payload total")?,
                pres_time: r.u64("payload presentation time")?,
                len: r.u16("payload length")?,
            };
            data.put_slice(r.bytes(usize::from(head.len), "payload data")?);
            heads.push(head);
        }
        Ok(send_time)
    }

    /// The packet whose payload headers are `heads` and whose payload
    /// bytes lie back to back in `image` from `*at` on; moves `*at` past
    /// them. One allocation: the payload list.
    pub(crate) fn from_parts(
        send_time: u64,
        heads: &[PayloadHead],
        image: &Bytes,
        at: &mut usize,
    ) -> Self {
        let payloads = heads.iter().map(|h| {
            let start = *at;
            *at += usize::from(h.len);
            Payload {
                stream: h.stream,
                object_id: h.object_id,
                offset: h.offset,
                total: h.total,
                pres_time: h.pres_time,
                data: image.slice(start..*at),
            }
        });
        Self {
            send_time,
            payloads: payloads.collect(),
        }
    }

    /// Sum of payload byte lengths (excludes headers and padding).
    pub fn media_bytes(&self) -> usize {
        self.payloads.iter().map(|p| p.data.len()).sum()
    }
}

/// Splits media samples into fixed-size packets.
#[derive(Debug)]
pub struct Packetizer {
    packet_size: u32,
    next_object: HashMap<u16, u32>,
    current: Vec<Payload>,
    current_bytes: usize,
    current_first_time: Option<u64>,
    done: Vec<DataPacket>,
}

impl Packetizer {
    /// Creates a packetizer for the given fixed packet size.
    ///
    /// # Errors
    ///
    /// [`AsfError::PacketSizeTooSmall`] when a packet could not hold even a
    /// single one-byte fragment.
    pub fn new(packet_size: u32) -> Result<Self, AsfError> {
        if (packet_size as usize) < PACKET_HEADER_BYTES + PAYLOAD_HEADER_BYTES + 1 {
            return Err(AsfError::PacketSizeTooSmall(packet_size));
        }
        Ok(Self {
            packet_size,
            next_object: HashMap::new(),
            current: Vec::new(),
            current_bytes: PACKET_HEADER_BYTES,
            current_first_time: None,
            done: Vec::new(),
        })
    }

    /// The fixed packet size.
    pub fn packet_size(&self) -> u32 {
        self.packet_size
    }

    /// Adds a sample, fragmenting as needed. Samples should be pushed in
    /// presentation-time order per stream (the reassembler does not require
    /// it, but players assume monotone object ids mean monotone time).
    pub fn push(&mut self, sample: &MediaSample) {
        let object_id = {
            let ctr = self.next_object.entry(sample.stream).or_insert(0);
            let id = *ctr;
            *ctr += 1;
            id
        };
        let total = sample.data.len() as u32;
        let mut offset = 0usize;
        // Zero-length samples still emit one empty fragment (markers).
        loop {
            let space = self.packet_size as usize - self.current_bytes;
            if space < PAYLOAD_HEADER_BYTES + 1 || self.current.len() == MAX_PAYLOADS {
                self.flush_packet();
                continue;
            }
            let chunk = (sample.data.len() - offset)
                .min(space - PAYLOAD_HEADER_BYTES)
                .min(u16::MAX as usize);
            self.current.push(Payload {
                stream: sample.stream,
                object_id,
                offset: offset as u32,
                total,
                pres_time: sample.pres_time,
                data: sample.data.slice(offset..offset + chunk),
            });
            self.current_bytes += PAYLOAD_HEADER_BYTES + chunk;
            self.current_first_time.get_or_insert(sample.pres_time);
            offset += chunk;
            if offset >= sample.data.len() {
                break;
            }
        }
    }

    fn flush_packet(&mut self) {
        if self.current.is_empty() {
            return;
        }
        let send_time = self.current_first_time.take().unwrap_or(0);
        // Draining keeps `current`'s capacity for the next packet; the
        // exact-length drain collects into one allocation.
        self.done.push(DataPacket {
            send_time,
            payloads: self.current.drain(..).collect(),
        });
        self.current_bytes = PACKET_HEADER_BYTES;
    }

    /// Packets completed so far (drains them).
    pub fn take_completed(&mut self) -> Vec<DataPacket> {
        std::mem::take(&mut self.done)
    }

    /// Flushes any partial packet and returns everything.
    pub fn finish(mut self) -> Vec<DataPacket> {
        self.flush_packet();
        self.done
    }
}

/// Largest sample a [`Reassembler`] will rebuild. `total` is a wire
/// field: without a cap one crafted fragment sizes a 4 GiB buffer. Far
/// above anything the encoder emits (slides are tens of kilobytes).
pub const MAX_SAMPLE_BYTES: u32 = 16 << 20;

/// Object ids per stream a [`Reassembler`] tracks at once. Ids more
/// than this far behind the newest one seen count as delivered.
pub const REASSEMBLY_WINDOW: u32 = 1024;

/// What a [`Reassembler`] keeps of each fragment beside its extent, and
/// what it makes of a completed sample. The rules — which fragment is a
/// duplicate, an overlap or a contradiction, when a sample is whole — see
/// only extents, so they are the same whatever is kept.
///
/// [`Bytes`] keeps each fragment's view and completes [`MediaSample`]s;
/// `()` keeps nothing and completes `(stream, pres_time, len)` (see
/// [`LengthReassembler`]).
pub trait Keep: Sized + fmt::Debug {
    /// A completed sample.
    type Sample: fmt::Debug;
    /// What is kept of fragment `p`.
    fn keep(p: &Payload) -> Self;
    /// What is kept of a whole `total`-byte sample, joined from the
    /// `(offset, len, kept)` of its fragments in arrival order: they
    /// cover `0..total` exactly, without overlap.
    fn join(total: u32, pieces: &mut [(u32, u32, Self)]) -> Self;
    /// The completed `total`-byte sample.
    fn sample(stream: u16, pres_time: u64, total: u32, whole: Self) -> Self::Sample;
    /// `(pres_time, stream)` of a completed sample: the order
    /// [`Reassembler::drain_completed`] hands them on in.
    fn order(sample: &Self::Sample) -> (u64, u16);
}

impl Keep for Bytes {
    type Sample = MediaSample;

    fn keep(p: &Payload) -> Self {
        p.data.clone()
    }

    /// Pieces that are adjacent windows of one backing — fragments the
    /// packetizer sliced from one sample, in whatever order they arrived
    /// — join into one view of it; anything else is copied once.
    fn join(total: u32, pieces: &mut [(u32, u32, Self)]) -> Self {
        pieces.sort_unstable_by_key(|&(offset, _, _)| offset);
        let mut views = pieces.iter().map(|(_, _, b)| b);
        let mut joined = views.next().cloned().unwrap_or_default();
        if views.all(|b| joined.try_join(b)) {
            return joined;
        }
        let mut data = BytesMut::with_capacity(total as usize);
        for (_, _, b) in pieces.iter() {
            data.put_slice(b);
        }
        data.freeze()
    }

    fn sample(stream: u16, pres_time: u64, _: u32, data: Self) -> MediaSample {
        MediaSample {
            stream,
            pres_time,
            data,
        }
    }

    fn order(s: &MediaSample) -> (u64, u16) {
        (s.pres_time, s.stream)
    }
}

impl Keep for () {
    /// `(stream, pres_time, len)`.
    type Sample = (u16, u64, u32);

    fn keep(_: &Payload) {}

    fn join(_: u32, _: &mut [(u32, u32, ())]) {}

    fn sample(stream: u16, pres_time: u64, total: u32, (): ()) -> (u16, u64, u32) {
        (stream, pres_time, total)
    }

    fn order(&(stream, pres_time, _): &(u16, u64, u32)) -> (u64, u16) {
        (pres_time, stream)
    }
}

/// Rebuilds media samples from packets (loss- and reorder-tolerant).
///
/// Memory is bounded: per stream, a fixed [`REASSEMBLY_WINDOW`]-bit
/// delivered map and at most that many partial samples of at most
/// [`MAX_SAMPLE_BYTES`] each. The window follows the newest object id
/// seen; a partial sample it slides past is abandoned (and still counted
/// by [`Reassembler::incomplete`]), and late fragments of anything below
/// it are ignored like any other duplicate.
///
/// `K` is what is kept of each fragment ([`Keep`]): by default its bytes,
/// so completed samples are [`MediaSample`]s.
#[derive(Debug)]
pub struct Reassembler<K: Keep = Bytes> {
    /// A handful of streams: found by linear scan.
    streams: Vec<StreamWindow>,
    /// The one or two samples in flight (more only under loss), newest
    /// last: fragments arrive in order, so the scan runs from the back.
    partial: Vec<PartialSample<K>>,
    /// Partial samples the window slid past.
    abandoned: usize,
    complete: Vec<K::Sample>,
    /// Emptied `pieces` lists of finished partials, kept for the next one.
    spare_pieces: Vec<Vec<(u32, u32, K)>>,
}

/// A [`Reassembler`] that keeps no fragment bytes: it completes each
/// sample as `(stream, pres_time, len)`, for a receiver that only needs
/// to know what arrived when. Same rules, same errors, same
/// [`Reassembler::incomplete`] count.
pub type LengthReassembler = Reassembler<()>;

impl<K: Keep> Default for Reassembler<K> {
    fn default() -> Self {
        Self {
            streams: Vec::new(),
            partial: Vec::new(),
            abandoned: 0,
            complete: Vec::new(),
            spare_pieces: Vec::new(),
        }
    }
}

/// Which objects of one stream were delivered: a ring of
/// [`REASSEMBLY_WINDOW`] bits over ids `base..base + REASSEMBLY_WINDOW`.
#[derive(Debug)]
struct StreamWindow {
    stream: u16,
    /// Lowest tracked id (`u64`: the window's top may pass `u32::MAX`).
    base: u64,
    delivered: [u64; REASSEMBLY_WINDOW as usize / 64],
}

impl StreamWindow {
    const SPAN: u64 = REASSEMBLY_WINDOW as u64;

    fn bit(id: u64) -> (usize, u64) {
        let i = id % Self::SPAN;
        ((i / 64) as usize, 1 << (i % 64))
    }

    /// Whether `id` was delivered, or is too old to tell apart.
    fn is_delivered(&self, id: u32) -> bool {
        let id = u64::from(id);
        if id < self.base {
            return true;
        }
        let (word, mask) = Self::bit(id);
        id < self.base + Self::SPAN && self.delivered[word] & mask != 0
    }

    /// Slides the window up until it covers `id`. Returns whether it
    /// moved (so partials may have fallen out of it).
    fn cover(&mut self, id: u32) -> bool {
        let id = u64::from(id);
        let top = self.base + Self::SPAN;
        if id < top {
            return false;
        }
        self.base = id + 1 - Self::SPAN;
        // Ids entering the window reuse ring slots of ids leaving it.
        for entering in top.max(self.base)..=id {
            let (word, mask) = Self::bit(entering);
            self.delivered[word] &= !mask;
        }
        true
    }

    fn mark_delivered(&mut self, id: u32) {
        let (word, mask) = Self::bit(u64::from(id));
        self.delivered[word] |= mask;
    }
}

#[derive(Debug)]
struct PartialSample<K> {
    stream: u16,
    object_id: u32,
    pres_time: u64,
    total: u32,
    received: u32,
    /// `(offset, len, kept)` of every fragment received, in arrival
    /// order: nothing is joined until the sample is whole.
    pieces: Vec<(u32, u32, K)>,
}

impl Reassembler {
    /// An empty reassembler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<K: Keep> Reassembler<K> {
    /// Feeds one packet's payloads. Each payload is judged on its own: a
    /// bad fragment is refused and the payloads after it are still fed.
    ///
    /// # Errors
    ///
    /// The first payload's error, when one was refused:
    /// [`AsfError::FragmentMismatch`] when a fragment contradicts earlier
    /// fragments of the same object (different total or overlapping range
    /// with different content length bookkeeping);
    /// [`AsfError::BadSize`] when it declares a sample larger than
    /// [`MAX_SAMPLE_BYTES`].
    pub fn push_packet(&mut self, packet: &DataPacket) -> Result<(), AsfError> {
        let mut first = Ok(());
        for p in packet.payloads.iter() {
            if let Err(e) = self.push_payload(p) {
                first = first.and(Err(e));
            }
        }
        first
    }

    fn push_payload(&mut self, p: &Payload) -> Result<(), AsfError> {
        if p.total > MAX_SAMPLE_BYTES {
            return Err(AsfError::BadSize {
                context: "fragment sample total",
                size: u64::from(p.total),
            });
        }
        let w = match self.streams.iter().position(|w| w.stream == p.stream) {
            Some(w) => w,
            None => {
                self.streams.push(StreamWindow {
                    stream: p.stream,
                    base: 0,
                    delivered: [0; REASSEMBLY_WINDOW as usize / 64],
                });
                self.streams.len() - 1
            }
        };
        let window = &mut self.streams[w];
        if window.is_delivered(p.object_id) {
            // Late or duplicate fragment of an already-delivered sample.
            return Ok(());
        }
        let mismatch = AsfError::FragmentMismatch {
            stream: p.stream,
            object: p.object_id,
        };
        let len = p.data.len();
        let found = self
            .partial
            .iter()
            .rposition(|s| s.object_id == p.object_id && s.stream == p.stream);
        let at = match found {
            Some(at) => at,
            None => {
                if window.cover(p.object_id) {
                    let base = window.base;
                    let before = self.partial.len();
                    self.partial
                        .retain(|s| s.stream != p.stream || u64::from(s.object_id) >= base);
                    self.abandoned += before - self.partial.len();
                }
                if p.offset == 0 && len == p.total as usize {
                    // The whole sample in one fragment: hand it on.
                    window.mark_delivered(p.object_id);
                    let whole = K::keep(p);
                    self.complete
                        .push(K::sample(p.stream, p.pres_time, p.total, whole));
                    return Ok(());
                }
                self.partial.push(PartialSample {
                    stream: p.stream,
                    object_id: p.object_id,
                    pres_time: p.pres_time,
                    total: p.total,
                    received: 0,
                    pieces: self.spare_pieces.pop().unwrap_or_default(),
                });
                self.partial.len() - 1
            }
        };
        let entry = &mut self.partial[at];
        if entry.total != p.total || entry.pres_time != p.pres_time {
            return Err(mismatch);
        }
        let end = p.offset as usize + len;
        if end > entry.total as usize {
            return Err(mismatch);
        }
        // Ignore exact duplicates (retransmission); reject overlaps.
        let (offset, len) = (p.offset, len as u32);
        if entry
            .pieces
            .iter()
            .any(|&(o, l, _)| o == offset && l == len)
        {
            return Ok(());
        }
        if entry
            .pieces
            .iter()
            .any(|&(o, l, _)| offset < o + l && o < offset + len)
        {
            return Err(mismatch);
        }
        entry.pieces.push((offset, len, K::keep(p)));
        entry.received += len;
        if entry.received >= entry.total {
            let mut done = self.partial.swap_remove(at);
            self.streams[w].mark_delivered(done.object_id);
            let whole = K::join(done.total, &mut done.pieces);
            done.pieces.clear();
            self.spare_pieces.push(done.pieces);
            self.complete
                .push(K::sample(done.stream, done.pres_time, done.total, whole));
        }
        Ok(())
    }

    /// Drains completed samples, sorted by presentation time then stream.
    pub fn take_completed(&mut self) -> Vec<K::Sample> {
        self.drain_completed().collect()
    }

    /// Like [`Reassembler::take_completed`], but lends the samples out of
    /// the reassembler's own buffer, which keeps its capacity for the
    /// next packet.
    pub fn drain_completed(&mut self) -> std::vec::Drain<'_, K::Sample> {
        self.complete.sort_by_key(K::order);
        self.complete.drain(..)
    }

    /// Number of samples still missing fragments.
    pub fn incomplete(&self) -> usize {
        self.partial.len() + self.abandoned
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(stream: u16, t: u64, len: usize, fill: u8) -> MediaSample {
        MediaSample::new(stream, t, vec![fill; len])
    }

    #[test]
    fn small_samples_share_a_packet() {
        let mut pk = Packetizer::new(500).unwrap();
        pk.push(&sample(1, 0, 50, 0xAA));
        pk.push(&sample(2, 0, 50, 0xBB));
        let packets = pk.finish();
        assert_eq!(packets.len(), 1);
        assert_eq!(packets[0].payloads.len(), 2);
    }

    #[test]
    fn large_sample_fragments() {
        let mut pk = Packetizer::new(200).unwrap();
        pk.push(&sample(1, 0, 500, 0xCC));
        let packets = pk.finish();
        assert!(packets.len() >= 3, "got {}", packets.len());
        // All fragments carry the same object id and consistent offsets.
        let frags: Vec<&Payload> = packets.iter().flat_map(|p| p.payloads.iter()).collect();
        assert!(frags.iter().all(|f| f.object_id == 0 && f.total == 500));
        let covered: usize = frags.iter().map(|f| f.data.len()).sum();
        assert_eq!(covered, 500);
    }

    #[test]
    fn packetize_reassemble_identity() {
        let samples = vec![
            sample(1, 0, 333, 1),
            sample(2, 10, 10, 2),
            sample(1, 40, 1200, 3),
            sample(1, 80, 0, 4), // empty marker sample
            sample(2, 90, 64, 5),
        ];
        let mut pk = Packetizer::new(256).unwrap();
        for s in &samples {
            pk.push(s);
        }
        let packets = pk.finish();
        let mut rs = Reassembler::new();
        for p in &packets {
            rs.push_packet(p).unwrap();
        }
        let mut got = rs.take_completed();
        got.sort_by_key(|s| (s.pres_time, s.stream));
        let mut want = samples;
        want.sort_by_key(|s| (s.pres_time, s.stream));
        assert_eq!(got, want);
        assert_eq!(rs.incomplete(), 0);
    }

    #[test]
    fn loss_leaves_sample_incomplete() {
        let mut pk = Packetizer::new(128).unwrap();
        pk.push(&sample(1, 0, 1000, 7));
        let packets = pk.finish();
        assert!(packets.len() > 2);
        let mut rs = Reassembler::new();
        // Drop the middle packet.
        for (i, p) in packets.iter().enumerate() {
            if i != packets.len() / 2 {
                rs.push_packet(p).unwrap();
            }
        }
        assert!(rs.take_completed().is_empty());
        assert_eq!(rs.incomplete(), 1);
    }

    #[test]
    fn reorder_tolerated() {
        let mut pk = Packetizer::new(128).unwrap();
        pk.push(&sample(1, 5, 700, 9));
        let mut packets = pk.finish();
        packets.reverse();
        let mut rs = Reassembler::new();
        for p in &packets {
            rs.push_packet(p).unwrap();
        }
        let got = rs.take_completed();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].data, vec![9u8; 700]);
    }

    #[test]
    fn duplicates_ignored() {
        let mut pk = Packetizer::new(128).unwrap();
        pk.push(&sample(1, 5, 300, 9));
        let packets = pk.finish();
        let mut rs = Reassembler::new();
        for p in packets.iter().chain(packets.iter()) {
            rs.push_packet(p).unwrap();
        }
        assert_eq!(rs.take_completed().len(), 1);
    }

    #[test]
    fn conflicting_total_rejected() {
        let mut rs = Reassembler::new();
        let a = Payload {
            stream: 1,
            object_id: 0,
            offset: 0,
            total: 100,
            pres_time: 0,
            data: vec![0; 10].into(),
        };
        let mut b = a.clone();
        b.offset = 10;
        b.total = 999;
        rs.push_packet(&DataPacket {
            send_time: 0,
            payloads: vec![a].into(),
        })
        .unwrap();
        let err = rs
            .push_packet(&DataPacket {
                send_time: 0,
                payloads: vec![b].into(),
            })
            .unwrap_err();
        assert!(matches!(err, AsfError::FragmentMismatch { .. }));
    }

    #[test]
    fn a_bad_fragment_does_not_cost_the_rest_of_its_packet() {
        let mut rs = Reassembler::new();
        rs.push_packet(&fragment(0, 0, 100, vec![0; 10])).unwrap();
        // A fragment contradicting object 0's total, then two whole
        // one-fragment samples, in one packet.
        let mut payloads = fragment(0, 10, 999, vec![0; 10]).payloads.to_vec();
        for id in [1, 2] {
            payloads.extend(fragment(id, 0, 1, vec![7]).payloads.iter().cloned());
        }
        let err = rs
            .push_packet(&DataPacket {
                send_time: 0,
                payloads: payloads.into(),
            })
            .unwrap_err();
        assert!(matches!(err, AsfError::FragmentMismatch { object: 0, .. }));
        let done: Vec<u64> = rs.take_completed().iter().map(|s| s.pres_time).collect();
        assert_eq!(done, [1, 2]);
        assert_eq!(rs.incomplete(), 1);
    }

    fn fragment(object_id: u32, offset: u32, total: u32, data: Vec<u8>) -> DataPacket {
        DataPacket {
            send_time: 0,
            payloads: vec![Payload {
                stream: 1,
                object_id,
                offset,
                total,
                pres_time: u64::from(object_id),
                data: data.into(),
            }]
            .into(),
        }
    }

    #[test]
    fn sample_total_is_capped() {
        let mut rs = Reassembler::new();
        // At the cap: accepted, and held as the one 10-byte view it
        // arrived as — nothing is sized by `total` up front.
        let first = fragment(0, 0, MAX_SAMPLE_BYTES, vec![1; 10]);
        rs.push_packet(&first).unwrap();
        assert_eq!(rs.incomplete(), 1);
        let pieces = &rs.partial[0].pieces;
        assert_eq!(pieces.len(), 1);
        assert_eq!((pieces[0].0, pieces[0].1), (0, 10));
        assert_eq!(pieces[0].2.backing_len(), 10);
        assert_eq!(
            pieces[0].2.backing_id(),
            first.payloads[0].data.backing_id()
        );
        // One past it (and the 4 GiB a wire field can ask for): refused
        // before any state is made.
        for total in [MAX_SAMPLE_BYTES + 1, u32::MAX] {
            let err = rs
                .push_packet(&fragment(1, 0, total, vec![1; 10]))
                .unwrap_err();
            assert!(
                matches!(err, AsfError::BadSize { size, .. } if size == u64::from(total)),
                "{err:?}"
            );
        }
        assert_eq!(rs.incomplete(), 1);
    }

    #[test]
    fn delivered_window_slides_and_stays_fixed_size() {
        let mut rs = Reassembler::new();
        // Object 0 stays partial while the window fills to its last id.
        rs.push_packet(&fragment(0, 0, 4, vec![9; 2])).unwrap();
        for id in 1..REASSEMBLY_WINDOW {
            rs.push_packet(&fragment(id, 0, 1, vec![7])).unwrap();
        }
        assert_eq!(rs.take_completed().len(), REASSEMBLY_WINDOW as usize - 1);
        assert_eq!((rs.partial.len(), rs.abandoned), (1, 0));
        // At the cap every id is still told apart: a duplicate of the
        // oldest delivered object is ignored, object 0 can still finish.
        rs.push_packet(&fragment(1, 0, 1, vec![7])).unwrap();
        assert!(rs.take_completed().is_empty());
        // One past it the window slides by one: object 0 is abandoned
        // (still counted incomplete) and its late fragment is ignored.
        rs.push_packet(&fragment(REASSEMBLY_WINDOW, 0, 1, vec![7]))
            .unwrap();
        assert_eq!(rs.take_completed().len(), 1);
        assert_eq!((rs.partial.len(), rs.abandoned), (0, 1));
        assert_eq!(rs.incomplete(), 1);
        rs.push_packet(&fragment(0, 2, 4, vec![9; 2])).unwrap();
        assert!(rs.take_completed().is_empty());
        // An id at the very top of the range sizes nothing by its value.
        rs.push_packet(&fragment(u32::MAX, 0, 1, vec![7])).unwrap();
        rs.push_packet(&fragment(u32::MAX - 1, 0, 2, vec![7]))
            .unwrap();
        assert_eq!(rs.take_completed().len(), 1);
        assert_eq!(rs.streams.len(), 1);
        assert_eq!((rs.partial.len(), rs.abandoned), (1, 1));
        // Everything below the window now counts as delivered.
        rs.push_packet(&fragment(5_000, 0, 1, vec![7])).unwrap();
        assert!(rs.take_completed().is_empty());
    }

    #[test]
    fn whole_sample_fragment_is_handed_on_without_a_copy() {
        let s = sample(1, 0, 100, 0x3C);
        let mut pk = Packetizer::new(512).unwrap();
        pk.push(&s);
        let mut rs = Reassembler::new();
        for p in pk.finish() {
            rs.push_packet(&p).unwrap();
        }
        let got = rs.take_completed();
        assert_eq!(got, vec![s.clone()]);
        assert_eq!(got[0].data.backing_id(), s.data.backing_id());
    }

    #[test]
    fn fragments_of_one_sample_join_into_one_view_in_any_order() {
        let s = MediaSample::new(1, 0, (0..1_000u32).map(|i| i as u8).collect::<Vec<u8>>());
        let mut pk = Packetizer::new(200).unwrap();
        pk.push(&s);
        let mut packets = pk.finish();
        assert!(packets.len() > 2, "sample must fragment");
        packets.swap(0, 2);
        packets.reverse();
        let mut rs = Reassembler::new();
        for p in &packets {
            rs.push_packet(p).unwrap();
        }
        let got = rs.take_completed();
        assert_eq!(got, vec![s.clone()]);
        assert_eq!(got[0].data.backing_id(), s.data.backing_id());
        // Fragments read back off the wire each own a backing: one copy.
        let mut rs = Reassembler::new();
        for p in &packets {
            rs.push_packet(&DataPacket::read(&p.write(200).unwrap(), 200).unwrap())
                .unwrap();
        }
        let got = rs.take_completed();
        assert_eq!(got, vec![s.clone()]);
        assert_ne!(got[0].data.backing_id(), s.data.backing_id());
        assert_eq!(got[0].data.backing_len(), 1_000);
    }

    #[test]
    fn packet_wire_round_trip() {
        let mut pk = Packetizer::new(300).unwrap();
        pk.push(&sample(3, 123, 400, 0x5A));
        let packets = pk.finish();
        for p in &packets {
            let bytes = p.write(300).unwrap();
            assert_eq!(bytes.len(), 300);
            let back = DataPacket::read(&bytes, 300).unwrap();
            assert_eq!(&back, p);
        }
    }

    #[test]
    fn packetizer_flushes_at_the_payload_count_limit() {
        // 65 000-byte packets have room for 878 fifty-byte fragments, but
        // the count is one byte on the wire (878 would read back as 110).
        let mut pk = Packetizer::new(65_000).unwrap();
        for i in 0..2_000 {
            pk.push(&sample(1, i, 50, i as u8));
        }
        let packets = pk.finish();
        let counts: Vec<usize> = packets.iter().map(|p| p.payloads.len()).collect();
        assert_eq!(counts, [255, 255, 255, 255, 255, 255, 255, 215]);
        for p in &packets {
            let bytes = p.write(65_000).unwrap();
            assert_eq!(&DataPacket::read(&bytes, 65_000).unwrap(), p);
        }
    }

    #[test]
    fn write_refuses_what_its_wire_fields_cannot_say() {
        let mut p = fragment(0, 0, 0, Vec::new());
        let mut payloads = vec![p.payloads[0].clone(); MAX_PAYLOADS];
        p.payloads = payloads.clone().into();
        assert!(p.write(65_000).is_ok());
        payloads.push(payloads[0].clone());
        p.payloads = payloads.into();
        assert_eq!(
            p.write(65_000).unwrap_err(),
            AsfError::BadSize {
                context: "data packet payload count",
                size: 256
            }
        );

        let longest = usize::from(u16::MAX);
        let fits = fragment(0, 0, 70_000, vec![7; longest]);
        assert_eq!(
            DataPacket::read(&fits.write(70_000).unwrap(), 70_000),
            Ok(fits)
        );
        assert_eq!(
            fragment(0, 0, 70_000, vec![7; longest + 1])
                .write(70_000)
                .unwrap_err(),
            AsfError::BadSize {
                context: "payload length",
                size: 65_536
            }
        );
    }

    #[test]
    fn a_refused_packet_writes_nothing() {
        let mut w = Writer::new();
        w.u8(1);
        assert!(fragment(0, 0, 500, vec![7; 500])
            .write_into(&mut w, 200)
            .is_err());
        assert_eq!(w.into_vec(), [1]);
    }

    #[test]
    fn too_small_packet_size_rejected() {
        assert!(matches!(
            Packetizer::new(16),
            Err(AsfError::PacketSizeTooSmall(16))
        ));
    }

    #[test]
    fn object_ids_independent_per_stream() {
        let mut pk = Packetizer::new(512).unwrap();
        pk.push(&sample(1, 0, 10, 1));
        pk.push(&sample(2, 0, 10, 2));
        pk.push(&sample(1, 1, 10, 3));
        let packets = pk.finish();
        let ids: Vec<(u16, u32)> = packets
            .iter()
            .flat_map(|p| p.payloads.iter())
            .map(|p| (p.stream, p.object_id))
            .collect();
        assert_eq!(ids, [(1, 0), (2, 0), (1, 1)]);
    }

    #[test]
    fn fragments_are_zero_copy_views_of_the_sample() {
        let s = sample(1, 0, 1_000, 0x3C);
        let mut pk = Packetizer::new(200).unwrap();
        pk.push(&s);
        let packets = pk.finish();
        assert!(packets.len() > 1, "sample must fragment");
        for frag in packets.iter().flat_map(|p| p.payloads.iter()) {
            assert_eq!(
                frag.data.backing_id(),
                s.data.backing_id(),
                "fragment copied instead of slicing the sample buffer"
            );
        }
    }

    #[test]
    fn send_time_is_first_payload_time() {
        let mut pk = Packetizer::new(512).unwrap();
        pk.push(&sample(1, 42, 10, 1));
        pk.push(&sample(1, 99, 10, 1));
        let packets = pk.finish();
        assert_eq!(packets[0].send_time, 42);
    }
}
