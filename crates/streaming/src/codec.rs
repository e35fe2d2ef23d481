//! Binary wire codec for [`Wire`]: the encoding real datagrams carry.
//!
//! On simnet a message travels as a Rust value and only its *size* is
//! simulated; on the UDP backend the encoding below is the actual
//! payload of every frame. The layout follows `lod-transport`'s framing
//! conventions — little-endian fixed-width integers, `u32`
//! length-prefixed strings and sequences, one tag byte per enum variant,
//! one presence byte per `Option` — so the whole `Wire` enum round-trips
//! exactly (proptests at the bottom drive every variant, including
//! segment payload boundaries; `tests/wire_golden.rs` pins the bytes).
//!
//! Each layout is written once. A `Field` knows how to put, measure
//! and take one building block; `record!` lists a struct's fields in
//! wire order and `tagged!` an enum's tags, and each expands to all
//! three directions, so the encoder, the exact length and the decoder
//! cannot disagree. Two types keep a hand-written impl: [`DataPacket`],
//! whose decoder refuses a payload count the buffer cannot hold and
//! collects into the packet's one `Rc<[Payload]>` allocation, and
//! [`ScriptCommandList`], which is built by sorted `push`.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use bytes::Bytes;
use lod_asf::{
    DataPacket, DrmHeader, FileProperties, Payload, ScriptCommand, ScriptCommandList, StreamKind,
    StreamProperties,
};
use lod_obs::TraceCtx;
use lod_simnet::NodeId;
use lod_transport::frame::{write_bytes, write_string, write_trace, Reader, TRACE_EXT_BYTES};
use lod_transport::{CodecError, WireCodec};

use crate::wire::{ControlRequest, SegmentData, StreamHeader, Wire};

/// One building block of the wire layout.
trait Field: Sized {
    /// Appends the encoding of `self`.
    fn put(&self, buf: &mut Vec<u8>);
    /// Exactly how many bytes [`Field::put`] appends.
    fn len(&self) -> usize;
    /// Decodes one value.
    fn take(r: &mut Reader<'_>) -> Result<Self, CodecError>;
}

macro_rules! int_fields {
    ($($t:ident)*) => {$(
        impl Field for $t {
            fn put(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }
            fn len(&self) -> usize {
                std::mem::size_of::<$t>()
            }
            fn take(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                r.$t()
            }
        }
    )*};
}

int_fields!(u8 u16 u32 u64);

impl Field for bool {
    fn put(&self, buf: &mut Vec<u8>) {
        buf.push(u8::from(*self));
    }
    fn len(&self) -> usize {
        1
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.bool()
    }
}

impl Field for String {
    fn put(&self, buf: &mut Vec<u8>) {
        write_string(buf, self);
    }
    fn len(&self) -> usize {
        4 + self.len()
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.string()
    }
}

impl Field for Bytes {
    fn put(&self, buf: &mut Vec<u8>) {
        write_bytes(buf, self);
    }
    fn len(&self) -> usize {
        4 + self.len()
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        // Zero-copy when decoding from a shared datagram buffer: the
        // fragment is a view of the receive allocation, not a copy.
        r.bytes_shared()
    }
}

impl Field for NodeId {
    fn put(&self, buf: &mut Vec<u8>) {
        Field::put(&(self.index() as u64), buf);
    }
    fn len(&self) -> usize {
        8
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(NodeId::from_index(r.u64()? as usize))
    }
}

impl Field for [u8; 8] {
    fn put(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(self);
    }
    fn len(&self) -> usize {
        8
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(r.u64()?.to_le_bytes())
    }
}

/// The frame's trace extension layout, shared with `lod-transport`.
impl Field for TraceCtx {
    fn put(&self, buf: &mut Vec<u8>) {
        write_trace(buf, *self);
    }
    fn len(&self) -> usize {
        TRACE_EXT_BYTES
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.trace()
    }
}

impl<T: Field> Field for Option<T> {
    fn put(&self, buf: &mut Vec<u8>) {
        Field::put(&self.is_some(), buf);
        if let Some(v) = self {
            v.put(buf);
        }
    }
    fn len(&self) -> usize {
        1 + self.as_ref().map_or(0, Field::len)
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(if r.bool()? { Some(T::take(r)?) } else { None })
    }
}

/// A `u32` count, then each item.
fn put_seq<T: Field>(items: &[T], buf: &mut Vec<u8>) {
    Field::put(&(items.len() as u32), buf);
    for item in items {
        item.put(buf);
    }
}

fn seq_len<T: Field>(items: &[T]) -> usize {
    4 + items.iter().map(Field::len).sum::<usize>()
}

impl<T: Field> Field for Vec<T> {
    fn put(&self, buf: &mut Vec<u8>) {
        put_seq(self, buf);
    }
    fn len(&self) -> usize {
        seq_len(self)
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = r.u32()? as usize;
        // The count is a wire field: never reserve more than a bounded
        // guess by it; a lying count ends in `Truncated`.
        let mut items = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            items.push(T::take(r)?);
        }
        Ok(items)
    }
}

impl<T: Field> Field for Box<T> {
    fn put(&self, buf: &mut Vec<u8>) {
        T::put(self, buf);
    }
    fn len(&self) -> usize {
        T::len(self)
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        T::take(r).map(Box::new)
    }
}

/// Structs whose encoding is their fields in the listed order.
macro_rules! record {
    ($($ty:ident { $first:ident $(, $field:ident)* $(,)? })*) => {$(
        impl Field for $ty {
            fn put(&self, buf: &mut Vec<u8>) {
                Field::put(&self.$first, buf);
                $(Field::put(&self.$field, buf);)*
            }
            fn len(&self) -> usize {
                Field::len(&self.$first) $(+ Field::len(&self.$field))*
            }
            fn take(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                // Struct fields evaluate in the order written: wire order.
                Ok(Self {
                    $first: Field::take(r)?,
                    $($field: Field::take(r)?,)*
                })
            }
        }
    )*};
}

record! {
    Payload { stream, object_id, offset, total, pres_time, data }
    ScriptCommand { time, kind, param }
    FileProperties { file_id, created, packet_size, play_duration, preroll, broadcast, max_bitrate }
    StreamProperties { number, kind, codec, bitrate, name }
    DrmHeader { key_id, probe }
    StreamHeader { props, streams, script, drm, epoch }
    SegmentData {
        content, segment, base_packet, total_packets, total_segments, segment_packets,
        packet_size, packets, header, start_packet, at_time, epoch, trace,
    }
}

/// Enums encoded as one tag byte, then the variant's fields in order.
/// A tuple variant's fields are named here only to bind them.
macro_rules! tagged {
    ($($ty:ident {
        $($tag:literal => $variant:ident $(($($t:ident),*))? $({ $($f:ident),* })?,)*
    })*) => {$(
        impl Field for $ty {
            fn put(&self, buf: &mut Vec<u8>) {
                match self {
                    $($ty::$variant $(($($t),*))? $({ $($f),* })? => {
                        buf.push($tag);
                        $($(Field::put($t, buf);)*)?
                        $($(Field::put($f, buf);)*)?
                    })*
                }
            }
            fn len(&self) -> usize {
                match self {
                    $($ty::$variant $(($($t),*))? $({ $($f),* })? => {
                        1 $($(+ Field::len($t))*)? $($(+ Field::len($f))*)?
                    })*
                }
            }
            fn take(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                Ok(match r.u8()? {
                    $($tag => {
                        $($(let $t = Field::take(r)?;)*)?
                        $($(let $f = Field::take(r)?;)*)?
                        $ty::$variant $(($($t),*))? $({ $($f),* })?
                    })*
                    tag => return Err(CodecError::BadTag { what: stringify!($ty), tag }),
                })
            }
        }
    )*};
}

tagged! {
    StreamKind {
        1 => Audio,
        2 => Video,
        3 => Image,
        4 => Script,
    }
    ControlRequest {
        0 => Play { content, from },
        1 => Pause,
        2 => Resume,
        3 => Seek { to },
        4 => SelectStreams(streams),
        5 => Teardown,
        6 => FetchSegment { content, segment, at_time, want_header, trace },
        7 => Ping { epoch },
    }
    Wire {
        0 => Request(request),
        1 => Header(header),
        2 => Data(packet),
        3 => Script(command),
        4 => EndOfStream,
        5 => NotFound(content),
        6 => Segment(segment),
        7 => Redirect { to },
        8 => Busy { retry_after, alternate },
        9 => Pong { epoch },
        10 => Mark(trace),
    }
}

/// Encoded size of an empty payload: its fixed fields and data length.
const MIN_PAYLOAD_BYTES: usize = 2 + 4 + 4 + 4 + 8 + 4;

impl Field for DataPacket {
    fn put(&self, buf: &mut Vec<u8>) {
        Field::put(&self.send_time, buf);
        put_seq(&self.payloads, buf);
    }
    fn len(&self) -> usize {
        8 + seq_len(&self.payloads)
    }
    #[inline]
    fn take(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let send_time = r.u64()?;
        let n = r.u32()? as usize;
        // The count is a wire field: refuse one the buffer cannot hold
        // before anything is sized by it.
        if n > r.remaining() / MIN_PAYLOAD_BYTES {
            return Err(CodecError::Truncated);
        }
        // An exact-length map collects into the packet's one allocation. It
        // cannot stop early, so it keeps the first error and fills in.
        let mut failed = None;
        let payloads = (0..n)
            .map(|_| {
                Payload::take(r).unwrap_or_else(|e| {
                    failed.get_or_insert(e);
                    Payload::default()
                })
            })
            .collect();
        match failed {
            Some(e) => Err(e),
            None => Ok(DataPacket {
                send_time,
                payloads,
            }),
        }
    }
}

impl Field for ScriptCommandList {
    fn put(&self, buf: &mut Vec<u8>) {
        put_seq(self.commands(), buf);
    }
    fn len(&self) -> usize {
        seq_len(self.commands())
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Vec::<ScriptCommand>::take(r)?.into_iter().collect())
    }
}

impl WireCodec for Wire {
    fn encode_wire(&self, buf: &mut Vec<u8>) {
        Field::put(self, buf);
    }

    fn encoded_len(&self) -> usize {
        Field::len(self)
    }

    fn decode_wire(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Field::take(r)
    }

    fn trace_ctx(&self) -> Option<TraceCtx> {
        // The three message shapes a sampled segment rides: the relay's
        // fetch, the origin's segment answer, and the fan-out marker.
        match self {
            Wire::Request(ControlRequest::FetchSegment { trace, .. }) => *trace,
            Wire::Segment(s) => s.trace,
            Wire::Mark(ctx) => Some(*ctx),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn round_trip(w: &Wire) -> Wire {
        let bytes = w.to_frame_payload();
        Wire::from_frame_payload(&bytes).expect("decodes")
    }

    /// `Option` strategy (the stub has no `proptest::option::of`).
    fn opt<S: Strategy>(s: S) -> impl Strategy<Value = Option<S::Value>> {
        (any::<bool>(), s).prop_map(|(some, v)| some.then_some(v))
    }

    fn arb_node() -> impl Strategy<Value = NodeId> {
        any::<u16>().prop_map(|i| NodeId::from_index(i as usize))
    }

    fn arb_payload() -> impl Strategy<Value = Payload> {
        (
            any::<u16>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<u64>(),
            proptest::collection::vec(any::<u8>(), 0..64),
        )
            .prop_map(
                |(stream, object_id, offset, total, pres_time, data)| Payload {
                    stream,
                    object_id,
                    offset,
                    total,
                    pres_time,
                    data: data.into(),
                },
            )
    }

    fn arb_packet() -> impl Strategy<Value = DataPacket> {
        (any::<u64>(), proptest::collection::vec(arb_payload(), 0..4)).prop_map(
            |(send_time, payloads)| DataPacket {
                send_time,
                payloads: payloads.into(),
            },
        )
    }

    fn arb_script_command() -> impl Strategy<Value = ScriptCommand> {
        (any::<u64>(), "[a-z]{0,8}", "[ -~]{0,16}").prop_map(|(time, kind, param)| ScriptCommand {
            time,
            kind,
            param,
        })
    }

    fn arb_stream_props() -> impl Strategy<Value = StreamProperties> {
        (
            any::<u16>(),
            prop_oneof![
                Just(StreamKind::Audio),
                Just(StreamKind::Video),
                Just(StreamKind::Image),
                Just(StreamKind::Script),
            ],
            any::<u16>(),
            any::<u32>(),
            "[ -~]{0,12}",
        )
            .prop_map(|(number, kind, codec, bitrate, name)| StreamProperties {
                number,
                kind,
                codec,
                bitrate,
                name,
            })
    }

    fn arb_drm() -> impl Strategy<Value = DrmHeader> {
        ("[a-z]{1,8}", proptest::collection::vec(any::<u8>(), 8)).prop_map(|(key_id, probe)| {
            DrmHeader {
                key_id,
                probe: probe.try_into().expect("length 8"),
            }
        })
    }

    fn arb_header() -> impl Strategy<Value = StreamHeader> {
        (
            (
                (any::<u64>(), any::<u64>(), any::<u32>()),
                (any::<u64>(), any::<u64>(), any::<bool>(), any::<u32>()),
            ),
            proptest::collection::vec(arb_stream_props(), 0..3),
            proptest::collection::vec(arb_script_command(), 0..3),
            opt(arb_drm()),
            any::<u64>(),
        )
            .prop_map(
                |(((file_id, created, packet_size), rest), streams, cmds, drm, epoch)| {
                    let mut script = ScriptCommandList::new();
                    for c in cmds {
                        script.push(c);
                    }
                    StreamHeader {
                        props: FileProperties {
                            file_id,
                            created,
                            packet_size,
                            play_duration: rest.0,
                            preroll: rest.1,
                            broadcast: rest.2,
                            max_bitrate: rest.3,
                        },
                        streams,
                        script,
                        drm,
                        epoch,
                    }
                },
            )
    }

    fn arb_trace() -> impl Strategy<Value = TraceCtx> {
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
            |(lecture, segment, seq, origin)| TraceCtx {
                lecture,
                segment,
                seq,
                origin,
            },
        )
    }

    fn arb_request() -> impl Strategy<Value = ControlRequest> {
        prop_oneof![
            ("[ -~]{0,16}", any::<u64>())
                .prop_map(|(content, from)| ControlRequest::Play { content, from }),
            Just(ControlRequest::Pause),
            Just(ControlRequest::Resume),
            any::<u64>().prop_map(|to| ControlRequest::Seek { to }),
            proptest::collection::vec(any::<u16>(), 0..6).prop_map(ControlRequest::SelectStreams),
            Just(ControlRequest::Teardown),
            (
                "[ -~]{0,16}",
                any::<u32>(),
                opt(any::<u64>()),
                any::<bool>(),
                opt(arb_trace())
            )
                .prop_map(|(content, segment, at_time, want_header, trace)| {
                    ControlRequest::FetchSegment {
                        content,
                        segment,
                        at_time,
                        want_header,
                        trace,
                    }
                }),
            any::<u64>().prop_map(|epoch| ControlRequest::Ping { epoch }),
        ]
    }

    fn arb_segment() -> impl Strategy<Value = SegmentData> {
        (
            (
                "[ -~]{0,12}",
                any::<u32>(),
                any::<u32>(),
                any::<u32>(),
                any::<u32>(),
                any::<u32>(),
            ),
            (
                any::<u32>(),
                proptest::collection::vec(arb_packet(), 0..3),
                opt(arb_header().prop_map(Box::new)),
            ),
            (
                opt(any::<u32>()),
                opt(any::<u64>()),
                any::<u64>(),
                opt(arb_trace()),
            ),
        )
            .prop_map(
                |(f, (packet_size, packets, header), (start_packet, at_time, epoch, trace))| {
                    SegmentData {
                        content: f.0,
                        segment: f.1,
                        base_packet: f.2,
                        total_packets: f.3,
                        total_segments: f.4,
                        segment_packets: f.5,
                        packet_size,
                        packets,
                        header,
                        start_packet,
                        at_time,
                        epoch,
                        trace,
                    }
                },
            )
    }

    fn arb_wire() -> impl Strategy<Value = Wire> {
        prop_oneof![
            arb_request().prop_map(Wire::Request),
            arb_header().prop_map(|h| Wire::Header(Box::new(h))),
            arb_packet().prop_map(Wire::Data),
            arb_script_command().prop_map(Wire::Script),
            Just(Wire::EndOfStream),
            "[ -~]{0,24}".prop_map(Wire::NotFound),
            arb_segment().prop_map(Wire::Segment),
            arb_node().prop_map(|to| Wire::Redirect { to }),
            (any::<u64>(), opt(arb_node())).prop_map(|(retry_after, alternate)| Wire::Busy {
                retry_after,
                alternate,
            }),
            any::<u64>().prop_map(|epoch| Wire::Pong { epoch }),
            arb_trace().prop_map(Wire::Mark),
        ]
    }

    proptest! {
        #[test]
        fn every_wire_variant_round_trips(w in arb_wire()) {
            prop_assert_eq!(round_trip(&w), w);
        }

        #[test]
        fn encoded_len_is_exact_and_allocated_once(w in arb_wire()) {
            let bytes = w.to_frame_payload();
            prop_assert_eq!(w.encoded_len(), bytes.len());
            prop_assert_eq!(bytes.capacity(), bytes.len());
        }

        #[test]
        fn busy_alternate_round_trips(retry in any::<u64>(), alt in opt(arb_node())) {
            let w = Wire::Busy {
                retry_after: retry,
                alternate: alt,
            };
            prop_assert_eq!(round_trip(&w), w);
        }

        #[test]
        fn segment_payload_boundaries_round_trip(
            n_packets in 0usize..5,
            payload_len in prop_oneof![Just(0usize), Just(1), Just(255), Just(256), Just(1400)],
        ) {
            // The boundaries that matter on a real wire: empty, one-byte,
            // u8-boundary and MTU-sized payload fragments inside a
            // multi-packet segment.
            let packets: Vec<DataPacket> = (0..n_packets)
                .map(|i| DataPacket {
                    send_time: i as u64 * 1_000,
                    payloads: vec![Payload {
                        stream: 1,
                        object_id: i as u32,
                        offset: 0,
                        total: payload_len as u32,
                        pres_time: i as u64,
                        data: vec![0xAB; payload_len].into(),
                    }]
                    .into(),
                })
                .collect();
            let w = Wire::Segment(SegmentData {
                content: "lecture".into(),
                segment: 3,
                base_packet: 48,
                total_packets: 160,
                total_segments: 10,
                segment_packets: 16,
                packet_size: 1_500,
                packets,
                header: None,
                start_packet: Some(48),
                at_time: Some(7_000_000),
                epoch: 2,
                trace: Some(TraceCtx {
                    lecture: 11,
                    segment: 3,
                    seq: 9,
                    origin: 1_000,
                }),
            });
            prop_assert_eq!(round_trip(&w), w);
        }

        #[test]
        fn decoder_never_panics_on_junk(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = Wire::from_frame_payload(&bytes);
        }

        #[test]
        fn shared_decode_round_trips_and_is_zero_copy(w in arb_wire()) {
            // Decoding from a shared buffer must (a) agree with the
            // plain decoder and (b) hand every payload fragment out as
            // a view of that one buffer: same backing allocation, and
            // the fragment's pointer range inside the backing range.
            let payload = bytes::Bytes::from(w.to_frame_payload());
            let decoded = Wire::from_shared_payload(&payload).expect("decodes");
            prop_assert_eq!(&decoded, &w);
            let packets: &[DataPacket] = match &decoded {
                Wire::Data(p) => std::slice::from_ref(p),
                Wire::Segment(s) => &s.packets,
                _ => &[],
            };
            let start = payload.as_ptr() as usize;
            let end = start + payload.len();
            for frag in packets.iter().flat_map(|p| p.payloads.iter()) {
                if frag.data.is_empty() {
                    continue; // empty views share the static empty backing
                }
                prop_assert_eq!(
                    frag.data.backing_id(),
                    payload.backing_id(),
                    "payload fragment was copied out of the datagram buffer"
                );
                let fs = frag.data.as_ptr() as usize;
                prop_assert!(fs >= start && fs + frag.data.len() <= end);
            }
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = Wire::EndOfStream.to_frame_payload();
        bytes.push(0);
        assert_eq!(
            Wire::from_frame_payload(&bytes).unwrap_err(),
            CodecError::TrailingBytes(1)
        );
    }

    #[test]
    fn truncated_segment_is_rejected() {
        let w = Wire::Segment(SegmentData {
            content: "lec".into(),
            segment: 0,
            base_packet: 0,
            total_packets: 1,
            total_segments: 1,
            segment_packets: 1,
            packet_size: 100,
            packets: vec![DataPacket {
                send_time: 0,
                payloads: Vec::new().into(),
            }],
            header: None,
            start_packet: None,
            at_time: None,
            epoch: 0,
            trace: None,
        });
        let bytes = w.to_frame_payload();
        for cut in 1..bytes.len() {
            assert!(
                Wire::from_frame_payload(&bytes[..cut]).is_err(),
                "cut at {cut} must not decode"
            );
        }
    }
}
