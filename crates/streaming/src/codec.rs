//! Binary wire codec for [`Wire`]: the encoding real datagrams carry.
//!
//! On simnet a message travels as a Rust value and only its *size* is
//! simulated; on the UDP backend the encoding below is the actual
//! payload of every frame. The layout follows `lod-transport`'s framing
//! conventions — little-endian fixed-width integers, `u32`
//! length-prefixed strings, one tag byte per enum variant, one presence
//! byte per `Option` — so the whole `Wire` enum round-trips exactly
//! (proptests at the bottom drive every variant, including segment
//! payload boundaries).

use lod_asf::{
    DataPacket, DrmHeader, FileProperties, Payload, ScriptCommand, ScriptCommandList, StreamKind,
    StreamProperties,
};
use lod_obs::TraceCtx;
use lod_simnet::NodeId;
use lod_transport::frame::{
    write_bool, write_bytes, write_string, write_u16, write_u32, write_u64, Reader,
};
use lod_transport::{CodecError, WireCodec};

use crate::wire::{ControlRequest, SegmentData, StreamHeader, Wire};

// ---- helpers for the composite types ---------------------------------

fn write_opt_u64(buf: &mut Vec<u8>, v: Option<u64>) {
    match v {
        None => write_bool(buf, false),
        Some(x) => {
            write_bool(buf, true);
            write_u64(buf, x);
        }
    }
}

fn read_opt_u64(r: &mut Reader<'_>) -> Result<Option<u64>, CodecError> {
    Ok(if r.bool()? { Some(r.u64()?) } else { None })
}

fn write_trace(buf: &mut Vec<u8>, c: TraceCtx) {
    write_u64(buf, c.lecture);
    write_u64(buf, c.segment);
    write_u64(buf, c.seq);
    write_u64(buf, c.origin);
}

fn read_trace(r: &mut Reader<'_>) -> Result<TraceCtx, CodecError> {
    Ok(TraceCtx {
        lecture: r.u64()?,
        segment: r.u64()?,
        seq: r.u64()?,
        origin: r.u64()?,
    })
}

fn write_opt_trace(buf: &mut Vec<u8>, c: Option<TraceCtx>) {
    match c {
        None => write_bool(buf, false),
        Some(c) => {
            write_bool(buf, true);
            write_trace(buf, c);
        }
    }
}

fn read_opt_trace(r: &mut Reader<'_>) -> Result<Option<TraceCtx>, CodecError> {
    Ok(if r.bool()? {
        Some(read_trace(r)?)
    } else {
        None
    })
}

fn write_node(buf: &mut Vec<u8>, node: NodeId) {
    write_u64(buf, node.index() as u64);
}

fn read_node(r: &mut Reader<'_>) -> Result<NodeId, CodecError> {
    Ok(NodeId::from_index(r.u64()? as usize))
}

fn write_payload(buf: &mut Vec<u8>, p: &Payload) {
    write_u16(buf, p.stream);
    write_u32(buf, p.object_id);
    write_u32(buf, p.offset);
    write_u32(buf, p.total);
    write_u64(buf, p.pres_time);
    write_bytes(buf, &p.data);
}

fn read_payload(r: &mut Reader<'_>) -> Result<Payload, CodecError> {
    Ok(Payload {
        stream: r.u16()?,
        object_id: r.u32()?,
        offset: r.u32()?,
        total: r.u32()?,
        pres_time: r.u64()?,
        // Zero-copy when decoding from a shared datagram buffer: the
        // fragment is a view of the receive allocation, not a copy.
        data: r.bytes_shared()?,
    })
}

fn write_packet(buf: &mut Vec<u8>, p: &DataPacket) {
    write_u64(buf, p.send_time);
    write_u32(buf, p.payloads.len() as u32);
    for payload in p.payloads.iter() {
        write_payload(buf, payload);
    }
}

/// Encoded size of an empty payload: its fixed fields and data length.
const MIN_PAYLOAD_BYTES: usize = 2 + 4 + 4 + 4 + 8 + 4;

fn payload_len(p: &Payload) -> usize {
    MIN_PAYLOAD_BYTES + p.data.len()
}

fn packet_len(p: &DataPacket) -> usize {
    8 + 4 + p.payloads.iter().map(payload_len).sum::<usize>()
}

fn read_packet(r: &mut Reader<'_>) -> Result<DataPacket, CodecError> {
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
            read_payload(r).unwrap_or_else(|e| {
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

fn write_script_command(buf: &mut Vec<u8>, c: &ScriptCommand) {
    write_u64(buf, c.time);
    write_string(buf, &c.kind);
    write_string(buf, &c.param);
}

fn script_command_len(c: &ScriptCommand) -> usize {
    8 + 4 + c.kind.len() + 4 + c.param.len()
}

fn read_script_command(r: &mut Reader<'_>) -> Result<ScriptCommand, CodecError> {
    Ok(ScriptCommand {
        time: r.u64()?,
        kind: r.string()?,
        param: r.string()?,
    })
}

fn stream_kind_tag(kind: StreamKind) -> u8 {
    match kind {
        StreamKind::Audio => 1,
        StreamKind::Video => 2,
        StreamKind::Image => 3,
        StreamKind::Script => 4,
    }
}

fn stream_kind_from_tag(tag: u8) -> Result<StreamKind, CodecError> {
    match tag {
        1 => Ok(StreamKind::Audio),
        2 => Ok(StreamKind::Video),
        3 => Ok(StreamKind::Image),
        4 => Ok(StreamKind::Script),
        tag => Err(CodecError::BadTag {
            what: "StreamKind",
            tag,
        }),
    }
}

fn write_header(buf: &mut Vec<u8>, h: &StreamHeader) {
    let p = &h.props;
    write_u64(buf, p.file_id);
    write_u64(buf, p.created);
    write_u32(buf, p.packet_size);
    write_u64(buf, p.play_duration);
    write_u64(buf, p.preroll);
    write_bool(buf, p.broadcast);
    write_u32(buf, p.max_bitrate);
    write_u32(buf, h.streams.len() as u32);
    for s in &h.streams {
        write_u16(buf, s.number);
        buf.push(stream_kind_tag(s.kind));
        write_u16(buf, s.codec);
        write_u32(buf, s.bitrate);
        write_string(buf, &s.name);
    }
    write_u32(buf, h.script.len() as u32);
    for c in h.script.commands() {
        write_script_command(buf, c);
    }
    match &h.drm {
        None => write_bool(buf, false),
        Some(d) => {
            write_bool(buf, true);
            write_string(buf, &d.key_id);
            buf.extend_from_slice(&d.probe);
        }
    }
    write_u64(buf, h.epoch);
}

fn header_len(h: &StreamHeader) -> usize {
    let props = 8 + 8 + 4 + 8 + 8 + 1 + 4;
    let streams: usize = h
        .streams
        .iter()
        .map(|s| 2 + 1 + 2 + 4 + 4 + s.name.len())
        .sum();
    let script: usize = h.script.commands().iter().map(script_command_len).sum();
    let drm = 1 + h
        .drm
        .as_ref()
        .map_or(0, |d| 4 + d.key_id.len() + d.probe.len());
    props + 4 + streams + 4 + script + drm + 8
}

fn read_header(r: &mut Reader<'_>) -> Result<StreamHeader, CodecError> {
    let props = FileProperties {
        file_id: r.u64()?,
        created: r.u64()?,
        packet_size: r.u32()?,
        play_duration: r.u64()?,
        preroll: r.u64()?,
        broadcast: r.bool()?,
        max_bitrate: r.u32()?,
    };
    let n_streams = r.u32()? as usize;
    let mut streams = Vec::with_capacity(n_streams.min(1024));
    for _ in 0..n_streams {
        streams.push(StreamProperties {
            number: r.u16()?,
            kind: stream_kind_from_tag(r.u8()?)?,
            codec: r.u16()?,
            bitrate: r.u32()?,
            name: r.string()?,
        });
    }
    let n_cmds = r.u32()? as usize;
    let mut script = ScriptCommandList::new();
    for _ in 0..n_cmds {
        script.push(read_script_command(r)?);
    }
    let drm = if r.bool()? {
        let key_id = r.string()?;
        let mut probe = [0u8; 8];
        for b in &mut probe {
            *b = r.u8()?;
        }
        Some(DrmHeader { key_id, probe })
    } else {
        None
    };
    Ok(StreamHeader {
        props,
        streams,
        script,
        drm,
        epoch: r.u64()?,
    })
}

fn write_opt_header(buf: &mut Vec<u8>, h: Option<&StreamHeader>) {
    match h {
        None => write_bool(buf, false),
        Some(h) => {
            write_bool(buf, true);
            write_header(buf, h);
        }
    }
}

fn read_opt_header(r: &mut Reader<'_>) -> Result<Option<Box<StreamHeader>>, CodecError> {
    Ok(if r.bool()? {
        Some(Box::new(read_header(r)?))
    } else {
        None
    })
}

// ---- the enums --------------------------------------------------------

const REQ_PLAY: u8 = 0;
const REQ_PAUSE: u8 = 1;
const REQ_RESUME: u8 = 2;
const REQ_SEEK: u8 = 3;
const REQ_SELECT: u8 = 4;
const REQ_TEARDOWN: u8 = 5;
const REQ_FETCH: u8 = 6;
const REQ_PING: u8 = 7;

fn write_request(buf: &mut Vec<u8>, req: &ControlRequest) {
    match req {
        ControlRequest::Play { content, from } => {
            buf.push(REQ_PLAY);
            write_string(buf, content);
            write_u64(buf, *from);
        }
        ControlRequest::Pause => buf.push(REQ_PAUSE),
        ControlRequest::Resume => buf.push(REQ_RESUME),
        ControlRequest::Seek { to } => {
            buf.push(REQ_SEEK);
            write_u64(buf, *to);
        }
        ControlRequest::SelectStreams(streams) => {
            buf.push(REQ_SELECT);
            write_u32(buf, streams.len() as u32);
            for s in streams {
                write_u16(buf, *s);
            }
        }
        ControlRequest::Teardown => buf.push(REQ_TEARDOWN),
        ControlRequest::FetchSegment {
            content,
            segment,
            at_time,
            want_header,
            trace,
        } => {
            buf.push(REQ_FETCH);
            write_string(buf, content);
            write_u32(buf, *segment);
            write_opt_u64(buf, *at_time);
            write_bool(buf, *want_header);
            write_opt_trace(buf, *trace);
        }
        ControlRequest::Ping { epoch } => {
            buf.push(REQ_PING);
            write_u64(buf, *epoch);
        }
    }
}

fn request_len(req: &ControlRequest) -> usize {
    1 + match req {
        ControlRequest::Play { content, .. } => 4 + content.len() + 8,
        ControlRequest::Pause | ControlRequest::Resume | ControlRequest::Teardown => 0,
        ControlRequest::Seek { .. } | ControlRequest::Ping { .. } => 8,
        ControlRequest::SelectStreams(streams) => 4 + 2 * streams.len(),
        ControlRequest::FetchSegment {
            content,
            at_time,
            trace,
            ..
        } => 4 + content.len() + 4 + opt_len(*at_time, 8) + 1 + opt_len(*trace, 32),
    }
}

/// Encoded size of an `Option` whose value takes `len` bytes.
fn opt_len<T>(v: Option<T>, len: usize) -> usize {
    1 + if v.is_some() { len } else { 0 }
}

fn read_request(r: &mut Reader<'_>) -> Result<ControlRequest, CodecError> {
    Ok(match r.u8()? {
        REQ_PLAY => ControlRequest::Play {
            content: r.string()?,
            from: r.u64()?,
        },
        REQ_PAUSE => ControlRequest::Pause,
        REQ_RESUME => ControlRequest::Resume,
        REQ_SEEK => ControlRequest::Seek { to: r.u64()? },
        REQ_SELECT => {
            let n = r.u32()? as usize;
            let mut streams = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                streams.push(r.u16()?);
            }
            ControlRequest::SelectStreams(streams)
        }
        REQ_TEARDOWN => ControlRequest::Teardown,
        REQ_FETCH => ControlRequest::FetchSegment {
            content: r.string()?,
            segment: r.u32()?,
            at_time: read_opt_u64(r)?,
            want_header: r.bool()?,
            trace: read_opt_trace(r)?,
        },
        REQ_PING => ControlRequest::Ping { epoch: r.u64()? },
        tag => {
            return Err(CodecError::BadTag {
                what: "ControlRequest",
                tag,
            })
        }
    })
}

const WIRE_REQUEST: u8 = 0;
const WIRE_HEADER: u8 = 1;
const WIRE_DATA: u8 = 2;
const WIRE_SCRIPT: u8 = 3;
const WIRE_EOS: u8 = 4;
const WIRE_NOT_FOUND: u8 = 5;
const WIRE_SEGMENT: u8 = 6;
const WIRE_REDIRECT: u8 = 7;
const WIRE_BUSY: u8 = 8;
const WIRE_PONG: u8 = 9;
const WIRE_MARK: u8 = 10;

impl WireCodec for Wire {
    fn encode_wire(&self, buf: &mut Vec<u8>) {
        match self {
            Wire::Request(req) => {
                buf.push(WIRE_REQUEST);
                write_request(buf, req);
            }
            Wire::Header(h) => {
                buf.push(WIRE_HEADER);
                write_header(buf, h);
            }
            Wire::Data(p) => {
                buf.push(WIRE_DATA);
                write_packet(buf, p);
            }
            Wire::Script(c) => {
                buf.push(WIRE_SCRIPT);
                write_script_command(buf, c);
            }
            Wire::EndOfStream => buf.push(WIRE_EOS),
            Wire::NotFound(name) => {
                buf.push(WIRE_NOT_FOUND);
                write_string(buf, name);
            }
            Wire::Segment(s) => {
                buf.push(WIRE_SEGMENT);
                write_string(buf, &s.content);
                write_u32(buf, s.segment);
                write_u32(buf, s.base_packet);
                write_u32(buf, s.total_packets);
                write_u32(buf, s.total_segments);
                write_u32(buf, s.segment_packets);
                write_u32(buf, s.packet_size);
                write_u32(buf, s.packets.len() as u32);
                for p in &s.packets {
                    write_packet(buf, p);
                }
                write_opt_header(buf, s.header.as_deref());
                match s.start_packet {
                    None => write_bool(buf, false),
                    Some(sp) => {
                        write_bool(buf, true);
                        write_u32(buf, sp);
                    }
                }
                write_opt_u64(buf, s.at_time);
                write_u64(buf, s.epoch);
                write_opt_trace(buf, s.trace);
            }
            Wire::Redirect { to } => {
                buf.push(WIRE_REDIRECT);
                write_node(buf, *to);
            }
            Wire::Busy {
                retry_after,
                alternate,
            } => {
                buf.push(WIRE_BUSY);
                write_u64(buf, *retry_after);
                match alternate {
                    None => write_bool(buf, false),
                    Some(n) => {
                        write_bool(buf, true);
                        write_node(buf, *n);
                    }
                }
            }
            Wire::Pong { epoch } => {
                buf.push(WIRE_PONG);
                write_u64(buf, *epoch);
            }
            Wire::Mark(ctx) => {
                buf.push(WIRE_MARK);
                write_trace(buf, *ctx);
            }
        }
    }

    fn encoded_len(&self) -> usize {
        1 + match self {
            Wire::Request(req) => request_len(req),
            Wire::Header(h) => header_len(h),
            Wire::Data(p) => packet_len(p),
            Wire::Script(c) => script_command_len(c),
            Wire::EndOfStream => 0,
            Wire::NotFound(name) => 4 + name.len(),
            Wire::Segment(s) => {
                4 + s.content.len()
                    + 7 * 4
                    + s.packets.iter().map(packet_len).sum::<usize>()
                    + 1
                    + s.header.as_deref().map_or(0, header_len)
                    + opt_len(s.start_packet, 4)
                    + opt_len(s.at_time, 8)
                    + 8
                    + opt_len(s.trace, 32)
            }
            Wire::Redirect { .. } | Wire::Pong { .. } => 8,
            Wire::Busy { alternate, .. } => 8 + opt_len(*alternate, 8),
            Wire::Mark(_) => 32,
        }
    }

    fn decode_wire(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(match r.u8()? {
            WIRE_REQUEST => Wire::Request(read_request(r)?),
            WIRE_HEADER => Wire::Header(Box::new(read_header(r)?)),
            WIRE_DATA => Wire::Data(read_packet(r)?),
            WIRE_SCRIPT => Wire::Script(read_script_command(r)?),
            WIRE_EOS => Wire::EndOfStream,
            WIRE_NOT_FOUND => Wire::NotFound(r.string()?),
            WIRE_SEGMENT => {
                let content = r.string()?;
                let segment = r.u32()?;
                let base_packet = r.u32()?;
                let total_packets = r.u32()?;
                let total_segments = r.u32()?;
                let segment_packets = r.u32()?;
                let packet_size = r.u32()?;
                let n = r.u32()? as usize;
                let mut packets = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    packets.push(read_packet(r)?);
                }
                let header = read_opt_header(r)?;
                let start_packet = if r.bool()? { Some(r.u32()?) } else { None };
                Wire::Segment(SegmentData {
                    content,
                    segment,
                    base_packet,
                    total_packets,
                    total_segments,
                    segment_packets,
                    packet_size,
                    packets,
                    header,
                    start_packet,
                    at_time: read_opt_u64(r)?,
                    epoch: r.u64()?,
                    trace: read_opt_trace(r)?,
                })
            }
            WIRE_REDIRECT => Wire::Redirect { to: read_node(r)? },
            WIRE_BUSY => {
                let retry_after = r.u64()?;
                let alternate = if r.bool()? { Some(read_node(r)?) } else { None };
                Wire::Busy {
                    retry_after,
                    alternate,
                }
            }
            WIRE_PONG => Wire::Pong { epoch: r.u64()? },
            WIRE_MARK => Wire::Mark(read_trace(r)?),
            tag => return Err(CodecError::BadTag { what: "Wire", tag }),
        })
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
