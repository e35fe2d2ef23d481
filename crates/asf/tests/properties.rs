//! Property-based tests: the container round-trips arbitrary content.

mod common;

use common::{arb_file, arb_samples, arb_script, make_file};
use lod_asf::packet::{PACKET_HEADER_BYTES, PAYLOAD_HEADER_BYTES};
use lod_asf::{
    read_asf, write_asf, AsfError, DataPacket, LengthReassembler, License, MediaSample, Packetizer,
    Payload, Reassembler, ScriptCommandList, MAX_SAMPLE_BYTES,
};
use proptest::prelude::*;

/// The reassembler as it was before it lost its hash tables, kept as the
/// model the table-free one is checked against: every object keyed in a
/// `HashMap`, every delivered key remembered for ever.
mod reference {
    use std::collections::{HashMap, HashSet};

    use lod_asf::{AsfError, DataPacket, MediaSample, Payload};

    #[derive(Default)]
    pub struct Reassembler {
        partial: HashMap<(u16, u32), PartialSample>,
        finished: HashSet<(u16, u32)>,
        complete: Vec<MediaSample>,
    }

    struct PartialSample {
        pres_time: u64,
        total: u32,
        received: u32,
        data: Vec<u8>,
        seen: Vec<(u32, u32)>,
    }

    impl Reassembler {
        pub fn push_packet(&mut self, packet: &DataPacket) -> Result<(), AsfError> {
            let mut first = Ok(());
            for p in packet.payloads.iter() {
                let got = self.push_payload(p);
                if first.is_ok() {
                    first = got;
                }
            }
            first
        }

        fn push_payload(&mut self, p: &Payload) -> Result<(), AsfError> {
            let key = (p.stream, p.object_id);
            if self.finished.contains(&key) {
                return Ok(());
            }
            let mismatch = AsfError::FragmentMismatch {
                stream: p.stream,
                object: p.object_id,
            };
            let entry = self.partial.entry(key).or_insert_with(|| PartialSample {
                pres_time: p.pres_time,
                total: p.total,
                received: 0,
                data: vec![0; p.total as usize],
                seen: Vec::new(),
            });
            if entry.total != p.total || entry.pres_time != p.pres_time {
                return Err(mismatch);
            }
            let end = p.offset as usize + p.data.len();
            if end > entry.data.len() {
                return Err(mismatch);
            }
            if entry.seen.contains(&(p.offset, p.data.len() as u32)) {
                return Ok(());
            }
            if entry
                .seen
                .iter()
                .any(|&(o, l)| p.offset < o + l && o < p.offset + p.data.len() as u32)
            {
                return Err(mismatch);
            }
            entry.data[p.offset as usize..end].copy_from_slice(&p.data);
            entry.seen.push((p.offset, p.data.len() as u32));
            entry.received += p.data.len() as u32;
            if entry.received >= entry.total {
                let done = self.partial.remove(&key).expect("entry exists");
                self.finished.insert(key);
                self.complete.push(MediaSample {
                    stream: key.0,
                    pres_time: done.pres_time,
                    data: done.data.into(),
                });
            }
            Ok(())
        }

        pub fn take_completed(&mut self) -> Vec<MediaSample> {
            let mut out = std::mem::take(&mut self.complete);
            out.sort_by_key(|s| (s.pres_time, s.stream));
            out
        }

        pub fn incomplete(&self) -> usize {
            self.partial.len()
        }
    }

    /// DRM scrambling as `protect`/`unprotect` did it before they shared
    /// one keystream per pass: generated afresh over every payload.
    pub fn scramble(key: u64, packets: &[DataPacket]) -> Vec<DataPacket> {
        let mut out = packets.to_vec();
        for payload in out
            .iter_mut()
            .flat_map(|p| std::rc::Rc::make_mut(&mut p.payloads))
        {
            let mut data = payload.data.to_vec();
            lod_asf::drm::scramble_in_place(key, &mut data);
            payload.data = data.into();
        }
        out
    }

    /// The container code as it was before it wrote in one pass and read
    /// into one shared image: a body buffer per object copied into its
    /// parent, a buffer per packet, an allocation per payload read. Kept
    /// as the model the one-pass path is checked against (within what
    /// both can write: at most 255 payloads a packet, strings and
    /// payloads within their `u16` length).
    pub mod container {
        use bytes::{BufMut, Bytes, BytesMut};
        use lod_asf::guid::{self, Guid};
        use lod_asf::{
            AsfError, AsfFile, AsfIndex, DataPacket, DrmHeader, FileProperties, Payload,
            ScriptCommand, ScriptCommandList, StreamKind, StreamProperties,
        };

        #[derive(Default)]
        struct Writer {
            buf: BytesMut,
        }

        impl Writer {
            fn u8(&mut self, v: u8) {
                self.buf.put_u8(v);
            }
            fn u16(&mut self, v: u16) {
                self.buf.put_u16_le(v);
            }
            fn u32(&mut self, v: u32) {
                self.buf.put_u32_le(v);
            }
            fn u64(&mut self, v: u64) {
                self.buf.put_u64_le(v);
            }
            fn bytes(&mut self, b: &[u8]) {
                self.buf.put_slice(b);
            }
            fn string(&mut self, s: &str) {
                assert!(s.len() <= usize::from(u16::MAX), "string too long for wire");
                self.u16(s.len() as u16);
                self.bytes(s.as_bytes());
            }
            fn into_vec(self) -> Vec<u8> {
                self.buf.to_vec()
            }
        }

        fn write_object(out: &mut Writer, g: Guid, body: Writer) {
            out.bytes(&g.0);
            out.u64(24 + body.buf.len() as u64);
            out.bytes(&body.into_vec());
        }

        fn kind_to_wire(kind: StreamKind) -> u8 {
            match kind {
                StreamKind::Audio => 1,
                StreamKind::Video => 2,
                StreamKind::Image => 3,
                StreamKind::Script => 4,
            }
        }

        pub fn write_packet(p: &DataPacket, packet_size: u32) -> Result<Vec<u8>, AsfError> {
            let mut w = Writer::default();
            w.u64(p.send_time);
            w.u8(p.payloads.len() as u8);
            for p in p.payloads.iter() {
                w.u16(p.stream);
                w.u32(p.object_id);
                w.u32(p.offset);
                w.u32(p.total);
                w.u64(p.pres_time);
                w.u16(p.data.len() as u16);
                w.bytes(&p.data);
            }
            if w.buf.len() > packet_size as usize {
                return Err(AsfError::BadSize {
                    context: "data packet payloads",
                    size: w.buf.len() as u64,
                });
            }
            let mut v = w.into_vec();
            v.resize(packet_size as usize, 0);
            Ok(v)
        }

        pub fn write_asf(file: &AsfFile) -> Result<Vec<u8>, AsfError> {
            let mut out = Writer::default();
            let mut header = Writer::default();
            {
                let mut body = Writer::default();
                let p = &file.props;
                body.u64(p.file_id);
                body.u64(p.created);
                body.u32(p.packet_size);
                body.u64(p.play_duration);
                body.u64(p.preroll);
                body.u8(u8::from(p.broadcast));
                body.u32(p.max_bitrate);
                write_object(&mut header, guid::FILE_PROPERTIES, body);
            }
            for s in &file.streams {
                let mut body = Writer::default();
                body.u16(s.number);
                body.u8(kind_to_wire(s.kind));
                body.u16(s.codec);
                body.u32(s.bitrate);
                body.string(&s.name);
                write_object(&mut header, guid::STREAM_PROPERTIES, body);
            }
            if !file.script.is_empty() {
                let mut body = Writer::default();
                body.u32(file.script.len() as u32);
                for c in file.script.commands() {
                    body.u64(c.time);
                    body.string(&c.kind);
                    body.string(&c.param);
                }
                write_object(&mut header, guid::SCRIPT_COMMAND, body);
            }
            if let Some(drm) = &file.drm {
                let mut body = Writer::default();
                body.string(&drm.key_id);
                body.bytes(&drm.probe);
                write_object(&mut header, guid::DRM_OBJECT, body);
            }
            write_object(&mut out, guid::HEADER_OBJECT, header);

            let mut data = Writer::default();
            data.u32(file.packets.len() as u32);
            for p in &file.packets {
                data.bytes(&write_packet(p, file.props.packet_size)?);
            }
            write_object(&mut out, guid::DATA_OBJECT, data);

            if let Some(idx) = &file.index {
                let mut body = Writer::default();
                body.u32(idx.len() as u32);
                for &(t, p) in idx.entries() {
                    body.u64(t);
                    body.u32(p);
                }
                write_object(&mut out, guid::INDEX_OBJECT, body);
            }
            Ok(out.into_vec())
        }

        struct Reader<'a> {
            data: &'a [u8],
            pos: usize,
        }

        impl<'a> Reader<'a> {
            fn remaining(&self) -> usize {
                self.data.len() - self.pos
            }
            fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], AsfError> {
                if self.remaining() < n {
                    return Err(AsfError::UnexpectedEof { context });
                }
                let s = &self.data[self.pos..self.pos + n];
                self.pos += n;
                Ok(s)
            }
            fn u8(&mut self, context: &'static str) -> Result<u8, AsfError> {
                Ok(self.take(1, context)?[0])
            }
            fn u16(&mut self, context: &'static str) -> Result<u16, AsfError> {
                Ok(u16::from_le_bytes(
                    self.take(2, context)?.try_into().unwrap(),
                ))
            }
            fn u32(&mut self, context: &'static str) -> Result<u32, AsfError> {
                Ok(u32::from_le_bytes(
                    self.take(4, context)?.try_into().unwrap(),
                ))
            }
            fn u64(&mut self, context: &'static str) -> Result<u64, AsfError> {
                Ok(u64::from_le_bytes(
                    self.take(8, context)?.try_into().unwrap(),
                ))
            }
            fn string(&mut self, context: &'static str) -> Result<String, AsfError> {
                let len = self.u16(context)? as usize;
                String::from_utf8(self.take(len, context)?.to_vec())
                    .map_err(|_| AsfError::BadString)
            }
        }

        fn read_object<'a>(
            r: &mut Reader<'a>,
            context: &'static str,
        ) -> Result<(Guid, Reader<'a>), AsfError> {
            let g = Guid(r.take(16, context)?.try_into().unwrap());
            let size = r.u64(context)?;
            if size < 24 || (size - 24) as usize > r.remaining() {
                return Err(AsfError::BadSize { context, size });
            }
            let data = r.take((size - 24) as usize, context)?;
            Ok((g, Reader { data, pos: 0 }))
        }

        pub fn read_packet(bytes: &[u8], packet_size: u32) -> Result<DataPacket, AsfError> {
            read_packet_with(bytes, packet_size, &Bytes::copy_from_slice)
        }

        /// Parses a packet, `payload` turning each payload's bytes into
        /// its `Bytes`.
        fn read_packet_with(
            bytes: &[u8],
            packet_size: u32,
            payload: &impl Fn(&[u8]) -> Bytes,
        ) -> Result<DataPacket, AsfError> {
            if bytes.len() != packet_size as usize {
                return Err(AsfError::BadSize {
                    context: "data packet",
                    size: bytes.len() as u64,
                });
            }
            let mut r = Reader {
                data: bytes,
                pos: 0,
            };
            let send_time = r.u64("packet send time")?;
            let count = r.u8("payload count")?;
            let mut payloads = Vec::with_capacity(count as usize);
            for _ in 0..count {
                payloads.push(Payload {
                    stream: r.u16("payload stream")?,
                    object_id: r.u32("payload object id")?,
                    offset: r.u32("payload offset")?,
                    total: r.u32("payload total")?,
                    pres_time: r.u64("payload presentation time")?,
                    data: {
                        let len = r.u16("payload length")? as usize;
                        payload(r.take(len, "payload data")?)
                    },
                });
            }
            Ok(DataPacket {
                send_time,
                payloads: payloads.into(),
            })
        }

        pub fn read_asf(bytes: &[u8]) -> Result<AsfFile, AsfError> {
            read_asf_with(bytes, &Bytes::copy_from_slice)
        }

        /// The reader as it was before it packed the payload bytes: the
        /// whole input copied into one image, every payload a view of it,
        /// so a payload pinned headers, padding and index as well.
        pub fn read_asf_whole_image(bytes: &[u8]) -> Result<AsfFile, AsfError> {
            let image = Bytes::copy_from_slice(bytes);
            read_asf_with(bytes, &|s: &[u8]| {
                let at = s.as_ptr() as usize - bytes.as_ptr() as usize;
                image.slice(at..at + s.len())
            })
        }

        fn read_asf_with(
            bytes: &[u8],
            payload: &impl Fn(&[u8]) -> Bytes,
        ) -> Result<AsfFile, AsfError> {
            let mut r = Reader {
                data: bytes,
                pos: 0,
            };
            let (g, mut header) = read_object(&mut r, "header object")?;
            if g != guid::HEADER_OBJECT {
                return Err(AsfError::UnexpectedObject { expected: "header" });
            }
            let mut props = None;
            let mut streams = Vec::new();
            let mut script = ScriptCommandList::new();
            let mut drm = None;
            while header.remaining() > 0 {
                let (sg, mut body) = read_object(&mut header, "header sub-object")?;
                if sg == guid::FILE_PROPERTIES {
                    props = Some(FileProperties {
                        file_id: body.u64("file id")?,
                        created: body.u64("creation time")?,
                        packet_size: body.u32("packet size")?,
                        play_duration: body.u64("play duration")?,
                        preroll: body.u64("preroll")?,
                        broadcast: body.u8("broadcast flag")? != 0,
                        max_bitrate: body.u32("max bitrate")?,
                    });
                } else if sg == guid::STREAM_PROPERTIES {
                    streams.push(StreamProperties {
                        number: body.u16("stream number")?,
                        kind: match body.u8("stream kind")? {
                            1 => StreamKind::Audio,
                            2 => StreamKind::Video,
                            3 => StreamKind::Image,
                            4 => StreamKind::Script,
                            _ => {
                                return Err(AsfError::UnexpectedObject {
                                    expected: "stream kind 1..=4",
                                })
                            }
                        },
                        codec: body.u16("codec id")?,
                        bitrate: body.u32("stream bitrate")?,
                        name: body.string("stream name")?,
                    });
                } else if sg == guid::SCRIPT_COMMAND {
                    script = ScriptCommandList::new();
                    for _ in 0..body.u32("script command count")? {
                        let time = body.u64("script command time")?;
                        let kind = body.string("script command kind")?;
                        let param = body.string("script command param")?;
                        script.push(ScriptCommand { time, kind, param });
                    }
                } else if sg == guid::DRM_OBJECT {
                    drm = Some(DrmHeader {
                        key_id: body.string("drm key id")?,
                        probe: body.take(8, "drm probe")?.try_into().unwrap(),
                    });
                }
            }
            let props = props.ok_or(AsfError::UnexpectedObject {
                expected: "file properties",
            })?;

            let (g, mut data) = read_object(&mut r, "data object")?;
            if g != guid::DATA_OBJECT {
                return Err(AsfError::UnexpectedObject { expected: "data" });
            }
            let count = data.u32("packet count")?;
            let mut packets = Vec::new();
            for _ in 0..count {
                let raw = data.take(props.packet_size as usize, "data packet")?;
                let p = read_packet_with(raw, props.packet_size, payload)?;
                for payload in p.payloads.iter() {
                    if !streams.iter().any(|s| s.number == payload.stream) {
                        return Err(AsfError::UnknownStream(payload.stream));
                    }
                }
                packets.push(p);
            }

            let mut index = None;
            if r.remaining() > 0 {
                let (g, mut body) = read_object(&mut r, "index object")?;
                if g == guid::INDEX_OBJECT {
                    let mut entries = Vec::new();
                    for _ in 0..body.u32("index entry count")? {
                        entries.push((body.u64("index time")?, body.u32("index packet")?));
                    }
                    index = Some(AsfIndex::from_entries(entries));
                }
            }
            Ok(AsfFile {
                props,
                streams,
                script,
                drm,
                packets,
                index,
            })
        }
    }
}

proptest! {
    /// write → read is the identity on the whole file model.
    #[test]
    fn mux_demux_identity(
        samples in arb_samples(),
        script in arb_script(),
        packet_size in 64u32..2048,
    ) {
        let mut f = make_file(&samples, script, packet_size);
        f.build_index(1_000);
        let bytes = write_asf(&f).unwrap();
        let back = read_asf(&bytes).unwrap();
        prop_assert_eq!(back, f);
    }

    /// The one-pass writer emits, byte for byte, what the copy-per-layer
    /// one did — whole files and single packets — and `wire_size` says
    /// that length without writing anything.
    #[test]
    fn one_pass_write_matches_reference(f in arb_file()) {
        let bytes = write_asf(&f).unwrap();
        prop_assert_eq!(&bytes, &reference::container::write_asf(&f).unwrap());
        prop_assert_eq!(f.wire_size(), bytes.len());
        for p in &f.packets {
            prop_assert_eq!(
                p.write(f.props.packet_size),
                reference::container::write_packet(p, f.props.packet_size)
            );
        }
        // A packet size the payloads overflow: the same refusal.
        let tight = DataPacket {
            send_time: 0,
            payloads: f.packets.iter().flat_map(|p| p.payloads.iter().cloned()).take(255).collect(),
        };
        prop_assert_eq!(tight.write(64), reference::container::write_packet(&tight, 64));
    }

    /// The packed-image reader returns what the copy-per-payload one did:
    /// on a written file, and — result for result, error for error — on
    /// that file with bytes overwritten and its tail cut off.
    #[test]
    fn shared_read_matches_reference(
        f in arb_file(),
        patches in proptest::collection::vec((any::<usize>(), any::<u8>()), 0..4),
        keep in 0.0f64..4.0,
    ) {
        let mut bytes = write_asf(&f).unwrap();
        let back = read_asf(&bytes).unwrap();
        prop_assert_eq!(&back, &f);
        prop_assert_eq!(&back, &reference::container::read_asf(&bytes).unwrap());
        for p in &f.packets {
            let raw = p.write(f.props.packet_size).unwrap();
            prop_assert_eq!(
                DataPacket::read(&raw, f.props.packet_size),
                reference::container::read_packet(&raw, f.props.packet_size)
            );
        }
        // Patches land in the first 256 bytes half the time: that is
        // where the sizes, counts and the packet size live.
        for (at, v) in patches {
            let span = if at % 2 == 0 { bytes.len().min(256) } else { bytes.len() };
            bytes[(at / 2) % span] = v;
        }
        bytes.truncate(((bytes.len() as f64) * keep.min(1.0)) as usize);
        prop_assert_eq!(read_asf(&bytes), reference::container::read_asf(&bytes));
    }

    /// The packed-image reader returns what the whole-image one did, `Ok`
    /// or the same `Err`: on a written file with each packet and payload
    /// header byte — the fields the packed reader parses its own way —
    /// overwritten in turn, and with a few bytes overwritten anywhere and
    /// its tail cut off. Where both parse, the model's payloads view a
    /// copy of the whole input and the packed reader's a copy of exactly
    /// their own bytes.
    #[test]
    fn packed_read_matches_whole_image_model(
        f in arb_file(),
        value in any::<u8>(),
        patches in proptest::collection::vec((any::<usize>(), any::<u8>()), 0..6),
        keep in 0.0f64..4.0,
    ) {
        let same = |bytes: &[u8]| -> Result<(), TestCaseError> {
            let (got, model) = (read_asf(bytes), reference::container::read_asf_whole_image(bytes));
            prop_assert_eq!(&got, &model);
            if let (Ok(got), Ok(model)) = (got, model) {
                let payload_bytes: usize = got.packets.iter().map(DataPacket::media_bytes).sum();
                let first = |f: &lod_asf::AsfFile| {
                    f.packets.iter().flat_map(|p| p.payloads.iter()).next().map(|p| p.data.backing_len())
                };
                prop_assert_eq!(first(&got), first(&model).map(|_| payload_bytes));
                prop_assert_eq!(first(&model).unwrap_or(bytes.len()), bytes.len());
            }
            Ok(())
        };
        let mut bytes = write_asf(&f).unwrap();
        let header_len = u64::from_le_bytes(bytes[16..24].try_into().unwrap()) as usize;
        let psize = f.props.packet_size as usize;
        let mut fields = Vec::new();
        for (k, p) in f.packets.iter().enumerate() {
            let start = header_len + 28 + k * psize;
            fields.extend(start..start + PACKET_HEADER_BYTES);
            let mut at = start + PACKET_HEADER_BYTES;
            for payload in p.payloads.iter() {
                fields.extend(at..at + PAYLOAD_HEADER_BYTES);
                at += PAYLOAD_HEADER_BYTES + payload.data.len();
            }
        }
        for &at in &fields {
            let was = std::mem::replace(&mut bytes[at], value);
            same(&bytes)?;
            bytes[at] = was;
        }
        for (at, v) in patches {
            let target = match fields.len() {
                n if at % 2 == 1 && n > 0 => fields[(at / 2) % n],
                _ => (at / 2) % bytes.len(),
            };
            bytes[target] = v;
        }
        bytes.truncate(((bytes.len() as f64) * keep.min(1.0)) as usize);
        same(&bytes)?;
    }

    /// Packetize → reassemble restores every sample exactly.
    #[test]
    fn fragment_reassemble_identity(
        samples in arb_samples(),
        packet_size in 64u32..512,
    ) {
        let mut pk = Packetizer::new(packet_size).unwrap();
        for s in &samples {
            pk.push(s);
        }
        let packets = pk.finish();
        let mut rs = Reassembler::new();
        for p in &packets {
            rs.push_packet(p).unwrap();
        }
        let mut got = rs.take_completed();
        let mut want = samples.clone();
        // Order by (time, stream, data) — object ids disambiguate on the
        // wire but equal (time, stream) pairs are unordered here.
        let key = |s: &MediaSample| (s.pres_time, s.stream, s.data.clone());
        got.sort_by_key(key);
        want.sort_by_key(key);
        prop_assert_eq!(got, want);
        prop_assert_eq!(rs.incomplete(), 0);
    }

    /// Under shuffled, duplicated, dropped and conflicting fragments the
    /// reassembler agrees with its reference model on every result,
    /// every batch of completed samples (and their order) and the count
    /// of incomplete ones. (Inputs stay inside what both can represent:
    /// fewer objects per stream than the delivered window, totals under
    /// the sample cap.)
    #[test]
    fn reassembler_matches_reference_model(
        samples in arb_samples(),
        packet_size in 64u32..400,
        seed in any::<u64>(),
    ) {
        let mut pk = Packetizer::new(packet_size).unwrap();
        for s in &samples {
            pk.push(s);
        }
        let mut rng = proptest::test_runner::TestRng::from_seed(seed);
        let mut draw = move |n: u64| rng.next_u64() % n;
        let mut frags: Vec<Payload> = Vec::new();
        for f in pk.finish().iter().flat_map(|p| p.payloads.iter().cloned()) {
            match draw(10) {
                0 => continue, // dropped
                1 => frags.push(f.clone()), // duplicated
                2 => {
                    // Conflicting: another total, time, or an overlapping
                    // or overhanging range.
                    let mut bad = f.clone();
                    match draw(4) {
                        0 => bad.total += 1 + draw(5) as u32,
                        1 => bad.pres_time += 1,
                        2 => bad.offset = bad.offset.saturating_sub(1 + draw(3) as u32),
                        _ => bad.offset += 1 + draw(40) as u32,
                    }
                    frags.push(bad);
                }
                _ => {}
            }
            frags.push(f);
        }
        // Shuffle within a horizon: mostly near-in-order, sometimes far.
        for i in 0..frags.len() {
            let reach = if draw(4) == 0 { frags.len() } else { 4 };
            let j = (i + draw(reach as u64) as usize).min(frags.len() - 1);
            frags.swap(i, j);
        }
        let mut new = Reassembler::new();
        let mut old = reference::Reassembler::default();
        let mut rest = frags.as_slice();
        while !rest.is_empty() {
            let (now, later) = rest.split_at((1 + draw(3) as usize).min(rest.len()));
            rest = later;
            let packet = DataPacket { send_time: 0, payloads: now.into() };
            prop_assert_eq!(new.push_packet(&packet), old.push_packet(&packet));
            if draw(3) == 0 {
                prop_assert_eq!(new.take_completed(), old.take_completed());
            }
            prop_assert_eq!(new.incomplete(), old.incomplete());
        }
        prop_assert_eq!(new.take_completed(), old.take_completed());
        prop_assert_eq!(new.incomplete(), old.incomplete());
    }

    /// Reassembly by view. Any permutation of a lecture's fragments, with
    /// exact duplicates mixed in, gives what the reference model gives,
    /// and every sample is one view of the buffer it was packetized from.
    /// Sent through `DataPacket::write` and `read` — every packet, so
    /// every fragment of a split sample, in its own backing — the samples
    /// still match the model, and each split one is exactly one new
    /// backing of its own length.
    #[test]
    fn reassembly_by_view_matches_reference(
        samples in arb_samples(),
        packet_size in 64u32..400,
        seed in any::<u64>(),
    ) {
        let mut pk = Packetizer::new(packet_size).unwrap();
        for s in &samples {
            pk.push(s);
        }
        let packets = pk.finish();
        let mut rng = proptest::test_runner::TestRng::from_seed(seed);
        let mut draw = move |n: usize| (rng.next_u64() % n as u64) as usize;
        let mut permuted = |mut items: Vec<DataPacket>| {
            for i in 0..items.len() {
                if draw(4) == 0 {
                    items.push(items[i].clone());
                }
            }
            for i in (1..items.len()).rev() {
                items.swap(i, draw(i + 1));
            }
            items
        };
        let one_each = packets
            .iter()
            .flat_map(|p| p.payloads.iter())
            .map(|f| DataPacket { send_time: 0, payloads: vec![f.clone()].into() })
            .collect();
        let over_the_wire = permuted(packets.clone())
            .iter()
            .map(|p| DataPacket::read(&p.write(packet_size).unwrap(), packet_size).unwrap())
            .collect::<Vec<_>>();
        for (wire, order) in [(false, permuted(one_each)), (true, over_the_wire)] {
            let mut new = Reassembler::new();
            let mut old = reference::Reassembler::default();
            for p in &order {
                prop_assert_eq!(new.push_packet(p), old.push_packet(p));
            }
            let got = new.take_completed();
            prop_assert_eq!(&got, &old.take_completed());
            prop_assert_eq!(got.len(), samples.len());
            let read_backings: Vec<usize> = order
                .iter()
                .flat_map(|p| p.payloads.iter())
                .map(|f| f.data.backing_id())
                .collect();
            let mut fresh = Vec::new();
            for g in &got {
                if !wire {
                    prop_assert!(samples
                        .iter()
                        .any(|s| s == g && s.data.backing_id() == g.data.backing_id()));
                } else if !read_backings.contains(&g.data.backing_id()) {
                    prop_assert_eq!(g.data.backing_len(), g.data.len());
                    fresh.push(g.data.backing_id());
                }
            }
            if wire {
                let split = packets
                    .iter()
                    .flat_map(|p| p.payloads.iter())
                    .filter(|f| f.offset == 0 && f.data.len() < f.total as usize)
                    .count();
                fresh.sort_unstable();
                fresh.dedup();
                prop_assert_eq!(fresh.len(), split);
            }
        }
    }

    /// One set of rules, two outputs. Over any permutation, duplication
    /// and truncation of a published file's packets, with corrupted
    /// fragments mixed in — another total (past the sample cap too) or
    /// presentation time, an offset or length that overlaps a neighbour
    /// or runs out of the sample — the length-only reassembler answers
    /// every packet as `Reassembler` does, counts the same incomplete
    /// samples and completes the same `(stream, pres_time, len)`
    /// sequence. Both agree with the reference model until a total past
    /// the cap, which the model does not know, is refused.
    #[test]
    fn length_reassembler_agrees_with_reassembler(
        samples in arb_samples(),
        packet_size in 64u32..400,
        seed in any::<u64>(),
    ) {
        let file = make_file(&samples, ScriptCommandList::new(), packet_size);
        let published = read_asf(&write_asf(&file).unwrap()).unwrap().packets;
        let mut rng = proptest::test_runner::TestRng::from_seed(seed);
        let mut draw = move |n: u64| rng.next_u64() % n;
        // Truncation: the end of the file never arrives.
        let cut = draw(published.len() as u64 / 4 + 1) as usize;
        let mut frags: Vec<Payload> = Vec::new();
        for f in published[..published.len() - cut]
            .iter()
            .flat_map(|p| p.payloads.iter())
        {
            match draw(8) {
                0 => continue, // dropped
                1 => frags.push(f.clone()), // duplicated
                2 => {
                    let mut bad = f.clone();
                    match draw(7) {
                        0 => bad.total += 1 + draw(5) as u32,
                        1 => bad.total = MAX_SAMPLE_BYTES + 1 + draw(3) as u32,
                        2 => bad.pres_time += 1,
                        3 => bad.offset = bad.offset.saturating_sub(1 + draw(3) as u32),
                        4 => bad.offset += 1 + draw(40) as u32,
                        5 => bad.offset = u32::MAX - draw(3) as u32,
                        _ => {
                            let len = f.data.len() + 1 + draw(40) as usize;
                            bad.data = vec![0; len].into();
                        }
                    }
                    frags.push(bad);
                }
                _ => {}
            }
            frags.push(f.clone());
        }
        if draw(2) == 0 {
            for i in (1..frags.len()).rev() {
                frags.swap(i, draw(i as u64 + 1) as usize);
            }
        } else {
            for i in 0..frags.len() {
                let j = (i + draw(4) as usize).min(frags.len() - 1);
                frags.swap(i, j);
            }
        }
        let mut bytes = Reassembler::new();
        let mut lengths = LengthReassembler::default();
        let mut old = Some(reference::Reassembler::default());
        let mut rest = frags.as_slice();
        while !rest.is_empty() {
            let (now, later) = rest.split_at((1 + draw(3) as usize).min(rest.len()));
            rest = later;
            let packet = DataPacket { send_time: 0, payloads: now.into() };
            let got = bytes.push_packet(&packet);
            prop_assert_eq!(&lengths.push_packet(&packet), &got);
            if now.iter().any(|f| f.total > MAX_SAMPLE_BYTES) {
                old = None;
            }
            if let Some(old) = &mut old {
                prop_assert_eq!(&old.push_packet(&packet), &got);
            }
            if draw(3) == 0 || rest.is_empty() {
                let whole = bytes.take_completed();
                let sizes: Vec<(u16, u64, u32)> = whole
                    .iter()
                    .map(|s| (s.stream, s.pres_time, s.data.len() as u32))
                    .collect();
                prop_assert_eq!(lengths.take_completed(), sizes);
                if let Some(old) = &mut old {
                    prop_assert_eq!(old.take_completed(), whole);
                }
            }
            prop_assert_eq!(lengths.incomplete(), bytes.incomplete());
            if let Some(old) = &old {
                prop_assert_eq!(old.incomplete(), bytes.incomplete());
            }
        }
    }

    /// Every serialized packet is exactly the declared size.
    #[test]
    fn packets_have_fixed_size(
        samples in arb_samples(),
        packet_size in 64u32..512,
    ) {
        let mut pk = Packetizer::new(packet_size).unwrap();
        for s in &samples {
            pk.push(s);
        }
        for p in pk.finish() {
            prop_assert_eq!(p.write(packet_size).unwrap().len(), packet_size as usize);
        }
    }

    /// DRM protect → unprotect restores the content bit-exactly, and the
    /// wrong key never verifies.
    #[test]
    fn drm_round_trip(
        samples in arb_samples(),
        key in any::<u64>(),
    ) {
        let f = make_file(&samples, ScriptCommandList::new(), 256);
        let mut g = f.clone();
        let lic = License::new("k", key);
        g.protect(&lic);
        let mut wrong = g.clone();
        prop_assert!(wrong.unprotect(&License::new("k", key.wrapping_add(1))).is_err());
        g.unprotect(&lic).unwrap();
        prop_assert_eq!(g.packets, f.packets);
    }

    /// One keystream per pass scrambles every payload exactly as one
    /// keystream per payload did — empty payloads, payloads on both sides
    /// of an eight-byte word and one filling its packet included.
    #[test]
    fn shared_keystream_matches_reference(
        f in arb_file(),
        key in any::<u64>(),
        fill in any::<u8>(),
    ) {
        let mut plain = f;
        plain.drm = None;
        let room = plain.props.packet_size as usize - PACKET_HEADER_BYTES - PAYLOAD_HEADER_BYTES;
        for len in [0, 1, 7, 8, 9, room] {
            plain.packets.push(DataPacket {
                send_time: 0,
                payloads: vec![Payload {
                    stream: 1,
                    object_id: u32::MAX,
                    offset: 0,
                    total: len as u32,
                    pres_time: 0,
                    data: vec![fill; len].into(),
                }]
                .into(),
            });
        }
        let license = License::new("course", key);
        let scrambled = reference::scramble(key, &plain.packets);
        prop_assert_eq!(&reference::scramble(key, &scrambled), &plain.packets);

        let mut g = plain.clone();
        g.protect(&license);
        prop_assert_eq!(&g.packets, &scrambled);
        g.unprotect(&license).unwrap();
        prop_assert_eq!(g, plain);
    }

    /// Nothing a file or a caller supplies panics the container: parsing
    /// arbitrary bytes, parsing a valid file whose count and size fields
    /// were overwritten with arbitrary values, and writing a file with a
    /// string too long for its length prefix all return (maybe an error).
    #[test]
    fn container_never_panics(
        bytes in proptest::collection::vec(any::<u8>(), 0..2048),
        f in arb_file(),
        claim in prop_oneof![any::<u32>(), Just(0u32), Just(u32::MAX)],
        field in 0usize..3,
        long in 65_530usize..65_600,
    ) {
        let _ = read_asf(&bytes);

        let mut f = f;
        f.index.get_or_insert_with(Default::default);
        let mut image = write_asf(&f).unwrap();
        let header_len = u64::from_le_bytes(image[16..24].try_into().unwrap()) as usize;
        let at = match field {
            // The packet size: third field of the file properties, which
            // lead the header (two preambles, then two u64s).
            0 => 24 + 24 + 16,
            // The packet count, right after the data object's preamble.
            1 => header_len + 24,
            // The index entry count, after the data object.
            _ => image.len() - f.index.as_ref().unwrap().len() * 12 - 4,
        };
        image[at..at + 4].copy_from_slice(&claim.to_le_bytes());
        let _ = read_asf(&image);

        let text = "x".repeat(long);
        let fits = long <= usize::from(u16::MAX);
        match field {
            0 => f.streams[0].name = text,
            1 => f.script.push(lod_asf::ScriptCommand::new(0, "note", text)),
            _ => f.drm.get_or_insert_with(|| lod_asf::DrmHeader::for_license(
                &License::new("k", 1))).key_id = text,
        }
        match write_asf(&f) {
            Ok(v) => {
                prop_assert!(fits);
                prop_assert_eq!(v.len(), f.wire_size());
            }
            Err(e) => {
                prop_assert!(!fits);
                let size = long as u64;
                prop_assert!(matches!(e, AsfError::BadSize { size: s, .. } if s == size), "{e:?}");
                prop_assert_eq!(f.wire_size(), 0);
            }
        }
    }

    /// The seek rule has one definition: `packet_at` is the index's
    /// `packet_for` on an indexed file and the first packet sent at or
    /// after the time on an unindexed one.
    #[test]
    fn packet_at_is_index_lookup_or_linear_scan(
        samples in arb_samples(),
        interval in 1u64..50_000,
        times in proptest::collection::vec(0u64..120_000, 1..16),
    ) {
        let mut f = make_file(&samples, ScriptCommandList::new(), 256);
        for &t in &times {
            let scan = f.packets.iter().position(|p| p.send_time >= t);
            prop_assert_eq!(f.packet_at(t) as usize, scan.unwrap_or(f.packets.len()));
        }
        f.build_index(interval);
        let idx = f.index.clone().unwrap();
        for &t in &times {
            prop_assert_eq!(f.packet_at(t), idx.packet_for(t));
        }
    }

    /// Truncating a valid file fails cleanly, never panics: every cut of
    /// a small file, through header, packets and index.
    #[test]
    fn truncation_fails_cleanly(samples in arb_samples(), script in arb_script()) {
        let mut f = make_file(&samples[..samples.len().min(4)], script, 128);
        f.build_index(1_000);
        let bytes = write_asf(&f).unwrap();
        // The index is optional, so the cut that drops exactly it is the
        // one prefix that is a file.
        f.index = None;
        let unindexed = f.wire_size();
        for cut in 0..bytes.len() {
            let got = read_asf(&bytes[..cut]);
            if cut == unindexed {
                prop_assert_eq!(got.as_ref(), Ok(&f));
            } else {
                prop_assert!(got.is_err(), "cut at {cut} parsed");
            }
        }
    }
}
