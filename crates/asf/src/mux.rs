//! Whole-file model and serialization (the muxer).

use std::rc::Rc;

use bytes::Bytes;
use serde::{Deserialize, Serialize};

use crate::drm::{scramble_in_place, DrmHeader, License};
use crate::error::AsfError;
use crate::guid;
use crate::header::{FileProperties, StreamProperties};
use crate::index::AsfIndex;
use crate::io::{Writer, OBJECT_HEADER_BYTES};
use crate::packet::DataPacket;
use crate::script::ScriptCommandList;

/// A complete piece of ASF content: header metadata, data packets, and an
/// optional seek index. This is what the encoder produces, the server
/// streams, and the player consumes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AsfFile {
    /// Global file properties.
    pub props: FileProperties,
    /// Stream declarations.
    pub streams: Vec<StreamProperties>,
    /// Script commands (slide flips, annotations, captions, URLs).
    pub script: ScriptCommandList,
    /// DRM header when the content is protected.
    pub drm: Option<DrmHeader>,
    /// The data packets in send order.
    pub packets: Vec<DataPacket>,
    /// Optional seek index.
    pub index: Option<AsfIndex>,
}

impl AsfFile {
    /// Looks up a stream declaration by number.
    pub fn stream(&self, number: u16) -> Option<&StreamProperties> {
        self.streams.iter().find(|s| s.number == number)
    }

    /// Latest payload presentation time across all packets (the observable
    /// content duration).
    pub fn last_presentation_time(&self) -> u64 {
        self.packets
            .iter()
            .flat_map(|p| p.payloads.iter())
            .map(|p| p.pres_time)
            .max()
            .unwrap_or(0)
    }

    /// Builds a seek index with roughly one entry per `interval` ticks and
    /// stores it in the file (the "ASF Indexer" command-line utility of
    /// §2.1).
    pub fn build_index(&mut self, interval: u64) {
        let mut idx = AsfIndex::new();
        let mut next_mark = 0u64;
        for (i, p) in self.packets.iter().enumerate() {
            if p.send_time >= next_mark {
                idx.push(p.send_time, i as u32);
                next_mark = p.send_time.saturating_add(interval.max(1));
            }
        }
        self.index = Some(idx);
    }

    /// The packet from which playback at presentation time `time` starts
    /// (the seek rule): the index's [`AsfIndex::packet_for`] when the file
    /// has an index, otherwise the first packet sent at or after `time`
    /// (`packets.len()` when none is).
    pub fn packet_at(&self, time: u64) -> u32 {
        match &self.index {
            Some(idx) => idx.packet_for(time),
            None => self
                .packets
                .iter()
                .position(|p| p.send_time >= time)
                .unwrap_or(self.packets.len()) as u32,
        }
    }

    /// Scrambles every payload with `license` and records the DRM header.
    /// No-op for content that is already protected: the first license
    /// stands (scrambling again would XOR the payloads back towards
    /// plaintext under a header that still claims protection).
    pub fn protect(&mut self, license: &License) {
        if self.drm.is_some() {
            return;
        }
        scramble_payloads(license, &mut self.packets);
        self.drm = Some(DrmHeader::for_license(license));
    }

    /// Verifies `license` and unscrambles the content. No-op for
    /// unprotected content.
    ///
    /// # Errors
    ///
    /// [`AsfError::LicenseRejected`] when the license does not match.
    pub fn unprotect(&mut self, license: &License) -> Result<(), AsfError> {
        let Some(drm) = &self.drm else {
            return Ok(());
        };
        drm.verify(license)?;
        scramble_payloads(license, &mut self.packets);
        self.drm = None;
        Ok(())
    }

    /// Total serialized size in bytes (header + data + index): the length
    /// of what [`write_asf`] returns, worked out without serializing. `0`
    /// when a string field is too long to write at all.
    pub fn wire_size(&self) -> usize {
        self.checked_wire_size().unwrap_or(0)
    }

    /// The sizing pass: every object's preamble and body, packets at
    /// their fixed size. Also the one place strings are checked against
    /// their `u16` length prefix.
    fn checked_wire_size(&self) -> Result<usize, AsfError> {
        let mut header = OBJECT_HEADER_BYTES + OBJECT_HEADER_BYTES + FileProperties::WIRE_LEN;
        for s in &self.streams {
            header += OBJECT_HEADER_BYTES + s.wire_len()?;
        }
        if !self.script.is_empty() {
            header += OBJECT_HEADER_BYTES + self.script.wire_len()?;
        }
        if let Some(drm) = &self.drm {
            header += OBJECT_HEADER_BYTES + drm.wire_len()?;
        }
        let data = OBJECT_HEADER_BYTES + 4 + self.packets.len() * self.props.packet_size as usize;
        let index = self
            .index
            .as_ref()
            .map_or(0, |idx| OBJECT_HEADER_BYTES + idx.wire_len());
        Ok(header + data + index)
    }
}

/// XOR-scrambles every payload with the license key. Payload data is
/// immutable shared [`bytes::Bytes`], so the scrambled bytes go into one
/// fresh buffer for the whole file, which every payload then views —
/// protected content never aliases the plaintext a cache or reader may
/// still hold. The keystream restarts at each payload, so every payload
/// is XORed with a prefix of one sequence: it is generated once per
/// pass, as long as the longest payload.
fn scramble_payloads(license: &License, packets: &mut [DataPacket]) {
    let payloads = || packets.iter().flat_map(|p| p.payloads.iter());
    let longest = payloads().map(|p| p.data.len()).max().unwrap_or(0);
    let mut keystream = vec![0; longest];
    scramble_in_place(license.key, &mut keystream);
    let total = packets.iter().map(DataPacket::media_bytes).sum();
    let mut buf = Vec::with_capacity(total);
    for payload in payloads() {
        buf.extend(payload.data.iter().zip(&keystream).map(|(b, k)| b ^ k));
    }
    let backing = Bytes::from(buf);
    let mut at = 0;
    // `make_mut` copies a packet's payload list only when a reader still
    // shares it, so the plaintext that reader holds stays untouched.
    for payload in packets
        .iter_mut()
        .flat_map(|p| Rc::make_mut(&mut p.payloads))
    {
        let end = at + payload.data.len();
        payload.data = backing.slice(at..end);
        at = end;
    }
}

/// Serializes `file` to bytes, in one pass into one buffer sized up
/// front.
///
/// # Errors
///
/// [`AsfError::BadSize`] if a packet's payloads exceed the declared
/// packet size or the limits of their wire fields, or a string (stream
/// name, DRM key id, script command kind or parameter) is longer than
/// 65 535 bytes.
pub fn write_asf(file: &AsfFile) -> Result<Vec<u8>, AsfError> {
    let size = file.checked_wire_size()?;
    let mut out = Writer::with_capacity(size);

    // Header object: nested sub-objects.
    out.object(guid::HEADER_OBJECT, |out| {
        out.object(guid::FILE_PROPERTIES, |w| file.props.write(w));
        for s in &file.streams {
            out.object(guid::STREAM_PROPERTIES, |w| s.write(w));
        }
        if !file.script.is_empty() {
            out.object(guid::SCRIPT_COMMAND, |w| file.script.write(w));
        }
        if let Some(drm) = &file.drm {
            out.object(guid::DRM_OBJECT, |w| drm.write(w));
        }
    });

    // Data object.
    out.object(guid::DATA_OBJECT, |out| {
        out.u32(file.packets.len() as u32);
        file.packets
            .iter()
            .try_for_each(|p| p.write_into(out, file.props.packet_size))
    })?;

    // Index object.
    if let Some(idx) = &file.index {
        out.object(guid::INDEX_OBJECT, |w| idx.write(w));
    }

    debug_assert_eq!(out.len(), size, "the sizing pass and the writer disagree");
    Ok(out.into_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demux::read_asf;
    use crate::header::StreamKind;
    use crate::packet::{MediaSample, Packetizer};
    use crate::script::ScriptCommand;

    pub(crate) fn sample_file() -> AsfFile {
        let mut pk = Packetizer::new(200).unwrap();
        pk.push(&MediaSample::new(1, 0, vec![1; 300]));
        pk.push(&MediaSample::new(2, 50, vec![2; 80]));
        pk.push(&MediaSample::new(1, 100, vec![3; 20]));
        let packets = pk.finish();
        AsfFile {
            props: FileProperties {
                file_id: 7,
                created: 1_000,
                packet_size: 200,
                play_duration: 100,
                preroll: 10,
                broadcast: false,
                max_bitrate: 64_000,
            },
            streams: vec![
                StreamProperties {
                    number: 1,
                    kind: StreamKind::Video,
                    codec: 4,
                    bitrate: 48_000,
                    name: "camera".into(),
                },
                StreamProperties {
                    number: 2,
                    kind: StreamKind::Audio,
                    codec: 1,
                    bitrate: 16_000,
                    name: "mic".into(),
                },
            ],
            script: [
                ScriptCommand::new(0, "slide", "s1.png"),
                ScriptCommand::new(60, "slide", "s2.png"),
            ]
            .into_iter()
            .collect(),
            drm: None,
            packets,
            index: None,
        }
    }

    #[test]
    fn full_round_trip() {
        let mut f = sample_file();
        f.build_index(50);
        let bytes = write_asf(&f).unwrap();
        let back = read_asf(&bytes).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn protect_then_unprotect_round_trips() {
        let f = sample_file();
        let mut g = f.clone();
        let lic = License::new("cs101", 0xABCD);
        g.protect(&lic);
        assert_ne!(g.packets, f.packets);
        // Also survives the wire.
        let bytes = write_asf(&g).unwrap();
        let mut back = read_asf(&bytes).unwrap();
        back.unprotect(&lic).unwrap();
        assert_eq!(back.packets, f.packets);
        assert!(back.drm.is_none());
    }

    #[test]
    fn protecting_twice_keeps_the_first_license() {
        let f = sample_file();
        let lic = License::new("cs101", 0xABCD);
        let mut once = f.clone();
        once.protect(&lic);
        let mut twice = once.clone();
        twice.protect(&lic);
        assert_eq!(twice, once);
        twice.protect(&License::new("cs102", 5));
        assert_eq!(twice, once);
        twice.unprotect(&lic).unwrap();
        assert_eq!(twice, f);
    }

    #[test]
    fn wrong_license_rejected_and_content_untouched() {
        let mut f = sample_file();
        f.protect(&License::new("cs101", 1));
        let scrambled = f.packets.clone();
        let err = f.unprotect(&License::new("cs101", 2)).unwrap_err();
        assert!(matches!(err, AsfError::LicenseRejected { .. }));
        assert_eq!(f.packets, scrambled);
    }

    #[test]
    fn overlong_strings_are_refused_not_panicked_on() {
        let longest = "x".repeat(usize::from(u16::MAX));
        let too_long = "x".repeat(usize::from(u16::MAX) + 1);
        type Setter = fn(&mut AsfFile, String);
        let fields: [(&str, Setter); 4] = [
            ("stream name", |f, s| f.streams[1].name = s),
            ("script command kind", |f, s| {
                f.script.push(ScriptCommand::new(5, s, "p"))
            }),
            ("script command param", |f, s| {
                f.script.push(ScriptCommand::new(5, "annotation", s))
            }),
            ("drm key id", |f, s| f.protect(&License::new(s, 3))),
        ];
        for (context, set) in fields {
            let mut f = sample_file();
            set(&mut f, longest.clone());
            let bytes = write_asf(&f).unwrap();
            assert_eq!(bytes.len(), f.wire_size());
            assert_eq!(read_asf(&bytes).unwrap(), f);

            let mut f = sample_file();
            set(&mut f, too_long.clone());
            assert_eq!(
                write_asf(&f).unwrap_err(),
                AsfError::BadSize {
                    context,
                    size: 65_536
                }
            );
            assert_eq!(f.wire_size(), 0);
        }
    }

    #[test]
    fn output_is_sized_exactly_up_front() {
        let mut f = sample_file();
        f.build_index(50);
        f.protect(&License::new("cs101", 9));
        let bytes = write_asf(&f).unwrap();
        assert_eq!(bytes.len(), f.wire_size());
        assert_eq!(bytes.capacity(), bytes.len());
    }

    #[test]
    fn last_presentation_time_scans_payloads() {
        let f = sample_file();
        assert_eq!(f.last_presentation_time(), 100);
    }

    #[test]
    fn index_entries_cover_packets() {
        let mut f = sample_file();
        f.build_index(1);
        let idx = f.index.as_ref().unwrap();
        assert!(!idx.is_empty());
        assert_eq!(idx.packet_for(0), 0);
    }

    #[test]
    fn stream_lookup() {
        let f = sample_file();
        assert_eq!(f.stream(2).unwrap().name, "mic");
        assert!(f.stream(9).is_none());
    }
}
