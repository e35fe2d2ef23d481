//! File-properties and stream-properties objects.

use serde::{Deserialize, Serialize};

use crate::error::AsfError;
use crate::io::{string_len, Reader, Writer};

/// What a stream carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum StreamKind {
    /// Compressed audio samples.
    Audio,
    /// Compressed video frames.
    Video,
    /// Still images (the slide stream).
    Image,
    /// Script commands carried in-band (rare; normally in the header).
    Script,
}

impl StreamKind {
    fn to_wire(self) -> u8 {
        match self {
            StreamKind::Audio => 1,
            StreamKind::Video => 2,
            StreamKind::Image => 3,
            StreamKind::Script => 4,
        }
    }

    fn from_wire(v: u8) -> Result<Self, AsfError> {
        match v {
            1 => Ok(StreamKind::Audio),
            2 => Ok(StreamKind::Video),
            3 => Ok(StreamKind::Image),
            4 => Ok(StreamKind::Script),
            _ => Err(AsfError::UnexpectedObject {
                expected: "stream kind 1..=4",
            }),
        }
    }
}

/// The file-properties object: global facts about the content.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FileProperties {
    /// Random file id chosen by the encoder.
    pub file_id: u64,
    /// Creation time in ticks (simulation wall clock).
    pub created: u64,
    /// Fixed size of every data packet, in bytes.
    pub packet_size: u32,
    /// Total play duration in ticks (0 while a live broadcast is running).
    pub play_duration: u64,
    /// Client preroll: how much to buffer before starting playback, ticks.
    pub preroll: u64,
    /// `true` while the content is an in-progress live broadcast.
    pub broadcast: bool,
    /// Peak bitrate of all streams combined, bit/s.
    pub max_bitrate: u32,
}

impl FileProperties {
    /// Wire size: five integers, a flag and the bitrate.
    pub(crate) const WIRE_LEN: usize = 8 + 8 + 4 + 8 + 8 + 1 + 4;

    pub(crate) fn write(&self, w: &mut Writer) {
        w.u64(self.file_id);
        w.u64(self.created);
        w.u32(self.packet_size);
        w.u64(self.play_duration);
        w.u64(self.preroll);
        w.u8(u8::from(self.broadcast));
        w.u32(self.max_bitrate);
    }

    pub(crate) fn read(r: &mut Reader<'_>) -> Result<Self, AsfError> {
        Ok(Self {
            file_id: r.u64("file id")?,
            created: r.u64("creation time")?,
            packet_size: r.u32("packet size")?,
            play_duration: r.u64("play duration")?,
            preroll: r.u64("preroll")?,
            broadcast: r.u8("broadcast flag")? != 0,
            max_bitrate: r.u32("max bitrate")?,
        })
    }
}

/// Per-stream metadata.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamProperties {
    /// Stream number referenced by packet payloads (1-based by convention).
    pub number: u16,
    /// Payload kind.
    pub kind: StreamKind,
    /// Codec identifier (wire value of `lod_media::CodecId`, but the
    /// container does not interpret it).
    pub codec: u16,
    /// Average bitrate in bit/s.
    pub bitrate: u32,
    /// Human-readable stream name.
    pub name: String,
}

impl StreamProperties {
    pub(crate) fn wire_len(&self) -> Result<usize, AsfError> {
        Ok(2 + 1 + 2 + 4 + string_len(&self.name, "stream name")?)
    }

    pub(crate) fn write(&self, w: &mut Writer) {
        w.u16(self.number);
        w.u8(self.kind.to_wire());
        w.u16(self.codec);
        w.u32(self.bitrate);
        w.string(&self.name);
    }

    pub(crate) fn read(r: &mut Reader<'_>) -> Result<Self, AsfError> {
        Ok(Self {
            number: r.u16("stream number")?,
            kind: StreamKind::from_wire(r.u8("stream kind")?)?,
            codec: r.u16("codec id")?,
            bitrate: r.u32("stream bitrate")?,
            name: r.string("stream name")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_properties_round_trip() {
        let p = FileProperties {
            file_id: 0xDEAD_BEEF,
            created: 123,
            packet_size: 1500,
            play_duration: 9_999_999,
            preroll: 30_000_000,
            broadcast: true,
            max_bitrate: 1_000_000,
        };
        let mut w = Writer::new();
        p.write(&mut w);
        let v = w.into_vec();
        let mut r = Reader::new(&v);
        assert_eq!(FileProperties::read(&mut r).unwrap(), p);
        assert!(r.is_empty());
    }

    #[test]
    fn stream_properties_round_trip() {
        let s = StreamProperties {
            number: 2,
            kind: StreamKind::Video,
            codec: 4,
            bitrate: 300_000,
            name: "camera".into(),
        };
        let mut w = Writer::new();
        s.write(&mut w);
        let v = w.into_vec();
        let mut r = Reader::new(&v);
        assert_eq!(StreamProperties::read(&mut r).unwrap(), s);
    }

    #[test]
    fn bad_kind_rejected() {
        let mut w = Writer::new();
        w.u16(1);
        w.u8(99);
        let v = w.into_vec();
        let mut r = Reader::new(&v);
        assert!(StreamProperties::read(&mut r).is_err());
    }

    #[test]
    fn kinds_round_trip() {
        for k in [
            StreamKind::Audio,
            StreamKind::Video,
            StreamKind::Image,
            StreamKind::Script,
        ] {
            assert_eq!(StreamKind::from_wire(k.to_wire()).unwrap(), k);
        }
    }
}
