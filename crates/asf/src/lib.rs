//! An ASF-like streaming container, implemented byte-for-byte.
//!
//! §2.1 of the paper: "The ASF is a data format for streaming audio and
//! video content, images, and script commands in packets over a network.
//! ASF content can be an .asf file or a live stream generated by Windows
//! Media Encoder." This crate reproduces the *structure* of that format —
//! GUID-tagged objects, fixed-size data packets with payload fragmentation,
//! a script-command object whose commands fire during rendering, a seek
//! index, and an optional DRM layer — with a simplified, fully documented
//! wire layout (little-endian throughout):
//!
//! ```text
//! file    := header_object data_object [index_object]
//! object  := guid(16) size(u64, incl. 24-byte preamble) body
//! header  := file_properties stream_properties* [script_commands] [drm]
//! packet  := send_time(u64) payload_count(u8) payload* padding
//! payload := stream(u16) object_id(u32) offset(u32) total(u32)
//!            pres_time(u64) len(u16) bytes
//! ```
//!
//! The [`mux`]/[`demux`] pair round-trips exactly (property-tested), and
//! the packetizer fragments large media samples across fixed-size packets
//! the way the streaming server needs.

pub mod demux;
pub mod drm;
pub mod error;
pub mod guid;
pub mod header;
pub mod index;
mod io;
pub mod mux;
pub mod packet;
pub mod script;

pub use demux::read_asf;
pub use drm::{DrmHeader, License};
pub use error::AsfError;
pub use guid::Guid;
pub use header::{FileProperties, StreamKind, StreamProperties};
pub use index::AsfIndex;
pub use mux::{write_asf, AsfFile};
pub use packet::{
    DataPacket, Keep, LengthReassembler, MediaSample, Packetizer, Payload, Reassembler,
    MAX_SAMPLE_BYTES, REASSEMBLY_WINDOW,
};
pub use script::{ScriptCommand, ScriptCommandList};
