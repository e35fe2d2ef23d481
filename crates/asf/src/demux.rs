//! Parsing ASF bytes back into an [`AsfFile`] (the demuxer).

use bytes::BytesMut;

use crate::error::AsfError;
use crate::guid;
use crate::header::{FileProperties, StreamProperties};
use crate::index::AsfIndex;
use crate::io::Reader;
use crate::mux::AsfFile;
use crate::packet::DataPacket;
use crate::script::ScriptCommandList;

fn read_object<'a>(
    r: &mut Reader<'a>,
    context: &'static str,
) -> Result<(crate::guid::Guid, Reader<'a>), AsfError> {
    let g = r.guid(context)?;
    let size = r.u64(context)?;
    if size < 24 {
        return Err(AsfError::BadSize { context, size });
    }
    let body_len = (size - 24) as usize;
    if body_len > r.remaining() {
        return Err(AsfError::BadSize { context, size });
    }
    let body = r.slice(body_len, context)?;
    Ok((g, body))
}

/// Parses a complete ASF byte stream.
///
/// The payload bytes — and nothing else: not headers, padding or index —
/// are copied once, in file order, into one packed image, and every
/// payload of the result is a view of it (one allocation per file, not
/// one per payload). A [`crate::Payload`] or a [`crate::MediaSample`]
/// kept from the result keeps the whole image alive; copy the bytes out
/// (`to_vec`) to hold a few of them past the file's lifetime. The
/// [`crate::Packetizer`] splits a sample only where a packet is full, so
/// its fragments end one packet and start the next: in the image they
/// are adjacent, and reassembly joins them into one view.
///
/// # Errors
///
/// Any [`AsfError`] variant describing the malformation; in particular,
/// packets referencing streams not declared in the header fail with
/// [`AsfError::UnknownStream`].
pub fn read_asf(bytes: &[u8]) -> Result<AsfFile, AsfError> {
    let mut r = Reader::new(bytes);

    // Header object.
    let (g, mut header) = read_object(&mut r, "header object")?;
    if g != guid::HEADER_OBJECT {
        return Err(AsfError::UnexpectedObject { expected: "header" });
    }
    let mut props: Option<FileProperties> = None;
    let mut streams = Vec::new();
    let mut script = ScriptCommandList::new();
    let mut drm = None;
    while !header.is_empty() {
        let (sg, mut body) = read_object(&mut header, "header sub-object")?;
        if sg == guid::FILE_PROPERTIES {
            props = Some(FileProperties::read(&mut body)?);
        } else if sg == guid::STREAM_PROPERTIES {
            streams.push(StreamProperties::read(&mut body)?);
        } else if sg == guid::SCRIPT_COMMAND {
            script = ScriptCommandList::read(&mut body)?;
        } else if sg == guid::DRM_OBJECT {
            drm = Some(crate::drm::DrmHeader::read(&mut body)?);
        }
        // Unknown sub-objects are skipped (forward compatibility).
    }
    let props = props.ok_or(AsfError::UnexpectedObject {
        expected: "file properties",
    })?;

    // Data object.
    let (g, mut data) = read_object(&mut r, "data object")?;
    if g != guid::DATA_OBJECT {
        return Err(AsfError::UnexpectedObject { expected: "data" });
    }
    let count = data.u32("packet count")?;
    let psize = props.packet_size;
    // The count is a wire field: reserve only what the input can hold.
    let fits = data.remaining().checked_div(psize as usize).unwrap_or(0);
    let mut sends = Vec::with_capacity((count as usize).min(fits));
    let mut heads = Vec::new();
    // The one copy: payload bytes only, never more than the data object.
    let mut payload_bytes = BytesMut::with_capacity(data.remaining());
    for _ in 0..count {
        let mut body = data.slice(psize as usize, "data packet")?;
        let first = heads.len();
        let send_time = DataPacket::read_parts(&mut body, &mut heads, &mut payload_bytes)?;
        for head in &heads[first..] {
            if !streams.iter().any(|s| s.number == head.stream) {
                return Err(AsfError::UnknownStream(head.stream));
            }
        }
        sends.push((send_time, heads.len()));
    }
    // Every payload read above is a view of this image.
    let image = payload_bytes.freeze();
    let (mut first, mut at) = (0, 0);
    let packets = sends
        .into_iter()
        .map(|(send_time, end)| {
            let p = DataPacket::from_parts(send_time, &heads[first..end], &image, &mut at);
            first = end;
            p
        })
        .collect();

    // Optional index object.
    let mut index = None;
    if !r.is_empty() {
        let (g, mut body) = read_object(&mut r, "index object")?;
        if g == guid::INDEX_OBJECT {
            index = Some(AsfIndex::read(&mut body)?);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::StreamKind;
    use crate::mux::write_asf;
    use crate::packet::{MediaSample, Packetizer};

    fn minimal() -> AsfFile {
        let mut pk = Packetizer::new(128).unwrap();
        pk.push(&MediaSample::new(1, 0, vec![9; 10]));
        AsfFile {
            props: FileProperties {
                file_id: 1,
                created: 0,
                packet_size: 128,
                play_duration: 0,
                preroll: 0,
                broadcast: true,
                max_bitrate: 0,
            },
            streams: vec![StreamProperties {
                number: 1,
                kind: StreamKind::Video,
                codec: 4,
                bitrate: 1,
                name: "v".into(),
            }],
            script: ScriptCommandList::new(),
            drm: None,
            packets: pk.finish(),
            index: None,
        }
    }

    #[test]
    fn truncated_input_fails_cleanly() {
        let bytes = write_asf(&minimal()).unwrap();
        for cut in [0, 10, bytes.len() / 2, bytes.len() - 1] {
            let err = read_asf(&bytes[..cut]);
            assert!(err.is_err(), "cut at {cut} parsed");
        }
    }

    #[test]
    fn wrong_leading_object_rejected() {
        let mut bytes = write_asf(&minimal()).unwrap();
        bytes[0] ^= 0xFF;
        assert!(matches!(
            read_asf(&bytes),
            Err(AsfError::UnexpectedObject { .. })
        ));
    }

    #[test]
    fn undeclared_stream_rejected() {
        let mut f = minimal();
        std::rc::Rc::make_mut(&mut f.packets[0].payloads)[0].stream = 42;
        let bytes = write_asf(&f).unwrap();
        assert_eq!(read_asf(&bytes).unwrap_err(), AsfError::UnknownStream(42));
    }

    #[test]
    fn empty_file_round_trips() {
        let mut f = minimal();
        f.packets.clear();
        let bytes = write_asf(&f).unwrap();
        let back = read_asf(&bytes).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn size_field_sanity_checked() {
        let mut bytes = write_asf(&minimal()).unwrap();
        // Corrupt the header object size to something absurd.
        bytes[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(read_asf(&bytes), Err(AsfError::BadSize { .. })));
    }
}
