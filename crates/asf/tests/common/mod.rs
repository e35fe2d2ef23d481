//! File strategies shared by the integration tests.

#![allow(dead_code)]

use lod_asf::{
    AsfFile, FileProperties, License, MediaSample, Packetizer, ScriptCommand, ScriptCommandList,
    StreamKind, StreamProperties,
};
use proptest::prelude::*;

pub fn arb_samples() -> impl Strategy<Value = Vec<MediaSample>> {
    proptest::collection::vec(
        (
            1u16..=3,
            0u64..100_000,
            proptest::collection::vec(any::<u8>(), 0..600),
        ),
        0..20,
    )
    .prop_map(|v| {
        v.into_iter()
            .map(|(s, t, d)| MediaSample::new(s, t, d))
            .collect()
    })
}

pub fn arb_script() -> impl Strategy<Value = ScriptCommandList> {
    proptest::collection::vec((0u64..10_000, "[a-z]{1,8}", "[ -~]{0,20}"), 0..10).prop_map(|v| {
        v.into_iter()
            .map(|(t, k, p)| ScriptCommand::new(t, k, p))
            .collect()
    })
}

pub fn make_file(samples: &[MediaSample], script: ScriptCommandList, packet_size: u32) -> AsfFile {
    let mut pk = Packetizer::new(packet_size).unwrap();
    for s in samples {
        pk.push(s);
    }
    AsfFile {
        props: FileProperties {
            file_id: 99,
            created: 5,
            packet_size,
            play_duration: 0,
            preroll: 0,
            broadcast: false,
            max_bitrate: 128_000,
        },
        streams: (1..=3)
            .map(|n| StreamProperties {
                number: n,
                kind: StreamKind::Video,
                codec: 4,
                bitrate: 1000,
                name: format!("s{n}"),
            })
            .collect(),
        script,
        drm: None,
        packets: pk.finish(),
        index: None,
    }
}

/// Whole files: plain or protected, with or without a script (an empty
/// `arb_script` draw leaves the object out) and an index.
pub fn arb_file() -> impl Strategy<Value = AsfFile> {
    (
        arb_samples(),
        arb_script(),
        64u32..2048,
        any::<bool>(),
        any::<bool>(),
        any::<u64>(),
    )
        .prop_map(|(samples, script, packet_size, indexed, protected, key)| {
            let mut f = make_file(&samples, script, packet_size);
            if indexed {
                f.build_index(1_000);
            }
            if protected {
                f.protect(&License::new("course", key));
            }
            f
        })
}
