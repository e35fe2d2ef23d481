//! The client's playout buffer renders what a `BTreeMap` keyed by
//! `(pres_time, stream, arrival seq)` would: the same samples in the same
//! order, under reordered delivery, a seek and an adaptive downgrade.

use std::collections::BTreeMap;

use lod_asf::{
    AsfFile, DataPacket, FileProperties, MediaSample, Packetizer, Reassembler, ScriptCommandList,
    StreamKind, StreamProperties,
};
use lod_simnet::Network;
use lod_streaming::{ClientState, StreamHeader, StreamingClient, Wire};
use proptest::prelude::*;

/// The audio stream an adaptive downgrade keeps.
const AUDIO: u16 = 2;

/// A two-stream lecture, one video and one audio sample every 0.2 s;
/// video samples larger than a 256-byte packet are split.
fn lecture(sizes: &[(usize, usize)]) -> AsfFile {
    let spacing = 2_000_000;
    let mut pk = Packetizer::new(256).unwrap();
    for (i, &(video, audio)) in sizes.iter().enumerate() {
        let t = i as u64 * spacing;
        pk.push(&MediaSample::new(1, t, vec![i as u8; video]));
        pk.push(&MediaSample::new(AUDIO, t, vec![!(i as u8); audio]));
    }
    let stream = |number, kind| StreamProperties {
        number,
        kind,
        codec: 4,
        bitrate: 100_000,
        name: format!("s{number}"),
    };
    AsfFile {
        props: FileProperties {
            file_id: 1,
            created: 0,
            packet_size: 256,
            play_duration: sizes.len() as u64 * spacing,
            preroll: 2 * spacing,
            broadcast: false,
            max_bitrate: 500_000,
        },
        streams: vec![
            stream(1, StreamKind::Video),
            stream(AUDIO, StreamKind::Audio),
        ],
        script: ScriptCommandList::new(),
        drm: None,
        packets: pk.finish(),
        index: None,
    }
}

/// The playout buffer as an ordered map, fed by its own reassembler.
#[derive(Default)]
struct Model {
    reasm: Reassembler,
    buffer: BTreeMap<(u64, u16, u64), ()>,
    seq: u64,
}

impl Model {
    fn push(&mut self, packet: &DataPacket) {
        let _ = self.reasm.push_packet(packet);
        for s in self.reasm.drain_completed() {
            self.seq += 1;
            self.buffer.insert((s.pres_time, s.stream, self.seq), ());
        }
    }

    fn render(&mut self, media_now: u64, out: &mut Vec<(u64, u16)>) {
        while let Some(entry) = self.buffer.first_entry() {
            if entry.key().0 > media_now {
                break;
            }
            let ((pres, stream, _), ()) = entry.remove_entry();
            out.push((pres, stream));
        }
    }
}

proptest! {
    #[test]
    fn playout_order_matches_an_ordered_map(
        sizes in proptest::collection::vec((0usize..900, 1usize..200), 4..40),
        window in 1usize..8,
        per_step in 1usize..5,
        seek_at in 0.0f64..0.5,
        target_at in 0.0f64..1.0,
        downgrade_at in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let file = lecture(&sizes);
        // Shuffle within `window` places, as LAN jitter reorders.
        let mut rng = proptest::test_runner::TestRng::from_seed(seed);
        let mut packets = file.packets.clone();
        for i in 0..packets.len() {
            let j = (i + (rng.next_u64() % window as u64) as usize).min(packets.len() - 1);
            packets.swap(i, j);
        }
        let delivery_steps = packets.len().div_ceil(per_step);
        let seek_step = (seek_at * delivery_steps as f64) as usize;
        let target = (target_at * file.props.play_duration as f64) as u64;
        let downgrade_step = (downgrade_at * 2.0 * delivery_steps as f64) as usize;

        let mut net: Network<Wire> = Network::new(seed);
        let server = net.add_node("server");
        let node = net.add_node("client");
        let mut client =
            StreamingClient::new(node, server, "lec").with_adaptive_thinning(0, vec![AUDIO]);
        client.start(&mut net);
        client.on_message(0, Wire::Header(Box::new(StreamHeader::of(&file, 0))));
        let mut model = Model::default();
        let (mut rendered, mut expected) = (Vec::new(), Vec::new());
        let mut queue = packets.into_iter();
        let mut step = 0usize;
        while !client.is_done() && step < 10_000 {
            let now = step as u64 * 1_000_000;
            let batch: Vec<DataPacket> = queue.by_ref().take(per_step).collect();
            for p in batch {
                model.push(&p);
                client.on_message(now, Wire::Data(p));
            }
            if step + 1 == delivery_steps {
                client.on_message(now, Wire::EndOfStream);
            }
            if step == seek_step {
                prop_assert!(!matches!(client.state(), ClientState::Idle | ClientState::Done));
                client.seek(&mut net, now, target);
                model.reasm = Reassembler::new();
                model.buffer.clear();
            }
            if step == downgrade_step {
                client.poll_adaptive(&mut net);
                prop_assert!(client.is_downgraded());
                model.buffer.retain(|&(_, stream, _), ()| stream == AUDIO);
            }
            // Rendering happens in a tick that starts or ends in Playing.
            let was_playing = client.state() == ClientState::Playing;
            client.tick_with(now, &mut |e| {
                if e.script.is_none() {
                    rendered.push((e.pres_time, e.stream));
                }
            });
            if was_playing || client.state() == ClientState::Playing {
                model.render(client.media_time(now), &mut expected);
            }
            step += 1;
        }
        prop_assert!(client.is_done());
        prop_assert!(!rendered.is_empty());
        prop_assert_eq!(rendered, expected);
    }
}
