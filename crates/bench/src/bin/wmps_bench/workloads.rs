//! The seven workloads: what each is, how big, what goes in, and the
//! shape of what one run of it gives back.

use lod_asf::{AsfFile, Reassembler};
use lod_core::{synthetic_lecture, Wmps};
use lod_encoder::{BandwidthProfile, BroadcastConfig, LiveEncoder};
use lod_media::Ticks;
use lod_player::PlayerEngine;
use lod_relay::{CacheStats, RelayMetrics};
use lod_streaming::{ClientMetrics, LiveFeed, RenderEvent, ServerMetrics, StreamHeader};
use lod_transport::{ReorderStats, TransportStats};

/// The drivers' virtual-clock step: 100 ms in 100 ns ticks.
pub const STEP: u64 = 1_000_000;
/// Ticks per virtual millisecond.
pub const TICKS_PER_MS: f64 = 10_000.0;
/// Ticks per virtual second.
pub const TICKS_PER_S: u64 = 10_000_000;
/// Video bitrate of every synthetic lecture, bit/s.
const VIDEO_BPS: u64 = 300_000;
/// Encoder profile of the live classroom.
const LIVE_PROFILE: &str = "DSL/cable (256k)";
/// Packets per origin → relay segment on real sockets: a whole segment
/// must fit one datagram (32 × 1400 B ≈ 45 KiB under the 60 KiB cap).
pub const UDP_SEGMENT_PACKETS: u32 = 32;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    VodRelaySim,
    VodScaleSim,
    VodDirectSim,
    LiveSim,
    UdpClean,
    UdpLossy,
    PublishReplay,
}

/// How much work one unit of a workload is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    pub students: usize,
    pub relays: usize,
    pub minutes: u64,
}

impl Workload {
    pub const ALL: [Workload; 7] = [
        Workload::VodRelaySim,
        Workload::VodScaleSim,
        Workload::VodDirectSim,
        Workload::LiveSim,
        Workload::UdpClean,
        Workload::UdpLossy,
        Workload::PublishReplay,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::VodRelaySim => "vod_relay_sim",
            Workload::VodScaleSim => "vod_scale_sim",
            Workload::VodDirectSim => "vod_direct_sim",
            Workload::LiveSim => "live_sim",
            Workload::UdpClean => "udp_clean",
            Workload::UdpLossy => "udp_lossy",
            Workload::PublishReplay => "publish_replay",
        }
    }

    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the set (also the `why` of BENCHMARK.json).
    pub fn why(self) -> &'static str {
        match self {
            Workload::VodRelaySim => {
                "main path, per-packet regime: few sessions, many packets per step through relay fan-out, client reassembly and simnet"
            }
            Workload::VodScaleSim => {
                "vod_relay_sim's path with 4x the sessions: the facade's per-client report building, O(clients x events), is 160-310 permille of the wall here against 90-110 there; the loop's layer shares match"
            }
            Workload::VodDirectSim => {
                "bypasses the relay tier: the origin paces every session itself, so a relay change must show nothing here"
            }
            Workload::LiveSim => {
                "the server pushing from a growing live feed with slide flips instead of pulling a stored file"
            }
            Workload::UdpClean => {
                "real loopback sockets driven by one thread: frame codec, pacer, reorder and sendto/recvfrom do the work"
            }
            Workload::UdpLossy => {
                "udp_clean plus 5% seeded egress loss with repair on: NACK, retransmit, heartbeat and out-of-order paths"
            }
            Workload::PublishReplay => {
                "no network: summarize, publish, mux, demux, load and play every content-tree level of a 20-minute lecture"
            }
        }
    }

    /// The size every reported number is measured at. One unit is sized
    /// to well under a second where the workload allows, so that the
    /// timed window holds a dozen or more: on a shared host the fastest
    /// unit of many is far steadier than the median of three (see
    /// `run::end_to_end`).
    pub fn full_size(self) -> Size {
        let (students, relays, minutes) = match self {
            Workload::VodRelaySim => (64, 4, 2),
            // Four times the sessions on the same four relays. A lecture
            // is at least a minute, so the unit (about 2 s) cannot shrink
            // without shrinking the class. What was measured to grow with
            // the class is not the driver loop's own share (about 90
            // permille, as at 64 students) but the facade's report
            // building outside the loop and the per-packet cost of
            // clients, relays and simnet (1.3-1.5 times, on twice the
            // resident memory).
            Workload::VodScaleSim => (256, 4, 1),
            Workload::VodDirectSim => (64, 0, 2),
            Workload::LiveSim => (128, 0, 2),
            Workload::UdpClean | Workload::UdpLossy => (32, 2, 2),
            Workload::PublishReplay => (1, 0, 20),
        };
        Size {
            students,
            relays,
            minutes,
        }
    }

    /// The `--smoke` size: the same code paths in a fraction of a second.
    pub fn smoke_size(self) -> Size {
        let full = self.full_size();
        Size {
            students: full.students.min(8),
            relays: full.relays.min(2),
            minutes: if self == Workload::PublishReplay {
                3
            } else {
                1
            },
        }
    }

    /// Whether `--seed` fixes every count of a run (simulated clock, or
    /// real sockets with nothing dropped).
    pub fn is_deterministic(self) -> bool {
        self != Workload::UdpLossy
    }

    pub fn is_sim(self) -> bool {
        matches!(
            self,
            Workload::VodRelaySim
                | Workload::VodScaleSim
                | Workload::VodDirectSim
                | Workload::LiveSim
        )
    }

    pub fn is_udp(self) -> bool {
        matches!(self, Workload::UdpClean | Workload::UdpLossy)
    }
}

/// Everything a workload's runs consume, made from the seed alone. The
/// program under test receives the lecture, the file and the sizes —
/// never the seed's provenance.
#[derive(Debug, Clone)]
pub struct Input {
    pub workload: Workload,
    pub seed: u64,
    pub size: Size,
    pub lecture: lod_core::Lecture,
    /// The published lecture. For the live classroom, the archive of a
    /// dry encoder run — what every student should end up having seen.
    pub file: AsfFile,
    /// Media samples a complete session renders.
    pub expected_samples: u64,
    /// Samples whose fragments the file itself leaves incomplete. Only a
    /// live archive has any: the broadcast ends with the encoder's last
    /// packet still unfinished, so the final sample never completes.
    pub expected_lost: u64,
    /// Live slide flips: `(presentation ticks, uri)`.
    pub slides: Vec<(u64, String)>,
}

impl Input {
    /// Seconds of lecture one session plays.
    pub fn lecture_s(&self) -> f64 {
        if self.workload == Workload::LiveSim {
            (self.size.minutes * 60) as f64
        } else {
            self.file.props.play_duration as f64 / TICKS_PER_S as f64
        }
    }
}

pub fn live_profile() -> BandwidthProfile {
    BandwidthProfile::by_name(LIVE_PROFILE).expect("profile is in the encoder's table")
}

/// Builds a workload's input: the lecture, its published file and the
/// sample count a complete session renders. This is the set-up work the
/// `setup_s` metric times (the socket workloads add binding and node
/// construction on top, see `udp::Deployment`).
pub fn setup(workload: Workload, seed: u64, size: Size) -> Input {
    let wmps = Wmps::new();
    let lecture = synthetic_lecture(seed, size.minutes, VIDEO_BPS);
    let slides: Vec<(u64, String)> = lecture
        .deck
        .slides
        .iter()
        .map(|s| (s.show_at.0, lecture.deck.uri(s)))
        .collect();
    let file = if workload == Workload::LiveSim {
        live_archive(size.minutes * 60, &slides)
    } else {
        wmps.publish(&lecture).expect("1400-byte packets publish")
    };
    let expected_samples = PlayerEngine::load(file.clone(), None)
        .expect("unprotected content loads")
        .sample_count() as u64;
    let mut reassembler = Reassembler::new();
    for p in &file.packets {
        reassembler
            .push_packet(p)
            .expect("published packets reassemble");
    }
    Input {
        workload,
        seed,
        size,
        lecture,
        file,
        expected_samples,
        expected_lost: reassembler.incomplete() as u64,
        slides,
    }
}

/// A dry run of the live encoder on the classroom's own cadence (one
/// `pump` per 100 ms step, flips pushed when due), archived the way the
/// server archives a finished broadcast. Independent of the network, so
/// it is the reference the live sessions are checked against.
fn live_archive(secs: u64, slides: &[(u64, String)]) -> AsfFile {
    let mut encoder = LiveEncoder::new(
        BroadcastConfig::new("http://wmps.example/live"),
        live_profile(),
        1_400,
    );
    let mut feed = LiveFeed::new(StreamHeader {
        props: encoder.file_properties(),
        streams: encoder.stream_properties(),
        script: encoder.script(),
        drm: None,
        epoch: 0,
    });
    let live_end = secs * TICKS_PER_S;
    let mut now = 0;
    while now <= live_end {
        for p in encoder.pump(Ticks(now)) {
            feed.push(p);
        }
        now += STEP;
    }
    for (t, uri) in slides {
        feed.push_script(lod_asf::ScriptCommand::new(*t, "slide", uri.clone()));
    }
    feed.end();
    feed.into_asf().expect("the feed has a header")
}

/// Counts that must repeat exactly for a deterministic workload and seed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Exact {
    pub session_ticks: u64,
    pub origin_egress_bytes: u64,
    pub samples_rendered: u64,
    /// Frames every socket transport sent (0 off the socket workloads).
    pub frames_sent: u64,
}

/// Accounting only a driver the benchmark owns can see: the facade
/// reports neither the whole wire nor individual render events.
#[derive(Debug, Clone, Default)]
pub struct Account {
    /// Bytes every node put on its own outgoing links.
    pub wire_bytes: u64,
    /// Worst |render wall − (anchor + presentation time)| over
    /// script-command render events, virtual ms.
    pub script_skew_worst_ms: f64,
    /// Driver steps taken.
    pub steps: u64,
    /// Messages the substrate delivered to nodes.
    pub deliveries: u64,
    /// Media data packets delivered to clients.
    pub data_packets: u64,
    pub server: ServerMetrics,
    pub relay: RelayMetrics,
    pub cache: CacheStats,
    pub samples_lost: u64,
    pub client_retries: u64,
    pub stalls: u64,
    pub transport: TransportStats,
    pub reorder: ReorderStats,
    pub repair_give_ups: u64,
}

impl Account {
    /// Folds the sessions' own loss, retry and stall counters in.
    pub fn count_clients(&mut self, clients: &[ClientMetrics]) {
        self.samples_lost = clients.iter().map(|m| m.samples_lost).sum();
        self.client_retries = clients.iter().map(|m| m.retries).sum();
        self.stalls = clients.iter().map(|m| m.stalls).sum();
    }
}

/// What one unit of a workload produced, as seen from outside.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Wall seconds of the timed region.
    pub wall_s: f64,
    /// Sessions attempted.
    pub sessions: u64,
    /// Why each failed session (or pass) failed; empty on a clean run.
    pub failures: Vec<String>,
    /// Per-session startup, virtual ms.
    pub startup_ms: Vec<f64>,
    pub stall_ticks: u64,
    /// Ticks of lecture the sessions set out to play.
    pub playback_ticks: u64,
    /// Worst |render wall − (anchor + presentation time)| over every
    /// rendered item of every session, virtual ms.
    pub skew_worst_ms: f64,
    /// Media payload bytes the sessions received.
    pub payload_bytes: u64,
    pub exact: Exact,
    /// `None` from a facade run.
    pub account: Option<Account>,
}

impl Outcome {
    /// What the streaming sessions themselves say, each judged against
    /// `input`: not given up on, finished, nothing lost that the file
    /// holds whole, everything rendered. Under injected loss a session
    /// passes when it plays to the end; what repair could not recover is
    /// reported as `client.samples_lost`, not hidden. The caller adds
    /// what only it knows (wall, clock, egress, skew, accounting).
    pub fn of_sessions(
        input: &Input,
        clients: &[ClientMetrics],
        finished: impl Fn(usize) -> bool,
    ) -> Self {
        let lossy = input.workload == Workload::UdpLossy;
        let failures = clients
            .iter()
            .enumerate()
            .filter_map(|(i, m)| {
                let why = if m.abandoned {
                    "abandoned".to_string()
                } else if m.shed {
                    "shed".to_string()
                } else if !finished(i) {
                    "did not finish".to_string()
                } else if !lossy && m.samples_lost != input.expected_lost {
                    format!("lost {} samples", m.samples_lost)
                } else if !lossy && m.samples_rendered != input.expected_samples {
                    format!(
                        "rendered {} of {} samples",
                        m.samples_rendered, input.expected_samples
                    )
                } else {
                    return None;
                };
                Some(format!("session {i} {why}"))
            })
            .collect();
        let sessions = clients.len() as u64;
        Self {
            sessions,
            failures,
            startup_ms: clients
                .iter()
                .map(|m| m.startup_ticks as f64 / TICKS_PER_MS)
                .collect(),
            stall_ticks: clients.iter().map(|m| m.stall_ticks).sum(),
            playback_ticks: sessions * (input.lecture_s() * TICKS_PER_S as f64) as u64,
            payload_bytes: clients.iter().map(|m| m.bytes_received).sum(),
            exact: Exact {
                samples_rendered: clients.iter().map(|m| m.samples_rendered).sum(),
                ..Exact::default()
            },
            ..Self::default()
        }
    }

    pub fn failed(&self) -> u64 {
        (self.failures.len() as u64).min(self.sessions)
    }

    /// Lecture-seconds delivered to completed sessions per wall second.
    pub fn session_s_per_s(&self) -> f64 {
        let completed = (self.sessions - self.failed()) as f64 / self.sessions as f64;
        self.playback_ticks as f64 / TICKS_PER_S as f64 * completed / self.wall_s
    }
}

/// Worst |render wall − (anchor + presentation time)| in virtual ms,
/// over every event and over script-command events alone (the paper's
/// slide-flip synchronisation): `(all, script only)`. Each client is
/// anchored at its own earliest `wall − presentation`, as the product's
/// `per_client_skew` does.
pub fn worst_skews_ms(events: &[RenderEvent]) -> (f64, f64) {
    // Node ids are small dense indices: bucket by index.
    let slots = events
        .iter()
        .map(|e| e.client.index())
        .max()
        .map_or(0, |m| m + 1);
    let mut anchor = vec![u64::MAX; slots];
    for e in events {
        let a = &mut anchor[e.client.index()];
        *a = (*a).min(e.wall_time.saturating_sub(e.pres_time));
    }
    let (mut all, mut script) = (0u64, 0u64);
    for e in events {
        let skew = e.wall_time.abs_diff(anchor[e.client.index()] + e.pres_time);
        all = all.max(skew);
        if e.script.is_some() {
            script = script.max(skew);
        }
    }
    (all as f64 / TICKS_PER_MS, script as f64 / TICKS_PER_MS)
}
