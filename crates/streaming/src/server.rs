//! The streaming server: content catalog, sessions, pacing, live relay.

use std::collections::{BTreeMap, HashMap, HashSet};

use lod_asf::{AsfFile, DataPacket, StreamKind};
use lod_encoder::BandwidthProfile;
use lod_obs::{Event, Recorder};
use lod_simnet::{NodeId, TokenBucket};
use lod_transport::Transport;

use crate::checkpoint::{JournalEntry, SessionCheckpoint, SessionJournal, StandbyState};
use crate::metrics::ServerMetrics;
use crate::pacing::{session_pacer, Playhead};
use crate::wire::{ControlRequest, SegmentData, StreamHeader, Wire};

/// Admission control: the capacity budget a node (the origin or a
/// relay) is willing to commit to sessions. A `Play` beyond the budget
/// is answered with [`Wire::Busy`] instead of silently queueing behind a
/// saturated uplink. The test ([`AdmissionPolicy::refuses`]) and the
/// bounce ([`AdmissionPolicy::shed`]) are shared; each node decides who
/// is already seated and what its sessions commit. The origin counts
/// each session's *effective* (possibly downshifted) bitrate, so
/// graceful degradation frees admission room for the clients it bounced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct AdmissionPolicy {
    /// Hard cap on concurrent sessions.
    pub max_sessions: u32,
    /// Total bit/s the server will commit across sessions (size this to
    /// the uplink the sessions share).
    pub capacity_bps: u64,
    /// `retry_after` suggested in the [`Wire::Busy`] answer, ticks.
    pub retry_after: u64,
}

impl AdmissionPolicy {
    /// The `retry_after` suggested to bounced clients unless overridden:
    /// 2 s.
    pub const DEFAULT_RETRY_AFTER: u64 = 20_000_000;

    /// A budget of `max_sessions` sessions and `capacity_bps` committed
    /// bit/s, suggesting a 2 s retry to bounced clients.
    pub fn new(max_sessions: u32, capacity_bps: u64) -> Self {
        assert!(max_sessions > 0, "admission max_sessions must be positive");
        assert!(capacity_bps > 0, "admission capacity_bps must be positive");
        Self {
            max_sessions,
            capacity_bps,
            retry_after: Self::DEFAULT_RETRY_AFTER,
        }
    }

    /// The budget test: whether a node already serving `active` sessions
    /// that commit `committed_bps` must refuse a new session costing
    /// `nominal_bps`.
    pub fn refuses(&self, active: usize, committed_bps: u64, nominal_bps: u64) -> bool {
        active as u64 >= u64::from(self.max_sessions)
            || committed_bps.saturating_add(nominal_bps) > self.capacity_bps
    }

    /// The bounce: records an [`Event::AdmissionShed`] at `node` and
    /// answers `client` with a [`Wire::Busy`] suggesting this policy's
    /// `retry_after`.
    pub fn shed(
        &self,
        net: &mut impl Transport<Wire>,
        obs: &Recorder,
        now: u64,
        node: NodeId,
        client: NodeId,
    ) {
        obs.emit(
            now,
            Event::AdmissionShed {
                node: node.index() as u64,
                client: client.index() as u64,
            },
        );
        let busy = Wire::Busy {
            retry_after: self.retry_after,
            alternate: None,
        };
        let _ = net.send_reliable(node, client, busy.wire_bytes(0), busy);
    }

    /// Overrides the suggested retry delay (ticks).
    pub fn with_retry_after(mut self, ticks: u64) -> Self {
        assert!(ticks > 0, "admission retry_after must be positive");
        self.retry_after = ticks;
        self
    }
}

/// Graceful degradation: when a session's first-hop backlog stays above
/// `high_watermark` for `downshift_hold` ticks, the server re-paces it
/// at the next-lower [`BandwidthProfile`] — thinning video packets but
/// keeping audio and script commands, so the lecture stays followable
/// (slides still flip) at a fraction of the bandwidth. Once backlog
/// stays below `low_watermark` for `upshift_hold` ticks, the session is
/// stepped back up one rung.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct DegradePolicy {
    /// First-hop backlog (ticks) above which a session degrades.
    pub high_watermark: u64,
    /// First-hop backlog (ticks) below which a session may recover.
    pub low_watermark: u64,
    /// How long the backlog must stay high before a downshift.
    pub downshift_hold: u64,
    /// How long the backlog must stay low before an upshift (the
    /// hold-down that prevents oscillation).
    pub upshift_hold: u64,
}

impl Default for DegradePolicy {
    /// Degrade after 0.5 s above 1 s of backlog; recover after 10 s
    /// below 0.1 s. Sits safely under the default 2 s backpressure
    /// window, so sessions shrink before they freeze.
    fn default() -> Self {
        Self {
            high_watermark: 10_000_000,
            low_watermark: 1_000_000,
            downshift_hold: 5_000_000,
            upshift_hold: 100_000_000,
        }
    }
}

/// A live feed being produced by an encoder: packets are appended as they
/// are encoded, and every subscribed session relays from the shared tail.
#[derive(Debug)]
pub struct LiveFeed {
    header: StreamHeader,
    packets: Vec<DataPacket>,
    scripts: Vec<lod_asf::ScriptCommand>,
    ended: bool,
}

impl LiveFeed {
    /// An empty feed for the broadcast that `header` describes.
    pub fn new(header: StreamHeader) -> Self {
        Self {
            header,
            packets: Vec::new(),
            scripts: Vec::new(),
            ended: false,
        }
    }

    /// Appends a freshly-encoded packet.
    pub fn push(&mut self, packet: DataPacket) {
        self.packets.push(packet);
    }

    /// Appends a script command to the live stream (e.g. the teacher
    /// flipping a slide mid-broadcast).
    pub fn push_script(&mut self, cmd: lod_asf::ScriptCommand) {
        self.scripts.push(cmd);
    }

    /// Marks the broadcast finished.
    pub fn end(&mut self) {
        self.ended = true;
    }

    /// Packets produced so far.
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// Whether no packet has been produced yet.
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// Archives the (finished) broadcast as a stored ASF file — the step
    /// that turns a live lecture into Lecture-*on-Demand*: the packets,
    /// the teacher's script commands, a seek index, and the final
    /// duration all land in one replayable file. Always `Some`: every
    /// feed carries its header.
    pub fn into_asf(self) -> Option<AsfFile> {
        Some(self.archive())
    }

    fn archive(self) -> AsfFile {
        let header = self.header;
        let mut script = header.script;
        for c in self.scripts {
            script.push(c);
        }
        let mut props = header.props;
        props.broadcast = false;
        let mut file = AsfFile {
            props,
            streams: header.streams,
            script,
            drm: header.drm,
            packets: self.packets,
            index: None,
        };
        file.props.play_duration = file.last_presentation_time();
        file.build_index(10_000_000);
        file
    }
}

#[derive(Debug, PartialEq, Eq)]
enum SourceRef {
    Stored(String),
    Live(String),
}

#[derive(Debug)]
struct Session {
    client: NodeId,
    source: SourceRef,
    next_packet: usize,
    /// Next live script command to relay.
    next_script: usize,
    /// When each packet is due; paused and re-anchored by control
    /// requests.
    playhead: Playhead,
    pacer: TokenBucket,
    /// When set, only payloads of these streams are sent.
    stream_filter: Option<Vec<u16>>,
    eos_sent: bool,
    /// Wall time of the last forward progress (a packet sent or a control
    /// message received) — the idle-reaping clock.
    last_activity: u64,
    /// ASF packet size, kept so the pacer can be rebuilt on a shift.
    packet_size: u32,
    /// The content's full bitrate (its admission-budget cost when
    /// undegraded), bit/s.
    nominal_bps: u64,
    /// Bitrate currently committed/paced, bit/s (`< nominal_bps` while
    /// degraded).
    effective_bps: u64,
    /// Declared bitrate of the video streams, bit/s.
    video_bps: u64,
    /// Stream numbers that carry video (the thinning targets).
    video_streams: Vec<u16>,
    /// Fraction of video *samples* kept while degraded, as `kept/total`
    /// (`kept >= total` means no thinning).
    keep: (u64, u64),
    /// Since when the backlog has been above the high watermark.
    over_since: Option<u64>,
    /// Since when the backlog has been below the low watermark.
    under_since: Option<u64>,
}

impl Session {
    /// The checkpoint this session would journal right now.
    fn checkpoint(&self, ended: bool) -> SessionCheckpoint {
        let (content, live) = match &self.source {
            SourceRef::Stored(name) => (name.clone(), false),
            SourceRef::Live(name) => (name.clone(), true),
        };
        SessionCheckpoint {
            client: self.client.index() as u64,
            content,
            next_packet: self.next_packet as u64,
            effective_bps: self.effective_bps,
            keep_num: self.keep.0,
            keep_den: self.keep.1,
            live,
            ended,
        }
    }

    /// Steps one rung down the profile ladder. Returns `false` when
    /// already at the bottom (audio-only).
    fn downshift(&mut self) -> bool {
        let Some(profile) = BandwidthProfile::next_below(self.effective_bps) else {
            return false;
        };
        let floor = self.nominal_bps.saturating_sub(self.video_bps);
        let target_video = profile.video_bitrate().min(self.video_bps);
        if floor + target_video >= self.effective_bps {
            return false; // the rung below changes nothing
        }
        self.keep = if target_video == 0 {
            (0, 1)
        } else {
            (target_video, self.video_bps)
        };
        self.effective_bps = floor + target_video;
        self.pacer = session_pacer(self.effective_bps, self.packet_size);
        true
    }

    /// Steps one rung back up (capped at the nominal profile). Returns
    /// `false` when already undegraded.
    fn upshift(&mut self) -> bool {
        if self.effective_bps >= self.nominal_bps {
            return false;
        }
        let floor = self.nominal_bps.saturating_sub(self.video_bps);
        let restored = match BandwidthProfile::next_above(self.effective_bps) {
            Some(profile) if profile.total_bitrate() < self.nominal_bps => {
                let target_video = profile.video_bitrate().min(self.video_bps);
                self.keep = (target_video, self.video_bps);
                floor + target_video
            }
            // Above the ladder (or the next rung overshoots): restore
            // the full nominal profile.
            _ => {
                self.keep = (1, 1);
                self.nominal_bps
            }
        };
        self.effective_bps = restored;
        self.pacer = session_pacer(self.effective_bps, self.packet_size);
        true
    }

    /// Whether video payloads are currently being decimated.
    fn thinning(&self) -> bool {
        self.keep.0 < self.keep.1
    }
}

/// The streaming server node.
///
/// Owns a catalog of stored content ([`StreamingServer::publish`]) and live
/// feeds ([`StreamingServer::publish_live`]); speaks [`Wire`] with clients.
#[derive(Debug)]
pub struct StreamingServer {
    node: NodeId,
    stored: HashMap<String, AsfFile>,
    live: HashMap<String, LiveFeed>,
    sessions: Vec<Session>,
    /// Stream selections that arrived before their session existed.
    pending_filters: HashMap<NodeId, Vec<u16>>,
    /// Maximum first-hop link backlog before the server stops pushing
    /// (the TCP send window of the era's HTTP streaming), in ticks.
    backlog_limit: u64,
    /// Packets per segment when relays pull stored content.
    segment_packets: u32,
    /// Ticks of inactivity after which a session is reaped
    /// (`u64::MAX` disables reaping).
    idle_timeout: u64,
    /// When set, Plays beyond the budget are answered with `Busy`.
    admission: Option<AdmissionPolicy>,
    /// When set, congested sessions are downshifted instead of frozen.
    degrade: Option<DegradePolicy>,
    /// Nodes never refused by admission control (e.g. edge relays whose
    /// live subscription fans out to a whole classroom).
    admission_exempt: Vec<NodeId>,
    /// Clients that have ever been downshifted, so `sessions_degraded`
    /// counts each one once even across session re-creation (seeks,
    /// retries, tail re-Plays after EOS).
    degraded_clients: HashSet<NodeId>,
    metrics: ServerMetrics,
    /// Structured event sink (disabled by default — a free no-op).
    obs: Recorder,
    /// Fencing epoch stamped into every header and segment this server
    /// sends. Monotonic across failovers; a reply carrying a lower epoch
    /// than the cluster's current one is provably from a deposed primary.
    epoch: u64,
    /// A warm standby holds sessions in its [`StandbyState`] replica and
    /// refuses to serve until promoted.
    standby: bool,
    /// Session checkpointing and its outbound journal.
    checkpoints: Checkpoints,
    /// Replicated view of the primary's sessions (standby side).
    replica: StandbyState,
    /// Sessions restored at promotion, waiting for their client's
    /// resume Play. The checkpointed seat and degrade rung are honored
    /// when the Play arrives.
    restored: BTreeMap<u64, SessionCheckpoint>,
    /// Where a demoted ex-primary points refused clients (the promoted
    /// origin it fenced against).
    primary_hint: Option<NodeId>,
}

/// Session checkpointing: whether it is armed, its period, the outbound
/// journal and when each client was last checkpointed.
#[derive(Debug, Default)]
struct Checkpoints {
    /// Whether session checkpoints are journaled at all.
    armed: bool,
    /// Ticks of playback advance between periodic checkpoints of a
    /// running session (0 = checkpoint on state transitions only).
    every: u64,
    /// Outbound checkpoint stream, drained by the replication driver.
    journal: SessionJournal,
    /// Tick of the last periodic checkpoint per client.
    last: HashMap<NodeId, u64>,
}

impl Checkpoints {
    /// Journals `s` when `transition` is set or its periodic checkpoint
    /// is due, restarting its period (no-op unless armed).
    fn checkpoint(
        &mut self,
        obs: &Recorder,
        metrics: &mut ServerMetrics,
        now: u64,
        s: &Session,
        transition: bool,
    ) {
        if !self.armed {
            return;
        }
        let due = self.every > 0
            && now.saturating_sub(self.last.get(&s.client).copied().unwrap_or(0)) >= self.every;
        if transition || due {
            self.last.insert(s.client, now);
            self.append(obs, metrics, now, s.checkpoint(s.eos_sent));
        }
    }

    /// Journals `s`'s final checkpoint, the tombstone that keeps it from
    /// resurrecting on the standby (no-op unless armed).
    fn end(&mut self, obs: &Recorder, metrics: &mut ServerMetrics, now: u64, s: &Session) {
        if !self.armed {
            return;
        }
        self.last.remove(&s.client);
        self.append(obs, metrics, now, s.checkpoint(true));
    }

    fn append(
        &mut self,
        obs: &Recorder,
        metrics: &mut ServerMetrics,
        now: u64,
        ckpt: SessionCheckpoint,
    ) {
        obs.emit(
            now,
            Event::Checkpoint {
                client: ckpt.client,
                horizon: ckpt.next_packet,
            },
        );
        metrics.checkpoints_emitted += 1;
        self.journal.append(now, ckpt);
    }
}

impl StreamingServer {
    /// A server bound to `node`.
    pub fn new(node: NodeId) -> Self {
        Self {
            node,
            stored: HashMap::new(),
            live: HashMap::new(),
            sessions: Vec::new(),
            pending_filters: HashMap::new(),
            backlog_limit: 20_000_000, // 2 s
            segment_packets: 64,
            idle_timeout: 1_200_000_000, // 2 minutes
            admission: None,
            degrade: None,
            admission_exempt: Vec::new(),
            degraded_clients: HashSet::new(),
            metrics: ServerMetrics::default(),
            obs: Recorder::disabled(),
            epoch: 1,
            standby: false,
            checkpoints: Checkpoints::default(),
            replica: StandbyState::new(),
            restored: BTreeMap::new(),
            primary_hint: None,
        }
    }

    /// Attaches a structured event recorder: admission sheds, backlog
    /// watermark crossings, downshifts/upshifts, and session lifecycle
    /// land in it as tick-stamped [`Event`]s.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.obs = recorder;
        self
    }

    /// Overrides the backpressure window (first-hop backlog cap, ticks).
    /// `u64::MAX` disables backpressure entirely.
    ///
    /// # Panics
    ///
    /// On `ticks == 0`: a zero window would silently freeze every
    /// session on its first packet. Disable backpressure with
    /// `u64::MAX`, not 0.
    pub fn with_backlog_limit(mut self, ticks: u64) -> Self {
        assert!(
            ticks > 0,
            "backlog limit must be positive (u64::MAX disables backpressure)"
        );
        self.backlog_limit = ticks;
        self
    }

    /// Enables admission control: Plays beyond `policy`'s budget are
    /// answered with [`Wire::Busy`] and counted in
    /// `ServerMetrics::sessions_shed`.
    pub fn with_admission(mut self, policy: AdmissionPolicy) -> Self {
        self.admission = Some(policy);
        self
    }

    /// Enables graceful degradation under `policy`: sustained backlog
    /// downshifts sessions one bandwidth-profile rung at a time instead
    /// of freezing them.
    pub fn with_degrade(mut self, policy: DegradePolicy) -> Self {
        assert!(
            policy.high_watermark > policy.low_watermark,
            "degrade high watermark must exceed the low watermark"
        );
        assert!(
            policy.downshift_hold > 0 && policy.upshift_hold > 0,
            "degrade holds must be positive"
        );
        self.degrade = Some(policy);
        self
    }

    /// Exempts `node` from admission control (an edge relay: refusing
    /// its one upstream subscription would shed a whole classroom).
    pub fn exempt_from_admission(&mut self, node: NodeId) {
        if !self.admission_exempt.contains(&node) {
            self.admission_exempt.push(node);
        }
    }

    /// Overrides the idle-session timeout: a session that neither sends a
    /// packet nor hears from its client for `ticks` is reaped (a crashed
    /// client, a never-resumed pause). `u64::MAX` disables reaping.
    pub fn with_idle_timeout(mut self, ticks: u64) -> Self {
        self.idle_timeout = ticks;
        self
    }

    /// Enables session checkpointing: every state transition (create,
    /// downshift/upshift, end) journals a [`SessionCheckpoint`], and a
    /// running session is additionally re-checkpointed every `ticks` of
    /// playback (0 = transitions only). The replication driver drains
    /// the journal with [`StreamingServer::journal_drain`].
    pub fn with_checkpointing(mut self, ticks: u64) -> Self {
        self.checkpoints.armed = true;
        self.checkpoints.every = ticks;
        self
    }

    /// Marks this server a warm standby: it applies replicated journal
    /// entries but refuses to serve (Plays are dropped — the client's
    /// retry layer re-asks after promotion) until
    /// [`StreamingServer::promote`] is called.
    pub fn as_standby(mut self) -> Self {
        self.standby = true;
        self.epoch = 0; // a standby has never served; promotion sets it
        self
    }

    /// The fencing epoch this server currently serves (or last served) at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether this server is currently a (non-serving) standby.
    pub fn is_standby(&self) -> bool {
        self.standby
    }

    /// Takes every checkpoint journaled since the last drain (the
    /// replication channel: feed the result to the standby's
    /// [`StreamingServer::apply_journal`]).
    pub fn journal_drain(&mut self) -> Vec<JournalEntry> {
        self.checkpoints.journal.drain()
    }

    /// Applies a drained journal batch into this server's replica
    /// (standby side). Idempotent; any prefix of the journal yields a
    /// valid, merely staler, view.
    pub fn apply_journal(&mut self, entries: &[JournalEntry]) {
        self.replica.apply_all(entries);
    }

    /// Promotes this standby to primary at fencing epoch `epoch` (which
    /// must exceed the deposed primary's). Every replicated session
    /// becomes a pending resume: when its client's re-Play arrives, the
    /// checkpointed admission seat and degrade rung are honored and the
    /// session continues from its horizon instead of restarting.
    pub fn promote(&mut self, epoch: u64, now: u64) {
        assert!(
            epoch > self.epoch,
            "promotion epoch must exceed the current epoch (fencing is monotonic)"
        );
        self.standby = false;
        self.epoch = epoch;
        self.obs.emit(
            now,
            Event::Promoted {
                node: self.node.index() as u64,
                epoch,
            },
        );
        // BTreeMap order: deterministic migration regardless of how the
        // journal interleaved clients.
        for (client, ckpt) in self.replica.take_sessions() {
            self.obs.emit(
                now,
                Event::SessionMigrated {
                    client,
                    horizon: ckpt.next_packet,
                },
            );
            self.metrics.sessions_migrated += 1;
            self.restored.insert(client, ckpt);
        }
    }

    /// Demotes this server on observing a higher fencing epoch (a healed
    /// ex-primary learning it was deposed): every local session is
    /// dropped unsent and future Plays are bounced toward `primary`.
    pub fn demote(&mut self, epoch: u64, primary: NodeId, now: u64) {
        self.obs.emit(
            now,
            Event::Demoted {
                node: self.node.index() as u64,
                epoch,
            },
        );
        self.standby = true;
        self.epoch = epoch;
        self.primary_hint = Some(primary);
        self.sessions.clear();
        self.pending_filters.clear();
        self.checkpoints.last.clear();
    }

    /// Simulates the crash the fault injector's `NodeDown` implies:
    /// volatile state (sessions, pending filters, the undrained journal
    /// tail) is lost. Published content survives — it lives on disk.
    /// What the standby knows afterwards is exactly what was replicated
    /// before the crash: stale-but-consistent.
    pub fn crash(&mut self) {
        self.sessions.clear();
        self.pending_filters.clear();
        self.checkpoints.last.clear();
        let _ = self.checkpoints.journal.drain();
    }

    /// Overrides how many packets make up one relay segment.
    ///
    /// # Panics
    ///
    /// On `packets == 0` — a segment must hold at least one packet.
    pub fn with_segment_packets(mut self, packets: u32) -> Self {
        assert!(packets > 0, "segment packets must be positive");
        self.segment_packets = packets;
        self
    }

    /// Packets per relay segment.
    pub fn segment_packets(&self) -> u32 {
        self.segment_packets
    }

    /// Service counters accumulated so far.
    pub fn metrics(&self) -> ServerMetrics {
        self.metrics
    }

    /// The server's network node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Publishes stored content under `name` (replacing any previous).
    pub fn publish(&mut self, name: impl Into<String>, file: AsfFile) {
        self.stored.insert(name.into(), file);
    }

    /// Publishes a live feed under `name`; returns nothing — push packets
    /// via [`StreamingServer::live_feed`].
    pub fn publish_live(&mut self, name: impl Into<String>, feed: LiveFeed) {
        self.live.insert(name.into(), feed);
    }

    /// Mutable access to a live feed (the encoder's append point).
    pub fn live_feed(&mut self, name: &str) -> Option<&mut LiveFeed> {
        self.live.get_mut(name)
    }

    /// Archives a finished live feed into the stored catalog under
    /// `as_name`, so latecomers can watch the lecture on demand. Returns
    /// `false` when the feed does not exist or has not ended.
    pub fn archive_live(&mut self, name: &str, as_name: impl Into<String>) -> bool {
        let Some(feed) = self.live.remove(name) else {
            return false;
        };
        if !feed.ended {
            self.live.insert(name.to_string(), feed);
            return false;
        }
        self.stored.insert(as_name.into(), feed.archive());
        true
    }

    /// Number of active sessions.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Handles an incoming message at `now`.
    pub fn on_message(
        &mut self,
        net: &mut impl Transport<Wire>,
        now: u64,
        from: NodeId,
        msg: Wire,
    ) {
        let Wire::Request(req) = msg else {
            return; // servers ignore non-requests
        };
        // Heartbeats are answered in every role. A probe fencing at a
        // higher epoch than ours means we were deposed while unreachable:
        // step down instead of serving split-brain.
        if let ControlRequest::Ping { epoch } = req {
            if epoch > self.epoch {
                if self.standby {
                    self.epoch = epoch;
                } else {
                    self.demote(epoch, from, now);
                }
            }
            let pong = Wire::Pong { epoch: self.epoch };
            let bytes = pong.wire_bytes(0);
            let _ = net.send_reliable(self.node, from, bytes, pong);
            return;
        }
        // A standby does not serve. A demoted ex-primary bounces Plays
        // toward the primary that fenced it; a never-promoted standby
        // stays silent (the client's retry layer re-asks after
        // promotion). Everything else is dropped.
        if self.standby {
            if let (ControlRequest::Play { .. }, Some(primary)) = (&req, self.primary_hint) {
                let busy = Wire::Busy {
                    retry_after: AdmissionPolicy::DEFAULT_RETRY_AFTER,
                    alternate: Some(primary),
                };
                let bytes = busy.wire_bytes(0);
                let _ = net.send_reliable(self.node, from, bytes, busy);
            }
            return;
        }
        // Any control traffic proves the client is alive.
        if let Some(s) = self.sessions.iter_mut().find(|s| s.client == from) {
            s.last_activity = now;
        }
        match req {
            ControlRequest::Play {
                content,
                from: start,
            } => {
                self.start_session(net, now, from, &content, start);
            }
            ControlRequest::Pause => {
                if let Some(s) = self.sessions.iter_mut().find(|s| s.client == from) {
                    s.playhead.pause(now);
                }
            }
            ControlRequest::Resume => {
                if let Some(s) = self.sessions.iter_mut().find(|s| s.client == from) {
                    s.playhead.resume(now);
                }
            }
            ControlRequest::Seek { to } => {
                let stored = &self.stored;
                if let Some(s) = self.sessions.iter_mut().find(|s| s.client == from) {
                    if let SourceRef::Stored(name) = &s.source {
                        if let Some(file) = stored.get(name) {
                            s.next_packet = file.packet_at(to) as usize;
                            s.playhead.anchor(now, to);
                            s.eos_sent = false;
                        }
                    }
                }
            }
            ControlRequest::SelectStreams(streams) => {
                if let Some(s) = self.sessions.iter_mut().find(|s| s.client == from) {
                    s.stream_filter = Some(streams);
                } else {
                    self.pending_filters.insert(from, streams);
                }
            }
            ControlRequest::Teardown => {
                if let Some(s) = self.sessions.iter().find(|s| s.client == from) {
                    self.checkpoints.end(&self.obs, &mut self.metrics, now, s);
                }
                self.sessions.retain(|s| s.client != from);
            }
            fetch @ ControlRequest::FetchSegment { .. } => {
                self.serve_segment(net, now, from, fetch);
            }
            // Answered before the dispatch (heartbeats bypass role gates).
            ControlRequest::Ping { .. } => {}
        }
    }

    /// Answers a relay's [`ControlRequest::FetchSegment`] with one run of
    /// stored packets. When `at_time` is given the segment index is
    /// resolved by the seek rule instead of the caller's `segment`
    /// argument. A traced fetch books the origin's "packetize" span and
    /// echoes the context into the [`Wire::Segment`] answer.
    fn serve_segment(
        &mut self,
        net: &mut impl Transport<Wire>,
        now: u64,
        relay: NodeId,
        fetch: ControlRequest,
    ) {
        let ControlRequest::FetchSegment {
            content,
            segment,
            at_time,
            want_header,
            trace,
        } = fetch
        else {
            return; // `on_message` hands over fetches only
        };
        let content = content.as_str();
        // The "packetize" span, both edges at the receipt tick clamped to
        // the context's mint tick: a driver may poll the minting relay
        // ahead of the network clock, so a receipt tick can lag the mint
        // — the clamp is the Lamport-style repair that keeps
        // delivery-chain opens monotone.
        let (node, peer) = (self.node.index() as u64, relay.index() as u64);
        let packetize = |obs: &Recorder, open: bool| {
            if let Some(ctx) = trace {
                obs.span(now.max(ctx.origin), open, node, peer, "packetize", ctx);
            }
        };
        packetize(&self.obs, true);
        let Some(file) = self.stored.get(content) else {
            let _ = net.send_reliable(self.node, relay, 32, Wire::NotFound(content.to_string()));
            // The fetch dead-ends here; close the span so the trace still
            // balances.
            packetize(&self.obs, false);
            return;
        };
        let seg_pkts = self.segment_packets as usize;
        let total_packets = file.packets.len() as u32;
        let total_segments = file.packets.len().div_ceil(seg_pkts) as u32;
        let start_packet = at_time.map(|to| file.packet_at(to));
        let segment = start_packet.map_or(segment, |p| p / self.segment_packets);
        let base = segment as usize * seg_pkts;
        let packets: Vec<DataPacket> = file
            .packets
            .iter()
            .skip(base)
            .take(seg_pkts)
            .cloned()
            .collect();
        let header = want_header.then(|| Box::new(StreamHeader::of(file, self.epoch)));
        let data = SegmentData {
            content: content.to_string(),
            segment,
            base_packet: base as u32,
            total_packets,
            total_segments,
            segment_packets: self.segment_packets,
            packet_size: file.props.packet_size,
            packets,
            header,
            start_packet,
            at_time,
            epoch: self.epoch,
            trace,
        };
        let bytes = data.wire_bytes();
        self.metrics.segments_served += 1;
        self.metrics.payload_bytes_sent += bytes;
        packetize(&self.obs, false);
        let _ = net.send_reliable(self.node, relay, bytes, Wire::Segment(data));
    }

    fn start_session(
        &mut self,
        net: &mut impl Transport<Wire>,
        now: u64,
        client: NodeId,
        content: &str,
        start: u64,
    ) {
        // A checkpointed session migrating onto a promoted standby: its
        // admission seat and degrade rung survived the failover, so the
        // resume Play re-anchors the existing seat rather than claiming
        // a new one.
        let restored = self
            .restored
            .remove(&(client.index() as u64))
            .filter(|c| c.content == content);
        // Admission control: refuse *new* sessions beyond the budget with
        // an explicit Busy. Re-Plays of an existing session (seeks,
        // redirect handoffs, retries-from-horizon) always pass — the
        // budget already counts them — and so do exempted nodes and
        // migrated seats.
        if let Some(policy) = self.admission {
            let nominal = self
                .stored
                .get(content)
                .map(|f| u64::from(f.props.max_bitrate))
                .or_else(|| {
                    self.live
                        .get(content)
                        .map(|f| u64::from(f.header.props.max_bitrate))
                });
            let is_new = !self.sessions.iter().any(|s| s.client == client)
                && !self.admission_exempt.contains(&client)
                && restored.is_none();
            if let (Some(nominal), true) = (nominal, is_new) {
                let committed: u64 = self.sessions.iter().map(|s| s.effective_bps).sum();
                if policy.refuses(self.sessions.len(), committed, nominal) {
                    self.metrics.sessions_shed += 1;
                    policy.shed(net, &self.obs, now, self.node, client);
                    return;
                }
            }
        }
        let (header, source, rate, first_packet) = if let Some(file) = self.stored.get(content) {
            // Resume mid-file (a redirect handoff or a client retry from
            // its playback horizon): start at the seek packet instead of
            // re-sending the whole prefix.
            (
                StreamHeader::of(file, self.epoch),
                SourceRef::Stored(content.to_string()),
                file.props.max_bitrate,
                file.packet_at(start) as usize,
            )
        } else if let Some(feed) = self.live.get(content) {
            let mut header = feed.header.clone();
            header.epoch = self.epoch;
            let rate = header.props.max_bitrate;
            self.metrics.live_subscribers += 1;
            (header, SourceRef::Live(content.to_string()), rate, 0)
        } else {
            let _ = net.send_reliable(self.node, client, 32, Wire::NotFound(content.to_string()));
            return;
        };
        let bytes = header.wire_bytes();
        let packet_size = header.props.packet_size;
        let nominal_bps = u64::from(rate);
        let video_streams: Vec<u16> = header
            .streams
            .iter()
            .filter(|st| st.kind == StreamKind::Video)
            .map(|st| st.number)
            .collect();
        let video_bps: u64 = header
            .streams
            .iter()
            .filter(|st| st.kind == StreamKind::Video)
            .map(|st| u64::from(st.bitrate))
            .sum();
        let _ = net.send_reliable(self.node, client, bytes, Wire::Header(Box::new(header)));
        self.metrics.sessions_served += 1;
        if start == 0 {
            self.metrics.plays_from_zero += 1;
        }
        self.obs.emit(
            now,
            Event::SessionStart {
                client: client.index() as u64,
            },
        );
        // A re-Play of the same content (seek, retry, redirect handoff)
        // replaces the session but keeps its degradation state — the
        // congestion that downshifted it has not gone away just because
        // the client retried, and `sessions_degraded` must not re-count.
        let prior = self
            .sessions
            .iter()
            .position(|s| s.client == client)
            .map(|i| self.sessions.remove(i))
            .filter(|p| p.source == source);
        self.sessions.retain(|s| s.client != client);
        // Degrade rung precedence: a live prior session wins, then a
        // checkpoint migrated from the failed origin, then nominal. The
        // rung survives failover — promotion does not reset congestion.
        let (effective_bps, keep) = prior
            .map(|p| (p.effective_bps.min(nominal_bps), p.keep))
            .or_else(|| {
                restored.as_ref().map(|r| {
                    (
                        r.effective_bps.clamp(1, nominal_bps),
                        (r.keep_num, r.keep_den.max(1)),
                    )
                })
            })
            .unwrap_or((nominal_bps, (1, 1)));
        self.sessions.push(Session {
            client,
            source,
            next_packet: first_packet,
            next_script: 0,
            playhead: Playhead::new(now, start),
            // Paced at the (possibly degraded) bitrate.
            pacer: session_pacer(effective_bps, packet_size),
            stream_filter: self.pending_filters.remove(&client),
            eos_sent: false,
            last_activity: now,
            packet_size,
            nominal_bps,
            effective_bps,
            video_bps,
            video_streams,
            keep,
            over_since: None,
            under_since: None,
        });
        if let Some(s) = self.sessions.last() {
            self.checkpoints
                .checkpoint(&self.obs, &mut self.metrics, now, s, true);
        }
    }

    /// Sends every packet that is due at `now` on every session.
    pub fn poll(&mut self, net: &mut impl Transport<Wire>, now: u64) {
        for s in &mut self.sessions {
            if s.playhead.is_paused() || s.eos_sent {
                continue;
            }
            // Set on any state transition worth journaling (rung change,
            // end of stream); periodic progress checkpoints ride on
            // `checkpoint_every` below.
            let mut transition = false;
            let (packets, scripts, ended, packet_size): (
                &[DataPacket],
                &[lod_asf::ScriptCommand],
                bool,
                u32,
            ) = match &s.source {
                SourceRef::Stored(name) => match self.stored.get(name) {
                    Some(f) => (&f.packets, &[], true, f.props.packet_size),
                    None => continue,
                },
                SourceRef::Live(name) => match self.live.get(name) {
                    Some(f) => (&f.packets, &f.scripts, f.ended, f.header.props.packet_size),
                    None => continue,
                },
            };
            // Relay live script commands as soon as they exist (they are
            // tiny and must beat their presentation deadline).
            while s.next_script < scripts.len() {
                let cmd = scripts[s.next_script].clone();
                let msg = Wire::Script(cmd);
                let bytes = msg.wire_bytes(packet_size);
                let _ = net.send_reliable(self.node, s.client, bytes, msg);
                s.next_script += 1;
            }
            // Graceful degradation: sustained backlog above the high
            // watermark downshifts the session one profile rung (video
            // thinned, audio and scripts intact); sustained calm below
            // the low watermark steps it back up after the hold-down.
            if let Some(dp) = self.degrade {
                let backlog = net.first_hop_backlog(self.node, s.client).unwrap_or(0);
                if backlog > dp.high_watermark {
                    s.under_since = None;
                    match s.over_since {
                        None => {
                            s.over_since = Some(now);
                            // The sample every later downshift is causally
                            // rooted in: `downshift_hold > 0` guarantees
                            // this precedes the shift itself.
                            self.obs.emit(
                                now,
                                Event::BacklogHigh {
                                    client: s.client.index() as u64,
                                    backlog,
                                },
                            );
                        }
                        Some(t0) if now.saturating_sub(t0) >= dp.downshift_hold => {
                            let from_bps = s.effective_bps;
                            if s.downshift() {
                                self.metrics.downshifts += 1;
                                if self.degraded_clients.insert(s.client) {
                                    self.metrics.sessions_degraded += 1;
                                }
                                self.obs.emit(
                                    now,
                                    Event::Downshift {
                                        client: s.client.index() as u64,
                                        from_bps,
                                        to_bps: s.effective_bps,
                                    },
                                );
                                transition = true;
                            }
                            s.over_since = Some(now);
                        }
                        Some(_) => {}
                    }
                } else if backlog < dp.low_watermark {
                    s.over_since = None;
                    match s.under_since {
                        None => {
                            s.under_since = Some(now);
                            self.obs.emit(
                                now,
                                Event::BacklogLow {
                                    client: s.client.index() as u64,
                                    backlog,
                                },
                            );
                        }
                        Some(t0) if now.saturating_sub(t0) >= dp.upshift_hold => {
                            let from_bps = s.effective_bps;
                            if s.upshift() {
                                self.metrics.upshifts += 1;
                                self.obs.emit(
                                    now,
                                    Event::Upshift {
                                        client: s.client.index() as u64,
                                        from_bps,
                                        to_bps: s.effective_bps,
                                    },
                                );
                                transition = true;
                            }
                            s.under_since = Some(now);
                        }
                        Some(_) => {}
                    }
                } else {
                    // Inside the hysteresis band: hold steady.
                    s.over_since = None;
                    s.under_since = None;
                }
            }
            while s.next_packet < packets.len() {
                let p = &packets[s.next_packet];
                if !s.playhead.is_due(p.send_time, now) {
                    break;
                }
                // Backpressure (the TCP send window of the era's HTTP
                // streaming): don't pile more than ~2 s of queueing onto
                // the first-hop link — which may be a shared uplink
                // toward a router, not a private last-mile link.
                if net.first_hop_backlog(self.node, s.client).unwrap_or(0) > self.backlog_limit {
                    self.metrics.backpressure_pauses += 1;
                    break;
                }
                // Stream thinning: strip payloads of deselected streams
                // and decimate video payloads while degraded; skip
                // packets that end up empty. A packet keeps sharing its
                // payload list unless a payload actually goes.
                let (packet, wire_bytes) = if s.stream_filter.is_none() && !s.thinning() {
                    (p.clone(), u64::from(packet_size))
                } else {
                    let (num, den) = s.keep;
                    let filter = &s.stream_filter;
                    let video_streams = &s.video_streams;
                    let decimate = num < den;
                    let kept = |pl: &&lod_asf::Payload| {
                        if let Some(keep) = filter {
                            if !keep.contains(&pl.stream) {
                                return false;
                            }
                        }
                        if decimate && video_streams.contains(&pl.stream) {
                            // Decide per *sample*, not per payload: every
                            // fragment of one video sample shares
                            // (stream, pres_time), so samples are dropped
                            // whole and survivors stay reassemblable.
                            let h =
                                lod_obs::splitmix64(pl.pres_time ^ (u64::from(pl.stream) << 48));
                            return h % den < num;
                        }
                        true
                    };
                    let n_kept = p.payloads.iter().filter(kept).count();
                    if n_kept == 0 {
                        s.next_packet += 1;
                        continue;
                    }
                    let thin = if n_kept == p.payloads.len() {
                        p.clone()
                    } else {
                        DataPacket {
                            send_time: p.send_time,
                            payloads: p.payloads.iter().filter(kept).cloned().collect(),
                        }
                    };
                    let bytes = (lod_asf::packet::PACKET_HEADER_BYTES
                        + thin.payloads.len() * lod_asf::packet::PAYLOAD_HEADER_BYTES
                        + thin.media_bytes()) as u64;
                    (thin, bytes)
                };
                if !s.pacer.try_consume(wire_bytes, now) {
                    break;
                }
                let _ = net.send(self.node, s.client, wire_bytes, Wire::Data(packet));
                self.metrics.payload_bytes_sent += wire_bytes;
                s.next_packet += 1;
                s.last_activity = now;
            }
            if ended && s.next_packet >= packets.len() {
                let _ = net.send_reliable(self.node, s.client, 16, Wire::EndOfStream);
                s.eos_sent = true;
                transition = true;
            }
            self.checkpoints
                .checkpoint(&self.obs, &mut self.metrics, now, s, transition);
        }
        // Drop finished sessions, then reap the wedged stored ones: no
        // packet sent and no control message heard for the whole idle
        // window (a crashed client or a pause nobody came back from).
        // Live sessions are exempt — a broadcast can legitimately go
        // quiet for as long as the teacher pauses for questions.
        self.sessions.retain(|s| !s.eos_sent);
        if self.idle_timeout != u64::MAX {
            let idle_timeout = self.idle_timeout;
            let mut i = 0;
            while i < self.sessions.len() {
                let s = &self.sessions[i];
                if matches!(s.source, SourceRef::Live(_))
                    || now.saturating_sub(s.last_activity) <= idle_timeout
                {
                    i += 1;
                    continue;
                }
                let reaped = self.sessions.remove(i);
                self.metrics.sessions_reaped += 1;
                self.obs.emit(
                    now,
                    Event::SessionReaped {
                        node: self.node.index() as u64,
                        client: reaped.client.index() as u64,
                    },
                );
                // Tombstone the replica too: a reaped session must not
                // resurrect on the standby after a later failover.
                self.checkpoints
                    .end(&self.obs, &mut self.metrics, now, &reaped);
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use std::sync::Arc;

    use super::*;
    use lod_asf::{
        FileProperties, MediaSample, Packetizer, ScriptCommandList, StreamKind, StreamProperties,
    };
    use lod_simnet::LinkSpec;
    use lod_simnet::Network;

    pub(crate) fn test_file(samples: usize, spacing: u64) -> AsfFile {
        // Size samples so the actual media rate matches the declared
        // 400 kbit/s: bytes = rate/8 × spacing-in-seconds.
        let bytes_per_sample = (400_000u64 / 8) * spacing / 10_000_000;
        let mut pk = Packetizer::new(256).unwrap();
        for i in 0..samples as u64 {
            pk.push(&MediaSample::new(
                1,
                i * spacing,
                vec![7; bytes_per_sample.max(16) as usize],
            ));
        }
        let mut f = AsfFile {
            props: FileProperties {
                file_id: 1,
                created: 0,
                packet_size: 256,
                play_duration: samples as u64 * spacing,
                preroll: 2 * spacing,
                broadcast: false,
                max_bitrate: 500_000,
            },
            streams: vec![StreamProperties {
                number: 1,
                kind: StreamKind::Video,
                codec: 4,
                bitrate: 400_000,
                name: "v".into(),
            }],
            script: ScriptCommandList::new(),
            drm: None,
            packets: pk.finish(),
            index: None,
        };
        f.build_index(spacing);
        f
    }

    fn setup() -> (Network<Wire>, StreamingServer, NodeId) {
        let mut net = Network::new(11);
        let s = net.add_node("server");
        let c = net.add_node("client");
        net.connect_bidirectional(s, c, LinkSpec::lan());
        let mut server = StreamingServer::new(s);
        server.publish("lec", test_file(40, 2_000_000));
        (net, server, c)
    }

    #[test]
    fn play_creates_session_and_sends_header() {
        let (mut net, mut server, c) = setup();
        server.on_message(
            &mut net,
            0,
            c,
            Wire::Request(ControlRequest::Play {
                content: "lec".into(),
                from: 0,
            }),
        );
        assert_eq!(server.session_count(), 1);
        let d = net.advance_to(10_000_000);
        assert!(matches!(d[0].message, Wire::Header(_)));
    }

    #[test]
    fn unknown_content_not_found() {
        let (mut net, mut server, c) = setup();
        server.on_message(
            &mut net,
            0,
            c,
            Wire::Request(ControlRequest::Play {
                content: "nope".into(),
                from: 0,
            }),
        );
        assert_eq!(server.session_count(), 0);
        let d = net.advance_to(10_000_000);
        assert!(matches!(&d[0].message, Wire::NotFound(n) if n == "nope"));
    }

    #[test]
    fn packets_paced_by_send_time() {
        let (mut net, mut server, c) = setup();
        server.on_message(
            &mut net,
            0,
            c,
            Wire::Request(ControlRequest::Play {
                content: "lec".into(),
                from: 0,
            }),
        );
        // At t=0 only the first packets (send_time 0 region) are due.
        server.poll(&mut net, 0);
        let early = net.in_flight();
        server.poll(&mut net, 80_000_000); // all due by now
        for _ in 0..200 {
            server.poll(&mut net, 80_000_000);
        }
        assert!(net.in_flight() > early);
    }

    #[test]
    fn pause_stops_and_resume_continues() {
        let (mut net, mut server, c) = setup();
        server.on_message(
            &mut net,
            0,
            c,
            Wire::Request(ControlRequest::Play {
                content: "lec".into(),
                from: 0,
            }),
        );
        server.poll(&mut net, 1_000_000);
        net.advance_to(2_000_000);
        server.on_message(&mut net, 2_000_000, c, Wire::Request(ControlRequest::Pause));
        let before = net.in_flight();
        server.poll(&mut net, 50_000_000);
        assert_eq!(net.in_flight(), before, "paused session must not send");
        server.on_message(
            &mut net,
            60_000_000,
            c,
            Wire::Request(ControlRequest::Resume),
        );
        server.poll(&mut net, 62_000_000);
        assert!(net.in_flight() >= before);
    }

    /// Pause at 1 s, seek to 4 s at 100 s, resume at 101 s: playback
    /// continues from 4 s at once, not after the 99 s the session spent
    /// paused before the seek.
    #[test]
    fn seek_while_paused_resumes_at_the_seek_target() {
        let (mut net, mut server, c) = setup();
        let play = ControlRequest::Play {
            content: "lec".into(),
            from: 0,
        };
        server.on_message(&mut net, 0, c, Wire::Request(play));
        server.poll(&mut net, 5_000_000);
        server.on_message(
            &mut net,
            10_000_000,
            c,
            Wire::Request(ControlRequest::Pause),
        );
        let seek = ControlRequest::Seek { to: 40_000_000 };
        server.on_message(&mut net, 1_000_000_000, c, Wire::Request(seek));
        server.poll(&mut net, 1_005_000_000);
        let resume = Wire::Request(ControlRequest::Resume);
        server.on_message(&mut net, 1_010_000_000, c, resume);
        let before = server.metrics().payload_bytes_sent;
        for t in (1_010_000_000..=1_020_000_000).step_by(1_000_000) {
            server.poll(&mut net, t);
        }
        assert!(
            server.metrics().payload_bytes_sent > before,
            "nothing sent in the second after the resume"
        );
    }

    /// The seek rule is one rule: on an indexed and an unindexed file, a
    /// Play from `t`, a Seek to `t` and a relay's time-resolved fetch at
    /// `t` all start at the same packet.
    #[test]
    fn play_seek_and_fetch_start_at_the_same_packet() {
        let world = || {
            let (net, mut server, c) = setup();
            let mut raw = test_file(40, 2_000_000);
            raw.index = None;
            server.publish("raw", raw);
            (net, server, c)
        };
        let request = |server: &mut StreamingServer, net: &mut Network<Wire>, c, req| {
            server.on_message(net, 0, c, Wire::Request(req));
        };
        for content in ["lec", "raw"] {
            for t in [0, 3_000_000, 40_000_000, 77_000_000, 1_000_000_000] {
                let play = |from| ControlRequest::Play {
                    content: content.into(),
                    from,
                };
                let (mut net, mut server, c) = world();
                request(&mut server, &mut net, c, play(t));
                let from_play = server.sessions[0].next_packet;

                let (mut net, mut server, c) = world();
                request(&mut server, &mut net, c, play(0));
                request(&mut server, &mut net, c, ControlRequest::Seek { to: t });
                assert_eq!(
                    server.sessions[0].next_packet, from_play,
                    "{content} seek {t}"
                );

                let (mut net, mut server, c) = world();
                let fetch = ControlRequest::FetchSegment {
                    content: content.into(),
                    segment: 0,
                    at_time: Some(t),
                    want_header: false,
                    trace: None,
                };
                request(&mut server, &mut net, c, fetch);
                let start =
                    net.advance_to(1_000_000_000)
                        .into_iter()
                        .find_map(|d| match d.message {
                            Wire::Segment(seg) => seg.start_packet,
                            _ => None,
                        });
                assert_eq!(start, Some(from_play as u32), "{content} fetch {t}");
            }
        }
    }

    #[test]
    fn teardown_removes_session() {
        let (mut net, mut server, c) = setup();
        server.on_message(
            &mut net,
            0,
            c,
            Wire::Request(ControlRequest::Play {
                content: "lec".into(),
                from: 0,
            }),
        );
        server.on_message(&mut net, 1, c, Wire::Request(ControlRequest::Teardown));
        assert_eq!(server.session_count(), 0);
    }

    #[test]
    fn eos_sent_when_stored_content_exhausted() {
        let (mut net, mut server, c) = setup();
        server.on_message(
            &mut net,
            0,
            c,
            Wire::Request(ControlRequest::Play {
                content: "lec".into(),
                from: 0,
            }),
        );
        let mut t = 0;
        while server.session_count() > 0 && t < 10_000_000_000 {
            t += 1_000_000;
            server.poll(&mut net, t);
        }
        assert_eq!(server.session_count(), 0);
        let deliveries = net.advance_to(t + 1_000_000_000);
        assert!(deliveries
            .iter()
            .any(|d| matches!(d.message, Wire::EndOfStream)));
    }

    #[test]
    fn idle_sessions_are_reaped() {
        let (mut net, server, c) = setup();
        let mut server = server.with_idle_timeout(50_000_000); // 5 s
        server.on_message(
            &mut net,
            0,
            c,
            Wire::Request(ControlRequest::Play {
                content: "lec".into(),
                from: 0,
            }),
        );
        // Pause right away: the session now makes no progress at all.
        server.on_message(&mut net, 1_000_000, c, Wire::Request(ControlRequest::Pause));
        assert_eq!(server.session_count(), 1);
        server.poll(&mut net, 40_000_000);
        assert_eq!(server.session_count(), 1, "inside the idle window");
        assert_eq!(server.metrics().sessions_reaped, 0);
        server.poll(&mut net, 60_000_000);
        assert_eq!(server.session_count(), 0, "idle window exceeded");
        assert_eq!(server.metrics().sessions_reaped, 1);
    }

    #[test]
    fn control_traffic_keeps_an_idle_session_alive() {
        let (mut net, server, c) = setup();
        let mut server = server.with_idle_timeout(50_000_000);
        server.on_message(
            &mut net,
            0,
            c,
            Wire::Request(ControlRequest::Play {
                content: "lec".into(),
                from: 0,
            }),
        );
        server.on_message(&mut net, 1_000_000, c, Wire::Request(ControlRequest::Pause));
        // A keepalive-ish Pause arrives inside every window.
        for t in [40_000_000u64, 80_000_000, 120_000_000] {
            server.on_message(&mut net, t, c, Wire::Request(ControlRequest::Pause));
            server.poll(&mut net, t);
        }
        assert_eq!(server.session_count(), 1);
        assert_eq!(server.metrics().sessions_reaped, 0);
    }

    #[test]
    fn play_from_midpoint_skips_the_prefix() {
        let count_data = |from: u64| {
            let (mut net, mut server, c) = setup(); // 40 samples over 8 s
            server.on_message(
                &mut net,
                0,
                c,
                Wire::Request(ControlRequest::Play {
                    content: "lec".into(),
                    from,
                }),
            );
            let mut t = 0;
            while server.session_count() > 0 && t < 100_000_000_000 {
                t += 1_000_000;
                server.poll(&mut net, t);
            }
            net.advance_to(t + 10_000_000_000)
                .iter()
                .filter(|d| matches!(d.message, Wire::Data(_)))
                .count()
        };
        let full = count_data(0);
        let tail = count_data(40_000_000); // resume 4 s into 8 s
        assert!(tail > 0);
        assert!(
            tail < full * 3 / 4,
            "resume must not resend the prefix: {tail} vs {full}"
        );
    }

    /// A file with interleaved video (stream 1) and audio (stream 2)
    /// samples — the degradation test target.
    fn av_test_file(samples: usize, spacing: u64) -> AsfFile {
        let video_bytes = (400_000u64 / 8) * spacing / 10_000_000;
        let audio_bytes = (32_000u64 / 8) * spacing / 10_000_000;
        let mut pk = Packetizer::new(256).unwrap();
        for i in 0..samples as u64 {
            pk.push(&MediaSample::new(
                1,
                i * spacing,
                vec![7; video_bytes.max(16) as usize],
            ));
            pk.push(&MediaSample::new(
                2,
                i * spacing,
                vec![3; audio_bytes.max(8) as usize],
            ));
        }
        let mut f = AsfFile {
            props: FileProperties {
                file_id: 2,
                created: 0,
                packet_size: 256,
                play_duration: samples as u64 * spacing,
                preroll: 2 * spacing,
                broadcast: false,
                max_bitrate: 500_000,
            },
            streams: vec![
                StreamProperties {
                    number: 1,
                    kind: StreamKind::Video,
                    codec: 4,
                    bitrate: 400_000,
                    name: "v".into(),
                },
                StreamProperties {
                    number: 2,
                    kind: StreamKind::Audio,
                    codec: 1,
                    bitrate: 32_000,
                    name: "a".into(),
                },
            ],
            script: ScriptCommandList::new(),
            drm: None,
            packets: pk.finish(),
            index: None,
        };
        f.build_index(spacing);
        f
    }

    #[test]
    fn busy_answer_beyond_session_budget() {
        let mut net = Network::new(21);
        let s = net.add_node("server");
        let c1 = net.add_node("c1");
        let c2 = net.add_node("c2");
        net.connect_bidirectional(s, c1, LinkSpec::lan());
        net.connect_bidirectional(s, c2, LinkSpec::lan());
        let mut server =
            StreamingServer::new(s).with_admission(AdmissionPolicy::new(1, 10_000_000));
        server.publish("lec", test_file(40, 2_000_000));
        let play = |content: &str| {
            Wire::Request(ControlRequest::Play {
                content: content.into(),
                from: 0,
            })
        };
        server.on_message(&mut net, 0, c1, play("lec"));
        server.on_message(&mut net, 0, c2, play("lec"));
        assert_eq!(server.session_count(), 1, "second Play refused");
        assert_eq!(server.metrics().sessions_shed, 1);
        let d = net.advance_to(10_000_000);
        let busy = d
            .iter()
            .find(|d| d.dst == c2 && matches!(d.message, Wire::Busy { .. }))
            .expect("c2 got an explicit Busy");
        assert!(matches!(
            busy.message,
            Wire::Busy {
                retry_after: 20_000_000,
                alternate: None
            }
        ));
    }

    #[test]
    fn admission_counts_committed_bitrate() {
        let mut net = Network::new(22);
        let s = net.add_node("server");
        let c1 = net.add_node("c1");
        let c2 = net.add_node("c2");
        net.connect_bidirectional(s, c1, LinkSpec::lan());
        net.connect_bidirectional(s, c2, LinkSpec::lan());
        // Room in sessions but not in bits: the file costs 500 kbit/s and
        // the budget is 600 kbit/s.
        let mut server = StreamingServer::new(s).with_admission(AdmissionPolicy::new(64, 600_000));
        server.publish("lec", test_file(40, 2_000_000));
        for (c, expect) in [(c1, 1usize), (c2, 1)] {
            server.on_message(
                &mut net,
                0,
                c,
                Wire::Request(ControlRequest::Play {
                    content: "lec".into(),
                    from: 0,
                }),
            );
            assert_eq!(server.session_count(), expect);
        }
        assert_eq!(server.metrics().sessions_shed, 1);
    }

    #[test]
    fn replay_of_existing_session_bypasses_admission() {
        let mut net = Network::new(23);
        let s = net.add_node("server");
        let c = net.add_node("client");
        net.connect_bidirectional(s, c, LinkSpec::lan());
        let mut server = StreamingServer::new(s).with_admission(AdmissionPolicy::new(1, 500_000));
        server.publish("lec", test_file(40, 2_000_000));
        for t in [0u64, 1_000_000] {
            // The second Play is a retry-from-horizon: same client, so no
            // extra budget is needed and no Busy goes out.
            server.on_message(
                &mut net,
                t,
                c,
                Wire::Request(ControlRequest::Play {
                    content: "lec".into(),
                    from: t,
                }),
            );
        }
        assert_eq!(server.session_count(), 1);
        assert_eq!(server.metrics().sessions_shed, 0);
    }

    #[test]
    fn exempt_node_bypasses_admission() {
        let mut net = Network::new(24);
        let s = net.add_node("server");
        let relay = net.add_node("relay");
        let c = net.add_node("client");
        net.connect_bidirectional(s, relay, LinkSpec::lan());
        net.connect_bidirectional(s, c, LinkSpec::lan());
        let mut server = StreamingServer::new(s).with_admission(AdmissionPolicy::new(1, 500_000));
        server.publish("lec", test_file(40, 2_000_000));
        server.exempt_from_admission(relay);
        let play = Wire::Request(ControlRequest::Play {
            content: "lec".into(),
            from: 0,
        });
        server.on_message(&mut net, 0, c, play.clone());
        server.on_message(&mut net, 0, relay, play);
        assert_eq!(server.session_count(), 2, "the relay is never refused");
        assert_eq!(server.metrics().sessions_shed, 0);
    }

    /// The thinning rule as the server applied it when every send copied
    /// the payload list: copy it, then drop what the stream filter and
    /// the video decimation refuse.
    fn copy_and_retain(
        p: &DataPacket,
        filter: Option<&[u16]>,
        (num, den): (u64, u64),
        video: &[u16],
    ) -> Vec<lod_asf::Payload> {
        let mut thin = p.payloads.to_vec();
        thin.retain(|pl| {
            if filter.is_some_and(|keep| !keep.contains(&pl.stream)) {
                return false;
            }
            if num < den && video.contains(&pl.stream) {
                let h = lod_obs::splitmix64(pl.pres_time ^ (u64::from(pl.stream) << 48));
                return h % den < num;
            }
            true
        });
        thin
    }

    #[test]
    fn thinning_keeps_what_copying_kept_and_shares_untouched_packets() {
        let file = av_test_file(40, 1_000_000);
        let cases = [
            (None, (1, 1)),
            (Some(&[2][..]), (1, 1)),
            (Some(&[1, 2][..]), (1, 1)),
            (None, (1, 2)),
            (Some(&[1][..]), (1, 3)),
        ];
        for (filter, keep) in cases {
            let mut net = Network::new(26);
            let s = net.add_node("server");
            let c = net.add_node("client");
            // No jitter: packets arrive in the order they were sent.
            net.connect_bidirectional(s, c, LinkSpec::lan().with_jitter(0));
            let mut server = StreamingServer::new(s);
            server.publish("lec", file.clone());
            if let Some(f) = filter {
                let select = Wire::Request(ControlRequest::SelectStreams(f.to_vec()));
                server.on_message(&mut net, 0, c, select);
            }
            let play = Wire::Request(ControlRequest::Play {
                content: "lec".into(),
                from: 0,
            });
            server.on_message(&mut net, 0, c, play);
            server.sessions[0].keep = keep;
            let mut got = Vec::new();
            for t in (0..200_000_000).step_by(1_000_000) {
                server.poll(&mut net, t);
                for d in net.advance_to(t) {
                    if let Wire::Data(p) = d.message {
                        got.push(p);
                    }
                }
            }
            let plain = filter.is_none() && keep.0 >= keep.1;
            let want: Vec<_> = file
                .packets
                .iter()
                .map(|p| (p, copy_and_retain(p, filter, keep, &[1])))
                .filter(|(_, thin)| !thin.is_empty())
                .collect();
            assert_eq!(got.len(), want.len(), "{filter:?} {keep:?}");
            let mut bytes = 0;
            for (g, (p, thin)) in got.iter().zip(&want) {
                assert_eq!(g.send_time, p.send_time);
                assert_eq!(&g.payloads[..], &thin[..], "{filter:?} {keep:?}");
                let whole = thin.len() == p.payloads.len();
                assert_eq!(Arc::ptr_eq(&g.payloads, &p.payloads), whole);
                bytes += if plain {
                    256
                } else {
                    (lod_asf::packet::PACKET_HEADER_BYTES
                        + thin.len() * lod_asf::packet::PAYLOAD_HEADER_BYTES
                        + g.media_bytes()) as u64
                };
            }
            assert_eq!(server.metrics().payload_bytes_sent, bytes);
        }
    }

    #[test]
    fn sustained_backlog_downshifts_then_recovery_upshifts() {
        // One congested run with degradation, one without; the link heals
        // at 5 s and both runs drain completely, so the delivered payload
        // mix isolates what decimation dropped.
        let run = |degrade: bool| -> (ServerMetrics, usize, usize) {
            let mut net = Network::new(25);
            let s = net.add_node("server");
            let c = net.add_node("client");
            // Slower than the content's 432 kbit/s: backlog builds at once.
            let thin = LinkSpec::broadband().with_bandwidth(150_000);
            net.connect_bidirectional(s, c, thin);
            let mut server = StreamingServer::new(s).with_backlog_limit(40_000_000);
            if degrade {
                server = server.with_degrade(DegradePolicy {
                    high_watermark: 5_000_000,
                    low_watermark: 1_000_000,
                    downshift_hold: 2_000_000,
                    upshift_hold: 10_000_000,
                });
            }
            server.publish("lec", av_test_file(300, 1_000_000)); // 30 s
            server.on_message(
                &mut net,
                0,
                c,
                Wire::Request(ControlRequest::Play {
                    content: "lec".into(),
                    from: 0,
                }),
            );
            let mut video = 0usize;
            let mut audio = 0usize;
            let mut t = 0u64;
            while t < 500_000_000 {
                if t == 50_000_000 {
                    // The congestion clears.
                    net.set_link_spec(s, c, LinkSpec::lan());
                }
                server.poll(&mut net, t);
                for d in net.advance_to(t) {
                    if let Wire::Data(p) = &d.message {
                        video += p.payloads.iter().filter(|pl| pl.stream == 1).count();
                        audio += p.payloads.iter().filter(|pl| pl.stream == 2).count();
                    }
                }
                t += 1_000_000;
            }
            (server.metrics(), video, audio)
        };
        let (degraded, video_thin, audio_thin) = run(true);
        let (plain, video_full, audio_full) = run(false);
        assert!(degraded.downshifts >= 1, "congestion must downshift");
        assert_eq!(degraded.sessions_degraded, 1);
        assert!(degraded.upshifts >= 1, "the healed link must upshift");
        assert_eq!(plain.downshifts, 0);
        assert!(
            video_thin < video_full,
            "decimation must drop video samples: {video_thin} vs {video_full}"
        );
        assert_eq!(
            audio_thin, audio_full,
            "audio must survive degradation untouched"
        );
    }

    #[test]
    #[should_panic(expected = "backlog limit must be positive")]
    fn zero_backlog_limit_is_rejected() {
        let mut net: Network<Wire> = Network::new(1);
        let s = net.add_node("server");
        let _ = StreamingServer::new(s).with_backlog_limit(0);
    }

    #[test]
    #[should_panic(expected = "segment packets must be positive")]
    fn zero_segment_packets_is_rejected() {
        let mut net: Network<Wire> = Network::new(1);
        let s = net.add_node("server");
        let _ = StreamingServer::new(s).with_segment_packets(0);
    }

    #[test]
    #[should_panic(expected = "max_sessions must be positive")]
    fn zero_admission_sessions_is_rejected() {
        AdmissionPolicy::new(0, 1_000_000);
    }

    #[test]
    #[should_panic(expected = "high watermark must exceed")]
    fn inverted_degrade_watermarks_are_rejected() {
        let mut net: Network<Wire> = Network::new(1);
        let s = net.add_node("server");
        let _ = StreamingServer::new(s).with_degrade(DegradePolicy {
            high_watermark: 1,
            low_watermark: 2,
            downshift_hold: 1,
            upshift_hold: 1,
        });
    }

    #[test]
    fn live_feed_archives_to_stored_asf() {
        use lod_asf::ScriptCommand;
        let base = test_file(10, 1_000_000);
        let header = StreamHeader {
            props: base.props.clone(),
            streams: base.streams.clone(),
            script: ScriptCommandList::new(),
            drm: None,
            epoch: 0,
        };
        let mut feed = LiveFeed::new(header);
        for p in base.packets.clone() {
            feed.push(p);
        }
        feed.push_script(ScriptCommand::new(3_000_000, "slide", "s.png"));
        feed.end();
        let file = feed.into_asf().expect("header present");
        assert!(!file.props.broadcast);
        assert_eq!(file.props.play_duration, base.last_presentation_time());
        assert_eq!(file.script.len(), 1);
        assert!(file.index.is_some());
        // The archive round-trips the wire.
        let bytes = lod_asf::write_asf(&file).unwrap();
        assert_eq!(lod_asf::read_asf(&bytes).unwrap(), file);
    }

    #[test]
    fn archive_live_moves_feed_to_catalog() {
        let mut net: Network<Wire> = Network::new(1);
        let s = net.add_node("server");
        let c = net.add_node("client");
        net.connect_bidirectional(s, c, LinkSpec::lan());
        let mut server = StreamingServer::new(s);
        let base = test_file(10, 1_000_000);
        let header = StreamHeader {
            props: base.props.clone(),
            streams: base.streams.clone(),
            script: ScriptCommandList::new(),
            drm: None,
            epoch: 0,
        };
        let mut feed = LiveFeed::new(header);
        for p in base.packets.clone() {
            feed.push(p);
        }
        server.publish_live("live", feed);
        // Not ended yet: refuse.
        assert!(!server.archive_live("live", "vod"));
        server.live_feed("live").unwrap().end();
        assert!(server.archive_live("live", "vod"));
        // A latecomer can now play the recording.
        server.on_message(
            &mut net,
            0,
            c,
            Wire::Request(ControlRequest::Play {
                content: "vod".into(),
                from: 0,
            }),
        );
        assert_eq!(server.session_count(), 1);
    }

    #[test]
    fn live_feed_relays_appended_packets() {
        let mut net = Network::new(3);
        let s = net.add_node("server");
        let c = net.add_node("client");
        net.connect_bidirectional(s, c, LinkSpec::lan());
        let mut server = StreamingServer::new(s);
        let file = test_file(1, 1);
        let header = StreamHeader {
            props: file.props.clone(),
            streams: file.streams.clone(),
            script: ScriptCommandList::new(),
            drm: None,
            epoch: 0,
        };
        server.publish_live("live", LiveFeed::new(header));
        server.on_message(
            &mut net,
            0,
            c,
            Wire::Request(ControlRequest::Play {
                content: "live".into(),
                from: 0,
            }),
        );
        // Encoder appends two packets.
        for p in test_file(4, 1_000_000).packets {
            server.live_feed("live").unwrap().push(p);
        }
        server.poll(&mut net, 100_000_000);
        let d = net.advance_to(200_000_000);
        let data = d
            .iter()
            .filter(|d| matches!(d.message, Wire::Data(_)))
            .count();
        assert!(data >= 1, "live packets relayed");
        // Ending the feed closes the session (poll repeatedly: the pacer
        // limits how much each poll may send).
        server.live_feed("live").unwrap().end();
        let mut t = 300_000_000;
        while server.session_count() > 0 && t < 100_000_000_000 {
            server.poll(&mut net, t);
            t += 100_000_000;
        }
        assert_eq!(server.session_count(), 0);
    }
}
