//! The streaming client: buffering, playout clock, stall accounting.

use std::collections::{BTreeMap, VecDeque};

use lod_asf::{AsfError, LengthReassembler, ScriptCommand, ScriptCommandList};
use lod_media::{MediaClock, Ticks};
use lod_obs::{Event, Recorder, TraceCtx};
use lod_simnet::NodeId;
use lod_transport::Transport;

use crate::metrics::ClientMetrics;
use crate::retry::RetryPolicy;
use crate::wire::{ControlRequest, StreamHeader, Wire};

/// Bookkeeping of the client's retry layer (present only when a
/// [`RetryPolicy`] is configured via [`StreamingClient::with_retry`]).
#[derive(Debug)]
struct RetryState {
    policy: RetryPolicy,
    /// Mixed into the jitter hash so clients desynchronize their retries.
    salt: u64,
    /// Wall time of the last useful server message.
    last_progress: u64,
    /// Wall time after which the session is presumed wedged.
    deadline: u64,
    /// Retries issued since the last progress.
    attempts: u32,
    /// `last_progress` at the moment the outage was detected.
    outage_start: Option<u64>,
}

/// Lifecycle of a client session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientState {
    /// Nothing requested yet.
    Idle,
    /// Play sent; filling the preroll buffer.
    Buffering,
    /// Rendering.
    Playing,
    /// Buffer underrun; waiting to refill.
    Stalled,
    /// End of stream reached and buffer drained.
    Done,
}

/// One rendered item: a media sample, or a fired script command (slide
/// flip, annotation) with `script` set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RenderEvent {
    /// Wall time at which the item was rendered.
    pub wall_time: u64,
    /// The client that rendered it.
    pub client: NodeId,
    /// Stream number (0 for script commands).
    pub stream: u16,
    /// Scheduled presentation time.
    pub pres_time: u64,
    /// Sample payload size in bytes (0 for script commands).
    pub bytes: usize,
    /// The script command, when this event is a script firing.
    pub script: Option<ScriptCommand>,
}

/// A streaming client node playing one piece of content.
#[derive(Debug)]
pub struct StreamingClient {
    node: NodeId,
    server: NodeId,
    /// The node the client was originally pointed at. Busy bounces
    /// re-ask here: the origin's redirect manager is the one place that
    /// knows which relay has room.
    home: NodeId,
    content: String,
    /// Streams to request from the server (None = all).
    wanted_streams: Option<Vec<u16>>,
    /// Fallback stream set for adaptive thinning, with the stall count
    /// that triggers it.
    adaptive: Option<(u32, Vec<u16>)>,
    /// Whether the adaptive downgrade already fired.
    downgraded: bool,
    state: ClientState,
    header: Option<StreamHeader>,
    /// Nothing here reads a sample's bytes, only its size: reassembly
    /// keeps fragment extents, not views.
    reasm: LengthReassembler,
    /// Playout buffer of `((pres_time, stream, arrival seq), len)`
    /// descriptors, sorted by key — the seq makes every key unique.
    /// Samples complete almost always in that order, so a new one is
    /// pushed on the back and rendering pops from the front.
    buffer: VecDeque<((u64, u16, u64), u32)>,
    buffer_seq: u64,
    clock: MediaClock,
    scripts: ScriptCommandList,
    /// Media time up to which scripts have fired (None before playback).
    scripts_fired_to: Option<u64>,
    /// Pending seek target while rebuffering.
    seek_target: Option<u64>,
    /// Server handoff requested by a [`Wire::Redirect`], applied on the
    /// next [`StreamingClient::poll_redirect`].
    pending_redirect: Option<NodeId>,
    requested_at: u64,
    eos: bool,
    /// Highest presentation time seen in the buffer (for preroll checks).
    horizon: u64,
    stall_started: u64,
    metrics: ClientMetrics,
    /// `(wall_time, pres_time, stream)` of every completed sample — the
    /// arrival trace the ETPN experiments replay against. Recorded only
    /// on request ([`StreamingClient::with_arrival_log`]): it grows by
    /// one entry per sample for the life of the session.
    arrival_log: Option<Vec<(u64, u64, u16)>>,
    /// Retry layer, when enabled.
    retry: Option<RetryState>,
    /// Whether the *user* paused (retries must not resurrect the stream).
    user_paused: bool,
    /// `(outage_start, recover_ticks)` of every survived outage.
    recovery_log: Vec<(u64, u64)>,
    /// Wall time at which a `Busy`-bounced Play is re-issued.
    busy_until: Option<u64>,
    /// `Busy` answers tolerated before the client gives up as shed.
    busy_budget: u32,
    /// Structured event sink (disabled by default — a free no-op).
    obs: Recorder,
    /// Trace contexts announced by [`Wire::Mark`], each waiting for the
    /// first sample completed after it (closing its "reassemble" span).
    pending_marks: VecDeque<TraceCtx>,
    /// Open "playout_wait" spans, keyed by the buffer sequence of the
    /// sample whose rendering closes them.
    playout_traces: BTreeMap<u64, TraceCtx>,
}

impl StreamingClient {
    /// A client on `node` that will fetch `content` from `server`.
    pub fn new(node: NodeId, server: NodeId, content: impl Into<String>) -> Self {
        Self {
            node,
            server,
            home: server,
            content: content.into(),
            wanted_streams: None,
            adaptive: None,
            downgraded: false,
            state: ClientState::Idle,
            header: None,
            reasm: LengthReassembler::default(),
            buffer: VecDeque::new(),
            buffer_seq: 0,
            clock: MediaClock::start_at(Ticks::ZERO),
            scripts: ScriptCommandList::new(),
            scripts_fired_to: None,
            seek_target: None,
            pending_redirect: None,
            requested_at: 0,
            eos: false,
            horizon: 0,
            stall_started: 0,
            metrics: ClientMetrics::default(),
            arrival_log: None,
            retry: None,
            user_paused: false,
            recovery_log: Vec::new(),
            busy_until: None,
            busy_budget: 8,
            obs: Recorder::disabled(),
            pending_marks: VecDeque::new(),
            playout_traces: BTreeMap::new(),
        }
    }

    /// Attaches a structured event recorder: playback lifecycle, stalls,
    /// busy bounces, retries, and outage recoveries land in it as
    /// tick-stamped [`Event`]s.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.obs = recorder;
        self
    }

    /// Overrides how many [`Wire::Busy`] bounces the client tolerates
    /// before giving up as shed (default 8).
    pub fn with_busy_budget(mut self, bounces: u32) -> Self {
        self.busy_budget = bounces;
        self
    }

    /// Whether the session was explicitly shed by admission control.
    pub fn is_shed(&self) -> bool {
        self.metrics.shed
    }

    /// Records the arrival trace read back by
    /// [`StreamingClient::arrival_log`].
    pub fn with_arrival_log(mut self) -> Self {
        self.arrival_log = Some(Vec::new());
        self
    }

    /// The `(wall_time, pres_time, stream)` arrival trace of every sample
    /// completed so far; empty unless the client was built
    /// [`StreamingClient::with_arrival_log`].
    pub fn arrival_log(&self) -> &[(u64, u64, u16)] {
        self.arrival_log.as_deref().unwrap_or(&[])
    }

    /// Restricts the session to `streams` (stream thinning): must be set
    /// before [`StreamingClient::start`].
    pub fn with_streams(mut self, streams: Vec<u16>) -> Self {
        self.wanted_streams = Some(streams);
        self
    }

    /// Enables adaptive thinning ("intelligent streaming"): after
    /// `stall_threshold` rebuffering events the client asks the server to
    /// drop down to `fallback` streams for the rest of the session.
    pub fn with_adaptive_thinning(mut self, stall_threshold: u32, fallback: Vec<u16>) -> Self {
        self.adaptive = Some((stall_threshold, fallback));
        self
    }

    /// Whether the adaptive downgrade has fired.
    pub fn is_downgraded(&self) -> bool {
        self.downgraded
    }

    /// Enables the retry layer: when the server goes silent for longer
    /// than the policy's request timeout mid-session, the client re-issues
    /// Play from its playback horizon with exponential, jittered backoff
    /// (see [`RetryPolicy`]), abandoning after `max_retries`. `salt` is
    /// mixed into the jitter hash; derive it from the run seed and the
    /// client index so a classroom of clients desynchronizes.
    pub fn with_retry(mut self, policy: RetryPolicy, salt: u64) -> Self {
        self.retry = Some(RetryState {
            policy,
            salt,
            last_progress: 0,
            deadline: u64::MAX,
            attempts: 0,
            outage_start: None,
        });
        self
    }

    /// Whether the retry layer gave up on this session.
    pub fn is_abandoned(&self) -> bool {
        self.metrics.abandoned
    }

    /// `(outage_start, recover_ticks)` of every outage the retry layer
    /// survived, in wall-time order.
    pub fn recovery_log(&self) -> &[(u64, u64)] {
        &self.recovery_log
    }

    /// Fires the adaptive downgrade when the stall threshold has been
    /// crossed: tells the server to thin the session to the fallback
    /// streams and drops already-buffered samples of other streams.
    /// Drivers call this each scheduling round; it is a no-op until the
    /// threshold trips, and fires at most once.
    pub fn poll_adaptive(&mut self, net: &mut impl Transport<Wire>) {
        let Some((threshold, fallback)) = &self.adaptive else {
            return;
        };
        if self.downgraded || self.metrics.stalls < u64::from(*threshold) {
            return;
        }
        self.downgraded = true;
        let req = Wire::Request(ControlRequest::SelectStreams(fallback.clone()));
        let bytes = req.wire_bytes(0);
        let _ = net.send_reliable(self.node, self.server, bytes, req);
        // Already-buffered samples of dropped streams would still render;
        // clear them so the downgrade is immediate on screen too.
        self.buffer
            .retain(|((_, stream, _), _)| fallback.contains(stream));
    }

    /// The client's network node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Current state.
    pub fn state(&self) -> ClientState {
        self.state
    }

    /// Whether playback has finished.
    pub fn is_done(&self) -> bool {
        self.state == ClientState::Done
    }

    /// Quality metrics accumulated so far.
    pub fn metrics(&self) -> &ClientMetrics {
        &self.metrics
    }

    /// The header received from the server, if any.
    pub fn header(&self) -> Option<&StreamHeader> {
        self.header.as_ref()
    }

    /// Media time of the playout clock at wall time `now`.
    pub fn media_time(&self, now: u64) -> u64 {
        self.clock.media_time(Ticks(now)).0
    }

    /// Sends the initial Play request.
    pub fn start(&mut self, net: &mut impl Transport<Wire>) {
        if self.state != ClientState::Idle {
            return;
        }
        self.requested_at = net.now();
        let req = Wire::Request(ControlRequest::Play {
            content: self.content.clone(),
            from: 0,
        });
        let bytes = req.wire_bytes(0);
        let _ = net.send_reliable(self.node, self.server, bytes, req);
        if let Some(streams) = &self.wanted_streams {
            let sel = Wire::Request(ControlRequest::SelectStreams(streams.clone()));
            let bytes = sel.wire_bytes(0);
            let _ = net.send_reliable(self.node, self.server, bytes, sel);
        }
        if let Some(rs) = &mut self.retry {
            rs.last_progress = self.requested_at;
            rs.deadline = self.requested_at.saturating_add(rs.policy.request_timeout);
        }
        self.state = ClientState::Buffering;
    }

    /// Requests a pause: freezes the local clock and tells the server to
    /// stop sending.
    pub fn pause(&mut self, net: &mut impl Transport<Wire>, now: u64) {
        if self.state == ClientState::Playing {
            self.clock.pause(Ticks(now));
            self.user_paused = true;
            let req = Wire::Request(ControlRequest::Pause);
            let bytes = req.wire_bytes(0);
            let _ = net.send_reliable(self.node, self.server, bytes, req);
        }
    }

    /// Resumes after [`StreamingClient::pause`].
    pub fn resume(&mut self, net: &mut impl Transport<Wire>, now: u64) {
        if self.state == ClientState::Playing && !self.clock.is_running() {
            self.clock.resume(Ticks(now));
            self.user_paused = false;
            if let Some(rs) = &mut self.retry {
                // The server owes us nothing during a pause; restart the
                // silence clock now.
                rs.last_progress = now;
                rs.deadline = now.saturating_add(rs.policy.request_timeout);
            }
            let req = Wire::Request(ControlRequest::Resume);
            let bytes = req.wire_bytes(0);
            let _ = net.send_reliable(self.node, self.server, bytes, req);
        }
    }

    /// Seeks to presentation time `target`: drops the local buffer, asks
    /// the server to resume from the seek point (it consults the ASF
    /// index), and rebuffers.
    pub fn seek(&mut self, net: &mut impl Transport<Wire>, now: u64, target: u64) {
        if matches!(self.state, ClientState::Idle | ClientState::Done) {
            return;
        }
        self.buffer.clear();
        self.reasm = LengthReassembler::default();
        self.horizon = target;
        self.eos = false;
        self.clock.seek(Ticks(now), Ticks(target));
        self.clock.pause(Ticks(now));
        self.scripts_fired_to = Some(target);
        self.seek_target = Some(target);
        self.state = ClientState::Buffering;
        let req = Wire::Request(ControlRequest::Seek { to: target });
        let bytes = req.wire_bytes(0);
        let _ = net.send_reliable(self.node, self.server, bytes, req);
    }

    /// Marks server liveness at `time`: closes any open outage (recording
    /// its duration) and rearms the silence deadline.
    fn note_progress(&mut self, time: u64) {
        let Some(rs) = &mut self.retry else {
            return;
        };
        if let Some(started) = rs.outage_start.take() {
            let dur = time.saturating_sub(started);
            self.metrics.recoveries += 1;
            self.metrics.recover_ticks_total += dur;
            self.metrics.recover_ticks_max = self.metrics.recover_ticks_max.max(dur);
            self.recovery_log.push((started, dur));
            self.obs.emit(
                time,
                Event::Recovery {
                    client: self.node.index() as u64,
                    outage_ticks: dur,
                },
            );
        }
        rs.attempts = 0;
        rs.last_progress = time;
        rs.deadline = time.saturating_add(rs.policy.request_timeout);
    }

    /// Handles a message delivered at `time`.
    pub fn on_message(&mut self, time: u64, msg: Wire) {
        self.note_progress(time);
        match msg {
            Wire::Header(h) => {
                // A redirect re-attach delivers the header a second time;
                // merge scripts only once.
                if self.header.is_none() {
                    for c in h.script.commands() {
                        self.scripts.push(c.clone());
                    }
                }
                self.header = Some(*h);
                // Admitted after all: cancel any scheduled busy retry.
                self.busy_until = None;
            }
            Wire::Script(c) => {
                self.scripts.push(c);
            }
            Wire::Data(p) => {
                match self.reasm.push_packet(&p) {
                    Ok(()) => {}
                    Err(AsfError::FragmentMismatch { .. }) => {
                        self.metrics.samples_lost += 1;
                    }
                    Err(_) => {}
                }
                for (stream, pres_time, len) in self.reasm.drain_completed() {
                    self.metrics.bytes_received += u64::from(len);
                    self.horizon = self.horizon.max(pres_time);
                    if let Some(log) = &mut self.arrival_log {
                        log.push((time, pres_time, stream));
                    }
                    self.buffer_seq += 1;
                    // The first sample completed after a trace marker
                    // closes that segment's "reassemble" span and opens
                    // its "playout_wait" — closed when this very sample
                    // is rendered.
                    if let Some(ctx) = self.pending_marks.pop_front() {
                        // Clamped as `Self::span` does; the drain holds
                        // `self.reasm`, so the method cannot be called.
                        let (node, peer) = (self.node.index() as u64, self.server.index() as u64);
                        let at = time.max(ctx.origin);
                        self.obs.span(at, false, node, peer, "reassemble", ctx);
                        self.obs.span(at, true, node, peer, "playout_wait", ctx);
                        self.playout_traces.insert(self.buffer_seq, ctx);
                    }
                    let key = (pres_time, stream, self.buffer_seq);
                    match self.buffer.back() {
                        Some((last, _)) if *last > key => {
                            let at = self.buffer.partition_point(|(k, _)| *k < key);
                            self.buffer.insert(at, (key, len));
                        }
                        _ => self.buffer.push_back((key, len)),
                    }
                }
            }
            Wire::EndOfStream => {
                self.eos = true;
            }
            Wire::NotFound(_) => {
                self.eos = true;
                self.state = ClientState::Done;
            }
            Wire::Redirect { to } => {
                self.pending_redirect = Some(to);
            }
            Wire::Busy {
                retry_after,
                alternate,
            } => {
                if self.state == ClientState::Done {
                    return;
                }
                self.metrics.busy_bounces += 1;
                self.obs.emit(
                    time,
                    Event::BusyBounce {
                        client: self.node.index() as u64,
                    },
                );
                match alternate {
                    // The overloaded node knows a less-loaded peer: go
                    // there directly (the normal redirect path re-Plays).
                    Some(alt) if alt != self.server => {
                        self.pending_redirect = Some(alt);
                    }
                    _ if self.metrics.busy_bounces > u64::from(self.busy_budget) => {
                        // Out of patience: the session is explicitly shed
                        // — a clean refusal, not a silent timeout.
                        self.metrics.shed = true;
                        self.state = ClientState::Done;
                        self.obs.emit(
                            time,
                            Event::ClientShed {
                                client: self.node.index() as u64,
                            },
                        );
                    }
                    _ => {
                        // Wait out retry_after, then re-ask home: the
                        // origin's redirect manager may know a relay
                        // with room by then (or degradation may have
                        // freed budget).
                        self.server = self.home;
                        self.busy_until = Some(time.saturating_add(retry_after));
                    }
                }
            }
            Wire::Mark(ctx) => {
                // The relay announced a sampled segment's fan-out: open
                // the client-side "reassemble" span and remember the
                // context for the first sample that completes.
                self.span(time, true, "reassemble", ctx);
                self.pending_marks.push_back(ctx);
            }
            // Relay-plane traffic; clients never consume raw segments.
            Wire::Segment(_) => {}
            Wire::Request(_) => {}
            // Heartbeat answers are monitor-plane traffic.
            Wire::Pong { .. } => {}
        }
    }

    /// Records one client-side span edge of a traced segment, at `at`
    /// clamped to the context's mint tick: the driver may poll the
    /// minting relay ahead of the network clock, so a marker can arrive
    /// stamped before its own fan-out span opened. The clamp
    /// (Lamport-style) keeps delivery-chain opens monotone.
    fn span(&self, at: u64, open: bool, hop: &str, ctx: TraceCtx) {
        let (node, peer) = (self.node.index() as u64, self.server.index() as u64);
        self.obs
            .span(at.max(ctx.origin), open, node, peer, hop, ctx);
    }

    /// The node this client currently streams from.
    pub fn server(&self) -> NodeId {
        self.server
    }

    /// Re-homes this client after an origin failover: the failed `old`
    /// home is replaced by the promoted standby, and any in-flight
    /// affinity for the dead node (current server, pending redirect) is
    /// re-pointed so the next busy-bounce or handoff asks a live origin.
    pub fn retarget_home(&mut self, old: NodeId, new_home: NodeId) {
        if self.home == old {
            self.home = new_home;
        }
        if self.server == old {
            // Queue a handoff rather than mutating `server` in place:
            // `poll_redirect` re-Plays from the horizon, which is exactly
            // the resume the promoted origin expects.
            self.pending_redirect = Some(new_home);
        }
        if self.pending_redirect == Some(old) {
            self.pending_redirect = Some(new_home);
        }
    }

    /// Applies a pending [`Wire::Redirect`]: retargets the session and,
    /// when playback is underway, re-requests the content from the
    /// playback horizon so the new server picks up where the old one
    /// stopped. Message handlers have no network access, so drivers call
    /// this each scheduling round (like [`StreamingClient::poll_adaptive`]).
    /// Returns whether a handoff happened.
    pub fn poll_redirect(&mut self, net: &mut impl Transport<Wire>) -> bool {
        let Some(to) = self.pending_redirect.take() else {
            return false;
        };
        if to == self.server || self.state == ClientState::Done {
            return false;
        }
        self.server = to;
        if self.state == ClientState::Idle {
            // Not started yet: the eventual Play simply goes to the new
            // target.
            return true;
        }
        let req = Wire::Request(ControlRequest::Play {
            content: self.content.clone(),
            from: self.horizon,
        });
        let bytes = req.wire_bytes(0);
        let _ = net.send_reliable(self.node, self.server, bytes, req);
        if let Some(streams) = &self.wanted_streams {
            let sel = Wire::Request(ControlRequest::SelectStreams(streams.clone()));
            let bytes = sel.wire_bytes(0);
            let _ = net.send_reliable(self.node, self.server, bytes, sel);
        }
        if let Some(rs) = &mut self.retry {
            // The handoff target gets a fresh silence window.
            let now = net.now();
            rs.last_progress = now;
            rs.deadline = now.saturating_add(rs.policy.request_timeout);
        }
        self.eos = false;
        true
    }

    /// Re-issues the Play of a [`Wire::Busy`]-bounced session once its
    /// `retry_after` has elapsed. Drivers call this each scheduling round
    /// (like [`StreamingClient::poll_recovery`]). Returns whether a
    /// re-Play went out.
    pub fn poll_busy(&mut self, net: &mut impl Transport<Wire>, now: u64) -> bool {
        let Some(due) = self.busy_until else {
            return false;
        };
        if now < due || self.state == ClientState::Done {
            return false;
        }
        self.busy_until = None;
        let req = Wire::Request(ControlRequest::Play {
            content: self.content.clone(),
            from: self.horizon,
        });
        let bytes = req.wire_bytes(0);
        let _ = net.send_reliable(self.node, self.server, bytes, req);
        if let Some(streams) = &self.wanted_streams {
            let sel = Wire::Request(ControlRequest::SelectStreams(streams.clone()));
            let bytes = sel.wire_bytes(0);
            let _ = net.send_reliable(self.node, self.server, bytes, sel);
        }
        if let Some(rs) = &mut self.retry {
            rs.last_progress = now;
            rs.deadline = now.saturating_add(rs.policy.request_timeout);
        }
        true
    }

    /// Drives the retry layer: when the server has been silent past the
    /// policy deadline mid-session, re-issues Play from the playback
    /// horizon (plus the stream selection) with exponential jittered
    /// backoff; after `max_retries` consecutive unanswered attempts the
    /// session is abandoned ([`ClientMetrics::abandoned`]). A no-op
    /// without [`StreamingClient::with_retry`], before start, after EOS,
    /// and during a user pause. Drivers call this each scheduling round.
    /// Returns whether a retry was sent.
    pub fn poll_recovery(&mut self, net: &mut impl Transport<Wire>, now: u64) -> bool {
        if matches!(self.state, ClientState::Idle | ClientState::Done)
            || self.user_paused
            || self.eos
            || self.busy_until.is_some()
        {
            // (A busy-bounced session is waiting out retry_after on
            // purpose; silence is not an outage then.)
            return false;
        }
        let Some(rs) = &mut self.retry else {
            return false;
        };
        if now < rs.deadline {
            return false;
        }
        let attempt = rs.attempts + 1;
        if !rs.policy.allows(attempt) {
            self.metrics.abandoned = true;
            self.state = ClientState::Done;
            self.obs.emit(
                now,
                Event::Abandon {
                    client: self.node.index() as u64,
                },
            );
            return false;
        }
        rs.attempts = attempt;
        if rs.outage_start.is_none() {
            rs.outage_start = Some(rs.last_progress);
            // Every later Recovery pairs with this: `note_progress` only
            // closes an outage this opened.
            self.obs.emit(
                now,
                Event::OutageStart {
                    client: self.node.index() as u64,
                },
            );
        }
        rs.deadline = now
            .saturating_add(rs.policy.request_timeout)
            .saturating_add(rs.policy.retry_delay(attempt, rs.salt));
        self.metrics.retries += 1;
        self.obs.emit(
            now,
            Event::Retry {
                client: self.node.index() as u64,
                attempt: u64::from(attempt),
            },
        );
        let req = Wire::Request(ControlRequest::Play {
            content: self.content.clone(),
            from: self.horizon,
        });
        let bytes = req.wire_bytes(0);
        let _ = net.send_reliable(self.node, self.server, bytes, req);
        if let Some(streams) = &self.wanted_streams {
            let sel = Wire::Request(ControlRequest::SelectStreams(streams.clone()));
            let bytes = sel.wire_bytes(0);
            let _ = net.send_reliable(self.node, self.server, bytes, sel);
        }
        true
    }

    /// One driver turn: renders what is due into `sink`
    /// ([`StreamingClient::tick_with`]), then runs the four control
    /// polls in the order every driver runs them — adaptive downgrade,
    /// pending redirect, busy re-Play, retry layer. Each poll is a no-op
    /// until its condition arms, so a driver calls this once per step
    /// and nothing else.
    pub fn step(
        &mut self,
        net: &mut impl Transport<Wire>,
        now: u64,
        sink: &mut impl FnMut(RenderEvent),
    ) {
        self.tick_with(now, sink);
        self.poll_adaptive(net);
        self.poll_redirect(net);
        self.poll_busy(net, now);
        self.poll_recovery(net, now);
    }

    /// Preroll target in ticks (from the header, defaulting to 1 s).
    fn preroll(&self) -> u64 {
        self.header
            .as_ref()
            .map(|h| h.props.preroll)
            .filter(|&p| p > 0)
            .unwrap_or(10_000_000)
    }

    /// Advances playback to wall time `now`, returning samples rendered.
    pub fn tick(&mut self, now: u64) -> Vec<RenderEvent> {
        let mut out = Vec::new();
        self.tick_with(now, &mut |e| out.push(e));
        out
    }

    /// [`StreamingClient::tick`] handing each rendered item to `sink` as
    /// it renders, instead of collecting them: a driver that only keeps
    /// accounts of what rendered allocates nothing per step.
    pub fn tick_with(&mut self, now: u64, sink: &mut impl FnMut(RenderEvent)) {
        match self.state {
            ClientState::Idle | ClientState::Done => {}
            ClientState::Buffering => {
                let base = self.seek_target.unwrap_or(0);
                if self.header.is_some()
                    && (self.horizon.saturating_sub(base) >= self.preroll()
                        || (self.eos && !self.buffer.is_empty()))
                {
                    if let Some(target) = self.seek_target.take() {
                        // Re-anchor after a seek; startup was already
                        // accounted on the initial play.
                        self.clock.seek(Ticks(now), Ticks(target));
                        self.clock.resume(Ticks(now));
                    } else {
                        self.clock = MediaClock::start_at(Ticks(now));
                        self.metrics.startup_ticks = now.saturating_sub(self.requested_at);
                        self.obs.emit(
                            now,
                            Event::PlaybackStart {
                                client: self.node.index() as u64,
                                startup_ticks: self.metrics.startup_ticks,
                            },
                        );
                    }
                    self.state = ClientState::Playing;
                    self.render_due(now, sink);
                } else if self.eos && self.buffer.is_empty() {
                    self.finish(now);
                }
            }
            ClientState::Playing => {
                self.render_due(now, sink);
                let media_now = self.media_time(now);
                // Underrun means playback has caught up with everything
                // received so far, not merely an empty buffer between
                // samples.
                if self.buffer.is_empty() && media_now >= self.horizon {
                    if self.eos {
                        self.finish(now);
                    } else {
                        self.clock.pause(Ticks(now));
                        self.state = ClientState::Stalled;
                        self.stall_started = now;
                        self.metrics.stalls += 1;
                        self.obs.emit(
                            now,
                            Event::StallStart {
                                client: self.node.index() as u64,
                            },
                        );
                    }
                }
            }
            ClientState::Stalled => {
                let media_now = self.media_time(now);
                if self.horizon.saturating_sub(media_now) >= self.preroll() || self.eos {
                    self.metrics.stall_ticks += now - self.stall_started;
                    self.obs.emit(
                        now,
                        Event::StallEnd {
                            client: self.node.index() as u64,
                            stall_ticks: now - self.stall_started,
                        },
                    );
                    self.clock.resume(Ticks(now));
                    self.state = ClientState::Playing;
                    self.render_due(now, sink);
                }
            }
        }
    }

    fn finish(&mut self, now: u64) {
        self.state = ClientState::Done;
        self.metrics.samples_lost += self.reasm.incomplete() as u64;
        // Flush dangling trace spans: a mark whose samples never
        // completed, or a traced sample never rendered, still closes at
        // session end so every opened span pairs up.
        for ctx in std::mem::take(&mut self.pending_marks) {
            self.span(now, false, "reassemble", ctx);
        }
        for (_, ctx) in std::mem::take(&mut self.playout_traces) {
            self.span(now, false, "playout_wait", ctx);
        }
        self.obs.emit(
            now,
            Event::SessionEnd {
                client: self.node.index() as u64,
            },
        );
    }

    fn render_due(&mut self, now: u64, sink: &mut impl FnMut(RenderEvent)) {
        let media_now = self.media_time(now);
        while let Some(((pres_time, stream, seq), len)) = self
            .buffer
            .pop_front_if(|((pres, _, _), _)| *pres <= media_now)
        {
            if let Some(ctx) = self.playout_traces.remove(&seq) {
                self.span(now, false, "playout_wait", ctx);
            }
            self.metrics.samples_rendered += 1;
            sink(RenderEvent {
                wall_time: now,
                client: self.node,
                stream,
                pres_time,
                bytes: len as usize,
                script: None,
            });
        }
        // Fire script commands the playout clock has crossed: everything
        // up to media_now on the first call, then the half-open window.
        let due = match self.scripts_fired_to {
            None => {
                // Commands are kept in time order: a prefix is due.
                let all = self.scripts.commands();
                &all[..all.partition_point(|c| c.time <= media_now)]
            }
            Some(prev) => self.scripts.fired_between(prev, media_now),
        };
        for c in due {
            sink(RenderEvent {
                wall_time: now,
                client: self.node,
                stream: 0,
                pres_time: c.time,
                bytes: 0,
                script: Some(c.clone()),
            });
        }
        self.scripts_fired_to = Some(media_now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_to_completion;
    use crate::server::tests::test_file;
    use crate::server::StreamingServer;
    use lod_simnet::LinkSpec;
    use lod_simnet::Network;

    fn world(link: LinkSpec) -> (Network<Wire>, StreamingServer, StreamingClient) {
        let mut net = Network::new(77);
        let s = net.add_node("server");
        let c = net.add_node("client");
        net.connect_bidirectional(s, c, link);
        let mut server = StreamingServer::new(s);
        server.publish("lec", test_file(50, 2_000_000)); // 10 s of media
        let client = StreamingClient::new(c, s, "lec");
        (net, server, client)
    }

    #[test]
    fn plays_to_completion_on_lan() {
        let (mut net, mut server, mut client) = world(LinkSpec::lan());
        let events = run_to_completion(&mut net, &mut server, &mut [&mut client], 600_000_000_000);
        assert!(client.is_done());
        assert_eq!(client.metrics().stalls, 0, "{:?}", client.metrics());
        assert!(events.len() >= 50, "rendered {} events", events.len());
        // Samples render in presentation order.
        let times: Vec<u64> = events.iter().map(|e| e.pres_time).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted);
    }

    #[test]
    fn startup_latency_recorded() {
        let (mut net, mut server, mut client) = world(LinkSpec::broadband());
        run_to_completion(&mut net, &mut server, &mut [&mut client], 600_000_000_000);
        assert!(client.metrics().startup_ticks > 0);
    }

    #[test]
    fn unknown_content_finishes_immediately() {
        let mut net = Network::new(8);
        let s = net.add_node("server");
        let c = net.add_node("client");
        net.connect_bidirectional(s, c, LinkSpec::lan());
        let mut server = StreamingServer::new(s);
        let mut client = StreamingClient::new(c, s, "missing");
        run_to_completion(&mut net, &mut server, &mut [&mut client], 60_000_000_000);
        assert!(client.is_done());
        assert_eq!(client.metrics().samples_rendered, 0);
    }

    #[test]
    fn starved_link_causes_stalls() {
        // 56k modem cannot carry 400 kbit/s video: expect stalls.
        let (mut net, mut server, mut client) = world(LinkSpec::modem().with_loss(0.0));
        run_to_completion(&mut net, &mut server, &mut [&mut client], 4_000_000_000_000);
        assert!(
            client.metrics().stalls > 0,
            "expected stalls on modem: {:?}",
            client.metrics()
        );
    }

    #[test]
    fn lossy_link_loses_samples_not_liveness() {
        let (mut net, mut server, mut client) = world(LinkSpec::broadband().with_loss(0.05));
        run_to_completion(&mut net, &mut server, &mut [&mut client], 4_000_000_000_000);
        assert!(client.is_done());
        let m = client.metrics();
        assert!(m.samples_rendered > 0);
        assert!(
            m.samples_lost > 0 || m.samples_rendered == 50,
            "loss should be visible unless luck delivered everything: {m:?}"
        );
    }

    /// Drives one client manually so mid-session control can be injected
    /// at a chosen wall time.
    fn drive(
        net: &mut Network<Wire>,
        server: &mut StreamingServer,
        client: &mut StreamingClient,
        from: u64,
        to: u64,
        mut at: impl FnMut(&mut Network<Wire>, &mut StreamingClient, u64),
    ) -> Vec<RenderEvent> {
        let mut events = Vec::new();
        let mut t = from;
        while t <= to && !client.is_done() {
            at(net, client, t);
            server.poll(net, t);
            for d in net.advance_to(t) {
                if d.dst == server.node() {
                    server.on_message(net, d.time, d.src, d.message);
                } else {
                    client.on_message(d.time, d.message);
                }
            }
            events.extend(client.tick(t));
            t += 1_000_000;
        }
        events
    }

    #[test]
    fn tick_and_tick_with_render_the_same_session() {
        use lod_asf::ScriptCommand;
        // The same seeded session twice — slide flips, a lossy jittery
        // link, a mid-session seek — once collecting through `tick`,
        // once streaming through `tick_with`.
        let session = |streamed: bool| {
            let (mut net, mut server, mut client) = world(LinkSpec::broadband().with_loss(0.02));
            let mut file = test_file(50, 2_000_000);
            file.script.push(ScriptCommand::new(0, "slide", "s0.png"));
            file.script
                .push(ScriptCommand::new(50_000_000, "slide", "s1.png"));
            server.publish("lec", file);
            client.start(&mut net);
            let mut events = Vec::new();
            let mut t = 0u64;
            while t <= 600_000_000 && !client.is_done() {
                if t == 30_000_000 {
                    client.seek(&mut net, t, 40_000_000);
                }
                server.poll(&mut net, t);
                for d in net.advance_to(t) {
                    if d.dst == server.node() {
                        server.on_message(&mut net, d.time, d.src, d.message);
                    } else {
                        client.on_message(d.time, d.message);
                    }
                }
                if streamed {
                    client.tick_with(t, &mut |e| events.push(e));
                } else {
                    events.extend(client.tick(t));
                }
                t += 1_000_000;
            }
            assert!(client.is_done());
            (events, *client.metrics())
        };
        let (collected, streamed) = (session(false), session(true));
        assert!(collected.0.iter().any(|e| e.script.is_some()));
        assert!(collected.0.iter().any(|e| e.script.is_none()));
        assert_eq!(collected, streamed);

        // And a whole driver turn: a retry-armed client whose server
        // dies mid-lecture, that is redirected to a second one and then
        // cut off from it for three seconds — once through `step`, once
        // through the five calls `step` stands for.
        let turns = |stepped: bool| {
            let mut net = Network::new(78);
            let a = net.add_node("a");
            let b = net.add_node("b");
            let c = net.add_node("client");
            net.connect_bidirectional(a, c, LinkSpec::broadband().with_loss(0.02));
            net.connect_bidirectional(b, c, LinkSpec::broadband().with_loss(0.02));
            let mut servers = [StreamingServer::new(a), StreamingServer::new(b)];
            for s in &mut servers {
                s.publish("lec", test_file(50, 2_000_000));
            }
            let mut client =
                StreamingClient::new(c, a, "lec").with_retry(crate::RetryPolicy::client(), 5);
            client.start(&mut net);
            let mut events = Vec::new();
            let mut t = 0u64;
            while t <= 900_000_000 && !client.is_done() {
                match t {
                    30_000_000 => {
                        // `a` dies; its students are told to go to `b`.
                        net.set_link_up(a, c, false);
                        client.on_message(t, Wire::Redirect { to: b });
                    }
                    40_000_000 | 70_000_000 => {
                        let up = t == 70_000_000;
                        net.set_link_up(b, c, up);
                        net.set_link_up(c, b, up);
                    }
                    _ => {}
                }
                for s in &mut servers {
                    s.poll(&mut net, t);
                }
                for d in net.advance_to(t) {
                    match servers.iter_mut().find(|s| s.node() == d.dst) {
                        Some(s) => s.on_message(&mut net, d.time, d.src, d.message),
                        None => client.on_message(d.time, d.message),
                    }
                }
                if stepped {
                    client.step(&mut net, t, &mut |e| events.push(e));
                } else {
                    client.tick_with(t, &mut |e| events.push(e));
                    client.poll_adaptive(&mut net);
                    client.poll_redirect(&mut net);
                    client.poll_busy(&mut net, t);
                    client.poll_recovery(&mut net, t);
                }
                t += 1_000_000;
            }
            assert!(client.is_done());
            assert_eq!(client.server(), b, "the redirect was applied");
            (events, *client.metrics(), client.recovery_log().to_vec())
        };
        let (by_step, by_hand) = (turns(true), turns(false));
        assert!(
            by_step.1.retries > 0,
            "the retry layer fired: {:?}",
            by_step.1
        );
        assert!(by_step.1.samples_rendered > 0);
        assert_eq!(by_step, by_hand);
    }

    #[test]
    fn arrival_log_is_kept_only_on_request() {
        let (mut net, mut server, mut client) = world(LinkSpec::lan());
        run_to_completion(&mut net, &mut server, &mut [&mut client], 600_000_000_000);
        assert_eq!(client.metrics().samples_rendered, 50);
        assert!(client.arrival_log().is_empty());

        let (mut net, mut server, client) = world(LinkSpec::lan());
        let mut client = client.with_arrival_log();
        run_to_completion(&mut net, &mut server, &mut [&mut client], 600_000_000_000);
        assert_eq!(client.arrival_log().len(), 50);
    }

    #[test]
    fn client_seek_jumps_forward() {
        let (mut net, mut server, mut client) = world(LinkSpec::lan());
        client.start(&mut net);
        let target = 60_000_000u64; // 6 s into the 10 s lecture
        let mut sought = false;
        let events = drive(
            &mut net,
            &mut server,
            &mut client,
            0,
            600_000_000,
            |net, c, t| {
                if t == 30_000_000 && c.state() == ClientState::Playing && !sought {
                    c.seek(net, t, target);
                    sought = true;
                }
            },
        );
        assert!(sought);
        assert!(client.is_done());
        // After the seek, nothing between the seek point and the target
        // renders a *new* sample older than the target (minus stale
        // in-flight deliveries, which land before the seek completes).
        let post_seek: Vec<_> = events
            .iter()
            .filter(|e| e.wall_time > 40_000_000 && e.script.is_none())
            .collect();
        assert!(!post_seek.is_empty());
        assert!(
            post_seek.iter().all(|e| e.pres_time >= target),
            "stale sample after rebuffer"
        );
    }

    #[test]
    fn client_pause_resume_round_trip() {
        let (mut net, mut server, mut client) = world(LinkSpec::lan());
        client.start(&mut net);
        let mut paused = false;
        let mut resumed = false;
        let events = drive(
            &mut net,
            &mut server,
            &mut client,
            0,
            2_000_000_000,
            |net, c, t| {
                if t == 40_000_000 && c.state() == ClientState::Playing && !paused {
                    c.pause(net, t);
                    paused = true;
                }
                if t == 140_000_000 && paused && !resumed {
                    c.resume(net, t);
                    resumed = true;
                }
            },
        );
        assert!(client.is_done());
        // Nothing renders during the pause window.
        assert!(events
            .iter()
            .all(|e| e.wall_time <= 40_000_000 || e.wall_time >= 140_000_000));
        // All 50 samples still render (pause loses nothing).
        assert_eq!(client.metrics().samples_rendered, 50);
    }

    #[test]
    fn adaptive_thinning_recovers_a_starved_session() {
        // A modem cannot carry the full lecture; the adaptive client drops
        // to the audio stream after 2 stalls and finishes smoothly.
        let make_world = |adaptive: bool| {
            let mut net = Network::new(66);
            let s = net.add_node("server");
            let c = net.add_node("client");
            net.connect_bidirectional(s, c, LinkSpec::modem().with_loss(0.0));
            let mut server = StreamingServer::new(s);
            let mut file = test_file(1, 1);
            let mut pk = lod_asf::Packetizer::new(256).unwrap();
            for i in 0..30u64 {
                // Stream 1: heavy video (10 kB per 0.2 s ≈ 400 kbit/s).
                pk.push(&lod_asf::MediaSample::new(
                    1,
                    i * 2_000_000,
                    vec![7; 10_000],
                ));
                // Stream 2: light audio (800 B per 0.2 s = 32 kbit/s).
                pk.push(&lod_asf::MediaSample::new(2, i * 2_000_000, vec![8; 800]));
            }
            file.packets = pk.finish();
            file.props.play_duration = 60_000_000;
            file.streams.push(lod_asf::StreamProperties {
                number: 2,
                kind: lod_asf::StreamKind::Audio,
                codec: 1,
                bitrate: 32_000,
                name: "a".into(),
            });
            file.build_index(2_000_000);
            server.publish("lec", file);
            let mut client = StreamingClient::new(c, s, "lec");
            if adaptive {
                client = client.with_adaptive_thinning(2, vec![2]);
            }
            (net, server, client)
        };

        let (mut net, mut server, mut client) = make_world(true);
        run_to_completion(&mut net, &mut server, &mut [&mut client], 6_000_000_000_000);
        assert!(client.is_done());
        assert!(client.is_downgraded());
        let adaptive_metrics = *client.metrics();

        let (mut net, mut server, mut client) = make_world(false);
        run_to_completion(&mut net, &mut server, &mut [&mut client], 6_000_000_000_000);
        let plain_metrics = *client.metrics();

        assert!(
            adaptive_metrics.stall_ticks < plain_metrics.stall_ticks,
            "adaptive {adaptive_metrics:?} vs plain {plain_metrics:?}"
        );
    }

    #[test]
    fn stream_thinning_drops_deselected_streams() {
        // Publish content with two streams; select only stream 2.
        let mut net = Network::new(44);
        let s = net.add_node("server");
        let c = net.add_node("client");
        net.connect_bidirectional(s, c, LinkSpec::lan());
        let mut server = StreamingServer::new(s);
        let mut file = test_file(30, 2_000_000);
        let mut pk = lod_asf::Packetizer::new(256).unwrap();
        for i in 0..30u64 {
            pk.push(&lod_asf::MediaSample::new(1, i * 2_000_000, vec![7; 1_000]));
            pk.push(&lod_asf::MediaSample::new(2, i * 2_000_000, vec![8; 500]));
        }
        file.packets = pk.finish();
        file.streams.push(lod_asf::StreamProperties {
            number: 2,
            kind: lod_asf::StreamKind::Audio,
            codec: 1,
            bitrate: 100_000,
            name: "a".into(),
        });
        file.build_index(2_000_000);
        server.publish("lec", file);
        let mut client = StreamingClient::new(c, s, "lec").with_streams(vec![2]);
        let events = run_to_completion(&mut net, &mut server, &mut [&mut client], 600_000_000_000);
        assert!(client.is_done());
        let rendered_streams: std::collections::HashSet<u16> = events
            .iter()
            .filter(|e| e.script.is_none())
            .map(|e| e.stream)
            .collect();
        assert_eq!(rendered_streams, [2u16].into_iter().collect());
        assert_eq!(client.metrics().samples_rendered, 30);
        // Thinning saves wire bytes: stream 2 is 500 B/sample.
        assert!(client.metrics().bytes_received <= 30 * 500);
    }

    #[test]
    fn header_scripts_fire_as_render_events() {
        use lod_asf::ScriptCommand;
        let (mut net, mut server, mut client) = world(LinkSpec::lan());
        // Re-publish with slide commands.
        let mut file = test_file(50, 2_000_000);
        file.script.push(ScriptCommand::new(0, "slide", "s0.png"));
        file.script
            .push(ScriptCommand::new(50_000_000, "slide", "s1.png"));
        server.publish("lec", file);
        let events = run_to_completion(&mut net, &mut server, &mut [&mut client], 600_000_000_000);
        let flips: Vec<_> = events.iter().filter(|e| e.script.is_some()).collect();
        assert_eq!(flips.len(), 2);
        assert_eq!(flips[0].pres_time, 0);
        assert_eq!(flips[1].pres_time, 50_000_000);
        // The flip fires when the playout clock crosses it, i.e. at or
        // after its own media time relative to the first render.
        assert!(flips[1].wall_time >= flips[0].wall_time + 40_000_000);
    }

    #[test]
    fn live_script_commands_relay_to_clients() {
        use crate::server::LiveFeed;
        use crate::wire::StreamHeader;
        use lod_asf::{ScriptCommand, ScriptCommandList};
        let mut net = Network::new(4);
        let s = net.add_node("server");
        let c = net.add_node("client");
        net.connect_bidirectional(s, c, LinkSpec::lan());
        let mut server = StreamingServer::new(s);
        let base = test_file(1, 1);
        let header = StreamHeader {
            props: base.props.clone(),
            streams: base.streams.clone(),
            script: ScriptCommandList::new(),
            drm: None,
            epoch: 0,
        };
        server.publish_live("live", LiveFeed::new(header));
        let mut client = StreamingClient::new(c, s, "live");
        client.start(&mut net);
        // Teacher encodes media and flips a slide mid-broadcast.
        let mut t = 0u64;
        let media = test_file(10, 10_000_000).packets;
        let mut pushed_script = false;
        let mut saw_flip = false;
        while t < 400_000_000_000 && !client.is_done() {
            if t == 10_000_000 {
                for p in media.clone() {
                    server.live_feed("live").unwrap().push(p);
                }
            }
            if t == 30_000_000 && !pushed_script {
                server
                    .live_feed("live")
                    .unwrap()
                    .push_script(ScriptCommand::new(40_000_000, "slide", "live1.png"));
                pushed_script = true;
            }
            if t == 150_000_000 {
                server.live_feed("live").unwrap().end();
            }
            server.poll(&mut net, t);
            for d in net.advance_to(t) {
                if d.dst == s {
                    server.on_message(&mut net, d.time, d.src, d.message);
                } else {
                    client.on_message(d.time, d.message);
                }
            }
            for e in client.tick(t) {
                if let Some(cmd) = &e.script {
                    assert_eq!(cmd.param, "live1.png");
                    saw_flip = true;
                }
            }
            t += 1_000_000;
        }
        assert!(saw_flip, "live slide flip must reach the client");
    }

    #[test]
    fn retry_layer_survives_a_link_flap() {
        use crate::retry::RetryPolicy;
        use lod_simnet::{FaultInjector, FaultPlan};
        let (mut net, mut server, client) = world(LinkSpec::lan());
        let mut client = client.with_retry(RetryPolicy::client(), 7);
        // The access link goes dark from 2 s to 4.5 s; packets the server
        // pushes meanwhile are gone for good, so only a horizon retry can
        // finish the lecture.
        let plan = FaultPlan::new().link_down(20_000_000, 25_000_000, server.node(), client.node());
        let mut inj = FaultInjector::new(plan);
        client.start(&mut net);
        let mut t = 0u64;
        while t <= 600_000_000_000 && !client.is_done() {
            inj.poll(&mut net, t);
            server.poll(&mut net, t);
            for d in net.advance_to(t) {
                if d.dst == server.node() {
                    server.on_message(&mut net, d.time, d.src, d.message);
                } else {
                    client.on_message(d.time, d.message);
                }
            }
            client.tick(t);
            client.poll_recovery(&mut net, t);
            t += 1_000_000;
        }
        assert!(client.is_done());
        assert!(!client.is_abandoned());
        let m = *client.metrics();
        assert!(m.retries >= 1, "{m:?}");
        assert!(m.recoveries >= 1, "{m:?}");
        assert!(m.recover_ticks_total >= m.recover_ticks_max);
        assert_eq!(client.recovery_log().len() as u64, m.recoveries);
    }

    #[test]
    fn retry_layer_abandons_after_budget_exhausted() {
        use crate::retry::RetryPolicy;
        let mut net: Network<Wire> = Network::new(5);
        let s = net.add_node("server");
        let c = net.add_node("client");
        // No link at all: every request vanishes into the void.
        let policy = RetryPolicy {
            request_timeout: 5_000_000,
            base_backoff: 1_000_000,
            max_backoff: 4_000_000,
            max_retries: 3,
        };
        let mut client = StreamingClient::new(c, s, "lec").with_retry(policy, 9);
        client.start(&mut net);
        let mut t = 0u64;
        while t < 10_000_000_000 && !client.is_done() {
            client.tick(t);
            client.poll_recovery(&mut net, t);
            t += 1_000_000;
        }
        assert!(client.is_done());
        assert!(client.is_abandoned());
        let m = client.metrics();
        assert_eq!(m.retries, 3);
        assert_eq!(m.recoveries, 0);
        assert!(client.recovery_log().is_empty());
    }

    #[test]
    fn user_pause_does_not_trigger_retries() {
        use crate::retry::RetryPolicy;
        let (mut net, mut server, client) = world(LinkSpec::lan());
        let mut client = client.with_retry(
            RetryPolicy {
                request_timeout: 5_000_000,
                ..RetryPolicy::client()
            },
            3,
        );
        client.start(&mut net);
        let mut paused = false;
        let mut resumed = false;
        let mut t = 0u64;
        while t <= 600_000_000_000 && !client.is_done() {
            if t == 40_000_000 && client.state() == ClientState::Playing && !paused {
                client.pause(&mut net, t);
                paused = true;
            }
            // A 10 s pause, double the retry timeout.
            if t == 140_000_000 && paused && !resumed {
                client.resume(&mut net, t);
                resumed = true;
            }
            server.poll(&mut net, t);
            for d in net.advance_to(t) {
                if d.dst == server.node() {
                    server.on_message(&mut net, d.time, d.src, d.message);
                } else {
                    client.on_message(d.time, d.message);
                }
            }
            client.tick(t);
            client.poll_recovery(&mut net, t);
            t += 1_000_000;
        }
        assert!(paused && resumed);
        assert!(client.is_done());
        assert_eq!(client.metrics().retries, 0, "{:?}", client.metrics());
    }

    #[test]
    fn busy_bounce_waits_then_readmits() {
        use crate::server::AdmissionPolicy;
        // One-session budget: c2 is bounced while c1 plays, then admitted
        // once c1's short lecture finishes.
        let mut net = Network::new(91);
        let s = net.add_node("server");
        let c1 = net.add_node("c1");
        let c2 = net.add_node("c2");
        net.connect_bidirectional(s, c1, LinkSpec::lan());
        net.connect_bidirectional(s, c2, LinkSpec::lan());
        let mut server = StreamingServer::new(s)
            .with_admission(AdmissionPolicy::new(1, 10_000_000).with_retry_after(20_000_000));
        server.publish("lec", test_file(30, 2_000_000)); // 6 s
        let mut a = StreamingClient::new(c1, s, "lec");
        let mut b = StreamingClient::new(c2, s, "lec");
        run_to_completion(
            &mut net,
            &mut server,
            &mut [&mut a, &mut b],
            600_000_000_000,
        );
        assert!(a.is_done() && b.is_done());
        assert!(!a.is_shed() && !b.is_shed());
        // Exactly one of them was bounced at least once, and both played.
        assert!(b.metrics().busy_bounces + a.metrics().busy_bounces >= 1);
        assert!(a.metrics().samples_rendered > 0);
        assert!(b.metrics().samples_rendered > 0);
        assert!(server.metrics().sessions_shed >= 1);
    }

    #[test]
    fn busy_budget_exhaustion_sheds_the_session() {
        use crate::server::AdmissionPolicy;
        // The budgeted session never ends (live feed without packets), so
        // the bounced client runs out of patience and is explicitly shed.
        use crate::server::LiveFeed;
        let mut net = Network::new(92);
        let s = net.add_node("server");
        let c1 = net.add_node("c1");
        let c2 = net.add_node("c2");
        net.connect_bidirectional(s, c1, LinkSpec::lan());
        net.connect_bidirectional(s, c2, LinkSpec::lan());
        let mut server = StreamingServer::new(s)
            .with_admission(AdmissionPolicy::new(1, 10_000_000).with_retry_after(5_000_000));
        let base = test_file(1, 1);
        let header = crate::wire::StreamHeader {
            props: base.props.clone(),
            streams: base.streams.clone(),
            script: lod_asf::ScriptCommandList::new(),
            drm: None,
            epoch: 0,
        };
        server.publish_live("live", LiveFeed::new(header));
        let mut a = StreamingClient::new(c1, s, "live");
        let mut b = StreamingClient::new(c2, s, "live").with_busy_budget(3);
        // Seat `a` first so `b` is deterministically the bounced client
        // (LAN jitter could otherwise reorder the two Play requests).
        a.start(&mut net);
        let mut t = 0u64;
        while server.session_count() == 0 {
            server.poll(&mut net, t);
            for d in net.advance_to(t) {
                if d.dst == s {
                    server.on_message(&mut net, d.time, d.src, d.message);
                } else if d.dst == c1 {
                    a.on_message(d.time, d.message);
                }
            }
            t += 1_000_000;
        }
        b.start(&mut net);
        while t < 60_000_000_000 && !b.is_done() {
            server.poll(&mut net, t);
            for d in net.advance_to(t) {
                if d.dst == s {
                    server.on_message(&mut net, d.time, d.src, d.message);
                } else if d.dst == c1 {
                    a.on_message(d.time, d.message);
                } else {
                    b.on_message(d.time, d.message);
                }
            }
            b.tick(t);
            b.poll_busy(&mut net, t);
            t += 1_000_000;
        }
        assert!(b.is_done());
        assert!(b.is_shed(), "{:?}", b.metrics());
        assert!(!b.is_abandoned(), "shed is explicit, not a timeout");
        assert_eq!(b.metrics().busy_bounces, 4, "budget 3 + the final bounce");
    }

    #[test]
    fn busy_alternate_steers_to_the_named_node() {
        let mut net: Network<Wire> = Network::new(93);
        let s = net.add_node("origin");
        let alt = net.add_node("relay");
        let c = net.add_node("client");
        net.connect_bidirectional(s, c, LinkSpec::lan());
        net.connect_bidirectional(alt, c, LinkSpec::lan());
        let mut client = StreamingClient::new(c, s, "lec");
        client.start(&mut net);
        client.on_message(
            1_000,
            Wire::Busy {
                retry_after: 10_000_000,
                alternate: Some(alt),
            },
        );
        assert!(client.poll_redirect(&mut net), "alternate is a redirect");
        assert_eq!(client.server(), alt);
        assert_eq!(client.metrics().busy_bounces, 1);
        assert!(!client.is_shed());
    }

    #[test]
    fn media_clock_pauses_during_stall() {
        let (mut net, mut server, mut client) = world(LinkSpec::modem().with_loss(0.0));
        run_to_completion(&mut net, &mut server, &mut [&mut client], 4_000_000_000_000);
        let m = client.metrics();
        assert!(m.stall_ticks > 0);
        assert!(m.rebuffer_ratio(100_000_000_000) > 0.0);
    }
}
