//! The edge relay node.
//!
//! A relay sits between the origin [`lod_streaming::StreamingServer`] and
//! the students of one campus. It speaks the ordinary [`Wire`] protocol
//! downstream — clients cannot tell a relay from the origin — and two
//! upstream idioms:
//!
//! * **VoD**: stored lectures are served packet-by-packet out of a
//!   byte-budgeted [`SegmentCache`]; a cache miss pulls one segment from
//!   the origin with [`ControlRequest::FetchSegment`] (deduplicated, so N
//!   concurrent students cost one uplink pull), optionally prefetching
//!   the next segment.
//! * **Live**: the relay subscribes to the origin feed *once* and fans the
//!   packets out to every local student, turning an O(students) origin
//!   uplink load into O(relays).

use std::collections::BTreeMap;

use lod_asf::{DataPacket, ScriptCommand};
use lod_obs::{lecture_id, sampled, Event, Recorder, TraceCtx};
use lod_simnet::{NodeId, TokenBucket};
use lod_streaming::wire::{ControlRequest, SegmentData, StreamHeader, Wire};
use lod_streaming::{
    session_pacer, AdmissionPolicy, BreakerPolicy, BreakerState, CircuitBreaker, Playhead,
    RetryPolicy,
};
use lod_transport::Transport;
use serde::{Deserialize, Serialize};

use crate::cache::{CachedSegment, ContentId, SegmentCache};

/// High bit marking a synthetic in-flight key for a *time-resolving*
/// fetch (`at_time` lookups have no segment number until the origin
/// answers). Real segment indices never reach 2^31.
const TIME_FETCH_BIT: u32 = 1 << 31;

/// Greets a local `client` with its content's `header` when the relay
/// knows it. Returns the session's pacer — sized from the header, or a
/// placeholder that nothing draws on until the header arrives — and
/// whether the header went out.
fn greet(
    net: &mut impl Transport<Wire>,
    node: NodeId,
    client: NodeId,
    header: Option<&StreamHeader>,
) -> (TokenBucket, bool) {
    let Some(h) = header else {
        return (TokenBucket::new(128_000, 16_000), false);
    };
    let msg = Wire::Header(Box::new(h.clone()));
    let _ = net.send_reliable(node, client, h.wire_bytes(), msg);
    let bps = u64::from(h.props.max_bitrate);
    (session_pacer(bps, h.props.packet_size), true)
}

/// In-flight key for a time-resolving fetch of presentation time `at`.
fn time_fetch_key(at: u64) -> u32 {
    // Cheap 64→31 bit mix so distinct seek targets rarely collide.
    let h = at
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(31)
        .wrapping_mul(0x94D0_49BB_1331_11EB);
    TIME_FETCH_BIT | ((h >> 33) as u32 & !TIME_FETCH_BIT)
}

lod_obs::counters! {
    /// Service counters for one relay.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
    pub struct RelayMetrics {
        /// VoD sessions started.
        pub sessions_served: u64 => counter "lod_relay_sessions_served_total",
        /// Local subscribers to live feeds.
        pub live_subscribers: u64,
        /// Segments pulled from the origin on demand.
        pub segment_fetches: u64 => counter "lod_relay_segment_fetches_total",
        /// Segments pulled ahead of need.
        pub prefetches: u64 => counter "lod_relay_prefetches_total",
        /// Bytes of media payload sent to local clients.
        pub payload_bytes_sent: u64 => counter "lod_relay_payload_bytes_total",
        /// Bytes received from the origin (segments + live feed).
        pub upstream_bytes_received: u64 => counter "lod_relay_upstream_bytes_total",
        /// Upstream fetches re-issued after a request timeout.
        pub fetch_retries: u64 => counter "lod_relay_fetch_retries_total",
        /// Fetches abandoned after the retry budget ran out (their waiting
        /// sessions get a NotFound).
        pub fetch_give_ups: u64 => counter "lod_relay_fetch_give_ups_total",
        /// Play requests refused with [`Wire::Busy`] by admission control.
        pub sessions_shed: u64 => counter "lod_relay_sessions_shed_total",
        /// Times the upstream circuit breaker tripped open.
        pub breaker_opens: u64 => counter "lod_relay_breaker_opens_total",
        /// Upstream fetches withheld while the breaker was open (the relay
        /// kept serving whatever it had cached instead).
        pub fetches_suppressed: u64 => counter "lod_relay_fetches_suppressed_total",
    }
}

/// Catalog facts about one piece of content, learned from the first
/// segment response.
#[derive(Debug, Clone)]
struct ContentMeta {
    header: Box<StreamHeader>,
    total_packets: u32,
    total_segments: u32,
    segment_packets: u32,
    packet_size: u32,
}

/// One local VoD session.
#[derive(Debug)]
struct VodSession {
    client: NodeId,
    content: ContentId,
    next_packet: u32,
    /// When each packet is due; paused and re-anchored by control
    /// requests.
    playhead: Playhead,
    pacer: TokenBucket,
    /// Segment whose cache lookup has been recorded for this session.
    counted_seg: Option<u32>,
    /// Last segment whose fan-out sampling was evaluated, plus the open
    /// "fan_out" span context when that segment was sampled. Evaluated
    /// once per (session, segment); an open span closes when the next
    /// segment's fan-out begins, at EOS, or on teardown.
    fanout: Option<(u32, Option<TraceCtx>)>,
    /// Play/Seek waiting for a time-resolving fetch (`at_time` echo).
    pending_time: Option<u64>,
    header_sent: bool,
    eos_sent: bool,
}

/// One local subscriber of a live feed.
#[derive(Debug)]
struct LiveSub {
    client: NodeId,
    next_packet: usize,
    next_script: usize,
    /// Skip packets before this presentation time (late joiners).
    start_from: u64,
    /// Only its pause state matters: an unpaused subscriber is sent what
    /// the feed holds as fast as its pacer allows.
    playhead: Playhead,
    pacer: TokenBucket,
    header_sent: bool,
    eos_sent: bool,
}

/// Locally re-broadcast state of one live lecture.
#[derive(Debug, Default)]
struct LiveRelay {
    /// Whether the single upstream Play has been issued.
    subscribed: bool,
    header: Option<Box<StreamHeader>>,
    packets: Vec<DataPacket>,
    scripts: Vec<ScriptCommand>,
    ended: bool,
    subs: Vec<LiveSub>,
}

/// What the relay knows about one content it serves. Indexed by the
/// content's [`ContentId`], so it iterates in intern order.
#[derive(Debug)]
struct Content {
    /// Served on demand ([`RelayNode::serve_vod`]).
    vod: bool,
    /// Re-broadcast live ([`RelayNode::serve_live`]).
    live: bool,
    /// `lecture_id` of the name, for the tracing plane.
    lecture: u64,
    /// Catalog facts, learned from the first segment answer.
    meta: Option<ContentMeta>,
    /// The local re-broadcast, from its first subscriber on.
    feed: Option<LiveRelay>,
    /// Upstream fetches in flight, keyed by segment (or a
    /// [`time_fetch_key`] for time-resolving fetches).
    inflight: BTreeMap<u32, InflightFetch>,
}

impl Content {
    /// Best-known bitrate cost of one session of this content (0 until
    /// the header has been learned — first contact is admitted on the
    /// session cap alone).
    fn nominal_bps(&self) -> u64 {
        if let Some(m) = &self.meta {
            return u64::from(m.header.props.max_bitrate);
        }
        self.feed
            .as_ref()
            .and_then(|f| f.header.as_ref())
            .map_or(0, |h| u64::from(h.props.max_bitrate))
    }
}

/// An edge relay node.
#[derive(Debug)]
pub struct RelayNode {
    node: NodeId,
    origin: NodeId,
    cache: SegmentCache,
    prefetch: bool,
    backlog_limit: u64,
    /// Contents this relay serves, indexed by the [`ContentId`] the
    /// cache interned each name under: the two tables grow together, and
    /// only [`RelayNode::serve_vod`] and [`RelayNode::serve_live`] grow
    /// them.
    contents: Vec<Content>,
    /// The live feed currently subscribed upstream. Data packets carry no
    /// content name, so a relay re-broadcasts one live lecture at a time.
    upstream_live: Option<ContentId>,
    sessions: Vec<VodSession>,
    /// Pacing/abandon policy for upstream fetches.
    fetch_retry: RetryPolicy,
    /// Mixed into the retry jitter so relays desynchronize.
    fetch_salt: u64,
    /// Optional admission budget for local Play requests.
    admission: Option<AdmissionPolicy>,
    /// Optional breaker around the upstream fetch path.
    breaker: Option<CircuitBreaker>,
    metrics: RelayMetrics,
    /// Structured event sink (disabled by default — a free no-op).
    obs: Recorder,
    /// Per-mille of (lecture, segment) pairs head-sampled into the
    /// tracing plane (0 = tracing off, 1000 = every segment).
    trace_permille: u16,
    /// Monotonic mint counter for this relay's trace contexts.
    trace_seq: u64,
}

/// One outstanding upstream fetch.
#[derive(Debug, Clone, Copy)]
struct InflightFetch {
    /// When the most recent request went out.
    last_at: u64,
    /// Requests issued so far (1 = original, 2+ = retries).
    attempts: u32,
}

/// Verdict of the fetch gate for a prospective upstream request.
enum FetchGate {
    /// Issue it (`retry` marks a re-issue of a lost request).
    Send { retry: bool },
    /// An earlier request is still within its patience window.
    Wait,
    /// The retry budget is spent; abandon the waiters.
    GiveUp,
}

impl RelayNode {
    /// A relay on `node` pulling from `origin`, caching at most
    /// `cache_budget` bytes of segments.
    pub fn new(node: NodeId, origin: NodeId, cache_budget: u64) -> Self {
        Self {
            node,
            origin,
            cache: SegmentCache::new(cache_budget),
            prefetch: true,
            backlog_limit: 20_000_000, // 2 s, like the origin
            contents: Vec::new(),
            upstream_live: None,
            sessions: Vec::new(),
            fetch_retry: RetryPolicy::relay_upstream(),
            fetch_salt: 0,
            admission: None,
            breaker: None,
            metrics: RelayMetrics::default(),
            obs: Recorder::disabled(),
            trace_permille: 0,
            trace_seq: 0,
        }
    }

    /// Attaches a structured event recorder: admission sheds, cache
    /// hits/misses/evictions, fetch retries, and breaker transitions land
    /// in it as tick-stamped [`Event`]s.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.obs = recorder;
        self
    }

    /// Disables sequential prefetch (default on).
    pub fn with_prefetch(mut self, prefetch: bool) -> Self {
        self.prefetch = prefetch;
        self
    }

    /// Overrides the upstream fetch retry policy (default
    /// [`RetryPolicy::relay_upstream`]). `salt` feeds the deterministic
    /// retry jitter; derive it from the run seed and the relay index.
    pub fn with_fetch_retry(mut self, policy: RetryPolicy, salt: u64) -> Self {
        self.fetch_retry = policy;
        self.fetch_salt = salt;
        self
    }

    /// Overrides the per-client send backlog limit, in ticks of queued
    /// first-hop transmission time (default 2 s; `u64::MAX` disables the
    /// check).
    pub fn with_backlog_limit(mut self, ticks: u64) -> Self {
        assert!(
            ticks > 0,
            "backlog limit must be positive (u64::MAX disables backpressure)"
        );
        self.backlog_limit = ticks;
        self
    }

    /// Caps local admissions: Play requests beyond the budget are
    /// answered with [`Wire::Busy`] instead of silently queueing.
    pub fn with_admission(mut self, policy: AdmissionPolicy) -> Self {
        self.admission = Some(policy);
        self
    }

    /// Wraps the upstream fetch path in a circuit breaker: after
    /// `policy.failure_threshold` consecutive fetch failures the relay
    /// stops re-asking a dead origin and serves cache-only until a
    /// half-open probe succeeds.
    pub fn with_breaker(mut self, policy: BreakerPolicy) -> Self {
        self.breaker = Some(CircuitBreaker::new(policy));
        self
    }

    /// Enables segment tracing: `permille`‰ of (lecture, segment) pairs
    /// are head-sampled (deterministically, see [`lod_obs::sampled`])
    /// into the cross-node tracing plane. The relay is the minting
    /// authority — it stamps sampled fetches and fan-outs with a
    /// [`TraceCtx`] that then propagates through origin, transport and
    /// client hops. 0 (the default) disables tracing; 1000 traces every
    /// segment.
    pub fn with_trace_permille(mut self, permille: u16) -> Self {
        self.trace_permille = permille;
        self
    }

    /// The relay's network node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The origin this relay pulls from.
    pub fn origin(&self) -> NodeId {
        self.origin
    }

    /// Re-points this relay's uplink at a promoted standby after an
    /// origin failover. In-flight fetch bookkeeping against the dead
    /// origin is dropped (the poll loop re-drives any still-needed
    /// segment at the new target), the breaker is forced to a half-open
    /// probe so the first fetch is not blocked by failures the *old*
    /// origin earned, and cached headers adopt the promotion epoch so
    /// replays of cached content are not mistaken for stale-epoch
    /// traffic.
    pub fn retarget_origin(&mut self, standby: NodeId, epoch: u64, now: u64) {
        self.origin = standby;
        if let Some(b) = &mut self.breaker {
            b.force_probe(now);
        }
        for c in &mut self.contents {
            c.inflight.clear();
            if let Some(meta) = &mut c.meta {
                meta.header.epoch = epoch;
            }
        }
    }

    /// Service counters accumulated so far.
    pub fn metrics(&self) -> RelayMetrics {
        self.metrics
    }

    /// The segment cache (stats, budget, residency).
    pub fn cache(&self) -> &SegmentCache {
        &self.cache
    }

    /// Active VoD sessions.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Local subscribers across all live feeds.
    pub fn live_subscriber_count(&self) -> usize {
        self.feeds().map(|f| f.subs.len()).sum()
    }

    /// Registers stored content this relay may serve (by pulling segments
    /// from the origin).
    pub fn serve_vod(&mut self, content: impl Into<String>) {
        let id = self.intern(&content.into());
        self.contents[id.index()].vod = true;
    }

    /// Registers a live lecture this relay re-broadcasts locally.
    pub fn serve_live(&mut self, content: impl Into<String>) {
        let id = self.intern(&content.into());
        self.contents[id.index()].live = true;
    }

    /// The id of a content this relay serves, adding it when new.
    fn intern(&mut self, name: &str) -> ContentId {
        let id = self.cache.intern(name);
        if id.index() == self.contents.len() {
            self.contents.push(Content {
                vod: false,
                live: false,
                lecture: lecture_id(name),
                meta: None,
                feed: None,
                inflight: BTreeMap::new(),
            });
        }
        id
    }

    /// Every live re-broadcast with at least one subscriber so far, in
    /// intern order.
    fn feeds(&self) -> impl Iterator<Item = &LiveRelay> {
        self.contents.iter().filter_map(|c| c.feed.as_ref())
    }

    /// Handles a message delivered to the relay at `now`.
    pub fn on_message(
        &mut self,
        net: &mut impl Transport<Wire>,
        now: u64,
        from: NodeId,
        msg: Wire,
    ) {
        if from == self.origin {
            match msg {
                Wire::Segment(seg) => self.on_segment(net, now, seg),
                Wire::Header(h) => self.on_live_header(net, now, h),
                Wire::Data(p) => self.on_live_data(now, p),
                Wire::Script(c) => self.on_live_script(c),
                Wire::EndOfStream => self.on_live_eos(),
                Wire::NotFound(name) => {
                    // Still an *answer*: the origin is alive, however
                    // unhelpful, so the breaker closes.
                    self.breaker_success(now);
                    self.on_not_found(net, &name);
                }
                Wire::Request(req) => self.on_request(net, now, from, req),
                Wire::Redirect { .. } => {}
                // An origin bouncing its own relay is a deployment
                // misconfiguration (the origin exempts relays from
                // admission); the retry-gated subscription re-issues.
                Wire::Busy { .. } => {}
                // Heartbeat answers belong to the failover monitor, not
                // the relay data plane.
                Wire::Pong { .. } => {}
                // Trace markers flow relay → client, never origin → relay.
                Wire::Mark(_) => {}
            }
        } else if let Wire::Request(req) = msg {
            self.on_request(net, now, from, req);
        }
    }

    fn on_request(
        &mut self,
        net: &mut impl Transport<Wire>,
        now: u64,
        from: NodeId,
        req: ControlRequest,
    ) {
        match req {
            ControlRequest::Play {
                content,
                from: start,
            } => {
                if self.refuse_if_over_budget(net, now, from, &content) {
                    return;
                }
                match self.cache.resolve(&content) {
                    Some(id) if self.contents[id.index()].live => {
                        self.start_live_sub(net, now, from, id, start);
                    }
                    Some(id) if self.contents[id.index()].vod => {
                        self.start_vod(net, now, from, id, start);
                    }
                    _ => {
                        let _ = net.send_reliable(self.node, from, 32, Wire::NotFound(content));
                    }
                }
            }
            ControlRequest::Pause => {
                if let Some(p) = self.playhead_of(from) {
                    p.pause(now);
                }
            }
            ControlRequest::Resume => {
                if let Some(p) = self.playhead_of(from) {
                    p.resume(now);
                }
            }
            ControlRequest::Seek { to } => {
                if let Some(s) = self.sessions.iter_mut().find(|s| s.client == from) {
                    // Relays hold no seek index; the origin resolves the
                    // time to a packet in its segment response.
                    s.pending_time = Some(to);
                    s.eos_sent = false;
                    let content = s.content;
                    self.request_time_resolved(net, now, content, to, false);
                }
            }
            // Relays serve whole streams; thinning stays an origin
            // feature.
            ControlRequest::SelectStreams(_) => {}
            ControlRequest::Teardown => {
                for s in &self.sessions {
                    if s.client != from {
                        continue;
                    }
                    if let Some((_, Some(ctx))) = s.fanout {
                        let (node, peer) = (self.node.index() as u64, from.index() as u64);
                        self.obs.span(now, false, node, peer, "fan_out", ctx);
                    }
                }
                self.sessions.retain(|s| s.client != from);
                for feed in self.contents.iter_mut().filter_map(|c| c.feed.as_mut()) {
                    feed.subs.retain(|s| s.client != from);
                }
            }
            // Relays do not serve other relays.
            ControlRequest::FetchSegment { content, .. } => {
                let _ = net.send_reliable(self.node, from, 32, Wire::NotFound(content));
            }
            // Relays are not heartbeat targets; monitors ping origins.
            ControlRequest::Ping { .. } => {}
        }
    }

    /// The playhead of `client`'s VoD session or live subscription.
    fn playhead_of(&mut self, client: NodeId) -> Option<&mut Playhead> {
        let vod = self
            .sessions
            .iter_mut()
            .map(|s| (s.client, &mut s.playhead));
        let live = self
            .contents
            .iter_mut()
            .filter_map(|c| c.feed.as_mut())
            .flat_map(|f| f.subs.iter_mut())
            .map(|s| (s.client, &mut s.playhead));
        vod.chain(live).find(|(c, _)| *c == client).map(|(_, p)| p)
    }

    /// Admission control for a local Play: a client beyond the session or
    /// committed-bitrate budget is answered [`Wire::Busy`] (and `true`
    /// returned). Replays from already-seated clients always pass — they
    /// re-anchor an existing seat rather than claiming a new one. Every
    /// VoD session and live subscriber holds a seat and commits its
    /// content's nominal bitrate.
    fn refuse_if_over_budget(
        &mut self,
        net: &mut impl Transport<Wire>,
        now: u64,
        from: NodeId,
        content: &str,
    ) -> bool {
        let Some(adm) = self.admission else {
            return false;
        };
        if self.playhead_of(from).is_some() {
            return false; // seated: a VoD session or a live subscription
        }
        let active = self.sessions.len() + self.live_subscriber_count();
        let nominal = self
            .cache
            .resolve(content)
            .map_or(0, |id| self.contents[id.index()].nominal_bps());
        let over = adm.refuses(active, self.committed_bps(), nominal);
        if over {
            self.metrics.sessions_shed += 1;
            adm.shed(net, &self.obs, now, self.node, from);
        }
        over
    }

    /// Bit/s currently committed to local clients (VoD sessions plus live
    /// subscribers, at each content's advertised max bitrate).
    fn committed_bps(&self) -> u64 {
        let vod: u64 = self
            .sessions
            .iter()
            .map(|s| self.contents[s.content.index()].nominal_bps())
            .sum();
        let live: u64 = self
            .contents
            .iter()
            .filter_map(|c| Some(c.nominal_bps() * c.feed.as_ref()?.subs.len() as u64))
            .sum();
        vod + live
    }

    fn start_vod(
        &mut self,
        net: &mut impl Transport<Wire>,
        now: u64,
        client: NodeId,
        content: ContentId,
        start: u64,
    ) {
        self.metrics.sessions_served += 1;
        self.sessions.retain(|s| s.client != client);
        let meta = self.contents[content.index()].meta.as_ref();
        let (pacer, header_sent) = greet(net, self.node, client, meta.map(|m| &*m.header));
        // The origin resolves a start time via its index; on first
        // contact the fetch brings the header along.
        if start != 0 {
            self.request_time_resolved(net, now, content, start, !header_sent);
        } else if !header_sent {
            self.request_segment(net, now, content, 0, true);
        }
        self.sessions.push(VodSession {
            client,
            content,
            next_packet: 0,
            playhead: Playhead::new(now, start),
            pacer,
            counted_seg: None,
            pending_time: (start != 0).then_some(start),
            header_sent,
            eos_sent: false,
            fanout: None,
        });
    }

    fn start_live_sub(
        &mut self,
        net: &mut impl Transport<Wire>,
        now: u64,
        client: NodeId,
        content: ContentId,
        start: u64,
    ) {
        self.metrics.live_subscribers += 1;
        let feed = self.contents[content.index()]
            .feed
            .get_or_insert_with(LiveRelay::default);
        feed.subs.retain(|s| s.client != client);
        let (pacer, header_sent) = greet(net, self.node, client, feed.header.as_deref());
        feed.subs.push(LiveSub {
            client,
            next_packet: 0,
            next_script: 0,
            start_from: start,
            playhead: Playhead::new(now, start),
            pacer,
            header_sent,
            eos_sent: false,
        });
        if !feed.subscribed {
            // The single upstream subscription every local student shares.
            feed.subscribed = true;
            self.upstream_live = Some(content);
            let req = Wire::Request(ControlRequest::Play {
                content: self.cache.name(content).to_string(),
                from: 0,
            });
            let bytes = req.wire_bytes(0);
            let _ = net.send_reliable(self.node, self.origin, bytes, req);
        }
    }

    /// Decides whether an upstream request under `key` may go out at
    /// `now`: first issues pass, re-issues wait out the request timeout
    /// plus jittered exponential backoff, and a spent budget answers
    /// `GiveUp`.
    fn fetch_gate(&self, content: ContentId, key: u32, now: u64) -> FetchGate {
        match self.contents[content.index()].inflight.get(&key) {
            None => FetchGate::Send { retry: false },
            Some(fl) => {
                let retry_no = fl.attempts; // retry #n follows issue #n
                if !self.fetch_retry.allows(retry_no) {
                    return FetchGate::GiveUp;
                }
                let due = fl
                    .last_at
                    .saturating_add(self.fetch_retry.request_timeout)
                    .saturating_add(
                        self.fetch_retry
                            .retry_delay(retry_no, self.fetch_salt ^ u64::from(key)),
                    );
                if now >= due {
                    FetchGate::Send { retry: true }
                } else {
                    FetchGate::Wait
                }
            }
        }
    }

    fn inflight(&mut self, content: ContentId) -> &mut BTreeMap<u32, InflightFetch> {
        &mut self.contents[content.index()].inflight
    }

    /// Runs the fetch gate for `key`; returns `false` when nothing should
    /// be sent (either too soon, or the budget is gone — in which case
    /// the content's waiters have been told NotFound).
    fn admit_fetch(
        &mut self,
        net: &mut impl Transport<Wire>,
        now: u64,
        content: ContentId,
        key: u32,
    ) -> bool {
        match self.fetch_gate(content, key, now) {
            FetchGate::Wait => false,
            FetchGate::GiveUp => {
                self.inflight(content).remove(&key);
                self.metrics.fetch_give_ups += 1;
                self.obs.emit(
                    now,
                    Event::FetchGiveUp {
                        node: self.node.index() as u64,
                        segment: u64::from(key),
                    },
                );
                self.breaker_failure(now);
                self.abandon(net, content);
                false
            }
            FetchGate::Send { retry } => {
                if retry {
                    // A due re-issue means the previous request died
                    // unanswered: that is the breaker's failure signal.
                    self.breaker_failure(now);
                }
                if let Some(b) = &mut self.breaker {
                    let was_open = b.is_open();
                    if !b.allows(now) {
                        // Open: stop burning retry budget against a dead
                        // origin. Dropping the in-flight record makes the
                        // eventual half-open probe a fresh first issue.
                        self.metrics.fetches_suppressed += 1;
                        self.inflight(content).remove(&key);
                        return false;
                    }
                    if was_open {
                        // `allows` just moved Open → HalfOpen: this fetch
                        // is the probe.
                        self.obs.emit(
                            now,
                            Event::BreakerProbe {
                                node: self.node.index() as u64,
                            },
                        );
                    }
                }
                if retry {
                    self.metrics.fetch_retries += 1;
                    self.obs.emit(
                        now,
                        Event::FetchRetry {
                            node: self.node.index() as u64,
                            segment: u64::from(key),
                        },
                    );
                }
                let e = self.inflight(content).entry(key).or_insert(InflightFetch {
                    last_at: now,
                    attempts: 0,
                });
                e.last_at = now;
                e.attempts += 1;
                self.metrics.segment_fetches += 1;
                true
            }
        }
    }

    fn request_segment(
        &mut self,
        net: &mut impl Transport<Wire>,
        now: u64,
        content: ContentId,
        segment: u32,
        want_header: bool,
    ) {
        if !self.admit_fetch(net, now, content, segment) {
            return;
        }
        let trace = self.mint_trace(content, segment, now);
        if let Some(ctx) = trace {
            // "relay_fetch" spans the whole upstream round trip: opened
            // when the fetch leaves, closed when the segment answer (or
            // a retry's answer) lands in `on_segment`.
            let (node, peer) = (self.node.index() as u64, self.origin.index() as u64);
            self.obs.span(now, true, node, peer, "relay_fetch", ctx);
        }
        let req = Wire::Request(ControlRequest::FetchSegment {
            content: self.cache.name(content).to_string(),
            segment,
            at_time: None,
            want_header,
            trace,
        });
        let bytes = req.wire_bytes(0);
        let _ = net.send_reliable(self.node, self.origin, bytes, req);
    }

    /// Mints a trace context for `(content, segment)` when the sampling
    /// decision selects it, bumping the relay's mint counter. The
    /// decision is a pure function of (lecture, segment, permille), so
    /// every retry — and every other relay at the same permille — picks
    /// the same segments.
    fn mint_trace(&mut self, content: ContentId, segment: u32, now: u64) -> Option<TraceCtx> {
        if self.trace_permille == 0 {
            return None;
        }
        let lecture = self.contents[content.index()].lecture;
        let segment = u64::from(segment);
        if !sampled(lecture, segment, self.trace_permille) {
            return None;
        }
        self.trace_seq += 1;
        Some(TraceCtx {
            lecture,
            segment,
            seq: self.trace_seq,
            origin: now,
        })
    }

    /// Asks the origin for the segment containing presentation time `at`
    /// (the relay holds no seek index). Deduplicated and retried under a
    /// synthetic [`time_fetch_key`]; the answer's `at_time` echo
    /// re-anchors every session waiting on that time.
    fn request_time_resolved(
        &mut self,
        net: &mut impl Transport<Wire>,
        now: u64,
        content: ContentId,
        at: u64,
        want_header: bool,
    ) {
        if !self.admit_fetch(net, now, content, time_fetch_key(at)) {
            return;
        }
        let req = Wire::Request(ControlRequest::FetchSegment {
            content: self.cache.name(content).to_string(),
            segment: 0,
            at_time: Some(at),
            want_header,
            // Time-resolving fetches are addressed by presentation time,
            // not segment index — the sampling decision has no stable key
            // yet, so they stay untraced.
            trace: None,
        });
        let bytes = req.wire_bytes(0);
        let _ = net.send_reliable(self.node, self.origin, bytes, req);
    }

    /// Records an unanswered upstream fetch on the breaker, emitting
    /// [`Event::BreakerOpen`] when it trips the circuit open.
    fn breaker_failure(&mut self, now: u64) {
        if let Some(b) = &mut self.breaker {
            if b.record_failure(now) {
                self.metrics.breaker_opens += 1;
                self.obs.emit(
                    now,
                    Event::BreakerOpen {
                        node: self.node.index() as u64,
                    },
                );
            }
        }
    }

    /// Records an upstream answer on the breaker, emitting
    /// [`Event::BreakerClose`] when it actually re-closes the circuit.
    fn breaker_success(&mut self, now: u64) {
        if let Some(b) = &mut self.breaker {
            let was = b.state();
            b.record_success();
            if !matches!(was, BreakerState::Closed) {
                self.obs.emit(
                    now,
                    Event::BreakerClose {
                        node: self.node.index() as u64,
                    },
                );
            }
        }
    }

    fn on_segment(&mut self, net: &mut impl Transport<Wire>, now: u64, mut seg: SegmentData) {
        self.breaker_success(now);
        self.metrics.upstream_bytes_received += seg.wire_bytes();
        // An answer for a content this relay does not serve was never
        // asked for: it leaves no state behind, whatever it names.
        let Some(id) = self.cache.resolve(&seg.content) else {
            return;
        };
        if let Some(ctx) = seg.trace {
            let (node, peer) = (self.node.index() as u64, self.origin.index() as u64);
            // Clamped to the mint tick like every other span site: the
            // answer cannot land before the fetch was minted.
            self.obs
                .span(now.max(ctx.origin), false, node, peer, "relay_fetch", ctx);
        }
        let content = &mut self.contents[id.index()];
        content.inflight.remove(&seg.segment);
        if let Some(at) = seg.at_time {
            // A time-resolving fetch travels under its synthetic key.
            content.inflight.remove(&time_fetch_key(at));
        }
        if content.meta.is_none() {
            if let Some(h) = &seg.header {
                content.meta = Some(ContentMeta {
                    header: h.clone(),
                    total_packets: seg.total_packets,
                    total_segments: seg.total_segments,
                    segment_packets: seg.segment_packets.max(1),
                    packet_size: seg.packet_size,
                });
            }
        }
        if !seg.packets.is_empty() {
            // Move the packets straight into the cache: their payloads are
            // ref-counted views of the origin's backing buffers, and this
            // handler is the segment's last reader.
            let data = CachedSegment {
                base_packet: seg.base_packet,
                bytes: seg.packets.len() as u64 * u64::from(seg.packet_size),
                packets: std::mem::take(&mut seg.packets),
            };
            if let Some(evicted) = self.cache.insert_id(id, seg.segment, data) {
                for (_, segment, bytes) in evicted {
                    self.obs.emit(
                        now,
                        Event::CacheEvict {
                            node: self.node.index() as u64,
                            segment: u64::from(segment),
                            bytes,
                        },
                    );
                }
            }
        }
        // Wake sessions that were waiting on this content: send the header
        // to any session that never got one, and anchor time-resolved
        // starts/seeks.
        let header = self.contents[id.index()].meta.as_ref().map(|m| &*m.header);
        for s in &mut self.sessions {
            if s.content != id {
                continue;
            }
            if !s.header_sent && header.is_some() {
                (s.pacer, s.header_sent) = greet(net, self.node, s.client, header);
            }
            if let (Some(waiting), Some(echo), Some(start)) =
                (s.pending_time, seg.at_time, seg.start_packet)
            {
                if echo == waiting {
                    s.next_packet = start;
                    s.playhead.anchor(now, waiting);
                    s.counted_seg = None;
                    s.pending_time = None;
                }
            }
        }
    }

    /// The live feed subscribed upstream, once a local student has asked
    /// for it.
    fn upstream_feed(&mut self) -> Option<&mut LiveRelay> {
        let id = self.upstream_live?;
        self.contents[id.index()].feed.as_mut()
    }

    fn on_live_header(&mut self, net: &mut impl Transport<Wire>, _now: u64, h: Box<StreamHeader>) {
        let node = self.node;
        let Some(feed) = self.upstream_feed() else {
            return;
        };
        feed.header = Some(h.clone());
        for sub in feed.subs.iter_mut().filter(|s| !s.header_sent) {
            (sub.pacer, sub.header_sent) = greet(net, node, sub.client, Some(&h));
        }
    }

    fn on_live_data(&mut self, _now: u64, p: DataPacket) {
        let Some(feed) = self.upstream_feed() else {
            return;
        };
        let size = feed
            .header
            .as_ref()
            .map_or(1500, |h| u64::from(h.props.packet_size));
        feed.packets.push(p);
        self.metrics.upstream_bytes_received += size;
    }

    fn on_live_script(&mut self, c: ScriptCommand) {
        if let Some(feed) = self.upstream_feed() {
            feed.scripts.push(c);
        }
    }

    fn on_live_eos(&mut self) {
        if let Some(feed) = self.upstream_feed() {
            feed.ended = true;
        }
    }

    fn on_not_found(&mut self, net: &mut impl Transport<Wire>, name: &str) {
        if let Some(id) = self.cache.resolve(name) {
            self.abandon(net, id);
        }
    }

    /// The origin does not know `content` (or its fetch budget ran out):
    /// pass the verdict on to every waiting session and drop them.
    fn abandon(&mut self, net: &mut impl Transport<Wire>, content: ContentId) {
        let name = self.cache.name(content);
        for s in &self.sessions {
            if s.content == content {
                let _ = net.send_reliable(self.node, s.client, 32, Wire::NotFound(name.into()));
            }
        }
        self.sessions.retain(|s| s.content != content);
        self.contents[content.index()].inflight.clear();
    }

    /// Sends everything due at `now`: cached VoD packets per session, live
    /// fan-out per subscriber, and segment fetches for whatever is about
    /// to be needed.
    pub fn poll(&mut self, net: &mut impl Transport<Wire>, now: u64) {
        self.poll_vod(net, now);
        self.poll_live(net, now);
    }

    fn poll_vod(&mut self, net: &mut impl Transport<Wire>, now: u64) {
        // Re-drive sessions still waiting on the origin (no header yet, or
        // a pending time anchor): the fetch gate dedups, paces the
        // retries, and eventually abandons them. Without this, a fetch
        // lost on a dark uplink would never be re-issued.
        let mut waiting: Vec<(ContentId, Option<u64>, bool)> = Vec::new();
        for s in &self.sessions {
            if s.eos_sent || s.playhead.is_paused() {
                continue;
            }
            let has_meta = self.contents[s.content.index()].meta.is_some();
            if let Some(at) = s.pending_time {
                waiting.push((s.content, Some(at), !has_meta));
            } else if !s.header_sent && !has_meta {
                waiting.push((s.content, None, true));
            }
        }
        for (content, at, want_header) in waiting {
            match at {
                Some(at) => self.request_time_resolved(net, now, content, at, want_header),
                None => self.request_segment(net, now, content, 0, want_header),
            }
        }
        // (content, segment) fetches decided while sessions are borrowed.
        let mut fetches: Vec<(ContentId, u32)> = Vec::new();
        let mut prefetches: Vec<(ContentId, u32)> = Vec::new();
        for s in &mut self.sessions {
            if s.playhead.is_paused() || s.eos_sent || !s.header_sent || s.pending_time.is_some() {
                continue;
            }
            let content = &self.contents[s.content.index()];
            let Some(meta) = &content.meta else {
                continue;
            };
            loop {
                if s.next_packet >= meta.total_packets {
                    if let Some((_, Some(ctx))) = s.fanout.take() {
                        let (node, peer) = (self.node.index() as u64, s.client.index() as u64);
                        self.obs.span(now, false, node, peer, "fan_out", ctx);
                    }
                    let _ = net.send_reliable(self.node, s.client, 16, Wire::EndOfStream);
                    s.eos_sent = true;
                    break;
                }
                let seg_idx = s.next_packet / meta.segment_packets;
                if s.counted_seg != Some(seg_idx) {
                    // One recorded cache lookup per (session, segment):
                    // resident → hit; fetch already in flight → coalesced
                    // hit; otherwise a miss that triggers the pull.
                    if self.cache.peek_id(s.content, seg_idx).is_some() {
                        let _ = self.cache.get_id(s.content, seg_idx);
                        self.obs.emit(
                            now,
                            Event::CacheHit {
                                node: self.node.index() as u64,
                                segment: u64::from(seg_idx),
                            },
                        );
                    } else if content.inflight.contains_key(&seg_idx) {
                        self.cache.record_coalesced_hit();
                        self.obs.emit(
                            now,
                            Event::CacheCoalesced {
                                node: self.node.index() as u64,
                                segment: u64::from(seg_idx),
                            },
                        );
                    } else {
                        let _ = self.cache.get_id(s.content, seg_idx); // records the miss
                        self.obs.emit(
                            now,
                            Event::CacheMiss {
                                node: self.node.index() as u64,
                                segment: u64::from(seg_idx),
                            },
                        );
                        fetches.push((s.content, seg_idx));
                    }
                    s.counted_seg = Some(seg_idx);
                    if self.prefetch && seg_idx + 1 < meta.total_segments {
                        prefetches.push((s.content, seg_idx + 1));
                    }
                }
                let Some(seg) = self.cache.peek_id(s.content, seg_idx) else {
                    // Not resident: in flight, lost upstream, or evicted
                    // under pressure. Always re-ask — the fetch gate
                    // swallows the call while the outstanding request is
                    // inside its patience window and paces the retries
                    // after it.
                    fetches.push((s.content, seg_idx));
                    break;
                };
                if s.fanout.map(|(i, _)| i) != Some(seg_idx) {
                    // Sampling is evaluated once per (session, segment),
                    // and only here — after `peek` proved the segment
                    // resident — so "fan_out" never opens before the
                    // origin's "packetize" span on a cache miss. A
                    // sampled segment gets one reliable [`Wire::Mark`]
                    // ahead of its data packets: the client books its
                    // spans off the marker and the per-packet hot path
                    // stays untraced.
                    let (node, peer) = (self.node.index() as u64, s.client.index() as u64);
                    if let Some((_, Some(prev))) = s.fanout.take() {
                        self.obs.span(now, false, node, peer, "fan_out", prev);
                    }
                    let mut ctx = None;
                    if self.trace_permille > 0
                        && sampled(content.lecture, u64::from(seg_idx), self.trace_permille)
                    {
                        self.trace_seq += 1;
                        let c = TraceCtx {
                            lecture: content.lecture,
                            segment: u64::from(seg_idx),
                            seq: self.trace_seq,
                            origin: now,
                        };
                        self.obs.span(now, true, node, peer, "fan_out", c);
                        let mark = Wire::Mark(c);
                        let bytes = mark.wire_bytes(0);
                        let _ = net.send_reliable(self.node, s.client, bytes, mark);
                        ctx = Some(c);
                    }
                    s.fanout = Some((seg_idx, ctx));
                }
                let offset = (s.next_packet - seg.base_packet) as usize;
                let Some(p) = seg.packets.get(offset) else {
                    break; // short final segment; total_packets guards EOS
                };
                if !s.playhead.is_due(p.send_time, now) {
                    break;
                }
                if net.first_hop_backlog(self.node, s.client).unwrap_or(0) > self.backlog_limit {
                    break;
                }
                let wire_bytes = u64::from(meta.packet_size);
                if !s.pacer.try_consume(wire_bytes, now) {
                    break;
                }
                let packet = p.clone();
                let _ = net.send(self.node, s.client, wire_bytes, Wire::Data(packet));
                self.metrics.payload_bytes_sent += wire_bytes;
                s.next_packet += 1;
            }
        }
        self.sessions.retain(|s| !s.eos_sent);
        for (content, segment) in fetches {
            self.request_segment(net, now, content, segment, false);
        }
        for (content, segment) in prefetches {
            if self.cache.peek_id(content, segment).is_none()
                && !self.contents[content.index()]
                    .inflight
                    .contains_key(&segment)
            {
                self.metrics.prefetches += 1;
                self.request_segment(net, now, content, segment, false);
            }
        }
    }

    fn poll_live(&mut self, net: &mut impl Transport<Wire>, now: u64) {
        for feed in self.contents.iter_mut().filter_map(|c| c.feed.as_mut()) {
            let packet_size = feed
                .header
                .as_ref()
                .map_or(1500, |h| u64::from(h.props.packet_size));
            for sub in &mut feed.subs {
                if sub.eos_sent || !sub.header_sent || sub.playhead.is_paused() {
                    continue;
                }
                while sub.next_script < feed.scripts.len() {
                    let msg = Wire::Script(feed.scripts[sub.next_script].clone());
                    let bytes = msg.wire_bytes(packet_size as u32);
                    let _ = net.send_reliable(self.node, sub.client, bytes, msg);
                    sub.next_script += 1;
                }
                while sub.next_packet < feed.packets.len() {
                    let p = &feed.packets[sub.next_packet];
                    if p.send_time < sub.start_from {
                        sub.next_packet += 1;
                        continue; // late joiner skips the past
                    }
                    if net.first_hop_backlog(self.node, sub.client).unwrap_or(0)
                        > self.backlog_limit
                    {
                        break;
                    }
                    if !sub.pacer.try_consume(packet_size, now) {
                        break;
                    }
                    let _ = net.send(self.node, sub.client, packet_size, Wire::Data(p.clone()));
                    self.metrics.payload_bytes_sent += packet_size;
                    sub.next_packet += 1;
                }
                if feed.ended && sub.next_packet >= feed.packets.len() {
                    let _ = net.send_reliable(self.node, sub.client, 16, Wire::EndOfStream);
                    sub.eos_sent = true;
                }
            }
            feed.subs.retain(|s| !s.eos_sent);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lod_simnet::Network;
    use lod_simnet::{relay_tree, LinkSpec, RelayTree};
    use lod_streaming::{StreamingClient, StreamingServer};

    fn test_file(samples: usize, spacing: u64) -> lod_asf::AsfFile {
        let bytes_per_sample = (400_000u64 / 8) * spacing / 10_000_000;
        let mut pk = lod_asf::Packetizer::new(256).unwrap();
        for i in 0..samples as u64 {
            pk.push(&lod_asf::MediaSample::new(
                1,
                i * spacing,
                vec![7; bytes_per_sample.max(16) as usize],
            ));
        }
        let mut f = lod_asf::AsfFile {
            props: lod_asf::FileProperties {
                file_id: 1,
                created: 0,
                packet_size: 256,
                play_duration: samples as u64 * spacing,
                preroll: 2 * spacing,
                broadcast: false,
                max_bitrate: 500_000,
            },
            streams: vec![lod_asf::StreamProperties {
                number: 1,
                kind: lod_asf::StreamKind::Video,
                codec: 4,
                bitrate: 400_000,
                name: "v".into(),
            }],
            script: lod_asf::ScriptCommandList::new(),
            drm: None,
            packets: pk.finish(),
            index: None,
        };
        f.build_index(spacing);
        f
    }

    /// Drives origin + one relay + clients until all clients finish.
    fn drive(
        net: &mut impl Transport<Wire>,
        origin: &mut StreamingServer,
        relay: &mut RelayNode,
        clients: &mut [&mut StreamingClient],
        horizon: u64,
    ) {
        for c in clients.iter_mut() {
            c.start(net);
        }
        let mut now = 0u64;
        while now <= horizon {
            origin.poll(net, now);
            relay.poll(net, now);
            for d in net.poll(now) {
                if d.dst == origin.node() {
                    origin.on_message(net, d.time, d.src, d.message);
                } else if d.dst == relay.node() {
                    relay.on_message(net, d.time, d.src, d.message);
                } else if let Some(c) = clients.iter_mut().find(|c| c.node() == d.dst) {
                    c.on_message(d.time, d.message);
                }
            }
            for c in clients.iter_mut() {
                c.tick(now);
                c.poll_redirect(net);
            }
            if clients.iter().all(|c| c.is_done()) {
                break;
            }
            now += 1_000_000;
        }
    }

    fn world(students: usize) -> (Network<Wire>, RelayTree, StreamingServer, RelayNode) {
        let mut net = Network::new(21);
        // Unit tests exercise the relay logic, not bandwidth limits, so
        // every hop is a LAN; the q8 experiment constrains the uplink.
        let tree = relay_tree(
            &mut net,
            LinkSpec::lan(),
            LinkSpec::lan(),
            LinkSpec::lan(),
            1,
            students,
        );
        let mut origin = StreamingServer::new(tree.origin).with_segment_packets(128);
        origin.publish("lec", test_file(50, 2_000_000));
        let mut relay = RelayNode::new(tree.relays[0], tree.origin, 8 << 20);
        relay.serve_vod("lec");
        (net, tree, origin, relay)
    }

    #[test]
    fn vod_session_plays_through_relay() {
        let (mut net, tree, mut origin, mut relay) = world(1);
        let mut client = StreamingClient::new(tree.students[0], relay.node(), "lec");
        drive(
            &mut net,
            &mut origin,
            &mut relay,
            &mut [&mut client],
            600_000_000_000,
        );
        assert!(client.is_done(), "state: {:?}", client.state());
        assert_eq!(client.metrics().samples_rendered, 50);
        assert_eq!(client.metrics().stalls, 0, "{:?}", client.metrics());
        assert!(relay.metrics().segment_fetches > 0);
    }

    #[test]
    fn concurrent_students_share_one_uplink_pull() {
        let (mut net, tree, mut origin, mut relay) = world(4);
        let mut clients: Vec<StreamingClient> = tree
            .students
            .iter()
            .map(|&s| StreamingClient::new(s, relay.node(), "lec"))
            .collect();
        let mut refs: Vec<&mut StreamingClient> = clients.iter_mut().collect();
        drive(
            &mut net,
            &mut origin,
            &mut relay,
            &mut refs,
            600_000_000_000,
        );
        assert!(clients.iter().all(|c| c.is_done()));
        // ~2000 packets at 128 per segment ≈ 16 segments; coalescing must
        // keep origin pulls near one per segment, far under 4 students ×
        // 16 segments.
        let origin_metrics = origin.metrics();
        assert!(
            origin_metrics.segments_served <= 24,
            "origin served {} segments for 4 students",
            origin_metrics.segments_served
        );
        let stats = relay.cache().stats();
        assert!(
            stats.hit_rate() >= 0.5,
            "sharing should make most lookups hits: {stats:?}"
        );
    }

    #[test]
    fn relay_answers_unknown_content_with_not_found() {
        let (mut net, tree, mut origin, mut relay) = world(1);
        let mut client = StreamingClient::new(tree.students[0], relay.node(), "nope");
        drive(
            &mut net,
            &mut origin,
            &mut relay,
            &mut [&mut client],
            60_000_000_000,
        );
        assert!(client.is_done());
        assert_eq!(client.metrics().samples_rendered, 0);
    }

    #[test]
    fn origin_not_found_propagates_to_waiting_session() {
        let (mut net, tree, mut origin, mut relay) = world(1);
        relay.serve_vod("ghost"); // relay believes; origin knows better
        let mut client = StreamingClient::new(tree.students[0], relay.node(), "ghost");
        drive(
            &mut net,
            &mut origin,
            &mut relay,
            &mut [&mut client],
            60_000_000_000,
        );
        assert!(client.is_done());
        assert_eq!(client.metrics().samples_rendered, 0);
        assert_eq!(relay.session_count(), 0);
    }

    #[test]
    fn replies_for_unserved_content_leave_no_state() {
        let (mut net, tree, _origin, mut relay) = world(1);
        let file = test_file(50, 2_000_000);
        let reply = |content: String, segment: u32| {
            Wire::Segment(SegmentData {
                content,
                segment,
                base_packet: 0,
                total_packets: file.packets.len() as u32,
                total_segments: 1,
                segment_packets: file.packets.len() as u32,
                packet_size: file.props.packet_size,
                packets: file.packets.clone(),
                header: Some(Box::new(StreamHeader::of(&file, 0))),
                start_packet: None,
                at_time: None,
                epoch: 0,
                trace: None,
            })
        };
        let mut wire_bytes = 0;
        for i in 0..20u32 {
            let msg = reply(format!("unserved-{i}"), i);
            if let Wire::Segment(seg) = &msg {
                wire_bytes += seg.wire_bytes();
            }
            relay.on_message(&mut net, 0, tree.origin, msg);
        }
        assert_eq!(relay.cache().len(), 0);
        assert_eq!(relay.cache().stats(), Default::default());
        assert_eq!(relay.metrics().upstream_bytes_received, wire_bytes);
        // A served content's reply is still cached.
        relay.on_message(&mut net, 0, tree.origin, reply("lec".into(), 0));
        assert_eq!(relay.cache().len(), 1);
    }

    #[test]
    fn lost_fetches_are_retried_until_the_uplink_heals() {
        use lod_simnet::{FaultInjector, FaultPlan};
        let (mut net, tree, mut origin, mut relay) = world(1);
        let mut client = StreamingClient::new(tree.students[0], relay.node(), "lec");
        // The origin uplink is dark for the first 8 s: the opening fetch
        // (and its first retries) vanish; only the paced re-issues after
        // the heal can start the session.
        let plan = FaultPlan::new().link_down(0, 80_000_000, tree.origin, tree.router);
        let mut inj = FaultInjector::new(plan);
        client.start(&mut net);
        let mut now = 0u64;
        while now <= 600_000_000_000 && !client.is_done() {
            inj.poll(&mut net, now);
            origin.poll(&mut net, now);
            relay.poll(&mut net, now);
            for d in net.advance_to(now) {
                if d.dst == origin.node() {
                    origin.on_message(&mut net, d.time, d.src, d.message);
                } else if d.dst == relay.node() {
                    relay.on_message(&mut net, d.time, d.src, d.message);
                } else {
                    client.on_message(d.time, d.message);
                }
            }
            client.tick(now);
            now += 1_000_000;
        }
        assert!(client.is_done(), "state: {:?}", client.state());
        assert_eq!(client.metrics().samples_rendered, 50);
        let m = relay.metrics();
        assert!(m.fetch_retries >= 1, "{m:?}");
        assert_eq!(m.fetch_give_ups, 0, "{m:?}");
    }

    #[test]
    fn exhausted_fetch_budget_abandons_the_session() {
        let (mut net, tree, mut origin, mut relay) = world(1);
        // A stingy policy against a permanently dark uplink.
        relay = relay.with_fetch_retry(
            RetryPolicy {
                request_timeout: 5_000_000,
                base_backoff: 1_000_000,
                max_backoff: 4_000_000,
                max_retries: 2,
            },
            11,
        );
        net.set_link_up(tree.origin, tree.router, false);
        net.set_link_up(tree.router, tree.origin, false);
        let mut client = StreamingClient::new(tree.students[0], relay.node(), "lec");
        drive(
            &mut net,
            &mut origin,
            &mut relay,
            &mut [&mut client],
            60_000_000_000,
        );
        assert!(client.is_done(), "NotFound must terminate the client");
        assert_eq!(client.metrics().samples_rendered, 0);
        assert_eq!(relay.session_count(), 0);
        let m = relay.metrics();
        assert_eq!(m.fetch_give_ups, 1, "{m:?}");
        assert_eq!(m.fetch_retries, 2, "{m:?}");
    }

    #[test]
    fn breaker_opens_on_dark_uplink_then_probe_recovers() {
        use lod_simnet::{FaultInjector, FaultPlan};
        let (mut net, tree, mut origin, mut relay) = world(1);
        relay = relay
            .with_fetch_retry(
                RetryPolicy {
                    request_timeout: 5_000_000,
                    base_backoff: 2_000_000,
                    max_backoff: 8_000_000,
                    max_retries: 30,
                },
                11,
            )
            .with_breaker(BreakerPolicy {
                failure_threshold: 3,
                open_ticks: 50_000_000,
            });
        // The origin is unreachable for 15 s: three unanswered fetches
        // trip the breaker, the half-open probes fail until the heal, and
        // the first probe after it restarts the session — all without
        // exhausting the (ample) retry budget.
        let plan = FaultPlan::new().link_down(0, 150_000_000, tree.origin, tree.router);
        let mut inj = FaultInjector::new(plan);
        let mut client = StreamingClient::new(tree.students[0], relay.node(), "lec");
        client.start(&mut net);
        let mut now = 0u64;
        while now <= 600_000_000_000 && !client.is_done() {
            inj.poll(&mut net, now);
            origin.poll(&mut net, now);
            relay.poll(&mut net, now);
            for d in net.advance_to(now) {
                if d.dst == origin.node() {
                    origin.on_message(&mut net, d.time, d.src, d.message);
                } else if d.dst == relay.node() {
                    relay.on_message(&mut net, d.time, d.src, d.message);
                } else {
                    client.on_message(d.time, d.message);
                }
            }
            client.tick(now);
            now += 1_000_000;
        }
        assert!(client.is_done(), "state: {:?}", client.state());
        assert_eq!(client.metrics().samples_rendered, 50);
        let m = relay.metrics();
        assert!(m.breaker_opens >= 2, "open + failed probe re-opens: {m:?}");
        assert!(m.fetches_suppressed >= 1, "{m:?}");
        assert_eq!(m.fetch_give_ups, 0, "breaker must spare the budget: {m:?}");
    }

    #[test]
    fn relay_admission_bounces_then_readmits() {
        let (mut net, tree, mut origin, mut relay) = world(2);
        relay = relay.with_admission(AdmissionPolicy::new(1, 10_000_000));
        let mut a = StreamingClient::new(tree.students[0], relay.node(), "lec");
        let mut b = StreamingClient::new(tree.students[1], relay.node(), "lec");
        // Seat `a` first so `b` is deterministically the bounced client.
        a.start(&mut net);
        let mut now = 0u64;
        while relay.session_count() == 0 {
            origin.poll(&mut net, now);
            relay.poll(&mut net, now);
            for d in net.advance_to(now) {
                if d.dst == relay.node() {
                    relay.on_message(&mut net, d.time, d.src, d.message);
                }
            }
            now += 1_000_000;
        }
        b.start(&mut net);
        while now <= 600_000_000_000 && !(a.is_done() && b.is_done()) {
            origin.poll(&mut net, now);
            relay.poll(&mut net, now);
            for d in net.advance_to(now) {
                if d.dst == origin.node() {
                    origin.on_message(&mut net, d.time, d.src, d.message);
                } else if d.dst == relay.node() {
                    relay.on_message(&mut net, d.time, d.src, d.message);
                } else if d.dst == a.node() {
                    a.on_message(d.time, d.message);
                } else {
                    b.on_message(d.time, d.message);
                }
            }
            a.tick(now);
            b.tick(now);
            b.poll_busy(&mut net, now);
            now += 1_000_000;
        }
        assert!(a.is_done() && b.is_done());
        assert!(b.metrics().busy_bounces >= 1, "{:?}", b.metrics());
        assert!(!b.is_shed(), "the freed seat must readmit b");
        assert_eq!(a.metrics().samples_rendered, 50);
        assert_eq!(b.metrics().samples_rendered, 50);
        assert!(relay.metrics().sessions_shed >= 1);
    }

    /// Steps origin and relay from `from` to `to` (inclusive, 100 ms
    /// apart), delivering what reaches them; whatever is addressed to a
    /// student is dropped.
    fn step(
        net: &mut Network<Wire>,
        origin: &mut StreamingServer,
        relay: &mut RelayNode,
        from: u64,
        to: u64,
    ) {
        for now in (from..=to).step_by(1_000_000) {
            origin.poll(net, now);
            relay.poll(net, now);
            for d in net.advance_to(now) {
                if d.dst == origin.node() {
                    origin.on_message(net, d.time, d.src, d.message);
                } else if d.dst == relay.node() {
                    relay.on_message(net, d.time, d.src, d.message);
                }
            }
        }
    }

    /// The relay twin of the origin's test: pause at 1 s, seek to 4 s at
    /// 100 s, resume at 101 s, and the relay sends again within a second.
    #[test]
    fn seek_while_paused_resumes_at_the_seek_target() {
        let (mut net, tree, mut origin, mut relay) = world(1);
        let student = tree.students[0];
        let req = |r| Wire::Request(r);
        let play = ControlRequest::Play {
            content: "lec".into(),
            from: 0,
        };
        relay.on_message(&mut net, 0, student, req(play));
        step(&mut net, &mut origin, &mut relay, 0, 9_000_000);
        relay.on_message(&mut net, 10_000_000, student, req(ControlRequest::Pause));
        step(&mut net, &mut origin, &mut relay, 10_000_000, 999_000_000);
        let seek = ControlRequest::Seek { to: 40_000_000 };
        relay.on_message(&mut net, 1_000_000_000, student, req(seek));
        step(
            &mut net,
            &mut origin,
            &mut relay,
            1_000_000_000,
            1_009_000_000,
        );
        relay.on_message(
            &mut net,
            1_010_000_000,
            student,
            req(ControlRequest::Resume),
        );
        let before = relay.metrics().payload_bytes_sent;
        step(
            &mut net,
            &mut origin,
            &mut relay,
            1_010_000_000,
            1_020_000_000,
        );
        assert!(
            relay.metrics().payload_bytes_sent > before,
            "nothing sent in the second after the resume"
        );
    }

    /// A paused student on a relay's live re-broadcast receives no data
    /// until it resumes, like a paused student of the origin.
    #[test]
    fn paused_live_subscriber_receives_nothing_until_resume() {
        let mut net = Network::new(5);
        let tree = relay_tree(
            &mut net,
            LinkSpec::lan(),
            LinkSpec::lan(),
            LinkSpec::lan(),
            1,
            1,
        );
        let student = tree.students[0];
        let mut origin = StreamingServer::new(tree.origin);
        let base = test_file(30, 2_000_000);
        origin.publish_live(
            "talk",
            lod_streaming::LiveFeed::new(StreamHeader::of(&base, 0)),
        );
        let mut relay = RelayNode::new(tree.relays[0], tree.origin, 1 << 20);
        relay.serve_live("talk");
        let play = ControlRequest::Play {
            content: "talk".into(),
            from: 0,
        };
        relay.on_message(&mut net, 0, student, Wire::Request(play));
        step(&mut net, &mut origin, &mut relay, 0, 10_000_000);
        let pause = Wire::Request(ControlRequest::Pause);
        relay.on_message(&mut net, 10_000_000, student, pause);
        for p in base.packets.iter().cloned() {
            origin.live_feed("talk").unwrap().push(p);
        }
        step(&mut net, &mut origin, &mut relay, 11_000_000, 100_000_000);
        assert!(
            relay.metrics().upstream_bytes_received > 0,
            "the feed reached the relay"
        );
        assert_eq!(relay.metrics().payload_bytes_sent, 0, "paused: no data");
        let resume = Wire::Request(ControlRequest::Resume);
        relay.on_message(&mut net, 101_000_000, student, resume);
        step(&mut net, &mut origin, &mut relay, 101_000_000, 110_000_000);
        assert!(
            relay.metrics().payload_bytes_sent > 0,
            "resumed: data flows"
        );
    }

    /// The origin and a relay under one admission policy refuse at the
    /// same boundary: the (max_sessions+1)-th seat, and the first seat
    /// whose nominal bitrate would exceed `capacity_bps`.
    #[test]
    fn origin_and_relay_refuse_at_the_same_boundary() {
        // The lecture costs 500 kbit/s: 3 seats fit 1.5 Mbit/s, 4 do not.
        for (policy, admitted) in [
            (AdmissionPolicy::new(2, 100_000_000), 2),
            (AdmissionPolicy::new(64, 1_500_000), 3),
            (AdmissionPolicy::new(64, 1_499_999), 2),
        ] {
            let (mut net, tree, origin, relay) = world(5);
            let mut origin = origin.with_admission(policy);
            let mut relay = relay.with_admission(policy);
            // The relay learns the lecture's bitrate from its first
            // segment; seed that through a seat-free fetch.
            let lec = relay.cache.resolve("lec").unwrap();
            relay.request_segment(&mut net, 0, lec, 0, true);
            step(&mut net, &mut origin, &mut relay, 0, 10_000_000);
            let play = || {
                Wire::Request(ControlRequest::Play {
                    content: "lec".into(),
                    from: 0,
                })
            };
            for &s in &tree.students {
                origin.on_message(&mut net, 20_000_000, s, play());
                relay.on_message(&mut net, 20_000_000, s, play());
            }
            assert_eq!(origin.session_count(), admitted, "origin under {policy:?}");
            assert_eq!(relay.session_count(), admitted, "relay under {policy:?}");
            let shed = (tree.students.len() - admitted) as u64;
            assert_eq!(origin.metrics().sessions_shed, shed);
            assert_eq!(relay.metrics().sessions_shed, shed);
        }
    }

    #[test]
    #[should_panic(expected = "backlog limit must be positive")]
    fn zero_backlog_limit_is_rejected() {
        let mut net: Network<Wire> = Network::new(1);
        let r = net.add_node("relay");
        let o = net.add_node("origin");
        let _ = RelayNode::new(r, o, 1 << 20).with_backlog_limit(0);
    }

    #[test]
    fn live_fan_out_subscribes_upstream_once() {
        let mut net = Network::new(5);
        let tree = relay_tree(
            &mut net,
            LinkSpec::lan(),
            LinkSpec::lan(),
            LinkSpec::lan(),
            1,
            3,
        );
        let mut origin = StreamingServer::new(tree.origin);
        let base = test_file(30, 2_000_000);
        let header = StreamHeader {
            props: base.props.clone(),
            streams: base.streams.clone(),
            script: lod_asf::ScriptCommandList::new(),
            drm: None,
            epoch: 0,
        };
        origin.publish_live("talk", lod_streaming::LiveFeed::new(header));
        let mut relay = RelayNode::new(tree.relays[0], tree.origin, 1 << 20);
        relay.serve_live("talk");
        let mut clients: Vec<StreamingClient> = tree
            .students
            .iter()
            .map(|&s| StreamingClient::new(s, relay.node(), "talk"))
            .collect();
        for c in clients.iter_mut() {
            c.start(&mut net);
        }
        let mut now = 0u64;
        let media = base.packets.clone();
        let mut fed = false;
        let mut ended = false;
        while now < 600_000_000_000 && !clients.iter().all(|c| c.is_done()) {
            if now >= 10_000_000 && !fed {
                for p in media.clone() {
                    origin.live_feed("talk").unwrap().push(p);
                }
                origin
                    .live_feed("talk")
                    .unwrap()
                    .push_script(lod_asf::ScriptCommand::new(20_000_000, "slide", "s1.png"));
                fed = true;
            }
            if now >= 70_000_000_000 && !ended {
                origin.live_feed("talk").unwrap().end();
                ended = true;
            }
            origin.poll(&mut net, now);
            relay.poll(&mut net, now);
            for d in net.advance_to(now) {
                if d.dst == origin.node() {
                    origin.on_message(&mut net, d.time, d.src, d.message);
                } else if d.dst == relay.node() {
                    relay.on_message(&mut net, d.time, d.src, d.message);
                } else if let Some(c) = clients.iter_mut().find(|c| c.node() == d.dst) {
                    c.on_message(d.time, d.message);
                }
            }
            for c in clients.iter_mut() {
                c.tick(now);
            }
            now += 1_000_000;
        }
        assert!(clients.iter().all(|c| c.is_done()));
        for c in &clients {
            assert!(c.metrics().samples_rendered > 0, "{:?}", c.metrics());
        }
        // One upstream subscription, not one per student.
        assert_eq!(origin.metrics().live_subscribers, 1);
        assert_eq!(relay.metrics().live_subscribers, 3);
    }

    #[test]
    fn sampled_segment_yields_causal_waterfall_across_nodes() {
        use lod_obs::{check_causal, SpanAssembler};
        let obs = Recorder::new();
        let mut net = Network::new(21);
        let tree = relay_tree(
            &mut net,
            LinkSpec::lan(),
            LinkSpec::lan(),
            LinkSpec::lan(),
            1,
            1,
        );
        let mut origin = StreamingServer::new(tree.origin)
            .with_segment_packets(128)
            .with_recorder(obs.clone());
        origin.publish("lec", test_file(50, 2_000_000));
        let mut relay = RelayNode::new(tree.relays[0], tree.origin, 8 << 20)
            .with_recorder(obs.clone())
            .with_trace_permille(1000);
        relay.serve_vod("lec");
        let mut client =
            StreamingClient::new(tree.students[0], relay.node(), "lec").with_recorder(obs.clone());
        drive(
            &mut net,
            &mut origin,
            &mut relay,
            &mut [&mut client],
            600_000_000_000,
        );
        assert!(client.is_done(), "state: {:?}", client.state());

        let events = obs.events();
        let causal = check_causal(&events);
        assert!(causal.holds(), "{causal:?}");
        assert!(causal.spans_opened > 0);

        let mut asm = SpanAssembler::new();
        for rec in &events {
            asm.ingest(rec);
        }
        let trace = asm
            .trace(Some(lecture_id("lec")), 0)
            .expect("segment 0 is sampled at 1000 permille");
        let hops: Vec<&str> = trace.spans.iter().map(|r| r.hop.as_str()).collect();
        for hop in [
            "relay_fetch",
            "packetize",
            "fan_out",
            "reassemble",
            "playout_wait",
        ] {
            assert!(hops.contains(&hop), "missing {hop} in {hops:?}");
        }
        assert!(
            trace.end_to_end() > 0,
            "waterfall should span fetch → playout: {trace:?}"
        );
    }

    #[test]
    fn zero_permille_relay_emits_no_spans() {
        let obs = Recorder::new();
        let mut net = Network::new(21);
        let tree = relay_tree(
            &mut net,
            LinkSpec::lan(),
            LinkSpec::lan(),
            LinkSpec::lan(),
            1,
            1,
        );
        let mut origin = StreamingServer::new(tree.origin)
            .with_segment_packets(128)
            .with_recorder(obs.clone());
        origin.publish("lec", test_file(50, 2_000_000));
        let mut relay =
            RelayNode::new(tree.relays[0], tree.origin, 8 << 20).with_recorder(obs.clone());
        relay.serve_vod("lec");
        let mut client =
            StreamingClient::new(tree.students[0], relay.node(), "lec").with_recorder(obs.clone());
        drive(
            &mut net,
            &mut origin,
            &mut relay,
            &mut [&mut client],
            600_000_000_000,
        );
        assert!(client.is_done());
        // Without a minting relay no context ever enters the wire, so no
        // component emits a single span — the plane is pay-for-play.
        assert!(obs
            .events()
            .iter()
            .all(|r| !matches!(r.event, Event::SpanOpen { .. } | Event::SpanClose { .. })));
    }
}
