//! End-to-end WMPS sessions: record → publish → serve → replay.
//!
//! This is the system of Figs. 5–7 wired together: the publisher turns a
//! lecture into an ASF file; the streaming server serves it to student
//! clients over the simulated network; a live classroom runs the encoder
//! in real time and relays to everyone watching.

use lod_asf::{AsfError, AsfFile};
use lod_encoder::{BandwidthProfile, BroadcastConfig, LiveEncoder, Publisher};
use lod_media::Ticks;
use lod_obs::{Recorder, TICK_BOUNDS};
use lod_player::SkewStats;
use lod_relay::{
    CacheStats, FailoverConfig, HeartbeatMonitor, RedirectManager, RelayMetrics, RelayNode,
};
use lod_simnet::{
    relay_tree, Fault, FaultInjector, FaultPlan, FaultTarget, LinkSpec, Network, NodeId, RelayTree,
};
use lod_streaming::{
    AdmissionPolicy, BreakerPolicy, ClientMetrics, DegradePolicy, LiveFeed, RetryPolicy,
    ServerMetrics, SessionLedger, StreamHeader, StreamingClient, StreamingServer, Wire,
};
use serde::{Deserialize, Serialize};

use crate::loopback::SocketReport;
use crate::presentation::Lecture;
use crate::tier::{Fabric, Standby, Tier};

/// Quality outcome of one served replay.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WmpsReport {
    /// Per-client streaming metrics.
    pub clients: Vec<ClientMetrics>,
    /// Per-client skew of rendered items against each client's own playout
    /// anchor (how well the presentation held together).
    pub skew: Vec<SkewStats>,
    /// Spread of each slide flip across clients: for every script command
    /// rendered by at least two clients, the wall-time gap between the
    /// first and last client to show it — the "distributed platforms"
    /// synchronization the paper's ETPN is about.
    pub classroom_spread: SkewStats,
    /// Wall ticks the whole session took.
    pub session_ticks: u64,
    /// Origin server service counters.
    pub server: ServerMetrics,
    /// Bytes the origin pushed onto its uplink (all outbound links).
    pub origin_egress_bytes: u64,
    /// Relay-tier outcome when the session ran through edge relays.
    pub relay: Option<RelayTierReport>,
    /// Duration in ticks of every client outage the retry layer recovered
    /// from, across all clients in wall-time order per client. Empty when
    /// nothing went wrong (or no retry policy was armed).
    pub recoveries: Vec<u64>,
    /// Fault strikes the chaos plan actually applied to the network.
    pub faults_applied: u64,
    /// Warm-standby failover outcome (present iff
    /// [`RelayTierConfig::failover`] was armed).
    pub failover: Option<FailoverReport>,
    /// Socket counters, present iff the run was on real sockets
    /// ([`crate::serve_loopback_udp`]).
    #[serde(skip)]
    pub socket: Option<SocketReport>,
}

/// Outcome of the warm-standby tier for one session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FailoverReport {
    /// Tick the standby was promoted at (`None` = the origin never died).
    pub promoted_at: Option<u64>,
    /// Fencing epoch the cluster ended the run at.
    pub epoch: u64,
    /// Checkpointed sessions the standby restored at promotion.
    pub sessions_migrated: u64,
    /// Journal entries replicated origin → standby over the whole run.
    pub checkpoints_replicated: u64,
    /// Headers/segments delivered after promotion that still carried a
    /// pre-promotion fencing epoch. The split-brain gate: must be 0.
    pub stale_epoch_replies: u64,
    /// The standby server's own service counters (its
    /// `plays_from_zero` must stay 0: every migrated session resumes
    /// from its checkpointed horizon).
    pub standby: ServerMetrics,
}

/// Aggregate outcome of the edge-relay tier for one session.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RelayTierReport {
    /// Segment-cache accounting summed over every relay.
    pub cache: CacheStats,
    /// Service counters summed over every relay.
    pub metrics: RelayMetrics,
    /// Students re-homed by the failure drill (0 without one).
    pub reattached: usize,
}

impl WmpsReport {
    /// Worst rebuffer ratio across clients for a playback of
    /// `playback_ticks`.
    pub fn worst_rebuffer(&self, playback_ticks: u64) -> f64 {
        self.clients
            .iter()
            .map(|c| c.rebuffer_ratio(playback_ticks))
            .fold(0.0, f64::max)
    }

    /// Integer twin of [`WmpsReport::worst_rebuffer`]: the worst
    /// client's stalled ticks per thousand ticks of playback. Seeded
    /// experiment reports print this one — per-mille division is
    /// byte-stable where float formatting is not.
    pub fn worst_rebuffer_permille(&self, playback_ticks: u64) -> u64 {
        self.clients
            .iter()
            .map(|c| c.rebuffer_permille(playback_ticks))
            .max()
            .unwrap_or(0)
    }

    /// Sessions that rendered media and were never abandoned by the
    /// retry layer — the "students who actually saw the lecture" count
    /// the chaos experiments grade on.
    pub fn completed_sessions(&self) -> usize {
        self.clients
            .iter()
            .filter(|c| c.samples_rendered > 0 && !c.abandoned)
            .count()
    }

    /// Clients explicitly refused with [`Wire::Busy`] until their bounce
    /// budget ran out — turned away at the door, not dropped mid-lecture.
    pub fn shed_clients(&self) -> usize {
        self.clients.iter().filter(|c| c.shed).count()
    }

    /// Sessions that neither completed nor were explicitly shed: silent
    /// timeouts and zero-render finishes — exactly the failure mode the
    /// admit → degrade → shed ladder exists to eliminate.
    pub fn hard_failures(&self) -> usize {
        self.clients
            .iter()
            .filter(|c| !c.shed && (c.abandoned || c.samples_rendered == 0))
            .count()
    }

    /// Sessions the origin downshifted at least once (server-side count).
    pub fn degraded_sessions(&self) -> u64 {
        self.server.sessions_degraded
    }

    /// p95 of [`WmpsReport::recoveries`] in ticks (0 when none).
    pub fn p95_recovery_ticks(&self) -> u64 {
        if self.recoveries.is_empty() {
            return 0;
        }
        let mut sorted = self.recoveries.clone();
        sorted.sort_unstable();
        sorted[(sorted.len() - 1) * 95 / 100]
    }
}

/// Folds a finished run's counters into the recorder's metrics
/// registry: the exported rows of the origin role's [`ServerMetrics`]
/// (the primary's, plus the standby's when failover is armed) and of
/// the relays' merged [`RelayMetrics`] and [`CacheStats`] (each table
/// names its own), whole-run gauges, and startup/stall/recovery
/// histograms over [`TICK_BOUNDS`]. A disabled recorder makes every
/// call a no-op.
fn publish_run_metrics(obs: &Recorder, report: &WmpsReport) {
    if !obs.is_enabled() {
        return;
    }
    let mut origin = report.server;
    if let Some(fo) = &report.failover {
        origin += fo.standby;
    }
    origin.publish(obs);
    if let Some(tier) = &report.relay {
        tier.metrics.publish(obs);
        tier.cache.publish(obs);
        obs.gauge_set("lod_students_reattached", tier.reattached as u64);
    }
    if let Some(fo) = &report.failover {
        obs.counter_add(
            "lod_standby_checkpoints_replicated_total",
            fo.checkpoints_replicated,
        );
        obs.counter_add("lod_standby_sessions_migrated_total", fo.sessions_migrated);
        obs.counter_add(
            "lod_server_checkpoints_emitted_total",
            origin.checkpoints_emitted,
        );
        obs.gauge_set("lod_stale_epoch_replies", fo.stale_epoch_replies);
        obs.gauge_set("lod_failover_epoch", fo.epoch);
    }
    obs.gauge_set("lod_sessions_completed", report.completed_sessions() as u64);
    obs.gauge_set("lod_clients_shed", report.shed_clients() as u64);
    obs.gauge_set("lod_hard_failures", report.hard_failures() as u64);
    obs.gauge_set("lod_session_ticks", report.session_ticks);
    obs.gauge_set("lod_faults_applied", report.faults_applied);
    obs.gauge_set("lod_origin_egress_bytes", report.origin_egress_bytes);
    for m in &report.clients {
        if m.samples_rendered > 0 {
            obs.observe("lod_startup_ticks", &TICK_BOUNDS, m.startup_ticks);
        }
        obs.observe("lod_stall_ticks", &TICK_BOUNDS, m.stall_ticks);
    }
    for &dur in &report.recoveries {
        obs.observe("lod_recovery_ticks", &TICK_BOUNDS, dur);
    }
}

/// [`WmpsReport::skew`] and [`WmpsReport::classroom_spread`] out of the
/// ledger the driver kept while the session ran.
fn skew_report(ledger: &SessionLedger) -> (Vec<SkewStats>, SkewStats) {
    (
        ledger.client_skews().map(SkewStats::from_skews).collect(),
        SkewStats::from_skews(ledger.script_spreads()),
    )
}

/// The horizon a stored lecture of `play_duration` ticks is driven to:
/// far past any stall a surviving session can accumulate.
pub(crate) fn vod_horizon(play_duration: u64) -> u64 {
    play_duration * 20 + 600_000_000_000
}

/// The report of a finished run on either fabric. `session_ticks` is the
/// caller's to say: the last render for stored content, the stop tick
/// for live.
pub(crate) fn session_report<F: Fabric>(tier: &Tier<F>, session_ticks: u64) -> WmpsReport {
    let (skew, classroom_spread) = skew_report(&tier.ledger);
    let mut cache = CacheStats::default();
    let mut metrics = RelayMetrics::default();
    for r in &tier.relays {
        cache += r.cache().stats();
        metrics += r.metrics();
    }
    let report = WmpsReport {
        clients: tier.clients.iter().map(|c| *c.metrics()).collect(),
        skew,
        classroom_spread,
        session_ticks,
        server: tier.origin.metrics(),
        origin_egress_bytes: tier.fabric.egress_bytes(tier.origin.node()),
        relay: tier.redirect.is_some().then_some(RelayTierReport {
            cache,
            metrics,
            reattached: tier.reattached,
        }),
        recoveries: tier
            .clients
            .iter()
            .flat_map(|c| c.recovery_log().iter().map(|&(_, dur)| dur))
            .collect(),
        faults_applied: tier.faults_applied,
        failover: tier.standby.as_ref().map(|sb| {
            let standby = sb.server.metrics();
            FailoverReport {
                promoted_at: tier.promoted_at,
                epoch: sb.server.epoch(),
                sessions_migrated: standby.sessions_migrated,
                checkpoints_replicated: tier.checkpoints_replicated,
                stale_epoch_replies: tier.stale_epoch_replies,
                standby,
            }
        }),
        socket: None,
    };
    publish_run_metrics(&tier.obs, &report);
    report
}

/// Builds the relay tier of `tree` on `fabric`, on either fabric: the
/// one place the origin, the optional warm standby (on `standby`, present
/// iff `cfg.failover` is armed), the relays, the [`RedirectManager`] and
/// the students are made. Students address the origin and retry with a
/// per-student salt off `seed`; `cfg.arrival_wave` staggers their start.
/// `segment_packets` overrides the servers' segment length (`None` = the
/// server's default). Every node is labelled in `cfg.recorder`.
pub(crate) fn relay_tier<F: Fabric>(
    fabric: F,
    tree: &RelayTree,
    standby: Option<NodeId>,
    file: AsfFile,
    seed: u64,
    cfg: &RelayTierConfig,
    segment_packets: Option<u32>,
) -> Tier<F> {
    let obs = &cfg.recorder;
    obs.label_node(tree.origin.index() as u64, "origin");
    obs.label_node(tree.router.index() as u64, "router");
    for (i, r) in tree.relays.iter().enumerate() {
        obs.label_node(r.index() as u64, &format!("relay{i}"));
    }
    for (i, s) in tree.students.iter().enumerate() {
        obs.label_node(s.index() as u64, &format!("student{i}"));
    }
    // The origin and its warm standby are one recipe: same catalog,
    // same knobs; the standby only adds `as_standby`.
    let server_on = |node: NodeId, file: AsfFile| {
        let mut server = StreamingServer::new(node).with_recorder(obs.clone());
        if let Some(n) = segment_packets {
            server = server.with_segment_packets(n);
        }
        if let Some(adm) = cfg.origin_admission {
            server = server.with_admission(adm);
        }
        if let Some(deg) = cfg.degrade {
            server = server.with_degrade(deg);
        }
        if let Some(f) = cfg.failover {
            server = server.with_checkpointing(f.checkpoint_every);
        }
        for &r in &tree.relays {
            // A relay's one shared fetch/live subscription must never
            // be bounced: shedding it would shed a whole campus.
            server.exempt_from_admission(r);
        }
        server.publish("lecture", file);
        server
    };
    // The standby applies the replicated checkpoint journal every driver
    // step and answers nothing until promoted (Plays bounce toward the
    // primary).
    let standby = standby.zip(cfg.failover).map(|(sb, f)| {
        obs.label_node(sb.index() as u64, "standby");
        Standby {
            server: server_on(sb, file.clone()).as_standby(),
            monitor: HeartbeatMonitor::new(sb, tree.origin, f).with_recorder(obs.clone()),
        }
    });
    let origin = server_on(tree.origin, file);
    let clients = tree
        .students
        .iter()
        .enumerate()
        .map(|(i, &c)| {
            let client = StreamingClient::new(c, tree.origin, "lecture").with_recorder(obs.clone());
            match cfg.client_retry {
                // Per-student salt: distinct jitter streams, same seed
                // → same storm of retries on every run.
                Some(policy) => client.with_retry(
                    policy,
                    seed.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                ),
                None => client,
            }
        })
        .collect();
    let mut tier = Tier::new(fabric, origin, clients);
    tier.standby = standby;
    tier.relays = tree
        .relays
        .iter()
        .map(|&r| {
            let mut relay = RelayNode::new(r, tree.origin, cfg.cache_budget)
                .with_prefetch(cfg.prefetch)
                .with_recorder(obs.clone())
                .with_trace_permille(cfg.trace_permille);
            if let Some(adm) = cfg.relay_admission {
                relay = relay.with_admission(adm);
            }
            if let Some(b) = cfg.breaker {
                relay = relay.with_breaker(b);
            }
            relay.serve_vod("lecture");
            relay
        })
        .collect();
    let mut redirect = RedirectManager::new(tree.origin, tree.relays.clone());
    if let Some(seats) = cfg.relay_capacity_sessions {
        redirect = redirect.with_relay_capacity(seats);
    }
    tier.redirect = Some(redirect);
    // Arrival schedule: all at 0, or a flash crowd in waves.
    if let Some((wave, interval)) = cfg.arrival_wave {
        for (i, at) in tier.start_at.iter_mut().enumerate() {
            *at = (i / wave.max(1)) as u64 * interval;
        }
    }
    tier.obs = obs.clone();
    tier
}

/// A scripted fault storm for the relay tier on either fabric
/// ([`Wmps::serve_with_relays`], [`crate::serve_loopback_udp`]), written
/// in terms of *roles* (student i, relay j, the uplink) rather than
/// [`lod_simnet::NodeId`]s, because the nodes are built inside the call.
/// Resolved against the concrete topology into a [`FaultPlan`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosSpec {
    /// `(at, duration, loss_permille)` — every student's access link
    /// degrades to the given loss for the window (the campus wifi
    /// brownout).
    pub access_loss_bursts: Vec<(u64, u64, u16)>,
    /// `(at, duration, student)` — one student's access link goes fully
    /// dark (cable yanked); their client must ride it out and resume.
    pub access_flaps: Vec<(u64, u64, usize)>,
    /// `(at, duration, relay)` — an edge relay crashes; its students are
    /// re-homed by the redirect manager. `u64::MAX` duration = permanent.
    pub relay_crashes: Vec<(u64, u64, usize)>,
    /// `(at, duration)` — the origin↔router uplink is severed; relays
    /// must serve from cache and pace their fetch retries until it heals.
    pub uplink_partitions: Vec<(u64, u64)>,
    /// `(at, duration, extra_ticks)` — added propagation delay on the
    /// uplink (congested backbone), stretching fetch round-trips.
    pub uplink_latency_spikes: Vec<(u64, u64, u64)>,
    /// `(at, duration)` — the origin node itself crashes (volatile
    /// session state lost); the warm standby detects the silence and is
    /// promoted. Requires [`RelayTierConfig::failover`] to be armed.
    /// `u64::MAX` duration = the origin never heals.
    pub origin_down: Vec<(u64, u64)>,
}

impl ChaosSpec {
    /// True when the spec schedules nothing.
    pub fn is_empty(&self) -> bool {
        *self == Self::default()
    }

    /// Binds the symbolic storm to a concrete topology. Out-of-range
    /// student/relay indices are skipped (a storm written for 4 relays
    /// still runs on 2).
    pub fn resolve(&self, tree: &RelayTree) -> FaultPlan {
        let mut plan = FaultPlan::new();
        for &(at, dur, loss) in &self.access_loss_bursts {
            for &s in &tree.students {
                plan = plan.loss_burst(at, dur, tree.router, s, loss);
            }
        }
        for &(at, dur, idx) in &self.access_flaps {
            if let Some(&s) = tree.students.get(idx) {
                plan = plan.link_down(at, dur, tree.router, s);
            }
        }
        for &(at, dur, idx) in &self.relay_crashes {
            if let Some(&r) = tree.relays.get(idx) {
                plan = plan.node_down(at, dur, r);
            }
        }
        for &(at, dur) in &self.uplink_partitions {
            plan = plan.link_down(at, dur, tree.origin, tree.router);
        }
        for &(at, dur, extra) in &self.uplink_latency_spikes {
            plan = plan.latency_spike(at, dur, tree.origin, tree.router, extra);
        }
        for &(at, dur) in &self.origin_down {
            plan = plan.node_down(at, dur, tree.origin);
        }
        plan
    }
}

impl RelayTierConfig {
    /// Why the tier cannot be deployed, on either fabric: killing the
    /// origin without a standby is a configuration error, not a drill.
    pub(crate) fn check(&self) -> Result<(), &'static str> {
        if self.chaos.origin_down.is_empty() || self.failover.is_some() {
            return Ok(());
        }
        Err(
            "ChaosSpec::origin_down requires RelayTierConfig::failover: \
             arm a FailoverConfig so a warm standby exists to take over",
        )
    }
}

/// Runs a tier [`relay_tier`] built for `tree` to `horizon` under
/// `cfg.chaos`, on either fabric: the injector strikes and heals the
/// storm on the fabric before every step, a crashed relay has its
/// students re-homed, and a crashed origin loses its volatile sessions.
pub(crate) fn run_relay_tier<F: Fabric + FaultTarget>(
    tier: &mut Tier<F>,
    tree: &RelayTree,
    cfg: &RelayTierConfig,
    horizon: u64,
) {
    let mut injector =
        FaultInjector::new(cfg.chaos.resolve(tree)).with_recorder(cfg.recorder.clone());
    tier.run(horizon, |tier, now| {
        for fault in injector.poll(&mut tier.fabric, now) {
            tier.faults_applied += 1;
            // A crashed relay strands its students until the redirect
            // manager re-homes them; the wire is already dark, so the
            // redirects ride out from the (healthy) front server.
            if let Fault::NodeDown { node } = fault {
                if tree.relays.contains(&node) {
                    let redirect = tier.redirect.as_mut().expect("relay tiers redirect");
                    let front = tier.fabric.net(redirect.origin());
                    tier.reattached += redirect.fail_relay(front, node).len();
                } else if node == tree.origin {
                    // The crash wipes the origin's volatile session
                    // state; only the journal already replicated to the
                    // standby survives it.
                    tier.origin.crash();
                }
            }
        }
        true
    });
}

/// Configuration of the edge-relay tier, on simnet
/// ([`Wmps::serve_with_relays`]) or on sockets
/// ([`crate::serve_loopback_udp`]).
#[derive(Debug, Clone)]
pub struct RelayTierConfig {
    /// Number of edge relays between the origin and the students.
    pub relays: usize,
    /// Link between the campus router and each relay.
    pub relay_link: LinkSpec,
    /// Per-relay segment-cache budget in bytes.
    pub cache_budget: u64,
    /// Pull the next segment ahead of need.
    pub prefetch: bool,
    /// Scripted fault storm applied during the session (empty = calm).
    pub chaos: ChaosSpec,
    /// Arm every client with this retry policy (salted per student off
    /// the session seed, so runs stay byte-for-byte reproducible).
    pub client_retry: Option<RetryPolicy>,
    /// Admission budget at the origin (relays are exempted — their
    /// shared live/fetch traffic is the tier's whole point).
    pub origin_admission: Option<AdmissionPolicy>,
    /// Admission budget at every relay; refused students bounce with
    /// [`Wire::Busy`] and the redirect manager steers them to the
    /// least-loaded sibling before they are shed.
    pub relay_admission: Option<AdmissionPolicy>,
    /// Graceful degradation at the origin: sustained backlog downshifts
    /// sessions one [`BandwidthProfile`] rung instead of stalling them.
    pub degrade: Option<DegradePolicy>,
    /// Circuit breaker on every relay's upstream fetch path.
    pub breaker: Option<BreakerPolicy>,
    /// Seats per relay the redirect manager steers into (`None` =
    /// unbounded). Size this to `relay_admission.max_sessions`.
    pub relay_capacity_sessions: Option<usize>,
    /// Flash-crowd arrivals: `(wave_size, interval)` starts students in
    /// waves of `wave_size` every `interval` ticks instead of all at 0.
    pub arrival_wave: Option<(usize, u64)>,
    /// Warm-standby origin failover: adds a standby server behind the
    /// router, replicates session checkpoints to it every driver step,
    /// and promotes it (fencing epoch bump, relays re-pointed, clients
    /// re-homed) when the heartbeat monitor declares the origin dead.
    /// Required for [`ChaosSpec::origin_down`].
    pub failover: Option<FailoverConfig>,
    /// Structured event sink shared by the origin, every relay, every
    /// client and the fault injector. Disabled by default (a free
    /// no-op); arm with [`Recorder::new`] to capture the run's event
    /// log, metrics registry and per-session timelines.
    pub recorder: Recorder,
    /// Per-mille of segments whose delivery is traced end-to-end
    /// (relays mint the contexts; 0 = tracing off, 1000 = every
    /// segment). Spans land in `recorder`, so arm it too.
    pub trace_permille: u16,
}

impl Default for RelayTierConfig {
    fn default() -> Self {
        Self {
            relays: 4,
            relay_link: LinkSpec::lan(),
            cache_budget: 64 << 20,
            prefetch: true,
            chaos: ChaosSpec::default(),
            client_retry: None,
            origin_admission: None,
            relay_admission: None,
            degrade: None,
            breaker: None,
            relay_capacity_sessions: None,
            arrival_wave: None,
            failover: None,
            recorder: Recorder::disabled(),
            trace_permille: 0,
        }
    }
}

/// The top-level system facade.
#[derive(Debug, Clone)]
pub struct Wmps {
    packet_size: u32,
    preroll: lod_media::TickDuration,
}

impl Wmps {
    /// A system with the default 1400-byte packets and 2 s client preroll.
    pub fn new() -> Self {
        Self {
            packet_size: 1_400,
            preroll: lod_media::TickDuration::from_secs(2),
        }
    }

    /// Overrides the packet size.
    pub fn with_packet_size(mut self, packet_size: u32) -> Self {
        self.packet_size = packet_size;
        self
    }

    /// Overrides the client preroll recorded in published files.
    pub fn with_preroll(mut self, preroll: lod_media::TickDuration) -> Self {
        self.preroll = preroll;
        self
    }

    /// Fig. 5: publish a recorded lecture into one synchronized ASF file.
    ///
    /// # Errors
    ///
    /// Propagates packetization errors for absurd packet sizes.
    pub fn publish(&self, lecture: &Lecture) -> Result<AsfFile, AsfError> {
        let mut publisher = Publisher::new(self.packet_size);
        publisher.preroll(self.preroll);
        publisher.publish(&lecture.video, &lecture.deck, &lecture.annotations)
    }

    /// Serves `file` to `n_clients` over `link` and replays to completion.
    pub fn serve_and_replay(
        &self,
        file: AsfFile,
        link: LinkSpec,
        n_clients: usize,
        seed: u64,
    ) -> WmpsReport {
        self.serve_with_topology(file, n_clients, seed, |net, s, clients| {
            for &c in clients {
                net.connect_bidirectional(s, c, link);
            }
        })
    }

    /// Serves `file` to `n_clients` sitting behind one shared `uplink`
    /// (server → campus router) with per-student `access` links — the
    /// topology a real lecture server faces.
    pub fn serve_shared_uplink(
        &self,
        file: AsfFile,
        uplink: LinkSpec,
        access: LinkSpec,
        n_clients: usize,
        seed: u64,
    ) -> WmpsReport {
        self.serve_with_topology(file, n_clients, seed, |net, s, clients| {
            let router = net.add_node("router");
            net.connect(s, router, uplink);
            net.connect(router, s, uplink);
            for &c in clients {
                net.connect(router, c, access);
                net.connect(c, router, access);
                net.set_next_hop(s, c, router);
                net.set_next_hop(c, s, router);
            }
        })
    }

    /// Serves `file` through an edge-relay tier: origin → campus router →
    /// `cfg.relays` relays, with every student behind the router on its
    /// own `access` link. Students address the origin; a
    /// [`RedirectManager`] answers each Play with the least-loaded relay,
    /// which pulls segments across the `uplink` once and fans them out
    /// locally. A relay that `cfg.chaos.relay_crashes` kills mid-lecture
    /// has its students re-attached to a surviving sibling.
    pub fn serve_with_relays(
        &self,
        file: AsfFile,
        uplink: LinkSpec,
        access: LinkSpec,
        n_clients: usize,
        seed: u64,
        cfg: &RelayTierConfig,
    ) -> WmpsReport {
        if let Err(why) = cfg.check() {
            panic!("{why}");
        }
        let horizon = vod_horizon(file.props.play_duration);
        let mut net: Network<Wire> = Network::new(seed);
        let tree = relay_tree(
            &mut net,
            uplink,
            cfg.relay_link,
            access,
            cfg.relays,
            n_clients,
        );
        // The standby sits behind the router like the origin does.
        let standby = cfg.failover.map(|_| {
            let sb = net.add_node("standby");
            net.connect_bidirectional(sb, tree.router, uplink);
            for p in (0..sb.index()).map(NodeId::from_index) {
                if p != tree.router {
                    net.set_next_hop(sb, p, tree.router);
                    net.set_next_hop(p, sb, tree.router);
                }
            }
            sb
        });
        let mut tier = relay_tier(net, &tree, standby, file, seed, cfg, None);
        run_relay_tier(&mut tier, &tree, cfg, horizon);
        session_report(&tier, tier.ledger.last_wall_time())
    }

    fn serve_with_topology(
        &self,
        file: AsfFile,
        n_clients: usize,
        seed: u64,
        wire_up: impl FnOnce(&mut Network<Wire>, NodeId, &[NodeId]),
    ) -> WmpsReport {
        let horizon = vod_horizon(file.props.play_duration);
        let mut net: Network<Wire> = Network::new(seed);
        let s = net.add_node("server");
        let mut server = StreamingServer::new(s);
        server.publish("lecture", file);
        let nodes: Vec<NodeId> = (0..n_clients)
            .map(|i| net.add_node(format!("student{i}")))
            .collect();
        wire_up(&mut net, s, &nodes);
        let clients = nodes
            .into_iter()
            .map(|c| StreamingClient::new(c, s, "lecture"))
            .collect();
        let mut tier = Tier::new(net, server, clients);
        tier.run(horizon, |_, _| true);
        session_report(&tier, tier.ledger.last_wall_time())
    }

    /// The live classroom: a teacher encodes `secs` seconds of lecture in
    /// real time; `n_clients` students watch the broadcast.
    pub fn live_classroom(
        &self,
        profile: BandwidthProfile,
        secs: u64,
        n_clients: usize,
        link: LinkSpec,
        seed: u64,
    ) -> WmpsReport {
        self.live_classroom_with_slides(profile, secs, n_clients, link, seed, &[])
    }

    /// The live classroom where the teacher also flips slides mid-
    /// broadcast: `slides` are `(presentation time, slide uri)` pairs
    /// pushed into the live stream as script commands at their times
    /// ("Script commands can be added to live streams", §2.1).
    pub fn live_classroom_with_slides(
        &self,
        profile: BandwidthProfile,
        secs: u64,
        n_clients: usize,
        link: LinkSpec,
        seed: u64,
        slides: &[(u64, String)],
    ) -> WmpsReport {
        let commands: Vec<lod_asf::ScriptCommand> = slides
            .iter()
            .map(|(t, uri)| lod_asf::ScriptCommand::new(*t, "slide", uri.clone()))
            .collect();
        self.live_classroom_with_script(profile, secs, n_clients, link, seed, &commands)
    }

    /// The live classroom with an arbitrary script-command schedule pushed
    /// into the live stream at each command's time.
    pub fn live_classroom_with_script(
        &self,
        profile: BandwidthProfile,
        secs: u64,
        n_clients: usize,
        link: LinkSpec,
        seed: u64,
        commands: &[lod_asf::ScriptCommand],
    ) -> WmpsReport {
        let mut encoder = LiveEncoder::new(
            BroadcastConfig::new("http://wmps.example/live"),
            profile,
            self.packet_size,
        );
        let header = StreamHeader {
            props: encoder.file_properties(),
            streams: encoder.stream_properties(),
            script: encoder.script(),
            drm: None,
            epoch: 0,
        };
        let mut net: Network<Wire> = Network::new(seed);
        let s = net.add_node("server");
        let mut server = StreamingServer::new(s);
        server.publish_live("live", LiveFeed::new(header));
        let clients = (0..n_clients)
            .map(|i| {
                let c = net.add_node(format!("student{i}"));
                net.connect_bidirectional(s, c, link);
                StreamingClient::new(c, s, "live")
            })
            .collect();
        let mut tier = Tier::new(net, server, clients);

        let live_end = secs * 10_000_000;
        let mut commands = commands.to_vec();
        commands.sort_by_key(|c| c.time);
        let mut commands = commands.into_iter().peekable();
        let mut ended = false;
        let stopped_at = tier.run(live_end * 4 + 600_000_000_000, |tier, now| {
            let feed = tier.origin.live_feed("live").expect("feed published");
            if now <= live_end {
                for p in encoder.pump(Ticks(now)) {
                    feed.push(p);
                }
                while let Some(cmd) = commands.next_if(|c| c.time <= now) {
                    feed.push_script(cmd);
                }
            } else if !ended {
                feed.end();
                ended = true;
            }
            ended
        });
        session_report(&tier, stopped_at)
    }
}

/// A student question for the floor-controlled Q&A.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Question {
    /// Asking user (0 = the teacher, who outranks everyone).
    pub user: usize,
    /// When the hand goes up, in ticks.
    pub at: u64,
    /// How long the speaker holds the floor.
    pub hold: u64,
    /// The question text.
    pub text: String,
}

/// Outcome of a Q&A classroom: the streaming report plus the floor log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QnaReport {
    /// The streaming session outcome.
    pub session: WmpsReport,
    /// The floor-control outcome (who spoke when).
    pub floor: crate::floor::FloorReport,
    /// Questions actually relayed to the class, in speak order.
    pub spoken: Vec<String>,
}

impl Wmps {
    /// A live classroom with floor-controlled Q&A: raised hands contend
    /// for the floor (teacher priority 10, students 0); each speaker's
    /// question is relayed to every listener as an annotation script
    /// command at the moment the floor is granted. This is §1's "floor
    /// control with multiple users" running inside the real streaming
    /// session.
    pub fn classroom_qna(
        &self,
        profile: BandwidthProfile,
        secs: u64,
        n_clients: usize,
        link: LinkSpec,
        seed: u64,
        questions: &[Question],
    ) -> QnaReport {
        use crate::floor::{run_floor, FloorRequest};
        let requests: Vec<FloorRequest> = questions
            .iter()
            .map(|q| FloorRequest {
                user: q.user,
                at: q.at,
                hold: q.hold,
                priority: if q.user == 0 { 10 } else { 0 },
            })
            .collect();
        let floor = run_floor(&requests);
        let commands: Vec<lod_asf::ScriptCommand> = floor
            .grants
            .iter()
            .map(|g| {
                let q = &questions[g.request];
                lod_asf::ScriptCommand::new(
                    g.granted_at,
                    "annotation",
                    format!("user {}: {}", q.user, q.text),
                )
            })
            .collect();
        let session =
            self.live_classroom_with_script(profile, secs, n_clients, link, seed, &commands);
        let spoken = commands.iter().map(|c| c.param.clone()).collect();
        QnaReport {
            session,
            floor,
            spoken,
        }
    }
}

impl Default for Wmps {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presentation::synthetic_lecture;
    use lod_asf::ScriptCommand;
    use lod_simnet::NodeId;
    use lod_streaming::RenderEvent;
    use proptest::prelude::*;

    /// Oracle for [`WmpsReport::classroom_spread`]: the post-pass over the
    /// whole event log that the ledger replaced.
    fn classroom_spread(events: &[RenderEvent]) -> SkewStats {
        use std::collections::HashMap;
        let mut groups: HashMap<(u64, &str), Vec<u64>> = HashMap::new();
        for e in events {
            if let Some(cmd) = &e.script {
                groups
                    .entry((e.pres_time, cmd.param.as_str()))
                    .or_default()
                    .push(e.wall_time);
            }
        }
        let spreads: Vec<u64> = groups
            .values()
            .filter(|walls| walls.len() >= 2)
            .map(|walls| walls.iter().max().unwrap() - walls.iter().min().unwrap())
            .collect();
        SkewStats::from_skews(spreads)
    }

    /// Oracle for [`WmpsReport::skew`]: one scan of the whole event log per
    /// client, anchoring each at its best-timed item.
    fn per_client_skew(clients: &[StreamingClient], events: &[RenderEvent]) -> Vec<SkewStats> {
        clients
            .iter()
            .map(|c| {
                let mine: Vec<_> = events.iter().filter(|e| e.client == c.node()).collect();
                let anchor = mine
                    .iter()
                    .map(|e| e.wall_time.saturating_sub(e.pres_time))
                    .min()
                    .unwrap_or(0);
                SkewStats::from_skews(
                    mine.iter()
                        .map(|e| e.wall_time.abs_diff(anchor + e.pres_time))
                        .collect(),
                )
            })
            .collect()
    }

    proptest! {
        /// The ledger's one-pass report is bit-equal to the oracles on
        /// any event set: events of nodes that are no client, clients
        /// that rendered nothing or only script commands, items rendered
        /// before their presentation time.
        #[test]
        fn ledger_report_matches_the_event_log_oracles(
            raw in proptest::collection::vec(
                (0usize..8, 0u64..5_000, 0u64..5_000, 0u8..6),
                0..200,
            ),
            script_only in 1usize..6,
        ) {
            let node = NodeId::from_index;
            // Nodes 1..=5 are clients; 0, 6 and 7 are strangers.
            let clients: Vec<StreamingClient> = (1..=5)
                .map(|i| StreamingClient::new(node(i), node(0), "lecture"))
                .collect();
            let events: Vec<RenderEvent> = raw
                .into_iter()
                .map(|(n, wall_time, pres_time, kind)| RenderEvent {
                    wall_time,
                    client: node(n),
                    stream: 1,
                    // Few distinct firing times, so commands collide.
                    pres_time: if kind < 3 { pres_time % 4 } else { pres_time },
                    bytes: 0,
                    script: (kind < 3 || n == script_only)
                        .then(|| ScriptCommand::new(pres_time % 4, "slide", format!("s{kind}"))),
                })
                .collect();
            let mut ledger = SessionLedger::new(clients.iter().map(|c| c.node()));
            for e in &events {
                ledger.record(e.clone());
            }
            let (skew, spread) = skew_report(&ledger);
            prop_assert_eq!(skew, per_client_skew(&clients, &events));
            prop_assert_eq!(spread, classroom_spread(&events));
            prop_assert_eq!(
                ledger.last_wall_time(),
                events.iter().map(|e| e.wall_time).max().unwrap_or(0)
            );
        }
    }

    #[test]
    fn publish_then_serve_on_lan() {
        let lecture = synthetic_lecture(1, 1, 300_000); // 1 minute
        let wmps = Wmps::new();
        let file = wmps.publish(&lecture).unwrap();
        assert!(!file.packets.is_empty());
        assert!(!file.script.is_empty());
        let report = wmps.serve_and_replay(file, LinkSpec::lan(), 2, 3);
        assert_eq!(report.clients.len(), 2);
        for (i, m) in report.clients.iter().enumerate() {
            assert!(m.samples_rendered > 0, "client {i}: {m:?}");
            assert_eq!(m.stalls, 0, "client {i} stalled: {m:?}");
        }
        // Playout holds together within the 100 ms driver cadence plus
        // preroll jitter.
        for s in &report.skew {
            assert!(s.p95 <= 5_000_000, "p95 skew {}", s.p95);
        }
    }

    #[test]
    fn modem_link_degrades_quality() {
        let lecture = synthetic_lecture(2, 1, 300_000);
        let wmps = Wmps::new();
        let file = wmps.publish(&lecture).unwrap();
        let lan = wmps.serve_and_replay(file.clone(), LinkSpec::lan(), 1, 5);
        let modem = wmps.serve_and_replay(file, LinkSpec::modem(), 1, 5);
        let lan_m = &lan.clients[0];
        let modem_m = &modem.clients[0];
        assert!(
            modem_m.stalls > lan_m.stalls || modem_m.startup_ticks > lan_m.startup_ticks,
            "modem should be visibly worse: lan {lan_m:?} modem {modem_m:?}"
        );
    }

    #[test]
    fn qna_relays_questions_in_floor_order() {
        let second = 10_000_000u64;
        let questions = vec![
            Question {
                user: 1,
                at: 0,
                hold: 2 * second,
                text: "what is a marking?".into(),
            },
            Question {
                user: 2,
                at: second / 2,
                hold: 2 * second,
                text: "and a token?".into(),
            },
            // Teacher interjects: jumps the queue (not the current holder).
            Question {
                user: 0,
                at: second,
                hold: second,
                text: "good question".into(),
            },
        ];
        let report = Wmps::new().classroom_qna(
            BandwidthProfile::by_name("dual ISDN (128k)").unwrap(),
            12,
            3,
            LinkSpec::lan(),
            8,
            &questions,
        );
        // Floor order: user 1 (first), teacher (priority), user 2.
        assert_eq!(report.floor.grant_order(), [1, 0, 2]);
        assert_eq!(report.spoken.len(), 3);
        assert!(report.spoken[1].starts_with("user 0:"));
        // Every student finished the session.
        assert_eq!(report.session.clients.len(), 3);
        for m in &report.session.clients {
            assert!(m.samples_rendered > 0);
        }
        // All three annotations reached at least two clients together.
        assert_eq!(report.session.classroom_spread.count, 3);
    }

    #[test]
    fn relay_tier_serves_everyone_and_survives_failure() {
        let lecture = synthetic_lecture(1, 1, 300_000); // 1 minute
        let wmps = Wmps::new();
        let file = wmps.publish(&lecture).unwrap();
        let cfg = RelayTierConfig {
            relays: 2,
            chaos: ChaosSpec {
                // 10 s in (mid-lecture), for good.
                relay_crashes: vec![(100_000_000, u64::MAX, 0)],
                ..ChaosSpec::default()
            },
            ..RelayTierConfig::default()
        };
        let report = wmps.serve_with_relays(file, LinkSpec::lan(), LinkSpec::lan(), 4, 3, &cfg);
        assert_eq!(report.clients.len(), 4);
        for (i, m) in report.clients.iter().enumerate() {
            assert!(m.samples_rendered > 0, "client {i}: {m:?}");
        }
        let relay = report.relay.expect("relay tier ran");
        // Two relays, four students, balanced assignment: failing the
        // first relay re-homes its two students.
        assert_eq!(relay.reattached, 2);
        assert!(relay.metrics.segment_fetches > 0);
        assert!(relay.cache.lookups() > 0);
        // Students kept playing only through relays; the origin never
        // carried a media session itself.
        assert_eq!(report.server.sessions_served, 0);
        assert!(report.server.segments_served > 0);
    }

    #[test]
    fn chaos_storm_recovers_every_session() {
        let lecture = synthetic_lecture(1, 1, 300_000); // 1 minute
        let wmps = Wmps::new();
        let file = wmps.publish(&lecture).unwrap();
        let second = 10_000_000u64;
        let cfg = RelayTierConfig {
            relays: 2,
            chaos: ChaosSpec {
                // 5 s in: relay0 dies for good; its students re-home.
                relay_crashes: vec![(5 * second, u64::MAX, 0)],
                // 15 s in: the uplink vanishes for 2 s; caches carry it.
                uplink_partitions: vec![(15 * second, 2 * second)],
                // 20 s in: one student's cable is out for 3 s.
                access_flaps: vec![(20 * second, 3 * second, 1)],
                ..ChaosSpec::default()
            },
            client_retry: Some(RetryPolicy::client()),
            ..RelayTierConfig::default()
        };
        let report = wmps.serve_with_relays(file, LinkSpec::lan(), LinkSpec::lan(), 4, 11, &cfg);
        // Everyone finished despite the storm.
        assert_eq!(report.completed_sessions(), 4, "{:?}", report.clients);
        for m in &report.clients {
            assert!(!m.abandoned, "{m:?}");
        }
        // Each scheduled fault actually struck.
        assert_eq!(report.faults_applied, 3);
        let relay = report.relay.expect("relay tier ran");
        assert_eq!(relay.reattached, 2, "relay0's two students re-homed");
        // The severed access link forced the retry layer to act.
        assert!(
            report.clients.iter().any(|m| m.retries > 0),
            "{:?}",
            report.clients
        );
    }

    #[test]
    fn same_seed_same_chaos_outcome() {
        let lecture = synthetic_lecture(1, 1, 300_000);
        let wmps = Wmps::new();
        let file = wmps.publish(&lecture).unwrap();
        let second = 10_000_000u64;
        let cfg = RelayTierConfig {
            relays: 2,
            chaos: ChaosSpec {
                access_loss_bursts: vec![(2 * second, 5 * second, 50)],
                relay_crashes: vec![(5 * second, u64::MAX, 0)],
                ..ChaosSpec::default()
            },
            client_retry: Some(RetryPolicy::client()),
            ..RelayTierConfig::default()
        };
        let a = wmps.serve_with_relays(file.clone(), LinkSpec::lan(), LinkSpec::lan(), 4, 7, &cfg);
        let b = wmps.serve_with_relays(file, LinkSpec::lan(), LinkSpec::lan(), 4, 7, &cfg);
        assert_eq!(a, b, "chaos runs must be byte-for-byte reproducible");
    }

    #[test]
    fn overload_ladder_sheds_explicitly_and_replays_deterministically() {
        let lecture = synthetic_lecture(1, 1, 300_000); // 1 minute
        let wmps = Wmps::new();
        let file = wmps.publish(&lecture).unwrap();
        // 8 students charge 6 seats (2 relays × 2 + origin × 2) in two
        // waves: every student must either play or be told Busy — nobody
        // may vanish into a silent timeout.
        let cfg = RelayTierConfig {
            relays: 2,
            origin_admission: Some(AdmissionPolicy::new(2, 1_000_000_000)),
            relay_admission: Some(AdmissionPolicy::new(2, 1_000_000_000)),
            relay_capacity_sessions: Some(2),
            degrade: Some(DegradePolicy::default()),
            breaker: Some(BreakerPolicy::upstream()),
            arrival_wave: Some((4, 10_000_000)),
            client_retry: Some(RetryPolicy::client()),
            ..RelayTierConfig::default()
        };
        let a = wmps.serve_with_relays(file.clone(), LinkSpec::lan(), LinkSpec::lan(), 8, 7, &cfg);
        let b = wmps.serve_with_relays(file, LinkSpec::lan(), LinkSpec::lan(), 8, 7, &cfg);
        assert_eq!(a, b, "overload runs must be byte-for-byte reproducible");
        assert_eq!(a.hard_failures(), 0, "{:?}", a.clients);
        assert_eq!(
            a.completed_sessions() + a.shed_clients(),
            8,
            "every student either watched or was explicitly refused: {:?}",
            a.clients
        );
    }

    #[test]
    fn recorder_is_disabled_by_default() {
        assert!(!RelayTierConfig::default().recorder.is_enabled());
    }

    #[test]
    fn traced_relay_tier_assembles_causal_waterfalls() {
        let lecture = synthetic_lecture(1, 1, 300_000); // 1 minute
        let wmps = Wmps::new();
        let file = wmps.publish(&lecture).unwrap();
        let cfg = RelayTierConfig {
            relays: 2,
            recorder: Recorder::new(),
            trace_permille: 1000,
            ..RelayTierConfig::default()
        };
        let report = wmps.serve_with_relays(file, LinkSpec::lan(), LinkSpec::lan(), 4, 3, &cfg);
        assert_eq!(report.completed_sessions(), 4, "{:?}", report.clients);
        let events = cfg.recorder.events();
        let causal = lod_obs::check_causal(&events);
        assert!(causal.holds(), "{causal:?}");
        assert!(causal.spans_opened > 0);
        let mut asm = lod_obs::SpanAssembler::new();
        for rec in &events {
            asm.ingest(rec);
        }
        // At 1000‰ every segment is sampled; each trace reaches playout.
        let traces = asm.traces();
        assert!(!traces.is_empty());
        assert!(traces
            .iter()
            .all(|t| t.spans.iter().any(|s| s.hop == "playout_wait")));
    }

    #[test]
    #[should_panic(expected = "requires RelayTierConfig::failover")]
    fn origin_down_without_a_standby_is_rejected() {
        let lecture = synthetic_lecture(1, 1, 300_000);
        let wmps = Wmps::new();
        let file = wmps.publish(&lecture).unwrap();
        let cfg = RelayTierConfig {
            chaos: ChaosSpec {
                origin_down: vec![(10_000_000, u64::MAX)],
                ..ChaosSpec::default()
            },
            ..RelayTierConfig::default()
        };
        let _ = wmps.serve_with_relays(file, LinkSpec::lan(), LinkSpec::lan(), 2, 3, &cfg);
    }

    #[test]
    fn origin_failover_resumes_sessions_without_restarts() {
        let lecture = synthetic_lecture(1, 1, 300_000); // 1 minute
        let wmps = Wmps::new();
        let file = wmps.publish(&lecture).unwrap();
        let second = 10_000_000u64;
        // One seat per relay: two students stream via relays, two via
        // the origin itself — exactly the sessions a failover must
        // migrate. 10 s in, the origin dies for good.
        let cfg = RelayTierConfig {
            relays: 2,
            relay_capacity_sessions: Some(1),
            client_retry: Some(RetryPolicy::client()),
            chaos: ChaosSpec {
                origin_down: vec![(10 * second, u64::MAX)],
                ..ChaosSpec::default()
            },
            failover: Some(FailoverConfig::default()),
            recorder: Recorder::new(),
            ..RelayTierConfig::default()
        };
        let report =
            wmps.serve_with_relays(file.clone(), LinkSpec::lan(), LinkSpec::lan(), 4, 3, &cfg);
        assert_eq!(report.completed_sessions(), 4, "{:?}", report.clients);
        let fo = report.failover.expect("failover tier ran");
        assert!(fo.promoted_at.is_some(), "the standby must be promoted");
        assert_eq!(fo.epoch, 2, "one promotion past the primary's epoch 1");
        assert!(
            fo.sessions_migrated >= 2,
            "the origin-homed sessions must migrate: {fo:?}"
        );
        assert!(fo.checkpoints_replicated > 0);
        assert_eq!(fo.stale_epoch_replies, 0, "fencing must hold: {fo:?}");
        assert_eq!(
            fo.standby.plays_from_zero, 0,
            "every migrated session resumes from its horizon, never from 0: {fo:?}"
        );
        // The origin role's counters are the primary's plus the
        // standby's: what the standby served after promotion is exported.
        assert!(fo.standby.payload_bytes_sent > 0, "{fo:?}");
        assert_eq!(
            cfg.recorder
                .registry()
                .counter("lod_server_payload_bytes_total"),
            report.server.payload_bytes_sent + fo.standby.payload_bytes_sent
        );
        // The event log proves the causal story: misses herald the
        // promotion, and every migrated session had a prior checkpoint.
        let causal = lod_obs::check_causal(&cfg.recorder.events());
        assert!(causal.holds(), "{causal:?}");
        assert_eq!(causal.promotions, 1);
        // Same seed, same storm → byte-for-byte identical outcome.
        let cfg_b = RelayTierConfig {
            recorder: Recorder::new(),
            ..cfg.clone()
        };
        let b = wmps.serve_with_relays(file, LinkSpec::lan(), LinkSpec::lan(), 4, 3, &cfg_b);
        assert_eq!(report, b, "failover runs must be reproducible");
        assert_eq!(cfg.recorder.to_jsonl(), cfg_b.recorder.to_jsonl());
        // Every family the failover block adds is declared.
        for family in families(&cfg.recorder.prometheus()) {
            assert!(declared_names().contains(&family), "{family} is undeclared");
        }
    }

    /// Exposition names written outside the `counters!` tables: the
    /// report's derived gauges, the failover block, the histograms and
    /// the socket deployment's summed reorder depth.
    const HAND_WRITTEN: &[&str] = &[
        "lod_students_reattached",
        "lod_standby_checkpoints_replicated_total",
        "lod_standby_sessions_migrated_total",
        "lod_server_checkpoints_emitted_total",
        "lod_stale_epoch_replies",
        "lod_failover_epoch",
        "lod_sessions_completed",
        "lod_clients_shed",
        "lod_hard_failures",
        "lod_session_ticks",
        "lod_faults_applied",
        "lod_origin_egress_bytes",
        "lod_startup_ticks",
        "lod_stall_ticks",
        "lod_recovery_ticks",
        "transport_reorder_depth",
        // The recorder's own event counters and ring-loss gauge.
        "lod_events_total",
        "lod_events_dropped",
    ];

    /// Every name the seven counter tables export, then [`HAND_WRITTEN`].
    fn declared_names() -> Vec<&'static str> {
        use lod_transport::repair::{RepairRxStats, RepairTxStats};
        use lod_transport::{ReorderStats, TransportStats};
        [
            ServerMetrics::EXPORTED,
            RelayMetrics::EXPORTED,
            CacheStats::EXPORTED,
            TransportStats::EXPORTED,
            ReorderStats::EXPORTED,
            RepairTxStats::EXPORTED,
            RepairRxStats::EXPORTED,
            HAND_WRITTEN,
        ]
        .concat()
    }

    /// The metric families an exposition declares, in order.
    fn families(prom: &str) -> impl Iterator<Item = &str> {
        prom.lines()
            .filter_map(|l| l.strip_prefix("# TYPE "))
            .filter_map(|l| l.split(' ').next())
    }

    #[test]
    fn every_exported_name_is_written_once() {
        let names = declared_names();
        let mut seen = std::collections::BTreeSet::new();
        for name in &names {
            assert!(seen.insert(name), "{name} is declared twice");
        }
        assert!(names.contains(&"lod_cache_hits_total"));
        assert!(names.contains(&"transport_reorder_depth_peak"));
    }

    #[test]
    fn armed_recorder_logs_deterministically_and_causally() {
        let lecture = synthetic_lecture(1, 1, 300_000); // 1 minute
        let wmps = Wmps::new();
        let file = wmps.publish(&lecture).unwrap();
        let second = 10_000_000u64;
        // The full overload + chaos gauntlet: admission, degrade,
        // breaker, flash-crowd arrivals, a yanked cable — every emitter
        // in the system gets exercised.
        let run = |file: AsfFile| {
            let cfg = RelayTierConfig {
                relays: 2,
                origin_admission: Some(AdmissionPolicy::new(2, 1_000_000_000)),
                relay_admission: Some(AdmissionPolicy::new(2, 1_000_000_000)),
                relay_capacity_sessions: Some(2),
                degrade: Some(DegradePolicy::default()),
                breaker: Some(BreakerPolicy::upstream()),
                arrival_wave: Some((4, second)),
                client_retry: Some(RetryPolicy::client()),
                chaos: ChaosSpec {
                    access_flaps: vec![(2 * second, 3 * second, 1)],
                    ..ChaosSpec::default()
                },
                recorder: Recorder::new(),
                ..RelayTierConfig::default()
            };
            let report = wmps.serve_with_relays(file, LinkSpec::lan(), LinkSpec::lan(), 8, 7, &cfg);
            (report, cfg.recorder)
        };
        let (report_a, rec_a) = run(file.clone());
        let (report_b, rec_b) = run(file);

        // Same seed → byte-identical log and exposition.
        assert!(!rec_a.to_jsonl().is_empty());
        assert_eq!(rec_a.to_jsonl(), rec_b.to_jsonl());
        assert_eq!(rec_a.prometheus(), rec_b.prometheus());

        // The log survives a JSONL round trip.
        let events = rec_a.events();
        assert_eq!(
            lod_obs::parse_jsonl(&rec_a.to_jsonl()).unwrap(),
            events,
            "JSONL round trip"
        );

        // Causal invariants: no downshift without its backlog-high
        // herald, no recovery without its outage-start.
        let causal = lod_obs::check_causal(&events);
        assert!(causal.holds(), "{causal:?}");

        // The event log agrees with the aggregate counters: sheds per
        // refusing node sum to the server's and relays' own counts.
        let origin = rec_a.node_by_label("origin").expect("origin labelled");
        assert_eq!(causal.sheds_at(origin), report_a.server.sessions_shed);
        let relay_sheds = report_a.relay.as_ref().unwrap().metrics.sessions_shed;
        assert_eq!(
            causal.total_sheds(),
            report_a.server.sessions_shed + relay_sheds
        );

        // Every student left a timeline, and the registry carries the
        // run's aggregates.
        assert_eq!(lod_obs::session_timelines(&events).len(), 8);
        let registry = rec_a.registry();
        assert_eq!(
            registry.counter("lod_server_sessions_shed_total"),
            report_a.server.sessions_shed
        );
        assert_eq!(
            registry.counter("lod_relay_sessions_shed_total"),
            relay_sheds
        );
        assert_eq!(report_a.clients.len(), report_b.clients.len());
    }

    #[test]
    fn live_classroom_reaches_students() {
        let wmps = Wmps::new();
        let report = wmps.live_classroom(
            BandwidthProfile::by_name("dual ISDN (128k)").unwrap(),
            5,
            3,
            LinkSpec::lan(),
            9,
        );
        assert_eq!(report.clients.len(), 3);
        for m in &report.clients {
            assert!(m.samples_rendered > 0, "{m:?}");
        }
    }
}
