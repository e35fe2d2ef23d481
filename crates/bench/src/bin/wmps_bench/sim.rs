//! The four simulated-network workloads, each two ways.
//!
//! * **Facade** — the product's own driver (`Wmps::serve_with_relays`,
//!   `serve_and_replay`, `live_classroom_with_slides`), one call, timed
//!   whole. Every end-to-end timing comes from here, so work a later
//!   change saves inside the product's driver shows.
//! * **Mirror** — the benchmark's own copy of that driver, built from
//!   public functions only, with a span around every call into a node
//!   and a [`Timed`] network. It must reproduce the facade's
//!   `session_ticks`, `origin_egress_bytes` and per-client
//!   `samples_rendered` / `startup_ticks` exactly ([`check_mirror`]) or
//!   the run fails; given that, its spans and its accounting (whole-wire
//!   bytes, script-command skew) describe the facade run.

use std::time::Instant;

use lod_core::{RelayTierConfig, Wmps, WmpsReport};
use lod_encoder::{BroadcastConfig, LiveEncoder};
use lod_media::Ticks;
use lod_relay::{CacheStats, RedirectManager, RelayMetrics, RelayNode};
use lod_simnet::{relay_tree, LinkSpec, Network, NodeId};
use lod_streaming::{
    ClientMetrics, LiveFeed, RenderEvent, StreamHeader, StreamingClient, StreamingServer, Wire,
};
use lod_transport::Transport;

use crate::spans::{self, Span, Timed};
use crate::workloads::{
    live_profile, worst_skews_ms, Account, Input, Outcome, Workload, STEP, TICKS_PER_MS,
    TICKS_PER_S,
};

/// The origin's uplink in the relay workloads: LAN latency, 10 Mbit/s —
/// the scarce link the relay tier exists to spare.
fn uplink() -> LinkSpec {
    LinkSpec::lan().with_bandwidth(10_000_000)
}

/// Runs the product's driver for `input`'s workload, timed whole.
pub fn facade(input: &Input) -> (WmpsReport, f64) {
    let wmps = Wmps::new();
    let file = input.file.clone();
    let n = input.size.students;
    let t = Instant::now();
    let report = match input.workload {
        Workload::VodRelaySim | Workload::VodScaleSim => wmps.serve_with_relays(
            file,
            uplink(),
            LinkSpec::lan(),
            n,
            input.seed,
            &RelayTierConfig {
                relays: input.size.relays,
                ..RelayTierConfig::default()
            },
        ),
        Workload::VodDirectSim => wmps.serve_and_replay(file, LinkSpec::lan(), n, input.seed),
        Workload::LiveSim => wmps.live_classroom_with_slides(
            live_profile(),
            input.size.minutes * 60,
            n,
            LinkSpec::lan(),
            input.seed,
            &input.slides,
        ),
        other => panic!("{} is not a simnet workload", other.name()),
    };
    (report, t.elapsed().as_secs_f64())
}

/// What a mirrored run ends with: its outcome (accounting included), and
/// every client's own metrics for [`check_mirror`].
#[derive(Debug)]
pub struct Mirror {
    pub clients: Vec<ClientMetrics>,
    pub outcome: Outcome,
}

/// Runs the benchmark's copy of the driver for `input`'s workload.
pub fn mirror(input: &Input) -> Mirror {
    match input.workload {
        Workload::VodRelaySim | Workload::VodScaleSim => mirror_relays(input),
        Workload::VodDirectSim => mirror_direct(input),
        Workload::LiveSim => mirror_live(input),
        other => panic!("{} is not a simnet workload", other.name()),
    }
}

/// One client's turn at the end of a step, as every product driver
/// takes it: render what is due, then the four control polls.
pub fn client_turn(
    c: &mut StreamingClient,
    net: &mut impl Transport<Wire>,
    now: u64,
    events: &mut Vec<RenderEvent>,
) {
    events.extend(spans::timed(Span::ClientTick, || c.tick(now)));
    spans::timed(Span::ClientCtl, || {
        c.poll_adaptive(net);
        c.poll_redirect(net);
        c.poll_busy(net, now);
        c.poll_recovery(net, now);
    });
}

fn is_data(msg: &Wire) -> bool {
    matches!(msg, Wire::Data(_))
}

/// Bytes `nodes` put on their own outgoing links.
fn wire_bytes(net: &Network<Wire>, nodes: impl IntoIterator<Item = NodeId>) -> u64 {
    nodes.into_iter().map(|n| net.egress_bytes(n)).sum()
}

/// Mirror of `Wmps::serve_with_relays` for a calm tier (no chaos, no
/// standby, no admission limits — the configuration the facade run uses).
fn mirror_relays(input: &Input) -> Mirror {
    let cfg = RelayTierConfig {
        relays: input.size.relays,
        ..RelayTierConfig::default()
    };
    let mut net = Timed::simnet(Network::<Wire>::new(input.seed));
    let tree = relay_tree(
        &mut net.inner,
        uplink(),
        cfg.relay_link,
        LinkSpec::lan(),
        cfg.relays,
        input.size.students,
    );
    let mut server = StreamingServer::new(tree.origin);
    for &r in &tree.relays {
        server.exempt_from_admission(r);
    }
    server.publish("lecture", input.file.clone());
    let mut relays: Vec<RelayNode> = tree
        .relays
        .iter()
        .map(|&r| {
            let mut relay =
                RelayNode::new(r, tree.origin, cfg.cache_budget).with_prefetch(cfg.prefetch);
            relay.serve_vod("lecture");
            relay
        })
        .collect();
    let mut redirect = RedirectManager::new(tree.origin, tree.relays.clone());
    let mut clients: Vec<StreamingClient> = tree
        .students
        .iter()
        .map(|&c| StreamingClient::new(c, tree.origin, "lecture"))
        .collect();

    let horizon = input.file.props.play_duration * 20 + 600_000_000_000;
    let mut now = 0u64;
    let mut events = Vec::new();
    let mut account = Account::default();
    let mut started = false;
    let t = Instant::now();
    while now <= horizon {
        let done = spans::step(|| {
            if !started {
                for c in clients.iter_mut() {
                    spans::timed(Span::ClientStart, || c.start(&mut net));
                }
                started = true;
            }
            spans::timed(Span::ServerPoll, || server.poll(&mut net, now));
            for r in relays.iter_mut() {
                spans::timed(Span::RelayPoll, || r.poll(&mut net, now));
            }
            for d in net.poll(now) {
                account.deliveries += 1;
                if d.dst == server.node() {
                    let taken = spans::timed(Span::RelayRedirect, || {
                        redirect.intercept(&mut net, d.src, &d.message)
                    });
                    if !taken {
                        spans::timed(Span::ServerOnMessage, || {
                            server.on_message(&mut net, d.time, d.src, d.message)
                        });
                    }
                } else if let Some(c) = clients.iter_mut().find(|c| c.node() == d.dst) {
                    // The facade fills a relay's bare `Busy` with an
                    // alternate here; nothing is ever busy in a tier
                    // without admission limits, so messages pass as-is.
                    account.data_packets += u64::from(is_data(&d.message));
                    spans::timed(Span::ClientOnMessage, || c.on_message(d.time, d.message));
                } else if let Some(r) = relays.iter_mut().find(|r| r.node() == d.dst) {
                    spans::timed(Span::RelayOnMessage, || {
                        r.on_message(&mut net, d.time, d.src, d.message)
                    });
                }
            }
            for c in clients.iter_mut() {
                client_turn(c, &mut net, now, &mut events);
            }
            clients.iter().all(|c| c.is_done())
        });
        account.steps += 1;
        if done {
            break;
        }
        now += STEP;
    }
    let wall_s = t.elapsed().as_secs_f64();

    let mut cache = CacheStats::default();
    let mut metrics = RelayMetrics::default();
    for r in &relays {
        cache += r.cache().stats();
        metrics += r.metrics();
    }
    account.relay = metrics;
    account.cache = cache;
    account.server = server.metrics();
    account.wire_bytes = wire_bytes(
        &net.inner,
        std::iter::once(tree.origin)
            .chain(tree.relays.iter().copied())
            .chain(tree.students.iter().copied()),
    );
    finish_mirror(
        input,
        wall_s,
        &clients,
        &events,
        None,
        net.inner.egress_bytes(tree.origin),
        account,
    )
}

/// Mirror of `Wmps::serve_and_replay` (`run_to_completion` on a star of
/// LAN links).
fn mirror_direct(input: &Input) -> Mirror {
    let mut net = Timed::simnet(Network::<Wire>::new(input.seed));
    let s = net.inner.add_node("server");
    let mut server = StreamingServer::new(s);
    server.publish("lecture", input.file.clone());
    let nodes: Vec<NodeId> = (0..input.size.students)
        .map(|i| net.inner.add_node(format!("student{i}")))
        .collect();
    for &c in &nodes {
        net.inner.connect_bidirectional(s, c, LinkSpec::lan());
    }
    let mut clients: Vec<StreamingClient> = nodes
        .iter()
        .map(|&c| StreamingClient::new(c, s, "lecture"))
        .collect();

    let horizon = input.file.props.play_duration * 20 + 600_000_000_000;
    let mut now = 0u64;
    let mut events = Vec::new();
    let mut account = Account::default();
    let t = Instant::now();
    // `run_to_completion` starts every client before its first step.
    for c in clients.iter_mut() {
        spans::timed(Span::ClientStart, || c.start(&mut net));
    }
    while now <= horizon {
        let done = spans::step(|| {
            spans::timed(Span::ServerPoll, || server.poll(&mut net, now));
            for d in net.poll(now) {
                account.deliveries += 1;
                if d.dst == server.node() {
                    spans::timed(Span::ServerOnMessage, || {
                        server.on_message(&mut net, d.time, d.src, d.message)
                    });
                } else if let Some(c) = clients.iter_mut().find(|c| c.node() == d.dst) {
                    account.data_packets += u64::from(is_data(&d.message));
                    spans::timed(Span::ClientOnMessage, || c.on_message(d.time, d.message));
                }
            }
            for c in clients.iter_mut() {
                client_turn(c, &mut net, now, &mut events);
            }
            clients.iter().all(|c| c.is_done())
        });
        account.steps += 1;
        if done {
            break;
        }
        now += STEP;
    }
    let wall_s = t.elapsed().as_secs_f64();
    account.server = server.metrics();
    account.wire_bytes = wire_bytes(&net.inner, std::iter::once(s).chain(nodes.iter().copied()));
    finish_mirror(
        input,
        wall_s,
        &clients,
        &events,
        None,
        net.inner.egress_bytes(s),
        account,
    )
}

/// Mirror of `Wmps::live_classroom_with_script`: the encoder is pumped
/// on the step cadence into a `LiveFeed` the server pushes from.
fn mirror_live(input: &Input) -> Mirror {
    let mut encoder = LiveEncoder::new(
        BroadcastConfig::new("http://wmps.example/live"),
        live_profile(),
        1_400,
    );
    let header = StreamHeader {
        props: encoder.file_properties(),
        streams: encoder.stream_properties(),
        script: encoder.script(),
        drm: None,
        epoch: 0,
    };
    let mut net = Timed::simnet(Network::<Wire>::new(input.seed));
    let s = net.inner.add_node("server");
    let mut server = StreamingServer::new(s);
    server.publish_live("live", LiveFeed::new(header));
    let mut nodes = Vec::new();
    let mut clients: Vec<StreamingClient> = (0..input.size.students)
        .map(|i| {
            let c = net.inner.add_node(format!("student{i}"));
            net.inner.connect_bidirectional(s, c, LinkSpec::lan());
            nodes.push(c);
            StreamingClient::new(c, s, "live")
        })
        .collect();
    let mut commands: Vec<lod_asf::ScriptCommand> = input
        .slides
        .iter()
        .map(|(t, uri)| lod_asf::ScriptCommand::new(*t, "slide", uri.clone()))
        .collect();
    commands.sort_by_key(|c| c.time);

    let live_end = input.size.minutes * 60 * TICKS_PER_S;
    let horizon = live_end * 4 + 600_000_000_000;
    let mut now = 0u64;
    let mut events = Vec::new();
    let mut account = Account::default();
    let mut ended = false;
    let mut next_cmd = 0usize;
    let t = Instant::now();
    for c in clients.iter_mut() {
        spans::timed(Span::ClientStart, || c.start(&mut net));
    }
    while now <= horizon {
        let done = spans::step(|| {
            if now <= live_end {
                spans::timed(Span::EncoderPump, || {
                    let feed = server.live_feed("live").expect("feed published");
                    for p in encoder.pump(Ticks(now)) {
                        feed.push(p);
                    }
                    while next_cmd < commands.len() && commands[next_cmd].time <= now {
                        feed.push_script(commands[next_cmd].clone());
                        next_cmd += 1;
                    }
                });
            } else if !ended {
                server.live_feed("live").expect("feed published").end();
                ended = true;
            }
            spans::timed(Span::ServerPoll, || server.poll(&mut net, now));
            for d in net.poll(now) {
                account.deliveries += 1;
                if d.dst == server.node() {
                    spans::timed(Span::ServerOnMessage, || {
                        server.on_message(&mut net, d.time, d.src, d.message)
                    });
                } else if let Some(c) = clients.iter_mut().find(|c| c.node() == d.dst) {
                    account.data_packets += u64::from(is_data(&d.message));
                    spans::timed(Span::ClientOnMessage, || c.on_message(d.time, d.message));
                }
            }
            // The live facade only renders; it never runs the control
            // polls (nothing redirects or bounces a live student).
            for c in clients.iter_mut() {
                events.extend(spans::timed(Span::ClientTick, || c.tick(now)));
            }
            ended && clients.iter().all(|c| c.is_done())
        });
        account.steps += 1;
        if done {
            break;
        }
        now += STEP;
    }
    let wall_s = t.elapsed().as_secs_f64();
    account.server = server.metrics();
    account.wire_bytes = wire_bytes(&net.inner, std::iter::once(s).chain(nodes.iter().copied()));
    // The live facade reports the step it stopped at, not the last render.
    finish_mirror(
        input,
        wall_s,
        &clients,
        &events,
        Some(now),
        net.inner.egress_bytes(s),
        account,
    )
}

fn finish_mirror(
    input: &Input,
    wall_s: f64,
    clients: &[StreamingClient],
    events: &[RenderEvent],
    session_ticks: Option<u64>,
    origin_egress_bytes: u64,
    mut account: Account,
) -> Mirror {
    let clients: Vec<ClientMetrics> = clients.iter().map(|c| *c.metrics()).collect();
    account.count_clients(&clients);
    let (skew_worst_ms, script_skew_worst_ms) = worst_skews_ms(events);
    account.script_skew_worst_ms = script_skew_worst_ms;
    let mut outcome = Outcome::of_sessions(input, &clients, |_| true);
    outcome.wall_s = wall_s;
    outcome.skew_worst_ms = skew_worst_ms;
    outcome.exact.session_ticks =
        session_ticks.unwrap_or_else(|| events.iter().map(|e| e.wall_time).max().unwrap_or(0));
    outcome.exact.origin_egress_bytes = origin_egress_bytes;
    outcome.account = Some(account);
    Mirror { clients, outcome }
}

/// The mirror must be the facade: same clock, same bytes, same sessions.
///
/// # Errors
///
/// The first fact the two runs disagree on.
pub fn check_mirror(facade: &WmpsReport, mirror: &Mirror) -> Result<(), String> {
    let same = |what: &str, f: u64, m: u64| {
        if f == m {
            Ok(())
        } else {
            Err(format!(
                "mirrored driver diverged from the facade: {what} {m} != {f}"
            ))
        }
    };
    let exact = &mirror.outcome.exact;
    same("session_ticks", facade.session_ticks, exact.session_ticks)?;
    same(
        "origin_egress_bytes",
        facade.origin_egress_bytes,
        exact.origin_egress_bytes,
    )?;
    same(
        "clients",
        facade.clients.len() as u64,
        mirror.clients.len() as u64,
    )?;
    for (i, (f, m)) in facade.clients.iter().zip(&mirror.clients).enumerate() {
        same(
            &format!("client {i} samples_rendered"),
            f.samples_rendered,
            m.samples_rendered,
        )?;
        same(
            &format!("client {i} startup_ticks"),
            f.startup_ticks,
            m.startup_ticks,
        )?;
    }
    Ok(())
}

/// A facade run as an [`Outcome`]. The facade does not say which sessions
/// reported done, but one that did not cannot have rendered every sample,
/// so the sample check covers it.
pub fn facade_outcome(input: &Input, report: &WmpsReport, wall_s: f64) -> Outcome {
    let mut outcome = Outcome::of_sessions(input, &report.clients, |_| true);
    outcome.wall_s = wall_s;
    outcome.skew_worst_ms =
        report.skew.iter().map(|s| s.max).max().unwrap_or(0) as f64 / TICKS_PER_MS;
    outcome.exact.session_ticks = report.session_ticks;
    outcome.exact.origin_egress_bytes = report.origin_egress_bytes;
    outcome
}
