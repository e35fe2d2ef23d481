//! The sync-model comparison harness (experiment Q1).
//!
//! §1 of the paper claims OCPN and XOCPN are "not sufficient" once network
//! transport, user interaction and distribution enter the picture. This
//! module makes that claim measurable: the same lecture is shipped over
//! the same simulated network, and three playout controllers consume the
//! identical arrival trace:
//!
//! * **OCPN** — open loop: each object plays at its precomputed schedule
//!   time, or as soon as it arrives if late. Late data becomes
//!   inter-stream skew; user interactions cannot alter the schedule.
//! * **XOCPN** — OCPN plus channel setup: the schedule is shifted by the
//!   declared transfer time of one unit (QoS reservation), absorbing
//!   nominal transport delay but not jitter tails or loss. Interactions
//!   still unsupported.
//! * **ETPN** — the paper's model ([`crate::etpn`]): arrival-gated,
//!   join-synchronized, interaction-capable.

// Index loops here intentionally walk several parallel `[stream][unit]`
// tables; iterator rewrites would obscure the net construction.
#![allow(clippy::needless_range_loop)]

use lod_simnet::{LinkSpec, Network};
use serde::{Deserialize, Serialize};

use crate::etpn::{EtpnConfig, Interaction, LectureNet};

/// Which controller replays the lecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SyncModelKind {
    /// Little & Ghafoor's OCPN (paper ref \[4\]).
    Ocpn,
    /// The extended OCPN with channel reservation (paper ref \[5\]).
    Xocpn,
    /// The paper's extended timed Petri net.
    Etpn,
}

impl std::fmt::Display for SyncModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SyncModelKind::Ocpn => f.write_str("OCPN"),
            SyncModelKind::Xocpn => f.write_str("XOCPN"),
            SyncModelKind::Etpn => f.write_str("ETPN"),
        }
    }
}

/// One replay scenario.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReplayConfig {
    /// Sync-unit length in ticks.
    pub unit_ticks: u64,
    /// Units per stream.
    pub units: usize,
    /// Streams (video, slides, …).
    pub streams: usize,
    /// Media bytes per unit per stream.
    pub bytes_per_unit: u64,
    /// The network path.
    pub link: LinkSpec,
    /// RNG seed for the network.
    pub seed: u64,
    /// Optional user interaction: pause at the given unit for the given
    /// duration in ticks.
    pub pause: Option<(usize, u64)>,
}

impl ReplayConfig {
    /// A 60-unit, 2-stream lecture on the given link.
    pub fn new(link: LinkSpec, seed: u64) -> Self {
        Self {
            unit_ticks: 10_000_000, // 1 s units
            units: 60,
            streams: 2,
            bytes_per_unit: 50_000, // 400 kbit/s per stream
            link,
            seed,
            pause: None,
        }
    }
}

/// Outcome of one replay.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplayReport {
    /// Which model ran.
    pub model: SyncModelKind,
    /// Maximum inter-stream start skew over all units, ticks.
    pub max_skew: u64,
    /// Mean inter-stream start skew, ticks.
    pub mean_skew: f64,
    /// Stall time (playback frozen waiting for data), ticks. Open-loop
    /// models never stall — they skew instead.
    pub stall: u64,
    /// Wall time of the last rendered unit's end.
    pub finish: u64,
    /// Units the user missed because the model kept playing through a
    /// pause request (0 when pause is honoured).
    pub units_missed_during_pause: usize,
    /// Units rendered on all streams.
    pub units_rendered: usize,
}

/// Simulates the transport and returns `(arrival_time, stream, unit)` for
/// every unit, retransmitting lost packets with a fixed RTO (so arrivals
/// are eventually complete, as a streaming session with ARQ would be).
pub fn simulate_arrivals(cfg: &ReplayConfig) -> Vec<(u64, usize, usize)> {
    const PACKET: u64 = 1_400;
    let mut net: Network<(usize, usize, u32)> = Network::new(cfg.seed);
    let server = net.add_node("server");
    let client = net.add_node("client");
    net.connect(server, client, cfg.link);
    let packets_per_unit = cfg.bytes_per_unit.div_ceil(PACKET) as u32;
    // Base RTO covers propagation, jitter, and a whole unit's worth of
    // serialization backlog; it doubles per retry so duplicates cannot
    // snowball into congestion collapse.
    let rto = 4 * cfg.link.delay_ticks
        + 2 * cfg.link.jitter_ticks
        + 2 * cfg.link.serialization_ticks(PACKET)
            * u64::from(packets_per_unit)
            * cfg.streams as u64
        + 1_000_000;

    // received[s][k] counts packet arrivals; resend missing after RTO.
    let mut received = vec![vec![0u32; cfg.units]; cfg.streams];
    let mut arrival = vec![vec![None::<u64>; cfg.units]; cfg.streams];
    // Initial sends: unit k's packets go out at media time k*unit (the
    // server paces in real time, as the paper's live/stored server does).
    let mut outstanding: Vec<(u64, usize, usize, u32)> = Vec::new();
    for s in 0..cfg.streams {
        for k in 0..cfg.units {
            for p in 0..packets_per_unit {
                outstanding.push((k as u64 * cfg.unit_ticks, s, k, p));
            }
        }
    }
    outstanding.sort_by_key(|e| e.0);
    // Per-packet (deadline, retry-count) for exponential backoff.
    let mut pending: std::collections::HashMap<(usize, usize, u32), (u64, u32)> =
        std::collections::HashMap::new();

    let mut idx = 0;
    let mut now = 0u64;
    let horizon_step = 1_000_000u64;
    let deadline = cfg.units as u64 * cfg.unit_ticks * 20 + 1_000_000_000;
    while now < deadline {
        // Send everything due.
        while idx < outstanding.len() && outstanding[idx].0 <= now {
            let (_, s, k, p) = outstanding[idx];
            if arrival[s][k].is_none() {
                let _ = net.send(server, client, PACKET, (s, k, p));
                pending.insert((s, k, p), (now + rto, 0));
            }
            idx += 1;
        }
        // Retransmit timed-out packets with exponential backoff.
        let timed_out: Vec<(usize, usize, u32)> = pending
            .iter()
            .filter(|(_, &(t, _))| t <= now)
            .map(|(&key, _)| key)
            .collect();
        for key in timed_out {
            let (s, k, p) = key;
            let retries = pending.get(&key).map_or(0, |&(_, r)| r);
            if arrival[s][k].is_none() {
                let _ = net.send(server, client, PACKET, (s, k, p));
                let backoff = rto.saturating_mul(1 << retries.min(6));
                pending.insert(key, (now + backoff, retries + 1));
            } else {
                pending.remove(&key);
            }
        }
        // Deliveries.
        for d in net.advance_to(now) {
            let (s, k, p) = d.message;
            if pending.remove(&(s, k, p)).is_some() || arrival[s][k].is_none() {
                received[s][k] += 1;
                if received[s][k] >= packets_per_unit && arrival[s][k].is_none() {
                    arrival[s][k] = Some(d.time);
                }
            }
        }
        if idx >= outstanding.len() && arrival.iter().all(|row| row.iter().all(|a| a.is_some())) {
            break;
        }
        now += horizon_step;
    }

    let mut out = Vec::new();
    for s in 0..cfg.streams {
        for k in 0..cfg.units {
            // Units that never completed arrive "at infinity"; clamp to
            // deadline so reports stay finite.
            out.push((arrival[s][k].unwrap_or(deadline), s, k));
        }
    }
    out.sort_unstable();
    out
}

/// Derives an ETPN arrival trace from a *real* streaming session: serves
/// `file` to one client over `link` through the full server/client stack
/// and buckets each stream's sample completions into `unit_ticks` units.
/// A unit "arrives" when its last sample completes; units with no samples
/// on a stream (sparse slide tracks) count as arrived at time 0.
///
/// Streams are indexed by their position in `file.streams`.
pub fn arrivals_from_streaming(
    file: &lod_asf::AsfFile,
    link: LinkSpec,
    unit_ticks: u64,
    seed: u64,
) -> (Vec<(u64, usize, usize)>, usize) {
    use lod_streaming::{run_to_completion, StreamingClient, StreamingServer};
    let mut net: Network<lod_streaming::Wire> = Network::new(seed);
    let s = net.add_node("server");
    let c = net.add_node("client");
    net.connect_bidirectional(s, c, link);
    let mut server = StreamingServer::new(s);
    let duration = file.props.play_duration.max(file.last_presentation_time());
    let stream_numbers: Vec<u16> = file.streams.iter().map(|sp| sp.number).collect();
    server.publish("lecture", file.clone());
    let mut client = StreamingClient::new(c, s, "lecture").with_arrival_log();
    let horizon = duration * 20 + 600_000_000_000;
    run_to_completion(&mut net, &mut server, &mut [&mut client], horizon);

    let units = (duration.div_ceil(unit_ticks.max(1))) as usize;
    let streams = stream_numbers.len();
    let mut arrival = vec![vec![0u64; units]; streams];
    for &(wall, pres, stream) in client.arrival_log() {
        let Some(sidx) = stream_numbers.iter().position(|&n| n == stream) else {
            continue;
        };
        let k = ((pres / unit_ticks.max(1)) as usize).min(units - 1);
        arrival[sidx][k] = arrival[sidx][k].max(wall);
    }
    let mut out = Vec::new();
    for (sidx, row) in arrival.iter().enumerate() {
        for (k, &t) in row.iter().enumerate() {
            out.push((t, sidx, k));
        }
    }
    out.sort_unstable();
    (out, units)
}

/// Runs one model against an arrival trace.
pub fn replay(
    cfg: &ReplayConfig,
    model: SyncModelKind,
    arrivals: &[(u64, usize, usize)],
) -> ReplayReport {
    match model {
        SyncModelKind::Etpn => replay_etpn(cfg, arrivals),
        SyncModelKind::Ocpn => replay_open_loop(cfg, arrivals, model, 0),
        SyncModelKind::Xocpn => {
            // Channel reservation: shift the schedule by the declared
            // transfer time of one unit plus propagation.
            let reserve = cfg.link.serialization_ticks(cfg.bytes_per_unit) + cfg.link.delay_ticks;
            replay_open_loop(cfg, arrivals, model, reserve)
        }
    }
}

/// Runs all three models against the same arrivals.
pub fn compare(cfg: &ReplayConfig) -> Vec<ReplayReport> {
    let arrivals = simulate_arrivals(cfg);
    [
        SyncModelKind::Ocpn,
        SyncModelKind::Xocpn,
        SyncModelKind::Etpn,
    ]
    .into_iter()
    .map(|m| replay(cfg, m, &arrivals))
    .collect()
}

fn replay_etpn(cfg: &ReplayConfig, arrivals: &[(u64, usize, usize)]) -> ReplayReport {
    let net = LectureNet::new(EtpnConfig {
        unit_ticks: cfg.unit_ticks,
        units: cfg.units,
        streams: cfg.streams,
        sync_every: 1,
        block_prefetch: true,
    });
    let interactions: Vec<(u64, Interaction)> = match cfg.pause {
        None => Vec::new(),
        Some((unit, dur)) => {
            let t = unit as u64 * cfg.unit_ticks;
            vec![(t, Interaction::Pause), (t + dur, Interaction::Resume)]
        }
    };
    let r = net.run(arrivals, &interactions);
    ReplayReport {
        model: SyncModelKind::Etpn,
        max_skew: r.max_skew,
        mean_skew: r.mean_skew,
        stall: r.network_stall(),
        finish: r.finish_time,
        units_missed_during_pause: 0,
        units_rendered: r.units_rendered,
    }
}

fn replay_open_loop(
    cfg: &ReplayConfig,
    arrivals: &[(u64, usize, usize)],
    model: SyncModelKind,
    reserve: u64,
) -> ReplayReport {
    let mut arrival = vec![vec![u64::MAX; cfg.units]; cfg.streams];
    for &(t, s, k) in arrivals {
        arrival[s][k] = t;
    }
    // The schedule anchor: playback begins when the first unit of every
    // stream is present, plus the model's reservation shift.
    let anchor = (0..cfg.streams).map(|s| arrival[s][0]).max().unwrap_or(0) + reserve;
    let mut starts = vec![vec![0u64; cfg.units]; cfg.streams];
    for s in 0..cfg.streams {
        for k in 0..cfg.units {
            let scheduled = anchor + k as u64 * cfg.unit_ticks;
            // Open loop: play on schedule, or as soon as the data shows up.
            starts[s][k] = scheduled.max(arrival[s][k]);
        }
    }
    let mut skews = Vec::new();
    for k in 0..cfg.units {
        let mx = (0..cfg.streams).map(|s| starts[s][k]).max().unwrap_or(0);
        let mn = (0..cfg.streams).map(|s| starts[s][k]).min().unwrap_or(0);
        skews.push(mx - mn);
    }
    let max_skew = skews.iter().copied().max().unwrap_or(0);
    let mean_skew = skews.iter().sum::<u64>() as f64 / skews.len().max(1) as f64;
    let finish = starts.iter().flatten().copied().max().unwrap_or(0) + cfg.unit_ticks;
    // A pause request cannot change the schedule: the content keeps
    // playing, so the user misses everything in the pause window.
    let units_missed_during_pause = match cfg.pause {
        None => 0,
        Some((_, dur)) => (dur / cfg.unit_ticks) as usize,
    };
    ReplayReport {
        model,
        max_skew,
        mean_skew,
        stall: 0,
        finish,
        units_missed_during_pause,
        units_rendered: cfg.units,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(link: LinkSpec) -> ReplayConfig {
        ReplayConfig {
            unit_ticks: 10_000_000,
            units: 30,
            streams: 2,
            bytes_per_unit: 50_000,
            link,
            seed: 42,
            pause: None,
        }
    }

    #[test]
    fn arrivals_complete_and_ordered() {
        let c = cfg(LinkSpec::broadband());
        let arrivals = simulate_arrivals(&c);
        assert_eq!(arrivals.len(), 60);
        let times: Vec<u64> = arrivals.iter().map(|a| a.0).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn lossy_link_still_completes_via_retransmission() {
        let c = cfg(LinkSpec::broadband().with_loss(0.05));
        let arrivals = simulate_arrivals(&c);
        let deadline = c.units as u64 * c.unit_ticks * 20 + 1_000_000_000;
        assert!(arrivals.iter().all(|&(t, _, _)| t < deadline));
    }

    #[test]
    fn etpn_never_skews_others_do_under_jitter() {
        let mut c = cfg(LinkSpec::broadband().with_jitter(8_000_000).with_loss(0.02));
        c.seed = 7;
        let reports = compare(&c);
        let ocpn = &reports[0];
        let xocpn = &reports[1];
        let etpn = &reports[2];
        assert_eq!(etpn.max_skew, 0);
        assert!(ocpn.max_skew > 0, "OCPN skew {}", ocpn.max_skew);
        // XOCPN's reservation absorbs at least as much as OCPN suffers.
        assert!(
            xocpn.max_skew <= ocpn.max_skew,
            "xocpn {} vs ocpn {}",
            xocpn.max_skew,
            ocpn.max_skew
        );
        // ETPN pays with stall instead.
        assert!(etpn.stall > 0 || etpn.finish >= ocpn.finish - c.unit_ticks);
    }

    #[test]
    fn pause_is_only_honoured_by_etpn() {
        let mut c = cfg(LinkSpec::lan());
        c.pause = Some((10, 50_000_000)); // pause 5 s at unit 10
        let reports = compare(&c);
        let ocpn = &reports[0];
        let etpn = &reports[2];
        assert_eq!(ocpn.units_missed_during_pause, 5);
        assert_eq!(etpn.units_missed_during_pause, 0);
        assert_eq!(etpn.units_rendered, c.units);
        // ETPN finishes ~5 s later because playback actually froze.
        assert!(etpn.finish >= ocpn.finish + 40_000_000);
    }

    #[test]
    fn lan_replay_is_clean_for_all_models() {
        let c = cfg(LinkSpec::lan());
        for r in compare(&c) {
            assert_eq!(r.units_rendered, c.units, "{}", r.model);
            assert!(r.max_skew <= 2_000_000, "{} skew {}", r.model, r.max_skew);
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(SyncModelKind::Ocpn.to_string(), "OCPN");
        assert_eq!(SyncModelKind::Etpn.to_string(), "ETPN");
    }

    #[test]
    fn real_stack_arrivals_feed_the_etpn() {
        // Publish a real lecture, stream it through the full server/client
        // stack, and replay the resulting arrival trace through all three
        // sync models: the ETPN still pins skew to zero.
        let lecture = crate::presentation::synthetic_lecture(77, 1, 200_000);
        let file = crate::Wmps::new().publish(&lecture).unwrap();
        let unit = 10_000_000; // 1 s units
        let (arrivals, units) =
            arrivals_from_streaming(&file, LinkSpec::broadband().with_jitter(5_000_000), unit, 3);
        assert_eq!(arrivals.len(), units * file.streams.len());
        let mut cfg = ReplayConfig::new(LinkSpec::broadband(), 3);
        cfg.units = units;
        cfg.streams = file.streams.len();
        cfg.unit_ticks = unit;
        let etpn = replay(&cfg, SyncModelKind::Etpn, &arrivals);
        assert_eq!(etpn.max_skew, 0);
        assert_eq!(etpn.units_rendered, units);
        let ocpn = replay(&cfg, SyncModelKind::Ocpn, &arrivals);
        assert_eq!(ocpn.units_rendered, units);
    }
}
