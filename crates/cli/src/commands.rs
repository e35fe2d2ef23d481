//! The subcommands.

use std::io::Write;

use lod_asf::{read_asf, write_asf, License};
use lod_content_tree::render_ascii;
use lod_core::{
    check_causal, fmt_ticks, parse_jsonl, serve_loopback_udp, session_timelines, synthetic_lecture,
    worst_by_stall, Abstractor, AdmissionPolicy, DegradePolicy, FailoverConfig, FaultSpec,
    Recorder, RelayTierConfig, RepairConfig, RetryPolicy, SpanAssembler, UdpConfig, Wmps,
};
use lod_encoder::{evenly_spaced_deck, Annotation, Publisher, VideoFileSpec};
use lod_media::{TickDuration, Ticks};
use lod_player::{PlayerEngine, SkewStats};
use lod_simnet::LinkSpec;

use crate::args::{Args, CliError};

/// Runs a parsed command, writing human output to `out`.
///
/// # Errors
///
/// Any [`CliError`]; the binary prints it and exits nonzero.
pub fn run(args: &Args, out: &mut impl Write) -> Result<(), CliError> {
    match args.command.as_str() {
        "publish" => publish(args, out),
        "inspect" => inspect(args, out),
        "replay" => replay(args, out),
        "serve" => serve(args, out),
        "report" => report_cmd(args, out),
        "trace" => trace_cmd(args, out),
        "abstract" => abstract_cmd(args, out),
        "net" => net_cmd(args, out),
        other => Err(CliError::UnknownCommand(other.to_string())),
    }
}

fn link_by_name(name: &str) -> Result<LinkSpec, CliError> {
    match name {
        "lan" => Ok(LinkSpec::lan()),
        "broadband" => Ok(LinkSpec::broadband()),
        "modem" => Ok(LinkSpec::modem()),
        other => Err(CliError::bad_value("--link", other)),
    }
}

fn license_flag(args: &Args) -> Result<Option<License>, CliError> {
    match args.flag("license") {
        None => Ok(None),
        Some(spec) => {
            let (id, key) = spec
                .split_once(':')
                .ok_or(CliError::bad_value("--license", spec))?;
            let key = key
                .parse()
                .map_err(|_| CliError::bad_value("--license", spec))?;
            Ok(Some(License::new(id, key)))
        }
    }
}

/// `wmps publish <out.asf> [--video path] [--duration-secs N]
/// [--video-kbps N] [--audio-kbps N] [--slides N] [--slide-dir path]
/// [--annotation t:text]... [--license id:key]`
fn publish(args: &Args, out: &mut impl Write) -> Result<(), CliError> {
    let path = args.positional(0, "<output .asf path>")?;
    let duration = TickDuration::from_secs(args.num_or("duration-secs", 120u64)?);
    let video = VideoFileSpec {
        path: args.flag_or("video", "lecture/camera.m4v"),
        duration,
        video_bitrate: args.num_or("video-kbps", 300u64)? * 1_000,
        audio_bitrate: args.num_or("audio-kbps", 32u64)? * 1_000,
    };
    let slide_dir = args.flag_or("slide-dir", "lecture/slides");
    let deck = evenly_spaced_deck(&slide_dir, args.num_or("slides", 6usize)?, 40_000, duration);
    let annotations: Vec<Annotation> = match args.flag("annotation") {
        None => Vec::new(),
        Some(spec) => {
            let (t, text) = spec
                .split_once(':')
                .ok_or(CliError::bad_value("--annotation", spec))?;
            let secs: u64 = t
                .parse()
                .map_err(|_| CliError::bad_value("--annotation", spec))?;
            vec![Annotation {
                at: Ticks::from_secs(secs),
                text: text.to_string(),
            }]
        }
    };

    let mut file = Publisher::new(args.num_or("packet-size", 1_400u32)?)
        .publish(&video, &deck, &annotations)
        .map_err(|e| CliError::Content(e.to_string()))?;
    if let Some(license) = license_flag(args)? {
        file.protect(&license);
        writeln!(out, "protected with key id {:?}", license.key_id)?;
    }
    let bytes = write_asf(&file).map_err(|e| CliError::Content(e.to_string()))?;
    std::fs::write(path, &bytes)?;
    writeln!(
        out,
        "published {path}: {} bytes, {} packets, {} script commands, {:.1} s",
        bytes.len(),
        file.packets.len(),
        file.script.len(),
        file.props.play_duration as f64 / 1e7
    )?;
    Ok(())
}

/// `wmps inspect <file.asf>`
fn inspect(args: &Args, out: &mut impl Write) -> Result<(), CliError> {
    let path = args.positional(0, "<.asf path>")?;
    let bytes = std::fs::read(path)?;
    let file = read_asf(&bytes).map_err(|e| CliError::Content(e.to_string()))?;
    writeln!(out, "{path}: {} bytes on disk", bytes.len())?;
    writeln!(
        out,
        "  duration    : {:.1} s{}",
        file.props.play_duration as f64 / 1e7,
        if file.props.broadcast { " (live)" } else { "" }
    )?;
    writeln!(out, "  packet size : {} bytes", file.props.packet_size)?;
    writeln!(out, "  packets     : {}", file.packets.len())?;
    writeln!(out, "  max bitrate : {} bit/s", file.props.max_bitrate)?;
    writeln!(
        out,
        "  drm         : {}",
        file.drm
            .as_ref()
            .map_or("none".to_string(), |d| format!("key id {:?}", d.key_id))
    )?;
    writeln!(out, "  streams:")?;
    for s in &file.streams {
        writeln!(
            out,
            "    #{} {:?} {} bit/s — {}",
            s.number, s.kind, s.bitrate, s.name
        )?;
    }
    writeln!(out, "  script commands: {}", file.script.len())?;
    for c in file.script.commands().iter().take(10) {
        writeln!(
            out,
            "    {:>8.1}s {} {}",
            c.time as f64 / 1e7,
            c.kind,
            c.param
        )?;
    }
    if file.script.len() > 10 {
        writeln!(out, "    … and {} more", file.script.len() - 10)?;
    }
    writeln!(
        out,
        "  index       : {}",
        file.index
            .as_ref()
            .map_or("none".to_string(), |i| format!("{} entries", i.len()))
    )?;
    Ok(())
}

/// `wmps replay <file.asf> [--license id:key]`
fn replay(args: &Args, out: &mut impl Write) -> Result<(), CliError> {
    let path = args.positional(0, "<.asf path>")?;
    let bytes = std::fs::read(path)?;
    let file = read_asf(&bytes).map_err(|e| CliError::Content(e.to_string()))?;
    let license = license_flag(args)?;
    let engine =
        PlayerEngine::load(file, license.as_ref()).map_err(|e| CliError::Content(e.to_string()))?;
    let trace = engine.render_ideal();
    writeln!(out, "replayed {path}:")?;
    writeln!(out, "  video frames : {}", trace.video_frames())?;
    writeln!(out, "  slide flips  : {}", trace.slide_changes().len())?;
    writeln!(out, "  annotations  : {}", trace.annotations().len())?;
    let skew = SkewStats::of_slides(&trace, 0);
    writeln!(out, "  slide skew   : max {} ticks (ideal = 0)", skew.max)?;
    for s in trace.slide_changes().iter().take(10) {
        writeln!(out, "    slide at {:>7.1}s", s.wall_time as f64 / 1e7)?;
    }
    Ok(())
}

/// `wmps serve <file.asf> [--students N] [--link lan|broadband|modem]
/// [--seed N] [--relays K] [--max-sessions N] [--degrade on|off]
/// [--standby] [--checkpoint-every N] [--metrics-out PATH]
/// [--trace-permille N] [--transport sim|udp] [--repair on|off]
/// [--retry-budget N] [--loss-permille N] [--fault-seed S]`
///
/// With `--relays K`, students sit behind K edge relays that pull packet
/// segments across the server link once and fan them out locally.
/// `--max-sessions N` arms admission control (students beyond the budget
/// are answered Busy) and `--degrade on` graceful profile downshift
/// under sustained backlog. `--standby` arms a warm standby that replays
/// the origin's checkpoint journal (a checkpoint at least every
/// `--checkpoint-every N` seconds, default 1) and is promoted at a higher
/// fencing epoch should the origin die. `--metrics-out PATH` writes the
/// Prometheus-style exposition to `PATH` and the JSONL event log to
/// `PATH.jsonl` (for `wmps report` and `wmps trace`); `--trace-permille N`
/// samples N‰ of segments for end-to-end tracing through the relays.
///
/// `--transport udp` runs the same relay tier with every node on a
/// localhost UDP socket, stepped on the simulator's 100 ms clock, so two
/// runs of one command print the same counters. It takes every flag
/// above but `--link`, and adds `--repair on|off` (NACK/retransmit loss
/// repair), `--retry-budget N` (retransmissions per lost sequence) and
/// `--loss-permille N` with `--fault-seed S` (seeded datagram loss at
/// every server's egress); the simulator refuses those four.
fn serve(args: &Args, out: &mut impl Write) -> Result<(), CliError> {
    let path = args.positional(0, "<.asf path>")?;
    let bytes = std::fs::read(path)?;
    let file = read_asf(&bytes).map_err(|e| CliError::Content(e.to_string()))?;
    let students = args.num_or("students", 2usize)?;
    let udp = match args.flag_or("transport", "sim").as_str() {
        "sim" => false,
        "udp" => true,
        other => return Err(CliError::bad_value("--transport", other)),
    };
    // Each transport refuses the other's knobs rather than ignore them.
    let foreign: &[&str] = if udp {
        &["link"]
    } else {
        &["repair", "retry-budget", "loss-permille", "fault-seed"]
    };
    if let Some((flag, v)) = foreign.iter().find_map(|f| Some((f, args.flag(f)?))) {
        return Err(CliError::bad_value(&format!("--{flag}"), v));
    }
    let link_name = args.flag_or("link", "broadband");
    let link = link_by_name(&link_name)?;
    let seed = args.num_or("seed", 7u64)?;
    let relays = args.num_or("relays", 0usize)?;
    let max_sessions = args.num_or("max-sessions", 0u32)?;
    let degrade = args.on_off("degrade")?;
    let standby = args.switch("standby");
    let checkpoint_secs = args.num_or("checkpoint-every", 1u64)?;
    let repair = args.on_off("repair")?;
    let retry_budget = args.num_or("retry-budget", 3u32)?;
    let loss_permille = args.num_or("loss-permille", 0u16)?;
    let fault_seed = args.num_or("fault-seed", 7u64)?;
    let admission = (max_sessions > 0).then(|| {
        // Budget the bitrate to exactly max_sessions full-rate seats, so
        // the session cap is the binding constraint.
        let seat = u64::from(file.props.max_bitrate).max(64_000);
        AdmissionPolicy::new(max_sessions, seat * u64::from(max_sessions))
    });
    let trace_permille = args.num_or("trace-permille", 0u16)?;
    let metrics_out = args.flag("metrics-out");
    let recorder = metrics_out.map_or_else(Recorder::disabled, |_| Recorder::new());
    let cfg = RelayTierConfig {
        relays,
        origin_admission: admission,
        relay_admission: admission,
        relay_capacity_sessions: admission.map(|a| a.max_sessions as usize),
        degrade: degrade.then(DegradePolicy::default),
        // Startup prefetch bursts can park Pongs behind a second or more
        // of queued media on a busy uplink: 500 ms beats, dead only after
        // 10 misses = 5 s of true silence.
        failover: standby.then(|| FailoverConfig {
            heartbeat_interval: 5_000_000,
            miss_threshold: 10,
            checkpoint_every: checkpoint_secs.max(1) * 10_000_000,
        }),
        // Injected loss needs a last-resort recovery above the transport.
        client_retry: (loss_permille > 0).then(RetryPolicy::client),
        recorder: recorder.clone(),
        trace_permille,
        ..RelayTierConfig::default()
    };
    let wmps = Wmps::new();
    let (medium, report) = if udp {
        let mut udp = UdpConfig::loopback();
        if repair {
            udp = udp.with_repair(RepairConfig {
                retry_budget,
                ..RepairConfig::default()
            });
        }
        let fault = (loss_permille > 0).then(|| FaultSpec::loss(fault_seed, loss_permille));
        let report = serve_loopback_udp(file, students, seed, &cfg, udp, fault)
            .map_err(|e| CliError::Content(format!("{path}: {e}")))?;
        ("loopback udp".to_string(), report)
    } else if relays > 0
        || admission.is_some()
        || degrade
        || standby
        || recorder.is_enabled()
        || trace_permille > 0
    {
        // With --relays 0 the relay tier degenerates to students behind
        // one campus router (and tracing samples nothing).
        let report = wmps.serve_with_relays(file, link, LinkSpec::lan(), students, seed, &cfg);
        (link_name, report)
    } else {
        (link_name, wmps.serve_and_replay(file, link, students, seed))
    };
    writeln!(
        out,
        "served {path} to {students} student(s) over {medium}{}:",
        if relays > 0 {
            format!(" through {relays} relay(s)")
        } else {
            String::new()
        }
    )?;
    for (i, m) in report.clients.iter().enumerate() {
        writeln!(
            out,
            "  student {i}: startup {:.0} ms, {} stalls ({:.0} ms), {} samples, {} bytes",
            m.startup_ticks as f64 / 1e4,
            m.stalls,
            m.stall_ticks as f64 / 1e4,
            m.samples_rendered,
            m.bytes_received
        )?;
    }
    writeln!(
        out,
        "  server: {:.1} MB egress, {} segment(s) served",
        report.origin_egress_bytes as f64 / 1e6,
        report.server.segments_served
    )?;
    if let Some(relay) = &report.relay {
        writeln!(
            out,
            "  relays: {} fetch(es) upstream, cache hit rate {:.2}",
            relay.metrics.segment_fetches,
            relay.cache.hit_rate()
        )?;
    }
    if max_sessions > 0 || degrade {
        writeln!(
            out,
            "  overload: {} shed, {} downshift(s), {} upshift(s), {} degraded session(s)",
            report.shed_clients(),
            report.server.downshifts,
            report.server.upshifts,
            report.server.sessions_degraded
        )?;
    }
    if let Some(fo) = &report.failover {
        writeln!(
            out,
            "  standby: {} checkpoint(s) replicated, {}",
            fo.checkpoints_replicated,
            match fo.promoted_at {
                Some(at) => format!("promoted at {:.0} ms (epoch {})", at as f64 / 1e4, fo.epoch),
                None => "never promoted (origin stayed up)".to_string(),
            }
        )?;
    }
    if let Some(socket) = &report.socket {
        let (t, r) = (&socket.transport, &socket.reorder);
        writeln!(
            out,
            "  outcome: {}/{students} completed, {} abandoned, {} hard failure(s), wall {:.2}s",
            report.completed_sessions(),
            report.clients.iter().filter(|m| m.abandoned).count(),
            report.hard_failures(),
            socket.wall.as_secs_f64()
        )?;
        writeln!(
            out,
            "  transport: {} frame(s) sent, {} received, {} reordered, {} skipped",
            t.frames_sent, t.frames_received, r.out_of_order, r.skipped_seqs
        )?;
        if repair || loss_permille > 0 {
            writeln!(
                out,
                "  repair: {} dropped by injection, {} NACK(s), {} retransmit(s), {} give-up(s)",
                t.faults_dropped, t.nacks_sent, t.retransmits_sent, t.repair_give_ups
            )?;
        }
    }
    if let Some(path) = metrics_out {
        std::fs::write(path, recorder.prometheus())?;
        let jsonl = format!("{path}.jsonl");
        std::fs::write(&jsonl, recorder.to_jsonl())?;
        writeln!(
            out,
            "  metrics: {} event(s) -> {jsonl}, exposition -> {path}",
            recorder.event_count()
        )?;
    }
    Ok(())
}

/// `wmps report <events.jsonl> [--top N]`
///
/// Reconstructs per-session timelines from a JSONL event log written by
/// `wmps serve --metrics-out` and prints the `N` (default 5) sessions
/// with the most stalled time, worst first, plus the causal-invariant
/// verdict over the whole log. When the log carries trace spans the
/// verdict covers the span invariants too, and the `N` sampled segments
/// with the worst end-to-end delivery latency are listed (dig into one
/// with `wmps trace`).
fn report_cmd(args: &Args, out: &mut impl Write) -> Result<(), CliError> {
    let path = args.positional(0, "<events .jsonl path>")?;
    let top = args.num_or("top", 5usize)?;
    let text = std::fs::read_to_string(path)?;
    let events = parse_jsonl(&text).map_err(CliError::Content)?;
    let timelines = session_timelines(&events);
    writeln!(
        out,
        "{path}: {} event(s), {} session(s)",
        events.len(),
        timelines.len()
    )?;
    let causal = check_causal(&events);
    writeln!(
        out,
        "causal invariants: {} ({} downshift(s) heralded, {} recover(ies) matched, {} shed(s))",
        if causal.holds() { "ok" } else { "VIOLATED" },
        causal.downshifts - causal.unheralded_downshifts,
        causal.recoveries - causal.unmatched_recoveries,
        causal.total_sheds()
    )?;
    writeln!(out, "worst sessions by stalled time:")?;
    for t in worst_by_stall(&timelines, top) {
        write!(out, "{}", t.render())?;
    }
    if causal.spans_opened > 0 {
        let mut asm = SpanAssembler::new();
        for rec in &events {
            asm.ingest(rec);
        }
        writeln!(out, "worst segments by end-to-end latency:")?;
        for t in asm.worst_by_end_to_end(top) {
            writeln!(
                out,
                "  segment {:>4} (lecture {:016x}): {} across {} span(s)",
                t.segment,
                t.lecture,
                fmt_ticks(t.end_to_end()),
                t.spans.len()
            )?;
        }
    }
    Ok(())
}

/// `wmps trace <events.jsonl> [--segment N] [--lecture HEX] [--width W]`
///
/// Renders the sampled tracing plane from a JSONL event log: a per-hop
/// latency table (p50/p99 across every sampled segment), and — with
/// `--segment N` — the ASCII hop waterfall of that segment's delivery.
/// `--lecture HEX` (the 16-digit id `wmps report` prints) disambiguates
/// when several lectures share the log; `--width` sizes the bars.
fn trace_cmd(args: &Args, out: &mut impl Write) -> Result<(), CliError> {
    let path = args.positional(0, "<events .jsonl path>")?;
    let width = args.num_or("width", 48usize)?;
    let lecture = match args.flag("lecture") {
        None => None,
        Some(v) => {
            Some(u64::from_str_radix(v, 16).map_err(|_| CliError::bad_value("--lecture", v))?)
        }
    };
    let text = std::fs::read_to_string(path)?;
    let events = parse_jsonl(&text).map_err(CliError::Content)?;
    let mut asm = SpanAssembler::new();
    for rec in &events {
        asm.ingest(rec);
    }
    let traces = asm.traces();
    writeln!(
        out,
        "{path}: {} event(s), {} sampled segment(s)",
        events.len(),
        traces.len()
    )?;
    if traces.is_empty() {
        writeln!(
            out,
            "no trace spans in this log (serve with --trace-permille to sample segments)"
        )?;
        return Ok(());
    }
    writeln!(out, "hop latency across sampled segments:")?;
    writeln!(
        out,
        "  {:<13} {:>7} {:>10} {:>10}",
        "hop", "count", "p50", "p99"
    )?;
    for h in asm.hop_stats() {
        writeln!(
            out,
            "  {:<13} {:>7} {:>10} {:>10}",
            h.hop,
            h.count,
            fmt_ticks(h.p50),
            fmt_ticks(h.p99)
        )?;
    }
    if let Some(segment) = args.flag("segment") {
        let segment: u64 = segment
            .parse()
            .map_err(|_| CliError::bad_value("--segment", segment))?;
        let trace = asm.trace(lecture, segment).ok_or_else(|| {
            CliError::Content(format!(
                "segment {segment} has no sampled trace in this log"
            ))
        })?;
        write!(out, "{}", trace.waterfall(width))?;
    }
    Ok(())
}

/// `wmps abstract [--seed N] [--minutes N] [--budget-secs N]`
fn abstract_cmd(args: &Args, out: &mut impl Write) -> Result<(), CliError> {
    let seed = args.num_or("seed", 1u64)?;
    let minutes = args.num_or("minutes", 45u64)?;
    let lecture = synthetic_lecture(seed, minutes, 300_000);
    let a = Abstractor::new();
    let tree = a
        .tree_from_outline(&lecture.outline)
        .map_err(|e| CliError::Content(e.to_string()))?;
    writeln!(out, "{}", render_ascii(&tree))?;
    for row in a.level_table(&tree) {
        writeln!(
            out,
            "level {}: {:>2} segments, {:>5} s",
            row.level, row.segments, row.duration_secs
        )?;
    }
    if let Some(budget) = args.flag("budget-secs") {
        let budget: u64 = budget
            .parse()
            .map_err(|_| CliError::bad_value("--budget-secs", budget))?;
        let level = a.level_for_budget(&tree, budget);
        let summary = a.summarize(&lecture, level);
        writeln!(
            out,
            "budget {budget} s -> level {level}: \"{}\" ({} s, {} slides)",
            summary.title,
            summary.video.duration.as_millis() / 1000,
            summary.slide_count()
        )?;
    }
    Ok(())
}

/// `wmps net [--units N] [--streams N] [--sync-every N] [--floor N]`
///
/// Prints the extended timed Petri net (or, with `--floor`, the
/// floor-control net for N users) as Graphviz DOT.
fn net_cmd(args: &Args, out: &mut impl Write) -> Result<(), CliError> {
    if let Some(users) = args.flag("floor") {
        let users: usize = users
            .parse()
            .map_err(|_| CliError::bad_value("--floor", users))?;
        let requests: Vec<lod_core::FloorRequest> = (0..users)
            .map(|u| lod_core::FloorRequest {
                user: u,
                at: 0,
                hold: 100,
                priority: 0,
            })
            .collect();
        let fc = lod_core::FloorControl::new(&requests);
        writeln!(out, "{}", lod_petri::to_dot(fc.timed_net().net(), None))?;
        return Ok(());
    }
    let cfg = lod_core::EtpnConfig {
        unit_ticks: 10_000_000,
        units: args.num_or("units", 3usize)?,
        streams: args.num_or("streams", 2usize)?,
        sync_every: args.num_or("sync-every", 1usize)?,
        block_prefetch: true,
    };
    let net = lod_core::LectureNet::new(cfg);
    let marking = net.initial_marking();
    writeln!(
        out,
        "{}",
        lod_petri::to_dot(net.timed_net().net(), Some(&marking))
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Args {
        Args::parse(&s.split_whitespace().map(String::from).collect::<Vec<_>>()).unwrap()
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("lod-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn publish_inspect_replay_round_trip_on_disk() {
        let path = tmp("lecture.asf");
        let mut buf = Vec::new();
        run(
            &argv(&format!(
                "publish {path} --duration-secs 30 --slides 3 --annotation 10:remember-this"
            )),
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("published"));
        assert!(text.contains("4 script commands")); // 3 slides + 1 annotation

        let mut buf = Vec::new();
        run(&argv(&format!("inspect {path}")), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("duration    : 30.0 s"));
        assert!(text.contains("script commands: 4"));

        let mut buf = Vec::new();
        run(&argv(&format!("replay {path}")), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("slide flips  : 3"));
        assert!(text.contains("max 0 ticks"));
    }

    #[test]
    fn drm_protected_file_needs_license_on_replay() {
        let path = tmp("protected.asf");
        run(
            &argv(&format!(
                "publish {path} --duration-secs 10 --slides 1 --license cs101:42"
            )),
            &mut Vec::new(),
        )
        .unwrap();
        let err = run(&argv(&format!("replay {path}")), &mut Vec::new()).unwrap_err();
        assert!(err.to_string().contains("license"));
        run(
            &argv(&format!("replay {path} --license cs101:42")),
            &mut Vec::new(),
        )
        .unwrap();
        assert!(run(
            &argv(&format!("replay {path} --license cs101:43")),
            &mut Vec::new()
        )
        .is_err());
    }

    #[test]
    fn serve_reports_per_student() {
        let path = tmp("served.asf");
        run(
            &argv(&format!("publish {path} --duration-secs 20 --slides 2")),
            &mut Vec::new(),
        )
        .unwrap();
        let mut buf = Vec::new();
        run(
            &argv(&format!("serve {path} --students 2 --link lan")),
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("student 0"));
        assert!(text.contains("student 1"));
        assert!(text.contains("server:"));
    }

    #[test]
    fn serve_rejects_an_unknown_transport() {
        let path = tmp("transported.asf");
        run(
            &argv(&format!("publish {path} --duration-secs 10 --slides 1")),
            &mut Vec::new(),
        )
        .unwrap();
        let err = run(
            &argv(&format!("serve {path} --transport carrier-pigeon")),
            &mut Vec::new(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("--transport"));
    }

    #[test]
    fn serve_over_loopback_udp_reports_the_transport() {
        let path = tmp("udp-served.asf");
        run(
            &argv(&format!("publish {path} --duration-secs 10 --slides 1")),
            &mut Vec::new(),
        )
        .unwrap();
        let mut buf = Vec::new();
        run(
            &argv(&format!(
                "serve {path} --students 2 --relays 1 --transport udp"
            )),
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("loopback udp"), "{text}");
        assert!(text.contains("2/2 completed, 0 abandoned"), "{text}");
        assert!(text.contains("transport:"), "{text}");
    }

    #[test]
    fn serve_udp_with_repair_and_injected_loss_reports_the_sublayer() {
        let path = tmp("udp-repaired.asf");
        run(
            &argv(&format!("publish {path} --duration-secs 10 --slides 1")),
            &mut Vec::new(),
        )
        .unwrap();
        let mut buf = Vec::new();
        run(
            &argv(&format!(
                "serve {path} --students 2 --relays 1 --transport udp \
                 --repair on --retry-budget 4 --loss-permille 80 --fault-seed 11"
            )),
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("repair:"), "{text}");
        assert!(text.contains("dropped by injection"), "{text}");
        assert!(text.contains("2/2 completed"), "{text}");
    }

    #[test]
    fn serve_udp_sizes_segments_to_the_packet_or_refuses() {
        // 4 000-byte packets: 32 of them overflow a datagram, so the
        // segment must shrink to what fits — and every sample plays.
        let path = tmp("udp-big-packets.asf");
        run(
            &argv(&format!(
                "publish {path} --duration-secs 30 --slides 3 --packet-size 4000"
            )),
            &mut Vec::new(),
        )
        .unwrap();
        let mut buf = Vec::new();
        run(
            &argv(&format!(
                "serve {path} --students 4 --relays 1 --transport udp"
            )),
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("4/4 completed, 0 abandoned"), "{text}");
        assert!(!text.contains(" 0 samples"), "{text}");

        // 65 000-byte packets fit no datagram at all: refused up front.
        let path = tmp("udp-huge-packets.asf");
        run(
            &argv(&format!(
                "publish {path} --duration-secs 5 --slides 1 --packet-size 65000"
            )),
            &mut Vec::new(),
        )
        .unwrap();
        let err = run(
            &argv(&format!("serve {path} --transport udp")),
            &mut Vec::new(),
        )
        .unwrap_err();
        assert!(matches!(err, CliError::Content(_)), "{err}");
        assert!(err.to_string().contains("65000-byte packet"), "{err}");
    }

    #[test]
    fn serve_udp_refuses_link_shaping_and_sim_refuses_socket_knobs() {
        let path = tmp("udp-link.asf");
        run(
            &argv(&format!("publish {path} --duration-secs 10 --slides 1")),
            &mut Vec::new(),
        )
        .unwrap();
        for (cmd, flag) in [
            ("--transport udp --link lan", "--link"),
            ("--loss-permille 50", "--loss-permille"),
            ("--transport sim --repair on", "--repair"),
        ] {
            let err = run(&argv(&format!("serve {path} {cmd}")), &mut Vec::new()).unwrap_err();
            assert!(
                matches!(&err, CliError::BadValue { flag: f, .. } if f == flag),
                "{cmd}: {err}"
            );
        }
    }

    /// The overload and standby flags build the same tier on sockets as
    /// on simnet: both report lines appear, and every student either
    /// completes or is explicitly shed.
    #[test]
    fn serve_udp_runs_the_overload_ladder_and_the_standby() {
        let path = tmp("udp-overload.asf");
        run(
            &argv(&format!("publish {path} --duration-secs 10 --slides 1")),
            &mut Vec::new(),
        )
        .unwrap();
        let mut buf = Vec::new();
        run(
            &argv(&format!(
                "serve {path} --transport udp --students 4 --relays 2 \
                 --max-sessions 1 --degrade on --standby"
            )),
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("  overload: "), "{text}");
        assert!(text.contains("  standby: "), "{text}");
        assert!(text.contains(" 0 hard failure(s)"), "{text}");
    }

    #[test]
    fn serve_udp_rejects_a_bad_repair_value() {
        let path = tmp("udp-badrepair.asf");
        run(
            &argv(&format!("publish {path} --duration-secs 10 --slides 1")),
            &mut Vec::new(),
        )
        .unwrap();
        let err = run(
            &argv(&format!("serve {path} --transport udp --repair sometimes")),
            &mut Vec::new(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("--repair"), "{err}");
    }

    #[test]
    fn serve_through_relays_reports_the_tier() {
        let path = tmp("relayed.asf");
        run(
            &argv(&format!("publish {path} --duration-secs 20 --slides 2")),
            &mut Vec::new(),
        )
        .unwrap();
        let mut buf = Vec::new();
        run(
            &argv(&format!("serve {path} --students 4 --link lan --relays 2")),
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("through 2 relay(s)"));
        assert!(text.contains("student 3"));
        assert!(text.contains("relays:"));
        assert!(text.contains("cache hit rate"));
    }

    #[test]
    fn serve_with_admission_reports_overload_line() {
        let path = tmp("guarded.asf");
        run(
            &argv(&format!("publish {path} --duration-secs 10 --slides 1")),
            &mut Vec::new(),
        )
        .unwrap();
        let mut buf = Vec::new();
        run(
            &argv(&format!(
                "serve {path} --students 3 --link lan --max-sessions 2 --degrade on"
            )),
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("overload:"), "{text}");
        assert!(text.contains("student 2"), "{text}");
        // Bad --degrade values are rejected, not silently off.
        assert!(run(
            &argv(&format!("serve {path} --degrade sideways")),
            &mut Vec::new()
        )
        .is_err());
    }

    #[test]
    fn serve_standby_reports_replication() {
        let path = tmp("standby.asf");
        run(
            &argv(&format!("publish {path} --duration-secs 10 --slides 1")),
            &mut Vec::new(),
        )
        .unwrap();
        let mut buf = Vec::new();
        run(
            &argv(&format!(
                "serve {path} --students 2 --link lan --standby --checkpoint-every 1"
            )),
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("standby:"), "{text}");
        assert!(text.contains("never promoted (origin stayed up)"), "{text}");
        assert!(!text.contains("0 checkpoint(s) replicated"), "{text}");
    }

    #[test]
    fn serve_metrics_out_feeds_report() {
        let asf = tmp("observed.asf");
        run(
            &argv(&format!("publish {asf} --duration-secs 10 --slides 1")),
            &mut Vec::new(),
        )
        .unwrap();
        let prom = tmp("observed.prom");
        let mut buf = Vec::new();
        run(
            &argv(&format!(
                "serve {asf} --students 2 --link lan --metrics-out {prom}"
            )),
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("metrics:"), "{text}");

        let exposition = std::fs::read_to_string(&prom).unwrap();
        assert!(
            exposition.contains("lod_server_sessions_served_total"),
            "{exposition}"
        );
        assert!(exposition.contains("lod_events_total"), "{exposition}");
        let jsonl = std::fs::read_to_string(format!("{prom}.jsonl")).unwrap();
        assert!(jsonl.contains("\"kind\":\"session_start\""), "{jsonl}");

        let mut buf = Vec::new();
        run(&argv(&format!("report {prom}.jsonl --top 1")), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("causal invariants: ok"), "{text}");
        assert!(text.contains("2 session(s)"), "{text}");
        assert!(text.contains("session student0"), "{text}");
        // --top 1 prints exactly one session block.
        assert_eq!(text.matches("session student").count(), 1, "{text}");
    }

    #[test]
    fn serve_traced_feeds_trace_and_report() {
        let asf = tmp("traced.asf");
        run(
            &argv(&format!("publish {asf} --duration-secs 20 --slides 2")),
            &mut Vec::new(),
        )
        .unwrap();
        let prom = tmp("traced.prom");
        let mut buf = Vec::new();
        run(
            &argv(&format!(
                "serve {asf} --students 2 --link lan --relays 2 \
                 --trace-permille 1000 --metrics-out {prom}"
            )),
            &mut buf,
        )
        .unwrap();

        // The report surfaces the span verdict and the worst segments.
        let mut buf = Vec::new();
        run(&argv(&format!("report {prom}.jsonl --top 3")), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("causal invariants: ok"), "{text}");
        assert!(
            text.contains("worst segments by end-to-end latency:"),
            "{text}"
        );
        assert!(text.contains("segment"), "{text}");

        // The trace command renders hop stats and a waterfall.
        let mut buf = Vec::new();
        run(
            &argv(&format!("trace {prom}.jsonl --segment 0 --width 32")),
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(
            text.contains("hop latency across sampled segments:"),
            "{text}"
        );
        assert!(text.contains("packetize"), "{text}");
        assert!(text.contains("playout_wait"), "{text}");
        assert!(text.contains("segment 0 (lecture"), "{text}");
        assert!(text.contains("█"), "{text}");

        // Asking for a segment nobody sampled is an explicit error.
        let err = run(
            &argv(&format!("trace {prom}.jsonl --segment 9999")),
            &mut Vec::new(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("no sampled trace"), "{err}");
    }

    #[test]
    fn trace_on_a_spanless_log_says_so() {
        let asf = tmp("untraced.asf");
        run(
            &argv(&format!("publish {asf} --duration-secs 10 --slides 1")),
            &mut Vec::new(),
        )
        .unwrap();
        let prom = tmp("untraced.prom");
        run(
            &argv(&format!(
                "serve {asf} --students 1 --link lan --metrics-out {prom}"
            )),
            &mut Vec::new(),
        )
        .unwrap();
        let mut buf = Vec::new();
        run(&argv(&format!("trace {prom}.jsonl")), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("no trace spans"), "{text}");
    }

    #[test]
    fn serve_udp_traced_writes_causal_events() {
        let asf = tmp("udp-traced.asf");
        run(
            &argv(&format!("publish {asf} --duration-secs 10 --slides 1")),
            &mut Vec::new(),
        )
        .unwrap();
        let prom = tmp("udp-traced.prom");
        let events = format!("{prom}.jsonl");
        let mut buf = Vec::new();
        run(
            &argv(&format!(
                "serve {asf} --students 2 --relays 1 --transport udp \
                 --trace-permille 1000 --metrics-out {prom}"
            )),
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("2/2 completed"), "{text}");
        assert!(text.contains("metrics:"), "{text}");
        let exposition = std::fs::read_to_string(&prom).unwrap();
        assert!(
            exposition.contains("lod_sessions_completed 2"),
            "{exposition}"
        );

        // The log satisfies the span invariants, and the waterfall
        // includes the transport hops the simulator cannot see.
        let log = std::fs::read_to_string(&events).unwrap();
        assert!(log.contains("\"kind\":\"span_open\""), "spans in {events}");
        let mut buf = Vec::new();
        run(&argv(&format!("report {events} --top 2")), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("causal invariants: ok"), "{text}");
        let mut buf = Vec::new();
        run(&argv(&format!("trace {events}")), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("wire"), "{text}");
        assert!(text.contains("reassemble"), "{text}");
    }

    #[test]
    fn report_rejects_garbage_logs() {
        let path = tmp("garbage.jsonl");
        std::fs::write(&path, "not json at all\n").unwrap();
        assert!(matches!(
            run(&argv(&format!("report {path}")), &mut Vec::new()),
            Err(CliError::Content(_))
        ));
    }

    #[test]
    fn abstract_prints_levels_and_budget_choice() {
        let mut buf = Vec::new();
        run(
            &argv("abstract --seed 7 --minutes 30 --budget-secs 600"),
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("level 0"));
        assert!(text.contains("budget 600 s"));
    }

    #[test]
    fn unknown_command_and_bad_link_error() {
        assert!(matches!(
            run(&argv("frobnicate"), &mut Vec::new()),
            Err(CliError::UnknownCommand(_))
        ));
        let path = tmp("x.asf");
        run(
            &argv(&format!("publish {path} --duration-secs 5 --slides 1")),
            &mut Vec::new(),
        )
        .unwrap();
        assert!(matches!(
            run(
                &argv(&format!("serve {path} --link carrier-pigeon")),
                &mut Vec::new()
            ),
            Err(CliError::BadValue { .. })
        ));
    }

    #[test]
    fn net_prints_dot() {
        let mut buf = Vec::new();
        run(&argv("net --units 2 --streams 2"), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("digraph petri {"));
        assert!(text.contains("play[0,0]"));
        assert!(text.contains("join[1]"));

        let mut buf = Vec::new();
        run(&argv("net --floor 3"), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("floor"));
        assert!(text.contains("grant[2]u2"));
    }

    #[test]
    fn inspect_rejects_garbage_files() {
        let path = tmp("garbage.asf");
        std::fs::write(&path, b"this is not asf").unwrap();
        assert!(matches!(
            run(&argv(&format!("inspect {path}")), &mut Vec::new()),
            Err(CliError::Content(_))
        ));
    }
}
