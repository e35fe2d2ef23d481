//! Q16: the transport repair sublayer under seeded loss — NACK,
//! retransmit, give-up and gap-skip accounting on a deterministic
//! virtual wire.
//!
//! The drill runs the *production* repair machinery — [`FaultEngine`],
//! [`RepairTx`], [`ReorderBuffer`], the receiver round
//! [`RepairRx::round`] that the UDP backend runs too, and the real frame
//! / control-frame codec — over an all-integer in-memory wire instead of
//! kernel sockets. Frames cross a fixed-latency link whose fate (drop,
//! duplicate, delay) comes from the seeded fault engine, NACKs ride the
//! reverse direction through the same chaos, and time advances in fixed
//! ticks. Two processes therefore produce byte-identical reports —
//! `scripts/ci.sh` diffs them — while the real-socket flavor of the
//! same scenario lives in the `loopback_chaos` integration test, whose
//! wall-clock numbers could never be gated this tightly.
//!
//! Each loss profile runs twice: repair **off** (the reorder buffer
//! times gaps out and skips them up to the application — every skipped
//! sequence is a hole the app must re-request) and repair **on** (gaps
//! are NACKed and retransmitted inside the transport; only sequences
//! whose retry budget is exhausted are ever skipped). The canonical
//! profile — 12% steady loss with a near-total burst on top, plus
//! duplication and delay-reordering — feeds the `"tracked"` section the
//! CI perf gate holds to exactly `BENCH_q16.json` (more NACKs,
//! retransmits, give-ups or skips for the same seeded chaos means the
//! protocol got chattier or weaker; fewer means it changed too). A sweep
//! over steady-loss rates lands in `"untracked"` for the experiment
//! record.
//!
//! Usage: `q16_repair [--json PATH]`

use lod_bench::report::{emit, BenchReport, Json};
use lod_simnet::{FaultInjector, FaultPlan, NodeId};
use lod_transport::frame::encode_frame_traced;
use lod_transport::{
    decode_frame, encode_frame, mark_retransmit, ControlFrame, FaultAction, FaultEngine, FaultSpec,
    ReorderBuffer, RepairConfig, RepairRx, RepairTx, WireCodec, FLAG_CONTROL,
};

/// Virtual-time step per drill iteration.
const STEP: u64 = 1_000;
/// One-way latency of the virtual wire.
const WIRE_DELAY: u64 = 2_000;
/// Data frames the sender ships, one per step.
const N_FRAMES: u64 = 2_000;
/// Payload bytes per data frame.
const PAYLOAD_BYTES: usize = 1_200;
/// Hard tick ceiling — a stuck drill is a bug, not a long run.
const MAX_TICKS: u64 = 200_000_000;
/// Gap-flush deadline for the repair-off runs (the reorder buffer's
/// only recovery when nobody NACKs).
const FLUSH_AFTER: u64 = 50_000;

/// One loss profile of the sweep.
struct Profile {
    name: &'static str,
    loss_permille: u16,
    /// Adds a near-total loss burst plus duplication and
    /// delay-reordering on top of the steady loss.
    chaos_extras: bool,
}

/// Counters one drill run produces — all deterministic integers.
#[derive(Debug, Default)]
struct DrillOut {
    delivered: u64,
    skipped: u64,
    out_of_order: u64,
    duplicates: u64,
    data_frames_dropped: u64,
    control_frames_dropped: u64,
    nacks_sent: u64,
    seqs_nacked: u64,
    retransmits: u64,
    give_ups: u64,
    repaired_gaps: u64,
    ticks: u64,
}

/// A frame in flight on one direction of the virtual wire.
struct InFlight {
    deliver_at: u64,
    /// Insertion order, the tiebreak that keeps equal-tick delivery
    /// deterministic.
    id: u64,
    frame: Vec<u8>,
}

/// The virtual wire: a lossy, delaying, duplicating unidirectional
/// link fed by a seeded fault engine.
struct WireDir {
    engine: FaultEngine,
    src: NodeId,
    dst: NodeId,
    in_flight: Vec<InFlight>,
    next_id: u64,
    dropped: u64,
}

impl WireDir {
    fn new(spec: FaultSpec, src: NodeId, dst: NodeId) -> Self {
        Self {
            engine: FaultEngine::new(spec),
            src,
            dst,
            in_flight: Vec::new(),
            next_id: 0,
            dropped: 0,
        }
    }

    /// Rolls the fault engine for `frame` and schedules what survives.
    fn send(&mut self, now: u64, frame: Vec<u8>) {
        let mut push = |deliver_at: u64, frame: Vec<u8>, next_id: &mut u64| {
            self.in_flight.push(InFlight {
                deliver_at,
                id: *next_id,
                frame,
            });
            *next_id += 1;
        };
        match self.engine.action(self.src, self.dst) {
            FaultAction::Drop => self.dropped += 1,
            FaultAction::Deliver => {
                let mut id = self.next_id;
                push(now + WIRE_DELAY, frame, &mut id);
                self.next_id = id;
            }
            FaultAction::Duplicate => {
                let mut id = self.next_id;
                push(now + WIRE_DELAY, frame.clone(), &mut id);
                push(now + WIRE_DELAY, frame, &mut id);
                self.next_id = id;
            }
            FaultAction::Delay(extra) => {
                let mut id = self.next_id;
                push(now + WIRE_DELAY + extra, frame, &mut id);
                self.next_id = id;
            }
        }
    }

    /// Frames due at `now`, oldest scheduled first.
    fn deliver_due(&mut self, now: u64) -> Vec<Vec<u8>> {
        let mut due: Vec<(u64, u64, usize)> = self
            .in_flight
            .iter()
            .enumerate()
            .filter(|(_, f)| f.deliver_at <= now)
            .map(|(i, f)| (f.deliver_at, f.id, i))
            .collect();
        due.sort_unstable();
        let indices: Vec<usize> = due.iter().map(|&(_, _, i)| i).collect();
        let mut out = Vec::with_capacity(indices.len());
        // Remove from the back so earlier indices stay valid.
        let mut sorted_desc = indices.clone();
        sorted_desc.sort_unstable_by(|a, b| b.cmp(a));
        let mut pulled: Vec<(usize, Vec<u8>)> = sorted_desc
            .into_iter()
            .map(|i| (i, self.in_flight.swap_remove(i).frame))
            .collect();
        for &(_, _, i) in &due {
            let at = pulled
                .iter()
                .position(|&(j, _)| j == i)
                .expect("pulled what was due");
            out.push(pulled.swap_remove(at).1);
        }
        out
    }

    fn idle(&self) -> bool {
        self.in_flight.is_empty()
    }
}

/// The fault profile of the data direction (sender → receiver), and
/// the burst scheduled on it.
fn data_faults(p: &Profile) -> (FaultSpec, FaultPlan) {
    let sender = NodeId::from_index(0);
    let receiver = NodeId::from_index(1);
    let mut spec = FaultSpec {
        seed: 16,
        loss_permille: p.loss_permille,
        ..FaultSpec::default()
    };
    let mut plan = FaultPlan::new();
    if p.chaos_extras {
        spec.dup_permille = 10;
        spec.delay_permille = 30;
        spec.delay_ticks = 5_000;
        // A near-total burst long enough to exhaust retry budgets:
        // originals and their retransmits both die inside the window.
        plan = plan.loss_burst(400_000, 60_000, sender, receiver, 999);
    }
    (spec, plan)
}

/// The fault profile of the control direction (receiver → sender):
/// NACKs ride the same lossy network, so re-NACKs genuinely happen.
fn control_spec(p: &Profile) -> FaultSpec {
    FaultSpec {
        seed: 17,
        loss_permille: p.loss_permille,
        ..FaultSpec::default()
    }
}

/// One run of the drill. `repair` carries the sublayer's tuning, or
/// `None` for the repair-off baseline.
fn run_drill(p: &Profile, repair: Option<RepairConfig>) -> DrillOut {
    let sender = NodeId::from_index(0);
    let receiver = NodeId::from_index(1);
    let (spec, plan) = data_faults(p);
    let mut s2r = WireDir::new(spec, sender, receiver);
    let mut burst = FaultInjector::new(plan);
    let mut r2s = WireDir::new(control_spec(p), receiver, sender);

    let mut tx = repair.map(RepairTx::new);
    let mut rx = repair.map(RepairRx::new);
    let mut buffer: ReorderBuffer<u64> = ReorderBuffer::new(FLUSH_AFTER);
    let payload = vec![0x5A; PAYLOAD_BYTES];

    let mut out = DrillOut::default();
    let mut next_seq: u64 = 1;
    // Sender-side heartbeat state once the data runs dry: a bounded
    // burst advertising the final sequence so a lost tail still gets
    // NACKed (mirrors the UDP backend's heartbeat protocol).
    let mut hb_sent: u32 = 0;
    let mut hb_last_at: u64 = 0;

    let mut now = 0;
    while now < MAX_TICKS {
        now += STEP;
        burst.poll(&mut s2r.engine, now);

        // Sender: one data frame per step until the lecture is shipped.
        if next_seq <= N_FRAMES {
            let frame = encode_frame(next_seq, now, true, &payload);
            if let Some(tx) = tx.as_mut() {
                tx.record(next_seq, &frame);
            }
            s2r.send(now, frame);
            next_seq += 1;
            hb_last_at = now;
        } else if let Some(cfg) = repair {
            // Data is quiet: advertise the top sequence a bounded
            // number of times so a dropped tail is still repairable.
            let interval = cfg.min_nack_interval_ticks * 2;
            if hb_sent <= cfg.retry_budget && now.saturating_sub(hb_last_at) >= interval {
                hb_sent += 1;
                hb_last_at = now;
                let hb = ControlFrame::Heartbeat { top_seq: N_FRAMES }.to_frame_payload();
                s2r.send(now, encode_frame_traced(0, now, FLAG_CONTROL, None, &hb));
            }
        }

        // Receiver: take delivery of everything due on the data wire.
        for frame in s2r.deliver_due(now) {
            let (header, body) = decode_frame(&frame).expect("self-encoded frame");
            if header.control {
                let ControlFrame::Heartbeat { top_seq } =
                    ControlFrame::from_frame_payload(body).expect("self-encoded control")
                else {
                    unreachable!("only heartbeats ride the data direction")
                };
                if let Some(rx) = rx.as_mut() {
                    rx.observe_top(top_seq, buffer.window_end());
                }
                continue;
            }
            if let Some(rx) = rx.as_mut() {
                // Karn's rule: a retransmitted frame's delay includes
                // the NACK round trip and must not feed the estimator.
                if !header.retransmit {
                    rx.observe_delay(now.saturating_sub(header.sent_at));
                }
                rx.observe_top(header.seq, buffer.window_end());
            }
            buffer.accept(header.seq, now, header.seq);
        }

        match (rx.as_mut(), tx.as_mut()) {
            (Some(rx), Some(tx)) => {
                // Receiver half: the UDP backend's round — NACK due
                // gaps (the advertised tail included) into the lossy
                // control direction and skip budget-exhausted ones.
                for nack in &rx.round(now, &mut buffer, &mut Vec::new()).nacks {
                    let body = nack.to_frame_payload();
                    r2s.send(now, encode_frame_traced(0, now, FLAG_CONTROL, None, &body));
                }

                // Sender half: answer whatever NACKs survived the
                // control direction.
                for frame in r2s.deliver_due(now) {
                    let (_, body) = decode_frame(&frame).expect("self-encoded frame");
                    let nack =
                        ControlFrame::from_frame_payload(body).expect("self-encoded control");
                    let response = tx.on_nack(now, &nack.seqs());
                    for rt in response.resend {
                        let mut frame = rt.frame;
                        mark_retransmit(&mut frame);
                        s2r.send(now, frame);
                    }
                }
            }
            _ => {
                // Repair off: the reorder buffer's flush deadline is
                // the only gap recovery — every flush is a skip the
                // application must notice and re-request.
                buffer.flush_due(now, &mut Vec::new());
            }
        }

        let drained = buffer.expected() > N_FRAMES;
        let sender_done = next_seq > N_FRAMES && (repair.is_none() || hb_sent > 0);
        if drained && sender_done && s2r.idle() && r2s.idle() {
            break;
        }
    }

    let stats = *buffer.stats();
    out.delivered = stats.delivered;
    out.skipped = stats.skipped_seqs;
    out.out_of_order = stats.out_of_order;
    out.duplicates = stats.duplicates;
    out.data_frames_dropped = s2r.dropped;
    out.control_frames_dropped = r2s.dropped;
    out.ticks = now;
    if let Some(rx) = rx.as_ref() {
        let s = rx.stats();
        out.nacks_sent = s.nacks_sent;
        out.seqs_nacked = s.seqs_nacked;
        out.repaired_gaps = s.repaired;
    }
    if let Some(tx) = tx.as_ref() {
        let s = tx.stats();
        out.retransmits = s.retransmits;
        out.give_ups = s.give_ups;
    }
    assert_eq!(
        out.delivered + out.skipped,
        N_FRAMES,
        "every sequence ends delivered or skipped ({p_name}): {out:?}",
        p_name = p.name
    );
    out
}

fn main() {
    let mut json_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => json_path = Some(args.next().expect("--json takes a path")),
            other => panic!("unknown argument {other} (usage: q16_repair [--json PATH])"),
        }
    }

    println!("Q16 — transport repair under seeded loss: NACK/retransmit vs gap-flush\n");

    // Representative control-frame sizes: a dense 64-sequence NACK (one
    // base + full bitmap) and a heartbeat, framed as shipped.
    let nacks = ControlFrame::build_nacks(std::iter::once(100..164));
    assert_eq!(nacks.len(), 1, "64 contiguous seqs fit one NACK");
    let nack_frame = encode_frame_traced(0, 0, FLAG_CONTROL, None, &nacks[0].to_frame_payload());
    let hb_frame = encode_frame_traced(
        0,
        0,
        FLAG_CONTROL,
        None,
        &ControlFrame::Heartbeat { top_seq: u64::MAX }.to_frame_payload(),
    );

    let profiles = [
        Profile {
            name: "steady_050",
            loss_permille: 50,
            chaos_extras: false,
        },
        Profile {
            name: "steady_100",
            loss_permille: 100,
            chaos_extras: false,
        },
        Profile {
            name: "steady_150",
            loss_permille: 150,
            chaos_extras: false,
        },
        Profile {
            name: "chaos_120",
            loss_permille: 120,
            chaos_extras: true,
        },
    ];

    let mut sweep = Vec::new();
    for p in &profiles {
        let off = run_drill(p, None);
        let on = run_drill(p, Some(RepairConfig::default()));
        println!(
            "{:<11} loss {:>3}‰{}: off skipped {:>3} | on skipped {:>3}, \
             {} NACKs / {} retransmits / {} give-ups / {} gaps repaired",
            p.name,
            p.loss_permille,
            if p.chaos_extras {
                " + burst"
            } else {
                "        "
            },
            off.skipped,
            on.skipped,
            on.nacks_sent,
            on.retransmits,
            on.give_ups,
            on.repaired_gaps,
        );
        sweep.push((p, off, on));
    }

    let (_, chaos_off, chaos_on) = sweep.last().expect("profiles is non-empty");
    // The acceptance shape, at drill scale: repair turns nearly every
    // application-visible hole into an in-transport retransmit, and the
    // only skips left are budget-exhausted burst casualties.
    assert!(
        chaos_on.skipped * 5 <= chaos_off.skipped,
        "repair must cut app-visible holes at least 5x: {} on vs {} off",
        chaos_on.skipped,
        chaos_off.skipped
    );
    assert!(chaos_on.repaired_gaps > 0, "{chaos_on:?}");

    // Sender-side give-ups need the retransmit buffer to lose the race
    // against the NACK round trip — a starved buffer makes eviction
    // (and the explicit give-up accounting it triggers) deterministic.
    let tinybuf = run_drill(
        &profiles[3],
        Some(RepairConfig {
            buffer_bytes: 4 * 1024,
            ..RepairConfig::default()
        }),
    );
    println!(
        "chaos_120 with a 4 KiB retransmit buffer: {} give-ups, {} skipped \
         (eviction outruns the NACK round trip by design)",
        tinybuf.give_ups, tinybuf.skipped
    );
    assert!(
        tinybuf.give_ups > 0,
        "a starved buffer must produce explicit give-ups: {tinybuf:?}"
    );

    let sweep = sweep.iter().map(|(p, off, on)| {
        Json::Obj(vec![
            ("profile", p.name.into()),
            ("loss_permille", p.loss_permille.into()),
            ("burst", p.chaos_extras.into()),
            ("off_skipped", off.skipped.into()),
            ("off_data_dropped", off.data_frames_dropped.into()),
            ("on_skipped", on.skipped.into()),
            ("on_data_dropped", on.data_frames_dropped.into()),
            ("on_control_dropped", on.control_frames_dropped.into()),
            ("on_nacks_sent", on.nacks_sent.into()),
            ("on_retransmits", on.retransmits.into()),
            ("on_give_ups", on.give_ups.into()),
            ("on_repaired_gaps", on.repaired_gaps.into()),
            ("on_out_of_order", on.out_of_order.into()),
            ("on_duplicates", on.duplicates.into()),
            ("on_ticks", on.ticks.into()),
            ("off_ticks", off.ticks.into()),
        ])
    });
    let report = BenchReport {
        bench: "q16_repair",
        tracked: vec![
            ("nack_frame_bytes", nack_frame.len() as u64),
            ("heartbeat_frame_bytes", hb_frame.len() as u64),
            ("chaos_off_skipped_seqs", chaos_off.skipped),
            ("chaos_on_skipped_seqs", chaos_on.skipped),
            ("chaos_on_nacks_sent", chaos_on.nacks_sent),
            ("chaos_on_seqs_nacked", chaos_on.seqs_nacked),
            ("chaos_on_retransmits", chaos_on.retransmits),
            ("chaos_on_give_ups", chaos_on.give_ups),
            ("tinybuf_give_ups", tinybuf.give_ups),
            ("tinybuf_skipped_seqs", tinybuf.skipped),
        ],
        untracked: vec![
            ("frames_per_run", N_FRAMES.into()),
            ("payload_bytes", PAYLOAD_BYTES.into()),
            ("sweep", Json::Arr(sweep.collect())),
        ],
    };
    emit(&report.render(), json_path.as_deref());

    println!(
        "\nshape: a 43-byte NACK frame naming 64 sequences replaces\n\
         per-segment application round trips; under steady loss the repair\n\
         sublayer absorbs essentially every hole, and under a near-total\n\
         burst it degrades by budget — bounded retries, explicit give-ups,\n\
         authorized skips — instead of stalling the lecture."
    );
}
