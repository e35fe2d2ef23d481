//! Spans recorded from outside the program: the benchmark's own drivers
//! wrap every call into a node, and every transport call a node makes,
//! in a span. A span's self time is its duration minus the time its
//! child spans cover, so the per-layer shares add up to the traced wall.
//!
//! One tracer per thread (the benchmark has one load-generating thread).
//! Aggregates (count, total, self, allocations) are kept per span name;
//! every [`KEEP_EVERY`]th driver step is kept span by span for
//! `trace.jsonl`. While no run is being traced every call here is a
//! flag test.

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::time::Instant;

use lod_simnet::{Delivery, NetworkError, NodeId};
use lod_streaming::Wire;
use lod_transport::Transport;

use crate::alloc;

/// Every this-many-th driver step is written out in full.
pub const KEEP_EVERY: u64 = 64;

/// The layer boundaries the drivers cross.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// One 100 ms driver step; its self time is the driver's own work
    /// (dispatch, `find`, collecting render events).
    Step,
    ServerPoll,
    ServerOnMessage,
    RelayPoll,
    RelayOnMessage,
    /// `RedirectManager::intercept` at the origin's front door.
    RelayRedirect,
    ClientStart,
    ClientOnMessage,
    ClientTick,
    /// The four `poll_*` control calls of one client in one step.
    ClientCtl,
    SimnetSend,
    SimnetAdvance,
    TransportSend,
    TransportPoll,
    /// `LiveEncoder::pump` plus feeding the packets to the `LiveFeed`.
    EncoderPump,
    // The six stages of `publish_replay` (its "step" is one level).
    CoreSummarize,
    EncoderPublish,
    AsfMux,
    AsfDemux,
    PlayerLoad,
    PlayerTick,
}

impl Span {
    pub const ALL: [Span; 21] = [
        Span::Step,
        Span::ServerPoll,
        Span::ServerOnMessage,
        Span::RelayPoll,
        Span::RelayOnMessage,
        Span::RelayRedirect,
        Span::ClientStart,
        Span::ClientOnMessage,
        Span::ClientTick,
        Span::ClientCtl,
        Span::SimnetSend,
        Span::SimnetAdvance,
        Span::TransportSend,
        Span::TransportPoll,
        Span::EncoderPump,
        Span::CoreSummarize,
        Span::EncoderPublish,
        Span::AsfMux,
        Span::AsfDemux,
        Span::PlayerLoad,
        Span::PlayerTick,
    ];

    /// `layer.operation`, as written to `trace.jsonl`.
    pub fn name(self) -> &'static str {
        match self {
            Span::Step => "core.step",
            Span::ServerPoll => "server.poll",
            Span::ServerOnMessage => "server.on_message",
            Span::RelayPoll => "relay.poll",
            Span::RelayOnMessage => "relay.on_message",
            Span::RelayRedirect => "relay.redirect",
            Span::ClientStart => "client.start",
            Span::ClientOnMessage => "client.on_message",
            Span::ClientTick => "client.tick",
            Span::ClientCtl => "client.ctl",
            Span::SimnetSend => "simnet.send",
            Span::SimnetAdvance => "simnet.advance",
            Span::TransportSend => "transport.send",
            Span::TransportPoll => "transport.poll",
            Span::EncoderPump => "encoder.pump",
            Span::CoreSummarize => "core.summarize",
            Span::EncoderPublish => "encoder.publish",
            Span::AsfMux => "asf.mux",
            Span::AsfDemux => "asf.demux",
            Span::PlayerLoad => "player.load",
            Span::PlayerTick => "player.tick",
        }
    }

    /// The part of the name before the dot.
    pub fn layer(self) -> &'static str {
        let name = self.name();
        &name[..name.find('.').expect("span names are layer.operation")]
    }
}

/// Totals for one span name over a traced run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    /// `total_ns` minus the time covered by child spans.
    pub self_ns: u64,
    /// Heap allocations made by the span itself, children excluded.
    pub self_allocs: u64,
}

/// One span of a kept step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Kept {
    pub span: Span,
    pub step: u64,
    /// Index of the enclosing kept span.
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug)]
struct Open {
    span: Span,
    start_ns: u64,
    /// `(allocations, bytes)` counted when the span opened.
    start_allocs: (u64, u64),
    child_ns: u64,
    child_allocs: u64,
    kept: Option<u32>,
}

#[derive(Debug)]
struct Tracer {
    epoch: Option<Instant>,
    stack: Vec<Open>,
    agg: [Agg; Span::ALL.len()],
    step: u64,
    kept: Vec<Kept>,
    step_ns: Vec<u64>,
    /// `(allocations, bytes)` made inside outermost spans: what the code
    /// under test asked for, without the benchmark's own set-up and
    /// bookkeeping between spans.
    in_spans: (u64, u64),
}

impl Tracer {
    const fn new() -> Self {
        Self {
            epoch: None,
            stack: Vec::new(),
            agg: [Agg {
                count: 0,
                total_ns: 0,
                self_ns: 0,
                self_allocs: 0,
            }; Span::ALL.len()],
            step: 0,
            kept: Vec::new(),
            step_ns: Vec::new(),
            in_spans: (0, 0),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch
            .expect("a traced run is in progress")
            .elapsed()
            .as_nanos() as u64
    }

    fn enter(&mut self, span: Span) {
        let keep = self.step.is_multiple_of(KEEP_EVERY);
        let start_ns = self.now_ns();
        let kept = keep.then(|| {
            self.kept.push(Kept {
                span,
                step: self.step,
                parent: self.stack.last().and_then(|o| o.kept),
                start_ns,
                end_ns: start_ns,
            });
            (self.kept.len() - 1) as u32
        });
        self.stack.push(Open {
            span,
            start_ns,
            start_allocs: alloc::snapshot(),
            child_ns: 0,
            child_allocs: 0,
            kept,
        });
    }

    fn exit(&mut self) -> u64 {
        let open = self.stack.pop().expect("exit pairs with an enter");
        let end_ns = self.now_ns();
        let dur = end_ns - open.start_ns;
        let now = alloc::snapshot();
        let allocs = now.0 - open.start_allocs.0;
        let agg = &mut self.agg[open.span as usize];
        agg.count += 1;
        agg.total_ns += dur;
        agg.self_ns += self_share(dur, open.child_ns);
        agg.self_allocs += self_share(allocs, open.child_allocs);
        if let Some(i) = open.kept {
            self.kept[i as usize].end_ns = end_ns;
        }
        match self.stack.last_mut() {
            Some(parent) => {
                parent.child_ns += dur;
                parent.child_allocs += allocs;
            }
            None => {
                self.in_spans.0 += allocs;
                self.in_spans.1 += now.1 - open.start_allocs.1;
            }
        }
        dur
    }
}

/// What of `total` is the span's own once `children` is taken out.
/// Saturating: clock reads of a parent and its children are separate, so
/// children can sum a few nanoseconds past the parent.
pub fn self_share(total: u64, children: u64) -> u64 {
    total.saturating_sub(children)
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static TRACER: RefCell<Tracer> = const { RefCell::new(Tracer::new()) };
}

/// Starts a traced run: clears the tracer, turns allocation counting on.
pub fn begin_run() {
    TRACER.with_borrow_mut(|t| {
        *t = Tracer::new();
        t.epoch = Some(Instant::now());
    });
    bytes::stats::reset();
    alloc::set_counting(true);
    ENABLED.set(true);
}

/// Everything a traced run recorded.
#[derive(Debug, Clone)]
pub struct TraceReport {
    pub agg: [Agg; Span::ALL.len()],
    pub kept: Vec<Kept>,
    /// Wall nanoseconds of each driver step, in step order.
    pub step_ns: Vec<u64>,
    /// Heap allocations, and bytes asked for, inside spans.
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub bytes_backing_allocs: u64,
    pub bytes_deep_copied: u64,
}

impl TraceReport {
    pub fn of(&self, span: Span) -> Agg {
        self.agg[span as usize]
    }

    /// Self time of every span of `layer`, in nanoseconds.
    pub fn layer_self_ns(&self, layer: &str) -> u64 {
        Span::ALL
            .iter()
            .filter(|s| s.layer() == layer)
            .map(|&s| self.of(s).self_ns)
            .sum()
    }

    /// Self time of every span, in nanoseconds.
    pub fn total_self_ns(&self) -> u64 {
        self.agg.iter().map(|a| a.self_ns).sum()
    }

    /// `trace.jsonl`: one header line, one line per span of each kept
    /// step (`id` is the line's index among them, `parent` an earlier
    /// `id`), then one aggregate line per span name that occurred.
    pub fn to_jsonl(&self, workload: &str, seed: u64) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"steps\":{},\"keep_every\":{KEEP_EVERY}}}",
            self.step_ns.len()
        );
        for (id, k) in self.kept.iter().enumerate() {
            let parent = k.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"step\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                k.step,
                k.span.name(),
                k.start_ns,
                k.end_ns
            );
        }
        for &s in &Span::ALL {
            let a = self.of(s);
            if a.count > 0 {
                let _ = writeln!(
                    out,
                    "{{\"agg\":\"{}\",\"count\":{},\"total_ns\":{},\"self_ns\":{},\"self_allocs\":{}}}",
                    s.name(),
                    a.count,
                    a.total_ns,
                    a.self_ns,
                    a.self_allocs
                );
            }
        }
        out
    }
}

/// Ends the traced run and hands back what it recorded.
pub fn end_run() -> TraceReport {
    ENABLED.set(false);
    alloc::set_counting(false);
    TRACER.with_borrow_mut(|t| {
        assert!(t.stack.is_empty(), "every span was closed");
        let t = std::mem::replace(t, Tracer::new());
        TraceReport {
            agg: t.agg,
            kept: t.kept,
            step_ns: t.step_ns,
            allocs: t.in_spans.0,
            alloc_bytes: t.in_spans.1,
            bytes_backing_allocs: bytes::stats::backing_allocations(),
            bytes_deep_copied: bytes::stats::bytes_deep_copied(),
        }
    })
}

/// Runs `f` inside `span`.
pub fn timed<R>(span: Span, f: impl FnOnce() -> R) -> R {
    if !ENABLED.get() {
        return f();
    }
    TRACER.with_borrow_mut(|t| t.enter(span));
    let r = f();
    TRACER.with_borrow_mut(|t| t.exit());
    r
}

/// Runs one driver step inside a [`Span::Step`] span.
pub fn step<R>(f: impl FnOnce() -> R) -> R {
    if !ENABLED.get() {
        return f();
    }
    TRACER.with_borrow_mut(|t| t.enter(Span::Step));
    let r = f();
    TRACER.with_borrow_mut(|t| {
        let dur = t.exit();
        t.step_ns.push(dur);
        t.step += 1;
    });
    r
}

/// A transport whose `send`, `send_reliable` and `poll` are spans, so
/// the time a node spends inside the substrate is the substrate's, not
/// the node's. The cheap read-only probes pass straight through.
#[derive(Debug)]
pub struct Timed<T> {
    pub inner: T,
    send: Span,
    poll: Span,
}

impl<T> Timed<T> {
    /// Wraps the simulated network.
    pub fn simnet(inner: T) -> Self {
        Self {
            inner,
            send: Span::SimnetSend,
            poll: Span::SimnetAdvance,
        }
    }

    /// Wraps a real-socket transport.
    pub fn udp(inner: T) -> Self {
        Self {
            inner,
            send: Span::TransportSend,
            poll: Span::TransportPoll,
        }
    }
}

impl<T: Transport<Wire>> Transport<Wire> for Timed<T> {
    fn send(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        message: Wire,
    ) -> Result<(), NetworkError> {
        timed(self.send, || self.inner.send(src, dst, bytes, message))
    }

    fn send_reliable(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        message: Wire,
    ) -> Result<(), NetworkError> {
        timed(self.send, || {
            self.inner.send_reliable(src, dst, bytes, message)
        })
    }

    fn first_hop_backlog(&self, src: NodeId, dst: NodeId) -> Option<u64> {
        self.inner.first_hop_backlog(src, dst)
    }

    fn now(&self) -> u64 {
        self.inner.now()
    }

    fn link_up(&self, src: NodeId, dst: NodeId) -> bool {
        self.inner.link_up(src, dst)
    }

    fn poll(&mut self, now: u64) -> Vec<Delivery<Wire>> {
        timed(self.poll, || self.inner.poll(now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_total_minus_children_and_never_negative() {
        assert_eq!(self_share(1_000, 400), 600);
        assert_eq!(self_share(1_000, 1_000), 0);
        assert_eq!(self_share(1_000, 1_003), 0);
    }

    #[test]
    fn nested_spans_account_self_time_and_parents() {
        begin_run();
        step(|| {
            timed(Span::RelayOnMessage, || {
                timed(Span::SimnetSend, || std::hint::black_box(vec![0u8; 64]));
                timed(Span::SimnetSend, || ());
            });
        });
        std::hint::black_box(vec![0u8; 1 << 20]);
        step(|| timed(Span::ClientTick, || ()));
        let r = end_run();

        assert_eq!(r.step_ns.len(), 2);
        assert_eq!(r.of(Span::Step).count, 2);
        assert_eq!(r.of(Span::SimnetSend).count, 2);
        let relay = r.of(Span::RelayOnMessage);
        let sends = r.of(Span::SimnetSend);
        // Leaves own all their time; a parent owns what its children do not.
        assert_eq!(sends.self_ns, sends.total_ns);
        assert_eq!(relay.self_ns, self_share(relay.total_ns, sends.total_ns));
        // Self times partition the step spans exactly (up to saturation).
        assert!(r.total_self_ns() <= r.of(Span::Step).total_ns + 3);
        // The one allocation belongs to the send span that made it.
        assert_eq!(sends.self_allocs, 1);
        assert_eq!(relay.self_allocs, 0);
        // Run totals count what happened inside spans: that allocation and
        // the tracer's own record keeping, not the vector made between steps.
        assert!(r.allocs >= 1 && r.alloc_bytes >= 64);
        assert!(r.alloc_bytes < 1 << 20);

        // Step 0 is a kept step, step 1 is not: 4 spans, parents first.
        assert_eq!(r.kept.len(), 4);
        assert_eq!(r.kept[0].span, Span::Step);
        assert_eq!(r.kept[0].parent, None);
        assert_eq!(r.kept[1].parent, Some(0));
        assert_eq!(r.kept[2].parent, Some(1));
        assert_eq!(r.kept[3].parent, Some(1));
        assert!(r.kept.iter().all(|k| k.end_ns >= k.start_ns && k.step == 0));

        let jsonl = r.to_jsonl("unit", 1);
        assert_eq!(jsonl.lines().count(), 1 + 4 + 4);
        assert!(jsonl.lines().nth(2).unwrap().contains("\"parent\":0"));
    }

    #[test]
    fn nothing_is_recorded_outside_a_run() {
        assert_eq!(timed(Span::ServerPoll, || 7), 7);
        begin_run();
        let r = end_run();
        assert_eq!(r.of(Span::ServerPoll).count, 0);
        assert_eq!(Span::RelayRedirect.layer(), "relay");
    }
}
