//! The shared event bus every subsystem emits into.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use crate::event::{Event, EventRecord};
use crate::metrics::Registry;
use crate::span::TraceCtx;

/// Event storage: unbounded by default (determinism artifacts need the
/// full log), or a preallocated fixed-capacity ring that keeps the most
/// recent events and counts what it dropped — the hot-path choice for
/// long perf runs, where emission must not allocate or grow.
#[derive(Debug, Default)]
struct EventLog {
    slots: Vec<EventRecord>,
    /// `Some(cap)` for ring mode; `None` grows without bound.
    capacity: Option<usize>,
    /// Ring mode: index of the oldest retained record once wrapped.
    head: usize,
    /// Events overwritten because the ring was full.
    dropped: u64,
}

impl EventLog {
    fn push(&mut self, rec: EventRecord) {
        match self.capacity {
            Some(cap) if self.slots.len() == cap => {
                // Full ring: overwrite the oldest slot in place. No
                // allocation, no shift — O(1) per event forever.
                self.slots[self.head] = rec;
                self.head = (self.head + 1) % cap;
                self.dropped += 1;
            }
            _ => self.slots.push(rec),
        }
    }

    /// Retained records, oldest first.
    fn to_vec(&self) -> Vec<EventRecord> {
        let mut out = Vec::with_capacity(self.slots.len());
        out.extend_from_slice(&self.slots[self.head..]);
        out.extend_from_slice(&self.slots[..self.head]);
        out
    }
}

#[derive(Debug, Default)]
struct Inner {
    events: EventLog,
    registry: Registry,
    labels: BTreeMap<u64, String>,
    /// Interned `lod_events_total{kind="…"}` counter names, built once
    /// per event kind so emission never formats on the hot path.
    kind_counter_names: BTreeMap<&'static str, String>,
}

/// A cheap-to-clone handle on one run's event log and metrics registry.
///
/// The server, relays, clients and fault injector of one simulation all
/// hold clones of the same recorder; emission order is the
/// single-threaded driver's call order, so a seeded run produces an
/// identical log every time. A disabled recorder (the default) makes
/// every call a no-op, so instrumented components cost nothing when
/// nobody is listening.
///
/// Everything is process-local (`Rc<RefCell>`): the simulation is
/// single-threaded by design, and determinism depends on that.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Option<Rc<RefCell<Inner>>>,
}

impl Recorder {
    /// An armed recorder that collects events and metrics.
    pub fn new() -> Self {
        Self {
            inner: Some(Rc::new(RefCell::new(Inner::default()))),
        }
    }

    /// An armed recorder whose event log is a preallocated ring keeping
    /// only the most recent `capacity` events ([`Recorder::events_dropped`]
    /// counts the overwritten ones). Metrics are unaffected. Use this for
    /// long or perf-sensitive runs: once the ring is warm, emission never
    /// allocates. Determinism gates keep using [`Recorder::new`], which
    /// retains everything.
    pub fn with_event_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        let inner = Inner {
            events: EventLog {
                slots: Vec::with_capacity(capacity),
                capacity: Some(capacity),
                head: 0,
                dropped: 0,
            },
            ..Inner::default()
        };
        Self {
            inner: Some(Rc::new(RefCell::new(inner))),
        }
    }

    /// A recorder that drops everything (the default for components
    /// nobody instrumented).
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// Whether this handle actually records.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Appends `event` at tick `at` and bumps its
    /// `lod_events_total{kind="..."}` counter.
    pub fn emit(&self, at: u64, event: Event) {
        let Some(inner) = &self.inner else {
            return;
        };
        let inner = &mut *inner.borrow_mut();
        // The counter name is formatted once per kind, then reused: a
        // warm emit performs no allocation beyond what the record holds.
        let name = inner
            .kind_counter_names
            .entry(event.kind())
            .or_insert_with(|| format!("lod_events_total{{kind=\"{}\"}}", event.kind()));
        inner.registry.counter_add(name, 1);
        inner.events.push(EventRecord { at, event });
        // Surface ring-mode loss in the registry so a metrics-only
        // scrape (no event log) still shows the log was truncated.
        if inner.events.dropped > 0 {
            inner
                .registry
                .gauge_set("lod_events_dropped", inner.events.dropped);
        }
    }

    /// Records one edge of the traced segment `ctx` crossing `hop`
    /// between `node` and `peer`: an [`Event::SpanOpen`] when `open`,
    /// else an [`Event::SpanClose`]. Every span edge in the system comes
    /// from here. A disabled recorder returns before the hop name is
    /// copied, so an untraced run pays one branch per call site.
    pub fn span(&self, at: u64, open: bool, node: u64, peer: u64, hop: &str, ctx: TraceCtx) {
        if self.inner.is_none() {
            return;
        }
        let (hop, lecture, segment) = (hop.to_string(), ctx.lecture, ctx.segment);
        let event = if open {
            Event::SpanOpen {
                node,
                peer,
                hop,
                lecture,
                segment,
            }
        } else {
            Event::SpanClose {
                node,
                peer,
                hop,
                lecture,
                segment,
            }
        };
        self.emit(at, event);
    }

    /// Names a node's role (`origin`, `relay0`, `student17`). Emits a
    /// [`Event::NodeLabel`] at tick 0 and remembers the mapping for
    /// [`Recorder::node_by_label`].
    pub fn label_node(&self, node: u64, label: &str) {
        let Some(inner) = &self.inner else {
            return;
        };
        inner.borrow_mut().labels.insert(node, label.to_string());
        self.emit(
            0,
            Event::NodeLabel {
                node,
                label: label.to_string(),
            },
        );
    }

    /// The node carrying `label`, when one was registered.
    pub fn node_by_label(&self, label: &str) -> Option<u64> {
        let inner = self.inner.as_ref()?;
        let inner = inner.borrow();
        inner
            .labels
            .iter()
            .find(|(_, l)| l.as_str() == label)
            .map(|(&n, _)| n)
    }

    /// Adds `v` to counter `name`.
    pub fn counter_add(&self, name: &str, v: u64) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().registry.counter_add(name, v);
        }
    }

    /// Sets gauge `name` to `v`.
    pub fn gauge_set(&self, name: &str, v: u64) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().registry.gauge_set(name, v);
        }
    }

    /// Records `value` into histogram `name` (created over `bounds` on
    /// first use).
    pub fn observe(&self, name: &str, bounds: &[u64], value: u64) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().registry.observe(name, bounds, value);
        }
    }

    /// Number of events currently retained (in ring mode, at most the
    /// configured capacity).
    pub fn event_count(&self) -> usize {
        self.inner
            .as_ref()
            .map_or(0, |inner| inner.borrow().events.slots.len())
    }

    /// Events overwritten by a full ring (always 0 for [`Recorder::new`]).
    pub fn events_dropped(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |inner| inner.borrow().events.dropped)
    }

    /// A copy of the retained event log in emission order.
    pub fn events(&self) -> Vec<EventRecord> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |inner| inner.borrow().events.to_vec())
    }

    /// A copy of the metrics registry.
    pub fn registry(&self) -> Registry {
        self.inner
            .as_ref()
            .map_or_else(Registry::new, |inner| inner.borrow().registry.clone())
    }

    /// Serializes the event log as JSONL, one event per line, in
    /// emission order. Byte-identical across seeded replays.
    pub fn to_jsonl(&self) -> String {
        let Some(inner) = &self.inner else {
            return String::new();
        };
        let inner = inner.borrow();
        let mut out = String::with_capacity(inner.events.slots.len() * 64);
        for rec in inner.events.to_vec() {
            out.push_str(&rec.to_json());
            out.push('\n');
        }
        out
    }

    /// Renders the metrics registry as a Prometheus-style exposition.
    pub fn prometheus(&self) -> String {
        self.inner
            .as_ref()
            .map_or_else(String::new, |inner| inner.borrow().registry.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_a_no_op() {
        let r = Recorder::disabled();
        r.emit(1, Event::SessionStart { client: 1 });
        r.counter_add("c", 1);
        assert!(!r.is_enabled());
        assert_eq!(r.event_count(), 0);
        assert_eq!(r.to_jsonl(), "");
        assert_eq!(r.prometheus(), "");
    }

    #[test]
    fn span_edges_record_only_when_enabled() {
        let ctx = TraceCtx {
            lecture: 7,
            segment: 3,
            seq: 1,
            origin: 5,
        };
        let off = Recorder::disabled();
        off.span(10, true, 1, 2, "fan_out", ctx);
        off.span(11, false, 1, 2, "fan_out", ctx);
        assert_eq!(off.event_count(), 0);
        assert_eq!(off.to_jsonl(), "");
        assert_eq!(off.prometheus(), "");

        let on = Recorder::new();
        on.span(10, true, 1, 2, "fan_out", ctx);
        on.span(11, false, 1, 2, "fan_out", ctx);
        let ev = on.events();
        assert_eq!(ev.len(), 2);
        for (rec, (at, open)) in ev.iter().zip([(10, true), (11, false)]) {
            let (Event::SpanOpen {
                node,
                peer,
                hop,
                lecture,
                segment,
            }
            | Event::SpanClose {
                node,
                peer,
                hop,
                lecture,
                segment,
            }) = &rec.event
            else {
                panic!("not a span edge: {rec:?}");
            };
            let is_open = matches!(rec.event, Event::SpanOpen { .. });
            let got = (
                rec.at,
                is_open,
                *node,
                *peer,
                hop.as_str(),
                *lecture,
                *segment,
            );
            assert_eq!(got, (at, open, 1, 2, "fan_out", 7, 3));
        }
    }

    #[test]
    fn clones_share_one_log() {
        let r = Recorder::new();
        let r2 = r.clone();
        r.emit(1, Event::SessionStart { client: 1 });
        r2.emit(2, Event::StallStart { client: 1 });
        assert_eq!(r.event_count(), 2);
        assert_eq!(
            r.registry()
                .counter("lod_events_total{kind=\"session_start\"}"),
            1
        );
    }

    #[test]
    fn labels_resolve_and_serialize() {
        let r = Recorder::new();
        r.label_node(0, "origin");
        assert_eq!(r.node_by_label("origin"), Some(0));
        assert_eq!(r.node_by_label("router"), None);
        assert!(r.to_jsonl().contains("\"kind\":\"node_label\""));
    }

    #[test]
    fn ring_mode_keeps_most_recent_events_in_order() {
        let r = Recorder::with_event_capacity(3);
        for t in 0..5 {
            r.emit(t, Event::SessionStart { client: t });
        }
        assert_eq!(r.event_count(), 3);
        assert_eq!(r.events_dropped(), 2);
        assert_eq!(r.registry().gauge("lod_events_dropped"), 2);
        let ticks: Vec<u64> = r.events().iter().map(|rec| rec.at).collect();
        assert_eq!(ticks, vec![2, 3, 4]);
        // JSONL matches events(): oldest retained first.
        let parsed = crate::event::parse_jsonl(&r.to_jsonl()).unwrap();
        assert_eq!(parsed, r.events());
    }

    #[test]
    fn ring_mode_counts_every_emission_in_metrics() {
        let r = Recorder::with_event_capacity(2);
        for t in 0..10 {
            r.emit(t, Event::SessionStart { client: 1 });
        }
        // Metrics see all 10 emissions even though only 2 are retained.
        assert_eq!(
            r.registry()
                .counter("lod_events_total{kind=\"session_start\"}"),
            10
        );
        assert_eq!(r.events_dropped(), 8);
        assert_eq!(r.registry().gauge("lod_events_dropped"), 8);
        assert!(r.prometheus().contains("lod_events_dropped 8"));
    }

    #[test]
    fn unbounded_recorder_never_drops() {
        let r = Recorder::new();
        for t in 0..100 {
            r.emit(t, Event::SessionStart { client: 1 });
        }
        assert_eq!(r.event_count(), 100);
        assert_eq!(r.events_dropped(), 0);
        // No loss means no gauge: the sample only appears once real.
        assert_eq!(r.registry().gauge("lod_events_dropped"), 0);
        assert!(!r.prometheus().contains("lod_events_dropped"));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_ring_is_rejected() {
        Recorder::with_event_capacity(0);
    }

    #[test]
    fn jsonl_round_trips_through_the_parser() {
        let r = Recorder::new();
        r.label_node(0, "origin");
        r.emit(10, Event::SessionStart { client: 3 });
        r.emit(
            20,
            Event::Downshift {
                client: 3,
                from_bps: 2,
                to_bps: 1,
            },
        );
        let parsed = crate::event::parse_jsonl(&r.to_jsonl()).unwrap();
        assert_eq!(parsed, r.events());
    }
}
