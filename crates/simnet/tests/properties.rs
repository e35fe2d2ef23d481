//! Property-based tests for the network simulator, and a differential
//! test of its dense link and route tables against a `HashMap`-keyed
//! model of the same network.

use lod_simnet::{Fault, FaultTarget, LinkSpec, Network, NodeId};
use proptest::prelude::*;

fn arb_link() -> impl Strategy<Value = LinkSpec> {
    (
        1_000u64..100_000_000,
        0u64..1_000_000,
        0u64..500_000,
        0.0f64..0.5,
    )
        .prop_map(|(bw, delay, jitter, loss)| LinkSpec {
            bandwidth_bps: bw,
            delay_ticks: delay,
            jitter_ticks: jitter,
            loss,
        })
}

proptest! {
    /// Packet conservation: delivered + dropped equals sent once the
    /// network drains.
    #[test]
    fn packets_are_conserved(
        link in arb_link(),
        sizes in proptest::collection::vec(1u64..10_000, 1..50),
        seed in any::<u64>(),
    ) {
        let mut net: Network<usize> = Network::new(seed);
        let a = net.add_node("a");
        let b = net.add_node("b");
        net.connect(a, b, link);
        for (i, &sz) in sizes.iter().enumerate() {
            net.send(a, b, sz, i).unwrap();
        }
        let delivered = net.advance_to(u64::MAX / 4).len() as u64;
        let stats = net.link_stats(a, b).unwrap();
        prop_assert_eq!(stats.packets_sent, sizes.len() as u64);
        prop_assert_eq!(stats.packets_delivered, delivered);
        prop_assert_eq!(stats.packets_dropped + stats.packets_delivered, stats.packets_sent);
        prop_assert_eq!(net.in_flight(), 0);
    }

    /// Without jitter and loss, delivery is FIFO and arrival spacing is at
    /// least the serialization time.
    #[test]
    fn jitterless_links_are_fifo(
        bw in 10_000u64..10_000_000,
        delay in 0u64..1_000_000,
        count in 2usize..30,
        seed in any::<u64>(),
    ) {
        let link = LinkSpec { bandwidth_bps: bw, delay_ticks: delay, jitter_ticks: 0, loss: 0.0 };
        let mut net: Network<usize> = Network::new(seed);
        let a = net.add_node("a");
        let b = net.add_node("b");
        net.connect(a, b, link);
        for i in 0..count {
            net.send(a, b, 1_000, i).unwrap();
        }
        let d = net.advance_to(u64::MAX / 4);
        prop_assert_eq!(d.len(), count);
        let order: Vec<usize> = d.iter().map(|x| x.message).collect();
        prop_assert_eq!(order, (0..count).collect::<Vec<_>>());
        let ser = link.serialization_ticks(1_000);
        for w in d.windows(2) {
            prop_assert!(w[1].time - w[0].time >= ser);
        }
    }

    /// Reliable sends never drop, whatever the loss rate.
    #[test]
    fn reliable_sends_never_lost(
        loss in 0.0f64..0.95,
        count in 1usize..40,
        seed in any::<u64>(),
    ) {
        let mut net: Network<usize> = Network::new(seed);
        let a = net.add_node("a");
        let b = net.add_node("b");
        net.connect(a, b, LinkSpec::lan().with_loss(loss));
        for i in 0..count {
            net.send_reliable(a, b, 100, i).unwrap();
        }
        prop_assert_eq!(net.advance_to(u64::MAX / 4).len(), count);
    }

    /// Two-hop routed delivery takes at least the sum of both hops'
    /// minimum latencies.
    #[test]
    fn routed_latency_is_additive(
        l1 in arb_link(),
        l2 in arb_link(),
        seed in any::<u64>(),
    ) {
        let (mut l1, mut l2) = (l1, l2);
        l1.loss = 0.0;
        l2.loss = 0.0;
        let mut net: Network<u8> = Network::new(seed);
        let a = net.add_node("a");
        let r = net.add_node("r");
        let b = net.add_node("b");
        net.connect(a, r, l1);
        net.connect(r, b, l2);
        net.route_via(a, r, &[b]);
        net.send(a, b, 500, 1).unwrap();
        let d = net.advance_to(u64::MAX / 4);
        prop_assert_eq!(d.len(), 1);
        let min = l1.serialization_ticks(500)
            + l1.delay_ticks
            + l2.serialization_ticks(500)
            + l2.delay_ticks;
        prop_assert!(d[0].time >= min);
        let max = min + l1.jitter_ticks + l2.jitter_ticks;
        prop_assert!(d[0].time <= max);
    }

    /// Determinism: identical seeds and operations yield identical
    /// delivery sequences.
    #[test]
    fn same_seed_identical_runs(
        link in arb_link(),
        count in 1usize..30,
        seed in any::<u64>(),
    ) {
        let run = || {
            let mut net: Network<usize> = Network::new(seed);
            let a = net.add_node("a");
            let b = net.add_node("b");
            net.connect(a, b, link);
            for i in 0..count {
                net.send(a, b, 700, i).unwrap();
            }
            net.advance_to(u64::MAX / 4)
                .into_iter()
                .map(|d| (d.time, d.message))
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(run(), run());
    }
}

/// The network as it was before its link and route tables became rows
/// indexed by node: every table a `HashMap` keyed by `(node, node)`. Kept
/// as the model the dense tables are checked against; it draws from the
/// same seeded RNG in the same order, so the two must agree on every
/// delivery and counter.
mod model {
    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, HashMap};

    use lod_simnet::{ActiveFaults, Delivery, Fault, LinkSpec, LinkStats, NetworkError, NodeId};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    struct Link {
        spec: LinkSpec,
        next_free: u64,
        up: bool,
        stats: LinkStats,
    }

    struct Packet {
        bytes: u64,
        message: u32,
        origin: usize,
        final_dst: usize,
        reliable: bool,
    }

    pub struct Network {
        nodes: usize,
        links: HashMap<(usize, usize), Link>,
        next_hop: HashMap<(usize, usize), usize>,
        unfaulted: HashMap<(usize, usize), (LinkSpec, bool)>,
        now: u64,
        seq: u64,
        /// `(arrival, seq, from, to)`, with the packet kept by `seq`.
        in_flight: BinaryHeap<Reverse<(u64, u64, usize, usize)>>,
        packets: HashMap<u64, Packet>,
        rng: SmallRng,
        faults: ActiveFaults,
    }

    impl Network {
        pub fn new(seed: u64, nodes: usize) -> Self {
            Self {
                nodes,
                links: HashMap::new(),
                next_hop: HashMap::new(),
                unfaulted: HashMap::new(),
                now: 0,
                seq: 0,
                in_flight: BinaryHeap::new(),
                packets: HashMap::new(),
                rng: SmallRng::seed_from_u64(seed),
                faults: ActiveFaults::default(),
            }
        }

        fn known(&self, n: NodeId) -> bool {
            n.index() < self.nodes
        }

        pub fn connect(&mut self, src: NodeId, dst: NodeId, spec: LinkSpec) {
            if !self.known(src) || !self.known(dst) {
                return;
            }
            let key = (src.index(), dst.index());
            self.unfaulted.remove(&key);
            let link = Link {
                spec,
                next_free: self.now,
                up: true,
                stats: LinkStats::default(),
            };
            self.links.insert(key, link);
        }

        pub fn disconnect(&mut self, src: NodeId, dst: NodeId) {
            let key = (src.index(), dst.index());
            self.links.remove(&key);
            self.unfaulted.remove(&key);
        }

        pub fn set_next_hop(&mut self, at: NodeId, dst: NodeId, hop: NodeId) {
            if self.known(at) && self.known(dst) && self.known(hop) {
                self.next_hop.insert((at.index(), dst.index()), hop.index());
            }
        }

        pub fn set_link_up(&mut self, src: NodeId, dst: NodeId, up: bool) -> bool {
            let link = self.links.get_mut(&(src.index(), dst.index()));
            link.map(|l| l.up = up).is_some()
        }

        pub fn set_link_spec(&mut self, src: NodeId, dst: NodeId, spec: LinkSpec) -> bool {
            let link = self.links.get_mut(&(src.index(), dst.index()));
            link.map(|l| l.spec = spec).is_some()
        }

        pub fn is_link_up(&self, src: NodeId, dst: NodeId) -> bool {
            self.links
                .get(&(src.index(), dst.index()))
                .is_some_and(|l| l.up)
        }

        pub fn link_spec(&self, src: NodeId, dst: NodeId) -> Option<LinkSpec> {
            self.links.get(&(src.index(), dst.index())).map(|l| l.spec)
        }

        pub fn link_stats(&self, src: NodeId, dst: NodeId) -> Option<&LinkStats> {
            self.links
                .get(&(src.index(), dst.index()))
                .map(|l| &l.stats)
        }

        pub fn links_of(&self, node: NodeId) -> Vec<(NodeId, NodeId)> {
            let mut out: Vec<(NodeId, NodeId)> = self
                .links
                .keys()
                .filter(|&&(s, d)| s == node.index() || d == node.index())
                .map(|&(s, d)| (NodeId::from_index(s), NodeId::from_index(d)))
                .collect();
            out.sort_unstable();
            out
        }

        pub fn egress_bytes(&self, node: NodeId) -> u64 {
            self.links
                .iter()
                .filter(|((s, _), _)| *s == node.index())
                .map(|(_, l)| l.stats.bytes_sent)
                .sum()
        }

        fn hop(&self, at: usize, dst: usize) -> usize {
            self.next_hop.get(&(at, dst)).copied().unwrap_or(dst)
        }

        pub fn first_hop_backlog(&self, src: NodeId, dst: NodeId) -> Option<u64> {
            let hop = self.hop(src.index(), dst.index());
            self.links
                .get(&(src.index(), hop))
                .map(|l| l.next_free.saturating_sub(self.now))
        }

        pub fn in_flight(&self) -> usize {
            self.in_flight.len()
        }

        pub fn next_arrival(&self) -> Option<u64> {
            self.in_flight.peek().map(|Reverse((arrival, ..))| *arrival)
        }

        pub fn send(
            &mut self,
            src: NodeId,
            dst: NodeId,
            bytes: u64,
            message: u32,
            reliable: bool,
        ) -> Result<(), NetworkError> {
            for n in [src, dst] {
                if !self.known(n) {
                    return Err(NetworkError::UnknownNode(n));
                }
            }
            let (s, d) = (src.index(), dst.index());
            let hop = self.hop(s, d);
            if !self.links.get(&(s, hop)).is_some_and(|l| l.up) {
                return Err(NetworkError::NoRoute { src, dst });
            }
            let seq = self.seq;
            self.seq += 1;
            let packet = Packet {
                bytes,
                message,
                origin: s,
                final_dst: d,
                reliable,
            };
            self.packets.insert(seq, packet);
            self.enqueue(s, hop, seq, self.now);
            Ok(())
        }

        fn enqueue(&mut self, from: usize, to: usize, seq: u64, when: u64) {
            let (bytes, reliable) = {
                let p = &self.packets[&seq];
                (p.bytes, p.reliable)
            };
            let Some(link) = self.links.get_mut(&(from, to)) else {
                self.packets.remove(&seq);
                return;
            };
            link.stats.packets_sent += 1;
            link.stats.bytes_sent += bytes;
            if !link.up {
                link.stats.packets_dropped += 1;
                self.packets.remove(&seq);
                return;
            }
            let start = link.next_free.max(when);
            let depart = start + link.spec.serialization_ticks(bytes);
            link.next_free = depart;
            let lost = link.spec.loss > 0.0
                && self.rng.gen_bool(link.spec.loss.clamp(0.0, 1.0))
                && !reliable;
            if lost {
                link.stats.packets_dropped += 1;
                self.packets.remove(&seq);
                return;
            }
            let jitter = if link.spec.jitter_ticks > 0 {
                self.rng.gen_range(0..=link.spec.jitter_ticks)
            } else {
                0
            };
            let arrival = depart + link.spec.delay_ticks + jitter;
            self.in_flight.push(Reverse((arrival, seq, from, to)));
        }

        pub fn advance_to(&mut self, t: u64) -> Vec<Delivery<u32>> {
            let mut out = Vec::new();
            while let Some(&Reverse((arrival, seq, from, at))) = self.in_flight.peek() {
                if arrival > t {
                    break;
                }
                self.in_flight.pop();
                if let Some(link) = self.links.get_mut(&(from, at)) {
                    link.stats.packets_delivered += 1;
                }
                let final_dst = self.packets[&seq].final_dst;
                if at == final_dst {
                    let p = self.packets.remove(&seq).expect("in flight");
                    out.push(Delivery {
                        time: arrival,
                        src: NodeId::from_index(p.origin),
                        dst: NodeId::from_index(at),
                        bytes: p.bytes,
                        message: p.message,
                    });
                } else {
                    let next = self.hop(at, final_dst);
                    self.enqueue(at, next, seq, arrival);
                }
            }
            self.now = self.now.max(t);
            out
        }

        fn covers(fault: &Fault, src: NodeId, dst: NodeId) -> bool {
            match *fault {
                Fault::NodeDown { node } => node == src || node == dst,
                Fault::LinkDown { a, b }
                | Fault::LossBurst { a, b, .. }
                | Fault::LatencySpike { a, b, .. } => (a, b) == (src, dst) || (a, b) == (dst, src),
            }
        }

        pub fn strike(&mut self, fault: Fault) {
            self.faults.strike(fault);
            self.recompose(fault);
        }

        pub fn heal(&mut self, fault: Fault) {
            self.faults.heal(fault);
            self.recompose(fault);
        }

        fn recompose(&mut self, fault: Fault) {
            let links = match fault {
                Fault::NodeDown { node } => self.links_of(node),
                Fault::LinkDown { a, b }
                | Fault::LossBurst { a, b, .. }
                | Fault::LatencySpike { a, b, .. } => vec![(a, b), (b, a)],
            };
            for (src, dst) in links {
                let key = (src.index(), dst.index());
                let Some(link) = self.links.get_mut(&key) else {
                    continue;
                };
                let (spec, up) = *self.unfaulted.entry(key).or_insert((link.spec, link.up));
                let path = self.faults.compose(|f| Self::covers(f, src, dst));
                if path == Default::default() {
                    self.unfaulted.remove(&key);
                }
                link.up = up && !path.down;
                link.spec = LinkSpec {
                    loss: path
                        .loss_permille
                        .map_or(spec.loss, |p| f64::from(p) / 1000.0),
                    delay_ticks: spec.delay_ticks.saturating_add(path.extra_ticks),
                    ..spec
                };
            }
        }
    }
}

/// One operation on a network of `nodes` nodes. Node operands range one
/// past the last node, so ids the network never minted are exercised too.
#[derive(Debug, Clone)]
enum NetOp {
    Connect(usize, usize, LinkSpec),
    Disconnect(usize, usize),
    Route(usize, usize, usize),
    SetUp(usize, usize, bool),
    SetSpec(usize, usize, LinkSpec),
    Strike(Fault),
    /// Heals the struck fault at this index (modulo), or a fault never
    /// struck when none is in force.
    Heal(usize, Fault),
    Send(usize, usize, u64, bool),
    Advance(u64),
}

const MAX_NODES: usize = 7;

fn arb_fault() -> impl Strategy<Value = Fault> {
    let node = || (0..=MAX_NODES).prop_map(NodeId::from_index);
    prop_oneof![
        (node(), node()).prop_map(|(a, b)| Fault::LinkDown { a, b }),
        (node(), node(), 0u16..1000).prop_map(|(a, b, loss_permille)| Fault::LossBurst {
            a,
            b,
            loss_permille
        }),
        (node(), node(), 0u64..300_000).prop_map(|(a, b, extra_ticks)| Fault::LatencySpike {
            a,
            b,
            extra_ticks
        }),
        node().prop_map(|node| Fault::NodeDown { node }),
    ]
}

fn net_op() -> impl Strategy<Value = NetOp> {
    let n = || 0..=MAX_NODES;
    prop_oneof![
        3 => (n(), n(), arb_link()).prop_map(|(a, b, l)| NetOp::Connect(a, b, l)),
        1 => (n(), n()).prop_map(|(a, b)| NetOp::Disconnect(a, b)),
        3 => (n(), n(), n()).prop_map(|(a, b, h)| NetOp::Route(a, b, h)),
        1 => (n(), n(), any::<bool>()).prop_map(|(a, b, up)| NetOp::SetUp(a, b, up)),
        1 => (n(), n(), arb_link()).prop_map(|(a, b, l)| NetOp::SetSpec(a, b, l)),
        1 => arb_fault().prop_map(NetOp::Strike),
        1 => (any::<usize>(), arb_fault()).prop_map(|(i, f)| NetOp::Heal(i, f)),
        8 => (n(), n(), 1u64..3_000, any::<bool>()).prop_map(|(a, b, sz, r)| NetOp::Send(a, b, sz, r)),
        3 => (0u64..400_000).prop_map(NetOp::Advance),
    ]
}

/// Checks every query the two networks answer for agreement.
fn same_view(
    net: &Network<u32>,
    model: &model::Network,
    nodes: usize,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(net.in_flight(), model.in_flight());
    for a in (0..=nodes).map(NodeId::from_index) {
        prop_assert_eq!(net.links_of(a), model.links_of(a));
        prop_assert_eq!(net.egress_bytes(a), model.egress_bytes(a));
        for b in (0..=nodes).map(NodeId::from_index) {
            prop_assert_eq!(net.link_stats(a, b), model.link_stats(a, b));
            prop_assert_eq!(net.link_spec(a, b), model.link_spec(a, b));
            prop_assert_eq!(net.is_link_up(a, b), model.is_link_up(a, b));
            prop_assert_eq!(net.first_hop_backlog(a, b), model.first_hop_backlog(a, b));
        }
    }
    Ok(())
}

/// Applies `ops` to a `nodes`-node network and to the model, checking
/// after every op that the two agree, then drains both.
fn agrees_with_the_model(nodes: usize, seed: u64, ops: Vec<NetOp>) -> Result<(), TestCaseError> {
    let mut net: Network<u32> = Network::new(seed);
    for i in 0..nodes {
        net.add_node(format!("n{i}"));
    }
    let mut model = model::Network::new(seed, nodes);
    let id = NodeId::from_index;
    let mut struck: Vec<Fault> = Vec::new();
    let mut msg = 0u32;
    let mut now = 0u64;
    for op in ops {
        match op {
            NetOp::Connect(a, b, l) => {
                net.connect(id(a), id(b), l);
                model.connect(id(a), id(b), l);
            }
            NetOp::Disconnect(a, b) => {
                net.disconnect(id(a), id(b));
                model.disconnect(id(a), id(b));
            }
            NetOp::Route(a, b, h) => {
                net.set_next_hop(id(a), id(b), id(h));
                model.set_next_hop(id(a), id(b), id(h));
            }
            NetOp::SetUp(a, b, up) => {
                prop_assert_eq!(
                    net.set_link_up(id(a), id(b), up),
                    model.set_link_up(id(a), id(b), up)
                );
            }
            NetOp::SetSpec(a, b, l) => {
                prop_assert_eq!(
                    net.set_link_spec(id(a), id(b), l),
                    model.set_link_spec(id(a), id(b), l)
                );
            }
            NetOp::Strike(f) => {
                net.strike(f);
                model.strike(f);
                struck.push(f);
            }
            NetOp::Heal(i, f) => {
                let f = if struck.is_empty() {
                    f
                } else {
                    struck.remove(i % struck.len())
                };
                net.heal(f);
                model.heal(f);
            }
            NetOp::Send(a, b, bytes, reliable) => {
                let got = if reliable {
                    net.send_reliable(id(a), id(b), bytes, msg)
                } else {
                    net.send(id(a), id(b), bytes, msg)
                };
                prop_assert_eq!(got, model.send(id(a), id(b), bytes, msg, reliable));
                msg += 1;
            }
            NetOp::Advance(dt) => {
                now += dt;
                prop_assert_eq!(net.advance_to(now), model.advance_to(now));
            }
        }
        same_view(&net, &model, nodes)?;
        prop_assert_eq!(net.next_arrival(), model.next_arrival());
    }
    prop_assert_eq!(net.advance_to(u64::MAX / 4), model.advance_to(u64::MAX / 4));
    same_view(&net, &model, nodes)
}

/// The tick every time in [`tie_op`]'s networks is a multiple of.
const QUANTUM: u64 = 1_000;

/// A jitter-free link whose delay is 0, 1 or 2 quanta and whose
/// serialization is none at all or exactly one quantum per 1000 bytes.
fn tie_link() -> impl Strategy<Value = LinkSpec> {
    (
        prop_oneof![Just(1_000_000_000_000_000u64), Just(80_000_000)],
        0u64..3,
        prop_oneof![3 => Just(0.0f64), 1 => Just(0.3)],
    )
        .prop_map(|(bw, q, loss)| LinkSpec {
            bandwidth_bps: bw,
            delay_ticks: q * QUANTUM,
            jitter_ticks: 0,
            loss,
        })
}

/// Ops on a small network of [`tie_link`]s, sending 1000 or 2000 bytes
/// and advancing by whole quanta: many hops arrive at one tick, so the
/// order falls to the send sequence; forwarded hops land exactly at the
/// drain's end; drains stop with traffic in flight, between sends; and
/// links are cut while others carry traffic. Routes only lead to node 0,
/// which delivers directly, so no message can circle forever on a
/// lossless loop.
fn tie_op() -> impl Strategy<Value = NetOp> {
    let n = || 0..TIE_NODES;
    prop_oneof![
        3 => (n(), n(), tie_link()).prop_map(|(a, b, l)| NetOp::Connect(a, b, l)),
        2 => (n(), n()).prop_map(|(a, b)| NetOp::Disconnect(a, b)),
        3 => (1..TIE_NODES, n()).prop_map(|(a, b)| NetOp::Route(a, b, 0)),
        1 => (n(), n(), any::<bool>()).prop_map(|(a, b, up)| NetOp::SetUp(a, b, up)),
        10 => (n(), n(), 1u64..=2, any::<bool>())
            .prop_map(|(a, b, k, r)| NetOp::Send(a, b, k * 1_000, r)),
        4 => (0u64..4).prop_map(|q| NetOp::Advance(q * QUANTUM)),
    ]
}

const TIE_NODES: usize = 4;

proptest! {
    /// The dense `Network` and the `HashMap`-keyed model agree on every
    /// delivery, refusal and counter through random topologies, routes,
    /// link changes, fault strikes and heals, and sends.
    #[test]
    fn dense_tables_match_the_hash_map_model(
        nodes in 2usize..=MAX_NODES,
        seed in any::<u64>(),
        ops in proptest::collection::vec(net_op(), 1..160),
    ) {
        agrees_with_the_model(nodes, seed, ops)?;
    }

    /// The same agreement where arrivals tie: the sorted run and the
    /// forward heap must pop `(arrival, seq)` order, not arrival order
    /// alone, and a hop forwarded onto a later tick must wait for it.
    #[test]
    fn tied_arrivals_keep_the_model_order(
        seed in any::<u64>(),
        ops in proptest::collection::vec(tie_op(), 1..200),
    ) {
        agrees_with_the_model(TIE_NODES, seed, ops)?;
    }
}

/// A node id no network could have minted: a table sized by it would
/// need terabytes, so reaching the asserts proves none was.
#[test]
fn a_foreign_node_id_sizes_no_table() {
    let mut net: Network<u32> = Network::new(1);
    let a = net.add_node("a");
    let b = net.add_node("b");
    let far = NodeId::from_index(1 << 40);
    net.connect(far, a, LinkSpec::lan());
    net.connect(a, far, LinkSpec::lan());
    net.set_next_hop(far, a, b);
    net.set_next_hop(a, far, b);
    net.set_next_hop(a, b, far);
    assert!(net.links_of(a).is_empty());
    assert_eq!(net.link_stats(a, far), None);
    assert_eq!(net.first_hop(a, b), b);
    assert_eq!(net.first_hop(a, far), far);
    net.connect(a, b, LinkSpec::lan());
    assert!(net.send(a, b, 100, 1).is_ok());
    assert_eq!(net.advance_to(u64::MAX / 4).len(), 1);
}
