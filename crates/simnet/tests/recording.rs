//! Golden recording of a seeded random-topology session.
//!
//! `fixtures/delivery_recording.txt` was written by this very scenario
//! running against the `HashMap`-keyed `Network` that preceded the dense
//! link/route/payload tables. Any change to the RNG draw order, the
//! delivery order or a `LinkStats` counter shows up as a diff against it.

use std::fmt::Write as _;

use lod_simnet::{Delivery, LinkSpec, Network, NodeId};

/// splitmix64: the scenario's own generator, independent of the network's.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn random_link(g: &mut Gen) -> LinkSpec {
    LinkSpec {
        bandwidth_bps: 500_000 + g.below(50_000_000),
        delay_ticks: g.below(200_000),
        jitter_ticks: if g.below(3) == 0 { 0 } else { g.below(50_000) },
        loss: if g.below(2) == 0 {
            0.0
        } else {
            g.below(200) as f64 / 1000.0
        },
    }
}

fn log_deliveries(out: &mut String, deliveries: Vec<Delivery<u32>>) {
    for d in deliveries {
        writeln!(
            out,
            "{} {} {} {} {}",
            d.time,
            d.src.index(),
            d.dst.index(),
            d.bytes,
            d.message
        )
        .unwrap();
    }
}

/// Runs the scenario and renders everything observable about it.
fn record() -> String {
    const NODES: usize = 12;
    const ROUTERS: usize = 3;
    let mut g = Gen(0x5EED_0007);
    let mut net: Network<u32> = Network::new(7);
    let nodes: Vec<NodeId> = (0..NODES).map(|i| net.add_node(format!("n{i}"))).collect();
    // The first ROUTERS nodes form a full mesh; every leaf hangs off one
    // router and reaches everything else through it.
    for a in 0..ROUTERS {
        for b in 0..ROUTERS {
            if a != b {
                net.connect(nodes[a], nodes[b], random_link(&mut g));
            }
        }
    }
    let mut home = [0usize; NODES];
    for leaf in ROUTERS..NODES {
        let r = g.below(ROUTERS as u64) as usize;
        home[leaf] = r;
        net.connect(nodes[leaf], nodes[r], random_link(&mut g));
        net.connect(nodes[r], nodes[leaf], random_link(&mut g));
    }
    for leaf in ROUTERS..NODES {
        for dst in 0..NODES {
            if dst != leaf && dst != home[leaf] {
                net.set_next_hop(nodes[leaf], nodes[dst], nodes[home[leaf]]);
            }
        }
    }
    for r in 0..ROUTERS {
        for leaf in ROUTERS..NODES {
            if home[leaf] != r {
                net.set_next_hop(nodes[r], nodes[leaf], nodes[home[leaf]]);
            }
        }
    }
    // A few direct leaf↔leaf shortcuts override the routed path.
    for _ in 0..4 {
        let a = ROUTERS + g.below((NODES - ROUTERS) as u64) as usize;
        let b = ROUTERS + g.below((NODES - ROUTERS) as u64) as usize;
        if a != b {
            net.connect(nodes[a], nodes[b], random_link(&mut g));
            net.set_next_hop(nodes[a], nodes[b], nodes[b]);
        }
    }

    let mut out = String::new();
    let mut msg = 0u32;
    let mut refused = 0u32;
    let mut now = 0u64;
    for round in 0..120u64 {
        for _ in 0..g.below(8) {
            let src = nodes[g.below(NODES as u64) as usize];
            let dst = nodes[g.below(NODES as u64) as usize];
            let bytes = 40 + g.below(1_400);
            let sent = if g.below(4) == 0 {
                net.send_reliable(src, dst, bytes, msg)
            } else {
                net.send(src, dst, bytes, msg)
            };
            if sent.is_err() {
                refused += 1;
            }
            msg += 1;
        }
        // Faults: a link goes dark or heals, changes its parameters, or
        // is forgotten altogether (later hops then drop silently).
        let a = nodes[g.below(NODES as u64) as usize];
        let b = nodes[g.below(NODES as u64) as usize];
        match round % 10 {
            3 => {
                net.set_link_up(a, b, false);
            }
            6 => {
                net.set_link_up(a, b, true);
            }
            8 => {
                let spec = random_link(&mut g);
                net.set_link_spec(a, b, spec);
            }
            9 if round % 20 == 19 => net.disconnect(a, b),
            _ => {}
        }
        now += g.below(60_000);
        log_deliveries(&mut out, net.advance_to(now));
    }
    log_deliveries(&mut out, net.advance_to(u64::MAX / 4));
    writeln!(
        out,
        "sent {msg} refused {refused} in_flight {}",
        net.in_flight()
    )
    .unwrap();
    for &a in &nodes {
        for &b in &nodes {
            if let Some(s) = net.link_stats(a, b) {
                writeln!(
                    out,
                    "link {} {} sent {} delivered {} dropped {} bytes {}",
                    a.index(),
                    b.index(),
                    s.packets_sent,
                    s.packets_delivered,
                    s.packets_dropped,
                    s.bytes_sent
                )
                .unwrap();
            }
        }
        writeln!(out, "egress {} {}", a.index(), net.egress_bytes(a)).unwrap();
    }
    out
}

#[test]
fn seeded_session_matches_the_recording() {
    let got = record();
    let want = include_str!("fixtures/delivery_recording.txt");
    assert!(
        got == want,
        "delivery sequence or link counters drifted from the recording; first differing line: {:?}",
        got.lines()
            .zip(want.lines())
            .enumerate()
            .find(|(_, (g, w))| g != w)
            .map(|(i, (g, w))| (i + 1, g.to_string(), w.to_string()))
    );
}
