//! The session ledger: what a driver keeps of a class's render events.
//!
//! A driver used to collect every [`RenderEvent`] of every client into
//! one `Vec` and scan it afterwards — once per client for the skew
//! report. The ledger keeps the accounts as the samples render instead:
//! per client the `(wall, presentation)` pair of each rendered item, the
//! handful of script firings, and the latest wall time. The reports come
//! out of it in one pass over what was rendered.

use lod_simnet::NodeId;

use crate::client::RenderEvent;

/// `NodeId → position` for the clients of one session: the O(1) answer to
/// "whose delivery is this?" that a driver asks once per message.
#[derive(Debug, Clone, Default)]
pub struct ClientSlots {
    /// Indexed by [`NodeId::index`]; `slot + 1`, or 0 for "not a client".
    by_node: Vec<u32>,
    /// How many clients were slotted.
    len: usize,
}

impl ClientSlots {
    /// Slots for `clients`, numbered in iteration order (a node listed
    /// twice keeps its first slot).
    pub fn new(clients: impl IntoIterator<Item = NodeId>) -> Self {
        let mut by_node = Vec::new();
        let mut len = 0;
        for node in clients {
            len += 1;
            if by_node.len() <= node.index() {
                by_node.resize(node.index() + 1, 0);
            }
            if by_node[node.index()] == 0 {
                by_node[node.index()] = u32::try_from(len).expect("fewer than 2^32 clients");
            }
        }
        Self { by_node, len }
    }

    /// The slot of the client on `node`, if there is one.
    pub fn get(&self, node: NodeId) -> Option<usize> {
        match self.by_node.get(node.index()) {
            Some(&s) if s > 0 => Some(s as usize - 1),
            _ => None,
        }
    }
}

/// Running accounts of a session's render events (see the module docs).
#[derive(Debug, Clone)]
pub struct SessionLedger {
    slots: ClientSlots,
    /// Per client slot: `(wall_time, pres_time)` of every rendered item.
    rendered: Vec<Vec<(u64, u64)>>,
    /// `(pres_time, param, wall_time)` of every script firing, by anyone.
    firings: Vec<(u64, String, u64)>,
    last_wall: u64,
}

impl SessionLedger {
    /// A ledger for the clients on `clients`, slotted in iteration order.
    pub fn new(clients: impl IntoIterator<Item = NodeId>) -> Self {
        let slots = ClientSlots::new(clients);
        Self {
            rendered: vec![Vec::new(); slots.len],
            slots,
            firings: Vec::new(),
            last_wall: 0,
        }
    }

    /// The slot of the client on `node` (its position in the iteration
    /// the ledger was built from), if there is one.
    pub fn slot(&self, node: NodeId) -> Option<usize> {
        self.slots.get(node)
    }

    /// Enters one rendered item.
    pub fn record(&mut self, e: RenderEvent) {
        self.last_wall = self.last_wall.max(e.wall_time);
        if let Some(slot) = self.slots.get(e.client) {
            self.rendered[slot].push((e.wall_time, e.pres_time));
        }
        if let Some(cmd) = e.script {
            self.firings.push((e.pres_time, cmd.param, e.wall_time));
        }
    }

    /// Wall time of the last item rendered (0 when nothing was).
    pub fn last_wall_time(&self) -> u64 {
        self.last_wall
    }

    /// Per client, in slot order: the skew of every rendered item against
    /// the client's own playout anchor — the earliest `wall − pres` it
    /// showed, i.e. the schedule its best-timed item implies.
    pub fn client_skews(&self) -> impl Iterator<Item = Vec<u64>> + '_ {
        self.rendered.iter().map(|mine| {
            let anchor = mine
                .iter()
                .map(|&(wall, pres)| wall.saturating_sub(pres))
                .min()
                .unwrap_or(0);
            mine.iter()
                .map(|&(wall, pres)| wall.abs_diff(anchor + pres))
                .collect()
        })
    }

    /// For every script command fired at least twice (same time, same
    /// parameter): the wall-time gap between its first and last firing.
    pub fn script_spreads(&self) -> Vec<u64> {
        let mut firings: Vec<(u64, &str, u64)> = self
            .firings
            .iter()
            .map(|(pres, param, wall)| (*pres, param.as_str(), *wall))
            .collect();
        firings.sort_unstable();
        firings
            .chunk_by(|a, b| (a.0, a.1) == (b.0, b.1))
            .filter(|group| group.len() >= 2)
            .map(|group| group[group.len() - 1].2 - group[0].2)
            .collect()
    }
}
