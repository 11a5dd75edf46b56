//! The live overlay: dynamic graph + per-directed-edge traffic counters.
//!
//! DD-POLICE's raw input is `Out_query(i)` / `In_query(i)` — per-minute,
//! per-neighbor query counts (§3.2). The overlay keeps one `[sent, accepted]`
//! counter pair per *directed half-edge*, stored positionally alongside the
//! adjacency list, so the flooding hot loop updates them without hashing and
//! the defense reads `Q_{u→v}` in O(1) through the reciprocal index.
//!
//! The pairs live in a flat [`SegVec`] arena mirroring the graph's adjacency
//! arena row-for-row and slot-for-slot: every structural mutation replays the
//! same `push`/`swap_remove` sequence on the counter rows, so the positional
//! mirror survives arbitrary churn. Interleaving `sent` and `accepted` in one
//! `[u32; 2]` cell halves the number of row lookups in the flood kernel —
//! `record_send` + `record_accept` for one edge touch one cache line.

use ddp_topology::{DynamicGraph, Half, NodeId, SegVec};
use ddp_workload::{BandwidthClass, BandwidthModel};

const CLASSES: [BandwidthClass; 4] =
    [BandwidthClass::Dialup, BandwidthClass::Dsl, BandwidthClass::Cable, BandwidthClass::Ethernet];

/// `counters[u][slot][SENT]`: queries sent on the wire from `u` to
/// `neighbors(u)[slot]` this tick (bandwidth accounting).
pub(crate) const SENT: usize = 0;
/// `counters[u][slot][ACCEPTED]`: queries from `u` the neighbor accepted as
/// *fresh* (first arrival, duplicates excluded) this tick. These are the
/// `Out_query`/`In_query` volumes DD-POLICE's Definitions 2.1–2.3 are written
/// for — the paper's §2.2 no-duplication model counts each query on an edge at
/// most once, and a receiver-side counter naturally filters duplicates through
/// its seen-GUID table.
pub(crate) const ACCEPTED: usize = 1;

pub(crate) fn class_index(c: BandwidthClass) -> usize {
    match c {
        BandwidthClass::Dialup => 0,
        BandwidthClass::Dsl => 1,
        BandwidthClass::Cable => 2,
        BandwidthClass::Ethernet => 3,
    }
}

/// The overlay the simulation runs on.
#[derive(Debug, Clone)]
pub struct Overlay {
    graph: DynamicGraph,
    /// Per-directed-half-edge `[sent, accepted]` pairs, positionally mirroring
    /// `graph`'s adjacency rows (see [`SENT`] / [`ACCEPTED`]).
    counters: SegVec<[u32; 2]>,
    /// Per-node bandwidth class index into the capacity table.
    class_idx: Vec<u8>,
    /// `cap[sender class][receiver class]` in queries/min.
    cap_table: [[u32; 4]; 4],
}

impl Overlay {
    /// Wrap a generated graph; `classes` gives each node's bandwidth class.
    pub fn new(graph: DynamicGraph, classes: &[BandwidthClass]) -> Self {
        assert_eq!(graph.node_count(), classes.len());
        let lens: Vec<usize> =
            (0..graph.node_count()).map(|u| graph.degree(NodeId::from_index(u))).collect();
        let counters = SegVec::from_lens(&lens, [0, 0]);
        let mut cap_table = [[0u32; 4]; 4];
        for (i, &a) in CLASSES.iter().enumerate() {
            for (j, &b) in CLASSES.iter().enumerate() {
                cap_table[i][j] = BandwidthModel::link_capacity_qpm(a, b);
            }
        }
        let class_idx = classes.iter().map(|&c| class_index(c) as u8).collect();
        Overlay { graph, counters, class_idx, cap_table }
    }

    /// Number of node slots.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Append a fresh, degree-zero node slot with the given bandwidth class
    /// (the session-model join path). The counter arena grows an empty row in
    /// lockstep with the adjacency arena. Returns the new node's id.
    pub fn add_node(&mut self, class: BandwidthClass) -> NodeId {
        let id = self.graph.add_node();
        self.counters.push_row();
        self.class_idx.push(class_index(class) as u8);
        id
    }

    /// Number of live undirected edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.graph.edge_count()
    }

    /// Adjacency of `u`.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> &[Half] {
        self.graph.neighbors(u)
    }

    /// Degree of `u`.
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        self.graph.degree(u)
    }

    /// Whether `{u, v}` is a live connection.
    pub fn contains_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.graph.contains_edge(u, v)
    }

    /// Update a node's bandwidth class (when a slot rejoins as a new peer).
    pub fn set_class(&mut self, u: NodeId, class: BandwidthClass) {
        self.class_idx[u.index()] = class_index(class) as u8;
    }

    /// Bandwidth class of `u`.
    pub fn class_of(&self, u: NodeId) -> BandwidthClass {
        CLASSES[self.class_idx[u.index()] as usize]
    }

    /// Capacity in queries/min of the directed link `u → v`.
    #[inline]
    pub fn link_capacity(&self, u: NodeId, v: NodeId) -> u32 {
        self.cap_table[self.class_idx[u.index()] as usize][self.class_idx[v.index()] as usize]
    }

    /// Connect `u` and `v`. Returns false if already connected or `u == v`.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        if !self.graph.add_edge(u, v) {
            return false;
        }
        self.counters.push(u.index(), [0, 0]);
        self.counters.push(v.index(), [0, 0]);
        true
    }

    /// Disconnect `u` and `v`. Returns false if not connected.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        let Some(slot) = self.graph.slot_of(u, v) else { return false };
        let ridx = self.graph.neighbors(u)[slot].ridx as usize;
        self.graph.remove_edge_at(u, slot);
        // Mirror the two swap_removes, same slot evolution as DynamicGraph.
        self.counters.swap_remove(v.index(), ridx);
        self.counters.swap_remove(u.index(), slot);
        true
    }

    /// Remove all edges of `u` (departure). Returns the freed peers.
    pub fn isolate(&mut self, u: NodeId) -> Vec<NodeId> {
        let mut freed = Vec::with_capacity(self.degree(u));
        while self.degree(u) > 0 {
            let slot = self.degree(u) - 1;
            let peer = self.graph.neighbors(u)[slot].peer;
            self.remove_edge_at_slot(u, slot);
            freed.push(peer);
        }
        freed
    }

    fn remove_edge_at_slot(&mut self, u: NodeId, slot: usize) {
        let ridx = self.graph.neighbors(u)[slot].ridx as usize;
        let peer = self.graph.neighbors(u)[slot].peer;
        self.graph.remove_edge_at(u, slot);
        self.counters.swap_remove(peer.index(), ridx);
        self.counters.swap_remove(u.index(), slot);
    }

    /// Zero all per-tick counters (single `memset` over the flat arena).
    pub fn reset_tick_counters(&mut self) {
        self.counters.fill_all([0, 0]);
    }

    /// Record `c` queries sent from `u` via adjacency `slot`.
    #[inline]
    pub fn record_send(&mut self, u: NodeId, slot: usize, c: u32) {
        self.counters.slice_mut(u.index())[slot][SENT] += c;
    }

    /// Queries sent from `u` via adjacency `slot` this tick.
    #[inline]
    pub fn sent_via(&self, u: NodeId, slot: usize) -> u32 {
        self.counters.get(u.index(), slot)[SENT]
    }

    /// Queries sent from `u` to `v` this tick (O(deg) slot lookup), or 0 if
    /// not connected.
    pub fn sent_between(&self, u: NodeId, v: NodeId) -> u32 {
        self.graph.slot_of(u, v).map_or(0, |s| self.sent_via(u, s))
    }

    /// Record `c` queries from `u` via `slot` accepted fresh by the receiver.
    #[inline]
    pub fn record_accept(&mut self, u: NodeId, slot: usize, c: u32) {
        self.counters.slice_mut(u.index())[slot][ACCEPTED] += c;
    }

    /// Dup-filtered queries from `u` via adjacency `slot` this tick — the
    /// `Q_{u→v}` volume of Definitions 2.1–2.3.
    #[inline]
    pub fn accepted_via(&self, u: NodeId, slot: usize) -> u32 {
        self.counters.get(u.index(), slot)[ACCEPTED]
    }

    /// Dup-filtered queries from `u` to `v` this tick (O(deg) slot lookup).
    pub fn accepted_between(&self, u: NodeId, v: NodeId) -> u32 {
        self.graph.slot_of(u, v).map_or(0, |s| self.accepted_via(u, s))
    }

    /// Total queries `u` sent this tick (its `Out` volume over all links).
    pub fn total_sent(&self, u: NodeId) -> u64 {
        self.counters.slice(u.index()).iter().map(|c| c[SENT] as u64).sum()
    }

    /// Total queries `u` received this tick (its `In` volume), via twins.
    pub fn total_received(&self, u: NodeId) -> u64 {
        self.graph
            .neighbors(u)
            .iter()
            .map(|h| self.counters.get(h.peer.index(), h.ridx as usize)[SENT] as u64)
            .sum()
    }

    /// Split-borrow for the flood kernel: read-only graph + capacity table
    /// alongside the mutable counter arena, so the hot loop can hold a
    /// neighbor slice and a counter row simultaneously. The kernel reads
    /// node classes from its own per-node records, not from this overlay.
    #[inline]
    pub(crate) fn flood_parts(&mut self) -> (&DynamicGraph, &mut SegVec<[u32; 2]>, &[[u32; 4]; 4]) {
        let Overlay { graph, counters, cap_table, .. } = self;
        (graph, counters, cap_table)
    }

    /// Verify the mirror stays aligned with the adjacency (tests).
    pub fn check_invariants(&self) -> Result<(), String> {
        self.graph.check_invariants()?;
        for u in 0..self.node_count() {
            if self.counters.len_of(u) != self.graph.degree(NodeId::from_index(u)) {
                return Err(format!(
                    "counter mirror misaligned at node {u}: {} counters, degree {}",
                    self.counters.len_of(u),
                    self.graph.degree(NodeId::from_index(u))
                ));
            }
        }
        Ok(())
    }

    /// Access the underlying graph (read-only).
    pub fn graph(&self) -> &DynamicGraph {
        &self.graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn overlay(n: usize, edges: &[(u32, u32)]) -> Overlay {
        let mut g = DynamicGraph::new(n);
        for &(u, v) in edges {
            g.add_edge(NodeId(u), NodeId(v));
        }
        Overlay::new(g, &vec![BandwidthClass::Ethernet; n])
    }

    #[test]
    fn counters_track_sends_in_both_directions() {
        let mut o = overlay(3, &[(0, 1), (1, 2)]);
        // node1 -> node0 lives at some slot of node 1.
        let slot = o.graph().slot_of(NodeId(1), NodeId(0)).unwrap();
        o.record_send(NodeId(1), slot, 500);
        assert_eq!(o.sent_between(NodeId(1), NodeId(0)), 500);
        assert_eq!(o.sent_between(NodeId(0), NodeId(1)), 0);
        assert_eq!(o.total_sent(NodeId(1)), 500);
        assert_eq!(o.total_received(NodeId(0)), 500);
        o.reset_tick_counters();
        assert_eq!(o.sent_between(NodeId(1), NodeId(0)), 0);
    }

    #[test]
    fn mirror_survives_edge_removal_with_swap() {
        let mut o = overlay(4, &[(0, 1), (0, 2), (0, 3)]);
        let s1 = o.graph().slot_of(NodeId(0), NodeId(1)).unwrap();
        let s3 = o.graph().slot_of(NodeId(0), NodeId(3)).unwrap();
        o.record_send(NodeId(0), s1, 11);
        o.record_send(NodeId(0), s3, 33);
        assert!(o.remove_edge(NodeId(0), NodeId(1)));
        o.check_invariants().unwrap();
        // Counter for 0->3 must have survived the swap_remove.
        assert_eq!(o.sent_between(NodeId(0), NodeId(3)), 33);
        assert_eq!(o.sent_between(NodeId(0), NodeId(2)), 0);
    }

    #[test]
    fn isolate_clears_counters_alignment() {
        let mut o = overlay(5, &[(0, 1), (0, 2), (0, 3), (1, 2)]);
        let freed = o.isolate(NodeId(0));
        assert_eq!(freed.len(), 3);
        o.check_invariants().unwrap();
        assert_eq!(o.edge_count(), 1);
        assert_eq!(o.total_received(NodeId(1)), 0);
    }

    #[test]
    fn add_node_grows_an_empty_aligned_row() {
        let mut o = overlay(3, &[(0, 1), (1, 2)]);
        let id = o.add_node(BandwidthClass::Dialup);
        assert_eq!(id, NodeId(3));
        assert_eq!(o.node_count(), 4);
        assert_eq!(o.degree(id), 0);
        assert_eq!(o.class_of(id), BandwidthClass::Dialup);
        o.check_invariants().unwrap();
        // The new slot participates in normal edge life immediately.
        assert!(o.add_edge(id, NodeId(0)));
        let slot = o.graph().slot_of(id, NodeId(0)).unwrap();
        o.record_send(id, slot, 9);
        assert_eq!(o.total_received(NodeId(0)), 9);
        o.check_invariants().unwrap();
    }

    #[test]
    fn add_edge_extends_mirror() {
        let mut o = overlay(3, &[]);
        assert!(o.add_edge(NodeId(0), NodeId(2)));
        assert!(!o.add_edge(NodeId(0), NodeId(2)));
        o.check_invariants().unwrap();
        let slot = o.graph().slot_of(NodeId(0), NodeId(2)).unwrap();
        o.record_send(NodeId(0), slot, 7);
        assert_eq!(o.total_received(NodeId(2)), 7);
    }

    #[test]
    fn link_capacity_uses_class_table() {
        let mut g = DynamicGraph::new(2);
        g.add_edge(NodeId(0), NodeId(1));
        let o = Overlay::new(g, &[BandwidthClass::Dialup, BandwidthClass::Ethernet]);
        assert_eq!(
            o.link_capacity(NodeId(0), NodeId(1)),
            BandwidthModel::link_capacity_qpm(BandwidthClass::Dialup, BandwidthClass::Ethernet)
        );
        // Asymmetric: ethernet -> dialup binds on dialup's downstream.
        assert_eq!(
            o.link_capacity(NodeId(1), NodeId(0)),
            BandwidthModel::link_capacity_qpm(BandwidthClass::Ethernet, BandwidthClass::Dialup)
        );
    }

    #[test]
    fn set_class_changes_capacity() {
        let mut o = overlay(2, &[(0, 1)]);
        let before = o.link_capacity(NodeId(0), NodeId(1));
        o.set_class(NodeId(0), BandwidthClass::Dialup);
        let after = o.link_capacity(NodeId(0), NodeId(1));
        assert!(after < before);
        assert_eq!(o.class_of(NodeId(0)), BandwidthClass::Dialup);
    }

    #[test]
    fn interleaved_pairs_mirror_graph_under_churn() {
        // Grow, count, churn, and verify counters stay slot-aligned while the
        // flat arena relocates rows underneath.
        let mut o = overlay(8, &[]);
        for u in 0..8u32 {
            for d in 1..4u32 {
                o.add_edge(NodeId(u), NodeId((u + d) % 8));
            }
        }
        o.check_invariants().unwrap();
        for u in 0..8u32 {
            for slot in 0..o.degree(NodeId(u)) {
                o.record_send(NodeId(u), slot, u * 10 + slot as u32);
                o.record_accept(NodeId(u), slot, 1);
            }
        }
        let before = o.sent_between(NodeId(2), NodeId(3));
        o.isolate(NodeId(0));
        o.check_invariants().unwrap();
        assert_eq!(o.sent_between(NodeId(2), NodeId(3)), before);
        assert_eq!(o.accepted_between(NodeId(2), NodeId(3)), 1);
    }
}
