//! Capacity-aware batch flooding.
//!
//! One `flood` call propagates a batch of `count` identical-origin queries
//! breadth-first through the overlay, consuming per-node processing budgets
//! and per-link bandwidth budgets, suppressing duplicates (each node
//! processes a batch at most once — the paper's §2.2 no-duplication
//! assumption applied per BFS wave), and optionally probing for an object to
//! compute success and response time.
//!
//! All scratch state (visited stamps, frontiers) is owned by [`FloodEngine`]
//! and reused across calls: the flooding loop performs no allocation once
//! the engine is warm.
//!
//! This is the simulator's hottest code: at 10⁵ nodes a single tick makes
//! millions of sends, almost all of them to a random node whose state is not
//! in cache. The layout is built around that miss:
//!
//! * Everything a send reads or writes about its receiver — online flag,
//!   bandwidth class, capacity, processed count, visited stamp and a 128-bit
//!   library signature — sits in one 32-byte `NodeRecord`, so a send
//!   touches one random cache line instead of five.
//! * A target probe first tests the receiver's signature bit
//!   ([`ContentCatalog::signature`]); only a set bit pays for the library
//!   lookup.
//! * Before a sender fans out, its receivers' records and the next frontier
//!   entry's adjacency and counter rows are prefetched, so those misses
//!   overlap instead of queueing one after another.
//!
//! The inner loop runs against the overlay's split-borrow
//! ([`Overlay::flood_parts`]): per *sender* it fetches the neighbor slice,
//! the flat `[sent, accepted]` counter row, and the capacity-table row
//! exactly once, then walks the slots with no per-edge row lookups — every
//! counter update in `send_one` lands in the sender's row.

use crate::config::ForwardingPolicy;
use crate::overlay::{class_index, Overlay, ACCEPTED, SENT};
use crate::prefetch::prefetch;
use ddp_metrics::TrafficAccumulator;
use ddp_topology::{DynamicGraph, Half, NodeId};
use ddp_workload::{BandwidthClass, ContentCatalog, ObjectId};

/// How the batch leaves its origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FirstHop {
    /// Send `count` to every neighbor (a good peer's flooded query).
    All { count: u32 },
    /// Send `count` only via adjacency `slot` (an attacker flooding distinct
    /// queries per link, Figure 1 of the paper).
    Single { slot: usize, count: u32 },
}

/// Result of flooding one batch.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FloodOutcome {
    /// BFS depth of the first node holding the target (0 when no hit).
    pub hit_depth: u32,
    /// One-way latency to the first hit, seconds (0 when no hit).
    pub hit_delay_secs: f64,
    /// Whether any reached node held the target object.
    pub found: bool,
    /// Nodes that processed the batch (excluding the origin).
    pub processed_nodes: u32,
}

/// Per-tick environment the flood draws delays and settings from. Per-node
/// budgets live in the engine's `NodeRecord`s.
pub struct FloodEnv<'a> {
    /// Previous-tick utilization per node (congestion delay input).
    pub prev_util: &'a [f32],
    /// Traffic accounting sink.
    pub traffic: &'a mut TrafficAccumulator,
    /// Capacity-sharing policy.
    pub policy: ForwardingPolicy,
    /// FairShare: multiple of the equal per-link share one link may use.
    pub fair_share_factor: f64,
    /// One-way per-hop latency, seconds.
    pub hop_latency_secs: f64,
    /// Idle per-query processing delay, seconds.
    pub proc_delay_secs: f64,
}

impl FloodEnv<'_> {
    /// Queueing-style congestion delay at node `v`, seconds: service time
    /// scaled by `1 / (1 - utilization)`, utilization taken from the
    /// previous tick (feedback, since this tick's load is still forming).
    #[inline]
    fn node_delay(&self, v: NodeId) -> f64 {
        let rho = self.prev_util[v.index()].min(0.98) as f64;
        self.proc_delay_secs / (1.0 - rho)
    }
}

/// Everything one send reads or writes about its receiver, packed into half
/// a cache line (and aligned so it never straddles one).
#[derive(Debug, Clone, Copy, Default)]
#[repr(C, align(32))]
struct NodeRecord {
    /// Library signature: see [`ContentCatalog::signature`].
    signature: u128,
    /// Generation of the last flood wave this node processed.
    stamp: u32,
    /// Queries processed this tick.
    used: u32,
    /// Processing capacity, queries/min.
    capacity: u32,
    /// Bandwidth class, as an index into the overlay's capacity table.
    class: u8,
    /// Whether the node is online.
    online: bool,
}

/// The object a flood searches for, with its signature bit precomputed.
#[derive(Clone, Copy)]
struct Probe<'a> {
    catalog: &'a ContentCatalog,
    object: ObjectId,
    bit: u128,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    node: NodeId,
    parent: NodeId,
    count: u32,
    delay: f32,
}

/// Reusable flooding engine (one per simulation). It owns each node's
/// `NodeRecord`: the owner sets online flags, capacities and classes with
/// [`set_node`](Self::set_node), library signatures with
/// [`refresh_signature`](Self::refresh_signature), and starts a tick's
/// budgets with [`clear_used`](Self::clear_used).
#[derive(Debug, Default)]
pub struct FloodEngine {
    nodes: Vec<NodeRecord>,
    generation: u32,
    frontier: Vec<Entry>,
    next: Vec<Entry>,
    current_depth: u32,
}

impl FloodEngine {
    /// Engine for overlays of `n` nodes, all offline with zero capacity
    /// until [`set_node`](Self::set_node) says otherwise.
    pub fn new(n: usize) -> Self {
        FloodEngine {
            nodes: vec![NodeRecord::default(); n],
            generation: 0,
            frontier: Vec::new(),
            next: Vec::new(),
            current_depth: 0,
        }
    }

    /// Grow to accommodate `n` nodes.
    pub fn resize(&mut self, n: usize) {
        if n > self.nodes.len() {
            self.nodes.resize(n, NodeRecord::default());
        }
    }

    /// Set `node`'s online flag, processing capacity (queries/min) and
    /// bandwidth class. Its processed count is left as it is.
    pub fn set_node(&mut self, node: NodeId, online: bool, capacity: u32, class: BandwidthClass) {
        let r = &mut self.nodes[node.index()];
        r.online = online;
        r.capacity = capacity;
        r.class = class_index(class) as u8;
    }

    /// Cache `node`'s library signature from `catalog`. Must follow every
    /// change to the node's library: a stale signature makes probes miss.
    pub fn refresh_signature(&mut self, node: NodeId, catalog: &ContentCatalog) {
        self.nodes[node.index()].signature = catalog.signature(node);
    }

    /// Zero every node's processed count (the start of a tick).
    pub fn clear_used(&mut self) {
        for r in &mut self.nodes {
            r.used = 0;
        }
    }

    /// Queries `node` processed since the last [`clear_used`](Self::clear_used).
    #[inline]
    pub fn used(&self, node: NodeId) -> u32 {
        self.nodes[node.index()].used
    }

    /// `node`'s processing capacity, queries/min.
    #[inline]
    pub fn capacity(&self, node: NodeId) -> u32 {
        self.nodes[node.index()].capacity
    }

    /// Continue the visited-stamp counter from `generation`, so tests can
    /// reach its wraparound without 2³² floods.
    #[doc(hidden)]
    pub fn set_generation(&mut self, generation: u32) {
        self.generation = generation;
    }

    /// Flood a batch from `origin`.
    ///
    /// `ttl` bounds the number of overlay hops; `target` (if any) is probed
    /// at every processing node to detect search success.
    pub fn flood(
        &mut self,
        overlay: &mut Overlay,
        origin: NodeId,
        first_hop: FirstHop,
        ttl: u8,
        target: Option<(&ContentCatalog, ObjectId)>,
        env: &mut FloodEnv<'_>,
    ) -> FloodOutcome {
        let mut outcome = FloodOutcome::default();
        if ttl == 0 || !self.nodes[origin.index()].online {
            return outcome;
        }
        // New BFS wave: bump the visited generation (wrap -> full reset).
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            for r in &mut self.nodes {
                r.stamp = 0;
            }
            self.generation = 1;
        }
        self.frontier.clear();
        self.next.clear();
        self.nodes[origin.index()].stamp = self.generation;
        self.current_depth = 1;
        let probe = target.map(|(catalog, object)| Probe {
            catalog,
            object,
            bit: ContentCatalog::signature_bit(object),
        });

        let (graph, counters, cap_table) = overlay.flood_parts();

        // First hop: origin pushes the batch out on the selected link(s).
        {
            let neigh = graph.neighbors(origin);
            let cap_row = &cap_table[self.nodes[origin.index()].class as usize];
            let row = counters.slice_mut(origin.index());
            match first_hop {
                FirstHop::All { count } => {
                    self.prefetch_records(neigh);
                    for (slot, &half) in neigh.iter().enumerate() {
                        self.send_one(
                            graph,
                            row,
                            cap_row,
                            origin,
                            half,
                            slot,
                            count,
                            0.0,
                            probe,
                            env,
                            &mut outcome,
                        );
                    }
                }
                FirstHop::Single { slot, count } => {
                    debug_assert!(slot < neigh.len(), "first-hop slot out of range");
                    let half = neigh[slot];
                    self.send_one(
                        graph,
                        row,
                        cap_row,
                        origin,
                        half,
                        slot,
                        count,
                        0.0,
                        probe,
                        env,
                        &mut outcome,
                    );
                }
            }
        }
        std::mem::swap(&mut self.frontier, &mut self.next);

        // Remaining hops.
        let mut hops_left = ttl - 1;
        while hops_left > 0 && !self.frontier.is_empty() {
            self.current_depth += 1;
            self.next.clear();
            // Move the frontier out so `send_one` can borrow `self` mutably;
            // the buffer is handed back afterwards (no allocation).
            let frontier = std::mem::take(&mut self.frontier);
            for (k, e) in frontier.iter().enumerate() {
                // Warm the next sender's adjacency and counter rows while
                // this one fans out.
                if let Some(after) = frontier.get(k + 1) {
                    prefetch(graph.neighbors(after.node).as_ptr());
                    prefetch(counters.slice(after.node.index()).as_ptr());
                }
                let neigh = graph.neighbors(e.node);
                if neigh.is_empty() {
                    continue;
                }
                self.prefetch_records(neigh);
                // Per-sender hoists: every counter touched below lives in the
                // sender's row, and the capacity row depends only on the
                // sender's class.
                let cap_row = &cap_table[self.nodes[e.node.index()].class as usize];
                let row = counters.slice_mut(e.node.index());
                for (slot, &half) in neigh.iter().enumerate() {
                    if half.peer == e.parent {
                        continue; // never echo back along the arrival link
                    }
                    self.send_one(
                        graph,
                        row,
                        cap_row,
                        e.node,
                        half,
                        slot,
                        e.count,
                        e.delay,
                        probe,
                        env,
                        &mut outcome,
                    );
                }
            }
            self.frontier = frontier;
            self.frontier.clear();
            std::mem::swap(&mut self.frontier, &mut self.next);
            hops_left -= 1;
        }
        // Traffic for the first hit traveling back along the reverse path.
        if outcome.found {
            env.traffic.hit_hops += outcome.hit_depth as u64;
        }
        outcome
    }

    /// Start loading the records of every receiver in `neigh`.
    #[inline]
    fn prefetch_records(&self, neigh: &[Half]) {
        let base = self.nodes.as_ptr();
        for half in neigh {
            prefetch(base.wrapping_add(half.peer.index()));
        }
    }

    /// Try to push `count` queries via the half-edge `half` occupying `slot`
    /// of the sender's adjacency (whose counter row is `row` and whose
    /// capacity-table row is `cap_row`); enqueue the receiver into `next` if
    /// it processes any of them.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn send_one(
        &mut self,
        graph: &DynamicGraph,
        row: &mut [[u32; 2]],
        cap_row: &[u32; 4],
        u: NodeId,
        half: Half,
        slot: usize,
        count: u32,
        delay_so_far: f32,
        probe: Option<Probe<'_>>,
        env: &mut FloodEnv<'_>,
        outcome: &mut FloodOutcome,
    ) {
        if count == 0 {
            return;
        }
        let v = half.peer;
        let generation = self.generation;
        let rec = &mut self.nodes[v.index()];
        if !rec.online {
            return;
        }
        // Link budget: capacity minus what already crossed this tick.
        let link_cap = cap_row[rec.class as usize];
        let already_on_link = row[slot][SENT];
        let link_room = link_cap.saturating_sub(already_on_link);
        let send_c = count.min(link_room);
        env.traffic.dropped += (count - send_c) as u64;
        if send_c == 0 {
            return;
        }
        row[slot][SENT] = already_on_link + send_c;
        env.traffic.query_hops += send_c as u64;

        // Duplicate suppression: v processes each batch wave at most once;
        // later arrivals land in its seen-GUID table and die there.
        if rec.stamp == generation {
            env.traffic.dropped += send_c as u64;
            return;
        }
        // Fresh arrival: v's receiver-side (dup-filtered) counter sees it
        // whether or not capacity lets v forward it.
        row[slot][ACCEPTED] += send_c;

        // Node processing budget (optionally fair-shared per incoming link).
        let node_room = rec.capacity.saturating_sub(rec.used);
        let room = match env.policy {
            ForwardingPolicy::Fifo => node_room,
            ForwardingPolicy::FairShare => {
                // Each incoming link may consume at most `factor x capacity /
                // degree`; `already_on_link` is what this link used so far.
                let deg = graph.degree(v).max(1) as f64;
                let share = (env.fair_share_factor * rec.capacity as f64 / deg) as u32;
                let link_allow = share.saturating_sub(already_on_link);
                node_room.min(link_allow)
            }
        };
        let proc_c = send_c.min(room);
        env.traffic.dropped += (send_c - proc_c) as u64;
        if proc_c == 0 {
            return;
        }
        rec.used += proc_c;
        rec.stamp = generation;
        outcome.processed_nodes += 1;

        let delay = delay_so_far + (env.hop_latency_secs + env.node_delay(v)) as f32;
        if !outcome.found {
            if let Some(p) = probe {
                // A clear signature bit proves a miss without the lookup.
                if rec.signature & p.bit != 0 && p.catalog.holds(v, p.object) {
                    outcome.found = true;
                    outcome.hit_delay_secs = delay as f64;
                    outcome.hit_depth = self.current_depth;
                }
            }
        }
        self.next.push(Entry { node: v, parent: u, count: proc_c, delay });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddp_topology::DynamicGraph;
    use ddp_workload::content::ContentConfig;
    use ddp_workload::BandwidthClass;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn overlay(n: usize, edges: &[(u32, u32)]) -> Overlay {
        let mut g = DynamicGraph::new(n);
        for &(u, v) in edges {
            g.add_edge(NodeId(u), NodeId(v));
        }
        Overlay::new(g, &vec![BandwidthClass::Ethernet; n])
    }

    /// An engine whose nodes are all online with capacity `cap`, classed as
    /// in `o`.
    fn engine(o: &Overlay, cap: u32) -> FloodEngine {
        let mut fe = FloodEngine::new(o.node_count());
        for i in 0..o.node_count() {
            let v = NodeId::from_index(i);
            fe.set_node(v, true, cap, o.class_of(v));
        }
        fe
    }

    /// Every node's processed count.
    fn used(fe: &FloodEngine) -> Vec<u32> {
        fe.nodes.iter().map(|r| r.used).collect()
    }

    /// Cache every node's library signature from `catalog` in `fe`.
    fn sign(fe: &mut FloodEngine, catalog: &ContentCatalog) {
        for i in 0..catalog.num_peers() {
            fe.refresh_signature(NodeId::from_index(i), catalog);
        }
    }

    struct Env {
        prev_util: Vec<f32>,
        traffic: TrafficAccumulator,
    }

    impl Env {
        fn new(n: usize) -> Self {
            Env { prev_util: vec![0.0; n], traffic: TrafficAccumulator::default() }
        }

        fn env(&mut self) -> FloodEnv<'_> {
            FloodEnv {
                prev_util: &self.prev_util,
                traffic: &mut self.traffic,
                policy: ForwardingPolicy::Fifo,
                fair_share_factor: 2.0,
                hop_latency_secs: 0.05,
                proc_delay_secs: 0.004,
            }
        }
    }

    #[test]
    fn flood_reaches_everyone_within_ttl_on_a_path() {
        // 0-1-2-3-4: ttl 2 from node 0 processes nodes 1 and 2 only.
        let mut o = overlay(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let mut env = Env::new(5);
        let mut fe = engine(&o, 1000);
        let out = fe.flood(&mut o, NodeId(0), FirstHop::All { count: 1 }, 2, None, &mut env.env());
        assert_eq!(out.processed_nodes, 2);
        assert_eq!(used(&fe), vec![0, 1, 1, 0, 0]);
        assert_eq!(o.sent_between(NodeId(0), NodeId(1)), 1);
        assert_eq!(o.sent_between(NodeId(1), NodeId(2)), 1);
        assert_eq!(o.sent_between(NodeId(2), NodeId(3)), 0);
    }

    #[test]
    fn duplicate_suppression_on_a_cycle() {
        // Triangle 0-1-2: node 0 floods; 1 and 2 both process once, and the
        // 1->2 / 2->1 copies are dup-dropped.
        let mut o = overlay(3, &[(0, 1), (1, 2), (0, 2)]);
        let mut env = Env::new(3);
        let mut fe = engine(&o, 1000);
        let out = fe.flood(&mut o, NodeId(0), FirstHop::All { count: 5 }, 7, None, &mut env.env());
        assert_eq!(out.processed_nodes, 2);
        assert_eq!(used(&fe), vec![0, 5, 5]);
        // The duplicate copies were sent (consumed bandwidth) then dropped.
        assert_eq!(env.traffic.dropped, 10);
        // No echo back to the origin.
        assert_eq!(o.sent_between(NodeId(1), NodeId(0)), 0);
        assert_eq!(o.sent_between(NodeId(2), NodeId(0)), 0);
    }

    #[test]
    fn node_capacity_limits_processing() {
        // 0 -> 1 with capacity 3 at node 1: a batch of 10 processes 3.
        let mut o = overlay(2, &[(0, 1)]);
        let mut env = Env::new(2);
        let mut fe = engine(&o, 3);
        fe.flood(&mut o, NodeId(0), FirstHop::All { count: 10 }, 2, None, &mut env.env());
        assert_eq!(used(&fe)[1], 3);
        assert_eq!(env.traffic.dropped, 7);
        // The wire still carried all 10.
        assert_eq!(o.sent_between(NodeId(0), NodeId(1)), 10);
    }

    #[test]
    fn link_capacity_limits_transmission() {
        // Dialup receiver: link cap = 56 Kbps = 840 q/min at 500 B/query.
        let mut g = DynamicGraph::new(2);
        g.add_edge(NodeId(0), NodeId(1));
        let mut o = Overlay::new(g, &[BandwidthClass::Ethernet, BandwidthClass::Dialup]);
        let cap = o.link_capacity(NodeId(0), NodeId(1));
        assert_eq!(cap, 840);
        let mut env = Env::new(2);
        let mut fe = engine(&o, 100_000);
        fe.flood(&mut o, NodeId(0), FirstHop::All { count: 20_000 }, 2, None, &mut env.env());
        assert_eq!(o.sent_between(NodeId(0), NodeId(1)), cap);
        assert_eq!(env.traffic.dropped, (20_000 - cap) as u64);
        assert_eq!(used(&fe)[1], cap);
    }

    #[test]
    fn single_slot_first_hop_only_uses_that_link() {
        let mut o = overlay(4, &[(0, 1), (0, 2), (0, 3)]);
        let slot = o.graph().slot_of(NodeId(0), NodeId(2)).unwrap();
        let mut env = Env::new(4);
        let mut fe = engine(&o, 1000);
        fe.flood(&mut o, NodeId(0), FirstHop::Single { slot, count: 9 }, 1, None, &mut env.env());
        assert_eq!(o.sent_between(NodeId(0), NodeId(2)), 9);
        assert_eq!(o.sent_between(NodeId(0), NodeId(1)), 0);
        assert_eq!(o.sent_between(NodeId(0), NodeId(3)), 0);
    }

    #[test]
    fn offline_nodes_are_skipped() {
        let mut o = overlay(3, &[(0, 1), (1, 2)]);
        let mut env = Env::new(3);
        let mut fe = engine(&o, 1000);
        fe.set_node(NodeId(1), false, 1000, BandwidthClass::Ethernet);
        let out = fe.flood(&mut o, NodeId(0), FirstHop::All { count: 4 }, 7, None, &mut env.env());
        assert_eq!(out.processed_nodes, 0);
        assert_eq!(used(&fe), vec![0, 0, 0]);
    }

    #[test]
    fn offline_origin_floods_nothing() {
        let mut o = overlay(2, &[(0, 1)]);
        let mut env = Env::new(2);
        let mut fe = engine(&o, 1000);
        fe.set_node(NodeId(0), false, 1000, BandwidthClass::Ethernet);
        let out = fe.flood(&mut o, NodeId(0), FirstHop::All { count: 4 }, 7, None, &mut env.env());
        assert_eq!(out.processed_nodes, 0);
        assert_eq!(env.traffic.query_hops, 0);
    }

    #[test]
    fn target_hit_records_depth_and_delay() {
        // 0-1-2; make node 2 hold an object and search for it.
        let mut o = overlay(3, &[(0, 1), (1, 2)]);
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = ContentConfig { num_objects: 10, objects_per_peer: 10, alpha: 1.0 };
        let catalog = ContentCatalog::generate(3, &cfg, &mut rng);
        // With 10 objects and 10 per peer, node 2 holds everything.
        let mut env = Env::new(3);
        let mut fe = engine(&o, 1000);
        sign(&mut fe, &catalog);
        let out = fe.flood(
            &mut o,
            NodeId(0),
            FirstHop::All { count: 1 },
            7,
            Some((&catalog, ObjectId(0))),
            &mut env.env(),
        );
        assert!(out.found);
        assert_eq!(out.hit_depth, 1, "node 1 also holds everything at depth 1");
        assert!(out.hit_delay_secs > 0.0);
        assert_eq!(env.traffic.hit_hops, 1);
    }

    #[test]
    fn congestion_raises_delay() {
        let mut o = overlay(2, &[(0, 1)]);
        let mut env = Env::new(2);
        let mut fe = engine(&o, 1000);
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = ContentConfig { num_objects: 2, objects_per_peer: 2, alpha: 1.0 };
        let catalog = ContentCatalog::generate(2, &cfg, &mut rng);
        sign(&mut fe, &catalog);
        let idle = fe
            .flood(
                &mut o,
                NodeId(0),
                FirstHop::All { count: 1 },
                2,
                Some((&catalog, ObjectId(0))),
                &mut env.env(),
            )
            .hit_delay_secs;
        o.reset_tick_counters();
        fe.clear_used();
        env.prev_util[1] = 0.95;
        let busy = fe
            .flood(
                &mut o,
                NodeId(0),
                FirstHop::All { count: 1 },
                2,
                Some((&catalog, ObjectId(0))),
                &mut env.env(),
            )
            .hit_delay_secs;
        assert!(busy > idle * 2.0, "busy {busy} should dwarf idle {idle}");
        // Near-saturation (clamped at 0.98) inflates further.
        o.reset_tick_counters();
        fe.clear_used();
        env.prev_util[1] = 1.0;
        let saturated = fe
            .flood(
                &mut o,
                NodeId(0),
                FirstHop::All { count: 1 },
                2,
                Some((&catalog, ObjectId(0))),
                &mut env.env(),
            )
            .hit_delay_secs;
        assert!(saturated > busy, "saturated {saturated} > busy {busy}");
    }

    #[test]
    fn fair_share_caps_one_links_consumption() {
        // Star: 1,2,3 -> 0. Node 0 capacity 90, degree 3, factor 1.0:
        // each incoming link may use at most 30.
        let mut o = overlay(4, &[(0, 1), (0, 2), (0, 3)]);
        let mut env = Env::new(4);
        let mut fe = engine(&o, 90);
        let mut fenv = env.env();
        fenv.policy = ForwardingPolicy::FairShare;
        fenv.fair_share_factor = 1.0;
        fe.flood(&mut o, NodeId(1), FirstHop::All { count: 80 }, 1, None, &mut fenv);
        assert_eq!(used(&fe)[0], 30, "fair share caps the flood at 30");
        // A second link still gets its share.
        let mut fenv = env.env();
        fenv.policy = ForwardingPolicy::FairShare;
        fenv.fair_share_factor = 1.0;
        fe.flood(&mut o, NodeId(2), FirstHop::All { count: 80 }, 1, None, &mut fenv);
        assert_eq!(used(&fe)[0], 60);
    }

    #[test]
    fn ttl_zero_is_a_noop() {
        let mut o = overlay(2, &[(0, 1)]);
        let mut env = Env::new(2);
        let mut fe = engine(&o, 1000);
        let out = fe.flood(&mut o, NodeId(0), FirstHop::All { count: 5 }, 0, None, &mut env.env());
        assert_eq!(out.processed_nodes, 0);
        assert_eq!(env.traffic.query_hops, 0);
    }

    #[test]
    fn generation_wraparound_resets_visited() {
        let mut o = overlay(2, &[(0, 1)]);
        let mut env = Env::new(2);
        let mut fe = engine(&o, 1000);
        // The first wave stamps node 1 with generation 1, which the wave
        // after the wrap reuses: a stamp left over from it would read as
        // "already visited".
        let out = fe.flood(&mut o, NodeId(0), FirstHop::All { count: 1 }, 2, None, &mut env.env());
        assert_eq!(out.processed_nodes, 1);
        fe.generation = u32::MAX; // force wrap on next flood
        let out = fe.flood(&mut o, NodeId(0), FirstHop::All { count: 1 }, 2, None, &mut env.env());
        assert_eq!(out.processed_nodes, 1);
        // And a subsequent flood still works.
        let out2 = fe.flood(&mut o, NodeId(0), FirstHop::All { count: 1 }, 2, None, &mut env.env());
        assert_eq!(out2.processed_nodes, 1);
    }

    #[test]
    fn node_record_fills_half_a_cache_line() {
        assert_eq!(std::mem::size_of::<NodeRecord>(), 32);
        assert_eq!(std::mem::align_of::<NodeRecord>(), 32);
    }
}
