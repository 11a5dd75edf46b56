//! Property-based tests of the flooding engine on random overlays: its
//! conservation and budget invariants, and a differential check against a
//! reference kernel.
//!
//! The reference is the flood kernel as it stood before the per-node state
//! was packed into one record: separate `visited`/`node_used`/`capacity`/
//! `online` arrays, bandwidth classes read from the overlay, and
//! `Vec<Vec<u32>>` libraries sampled by its own copy of the sampler. It is
//! slow and obvious on purpose. Both kernels run the same random sequence of
//! targeted queries, attack batches, peer rejoins (new class, capacity,
//! online flag and library), tick boundaries and visited-generation jumps
//! toward the wraparound, and must agree on every output: per-edge
//! SENT/ACCEPTED counters, processed counts, traffic totals and every
//! `FloodOutcome`, hit delay to the bit.

use ddp_metrics::TrafficAccumulator;
use ddp_sim::flood::{FirstHop, FloodEnv};
use ddp_sim::{FloodEngine, FloodOutcome, ForwardingPolicy, Overlay};
use ddp_topology::{DynamicGraph, NodeId};
use ddp_workload::content::ContentConfig;
use ddp_workload::{BandwidthClass, ContentCatalog, ObjectId, Zipf};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[derive(Debug, Clone)]
struct World {
    n: usize,
    edges: Vec<(u32, u32)>,
    capacities: Vec<u32>,
    origin: u32,
    count: u32,
    ttl: u8,
}

fn world() -> impl Strategy<Value = World> {
    (4usize..24).prop_flat_map(|n| {
        let max = n as u32;
        (
            proptest::collection::vec((0..max, 0..max), 3..40),
            proptest::collection::vec(0u32..3_000, n),
            0..max,
            1u32..30_000,
            1u8..8,
        )
            .prop_map(move |(edges, capacities, origin, count, ttl)| World {
                n,
                edges,
                capacities,
                origin,
                count,
                ttl,
            })
    })
}

struct Built {
    overlay: Overlay,
    engine: FloodEngine,
    prev_util: Vec<f32>,
    traffic: TrafficAccumulator,
}

fn build(w: &World) -> Built {
    let mut g = DynamicGraph::new(w.n);
    for &(a, b) in &w.edges {
        g.add_edge(NodeId(a), NodeId(b));
    }
    // Ethernet class everywhere: node capacity is the binding constraint so
    // the conservation algebra below is exact.
    let overlay = Overlay::new(g, &vec![BandwidthClass::Ethernet; w.n]);
    let mut engine = FloodEngine::new(w.n);
    for (i, &cap) in w.capacities.iter().enumerate() {
        engine.set_node(NodeId::from_index(i), true, cap, BandwidthClass::Ethernet);
    }
    Built { overlay, engine, prev_util: vec![0.0; w.n], traffic: TrafficAccumulator::default() }
}

fn flood(b: &mut Built, w: &World) -> ddp_sim::FloodOutcome {
    let mut env = FloodEnv {
        prev_util: &b.prev_util,
        traffic: &mut b.traffic,
        policy: ForwardingPolicy::Fifo,
        fair_share_factor: 2.0,
        hop_latency_secs: 0.05,
        proc_delay_secs: 0.004,
    };
    b.engine.flood(
        &mut b.overlay,
        NodeId(w.origin),
        FirstHop::All { count: w.count },
        w.ttl,
        None,
        &mut env,
    )
}

fn used(b: &Built, n: usize) -> Vec<u32> {
    (0..n).map(|i| b.engine.used(NodeId::from_index(i))).collect()
}

// ---------------------------------------------------------------------------
// Reference kernel.

/// One frontier entry: node, parent, batch size, delay so far.
type RefEntry = (NodeId, NodeId, u32, f32);

/// The flood kernel with one array per field and nested libraries.
struct Reference {
    visited: Vec<u32>,
    generation: u32,
    node_used: Vec<u32>,
    capacity: Vec<u32>,
    online: Vec<bool>,
    libraries: Vec<Vec<u32>>,
}

/// The library sampler as the catalog used it before the flat store.
fn sample_library(pop: &Zipf, size: usize, rng: &mut StdRng) -> Vec<u32> {
    let mut lib: Vec<u32> = Vec::with_capacity(size);
    while lib.len() < size {
        let o = pop.sample(rng) as u32;
        if !lib.contains(&o) {
            lib.push(o);
        }
    }
    lib.sort_unstable();
    lib
}

impl Reference {
    #[allow(clippy::too_many_arguments)]
    fn flood(
        &mut self,
        o: &mut Overlay,
        origin: NodeId,
        first_hop: FirstHop,
        ttl: u8,
        target: Option<ObjectId>,
        env: &mut FloodEnv<'_>,
    ) -> FloodOutcome {
        let mut out = FloodOutcome::default();
        if ttl == 0 || !self.online[origin.index()] {
            return out;
        }
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.visited.fill(0);
            self.generation = 1;
        }
        self.visited[origin.index()] = self.generation;
        let mut depth = 1;
        let mut next = Vec::new();
        let neigh = o.neighbors(origin).to_vec();
        match first_hop {
            FirstHop::All { count } => {
                for (slot, h) in neigh.iter().enumerate() {
                    let hop = (origin, slot, h.peer, count, 0.0);
                    self.send(o, hop, depth, target, env, &mut out, &mut next);
                }
            }
            FirstHop::Single { slot, count } => {
                let hop = (origin, slot, neigh[slot].peer, count, 0.0);
                self.send(o, hop, depth, target, env, &mut out, &mut next);
            }
        }
        let mut frontier: Vec<RefEntry> = next;
        let mut hops_left = ttl - 1;
        while hops_left > 0 && !frontier.is_empty() {
            depth += 1;
            let mut next = Vec::new();
            for &(u, parent, count, delay) in &frontier {
                let neigh = o.neighbors(u).to_vec();
                for (slot, h) in neigh.iter().enumerate() {
                    if h.peer != parent {
                        let hop = (u, slot, h.peer, count, delay);
                        self.send(o, hop, depth, target, env, &mut out, &mut next);
                    }
                }
            }
            frontier = next;
            hops_left -= 1;
        }
        if out.found {
            env.traffic.hit_hops += out.hit_depth as u64;
        }
        out
    }

    #[allow(clippy::too_many_arguments)]
    fn send(
        &mut self,
        o: &mut Overlay,
        (u, slot, v, count, delay_so_far): (NodeId, usize, NodeId, u32, f32),
        depth: u32,
        target: Option<ObjectId>,
        env: &mut FloodEnv<'_>,
        out: &mut FloodOutcome,
        next: &mut Vec<RefEntry>,
    ) {
        let vi = v.index();
        if count == 0 || !self.online[vi] {
            return;
        }
        let already = o.sent_via(u, slot);
        let send_c = count.min(o.link_capacity(u, v).saturating_sub(already));
        env.traffic.dropped += (count - send_c) as u64;
        if send_c == 0 {
            return;
        }
        o.record_send(u, slot, send_c);
        env.traffic.query_hops += send_c as u64;
        if self.visited[vi] == self.generation {
            env.traffic.dropped += send_c as u64;
            return;
        }
        o.record_accept(u, slot, send_c);
        let node_room = self.capacity[vi].saturating_sub(self.node_used[vi]);
        let room = match env.policy {
            ForwardingPolicy::Fifo => node_room,
            ForwardingPolicy::FairShare => {
                let deg = o.degree(v).max(1) as f64;
                let share = (env.fair_share_factor * self.capacity[vi] as f64 / deg) as u32;
                node_room.min(share.saturating_sub(already))
            }
        };
        let proc_c = send_c.min(room);
        env.traffic.dropped += (send_c - proc_c) as u64;
        if proc_c == 0 {
            return;
        }
        self.node_used[vi] += proc_c;
        self.visited[vi] = self.generation;
        out.processed_nodes += 1;
        let rho = env.prev_util[vi].min(0.98) as f64;
        let node_delay = env.proc_delay_secs / (1.0 - rho);
        let delay = delay_so_far + (env.hop_latency_secs + node_delay) as f32;
        if !out.found {
            if let Some(object) = target {
                if self.libraries[vi].binary_search(&object.0).is_ok() {
                    out.found = true;
                    out.hit_delay_secs = delay as f64;
                    out.hit_depth = depth;
                }
            }
        }
        next.push((v, u, proc_c, delay));
    }
}

// ---------------------------------------------------------------------------
// Differential scenarios.

const CLASSES: [BandwidthClass; 4] =
    [BandwidthClass::Dialup, BandwidthClass::Dsl, BandwidthClass::Cable, BandwidthClass::Ethernet];

#[derive(Debug, Clone, Copy)]
enum Op {
    /// A good peer's count-1 search for `object`.
    Query { origin: u32, object: u32, ttl: u8 },
    /// An attacker's batch down one link (`slot_pick` modulo the degree).
    Attack { origin: u32, slot_pick: u32, count: u32, ttl: u8 },
    /// A batch of `count` to every neighbor.
    Burst { origin: u32, count: u32, ttl: u8 },
    /// The slot comes back as a new peer: class, capacity, online flag and a
    /// fresh library.
    Rejoin { node: u32, class: usize, capacity: u32, online: bool },
    /// Tick boundary: counters and processed counts are compared, then reset.
    Tick,
    /// Move both visited-generation counters to `u32::MAX - back`, so the
    /// next few floods wrap around.
    Jump { back: u32 },
}

#[derive(Debug, Clone)]
struct Case {
    n: usize,
    edges: Vec<(u32, u32)>,
    classes: Vec<usize>,
    capacities: Vec<u32>,
    online: Vec<bool>,
    prev_util: Vec<f32>,
    content: ContentConfig,
    policy: ForwardingPolicy,
    fair_share_factor: f64,
    content_seed: u64,
    ops: Vec<Op>,
}

/// A random scenario drawn from `seed`. Catalogs have more than 128 objects
/// on most seeds, so signature bits alias and the exact lookup must decide.
fn random_case(seed: u64) -> Case {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(4..40usize);
    let edges = (0..rng.gen_range(n..4 * n))
        .map(|_| (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32)))
        .collect();
    let classes = (0..n).map(|_| rng.gen_range(0..4)).collect();
    let capacities = (0..n).map(|_| rng.gen_range(0..3_000)).collect();
    let online = (0..n).map(|_| rng.gen_bool(0.85)).collect();
    let prev_util = (0..n).map(|_| rng.gen::<f32>()).collect();
    let num_objects = rng.gen_range(20..400);
    let content = ContentConfig {
        num_objects,
        objects_per_peer: rng.gen_range(1..16),
        alpha: rng.gen_range(0.5..1.5),
    };
    let policy =
        if rng.gen_bool(0.5) { ForwardingPolicy::Fifo } else { ForwardingPolicy::FairShare };
    let fair_share_factor = [1.0, 2.0, 3.5][rng.gen_range(0..3)];
    let ops = (0..rng.gen_range(10..60))
        .map(|_| {
            let origin = rng.gen_range(0..n as u32);
            let ttl = rng.gen_range(1..8);
            match rng.gen_range(0..100) {
                0..=54 => Op::Query { origin, object: rng.gen_range(0..num_objects as u32), ttl },
                55..=69 => Op::Attack {
                    origin,
                    slot_pick: rng.gen(),
                    count: rng.gen_range(1..30_000),
                    ttl,
                },
                70..=74 => Op::Burst { origin, count: rng.gen_range(1..5_000), ttl },
                75..=86 => Op::Rejoin {
                    node: origin,
                    class: rng.gen_range(0..4),
                    capacity: rng.gen_range(0..3_000),
                    online: rng.gen_bool(0.9),
                },
                87..=94 => Op::Tick,
                _ => Op::Jump { back: rng.gen_range(0..4) },
            }
        })
        .collect();
    Case {
        n,
        edges,
        classes,
        capacities,
        online,
        prev_util,
        content,
        policy,
        fair_share_factor,
        content_seed: rng.gen(),
        ops,
    }
}

/// Compare the per-edge counters and per-node processed counts of the two
/// kernels.
fn compare_tick_state(
    fast: (&Overlay, &FloodEngine),
    slow: (&Overlay, &Reference),
    n: usize,
) -> Result<(), String> {
    for i in 0..n {
        let u = NodeId::from_index(i);
        for slot in 0..fast.0.degree(u) {
            let f = (fast.0.sent_via(u, slot), fast.0.accepted_via(u, slot));
            let s = (slow.0.sent_via(u, slot), slow.0.accepted_via(u, slot));
            if f != s {
                return Err(format!("edge {i}/{slot}: [sent, accepted] {f:?} vs reference {s:?}"));
            }
        }
        if fast.1.used(u) != slow.1.node_used[i] {
            return Err(format!(
                "node {i}: used {} vs reference {}",
                fast.1.used(u),
                slow.1.node_used[i]
            ));
        }
    }
    Ok(())
}

/// Drive the packed kernel and the reference through `case`; the first
/// divergence is the error. With `refresh_signatures` off, rejoins replace
/// a library without refreshing the cached signature — a planted bug the
/// comparison must catch.
fn run_case(case: &Case, refresh_signatures: bool) -> Result<(), String> {
    let n = case.n;
    let mut g = DynamicGraph::new(n);
    for &(a, b) in &case.edges {
        g.add_edge(NodeId(a), NodeId(b));
    }
    let classes: Vec<_> = case.classes.iter().map(|&c| CLASSES[c]).collect();
    let mut fast_overlay = Overlay::new(g, &classes);
    let mut slow_overlay = fast_overlay.clone();

    let mut content_rng = StdRng::seed_from_u64(case.content_seed);
    let mut reference_rng = content_rng.clone();
    let mut catalog = ContentCatalog::generate(n, &case.content, &mut content_rng);
    let pop = Zipf::new(case.content.num_objects, case.content.alpha);
    let per_peer = case.content.objects_per_peer;

    let mut fast = FloodEngine::new(n);
    for (i, &class) in classes.iter().enumerate() {
        let v = NodeId::from_index(i);
        fast.set_node(v, case.online[i], case.capacities[i], class);
        fast.refresh_signature(v, &catalog);
    }
    let mut slow = Reference {
        visited: vec![0; n],
        generation: 0,
        node_used: vec![0; n],
        capacity: case.capacities.clone(),
        online: case.online.clone(),
        libraries: (0..n).map(|_| sample_library(&pop, per_peer, &mut reference_rng)).collect(),
    };
    let (mut fast_traffic, mut slow_traffic) =
        (TrafficAccumulator::default(), TrafficAccumulator::default());

    for (step, &op) in case.ops.iter().enumerate() {
        let (origin, first_hop, ttl, target) = match op {
            Op::Query { origin, object, ttl } => {
                (origin, FirstHop::All { count: 1 }, ttl, Some(ObjectId(object)))
            }
            Op::Attack { origin, slot_pick, count, ttl } => {
                let degree = fast_overlay.degree(NodeId(origin));
                if degree == 0 {
                    continue;
                }
                let slot = slot_pick as usize % degree;
                (origin, FirstHop::Single { slot, count }, ttl, None)
            }
            Op::Burst { origin, count, ttl } => (origin, FirstHop::All { count }, ttl, None),
            Op::Rejoin { node, class, capacity, online } => {
                let v = NodeId(node);
                catalog.regenerate_library(v, &mut content_rng);
                slow.libraries[v.index()] = sample_library(&pop, per_peer, &mut reference_rng);
                fast_overlay.set_class(v, CLASSES[class]);
                slow_overlay.set_class(v, CLASSES[class]);
                fast.set_node(v, online, capacity, CLASSES[class]);
                if refresh_signatures {
                    fast.refresh_signature(v, &catalog);
                }
                slow.capacity[v.index()] = capacity;
                slow.online[v.index()] = online;
                continue;
            }
            Op::Tick => {
                compare_tick_state((&fast_overlay, &fast), (&slow_overlay, &slow), n)
                    .map_err(|e| format!("before tick boundary at op {step}: {e}"))?;
                fast_overlay.reset_tick_counters();
                slow_overlay.reset_tick_counters();
                fast.clear_used();
                slow.node_used.fill(0);
                continue;
            }
            Op::Jump { back } => {
                fast.set_generation(u32::MAX - back);
                slow.generation = u32::MAX - back;
                continue;
            }
        };
        let env = |traffic| FloodEnv {
            prev_util: &case.prev_util,
            traffic,
            policy: case.policy,
            fair_share_factor: case.fair_share_factor,
            hop_latency_secs: 0.05,
            proc_delay_secs: 0.004,
        };
        let origin = NodeId(origin);
        let f = fast.flood(
            &mut fast_overlay,
            origin,
            first_hop,
            ttl,
            target.map(|t| (&catalog, t)),
            &mut env(&mut fast_traffic),
        );
        let s = slow.flood(
            &mut slow_overlay,
            origin,
            first_hop,
            ttl,
            target,
            &mut env(&mut slow_traffic),
        );
        if f != s || f.hit_delay_secs.to_bits() != s.hit_delay_secs.to_bits() {
            return Err(format!("op {step} {op:?}: outcome {f:?} vs reference {s:?}"));
        }
        if fast_traffic != slow_traffic {
            return Err(format!(
                "op {step} {op:?}: traffic {fast_traffic:?} vs reference {slow_traffic:?}"
            ));
        }
    }
    compare_tick_state((&fast_overlay, &fast), (&slow_overlay, &slow), n)
        .map_err(|e| format!("at the end: {e}"))
}

/// The planted stale-signature bug is caught on at least one of the first
/// `seeds` scenarios.
fn stale_signatures_caught_within(seeds: u64) -> bool {
    (0..seeds).any(|seed| run_case(&random_case(seed), false).is_err())
}

#[test]
fn differential_check_catches_a_signature_left_stale_by_regenerate_library() {
    // Every one of these seeds passes with signatures refreshed...
    for seed in 0..64 {
        let case = random_case(seed);
        if let Err(e) = run_case(&case, true) {
            panic!("seed {seed} diverged with refreshed signatures: {e}");
        }
    }
    // ...and the same scenarios expose a kernel whose signatures go stale.
    assert!(stale_signatures_caught_within(64), "a stale signature went unnoticed");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The packed kernel is bit-identical to the reference kernel.
    #[test]
    fn packed_kernel_matches_the_reference(seed in any::<u64>()) {
        let case = random_case(seed);
        if let Err(e) = run_case(&case, true) {
            prop_assert!(false, "{}\n{:?}", e, case);
        }
    }
}

proptest! {
    /// Budgets are never exceeded: processed <= capacity at every node.
    #[test]
    fn node_budgets_hold(w in world()) {
        let mut b = build(&w);
        flood(&mut b, &w);
        for (i, (u, cap)) in used(&b, w.n).into_iter().zip(&w.capacities).enumerate() {
            prop_assert!(u <= *cap, "node {i} used {u} > capacity {cap}");
        }
    }

    /// Everything sent on the wire either gets processed somewhere or is
    /// accounted as dropped at a link, a saturated node, or a dup filter —
    /// plus the copies never sent because the first hop was link-capped.
    #[test]
    fn wire_conservation(w in world()) {
        let mut b = build(&w);
        flood(&mut b, &w);
        let total_wire: u64 = (0..w.n)
            .map(|i| b.overlay.total_sent(NodeId(i.try_into().unwrap())))
            .sum();
        prop_assert_eq!(total_wire, b.traffic.query_hops);
        let processed: u64 = used(&b, w.n).iter().map(|&c| c as u64).sum();
        // wire = processed + (drops recorded at/after the wire) - (drops
        // counted before transmission). The engine books both kinds into
        // `dropped`, so wire <= processed + dropped and processed <= wire.
        prop_assert!(processed <= total_wire,
            "processed {processed} cannot exceed wire volume {total_wire}");
        prop_assert!(total_wire <= processed + b.traffic.dropped,
            "wire {} > processed {} + dropped {}", total_wire, processed, b.traffic.dropped);
    }

    /// Accepted (dup-filtered) volume never exceeds wire volume on any edge.
    #[test]
    fn accepted_is_a_subset_of_sent(w in world()) {
        let mut b = build(&w);
        flood(&mut b, &w);
        for i in 0..w.n {
            let u = NodeId(i as u32);
            for slot in 0..b.overlay.degree(u) {
                prop_assert!(b.overlay.accepted_via(u, slot) <= b.overlay.sent_via(u, slot));
            }
        }
    }

    /// Flooding twice with the same inputs gives identical outcomes
    /// (determinism of the hot path).
    #[test]
    fn flood_is_deterministic(w in world()) {
        let mut b1 = build(&w);
        let o1 = flood(&mut b1, &w);
        let mut b2 = build(&w);
        let o2 = flood(&mut b2, &w);
        prop_assert_eq!(o1, o2);
        prop_assert_eq!(used(&b1, w.n), used(&b2, w.n));
        prop_assert_eq!(b1.traffic, b2.traffic);
    }

    /// The overlay's counter mirrors stay aligned through a flood.
    #[test]
    fn overlay_invariants_after_flood(w in world()) {
        let mut b = build(&w);
        flood(&mut b, &w);
        prop_assert!(b.overlay.check_invariants().is_ok());
    }
}
