//! Microbenches for the three hottest tick-engine kernels: flood propagation
//! (in cache at 2k peers, and at 100k with catalog probes, where the
//! per-send cache misses dominate), the DD-POLICE indicator update, and the
//! neighbor-list exchange.
//!
//! These are the kernels the scale refactor targets; `BENCH_scale.json`
//! tracks the end-to-end ticks/sec, this file tracks the kernels in
//! isolation. CI runs them with `DDP_BENCH_ITERS=1` as a smoke test.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ddp_bench::CountingAlloc;
use ddp_metrics::TrafficAccumulator;
use ddp_police::exchange::ExchangeState;
use ddp_police::{DdPolice, DdPoliceConfig, ExchangePolicy};
use ddp_sim::flood::{FirstHop, FloodEngine, FloodEnv};
use ddp_sim::{
    Actions, Defense, ForwardingPolicy, ListBehavior, Overlay, ReportBehavior, TickObservation,
};
use ddp_topology::{NodeId, TopologyConfig, TopologyModel};
use ddp_workload::content::ContentConfig;
use ddp_workload::{BandwidthClass, BandwidthModel, ContentCatalog};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

fn ba_overlay(n: usize, seed: u64) -> Overlay {
    let cfg = TopologyConfig { n, model: TopologyModel::BarabasiAlbert { m: 3 } };
    let mut rng = StdRng::seed_from_u64(seed);
    let g = cfg.generate(&mut rng);
    Overlay::new(g, &vec![BandwidthClass::Ethernet; n])
}

/// One tick's worth of flooding on a 2k BA overlay: 64 good queries
/// (FirstHop::All, count 1) plus 8 attacker bursts (FirstHop::Single,
/// count 20_000), TTL 4 — the engine's dominant per-tick work.
fn bench_flood_step(c: &mut Criterion) {
    let n = 2000usize;
    let mut overlay = ba_overlay(n, 42);
    let mut engine = FloodEngine::new(n);
    for i in 0..n {
        engine.set_node(NodeId::from_index(i), true, 1000, BandwidthClass::Ethernet);
    }
    let prev_util = vec![0.0f32; n];
    let mut traffic = TrafficAccumulator::default();
    c.bench_function("flood_step/2k_ba", |b| {
        b.iter(|| {
            overlay.reset_tick_counters();
            engine.clear_used();
            let mut env = FloodEnv {
                prev_util: &prev_util,
                traffic: &mut traffic,
                policy: ForwardingPolicy::Fifo,
                fair_share_factor: 2.0,
                hop_latency_secs: 0.05,
                proc_delay_secs: 0.004,
            };
            let mut processed = 0u32;
            for i in 0..64u32 {
                let origin = NodeId((i * 31) % n as u32);
                let out = engine.flood(
                    &mut overlay,
                    origin,
                    FirstHop::All { count: 1 },
                    4,
                    None,
                    &mut env,
                );
                processed += out.processed_nodes;
            }
            for i in 0..8u32 {
                let origin = NodeId((i * 251 + 7) % n as u32);
                let out = engine.flood(
                    &mut overlay,
                    origin,
                    FirstHop::Single { slot: 0, count: 20_000 },
                    4,
                    None,
                    &mut env,
                );
                processed += out.processed_nodes;
            }
            black_box(processed)
        })
    });
    println!(
        "alloc after flood_step: peak {} KiB, {} allocations",
        ALLOC.peak_bytes() / 1024,
        ALLOC.allocations()
    );
}

/// The flood's slow case, at the scale where its time goes: a 100k BA
/// overlay with the default bandwidth mix and content catalog. One iteration
/// is one attacked tick at the default settings: a saturating burst (5% of
/// peers as agents, 20k queries down every link) followed by 30k count-1
/// targeted queries (0.3 per peer), TTL 4. Every query probes the catalog at
/// each processing node, and the working set (node records, adjacency,
/// counters, libraries) is far larger than L2.
fn bench_flood_step_100k_catalog(c: &mut Criterion) {
    let n = 100_000usize;
    let mut rng = StdRng::seed_from_u64(5);
    let graph =
        TopologyConfig { n, model: TopologyModel::BarabasiAlbert { m: 3 } }.generate(&mut rng);
    let bandwidth = BandwidthModel::default();
    let classes: Vec<_> = (0..n).map(|_| bandwidth.sample(&mut rng)).collect();
    let mut overlay = Overlay::new(graph, &classes);
    let catalog = ContentCatalog::generate(n, &ContentConfig::default(), &mut rng);
    let mut engine = FloodEngine::new(n);
    for (i, &class) in classes.iter().enumerate() {
        let v = NodeId::from_index(i);
        engine.set_node(v, true, 1000, class);
        engine.refresh_signature(v, &catalog);
    }
    let queries: Vec<_> = (0..30_000)
        .map(|_| (NodeId(rng.gen_range(0..n as u32)), catalog.sample_query_target(&mut rng)))
        .collect();
    let agents: Vec<_> = (0..n / 20).map(|_| NodeId(rng.gen_range(0..n as u32))).collect();
    let prev_util = vec![0.0f32; n];
    let mut traffic = TrafficAccumulator::default();
    c.bench_function("flood_step/100k_ba_catalog", |b| {
        b.iter(|| {
            overlay.reset_tick_counters();
            engine.clear_used();
            let mut env = FloodEnv {
                prev_util: &prev_util,
                traffic: &mut traffic,
                policy: ForwardingPolicy::Fifo,
                fair_share_factor: 2.0,
                hop_latency_secs: 0.05,
                proc_delay_secs: 0.004,
            };
            for &origin in &agents {
                for slot in 0..overlay.degree(origin) {
                    let burst = FirstHop::Single { slot, count: 20_000 };
                    engine.flood(&mut overlay, origin, burst, 4, None, &mut env);
                }
            }
            let mut found = 0u32;
            for &(origin, object) in &queries {
                let hop = FirstHop::All { count: 1 };
                let out =
                    engine.flood(&mut overlay, origin, hop, 4, Some((&catalog, object)), &mut env);
                found += out.found as u32;
            }
            black_box(found)
        })
    });
}

/// Full DD-POLICE `on_tick` on a 512-node overlay where every link carries
/// above-warning traffic, so each directed edge assembles a Buddy Group and
/// computes the General/Single indicators every iteration.
fn bench_indicator_update(c: &mut Criterion) {
    let n = 512usize;
    let mut overlay = ba_overlay(n, 7);
    // Push every directed link over the 500-qpm warning threshold.
    for u in 0..n {
        let u = NodeId(u as u32);
        for slot in 0..overlay.degree(u) {
            overlay.record_send(u, slot, 600);
            overlay.record_accept(u, slot, 600);
        }
    }
    let online = vec![true; n];
    let runs = vec![true; n];
    let report = vec![ReportBehavior::Honest; n];
    let lists = vec![ListBehavior::Truthful; n];
    let mut police = DdPolice::new(DdPoliceConfig::default(), n);
    let mut tick = 0u32;
    c.bench_function("indicator_update/512_all_over_warning", |b| {
        b.iter(|| {
            tick += 1;
            let obs = TickObservation {
                tick,
                overlay: &overlay,
                online: &online,
                runs_defense: &runs,
                report_behavior: &report,
                list_behavior: &lists,
                faults: None,
            };
            let mut actions = Actions::default();
            police.on_tick(&obs, &mut actions);
            black_box(actions.control_msgs)
        })
    });
}

/// The periodic neighbor-list exchange (period 1 = refresh every tick) on a
/// 2k BA overlay: every online peer announces to every neighbor.
fn bench_neighbor_list_exchange(c: &mut Criterion) {
    let n = 2000usize;
    let overlay = ba_overlay(n, 9);
    let online = vec![true; n];
    let runs = vec![true; n];
    let report = vec![ReportBehavior::Honest; n];
    let lists = vec![ListBehavior::Truthful; n];
    let mut exchange = ExchangeState::new(n);
    let mut tick = 0u32;
    c.bench_function("neighbor_list_exchange/2k_period1", |b| {
        b.iter(|| {
            tick += 1;
            let obs = TickObservation {
                tick,
                overlay: &overlay,
                online: &online,
                runs_defense: &runs,
                report_behavior: &report,
                list_behavior: &lists,
                faults: None,
            };
            black_box(exchange.on_tick(ExchangePolicy::Periodic { minutes: 1 }, &obs))
        })
    });
}

criterion_group!(
    hot_kernels,
    bench_flood_step,
    bench_flood_step_100k_catalog,
    bench_indicator_update,
    bench_neighbor_list_exchange
);
criterion_main!(hot_kernels);
