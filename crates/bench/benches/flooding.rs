//! Flood-engine microbenches: the simulator's hot loop.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use ddp_metrics::TrafficAccumulator;
use ddp_sim::flood::{FirstHop, FloodEnv};
use ddp_sim::{FloodEngine, ForwardingPolicy, Overlay};
use ddp_topology::{NodeId, TopologyConfig};
use ddp_workload::content::ContentConfig;
use ddp_workload::{BandwidthClass, ContentCatalog};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

struct Fixture {
    overlay: Overlay,
    catalog: ContentCatalog,
    prev_util: Vec<f32>,
}

/// A flood engine for the fixture: every node online with capacity 1000.
fn engine(fx: &Fixture) -> FloodEngine {
    let n = fx.overlay.node_count();
    let mut fe = FloodEngine::new(n);
    for i in 0..n {
        let v = NodeId::from_index(i);
        fe.set_node(v, true, 1_000, BandwidthClass::Ethernet);
        fe.refresh_signature(v, &fx.catalog);
    }
    fe
}

fn fixture(n: usize) -> Fixture {
    let graph =
        TopologyConfig { n, ..TopologyConfig::default() }.generate(&mut StdRng::seed_from_u64(1));
    let overlay = Overlay::new(graph, &vec![BandwidthClass::Ethernet; n]);
    let catalog =
        ContentCatalog::generate(n, &ContentConfig::default(), &mut StdRng::seed_from_u64(2));
    Fixture { overlay, catalog, prev_util: vec![0.0; n] }
}

fn run_flood(fx: &mut Fixture, fe: &mut FloodEngine, origin: u32, count: u32, tracked: bool) {
    let mut traffic = TrafficAccumulator::default();
    let mut env = FloodEnv {
        prev_util: &fx.prev_util,
        traffic: &mut traffic,
        policy: ForwardingPolicy::Fifo,
        fair_share_factor: 2.0,
        hop_latency_secs: 0.05,
        proc_delay_secs: 0.004,
    };
    let target = if tracked { Some((&fx.catalog, ddp_workload::ObjectId(3))) } else { None };
    black_box(fe.flood(
        &mut fx.overlay,
        NodeId(origin),
        FirstHop::All { count },
        4,
        target,
        &mut env,
    ));
}

fn bench_single_query(c: &mut Criterion) {
    let mut fx = fixture(2_000);
    let mut fe = engine(&fx);
    c.bench_function("flood_one_tracked_query_2000", |b| {
        b.iter(|| {
            fx.overlay.reset_tick_counters();
            fe.clear_used();
            run_flood(&mut fx, &mut fe, 17, 1, true);
        })
    });
}

fn bench_attack_batch(c: &mut Criterion) {
    let mut fx = fixture(2_000);
    let mut fe = engine(&fx);
    c.bench_function("flood_attack_batch_20k_2000", |b| {
        b.iter(|| {
            fx.overlay.reset_tick_counters();
            fe.clear_used();
            run_flood(&mut fx, &mut fe, 17, 20_000, false);
        })
    });
}

fn bench_saturated_tick_worth(c: &mut Criterion) {
    // 600 tracked queries — one tick's good workload on 2,000 peers.
    let mut fx = fixture(2_000);
    let mut fe = engine(&fx);
    c.bench_function("flood_600_queries_one_tick_2000", |b| {
        b.iter(|| {
            fx.overlay.reset_tick_counters();
            fe.clear_used();
            for q in 0..600u32 {
                run_flood(&mut fx, &mut fe, (q * 3) % 2_000, 1, true);
            }
        })
    });
}

fn bench_fair_share_overhead(c: &mut Criterion) {
    // Ablation: FIFO vs FairShare budget accounting in the hot loop.
    let mut grp = c.benchmark_group("forwarding_policy");
    for (name, policy) in
        [("fifo", ForwardingPolicy::Fifo), ("fair_share", ForwardingPolicy::FairShare)]
    {
        grp.bench_function(name, |b| {
            let mut fx = fixture(1_000);
            let mut fe = engine(&fx);
            b.iter_batched(
                || (),
                |()| {
                    fx.overlay.reset_tick_counters();
                    fe.clear_used();
                    let mut traffic = TrafficAccumulator::default();
                    let mut env = FloodEnv {
                        prev_util: &fx.prev_util,
                        traffic: &mut traffic,
                        policy,
                        fair_share_factor: 2.0,
                        hop_latency_secs: 0.05,
                        proc_delay_secs: 0.004,
                    };
                    black_box(fe.flood(
                        &mut fx.overlay,
                        NodeId(5),
                        FirstHop::All { count: 20_000 },
                        4,
                        None,
                        &mut env,
                    ));
                },
                BatchSize::SmallInput,
            )
        });
    }
    grp.finish();
}

criterion_group!(
    benches,
    bench_single_query,
    bench_attack_batch,
    bench_saturated_tick_worth,
    bench_fair_share_overhead
);
criterion_main!(benches);
