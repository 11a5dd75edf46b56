//! Property test: the reverse holder indexes behind the O(holders) purge of
//! a departed identity.
//!
//! [`ExchangeState::forget_about`] and [`VerdictMachine::forget_suspect`]
//! visit only the peers their holder index names, instead of sweeping every
//! view and every verdict map. That is exact only if the index never misses
//! a holder. Random sequences of every operation that inserts or removes a
//! key — serial and sharded — run here, and after every step the index must
//! cover every real holder (`check_holder_index`). At the end, purging each
//! identity through the index must leave the serialized state byte-identical
//! to the brute-force O(n) sweep, which lives only in this file: it decodes
//! the `save_state` payload, sweeps every view or map, and re-encodes it.

use ddp_police::exchange::ExchangeState;
use ddp_police::{ExchangePolicy, Hysteresis, ReadmissionPolicy, SuspectEntry, VerdictMachine};
use ddp_sim::{
    Actions, FaultConfig, FaultPlane, ListBehavior, Overlay, ReportBehavior, Tick, TickObservation,
};
use ddp_snapshot::{Dec, Enc};
use ddp_topology::{DynamicGraph, NodeId};
use ddp_workload::BandwidthClass;
use proptest::prelude::*;

/// Peers in the exchange cases.
const N: usize = 8;
/// Observers in the verdict cases: enough that one suspect's holder list
/// outgrows its first allocations and gets pruned.
const V: usize = 24;
/// Suspects in the verdict cases, few so their holder lists grow long.
const S: u32 = 5;

fn exchange_bytes(ex: &ExchangeState) -> Vec<u8> {
    let mut enc = Enc::new();
    ex.save_state(&mut enc);
    enc.into_bytes()
}

fn verdict_bytes(m: &VerdictMachine) -> Vec<u8> {
    let mut enc = Enc::new();
    m.save_state(&mut enc);
    enc.into_bytes()
}

/// `(announcer, members, taken_at)` per view, in stored order.
type ExchangeModel = (Vec<Vec<(u32, Vec<u32>, u32)>>, u64);

/// The O(n) sweep `forget_about` used to run, over the decoded payload.
fn reference_forget_about(bytes: &[u8], u: u32) -> Vec<u8> {
    let mut dec = Dec::new(bytes);
    let mut model: ExchangeModel = (Vec::new(), 0);
    for _ in 0..dec.len("views").unwrap() {
        let mut view = Vec::new();
        for _ in 0..dec.len("pairs").unwrap() {
            let j = dec.u32().unwrap();
            let members =
                (0..dec.len("members").unwrap()).map(|_| dec.u32().unwrap()).collect::<Vec<_>>();
            view.push((j, members, dec.u32().unwrap()));
        }
        model.0.push(view);
    }
    model.1 = dec.u64().unwrap();
    dec.finish().unwrap();

    for view in &mut model.0 {
        if let Some(pos) = view.iter().position(|(k, _, _)| *k == u) {
            view.swap_remove(pos);
        }
    }

    let mut enc = Enc::new();
    enc.usize(model.0.len());
    for view in &model.0 {
        enc.usize(view.len());
        for (j, members, taken_at) in view {
            enc.u32(*j);
            enc.usize(members.len());
            for &m in members {
                enc.u32(m);
            }
            enc.u32(*taken_at);
        }
    }
    enc.u64(model.1);
    enc.into_bytes()
}

/// The O(n) sweep `forget_suspect` used to run, over the decoded payload.
fn reference_forget_suspect(bytes: &[u8], suspect: u32) -> Vec<u8> {
    let mut dec = Dec::new(bytes);
    let mut maps: Vec<Vec<(u32, SuspectEntry)>> = Vec::new();
    for _ in 0..dec.len("observers").unwrap() {
        let mut map = Vec::new();
        for _ in 0..dec.len("entries").unwrap() {
            let s = dec.u32().unwrap();
            map.push((s, dec.get::<SuspectEntry>().unwrap()));
        }
        maps.push(map);
    }
    dec.finish().unwrap();

    for map in &mut maps {
        map.retain(|&(s, _)| s != suspect);
    }

    let mut enc = Enc::new();
    enc.usize(maps.len());
    for map in &maps {
        enc.usize(map.len());
        for (s, e) in map {
            enc.u32(*s);
            enc.put(e);
        }
    }
    enc.into_bytes()
}

#[derive(Debug, Clone)]
enum ExOp {
    /// Advance one tick and run the exchange at this worker width.
    Tick {
        width: usize,
    },
    AddEdge(u32, u32),
    /// Remove the edge and run the per-edge removal callback.
    RemoveEdge(u32, u32),
    /// Remove the edge with no callback: the snapshots outlive it, so only
    /// the holder index can find them again.
    DropEdgeSilently(u32, u32),
    ResetPeer(u32),
    ToggleOnline(u32),
    /// Save and load: the loaded state rebuilds its index from the views.
    Reload,
}

fn ex_op() -> impl Strategy<Value = ExOp> {
    let n = N as u32;
    prop_oneof![
        3 => (1usize..3).prop_map(|width| ExOp::Tick { width }),
        3 => (0..n, 0..n).prop_map(|(u, v)| ExOp::AddEdge(u, v)),
        2 => (0..n, 0..n).prop_map(|(u, v)| ExOp::RemoveEdge(u, v)),
        1 => (0..n, 0..n).prop_map(|(u, v)| ExOp::DropEdgeSilently(u, v)),
        1 => (0..n).prop_map(ExOp::ResetPeer),
        1 => (0..n).prop_map(ExOp::ToggleOnline),
        1 => Just(ExOp::Reload),
    ]
}

/// One per-observer verdict operation.
#[derive(Debug, Clone, Copy)]
enum VKind {
    Judged { over_ct: bool },
    NoteListMissing,
    NoteListOk,
    BelowWarning,
    ExpireStale,
    FireProbes,
    ExpireProbations,
}

#[derive(Debug, Clone)]
enum VOp {
    /// Advance the clock by one tick.
    Tick,
    One(u32, u32, VKind),
    /// A batch through disjoint shards split at `split`, each op applied
    /// by the shard owning its observer.
    Sharded {
        split: usize,
        ops: Vec<(u32, u32, VKind)>,
    },
    ForgetEdge(u32, u32),
    ResetObserver(u32),
    ToggleOnline(u32),
    Reload,
}

fn v_kind() -> impl Strategy<Value = VKind> {
    prop_oneof![
        4 => any::<bool>().prop_map(|over_ct| VKind::Judged { over_ct }),
        2 => Just(VKind::NoteListMissing),
        1 => Just(VKind::NoteListOk),
        1 => Just(VKind::BelowWarning),
        1 => Just(VKind::ExpireStale),
        1 => Just(VKind::FireProbes),
        1 => Just(VKind::ExpireProbations),
    ]
}

fn v_op() -> impl Strategy<Value = VOp> {
    let n = V as u32;
    prop_oneof![
        2 => Just(VOp::Tick),
        8 => (0..n, 0..S, v_kind()).prop_map(|(o, s, k)| VOp::One(o, s, k)),
        2 => (0..V + 1, proptest::collection::vec((0..n, 0..S, v_kind()), 0..10))
            .prop_map(|(split, ops)| VOp::Sharded { split, ops }),
        1 => (0..n, 0..S).prop_map(|(u, v)| VOp::ForgetEdge(u, v)),
        1 => (0..n).prop_map(VOp::ResetObserver),
        1 => (0..S).prop_map(VOp::ToggleOnline),
        1 => Just(VOp::Reload),
    ]
}

/// The verdict knobs one case runs under.
#[derive(Debug, Clone, Copy)]
struct Knobs {
    hysteresis: Hysteresis,
    readmission: ReadmissionPolicy,
    ttl: Tick,
}

fn knobs() -> impl Strategy<Value = Knobs> {
    (any::<bool>(), any::<bool>(), 0u32..4).prop_map(|(strict, readmit, ttl)| Knobs {
        hysteresis: if strict {
            Hysteresis { required: 2, window: 3 }
        } else {
            Hysteresis::default()
        },
        readmission: ReadmissionPolicy {
            enabled: readmit,
            base_backoff_ticks: 2,
            ..ReadmissionPolicy::default()
        },
        ttl,
    })
}

/// Apply one per-observer op, through the whole machine or a shard: both
/// expose the same method names, and this macro keeps the two call lists
/// identical.
macro_rules! apply_kind {
    ($target:expr, $o:expr, $s:expr, $kind:expr, $tick:expr, $k:expr, $online:expr) => {{
        let (o, s) = (NodeId($o), NodeId($s));
        let mut actions = Actions::default();
        match $kind {
            VKind::Judged { over_ct } => {
                $target.judged(o, s, over_ct, $tick, $k.hysteresis, $k.readmission, &mut actions);
            }
            VKind::NoteListMissing => {
                $target.note_list_missing(o, s);
            }
            VKind::NoteListOk => $target.note_list_ok(o, s),
            VKind::BelowWarning => $target.below_warning(o, s),
            VKind::ExpireStale => {
                $target.expire_stale(o, $tick, $k.ttl, $online);
            }
            VKind::FireProbes => $target.fire_probes(o, $tick, $k.readmission, &mut actions),
            VKind::ExpireProbations => $target.expire_probations(o, $tick, &mut actions),
        }
    }};
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Exchange refreshes at widths 1 and 2 (reliable, lossy and delaying
    /// control planes), edge removals with and without the callback, peer
    /// resets, and reloads keep the holder index exact; the indexed purge
    /// of every identity then matches the brute-force sweep byte for byte.
    #[test]
    fn exchange_index_covers_every_holder_and_purges_like_the_sweep(
        ops in proptest::collection::vec(ex_op(), 1..60),
        initial_edges in proptest::collection::vec((0..N as u32, 0..N as u32), 0..14),
        faulty in 0usize..3,
        seed in any::<u64>(),
    ) {
        let mut g = DynamicGraph::new(N);
        for &(u, v) in &initial_edges {
            g.add_edge(NodeId(u), NodeId(v));
        }
        let mut overlay = Overlay::new(g, &[BandwidthClass::Ethernet; N]);
        let mut online = vec![true; N];
        let runs = vec![true; N];
        let behavior = vec![ReportBehavior::Honest; N];
        let lists = vec![ListBehavior::Truthful; N];
        let plane = FaultPlane::new(
            match faulty {
                0 => FaultConfig::default(),
                1 => FaultConfig { loss: 0.3, ..FaultConfig::default() },
                _ => FaultConfig { delay_prob: 0.6, delay_ticks: 2, ..FaultConfig::default() },
            },
            seed,
        );
        let policy = ExchangePolicy::Periodic { minutes: 1 };
        let mut ex = ExchangeState::new(N);
        let mut tick: Tick = 0;

        for op in ops {
            match op {
                ExOp::Tick { width } => {
                    tick += 1;
                    plane.begin_tick(tick);
                    let obs = TickObservation {
                        tick,
                        overlay: &overlay,
                        online: &online,
                        runs_defense: &runs,
                        report_behavior: &behavior,
                        list_behavior: &lists,
                        faults: Some(&plane),
                    };
                    ex.on_tick_with_threads(policy, &obs, width);
                }
                ExOp::AddEdge(u, v) => {
                    overlay.add_edge(NodeId(u), NodeId(v));
                }
                ExOp::RemoveEdge(u, v) => {
                    if overlay.remove_edge(NodeId(u), NodeId(v)) {
                        ex.forget_edge(NodeId(u), NodeId(v));
                    }
                }
                ExOp::DropEdgeSilently(u, v) => {
                    overlay.remove_edge(NodeId(u), NodeId(v));
                }
                ExOp::ResetPeer(u) => ex.reset_peer(NodeId(u)),
                ExOp::ToggleOnline(u) => online[u as usize] = !online[u as usize],
                ExOp::Reload => {
                    let bytes = exchange_bytes(&ex);
                    ex = ExchangeState::load_state(&mut Dec::new(&bytes)).unwrap();
                    prop_assert_eq!(exchange_bytes(&ex), bytes);
                }
            }
            if let Err(e) = ex.check_holder_index() {
                prop_assert!(false, "after {:?}: {}", op, e);
            }
        }

        let bytes = exchange_bytes(&ex);
        for u in 0..N as u32 {
            let mut purged = ExchangeState::load_state(&mut Dec::new(&bytes)).unwrap();
            purged.forget_about(NodeId(u));
            prop_assert_eq!(exchange_bytes(&purged), reference_forget_about(&bytes, u));
            prop_assert!(purged.check_holder_index().is_ok());
        }
        // The index lives in the running state, not only in a reloaded one.
        let live = ex.all_snapshots().into_iter().map(|(_, j, _)| j).next();
        if let Some(u) = live {
            ex.forget_about(NodeId(u));
            prop_assert_eq!(exchange_bytes(&ex), reference_forget_about(&bytes, u));
        }
    }

    /// Serial and sharded verdict operations, edge removals, observer
    /// resets, and reloads never leave a held entry out of the index; the
    /// indexed purge of every suspect then matches the brute-force sweep
    /// byte for byte.
    #[test]
    fn verdict_index_covers_every_holder_and_purges_like_the_sweep(
        ops in proptest::collection::vec(v_op(), 1..150),
        k in knobs(),
    ) {
        let mut m = VerdictMachine::new(V);
        let mut online = vec![true; V];
        let mut tick: Tick = 1;

        for op in &ops {
            match op {
                VOp::Tick => tick += 1,
                VOp::One(o, s, kind) => apply_kind!(m, *o, *s, *kind, tick, k, &online),
                VOp::Sharded { split, ops } => {
                    m.with_shards(&[0, *split, V], |mut shards| {
                        for &(o, s, kind) in ops {
                            let shard = &mut shards[usize::from(o as usize >= *split)];
                            apply_kind!(shard, o, s, kind, tick, k, &online);
                        }
                    });
                }
                VOp::ForgetEdge(u, v) => m.forget_edge(NodeId(*u), NodeId(*v)),
                VOp::ResetObserver(o) => m.reset_observer(NodeId(*o)),
                VOp::ToggleOnline(u) => online[*u as usize] = !online[*u as usize],
                VOp::Reload => {
                    let bytes = verdict_bytes(&m);
                    m = VerdictMachine::load_state(&mut Dec::new(&bytes)).unwrap();
                    prop_assert_eq!(verdict_bytes(&m), bytes);
                }
            }
            if let Err(e) = m.check_holder_index() {
                prop_assert!(false, "after {:?}: {}", op, e);
            }
        }

        let bytes = verdict_bytes(&m);
        for s in 0..V as u32 {
            let mut purged = VerdictMachine::load_state(&mut Dec::new(&bytes)).unwrap();
            purged.forget_suspect(NodeId(s));
            prop_assert_eq!(verdict_bytes(&purged), reference_forget_suspect(&bytes, s));
            prop_assert_eq!(purged.entries_about(NodeId(s)), 0);
        }
        // Purge the running machine too: its index carries stale holders the
        // reloaded copies do not.
        for s in 0..V as u32 {
            let before = verdict_bytes(&m);
            m.forget_suspect(NodeId(s));
            prop_assert_eq!(verdict_bytes(&m), reference_forget_suspect(&before, s));
            prop_assert!(m.check_holder_index().is_ok());
        }
        prop_assert_eq!(m.total_entries(), 0);
    }
}
