//! The two simulator workloads: `attack-100k` (flood plus judgment) and
//! `churn-sketch-20k` (membership hooks, sketch monitor, snapshots).
//!
//! A run repeats one fixed unit of work, a repetition, from a simulation
//! freshly built on the run's seed until the time budget is spent, and
//! reports medians over the repetitions. Every repetition does identical
//! work, and every one after the first must reproduce the first's outcome.

use crate::report::{median, repeat, trace_summary, Rep, Report};
use crate::trace::{self, Traced, Tracer};
use ddp_attack::{AttackPlan, WhitewashPlan};
use ddp_metrics::summary::RunSeries;
use ddp_metrics::CountingAlloc;
use ddp_police::{DdPolice, DdPoliceConfig, MonitorBackend, SketchParams};
use ddp_sim::{CutRecord, Defense, SessionConfig, SimConfig, Simulation};
use ddp_topology::{TopologyConfig, TopologyModel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Salt of the agent-selection stream; the experiment runners use the same.
const AGENT_SALT: u64 = 0xdd05_ee1f;

/// A fault planted on purpose to show that a check catches it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plant {
    /// The width-2 run reverses its parallel reduction order.
    UnorderedReduction,
    /// One bit of the snapshot is flipped before it is restored.
    SnapshotBitFlip,
    /// Wire servents never cut anyone (cut threshold raised out of reach).
    LenientPolice,
}

impl Plant {
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "unordered-reduction" => Ok(Plant::UnorderedReduction),
            "snapshot-bit-flip" => Ok(Plant::SnapshotBitFlip),
            "lenient-police" => Ok(Plant::LenientPolice),
            other => Err(format!(
                "unknown --plant {other:?} (unordered-reduction, snapshot-bit-flip, lenient-police)"
            )),
        }
    }

    /// The workload whose check this fault is planted for.
    pub fn workload(self) -> &'static str {
        match self {
            Plant::UnorderedReduction => "attack-100k",
            Plant::SnapshotBitFlip => "churn-sketch-20k",
            Plant::LenientPolice => "wire-flood-60",
        }
    }
}

/// Shape of one simulator workload.
#[derive(Debug, Clone, Copy)]
pub struct SimParams {
    pub peers: usize,
    pub agents: usize,
    /// Ticks stepped per repetition (per width for `attack`).
    pub ticks: usize,
    /// Churn workload only: ticks between snapshots inside the timed loop.
    pub snapshot_every: usize,
}

impl SimParams {
    /// `attack-100k`: 100k peers, 5% agents, 8 ticks per repetition.
    pub const ATTACK_100K: SimParams =
        SimParams { peers: 100_000, agents: 5_000, ticks: 8, snapshot_every: 0 };
    /// `churn-sketch-20k`: 20k peers, 5% whitewashing agents, 6 ticks with a
    /// snapshot every 2.
    pub const CHURN_20K: SimParams =
        SimParams { peers: 20_000, agents: 1_000, ticks: 6, snapshot_every: 2 };
}

/// Mean session length of the churn workload, in ticks.
const MEAN_SESSION_TICKS: f64 = 30.0;
/// Verdict-state TTL of the churn workload (the churn runner's value).
const SUSPECT_TTL_TICKS: u32 = 8;
/// Ticks a cut whitewashing agent stays dark before its rebirth.
const WHITEWASH_DWELL_TICKS: u32 = 1;

/// SplitMix64 finalizer over `(master, stream)`: the derivation
/// `Simulation::new` gives each of its random streams.
fn derive_seed(master: u64, stream: u64) -> u64 {
    let mut z = master ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn ba_topology(peers: usize) -> TopologyConfig {
    TopologyConfig { n: peers, model: TopologyModel::BarabasiAlbert { m: 3 } }
}

/// The topology stream `Simulation::new` draws from (stream 1), so the
/// traced run can time the generator alone.
fn topology_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(derive_seed(seed, 1))
}

/// What one timed step loop did.
struct LoopRun {
    wall_s: f64,
    allocs: u64,
    /// Seconds each snapshot saved inside the loop took.
    saves: Vec<f64>,
}

fn step_loop<D: Defense>(
    sim: &mut Simulation<D>,
    p: SimParams,
    alloc: Option<&'static CountingAlloc>,
) -> LoopRun {
    let allocs0 = alloc.map_or(0, |a| a.allocations());
    let mut saves = Vec::new();
    let t0 = Instant::now();
    for i in 1..=p.ticks {
        trace::span("sim.step", || sim.step());
        if p.snapshot_every > 0 && i % p.snapshot_every == 0 {
            let s0 = Instant::now();
            let bytes = trace::span("snapshot.save", || sim.save_snapshot())
                .expect("DD-POLICE supports snapshots");
            black_box(bytes);
            saves.push(s0.elapsed().as_secs_f64());
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let allocs = alloc.map_or(0, |a| a.allocations()) - allocs0;
    LoopRun { wall_s, allocs: allocs as u64, saves }
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Record the run's defense outcomes and return the state hash.
fn outcome<D: Defense>(report: &mut Report, label: &str, sim: &Simulation<D>) -> u64 {
    let hash = sim.state_hash();
    let cuts = sim.cut_log();
    let attacker_cuts = cuts.iter().filter(|c| c.suspect_was_attacker).count();
    report.outcome(format!(
        "{label} tick={} state_hash={hash:016x} cuts={} attacker_cuts={attacker_cuts} success_rate={}",
        sim.tick(),
        cuts.len(),
        mean(&sim.series().success_rate.values),
    ));
    hash
}

/// Per-layer numbers of one traced repetition.
fn layer_metrics(report: &mut Report, tr: &Tracer, sim: &Simulation<Traced<DdPolice>>) {
    let secs = |name: &str| tr.tally(name).total_ns as f64 * 1e-9;
    report.metric("topology.generate_s", secs("topology.generate"));
    report.metric("sim.new_s", secs("sim.new"));
    report.metric("sim.step_s", secs("sim.step"));
    report.metric("sim.step_self_s", tr.tally("sim.step").self_ns as f64 * 1e-9);
    report.metric("police.on_tick_s", secs("police.on_tick"));
    for (hook, s, calls, per_call) in [
        (
            "police.on_peer_departed",
            "police.on_peer_departed_s",
            "police.on_peer_departed.calls",
            "police.on_peer_departed_us_per_call",
        ),
        (
            "police.on_edge_removed",
            "police.on_edge_removed_s",
            "police.on_edge_removed.calls",
            "police.on_edge_removed_us_per_call",
        ),
        (
            "police.on_edge_added",
            "police.on_edge_added_s",
            "police.on_edge_added.calls",
            "police.on_edge_added_us_per_call",
        ),
        (
            "police.on_peer_reset",
            "police.on_peer_reset_s",
            "police.on_peer_reset.calls",
            "police.on_peer_reset_us_per_call",
        ),
    ] {
        let t = tr.tally(hook);
        report.metric(s, t.total_ns as f64 * 1e-9);
        report.metric(calls, t.calls as f64);
        report.metric(per_call, t.total_ns as f64 * 1e-3 / t.calls.max(1) as f64);
    }
    let series = sim.series();
    report.metric("sim.query_msgs", series.traffic.values.iter().sum());
    report.metric("sim.drop_rate", mean(&series.drop_rate.values));
    report.metric("sim.success_rate", mean(&series.success_rate.values));
    let cuts = sim.cut_log();
    let attacker_cuts = cuts.iter().filter(|c| c.suspect_was_attacker).count();
    report.metric("police.cuts", cuts.len() as f64);
    report.metric("police.attacker_cut_share", attacker_cuts as f64 / cuts.len().max(1) as f64);
    report.metric("police.control_msgs", series.control_traffic.values.iter().sum());
    let police = &sim.defense().0;
    let (verdicts, snapshots) = police.state_footprint();
    report.metric("police.state_entries", (verdicts + snapshots) as f64);
    if let Some(m) = police.sketch_monitor() {
        report.metric("sketch.state_bytes", m.state_bytes() as f64);
        report.metric("sketch.items_max", police.sketch_stats().max_items_run as f64);
    }
}

/// What distinguishes one simulator workload from the other.
trait Scenario {
    const LABEL: &'static str;
    /// Name of the check that the first timed repetition's final state hash
    /// equals the warm-up's.
    const WARM_UP_CHECK: &'static str;
    fn params(&self) -> SimParams;
    fn police(&self) -> DdPolice;
    fn build<D: Defense>(&self, seed: u64, police: D) -> Simulation<D>;
    /// The untimed warm-up repetition and its own output checks. Returns
    /// its final state hash.
    fn warm_up(&self, report: &mut Report, seed: u64) -> u64;
    /// Numbers a traced repetition adds once its tracer has stopped.
    fn traced_extras(
        &self,
        _report: &mut Report,
        _seed: u64,
        _sim: &Simulation<Traced<DdPolice>>,
        _lr: &LoopRun,
    ) {
    }
}

/// Build with timing: the `setup_s` sample, plus, when tracing, the
/// `sim.new` span and a `topology.generate` span around a separate run of
/// the generator `Simulation::new` calls inside.
fn build<S: Scenario, D: Defense>(s: &S, seed: u64, police: D) -> (Simulation<D>, f64) {
    let edges = trace::active().then(|| {
        let peers = s.params().peers;
        trace::span("topology.generate", || {
            ba_topology(peers).generate(&mut topology_rng(seed)).edge_count()
        })
    });
    let t0 = Instant::now();
    let sim = trace::span("sim.new", || s.build(seed, police));
    let setup_s = t0.elapsed().as_secs_f64();
    if let Some(edges) = edges {
        assert_eq!(
            edges,
            sim.overlay().edge_count(),
            "the timed generator must replay the simulation's topology stream"
        );
    }
    (sim, setup_s)
}

/// Drive one simulator workload through its repetitions.
fn run<S: Scenario>(
    s: &S,
    seed: u64,
    seconds: f64,
    traced: bool,
    alloc: Option<&'static CountingAlloc>,
) -> Report {
    let mut report = Report::default();
    let p = s.params();
    let (mut setups, mut rates, mut allocs) = (vec![], vec![], vec![]);
    let mut warm_up_hash = 0u64;
    // The first timed repetition's state hash, per-tick series and cut log.
    let mut first: Option<(u64, RunSeries, Vec<CutRecord>)> = None;
    let mut reps = 0;
    let (untraced, traced_walls) = repeat(seconds, traced, |kind| {
        reps += 1;
        match kind {
            Rep::WarmUp => {
                warm_up_hash = s.warm_up(&mut report, seed);
                0.0
            }
            Rep::Traced => {
                trace::start();
                let (mut sim, _) = build(s, seed, Traced(s.police()));
                let lr = step_loop(&mut sim, p, None);
                let tr = trace::stop();
                let h = outcome(&mut report, &format!("{} traced", S::LABEL), &sim);
                let want = first.as_ref().map_or(0, |f| f.0);
                report.check(
                    "trace.state_hash_transparent",
                    h == want,
                    format!("traced {h:016x}, untraced {want:016x}"),
                );
                layer_metrics(&mut report, &tr, &sim);
                s.traced_extras(&mut report, seed, &sim, &lr);
                report.spans = Some(tr);
                lr.wall_s
            }
            Rep::Untraced => {
                let (mut sim, setup) = build(s, seed, s.police());
                setups.push(setup);
                let lr = step_loop(&mut sim, p, alloc);
                match &first {
                    // The full state hash costs a large share of a
                    // repetition at 100k peers; the per-tick series and the
                    // cut log are cheap and diverge as soon as the state does.
                    Some((_, series, cuts)) => report.check(
                        "sim.repetition_reproduces_first_outcome",
                        (sim.series(), sim.cut_log()) == (series, &cuts[..]),
                        "per-tick series and cut log",
                    ),
                    None => {
                        let h = outcome(&mut report, S::LABEL, &sim);
                        report.check(
                            S::WARM_UP_CHECK,
                            h == warm_up_hash,
                            format!("timed {h:016x}, warm-up {warm_up_hash:016x}"),
                        );
                        first = Some((h, sim.series().clone(), sim.cut_log().to_vec()));
                    }
                }
                rates.push(p.ticks as f64 / lr.wall_s);
                allocs.push(lr.allocs as f64 / p.ticks as f64);
                lr.wall_s
            }
        }
    });
    report.median_metric("setup_s", setups);
    report.median_metric("ticks_per_s", rates);
    report.median_metric("sim.step_allocs", allocs);
    if traced {
        trace_summary(&mut report, &untraced, &traced_walls);
    }
    report.outcome(format!("{} repetitions={reps} seed={seed}", S::LABEL));
    report
}

/// `attack-100k`: flood plus judgment; the warm-up runs at width 2, so the
/// timed width-1 repetitions check its final state hash.
struct Attack {
    p: SimParams,
    plant: Option<Plant>,
}

impl Scenario for Attack {
    const LABEL: &'static str = "attack-100k";
    const WARM_UP_CHECK: &'static str = "attack.width2_state_hash_equals_width1";

    fn params(&self) -> SimParams {
        self.p
    }

    fn police(&self) -> DdPolice {
        DdPolice::new(DdPoliceConfig::default(), self.p.peers)
    }

    fn build<D: Defense>(&self, seed: u64, police: D) -> Simulation<D> {
        let cfg = SimConfig { topology: ba_topology(self.p.peers), ..SimConfig::default() };
        let mut sim = Simulation::new(cfg, police, seed);
        AttackPlan::new(self.p.agents)
            .apply(&mut sim, &mut StdRng::seed_from_u64(seed ^ AGENT_SALT));
        sim
    }

    fn warm_up(&self, report: &mut Report, seed: u64) -> u64 {
        let mut sim = self.build(seed, self.police());
        sim.set_threads(2);
        if self.plant == Some(Plant::UnorderedReduction) {
            sim.defense_mut().set_unordered_reduction(true);
        }
        let lr = step_loop(&mut sim, self.p, None);
        report.metric("sim.w2_ticks_per_s", self.p.ticks as f64 / lr.wall_s);
        outcome(report, "attack-100k width 2", &sim)
    }
}

/// `attack-100k`: flood plus judgment at widths 1 and 2 on the same seed.
pub fn attack(
    p: SimParams,
    seed: u64,
    seconds: f64,
    traced: bool,
    plant: Option<Plant>,
    alloc: Option<&'static CountingAlloc>,
) -> Report {
    run(&Attack { p, plant }, seed, seconds, traced, alloc)
}

/// `churn-sketch-20k`: session churn with whitewashing agents under the
/// sketch monitor; the warm-up also checks a snapshot round trip.
struct Churn {
    p: SimParams,
    plant: Option<Plant>,
}

impl Churn {
    /// Save the finished run, restore it into a freshly built simulation
    /// and check the restored state: identical hash, consistent overlay.
    /// Returns the restore time and the snapshot size.
    fn check_restore<D: Defense>(
        &self,
        report: &mut Report,
        seed: u64,
        sim: &Simulation<D>,
        fresh: D,
    ) -> (f64, usize) {
        let mut bytes = sim.save_snapshot().expect("DD-POLICE supports snapshots");
        if self.plant == Some(Plant::SnapshotBitFlip) {
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x10;
        }
        let want = sim.state_hash();
        let mut restored = self.build(seed, fresh);
        let t0 = Instant::now();
        let result = restored.restore_snapshot(&bytes);
        let restore_s = t0.elapsed().as_secs_f64();
        match result {
            Ok(()) => {
                let got = restored.state_hash();
                report.check(
                    "churn.restored_state_hash_equals_saved",
                    got == want,
                    format!("saved {want:016x}, restored {got:016x}"),
                );
                let inv = restored.overlay().check_invariants();
                report.check(
                    "churn.restored_overlay_invariants",
                    inv.is_ok(),
                    inv.err().unwrap_or_else(|| "hold".to_string()),
                );
            }
            Err(e) => report.check("churn.restored_state_hash_equals_saved", false, e.to_string()),
        }
        (restore_s, bytes.len())
    }
}

impl Scenario for Churn {
    const LABEL: &'static str = "churn-sketch-20k";
    const WARM_UP_CHECK: &'static str = "sim.repetition_reproduces_warm_up";

    fn params(&self) -> SimParams {
        self.p
    }

    fn police(&self) -> DdPolice {
        let cfg = DdPoliceConfig {
            monitor: MonitorBackend::Sketch(SketchParams::default()),
            suspect_ttl_ticks: SUSPECT_TTL_TICKS,
            ..DdPoliceConfig::default()
        };
        DdPolice::new(cfg, self.p.peers)
    }

    fn build<D: Defense>(&self, seed: u64, police: D) -> Simulation<D> {
        let cfg = SimConfig {
            topology: ba_topology(self.p.peers),
            churn: false,
            session: Some(SessionConfig::steady_state(self.p.peers, MEAN_SESSION_TICKS)),
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(cfg, police, seed);
        WhitewashPlan::new(self.p.agents, WHITEWASH_DWELL_TICKS)
            .apply(&mut sim, &mut StdRng::seed_from_u64(seed ^ AGENT_SALT));
        sim
    }

    fn warm_up(&self, report: &mut Report, seed: u64) -> u64 {
        let mut sim = self.build(seed, self.police());
        step_loop(&mut sim, self.p, None);
        self.check_restore(report, seed, &sim, self.police());
        let stats = sim.session_stats();
        report.outcome(format!(
            "churn-sketch-20k joins={} leaves={} crashes={} rebirths={}",
            stats.joins,
            stats.leaves,
            stats.crashes,
            sim.whitewash_log().len()
        ));
        sim.state_hash()
    }

    fn traced_extras(
        &self,
        report: &mut Report,
        seed: u64,
        sim: &Simulation<Traced<DdPolice>>,
        lr: &LoopRun,
    ) {
        report.metric("snapshot.save_s", median(&lr.saves));
        let (restore_s, bytes) = self.check_restore(report, seed, sim, Traced(self.police()));
        report.metric("snapshot.restore_s", restore_s);
        report.metric("snapshot.bytes", bytes as f64);
    }
}

/// `churn-sketch-20k`: session churn with whitewashing agents under the
/// sketch monitor, snapshotting inside the timed loop.
pub fn churn(
    p: SimParams,
    seed: u64,
    seconds: f64,
    traced: bool,
    plant: Option<Plant>,
    alloc: Option<&'static CountingAlloc>,
) -> Report {
    run(&Churn { p, plant }, seed, seconds, traced, alloc)
}
