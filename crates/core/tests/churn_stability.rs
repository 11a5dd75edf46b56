//! Churn hardening: defense state about departed identities must not leak.
//!
//! Before this PR, a peer that left or crashed kept living on inside every
//! former neighbor's defense state — exchanged-list snapshots, missing-list
//! grace streaks, and quarantine/probation clocks all survived the identity
//! they described, and a recycled slot inherited a stranger's record. These
//! tests pin the two reclamation paths (graceful `on_peer_departed`, TTL
//! sweep for crashes) and the end-to-end bounded-memory property.

use ddp_police::{DdPolice, DdPoliceConfig, ReadmissionPolicy, SuspectState};
use ddp_sim::{
    Actions, Defense, ListBehavior, Overlay, ReportBehavior, SessionConfig, SimConfig, Simulation,
    TickObservation,
};
use ddp_topology::{DynamicGraph, NodeId, TopologyConfig, TopologyModel};
use ddp_workload::BandwidthClass;

/// A 4-peer line-plus-spur overlay: 0–1, 0–2, 1–3. Peer 0 plays the suspect.
fn small_overlay() -> Overlay {
    let mut g = DynamicGraph::new(4);
    g.add_edge(NodeId(0), NodeId(1));
    g.add_edge(NodeId(0), NodeId(2));
    g.add_edge(NodeId(1), NodeId(3));
    Overlay::new(g, &[BandwidthClass::Ethernet; 4])
}

fn churn_cfg() -> DdPoliceConfig {
    DdPoliceConfig {
        readmission: ReadmissionPolicy { enabled: true, ..ReadmissionPolicy::default() },
        suspect_ttl_ticks: 4,
        ..DdPoliceConfig::default()
    }
}

const HONEST: &[ReportBehavior] = &[ReportBehavior::Honest; 4];
const TRUTHFUL: &[ListBehavior] = &[ListBehavior::Truthful; 4];
const RUNS: &[bool] = &[true; 4];

fn obs<'a>(overlay: &'a Overlay, tick: u32, online: &'a [bool]) -> TickObservation<'a> {
    TickObservation {
        tick,
        overlay,
        online,
        runs_defense: RUNS,
        report_behavior: HONEST,
        list_behavior: TRUTHFUL,
        faults: None,
    }
}

/// Flood hard enough from peer 0 into peer 1 that observer 1 quarantines 0
/// on the first judged tick, then return the armed police instance.
fn quarantine_suspect_zero(overlay: &mut Overlay, online: &[bool]) -> DdPolice {
    let slot = overlay
        .neighbors(NodeId(0))
        .iter()
        .position(|h| h.peer == NodeId(1))
        .expect("0–1 edge exists");
    overlay.record_accept(NodeId(0), slot, 20_000);
    let mut police = DdPolice::new(churn_cfg(), 4);
    let mut actions = Actions::default();
    police.on_tick(&obs(overlay, 1, online), &mut actions);
    assert_eq!(actions.cuts, vec![(NodeId(1), NodeId(0))], "observer 1 cuts the flooder");
    let entry = police.verdicts().entry(NodeId(1), NodeId(0)).expect("verdict entry exists");
    assert!(
        matches!(entry.state, SuspectState::Quarantined { .. }),
        "readmission keeps the cut as a quarantine"
    );
    police
}

#[test]
fn graceful_departure_sweeps_all_state_about_the_identity() {
    let mut overlay = small_overlay();
    let online = vec![true; 4];
    let mut police = quarantine_suspect_zero(&mut overlay, &online);

    let (verdicts, snapshots) = police.state_footprint();
    assert!(verdicts >= 1);
    assert_eq!(snapshots, 6, "three edges announce in both directions");
    assert!(police.forbids_link(NodeId(1), NodeId(0)), "open quarantine vetoes re-linking");

    police.on_peer_departed(NodeId(0));

    assert_eq!(police.state_footprint().0, 0, "no verdict survives the departed suspect");
    // Peer 0's own view (snapshots of 1 and 2) and both snapshots *of* peer 0
    // are gone; only the 1↔3 pair may remain.
    assert_eq!(police.state_footprint().1, 2);
    assert!(
        !police.forbids_link(NodeId(1), NodeId(0)),
        "a recycled slot must not inherit its predecessor's quarantine"
    );
}

#[test]
fn crashed_suspects_clocked_state_expires_instead_of_probing_a_dead_slot() {
    let mut overlay = small_overlay();
    let online = vec![true; 4];
    let mut police = quarantine_suspect_zero(&mut overlay, &online);
    let SuspectState::Quarantined { until, .. } =
        police.verdicts().entry(NodeId(1), NodeId(0)).unwrap().state
    else {
        unreachable!()
    };
    assert_eq!(until, 5, "cut at tick 1 + default base backoff 4");

    // Peer 0 crashes: no goodbye ran, its entry waits on the sweep. The
    // quarantine clock is honored while pending, then collected when due —
    // the readmission probe must never fire toward the dead address.
    let mut offline = online.clone();
    offline[0] = false;
    overlay.reset_tick_counters();
    for tick in 2..=4 {
        let mut actions = Actions::default();
        police.on_tick(&obs(&overlay, tick, &offline), &mut actions);
        assert!(actions.reconnects.is_empty());
        assert_eq!(police.state_footprint().0, 1, "clock not due at tick {tick}");
    }
    let mut actions = Actions::default();
    police.on_tick(&obs(&overlay, 5, &offline), &mut actions);
    assert!(actions.reconnects.is_empty(), "probe collected, not fired into the dead slot");
    assert_eq!(police.state_footprint().0, 0, "due clock about an offline suspect is swept");
}

#[test]
fn ttl_disabled_preserves_the_static_membership_behavior() {
    // With the default `suspect_ttl_ticks = u32::MAX` the sweep never runs:
    // a quarantine about an offline suspect survives to fire its probe —
    // exactly the pre-PR (paper, static membership) lifecycle.
    let mut overlay = small_overlay();
    let online = vec![true; 4];
    let slot = overlay.neighbors(NodeId(0)).iter().position(|h| h.peer == NodeId(1)).unwrap();
    overlay.record_accept(NodeId(0), slot, 20_000);
    let cfg = DdPoliceConfig {
        readmission: ReadmissionPolicy { enabled: true, ..ReadmissionPolicy::default() },
        ..DdPoliceConfig::default()
    };
    let mut police = DdPolice::new(cfg, 4);
    let mut actions = Actions::default();
    police.on_tick(&obs(&overlay, 1, &online), &mut actions);
    let mut offline = online.clone();
    offline[0] = false;
    overlay.reset_tick_counters();
    for tick in 2..=5 {
        let mut actions = Actions::default();
        police.on_tick(&obs(&overlay, tick, &offline), &mut actions);
        if tick == 5 {
            assert_eq!(actions.reconnects, vec![(NodeId(1), NodeId(0))], "legacy probe fires");
        }
    }
}

/// `(verdict entries, list snapshots)` held by or about one identity.
type Footprint = (usize, usize);

/// Defense state about `node` that a brute-force scan finds: verdict
/// entries held by or about it, and snapshots held by or of it.
fn footprint_about(police: &DdPolice, node: NodeId) -> Footprint {
    let verdicts = police.verdicts();
    let entries = (0..verdicts.slot_count())
        .map(|o| {
            let held = verdicts.entries_of(NodeId::from_index(o));
            if o == node.index() {
                held.len()
            } else {
                held.iter().filter(|&&(s, _)| s == node.0).count()
            }
        })
        .sum();
    let snapshots = police
        .exchange()
        .all_snapshots()
        .iter()
        .filter(|&&(i, j, _)| i == node.0 || j == node.0)
        .count();
    (entries, snapshots)
}

#[test]
fn departure_purges_quarantines_held_by_former_neighbors() {
    // Peer 0 floods both neighbors 1 and 2; both cut and quarantine it. The
    // cuts remove both edges, so by the time 0 departs no adjacency leads
    // back to the observers still holding its quarantine clock.
    let mut overlay = small_overlay();
    let online = vec![true; 4];
    for victim in [NodeId(1), NodeId(2)] {
        let slot = overlay.neighbors(NodeId(0)).iter().position(|h| h.peer == victim).unwrap();
        overlay.record_accept(NodeId(0), slot, 20_000);
    }
    let mut police = DdPolice::new(churn_cfg(), 4);
    let mut actions = Actions::default();
    police.on_tick(&obs(&overlay, 1, &online), &mut actions);
    assert_eq!(actions.cuts.len(), 2, "both neighbors cut the flooder");
    for &(observer, suspect) in &actions.cuts {
        overlay.remove_edge(observer, suspect);
        police.on_edge_removed(
            observer,
            suspect,
            overlay.degree(observer),
            overlay.degree(suspect),
        );
    }
    assert_eq!(overlay.degree(NodeId(0)), 0, "peer 0 has no edges left");
    assert_eq!(footprint_about(&police, NodeId(0)).0, 2, "both quarantines outlive their edges");

    police.on_peer_departed(NodeId(0));

    assert_eq!(footprint_about(&police, NodeId(0)), (0, 0));
    police.verdicts().check_holder_index().unwrap();
    police.exchange().check_holder_index().unwrap();
}

/// [`DdPolice`] plus, for every `on_peer_departed` call, what a brute-force
/// scan found about the identity before and after the purge.
struct PurgeRecorder {
    inner: DdPolice,
    /// `(identity, footprint before, footprint after)` per purge.
    purges: Vec<(NodeId, Footprint, Footprint)>,
}

impl Defense for PurgeRecorder {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn on_tick(&mut self, obs: &TickObservation<'_>, actions: &mut Actions) {
        self.inner.on_tick(obs, actions)
    }
    fn set_parallelism(&mut self, threads: usize) {
        self.inner.set_parallelism(threads)
    }
    fn on_peer_reset(&mut self, node: NodeId) {
        self.inner.on_peer_reset(node)
    }
    fn on_edge_added(&mut self, u: NodeId, v: NodeId, deg_u: usize, deg_v: usize) {
        self.inner.on_edge_added(u, v, deg_u, deg_v)
    }
    fn on_edge_removed(&mut self, u: NodeId, v: NodeId, deg_u: usize, deg_v: usize) {
        self.inner.on_edge_removed(u, v, deg_u, deg_v)
    }
    fn on_peer_departed(&mut self, node: NodeId) {
        let before = footprint_about(&self.inner, node);
        self.inner.on_peer_departed(node);
        self.purges.push((node, before, footprint_about(&self.inner, node)));
    }
    fn on_nodes_grown(&mut self, n: usize) {
        self.inner.on_nodes_grown(n)
    }
    fn forbids_link(&self, u: NodeId, v: NodeId) -> bool {
        self.inner.forbids_link(u, v)
    }
}

#[test]
fn recycling_a_crashed_slot_purges_what_its_former_neighbors_held() {
    // Every departure is a crash: the peer's edges are removed but no
    // goodbye runs. The only purge is the one `session_arrivals` runs when
    // it hands the slot to a newcomer, and by then the crashed identity has
    // no live edges. The agents under-report what they sent (§3.4 Case 2),
    // so good forwarders next to them get cut; readmission keeps those cuts
    // as quarantines, and with the TTL sweep off they survive the crash of
    // the forwarder until that purge.
    let mut session = SessionConfig::steady_state(150, 6.0);
    session.crash_fraction = 1.0;
    let cfg = SimConfig {
        topology: TopologyConfig { n: 150, model: TopologyModel::BarabasiAlbert { m: 3 } },
        churn: false,
        session: Some(session),
        ..SimConfig::default()
    };
    let police_cfg = DdPoliceConfig {
        readmission: ReadmissionPolicy {
            enabled: true,
            base_backoff_ticks: 64,
            ..ReadmissionPolicy::default()
        },
        ..DdPoliceConfig::default()
    };
    let recorder = PurgeRecorder { inner: DdPolice::new(police_cfg, 150), purges: Vec::new() };
    let mut sim = Simulation::new(cfg, recorder, 42);
    for a in [5u32, 25, 50, 75, 100, 125] {
        sim.make_attacker(NodeId(a), ReportBehavior::Deflate(0.0));
    }
    for _ in 0..30 {
        sim.step();
    }
    let stats = sim.session_stats();
    assert_eq!(stats.leaves, 0, "every departure crashed");
    let purges = &sim.defense().purges;
    assert!(purges.len() > 20, "slots were recycled: {}", purges.len());
    assert!(
        purges.iter().any(|&(_, before, _)| before.0 > 0),
        "some recycled identity was still quarantined by a former neighbor"
    );
    for &(node, before, after) in purges {
        assert_eq!(after, (0, 0), "slot {node:?} kept state about its last occupant: {before:?}");
    }
}

/// The end-to-end bounded-memory regression: a long run under the session
/// model (heavy join/leave/crash traffic, slots recycled and grown) must not
/// accumulate defense state. The footprint at the end stays within a small
/// factor of the mid-run footprint and within fixed per-slot budgets.
#[test]
fn long_churn_run_keeps_defense_state_bounded() {
    let cfg = SimConfig {
        topology: TopologyConfig { n: 150, model: TopologyModel::BarabasiAlbert { m: 3 } },
        churn: false,
        session: Some(SessionConfig::steady_state(150, 6.0)),
        ..SimConfig::default()
    };
    let police_cfg = DdPoliceConfig {
        readmission: ReadmissionPolicy { enabled: true, ..ReadmissionPolicy::default() },
        suspect_ttl_ticks: 8,
        ..DdPoliceConfig::default()
    };
    let mut sim = Simulation::new(cfg, DdPolice::new(police_cfg, 150), 42);
    for a in [5u32, 50, 100] {
        sim.make_attacker(NodeId(a), ReportBehavior::Honest);
    }

    for _ in 0..40 {
        sim.step();
    }
    let (mid_verdicts, mid_snapshots) = sim.defense().state_footprint();
    for _ in 0..40 {
        sim.step();
    }
    let (fin_verdicts, fin_snapshots) = sim.defense().state_footprint();

    let stats = sim.session_stats();
    assert!(stats.joins > 50 && stats.leaves + stats.crashes > 50, "churn actually happened");

    // Verdict entries track *live* suspicion only: a handful of attackers
    // plus transient watches — nowhere near one per identity ever seen.
    let slots = sim.node_count();
    assert!(
        fin_verdicts <= slots / 4 + 8,
        "verdict state leaked: {fin_verdicts} entries over {slots} slots"
    );
    assert!(
        fin_verdicts <= 2 * mid_verdicts + 16,
        "verdict state grew between samples: {mid_verdicts} -> {fin_verdicts}"
    );
    // Snapshots are bounded by live directed edges (mean degree ~6), not by
    // the total number of identities that ever churned through.
    assert!(
        fin_snapshots <= 10 * slots,
        "snapshot state leaked: {fin_snapshots} snapshots over {slots} slots"
    );
    assert!(
        fin_snapshots <= 2 * mid_snapshots + 64,
        "snapshot state grew between samples: {mid_snapshots} -> {fin_snapshots}"
    );
}
