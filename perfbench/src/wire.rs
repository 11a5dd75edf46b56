//! The servent workload, `wire-flood-60`: protocol servents over the
//! in-memory network, one flooding agent, several protocol minutes.
//!
//! The untraced run drives `ddp_servent::Harness` itself. The traced run
//! runs [`Mirror`], which repeats `Harness::new` and `Harness::step_second`
//! call for call through the public `Servent` and `InMemNetwork` methods and
//! records a span around each. The two give identical reports (checked in
//! every traced run and by the parity test), so the traced mirror measures
//! the same program.

use crate::report::{repeat, trace_summary, Rep, Report};
use crate::sim::Plant;
use crate::trace::{self, Tracer};
use bytes::Bytes;
use ddp_protocol::decode_message;
use ddp_servent::servent::Outbox;
use ddp_servent::{
    Harness, HarnessConfig, HarnessReport, InMemNetwork, Servent, ServentConfig, ServentRole,
};
use ddp_topology::{DynamicGraph, NodeId, TopologyConfig, TopologyModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// Shape of the servent workload.
#[derive(Debug, Clone, Copy)]
pub struct WireParams {
    pub servents: usize,
    /// Protocol minutes per repetition.
    pub minutes: u64,
    /// The agent's flood rate per neighbor, queries per minute.
    pub rate_qpm: u32,
}

impl WireParams {
    /// `wire-flood-60`: 60 servents, 4 minutes, the `testbed` runner's
    /// 1500-qpm agent.
    pub const FLOOD_60: WireParams = WireParams { servents: 60, minutes: 4, rate_qpm: 1_500 };
}

/// BA attachment parameter of the servent overlay.
const BA_M: usize = 3;
/// Harness constructions timed in each timed repetition, the last of which
/// runs: one takes well under a millisecond, so `setup_s` is a median over
/// many, spread over the whole run like the repetitions.
const SETUP_SAMPLES: usize = 25;
/// Every how many delivered frames the mirror keeps one for the
/// decode measurement, and how many it keeps at most.
const DECODE_SAMPLE_EVERY: u64 = 64;
const DECODE_SAMPLE_MAX: usize = 20_000;

/// The `testbed` runner's harness constants.
pub fn harness_config(plant: Option<Plant>) -> HarnessConfig {
    let mut servent = ServentConfig::default();
    if plant == Some(Plant::LenientPolice) {
        servent.police.cut_threshold = f64::INFINITY;
    }
    HarnessConfig {
        servent,
        catalog: (0..50).map(|i| format!("item-{i:03}")).collect(),
        items_per_peer: 8,
        query_rate_qpm: 2.0,
        ..HarnessConfig::default()
    }
}

/// The workload's overlay: BA(m=3) drawn from the seed.
pub fn graph(p: WireParams, seed: u64) -> DynamicGraph {
    TopologyConfig { n: p.servents, model: TopologyModel::BarabasiAlbert { m: BA_M } }
        .generate(&mut StdRng::seed_from_u64(seed))
}

/// The agent: the highest-numbered peer with exactly `m` links, so the
/// flood (rate × degree) is the same size on every seed.
pub fn pick_agent(graph: &DynamicGraph) -> NodeId {
    (0..graph.node_count())
        .rev()
        .map(NodeId::from_index)
        .find(|&v| graph.degree(v) == BA_M)
        .or_else(|| {
            (0..graph.node_count()).map(NodeId::from_index).min_by_key(|&v| graph.degree(v))
        })
        .expect("the overlay has peers")
}

fn agent_role(p: WireParams) -> ServentRole {
    ServentRole::FloodingAgent { rate_qpm: p.rate_qpm, respond_reports: true }
}

/// `Harness`, mirrored call for call with a span around each
/// layer call.
pub struct Mirror {
    pub servents: Vec<Servent>,
    pub network: InMemNetwork,
    cfg: HarnessConfig,
    rng: StdRng,
    now: u64,
    issued: usize,
    /// Whether the watched peer has lost every link yet (splits the
    /// per-second cost before and after the cut).
    watched: Option<NodeId>,
    delivered: u64,
    /// Every `DECODE_SAMPLE_EVERY`-th delivered frame, for the decode cost.
    pub sample: Vec<Bytes>,
}

impl Mirror {
    /// `Harness::new`, step for step.
    pub fn new(
        graph: &DynamicGraph,
        attackers: &[(NodeId, ServentRole)],
        cfg: HarnessConfig,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut servents: Vec<Servent> = (0..graph.node_count())
            .map(|i| {
                let id = NodeId::from_index(i);
                let role = attackers
                    .iter()
                    .find(|(a, _)| *a == id)
                    .map(|&(_, r)| r)
                    .unwrap_or(ServentRole::Good);
                let mut sc = cfg.servent.clone();
                if matches!(role, ServentRole::Good) && !cfg.catalog.is_empty() {
                    sc.library = (0..cfg.items_per_peer)
                        .map(|_| cfg.catalog[rng.gen_range(0..cfg.catalog.len())].clone())
                        .collect();
                }
                Servent::new(id, role, sc)
            })
            .collect();
        for (u, servent) in servents.iter_mut().enumerate() {
            for h in graph.neighbors(NodeId::from_index(u)) {
                servent.connect(h.peer);
            }
        }
        let network = match cfg.network_capacity {
            Some(cap) => InMemNetwork::bounded(cfg.latency_secs, cap),
            None => InMemNetwork::new(cfg.latency_secs),
        };
        let mut m = Mirror {
            servents,
            network,
            cfg,
            rng,
            now: 0,
            issued: 0,
            watched: attackers.first().map(|&(a, _)| a),
            delivered: 0,
            sample: Vec::new(),
        };
        for i in 0..m.servents.len() {
            let mut outbox = Outbox::new();
            trace::leaf("servent.on_minute", || m.servents[i].on_minute(0, 0, &mut outbox));
            m.flush(NodeId::from_index(i), outbox);
        }
        m
    }

    fn flush(&mut self, from: NodeId, outbox: Outbox) {
        if outbox.is_empty() {
            return;
        }
        let (net, now) = (&mut self.network, self.now);
        trace::leaf("network.send", || {
            for (to, frame) in outbox {
                net.send(now, from, to, frame);
            }
        });
    }

    fn watched_is_cut(&self) -> bool {
        self.watched.is_some_and(|a| self.servents[a.index()].neighbors().is_empty())
    }

    /// `Harness::step_second`, step for step.
    pub fn step_second(&mut self) {
        trace::span("servent.second", || self.second());
    }

    fn second(&mut self) {
        self.now += 1;
        let now = self.now;
        let due = trace::span("network.deliveries", || self.network.deliveries(now));
        for (from, to, frame) in due {
            self.delivered += 1;
            if self.delivered.is_multiple_of(DECODE_SAMPLE_EVERY)
                && self.sample.len() < DECODE_SAMPLE_MAX
            {
                self.sample.push(frame.clone());
            }
            let mut outbox = Outbox::new();
            if let Some(s) = self.servents.get_mut(to.index()) {
                let kind = frame.get(16).copied();
                if s.is_neighbor(from)
                    || matches!(kind, Some(0x02) | Some(0x83) | Some(0x00) | Some(0x01))
                {
                    trace::leaf("servent.handle_frame", || {
                        s.handle_frame(from, frame, now, &mut outbox)
                    });
                }
            }
            self.flush(to, outbox);
        }
        let per_second = self.cfg.query_rate_qpm / 60.0;
        for i in 0..self.servents.len() {
            if !matches!(self.servents[i].role(), ServentRole::Good) {
                continue;
            }
            if self.rng.gen::<f64>() < per_second {
                let target =
                    self.cfg.catalog[self.rng.gen_range(0..self.cfg.catalog.len())].clone();
                let mut outbox = Outbox::new();
                let s = &mut self.servents[i];
                trace::leaf("servent.issue_query", || s.issue_query(&target, now, &mut outbox));
                self.issued += 1;
                self.flush(NodeId::from_index(i), outbox);
            }
        }
        let on_second =
            if self.watched_is_cut() { "servent.on_second_post_cut" } else { "servent.on_second" };
        for i in 0..self.servents.len() {
            let mut outbox = Outbox::new();
            let s = &mut self.servents[i];
            trace::leaf(on_second, || s.on_second(now, &mut outbox));
            self.flush(NodeId::from_index(i), outbox);
        }
        if now.is_multiple_of(60) {
            let minute = now / 60;
            for i in 0..self.servents.len() {
                let mut outbox = Outbox::new();
                let s = &mut self.servents[i];
                trace::leaf("servent.on_minute", || s.on_minute(now, minute, &mut outbox));
                self.flush(NodeId::from_index(i), outbox);
            }
        }
    }

    /// `Harness::run_minutes`.
    pub fn run_minutes(&mut self, minutes: u64) {
        for _ in 0..minutes * 60 {
            self.step_second();
        }
    }

    /// `Harness::report`, field for field.
    pub fn report(&self) -> HarnessReport {
        let mut resolved = 0usize;
        let mut latency_sum = 0u64;
        let mut cuts = Vec::new();
        for s in &self.servents {
            resolved += s.hits.len();
            latency_sum += s.hits.iter().map(|&(_, l)| l).sum::<u64>();
            for &(t, suspect) in &s.cut_log {
                cuts.push((t, s.id, suspect));
            }
        }
        cuts.sort_unstable_by_key(|&(t, ..)| t);
        HarnessReport {
            issued: self.issued,
            resolved,
            mean_latency_secs: if resolved == 0 {
                0.0
            } else {
                latency_sum as f64 / resolved as f64
            },
            cuts,
            frames: self.network.frames_sent,
            bytes: self.network.bytes_sent,
            frames_dropped: self.network.frames_dropped,
        }
    }
}

/// Mean nanoseconds `decode_message` takes per frame over `sample` (best of
/// three passes), and how many frames failed to decode.
pub fn decode_cost(sample: &[Bytes]) -> (f64, usize) {
    let mut best = f64::INFINITY;
    let mut failures = 0;
    for _ in 0..3 {
        let mut bufs = sample.to_vec();
        failures = 0;
        let t0 = Instant::now();
        for b in &mut bufs {
            failures += usize::from(black_box(decode_message(b)).is_err());
        }
        best = best.min(t0.elapsed().as_nanos() as f64 / sample.len().max(1) as f64);
    }
    (best, failures)
}

/// Check that every one of the agent's initial neighbors cut it and it
/// ends with no links.
fn check_isolated(
    report: &mut Report,
    graph: &DynamicGraph,
    agent: NodeId,
    servents: &[Servent],
    cuts: &[(u64, NodeId, NodeId)],
) {
    let neighbors: Vec<NodeId> = graph.neighbors(agent).iter().map(|h| h.peer).collect();
    let cutters =
        neighbors.iter().filter(|&&n| cuts.iter().any(|&(_, o, s)| o == n && s == agent)).count();
    let links = servents[agent.index()].neighbors().len();
    report.check(
        "wire.agent_isolated_by_every_neighbor",
        cutters == neighbors.len() && links == 0,
        format!(
            "{cutters} of {} neighbors cut agent {}, {links} links left",
            neighbors.len(),
            agent.0
        ),
    );
}

fn outcome(report: &mut Report, label: &str, r: &HarnessReport, agent: NodeId) {
    let attacker_cuts = r.cuts.iter().filter(|&&(_, _, s)| s == agent).count();
    report.outcome(format!(
        "{label} agent={} issued={} resolved={} frames={} bytes={} cuts={} attacker_cuts={attacker_cuts} first_cut_s={}",
        agent.0,
        r.issued,
        r.resolved,
        r.frames,
        r.bytes,
        r.cuts.len(),
        r.cuts.first().map_or(0, |c| c.0),
    ));
}

/// Per-layer numbers of one traced repetition.
fn layer_metrics(report: &mut Report, tr: &Tracer, r: &HarnessReport, decode_ns: f64) {
    let secs = |name: &str| tr.tally(name).total_ns as f64 * 1e-9;
    report.metric("topology.generate_s", secs("topology.generate"));
    let frames = tr.tally("servent.handle_frame");
    report.metric("servent.handle_frame_s", frames.total_ns as f64 * 1e-9);
    report.metric("servent.handle_frame.calls", frames.calls as f64);
    report.metric(
        "servent.handle_frame_us_per_call",
        frames.total_ns as f64 * 1e-3 / frames.calls.max(1) as f64,
    );
    let post = tr.tally("servent.on_second_post_cut");
    report.metric("servent.on_second_s", secs("servent.on_second") + post.total_ns as f64 * 1e-9);
    report.metric(
        "servent.on_second_post_cut_us_per_call",
        post.total_ns as f64 * 1e-3 / post.calls.max(1) as f64,
    );
    report.metric("servent.on_minute_s", secs("servent.on_minute"));
    report.metric("servent.issue_query_s", secs("servent.issue_query"));
    report.metric("servent.resolved_share", r.resolved as f64 / r.issued.max(1) as f64);
    report.metric("network.deliveries_s", secs("network.deliveries"));
    report.metric("network.send_s", secs("network.send"));
    report.metric("network.frames", r.frames as f64);
    report.metric("network.bytes", r.bytes as f64);
    report.metric("network.frames_dropped", r.frames_dropped as f64);
    report.metric("protocol.decode_ns_per_frame", decode_ns);
}

/// `wire-flood-60`.
pub fn flood(p: WireParams, seed: u64, seconds: f64, traced: bool, plant: Option<Plant>) -> Report {
    let mut report = Report::default();
    let g = graph(p, seed);
    let agent = pick_agent(&g);
    let attackers = [(agent, agent_role(p))];
    let harness = || Harness::new(&graph(p, seed), &attackers, harness_config(plant), seed);
    let (mut setups, mut rates) = (vec![], vec![]);
    let mut first: Option<HarnessReport> = None;
    let mut reps = 0;
    let (untraced, traced_walls) = repeat(seconds, traced, |kind| {
        reps += 1;
        if kind == Rep::Traced {
            trace::start();
            let g = trace::span("topology.generate", || graph(p, seed));
            let mut m = trace::span("servent.new", || {
                Mirror::new(&g, &attackers, harness_config(plant), seed)
            });
            let t0 = Instant::now();
            m.run_minutes(p.minutes);
            let wall = t0.elapsed().as_secs_f64();
            let tr = trace::stop();
            let r = m.report();
            outcome(&mut report, "wire-flood-60 traced mirror", &r, agent);
            report.check(
                "wire.mirror_report_equals_harness",
                Some(&r) == first.as_ref(),
                "issued, resolved, latency, cuts, frames, bytes, drops",
            );
            let (decode_ns, failures) = decode_cost(&m.sample);
            report.check(
                "protocol.sampled_frames_decode",
                failures == 0 && !m.sample.is_empty(),
                format!("{failures} of {} sampled frames failed", m.sample.len()),
            );
            layer_metrics(&mut report, &tr, &r, decode_ns);
            report.spans = Some(tr);
            return wall;
        }
        let mut h = harness();
        if kind != Rep::WarmUp {
            for _ in 0..SETUP_SAMPLES {
                drop(h);
                let t0 = Instant::now();
                h = black_box(harness());
                setups.push(t0.elapsed().as_secs_f64());
            }
        }
        let t0 = Instant::now();
        h.run_minutes(p.minutes);
        let wall = t0.elapsed().as_secs_f64();
        let r = h.report();
        match &first {
            Some(first) => report.check(
                "wire.repetition_reproduces_first_report",
                &r == first,
                "issued, resolved, latency, cuts, frames, bytes, drops",
            ),
            None => {
                outcome(&mut report, "wire-flood-60", &r, agent);
                check_isolated(&mut report, &g, agent, &h.servents, &r.cuts);
                first = Some(r);
            }
        }
        if kind != Rep::WarmUp {
            rates.push((p.minutes * 60) as f64 / wall);
        }
        wall
    });
    report.median_metric("setup_s", setups);
    report.median_metric("ticks_per_s", rates);
    if traced {
        trace_summary(&mut report, &untraced, &traced_walls);
    }
    report.outcome(format!("wire-flood-60 repetitions={reps} seed={seed}"));
    report
}
