//! The benchmark's output checks have teeth: each planted fault is reported
//! as a failed check, unmodified code passes every check, the traced mirror
//! measures the same program, and `BENCHMARK.json` names exactly the
//! metrics the binary prints. Small shapes of the real workloads keep this
//! fast; `cargo test --release` runs it in seconds.

use ddp_perfbench::report::{Report, END_TO_END, PER_LAYER};
use ddp_perfbench::sim::{self, Plant, SimParams};
use ddp_perfbench::trace;
use ddp_perfbench::wire::{self, Mirror, WireParams};
use ddp_servent::{Harness, ServentRole};

const ATTACK: SimParams = SimParams { peers: 3_000, agents: 150, ticks: 3, snapshot_every: 0 };
const CHURN: SimParams = SimParams { peers: 2_000, agents: 100, ticks: 4, snapshot_every: 2 };
const WIRE: WireParams = WireParams { servents: 16, minutes: 3, rate_qpm: 1_500 };
/// Short enough that a run makes only its minimum repetitions.
const SECONDS: f64 = 0.01;

fn failed(report: &Report) -> Vec<&str> {
    report.checks.iter().filter(|c| !c.passed).map(|c| c.name.as_str()).collect()
}

fn assert_clean(report: &Report) {
    assert!(report.attempted() > 0, "no check ran");
    assert_eq!(failed(report), Vec::<&str>::new(), "unmodified code must pass every check");
}

#[test]
fn unmodified_workloads_pass_every_check_traced_and_untraced() {
    for traced in [false, true] {
        assert_clean(&sim::attack(ATTACK, 3, SECONDS, traced, None, None));
        assert_clean(&sim::churn(CHURN, 3, SECONDS, traced, None, None));
        assert_clean(&wire::flood(WIRE, 3, SECONDS, traced, None));
    }
}

#[test]
fn traced_runs_check_transparency() {
    let attack = sim::attack(ATTACK, 5, SECONDS, true, None, None);
    let churn = sim::churn(CHURN, 5, SECONDS, true, None, None);
    let wire = wire::flood(WIRE, 5, SECONDS, true, None);
    for (report, name) in [
        (&attack, "trace.state_hash_transparent"),
        (&churn, "trace.state_hash_transparent"),
        (&wire, "wire.mirror_report_equals_harness"),
    ] {
        assert!(report.checks.iter().any(|c| c.name == name && c.passed), "{name} missing");
    }
    assert!(attack.value("police.on_tick_s").unwrap() > 0.0);
    assert!(wire.value("servent.handle_frame.calls").unwrap() > 0.0);
}

#[test]
fn unordered_reduction_at_width_2_is_reported() {
    let report = sim::attack(ATTACK, 3, SECONDS, false, Some(Plant::UnorderedReduction), None);
    assert_eq!(failed(&report), vec!["attack.width2_state_hash_equals_width1"]);
}

#[test]
fn bit_flipped_snapshot_is_reported() {
    let report = sim::churn(CHURN, 3, SECONDS, false, Some(Plant::SnapshotBitFlip), None);
    assert_eq!(failed(&report), vec!["churn.restored_state_hash_equals_saved"]);
}

#[test]
fn police_that_never_cuts_is_reported() {
    let report = wire::flood(WIRE, 3, SECONDS, false, Some(Plant::LenientPolice));
    assert_eq!(failed(&report), vec!["wire.agent_isolated_by_every_neighbor"]);
}

#[test]
fn mirror_gives_the_harness_report() {
    for seed in [1, 2] {
        let graph = wire::graph(WIRE, seed);
        let agent = wire::pick_agent(&graph);
        let role = ServentRole::FloodingAgent { rate_qpm: WIRE.rate_qpm, respond_reports: true };
        let attackers = [(agent, role)];
        let mut harness = Harness::new(&graph, &attackers, wire::harness_config(None), seed);
        harness.run_minutes(WIRE.minutes);
        let want = harness.report();
        assert!(!want.cuts.is_empty(), "the workload must exercise the defense");
        for traced in [false, true] {
            if traced {
                trace::start();
            }
            let mut mirror = Mirror::new(&graph, &attackers, wire::harness_config(None), seed);
            mirror.run_minutes(WIRE.minutes);
            if traced {
                trace::stop();
            }
            assert_eq!(mirror.report(), want, "seed {seed}, traced {traced}");
        }
    }
}

/// The `name`/`unit` pairs of one metric list of `BENCHMARK.json`, in order.
fn listed(doc: &str, key: &str) -> Vec<(String, String)> {
    let start = doc.find(&format!("\"{key}\"")).unwrap_or_else(|| panic!("no {key} list"));
    let body = &doc[start..doc[start..].find(']').map(|e| start + e).expect("list closes")];
    let field = |obj: &str, f: &str| -> String {
        let at = obj.find(&format!("\"{f}\"")).unwrap_or_else(|| panic!("no {f} in {obj}"));
        obj[at + f.len() + 2..].split('"').nth(1).expect("string value").to_string()
    };
    body.split('{').skip(1).map(|obj| (field(obj, "name"), field(obj, "unit"))).collect()
}

#[test]
fn benchmark_json_names_exactly_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for (key, set) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let want: Vec<(String, String)> =
            set.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect();
        assert_eq!(listed(&doc, key), want, "{key}");
    }
}
