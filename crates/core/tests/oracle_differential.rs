//! Differential suite: the optimized [`DdPolice`](ddp_police::DdPolice)
//! engine against the naive paper transcription in `ddp-oracle`, feature by
//! feature.
//!
//! The scenario shapes live in [`ddp_oracle::scenario_matrix`] — one spec
//! per engine subsystem — and every harness (this oracle lockstep, the
//! serial-vs-parallel suite, the snapshot-restore sweep) consumes the same
//! list, so a scenario added there is covered by all of them. Each matrix
//! entry asserts full-state lockstep equivalence (judgment traces within
//! 1 ulp, verdict entries, exchange views, overlay edges, cut/verdict
//! ledgers, output series) after every tick. Every width runs the engine's
//! one judgment loop, so the fast-path scenarios also run sharded over two
//! workers against the serial oracle — an independent reference for the
//! sharded path, with its own planted reduction-order mutant. The final
//! tests are the harness's own mutation check: forcing the engine down its
//! fast path in a configuration the gate would refuse must produce a
//! divergence, and the shrinker must reduce it to a small replayable spec.

use ddp_oracle::{run_lockstep, run_lockstep_with, scenario_matrix, shrink, ScenarioSpec};

/// Assert a scenario runs clean, with a readable divergence on failure.
fn assert_clean(label: &str, spec: ScenarioSpec) {
    match run_lockstep(&spec, 1) {
        Ok(stats) => {
            assert_eq!(stats.ticks, spec.ticks, "{label}: truncated run");
        }
        Err(d) => panic!("{label}: engine diverged from oracle at {d}\nspec:\n{}", spec.to_json()),
    }
}

#[test]
fn full_matrix_runs_clean() {
    let matrix = scenario_matrix();
    assert!(matrix.len() >= 20, "matrix shrank to {} scenarios", matrix.len());
    for (label, spec) in matrix {
        assert_clean(label, spec);
    }
}

/// Whether the engine judges `spec` on its fast path (plain Sum, no clamp,
/// inert faults) rather than the slow path (clamping / robust aggregation /
/// fault dice).
fn is_fast_path(spec: &ScenarioSpec) -> bool {
    spec.aggregation == 0 && !spec.clamp_reports && spec.loss == 0.0
}

#[test]
fn matrix_covers_both_judgment_paths() {
    // The matrix must keep exercising both judgment paths, or the lockstep
    // sweep silently loses a subsystem.
    let matrix = scenario_matrix();
    let fast = matrix.iter().filter(|(_, s)| is_fast_path(s)).count();
    let slow = matrix.len() - fast;
    assert!(fast >= 5, "only {fast} fast-path scenarios");
    assert!(slow >= 5, "only {slow} slow-path scenarios");
}

#[test]
fn fast_path_matrix_matches_oracle_at_width_two() {
    for (label, spec) in scenario_matrix().into_iter().filter(|(_, s)| is_fast_path(s)) {
        match run_lockstep(&spec, 2) {
            Ok(stats) => assert_eq!(stats.ticks, spec.ticks, "{label}: truncated run"),
            Err(d) => panic!(
                "{label}: engine at width 2 diverged from oracle at {d}\nspec:\n{}",
                spec.to_json()
            ),
        }
    }
}

/// Busy enough that both partitions judge observers of the same suspects
/// every tick (the parallel-determinism suite's crafted spec).
fn busy_spec() -> ScenarioSpec {
    ScenarioSpec {
        peers: 120,
        agents: 6,
        readmission: true,
        hys_window: 2,
        hys_required: 2,
        ticks: 12,
        ..ScenarioSpec::default()
    }
}

#[test]
fn width_two_reference_catches_unordered_reduction() {
    // Teeth for the width-2 reference: a planted reversed partition merge
    // must diverge from the oracle, while the honest run stays clean.
    let spec = busy_spec();
    assert_clean("busy spec", spec.clone());
    run_lockstep(&spec, 2).unwrap_or_else(|d| panic!("honest width-2 busy spec diverged: {d}"));
    run_lockstep_with(&spec, 2, |p| p.set_unordered_reduction(true))
        .expect_err("reversed reduction at width 2 must diverge from the oracle");
}

#[test]
fn seeded_random_sweep() {
    for fuzz_seed in 0..25 {
        let spec = ScenarioSpec::random(fuzz_seed);
        if let Err(d) = run_lockstep(&spec, 1) {
            panic!("fuzz seed {fuzz_seed} diverged at {d}\nspec:\n{}", spec.to_json());
        }
    }
}

/// Find a spec under which the deliberately broken configuration (fast path
/// forced on with per-link clamping enabled, which only the slow path
/// implements) actually diverges. Inflating cheaters make clamping matter.
fn mutation_spec() -> ScenarioSpec {
    for seed in 0..50 {
        let spec = ScenarioSpec {
            seed,
            agents: 5,
            cheat: 1,
            inflate: 80.0,
            clamp_reports: true,
            force_fast_path: true,
            ..ScenarioSpec::default()
        };
        if run_lockstep(&spec, 1).is_err() {
            return spec;
        }
    }
    panic!("no seed in 0..50 exposes the forced fast path — the mutation check lost its teeth");
}

#[test]
fn mutation_check_forced_fast_path_is_caught_and_shrunk() {
    let spec = mutation_spec();

    let repro = shrink(&spec, 200).expect("a diverging spec must shrink to a reproducer");
    // The shrunk spec still reproduces, and only got smaller.
    let d = run_lockstep(&repro.spec, 1).expect_err("shrunk spec must still diverge");
    assert_eq!(d, repro.divergence, "lockstep is deterministic");
    assert!(repro.spec.ticks <= spec.ticks);
    assert!(repro.spec.peers <= spec.peers);
    assert!(
        repro.spec.force_fast_path && repro.spec.clamp_reports,
        "the shrinker must keep the two knobs that cause the bug: {}",
        repro.spec.to_json()
    );

    // The reproducer replays exactly through its JSON form.
    let replayed = ScenarioSpec::from_json(&repro.spec.to_json()).expect("reproducer parses");
    assert_eq!(replayed, repro.spec);
    assert_eq!(run_lockstep(&replayed, 1).expect_err("replay diverges"), repro.divergence);
}

#[test]
fn honest_gate_keeps_the_same_scenario_clean() {
    // The identical scenario minus the forced gate runs clean: the
    // divergence above is the *mutation*, not the scenario.
    let spec = ScenarioSpec { force_fast_path: false, ..mutation_spec() };
    assert_clean("un-forced twin", spec);
}
