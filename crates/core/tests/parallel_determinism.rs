//! Serial-vs-parallel differential suite (the tentpole's pin).
//!
//! The sharded tick engine claims byte-identity: a run at any worker count
//! produces the same per-tick state hash (FNV-1a over the complete snapshot
//! payload), the same judgment trace, and the same final results as the
//! serial engine. This suite sweeps the shared scenario matrix
//! ([`ddp_oracle::scenario_matrix`]) across worker counts and asserts
//! exactly that — and then proves it has teeth by flipping the engine's
//! unordered-reduction sabotage lever and requiring the resulting
//! reduction-order race to be *detected*.

use ddp_oracle::{run_parallel_lockstep, scenario_matrix, ScenarioSpec};

/// Worker counts under test. 2 = minimal sharding, 4 = the CI target width;
/// both exceed this container's single hardware core on purpose — identity
/// must hold regardless of how the OS schedules the workers.
const WIDTHS: [usize; 2] = [2, 4];

#[test]
fn full_matrix_is_thread_invariant() {
    for (label, spec) in scenario_matrix() {
        for threads in WIDTHS {
            if let Err(d) = run_parallel_lockstep(&spec, threads, false) {
                panic!(
                    "{label}: parallel run diverged from serial at {threads} threads: {d}\nspec:\n{}",
                    spec.to_json()
                );
            }
        }
    }
}

#[test]
fn thread_count_one_is_the_serial_engine() {
    // Width 1 runs the same judgment loop as every other width, as one
    // whole-range partition; two width-1 twins must agree bit for bit, so
    // nothing outside the seeded streams (hash-iteration order, allocation
    // reuse) may leak into observable state.
    for (label, spec) in scenario_matrix() {
        if let Err(d) = run_parallel_lockstep(&spec, 1, false) {
            panic!("{label}: width-1 twin diverged: {d}");
        }
    }
}

#[test]
fn random_specs_are_thread_invariant() {
    for fuzz_seed in 0..12 {
        let spec = ScenarioSpec::random(fuzz_seed);
        for threads in WIDTHS {
            if let Err(d) = run_parallel_lockstep(&spec, threads, false) {
                panic!(
                    "fuzz seed {fuzz_seed} diverged at {threads} threads: {d}\nspec:\n{}",
                    spec.to_json()
                );
            }
        }
    }
}

/// A scenario busy enough that several partitions judge observers of the
/// same suspects every tick: the reduction order visibly decides who pays
/// each suspect's `k(k-1)` exchange charge and the cut/reconnect ordering.
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
fn unordered_reduction_mutation_is_caught() {
    // The mutation check: a planted reduction-order race (partition merge
    // reversed) must be detected in at least one scenario — otherwise this
    // suite could not catch a real one. Not every matrix entry must diverge
    // (a quiet overlay has nothing to race on), but across the matrix plus
    // the crafted busy spec the race must surface.
    let mut specs = scenario_matrix();
    specs.push(("busy crafted", busy_spec()));
    let mut caught = 0usize;
    let mut ran = 0usize;
    for (_, spec) in &specs {
        ran += 1;
        if run_parallel_lockstep(spec, 4, true).is_err() {
            caught += 1;
        }
    }
    assert!(
        caught > 0,
        "reversed reduction went undetected across all {ran} scenarios — the suite lost its teeth"
    );
}

#[test]
fn sabotage_lever_is_inert_at_width_one() {
    // The lever models a *parallel* reduction bug; with one worker there is
    // no reduction and flipping it must change nothing.
    let spec = busy_spec();
    run_parallel_lockstep(&spec, 1, true)
        .unwrap_or_else(|d| panic!("sabotage leaked into the serial path: {d}"));
}

#[test]
fn busy_spec_diverges_under_sabotage() {
    // The crafted spec specifically must catch the race: this pins the
    // mutation check's sensitivity so a future matrix reshuffle cannot
    // silently reduce it to "caught somewhere, maybe".
    let spec = busy_spec();
    run_parallel_lockstep(&spec, 4, true)
        .expect_err("busy spec must expose the reversed reduction");
}
