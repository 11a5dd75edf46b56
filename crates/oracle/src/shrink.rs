//! Scenario shrinking: reduce a diverging [`ScenarioSpec`] to a minimal
//! replayable reproducer.
//!
//! Greedy descent: each round proposes a fixed set of simplifying mutations
//! (truncate ticks to the divergence point, halve the population, drop the
//! attack, disable churn / sessions / whitewash / collusion, make the fault
//! plane inert, reset protocol knobs to paper defaults) and keeps any
//! mutation under which the twins *still diverge*. The loop re-runs until a
//! full round changes nothing, so the result is locally minimal: every
//! remaining deviation from the default spec is necessary to reproduce the
//! bug. Determinism of [`run_lockstep`] makes the reproducer exact — same
//! spec, same divergence, forever.

use crate::harness::run_lockstep;
use crate::spec::ScenarioSpec;

/// A shrunk reproducer: the minimal spec plus the divergence it still
/// triggers.
#[derive(Debug, Clone, PartialEq)]
pub struct ShrunkRepro {
    /// The minimized scenario.
    pub spec: ScenarioSpec,
    /// The divergence the minimized scenario reproduces.
    pub divergence: crate::harness::Divergence,
    /// Lockstep runs spent shrinking (the search budget actually used).
    pub runs: usize,
}

/// All single-step simplifications of `spec`, most aggressive first.
fn candidates(spec: &ScenarioSpec) -> Vec<ScenarioSpec> {
    let defaults = ScenarioSpec::default();
    let mut out = Vec::new();
    let mut push = |mutated: ScenarioSpec| {
        if mutated != *spec {
            out.push(mutated);
        }
    };
    if spec.ticks > 1 {
        push(ScenarioSpec { ticks: spec.ticks / 2, ..spec.clone() });
        push(ScenarioSpec { ticks: spec.ticks - 1, ..spec.clone() });
    }
    if spec.peers > 8 {
        push(ScenarioSpec { peers: (spec.peers / 2).max(8), ..spec.clone() });
        push(ScenarioSpec { peers: spec.peers - 1, ..spec.clone() });
    }
    if spec.agents > 0 {
        push(ScenarioSpec { agents: spec.agents / 2, ..spec.clone() });
    }
    push(ScenarioSpec { cheat: 0, ..spec.clone() });
    push(ScenarioSpec { lists: 0, ..spec.clone() });
    push(ScenarioSpec {
        loss: 0.0,
        delay_prob: 0.0,
        delay_ticks: defaults.delay_ticks,
        crash_prob: 0.0,
        ..spec.clone()
    });
    push(ScenarioSpec { collusion: 0, ..spec.clone() });
    push(ScenarioSpec { churn: false, ..spec.clone() });
    push(ScenarioSpec { session_mean: 0.0, ..spec.clone() });
    push(ScenarioSpec { whitewash_dwell: 0, whitewash_quiet: 0, ..spec.clone() });
    push(ScenarioSpec { cut_threshold: defaults.cut_threshold, ..spec.clone() });
    push(ScenarioSpec { exchange_minutes: defaults.exchange_minutes, ..spec.clone() });
    push(ScenarioSpec { radius: defaults.radius, ..spec.clone() });
    push(ScenarioSpec { verify_lists: defaults.verify_lists, ..spec.clone() });
    push(ScenarioSpec { clamp_reports: false, ..spec.clone() });
    push(ScenarioSpec { aggregation: 0, trim: defaults.trim, ..spec.clone() });
    push(ScenarioSpec { hys_required: 1, hys_window: 1, ..spec.clone() });
    push(ScenarioSpec { readmission: false, ..spec.clone() });
    push(ScenarioSpec { suspect_ttl: u32::MAX, ..spec.clone() });
    out
}

/// Shrink a diverging scenario. `spec` must diverge (the caller has already
/// seen it fail); if it unexpectedly passes, `None`.
///
/// `max_runs` bounds the total number of lockstep executions spent searching
/// — shrinking is best-effort and the pre-shrink spec is always a valid
/// reproducer, so running out of budget just yields a bigger one.
pub fn shrink(spec: &ScenarioSpec, max_runs: usize) -> Option<ShrunkRepro> {
    let mut runs = 0usize;
    fn rerun(candidate: &ScenarioSpec, runs: &mut usize) -> Option<crate::harness::Divergence> {
        *runs += 1;
        run_lockstep(candidate, 1).err()
    }

    let mut divergence = rerun(spec, &mut runs)?;
    let mut best = spec.clone();
    // The scenario past the first divergence is dead weight.
    best.ticks = best.ticks.min(divergence.tick);

    loop {
        let mut improved = false;
        for candidate in candidates(&best) {
            if runs >= max_runs {
                return Some(ShrunkRepro { spec: best, divergence, runs });
            }
            if let Some(d) = rerun(&candidate, &mut runs) {
                best = candidate;
                best.ticks = best.ticks.min(d.tick);
                divergence = d;
                improved = true;
                break; // restart the round from the new, smaller spec
            }
        }
        if !improved {
            return Some(ShrunkRepro { spec: best, divergence, runs });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_spec_yields_none() {
        assert!(shrink(&ScenarioSpec::default(), 50).is_none());
    }

    #[test]
    fn candidates_always_simplify_something() {
        let spec = ScenarioSpec::random(3);
        for c in candidates(&spec) {
            assert_ne!(c, spec, "a candidate must differ from its parent");
        }
        // A fully minimal spec generates no self-candidates that re-expand.
        let minimal = ScenarioSpec { peers: 8, ticks: 1, agents: 0, ..ScenarioSpec::default() };
        for c in candidates(&minimal) {
            assert!(c.peers <= minimal.peers && c.ticks <= minimal.ticks);
        }
    }
}
