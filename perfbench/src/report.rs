//! What one run reports: metrics by name and unit, output checks, defense
//! outcomes, and the final JSON line.

use crate::trace::Tracer;
use std::time::{Duration, Instant};

/// Metrics printed with `--trace 0`, in order, with their units. Every
/// workload reports every one of them.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("ticks_per_s", "1/s"), ("peak_heap_mb", "MB")];

/// Metrics printed with `--trace 1`, in order, with their units. A layer a
/// workload bypasses reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("topology.generate_s", "s"),
    ("sim.new_s", "s"),
    ("sim.step_s", "s"),
    ("sim.step_self_s", "s"),
    ("sim.step_allocs", "count"),
    ("sim.query_msgs", "count"),
    ("sim.drop_rate", "ratio"),
    ("sim.success_rate", "ratio"),
    ("sim.w2_ticks_per_s", "1/s"),
    ("police.on_tick_s", "s"),
    ("police.on_peer_departed_s", "s"),
    ("police.on_peer_departed.calls", "count"),
    ("police.on_peer_departed_us_per_call", "us"),
    ("police.on_edge_removed_s", "s"),
    ("police.on_edge_removed.calls", "count"),
    ("police.on_edge_removed_us_per_call", "us"),
    ("police.on_edge_added_s", "s"),
    ("police.on_edge_added.calls", "count"),
    ("police.on_edge_added_us_per_call", "us"),
    ("police.on_peer_reset_s", "s"),
    ("police.on_peer_reset.calls", "count"),
    ("police.on_peer_reset_us_per_call", "us"),
    ("police.cuts", "count"),
    ("police.attacker_cut_share", "ratio"),
    ("police.control_msgs", "count"),
    ("police.state_entries", "count"),
    ("sketch.state_bytes", "B"),
    ("sketch.items_max", "count"),
    ("snapshot.save_s", "s"),
    ("snapshot.bytes", "B"),
    ("snapshot.restore_s", "s"),
    ("servent.handle_frame_s", "s"),
    ("servent.handle_frame.calls", "count"),
    ("servent.handle_frame_us_per_call", "us"),
    ("servent.on_second_s", "s"),
    ("servent.on_second_post_cut_us_per_call", "us"),
    ("servent.on_minute_s", "s"),
    ("servent.issue_query_s", "s"),
    ("servent.resolved_share", "ratio"),
    ("network.deliveries_s", "s"),
    ("network.send_s", "s"),
    ("network.frames", "count"),
    ("network.bytes", "B"),
    ("network.frames_dropped", "count"),
    ("protocol.decode_ns_per_frame", "ns"),
    ("trace.untraced_loop_s", "s"),
    ("trace.traced_loop_s", "s"),
    ("trace.overhead_s", "s"),
];

/// One output check and whether it held.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub passed: bool,
    pub detail: String,
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(&'static str, f64)>,
    pub checks: Vec<Check>,
    /// Human-readable defense outcomes (state hash, cuts, ...), so two
    /// commits can be compared on one seed.
    pub outcomes: Vec<String>,
    /// The last traced repetition's spans, written out when the run ends.
    pub spans: Option<Tracer>,
    /// Per-repetition samples behind the median metrics.
    samples: Vec<(&'static str, Vec<f64>)>,
}

impl Report {
    /// Record (or overwrite) a metric value.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name, value)),
        }
    }

    /// Record `name` as the median of `values`, keeping the samples for
    /// the printed summary.
    pub fn median_metric(&mut self, name: &'static str, values: Vec<f64>) {
        self.metric(name, median(&values));
        self.samples.push((name, values));
    }

    /// A recorded metric value.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// Record an output check.
    pub fn check(&mut self, name: impl Into<String>, passed: bool, detail: impl Into<String>) {
        self.checks.push(Check { name: name.into(), passed, detail: detail.into() });
    }

    /// Record one defense-outcome line. Repetitions on one seed repeat
    /// their outcome exactly, so a line already recorded is kept once.
    pub fn outcome(&mut self, line: String) {
        if !self.outcomes.contains(&line) {
            self.outcomes.push(line);
        }
    }

    pub fn attempted(&self) -> usize {
        self.checks.len()
    }

    pub fn failed(&self) -> usize {
        self.checks.iter().filter(|c| !c.passed).count()
    }

    /// Print outcomes, checks and the metric table, then the result line
    /// with exactly the metrics of `set`: the last line of stdout. A metric
    /// of `set` the workload did not record reads 0 (a bypassed layer), and
    /// a value that is not finite fails the run.
    pub fn print(mut self, set: &[(&'static str, &'static str)]) {
        for line in &self.outcomes {
            println!("outcome {line}");
        }
        for &(name, _) in set {
            if let Some(v) = self.value(name) {
                if !v.is_finite() {
                    self.check(format!("{name} is finite"), false, format!("read {v}"));
                }
            }
        }
        let mut shown: Vec<(&Check, usize)> = Vec::new();
        for c in &self.checks {
            let same = |(s, _): &&mut (&Check, usize)| {
                (&s.name, s.passed, &s.detail) == (&c.name, c.passed, &c.detail)
            };
            match shown.iter_mut().find(same) {
                Some(entry) => entry.1 += 1,
                None => shown.push((c, 1)),
            }
        }
        for (c, times) in shown {
            let verdict = if c.passed { "ok" } else { "FAILED" };
            println!("check {verdict} x{times} {}: {}", c.name, c.detail);
        }
        for (name, v) in &self.samples {
            let shown: Vec<String> = v.iter().map(|x| format!("{x:.6}")).collect();
            println!("samples {name} n={} [{}]", v.len(), shown.join(" "));
        }
        let rate = self.failed() as f64 / self.attempted().max(1) as f64;
        println!("fail_rate {rate} ({} of {} checks failed)", self.failed(), self.attempted());
        let mut fields = Vec::new();
        for &(name, unit) in set {
            let v = self.value(name).filter(|v| v.is_finite()).unwrap_or(0.0);
            println!("metric {name:<44} {v:>20} {unit}");
            fields
                .push(format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_num(v)));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed() == 0,
            self.attempted().max(1),
            self.failed(),
            fields.join(", ")
        );
    }
}

/// A finite f64 as a JSON number with all its digits.
fn json_num(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// Median of a non-empty sample (mean of the middle two for even sizes).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Record a trace run's loop times and overhead: the traced minus the
/// untraced median loop time.
pub fn trace_summary(report: &mut Report, untraced: &[f64], traced: &[f64]) {
    let (u, t) = (median(untraced), median(traced));
    report.metric("trace.untraced_loop_s", u);
    report.metric("trace.traced_loop_s", t);
    report.metric("trace.overhead_s", t - u);
}

/// What a repetition is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rep {
    /// The first repetition: runs the workload's own output checks, and
    /// the first timed repetition must reproduce its outcome. Its times are
    /// not reported, because it pays for first-touch memory that later
    /// repetitions reuse.
    WarmUp,
    /// A timed repetition with tracing off.
    Untraced,
    /// A timed repetition with tracing on (trace runs only).
    Traced,
}

/// Untraced repetitions a run makes even when they overrun its budget, so
/// that one repetition slowed by the host is never the run's median.
pub const MIN_UNTRACED: usize = 3;

/// Run `rep` once as a warm-up, then, until `seconds` of wall time are
/// spent, untraced repetitions; a trace run instead alternates untraced and
/// traced repetitions, so their difference is the tracing overhead. At
/// least [`MIN_UNTRACED`] untraced and one traced repetition run; another
/// starts only while one more of the longest timed one so far still ends
/// inside the budget. `rep` returns its timed-loop wall seconds, which
/// come back sorted by kind as `(untraced, traced)`.
pub fn repeat(seconds: f64, traced: bool, mut rep: impl FnMut(Rep) -> f64) -> (Vec<f64>, Vec<f64>) {
    let start = Instant::now();
    let limit = Duration::from_secs_f64(seconds);
    let mut longest = Duration::ZERO;
    let (mut untraced, mut traced_walls) = (Vec::new(), Vec::new());
    let mut kind = Rep::WarmUp;
    loop {
        let r0 = Instant::now();
        let wall = rep(kind);
        match kind {
            Rep::WarmUp => {}
            Rep::Untraced => untraced.push(wall),
            Rep::Traced => traced_walls.push(wall),
        }
        if kind != Rep::WarmUp {
            longest = longest.max(r0.elapsed());
        }
        kind = if traced && kind == Rep::Untraced { Rep::Traced } else { Rep::Untraced };
        let owed = untraced.len() < MIN_UNTRACED || (traced && traced_walls.is_empty());
        if !owed && start.elapsed() + longest > limit {
            return (untraced, traced_walls);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn json_numbers_keep_every_digit() {
        assert_eq!(json_num(1.0), "1.0");
        assert_eq!(json_num(0.123456789012345), "0.123456789012345");
        assert_eq!(json_num(1e-12), "0.000000000001");
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|&(n, _)| n).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name is used twice");
        for n in names {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric(), "{n}");
            assert!(n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{n}");
        }
    }
}
