//! In-memory span recorder for the traced run, and the forwarding
//! [`Traced`] defense that records the police layer's spans.
//!
//! Two kinds of measurement, both kept per thread in memory and written out
//! when the run ends:
//!
//! * [`span`] records one span per call (name, parent, start, end). It is
//!   used at coarse boundaries: a tick, a protocol second, a snapshot, a
//!   defense judgment pass.
//! * [`leaf`] folds each call into a per-name tally (calls, total time)
//!   without keeping the individual span. It is used for per-call hooks and
//!   per-frame handlers, of which one run makes millions.
//!
//! Both charge their duration to the innermost open span as child time, so a
//! layer's self time is its span total minus the time its children cover.
//! With no tracer installed both are a thread-local check and a direct call.

use ddp_sim::{Actions, Defense, TickObservation};
use ddp_topology::NodeId;
use std::cell::{Cell, RefCell};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Index of the enclosing span in [`Tracer::spans`], if any.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Time covered by child spans and leaves.
    pub child_ns: u64,
}

/// Aggregate of every span or leaf of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Tally {
    pub calls: u64,
    pub total_ns: u64,
    /// `total_ns` minus the time covered by children.
    pub self_ns: u64,
}

/// The recorder. Install with [`start`], collect with [`stop`].
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    /// Per-name aggregates, in first-seen order. A handful of names, so a
    /// linear scan (pointer compare first) beats a map on the hot path.
    pub tallies: Vec<(&'static str, Tally)>,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
}

/// Install a fresh tracer on this thread.
pub fn start() {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            tallies: Vec::new(),
        })
    });
    ACTIVE.with(|a| a.set(true));
}

/// Remove this thread's tracer and return what it recorded.
pub fn stop() -> Tracer {
    ACTIVE.with(|a| a.set(false));
    TRACER.with(|t| t.borrow_mut().take()).expect("trace::stop without trace::start")
}

/// Whether a tracer is installed on this thread.
pub fn active() -> bool {
    ACTIVE.with(Cell::get)
}

fn ns_since(origin: Instant) -> u64 {
    origin.elapsed().as_nanos() as u64
}

/// Run `f` inside a recorded span named `name`.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let opened = TRACER.with(|t| {
        t.borrow_mut().as_mut().map(|tr| {
            let idx = tr.spans.len();
            let start_ns = ns_since(tr.origin);
            tr.spans.push(Span {
                name,
                parent: tr.open.last().copied(),
                start_ns,
                end_ns: start_ns,
                child_ns: 0,
            });
            tr.open.push(idx);
            idx
        })
    });
    let out = f();
    if let Some(idx) = opened {
        TRACER.with(|t| {
            let mut guard = t.borrow_mut();
            let tr = guard.as_mut().expect("tracer removed inside an open span");
            let end_ns = ns_since(tr.origin);
            assert_eq!(tr.open.pop(), Some(idx), "spans must close in LIFO order");
            let s = &mut tr.spans[idx];
            s.end_ns = end_ns;
            let dur = end_ns - s.start_ns;
            let self_ns = dur.saturating_sub(s.child_ns);
            tr.add(name, dur, self_ns);
        });
    }
    out
}

/// Run `f`, folding its duration into the tally for `name` (no span kept).
pub fn leaf<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    if !active() {
        return f();
    }
    let t0 = Instant::now();
    let out = f();
    let dur = t0.elapsed().as_nanos() as u64;
    TRACER.with(|t| {
        if let Some(tr) = t.borrow_mut().as_mut() {
            tr.add(name, dur, dur);
        }
    });
    out
}

impl Tracer {
    /// Fold one finished call into `name`'s tally and charge it to the
    /// innermost open span.
    fn add(&mut self, name: &'static str, dur: u64, self_ns: u64) {
        let idx = match self.tallies.iter().position(|(n, _)| std::ptr::eq(*n, name) || *n == name)
        {
            Some(i) => i,
            None => {
                self.tallies.push((name, Tally::default()));
                self.tallies.len() - 1
            }
        };
        let tally = &mut self.tallies[idx].1;
        tally.calls += 1;
        tally.total_ns += dur;
        tally.self_ns += self_ns;
        if let Some(&p) = self.open.last() {
            self.spans[p].child_ns += dur;
        }
    }

    /// Tally for `name` (zero when nothing of that name ran).
    pub fn tally(&self, name: &str) -> Tally {
        self.tallies.iter().find(|(n, _)| *n == name).map(|&(_, t)| t).unwrap_or_default()
    }

    /// Write every span and every tally as tab-separated lines.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "# span\tid\tparent\tname\tstart_ns\tend_ns\tchild_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "span\t{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.name, s.start_ns, s.end_ns, s.child_ns
            )?;
        }
        writeln!(out, "# tally\tname\tcalls\ttotal_ns\tself_ns")?;
        for (name, t) in &self.tallies {
            writeln!(out, "tally\t{name}\t{}\t{}\t{}", t.calls, t.total_ns, t.self_ns)?;
        }
        out.flush()
    }
}

/// A defense that forwards every trait method to `D`, recording the police
/// layer's spans on the way. The forwarding is exact, so a traced run's
/// state hash equals the untraced run's.
pub struct Traced<D>(pub D);

impl<D: Defense> Defense for Traced<D> {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn on_tick(&mut self, obs: &TickObservation<'_>, actions: &mut Actions) {
        span("police.on_tick", || self.0.on_tick(obs, actions))
    }
    fn set_parallelism(&mut self, threads: usize) {
        self.0.set_parallelism(threads)
    }
    fn on_peer_reset(&mut self, node: NodeId) {
        leaf("police.on_peer_reset", || self.0.on_peer_reset(node))
    }
    fn on_edge_added(&mut self, u: NodeId, v: NodeId, deg_u: usize, deg_v: usize) {
        leaf("police.on_edge_added", || self.0.on_edge_added(u, v, deg_u, deg_v))
    }
    fn on_edge_removed(&mut self, u: NodeId, v: NodeId, deg_u: usize, deg_v: usize) {
        leaf("police.on_edge_removed", || self.0.on_edge_removed(u, v, deg_u, deg_v))
    }
    fn on_peer_departed(&mut self, node: NodeId) {
        leaf("police.on_peer_departed", || self.0.on_peer_departed(node))
    }
    fn on_nodes_grown(&mut self, n: usize) {
        leaf("police.on_nodes_grown", || self.0.on_nodes_grown(n))
    }
    fn forbids_link(&self, u: NodeId, v: NodeId) -> bool {
        self.0.forbids_link(u, v)
    }
    fn monitor_backend(&self) -> Option<String> {
        self.0.monitor_backend()
    }
    fn snapshot_support(&self) -> bool {
        self.0.snapshot_support()
    }
    fn save_state(&self, enc: &mut ddp_snapshot::Enc) {
        leaf("police.save_state", || self.0.save_state(enc))
    }
    fn restore_state(
        &mut self,
        dec: &mut ddp_snapshot::Dec<'_>,
    ) -> Result<(), ddp_snapshot::SnapshotError> {
        leaf("police.restore_state", || self.0.restore_state(dec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_leaves_nest_under_spans() {
        start();
        span("outer", || {
            leaf("inner", || std::thread::sleep(std::time::Duration::from_millis(2)));
            span("mid", || std::thread::sleep(std::time::Duration::from_millis(1)));
        });
        let tr = stop();
        let (outer, inner, mid) = (tr.tally("outer"), tr.tally("inner"), tr.tally("mid"));
        assert_eq!((outer.calls, inner.calls, mid.calls), (1, 1, 1));
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns - mid.total_ns);
        assert_eq!(tr.spans.len(), 2, "leaves keep no individual span");
        assert_eq!(tr.spans[1].parent, Some(0));
    }

    #[test]
    fn untraced_calls_record_nothing() {
        assert_eq!(span("x", || 7), 7);
        assert_eq!(leaf("y", || 8), 8);
        start();
        let tr = stop();
        assert!(tr.tallies.is_empty());
    }
}
