//! Benchmark-side host-time spans around every call into a layer.
//!
//! The traced run wraps each layer call in [`Layers::span`]: a span has a
//! name, a start, an end and the span open around it (its parent). Spans
//! fold into per-name totals as they close, so a run of any length costs
//! constant memory; a layer's self time is its span time minus the time
//! its child spans cover. [`TimedBackend`] is the span around every
//! [`Backend::service_batch_into`] the server issues, which separates the
//! server's own dispatch cost from the drive or volume below it.

use server::Backend;
use sim_disk::disk::Request;
use sim_disk::{Breakdown, Completion, SimTime};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Totals of every closed span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotals {
    /// Spans closed.
    pub calls: u64,
    /// Host nanoseconds inside the spans.
    pub total_ns: u64,
    /// Host nanoseconds inside the spans but outside their child spans.
    pub self_ns: u64,
}

struct Open {
    name: &'static str,
    start: Instant,
    child_ns: u64,
}

/// A span recorder; disabled recorders cost one branch per call.
pub struct Layers {
    on: bool,
    stack: RefCell<Vec<Open>>,
    totals: RefCell<BTreeMap<&'static str, LayerTotals>>,
}

impl Layers {
    /// A recorder, recording only when `on`.
    pub fn new(on: bool) -> Self {
        Layers {
            on,
            stack: RefCell::new(Vec::new()),
            totals: RefCell::new(BTreeMap::new()),
        }
    }

    /// Runs `f` inside a span called `name`, child of the innermost open
    /// span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        self.stack.borrow_mut().push(Open {
            name,
            start: Instant::now(),
            child_ns: 0,
        });
        let r = f();
        let end = Instant::now();
        let mut stack = self.stack.borrow_mut();
        let open = stack.pop().expect("span stack is balanced");
        let ns = end.duration_since(open.start).as_nanos() as u64;
        if let Some(parent) = stack.last_mut() {
            parent.child_ns += ns;
        }
        let mut totals = self.totals.borrow_mut();
        let t = totals.entry(open.name).or_default();
        t.calls += 1;
        t.total_ns += ns;
        t.self_ns += ns.saturating_sub(open.child_ns);
        r
    }

    /// Totals of spans called `name` (zero if none closed).
    pub fn get(&self, name: &str) -> LayerTotals {
        self.totals.borrow().get(name).copied().unwrap_or_default()
    }

    /// The self-time table: one row per span name, self time first.
    pub fn table(&self) -> String {
        let totals = self.totals.borrow();
        let mut rows: Vec<_> = totals.iter().collect();
        rows.sort_by_key(|(_, t)| std::cmp::Reverse(t.self_ns));
        let all_self: u64 = rows.iter().map(|(_, t)| t.self_ns).sum();
        let mut out = String::from("self-time table (host; self = span minus child spans)\n");
        writeln!(
            out,
            "  {:<22} {:>10} {:>12} {:>12} {:>7}",
            "layer", "calls", "total_ms", "self_ms", "self%"
        )
        .expect("writing to a String cannot fail");
        for (name, t) in rows {
            writeln!(
                out,
                "  {:<22} {:>10} {:>12.3} {:>12.3} {:>6.1}%",
                name,
                t.calls,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6,
                100.0 * t.self_ns as f64 / all_self.max(1) as f64
            )
            .expect("writing to a String cannot fail");
        }
        out
    }
}

/// Simulated work the drive reported through one [`TimedBackend`].
#[derive(Debug, Clone, Copy, Default)]
pub struct CmdTotals {
    /// Commands serviced.
    pub cmds: u64,
    /// Sum of per-command phase breakdowns.
    pub breakdown: Breakdown,
}

impl CmdTotals {
    /// Adds one command's breakdown.
    pub fn add(&mut self, b: &Breakdown) {
        self.cmds += 1;
        let s = &mut self.breakdown;
        s.queue += b.queue;
        s.overhead += b.overhead;
        s.seek += b.seek;
        s.head_switch += b.head_switch;
        s.rot_latency += b.rot_latency;
        s.media += b.media;
        s.bus += b.bus;
        s.write_settle += b.write_settle;
    }

    /// Adds every command of `other`.
    pub fn merge(&mut self, other: &CmdTotals) {
        let cmds = self.cmds + other.cmds;
        self.add(&other.breakdown);
        self.cmds = cmds;
    }

    /// Media time over service time (queueing excluded): the paper's disk
    /// efficiency.
    pub fn efficiency(&self) -> f64 {
        let b = &self.breakdown;
        let service = b.total().as_ns() - b.queue.as_ns();
        b.media.as_ns() as f64 / service.max(1) as f64
    }

    /// Mean of a phase per command, in ms.
    pub fn mean_ms(&self, phase: impl Fn(&Breakdown) -> sim_disk::SimDur) -> f64 {
        phase(&self.breakdown).as_millis_f64() / self.cmds.max(1) as f64
    }
}

/// A [`Backend`] that forwards to `inner` inside a span named `name`,
/// and sums the simulated phase breakdown of every completion.
pub struct TimedBackend<'a, B: Backend + ?Sized> {
    inner: &'a mut B,
    layers: &'a Layers,
    name: &'static str,
    /// Simulated totals of the commands forwarded so far.
    pub totals: CmdTotals,
}

impl<'a, B: Backend + ?Sized> TimedBackend<'a, B> {
    /// Wraps `inner`.
    pub fn new(inner: &'a mut B, layers: &'a Layers, name: &'static str) -> Self {
        TimedBackend {
            inner,
            layers,
            name,
            totals: CmdTotals::default(),
        }
    }
}

impl<B: Backend + ?Sized> Backend for TimedBackend<'_, B> {
    fn capacity_lbns(&self) -> u64 {
        self.inner.capacity_lbns()
    }

    fn service_batch_into(&mut self, batch: &[(Request, SimTime)], out: &mut Vec<Completion>) {
        let from = out.len();
        let inner = &mut *self.inner;
        self.layers
            .span(self.name, || inner.service_batch_into(batch, out));
        for c in &out[from..] {
            self.totals.add(&c.breakdown);
        }
    }

    fn member_busy_ns(&self) -> Vec<u64> {
        self.inner.member_busy_ns()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let l = Layers::new(true);
        l.span("outer", || {
            l.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let (o, i) = (l.get("outer"), l.get("inner"));
        assert_eq!((o.calls, i.calls), (1, 1));
        assert!(i.total_ns >= 5_000_000);
        assert!(o.total_ns >= i.total_ns);
        assert_eq!(o.self_ns, o.total_ns - i.total_ns);
        assert!(l.table().contains("inner"));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let l = Layers::new(false);
        assert_eq!(l.span("x", || 7), 7);
        assert_eq!(l.get("x"), LayerTotals::default());
    }
}
