//! Pluggable I/O schedulers: FIFO, C-LOOK, and the traxtent-aware
//! batcher.
//!
//! A scheduler's job is purely combinatorial: given the queued client
//! requests, pick which to dispatch next and as which disk commands. The
//! server loop owns time; schedulers never see the clock, which keeps
//! their invariants (exactly-once dispatch, bounded starvation, batches
//! inside trusted tracks) testable without a drive.
//!
//! * [`Fifo`] dispatches in arrival order — the baseline, maximally fair
//!   and maximally seek-bound;
//! * [`CLook`] runs a circular elevator: ascending LBN sweeps that wrap
//!   to the lowest pending request when the sweep runs dry;
//! * [`Traxtent`] rides the C-LOOK sweep but, on tracks whose extracted
//!   boundary is trusted (per [`ConfidentBoundaries`]), gathers every
//!   queued request on the anchor's track and coalesces adjacent same-op
//!   runs into single track-aligned disk commands — never building a
//!   command that crosses the track boundary. On low-confidence tracks it
//!   degrades to plain C-LOOK, mirroring how the allocator degrades to
//!   untracked placement.

use crate::admission::Queued;
use sim_disk::disk::Request;
use traxtent::ConfidentBoundaries;

/// One disk command plus the client requests it serves.
///
/// FIFO and C-LOOK always map one client request to one command; the
/// traxtent batcher may merge several contiguous same-op client requests
/// into one command, in which case every part completes when the merged
/// command completes.
#[derive(Debug, Clone)]
pub struct Dispatch {
    /// The (possibly coalesced) request handed to the drive.
    pub request: Request,
    /// The client requests this command serves, in ascending-LBN order.
    pub parts: Vec<Queued>,
}

impl Dispatch {
    fn single(q: Queued) -> Self {
        Dispatch {
            request: q.request,
            parts: vec![q],
        }
    }

    /// Whether this command serves more than one client request.
    pub fn coalesced(&self) -> bool {
        self.parts.len() > 1
    }
}

/// A dispatch policy over the admission queue.
pub trait Scheduler {
    /// Removes up to `max_batch` client requests from `pending` and
    /// returns the disk commands to issue, in issue order. Must make
    /// progress: returns at least one dispatch whenever `pending` is
    /// non-empty.
    fn select(&mut self, pending: &mut Vec<Queued>, max_batch: usize) -> Vec<Dispatch>;

    /// Completed sweep wrap-arounds so far (always 0 for FIFO).
    fn wraps(&self) -> u64 {
        0
    }
}

/// Which scheduler the server runs; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Arrival-order dispatch.
    Fifo,
    /// Circular elevator (ascending sweeps, wrap at the top).
    CLook,
    /// C-LOOK plus track-aligned coalescing on trusted tracks.
    Traxtent,
}

impl SchedulerKind {
    /// Stable lowercase label for output rows and manifests.
    pub fn label(self) -> &'static str {
        match self {
            SchedulerKind::Fifo => "fifo",
            SchedulerKind::CLook => "clook",
            SchedulerKind::Traxtent => "traxtent",
        }
    }

    /// All kinds, in the order figures print them.
    pub const ALL: [SchedulerKind; 3] = [
        SchedulerKind::Fifo,
        SchedulerKind::CLook,
        SchedulerKind::Traxtent,
    ];
}

/// Removes the entries at `indices` (which must be distinct and in
/// bounds), returning them in index-list order while preserving the
/// relative order of the survivors.
fn take_indices(pending: &mut Vec<Queued>, indices: &[usize]) -> Vec<Queued> {
    let taken: Vec<Queued> = indices.iter().map(|&i| pending[i]).collect();
    let mut marked = vec![false; pending.len()];
    for &i in indices {
        debug_assert!(!marked[i], "duplicate dispatch index");
        marked[i] = true;
    }
    let mut j = 0;
    pending.retain(|_| {
        let m = marked[j];
        j += 1;
        !m
    });
    taken
}

/// Indices of up to `max_batch` pending requests along the ascending
/// sweep from `*pos`, ordered by `(lbn, id)`. When nothing lies at or
/// above `*pos` the sweep wraps: `*wraps` is incremented and selection
/// restarts from the lowest pending LBN.
fn sweep_indices(
    pending: &[Queued],
    pos: &mut u64,
    wraps: &mut u64,
    max_batch: usize,
) -> Vec<usize> {
    if pending.is_empty() {
        return Vec::new();
    }
    let mut order: Vec<usize> = (0..pending.len()).collect();
    order.sort_by_key(|&i| (pending[i].request.lbn, pending[i].id));
    let start = match order.iter().position(|&i| pending[i].request.lbn >= *pos) {
        Some(s) => s,
        None => {
            *wraps += 1;
            *pos = 0;
            0
        }
    };
    order[start..].iter().take(max_batch).copied().collect()
}

/// Arrival-order dispatch.
#[derive(Debug, Default)]
pub struct Fifo;

impl Scheduler for Fifo {
    fn select(&mut self, pending: &mut Vec<Queued>, max_batch: usize) -> Vec<Dispatch> {
        let n = max_batch.min(pending.len());
        pending.drain(..n).map(Dispatch::single).collect()
    }
}

/// Circular elevator: ascending-LBN sweeps, wrapping to the lowest
/// pending request when nothing remains above the head position.
///
/// Starvation is bounded: a queued request is dispatched within two
/// wrap-arounds of its admission, because the sweep position never
/// passes a pending request's LBN without dispatching it.
#[derive(Debug, Default)]
pub struct CLook {
    pos: u64,
    wraps: u64,
}

impl CLook {
    /// A fresh elevator starting at LBN 0.
    pub fn new() -> Self {
        CLook::default()
    }
}

impl Scheduler for CLook {
    fn select(&mut self, pending: &mut Vec<Queued>, max_batch: usize) -> Vec<Dispatch> {
        let idx = sweep_indices(pending, &mut self.pos, &mut self.wraps, max_batch);
        let taken = take_indices(pending, &idx);
        if let Some(last) = taken.last() {
            self.pos = last.request.lbn;
        }
        taken.into_iter().map(Dispatch::single).collect()
    }

    fn wraps(&self) -> u64 {
        self.wraps
    }
}

/// C-LOOK plus track-aligned coalescing on trusted tracks.
#[derive(Debug)]
pub struct Traxtent {
    /// The sweep position and wrap count; untrusted rounds are this
    /// elevator's own rounds.
    clook: CLook,
    boundaries: ConfidentBoundaries,
    threshold: f64,
}

impl Traxtent {
    /// A traxtent batcher over the given boundary table; tracks whose
    /// confidence is below `threshold` are treated as unknown and served
    /// with plain C-LOOK.
    pub fn new(boundaries: ConfidentBoundaries, threshold: f64) -> Self {
        Traxtent {
            clook: CLook::new(),
            boundaries,
            threshold,
        }
    }

    /// Merges ascending same-track client requests into contiguous
    /// same-op disk commands. Only exactly adjacent requests merge;
    /// overlapping or gapped neighbours stay separate commands (still
    /// within the track).
    fn coalesce(taken: Vec<Queued>) -> Vec<Dispatch> {
        let mut out: Vec<Dispatch> = Vec::new();
        for q in taken {
            if let Some(d) = out.last_mut() {
                if d.request.op == q.request.op && d.request.lbn + d.request.len == q.request.lbn {
                    d.request.len += q.request.len;
                    d.parts.push(q);
                    continue;
                }
            }
            out.push(Dispatch::single(q));
        }
        out
    }
}

impl Scheduler for Traxtent {
    fn select(&mut self, pending: &mut Vec<Queued>, max_batch: usize) -> Vec<Dispatch> {
        let anchor_idx = sweep_indices(pending, &mut self.clook.pos, &mut self.clook.wraps, 1);
        let Some(&a) = anchor_idx.first() else {
            return Vec::new();
        };
        let anchor = pending[a].request;
        let table = self.boundaries.table();
        let (track_start, track_end) = table.track_bounds(anchor.lbn);
        let track = table.track_index(anchor.lbn);
        let trusted = self.boundaries.is_confident(track, self.threshold);
        let in_track = anchor.lbn + anchor.len <= track_end;
        if !(trusted && in_track) {
            // Unknown boundary (or a client request that itself straddles
            // one): no coalescing is safe, serve this round as C-LOOK.
            return self.clook.select(pending, max_batch);
        }
        // Trusted track: gather every queued request lying entirely on
        // the anchor's track (up to the batch bound) and coalesce.
        let mut idx: Vec<usize> = (0..pending.len())
            .filter(|&i| {
                let r = pending[i].request;
                r.lbn >= track_start && r.lbn + r.len <= track_end
            })
            .collect();
        idx.sort_by_key(|&i| (pending[i].request.lbn, pending[i].id));
        idx.truncate(max_batch);
        let taken = take_indices(pending, &idx);
        self.clook.pos = taken.last().expect("anchor is always gathered").request.lbn;
        Traxtent::coalesce(taken)
    }

    fn wraps(&self) -> u64 {
        self.clook.wraps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_disk::SimTime;
    use traxtent::TrackBoundaries;

    fn q(id: u64, lbn: u64, len: u64) -> Queued {
        Queued {
            id,
            arrival: SimTime::from_ns(id),
            request: Request::read(lbn, len),
        }
    }

    fn qw(id: u64, lbn: u64, len: u64) -> Queued {
        Queued {
            id,
            arrival: SimTime::from_ns(id),
            request: Request::write(lbn, len),
        }
    }

    #[test]
    fn fifo_dispatches_in_arrival_order() {
        let mut pending = vec![q(0, 900, 8), q(1, 100, 8), q(2, 500, 8)];
        let ds = Fifo.select(&mut pending, 2);
        assert_eq!(ds.iter().map(|d| d.parts[0].id).collect::<Vec<_>>(), [0, 1]);
        assert_eq!(pending.len(), 1);
    }

    #[test]
    fn clook_sweeps_ascending_and_wraps() {
        let mut sched = CLook::new();
        let mut pending = vec![q(0, 900, 8), q(1, 100, 8), q(2, 500, 8)];
        let ds = sched.select(&mut pending, 2);
        assert_eq!(
            ds.iter().map(|d| d.request.lbn).collect::<Vec<_>>(),
            [100, 500]
        );
        assert_eq!(sched.wraps(), 0);
        // 900 is still ahead: same sweep, no wrap.
        let ds = sched.select(&mut pending, 2);
        assert_eq!(ds[0].request.lbn, 900);
        assert_eq!(sched.wraps(), 0);
        // Now only a low request remains: the sweep must wrap once.
        pending.push(q(3, 50, 8));
        let ds = sched.select(&mut pending, 2);
        assert_eq!(ds[0].request.lbn, 50);
        assert_eq!(sched.wraps(), 1);
    }

    #[test]
    fn traxtent_coalesces_contiguous_same_op_runs_within_a_track() {
        // One 100-sector track starting at 0, another at 100.
        let table = TrackBoundaries::uniform(4, 100);
        let mut sched = Traxtent::new(ConfidentBoundaries::certain(table), 0.9);
        let mut pending = vec![
            q(0, 0, 25),
            q(1, 25, 25),
            qw(2, 50, 25), // op changes: breaks the run
            q(3, 75, 25),
            q(4, 100, 10), // next track: not gathered this round
        ];
        let ds = sched.select(&mut pending, 16);
        assert_eq!(ds.len(), 3);
        assert_eq!((ds[0].request.lbn, ds[0].request.len), (0, 50));
        assert!(ds[0].coalesced());
        assert_eq!(ds[0].parts.iter().map(|p| p.id).collect::<Vec<_>>(), [0, 1]);
        assert_eq!((ds[1].request.lbn, ds[1].request.len), (50, 25));
        assert_eq!((ds[2].request.lbn, ds[2].request.len), (75, 25));
        assert_eq!(pending.len(), 1, "the next-track request stays queued");
    }

    #[test]
    fn traxtent_degrades_to_clook_on_low_confidence_tracks() {
        let table = TrackBoundaries::uniform(4, 100);
        let conf = ConfidentBoundaries::new(table, vec![0.2, 1.0, 1.0, 1.0]).unwrap();
        let mut sched = Traxtent::new(conf, 0.9);
        let mut pending = vec![q(0, 0, 25), q(1, 25, 25), q(2, 120, 10)];
        let ds = sched.select(&mut pending, 16);
        // Anchor lands on the untrusted track 0: C-LOOK round, no merge.
        assert_eq!(ds.len(), 3);
        assert!(ds.iter().all(|d| !d.coalesced()));
    }

    #[test]
    fn traxtent_never_merges_across_the_track_boundary() {
        let table = TrackBoundaries::uniform(4, 100);
        let mut sched = Traxtent::new(ConfidentBoundaries::certain(table), 0.9);
        // Contiguous run that spans the 100-boundary as two aligned halves.
        let mut pending = vec![q(0, 60, 40), q(1, 100, 40)];
        let ds = sched.select(&mut pending, 16);
        assert_eq!(ds.len(), 1, "only the track-0 half is gathered");
        assert_eq!((ds[0].request.lbn, ds[0].request.len), (60, 40));
        let ds = sched.select(&mut pending, 16);
        assert_eq!((ds[0].request.lbn, ds[0].request.len), (100, 40));
    }
}
