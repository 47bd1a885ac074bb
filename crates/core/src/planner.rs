//! Track-aware request generation.
//!
//! After allocation places data on track boundaries, the request path must
//! also be taught to *issue* traxtent requests: prefetch and write-back
//! requests are extended or clipped so no request crosses a track boundary
//! (§3.2 of the paper).

use crate::boundaries::TrackBoundaries;
use crate::extent::Extent;
use std::sync::atomic::{AtomicU64, Ordering};

/// Planner activity counters, kept with relaxed atomics so a planner
/// shared across worker threads can be observed without locking.
#[derive(Debug, Default)]
struct PlanStats {
    prefetches: AtomicU64,
    prefetch_extensions: AtomicU64,
    writebacks: AtomicU64,
    writeback_clips: AtomicU64,
    splits: AtomicU64,
    split_pieces: AtomicU64,
}

/// A point-in-time copy of a planner's activity counters
/// (see [`RequestPlanner::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanStatsSnapshot {
    /// Prefetch plans made ([`RequestPlanner::plan_prefetch`]).
    pub prefetches: u64,
    /// Prefetches that opened a track and were extended to cover it — the
    /// traxtent-sized fetches the paper's §3.2 policy exists to create.
    pub prefetch_extensions: u64,
    /// Write-back plans made ([`RequestPlanner::plan_writeback`]).
    pub writebacks: u64,
    /// Write-backs that were clipped short at a track boundary.
    pub writeback_clips: u64,
    /// Extent splits performed ([`RequestPlanner::split`]).
    pub splits: u64,
    /// Total track-aligned pieces those splits produced.
    pub split_pieces: u64,
}

/// Plans request sizes against a boundary table.
#[derive(Debug)]
pub struct RequestPlanner {
    boundaries: TrackBoundaries,
    stats: PlanStats,
}

impl Clone for RequestPlanner {
    /// Cloning copies the boundary table and the counters' current values.
    fn clone(&self) -> Self {
        let snap = self.stats();
        RequestPlanner {
            boundaries: self.boundaries.clone(),
            stats: PlanStats {
                prefetches: AtomicU64::new(snap.prefetches),
                prefetch_extensions: AtomicU64::new(snap.prefetch_extensions),
                writebacks: AtomicU64::new(snap.writebacks),
                writeback_clips: AtomicU64::new(snap.writeback_clips),
                splits: AtomicU64::new(snap.splits),
                split_pieces: AtomicU64::new(snap.split_pieces),
            },
        }
    }
}

impl RequestPlanner {
    /// Creates a planner.
    pub fn new(boundaries: TrackBoundaries) -> Self {
        RequestPlanner {
            boundaries,
            stats: PlanStats::default(),
        }
    }

    /// The boundary table in use.
    pub fn boundaries(&self) -> &TrackBoundaries {
        &self.boundaries
    }

    /// A snapshot of the planner's activity counters since creation (or the
    /// values carried over by a clone).
    pub fn stats(&self) -> PlanStatsSnapshot {
        PlanStatsSnapshot {
            prefetches: self.stats.prefetches.load(Ordering::Relaxed),
            prefetch_extensions: self.stats.prefetch_extensions.load(Ordering::Relaxed),
            writebacks: self.stats.writebacks.load(Ordering::Relaxed),
            writeback_clips: self.stats.writeback_clips.load(Ordering::Relaxed),
            splits: self.stats.splits.load(Ordering::Relaxed),
            split_pieces: self.stats.split_pieces.load(Ordering::Relaxed),
        }
    }

    /// Plans a prefetch starting at `start`: the caller wants `want` sectors
    /// and can tolerate up to `cap`; the planner clips the request at the
    /// next track boundary, and — when `start` opens a track — extends it to
    /// cover the full track even if `want` is smaller (a traxtent-sized
    /// fetch), still respecting `cap`.
    ///
    /// # Panics
    ///
    /// Panics if `start` is at or beyond capacity or `want` is zero.
    pub fn plan_prefetch(&self, start: u64, want: u64, cap: u64) -> u64 {
        assert!(want > 0, "prefetch of zero sectors");
        self.stats.prefetches.fetch_add(1, Ordering::Relaxed);
        let (tstart, tend) = self.boundaries.track_bounds(start);
        let track_remaining = tend - start;
        let len = if start == tstart {
            if track_remaining > want {
                self.stats
                    .prefetch_extensions
                    .fetch_add(1, Ordering::Relaxed);
            }
            track_remaining.max(want)
        } else {
            want
        };
        len.min(track_remaining).min(cap.max(1))
    }

    /// Plans a write-back of dirty data `[start, start + want)`: the request
    /// is clipped at the next track boundary so each disk write stays within
    /// one track.
    ///
    /// # Panics
    ///
    /// Panics if `start` is at or beyond capacity or `want` is zero.
    pub fn plan_writeback(&self, start: u64, want: u64) -> u64 {
        assert!(want > 0, "write-back of zero sectors");
        self.stats.writebacks.fetch_add(1, Ordering::Relaxed);
        let len = self.boundaries.clip_to_track(start, want);
        if len < want {
            self.stats.writeback_clips.fetch_add(1, Ordering::Relaxed);
        }
        len
    }

    /// Splits an arbitrary transfer into track-aligned pieces, each of which
    /// becomes one disk request.
    pub fn split(&self, ext: Extent) -> Vec<Extent> {
        let pieces: Vec<Extent> = self.boundaries.split_extent(ext).collect();
        self.stats.splits.fetch_add(1, Ordering::Relaxed);
        self.stats
            .split_pieces
            .fetch_add(pieces.len() as u64, Ordering::Relaxed);
        pieces
    }

    /// True if `[start, start+len)` stays within one track.
    pub fn is_track_local(&self, start: u64, len: u64) -> bool {
        let (_, end) = self.boundaries.track_bounds(start);
        start + len <= end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn planner() -> RequestPlanner {
        RequestPlanner::new(TrackBoundaries::from_track_lengths([100, 99, 101]).unwrap())
    }

    #[test]
    fn prefetch_from_track_start_takes_whole_track() {
        let p = planner();
        assert_eq!(p.plan_prefetch(0, 8, 1_000), 100);
        assert_eq!(p.plan_prefetch(100, 8, 1_000), 99);
    }

    #[test]
    fn prefetch_mid_track_clips_at_boundary() {
        let p = planner();
        assert_eq!(p.plan_prefetch(90, 64, 1_000), 10);
        assert_eq!(p.plan_prefetch(150, 8, 1_000), 8);
    }

    #[test]
    fn prefetch_respects_cap() {
        let p = planner();
        assert_eq!(p.plan_prefetch(0, 8, 32), 32);
        assert_eq!(
            p.plan_prefetch(0, 8, 0),
            1,
            "cap clamps to at least one sector"
        );
    }

    #[test]
    fn writeback_clips() {
        let p = planner();
        assert_eq!(p.plan_writeback(95, 64), 5);
        assert_eq!(p.plan_writeback(100, 64), 64);
        assert_eq!(p.plan_writeback(100, 200), 99);
    }

    #[test]
    fn split_covers_without_crossing() {
        let p = planner();
        let pieces = p.split(Extent::new(0, 300));
        assert_eq!(pieces.len(), 3);
        for e in &pieces {
            assert!(p.is_track_local(e.start, e.len), "{e} crosses a track");
        }
        assert_eq!(pieces.iter().map(|e| e.len).sum::<u64>(), 300);
    }

    #[test]
    #[should_panic(expected = "zero sectors")]
    fn zero_prefetch_panics() {
        planner().plan_prefetch(0, 0, 10);
    }

    #[test]
    fn stats_count_planner_activity() {
        let p = planner();
        let _ = p.plan_prefetch(0, 8, 1_000); // opens track 0 → extended
        let _ = p.plan_prefetch(150, 8, 1_000); // mid-track → not extended
        let _ = p.plan_writeback(95, 64); // clipped at 100
        let _ = p.plan_writeback(100, 32); // fits
        let pieces = p.split(Extent::new(0, 300));
        let s = p.stats();
        assert_eq!(s.prefetches, 2);
        assert_eq!(s.prefetch_extensions, 1);
        assert_eq!(s.writebacks, 2);
        assert_eq!(s.writeback_clips, 1);
        assert_eq!(s.splits, 1);
        assert_eq!(s.split_pieces, pieces.len() as u64);
        // Clones carry the counters over.
        assert_eq!(p.clone().stats(), s);
    }
}
