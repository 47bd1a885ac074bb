//! `ffs_crash`: a closed-loop file-system client, a power cut, recovery.
//!
//! One client runs a pre-generated call sequence on a Traxtent-personality
//! FFS over an Atlas 10K II, formatted with boundaries from `extract_auto`
//! (SCSI path) and with the crash shadow on from mkfs. The sequence mixes
//! Postmark-style transactions on small files (5–10 KB; read or append,
//! then create or delete, each 1:1) whose working set fits the 64 MB
//! buffer cache, with large-file phases (write, scan, copy) whose working
//! set does not, plus periodic `sync` and `checkpoint_metadata`. Power is
//! then cut at a seed-chosen instant and recovery runs `replay`, `fsck`,
//! `check` and `mount`.

use crate::disk::{extract, set_extraction};
use crate::layers::Layers;
use crate::{fingerprint, median, repeat_setup, secs_since, set_rates, sub_seed};
use crate::{timed_passes, Args, Corrupt, Outcome, RepTime, Scale};
use ffs::fsck::{check, fsck, mount};
use ffs::image::{is_meta_block, meta_lbn};
use ffs::{FileId, FileSystem, Personality, BLOCK_SECTORS};
use sim_disk::crash::{replay, splitmix, SectorImage};
use sim_disk::disk::{Disk, DiskConfig};
use sim_disk::{models, SimTime};
use std::collections::BTreeSet;
use std::time::Instant;
use traxtent::obs::Registry;
use traxtent::ConfidentBoundaries;

const KB: u64 = 1024;
const MB: u64 = 1024 * KB;
/// Small-file sizes and append lengths.
const SMALL_MIN: u64 = 5 * KB;
const SMALL_MAX: u64 = 10 * KB;
/// Large-file phases: this many files of this size (the crash shadow
/// bounds one inode to 29 extents, so a phase's bulk is many files).
const LARGE_FILE: u64 = 4 * MB;
/// Large-file calls move this much each.
const CHUNK: u64 = MB;
/// Tracks below this extraction confidence are handled untracked.
const CONFIDENCE: f64 = 0.9;

struct Sizes {
    pool: usize,
    txns: usize,
    large_files: usize,
    sync_every: usize,
    checkpoint_every: usize,
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        // 18 × 4 MB = 72 MB written and scanned, then half of it copied
        // (36 MB read + 36 MB written): each phase's working set is more
        // than the 64 MB buffer cache.
        Scale::Full => Sizes {
            pool: 600,
            txns: 10_000,
            large_files: 18,
            sync_every: 100,
            checkpoint_every: 500,
        },
        Scale::Tiny => Sizes {
            pool: 40,
            txns: 400,
            large_files: 2,
            sync_every: 100,
            checkpoint_every: 200,
        },
    }
}

/// One file-system call; files are named by slot (creation order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// Create the file of this slot.
    Create(usize),
    /// Delete it.
    Delete(usize),
    /// Read `len` bytes at `off`.
    Read(usize, u64, u64),
    /// Write `len` bytes at `off` (at most at the current end).
    Write(usize, u64, u64),
    /// Flush dirty data.
    Sync,
    /// Write every group's metadata.
    Checkpoint,
}

/// A client operation: a Postmark transaction (read or append, then
/// create or delete) or one step of a large-file phase. Its simulated
/// latency is one sample of the `sim_*` percentiles.
pub type ClientOp = Vec<Call>;

/// The seeded call sequence: small-file pool, transactions, and two
/// large-file phases (write + scan; copy half + scan + delete) at a third
/// and two thirds of the way.
pub fn script(scale: Scale, seed: u64) -> Vec<ClientOp> {
    let sz = sizes(scale);
    let mut h = sub_seed(seed, 20);
    let mut next = move || {
        h = splitmix(h);
        h
    };
    let mut sizes_of: Vec<u64> = Vec::new();
    let mut live: Vec<usize> = Vec::new();
    let mut ops: Vec<ClientOp> = Vec::new();
    let create = |sizes_of: &mut Vec<u64>, len: u64| {
        let slot = sizes_of.len();
        sizes_of.push(len);
        (slot, vec![Call::Create(slot), Call::Write(slot, 0, len)])
    };
    for _ in 0..sz.pool {
        let len = SMALL_MIN + next() % (SMALL_MAX - SMALL_MIN);
        let (slot, op) = create(&mut sizes_of, len);
        live.push(slot);
        ops.push(op);
    }
    let mut large: Vec<usize> = Vec::new();
    for t in 1..=sz.txns {
        let f = live[(next() % live.len() as u64) as usize];
        let mut op = if next() % 2 == 0 {
            vec![Call::Read(f, 0, sizes_of[f])]
        } else {
            let len = SMALL_MIN / 4 + next() % (SMALL_MAX / 4);
            let off = sizes_of[f];
            sizes_of[f] += len;
            vec![Call::Write(f, off, len)]
        };
        if next() % 2 == 0 || live.len() < 2 {
            let len = SMALL_MIN + next() % (SMALL_MAX - SMALL_MIN);
            let (slot, calls) = create(&mut sizes_of, len);
            live.push(slot);
            op.extend(calls);
        } else {
            let victim = live.swap_remove((next() % live.len() as u64) as usize);
            op.push(Call::Delete(victim));
        }
        ops.push(op);
        if t % sz.sync_every == 0 {
            ops.push(vec![Call::Sync]);
        }
        if t % sz.checkpoint_every == 0 {
            ops.push(vec![Call::Checkpoint]);
        }
        let scan = |ops: &mut Vec<ClientOp>, files: &[usize]| {
            for &f in files {
                for off in (0..LARGE_FILE).step_by(CHUNK as usize) {
                    ops.push(vec![Call::Read(f, off, CHUNK)]);
                }
            }
        };
        if t == sz.txns / 3 {
            // Phase 1: write the large files, each synced when written,
            // then scan them back.
            for _ in 0..sz.large_files {
                let slot = sizes_of.len();
                sizes_of.push(LARGE_FILE);
                large.push(slot);
                ops.push(vec![Call::Create(slot)]);
                for off in (0..LARGE_FILE).step_by(CHUNK as usize) {
                    ops.push(vec![Call::Write(slot, off, CHUNK)]);
                }
                ops.push(vec![Call::Sync]);
            }
            scan(&mut ops, &large);
        }
        if t == 2 * sz.txns / 3 {
            // Phase 2: copy half the large files (each copy synced),
            // scan the copies, delete the originals.
            let mut copies = Vec::new();
            for &src in &large[..large.len() / 2] {
                let dst = sizes_of.len();
                sizes_of.push(LARGE_FILE);
                copies.push(dst);
                ops.push(vec![Call::Create(dst)]);
                for off in (0..LARGE_FILE).step_by(CHUNK as usize) {
                    ops.push(vec![
                        Call::Read(src, off, CHUNK),
                        Call::Write(dst, off, CHUNK),
                    ]);
                }
                ops.push(vec![Call::Sync]);
            }
            scan(&mut ops, &copies);
            for &src in &large {
                ops.push(vec![Call::Delete(src)]);
            }
        }
    }
    ops
}

fn script_fingerprint(ops: &[ClientOp]) -> u64 {
    fingerprint(ops.iter().flatten().flat_map(|c| match *c {
        Call::Create(s) => [1, s as u64, 0, 0],
        Call::Delete(s) => [2, s as u64, 0, 0],
        Call::Read(s, o, l) => [3, s as u64, o, l],
        Call::Write(s, o, l) => [4, s as u64, o, l],
        Call::Sync => [5, 0, 0, 0],
        Call::Checkpoint => [6, 0, 0, 0],
    }))
}

/// mkfs with extracted boundaries and the crash shadow on; returns the
/// file system and its clean on-media image.
fn mkfs(cfg: &DiskConfig, map: &ConfidentBoundaries, salt: u64) -> (FileSystem, SectorImage) {
    let mut fs = FileSystem::format_confident(
        Disk::new(cfg.clone()),
        Personality::Traxtent,
        map,
        CONFIDENCE,
    );
    fs.enable_crash_shadow(salt);
    let initial = fs.format_image();
    (fs, initial)
}

/// What running the script produced.
struct Ran {
    latencies_ms: Vec<f64>,
    calls: u64,
    failed: u64,
    created: BTreeSet<u64>,
    fingerprint: u64,
}

fn run_script(fs: &mut FileSystem, ops: &[ClientOp], layers: &Layers) -> Ran {
    let mut ids: Vec<FileId> = Vec::new();
    let mut ran = Ran {
        latencies_ms: Vec::with_capacity(ops.len()),
        calls: 0,
        failed: 0,
        created: BTreeSet::new(),
        fingerprint: 0,
    };
    for op in ops {
        let start = fs.now();
        let mut ok = true;
        for &call in op {
            ran.calls += 1;
            // Slots are numbered in creation order, so slot `s` is `ids[s]`.
            ok &= match call {
                Call::Create(s) => {
                    let f = layers.span("ffs.create", || fs.create());
                    ran.created.insert(f.raw());
                    ids.push(f);
                    s + 1 == ids.len()
                }
                Call::Delete(s) => ids
                    .get(s)
                    .is_some_and(|&f| layers.span("ffs.delete", || fs.delete(f)).is_ok()),
                Call::Read(s, off, len) => ids
                    .get(s)
                    .is_some_and(|&f| layers.span("ffs.read", || fs.read(f, off, len)).is_ok()),
                Call::Write(s, off, len) => ids
                    .get(s)
                    .is_some_and(|&f| layers.span("ffs.write", || fs.write(f, off, len)).is_ok()),
                Call::Sync => {
                    layers.span("ffs.sync", || fs.sync());
                    true
                }
                Call::Checkpoint => {
                    layers.span("ffs.checkpoint", || fs.checkpoint_metadata());
                    true
                }
            };
        }
        ran.failed += u64::from(!ok);
        ran.latencies_ms.push(fs.now().since(start).as_millis_f64());
    }
    ran.fingerprint = fingerprint(
        ran.latencies_ms
            .iter()
            .map(|m| m.to_bits())
            .chain([fs.now().as_ns()]),
    );
    ran
}

/// Mid-record durable instants of metadata writes in the last quarter of
/// the log: cutting there tears a metadata block, so fsck has work.
fn cut_candidates(log: &sim_disk::crash::CrashLog) -> Vec<SimTime> {
    let tail = log.records.len() * 3 / 4;
    log.records[tail..]
        .iter()
        .filter(|r| is_meta_block(r.lbn / BLOCK_SECTORS) && r.durable.len() >= 2)
        .map(|r| r.durable[r.durable.len() / 2])
        .collect()
}

/// Runs `ffs_crash`.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let layers = Layers::new(args.trace);
    let cfg = models::quantum_atlas_10k_ii();
    let salt = sub_seed(args.seed, 21);

    // Set-up: extraction (SCSI path), mkfs, crash shadow.
    let mut last = None;
    let setup_s = repeat_setup(&mut out, args.scale, |out| {
        let t0 = Instant::now();
        let ex = extract(&cfg, &layers, out);
        drop(mkfs(&cfg, &ex.boundaries, salt));
        let s = secs_since(t0);
        last = Some(ex);
        s
    });
    out.set("setup_s", setup_s);
    let ex = last.expect("set-up ran");
    set_extraction(&mut out, std::slice::from_ref(&ex));
    let map = ex.boundaries;

    let ops = script(args.scale, args.seed);
    let other = script(args.scale, args.seed.wrapping_add(1));
    out.gate.check(
        "seed changes inputs",
        script_fingerprint(&ops) != script_fingerprint(&other),
        || "two seeds gave one call sequence".into(),
    );
    drop(other);
    let cut_pick = sub_seed(args.seed, 22);

    let mut first: Option<Ran> = None;
    let mut same = true;
    let (mut replay_s, mut fsck_s, mut mount_s, mut recovery_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut recovered_ok = true;
    let mut detail = String::new();
    let mut stats = None;
    let off = Layers::new(false);
    let rates = timed_passes(args.seconds, 1, args.trace, |_, traced| {
        let (mut fs, initial) = mkfs(&cfg, &map, salt);
        let l = if traced { &layers } else { &off };
        let t0 = Instant::now();
        let ran = run_script(&mut fs, &ops, l);
        let timed = RepTime {
            ops: ops.len() as u64,
            secs: secs_since(t0),
        };
        if let Some(e) = fs.shadow_error() {
            recovered_ok = false;
            detail = format!("crash shadow lost track: {e:?}");
        }

        // Power cut and recovery.
        let layout = fs.layout().clone();
        let log = fs
            .disk_mut()
            .take_crash_log()
            .expect("the shadow arms the log");
        let cands = cut_candidates(&log);
        let cut = match cands.len() {
            0 => log.horizon(),
            n => cands[(cut_pick % n as u64) as usize],
        };
        let t1 = Instant::now();
        let img = l.span("sim_disk.replay", || replay(&initial, &log, cut));
        replay_s.push(secs_since(t1));
        let mut img = img.unwrap_or_else(|e| {
            recovered_ok = false;
            detail = format!("replay: {e}");
            initial.clone()
        });
        let t2 = Instant::now();
        let report = l.span("ffs.fsck", || fsck(&mut img, &layout));
        fsck_s.push(secs_since(t2));
        if args.corrupt == Corrupt::FfsImage {
            let lbn = meta_lbn(0);
            let mut s = img.read(lbn);
            s[40] ^= 0xff;
            img.write(lbn, &s);
        }
        let t3 = Instant::now();
        let checked = l.span("ffs.check", || check(&img, &layout));
        let mounted = l.span("ffs.mount", || mount(&img, &layout));
        mount_s.push(secs_since(t3));
        recovery_s.push(secs_since(t1));
        match (&checked, &mounted) {
            (Ok(()), Ok(m)) => {
                let listed = m.files.len() as u64 == report.files
                    && m.files.keys().all(|id| ran.created.contains(id));
                if !listed {
                    recovered_ok = false;
                    detail = format!(
                        "mount lists {} files, fsck kept {}",
                        m.files.len(),
                        report.files
                    );
                }
            }
            _ => {
                recovered_ok = false;
                detail = format!("check {checked:?}, mount {:?}", mounted.as_ref().err());
            }
        }
        match &first {
            None => {
                let reg = Registry::new();
                fs.export_metrics(&reg);
                let snap = reg.snapshot();
                let g = |k: &str| snap.get(k).unwrap_or(0) as f64;
                let placed = g("ffs.alloc.sequential")
                    + g("ffs.alloc.track_aligned")
                    + g("ffs.alloc.fallback");
                let st = fs.stats();
                let (hits, misses) = fs.cache_stats();
                let (dh, dm) = fs.disk().cache_stats();
                let repairs = report.bitmaps_rebuilt
                    + report.bad_inode_sectors
                    + report.duplicate_inodes
                    + report.truncated_files
                    + report.double_refs
                    + report.leaked_blocks
                    + report.lost_blocks
                    + report.free_counts_fixed;
                let payload: u64 = log
                    .records
                    .iter()
                    .map(|r| r.payload.as_ref().map_or(0, |p| p.len() as u64))
                    .sum();
                stats = Some([
                    (
                        "ffs.cache_hit_frac",
                        hits as f64 / (hits + misses).max(1) as f64,
                    ),
                    (
                        "ffs.disk_cmds_per_call",
                        (st.disk_reads + st.disk_writes) as f64 / ran.calls as f64,
                    ),
                    ("ffs.mean_request_kb", st.mean_request_bytes() / KB as f64),
                    (
                        "ffs.alloc_track_aligned_frac",
                        g("ffs.alloc.track_aligned") / placed.max(1.0),
                    ),
                    ("ffs.fsck_repairs", repairs as f64),
                    ("sim_disk.cmds", (st.disk_reads + st.disk_writes) as f64),
                    (
                        "sim_disk.busy_frac",
                        fs.disk().busy_ns() as f64 / fs.now().as_ns().max(1) as f64,
                    ),
                    (
                        "sim_disk.cache_hit_frac",
                        dh as f64 / (dh + dm).max(1) as f64,
                    ),
                    ("sim_disk.crash_log_writes", log.len() as f64),
                    ("sim_disk.crash_payload_mb", payload as f64 / MB as f64),
                ]);
                first = Some(ran);
            }
            Some(f) => same &= f.fingerprint == ran.fingerprint,
        }
        timed
    });
    let ran = first.expect("at least one rep");
    out.gate.check(
        "sim results bit-identical across reps (traced and untraced)",
        same,
        || "a rep's latencies differ from the first rep's".into(),
    );
    out.gate.check(
        "after fsck, check passes and mount lists the recovered files",
        recovered_ok,
        || detail.clone(),
    );
    set_rates(&mut out, &rates);
    out.set("recovery_s", median(&recovery_s));
    out.set("sim_disk.replay_s", median(&replay_s));
    out.set("ffs.fsck_s", median(&fsck_s));
    out.set("ffs.mount_s", median(&mount_s));
    for (k, v) in stats.expect("first rep recorded") {
        out.set(k, v);
    }
    if args.trace {
        for (metric, span) in [
            ("ffs.create_host_ns", "ffs.create"),
            ("ffs.read_host_ns", "ffs.read"),
            ("ffs.write_host_ns", "ffs.write"),
            ("ffs.delete_host_ns", "ffs.delete"),
        ] {
            let t = layers.get(span);
            out.set(metric, t.total_ns as f64 / t.calls.max(1) as f64);
        }
        out.notes.push(layers.table());
    }
    let mut ms = ran.latencies_ms;
    let mut completed = ops.len() as u64 - ran.failed;
    if args.corrupt == Corrupt::DropCompletion {
        completed -= 1;
        ms.pop();
    }
    out.account(ops.len() as u64, completed, 0, ran.failed);
    out.set_sim_percentiles(&ms);
    out.notes.push(format!(
        "ffs: {} client ops, {} calls, {} files ever created",
        ops.len(),
        ran.calls,
        ran.created.len()
    ));
    out
}
