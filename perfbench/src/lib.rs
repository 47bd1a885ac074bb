//! End-to-end and per-layer benchmark of the traxtent storage stack.
//!
//! Four workloads drive the stack only through its public APIs:
//!
//! * `disk_mixed` — open-loop random + track-aligned stream traffic on a
//!   bare Atlas 10K II whose boundaries came from dixtrac's general
//!   (timing) extractor, served by the traxtent scheduler;
//! * `disk_observed` — the same traffic with causal spans, the drive span
//!   bridge and an SLO timeline all on, plus span validation and export;
//! * `raid5_mixed` — open-loop traffic on a heterogeneous RAID-5 ×5, then
//!   an armed write-heavy tail, a power cut, scrub and repair;
//! * `ffs_crash` — a closed-loop Postmark-style file-system client with
//!   large-file phases on a crash-shadowed traxtent FFS, then a power cut
//!   and replay / fsck / check / mount.
//!
//! Every run checks its outputs (see [`Gate`]) and prints one JSON line
//! last: the end-to-end metrics ([`END_TO_END`]) with `--trace 0`, the
//! per-layer metrics ([`PER_LAYER`]) with `--trace 1`. Host times are
//! what the simulator costs on this machine; `sim_*` values are what the
//! modelled drives would do, and never depend on host speed.

mod disk;
mod fs;
mod layers;
mod raid;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One metric definition: name, unit, and which direction is better.
pub type MetricDef = (&'static str, &'static str, &'static str);

/// End-to-end metrics: printed by every workload with `--trace 0`.
pub const END_TO_END: &[MetricDef] = &[
    ("setup_s", "s", "lower"),
    ("ops_per_host_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("sim_p50_ms", "ms", "lower"),
    ("sim_p99_ms", "ms", "lower"),
    ("sim_p999_ms", "ms", "lower"),
];

/// Per-layer metrics: printed by every workload with `--trace 1`. A layer
/// a workload does not load reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    // Workload-specific end-to-end figures (not every workload has them).
    ("recovery_s", "s", "lower"),
    ("export_s", "s", "lower"),
    ("sim_rate_at_slo_rps", "1/s", "higher"),
    ("error_frac", "ratio", "lower"),
    ("sim_samples", "count", "higher"),
    // Tracing overhead: the same reps with and without benchmark spans.
    ("bench.traced_ops_per_host_s", "1/s", "higher"),
    ("bench.untraced_ops_per_host_s", "1/s", "higher"),
    ("bench.trace_overhead", "ratio", "lower"),
    ("bench.raw_ops_per_host_s", "1/s", "higher"),
    // sim_disk
    ("sim_disk.host_ns_per_cmd", "ns", "lower"),
    ("sim_disk.cmds", "count", "lower"),
    ("sim_disk.busy_frac", "ratio", "lower"),
    ("sim_disk.cache_hit_frac", "ratio", "higher"),
    ("sim_disk.efficiency", "ratio", "higher"),
    ("sim_disk.seek_ms", "ms", "lower"),
    ("sim_disk.rot_wait_ms", "ms", "lower"),
    ("sim_disk.media_ms", "ms", "lower"),
    ("sim_disk.bus_ms", "ms", "lower"),
    ("sim_disk.crash_log_writes", "count", "lower"),
    ("sim_disk.crash_payload_mb", "MB", "lower"),
    ("sim_disk.replay_s", "s", "lower"),
    // dixtrac / scsi
    ("dixtrac.extract_s", "s", "lower"),
    ("dixtrac.host_us_per_track", "us", "lower"),
    ("scsi.cmds_per_track", "count", "lower"),
    ("dixtrac.exact_frac", "ratio", "higher"),
    ("dixtrac.mean_confidence", "ratio", "higher"),
    // server
    ("server.host_ns_per_req", "ns", "lower"),
    ("server.cmds_per_req", "ratio", "lower"),
    ("server.coalesced_frac", "ratio", "higher"),
    ("server.mean_depth", "count", "lower"),
    ("server.max_depth", "count", "lower"),
    ("server.queue_wait_ms", "ms", "lower"),
    // obs
    ("obs.spans_per_req", "count", "lower"),
    ("obs.host_ns_per_span", "ns", "lower"),
    ("obs.export_bytes_per_req", "bytes", "lower"),
    ("obs.export_host_ns_per_span", "ns", "lower"),
    // fleet
    ("fleet.host_ns_per_req", "ns", "lower"),
    ("fleet.member_cmds_per_req", "ratio", "lower"),
    ("fleet.member_busy_min_frac", "ratio", "lower"),
    ("fleet.member_busy_max_frac", "ratio", "lower"),
    ("fleet.arm_crash_s", "s", "lower"),
    ("fleet.armed_host_ns_per_req", "ns", "lower"),
    ("fleet.power_cut_s", "s", "lower"),
    ("fleet.scrub_repair_s", "s", "lower"),
    ("fleet.write_holes", "count", "lower"),
    ("fleet.repaired_sectors", "count", "lower"),
    // ffs
    ("ffs.create_host_ns", "ns", "lower"),
    ("ffs.read_host_ns", "ns", "lower"),
    ("ffs.write_host_ns", "ns", "lower"),
    ("ffs.delete_host_ns", "ns", "lower"),
    ("ffs.cache_hit_frac", "ratio", "higher"),
    ("ffs.disk_cmds_per_call", "ratio", "lower"),
    ("ffs.mean_request_kb", "KB", "higher"),
    ("ffs.alloc_track_aligned_frac", "ratio", "higher"),
    ("ffs.fsck_s", "s", "lower"),
    ("ffs.mount_s", "s", "lower"),
    ("ffs.fsck_repairs", "count", "lower"),
];

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open-loop mixed traffic on a bare drive, observability off.
    DiskMixed,
    /// The same traffic with spans, drive bridge and timeline on.
    DiskObserved,
    /// Open-loop traffic plus a crash tail on RAID-5 ×5.
    Raid5Mixed,
    /// Closed-loop file-system client with a power cut and fsck.
    FfsCrash,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::DiskMixed,
        Workload::DiskObserved,
        Workload::Raid5Mixed,
        Workload::FfsCrash,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DiskMixed => "disk_mixed",
            Workload::DiskObserved => "disk_observed",
            Workload::Raid5Mixed => "raid5_mixed",
            Workload::FfsCrash => "ffs_crash",
        }
    }
}

/// Input sizes: `Full` for measurement, `Tiny` for the benchmark's own
/// tests (every code path, a fraction of a second per workload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Measurement sizes.
    Full,
    /// Smoke-test sizes.
    Tiny,
}

/// A deliberate corruption of one workload output, so tests can show the
/// gate catches it. `None` in every measured run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corrupt {
    /// Nothing corrupted.
    None,
    /// Drop one client completion before the accounting check.
    DropCompletion,
    /// Point one exported span at a parent that does not exist.
    SpanParent,
    /// Leave the RAID-5 write holes of the power cut unrepaired, so the
    /// re-scrub sees parity words that disagree with their data.
    SkipRepair,
    /// Flip bytes of a metadata sector in the repaired FFS image.
    FfsImage,
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every input derives from.
    pub seed: u64,
    /// Wall seconds the timed phase runs for (at least one rep).
    pub seconds: f64,
    /// `--trace 1`: the traced run printing per-layer metrics.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Deliberate corruption (tests only).
    pub corrupt: Corrupt,
}

/// The usage line printed on bad arguments.
pub const USAGE: &str =
    "usage: perfbench --workload <disk_mixed|disk_observed|raid5_mixed|ffs_crash> \
     --seed <n> --seconds <n> --trace <0|1> [--scale full|tiny] \
     [--corrupt none|drop-completion|span-parent|skip-repair|ffs-image]";

impl Args {
    /// Parses `args` (without the program name).
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut scale = Scale::Full;
        let mut corrupt = Corrupt::None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::ALL
                            .into_iter()
                            .find(|w| w.name() == value)
                            .ok_or_else(|| format!("unknown workload `{value}`"))?,
                    )
                }
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
                "--seconds" => {
                    let s: f64 = value
                        .parse()
                        .map_err(|_| format!("bad seconds `{value}`"))?;
                    if !(0.0..=3600.0).contains(&s) {
                        return Err(format!("seconds `{value}` out of range"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad trace `{value}` (0 or 1)")),
                    })
                }
                "--scale" => {
                    scale = match value.as_str() {
                        "full" => Scale::Full,
                        "tiny" => Scale::Tiny,
                        _ => return Err(format!("bad scale `{value}`")),
                    }
                }
                "--corrupt" => {
                    corrupt = match value.as_str() {
                        "none" => Corrupt::None,
                        "drop-completion" => Corrupt::DropCompletion,
                        "span-parent" => Corrupt::SpanParent,
                        "skip-repair" => Corrupt::SkipRepair,
                        "ffs-image" => Corrupt::FfsImage,
                        _ => return Err(format!("bad corruption `{value}`")),
                    }
                }
                _ => return Err(format!("unknown flag `{flag}`")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
            scale,
            corrupt,
        })
    }
}

/// The correctness gate: every named check of one run. Any failure fails
/// the run.
#[derive(Debug, Default)]
pub struct Gate {
    checks: Vec<(String, Result<(), String>)>,
}

impl Gate {
    /// Records a boolean check; `detail` explains a failure. A check run
    /// again under the same name (once per rep, say) is one entry that
    /// keeps the first failure.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        let r = if ok { Ok(()) } else { Err(detail()) };
        match self.checks.iter_mut().find(|(n, _)| n == name) {
            Some((_, prev)) => {
                if prev.is_ok() {
                    *prev = r;
                }
            }
            None => self.checks.push((name.to_string(), r)),
        }
    }

    /// Records a check that produced a `Result`.
    pub fn result<T, E: std::fmt::Display>(&mut self, name: &str, r: &Result<T, E>) {
        let err = r.as_ref().err().map(|e| e.to_string());
        self.check(name, err.is_none(), || err.unwrap_or_default());
    }

    /// Whether every check passed (and at least one ran).
    pub fn passed(&self) -> bool {
        !self.checks.is_empty() && self.checks.iter().all(|(_, r)| r.is_ok())
    }

    /// Names of failed checks with their reasons.
    pub fn failures(&self) -> Vec<String> {
        self.checks
            .iter()
            .filter_map(|(n, r)| r.as_ref().err().map(|e| format!("{n}: {e}")))
            .collect()
    }

    /// Human-readable check list.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, r) in &self.checks {
            match r {
                Ok(()) => writeln!(out, "check {name}: ok"),
                Err(e) => writeln!(out, "check {name}: FAILED ({e})"),
            }
            .expect("writing to a String cannot fail");
        }
        out
    }
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations offered in the measured work (per rep).
    pub offered: u64,
    /// Operations refused admission.
    pub rejected: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Every metric the run produced, by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Extra human-readable report lines (percentile sample counts, the
    /// self-time table, tracing overhead).
    pub notes: Vec<String>,
    /// The correctness gate.
    pub gate: Gate,
}

impl Outcome {
    /// Sets metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|m| m.0 == name),
            "unknown metric {name}"
        );
        self.values.insert(name, value);
    }

    /// Adds the three simulated response-time percentiles of `ms`, with
    /// their sample counts in the notes.
    pub fn set_sim_percentiles(&mut self, ms: &[f64]) {
        if ms.is_empty() {
            self.gate
                .check("sim_samples", false, || "no completed operations".into());
            return;
        }
        let n = ms.len();
        for (name, p) in [
            ("sim_p50_ms", 0.50),
            ("sim_p99_ms", 0.99),
            ("sim_p999_ms", 0.999),
        ] {
            let v = traxtent::stats::percentile(ms, p);
            let beyond = ((1.0 - p) * n as f64).floor() as u64;
            self.notes.push(format!(
                "{name} = {v:.4} ms over {n} samples ({beyond} beyond)"
            ));
            self.set(name, v);
        }
        self.set("sim_samples", n as f64);
    }

    /// Records the accounting identity and the error fraction.
    pub fn account(&mut self, offered: u64, completed: u64, rejected: u64, failed: u64) {
        self.offered = offered;
        self.rejected = rejected;
        self.failed = failed;
        self.gate.check(
            "accounting completed+rejected+failed==offered",
            completed + rejected + failed == offered,
            || format!("{completed}+{rejected}+{failed} != {offered}"),
        );
        self.set(
            "error_frac",
            (rejected + failed) as f64 / offered.max(1) as f64,
        );
    }

    /// The final JSON line for `--trace 0` (end-to-end) or `--trace 1`
    /// (per-layer). Fails when a required end-to-end metric is missing
    /// or any value is not finite.
    pub fn json(&self, trace: bool) -> Result<String, String> {
        let defs = if trace { PER_LAYER } else { END_TO_END };
        let mut metrics = String::new();
        for (i, (name, unit, _)) in defs.iter().enumerate() {
            let v = match self.values.get(name) {
                Some(v) => *v,
                None if trace => 0.0,
                None => return Err(format!("metric {name} was not measured")),
            };
            if !v.is_finite() {
                return Err(format!("metric {name} is {v}"));
            }
            if i > 0 {
                metrics.push(',');
            }
            write!(metrics, "\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}")
                .expect("writing to a String cannot fail");
        }
        Ok(format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
            self.gate.passed(),
            self.offered.max(1),
            self.rejected + self.failed
        ))
    }
}

/// Median of a sample (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        traxtent::stats::percentile(xs, 0.5)
    }
}

/// The process's resident-set high-water mark in MB (`VmHWM` of
/// `/proc/self/status`), or `None` where the kernel does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// A SplitMix64-derived sub-seed: every input stream of a run derives
/// from the run seed and a fixed per-stream salt.
pub fn sub_seed(seed: u64, salt: u64) -> u64 {
    sim_disk::crash::splitmix(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Order-sensitive fingerprint of a sequence of words (for comparing
/// inputs and simulated outcomes bit for bit).
pub fn fingerprint(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0x7261_7874_656e_7473, |h, w| {
        sim_disk::crash::splitmix(h ^ w)
    })
}

/// Seconds elapsed since `t`.
pub fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Wall seconds the calibration kernel takes on the reference host.
const CALIBRATION_REF_S: f64 = 0.05;

/// Runs the calibration kernel — sorting, ordered-map inserts and range
/// lookups, float math and number formatting, a mix like the simulator's
/// own — and returns its wall seconds.
///
/// Shared runners change speed by ±20 % over tens of seconds. Timing the
/// kernel right after each measured step and scaling the step's wall time
/// by [`CALIBRATION_REF_S`] / kernel time turns it into reference-host
/// seconds, which cancels most of that drift; the kernel never changes
/// with the program under test.
pub fn calibration_s() -> f64 {
    let t0 = Instant::now();
    let mut h = 11u64;
    let mut acc = 0u64;
    let mut text = String::new();
    for _ in 0..8 {
        let mut map = BTreeMap::new();
        let mut xs: Vec<f64> = Vec::with_capacity(20_000);
        for i in 0..20_000u64 {
            h = sim_disk::crash::splitmix(h);
            map.insert(h % 50_000, i);
            xs.push((h >> 11) as f64 * 1e-6);
        }
        xs.sort_by(f64::total_cmp);
        for i in 0..20_000u64 {
            h = sim_disk::crash::splitmix(h ^ i);
            if let Some((_, v)) = map.range(h % 50_000..).next() {
                acc = acc.wrapping_add(*v);
            }
        }
        acc = acc.wrapping_add(xs.iter().map(|x| x.sqrt()).sum::<f64>() as u64);
        text.clear();
        for x in xs.iter().step_by(50) {
            write!(text, "{x:.3}").expect("writing to a String cannot fail");
        }
        acc = acc.wrapping_add(text.len() as u64);
    }
    std::hint::black_box(acc);
    secs_since(t0)
}

/// `wall_s` of this host, measured just before a calibration run that
/// took `calibration_s`, in reference-host seconds.
pub fn reference_s(wall_s: f64, calibration_s: f64) -> f64 {
    wall_s * CALIBRATION_REF_S / calibration_s
}

/// Operations and host wall seconds of one measured rep.
#[derive(Debug, Clone, Copy, Default)]
pub struct RepTime {
    /// Operations the rep completed.
    pub ops: u64,
    /// Wall seconds of the rep's timed steps.
    pub secs: f64,
}

/// Per-pass throughputs of a timed phase, in operations per
/// reference-host second (see [`calibration_s`]); `raw` is the untraced
/// passes' plain wall-clock rate.
#[derive(Debug, Default)]
pub struct Rates {
    /// Untraced passes.
    pub untraced: Vec<f64>,
    /// Traced passes (only in the traced run).
    pub traced: Vec<f64>,
    /// Untraced passes, per wall second.
    pub raw: Vec<f64>,
}

/// The timed phase: runs `rep(index, traced)` in passes of `unit` reps
/// until `seconds` of wall time have passed, at least one pass (two in the
/// traced run, whose odd passes are traced). After every rep the
/// calibration kernel runs, untimed, to convert the rep's wall time.
pub fn timed_passes(
    seconds: f64,
    unit: usize,
    trace: bool,
    mut rep: impl FnMut(usize, bool) -> RepTime,
) -> Rates {
    let start = Instant::now();
    let min_passes = if trace { 2 } else { 1 };
    let mut rates = Rates::default();
    let mut pass = 0;
    while pass < min_passes || start.elapsed().as_secs_f64() < seconds {
        let traced = trace && pass % 2 == 1;
        let (mut ops, mut wall, mut reference) = (0, 0.0, 0.0);
        for k in 0..unit {
            let t = rep(pass * unit + k, traced);
            ops += t.ops;
            wall += t.secs;
            reference += reference_s(t.secs, calibration_s());
        }
        let ops = ops as f64;
        if traced {
            rates.traced.push(ops / reference);
        } else {
            rates.untraced.push(ops / reference);
            rates.raw.push(ops / wall);
        }
        pass += 1;
    }
    rates
}

/// Runs set-up `f` (which returns the wall seconds it timed) at least
/// three times and until a second of set-up has been timed (once at tiny
/// scale); returns the median in reference-host seconds, and notes the
/// wall-clock median.
pub fn repeat_setup(
    out: &mut Outcome,
    scale: Scale,
    mut f: impl FnMut(&mut Outcome) -> f64,
) -> f64 {
    let (min_reps, budget_s) = match scale {
        Scale::Full => (3, 1.0),
        Scale::Tiny => (1, 0.0),
    };
    let (mut wall, mut reference) = (Vec::new(), Vec::new());
    while wall.len() < min_reps || (wall.iter().sum::<f64>() < budget_s && wall.len() < 100) {
        let s = f(out);
        wall.push(s);
        reference.push(reference_s(s, calibration_s()));
    }
    out.notes.push(format!(
        "setup_s over {} reps: {:.4} reference s, {:.4} wall s",
        wall.len(),
        median(&reference),
        median(&wall)
    ));
    median(&reference)
}

/// Runs the selected workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = match args.workload {
        Workload::DiskMixed => disk::run_mixed(args),
        Workload::DiskObserved => disk::run_observed(args),
        Workload::Raid5Mixed => raid::run(args),
        Workload::FfsCrash => fs::run(args),
    };
    match peak_rss_mb() {
        Some(mb) => out.set("peak_rss_mb", mb),
        None => out
            .gate
            .check("peak_rss", false, || "VmHWM unavailable".into()),
    }
    out
}

/// Sets `ops_per_host_s` (median over untraced passes) and, in the traced
/// run, the traced-vs-untraced comparison that is the tracing overhead.
pub fn set_rates(out: &mut Outcome, rates: &Rates) {
    let (u, raw) = (median(&rates.untraced), median(&rates.raw));
    out.set("ops_per_host_s", u);
    out.set("bench.raw_ops_per_host_s", raw);
    out.notes.push(format!(
        "ops_per_host_s over {} untraced passes: {u:.1} per reference s, {raw:.1} per wall s",
        rates.untraced.len()
    ));
    if rates.traced.is_empty() {
        return;
    }
    let t = median(&rates.traced);
    out.set("bench.untraced_ops_per_host_s", u);
    out.set("bench.traced_ops_per_host_s", t);
    out.set("bench.trace_overhead", u / t);
    out.notes.push(format!(
        "tracing overhead: ops_per_host_s traced {t:.1} vs untraced {u:.1} ({} vs {} passes)",
        rates.traced.len(),
        rates.untraced.len()
    ));
}
