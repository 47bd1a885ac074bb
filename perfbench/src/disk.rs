//! `disk_mixed` and `disk_observed`: open-loop traffic on one bare drive.
//!
//! The drive is a Quantum Atlas 10K II that refuses the vendor
//! diagnostics, so set-up runs dixtrac's general timing extractor. The
//! traffic merges random 64-sector Poisson reads and writes (70/30) with
//! sequential track-aligned client streams the traxtent batcher can
//! coalesce; the server runs the traxtent scheduler on the extracted
//! boundaries.

use crate::layers::{CmdTotals, Layers, TimedBackend};
use crate::{
    fingerprint, median, repeat_setup, secs_since, set_rates, sub_seed, timed_passes, Args,
    Corrupt, Outcome, RepTime, Scale,
};
use dixtrac::{extract_auto, GeneralConfig};
use scsi::ScsiDisk;
use server::{
    drive_boundaries, serve, DiskSpanBridge, SchedulerKind, ServerConfig, ServerResult,
    TimelineConfig,
};
use sim_disk::disk::{Disk, DiskConfig};
use sim_disk::trace::{SharedSink, Tracer};
use sim_disk::{models, SimDur};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use traxtent::obs::span::{self, Span, SpanRecorder};
use traxtent::{ConfidentBoundaries, TrackBoundaries};
use traxtent_bench::manifest::json;
use workloads::arrivals::{poisson_trace, stream_trace, PoissonSpec, StreamsSpec};
use workloads::replay::TraceRecord;

/// Random Poisson traffic, requests per simulated second.
const RANDOM_RPS: f64 = 60.0;
/// Random request length, sectors.
const IO_SECTORS: u64 = 64;
/// Share of random requests that read.
const READ_FRACTION: f64 = 0.7;
/// Sequential playback and ingest clients.
const READ_STREAMS: usize = 2;
const WRITE_STREAMS: usize = 1;
/// Stream chunk length (clipped at track ends) and per-client cadence.
const CHUNK_SECTORS: u64 = 128;
const CHUNK_PERIOD_MS: f64 = 50.0;
/// Simulated seconds one set of stream clients lives.
const STREAM_LIFE_S: f64 = 10.0;
/// Total offered rate of the mix at scale 1.
pub const BASE_RPS: f64 =
    RANDOM_RPS + (READ_STREAMS + WRITE_STREAMS) as f64 * 1000.0 / CHUNK_PERIOD_MS;

/// The latency objective of `sim_rate_at_slo_rps`: p99 at most this, and
/// no rejection.
pub const SLO_P99_MS: f64 = 100.0;
/// Timeline window and SLO breach budget of `disk_observed`.
const WINDOW_MS: f64 = 1000.0;
const SLO_BREACH_FRACTION: f64 = 0.01;

/// Simulated seconds of each input.
struct Sizes {
    /// `disk_mixed` trace.
    mixed_s: f64,
    /// `disk_observed` segments and the length of each.
    segments: usize,
    segment_s: f64,
    /// Each probe of the SLO-rate search.
    probe_s: f64,
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes {
            mixed_s: 1000.0,
            segments: 5,
            segment_s: 150.0,
            probe_s: 300.0,
        },
        Scale::Tiny => Sizes {
            mixed_s: 4.0,
            segments: 2,
            segment_s: 2.0,
            probe_s: 2.0,
        },
    }
}

/// The drive under test: an Atlas 10K II that refuses diagnostics.
fn atlas_nodiag() -> DiskConfig {
    let mut cfg = models::quantum_atlas_10k_ii();
    cfg.fault.diagnostics_unsupported = true;
    cfg
}

/// What set-up produced: the drive model, the extracted boundaries, and
/// the extraction's cost.
pub(crate) struct Extracted {
    pub cfg: DiskConfig,
    pub boundaries: ConfidentBoundaries,
    pub truth: TrackBoundaries,
}

/// One drive's extraction: the boundaries and what they cost.
pub(crate) struct Extraction {
    pub boundaries: ConfidentBoundaries,
    /// Host seconds: drive construction plus extraction, and extraction
    /// alone.
    pub setup_s: f64,
    pub extract_s: f64,
    pub tracks: u64,
    pub exact_tracks: u64,
    pub scsi_cmds: u64,
}

/// Builds a drive from `cfg` and extracts its boundaries with
/// `extract_auto` inside a `dixtrac` span. A failed extraction fails the
/// gate and falls back to the ground-truth table so the run can finish.
pub(crate) fn extract(cfg: &DiskConfig, layers: &Layers, out: &mut Outcome) -> Extraction {
    let t0 = Instant::now();
    let mut scsi = ScsiDisk::new(Disk::new(cfg.clone()));
    let t1 = Instant::now();
    let r = layers.span("dixtrac", || {
        extract_auto(&mut scsi, &GeneralConfig::default())
    });
    let extract_s = secs_since(t1);
    let setup_s = secs_since(t0);
    out.gate.result("dixtrac extraction", &r);
    let truth = drive_boundaries(scsi.ground_truth());
    let boundaries = match r {
        Ok(auto) => auto.boundaries,
        Err(_) => ConfidentBoundaries::certain(truth.clone()),
    };
    let exact: BTreeSet<(u64, u64)> = truth.iter().map(|e| (e.start, e.len)).collect();
    let exact_tracks = boundaries
        .table()
        .iter()
        .filter(|e| exact.contains(&(e.start, e.len)))
        .count() as u64;
    let c = scsi.counts();
    Extraction {
        boundaries,
        setup_s,
        extract_s,
        tracks: truth.num_tracks() as u64,
        exact_tracks,
        scsi_cmds: c.reads + c.writes + c.translations + c.queries,
    }
}

/// Sets the `dixtrac.*` and `scsi.*` figures of one set-up that extracted
/// every drive in `drives`.
pub(crate) fn set_extraction(out: &mut Outcome, drives: &[Extraction]) {
    let tracks = drives.iter().map(|d| d.tracks).sum::<u64>().max(1) as f64;
    let extract_s: f64 = drives.iter().map(|d| d.extract_s).sum();
    let sum = |f: fn(&Extraction) -> f64| drives.iter().map(f).sum::<f64>();
    out.set("dixtrac.extract_s", extract_s);
    out.set("dixtrac.host_us_per_track", extract_s * 1e6 / tracks);
    out.set("scsi.cmds_per_track", sum(|d| d.scsi_cmds as f64) / tracks);
    out.set(
        "dixtrac.exact_frac",
        sum(|d| d.exact_tracks as f64) / tracks,
    );
    out.set(
        "dixtrac.mean_confidence",
        sum(|d| d.boundaries.mean_confidence() * d.tracks as f64) / tracks,
    );
}

fn setup(args: &Args, layers: &Layers, out: &mut Outcome) -> Extracted {
    let cfg = atlas_nodiag();
    let mut runs: Vec<Extraction> = Vec::new();
    let setup_s = repeat_setup(out, args.scale, |out| {
        runs.push(extract(&cfg, layers, out));
        runs.last().expect("just pushed").setup_s
    });
    out.set("setup_s", setup_s);
    runs.sort_by(|a, b| a.extract_s.total_cmp(&b.extract_s));
    let mid = runs.swap_remove(runs.len() / 2);
    set_extraction(out, std::slice::from_ref(&mid));
    Extracted {
        truth: drive_boundaries(&Disk::new(cfg.clone())),
        cfg,
        boundaries: mid.boundaries,
    }
}

/// The traffic mix at `scale` × the base rate for `seconds` of simulated
/// time: Poisson random requests merged with isochronous streams. Stream
/// clients come and go: every [`STREAM_LIFE_S`] a new set starts at fresh
/// random tracks, so one run averages over many stream placements.
fn mixed_trace(truth: &TrackBoundaries, scale: f64, seconds: f64, seed: u64) -> Vec<TraceRecord> {
    let rate = RANDOM_RPS * scale;
    let mut trace = poisson_trace(&PoissonSpec {
        rate_per_sec: rate,
        count: (rate * seconds) as usize,
        capacity_lbns: truth.capacity(),
        io_sectors: IO_SECTORS,
        read_fraction: READ_FRACTION,
        seed: sub_seed(seed, 1),
    });
    let period = CHUNK_PERIOD_MS / scale;
    let lives = (seconds / STREAM_LIFE_S).ceil() as u64;
    for life in 0..lives {
        let start = life as f64 * STREAM_LIFE_S;
        let len = STREAM_LIFE_S.min(seconds - start);
        let offset = SimDur::from_secs_f64(start);
        trace.extend(
            stream_trace(
                &StreamsSpec {
                    read_streams: READ_STREAMS,
                    write_streams: WRITE_STREAMS,
                    chunk_sectors: CHUNK_SECTORS,
                    chunk_period_ms: period,
                    chunks_per_stream: (len * 1000.0 / period) as usize,
                    seed: sub_seed(seed, 2 + life),
                },
                truth,
            )
            .into_iter()
            .map(|mut r| {
                r.arrival += offset;
                r
            }),
        );
    }
    trace.sort_by_key(|r| r.arrival);
    trace
}

/// Fingerprint of a trace's inputs.
pub(crate) fn trace_fingerprint(trace: &[TraceRecord]) -> u64 {
    fingerprint(trace.iter().flat_map(|r| {
        [
            r.arrival.as_ns(),
            r.request.lbn,
            r.request.len,
            r.request.op as u64,
        ]
    }))
}

/// Fingerprint of a server run's simulated outcome.
pub(crate) fn result_fingerprint(res: &ServerResult) -> u64 {
    fingerprint(
        res.completions
            .iter()
            .flat_map(|c| [c.id, c.completion.as_ns(), c.coalesced as u64])
            .chain(res.rejected_ids.iter().copied())
            .chain([res.dispatches, res.max_depth as u64]),
    )
}

/// The seed check: a different seed must change the inputs.
pub(crate) fn check_seed_changes_inputs(
    out: &mut Outcome,
    gen: impl Fn(u64) -> Vec<TraceRecord>,
    seed: u64,
) {
    let a = trace_fingerprint(&gen(seed));
    let b = trace_fingerprint(&gen(seed.wrapping_add(1)));
    out.gate.check("seed changes inputs", a != b, || {
        format!(
            "seeds {seed} and {} give identical inputs",
            seed.wrapping_add(1)
        )
    });
}

/// Highest offered rate (base × scale) at which `probe(scale)` meets the
/// SLO: p99 ≤ [`SLO_P99_MS`] and nothing rejected. A doubling bracket
/// then a geometric bisection to within 1 %.
pub(crate) fn slo_search(base_rps: f64, mut probe: impl FnMut(f64) -> ServerResult) -> f64 {
    let mut meets = |scale: f64| {
        let r = probe(scale);
        r.rejected() == 0 && r.completed() > 0 && r.percentile_ms(0.99) <= SLO_P99_MS
    };
    let (mut lo, mut hi) = if meets(1.0) {
        let mut lo = 1.0;
        while lo < 64.0 && meets(lo * 2.0) {
            lo *= 2.0;
        }
        (lo, lo * 2.0)
    } else {
        let mut hi = 1.0;
        while hi > 1.0 / 64.0 && !meets(hi / 2.0) {
            hi /= 2.0;
        }
        (hi / 2.0, hi)
    };
    while hi / lo > 1.01 {
        let mid = (lo * hi).sqrt();
        if meets(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    base_rps * lo
}

/// Server-side figures summed over one or more runs.
#[derive(Default)]
pub(crate) struct ServerAgg {
    completed: u64,
    dispatches: u64,
    coalesced: u64,
    max_depth: usize,
    depth_ns: f64,
}

impl ServerAgg {
    pub fn add(&mut self, r: &ServerResult) {
        self.completed += r.completed();
        self.dispatches += r.dispatches;
        self.coalesced += r.coalesced_requests;
        self.max_depth = self.max_depth.max(r.max_depth);
        self.depth_ns += r.mean_depth() * r.sim_end.as_ns() as f64;
    }

    /// Sets the `server.*` simulated figures. Mean queue wait follows
    /// from Little's law: the time-weighted queue length integral over
    /// the requests that passed through the queue.
    pub fn set(&self, out: &mut Outcome, sim_ns: f64) {
        let n = self.completed.max(1) as f64;
        out.set("server.cmds_per_req", self.dispatches as f64 / n);
        out.set("server.coalesced_frac", self.coalesced as f64 / n);
        out.set("server.mean_depth", self.depth_ns / sim_ns.max(1.0));
        out.set("server.max_depth", self.max_depth as f64);
        out.set("server.queue_wait_ms", self.depth_ns / n / 1e6);
    }
}

/// Sets the `sim_disk.*` phase figures from summed command breakdowns.
pub(crate) fn set_phase_means(out: &mut Outcome, t: &CmdTotals) {
    out.set("sim_disk.efficiency", t.efficiency());
    out.set("sim_disk.seek_ms", t.mean_ms(|b| b.seek));
    out.set("sim_disk.rot_wait_ms", t.mean_ms(|b| b.rot_latency));
    out.set("sim_disk.media_ms", t.mean_ms(|b| b.media));
    out.set("sim_disk.bus_ms", t.mean_ms(|b| b.bus));
}

fn cache_hit_frac((hits, misses): (u64, u64)) -> f64 {
    hits as f64 / (hits + misses).max(1) as f64
}

/// Runs `disk_mixed`.
pub fn run_mixed(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let layers = Layers::new(args.trace);
    let sz = sizes(args.scale);
    let ex = setup(args, &layers, &mut out);
    let scfg = ServerConfig::new(SchedulerKind::Traxtent).with_boundaries(ex.boundaries.clone());

    let trace = mixed_trace(&ex.truth, 1.0, sz.mixed_s, args.seed);
    check_seed_changes_inputs(
        &mut out,
        |s| mixed_trace(&ex.truth, 1.0, 10.0, s),
        args.seed,
    );
    let probe_seed = sub_seed(args.seed, 3);
    let rate = slo_search(BASE_RPS, |scale| {
        let t = mixed_trace(&ex.truth, scale, sz.probe_s, probe_seed);
        serve(&mut Disk::new(ex.cfg.clone()), &t, &scfg).expect("generated traces are valid")
    });
    out.set("sim_rate_at_slo_rps", rate);

    let mut first: Option<(ServerResult, Disk)> = None;
    let mut first_fp = 0;
    let mut same = true;
    let mut totals = CmdTotals::default();
    let mut traced_reps = 0;
    let rates = timed_passes(args.seconds, 1, args.trace, |_, traced| {
        let mut disk = Disk::new(ex.cfg.clone());
        let t0 = Instant::now();
        let res = if traced {
            let mut tb = TimedBackend::new(&mut disk, &layers, "sim_disk");
            let r = layers.span("server", || serve(&mut tb, &trace, &scfg));
            totals.merge(&tb.totals);
            traced_reps += 1;
            r
        } else {
            serve(&mut disk, &trace, &scfg)
        };
        let secs = secs_since(t0);
        let res = res.expect("generated traces are valid");
        let ops = res.completed();
        let fp = result_fingerprint(&res);
        match &first {
            None => {
                first_fp = fp;
                first = Some((res, disk));
            }
            Some(_) => same &= fp == first_fp,
        }
        RepTime { ops, secs }
    });
    out.gate.check(
        "sim results bit-identical across reps (traced and untraced)",
        same,
        || "a rep's completions differ from the first rep's".into(),
    );
    set_rates(&mut out, &rates);

    let (mut res, disk) = first.expect("at least one rep");
    if args.corrupt == Corrupt::DropCompletion {
        res.completions.pop();
    }
    out.account(trace.len() as u64, res.completed(), res.rejected(), 0);
    out.set_sim_percentiles(&res.response_ms());
    let sim_ns = res.sim_end.as_ns() as f64;
    let mut agg = ServerAgg::default();
    agg.add(&res);
    agg.set(&mut out, sim_ns);
    out.set("sim_disk.cmds", res.dispatches as f64);
    out.set(
        "sim_disk.busy_frac",
        disk.busy_ns() as f64 / sim_ns.max(1.0),
    );
    out.set(
        "sim_disk.cache_hit_frac",
        cache_hit_frac(disk.cache_stats()),
    );
    if args.trace {
        set_phase_means(&mut out, &totals);
        out.set(
            "server.host_ns_per_req",
            layers.get("server").self_ns as f64 / (traced_reps * trace.len()) as f64,
        );
        out.set(
            "sim_disk.host_ns_per_cmd",
            layers.get("sim_disk").total_ns as f64 / totals.cmds.max(1) as f64,
        );
        out.notes.push(layers.table());
    }
    out
}

/// Checks a Chrome `trace_event` export line by line (the layout
/// [`span::chrome_trace`] writes: a header line, one event object per
/// line, a footer line), so memory stays bounded by one event. Returns
/// the number of complete (`"ph":"X"`) events.
pub fn check_chrome(text: &str) -> Result<usize, String> {
    let mut lines = text.lines();
    if lines.next() != Some("{\"traceEvents\":[") {
        return Err("missing traceEvents header".into());
    }
    let body: Vec<&str> = lines.collect();
    let (footer, events) = body.split_last().ok_or("empty export")?;
    if *footer != "]}" {
        return Err("missing closing footer".into());
    }
    let mut complete = 0;
    for (i, line) in events.iter().enumerate() {
        let ev = if i + 1 < events.len() {
            line.strip_suffix(',')
                .ok_or_else(|| format!("event {i} lacks a separator"))?
        } else {
            line
        };
        let v = json::parse(ev).map_err(|e| format!("event {i}: {e}"))?;
        let ph = v
            .as_object()
            .and_then(|o| o.get("ph"))
            .and_then(|p| p.as_str())
            .ok_or_else(|| format!("event {i} has no phase"))?;
        complete += usize::from(ph == "X");
    }
    Ok(complete)
}

/// One observed serve of a segment: spans, bridge and timeline on.
struct Observed {
    res: ServerResult,
    spans: Vec<Span>,
    serve_s: f64,
    /// The drive's mechanical busy time and segment-cache (hits, misses).
    busy_ns: u64,
    cache: (u64, u64),
}

fn serve_observed(
    ex: &Extracted,
    scfg: &ServerConfig,
    trace: &[TraceRecord],
    salt: u64,
    layers: Option<&Layers>,
) -> Observed {
    let rec = SpanRecorder::new();
    rec.set_salt(salt);
    let mut cfg = ex.cfg.clone();
    let bridge: SharedSink = Arc::new(Mutex::new(DiskSpanBridge::new(rec.clone())));
    cfg.tracer = Some(Tracer::new(bridge));
    let mut disk = Disk::new(cfg);
    let scfg = scfg
        .clone()
        .with_spans(rec.clone())
        .with_timeline(TimelineConfig::new(WINDOW_MS).with_slo(SLO_P99_MS, SLO_BREACH_FRACTION));
    let t0 = Instant::now();
    let res = match layers {
        Some(l) => {
            let mut tb = TimedBackend::new(&mut disk, l, "sim_disk");
            l.span("server", || serve(&mut tb, trace, &scfg))
        }
        None => serve(&mut disk, trace, &scfg),
    }
    .expect("generated traces are valid");
    let serve_s = secs_since(t0);
    Observed {
        res,
        spans: rec.take_sorted(),
        serve_s,
        busy_ns: disk.busy_ns(),
        cache: disk.cache_stats(),
    }
}

/// The export step `export_s` times: validate the span forest, then
/// render it as JSONL and as a Chrome trace.
struct Export {
    tree: Result<span::TreeStats, String>,
    jsonl: String,
    chrome: String,
}

fn export(spans: &[Span]) -> Export {
    let tree = span::validate(spans);
    let jsonl: String = spans.iter().map(|s| s.to_json() + "\n").collect();
    let chrome = span::chrome_trace(spans);
    Export {
        tree,
        jsonl,
        chrome,
    }
}

/// Sums of the drive's phase spans (`disk_cmd` children) of one export.
/// Sums the drive's phase spans (children of `disk_cmd`) into `into`.
/// Whatever part of a command span no phase span covers is counted as
/// command overhead.
fn phase_totals(spans: &[Span], into: &mut CmdTotals) {
    let mut part = CmdTotals::default();
    let mut cmd_ns = 0;
    for s in spans {
        let d = SimDur::from_ns(s.duration_ns());
        let b = &mut part.breakdown;
        match s.name.as_str() {
            "disk_cmd" => {
                part.cmds += 1;
                cmd_ns += s.duration_ns();
            }
            "drive_queue" => b.queue += d,
            "seek" => b.seek += d,
            "head_switch" => b.head_switch += d,
            "settle" => b.write_settle += d,
            "rot_wait" => b.rot_latency += d,
            "media" => b.media += d,
            "bus" => b.bus += d,
            _ => {}
        }
    }
    part.breakdown.overhead =
        SimDur::from_ns(cmd_ns.saturating_sub(part.breakdown.total().as_ns()));
    into.merge(&part);
}

/// Runs `disk_observed`.
pub fn run_observed(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let layers = Layers::new(args.trace);
    let sz = sizes(args.scale);
    let ex = setup(args, &layers, &mut out);
    let scfg = ServerConfig::new(SchedulerKind::Traxtent).with_boundaries(ex.boundaries.clone());
    let segments: Vec<Vec<TraceRecord>> = (0..sz.segments)
        .map(|k| {
            mixed_trace(
                &ex.truth,
                1.0,
                sz.segment_s,
                sub_seed(args.seed, 100 + k as u64),
            )
        })
        .collect();
    check_seed_changes_inputs(
        &mut out,
        |s| mixed_trace(&ex.truth, 1.0, 10.0, s),
        args.seed,
    );
    let salt = |k: usize| span::derive_id(args.seed, 0x0b5e, k as u64, 0);

    // Passes over the segments: the first keeps the reference results
    // and runs every check, later ones must reproduce it.
    let mut first: Vec<(u64, ServerResult)> = Vec::new();
    let mut agg = ServerAgg::default();
    let mut phases = CmdTotals::default();
    let (mut busy_ns, mut cache) = (0u64, (0u64, 0u64));
    let (mut spans_total, mut bytes_total) = (0u64, 0u64);
    let mut all_ok = true;
    let (mut export_s, mut export_ns_per_span, mut obs_ns_per_span) =
        (Vec::new(), Vec::new(), Vec::new());
    let per_pass = sz.segments;
    let mut traced_passes = 0;
    // Throughput is per pass over every segment, so each sample weighs
    // the segments alike.
    let rates = timed_passes(args.seconds, per_pass, args.trace, |rep, traced| {
        let k = rep % per_pass;
        traced_passes += usize::from(traced && k == 0);
        let ob = serve_observed(&ex, &scfg, &segments[k], salt(k), traced.then_some(&layers));
        let mut spans = ob.spans;
        if rep == 0 && args.corrupt == Corrupt::SpanParent {
            if let Some(s) = spans.iter_mut().find(|s| s.parent != 0) {
                s.parent ^= 0x5a5a_5a5a;
            }
        }
        let t0 = Instant::now();
        let ex_out = if traced {
            layers.span("obs.export", || export(&spans))
        } else {
            export(&spans)
        };
        let dt = secs_since(t0);
        let n = spans.len().max(1) as f64;
        export_s.push(dt);
        export_ns_per_span.push(dt * 1e9 / n);
        let timed = RepTime {
            ops: ob.res.completed(),
            secs: ob.serve_s,
        };

        // Outside the timed steps: the same segment served unobserved.
        let t0 = Instant::now();
        let plain = serve(&mut Disk::new(ex.cfg.clone()), &segments[k], &scfg)
            .expect("generated traces are valid");
        obs_ns_per_span.push((ob.serve_s - secs_since(t0)) * 1e9 / n);
        let fp = result_fingerprint(&ob.res);
        all_ok &= fp == result_fingerprint(&plain);
        if rep < per_pass {
            out.gate.check(
                &format!("segment {k}: span forest valid"),
                ex_out.tree.is_ok(),
                || ex_out.tree.clone().err().unwrap_or_default(),
            );
            let chrome = check_chrome(&ex_out.chrome);
            out.gate.check(
                &format!("segment {k}: chrome export parses, one event per span"),
                chrome.as_ref().is_ok_and(|&c| c == spans.len()),
                || format!("{chrome:?} complete events for {} spans", spans.len()),
            );
            out.gate.check(
                &format!("segment {k}: timeline and SLO recorded"),
                ob.res
                    .timeline
                    .as_ref()
                    .is_some_and(|t| !t.buckets.is_empty())
                    && ob.res.slo.is_some(),
                || "no timeline".into(),
            );
            agg.add(&ob.res);
            phase_totals(&spans, &mut phases);
            busy_ns += ob.busy_ns;
            cache = (cache.0 + ob.cache.0, cache.1 + ob.cache.1);
            spans_total += spans.len() as u64;
            bytes_total += (ex_out.jsonl.len() + ex_out.chrome.len()) as u64;
            first.push((fp, ob.res));
        } else {
            all_ok &= fp == first[k].0;
        }
        timed
    });
    out.gate.check(
        "observed completions equal unobserved serve() of the same trace",
        all_ok,
        || "observability changed a simulated outcome".into(),
    );
    set_rates(&mut out, &rates);
    out.set("export_s", median(&export_s));

    let offered: u64 = segments.iter().map(|s| s.len() as u64).sum();
    let mut ms: Vec<f64> = first.iter().flat_map(|(_, r)| r.response_ms()).collect();
    let (mut completed, mut rejected) = (0, 0);
    for (_, r) in &first {
        completed += r.completed();
        rejected += r.rejected();
    }
    if args.corrupt == Corrupt::DropCompletion {
        completed -= 1;
        ms.pop();
    }
    out.account(offered, completed, rejected, 0);
    out.set_sim_percentiles(&ms);
    let sim_ns: f64 = first.iter().map(|(_, r)| r.sim_end.as_ns() as f64).sum();
    agg.set(&mut out, sim_ns);
    // The drive figures come from the exported phase spans.
    out.set("sim_disk.cmds", phases.cmds as f64);
    out.set("sim_disk.busy_frac", busy_ns as f64 / sim_ns.max(1.0));
    out.set("sim_disk.cache_hit_frac", cache_hit_frac(cache));
    set_phase_means(&mut out, &phases);
    out.set("obs.spans_per_req", spans_total as f64 / offered as f64);
    out.set(
        "obs.export_bytes_per_req",
        bytes_total as f64 / offered as f64,
    );
    out.set("obs.export_host_ns_per_span", median(&export_ns_per_span));
    out.set("obs.host_ns_per_span", median(&obs_ns_per_span));
    if args.trace {
        out.set(
            "server.host_ns_per_req",
            layers.get("server").self_ns as f64 / (traced_passes as u64 * offered) as f64,
        );
        let cmds = layers.get("sim_disk").calls.max(1) as f64;
        out.set(
            "sim_disk.host_ns_per_cmd",
            layers.get("sim_disk").total_ns as f64 / cmds,
        );
        out.notes.push(layers.table());
    }
    out
}
