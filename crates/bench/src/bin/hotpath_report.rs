//! Generates `BENCH_hotpaths.json`: wall-clock for every figure binary run
//! sequentially (`--threads 1`) versus at the default worker count, plus
//! in-process medians for the library hot paths every figure leans on:
//! LBN↔physical translation, drive service, the rotation kernel,
//! boundary-table queries, the traxtent allocator and `serve()`.
//!
//! Every parallel run's stdout is byte-compared against the sequential
//! run's — the report fails loudly if the executor's determinism guarantee
//! is ever violated. On a 1-core runner the "parallel" run would be the
//! sequential run again, so the comparison is skipped and flagged as such
//! in the JSON rather than reported as a (meaningless) 1.0× speedup.
//! Child binaries run with `--quick` so the report stays cheap enough for
//! CI.

use sim_disk::bus::BusConfig;
use sim_disk::disk::{Disk, DiskConfig, Request};
use sim_disk::models;
use sim_disk::SimTime;
use std::hint::black_box;
use std::path::Path;
use std::process::Command;
use std::time::Instant;
use traxtent::obs::json_string;
use traxtent::{Extent, TrackBoundaries, TraxtentAllocator};
use traxtent_bench::{default_threads, Cli};

const BINARIES: &[&str] = &[
    "table1",
    "fig1",
    "fig3",
    "fig6",
    "fig7",
    "fig8",
    "table2",
    "fig9",
    "fig10",
    "extraction",
    "ablation",
];

/// Median ns/iter over 11 samples of a calibrated batch (≥2 ms per batch).
fn median_ns(mut f: impl FnMut()) -> f64 {
    let mut batch = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        if t.elapsed().as_millis() >= 2 {
            break;
        }
        batch *= 4;
    }
    let mut samples: Vec<f64> = (0..11)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                f();
            }
            t.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn hotpath_medians() -> Vec<(&'static str, f64)> {
    let cfg = models::quantum_atlas_10k_ii();
    let geom = cfg.geometry.clone();
    let cap = geom.capacity_lbns();
    let mut out = Vec::new();

    let mut lbn = 0u64;
    out.push((
        "geometry/lbn_to_pba_random",
        median_ns(|| {
            lbn = (lbn.wrapping_mul(6364136223846793005).wrapping_add(1)) % cap;
            black_box(geom.lbn_to_pba(black_box(lbn)).unwrap());
        }),
    ));
    let mut lbn = 0u64;
    out.push((
        "geometry/lbn_to_pba_sequential",
        median_ns(|| {
            lbn = (lbn + 1) % cap;
            black_box(geom.lbn_to_pba(black_box(lbn)).unwrap());
        }),
    ));
    let mut lbn = 0u64;
    out.push((
        "geometry/track_of_lbn_random",
        median_ns(|| {
            lbn = (lbn.wrapping_mul(6364136223846793005).wrapping_add(1)) % cap;
            black_box(geom.track_of_lbn(black_box(lbn)).unwrap());
        }),
    ));
    let mut lbn = 0u64;
    out.push((
        "geometry/track_of_lbn_sequential",
        median_ns(|| {
            lbn = (lbn + 1) % cap;
            black_box(geom.track_of_lbn(black_box(lbn)).unwrap());
        }),
    ));
    let mut lbn = 0u64;
    out.push((
        "geometry/track_bounds",
        median_ns(|| {
            lbn = (lbn.wrapping_mul(6364136223846793005).wrapping_add(1)) % cap;
            black_box(geom.track_bounds(black_box(lbn)).unwrap());
        }),
    ));

    let mut disk = Disk::new(models::quantum_atlas_10k_ii());
    let mut t = SimTime::ZERO;
    let mut lbn = 0u64;
    out.push((
        "disk/track_read",
        median_ns(|| {
            lbn = (lbn + 52800) % 4_000_000;
            let done = disk.service(Request::read(lbn, 528), t);
            t = done.completion;
            black_box(done.completion);
        }),
    ));
    // The zero-latency access-on-arrival scan dominates full-track reads:
    // an infinite bus isolates it from bus-delivery chaining, and the
    // random stride defeats the firmware cache.
    let zl_cfg = DiskConfig {
        bus: BusConfig::infinite(),
        ..models::quantum_atlas_10k_ii()
    };
    let mut disk = Disk::new(zl_cfg);
    let mut t = SimTime::ZERO;
    let mut lbn = 1u64;
    out.push((
        "disk/zero_latency_scan",
        median_ns(|| {
            lbn = (lbn.wrapping_mul(6364136223846793005).wrapping_add(1)) % 4_000_000;
            let done = disk.service(Request::read(lbn, 528), t);
            t = done.completion;
            black_box(done.completion);
        }),
    ));

    // The rotation kernel old vs new: the per-sector reference scan against
    // the closed-form replacement, on a full outer-zone track.
    let track = geom.track(0);
    let spt = track.spt();
    let mut angle = 0.1234_f64;
    out.push((
        "rotation/window_scan_ref",
        median_ns(|| {
            angle += 0.000_37;
            if angle >= 1.0 {
                angle -= 1.0;
            }
            black_box(sim_disk::rotation::window_scan(track, angle, 0, spt));
        }),
    ));
    let mut angle = 0.1234_f64;
    out.push((
        "rotation/window_closed",
        median_ns(|| {
            angle += 0.000_37;
            if angle >= 1.0 {
                angle -= 1.0;
            }
            black_box(sim_disk::rotation::window_closed(track, angle, 0, spt));
        }),
    ));

    let tb = TrackBoundaries::uniform(52_014, 440);
    let mut lbn = 0u64;
    out.push((
        "boundaries/clip_to_track",
        median_ns(|| {
            lbn = (lbn.wrapping_mul(2862933555777941757).wrapping_add(3)) % tb.capacity();
            black_box(tb.clip_to_track(black_box(lbn), 528));
        }),
    ));
    // Built once, outside the timed closure: each iteration frees every
    // extent it took, so the free map returns to one run and the timed
    // work repeats exactly.
    let mut alloc = TraxtentAllocator::new(TrackBoundaries::uniform(4096, 440));
    out.push((
        "alloc/traxtent_alloc_free",
        median_ns(|| {
            let mut got: Vec<Extent> = Vec::new();
            for i in 0..64 {
                if let Some(e) = alloc.alloc_traxtent(i * 8111) {
                    got.push(e);
                }
            }
            for e in got {
                alloc.free(e);
            }
            black_box(alloc.free_sectors());
        }),
    ));

    // The observability layer off vs on: serve() with no spans or
    // timeline attached must cost what it did before the layer existed
    // (the disabled paths are a handful of `Option` checks); the enabled
    // variant prices the full instrumentation — span recording down to
    // drive phases plus the windowed sampler.
    use server::{serve, DiskSpanBridge, SchedulerKind, ServerConfig, TimelineConfig};
    use traxtent::obs::span::SpanRecorder;
    let base_cfg = models::small_test_disk();
    let trace = {
        let d = Disk::new(base_cfg.clone());
        let table = server::drive_boundaries(&d);
        workloads::arrivals::stream_trace(
            &workloads::arrivals::StreamsSpec {
                read_streams: 2,
                write_streams: 2,
                chunk_sectors: 64,
                chunk_period_ms: 10.0,
                chunks_per_stream: 50,
                seed: 99,
            },
            &table,
        )
    };
    out.push((
        "server/serve_obs_disabled",
        median_ns(|| {
            let mut disk = Disk::new(base_cfg.clone());
            let cfg = ServerConfig::new(SchedulerKind::CLook);
            black_box(serve(&mut disk, &trace, &cfg).expect("valid trace"));
        }),
    ));
    out.push((
        "server/serve_obs_enabled",
        median_ns(|| {
            let rec = SpanRecorder::new();
            let mut cfg_disk = base_cfg.clone();
            cfg_disk.tracer = Some(sim_disk::trace::Tracer::from_sink(DiskSpanBridge::new(
                rec.clone(),
            )));
            let mut disk = Disk::new(cfg_disk);
            let cfg = ServerConfig::new(SchedulerKind::CLook)
                .with_spans(rec.clone())
                .with_timeline(TimelineConfig::new(100.0));
            black_box(serve(&mut disk, &trace, &cfg).expect("valid trace"));
            black_box(rec.take_sorted());
        }),
    ));
    out
}

/// Runs `bin --quick [extra args]` and returns (stdout, wall-clock seconds).
fn timed_run(dir: &Path, bin: &str, extra: &[&str]) -> (Vec<u8>, f64) {
    let t = Instant::now();
    let out = Command::new(dir.join(bin))
        .arg("--quick")
        .args(extra)
        .output()
        .unwrap_or_else(|e| panic!("failed to run {bin}: {e}"));
    let secs = t.elapsed().as_secs_f64();
    assert!(out.status.success(), "{bin} exited with {:?}", out.status);
    (out.stdout, secs)
}

fn main() {
    let cli = Cli::parse_with(&["--stdout"]);
    let exe = std::env::current_exe().expect("current_exe");
    let dir = exe.parent().expect("binary directory").to_path_buf();

    let threads = default_threads();
    let compare = threads > 1;
    if !compare {
        eprintln!("1-core runner: seq-vs-parallel comparison skipped");
    }
    let mut bin_entries = Vec::new();
    for &bin in BINARIES {
        let (seq_out, seq_s) = timed_run(&dir, bin, &["--threads", "1"]);
        if !compare {
            // A "parallel" run here would be the sequential run again;
            // timing it would fabricate a 1.0× speedup out of noise.
            eprintln!("{bin:<12} seq {seq_s:>7.3}s  (parallel run skipped)");
            bin_entries.push(format!(
                "    {{\"binary\": {}, \"seq_s\": {:.4}}}",
                json_string(bin),
                seq_s
            ));
            continue;
        }
        let (par_out, par_s) = timed_run(&dir, bin, &["--threads", &threads.to_string()]);
        let identical = seq_out == par_out;
        assert!(
            identical,
            "{bin}: parallel stdout differs from sequential — determinism broken"
        );
        eprintln!(
            "{bin:<12} seq {seq_s:>7.3}s  par({threads}) {par_s:>7.3}s  identical: {identical}"
        );
        bin_entries.push(format!(
            "    {{\"binary\": {}, \"seq_s\": {:.4}, \"parallel_s\": {:.4}, \
             \"speedup\": {:.3}, \"stdout_identical\": {}}}",
            json_string(bin),
            seq_s,
            par_s,
            seq_s / par_s,
            identical
        ));
    }

    eprintln!("measuring hot-path medians...");
    let medians = hotpath_medians();
    let median_entries: Vec<String> = medians
        .iter()
        .map(|(name, ns)| {
            eprintln!("{name:<36} {ns:>10.1} ns/iter");
            format!(
                "    {{\"name\": {}, \"median_ns\": {:.1}}}",
                json_string(name),
                ns
            )
        })
        .collect();

    let comparison = if compare {
        "ok".to_string()
    } else {
        "skipped: 1-core runner".to_string()
    };
    let json = format!(
        "{{\n  \"available_parallelism\": {threads},\n  \"threads_used\": {threads},\n  \
         \"speedup_comparison\": {},\n  \
         \"quick_mode\": true,\n  \"binaries\": [\n{}\n  ],\n  \"hot_paths\": [\n{}\n  ]\n}}\n",
        json_string(&comparison),
        bin_entries.join(",\n"),
        median_entries.join(",\n")
    );
    if cli.has("--stdout") {
        print!("{json}");
    } else {
        std::fs::write("BENCH_hotpaths.json", &json).expect("write BENCH_hotpaths.json");
        eprintln!("wrote BENCH_hotpaths.json");
    }
}
