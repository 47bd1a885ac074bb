//! `raid5_mixed`: open-loop traffic on RAID-5 ×5, then a crash tail.
//!
//! Five heterogeneous small test drives (factory defect counts as in
//! `fleet_sweep`, spindle speeds as in `crash_sweep`) are each extracted
//! with `extract_auto` (SCSI path) and striped with track-aligned units.
//! The traxtent scheduler runs on the volume's logical boundaries. The
//! main phase serves 64-sector reads and writes unarmed; partial-unit
//! writes take the read-modify-write and XOR path. Then capture is armed,
//! a write-heavier tail is served, power is cut at a seed-chosen instant
//! inside the tail, and the volume is scrubbed, repaired and re-scrubbed.

use crate::disk::{
    check_seed_changes_inputs, extract, result_fingerprint, set_extraction, slo_search, ServerAgg,
};
use crate::layers::{Layers, TimedBackend};
use crate::{median, repeat_setup, secs_since, set_rates, sub_seed, timed_passes, RepTime};
use crate::{Args, Corrupt, Outcome, Scale};
use fleet::{StripePolicy, Volume};
use server::{serve, Backend, SchedulerKind, ServerConfig, ServerResult};
use sim_disk::defects::{DefectPolicy, SpareScheme};
use sim_disk::disk::{Disk, DiskConfig};
use sim_disk::mech::Spindle;
use sim_disk::{models, SimDur, SimTime};
use std::time::Instant;
use traxtent::obs::Registry;
use traxtent::ConfidentBoundaries;
use workloads::arrivals::{poisson_trace, PoissonSpec};
use workloads::replay::TraceRecord;

const MEMBERS: usize = 5;
/// Spindle speeds cycled over the members: identical phase-locked
/// members would tear data and parity in lockstep and hide write holes.
const RPMS: [u32; 3] = [10_000, 12_000, 15_000];
/// Offered main-phase load per member, requests per simulated second.
const RATE_PER_MEMBER: f64 = 16.0;
const IO_SECTORS: u64 = 64;
const READ_FRACTION: f64 = 0.7;
/// The armed tail is write-heavier.
const TAIL_READ_FRACTION: f64 = 0.3;
/// Seed of the members' factory defect maps: the drives are the system
/// under test, so they stay the same for every input seed.
const DEFECT_SEED: u64 = 0x5eed_d15c;

struct Sizes {
    main_s: f64,
    tail_s: f64,
    probe_s: f64,
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes {
            main_s: 2000.0,
            tail_s: 20.0,
            probe_s: 150.0,
        },
        Scale::Tiny => Sizes {
            main_s: 3.0,
            tail_s: 2.0,
            probe_s: 2.0,
        },
    }
}

fn base_rps() -> f64 {
    RATE_PER_MEMBER * MEMBERS as f64
}

fn member_config(m: usize) -> DiskConfig {
    let mut cfg = models::with_factory_defects(
        models::small_test_disk(),
        SpareScheme::SectorsPerCylinder(8),
        DefectPolicy::Slip,
        400 + 250 * m as u32,
        DEFECT_SEED ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(m as u64 + 1),
    );
    cfg.spindle = Spindle::new(RPMS[m % RPMS.len()]);
    cfg
}

/// A freshly formatted volume over `members`' configs and maps.
fn build_volume(members: &[(DiskConfig, ConfidentBoundaries)], fill_seed: u64) -> Volume {
    let drives = members
        .iter()
        .map(|(cfg, map)| (Disk::new(cfg.clone()), map.clone()))
        .collect();
    let mut v = Volume::raid5(drives, StripePolicy::aligned()).expect("extracted maps fit");
    v.format(fill_seed);
    v
}

fn traffic(capacity: u64, rate: f64, seconds: f64, reads: f64, seed: u64) -> Vec<TraceRecord> {
    poisson_trace(&PoissonSpec {
        rate_per_sec: rate,
        count: (rate * seconds) as usize,
        capacity_lbns: capacity,
        io_sectors: IO_SECTORS,
        read_fraction: reads,
        seed,
    })
}

/// Mid-record durable instants of every armed member write: cutting
/// there tears the write, so recovery has work to do.
fn tear_instants(v: &Volume) -> Vec<SimTime> {
    let mut out: Vec<SimTime> = (0..MEMBERS)
        .filter_map(|m| v.member_crash_log(m))
        .flat_map(|log| log.records.iter())
        .filter(|r| r.durable.len() >= 2)
        .map(|r| r.durable[r.durable.len() / 2])
        .collect();
    out.sort_unstable();
    out
}

/// Everything one rep measured.
struct Rep {
    main: ServerResult,
    tail: ServerResult,
    tail_offered: usize,
    ops_s: f64,
    armed_serve_s: f64,
    arm_s: f64,
    power_cut_s: f64,
    scrub_repair_s: f64,
    recovery_s: f64,
    busy: Vec<f64>,
    member_cmds_main: u64,
    log_writes: u64,
    payload_bytes: u64,
    holes: u64,
    repaired: u64,
    rescrub: u64,
    repair_saw_holes: bool,
}

/// What every rep runs: the same inputs, choices and server settings.
struct Plan<'a> {
    main: &'a [TraceRecord],
    tail_seed: u64,
    tail_s: f64,
    cut_pick: u64,
    scfg: &'a ServerConfig,
    corrupt: Corrupt,
}

fn one_rep(v: &mut Volume, plan: &Plan, layers: Option<&Layers>) -> Rep {
    let Plan {
        main,
        tail_seed,
        tail_s,
        cut_pick,
        scfg,
        corrupt,
    } = *plan;
    let reg = Registry::new();
    let span = |name, f: &mut dyn FnMut()| match layers {
        Some(l) => l.span(name, f),
        None => f(),
    };
    let serve_on = |v: &mut Volume, trace: &[TraceRecord], name: &'static str| {
        match layers {
            Some(l) => {
                let mut tb = TimedBackend::new(v, l, name);
                l.span("server", || serve(&mut tb, trace, scfg))
            }
            None => serve(v, trace, scfg),
        }
        .expect("generated traces are valid")
    };

    // Timed: the unarmed main phase, arming, and the armed tail.
    let t0 = Instant::now();
    let main_res = serve_on(v, main, "fleet");
    let sim_main = main_res.sim_end.as_ns() as f64;
    let busy = v
        .member_busy_ns()
        .iter()
        .map(|&ns| ns as f64 / sim_main.max(1.0))
        .collect();
    let member_cmds_main = v.stats().member_cmds;
    let t1 = Instant::now();
    span("fleet.arm_crash", &mut || v.arm_crash());
    let arm_s = secs_since(t1);
    // The tail arrives after the main phase drained.
    let offset = SimDur::from_ns(main_res.sim_end.as_ns() + 1_000_000);
    let mut tail = traffic(
        v.capacity(),
        base_rps(),
        tail_s,
        TAIL_READ_FRACTION,
        tail_seed,
    );
    for r in &mut tail {
        r.arrival += offset;
    }
    let t2 = Instant::now();
    let tail_res = serve_on(v, &tail, "fleet.armed");
    let armed_serve_s = secs_since(t2);
    let ops_s = secs_since(t0);

    // Power cut at a seed-chosen tear instant inside the tail.
    let cands = tear_instants(v);
    let log_writes = (0..MEMBERS)
        .filter_map(|m| v.member_crash_log(m))
        .map(|l| l.len() as u64)
        .sum();
    let payload_bytes = (0..MEMBERS)
        .filter_map(|m| v.member_crash_log(m))
        .flat_map(|l| l.records.iter())
        .map(|r| r.payload.as_ref().map_or(0, |p| p.len() as u64))
        .sum();
    let cut = if cands.is_empty() {
        v.crash_horizon()
    } else {
        cands[(cut_pick % cands.len() as u64) as usize]
    };
    let t3 = Instant::now();
    let mut cut_res = Ok(());
    span("fleet.power_cut", &mut || {
        cut_res = v.power_cut(cut).map(|_| ());
    });
    let power_cut_s = secs_since(t3);
    let mut before = None;
    span("fleet.scrub", &mut || before = Some(v.scrub(&reg)));
    let before = before.expect("scrub ran");
    let t4 = Instant::now();
    let mut repair = None;
    if corrupt != Corrupt::SkipRepair {
        span("fleet.scrub_repair", &mut || {
            repair = Some(v.scrub_repair(&reg, SimTime::ZERO));
        });
    }
    let scrub_repair_s = secs_since(t4);
    let mut after = None;
    span("fleet.scrub", &mut || after = Some(v.scrub(&reg)));
    let after = after.expect("scrub ran");
    let recovery_s = secs_since(t3);
    let (repaired, repair_saw_holes) = match &repair {
        Some(Ok(r)) => (
            r.repaired_sectors,
            r.mismatched_sectors == before.mismatches,
        ),
        Some(Err(_)) => (0, false),
        None => (0, true),
    };
    Rep {
        main: main_res,
        tail: tail_res,
        tail_offered: tail.len(),
        ops_s,
        armed_serve_s,
        arm_s,
        power_cut_s,
        scrub_repair_s,
        recovery_s,
        busy,
        member_cmds_main,
        log_writes,
        payload_bytes,
        holes: before.mismatches,
        repaired,
        rescrub: after.mismatches + u64::from(cut_res.is_err()),
        repair_saw_holes,
    }
}

/// Runs `raid5_mixed`.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let layers = Layers::new(args.trace);
    let sz = sizes(args.scale);

    // Set-up: build and extract every member, then build and format the
    // volume.
    let fill_seed = sub_seed(args.seed, 10);
    let mut members = Vec::new();
    let mut extractions = Vec::new();
    let setup_s = repeat_setup(&mut out, args.scale, |out| {
        let t0 = Instant::now();
        extractions.clear();
        members = (0..MEMBERS)
            .map(|m| {
                let cfg = member_config(m);
                let ex = extract(&cfg, &layers, out);
                let map = ex.boundaries.clone();
                extractions.push(ex);
                (cfg, map)
            })
            .collect();
        drop(build_volume(&members, fill_seed));
        secs_since(t0)
    });
    out.set("setup_s", setup_s);
    set_extraction(&mut out, &extractions);
    let probe = build_volume(&members, fill_seed);
    let capacity = probe.capacity();
    let scfg =
        ServerConfig::new(SchedulerKind::Traxtent).with_boundaries(probe.logical_boundaries());
    drop(probe);

    let gen = |seed: u64, seconds: f64, scale: f64| {
        traffic(
            capacity,
            base_rps() * scale,
            seconds,
            READ_FRACTION,
            sub_seed(seed, 11),
        )
    };
    let main = gen(args.seed, sz.main_s, 1.0);
    check_seed_changes_inputs(&mut out, |s| gen(s, 10.0, 1.0), args.seed);
    let probe_seed = sub_seed(args.seed, 12);
    let rate = slo_search(base_rps(), |scale| {
        let t = gen(probe_seed, sz.probe_s, scale);
        serve(&mut build_volume(&members, fill_seed), &t, &scfg)
            .expect("generated traces are valid")
    });
    out.set("sim_rate_at_slo_rps", rate);

    let plan = Plan {
        main: &main,
        tail_seed: sub_seed(args.seed, 13),
        tail_s: sz.tail_s,
        cut_pick: sub_seed(args.seed, 14),
        scfg: &scfg,
        corrupt: args.corrupt,
    };
    let mut first: Option<Rep> = None;
    let mut first_fp = (0, 0);
    let mut same = true;
    let (mut arm, mut cut, mut repair, mut recovery, mut armed_ns) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut rescrub_clean = true;
    let mut traced_reps = 0;
    let rates = timed_passes(args.seconds, 1, args.trace, |_, traced| {
        let mut v = build_volume(&members, fill_seed);
        let r = one_rep(&mut v, &plan, traced.then_some(&layers));
        traced_reps += usize::from(traced);
        let timed = RepTime {
            ops: r.main.completed() + r.tail.completed(),
            secs: r.ops_s,
        };
        arm.push(r.arm_s);
        cut.push(r.power_cut_s);
        repair.push(r.scrub_repair_s);
        recovery.push(r.recovery_s);
        armed_ns.push(r.armed_serve_s * 1e9 / r.tail.completed().max(1) as f64);
        rescrub_clean &= r.rescrub == 0 && r.repair_saw_holes;
        let fp = (result_fingerprint(&r.main), result_fingerprint(&r.tail));
        match &first {
            None => {
                first_fp = fp;
                first = Some(r);
            }
            Some(_) => same &= fp == first_fp,
        }
        timed
    });
    let r = first.expect("at least one rep");
    out.gate.check(
        "sim results bit-identical across reps (traced and untraced)",
        same,
        || "a rep's completions differ from the first rep's".into(),
    );
    out.gate.check(
        "re-scrub finds 0 mismatches after scrub_repair",
        rescrub_clean,
        || format!("{} mismatches left of {} holes", r.rescrub, r.holes),
    );
    set_rates(&mut out, &rates);
    out.set("recovery_s", median(&recovery));

    // Latency percentiles cover the main phase: arming changes no timing,
    // and the short armed tail exists to load the crash path (its p99 is
    // in the notes).
    let mut ms = r.main.response_ms();
    let offered = (main.len() + r.tail_offered) as u64;
    let mut completed = r.main.completed() + r.tail.completed();
    if args.corrupt == Corrupt::DropCompletion {
        completed -= 1;
        ms.pop();
    }
    out.account(offered, completed, r.main.rejected() + r.tail.rejected(), 0);
    out.set_sim_percentiles(&ms);
    let mut agg = ServerAgg::default();
    agg.add(&r.main);
    agg.set(&mut out, r.main.sim_end.as_ns() as f64);
    let n_main = r.main.completed().max(1) as f64;
    out.set("sim_disk.cmds", r.member_cmds_main as f64);
    out.set(
        "sim_disk.busy_frac",
        r.busy.iter().sum::<f64>() / r.busy.len().max(1) as f64,
    );
    out.set("sim_disk.crash_log_writes", r.log_writes as f64);
    out.set(
        "sim_disk.crash_payload_mb",
        r.payload_bytes as f64 / 1048576.0,
    );
    out.set(
        "fleet.member_cmds_per_req",
        r.member_cmds_main as f64 / n_main,
    );
    out.set(
        "fleet.member_busy_min_frac",
        r.busy.iter().copied().fold(f64::INFINITY, f64::min),
    );
    out.set(
        "fleet.member_busy_max_frac",
        r.busy.iter().copied().fold(0.0, f64::max),
    );
    out.set("fleet.arm_crash_s", median(&arm));
    out.set("fleet.armed_host_ns_per_req", median(&armed_ns));
    out.set("fleet.power_cut_s", median(&cut));
    out.set("fleet.scrub_repair_s", median(&repair));
    out.set("fleet.write_holes", r.holes as f64);
    out.set("fleet.repaired_sectors", r.repaired as f64);
    out.notes.push(format!(
        "raid5: {} main + {} armed tail requests (tail p99 {:.2} ms), \
         cut left {} parity holes, repaired {} sectors",
        r.main.completed(),
        r.tail.completed(),
        r.tail.percentile_ms(0.99),
        r.holes,
        r.repaired
    ));
    if args.trace {
        let reps = traced_reps as f64;
        out.set(
            "server.host_ns_per_req",
            layers.get("server").self_ns as f64
                / (reps * (main.len() + r.tail.completed() as usize) as f64),
        );
        out.set(
            "fleet.host_ns_per_req",
            layers.get("fleet").total_ns as f64 / (reps * main.len() as f64),
        );
        out.notes.push(layers.table());
    }
    out
}
