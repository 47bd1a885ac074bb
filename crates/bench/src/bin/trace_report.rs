//! Offline analyzer for `--trace` JSONL files: event census, per-phase
//! latency percentiles, a Figure-3/7-style mean breakdown of where the
//! response time went, and an accounting check that the per-phase sums
//! reproduce the host-observed response times.
//!
//! ```text
//! fig3 --quick --trace /tmp/fig3.jsonl
//! trace_report /tmp/fig3.jsonl
//! ```

use sim_disk::request::Op;
use sim_disk::trace::TraceEvent;
use std::collections::BTreeMap;
use std::io::BufRead;
use traxtent::stats::percentile;
use traxtent_bench::trace::{parse_event, peek_event_name};

/// The phases of a [`TraceEvent::Complete`] in report order. `response` is
/// the host-observed end-to-end time; the other eight are its additive
/// components.
const PHASES: [&str; 9] = [
    "queue",
    "overhead",
    "seek",
    "head_switch",
    "rot_latency",
    "media",
    "bus",
    "write_settle",
    "response",
];

/// The worst request rows printed by default; override with `--top <n>`.
const DEFAULT_TOP: usize = 5;

fn usage(name: &str) -> ! {
    eprintln!("usage: {name} <trace.jsonl> [--top <n>]");
    std::process::exit(2);
}

fn main() {
    let name = std::env::args()
        .next()
        .unwrap_or_else(|| "trace_report".into());
    let mut path = None;
    let mut top = DEFAULT_TOP;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--top" => {
                top = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage(&name));
            }
            _ if path.is_none() && !a.starts_with('-') => path = Some(a),
            _ => usage(&name),
        }
    }
    let path = path.unwrap_or_else(|| usage(&name));

    let file = std::fs::File::open(&path).unwrap_or_else(|e| {
        eprintln!("error: cannot open `{path}`: {e}");
        std::process::exit(1);
    });

    let mut census: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut completes: Vec<TraceEvent> = Vec::new();
    let mut scsi: BTreeMap<String, u64> = BTreeMap::new();
    // A well-formed line whose event kind this build does not know (a
    // newer producer, or span records mixed into the stream) is counted
    // and skipped. Only a malformed line — the producing run interrupted
    // mid-write, leaving a truncated tail — stops the scan.
    let mut unknown: BTreeMap<String, u64> = BTreeMap::new();
    let mut truncated_at: Option<usize> = None;
    for (i, line) in std::io::BufReader::new(file).lines().enumerate() {
        let line = line.unwrap_or_else(|e| {
            eprintln!("error: read failure at line {}: {e}", i + 1);
            std::process::exit(1);
        });
        if line.trim().is_empty() {
            continue;
        }
        let event = match parse_event(&line) {
            Ok(event) => event,
            Err(_) => match peek_event_name(&line) {
                Some(kind) => {
                    *unknown.entry(kind).or_insert(0) += 1;
                    continue;
                }
                None => {
                    truncated_at = Some(i + 1);
                    break;
                }
            },
        };
        *census.entry(event.name()).or_insert(0) += 1;
        match &event {
            TraceEvent::Complete { .. } => completes.push(event),
            TraceEvent::ScsiCommand { kind, .. } => {
                *scsi.entry(kind.clone()).or_insert(0) += 1;
            }
            _ => {}
        }
    }

    if census.is_empty() && unknown.is_empty() {
        match truncated_at {
            Some(line_no) => {
                println!("trace `{path}` holds no usable events (truncated at line {line_no})")
            }
            None => println!("trace `{path}` is empty: nothing to report"),
        }
        return;
    }

    println!("# Trace report: {path}");
    if let Some(line_no) = truncated_at {
        let events: u64 = census.values().sum();
        println!(
            "note: trace truncated at line {line_no}; reporting the {events} events before it"
        );
    }
    println!("## Event census");
    for (name, count) in &census {
        println!("{name:<12} {count:>10}");
    }
    if !unknown.is_empty() {
        println!("## Unrecognized event kinds (skipped)");
        for (kind, count) in &unknown {
            println!("{kind:<12} {count:>10}");
        }
    }
    if completes.is_empty() && census.is_empty() {
        println!("no recognized events in trace");
        return;
    }
    if !scsi.is_empty() {
        println!("## SCSI diagnostic commands");
        for (kind, count) in &scsi {
            println!("{kind:<17} {count:>5}");
        }
    }

    if completes.is_empty() {
        println!("no completed requests in trace");
        return;
    }

    // Figure-3/7-style mean breakdown: where the average response went.
    let phases: Vec<[u64; 9]> = completes.iter().map(phases_ns).collect();
    let n = completes.len() as f64;
    let mut sums = [0u128; PHASES.len()];
    let mut worst_residual = 0u64;
    for p in &phases {
        for (sum, &v) in sums.iter_mut().zip(p) {
            *sum += u128::from(v);
        }
        let [parts @ .., response] = p;
        let accounted: u64 = parts.iter().sum();
        worst_residual = worst_residual.max(response.abs_diff(accounted));
    }
    let mean_ms = |k: usize| sums[k] as f64 / n / 1e6;
    let response_ms = mean_ms(PHASES.len() - 1);
    println!(
        "## Mean response-time breakdown ({} requests)",
        completes.len()
    );
    println!("{:<13} {:>9} {:>7}", "phase", "mean_ms", "share");
    for (k, phase) in PHASES.iter().enumerate().take(PHASES.len() - 1) {
        println!(
            "{:<13} {:>9.4} {:>6.1}%",
            phase,
            mean_ms(k),
            100.0 * mean_ms(k) / response_ms
        );
    }
    println!("{:<13} {:>9.4} {:>6.1}%", "response", response_ms, 100.0);
    println!(
        "phase sums reproduce response within {:.1} µs worst-case (rounding residual)",
        worst_residual as f64 / 1e3
    );

    // Per-phase latency distribution: exact percentiles over every request.
    println!(
        "{:<13} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "phase", "mean_ms", "p50_ms", "p95_ms", "p99_ms", "max_ms"
    );
    for (k, phase) in PHASES.iter().enumerate() {
        let ns: Vec<f64> = phases.iter().map(|p| p[k] as f64).collect();
        let max_ns = phases.iter().map(|p| p[k]).max().unwrap_or(0);
        println!(
            "{:<13} {:>9.4} {:>9.4} {:>9.4} {:>9.4} {:>9.4}",
            phase,
            mean_ms(k),
            percentile(&ns, 0.50) / 1e6,
            percentile(&ns, 0.95) / 1e6,
            percentile(&ns, 0.99) / 1e6,
            max_ns as f64 / 1e6,
        );
    }
    let (mut reads, mut cache_hits) = (0, 0);
    for c in &completes {
        if let TraceEvent::Complete { op, cache_hit, .. } = *c {
            reads += usize::from(op == Op::Read);
            cache_hits += usize::from(cache_hit);
        }
    }
    println!(
        "requests {} (reads {reads}, writes {}, cache hits {cache_hits})",
        completes.len(),
        completes.len() - reads
    );

    // The slowest requests, with their individual breakdowns.
    completes.sort_by_key(|c| std::cmp::Reverse(phases_ns(c)[PHASES.len() - 1]));
    println!("## Slowest {} requests (ms)", top.min(completes.len()));
    println!(
        "{:<8} {:<5} {:>9} {:>7} {:>7} {:>7} {:>7} {:>7}",
        "req", "op", "response", "queue", "seek", "rot", "media", "bus"
    );
    for c in completes.iter().take(top) {
        if let TraceEvent::Complete {
            req,
            op,
            queue,
            seek,
            rot_latency,
            media,
            bus,
            response,
            ..
        } = c
        {
            println!(
                "{:<8} {:<5} {:>9.3} {:>7.3} {:>7.3} {:>7.3} {:>7.3} {:>7.3}",
                req,
                format!("{op:?}").to_lowercase(),
                *response as f64 / 1e6,
                *queue as f64 / 1e6,
                *seek as f64 / 1e6,
                *rot_latency as f64 / 1e6,
                *media as f64 / 1e6,
                *bus as f64 / 1e6,
            );
        }
    }
}

/// The phases of a [`TraceEvent::Complete`] in [`PHASES`] order, in
/// nanoseconds (all zero for any other event).
fn phases_ns(c: &TraceEvent) -> [u64; 9] {
    let TraceEvent::Complete {
        queue,
        overhead,
        seek,
        head_switch,
        rot_latency,
        media,
        bus,
        write_settle,
        response,
        ..
    } = *c
    else {
        return [0; 9];
    };
    [
        queue,
        overhead,
        seek,
        head_switch,
        rot_latency,
        media,
        bus,
        write_settle,
        response,
    ]
}
