//! `perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Runs one workload, prints a human-readable report, and ends with one
//! JSON line: `{"correct", "attempted", "failed", "metrics"}`. Exits 1 when
//! a correctness check fails and 2 on bad arguments.

use perfbench::{run, Args, END_TO_END, PER_LAYER, USAGE};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let out = run(&args);
    println!(
        "workload {} seed {} ({} run)",
        args.workload.name(),
        args.seed,
        if args.trace { "traced" } else { "untraced" }
    );
    print!("{}", out.gate.render());
    for note in &out.notes {
        println!("{}", note.trim_end());
    }
    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    for (name, unit, _) in defs {
        match out.values.get(name) {
            Some(v) => println!("{name:<32} {v:>16.6} {unit}"),
            None => println!("{name:<32} {:>16} {unit} (layer not loaded)", 0),
        }
    }
    let json = match out.json(args.trace) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    println!("{json}");
    if !out.gate.passed() {
        for f in out.gate.failures() {
            eprintln!("correctness check failed: {f}");
        }
        std::process::exit(1);
    }
}
