//! The benchmark's own tests: every workload at tiny size prints every
//! named metric with its unit, deliberately corrupted outputs fail the
//! gate, one seed reproduces its simulated metrics bit for bit, and
//! `BENCHMARK.json` names exactly the metrics the program prints.

use perfbench::{Workload, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::process::Command;
use traxtent_bench::manifest::json::{self, Value};

struct Run {
    code: i32,
    correct: bool,
    metrics: BTreeMap<String, (f64, String)>,
}

fn run(workload: &str, seed: u64, trace: bool, extra: &[&str]) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0", "--trace", if trace { "1" } else { "0" }])
        .args(["--scale", "tiny"])
        .args(extra)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 report");
    let last = stdout.lines().last().expect("a result line");
    let v = json::parse(last).expect("last line is JSON");
    let o = v.as_object().expect("an object");
    let mut metrics = BTreeMap::new();
    for (name, m) in o["metrics"].as_object().expect("metrics object") {
        let m = m.as_object().expect("metric object");
        let value = match &m["value"] {
            Value::Num(n) => n.parse().expect("numeric value"),
            other => panic!("value of {name} is {other:?}"),
        };
        let unit = m["unit"].as_str().expect("unit").to_string();
        metrics.insert(name.clone(), (value, unit));
    }
    Run {
        code: out.status.code().expect("exited"),
        correct: o["correct"] == Value::Bool(true),
        metrics,
    }
}

fn names(defs: &[(&str, &str, &str)]) -> Vec<(String, String)> {
    defs.iter()
        .map(|(n, u, _)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    for w in Workload::ALL {
        for trace in [false, true] {
            let r = run(w.name(), 1, trace, &[]);
            assert_eq!(r.code, 0, "{} trace={trace}", w.name());
            assert!(r.correct, "{} trace={trace}", w.name());
            let got: Vec<(String, String)> = r
                .metrics
                .iter()
                .map(|(n, (_, u))| (n.clone(), u.clone()))
                .collect();
            let mut want = names(if trace { PER_LAYER } else { END_TO_END });
            want.sort();
            assert_eq!(got, want, "{} trace={trace}", w.name());
            if !trace {
                for (name, (v, _)) in &r.metrics {
                    assert!(*v > 0.0, "{}: end-to-end {name} is {v}", w.name());
                }
            }
        }
    }
}

#[test]
fn corrupted_outputs_fail_the_gate() {
    for (workload, seed, corruption) in [
        ("disk_mixed", 1, "drop-completion"),
        ("disk_observed", 1, "span-parent"),
        // Seed 3 leaves write holes at tiny size, so skipping the repair
        // leaves parity that disagrees with its data.
        ("raid5_mixed", 3, "skip-repair"),
        ("ffs_crash", 1, "ffs-image"),
    ] {
        let r = run(workload, seed, false, &["--corrupt", corruption]);
        assert!(!r.correct, "{workload} with {corruption} passed the gate");
        assert_eq!(r.code, 1, "{workload} with {corruption} exited 0");
    }
}

#[test]
fn one_seed_reproduces_simulated_metrics_and_another_changes_them() {
    let sim = |seed| -> Vec<f64> {
        run("disk_mixed", seed, false, &[])
            .metrics
            .into_iter()
            .filter(|(n, _)| n.starts_with("sim_"))
            .map(|(_, (v, _))| v)
            .collect()
    };
    let a = sim(5);
    assert_eq!(a.len(), 3);
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&a), bits(&sim(5)), "same seed, same simulation");
    assert_ne!(bits(&a), bits(&sim(6)), "another seed, other inputs");
}

#[test]
fn bad_arguments_exit_2() {
    for args in [
        vec![
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec![
            "--workload",
            "disk_mixed",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec![
            "--workload",
            "disk_mixed",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ],
        vec!["--workload", "disk_mixed", "--seed", "1"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(&args)
            .output()
            .expect("benchmark binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}

#[test]
fn benchmark_json_names_exactly_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let v = json::parse(&text).expect("valid JSON");
    let o = v.as_object().expect("an object");
    let list = |key: &str| -> Vec<(String, String, String)> {
        o[key]
            .as_array()
            .expect("a list")
            .iter()
            .map(|m| {
                let m = m.as_object().expect("metric object");
                let s = |k: &str| m[k].as_str().expect("string").to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    };
    let defs = |d: &[(&str, &str, &str)]| -> Vec<(String, String, String)> {
        d.iter()
            .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
            .collect()
    };
    assert_eq!(list("end_to_end"), defs(END_TO_END));
    assert_eq!(list("per_layer"), defs(PER_LAYER));
    let workloads: Vec<&str> = o["workloads"]
        .as_array()
        .expect("a list")
        .iter()
        .map(|w| {
            w.as_object().expect("object")["name"]
                .as_str()
                .expect("name")
        })
        .collect();
    let want: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, want);
}

#[test]
fn peak_rss_reader_returns_a_plausible_value() {
    let before = perfbench::peak_rss_mb().expect("VmHWM is reported");
    assert!(before > 1.0 && before < 65536.0, "{before} MB");
    let touched = vec![1u8; 64 << 20];
    std::hint::black_box(&touched);
    let after = perfbench::peak_rss_mb().expect("VmHWM is reported");
    assert!(
        after >= before + 60.0,
        "{before} MB -> {after} MB after 64 MB"
    );
}
