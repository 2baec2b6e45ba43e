//! Runs every workload of `BENCHMARK.json` at reduced size and checks the
//! result line against it: every named metric is emitted with its unit, the
//! outputs are correct, and the digest repeats across runs and between the
//! traced and the untraced run.

use std::path::{Path, PathBuf};
use std::process::Command;

use serde_json::Value;

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn names(spec: &Value, key: &str) -> Vec<String> {
    spec[key]
        .as_array()
        .expect("a list")
        .iter()
        .map(|entry| entry["name"].as_str().expect("a name").to_string())
        .collect()
}

fn out_dir(tag: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(tag)
}

/// Runs one small-size run and returns its parsed result line.
fn run(workload: &str, seed: u64, trace: bool, out: &Path) -> Value {
    let output = Command::new(env!("CARGO_BIN_EXE_repobench"))
        .args([
            "--workload",
            workload,
            "--size",
            "small",
            "--seconds",
            "0.2",
        ])
        .args([
            "--seed",
            &seed.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .arg("--out")
        .arg(out)
        .output()
        .expect("the benchmark runs");
    assert!(
        output.status.success(),
        "{workload}: exit {:?}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).expect("the result line is JSON")
}

fn digest(out: &Path, workload: &str, seed: u64, trace: bool) -> Vec<u8> {
    let file = format!(
        "{workload}-small-seed{seed}-trace{}.digest",
        u8::from(trace)
    );
    std::fs::read(out.join(file)).expect("the run wrote its digest")
}

#[test]
fn every_workload_emits_every_metric_with_its_unit() {
    let spec = benchmark_json();
    let out = out_dir("metrics");
    for workload in names(&spec, "workloads") {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let result = run(&workload, 3, trace, &out);
            let keys: Vec<&String> = result.as_object().unwrap().iter().map(|(k, _)| k).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result["correct"].as_bool(), Some(true), "{workload}");
            assert!(result["attempted"].as_u64().unwrap() >= 1);
            assert_eq!(result["failed"].as_u64(), Some(0));
            let metrics = result["metrics"].as_object().expect("metrics object");
            let emitted: Vec<&String> = metrics.iter().map(|(k, _)| k).collect();
            assert_eq!(emitted, names(&spec, key).iter().collect::<Vec<_>>());
            for entry in spec[key].as_array().unwrap() {
                let name = entry["name"].as_str().unwrap();
                let metric = metrics.get(name).unwrap();
                assert_eq!(metric["unit"], entry["unit"], "{workload} {name}");
                assert!(metric["value"].as_f64().unwrap().is_finite());
            }
            if !trace {
                for (name, metric) in metrics.iter() {
                    assert!(
                        metric["value"].as_f64().unwrap() > 0.0,
                        "{workload}: end-to-end metric {name} is 0"
                    );
                }
            }
        }
    }
}

#[test]
fn digests_repeat_and_tracing_does_not_change_them() {
    let spec = benchmark_json();
    for workload in names(&spec, "workloads") {
        let (a, b) = (out_dir("digest-a"), out_dir("digest-b"));
        run(&workload, 5, false, &a);
        run(&workload, 5, false, &b);
        run(&workload, 5, true, &a);
        let untraced = digest(&a, &workload, 5, false);
        assert!(!untraced.is_empty());
        assert_eq!(untraced, digest(&b, &workload, 5, false), "{workload}");
        assert_eq!(untraced, digest(&a, &workload, 5, true), "{workload}");
        run(&workload, 6, false, &b);
        assert_ne!(untraced, digest(&b, &workload, 6, false), "{workload}");
    }
}
