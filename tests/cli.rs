//! Integration tests for the `eim` command-line binary.

use std::io::Write;
use std::process::Command;

fn eim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_eim"))
}

fn write_edge_list() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("eim_cli_tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("chain.txt");
    let mut f = std::fs::File::create(&path).unwrap();
    writeln!(f, "# tiny chain with a hub").unwrap();
    for i in 0..20 {
        writeln!(f, "{} {}", i, i + 1).unwrap();
        writeln!(f, "100 {}", i).unwrap();
    }
    path
}

#[test]
fn runs_on_a_snap_file() {
    let path = write_edge_list();
    let out = eim()
        .args([
            "--input",
            path.to_str().unwrap(),
            "--k",
            "2",
            "--eps",
            "0.4",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("seeds:"), "{stdout}");
    assert!(stdout.contains("coverage:"));
}

#[test]
fn json_output_is_valid_json_with_expected_fields() {
    let out = eim()
        .args([
            "--dataset",
            "WV",
            "--scale",
            "0.01",
            "--k",
            "3",
            "--eps",
            "0.4",
            "--json",
            "--spread-sims",
            "50",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).expect("stdout parses as JSON");
    assert_eq!(v["k"], 3);
    assert_eq!(v["engine"], "eim");
    assert_eq!(v["seeds"].as_array().unwrap().len(), 3);
    assert!(v["estimated_spread"].as_f64().unwrap() >= 3.0);
    assert!(v["rrr_sets"].as_u64().unwrap() > 0);
}

#[test]
fn every_engine_flag_works() {
    for engine in ["eim", "gim", "curipples", "cpu", "multigpu"] {
        let out = eim()
            .args([
                "--dataset",
                "PG",
                "--scale",
                "0.004",
                "--k",
                "2",
                "--eps",
                "0.5",
                "--engine",
                engine,
                "--json",
            ])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{engine}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let v: serde_json::Value = serde_json::from_slice(&out.stdout).unwrap();
        assert_eq!(v["engine"], engine);
        assert_eq!(v["seeds"].as_array().unwrap().len(), 2);
    }
}

#[test]
fn engines_agree_on_seeds_via_cli() {
    let seeds_for = |engine: &str| -> serde_json::Value {
        let out = eim()
            .args([
                "--dataset",
                "SE",
                "--scale",
                "0.004",
                "--k",
                "3",
                "--eps",
                "0.4",
                "--engine",
                engine,
                "--no-pack",
                "--no-elim",
                "--json",
            ])
            .output()
            .unwrap();
        assert!(out.status.success());
        serde_json::from_slice::<serde_json::Value>(&out.stdout).unwrap()["seeds"].clone()
    };
    assert_eq!(seeds_for("eim"), seeds_for("gim"));
    assert_eq!(seeds_for("eim"), seeds_for("curipples"));
}

#[test]
fn multigpu_engine_matches_eim_seeds_via_cli() {
    let run = |engine: &str, extra: &[&str]| -> serde_json::Value {
        let mut args = vec![
            "--dataset",
            "SE",
            "--scale",
            "0.004",
            "--k",
            "3",
            "--eps",
            "0.4",
            "--engine",
            engine,
            "--json",
        ];
        args.extend_from_slice(extra);
        let out = eim().args(&args).output().unwrap();
        assert!(
            out.status.success(),
            "{engine}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        serde_json::from_slice::<serde_json::Value>(&out.stdout).unwrap()["seeds"].clone()
    };
    let single = run("eim", &[]);
    assert_eq!(single, run("multigpu", &["--devices", "2"]));
    assert_eq!(single, run("multigpu", &["--devices", "4"]));
}

#[test]
fn bad_usage_exits_nonzero() {
    // No input source at all.
    let out = eim().args(["--k", "3"]).output().unwrap();
    assert!(!out.status.success());
    // Two input sources.
    let out = eim()
        .args(["--dataset", "WV", "--input", "x.txt"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    // Unknown dataset.
    let out = eim().args(["--dataset", "NOPE"]).output().unwrap();
    assert!(!out.status.success());
    // Missing file.
    let out = eim()
        .args(["--input", "/nonexistent/file.txt"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn oom_is_a_clean_error_not_a_panic() {
    // 0.1 MB cannot hold a ~2 MB graph: the run must fail with a clear
    // message on stderr and a nonzero exit, not a panic.
    let out = eim()
        .args([
            "--dataset",
            "WV",
            "--scale",
            "0.2",
            "--k",
            "3",
            "--eps",
            "0.4",
            "--device-mem-mb",
            "0.1",
        ])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("out of device memory"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

#[test]
fn oom_under_json_is_a_structured_error() {
    let out = eim()
        .args([
            "--dataset",
            "WV",
            "--scale",
            "0.2",
            "--k",
            "3",
            "--eps",
            "0.4",
            "--device-mem-mb",
            "0.1",
            "--json",
        ])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).expect("stdout parses as JSON");
    assert_eq!(v["error"]["kind"], "out_of_memory");
    assert!(v["error"]["requested_bytes"].as_u64().unwrap() > 0);
    assert!(v["error"]["capacity_bytes"].as_u64().unwrap() > 0);
    assert!(v["error"]["message"]
        .as_str()
        .unwrap()
        .contains("out of device memory"));
}

#[test]
fn json_output_carries_telemetry_summary() {
    let out = eim()
        .args([
            "--dataset",
            "WV",
            "--scale",
            "0.01",
            "--k",
            "2",
            "--eps",
            "0.5",
            "--json",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).unwrap();
    let t = &v["telemetry"];
    assert!(t["kernel_launches"].as_u64().unwrap() > 0);
    assert!(t["peak_device_bytes"].as_u64().unwrap() > 0);
    assert!(t["phase_us"]["estimation"].as_f64().unwrap() >= 0.0);
    assert_eq!(
        t["dropped_events"].as_u64(),
        Some(0),
        "uncapped run drops nothing"
    );
}

#[test]
fn trace_event_cap_bounds_the_event_stream_but_keeps_counters_exact() {
    let dir = std::env::temp_dir().join("eim_cli_cap_test");
    std::fs::create_dir_all(&dir).unwrap();
    let trace_path = dir.join("capped.trace.json");
    let out = eim()
        .args([
            "--dataset",
            "WV",
            "--scale",
            "0.01",
            "--k",
            "3",
            "--eps",
            "0.5",
            "--json",
            "--trace",
            trace_path.to_str().unwrap(),
            "--trace-event-cap",
            "2",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).unwrap();
    let t = &v["telemetry"];
    // Counters are exact even though the event stream is truncated.
    assert!(t["kernel_launches"].as_u64().unwrap() > 2);
    assert!(t["dropped_events"].as_u64().unwrap() > 0);
    let trace: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&trace_path).unwrap()).unwrap();
    let events = trace["traceEvents"].as_array().unwrap();
    for cat in ["phase", "kernel", "memory", "transfer", "fault"] {
        let n = events.iter().filter(|e| e["cat"] == *cat).count();
        assert!(n <= 2, "{cat} lane exceeded cap: {n}");
    }
    assert!(trace["summary"]["dropped_events"].as_u64().unwrap() > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lt_model_flag() {
    let out = eim()
        .args([
            "--dataset",
            "EE",
            "--scale",
            "0.002",
            "--model",
            "lt",
            "--k",
            "2",
            "--eps",
            "0.5",
            "--json",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).unwrap();
    assert_eq!(v["model"], "LT");
}

/// Every sample line of a Prometheus dump is `series value` with a finite
/// value; returns the samples.
fn prometheus_samples(text: &str) -> Vec<(&str, f64)> {
    text.lines()
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .map(|line| {
            let (series, value) = line.rsplit_once(' ').expect("series value");
            let value: f64 = value.parse().expect("numeric sample");
            assert!(value.is_finite(), "non-finite sample: {line}");
            (series, value)
        })
        .collect()
}

#[test]
fn interrupted_runs_keep_their_telemetry() {
    let dir = std::env::temp_dir().join(format!("eim_cli_kill_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let graph = [
        "--dataset",
        "WV",
        "--scale",
        "0.02",
        "--k",
        "4",
        "--eps",
        "0.3",
    ];
    let cold = ["--engine", "multigpu", "--devices", "2"];
    let stream = ["--engine", "eim", "--updates", "batches=3,edges=16,seed=1"];
    for (tag, mode) in [("cold", &cold[..]), ("stream", &stream[..])] {
        let ckpt = dir.join(format!("{tag}-ckpt"));
        let prom = dir.join(format!("{tag}.prom"));
        let trace = dir.join(format!("{tag}.trace.json"));
        let snapshots = dir.join(format!("{tag}.jsonl"));
        let out = eim()
            .args(graph)
            .args(mode)
            .arg("--checkpoint")
            .arg(&ckpt)
            .args(["--ckpt-kill-after", "1", "--json", "--metrics"])
            .arg(&prom)
            .arg("--trace")
            .arg(&trace)
            .arg("--snapshot-stream")
            .arg(&snapshots)
            .output()
            .expect("binary runs");
        assert_eq!(
            out.status.code(),
            Some(3),
            "{tag}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let v: serde_json::Value = serde_json::from_slice(&out.stdout).unwrap();
        assert_eq!(v["error"]["kind"], "interrupted", "{tag}");
        let text = std::fs::read_to_string(&prom).expect("the dump is written");
        let samples = prometheus_samples(&text);
        let has = |name: &str| samples.iter().any(|&(s, v)| s.starts_with(name) && v > 0.0);
        assert!(has("eim_kernel_launches_total"), "{tag}: {text}");
        // The streaming engine keeps no checkpoint counter.
        assert!(
            tag == "stream" || has("eim_checkpoints_written_total"),
            "{tag}: {text}"
        );
        // The snapshot stream is sealed: a header, then deltas ending in the
        // final record.
        let stream_text = std::fs::read_to_string(&snapshots).unwrap();
        let records: Vec<serde_json::Value> = stream_text
            .lines()
            .map(|l| serde_json::from_str(l).expect("JSONL record"))
            .collect();
        assert!(records.len() >= 2, "{tag}: {stream_text}");
        assert_eq!(records.last().unwrap()["final"], true, "{tag}");
        let t: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&trace).unwrap()).unwrap();
        assert!(!t["traceEvents"].as_array().unwrap().is_empty(), "{tag}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn streaming_mode_writes_its_trace() {
    let dir = std::env::temp_dir().join(format!("eim_cli_stream_trace_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("stream.trace.json");
    let out = eim()
        .args([
            "--dataset",
            "WV",
            "--scale",
            "0.02",
            "--k",
            "4",
            "--eps",
            "0.3",
        ])
        .args([
            "--engine",
            "eim",
            "--updates",
            "batches=2,edges=16",
            "--trace",
        ])
        .arg(&trace)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let t: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&trace).expect("trace written")).unwrap();
    let events = t["traceEvents"].as_array().unwrap();
    assert!(
        events.iter().any(|e| e["cat"] == "kernel"),
        "the device resampler's kernels are traced"
    );
    assert_eq!(t["otherData"]["engine"], "eim");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hostile_updates_input_is_a_usage_error() {
    let dir = std::env::temp_dir().join(format!("eim_cli_hostile_updates_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let one_vertex = dir.join("one.txt");
    std::fs::write(&one_vertex, "0 0\n").unwrap();
    let cases: [(&[&str], &str); 2] = [
        (
            &[
                "--input",
                one_vertex.to_str().unwrap(),
                "--k",
                "1",
                "--updates",
                "batches=2",
            ],
            "two vertices",
        ),
        (
            &[
                "--dataset",
                "WV",
                "--scale",
                "0.01",
                "--k",
                "2",
                "--updates",
                "batches=99999999999999",
            ],
            "99999999999999",
        ),
    ];
    for (args, needle) in cases {
        let out = eim().args(args).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains("bad --updates spec") && stderr.contains(needle),
            "{stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
