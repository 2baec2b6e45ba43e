//! Differential tests for the live-observability stack: the phase-scoped
//! metrics snapshot stream and the `eim top` dashboard.
//!
//! Three invariants are locked down end to end:
//!
//! * **Reconciliation** — the interval deltas a run streams out must sum
//!   exactly back to the run's final metrics registry: the accumulator's
//!   rebuilt state hashes to the digest the final record embeds, for every
//!   simulated engine and for streaming-update runs.
//! * **Determinism** — two identical runs write byte-identical snapshot
//!   streams, and `eim top --once --plain` renders byte-identical frames
//!   from them.
//! * **Schedule invariance** — the stream is keyed to the simulated clock,
//!   so the rayon thread count must not change a single byte of it.
//!
//! A replayed stream is untrusted input, so hostile streams — truncated,
//! bit-flipped, or with deltas that overflow `u64` — must fold to `Ok` or a
//! typed `Err` and render, never panic.

use std::io::BufReader;
use std::process::Command;
use std::sync::OnceLock;

use eim::core::{EimEngine, ScanStrategy};
use eim::gpusim::{Device, DeviceSpec, MetricsRegistry, RunTrace, SnapshotAccumulator};
use eim::imm::{run_imm_recovering, ImmEngine as _, RecoveryPolicy};
use eim::prelude::*;
use proptest::prelude::*;

fn temp_dir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("eim_observability_tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs the CLI with a snapshot stream attached and returns the stream's
/// bytes. `tag` keeps concurrent tests from clobbering each other's files.
fn run_cli_stream(tag: &str, extra: &[&str]) -> Vec<u8> {
    let path = temp_dir().join(format!("{tag}.jsonl"));
    let out = Command::new(env!("CARGO_BIN_EXE_eim"))
        .args([
            "--dataset",
            "WV",
            "--scale",
            "0.02",
            "--k",
            "3",
            "--eps",
            "0.4",
            "--seed",
            "11",
            "--snapshot-stream",
            path.to_str().unwrap(),
            "--snapshot-interval-us",
            "50",
        ])
        .args(extra)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{tag}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::read(&path).expect("snapshot stream written")
}

fn accumulate(bytes: &[u8]) -> SnapshotAccumulator {
    let mut acc = SnapshotAccumulator::new();
    acc.push_reader(BufReader::new(bytes))
        .expect("stream parses");
    acc
}

/// Every engine's stream must carry a header, reach a final record, and
/// reconcile: the summed deltas hash to the embedded cumulative digest.
#[test]
fn snapshot_streams_reconcile_for_every_engine() {
    for (engine, extra) in [
        ("eim", &[][..]),
        ("gim", &[]),
        ("curipples", &[]),
        ("multigpu", &["--devices", "2"]),
    ] {
        let bytes = run_cli_stream(
            &format!("reconcile_{engine}"),
            &[&["--engine", engine][..], extra].concat(),
        );
        let acc = accumulate(&bytes);
        assert!(acc.header.is_some(), "{engine}: stream missing header");
        let digest = acc.reconcile().unwrap_or_else(|e| panic!("{engine}: {e}"));
        assert_eq!(digest.len(), 16, "{engine}: digest is fnv64 hex");
        assert!(
            !acc.flat.kernels.is_empty(),
            "{engine}: no kernel profiles in the rebuilt state"
        );
    }
}

/// Streaming-update runs fold per-batch invalidation counters into the
/// stream under the `stream-update` phase; they must reconcile too.
#[test]
fn streaming_update_stream_reconciles_and_carries_phase() {
    let bytes = run_cli_stream(
        "reconcile_streaming",
        &[
            "--engine",
            "eim",
            "--updates",
            "batches=3,edges=12,insert=0.5,seed=1",
        ],
    );
    let acc = accumulate(&bytes);
    acc.reconcile().expect("streaming stream reconciles");
    let batches: u64 = acc
        .flat
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("eim_stream_batches_total"))
        .map(|(_, &v)| v)
        .sum();
    assert_eq!(batches, 3, "one batch counter increment per update batch");
    assert!(
        acc.flat
            .counters
            .keys()
            .any(|k| k.starts_with("eim_stream_invalidated_slots_total")
                && k.contains("phase=\"stream-update\"")),
        "invalidation counters must carry the stream-update phase label"
    );
}

/// Double runs: byte-identical streams, byte-identical `eim top` frames,
/// and a clean `--check` reconciliation exit.
#[test]
fn double_runs_and_top_frames_are_byte_identical() {
    let a = run_cli_stream("det_a", &["--engine", "eim"]);
    let b = run_cli_stream("det_b", &["--engine", "eim"]);
    assert!(!a.is_empty());
    assert_eq!(a, b, "double runs must write byte-identical streams");

    let frame = |tag: &str, bytes: &[u8], check: bool| {
        let path = temp_dir().join(format!("{tag}.jsonl"));
        std::fs::write(&path, bytes).unwrap();
        let mut args = vec![
            "top",
            "--replay",
            path.to_str().unwrap(),
            "--once",
            "--plain",
        ];
        if check {
            args.push("--check");
        }
        let out = Command::new(env!("CARGO_BIN_EXE_eim"))
            .args(&args)
            .output()
            .expect("top runs");
        assert!(
            out.status.success(),
            "top {tag}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let fa = frame("det_a_frame", &a, false);
    let fb = frame("det_b_frame", &b, false);
    assert!(!fa.is_empty());
    assert_eq!(fa, fb, "top frames must be byte-identical");
    let checked = frame("det_a_checked", &a, true);
    assert!(
        String::from_utf8_lossy(&checked).contains("reconciliation OK"),
        "--check must report reconciliation OK"
    );
}

/// Runs the eIM engine in-process under a rayon pool of `threads` with a
/// snapshot stream attached, and returns the stream bytes. Provenance is
/// pinned (`Value::Null`) so only the metrics content is compared.
fn run_engine_stream(seed: u64, threads: usize) -> Vec<u8> {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap();
    pool.install(|| {
        let path = temp_dir().join(format!("pool_{seed}_{threads}.jsonl"));
        let graph =
            eim::graph::generators::barabasi_albert(400, 3, WeightModel::WeightedCascade, seed);
        let config = ImmConfig::paper_default()
            .with_k(4)
            .with_epsilon(0.4)
            .with_seed(seed);
        let registry = MetricsRegistry::new();
        registry
            .start_snapshot_stream(
                Box::new(std::fs::File::create(&path).unwrap()),
                25,
                serde_json::Value::Null,
            )
            .unwrap();
        let trace = RunTrace::disabled().with_metrics(registry.sink().with_engine("eim"));
        let device = Device::with_run_trace(DeviceSpec::test_small(), trace.clone());
        let mut engine =
            EimEngine::new(&graph, config, device, ScanStrategy::ThreadPerSet).expect("fits");
        run_imm_recovering(&mut engine, &config, &RecoveryPolicy::abort(), &trace).expect("runs");
        let elapsed = engine.elapsed_us();
        registry.finish_snapshot_stream(elapsed).unwrap();
        std::fs::read(&path).unwrap()
    })
}

/// The stream is keyed to the simulated clock, not the host schedule: a
/// 1-thread and a 4-thread pool must produce the same bytes, and the
/// rebuilt state must equal the live registry's snapshot.
#[test]
fn stream_invariant_under_rayon_thread_count() {
    let single = run_engine_stream(17, 1);
    assert!(!single.is_empty());
    let parallel = run_engine_stream(17, 4);
    assert_eq!(single, parallel, "thread count changed the stream");
    let acc = accumulate(&single);
    assert!(acc.records >= 2, "expected interval + final records");
    acc.reconcile().expect("pooled stream reconciles");
}

/// In-process cross-check of the strongest form of the invariant: the
/// accumulator's rebuilt cumulative state must serialize identically to
/// the live registry's own snapshot — field for field, not just digests.
#[test]
fn rebuilt_state_equals_live_registry_snapshot() {
    let path = temp_dir().join("live_vs_rebuilt.jsonl");
    let graph = eim::graph::generators::barabasi_albert(400, 3, WeightModel::WeightedCascade, 5);
    let config = ImmConfig::paper_default()
        .with_k(4)
        .with_epsilon(0.4)
        .with_seed(5);
    let registry = MetricsRegistry::new();
    registry
        .start_snapshot_stream(
            Box::new(std::fs::File::create(&path).unwrap()),
            25,
            serde_json::Value::Null,
        )
        .unwrap();
    let trace = RunTrace::disabled().with_metrics(registry.sink().with_engine("eim"));
    let device = Device::with_run_trace(DeviceSpec::test_small(), trace.clone());
    let mut engine =
        EimEngine::new(&graph, config, device, ScanStrategy::ThreadPerSet).expect("fits");
    run_imm_recovering(&mut engine, &config, &RecoveryPolicy::abort(), &trace).expect("runs");
    let elapsed = engine.elapsed_us();
    registry.finish_snapshot_stream(elapsed).unwrap();

    let acc = accumulate(&std::fs::read(&path).unwrap());
    let rebuilt = serde_json::to_string(&acc.cumulative_value()).unwrap();
    let live = serde_json::to_string(&registry.snapshot_value()).unwrap();
    assert_eq!(rebuilt, live, "rebuilt state diverged from the registry");
}

/// A real `--snapshot-stream` file, written once for the hostile-stream
/// properties below.
fn recorded_stream() -> &'static [u8] {
    static STREAM: OnceLock<Vec<u8>> = OnceLock::new();
    STREAM.get_or_init(|| run_cli_stream("hostile_base", &[]))
}

/// Folds `bytes` the way `eim top --replay` does, then renders and
/// reconciles whatever state the fold reached. Only a panic fails.
fn fold_and_render(bytes: &[u8]) -> Result<(), String> {
    let mut acc = SnapshotAccumulator::new();
    let folded = acc.push_reader(BufReader::new(bytes));
    let _ = eim::top::render_frame(&acc);
    let _ = acc.reconcile();
    folded
}

/// Two records whose deltas for the same `section` key sum past
/// `u64::MAX`; `body` renders one delta as that section's JSON.
fn overflowing_stream(section: &str, body: impl Fn(u64) -> String) -> String {
    let record = |seq: u64, delta: u64| {
        format!(
            r#"{{"seq":{seq},"ts_us":{seq},"phase":"sample","{section}":{{"k":{}}}}}"#,
            body(delta)
        )
    };
    format!("{}\n{}\n", record(0, u64::MAX), record(1, 1))
}

#[test]
fn overflowing_snapshot_deltas_are_errors() {
    let cases = [
        overflowing_stream("counters", |d| d.to_string()),
        overflowing_stream("histograms", |d| {
            format!(r#"{{"count":{d},"sum":1.0,"buckets":[0]}}"#)
        }),
        overflowing_stream("histograms", |d| {
            format!(r#"{{"count":0,"sum":1.0,"buckets":[{d}]}}"#)
        }),
        overflowing_stream("kernels", |d| format!(r#"{{"engine":"eim","cycles":{d}}}"#)),
        overflowing_stream("kernels", |d| {
            format!(r#"{{"engine":"eim","mallocs":{d}}}"#)
        }),
    ];
    for stream in cases {
        let err = fold_and_render(stream.as_bytes()).expect_err(&stream);
        assert!(err.contains("overflows"), "{stream}: {err}");
    }
    // One delta at the limit is still a value, not an error.
    let at_limit = overflowing_stream("counters", |d| d.to_string());
    let first = at_limit.lines().next().unwrap();
    fold_and_render(first.as_bytes()).expect("a single u64::MAX delta folds");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A recorded stream cut at any byte folds to `Ok` or `Err`.
    #[test]
    fn truncated_snapshot_streams_never_panic(cut in 0.0f64..1.0) {
        let bytes = recorded_stream();
        let _ = fold_and_render(&bytes[..(bytes.len() as f64 * cut) as usize]);
    }

    /// A recorded stream with up to eight flipped bits folds to `Ok` or
    /// `Err`.
    #[test]
    fn bit_flipped_snapshot_streams_never_panic(
        flips in proptest::collection::vec((0.0f64..1.0, 0u8..8), 1..8),
    ) {
        let mut bytes = recorded_stream().to_vec();
        for (at, bit) in flips {
            let i = ((bytes.len() as f64 * at) as usize).min(bytes.len() - 1);
            bytes[i] ^= 1 << bit;
        }
        let _ = fold_and_render(&bytes);
    }
}
