//! Checkpoint / kill / resume, end to end.
//!
//! The contract under test: a run interrupted after any checkpoint and
//! resumed from disk produces the *same bytes* as the uninterrupted run —
//! identical seed sets, sample counts, and (for fault-free runs) a
//! bit-identical simulated clock. The guarantee must hold across store
//! layouts (plain and packed), host thread schedules, and device losses.

use std::path::{Path, PathBuf};
use std::process::Command;

use eim::core::EimEngine;
use eim::gpusim::{DeviceSpec, FaultSpec, RunTrace};
use eim::graph::{generators, Graph, WeightModel};
use eim::imm::{
    run_fingerprint, run_imm_checkpointed, run_imm_recovering, run_stream, CheckpointPhase,
    Checkpointing, EngineError, HostResampler, ImmConfig, ImmEngine as _, ImmResult,
    RecoveryPolicy, RunCheckpoint, StreamCheckpoint, StreamCheckpointing, StreamingImmEngine,
};
use proptest::prelude::*;

fn graph() -> Graph {
    generators::rmat(
        400,
        2_400,
        generators::RmatParams::GRAPH500,
        WeightModel::WeightedCascade,
        31,
    )
}

fn config(packed: bool) -> ImmConfig {
    ImmConfig::paper_default()
        .with_k(4)
        .with_epsilon(0.2) // tight enough for several estimation rounds
        .with_seed(17)
        .with_packed(packed)
}

fn engine<'g>(g: &'g Graph, c: ImmConfig) -> EimEngine<'g> {
    let spec = DeviceSpec::rtx_a6000_with_mem(256 << 20);
    EimEngine::with_telemetry(g, c, spec, 4, &RunTrace::disabled(), true).unwrap()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("eim-ckpt-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Clean run vs kill-after-first-checkpoint + resume, over
/// {plain, packed} × {1, 4} rayon threads. Seeds, set counts, and the
/// simulated clock must all survive the round trip bit for bit.
#[test]
fn kill_and_resume_reproduce_the_clean_run_exactly() {
    let g = graph();
    for packed in [false, true] {
        let c = config(packed);
        let fp = run_fingerprint(&c, g.num_vertices(), "multigpu", 4);
        for threads in [1usize, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let (clean, killed_err, resumed) = pool.install(|| {
                let mut e = engine(&g, c);
                let clean =
                    run_imm_recovering(&mut e, &c, &RecoveryPolicy::retry(), &RunTrace::disabled())
                        .unwrap();
                let clean = (clean.seeds, clean.num_sets, e.elapsed_us().to_bits());

                let dir = temp_dir(&format!("kr-{packed}-{threads}"));
                let mut e = engine(&g, c);
                let killed_err = run_imm_checkpointed(
                    &mut e,
                    &c,
                    &RecoveryPolicy::retry(),
                    &RunTrace::disabled(),
                    &Checkpointing {
                        dir: Some(dir.clone()),
                        resume: None,
                        kill_after: Some(1),
                        fingerprint: fp,
                    },
                )
                .unwrap_err();

                let cp = RunCheckpoint::load(&dir).unwrap();
                let mut e = engine(&g, c);
                let r = run_imm_checkpointed(
                    &mut e,
                    &c,
                    &RecoveryPolicy::retry(),
                    &RunTrace::disabled(),
                    &Checkpointing {
                        dir: Some(dir.clone()),
                        resume: Some(cp),
                        kill_after: None,
                        fingerprint: fp,
                    },
                )
                .unwrap();
                let _ = std::fs::remove_dir_all(&dir);
                let resumed = (
                    r.seeds,
                    r.num_sets,
                    e.elapsed_us().to_bits(),
                    r.recovery.resumes,
                );
                (clean, killed_err, resumed)
            });
            assert!(
                matches!(
                    killed_err,
                    EngineError::Interrupted {
                        checkpoints_written: 1
                    }
                ),
                "packed={packed} threads={threads}: {killed_err}"
            );
            assert_eq!(
                (resumed.0, resumed.1, resumed.2),
                clean,
                "packed={packed} threads={threads}: resume diverged from the clean run"
            );
            assert_eq!(resumed.3, 1, "resume counter");
        }
    }
}

/// A cold checkpoint's estimation iteration must be the one its sample
/// count belongs to. Naming a later one (5) or one past the last (70) over
/// the same store passes the fingerprint and store-digest checks, so
/// without this check the resume restarts the martingale mid-way and
/// returns other seeds. It must fail typed instead, while the checkpoint as
/// written still resumes to the clean run.
#[test]
fn resume_at_another_estimation_iteration_is_a_checkpoint_mismatch() {
    let g = graph();
    let c = config(true);
    let fp = run_fingerprint(&c, g.num_vertices(), "multigpu", 4);
    let policy = RecoveryPolicy::retry();
    let clean = run_imm_recovering(&mut engine(&g, c), &c, &policy, &RunTrace::disabled()).unwrap();

    let dir = temp_dir("foreign-iteration");
    let run = |resume: Option<RunCheckpoint>, kill_after: Option<u32>| {
        run_imm_checkpointed(
            &mut engine(&g, c),
            &c,
            &policy,
            &RunTrace::disabled(),
            &Checkpointing {
                dir: Some(dir.clone()),
                resume,
                kill_after,
                fingerprint: fp,
            },
        )
    };
    run(None, Some(1)).unwrap_err();
    let cp = RunCheckpoint::load(&dir).unwrap();
    assert_eq!(cp.phase, CheckpointPhase::Estimation { next_iteration: 2 });
    for forged in [5, 70] {
        let mut bad = cp.clone();
        bad.phase = CheckpointPhase::Estimation {
            next_iteration: forged,
        };
        let err = run(Some(bad), None).unwrap_err();
        assert!(
            matches!(
                err,
                EngineError::CheckpointMismatch { expected: 2, found } if found == u64::from(forged)
            ),
            "next_iteration {forged}: {err}"
        );
    }
    let resumed = run(Some(cp), None).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        (resumed.seeds, resumed.num_sets),
        (clean.seeds, clean.num_sets)
    );
}

/// A run that loses devices mid-flight, and a kill/resume of that same
/// faulted run, must both return the clean answer byte for byte (timing is
/// allowed to differ — retries and re-sharding cost simulated time).
#[test]
fn device_loss_with_kill_and_resume_preserves_the_answer() {
    let g = graph();
    for packed in [false, true] {
        let c = config(packed);
        let fp = run_fingerprint(&c, g.num_vertices(), "multigpu", 4);
        let clean = {
            let mut e = engine(&g, c);
            let r = run_imm_recovering(&mut e, &c, &RecoveryPolicy::retry(), &RunTrace::disabled())
                .unwrap();
            (r.seeds, r.num_sets)
        };
        // Deterministic sweep for a plan that kills at least one device but
        // leaves survivors.
        let mut exercised = false;
        for fault_seed in 1..40u64 {
            let spec = FaultSpec::parse(&format!("seed={fault_seed},device_fail=0.02")).unwrap();
            let run = |ckpt: &Checkpointing| {
                let mut e = engine(&g, c).with_faults(&spec);
                run_imm_checkpointed(
                    &mut e,
                    &c,
                    &RecoveryPolicy::retry(),
                    &RunTrace::disabled(),
                    ckpt,
                )
            };
            let full = match run(&Checkpointing::disabled()) {
                Ok(r) => r,
                Err(EngineError::RetriesExhausted { .. }) => continue, // all four died
                Err(e) => panic!("unexpected: {e}"),
            };
            if full.recovery.devices_evicted == 0 {
                continue;
            }
            assert_eq!(
                full.seeds, clean.0,
                "seed={fault_seed}: eviction moved the answer"
            );
            assert_eq!(full.num_sets, clean.1);

            let dir = temp_dir(&format!("loss-{packed}-{fault_seed}"));
            let killed = run(&Checkpointing {
                dir: Some(dir.clone()),
                resume: None,
                kill_after: Some(1),
                fingerprint: fp,
            });
            assert!(matches!(killed, Err(EngineError::Interrupted { .. })));
            let cp = RunCheckpoint::load(&dir).unwrap();
            let resumed = run(&Checkpointing {
                dir: Some(dir.clone()),
                resume: Some(cp),
                kill_after: None,
                fingerprint: fp,
            })
            .unwrap();
            let _ = std::fs::remove_dir_all(&dir);
            assert_eq!(
                resumed.seeds, clean.0,
                "seed={fault_seed}: resume moved the answer"
            );
            assert_eq!(resumed.num_sets, clean.1);
            exercised = true;
            break;
        }
        assert!(
            exercised,
            "packed={packed}: no fault seed produced an eviction"
        );
    }
}

/// Straggler windows slow a device down without killing it: answers match
/// the clean run exactly and only the simulated clock moves.
#[test]
fn straggler_run_matches_clean_and_costs_time() {
    let g = graph();
    let c = config(false);
    let (clean, clean_time) = {
        let mut e = engine(&g, c);
        let r = run_imm_recovering(&mut e, &c, &RecoveryPolicy::retry(), &RunTrace::disabled())
            .unwrap();
        ((r.seeds, r.num_sets), e.elapsed_us())
    };
    let spec = FaultSpec::parse("seed=3,straggler=6.0@0:48").unwrap();
    let mut e = engine(&g, c).with_faults(&spec);
    let r =
        run_imm_recovering(&mut e, &c, &RecoveryPolicy::retry(), &RunTrace::disabled()).unwrap();
    assert_eq!((r.seeds, r.num_sets), clean);
    assert!(
        e.elapsed_us() > clean_time,
        "straggler cost no simulated time ({} vs {})",
        e.elapsed_us(),
        clean_time
    );
}

/// A streaming run killed mid-update-stream and resumed from its checkpoint
/// finishes with bit-identical seeds and store bytes. The checkpoint's delta
/// cursor decides where the resume picks up, and its store digest gates the
/// replayed state — both must survive the JSON round trip.
#[test]
fn streaming_kill_and_resume_reproduce_the_clean_run() {
    let g = graph();
    let c = config(false).with_epsilon(0.3);
    let deltas = generators::update_stream(
        &g,
        &generators::UpdateStreamSpec {
            batches: 3,
            edges_per_batch: 10,
            insert_fraction: 0.5,
            seed: 41,
        },
    );
    let fresh = || {
        StreamingImmEngine::new(
            g.clone(),
            c,
            WeightModel::WeightedCascade,
            7,
            HostResampler::new(c.model, c.seed),
        )
    };

    let mut clean_engine = fresh();
    let clean = run_stream(&mut clean_engine, &deltas, &StreamCheckpointing::disabled()).unwrap();
    assert_eq!(clean.len(), deltas.len());

    // Kill after the second checkpoint: the initial run and batch 1 are
    // committed, batches 2..3 are still pending — a genuine mid-stream kill.
    let dir = temp_dir("stream");
    let killed = run_stream(
        &mut fresh(),
        &deltas,
        &StreamCheckpointing {
            dir: Some(dir.clone()),
            resume: false,
            kill_after: Some(2),
        },
    )
    .unwrap_err();
    assert!(
        matches!(
            killed,
            EngineError::Interrupted {
                checkpoints_written: 2
            }
        ),
        "{killed}"
    );
    let cp = StreamCheckpoint::load(&dir).unwrap();
    assert_eq!(cp.delta_cursor, 1, "one batch was applied before the kill");

    let mut resumed_engine = fresh();
    let resumed = run_stream(
        &mut resumed_engine,
        &deltas,
        &StreamCheckpointing {
            dir: Some(dir.clone()),
            resume: true,
            kill_after: None,
        },
    )
    .unwrap();
    assert_eq!(resumed.len(), deltas.len() - 1, "resume skips batch 1");
    for (r, c_) in resumed.iter().zip(&clean[1..]) {
        assert_eq!(r.batch, c_.batch);
        assert_eq!(r.result, c_.result, "batch {}: resume diverged", r.batch);
        assert_eq!(r.resampled_slots, c_.resampled_slots, "batch {}", r.batch);
    }
    assert_eq!(resumed_engine.store_digest(), clean_engine.store_digest());
    assert_eq!(resumed_engine.delta_cursor(), clean_engine.delta_cursor());

    // A tampered store digest must be refused: the digest field is what
    // proves the deterministic replay reconstructed the checkpointed state.
    let bad = StreamCheckpoint {
        store_digest: cp.store_digest ^ 1,
        ..cp
    };
    bad.save(&dir).unwrap();
    let err = run_stream(
        &mut fresh(),
        &deltas,
        &StreamCheckpointing {
            dir: Some(dir.clone()),
            resume: true,
            kill_after: None,
        },
    )
    .unwrap_err();
    assert!(
        matches!(err, EngineError::CheckpointMismatch { .. }),
        "{err}"
    );

    // And a mismatched run config must be refused by the fingerprint.
    cp.save(&dir).unwrap();
    let c2 = c.with_k(5);
    let mut other = StreamingImmEngine::new(
        g.clone(),
        c2,
        WeightModel::WeightedCascade,
        7,
        HostResampler::new(c2.model, c2.seed),
    );
    let err = run_stream(
        &mut other,
        &deltas,
        &StreamCheckpointing {
            dir: Some(dir.clone()),
            resume: true,
            kill_after: None,
        },
    )
    .unwrap_err();
    assert!(
        matches!(err, EngineError::CheckpointMismatch { .. }),
        "{err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Resuming against a shorter update stream than the checkpoint's cursor is
/// a clean [`EngineError::CheckpointMismatch`], not a slice panic. The store
/// digest cannot be relied on to catch this: the missing trailing batches
/// may have been structural no-ops, leaving the digests equal.
#[test]
fn streaming_resume_rejects_a_shorter_stream() {
    let g = graph();
    let c = config(false).with_epsilon(0.3);
    let deltas = generators::update_stream(
        &g,
        &generators::UpdateStreamSpec {
            batches: 3,
            edges_per_batch: 10,
            insert_fraction: 0.5,
            seed: 47,
        },
    );
    let fresh = || {
        StreamingImmEngine::new(
            g.clone(),
            c,
            WeightModel::WeightedCascade,
            7,
            HostResampler::new(c.model, c.seed),
        )
    };
    let dir = temp_dir("stream-short");
    run_stream(
        &mut fresh(),
        &deltas,
        &StreamCheckpointing {
            dir: Some(dir.clone()),
            resume: false,
            kill_after: None,
        },
    )
    .unwrap();
    assert_eq!(StreamCheckpoint::load(&dir).unwrap().delta_cursor, 3);

    let err = run_stream(
        &mut fresh(),
        &deltas[..1],
        &StreamCheckpointing {
            dir: Some(dir.clone()),
            resume: true,
            kill_after: None,
        },
    )
    .unwrap_err();
    assert!(
        matches!(
            err,
            EngineError::CheckpointMismatch {
                expected: 1,
                found: 3
            }
        ),
        "{err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- hostile stream checkpoints: a typed error that names the fault ----

/// A well-formed stream checkpoint body, for the tests below to break.
const STREAM_CKPT_OK: &str = r#"{"format": 1, "kind": "eim-stream-checkpoint", "fingerprint": 7, "delta_cursor": 3, "slots": 1234, "store_digest": 42}"#;

/// Writes `body` (if any) as the stream checkpoint of a fresh directory and
/// loads it back.
fn load_stream_checkpoint(tag: &str, body: Option<&str>) -> Result<StreamCheckpoint, String> {
    let dir = temp_dir(tag);
    if let Some(body) = body {
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("eim-stream-checkpoint.json"), body).unwrap();
    }
    let loaded = StreamCheckpoint::load(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    loaded
}

fn expect_load_error(tag: &str, body: Option<&str>, needle: &str) {
    let err = load_stream_checkpoint(tag, body).unwrap_err();
    assert!(err.contains(needle), "{tag}: {err:?} lacks {needle:?}");
}

#[test]
fn stream_checkpoint_body_loads() {
    let cp = load_stream_checkpoint("stream-ok", Some(STREAM_CKPT_OK)).unwrap();
    assert_eq!((cp.fingerprint, cp.delta_cursor, cp.slots), (7, 3, 1234));
    assert_eq!(cp.store_digest, 42);
}

#[test]
fn stream_checkpoint_missing_file_is_named() {
    expect_load_error("stream-missing", None, "cannot read");
}

#[test]
fn stream_checkpoint_malformed_json_is_named() {
    let truncated = &STREAM_CKPT_OK[..40];
    expect_load_error("stream-trunc", Some(truncated), "is not valid JSON");
}

#[test]
fn stream_checkpoint_wrong_format_or_kind_is_named() {
    let v2 = STREAM_CKPT_OK.replace(r#""format": 1"#, r#""format": 2"#);
    expect_load_error(
        "stream-v2",
        Some(&v2),
        "unsupported stream checkpoint format 2",
    );
    let run = STREAM_CKPT_OK.replace("eim-stream-checkpoint", "eim-checkpoint");
    expect_load_error("stream-kind", Some(&run), "not a stream checkpoint");
}

#[test]
fn stream_checkpoint_missing_or_non_integer_field_is_named() {
    let missing = STREAM_CKPT_OK.replace(r#" "slots": 1234,"#, "");
    expect_load_error(
        "stream-nofield",
        Some(&missing),
        "`slots` missing or not an integer",
    );
    let text = STREAM_CKPT_OK.replace(r#""delta_cursor": 3"#, r#""delta_cursor": "3""#);
    expect_load_error(
        "stream-text",
        Some(&text),
        "`delta_cursor` missing or not an integer",
    );
}

#[test]
fn resuming_from_a_malformed_stream_checkpoint_is_a_checkpoint_io_error() {
    let g = graph();
    let c = config(false);
    let dir = temp_dir("stream-hostile");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("eim-stream-checkpoint.json"), "{").unwrap();
    let mut engine = StreamingImmEngine::new(
        g.clone(),
        c,
        WeightModel::WeightedCascade,
        7,
        HostResampler::new(c.model, c.seed),
    );
    let err = run_stream(
        &mut engine,
        &[],
        &StreamCheckpointing {
            dir: Some(dir.clone()),
            resume: true,
            kill_after: None,
        },
    )
    .unwrap_err();
    assert!(matches!(err, EngineError::CheckpointIo), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- hostile checkpoint bytes: a typed error or the clean answer ----

/// A real cold run's checkpoints, one per phase, and its clean seeds.
struct ColdFixture {
    graph: Graph,
    clean: Vec<u32>,
    estimation: Vec<u8>,
    sampled: Vec<u8>,
}

fn cold_fixture() -> &'static ColdFixture {
    static FIXTURE: std::sync::OnceLock<ColdFixture> = std::sync::OnceLock::new();
    FIXTURE.get_or_init(|| {
        let graph = graph();
        let c = config(true);
        let fp = run_fingerprint(&c, graph.num_vertices(), "multigpu", 4);
        let policy = RecoveryPolicy::retry();
        let clean = run_imm_recovering(&mut engine(&graph, c), &c, &policy, &RunTrace::disabled())
            .unwrap()
            .seeds;
        let dir = temp_dir("hostile-cold-source");
        let checkpoint_after = |kill_after: Option<u32>| {
            let _ = run_imm_checkpointed(
                &mut engine(&graph, c),
                &c,
                &policy,
                &RunTrace::disabled(),
                &Checkpointing {
                    dir: Some(dir.clone()),
                    resume: None,
                    kill_after,
                    fingerprint: fp,
                },
            );
            std::fs::read(dir.join("eim-checkpoint.json")).unwrap()
        };
        let estimation = checkpoint_after(Some(1));
        let sampled = checkpoint_after(None);
        let _ = std::fs::remove_dir_all(&dir);
        ColdFixture {
            graph,
            clean,
            estimation,
            sampled,
        }
    })
}

/// A real streaming run's checkpoint after one of three batches, and the
/// clean run's final seeds.
struct StreamFixture {
    graph: Graph,
    deltas: Vec<eim::graph::GraphDelta>,
    clean: Vec<u32>,
    checkpoint: Vec<u8>,
}

fn stream_engine(g: &Graph) -> StreamingImmEngine<HostResampler> {
    let c = config(false).with_epsilon(0.3);
    StreamingImmEngine::new(
        g.clone(),
        c,
        WeightModel::WeightedCascade,
        7,
        HostResampler::new(c.model, c.seed),
    )
}

fn stream_fixture() -> &'static StreamFixture {
    static FIXTURE: std::sync::OnceLock<StreamFixture> = std::sync::OnceLock::new();
    FIXTURE.get_or_init(|| {
        let graph = graph();
        let deltas = generators::update_stream(
            &graph,
            &generators::UpdateStreamSpec {
                batches: 3,
                edges_per_batch: 10,
                insert_fraction: 0.5,
                seed: 41,
            },
        );
        let clean = run_stream(
            &mut stream_engine(&graph),
            &deltas,
            &StreamCheckpointing::disabled(),
        )
        .unwrap();
        let dir = temp_dir("hostile-stream-source");
        let ckpt = StreamCheckpointing {
            dir: Some(dir.clone()),
            resume: false,
            kill_after: Some(2),
        };
        run_stream(&mut stream_engine(&graph), &deltas, &ckpt).unwrap_err();
        let checkpoint = std::fs::read(dir.join("eim-stream-checkpoint.json")).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        StreamFixture {
            graph,
            deltas,
            clean: clean.last().unwrap().result.seeds.clone(),
            checkpoint,
        }
    })
}

/// What a corrupted checkpoint may lead to: the resume returns a typed
/// checkpoint error, or it reaches the clean seeds.
fn expect_typed_or_clean<T>(
    resumed: Result<T, EngineError>,
    seeds: impl FnOnce(T) -> Vec<u32>,
    clean: &[u32],
) {
    match resumed {
        Ok(r) => assert_eq!(seeds(r), clean, "resumed to other seeds"),
        Err(EngineError::CheckpointMismatch { .. } | EngineError::CheckpointIo) => {}
        Err(other) => panic!("untyped resume failure: {other}"),
    }
}

/// Resumes the cold fixture's run from `cp`, checkpointing into `dir`.
fn resume_cold_from(cp: RunCheckpoint, dir: &Path) -> Result<ImmResult, EngineError> {
    let f = cold_fixture();
    let c = config(true);
    run_imm_checkpointed(
        &mut engine(&f.graph, c),
        &c,
        &RecoveryPolicy::retry(),
        &RunTrace::disabled(),
        &Checkpointing {
            dir: Some(dir.to_path_buf()),
            resume: Some(cp),
            kill_after: None,
            fingerprint: run_fingerprint(&c, f.graph.num_vertices(), "multigpu", 4),
        },
    )
}

/// Loads the cold checkpoint in `dir` and, if it loads, resumes from it.
fn resume_cold(dir: &Path) {
    if let Ok(cp) = RunCheckpoint::load(dir) {
        let resumed = resume_cold_from(cp, dir);
        expect_typed_or_clean(resumed, |r| r.seeds, &cold_fixture().clean);
    }
}

/// Loads the stream checkpoint in `dir` and, if it loads, resumes from it.
fn resume_stream(dir: &Path) {
    if StreamCheckpoint::load(dir).is_err() {
        return;
    }
    let f = stream_fixture();
    let mut e = stream_engine(&f.graph);
    let ckpt = StreamCheckpointing {
        dir: Some(dir.to_path_buf()),
        resume: true,
        kill_after: None,
    };
    let resumed = run_stream(&mut e, &f.deltas, &ckpt);
    // A resume at the end of the stream applies no batch; its seeds are
    // then those of the engine's current state.
    let seeds = |reports: Vec<eim::imm::UpdateReport>| match reports.last() {
        Some(r) => r.result.seeds.clone(),
        None => e.replay().unwrap().seeds,
    };
    expect_typed_or_clean(resumed, seeds, &f.clean);
}

/// A real checkpoint: its name, its file name, its bytes, and how to
/// resume from it.
type RealCheckpoint = (&'static str, &'static str, &'static [u8], fn(&Path));

fn real_checkpoints() -> [RealCheckpoint; 3] {
    let (cold, stream) = (cold_fixture(), stream_fixture());
    [
        (
            "estimation",
            "eim-checkpoint.json",
            &cold.estimation,
            resume_cold,
        ),
        ("sampled", "eim-checkpoint.json", &cold.sampled, resume_cold),
        (
            "stream",
            "eim-stream-checkpoint.json",
            &stream.checkpoint,
            resume_stream,
        ),
    ]
}

/// Writes `bytes` as checkpoint `file` of a fresh directory and resumes
/// from it, naming the checkpoint and the corruption if that panics.
fn resume_corrupted(tag: &str, file: &str, what: &str, bytes: &[u8], resume: fn(&Path)) {
    let dir = temp_dir(&format!("hostile-{tag}"));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join(file), bytes).unwrap();
    let outcome = std::panic::catch_unwind(|| resume(&dir));
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(panic) = outcome {
        let msg = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|m| m.to_string()))
            .unwrap_or_default();
        panic!("{tag}, {what}: {msg}\n{}", String::from_utf8_lossy(bytes));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A real checkpoint (cold, of either phase, or streaming), cut short
    /// or with one bit flipped, is rejected by `load`, rejected by the
    /// resume with a typed error, or resumes to the clean seeds. It never
    /// panics.
    #[test]
    fn corrupted_checkpoint_is_rejected_or_resumes_clean(
        cut in any::<usize>(),
        pos in any::<usize>(),
        bit in 0u8..8,
    ) {
        for (tag, file, body, resume) in real_checkpoints() {
            let cut = cut % body.len();
            resume_corrupted(tag, file, &format!("cut at {cut}"), &body[..cut], resume);
            let pos = pos % body.len();
            let mut flipped = body.to_vec();
            flipped[pos] ^= 1 << bit;
            let what = format!("bit {bit} of byte {pos} flipped");
            resume_corrupted(tag, file, &what, &flipped, resume);
        }
    }
}

/// A sampled-phase checkpoint records the lower bound its θ came from. A
/// bound that asks for more sets than the checkpoint counts (a smaller
/// one, or none) is refused before any sampling: resuming from it would
/// sample up to the larger θ and select other seeds.
#[test]
fn resume_with_a_lower_bound_asking_for_more_sets_is_a_checkpoint_mismatch() {
    let f = cold_fixture();
    let dir = temp_dir("sampled-bound");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("eim-checkpoint.json"), &f.sampled).unwrap();
    let cp = RunCheckpoint::load(&dir).unwrap();
    assert!(matches!(cp.phase, CheckpointPhase::Sampled { .. }));
    let lb = f64::from_bits(cp.lower_bound_bits.unwrap());
    for forged in [Some(lb * 0.9), Some(f64::MIN_POSITIVE), Some(0.0), None] {
        let bad = RunCheckpoint {
            lower_bound_bits: forged.map(f64::to_bits),
            ..cp.clone()
        };
        let err = resume_cold_from(bad, &dir).unwrap_err();
        assert!(
            matches!(
                err,
                EngineError::CheckpointMismatch { expected, .. } if expected == cp.logical_sets as u64
            ),
            "lower bound {forged:?}: {err}"
        );
    }
    let resumed = resume_cold_from(cp, &dir).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(resumed.seeds, f.clean);
}

/// A cold checkpoint's store allocation and eviction count are checked
/// against what the resume rebuilds: an allocation smaller than the
/// replayed store's device-resident bytes, or a report counting evictions
/// the manifest does not mark, is refused; the checkpoint as written still
/// resumes to the clean run.
#[test]
fn resume_with_a_forged_store_allocation_or_eviction_count_is_a_checkpoint_mismatch() {
    let f = cold_fixture();
    let dir = temp_dir("forged-manifest");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("eim-checkpoint.json"), &f.sampled).unwrap();
    let cp = RunCheckpoint::load(&dir).unwrap();
    assert!(cp.manifest.devices.iter().all(|d| !d.evicted));
    assert_eq!(cp.report.devices_evicted, 0);
    // No spill ran, so the replayed store is resident in full.
    let resident = cp.manifest.devices[0].partition_bytes as u64;
    assert!(resident > 0 && cp.manifest.store_alloc_bytes as u64 >= resident);
    for forged in [resident - 1, resident / 2, 0] {
        let mut bad = cp.clone();
        bad.manifest.store_alloc_bytes = forged as usize;
        let err = resume_cold_from(bad, &dir).unwrap_err();
        assert!(
            matches!(
                err,
                EngineError::CheckpointMismatch { expected, found } if expected == resident && found == forged
            ),
            "store_alloc_bytes {forged}: {err}"
        );
    }
    for forged in [1u32, 3] {
        let mut bad = cp.clone();
        bad.report.devices_evicted = forged;
        let err = resume_cold_from(bad, &dir).unwrap_err();
        assert!(
            matches!(
                err,
                EngineError::CheckpointMismatch { expected: 0, found } if found == u64::from(forged)
            ),
            "devices_evicted {forged}: {err}"
        );
    }
    let resumed = resume_cold_from(cp, &dir).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(resumed.seeds, f.clean);
}

/// A stream checkpoint's slot count is read back on resume: one that the
/// replay does not reach is refused, not ignored.
#[test]
fn stream_resume_with_another_slot_count_is_a_checkpoint_mismatch() {
    let f = stream_fixture();
    let dir = temp_dir("stream-slots");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("eim-stream-checkpoint.json"), &f.checkpoint).unwrap();
    let cp = StreamCheckpoint::load(&dir).unwrap();
    let ckpt = StreamCheckpointing {
        dir: Some(dir.clone()),
        resume: true,
        kill_after: None,
    };
    for forged in [cp.slots - 1, cp.slots + 1] {
        StreamCheckpoint {
            slots: forged,
            ..cp
        }
        .save(&dir)
        .unwrap();
        let err = run_stream(&mut stream_engine(&f.graph), &f.deltas, &ckpt).unwrap_err();
        assert!(
            matches!(
                err,
                EngineError::CheckpointMismatch { expected, found } if expected == cp.slots && found == forged
            ),
            "slots {forged}: {err}"
        );
    }
    cp.save(&dir).unwrap();
    let resumed = run_stream(&mut stream_engine(&f.graph), &f.deltas, &ckpt).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(resumed.last().unwrap().result.seeds, f.clean);
}

// ---- the same contract through the binary ----

fn eim_cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_eim"))
}

const CLI_BASE: [&str; 15] = [
    "--dataset",
    "WV",
    "--scale",
    "0.02",
    "--k",
    "4",
    "--eps",
    "0.3",
    "--seed",
    "9",
    "--engine",
    "multigpu",
    "--devices",
    "4",
    "--json",
];

#[test]
fn cli_kill_and_resume_reproduce_the_clean_run() {
    let dir = temp_dir("cli");
    let dir_s = dir.to_str().unwrap();

    let clean = eim_cli().args(CLI_BASE).output().unwrap();
    assert!(clean.status.success());
    let clean_v: serde_json::Value = serde_json::from_slice(&clean.stdout).unwrap();

    let killed = eim_cli()
        .args(CLI_BASE)
        .args(["--checkpoint", dir_s, "--ckpt-kill-after", "1"])
        .output()
        .unwrap();
    assert_eq!(
        killed.status.code(),
        Some(3),
        "interrupted runs exit 3 (resumable): {}",
        String::from_utf8_lossy(&killed.stderr)
    );
    let killed_v: serde_json::Value = serde_json::from_slice(&killed.stdout).unwrap();
    assert_eq!(killed_v["error"]["kind"], "interrupted");
    assert_eq!(killed_v["error"]["checkpoints_written"], 1);

    let resumed = eim_cli()
        .args(CLI_BASE)
        .args(["--checkpoint", dir_s, "--resume"])
        .output()
        .unwrap();
    assert!(
        resumed.status.success(),
        "{}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    let v: serde_json::Value = serde_json::from_slice(&resumed.stdout).unwrap();
    assert_eq!(v["seeds"], clean_v["seeds"]);
    assert_eq!(v["rrr_sets"], clean_v["rrr_sets"]);
    assert_eq!(v["simulated_device_ms"], clean_v["simulated_device_ms"]);
    assert_eq!(v["recovery"]["resumes"], 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_resume_requires_a_checkpoint_dir() {
    let out = eim_cli().args(CLI_BASE).arg("--resume").output().unwrap();
    assert_eq!(out.status.code(), Some(2), "usage error");
}

#[test]
fn cli_resume_with_mismatched_config_is_rejected() {
    let dir = temp_dir("cli-mismatch");
    let dir_s = dir.to_str().unwrap();
    let killed = eim_cli()
        .args(CLI_BASE)
        .args(["--checkpoint", dir_s, "--ckpt-kill-after", "1"])
        .output()
        .unwrap();
    assert_eq!(killed.status.code(), Some(3));
    // Same checkpoint, different k: the fingerprint must refuse it.
    let mut args: Vec<&str> = CLI_BASE.to_vec();
    args[5] = "5";
    let out = eim_cli()
        .args(&args)
        .args(["--checkpoint", dir_s, "--resume"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let _ = std::fs::remove_dir_all(&dir);
}
