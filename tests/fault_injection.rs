//! Fault injection and graceful degradation, end to end.
//!
//! The contract under test: a run with deterministic injected faults either
//! converges to *exactly* the clean run's seed set (recovery worked and the
//! degradation was answer-preserving) or fails with a typed, non-panicking
//! error — never a silently different answer.

use std::process::Command;
use std::sync::Arc;

use eim::baselines::{CuRipplesEngine, HostSpec};
use eim::core::{EimBuilder, EimEngine};
use eim::gpusim::{Device, DeviceSpec, FaultPlan, FaultSpec, RunTrace, TransferDirection};
use eim::graph::{generators, Graph, WeightModel};
use eim::imm::{
    run_fingerprint, run_imm_checkpointed, run_imm_recovering, Checkpointing, EngineError,
    ImmConfig, ImmEngine as _, RecoveryPolicy, RunCheckpoint,
};
use proptest::prelude::*;

fn graph() -> Graph {
    generators::rmat(
        300,
        1_800,
        generators::RmatParams::GRAPH500,
        WeightModel::WeightedCascade,
        4,
    )
}

fn clean_run(g: &Graph) -> (Vec<u32>, usize) {
    let r = EimBuilder::new(g)
        .k(3)
        .epsilon(0.35)
        .seed(11)
        .run()
        .expect("clean run fits the default device");
    (r.seeds, r.num_sets)
}

#[test]
fn faulted_retry_run_matches_clean_run_exactly() {
    let g = graph();
    let (clean_seeds, clean_sets) = clean_run(&g);
    let spec = FaultSpec::parse("seed=42,kernel=0.3,transfer=0.2").unwrap();
    let r = EimBuilder::new(&g)
        .k(3)
        .epsilon(0.35)
        .seed(11)
        .faults(spec)
        .recovery(RecoveryPolicy::retry().with_max_retries(12))
        .run()
        .expect("retry absorbs transient faults");
    assert!(
        r.recovery.retries > 0,
        "faults were injected but not retried"
    );
    assert_eq!(r.seeds, clean_seeds);
    assert_eq!(r.num_sets, clean_sets);
}

#[test]
fn pressure_window_with_degrade_matches_clean_run() {
    let g = graph();
    let (clean_seeds, clean_sets) = clean_run(&g);
    // A long pressure window squeezes usable memory to 5% on a small
    // device: the store must spill to host, and the answer must not move.
    let spec = FaultSpec::parse("seed=7,kernel=0.2,pressure=0.95@2:60").unwrap();
    let r = EimBuilder::new(&g)
        .k(3)
        .epsilon(0.35)
        .seed(11)
        .device(DeviceSpec::rtx_a6000_with_mem(2 << 20))
        .faults(spec)
        .recovery(RecoveryPolicy::degrade())
        .run()
        .expect("degrade mode absorbs memory pressure");
    assert_eq!(r.seeds, clean_seeds);
    assert_eq!(r.num_sets, clean_sets);
    assert!(!r.recovery.is_empty(), "pressure left no recovery trace");
}

#[test]
fn abort_policy_surfaces_the_first_fault_as_an_error() {
    let g = graph();
    let spec = FaultSpec::parse("seed=42,kernel=0.95").unwrap();
    let err = EimBuilder::new(&g)
        .k(3)
        .epsilon(0.35)
        .seed(11)
        .faults(spec)
        .run()
        .expect_err("near-certain faults with no recovery must fail");
    assert!(matches!(err, EngineError::Fault(_)), "got {err:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any fault schedule either converges to the clean answer or fails
    /// with a typed error — across injection seeds and probabilities.
    #[test]
    fn any_fault_seed_converges_or_fails_typed(
        fault_seed in any::<u64>(),
        kernel_pct in 0u32..80,
        transfer_pct in 0u32..50,
    ) {
        let g = generators::rmat(
            200,
            1_200,
            generators::RmatParams::MILD,
            WeightModel::WeightedCascade,
            6,
        );
        let clean = EimBuilder::new(&g)
            .k(2)
            .epsilon(0.45)
            .seed(3)
            .run()
            .expect("clean run");
        let spec = FaultSpec::parse(&format!(
            "seed={fault_seed},kernel=0.{kernel_pct:02},transfer=0.{transfer_pct:02}"
        )).unwrap();
        let result = EimBuilder::new(&g)
            .k(2)
            .epsilon(0.45)
            .seed(3)
            .faults(spec)
            .recovery(RecoveryPolicy::retry())
            .run();
        match result {
            Ok(r) => {
                prop_assert_eq!(r.seeds, clean.seeds);
                prop_assert_eq!(r.num_sets, clean.num_sets);
            }
            Err(EngineError::RetriesExhausted { attempts, .. }) => {
                prop_assert!(attempts > 0);
            }
            Err(e) => prop_assert!(false, "unexpected error kind: {e:?}"),
        }
    }
}

/// A fresh checkpoint directory per proptest case.
fn case_dir() -> std::path::PathBuf {
    static CASE: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);
    let case = CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("eim-fault-resume-{}-{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A faulted run killed after one to three checkpoints and resumed under
    /// the same fault plan either reaches the clean run's seeds or fails
    /// with a typed error — resume inherits the fault contract above.
    #[test]
    fn killed_and_resumed_faulty_runs_converge_or_fail_typed(
        fault_seed in any::<u64>(),
        kernel_pct in 0u32..40,
        transfer_pct in 0u32..25,
        kill_after in 1u32..=3,
    ) {
        let g = generators::rmat(
            200,
            1_200,
            generators::RmatParams::MILD,
            WeightModel::WeightedCascade,
            6,
        );
        let c = ImmConfig::paper_default()
            .with_k(2)
            .with_epsilon(0.25)
            .with_seed(3);
        let spec = FaultSpec::parse(&format!(
            "seed={fault_seed},kernel=0.{kernel_pct:02},transfer=0.{transfer_pct:02}"
        )).unwrap();
        let fp = run_fingerprint(&c, g.num_vertices(), "multigpu", 4);
        let run = |faults: Option<&FaultSpec>, ckpt: &Checkpointing| {
            let mut e = EimEngine::with_telemetry(
                &g,
                c,
                DeviceSpec::rtx_a6000_with_mem(256 << 20),
                4,
                &RunTrace::disabled(),
                true,
            )
            .unwrap();
            if let Some(faults) = faults {
                e = e.with_faults(faults);
            }
            let policy = RecoveryPolicy::retry().with_max_retries(12);
            run_imm_checkpointed(&mut e, &c, &policy, &RunTrace::disabled(), ckpt)
        };
        let clean = run(None, &Checkpointing::disabled()).expect("clean run");
        let dir = case_dir();
        let killed = run(Some(&spec), &Checkpointing {
            dir: Some(dir.clone()),
            resume: None,
            kill_after: Some(kill_after),
            fingerprint: fp,
        });
        match killed {
            // The run finished before its `kill_after`-th checkpoint.
            Ok(r) => {
                prop_assert_eq!(&r.seeds, &clean.seeds);
                prop_assert_eq!(r.num_sets, clean.num_sets);
            }
            Err(EngineError::Interrupted { checkpoints_written }) => {
                prop_assert_eq!(checkpoints_written, kill_after);
            }
            Err(EngineError::RetriesExhausted { attempts, .. }) => prop_assert!(attempts > 0),
            Err(e) => prop_assert!(false, "unexpected error kind before the kill: {e:?}"),
        }
        // Resume from whatever checkpoint the killed run left, if any.
        if let Ok(cp) = RunCheckpoint::load(&dir) {
            let resumed = run(Some(&spec), &Checkpointing {
                dir: Some(dir.clone()),
                resume: Some(cp),
                kill_after: None,
                fingerprint: fp,
            });
            match resumed {
                Ok(r) => {
                    prop_assert_eq!(&r.seeds, &clean.seeds);
                    prop_assert_eq!(r.num_sets, clean.num_sets);
                }
                Err(EngineError::RetriesExhausted { attempts, .. }) => prop_assert!(attempts > 0),
                Err(e) => prop_assert!(false, "unexpected error kind on resume: {e:?}"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---- Copy-stream overlap properties ----

/// Drives a raw device through `ops` = (compute weight, transfer bytes)
/// pairs in the engines' canonical enqueue → compute → wait shape, retrying
/// faulted enqueues. Returns the final simulated time and the fault count.
fn replay_ops(ops: &[(u8, u32)], serial: bool, fault_spec: Option<&str>) -> (f64, u64) {
    let device = {
        let d = Device::new(DeviceSpec::rtx_a6000()).with_copy_overlap(!serial);
        match fault_spec {
            Some(s) => d.with_fault_plan(Arc::new(FaultPlan::new(FaultSpec::parse(s).unwrap()))),
            None => d,
        }
    };
    let mut stream = device.copy_stream();
    let mut faults = 0u64;
    for &(compute, bytes) in ops {
        let event = loop {
            match stream.checked_enqueue(
                &device,
                bytes as usize + 1,
                TransferDirection::DeviceToHost,
            ) {
                Ok(ev) => break ev,
                Err(_) => {
                    faults += 1;
                    assert!(faults < 100_000, "fault schedule never clears");
                }
            }
        };
        device.advance_clock(compute as f64 * 3.0);
        stream.wait_event(&device, &event);
    }
    stream.synchronize(&device);
    (device.clock().now_us(), faults)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// For arbitrary transfer/compute cost mixes and fault seeds: the
    /// overlapped schedule never takes longer than the forced-serial one,
    /// both modes draw the identical fault sequence, and faulted replays are
    /// bit-for-bit deterministic.
    #[test]
    fn overlapped_time_never_exceeds_serialized(
        ops in prop::collection::vec((0u8..50, 0u32..(1 << 20)), 1..20),
        fault_seed in any::<u64>(),
        transfer_pct in 0u32..60,
    ) {
        let spec = format!("seed={fault_seed},transfer=0.{transfer_pct:02}");
        for fault_spec in [None, Some(spec.as_str())] {
            let (t_overlap, f_overlap) = replay_ops(&ops, false, fault_spec);
            let (t_serial, f_serial) = replay_ops(&ops, true, fault_spec);
            prop_assert!(
                t_overlap <= t_serial + 1e-9,
                "overlap {t_overlap} us > serial {t_serial} us ({fault_spec:?})"
            );
            prop_assert_eq!(
                f_overlap, f_serial,
                "overlap changed the fault sequence"
            );
            // Same ops, same schedule: replays are bit-exact.
            let (t2, f2) = replay_ops(&ops, false, fault_spec);
            prop_assert_eq!(t_overlap.to_bits(), t2.to_bits());
            prop_assert_eq!(f_overlap, f2);
        }
    }

    /// A stream that waits on every event before doing anything else
    /// degenerates *exactly* (bit-for-bit) to the forced-serial schedule.
    #[test]
    fn waiting_on_every_event_degenerates_to_serial(
        ops in prop::collection::vec((0u8..50, 0u32..(1 << 20)), 1..20),
    ) {
        let run = |serial: bool| -> f64 {
            let device = Device::new(DeviceSpec::rtx_a6000()).with_copy_overlap(!serial);
            let mut stream = device.copy_stream();
            for &(compute, bytes) in &ops {
                let ev = stream.enqueue(
                    &device,
                    bytes as usize + 1,
                    TransferDirection::HostToDevice,
                );
                stream.wait_event(&device, &ev);
                device.advance_clock(compute as f64 * 3.0);
            }
            device.clock().now_us()
        };
        prop_assert_eq!(run(false).to_bits(), run(true).to_bits());
    }
}

#[test]
fn curipples_faulted_async_offloads_replay_deterministically() {
    // cuRipples is the engine whose per-batch d2h offload rides the copy
    // stream *without* an immediate wait; a faulted offload must roll the
    // batch back and the retry must replay to the identical schedule.
    let g = graph();
    let c = ImmConfig::paper_default()
        .with_k(3)
        .with_epsilon(0.35)
        .with_seed(11)
        .with_packed(false)
        .with_source_elimination(false);
    let spec = FaultSpec::parse("seed=42,transfer=0.35").unwrap();
    let run = |faulted: bool| {
        let mut d = Device::new(DeviceSpec::rtx_a6000());
        if faulted {
            d = d.with_fault_plan(Arc::new(FaultPlan::new(spec.clone())));
        }
        let mut e = CuRipplesEngine::new(&g, c, d, HostSpec::default()).unwrap();
        let r = run_imm_recovering(
            &mut e,
            &c,
            &RecoveryPolicy::retry().with_max_retries(30),
            &RunTrace::disabled(),
        )
        .expect("retry absorbs transient transfer faults");
        (
            r.seeds,
            r.num_sets,
            e.elapsed_us().to_bits(),
            r.recovery.retries,
        )
    };
    let a = run(true);
    let b = run(true);
    assert!(a.3 > 0, "fault schedule drew no transfer fault — dead test");
    assert_eq!(a, b, "faulted replay diverged");
    let clean = run(false);
    assert_eq!(a.0, clean.0, "recovery changed the answer");
    assert_eq!(a.1, clean.1);
}

// ---- CLI-level checks (the same contract through the binary) ----

fn eim_cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_eim"))
}

const CLI_BASE: [&str; 10] = [
    "--dataset",
    "WV",
    "--scale",
    "0.02",
    "--k",
    "3",
    "--eps",
    "0.3",
    "--seed",
    "9",
];

#[test]
fn cli_faulted_run_reports_recovery_and_matches_clean_seeds() {
    let clean = eim_cli().args(CLI_BASE).arg("--json").output().unwrap();
    assert!(clean.status.success());
    let clean_v: serde_json::Value = serde_json::from_slice(&clean.stdout).unwrap();

    let faulted = eim_cli()
        .args(CLI_BASE)
        .args([
            "--inject-faults",
            "seed=42,kernel=0.5",
            "--recovery",
            "retry",
            "--json",
        ])
        .output()
        .unwrap();
    assert!(
        faulted.status.success(),
        "{}",
        String::from_utf8_lossy(&faulted.stderr)
    );
    let v: serde_json::Value = serde_json::from_slice(&faulted.stdout).unwrap();
    assert!(v["recovery"]["retries"].as_u64().unwrap() > 0);
    assert_eq!(v["seeds"], clean_v["seeds"]);
}

#[test]
fn cli_fault_abort_is_a_structured_nonzero_exit() {
    let out = eim_cli()
        .args(CLI_BASE)
        .args(["--inject-faults", "seed=41,kernel=0.99", "--json"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).unwrap();
    assert_eq!(v["error"]["kind"], "sim_fault");
    assert_eq!(v["error"]["fault_kind"], "kernel_launch");
    assert!(v["error"]["message"]
        .as_str()
        .unwrap()
        .contains("injected kernel-launch fault"));
}

#[test]
fn cli_rejects_bad_fault_specs() {
    for bad in [
        "kernel=1.0",
        "seed=x",
        "pressure=0.5@9",
        "nonsense",
        "device_fail=1.0",
        "link_flap=-0.1",
        "straggler=0.5@0:4", // multiplier must be >= 1
        "straggler=2.0@8:2", // empty window
    ] {
        let out = eim_cli()
            .args(CLI_BASE)
            .args(["--inject-faults", bad])
            .output()
            .unwrap();
        assert!(!out.status.success(), "spec {bad:?} should be rejected");
    }
}

// ---- the three fail-stop / degradation classes ----

#[test]
fn link_flap_retry_matches_clean_and_costs_bandwidth() {
    // A flapping link drops staging enqueues (retried) and degrades the
    // link to a lower bandwidth tier each flap: the answer must not move,
    // and the degraded link must cost simulated time. Flaps are drawn on
    // the multi-GPU partition-staging path.
    use eim::core::EimEngine;
    use eim::imm::run_imm;

    let g = graph();
    let c = ImmConfig::paper_default()
        .with_k(3)
        .with_epsilon(0.35)
        .with_seed(11);
    let spec_dev = DeviceSpec::rtx_a6000_with_mem(256 << 20);
    let pool = || EimEngine::with_telemetry(&g, c, spec_dev, 4, &RunTrace::disabled(), true);
    let (clean_seeds, clean_sets, clean_time) = {
        let mut e = pool().unwrap();
        let r = run_imm(&mut e, &c).unwrap();
        (r.seeds, r.num_sets, e.elapsed_us())
    };
    let spec = FaultSpec::parse("seed=42,link_flap=0.2").unwrap();
    let mut e = pool().unwrap().with_faults(&spec);
    let r = run_imm_recovering(
        &mut e,
        &c,
        &RecoveryPolicy::retry().with_max_retries(20),
        &RunTrace::disabled(),
    )
    .expect("retry absorbs link flaps");
    assert!(r.recovery.retries > 0, "no flap was drawn — dead test");
    assert_eq!(r.seeds, clean_seeds);
    assert_eq!(r.num_sets, clean_sets);
    assert!(
        e.elapsed_us() > clean_time,
        "degraded link cost no time ({} vs {})",
        e.elapsed_us(),
        clean_time
    );
}

#[test]
fn device_fail_on_a_single_device_run_is_unrecoverable_but_typed() {
    // With one device there are no survivors to re-shard onto: the run
    // must end in a typed exhaustion, never a panic or a wrong answer.
    let g = graph();
    let spec = FaultSpec::parse("seed=1,device_fail=0.999").unwrap();
    let err = EimBuilder::new(&g)
        .k(3)
        .epsilon(0.35)
        .seed(11)
        .faults(spec)
        .recovery(RecoveryPolicy::retry())
        .run()
        .expect_err("a lone fail-stopped device cannot recover");
    assert!(
        matches!(err, EngineError::RetriesExhausted { .. }),
        "got {err:?}"
    );
}

#[test]
fn straggler_window_preserves_the_answer_and_slows_the_clock() {
    let g = graph();
    let (clean_seeds, clean_sets) = clean_run(&g);
    let clean_time = EimBuilder::new(&g)
        .k(3)
        .epsilon(0.35)
        .seed(11)
        .run()
        .unwrap()
        .sim_time_us();
    let spec = FaultSpec::parse("seed=7,straggler=10.0@0:32").unwrap();
    let r = EimBuilder::new(&g)
        .k(3)
        .epsilon(0.35)
        .seed(11)
        .faults(spec)
        .recovery(RecoveryPolicy::retry())
        .run()
        .expect("a straggler never faults");
    assert_eq!(r.seeds, clean_seeds);
    assert_eq!(r.num_sets, clean_sets);
    assert!(
        r.sim_time_us() > clean_time,
        "10x straggler window cost no time ({} vs {})",
        r.sim_time_us(),
        clean_time
    );
}
