//! The two-phase IMM driver (Tang et al. '15, Algorithms 1–3; paper §2.2).
//!
//! Works over any [`ImmEngine`] backend — CPU reference, eIM, gIM, or
//! cuRipples — so every implementation runs the *identical* estimation and
//! selection logic and differs only in how it samples, stores, and scans
//! RRR sets. That is the controlled comparison the paper's evaluation makes.

use eim_gpusim::{MemoryError, SimFault};
use eim_graph::VertexId;
use eim_trace::{Phase, Recovery, RunTrace};

use crate::bounds::{
    adjusted_ell, epsilon_prime, lambda_prime, lambda_star, max_estimation_iterations,
};
use crate::checkpoint::{
    store_digest, CheckpointPhase, Checkpointing, EngineManifest, RunCheckpoint,
};
use crate::config::ImmConfig;
use crate::recovery::{MartingaleCheckpoint, RecoveryPolicy, RecoveryReport};
use crate::rrrstore::RrrSets;
use crate::selection::Selection;

/// Failure modes of a sampling backend.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// The backend ran out of (device) memory — the "OOM" cells of
    /// Tables 2–5.
    OutOfMemory {
        /// Bytes the failing allocation requested.
        requested: usize,
        /// Bytes already in use when the allocation failed.
        in_use: usize,
        /// Usable device capacity at the time (total minus any artificial
        /// pressure reservation).
        capacity: usize,
    },
    /// An injected transient simulator fault reached the caller unhandled
    /// (recovery disabled, or the fault escaped the retryable paths).
    Fault(SimFault),
    /// A transient fault persisted through the policy's whole retry budget.
    RetriesExhausted {
        /// The last fault observed.
        fault: SimFault,
        /// Retries performed before giving up.
        attempts: u32,
    },
    /// The run stopped on purpose after persisting a checkpoint
    /// ([`Checkpointing::kill_after`]) — resume it with `--resume`.
    Interrupted {
        /// Checkpoints this run wrote before stopping.
        checkpoints_written: u32,
    },
    /// A resume checkpoint does not belong to this run (different config,
    /// graph, engine, or device count), the replayed store diverged from
    /// the digest or slot count the checkpoint recorded, the estimation
    /// iteration it names is not the one that follows its sample count, or
    /// the lower bound it records asks for more sets than it counts.
    CheckpointMismatch {
        /// The fingerprint, digest, slot count or next estimation iteration
        /// this run expected (0 when no iteration matches the sample count),
        /// or the sample count a lower bound's θ may not exceed.
        expected: u64,
        /// The fingerprint, digest, slot count or next estimation iteration
        /// found, or the θ the recorded lower bound asks for (0 when none is
        /// recorded).
        found: u64,
    },
    /// A checkpoint could not be persisted to disk.
    CheckpointIo,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::OutOfMemory {
                requested,
                in_use,
                capacity,
            } => write!(
                f,
                "out of device memory (requested {requested} B with {in_use} B in use of {capacity} B)"
            ),
            EngineError::Fault(fault) => write!(f, "{fault}"),
            EngineError::RetriesExhausted { fault, attempts } => {
                write!(f, "{fault} (gave up after {attempts} retries)")
            }
            EngineError::Interrupted {
                checkpoints_written,
            } => write!(
                f,
                "run interrupted after writing {checkpoints_written} checkpoint(s); resume to continue"
            ),
            EngineError::CheckpointMismatch { expected, found } => write!(
                f,
                "checkpoint does not match this run (expected {expected:#018x}, found {found:#018x})"
            ),
            EngineError::CheckpointIo => write!(f, "failed to persist a run checkpoint"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<MemoryError> for EngineError {
    fn from(e: MemoryError) -> Self {
        EngineError::OutOfMemory {
            requested: e.requested,
            in_use: e.in_use,
            capacity: e.capacity,
        }
    }
}

impl From<SimFault> for EngineError {
    fn from(f: SimFault) -> Self {
        EngineError::Fault(f)
    }
}

/// What evicting dead devices accomplished — returned by
/// [`ImmEngine::evict_lost_devices`] so the driver can report and trace it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Eviction {
    /// Devices removed from the run.
    pub devices_evicted: u32,
    /// Devices still serving the run.
    pub survivors: usize,
}

/// A sampling/selection backend the IMM driver can run.
pub trait ImmEngine {
    /// Vertex count of the underlying graph.
    fn n(&self) -> usize;
    /// Samples RRR sets until [`ImmEngine::logical_sets`] reaches `target`.
    fn extend_to(&mut self, target: usize) -> Result<(), EngineError>;
    /// Greedy max-coverage selection over the current store.
    fn select(&mut self, k: usize) -> Selection;
    /// The current RRR store.
    fn store(&self) -> &dyn RrrSets;
    /// Samples counted toward theta so far. Equals the stored set count
    /// except under source elimination (§3.4), where every drawn sample
    /// counts but sets reduced to empty are not stored — coverage is then
    /// measured over the informative sets only, which is precisely why the
    /// heuristic converges in fewer samples.
    fn logical_sets(&self) -> usize {
        self.store().num_sets()
    }
    /// Time consumed so far: wall-clock microseconds for CPU backends,
    /// simulated device microseconds for GPU-model backends.
    fn elapsed_us(&self) -> f64;
    /// Advances the engine's timeline by `us` without doing work — the
    /// driver charges retry backoff through this. Default: no-op (CPU
    /// backends measure wall time and cannot be advanced).
    fn advance_time(&mut self, _us: f64) {}
    /// Installs the recovery policy before a run. Engines that degrade
    /// internally (host-spill) read their mode from it; others ignore it.
    fn set_recovery_policy(&mut self, _policy: RecoveryPolicy) {}
    /// Recovery actions the engine performed internally (spills, reloads).
    /// The driver merges this into the run's [`RecoveryReport`].
    fn recovery_report(&self) -> RecoveryReport {
        RecoveryReport::default()
    }
    /// Removes fail-stopped devices from the run and re-shards their work
    /// onto the survivors. The driver calls this only after the transient
    /// retry budget is exhausted (a dead device never answers a retry).
    /// Returns `Ok(None)` when nothing can be evicted — no device is dead,
    /// every device is dead, or the engine does not model devices — and the
    /// driver then gives up with [`EngineError::RetriesExhausted`].
    fn evict_lost_devices(&mut self) -> Result<Option<Eviction>, EngineError> {
        Ok(None)
    }
    /// Engine-side state a checkpoint must carry to reconstruct this engine
    /// (per-device clocks, store allocation, evictions). Default: empty —
    /// resume then replays work but cannot pin the simulated timeline.
    fn checkpoint_manifest(&self) -> EngineManifest {
        EngineManifest::default()
    }
    /// Pins engine state from a checkpoint manifest after the driver has
    /// replayed sampling: device clocks, allocator state, and eviction
    /// topology. Default: no-op (engines without simulated devices).
    fn restore_manifest(&mut self, _manifest: &EngineManifest) -> Result<(), EngineError> {
        Ok(())
    }
}

/// Per-phase time attribution of one run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseBreakdown {
    /// Theta-estimation phase (sampling + trial selections).
    pub estimation_us: f64,
    /// Final sampling up to theta.
    pub sampling_us: f64,
    /// Final seed selection.
    pub selection_us: f64,
}

impl PhaseBreakdown {
    /// Total across phases.
    pub fn total_us(&self) -> f64 {
        self.estimation_us + self.sampling_us + self.selection_us
    }
}

/// Everything a run produces.
#[derive(Clone, Debug)]
pub struct ImmResult {
    /// The seed set `S`, in selection order.
    pub seeds: Vec<VertexId>,
    /// Fraction of RRR sets covered by `S` at the end.
    pub coverage: f64,
    /// Kept RRR sets the final selection ran over (>= the theoretical theta
    /// when the estimation sets are reused, per standard practice).
    pub num_sets: usize,
    /// The theoretical requirement `ceil(lambda* / LB)`.
    pub theta: usize,
    /// The coverage lower bound `LB` the estimation phase produced.
    pub lower_bound: f64,
    /// Total elements across all stored sets (`|R|`).
    pub total_elements: usize,
    /// Device/host bytes of the store (`R` + `O`).
    pub store_bytes: usize,
    /// Kept sets the last estimation selection ran over.
    pub estimation_sets: usize,
    /// Time attribution.
    pub phases: PhaseBreakdown,
    /// What recovery did (empty for a clean run under any policy).
    pub recovery: RecoveryReport,
}

impl ImmResult {
    /// Total time of the run in microseconds.
    pub fn elapsed_us(&self) -> f64 {
        self.phases.total_us()
    }

    /// The martingale estimate of the seed set's expected spread,
    /// `n * F_R(S)` — available for free from the coverage, no Monte-Carlo
    /// needed. Within the `(1 - 1/e - eps)` guarantee of the true optimum
    /// with probability `1 - n^-ell`.
    pub fn estimated_spread(&self, n: usize) -> f64 {
        n as f64 * self.coverage
    }
}

/// Runs the full IMM pipeline on `engine`:
/// estimate theta (iterative halving), sample to theta, select `k` seeds.
///
/// Estimation sets are reused for the final phase (the standard
/// implementation practice of Ripples/gIM, which the paper follows).
pub fn run_imm<E: ImmEngine>(engine: &mut E, config: &ImmConfig) -> Result<ImmResult, EngineError> {
    run_imm_traced(engine, config, &RunTrace::disabled())
}

/// [`run_imm`] with run telemetry: each driver phase (estimation, sampling,
/// selection) is recorded as a span on `trace`, timestamped on the engine's
/// own timeline (`elapsed_us`) so the spans enclose the kernel, memory, and
/// transfer events the engine's device records into the same sink.
pub fn run_imm_traced<E: ImmEngine>(
    engine: &mut E,
    config: &ImmConfig,
    trace: &RunTrace,
) -> Result<ImmResult, EngineError> {
    run_imm_recovering(engine, config, &RecoveryPolicy::abort(), trace)
}

/// One recovery-aware sampling round: drive `engine` to `target` logical
/// sets, retrying transient faults (with exponential simulated backoff) and
/// halving the step on OOM down to the policy's floor.
///
/// Each attempt runs against a fresh [`MartingaleCheckpoint`]; because the
/// engines commit sets only on success and sample content is a pure function
/// of the set index, a replayed round regenerates identical sets and the
/// stopping rule sees exactly the state a clean run would.
fn extend_with_recovery<E: ImmEngine>(
    engine: &mut E,
    target: usize,
    policy: &RecoveryPolicy,
    trace: &RunTrace,
    report: &mut RecoveryReport,
) -> Result<(), EngineError> {
    let metrics = trace.metrics();
    metrics.set_phase(Phase::Sample);
    if !policy.allows_retry() {
        let r = engine.extend_to(target);
        metrics.tick_stream(engine.elapsed_us());
        return r;
    }
    let mut batch = target.saturating_sub(engine.logical_sets()).max(1);
    let mut attempts: u32 = 0;
    loop {
        let ckpt = MartingaleCheckpoint::capture(engine);
        if ckpt.logical_sets >= target {
            return Ok(());
        }
        let step_target = (ckpt.logical_sets + batch).min(target);
        let step = engine.extend_to(step_target);
        // One snapshot-stream tick per sampling round, on the engine's own
        // simulated timeline — the deterministic heartbeat of the stream.
        metrics.tick_stream(engine.elapsed_us());
        match step {
            Ok(()) => attempts = 0,
            Err(EngineError::Fault(fault)) => {
                // Engines commit per-batch, so a faulted call may still have
                // banked earlier batches — but never regressed.
                debug_assert!(engine.logical_sets() >= ckpt.logical_sets);
                if attempts >= policy.max_retries {
                    // The retry budget is spent. A fail-stopped device never
                    // answers a retry: give the engine one chance to evict
                    // the dead and re-shard the pending work onto survivors
                    // before the round is declared unrecoverable. Set the
                    // recover phase first so the engine-internal eviction
                    // counters (eim_device_failures_total) carry it too.
                    metrics.set_phase(Phase::Recover);
                    if let Some(eviction) = engine.evict_lost_devices()? {
                        let pending = target.saturating_sub(engine.logical_sets()) as u64;
                        report.redistributed_sets += pending;
                        trace.record_recovery(
                            Recovery::Redistribute {
                                devices_evicted: eviction.devices_evicted as u64,
                                survivors: eviction.survivors as u64,
                                redistributed_sets: pending,
                            },
                            engine.elapsed_us(),
                        );
                        metrics.tick_stream(engine.elapsed_us());
                        metrics.set_phase(Phase::Sample);
                        attempts = 0;
                        continue;
                    }
                    return Err(EngineError::RetriesExhausted { fault, attempts });
                }
                attempts += 1;
                report.retries += 1;
                let backoff = policy.backoff_us * (1u64 << (attempts - 1).min(16)) as f64;
                engine.advance_time(backoff);
                metrics.set_phase(Phase::Recover);
                trace.record_recovery(
                    Recovery::Retry {
                        attempt: attempts as u64,
                        fault_ordinal: fault.ordinal(),
                        backoff_us: backoff,
                    },
                    engine.elapsed_us(),
                );
                metrics.set_phase(Phase::Sample);
            }
            Err(oom @ EngineError::OutOfMemory { .. }) => {
                if batch <= policy.min_batch {
                    return Err(oom);
                }
                batch = (batch / 2).max(policy.min_batch);
                attempts = 0;
                report.batch_splits += 1;
                metrics.set_phase(Phase::Recover);
                trace.record_recovery(
                    Recovery::BatchSplit {
                        batch: batch as u64,
                    },
                    engine.elapsed_us(),
                );
                metrics.set_phase(Phase::Sample);
            }
            Err(other) => return Err(other),
        }
    }
}

/// [`run_imm_traced`] under an explicit [`RecoveryPolicy`]: every sampling
/// round goes through retry / batch-split recovery, and the returned
/// [`ImmResult::recovery`] merges the driver's actions with whatever the
/// engine did internally (host spills under `Degrade`).
pub fn run_imm_recovering<E: ImmEngine>(
    engine: &mut E,
    config: &ImmConfig,
    policy: &RecoveryPolicy,
    trace: &RunTrace,
) -> Result<ImmResult, EngineError> {
    run_imm_checkpointed(engine, config, policy, trace, &Checkpointing::disabled())
}

/// Persists one checkpoint (when a directory is configured) and enforces the
/// deterministic-kill budget. The persisted report merges the driver's
/// tallies with the engine's internal ones so a resume carries both forward.
#[allow(clippy::too_many_arguments)]
fn write_checkpoint<E: ImmEngine>(
    engine: &E,
    ckpt: &Checkpointing,
    trace: &RunTrace,
    report: &mut RecoveryReport,
    written_this_run: &mut u32,
    phase: CheckpointPhase,
    lower_bound: f64,
    last_coverage: f64,
) -> Result<(), EngineError> {
    let Some(dir) = &ckpt.dir else {
        return Ok(());
    };
    report.checkpoints_written += 1;
    let mut persisted = *report;
    persisted.merge(&engine.recovery_report());
    let cp = RunCheckpoint {
        fingerprint: ckpt.fingerprint,
        phase,
        logical_sets: engine.logical_sets(),
        store_digest: store_digest(engine.store()),
        lower_bound_bits: (!lower_bound.is_nan()).then(|| lower_bound.to_bits()),
        last_coverage_bits: last_coverage.to_bits(),
        report: persisted,
        manifest: engine.checkpoint_manifest(),
    };
    cp.save(dir).map_err(|_| EngineError::CheckpointIo)?;
    *written_this_run += 1;
    trace.metrics().set_phase(Phase::Recover);
    trace.record_recovery(
        Recovery::Checkpoint {
            logical_sets: cp.logical_sets as u64,
            written: *written_this_run as u64,
        },
        engine.elapsed_us(),
    );
    if ckpt
        .kill_after
        .is_some_and(|limit| *written_this_run >= limit)
    {
        return Err(EngineError::Interrupted {
            checkpoints_written: *written_this_run,
        });
    }
    Ok(())
}

/// [`run_imm_recovering`] with checkpoint/restart. With a checkpoint
/// directory configured the driver persists its martingale state after each
/// estimation iteration and after the final sampling extension; with a
/// resume checkpoint it first *replays* sampling up to the checkpointed
/// count (sample content is a pure function of `(seed, index)`, so the
/// replayed store is digest-verified byte-identical), pins the engine's
/// simulated clocks and allocator state from the manifest, and continues
/// exactly where the interrupted run stopped — same seeds, same timeline.
pub fn run_imm_checkpointed<E: ImmEngine>(
    engine: &mut E,
    config: &ImmConfig,
    policy: &RecoveryPolicy,
    trace: &RunTrace,
    ckpt: &Checkpointing,
) -> Result<ImmResult, EngineError> {
    engine.set_recovery_policy(*policy);
    let mut report = RecoveryReport::default();
    let n = engine.n();
    config.validate(n);
    let k = config.k;
    let eps = config.epsilon;
    let ell = adjusted_ell(config.ell, n);
    let lp = lambda_prime(n, k, eps, ell);
    let ls = lambda_star(n, k, eps, ell);
    let eps_p = epsilon_prime(eps);
    let n_f = n as f64;
    let last_iteration = max_estimation_iterations(n);
    // Estimation iteration `i` samples up to θ_i = λ' / (n / 2^i).
    let theta_at = |i: usize| (lp / (n_f / 2f64.powi(i as i32))).ceil().max(1.0) as usize;
    // The final sample count for a coverage lower bound: θ = λ* / LB.
    let theta_for = |lower_bound: f64| (ls / lower_bound).ceil().max(1.0) as usize;

    let mut t0 = engine.elapsed_us();
    let mut t1 = t0;
    let mut lower_bound = f64::NAN;
    let mut last_coverage = 0.0f64;
    let mut start_iteration: usize = 1;
    let mut resumed_past_estimation = false;
    let mut estimation_sets = 0usize;
    let mut written_this_run: u32 = 0;

    if let Some(cp) = &ckpt.resume {
        if cp.fingerprint != ckpt.fingerprint {
            return Err(EngineError::CheckpointMismatch {
                expected: ckpt.fingerprint,
                found: cp.fingerprint,
            });
        }
        // Every eviction the report counts left its device marked in the
        // manifest, and nothing else does. The report's other counters
        // (retries, spills) leave no trace to check them against.
        let evicted = cp.manifest.devices.iter().filter(|d| d.evicted).count() as u64;
        if u64::from(cp.report.devices_evicted) != evicted {
            return Err(EngineError::CheckpointMismatch {
                expected: evicted,
                found: u64::from(cp.report.devices_evicted),
            });
        }
        match cp.phase {
            CheckpointPhase::Estimation { next_iteration } => {
                // Iteration `i` checkpoints after sampling θ_i sets and names
                // `i + 1`. Any other pairing would restart the martingale at
                // an iteration the store does not match; a wrong one still
                // passes the store digest, because the store is unchanged.
                let next = next_iteration as usize;
                if !(2..=last_iteration + 1).contains(&next)
                    || theta_at(next - 1) != cp.logical_sets
                {
                    let expected = (1..=last_iteration)
                        .find(|&i| theta_at(i) == cp.logical_sets)
                        .map_or(0, |i| i as u64 + 1);
                    return Err(EngineError::CheckpointMismatch {
                        expected,
                        found: u64::from(next_iteration),
                    });
                }
            }
            CheckpointPhase::Sampled {
                estimation_sets, ..
            } => {
                // Written after the final extension to θ = λ* / LB, so the
                // count already covers θ. A lower bound asking for more sets
                // (or none recorded) does not belong to this count, and
                // resuming would sample up to its θ before any digest check.
                let extended = estimation_sets > 0 || cp.logical_sets == 0;
                let theta = cp.lower_bound_bits.map(|b| theta_for(f64::from_bits(b)));
                if extended && theta.is_none_or(|t| t > cp.logical_sets) {
                    return Err(EngineError::CheckpointMismatch {
                        expected: cp.logical_sets as u64,
                        found: theta.map_or(0, |t| t as u64),
                    });
                }
            }
        }
        report = cp.report;
        report.resumes += 1;
        // Replay sampling up to the checkpointed logical count; the digest
        // check proves the regenerated store is the one the checkpoint saw.
        extend_with_recovery(engine, cp.logical_sets, policy, trace, &mut report)?;
        let digest = store_digest(engine.store());
        if digest != cp.store_digest {
            return Err(EngineError::CheckpointMismatch {
                expected: cp.store_digest,
                found: digest,
            });
        }
        engine.restore_manifest(&cp.manifest)?;
        last_coverage = f64::from_bits(cp.last_coverage_bits);
        if let Some(bits) = cp.lower_bound_bits {
            lower_bound = f64::from_bits(bits);
        }
        // The manifest pinned the clocks back onto the original run's
        // timeline, so phase attribution restarts from its origin too.
        t0 = 0.0;
        t1 = t0;
        match cp.phase {
            CheckpointPhase::Estimation { next_iteration } => {
                start_iteration = next_iteration as usize
            }
            CheckpointPhase::Sampled {
                estimation_end_us_bits,
                estimation_sets: sets,
            } => {
                resumed_past_estimation = true;
                t1 = f64::from_bits(estimation_end_us_bits);
                estimation_sets = sets;
            }
        }
        trace.metrics().set_phase(Phase::Recover);
        trace.record_recovery(
            Recovery::Resume {
                logical_sets: cp.logical_sets as u64,
            },
            engine.elapsed_us(),
        );
        trace.metrics().tick_stream(engine.elapsed_us());
    }

    if !resumed_past_estimation {
        // Kept sets the last estimation selection ran over.
        let mut kept = None;
        for i in start_iteration..=last_iteration {
            let x = n_f / 2f64.powi(i as i32);
            let theta_i = theta_at(i);
            extend_with_recovery(engine, theta_i, policy, trace, &mut report)?;
            let short = engine.logical_sets() < theta_i;
            trace.metrics().set_phase(Phase::Select);
            let sel = engine.select(k);
            trace.metrics().tick_stream(engine.elapsed_us());
            kept = Some(sel.num_sets);
            last_coverage = sel.coverage_fraction();
            if n_f * last_coverage >= (1.0 + eps_p) * x {
                lower_bound = (n_f * last_coverage / (1.0 + eps_p)).max(1.0);
                break;
            }
            if short {
                // Backend cannot produce more sets (degenerate input);
                // settle for the coverage we have rather than looping
                // forever.
                break;
            }
            // Checkpoint only between iterations: once the threshold is
            // crossed the post-sampling checkpoint supersedes this one, and
            // skipping it keeps the resume path free of a redundant branch.
            write_checkpoint(
                engine,
                ckpt,
                trace,
                &mut report,
                &mut written_this_run,
                CheckpointPhase::Estimation {
                    next_iteration: (i + 1) as u32,
                },
                lower_bound,
                last_coverage,
            )?;
        }
        if lower_bound.is_nan() {
            // Never crossed the threshold (pathological coverage, e.g. k = 1
            // on an all-singleton store, or a capped backend): fall back on
            // the last observed coverage instead of theta = lambda*.
            lower_bound = (n_f * last_coverage / (1.0 + eps_p)).max(1.0);
        }
        // A resume past the last iteration made no selection; a cold
        // engine's store holds exactly its kept sets.
        estimation_sets = kept.unwrap_or_else(|| engine.store().num_sets());
        t1 = engine.elapsed_us();
    }
    trace.record_phase("estimation", t0, t1 - t0);

    let theta = theta_for(lower_bound);
    // When every estimation sample was eliminated (degenerate input),
    // further sampling cannot add coverage, so skip the final extension.
    // The count is the selection's, not the store's: a streaming engine's
    // store also holds eliminated slots and slots past its cutoff.
    if estimation_sets > 0 || engine.logical_sets() == 0 {
        extend_with_recovery(engine, theta, policy, trace, &mut report)?;
    }
    let t2 = engine.elapsed_us();
    trace.record_phase("sampling", t1, t2 - t1);
    write_checkpoint(
        engine,
        ckpt,
        trace,
        &mut report,
        &mut written_this_run,
        CheckpointPhase::Sampled {
            estimation_end_us_bits: t1.to_bits(),
            estimation_sets,
        },
        lower_bound,
        last_coverage,
    )?;

    trace.metrics().set_phase(Phase::Select);
    let sel = engine.select(k);
    let t3 = engine.elapsed_us();
    trace.record_phase("selection", t2, t3 - t2);
    trace.metrics().tick_stream(t3);

    report.merge(&engine.recovery_report());
    // Re-export the merged recovery tallies through the metrics registry so
    // Prometheus scrapes see them next to the fault/recovery event counters.
    trace.metrics().set_phase(Phase::Recover);
    trace.metrics().record_recovery_report(
        report.retries as u64,
        report.batch_splits as u64,
        report.spill_events as u64,
        report.spilled_bytes as u64,
        report.reloaded_bytes as u64,
        report.degraded_rounds as u64,
    );
    let store = engine.store();
    Ok(ImmResult {
        seeds: sel.seeds.clone(),
        coverage: sel.coverage_fraction(),
        num_sets: sel.num_sets,
        theta,
        lower_bound,
        total_elements: store.total_elements(),
        store_bytes: store.bytes(),
        estimation_sets,
        phases: PhaseBreakdown {
            estimation_us: t1 - t0,
            sampling_us: t2 - t1,
            selection_us: t3 - t2,
        },
        recovery: report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rrrstore::{PlainRrrStore, RrrStoreBuilder};
    use crate::selection::select_seeds;

    /// A toy engine producing fixed-shape sets: set j contains {j % 8} plus
    /// the hub vertex 0 — so vertex 0 covers everything and coverage is 1.0
    /// after one seed.
    struct ToyEngine {
        store: PlainRrrStore,
        n: usize,
        clock: f64,
        cap: Option<usize>,
    }

    impl ToyEngine {
        fn new(n: usize, cap: Option<usize>) -> Self {
            Self {
                store: PlainRrrStore::new(n),
                n,
                clock: 0.0,
                cap,
            }
        }
    }

    impl ImmEngine for ToyEngine {
        fn n(&self) -> usize {
            self.n
        }
        fn extend_to(&mut self, target: usize) -> Result<(), EngineError> {
            let target = self.cap.map_or(target, |c| target.min(c));
            while self.store.num_sets() < target {
                let j = self.store.num_sets() as u32;
                let other = 1 + (j % 8);
                self.store.append_set(&[0, other]);
                self.clock += 1.0;
            }
            Ok(())
        }
        fn select(&mut self, k: usize) -> Selection {
            self.clock += 10.0;
            select_seeds(&self.store, k)
        }
        fn store(&self) -> &dyn RrrSets {
            &self.store
        }
        fn elapsed_us(&self) -> f64 {
            self.clock
        }
    }

    fn cfg(k: usize, eps: f64) -> ImmConfig {
        ImmConfig::paper_default()
            .with_k(k)
            .with_epsilon(eps)
            .with_source_elimination(false)
            .with_packed(false)
    }

    #[test]
    fn driver_selects_the_hub_and_terminates() {
        let mut e = ToyEngine::new(64, None);
        let r = run_imm(&mut e, &cfg(2, 0.3)).unwrap();
        assert_eq!(r.seeds[0], 0);
        assert!((r.coverage - 1.0).abs() < 1e-12);
        assert!(r.num_sets >= 1);
        assert!(r.lower_bound > 1.0);
        assert!(r.theta >= 1);
        assert_eq!(r.total_elements, r.num_sets * 2);
    }

    #[test]
    fn estimated_spread_is_coverage_times_n() {
        let mut e = ToyEngine::new(64, None);
        let r = run_imm(&mut e, &cfg(2, 0.3)).unwrap();
        assert!((r.estimated_spread(64) - 64.0 * r.coverage).abs() < 1e-12);
        assert!(r.estimated_spread(64) <= 64.0);
    }

    #[test]
    fn phases_are_attributed() {
        let mut e = ToyEngine::new(64, None);
        let r = run_imm(&mut e, &cfg(2, 0.3)).unwrap();
        assert!(r.phases.estimation_us > 0.0);
        assert!(r.phases.selection_us > 0.0);
        assert!((r.elapsed_us() - e.clock).abs() < 1e-9);
    }

    #[test]
    fn traced_run_records_the_three_phases() {
        let trace = RunTrace::enabled();
        let mut e = ToyEngine::new(64, None);
        let r = run_imm_traced(&mut e, &cfg(2, 0.3), &trace).unwrap();
        let s = trace.summary();
        let names: Vec<&str> = s.phase_us.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["estimation", "sampling", "selection"]);
        let total: f64 = s.phase_us.iter().map(|(_, us)| us).sum();
        assert!((total - r.elapsed_us()).abs() < 1e-9);
        // Spans tile the engine's timeline: each starts where the previous
        // ended.
        let events = trace.events();
        assert_eq!(events[0].ts_us, 0.0);
        for w in events.windows(2) {
            let eim_trace::EventKind::Span { dur_us } = w[0].kind else {
                panic!("phase events are spans");
            };
            assert!((w[0].ts_us + dur_us - w[1].ts_us).abs() < 1e-9);
        }
    }

    #[test]
    fn capped_engine_terminates_gracefully() {
        // Engine that can never produce more than 3 sets: the driver must
        // settle rather than loop forever.
        let mut e = ToyEngine::new(1 << 14, Some(3));
        let r = run_imm(&mut e, &cfg(1, 0.5)).unwrap();
        assert_eq!(r.num_sets, 3);
        assert_eq!(r.seeds.len(), 1);
    }

    #[test]
    fn smaller_epsilon_needs_more_sets() {
        let mut loose = ToyEngine::new(256, None);
        let rl = run_imm(&mut loose, &cfg(2, 0.5)).unwrap();
        let mut tight = ToyEngine::new(256, None);
        let rt = run_imm(&mut tight, &cfg(2, 0.1)).unwrap();
        assert!(
            rt.num_sets > 5 * rl.num_sets,
            "tight {} loose {}",
            rt.num_sets,
            rl.num_sets
        );
    }

    #[test]
    fn theta_uses_lambda_star_over_lb() {
        let mut e = ToyEngine::new(128, None);
        let r = run_imm(&mut e, &cfg(2, 0.4)).unwrap();
        let ell = adjusted_ell(1.0, 128);
        let ls = lambda_star(128, 2, 0.4, ell);
        assert_eq!(r.theta, (ls / r.lower_bound).ceil() as usize);
    }

    #[test]
    fn oom_propagates() {
        struct OomEngine {
            store: PlainRrrStore,
        }
        impl ImmEngine for OomEngine {
            fn n(&self) -> usize {
                100
            }
            fn extend_to(&mut self, _t: usize) -> Result<(), EngineError> {
                Err(EngineError::OutOfMemory {
                    requested: 1,
                    in_use: 0,
                    capacity: 0,
                })
            }
            fn select(&mut self, k: usize) -> Selection {
                select_seeds(&self.store, k)
            }
            fn store(&self) -> &dyn RrrSets {
                &self.store
            }
            fn elapsed_us(&self) -> f64 {
                0.0
            }
        }
        let mut e = OomEngine {
            store: PlainRrrStore::new(100),
        };
        let err = run_imm(&mut e, &cfg(1, 0.5)).unwrap_err();
        assert!(matches!(err, EngineError::OutOfMemory { .. }));
    }

    /// A toy engine whose `extend_to` fails with a scripted error sequence
    /// before eventually succeeding — exercises the driver-level recovery
    /// loop without a simulated device.
    struct FlakyEngine {
        inner: ToyEngine,
        script: Vec<Option<EngineError>>,
        calls: usize,
        /// OOM clears once the requested step is at or below this size.
        oom_until_batch: Option<usize>,
    }

    impl ImmEngine for FlakyEngine {
        fn n(&self) -> usize {
            self.inner.n()
        }
        fn extend_to(&mut self, target: usize) -> Result<(), EngineError> {
            let call = self.calls;
            self.calls += 1;
            if let Some(limit) = self.oom_until_batch {
                if target.saturating_sub(self.inner.store.num_sets()) > limit {
                    return Err(EngineError::OutOfMemory {
                        requested: target,
                        in_use: 0,
                        capacity: limit,
                    });
                }
            }
            if let Some(Some(err)) = self.script.get(call) {
                return Err(*err);
            }
            self.inner.extend_to(target)
        }
        fn select(&mut self, k: usize) -> Selection {
            self.inner.select(k)
        }
        fn store(&self) -> &dyn RrrSets {
            self.inner.store()
        }
        fn elapsed_us(&self) -> f64 {
            self.inner.elapsed_us()
        }
        fn advance_time(&mut self, us: f64) {
            self.inner.clock += us;
        }
    }

    #[test]
    fn transient_fault_is_retried_and_seeds_match_clean_run() {
        let fault = EngineError::Fault(eim_gpusim::SimFault::KernelLaunch { ordinal: 0 });
        let mut flaky = FlakyEngine {
            inner: ToyEngine::new(64, None),
            script: vec![Some(fault), None, Some(fault)],
            calls: 0,
            oom_until_batch: None,
        };
        let r = run_imm_recovering(
            &mut flaky,
            &cfg(2, 0.3),
            &RecoveryPolicy::retry(),
            &RunTrace::disabled(),
        )
        .unwrap();
        assert!(r.recovery.retries >= 1);
        let mut clean = ToyEngine::new(64, None);
        let rc = run_imm(&mut clean, &cfg(2, 0.3)).unwrap();
        assert_eq!(r.seeds, rc.seeds);
        assert_eq!(r.num_sets, rc.num_sets);
        assert!(rc.recovery.is_empty());
        // Backoff consumed simulated time beyond the clean run's.
        assert!(flaky.inner.clock > clean.clock);
    }

    #[test]
    fn retries_exhausted_is_a_typed_error() {
        let fault = EngineError::Fault(eim_gpusim::SimFault::Transfer { ordinal: 3 });
        let mut flaky = FlakyEngine {
            inner: ToyEngine::new(64, None),
            script: vec![Some(fault); 32],
            calls: 0,
            oom_until_batch: None,
        };
        let err = run_imm_recovering(
            &mut flaky,
            &cfg(2, 0.3),
            &RecoveryPolicy::retry().with_max_retries(2),
            &RunTrace::disabled(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            EngineError::RetriesExhausted { attempts: 2, .. }
        ));
    }

    #[test]
    fn oom_splits_the_batch_down_to_the_floor() {
        // OOM whenever a single step asks for more than 8 sets: the driver
        // must halve its way down and still finish, counting the splits.
        let mut flaky = FlakyEngine {
            inner: ToyEngine::new(64, None),
            script: Vec::new(),
            calls: 0,
            oom_until_batch: Some(8),
        };
        let trace = RunTrace::enabled();
        let r = run_imm_recovering(
            &mut flaky,
            &cfg(2, 0.3),
            &RecoveryPolicy::retry().with_min_batch(2),
            &trace,
        )
        .unwrap();
        assert!(r.recovery.batch_splits >= 1);
        assert!(trace.summary().recovery_events >= 1);
        let mut clean = ToyEngine::new(64, None);
        let rc = run_imm(&mut clean, &cfg(2, 0.3)).unwrap();
        assert_eq!(r.seeds, rc.seeds);
    }

    #[test]
    fn oom_below_the_floor_aborts_with_the_original_error() {
        let mut flaky = FlakyEngine {
            inner: ToyEngine::new(64, None),
            script: Vec::new(),
            calls: 0,
            oom_until_batch: Some(0), // every step OOMs regardless of size
        };
        let err = run_imm_recovering(
            &mut flaky,
            &cfg(2, 0.3),
            &RecoveryPolicy::retry().with_min_batch(4),
            &RunTrace::disabled(),
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::OutOfMemory { .. }));
    }

    // ---- device eviction at the driver level ----

    /// An engine stuck on a fail-stopped device: every `extend_to` faults
    /// until `evict_lost_devices` is called, after which it behaves like
    /// the clean [`ToyEngine`]. Counts both kinds of calls so tests can pin
    /// down exactly when the driver reaches for eviction.
    struct DeadDeviceEngine {
        inner: ToyEngine,
        dead: bool,
        fault_calls: usize,
        evict_calls: usize,
    }

    impl ImmEngine for DeadDeviceEngine {
        fn n(&self) -> usize {
            self.inner.n()
        }
        fn extend_to(&mut self, target: usize) -> Result<(), EngineError> {
            if self.dead {
                self.fault_calls += 1;
                return Err(EngineError::Fault(eim_gpusim::SimFault::DeviceLost {
                    ordinal: self.fault_calls as u64,
                }));
            }
            self.inner.extend_to(target)
        }
        fn select(&mut self, k: usize) -> Selection {
            self.inner.select(k)
        }
        fn store(&self) -> &dyn RrrSets {
            self.inner.store()
        }
        fn elapsed_us(&self) -> f64 {
            self.inner.elapsed_us()
        }
        fn advance_time(&mut self, us: f64) {
            self.inner.clock += us;
        }
        fn evict_lost_devices(&mut self) -> Result<Option<Eviction>, EngineError> {
            self.evict_calls += 1;
            if !self.dead {
                return Ok(None);
            }
            self.dead = false;
            Ok(Some(Eviction {
                devices_evicted: 1,
                survivors: 3,
            }))
        }
    }

    #[test]
    fn eviction_fires_only_after_the_retry_budget_is_spent() {
        let mut e = DeadDeviceEngine {
            inner: ToyEngine::new(64, None),
            dead: true,
            fault_calls: 0,
            evict_calls: 0,
        };
        let policy = RecoveryPolicy::retry().with_max_retries(2);
        let r = run_imm_recovering(&mut e, &cfg(2, 0.3), &policy, &RunTrace::disabled()).unwrap();
        // max_retries backoff-retries burn first, then the one extra fault
        // triggers eviction — never sooner.
        assert_eq!(e.fault_calls, 3, "2 retries + the fault that evicts");
        assert_eq!(e.evict_calls, 1);
        assert_eq!(r.recovery.retries, 2);
        assert!(
            r.recovery.redistributed_sets > 0,
            "eviction must account the pending re-sharded sets"
        );
        let mut clean = ToyEngine::new(64, None);
        let rc = run_imm(&mut clean, &cfg(2, 0.3)).unwrap();
        assert_eq!(r.seeds, rc.seeds, "eviction changed the answer");
        assert_eq!(r.num_sets, rc.num_sets);
    }

    #[test]
    fn eviction_that_cannot_help_still_exhausts_retries() {
        // `evict_lost_devices` returning `None` (nothing to evict) must
        // fall through to the typed exhaustion error.
        let fault = EngineError::Fault(eim_gpusim::SimFault::DeviceLost { ordinal: 0 });
        let mut flaky = FlakyEngine {
            inner: ToyEngine::new(64, None),
            script: vec![Some(fault); 32],
            calls: 0,
            oom_until_batch: None,
        };
        let err = run_imm_recovering(
            &mut flaky,
            &cfg(2, 0.3),
            &RecoveryPolicy::retry().with_max_retries(3),
            &RunTrace::disabled(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            EngineError::RetriesExhausted { attempts: 3, .. }
        ));
    }

    // ---- checkpoint / kill / resume at the driver level ----

    fn temp_ckpt_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("eim-martingale-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn killed_run_resumes_to_the_identical_result() {
        let config = cfg(2, 0.1); // tight epsilon → several estimation rounds
        let dir = temp_ckpt_dir("resume");
        let fingerprint = crate::run_fingerprint(&config, 64, "toy", 1);

        let mut clean = ToyEngine::new(64, None);
        let rc = run_imm(&mut clean, &config).unwrap();

        let mut killed = ToyEngine::new(64, None);
        let ckpt = Checkpointing {
            dir: Some(dir.clone()),
            resume: None,
            kill_after: Some(1),
            fingerprint,
        };
        let err = run_imm_checkpointed(
            &mut killed,
            &config,
            &RecoveryPolicy::retry(),
            &RunTrace::disabled(),
            &ckpt,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            EngineError::Interrupted {
                checkpoints_written: 1
            }
        ));

        let cp = crate::RunCheckpoint::load(&dir).unwrap();
        assert_eq!(cp.fingerprint, fingerprint);
        let mut resumed = ToyEngine::new(64, None);
        let ckpt = Checkpointing {
            dir: Some(dir.clone()),
            resume: Some(cp),
            kill_after: None,
            fingerprint,
        };
        let r = run_imm_checkpointed(
            &mut resumed,
            &config,
            &RecoveryPolicy::retry(),
            &RunTrace::disabled(),
            &ckpt,
        )
        .unwrap();
        assert_eq!(r.seeds, rc.seeds);
        assert_eq!(r.num_sets, rc.num_sets);
        assert_eq!(r.theta, rc.theta);
        assert_eq!(r.lower_bound.to_bits(), rc.lower_bound.to_bits());
        assert_eq!(r.recovery.resumes, 1);
        assert!(r.recovery.checkpoints_written >= 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // ---- property: backoff schedule shape ----

    /// Records the simulated clock at every `extend_to` call and whether
    /// that call was scripted to fault, so the property below can audit the
    /// exact backoff the driver charged between consecutive attempts.
    struct ClockProbeEngine {
        inner: ToyEngine,
        pattern: Vec<bool>, // true → this call faults
        calls: usize,
        log: Vec<(f64, bool)>, // (clock at call, faulted)
    }

    impl ImmEngine for ClockProbeEngine {
        fn n(&self) -> usize {
            self.inner.n()
        }
        fn extend_to(&mut self, target: usize) -> Result<(), EngineError> {
            let faulted = self.pattern.get(self.calls).copied().unwrap_or(false);
            self.calls += 1;
            self.log.push((self.inner.clock, faulted));
            if faulted {
                return Err(EngineError::Fault(eim_gpusim::SimFault::KernelLaunch {
                    ordinal: self.calls as u64,
                }));
            }
            self.inner.extend_to(target)
        }
        fn select(&mut self, k: usize) -> Selection {
            self.inner.select(k)
        }
        fn store(&self) -> &dyn RrrSets {
            self.inner.store()
        }
        fn elapsed_us(&self) -> f64 {
            self.inner.elapsed_us()
        }
        fn advance_time(&mut self, us: f64) {
            self.inner.clock += us;
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Across arbitrary fault schedules the backoff charged between
        /// consecutive attempts is exponential in the attempt streak,
        /// capped at `base * 2^16`, and the simulated clock is strictly
        /// monotone across every retry.
        #[test]
        fn backoff_is_exponential_capped_and_monotone(
            pattern in proptest::collection::vec(0u32..10, 1..20),
            base in 1.0f64..500.0,
        ) {
            let mut e = ClockProbeEngine {
                inner: ToyEngine::new(64, None),
                // ~60% of calls fault
                pattern: pattern.iter().map(|&v| v < 6).collect(),
                calls: 0,
                log: Vec::new(),
            };
            // Budget above any possible streak so the run always finishes.
            let policy = RecoveryPolicy::retry()
                .with_max_retries(25)
                .with_backoff_us(base);
            let r = run_imm_recovering(
                &mut e,
                &cfg(2, 0.3),
                &policy,
                &RunTrace::disabled(),
            )
            .unwrap();
            let faults = e.log.iter().filter(|(_, f)| *f).count() as u64;
            proptest::prop_assert_eq!(r.recovery.retries as u64, faults);

            let mut attempts: u32 = 0;
            for w in e.log.windows(2) {
                let ((clock, faulted), (next_clock, _)) = (w[0], w[1]);
                if faulted {
                    attempts += 1;
                    let expected = base * (1u64 << (attempts - 1).min(16)) as f64;
                    let charged = next_clock - clock;
                    proptest::prop_assert!(
                        (charged - expected).abs() <= 1e-9 * expected.max(1.0),
                        "attempt {}: charged {} expected {}",
                        attempts, charged, expected
                    );
                    proptest::prop_assert!(charged <= base * 65_536.0 * (1.0 + 1e-12));
                    proptest::prop_assert!(next_clock > clock, "clock stalled across a retry");
                } else {
                    attempts = 0;
                }
            }
        }
    }

    #[test]
    fn resume_with_the_wrong_fingerprint_is_a_typed_error() {
        let config = cfg(2, 0.1);
        let dir = temp_ckpt_dir("mismatch");
        let fingerprint = crate::run_fingerprint(&config, 64, "toy", 1);
        let mut killed = ToyEngine::new(64, None);
        let ckpt = Checkpointing {
            dir: Some(dir.clone()),
            resume: None,
            kill_after: Some(1),
            fingerprint,
        };
        run_imm_checkpointed(
            &mut killed,
            &config,
            &RecoveryPolicy::retry(),
            &RunTrace::disabled(),
            &ckpt,
        )
        .unwrap_err();
        let cp = crate::RunCheckpoint::load(&dir).unwrap();
        let mut resumed = ToyEngine::new(64, None);
        let ckpt = Checkpointing {
            dir: Some(dir.clone()),
            resume: Some(cp),
            kill_after: None,
            fingerprint: fingerprint ^ 1, // a different run configuration
        };
        let err = run_imm_checkpointed(
            &mut resumed,
            &config,
            &RecoveryPolicy::retry(),
            &RunTrace::disabled(),
            &ckpt,
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::CheckpointMismatch { .. }));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
