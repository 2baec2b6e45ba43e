//! Checkpoint/restart for IMM runs.
//!
//! A [`RunCheckpoint`] captures the driver's martingale state (iteration
//! cursor, logical sample count, lower bound) plus an [`EngineManifest`]
//! describing per-device simulator state (clocks, store allocation,
//! partition accounting, evictions). Because sample `i`'s content is a pure
//! function of `(seed, i)`, a resumed run does not need the RRR sets on
//! disk: it *replays* sampling up to the checkpointed count — verified
//! against the checkpoint's store digest — then pins the simulated clocks
//! and allocator state from the manifest and continues. The resumed run
//! therefore returns byte-identical seed sets, and (absent new faults) the
//! identical simulated timeline.
//!
//! Persistence is a single JSON file per checkpoint directory, written
//! atomically (tmp-then-rename) so a crash mid-write never corrupts the
//! previous checkpoint.

use std::fs;
use std::path::{Path, PathBuf};

use crate::config::ImmConfig;
use crate::martingale::EngineError;
use crate::recovery::RecoveryReport;
use crate::rrrstore::RrrSets;

/// File name of the checkpoint inside its `--checkpoint` directory. Each
/// write replaces the previous one; the latest checkpoint is always the
/// resume point.
pub const CHECKPOINT_FILE: &str = "eim-checkpoint.json";

/// Where in the driver the checkpoint was taken.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckpointPhase {
    /// Taken after estimation iteration `next_iteration - 1` completed
    /// without crossing the stopping threshold.
    Estimation {
        /// The iteration the resumed run continues from.
        next_iteration: u32,
    },
    /// Taken after the final sampling extension to theta.
    Sampled {
        /// `f64::to_bits` of the engine time when estimation ended, so the
        /// resumed run reproduces the original phase attribution exactly.
        estimation_end_us_bits: u64,
        /// Sets present when estimation ended.
        estimation_sets: usize,
        /// Logical sets the last estimation selection ran at, if the run
        /// made one. When it equals the checkpoint's count the final
        /// extension drew nothing and the run reuses that selection, so the
        /// resume charges no device for it either.
        selected_at: Option<usize>,
    },
}

/// Per-device simulator state pinned on resume. Clock values round-trip as
/// `f64::to_bits` so restored timelines are bit-exact.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DeviceManifest {
    /// The device's original ordinal (index at engine construction).
    pub ordinal: u64,
    /// Simulated clock at checkpoint time (0 for evicted devices).
    pub clock_us: f64,
    /// Whether the device had been evicted when the checkpoint was taken.
    pub evicted: bool,
    /// Store bytes this device staged to the primary; the primary itself
    /// records the whole store.
    pub partition_bytes: usize,
}

/// Engine-side state a checkpoint carries: one entry per *original* device
/// plus the gather/allocation accounting. Engines that do not model devices
/// return an empty manifest and restore is a no-op.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EngineManifest {
    /// One entry per original device, in ordinal order.
    pub devices: Vec<DeviceManifest>,
    /// Bytes of non-primary partitions already staged to the primary.
    pub gathered_bytes: usize,
    /// Device allocation backing the primary RRR store.
    pub store_alloc_bytes: usize,
}

impl EngineManifest {
    /// Rejects a manifest that a freshly built pool of `devices` devices
    /// cannot resume from: a different device count, a clock that is not a
    /// finite non-negative time, no surviving device, or `gathered_bytes`
    /// other than what the surviving non-primary devices staged (staging is
    /// eager, so a consistent run leaves nothing ungathered).
    pub fn check(&self, devices: usize) -> Result<(), EngineError> {
        let mismatch = |expected, found| Err(EngineError::CheckpointMismatch { expected, found });
        if self.devices.len() != devices {
            return mismatch(devices as u64, self.devices.len() as u64);
        }
        let bad_clock = |d: &&DeviceManifest| !(d.clock_us >= 0.0 && d.clock_us.is_finite());
        if let Some(bad) = self.devices.iter().find(bad_clock) {
            return mismatch(0, bad.clock_us.to_bits());
        }
        let mut survivors = self.devices.iter().filter(|d| !d.evicted);
        if survivors.next().is_none() {
            return mismatch(1, 0);
        }
        let staged = survivors.try_fold(0usize, |acc, d| acc.checked_add(d.partition_bytes));
        if staged != Some(self.gathered_bytes) {
            return mismatch(
                staged.unwrap_or(usize::MAX) as u64,
                self.gathered_bytes as u64,
            );
        }
        Ok(())
    }
}

/// One persisted run checkpoint.
#[derive(Clone, Debug, PartialEq)]
pub struct RunCheckpoint {
    /// Hash of the run configuration ([`run_fingerprint`]); a resume against
    /// a different graph/config/engine is rejected rather than silently
    /// producing garbage.
    pub fingerprint: u64,
    /// Driver position.
    pub phase: CheckpointPhase,
    /// Samples counted toward theta when the checkpoint was taken.
    pub logical_sets: usize,
    /// [`store_digest`] of the RRR store, verified after replay.
    pub store_digest: u64,
    /// `f64::to_bits` of the coverage lower bound, once established.
    pub lower_bound_bits: Option<u64>,
    /// `f64::to_bits` of the last trial-selection coverage.
    pub last_coverage_bits: u64,
    /// Recovery actions up to the checkpoint (driver + engine merged).
    pub report: RecoveryReport,
    /// Engine-side device state.
    pub manifest: EngineManifest,
}

/// FNV-1a over a run's identity: config, graph size, engine name, device
/// count. Two runs with equal fingerprints replay identical sample streams.
pub fn run_fingerprint(config: &ImmConfig, n: usize, engine: &str, devices: usize) -> u64 {
    let mut h = Fnv::new();
    h.mix(config.k as u64);
    h.mix(config.epsilon.to_bits());
    h.mix(config.ell.to_bits());
    h.mix(config.seed);
    h.mix(config.source_elimination as u64);
    h.mix(config.packed as u64);
    // Slot of a removed store-layout flag: mixing 0 keeps older checkpoints resumable.
    h.mix(0);
    for b in format!("{:?}", config.model).bytes() {
        h.mix(b as u64);
    }
    h.mix(n as u64);
    for b in engine.bytes() {
        h.mix(b as u64);
    }
    h.mix(devices as u64);
    h.finish()
}

/// FNV-1a digest of an RRR store's full content (set lengths + elements in
/// order). A resumed run replays sampling and must land on the exact store
/// the checkpoint described; this catches a divergent replay before it can
/// select from the wrong sets.
pub fn store_digest(store: &dyn RrrSets) -> u64 {
    let mut h = Fnv::new();
    h.mix(store.num_sets() as u64);
    for i in 0..store.num_sets() {
        let members = store.set(i);
        h.mix(members.len() as u64);
        for &v in members {
            h.mix(v as u64);
        }
    }
    h.finish()
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
    fn mix(&mut self, v: u64) {
        for shift in [0u32, 8, 16, 24, 32, 40, 48, 56] {
            self.0 ^= (v >> shift) & 0xff;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

impl RunCheckpoint {
    /// Serializes to the persisted JSON form. Floats are stored as
    /// `f64::to_bits` integers so the round-trip is bit-exact.
    pub fn to_json(&self) -> serde_json::Value {
        let phase = match self.phase {
            CheckpointPhase::Estimation { next_iteration } => serde_json::json!({
                "kind": "estimation",
                "next_iteration": next_iteration,
            }),
            CheckpointPhase::Sampled {
                estimation_end_us_bits,
                estimation_sets,
                selected_at,
            } => serde_json::json!({
                "kind": "sampled",
                "estimation_end_us_bits": estimation_end_us_bits,
                "estimation_sets": estimation_sets,
                "selected_at": selected_at,
            }),
        };
        let devices: Vec<serde_json::Value> = self
            .manifest
            .devices
            .iter()
            .map(|d| {
                serde_json::json!({
                    "ordinal": d.ordinal,
                    "clock_us_bits": d.clock_us.to_bits(),
                    "evicted": d.evicted,
                    "partition_bytes": d.partition_bytes,
                })
            })
            .collect();
        let r = &self.report;
        serde_json::json!({
            "format": 1,
            "fingerprint": self.fingerprint,
            "phase": phase,
            "logical_sets": self.logical_sets,
            "store_digest": self.store_digest,
            "lower_bound_bits": self.lower_bound_bits,
            "last_coverage_bits": self.last_coverage_bits,
            "report": serde_json::json!({
                "retries": r.retries,
                "batch_splits": r.batch_splits,
                "spill_events": r.spill_events,
                "spilled_bytes": r.spilled_bytes,
                "reloaded_bytes": r.reloaded_bytes,
                "degraded_rounds": r.degraded_rounds,
                "devices_evicted": r.devices_evicted,
                "redistributed_sets": r.redistributed_sets,
                "checkpoints_written": r.checkpoints_written,
                "resumes": r.resumes,
            }),
            "manifest": serde_json::json!({
                "devices": devices,
                "gathered_bytes": self.manifest.gathered_bytes,
                "store_alloc_bytes": self.manifest.store_alloc_bytes,
            }),
        })
    }

    /// Parses the persisted JSON form.
    pub fn from_json(v: &serde_json::Value) -> Result<Self, String> {
        let u = |v: &serde_json::Value, key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(|x| x.as_u64())
                .ok_or_else(|| format!("checkpoint field `{key}` missing or not an integer"))
        };
        if u(v, "format")? != 1 {
            return Err("unsupported checkpoint format version".into());
        }
        let phase_v = v
            .get("phase")
            .ok_or_else(|| "checkpoint field `phase` missing".to_string())?;
        let phase = match phase_v.get("kind").and_then(|k| k.as_str()) {
            Some("estimation") => CheckpointPhase::Estimation {
                next_iteration: u(phase_v, "next_iteration")? as u32,
            },
            Some("sampled") => CheckpointPhase::Sampled {
                estimation_end_us_bits: u(phase_v, "estimation_end_us_bits")?,
                estimation_sets: u(phase_v, "estimation_sets")? as usize,
                selected_at: phase_v
                    .get("selected_at")
                    .and_then(|x| x.as_u64())
                    .map(|x| x as usize),
            },
            other => return Err(format!("unknown checkpoint phase kind {other:?}")),
        };
        let report_v = v
            .get("report")
            .ok_or_else(|| "checkpoint field `report` missing".to_string())?;
        let report = RecoveryReport {
            retries: u(report_v, "retries")? as u32,
            batch_splits: u(report_v, "batch_splits")? as u32,
            spill_events: u(report_v, "spill_events")? as u32,
            spilled_bytes: u(report_v, "spilled_bytes")? as usize,
            reloaded_bytes: u(report_v, "reloaded_bytes")? as usize,
            degraded_rounds: u(report_v, "degraded_rounds")? as u32,
            devices_evicted: u(report_v, "devices_evicted")? as u32,
            redistributed_sets: u(report_v, "redistributed_sets")?,
            checkpoints_written: u(report_v, "checkpoints_written")? as u32,
            resumes: u(report_v, "resumes")? as u32,
        };
        let manifest_v = v
            .get("manifest")
            .ok_or_else(|| "checkpoint field `manifest` missing".to_string())?;
        let devices_v = manifest_v
            .get("devices")
            .and_then(|d| d.as_array())
            .ok_or_else(|| "checkpoint field `manifest.devices` missing".to_string())?;
        let mut devices = Vec::with_capacity(devices_v.len());
        for d in devices_v {
            devices.push(DeviceManifest {
                ordinal: u(d, "ordinal")?,
                clock_us: f64::from_bits(u(d, "clock_us_bits")?),
                evicted: d.get("evicted").and_then(|b| b.as_bool()).unwrap_or(false),
                partition_bytes: u(d, "partition_bytes")? as usize,
            });
        }
        let manifest = EngineManifest {
            devices,
            gathered_bytes: u(manifest_v, "gathered_bytes")? as usize,
            store_alloc_bytes: u(manifest_v, "store_alloc_bytes")? as usize,
        };
        Ok(Self {
            fingerprint: u(v, "fingerprint")?,
            phase,
            logical_sets: u(v, "logical_sets")? as usize,
            store_digest: u(v, "store_digest")?,
            lower_bound_bits: v.get("lower_bound_bits").and_then(|x| x.as_u64()),
            last_coverage_bits: u(v, "last_coverage_bits")?,
            report,
            manifest,
        })
    }

    /// Atomically persists the checkpoint into `dir` (created if absent):
    /// the JSON is written to a temp file and renamed over
    /// [`CHECKPOINT_FILE`], so readers only ever see a complete checkpoint.
    pub fn save(&self, dir: &Path) -> Result<PathBuf, String> {
        fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let tmp = dir.join(".eim-checkpoint.json.tmp");
        let path = dir.join(CHECKPOINT_FILE);
        let body = serde_json::to_string_pretty(&self.to_json())
            .map_err(|e| format!("cannot serialize checkpoint: {e}"))?;
        fs::write(&tmp, body).map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
        fs::rename(&tmp, &path)
            .map_err(|e| format!("cannot commit checkpoint {}: {e}", path.display()))?;
        Ok(path)
    }

    /// Loads the checkpoint from `dir`.
    pub fn load(dir: &Path) -> Result<Self, String> {
        let path = dir.join(CHECKPOINT_FILE);
        let body = fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let v = serde_json::from_str(&body)
            .map_err(|e| format!("{} is not valid JSON: {e}", path.display()))?;
        Self::from_json(&v)
    }
}

/// Checkpoint/restart control for
/// [`run_imm_checkpointed`](crate::run_imm_checkpointed).
#[derive(Clone, Debug, Default)]
pub struct Checkpointing {
    /// Directory to persist checkpoints into; `None` disables writing.
    pub dir: Option<PathBuf>,
    /// Checkpoint to reconstruct the run from before continuing.
    pub resume: Option<RunCheckpoint>,
    /// Deliberately interrupt the run after this many checkpoint writes —
    /// the deterministic "kill" half of a kill/resume test.
    pub kill_after: Option<u32>,
    /// Expected [`run_fingerprint`] for this run; compared against
    /// `resume.fingerprint` and stamped into written checkpoints.
    pub fingerprint: u64,
}

impl Checkpointing {
    /// No checkpointing at all (the plain `run_imm_recovering` path).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Whether any checkpoint activity is configured.
    pub fn is_enabled(&self) -> bool {
        self.dir.is_some() || self.resume.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rrrstore::{RrrStore, RrrStoreBuilder};

    fn sample_checkpoint() -> RunCheckpoint {
        RunCheckpoint {
            fingerprint: 0xdead_beef,
            phase: CheckpointPhase::Sampled {
                estimation_end_us_bits: 1234.5f64.to_bits(),
                estimation_sets: 77,
                selected_at: Some(900),
            },
            logical_sets: 1000,
            store_digest: 42,
            lower_bound_bits: Some(9.75f64.to_bits()),
            last_coverage_bits: 0.5f64.to_bits(),
            report: RecoveryReport {
                retries: 3,
                devices_evicted: 1,
                redistributed_sets: 512,
                checkpoints_written: 2,
                ..Default::default()
            },
            manifest: EngineManifest {
                devices: vec![
                    DeviceManifest {
                        ordinal: 0,
                        clock_us: 10.125,
                        evicted: false,
                        partition_bytes: 4096,
                    },
                    DeviceManifest {
                        ordinal: 1,
                        clock_us: 0.0,
                        evicted: true,
                        partition_bytes: 0,
                    },
                ],
                gathered_bytes: 2048,
                store_alloc_bytes: 8192,
            },
        }
    }

    #[test]
    fn json_round_trip_is_exact() {
        for phase in [
            CheckpointPhase::Estimation { next_iteration: 5 },
            CheckpointPhase::Sampled {
                estimation_end_us_bits: 0.1f64.to_bits(),
                estimation_sets: 3,
                selected_at: None,
            },
            CheckpointPhase::Sampled {
                estimation_end_us_bits: 0.1f64.to_bits(),
                estimation_sets: 3,
                selected_at: Some(1000),
            },
        ] {
            let mut cp = sample_checkpoint();
            cp.phase = phase;
            let back = RunCheckpoint::from_json(&cp.to_json()).unwrap();
            assert_eq!(back, cp);
        }
    }

    #[test]
    fn save_load_round_trips_through_disk() {
        let dir = std::env::temp_dir().join(format!("eim-ckpt-test-{}", std::process::id()));
        let cp = sample_checkpoint();
        let path = cp.save(&dir).unwrap();
        assert!(path.ends_with(CHECKPOINT_FILE));
        assert_eq!(RunCheckpoint::load(&dir).unwrap(), cp);
        // Overwrite is atomic-by-rename: a second save replaces the first.
        let mut cp2 = cp.clone();
        cp2.logical_sets = 2000;
        cp2.save(&dir).unwrap();
        assert_eq!(RunCheckpoint::load(&dir).unwrap().logical_sets, 2000);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_from_missing_dir_is_an_error() {
        let err = RunCheckpoint::load(Path::new("/nonexistent/eim-ckpt")).unwrap_err();
        assert!(err.contains("cannot read"), "{err}");
    }

    #[test]
    fn fingerprint_separates_runs() {
        let c = ImmConfig::paper_default();
        let base = run_fingerprint(&c, 1000, "eim", 1);
        assert_eq!(base, run_fingerprint(&c, 1000, "eim", 1));
        assert_ne!(base, run_fingerprint(&c.with_k(49), 1000, "eim", 1));
        assert_ne!(base, run_fingerprint(&c.with_seed(1), 1000, "eim", 1));
        assert_ne!(base, run_fingerprint(&c.with_packed(false), 1000, "eim", 1));
        assert_ne!(base, run_fingerprint(&c, 1001, "eim", 1));
        assert_ne!(base, run_fingerprint(&c, 1000, "multigpu", 1));
        assert_ne!(base, run_fingerprint(&c, 1000, "eim", 2));
    }

    /// Checkpoints written before the fingerprint's layout slot became a
    /// constant must still resume: pin the value those builds computed.
    #[test]
    fn fingerprint_is_stable_across_releases() {
        let c = ImmConfig::paper_default();
        assert_eq!(run_fingerprint(&c, 1000, "eim", 1), 0xefd4_d6e9_de2b_b578);
    }

    #[test]
    fn store_digest_tracks_content() {
        let mut a = RrrStore::new(16, false);
        a.append_set(&[1, 2, 3]);
        a.append_set(&[4]);
        let mut b = RrrStore::new(16, false);
        b.append_set(&[1, 2, 3]);
        b.append_set(&[4]);
        assert_eq!(store_digest(&a), store_digest(&b));
        b.append_set(&[5]);
        assert_ne!(store_digest(&a), store_digest(&b));
        let mut c = RrrStore::new(16, false);
        c.append_set(&[1, 2]);
        c.append_set(&[3, 4]);
        assert_ne!(store_digest(&a), store_digest(&c), "boundaries matter");
    }
}
