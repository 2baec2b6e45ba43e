//! Phase-scoped metrics snapshots: an interval-delta JSONL stream keyed to
//! the simulated clock, plus the accumulator that folds a stream back into
//! the cumulative registry state.
//!
//! The stream is the live counterpart of the Prometheus dump: the driver
//! ticks the registry at phase boundaries and after every sampling round,
//! and whenever the simulated clock crosses an interval boundary the writer
//! emits one JSONL record holding the *delta* since the previous record.
//! Because emission is keyed to the simulated clock (never the wall clock),
//! two identical runs produce byte-identical streams — the same determinism
//! bar the Prometheus dumps carry.
//!
//! Reconciliation is a hard guarantee, mirrored from the trace goldens:
//! summing every record's deltas must rebuild the final registry exactly.
//! The final record embeds an FNV-1a digest of the cumulative state so a
//! replay (`eim top --check`) can verify the invariant offline, without the
//! registry in hand. Integer fields are true deltas (exact under u64
//! addition); the two floating-point fields (per-kernel `sim_us`, histogram
//! `sum`) and the high-water gauges are carried as cumulative values, since
//! f64 deltas would not telescope bit-exactly.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

use serde_json::{Map, Value};

use crate::{fmt_labels, KernelHw, MetricsRegistry, State};

/// Schema identifier written on the stream's header line.
pub const SNAPSHOT_SCHEMA: &str = "eim-metrics-snapshot-v1";

/// FNV-1a 64-bit hash; the digest primitive for stream reconciliation.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn fnv64_hex(bytes: &[u8]) -> String {
    format!("{:016x}", fnv64(bytes))
}

// --------------------------------------------------------------- flatten --

/// One kernel profile flattened to plain owned fields, keyed by the
/// `engine|device|kernel` composite string so both sides of the
/// reconciliation iterate in the same order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FlatKernel {
    /// Engine label.
    pub engine: String,
    /// Device ordinal.
    pub device: u32,
    /// Kernel name.
    pub kernel: String,
    /// Launches folded in.
    pub launches: u64,
    /// Blocks across launches.
    pub blocks: u64,
    /// Cycles across blocks.
    pub cycles: u64,
    /// Largest single-block cycle count (cumulative max, not a delta).
    pub max_block_cycles: u64,
    /// Simulated µs (cumulative, not a delta).
    pub sim_us: f64,
    /// Hardware counters.
    pub hw: KernelHw,
}

impl FlatKernel {
    /// Achieved occupancy percentage (mirrors `KernelProfile`).
    pub fn occupancy_pct(&self) -> f64 {
        if self.hw.occ_capacity_cycles == 0 {
            0.0
        } else {
            100.0 * self.hw.occ_busy_cycles as f64 / self.hw.occ_capacity_cycles as f64
        }
    }

    /// Warp divergence percentage (mirrors `KernelProfile`).
    pub fn divergence_pct(&self) -> f64 {
        let total = self
            .hw
            .active_lane_cycles
            .saturating_add(self.hw.idle_lane_cycles);
        if total == 0 {
            0.0
        } else {
            100.0 * self.hw.idle_lane_cycles as f64 / total as f64
        }
    }

    /// Achieved global-memory throughput, GB/s (mirrors `KernelProfile`).
    pub fn mem_gbps(&self) -> f64 {
        if self.sim_us <= 0.0 {
            0.0
        } else {
            self.hw.global_bytes as f64 / (self.sim_us * 1000.0)
        }
    }
}

/// Histogram state flattened for the stream: per-bucket counts (aligned with
/// the family's boundary table), total count, and the cumulative sum.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FlatHistogram {
    /// Per-bucket (non-cumulative) counts.
    pub counts: Vec<u64>,
    /// Total observations (including past the last boundary).
    pub count: u64,
    /// Cumulative sum of observations.
    pub sum: f64,
}

/// The whole registry flattened to string-keyed sorted maps — the common
/// representation the writer diffs against and the accumulator rebuilds.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FlatSnapshot {
    /// Counter series (`name{labels}` → cumulative value).
    pub counters: BTreeMap<String, u64>,
    /// Gauge series (`name{labels}` → current high-water value).
    pub gauges: BTreeMap<String, u64>,
    /// Histogram series (`name{labels}` → flattened state).
    pub histograms: BTreeMap<String, FlatHistogram>,
    /// Kernel profiles (`engine|device|kernel` → flattened profile).
    pub kernels: BTreeMap<String, FlatKernel>,
}

pub(crate) fn flatten(st: &State) -> FlatSnapshot {
    let mut flat = FlatSnapshot::default();
    for (k, v) in &st.counters {
        flat.counters
            .insert(format!("{}{}", k.name, fmt_labels(&k.labels)), *v);
    }
    for (k, g) in &st.gauges {
        flat.gauges.insert(
            format!("{}{}", k.name, fmt_labels(&k.labels)),
            g.peak.max(g.value),
        );
    }
    for (k, h) in &st.histograms {
        flat.histograms.insert(
            format!("{}{}", k.name, fmt_labels(&k.labels)),
            FlatHistogram {
                counts: h.counts.clone(),
                count: h.count,
                sum: h.sum,
            },
        );
    }
    for (k, p) in &st.kernels {
        flat.kernels.insert(
            format!("{}|{}|{}", k.engine, k.device, k.kernel),
            FlatKernel {
                engine: k.engine.clone(),
                device: k.device,
                kernel: k.kernel.clone(),
                launches: p.launches,
                blocks: p.blocks,
                cycles: p.cycles,
                max_block_cycles: p.max_block_cycles,
                sim_us: p.sim_us,
                hw: p.hw,
            },
        );
    }
    flat
}

fn kernel_value(k: &FlatKernel) -> Value {
    let mut m = Map::new();
    m.insert("engine", Value::String(k.engine.clone()));
    m.insert("device", Value::from(k.device));
    m.insert("kernel", Value::String(k.kernel.clone()));
    m.insert("launches", Value::from(k.launches));
    m.insert("blocks", Value::from(k.blocks));
    m.insert("cycles", Value::from(k.cycles));
    m.insert("max_block_cycles", Value::from(k.max_block_cycles));
    m.insert("sim_us", Value::from(k.sim_us));
    m.insert("occ_busy_cycles", Value::from(k.hw.occ_busy_cycles));
    m.insert("occ_capacity_cycles", Value::from(k.hw.occ_capacity_cycles));
    m.insert("active_lane_cycles", Value::from(k.hw.active_lane_cycles));
    m.insert("idle_lane_cycles", Value::from(k.hw.idle_lane_cycles));
    m.insert("global_transactions", Value::from(k.hw.global_transactions));
    m.insert("global_bytes", Value::from(k.hw.global_bytes));
    m.insert("shared_transactions", Value::from(k.hw.shared_transactions));
    m.insert("atomics", Value::from(k.hw.atomics));
    m.insert("atomic_retries", Value::from(k.hw.atomic_retries));
    m.insert("shared_spill_bytes", Value::from(k.hw.shared_spill_bytes));
    m.insert("mallocs", Value::from(k.hw.mallocs));
    Value::Object(m)
}

fn histogram_value(h: &FlatHistogram) -> Value {
    let mut m = Map::new();
    m.insert("count", Value::from(h.count));
    m.insert("sum", Value::from(h.sum));
    m.insert(
        "buckets",
        Value::Array(h.counts.iter().map(|&c| Value::from(c)).collect()),
    );
    Value::Object(m)
}

/// The cumulative state as a deterministic JSON value: four sorted sections
/// (`counters`, `gauges`, `histograms`, `kernels`). The reconciliation
/// digest is the FNV-1a hash of this value's compact serialization.
pub fn cumulative_value(flat: &FlatSnapshot) -> Value {
    let mut counters = Map::new();
    for (k, v) in &flat.counters {
        counters.insert(k.clone(), Value::from(*v));
    }
    let mut gauges = Map::new();
    for (k, v) in &flat.gauges {
        gauges.insert(k.clone(), Value::from(*v));
    }
    let mut histograms = Map::new();
    for (k, h) in &flat.histograms {
        histograms.insert(k.clone(), histogram_value(h));
    }
    let mut kernels = Map::new();
    for (k, p) in &flat.kernels {
        kernels.insert(k.clone(), kernel_value(p));
    }
    let mut root = Map::new();
    root.insert("counters", Value::Object(counters));
    root.insert("gauges", Value::Object(gauges));
    root.insert("histograms", Value::Object(histograms));
    root.insert("kernels", Value::Object(kernels));
    Value::Object(root)
}

/// Digest of a flattened snapshot (hex FNV-1a of the compact JSON).
pub fn cumulative_digest(flat: &FlatSnapshot) -> String {
    let s = serde_json::to_string(&cumulative_value(flat)).unwrap_or_default();
    fnv64_hex(s.as_bytes())
}

/// Delta sections between two flattened snapshots. Integer fields are
/// subtracted; gauges, `sim_us`, `max_block_cycles`, and histogram `sum`
/// are carried as current cumulative values. Returns `(sections, empty)`.
fn delta_sections(prev: &FlatSnapshot, cur: &FlatSnapshot) -> (Map, bool) {
    let mut empty = true;
    let mut counters = Map::new();
    for (k, &v) in &cur.counters {
        let d = v - prev.counters.get(k).copied().unwrap_or(0);
        // A zero delta still matters the first time a series appears:
        // counter_add(.., 0) registers the series, and the rebuilt state
        // must carry it for the cumulative digests to match.
        if d > 0 || !prev.counters.contains_key(k) {
            counters.insert(k.clone(), Value::from(d));
            empty = false;
        }
    }
    let mut gauges = Map::new();
    for (k, &v) in &cur.gauges {
        if prev.gauges.get(k) != Some(&v) {
            gauges.insert(k.clone(), Value::from(v));
            empty = false;
        }
    }
    let mut histograms = Map::new();
    for (k, h) in &cur.histograms {
        let base = prev.histograms.get(k);
        let changed = match base {
            Some(b) => b != h,
            None => true,
        };
        if changed {
            let zero = FlatHistogram {
                counts: vec![0; h.counts.len()],
                ..FlatHistogram::default()
            };
            let b = base.unwrap_or(&zero);
            let d = FlatHistogram {
                counts: h
                    .counts
                    .iter()
                    .zip(b.counts.iter().chain(std::iter::repeat(&0)))
                    .map(|(&c, &p)| c - p)
                    .collect(),
                count: h.count - b.count,
                sum: h.sum,
            };
            histograms.insert(k.clone(), histogram_value(&d));
            empty = false;
        }
    }
    let mut kernels = Map::new();
    for (k, p) in &cur.kernels {
        let base = prev.kernels.get(k);
        let changed = match base {
            Some(b) => b != p,
            None => true,
        };
        if changed {
            let zero = FlatKernel::default();
            let b = base.unwrap_or(&zero);
            let mut hw = p.hw;
            let bh = b.hw;
            hw.occ_busy_cycles -= bh.occ_busy_cycles;
            hw.occ_capacity_cycles -= bh.occ_capacity_cycles;
            hw.active_lane_cycles -= bh.active_lane_cycles;
            hw.idle_lane_cycles -= bh.idle_lane_cycles;
            hw.global_transactions -= bh.global_transactions;
            hw.global_bytes -= bh.global_bytes;
            hw.shared_transactions -= bh.shared_transactions;
            hw.atomics -= bh.atomics;
            hw.atomic_retries -= bh.atomic_retries;
            hw.shared_spill_bytes -= bh.shared_spill_bytes;
            hw.mallocs -= bh.mallocs;
            let d = FlatKernel {
                engine: p.engine.clone(),
                device: p.device,
                kernel: p.kernel.clone(),
                launches: p.launches - b.launches,
                blocks: p.blocks - b.blocks,
                cycles: p.cycles - b.cycles,
                max_block_cycles: p.max_block_cycles,
                sim_us: p.sim_us,
                hw,
            };
            kernels.insert(k.clone(), kernel_value(&d));
            empty = false;
        }
    }
    let mut sections = Map::new();
    sections.insert("counters", Value::Object(counters));
    sections.insert("gauges", Value::Object(gauges));
    sections.insert("histograms", Value::Object(histograms));
    sections.insert("kernels", Value::Object(kernels));
    (sections, empty)
}

// ---------------------------------------------------------------- writer --

/// Emits the interval-delta JSONL stream. Owned by the registry; the driver
/// drives it indirectly through [`MetricsRegistry::tick_snapshot_stream`] at
/// phase boundaries and after each sampling round.
pub struct SnapshotStreamWriter {
    out: Box<dyn Write + Send>,
    interval_us: u64,
    next_emit_us: u64,
    seq: u64,
    prev: FlatSnapshot,
    finished: bool,
}

impl std::fmt::Debug for SnapshotStreamWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotStreamWriter")
            .field("interval_us", &self.interval_us)
            .field("seq", &self.seq)
            .field("finished", &self.finished)
            .finish()
    }
}

impl SnapshotStreamWriter {
    /// Starts a stream on `out`: writes the header line (schema, interval,
    /// provenance, bucket table) and flushes so live consumers see it
    /// immediately.
    pub fn new(
        mut out: Box<dyn Write + Send>,
        interval_us: u64,
        provenance: Value,
    ) -> std::io::Result<Self> {
        let interval_us = interval_us.max(1);
        let mut header = Map::new();
        header.insert("schema", Value::from(SNAPSHOT_SCHEMA));
        header.insert("interval_us", Value::from(interval_us));
        header.insert(
            "utilization_buckets",
            Value::Array(
                crate::UTILIZATION_BUCKETS
                    .iter()
                    .map(|&b| Value::from(b))
                    .collect(),
            ),
        );
        header.insert("provenance", provenance);
        writeln!(
            out,
            "{}",
            serde_json::to_string(&Value::Object(header)).unwrap_or_default()
        )?;
        out.flush()?;
        Ok(Self {
            out,
            interval_us,
            next_emit_us: interval_us,
            seq: 0,
            prev: FlatSnapshot::default(),
            finished: false,
        })
    }

    fn write_record(
        &mut self,
        ts_us: u64,
        phase: &str,
        sections: Map,
        digest: Option<String>,
    ) -> std::io::Result<()> {
        let mut rec = Map::new();
        rec.insert("seq", Value::from(self.seq));
        rec.insert("ts_us", Value::from(ts_us));
        rec.insert("phase", Value::from(phase));
        if let Some(d) = digest {
            rec.insert("final", Value::Bool(true));
            rec.insert("cumulative_fnv64", Value::from(d));
        }
        for (k, v) in sections.iter() {
            rec.insert(k.clone(), v.clone());
        }
        writeln!(
            self.out,
            "{}",
            serde_json::to_string(&Value::Object(rec)).unwrap_or_default()
        )?;
        self.seq += 1;
        self.out.flush()
    }

    pub(crate) fn tick(&mut self, st: &State, now_us: f64) -> std::io::Result<()> {
        if self.finished {
            return Ok(());
        }
        let now = now_us.max(0.0) as u64;
        // Stamp at the largest interval boundary the clock has crossed: all
        // activity since the previous record lands on that boundary.
        let boundary = (now / self.interval_us) * self.interval_us;
        if boundary < self.next_emit_us {
            return Ok(());
        }
        let cur = flatten(st);
        let (sections, empty) = delta_sections(&self.prev, &cur);
        if !empty {
            self.write_record(boundary, st.phase.label(), sections, None)?;
        }
        self.prev = cur;
        self.next_emit_us = boundary + self.interval_us;
        Ok(())
    }

    pub(crate) fn finish(&mut self, st: &State, now_us: f64) -> std::io::Result<()> {
        if self.finished {
            return Ok(());
        }
        let cur = flatten(st);
        let (sections, _) = delta_sections(&self.prev, &cur);
        let digest = cumulative_digest(&cur);
        self.write_record(
            now_us.max(0.0) as u64,
            st.phase.label(),
            sections,
            Some(digest),
        )?;
        self.prev = cur;
        self.finished = true;
        Ok(())
    }
}

// ----------------------------------------------------------- accumulator --

/// Folds a snapshot stream back into cumulative state — the consumer side
/// used by `eim top`, the reconciliation tests, and `--check` replays.
#[derive(Debug, Default)]
pub struct SnapshotAccumulator {
    /// The parsed header line, once seen.
    pub header: Option<Value>,
    /// Rebuilt cumulative state.
    pub flat: FlatSnapshot,
    /// Delta records applied (header excluded).
    pub records: u64,
    /// Timestamp of the last record, simulated µs.
    pub last_ts_us: u64,
    /// Phase label of the last record.
    pub last_phase: String,
    /// The digest the final record carried, when one has been seen.
    pub final_digest: Option<String>,
}

fn section<'v>(rec: &'v Value, name: &str) -> Option<&'v Map> {
    rec.get(name).and_then(Value::as_object)
}

/// Adds a stream delta to a cumulative field. The stream is untrusted
/// input, so a sum past `u64::MAX` is an error, not a wrap or a panic.
fn add(total: &mut u64, delta: u64, key: &str) -> Result<(), String> {
    *total = total
        .checked_add(delta)
        .ok_or_else(|| format!("snapshot delta overflows u64 at {key:?}"))?;
    Ok(())
}

impl SnapshotAccumulator {
    /// A fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies one JSONL line (header or delta record). Blank lines are
    /// ignored; malformed lines, and deltas whose sum overflows `u64`, are
    /// errors.
    pub fn push_line(&mut self, line: &str) -> Result<(), String> {
        let line = line.trim();
        if line.is_empty() {
            return Ok(());
        }
        let rec: Value =
            serde_json::from_str(line).map_err(|e| format!("unparseable snapshot line: {e}"))?;
        if let Some(schema) = rec.get("schema").and_then(Value::as_str) {
            if schema != SNAPSHOT_SCHEMA {
                return Err(format!("unsupported snapshot schema {schema:?}"));
            }
            self.header = Some(rec);
            return Ok(());
        }
        self.last_ts_us = rec["ts_us"].as_u64().ok_or("record missing ts_us")?;
        self.last_phase = rec["phase"].as_str().unwrap_or("").to_string();
        if let Some(counters) = section(&rec, "counters") {
            for (k, v) in counters.iter() {
                let d = v.as_u64().ok_or("non-integer counter delta")?;
                add(self.flat.counters.entry(k.clone()).or_insert(0), d, k)?;
            }
        }
        if let Some(gauges) = section(&rec, "gauges") {
            for (k, v) in gauges.iter() {
                let cur = v.as_u64().ok_or("non-integer gauge value")?;
                self.flat.gauges.insert(k.clone(), cur);
            }
        }
        if let Some(histograms) = section(&rec, "histograms") {
            for (k, v) in histograms.iter() {
                let h = self.flat.histograms.entry(k.clone()).or_default();
                add(
                    &mut h.count,
                    v["count"].as_u64().ok_or("bad histogram count")?,
                    k,
                )?;
                h.sum = v["sum"].as_f64().ok_or("bad histogram sum")?;
                let buckets = v["buckets"].as_array().ok_or("bad histogram buckets")?;
                if h.counts.len() < buckets.len() {
                    h.counts.resize(buckets.len(), 0);
                }
                for (count, b) in h.counts.iter_mut().zip(buckets) {
                    add(count, b.as_u64().ok_or("bad bucket delta")?, k)?;
                }
            }
        }
        if let Some(kernels) = section(&rec, "kernels") {
            for (k, v) in kernels.iter() {
                let p = self.flat.kernels.entry(k.clone()).or_default();
                p.engine = v["engine"].as_str().unwrap_or("").to_string();
                p.device = v["device"].as_u64().unwrap_or(0) as u32;
                p.kernel = v["kernel"].as_str().unwrap_or("").to_string();
                p.max_block_cycles = v["max_block_cycles"].as_u64().unwrap_or(0);
                p.sim_us = v["sim_us"].as_f64().unwrap_or(0.0);
                let hw = &mut p.hw;
                for (field, total) in [
                    ("launches", &mut p.launches),
                    ("blocks", &mut p.blocks),
                    ("cycles", &mut p.cycles),
                    ("occ_busy_cycles", &mut hw.occ_busy_cycles),
                    ("occ_capacity_cycles", &mut hw.occ_capacity_cycles),
                    ("active_lane_cycles", &mut hw.active_lane_cycles),
                    ("idle_lane_cycles", &mut hw.idle_lane_cycles),
                    ("global_transactions", &mut hw.global_transactions),
                    ("global_bytes", &mut hw.global_bytes),
                    ("shared_transactions", &mut hw.shared_transactions),
                    ("atomics", &mut hw.atomics),
                    ("atomic_retries", &mut hw.atomic_retries),
                    ("shared_spill_bytes", &mut hw.shared_spill_bytes),
                    ("mallocs", &mut hw.mallocs),
                ] {
                    add(total, v[field].as_u64().unwrap_or(0), k)?;
                }
            }
        }
        if rec.get("final").and_then(Value::as_bool) == Some(true) {
            self.final_digest = rec["cumulative_fnv64"].as_str().map(str::to_string);
        }
        self.records += 1;
        Ok(())
    }

    /// Applies a whole stream (any `Read`), line by line.
    pub fn push_reader<R: std::io::BufRead>(&mut self, reader: R) -> Result<(), String> {
        for line in reader.lines() {
            let line = line.map_err(|e| format!("read error: {e}"))?;
            self.push_line(&line)?;
        }
        Ok(())
    }

    /// The rebuilt cumulative state as the canonical JSON value.
    pub fn cumulative_value(&self) -> Value {
        cumulative_value(&self.flat)
    }

    /// Verifies the reconciliation invariant: the digest of the summed
    /// deltas must equal the digest the final record embedded. Returns the
    /// digest on success.
    pub fn reconcile(&self) -> Result<String, String> {
        let want = self
            .final_digest
            .as_deref()
            .ok_or("stream has no final record (run did not finish?)")?;
        let got = cumulative_digest(&self.flat);
        if got == want {
            Ok(got)
        } else {
            Err(format!(
                "snapshot deltas do not reconcile: accumulated {got}, final record says {want}"
            ))
        }
    }
}

// ------------------------------------------------------------ provenance --

fn git_describe() -> Option<String> {
    let out = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--tags"])
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let s = String::from_utf8(out.stdout).ok()?.trim().to_string();
    (!s.is_empty()).then_some(s)
}

/// The provenance header embedded in every `BENCH_*.json` and snapshot
/// stream: schema version, toolchain, dataset, seed, and `git describe`
/// when available — so chart renderers can label series without guessing
/// from filenames.
pub fn provenance(dataset: Option<&str>, seed: Option<u64>) -> Value {
    let mut m = Map::new();
    m.insert("schema_version", Value::from(1u64));
    m.insert("toolchain", Value::from(env!("EIM_RUSTC_VERSION")));
    m.insert("dataset", dataset.map(Value::from).unwrap_or(Value::Null));
    m.insert("seed", seed.map(Value::from).unwrap_or(Value::Null));
    m.insert(
        "git",
        git_describe().map(Value::from).unwrap_or(Value::Null),
    );
    Value::Object(m)
}

// ------------------------------------------------------------ file write --

/// Writes the registry's Prometheus dump to `path` atomically (tmp file in
/// the same directory, fsync, rename) — the same crash-consistency contract
/// as `write_chrome_file`: consumers never observe a torn dump.
pub fn write_metrics_file(registry: &MetricsRegistry, path: &Path) -> std::io::Result<()> {
    let tmp_name = match path.file_name() {
        Some(name) => {
            let mut n = name.to_os_string();
            n.push(".tmp");
            n
        }
        None => {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "metrics path has no file name",
            ))
        }
    };
    let tmp = path.with_file_name(tmp_name);
    let result = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(registry.render_prometheus().as_bytes())?;
        f.flush()?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KernelHw, MetricsRegistry, Phase};
    use std::sync::{Arc, Mutex};

    /// A `Write` handle into a shared buffer, so tests can read back what a
    /// registry-owned writer emitted.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn drive(reg: &MetricsRegistry) {
        let s = reg.sink().with_engine("eim");
        s.set_phase(Phase::Sample);
        s.record_launch(
            "k",
            8,
            120.0,
            1000,
            40,
            &KernelHw {
                occ_busy_cycles: 25,
                occ_capacity_cycles: 100,
                active_lane_cycles: 75,
                idle_lane_cycles: 25,
                global_transactions: 4,
                global_bytes: 512,
                ..KernelHw::default()
            },
        );
        s.observe_transfer("h2d", "sync", 4096, 0.8);
        s.counter_add("eim_transfers_total", &[("dir", "h2d")], 1);
        reg.tick_snapshot_stream(150.0);
        s.set_phase(Phase::Select);
        s.record_launch("k", 8, 80.0, 500, 60, &KernelHw::default());
        s.gauge_max("eim_device_mem_peak_bytes", 9000);
        reg.tick_snapshot_stream(230.0);
    }

    fn run_stream(interval: u64) -> String {
        let reg = MetricsRegistry::new();
        let buf = SharedBuf::default();
        reg.start_snapshot_stream(
            Box::new(buf.clone()),
            interval,
            provenance(Some("toy"), Some(7)),
        )
        .unwrap();
        drive(&reg);
        reg.finish_snapshot_stream(230.0).unwrap();
        let bytes = buf.0.lock().unwrap().clone();
        String::from_utf8(bytes).unwrap()
    }

    #[test]
    fn zero_valued_counters_survive_reconciliation() {
        // record_recovery_report() registers counters with value 0; the
        // stream must still carry the series or the rebuilt state misses it.
        let reg = MetricsRegistry::new();
        let buf = SharedBuf::default();
        reg.start_snapshot_stream(Box::new(buf.clone()), 100, Value::Null)
            .unwrap();
        let s = reg.sink().with_engine("eim");
        s.counter_add("eim_recovery_retries_total", &[], 0);
        s.counter_add("eim_transfers_total", &[("dir", "h2d")], 3);
        reg.finish_snapshot_stream(40.0).unwrap();
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let mut acc = SnapshotAccumulator::new();
        for line in text.lines() {
            acc.push_line(line).unwrap();
        }
        acc.reconcile()
            .expect("zero-valued counters must reconcile");
        assert_eq!(
            acc.flat
                .counters
                .get("eim_recovery_retries_total{device=\"0\",engine=\"eim\"}"),
            Some(&0),
            "zero counter series must exist in the rebuilt state"
        );
    }

    #[test]
    fn stream_is_deterministic_and_reconciles() {
        let a = run_stream(100);
        let b = run_stream(100);
        assert_eq!(a, b, "double runs must be byte-identical");
        let mut acc = SnapshotAccumulator::new();
        for line in a.lines() {
            acc.push_line(line).unwrap();
        }
        assert!(acc.header.is_some());
        assert!(acc.records >= 2, "expected interval + final records");
        acc.reconcile().expect("deltas must sum to the final state");
    }

    #[test]
    fn accumulated_state_equals_registry_snapshot() {
        let reg = MetricsRegistry::new();
        let buf = SharedBuf::default();
        reg.start_snapshot_stream(Box::new(buf.clone()), 50, Value::Null)
            .unwrap();
        drive(&reg);
        reg.finish_snapshot_stream(230.0).unwrap();
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let mut acc = SnapshotAccumulator::new();
        for line in text.lines() {
            acc.push_line(line).unwrap();
        }
        let direct = serde_json::to_string(&reg.snapshot_value()).unwrap();
        let rebuilt = serde_json::to_string(&acc.cumulative_value()).unwrap();
        assert_eq!(direct, rebuilt);
    }

    #[test]
    fn phase_label_lands_on_counters_only_when_set() {
        let reg = MetricsRegistry::new();
        let s = reg.sink().with_engine("eim");
        s.counter_add("eim_transfers_total", &[("dir", "h2d")], 1);
        s.set_phase(Phase::Sample);
        s.counter_add("eim_transfers_total", &[("dir", "h2d")], 2);
        let text = reg.render_prometheus();
        assert!(
            text.contains("eim_transfers_total{device=\"0\",dir=\"h2d\",engine=\"eim\"} 1"),
            "{text}"
        );
        assert!(
            text.contains(
                "eim_transfers_total{device=\"0\",dir=\"h2d\",engine=\"eim\",phase=\"sample\"} 2"
            ),
            "{text}"
        );
    }

    #[test]
    fn interval_quantization_keys_records_to_the_simulated_clock() {
        let text = run_stream(100);
        let ts: Vec<u64> = text
            .lines()
            .filter_map(|l| {
                let v: Value = serde_json::from_str(l).unwrap();
                v.get("ts_us").and_then(Value::as_u64)
            })
            .collect();
        // First record at the 100 µs boundary (clock was at 150), second at
        // 200 (clock 230), final stamped at the raw clock.
        assert_eq!(ts, vec![100, 200, 230], "{text}");
    }

    #[test]
    fn tampered_stream_fails_reconciliation() {
        let text = run_stream(100);
        let mut acc = SnapshotAccumulator::new();
        for line in text.lines() {
            // Drop the first delta record: the digest can no longer match.
            if line.contains("\"seq\":0") {
                continue;
            }
            acc.push_line(line).unwrap();
        }
        assert!(acc.reconcile().is_err());
    }

    #[test]
    fn atomic_metrics_write_leaves_no_tmp() {
        let reg = MetricsRegistry::new();
        reg.sink()
            .with_engine("eim")
            .counter_add("eim_transfers_total", &[], 1);
        let dir = std::env::temp_dir().join("eim_snapshot_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.prom");
        write_metrics_file(&reg, &path).unwrap();
        assert!(path.exists());
        assert!(!path.with_file_name("out.prom.tmp").exists());
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("eim_transfers_total"));
    }
}
