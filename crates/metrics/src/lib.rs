//! Simulated hardware performance counters.
//!
//! The gpusim crates *compute* the quantities NVIDIA's profilers report on
//! real silicon — resident warps, predicated-off lanes, global-memory
//! transactions, atomic conflict serialization, shared-memory spills, PCIe
//! utilisation — but until this crate they were folded into a single cycle
//! count and thrown away. `eim-metrics` is the registry those counters land
//! in: typed instruments (monotonic counters, high-water gauges, fixed-bucket
//! histograms) keyed by `(name, labels)`, plus a per-kernel aggregate
//! ([`KernelProfile`]) surfaced as an nvprof-style table, Prometheus text
//! exposition, and a JSON snapshot.
//!
//! Determinism is a hard requirement, mirrored from the trace goldens: two
//! identical runs must render byte-identical dumps. Three rules make that
//! hold even though kernels execute on rayon worker threads:
//!
//! - integer instruments only ever *add* (commutative, order-free);
//! - the one high-water gauge updates by `max` (also commutative);
//! - floating-point accumulation (histogram sums, simulated µs) happens only
//!   on the engine-driving thread, in program order.
//!
//! All maps are `BTreeMap`s, so every renderer iterates in sorted order.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, PoisonError};

pub mod snapshot;

pub use snapshot::{
    cumulative_value, fnv64, provenance, write_metrics_file, FlatHistogram, FlatKernel,
    FlatSnapshot, SnapshotAccumulator, SnapshotStreamWriter, SNAPSHOT_SCHEMA,
};

/// Bucket boundaries for bandwidth-utilisation histograms (achieved
/// throughput as a fraction of the modelled PCIe peak). `+Inf` is implicit.
pub const UTILIZATION_BUCKETS: &[f64] = &[0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 0.9, 0.95, 0.99, 1.0];

/// Per-launch hardware counters accumulated by the simulator.
///
/// Everything here is additive, so per-chunk values merge associatively
/// (required: `launch_with_scratch` must report the same stats under any
/// rayon thread count) and per-launch values merge into a [`KernelProfile`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelHw {
    /// Warp-cycles during which a warp was resident on its SM.
    pub occ_busy_cycles: u64,
    /// Warp-cycles the device could have kept resident: `warps_per_sm ×
    /// num_sms × makespan`. Achieved occupancy = busy / capacity.
    pub occ_capacity_cycles: u64,
    /// Lane-cycles doing useful work (32 × cycles − idle).
    pub active_lane_cycles: u64,
    /// Lane-cycles predicated off: partial warp waves, serialized atomic
    /// retries. Divergence = idle / (active + idle).
    pub idle_lane_cycles: u64,
    /// Coalesced global-memory transactions issued.
    pub global_transactions: u64,
    /// Bytes moved by those transactions (128 B per 32-lane transaction).
    pub global_bytes: u64,
    /// Shared-memory transactions issued.
    pub shared_transactions: u64,
    /// Atomic operations issued.
    pub atomics: u64,
    /// Extra serialization rounds lost to atomic conflicts.
    pub atomic_retries: u64,
    /// Bytes that missed the shared-memory budget and spilled to global.
    pub shared_spill_bytes: u64,
    /// In-kernel dynamic allocations (gIM's `malloc` overhead).
    pub mallocs: u64,
}

impl KernelHw {
    /// Field-wise accumulation; used both for chunk merging inside a launch
    /// and for folding launches into a profile.
    pub fn merge(&mut self, o: &KernelHw) {
        self.occ_busy_cycles += o.occ_busy_cycles;
        self.occ_capacity_cycles += o.occ_capacity_cycles;
        self.active_lane_cycles += o.active_lane_cycles;
        self.idle_lane_cycles += o.idle_lane_cycles;
        self.global_transactions += o.global_transactions;
        self.global_bytes += o.global_bytes;
        self.shared_transactions += o.shared_transactions;
        self.atomics += o.atomics;
        self.atomic_retries += o.atomic_retries;
        self.shared_spill_bytes += o.shared_spill_bytes;
        self.mallocs += o.mallocs;
    }
}

/// Aggregate of every launch of one kernel name on one (engine, device).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct KernelProfile {
    /// Number of launches folded in.
    pub launches: u64,
    /// Total blocks across launches.
    pub blocks: u64,
    /// Total simulated time attributed to the kernel, µs.
    pub sim_us: f64,
    /// Total simulated cycles across all blocks.
    pub cycles: u64,
    /// Largest single-block cycle count seen.
    pub max_block_cycles: u64,
    /// Accumulated hardware counters.
    pub hw: KernelHw,
}

impl KernelProfile {
    /// Achieved occupancy as a percentage (0 when capacity was never
    /// charged, e.g. analytic CPU spans).
    pub fn occupancy_pct(&self) -> f64 {
        if self.hw.occ_capacity_cycles == 0 {
            0.0
        } else {
            100.0 * self.hw.occ_busy_cycles as f64 / self.hw.occ_capacity_cycles as f64
        }
    }

    /// Warp divergence as a percentage of lane-cycles predicated off.
    pub fn divergence_pct(&self) -> f64 {
        let total = self.hw.active_lane_cycles + self.hw.idle_lane_cycles;
        if total == 0 {
            0.0
        } else {
            100.0 * self.hw.idle_lane_cycles as f64 / total as f64
        }
    }

    /// Achieved global-memory throughput over the kernel's simulated time,
    /// GB/s (0 when no simulated time was charged).
    pub fn mem_gbps(&self) -> f64 {
        if self.sim_us <= 0.0 {
            0.0
        } else {
            self.hw.global_bytes as f64 / (self.sim_us * 1000.0)
        }
    }
}

/// Identity of one profiled kernel: which engine drove it, on which device.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct ProfileKey {
    /// Engine label (`eim`, `gim`, `curipples`, `cpu`, …).
    pub engine: String,
    /// Simulated device ordinal (multi-GPU runs label per device).
    pub device: u32,
    /// Kernel name as recorded on the trace.
    pub kernel: String,
}

type Labels = Vec<(&'static str, String)>;

#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    name: &'static str,
    /// Sorted by label name at construction, so map order == render order.
    labels: Labels,
}

#[derive(Clone, Copy, Debug, Default)]
struct Gauge {
    value: u64,
    peak: u64,
}

#[derive(Clone, Debug)]
struct Histogram {
    buckets: &'static [f64],
    /// Per-bucket (non-cumulative) counts; observations above the last
    /// boundary only land in `count`.
    counts: Vec<u64>,
    sum: f64,
    count: u64,
}

impl Histogram {
    fn new(buckets: &'static [f64]) -> Self {
        Self {
            buckets,
            counts: vec![0; buckets.len()],
            sum: 0.0,
            count: 0,
        }
    }

    fn observe(&mut self, v: f64) {
        // NaN would poison the sum and break the "no NaNs" exposition
        // guarantee; clamp to 0 (cannot happen for in-model observations).
        let v = if v.is_finite() { v } else { 0.0 };
        if let Some(i) = self.buckets.iter().position(|&le| v <= le) {
            self.counts[i] += 1;
        }
        self.sum += v;
        self.count += 1;
    }
}

/// The run phase stamped as a `phase` label on flow counters and histogram
/// observations recorded while it is set (see [`MetricsSink::set_phase`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Phase {
    /// No phase: series carry no `phase` label.
    #[default]
    None,
    /// RRR sampling rounds.
    Sample,
    /// Seed selection.
    Select,
    /// Engine set-up traffic (graph upload) before the first round.
    Transfer,
    /// Fault recovery, checkpoints and resumes.
    Recover,
    /// Streaming edge-update batches.
    StreamUpdate,
}

impl Phase {
    /// The `phase` label value (`""` for [`Phase::None`]).
    pub fn label(self) -> &'static str {
        match self {
            Phase::None => "",
            Phase::Sample => "sample",
            Phase::Select => "select",
            Phase::Transfer => "transfer",
            Phase::Recover => "recover",
            Phase::StreamUpdate => "stream-update",
        }
    }
}

#[derive(Debug, Default)]
struct State {
    counters: BTreeMap<Key, u64>,
    gauges: BTreeMap<Key, Gauge>,
    histograms: BTreeMap<Key, Histogram>,
    kernels: BTreeMap<ProfileKey, KernelProfile>,
    /// Current run phase.
    phase: Phase,
}

impl State {
    fn add(&mut self, name: &'static str, labels: Labels, v: u64) {
        *self.counters.entry(Key { name, labels }).or_insert(0) += v;
    }

    fn raise(&mut self, name: &'static str, labels: Labels, v: u64) {
        let g = self.gauges.entry(Key { name, labels }).or_default();
        g.peak = g.peak.max(v);
        g.value = g.value.max(v);
    }
}

/// The shared instrument store. Cheap to clone (an `Arc`); one registry per
/// run collects every engine/device via [`MetricsSink`] handles.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<State>>,
    /// Optional live snapshot stream. A separate lock so stream I/O never
    /// extends the instrument critical section; lock order is always stream
    /// → state.
    stream: Arc<Mutex<Option<SnapshotStreamWriter>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A recording handle bound to this registry with no engine label and
    /// device 0; refine with [`MetricsSink::with_engine`] /
    /// [`MetricsSink::for_device`].
    pub fn sink(&self) -> MetricsSink {
        MetricsSink {
            registry: Some(self.clone()),
            engine: String::new(),
            device: 0,
        }
    }

    /// Snapshot of every kernel profile, sorted by key.
    pub fn kernel_profiles(&self) -> Vec<(ProfileKey, KernelProfile)> {
        self.lock()
            .kernels
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Sum of the counter `name` over every label set (0 when absent).
    pub fn counter_total(&self, name: &str) -> u64 {
        let st = self.lock();
        st.counters
            .iter()
            .filter(|(k, _)| k.name == name)
            .map(|(_, v)| v)
            .sum()
    }

    /// Largest value of the high-water gauge `name` over every label set
    /// (0 when absent).
    pub fn gauge_peak(&self, name: &str) -> u64 {
        let st = self.lock();
        st.gauges
            .iter()
            .filter(|(k, _)| k.name == name)
            .map(|(_, g)| g.peak.max(g.value))
            .max()
            .unwrap_or(0)
    }

    /// Cumulative snapshot of the registry as a deterministic JSON value —
    /// the reference state the snapshot stream must reconcile to.
    pub fn snapshot_value(&self) -> serde_json::Value {
        let st = self.lock();
        snapshot::cumulative_value(&snapshot::flatten(&st))
    }

    fn lock_stream(&self) -> std::sync::MutexGuard<'_, Option<SnapshotStreamWriter>> {
        self.stream.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Attaches an interval-delta snapshot stream: the header line is
    /// written immediately; delta records follow as
    /// [`tick_snapshot_stream`](Self::tick_snapshot_stream) observes the
    /// simulated clock crossing `interval_us` boundaries.
    pub fn start_snapshot_stream(
        &self,
        out: Box<dyn std::io::Write + Send>,
        interval_us: u64,
        provenance: serde_json::Value,
    ) -> std::io::Result<()> {
        let w = SnapshotStreamWriter::new(out, interval_us, provenance)?;
        *self.lock_stream() = Some(w);
        Ok(())
    }

    /// Offers the simulated clock (µs) to the stream writer; emits one delta
    /// record when an interval boundary has been crossed since the last
    /// emission. No-op without a stream. I/O errors are swallowed here (the
    /// driver cannot act on them mid-run) and resurface on
    /// [`finish_snapshot_stream`](Self::finish_snapshot_stream).
    pub fn tick_snapshot_stream(&self, now_us: f64) {
        let mut stream = self.lock_stream();
        if let Some(w) = stream.as_mut() {
            let st = self.lock();
            let _ = w.tick(&st, now_us);
        }
    }

    /// Writes the closing record (remaining deltas + cumulative FNV digest)
    /// and seals the stream.
    pub fn finish_snapshot_stream(&self, now_us: f64) -> std::io::Result<()> {
        let mut stream = self.lock_stream();
        if let Some(w) = stream.as_mut() {
            let st = self.lock();
            w.finish(&st, now_us)?;
        }
        Ok(())
    }
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn fmt_labels(labels: &Labels) -> String {
    let mut s = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{k}=\"{}\"", escape_label(v));
    }
    s.push('}');
    s
}

/// Kernel-profile-derived counter families, in exposition order.
enum Val {
    U(u64),
    F(f64),
}

type Extract = fn(&KernelProfile) -> Val;

const KERNEL_FAMILIES: &[(&str, &str, Extract)] = &[
    (
        "eim_kernel_launches_total",
        "Simulated kernel launches.",
        |p| Val::U(p.launches),
    ),
    (
        "eim_kernel_blocks_total",
        "Simulated blocks executed.",
        |p| Val::U(p.blocks),
    ),
    (
        "eim_kernel_cycles_total",
        "Simulated cycles across all blocks.",
        |p| Val::U(p.cycles),
    ),
    (
        "eim_kernel_sim_us_total",
        "Simulated time attributed to the kernel, microseconds.",
        |p| Val::F(p.sim_us),
    ),
    (
        "eim_occupancy_busy_warp_cycles_total",
        "Warp-cycles with a warp resident on its SM.",
        |p| Val::U(p.hw.occ_busy_cycles),
    ),
    (
        "eim_occupancy_capacity_warp_cycles_total",
        "Warp-cycles of residency the device spec could sustain.",
        |p| Val::U(p.hw.occ_capacity_cycles),
    ),
    (
        "eim_warp_active_lane_cycles_total",
        "Lane-cycles doing useful work.",
        |p| Val::U(p.hw.active_lane_cycles),
    ),
    (
        "eim_warp_idle_lane_cycles_total",
        "Lane-cycles predicated off (divergence, atomic serialization).",
        |p| Val::U(p.hw.idle_lane_cycles),
    ),
    (
        "eim_global_mem_transactions_total",
        "Coalesced global-memory transactions.",
        |p| Val::U(p.hw.global_transactions),
    ),
    (
        "eim_global_mem_bytes_total",
        "Bytes moved through global memory (128 B per transaction).",
        |p| Val::U(p.hw.global_bytes),
    ),
    (
        "eim_shared_mem_transactions_total",
        "Shared-memory transactions.",
        |p| Val::U(p.hw.shared_transactions),
    ),
    (
        "eim_atomic_operations_total",
        "Atomic operations issued.",
        |p| Val::U(p.hw.atomics),
    ),
    (
        "eim_atomic_retries_total",
        "Serialization rounds lost to atomic conflicts.",
        |p| Val::U(p.hw.atomic_retries),
    ),
    (
        "eim_shared_spill_bytes_total",
        "Bytes spilled past the shared-memory budget.",
        |p| Val::U(p.hw.shared_spill_bytes),
    ),
    (
        "eim_device_mallocs_total",
        "In-kernel dynamic allocations.",
        |p| Val::U(p.hw.mallocs),
    ),
];

fn counter_help(name: &str) -> &'static str {
    match name {
        "eim_transfers_total" => "PCIe transfers issued.",
        "eim_transfer_bytes_total" => "Bytes moved across PCIe.",
        "eim_device_allocs_total" => "Device-memory allocations.",
        "eim_device_frees_total" => "Device-memory frees.",
        "eim_device_alloc_bytes_total" => "Bytes allocated from device memory.",
        "eim_device_free_bytes_total" => "Bytes returned to device memory.",
        "eim_device_alloc_failures_total" => "Device-memory allocation failures (OOM).",
        "eim_faults_injected_total" => "Injected simulator faults.",
        "eim_recovery_actions_total" => "Recovery actions taken by the IMM driver.",
        "eim_recovery_retries_total" => "Faulted rounds retried.",
        "eim_recovery_batch_splits_total" => "Sampling batches split after OOM.",
        "eim_recovery_spill_events_total" => "RRR batches spilled to the host.",
        "eim_recovery_spilled_bytes_total" => "Bytes spilled to the host.",
        "eim_recovery_reloaded_bytes_total" => "Spilled bytes re-streamed to the device.",
        "eim_recovery_degraded_rounds_total" => "Rounds run in degraded mode.",
        "eim_device_failures_total" => "Devices lost to fail-stop faults and evicted.",
        "eim_redistributed_sets_total" => "Pending RRR samples re-sharded onto surviving devices.",
        "eim_straggler_delay_us_total" => "Extra simulated microseconds from straggler windows.",
        "eim_checkpoints_written_total" => "Run checkpoints persisted to disk.",
        "eim_resumes_total" => "Runs reconstructed from a persisted checkpoint.",
        "eim_stream_batches_total" => "Streaming edge-update batches applied.",
        "eim_stream_invalidated_slots_total" => "RRR slots invalidated by edge updates.",
        "eim_stream_fresh_sets_total" => "Fresh RRR sets sampled after invalidation.",
        "eim_stream_changed_heads_total" => "Adjacency heads patched in place by updates.",
        _ => "Simulated counter.",
    }
}

impl MetricsRegistry {
    /// Prometheus text exposition (version 0.0.4). Deterministic: families
    /// and series are emitted in sorted order and every number formats via
    /// Rust's shortest-roundtrip float printing.
    pub fn render_prometheus(&self) -> String {
        let st = self.lock();
        let mut out = String::new();

        for &(name, help, extract) in KERNEL_FAMILIES {
            if st.kernels.is_empty() {
                break;
            }
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            for (k, p) in &st.kernels {
                let labels = fmt_labels(&vec![
                    ("device", k.device.to_string()),
                    ("engine", k.engine.clone()),
                    ("kernel", k.kernel.clone()),
                ]);
                match extract(p) {
                    Val::U(v) => {
                        let _ = writeln!(out, "{name}{labels} {v}");
                    }
                    Val::F(v) => {
                        let _ = writeln!(out, "{name}{labels} {v}");
                    }
                }
            }
        }

        let mut last = "";
        for (k, v) in &st.counters {
            if k.name != last {
                let _ = writeln!(out, "# HELP {} {}", k.name, counter_help(k.name));
                let _ = writeln!(out, "# TYPE {} counter", k.name);
                last = k.name;
            }
            let _ = writeln!(out, "{}{} {v}", k.name, fmt_labels(&k.labels));
        }

        // Derived gauge: current device memory in use. Computed from the
        // alloc/free byte counters rather than stored, because counter adds
        // are commutative under rayon interleavings while a last-write
        // gauge from concurrent in-kernel allocations would not be.
        let in_use: Vec<(Labels, u64)> = st
            .counters
            .iter()
            .filter(|(k, _)| k.name == "eim_device_alloc_bytes_total")
            .map(|(k, &a)| {
                let freed = st
                    .counters
                    .get(&Key {
                        name: "eim_device_free_bytes_total",
                        labels: k.labels.clone(),
                    })
                    .copied()
                    .unwrap_or(0);
                (k.labels.clone(), a.saturating_sub(freed))
            })
            .collect();
        if !in_use.is_empty() {
            let name = "eim_device_mem_in_use_bytes";
            let _ = writeln!(out, "# HELP {name} Device memory currently allocated.");
            let _ = writeln!(out, "# TYPE {name} gauge");
            for (labels, v) in &in_use {
                let _ = writeln!(out, "{name}{} {v}", fmt_labels(labels));
            }
        }
        let mut last = "";
        for (k, g) in &st.gauges {
            if k.name != last {
                let _ = writeln!(out, "# HELP {} High-water gauge.", k.name);
                let _ = writeln!(out, "# TYPE {} gauge", k.name);
                last = k.name;
            }
            let _ = writeln!(
                out,
                "{}{} {}",
                k.name,
                fmt_labels(&k.labels),
                g.peak.max(g.value)
            );
        }

        let mut last = "";
        for (k, h) in &st.histograms {
            if k.name != last {
                let _ = writeln!(
                    out,
                    "# HELP {} Achieved / modelled-peak ratio per transfer.",
                    k.name
                );
                let _ = writeln!(out, "# TYPE {} histogram", k.name);
                last = k.name;
            }
            let base = fmt_labels(&k.labels);
            let mut cum = 0u64;
            for (i, &le) in h.buckets.iter().enumerate() {
                cum += h.counts[i];
                let mut labels = k.labels.clone();
                labels.push(("le", format!("{le}")));
                labels.sort_by(|a, b| a.0.cmp(b.0));
                let _ = writeln!(out, "{}_bucket{} {cum}", k.name, fmt_labels(&labels));
            }
            let mut labels = k.labels.clone();
            labels.push(("le", "+Inf".to_string()));
            labels.sort_by(|a, b| a.0.cmp(b.0));
            let _ = writeln!(out, "{}_bucket{} {}", k.name, fmt_labels(&labels), h.count);
            let _ = writeln!(out, "{}_sum{base} {}", k.name, h.sum);
            let _ = writeln!(out, "{}_count{base} {}", k.name, h.count);
        }

        out
    }

    /// nvprof-style per-kernel table, sorted by simulated time (descending;
    /// key order breaks ties so the table is deterministic).
    pub fn render_profile_table(&self) -> String {
        let mut rows = self.kernel_profiles();
        rows.sort_by(|a, b| {
            b.1.sim_us
                .partial_cmp(&a.1.sim_us)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0.cmp(&b.0))
        });
        let total_us: f64 = rows.iter().map(|(_, p)| p.sim_us).sum();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>7}  {:>12}  {:>8}  {:>8}  {:>7}  {:>7}  {:>9}  {:>10}  {:>8}  {:>3}  {:<9}  Name",
            "Time(%)",
            "Time(us)",
            "Launches",
            "Blocks",
            "Occ(%)",
            "Div(%)",
            "Mem(GB/s)",
            "Atomics",
            "Retries",
            "Dev",
            "Engine"
        );
        for (k, p) in &rows {
            let pct = if total_us > 0.0 {
                100.0 * p.sim_us / total_us
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "{:>7.2}  {:>12.1}  {:>8}  {:>8}  {:>7.2}  {:>7.2}  {:>9.2}  {:>10}  {:>8}  {:>3}  {:<9}  {}",
                pct,
                p.sim_us,
                p.launches,
                p.blocks,
                p.occupancy_pct(),
                p.divergence_pct(),
                p.mem_gbps(),
                p.hw.atomics,
                p.hw.atomic_retries,
                k.device,
                k.engine,
                k.kernel
            );
        }
        out
    }

    /// JSON snapshot for the CLI's `--json` output: per-kernel profiles with
    /// derived percentages plus the raw counter/gauge/histogram series.
    pub fn to_json(&self) -> serde_json::Value {
        use serde_json::{Map, Value};
        let f = Value::from;
        let st = self.lock();
        let mut kernels = Vec::new();
        for (k, p) in &st.kernels {
            let mut m = Map::new();
            m.insert("engine", Value::String(k.engine.clone()));
            m.insert("device", Value::from(k.device));
            m.insert("kernel", Value::String(k.kernel.clone()));
            m.insert("launches", Value::from(p.launches));
            m.insert("blocks", Value::from(p.blocks));
            m.insert("sim_us", f(p.sim_us));
            m.insert("cycles", Value::from(p.cycles));
            m.insert("max_block_cycles", Value::from(p.max_block_cycles));
            m.insert("occupancy_pct", f(p.occupancy_pct()));
            m.insert("divergence_pct", f(p.divergence_pct()));
            m.insert("mem_gbps", f(p.mem_gbps()));
            m.insert("global_transactions", Value::from(p.hw.global_transactions));
            m.insert("global_bytes", Value::from(p.hw.global_bytes));
            m.insert("atomics", Value::from(p.hw.atomics));
            m.insert("atomic_retries", Value::from(p.hw.atomic_retries));
            m.insert("shared_spill_bytes", Value::from(p.hw.shared_spill_bytes));
            m.insert("mallocs", Value::from(p.hw.mallocs));
            kernels.push(Value::Object(m));
        }
        let mut counters = Map::new();
        for (k, v) in &st.counters {
            counters.insert(
                format!("{}{}", k.name, fmt_labels(&k.labels)),
                Value::from(*v),
            );
        }
        let mut gauges = Map::new();
        for (k, g) in &st.gauges {
            gauges.insert(
                format!("{}{}", k.name, fmt_labels(&k.labels)),
                Value::from(g.peak.max(g.value)),
            );
        }
        let mut histograms = Map::new();
        for (k, h) in &st.histograms {
            let mut hm = Map::new();
            hm.insert("sum", f(h.sum));
            hm.insert("count", Value::from(h.count));
            let mut buckets = Map::new();
            let mut cum = 0u64;
            for (i, &le) in h.buckets.iter().enumerate() {
                cum += h.counts[i];
                buckets.insert(format!("{le}"), Value::from(cum));
            }
            buckets.insert("+Inf", Value::from(h.count));
            hm.insert("buckets", Value::Object(buckets));
            histograms.insert(
                format!("{}{}", k.name, fmt_labels(&k.labels)),
                Value::Object(hm),
            );
        }
        let mut root = Map::new();
        root.insert("kernels", Value::Array(kernels));
        root.insert("counters", Value::Object(counters));
        root.insert("gauges", Value::Object(gauges));
        root.insert("histograms", Value::Object(histograms));
        Value::Object(root)
    }
}

/// A recording handle: a registry reference plus the `engine` / `device`
/// labels every series from this source carries. Disabled sinks (no
/// registry) make every record a cheap no-op, mirroring
/// `RunTrace::disabled`.
#[derive(Clone, Debug, Default)]
pub struct MetricsSink {
    registry: Option<MetricsRegistry>,
    engine: String,
    device: u32,
}

impl MetricsSink {
    /// A sink that records nothing.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Whether records reach a registry.
    pub fn is_enabled(&self) -> bool {
        self.registry.is_some()
    }

    /// The backing registry, when enabled.
    pub fn registry(&self) -> Option<&MetricsRegistry> {
        self.registry.as_ref()
    }

    /// Sets the engine label carried by every series from this sink.
    pub fn with_engine(mut self, engine: &str) -> Self {
        self.engine = engine.to_string();
        self
    }

    /// A sibling sink labelled with `device` (multi-GPU: one per device).
    pub fn for_device(&self, device: u32) -> Self {
        Self {
            registry: self.registry.clone(),
            engine: self.engine.clone(),
            device,
        }
    }

    fn labels(&self, extra: &[(&'static str, &str)]) -> Labels {
        let mut l: Labels = extra.iter().map(|&(k, v)| (k, v.to_string())).collect();
        l.push(("device", self.device.to_string()));
        l.push(("engine", self.engine.clone()));
        l.sort_by(|a, b| a.0.cmp(b.0));
        l
    }

    fn labels_phased(&self, extra: &[(&'static str, &str)], phase: Phase) -> Labels {
        let mut l = self.labels(extra);
        if phase != Phase::None {
            l.push(("phase", phase.label().to_string()));
            l.sort_by(|a, b| a.0.cmp(b.0));
        }
        l
    }

    /// Sets the registry's run phase; subsequent flow counters and histogram
    /// observations carry it as a `phase` label. Kernel profiles and the
    /// memory stock counters (alloc/free/peak) deliberately stay phase-free:
    /// profiles must keep aggregating per (device, kernel) to reconcile
    /// against trace spans, and the derived in-use gauge must see every
    /// alloc matched with its free under one label set. No-op when disabled.
    pub fn set_phase(&self, phase: Phase) {
        if let Some(reg) = &self.registry {
            reg.lock().phase = phase;
        }
    }

    /// Offers the simulated clock to the registry's snapshot stream (see
    /// [`MetricsRegistry::tick_snapshot_stream`]); no-op when disabled.
    pub fn tick_stream(&self, now_us: f64) {
        if let Some(reg) = &self.registry {
            reg.tick_snapshot_stream(now_us);
        }
    }

    /// Adds `v` to the counter `name{extra, engine, device}` (plus the
    /// current `phase` label when one is set).
    pub fn counter_add(&self, name: &'static str, extra: &[(&'static str, &str)], v: u64) {
        let Some(reg) = &self.registry else { return };
        let mut st = reg.lock();
        let labels = self.labels_phased(extra, st.phase);
        st.add(name, labels, v);
    }

    /// Raises the high-water gauge `name{engine, device}` to at least `v`.
    pub fn gauge_max(&self, name: &'static str, v: u64) {
        let Some(reg) = &self.registry else { return };
        reg.lock().raise(name, self.labels(&[]), v);
    }

    /// Folds one kernel launch into the per-kernel profile.
    pub fn record_launch(
        &self,
        kernel: &str,
        blocks: u64,
        sim_us: f64,
        cycles: u64,
        max_block_cycles: u64,
        hw: &KernelHw,
    ) {
        let Some(reg) = &self.registry else { return };
        let mut st = reg.lock();
        let p = st
            .kernels
            .entry(ProfileKey {
                engine: self.engine.clone(),
                device: self.device,
                kernel: kernel.to_string(),
            })
            .or_default();
        p.launches += 1;
        p.blocks += blocks;
        p.sim_us += sim_us;
        p.cycles += cycles;
        p.max_block_cycles = p.max_block_cycles.max(max_block_cycles);
        p.hw.merge(hw);
    }

    /// Records one PCIe transfer: count + byte counters per direction/mode
    /// and a bandwidth-utilisation observation (achieved vs modelled peak).
    pub fn observe_transfer(
        &self,
        direction: &'static str,
        mode: &'static str,
        bytes: u64,
        utilization: f64,
    ) {
        let Some(reg) = &self.registry else { return };
        let extra = [("dir", direction), ("mode", mode)];
        let mut st = reg.lock();
        let labels = self.labels_phased(&extra, st.phase);
        st.add("eim_transfers_total", labels.clone(), 1);
        st.add("eim_transfer_bytes_total", labels.clone(), bytes);
        st.histograms
            .entry(Key {
                name: "eim_transfer_bandwidth_utilization",
                labels,
            })
            .or_insert_with(|| Histogram::new(UTILIZATION_BUCKETS))
            .observe(utilization);
    }

    /// Records a device-memory allocation of `bytes` with `in_use` bytes now
    /// held (feeds the high-water gauge; in-use is derived from the byte
    /// counters at render time so concurrent in-kernel allocs stay
    /// deterministic).
    pub fn record_alloc(&self, bytes: u64, in_use: u64) {
        let Some(reg) = &self.registry else { return };
        let labels = self.labels(&[]);
        let mut st = reg.lock();
        st.add("eim_device_allocs_total", labels.clone(), 1);
        st.add("eim_device_alloc_bytes_total", labels.clone(), bytes);
        st.raise("eim_device_mem_peak_bytes", labels, in_use);
    }

    /// Records a device-memory free of `bytes`.
    pub fn record_free(&self, bytes: u64) {
        let Some(reg) = &self.registry else { return };
        let labels = self.labels(&[]);
        let mut st = reg.lock();
        st.add("eim_device_frees_total", labels.clone(), 1);
        st.add("eim_device_free_bytes_total", labels, bytes);
    }

    /// Records a failed device-memory allocation.
    pub fn record_alloc_failure(&self) {
        self.counter_add("eim_device_alloc_failures_total", &[], 1);
    }

    /// Records an injected fault of `kind`.
    pub fn record_fault(&self, kind: &str) {
        self.counter_add("eim_faults_injected_total", &[("kind", kind)], 1);
    }

    /// Records a recovery action (retry / split / spill / reload / …).
    pub fn record_recovery(&self, action: &str) {
        self.counter_add("eim_recovery_actions_total", &[("action", action)], 1);
    }

    /// Re-exports a finished run's `RecoveryReport` so fault-injected runs
    /// show up in Prometheus output, not only in `--json`.
    pub fn record_recovery_report(
        &self,
        retries: u64,
        batch_splits: u64,
        spill_events: u64,
        spilled_bytes: u64,
        reloaded_bytes: u64,
        degraded_rounds: u64,
    ) {
        self.counter_add("eim_recovery_retries_total", &[], retries);
        self.counter_add("eim_recovery_batch_splits_total", &[], batch_splits);
        self.counter_add("eim_recovery_spill_events_total", &[], spill_events);
        self.counter_add("eim_recovery_spilled_bytes_total", &[], spilled_bytes);
        self.counter_add("eim_recovery_reloaded_bytes_total", &[], reloaded_bytes);
        self.counter_add("eim_recovery_degraded_rounds_total", &[], degraded_rounds);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sink() -> (MetricsRegistry, MetricsSink) {
        let reg = MetricsRegistry::new();
        let s = reg.sink().with_engine("eim");
        (reg, s)
    }

    #[test]
    fn counters_accumulate_per_label_set() {
        let (reg, s) = sink();
        s.counter_add("eim_transfers_total", &[("dir", "h2d")], 2);
        s.counter_add("eim_transfers_total", &[("dir", "h2d")], 3);
        s.counter_add("eim_transfers_total", &[("dir", "d2h")], 1);
        let text = reg.render_prometheus();
        assert!(
            text.contains("eim_transfers_total{device=\"0\",dir=\"h2d\",engine=\"eim\"} 5"),
            "{text}"
        );
        assert!(text.contains("eim_transfers_total{device=\"0\",dir=\"d2h\",engine=\"eim\"} 1"));
    }

    #[test]
    fn kernel_profile_derives_occupancy_and_divergence() {
        let (reg, s) = sink();
        let hw = KernelHw {
            occ_busy_cycles: 25,
            occ_capacity_cycles: 100,
            active_lane_cycles: 75,
            idle_lane_cycles: 25,
            global_transactions: 4,
            global_bytes: 512,
            ..KernelHw::default()
        };
        s.record_launch("k", 8, 10.0, 100, 40, &hw);
        s.record_launch("k", 8, 10.0, 100, 60, &hw);
        let profiles = reg.kernel_profiles();
        assert_eq!(profiles.len(), 1);
        let (key, p) = &profiles[0];
        assert_eq!(key.kernel, "k");
        assert_eq!(p.launches, 2);
        assert_eq!(p.blocks, 16);
        assert_eq!(p.max_block_cycles, 60);
        assert!((p.occupancy_pct() - 25.0).abs() < 1e-12);
        assert!((p.divergence_pct() - 25.0).abs() < 1e-12);
        assert!((p.mem_gbps() - 1024.0 / 20_000.0).abs() < 1e-12);
        let table = reg.render_profile_table();
        assert!(table.contains("k"), "{table}");
        assert!(table.contains("25.00"), "{table}");
    }

    #[test]
    fn histogram_buckets_render_cumulative_and_monotone() {
        let (reg, s) = sink();
        for u in [0.03, 0.5, 0.85, 0.97, 1.0, 2.0] {
            s.observe_transfer("h2d", "sync", 100, u);
        }
        let text = reg.render_prometheus();
        let mut prev = 0u64;
        let mut buckets = 0;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("eim_transfer_bandwidth_utilization_bucket") {
                let v: u64 = rest.rsplit(' ').next().unwrap().parse().unwrap();
                assert!(v >= prev, "buckets must be cumulative: {text}");
                prev = v;
                buckets += 1;
            }
        }
        assert_eq!(buckets, UTILIZATION_BUCKETS.len() + 1);
        assert!(text.contains("le=\"+Inf\",mode=\"sync\"} 6"), "{text}");
        assert!(text.contains("eim_transfer_bandwidth_utilization_count{device=\"0\",dir=\"h2d\",engine=\"eim\",mode=\"sync\"} 6"));
        assert!(!text.contains("NaN"), "{text}");
    }

    #[test]
    fn in_use_gauge_is_derived_from_alloc_minus_free() {
        let (reg, s) = sink();
        s.record_alloc(1000, 1000);
        s.record_alloc(500, 1500);
        s.record_free(600);
        let text = reg.render_prometheus();
        assert!(
            text.contains("eim_device_mem_in_use_bytes{device=\"0\",engine=\"eim\"} 900"),
            "{text}"
        );
        assert!(
            text.contains("eim_device_mem_peak_bytes{device=\"0\",engine=\"eim\"} 1500"),
            "{text}"
        );
    }

    #[test]
    fn renders_are_deterministic_and_disabled_sinks_are_noops() {
        let (reg, s) = sink();
        s.record_launch("a", 1, 1.5, 10, 10, &KernelHw::default());
        s.record_fault("kernel");
        s.record_recovery_report(1, 2, 3, 4, 5, 6);
        assert_eq!(reg.render_prometheus(), reg.render_prometheus());
        assert_eq!(
            serde_json::to_string(&reg.to_json()).unwrap(),
            serde_json::to_string(&reg.to_json()).unwrap()
        );
        let off = MetricsSink::disabled();
        off.record_launch("a", 1, 1.0, 1, 1, &KernelHw::default());
        off.record_alloc(1, 1);
        assert!(!off.is_enabled());
    }

    #[test]
    fn device_label_flows_from_for_device() {
        let (reg, s) = sink();
        let d1 = s.for_device(1);
        d1.record_launch("k", 1, 1.0, 1, 1, &KernelHw::default());
        let profiles = reg.kernel_profiles();
        assert_eq!(profiles[0].0.device, 1);
        assert_eq!(profiles[0].0.engine, "eim");
    }
}
