//! Run telemetry for the eIM workspace.
//!
//! One [`RunTrace`] recorder is shared (cheaply, via `Arc`) between the
//! simulated device, its memory tracker, the PCIe transfer model, and the
//! IMM driver. Everything that happens on the simulated timeline lands in a
//! single event stream:
//!
//! - **phase spans** — the IMM driver's estimation / sampling / selection
//!   phases,
//! - **kernel events** — every simulated kernel launch with its block count,
//!   simulated cycle totals, and per-SM makespan,
//! - **memory events** — device allocations and frees with the running
//!   in-use counter (rendered as a Perfetto counter track),
//! - **transfer events** — PCIe host↔device copies with byte counts.
//!
//! Each typed `record_*` call is the one instrumentation point for its
//! event: it feeds both the Chrome-trace buffer and the attached
//! [`MetricsSink`]. The stream exports as Chrome trace-event JSON
//! ([`RunTrace::chrome_json`]), loadable in Perfetto / `chrome://tracing`;
//! its [`TraceSummary`] is read back from the metrics registry the trace
//! feeds (an enabled trace without a user sink gets a private registry).
//!
//! A disabled recorder ([`RunTrace::disabled`]) with no sink holds no
//! buffer and every `record_*` call is a branch on a `None` — no
//! allocation, no locking — so the hot sampling loop pays nothing when
//! tracing is off.

#![warn(missing_docs)]

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use serde_json::{json, Value};

pub use eim_metrics::{
    provenance, write_metrics_file, KernelHw, KernelProfile, MetricsRegistry, MetricsSink, Phase,
    ProfileKey, SnapshotAccumulator, SnapshotStreamWriter, SNAPSHOT_SCHEMA, UTILIZATION_BUCKETS,
};

/// Simulated-time clock, in microseconds.
///
/// The simulated device owns one of these and shares it with its memory
/// tracker so that every recorded event carries a timestamp on the *device*
/// timeline (not wall time). Stored as `f64` bits in an atomic so kernel
/// blocks running on the thread pool can read it without locking.
#[derive(Debug)]
pub struct SimClock {
    bits: AtomicU64,
}

impl SimClock {
    /// A clock starting at 0 µs.
    pub fn new() -> Self {
        Self {
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// The current simulated time in microseconds.
    pub fn now_us(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    /// Advances the clock by `us` and returns the time *before* the advance
    /// (the natural start timestamp for the event that consumed the time).
    pub fn advance(&self, us: f64) -> f64 {
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let now = f64::from_bits(cur);
            let next = (now + us).to_bits();
            match self
                .bits
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return now,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Advances the clock to at least `target_us` — a no-op when the clock
    /// is already past it — and returns the time *before* the advance. This
    /// is the wait primitive of the copy-stream model: a device blocking on
    /// an async copy jumps forward to the copy's completion time, but never
    /// travels backwards.
    pub fn advance_to(&self, target_us: f64) -> f64 {
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let now = f64::from_bits(cur);
            if target_us <= now {
                return now;
            }
            match self.bits.compare_exchange_weak(
                cur,
                target_us.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return now,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Resets the clock to 0 µs (between independent runs on one device).
    pub fn reset(&self) {
        self.bits.store(0f64.to_bits(), Ordering::Relaxed);
    }

    /// Pins the clock to an absolute time, forwards *or backwards*. The
    /// checkpoint/restore path uses this to replace replay time with the
    /// persisted device time; live engines should stick to
    /// [`SimClock::advance`] / [`SimClock::advance_to`].
    pub fn set_us(&self, us: f64) {
        self.bits.store(us.to_bits(), Ordering::Relaxed);
    }
}

impl Default for SimClock {
    fn default() -> Self {
        Self::new()
    }
}

/// Event category: which subsystem emitted the event. Becomes the Chrome
/// `cat` field and selects the rendering lane; variants are declared in
/// lane order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventCat {
    /// IMM driver phase (estimation / sampling / selection).
    Phase,
    /// Simulated kernel launch.
    Kernel,
    /// Device-memory allocation or free.
    Memory,
    /// PCIe host↔device transfer.
    Transfer,
    /// Injected fault or recovery action (retry, batch split, host spill).
    Fault,
    /// Async copy enqueued on a device copy stream (the simulated DMA
    /// engine). Shares the `"transfer"` Chrome category with
    /// [`EventCat::Transfer`] — both are PCIe traffic — but renders on its
    /// own lane so overlap with kernel spans is visible.
    CopyStream,
}

/// Chrome `cat` string and lane name of each [`EventCat`], indexed by its
/// lane (the synthetic thread id its events render on).
const LANES: [(&str, &str); NUM_CATS] = [
    ("phase", "imm phases"),
    ("kernel", "kernel launches"),
    ("memory", "device memory"),
    ("transfer", "pcie transfers"),
    ("fault", "faults & recovery"),
    ("transfer", "copy stream"),
];

impl EventCat {
    /// The Chrome trace `cat` string.
    pub fn as_str(self) -> &'static str {
        LANES[self as usize].0
    }

    /// The synthetic thread id (lane) events of this category render on.
    fn lane(self) -> u64 {
        self as u64
    }
}

/// How an event occupies the timeline.
#[derive(Clone, Debug, PartialEq)]
pub enum EventKind {
    /// A duration event (Chrome `ph: "X"`).
    Span {
        /// Duration in simulated microseconds.
        dur_us: f64,
    },
    /// A point-in-time event (Chrome `ph: "i"`).
    Instant,
    /// A sampled counter value (Chrome `ph: "C"`), e.g. device bytes in use.
    Counter {
        /// The counter's value at this timestamp.
        value: f64,
    },
}

/// One argument attached to an event (lands in Chrome's `args` object).
#[derive(Clone, Debug, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer argument.
    U64(u64),
    /// Floating-point argument.
    F64(f64),
}

impl From<&ArgValue> for Value {
    fn from(v: &ArgValue) -> Value {
        match v {
            ArgValue::U64(x) => Value::from(*x),
            ArgValue::F64(x) => Value::from(*x),
        }
    }
}

/// A recovery action taken by the IMM driver or an engine. Each variant
/// carries the detail arguments of its trace event and names the metrics
/// counter it feeds besides `eim_recovery_actions_total`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Recovery {
    /// A faulted sampling round retried after a simulated backoff.
    Retry {
        /// 1-based attempt number within the round.
        attempt: u64,
        /// Fault-plan ordinal of the fault that aborted the round.
        fault_ordinal: u64,
        /// Simulated backoff charged before the retry, µs.
        backoff_us: f64,
    },
    /// A sampling batch halved after an OOM.
    BatchSplit {
        /// The new batch size.
        batch: u64,
    },
    /// A fail-stopped device evicted from the pool (recorded on its own
    /// process group).
    EvictDevice {
        /// Pool ordinal of the lost device.
        ordinal: u64,
        /// Fault-plan ordinal at which the device died.
        dead_at_event: u64,
    },
    /// The driver's side of an eviction: the round's pending samples
    /// re-sharded onto the survivors. Shares the `recover:evict_device`
    /// trace name with [`Recovery::EvictDevice`].
    Redistribute {
        /// Devices evicted by this eviction.
        devices_evicted: u64,
        /// Devices left in the pool.
        survivors: u64,
        /// Pending samples moved onto the survivors.
        redistributed_sets: u64,
    },
    /// A run checkpoint persisted to disk.
    Checkpoint {
        /// Logical sets covered by the checkpoint.
        logical_sets: u64,
        /// Checkpoints written by this process so far.
        written: u64,
    },
    /// A run reconstructed from a persisted checkpoint.
    Resume {
        /// Logical sets replayed from the checkpoint.
        logical_sets: u64,
    },
    /// RRR sets evicted to host memory under memory pressure.
    Spill {
        /// Sets evicted.
        sets: u64,
        /// Device bytes they occupied.
        bytes: u64,
    },
    /// Spilled sets re-streamed to the device for selection.
    Reload {
        /// Bytes re-streamed.
        bytes: u64,
    },
}

impl Recovery {
    /// The trace event name (`recover:<action>`), also the `action` label
    /// of `eim_recovery_actions_total`.
    fn name(&self) -> &'static str {
        match self {
            Recovery::Retry { .. } => "recover:retry",
            Recovery::BatchSplit { .. } => "recover:batch_split",
            Recovery::EvictDevice { .. } | Recovery::Redistribute { .. } => "recover:evict_device",
            Recovery::Checkpoint { .. } => "recover:checkpoint",
            Recovery::Resume { .. } => "recover:resume",
            Recovery::Spill { .. } => "recover:spill",
            Recovery::Reload { .. } => "recover:reload",
        }
    }

    /// The action's own counter and increment, if it has one.
    fn counter(&self) -> Option<(&'static str, u64)> {
        match *self {
            Recovery::EvictDevice { .. } => Some(("eim_device_failures_total", 1)),
            Recovery::Redistribute {
                redistributed_sets, ..
            } => Some(("eim_redistributed_sets_total", redistributed_sets)),
            Recovery::Checkpoint { .. } => Some(("eim_checkpoints_written_total", 1)),
            Recovery::Resume { .. } => Some(("eim_resumes_total", 1)),
            _ => None,
        }
    }

    /// The trace event's detail arguments.
    fn args(&self) -> Vec<(&'static str, ArgValue)> {
        use ArgValue::{F64, U64};
        match *self {
            Recovery::Retry {
                attempt,
                fault_ordinal,
                backoff_us,
            } => vec![
                ("attempt", U64(attempt)),
                ("fault_ordinal", U64(fault_ordinal)),
                ("backoff_us", F64(backoff_us)),
            ],
            Recovery::BatchSplit { batch } => vec![("batch", U64(batch))],
            Recovery::EvictDevice {
                ordinal,
                dead_at_event,
            } => vec![
                ("ordinal", U64(ordinal)),
                ("dead_at_event", U64(dead_at_event)),
            ],
            Recovery::Redistribute {
                devices_evicted,
                survivors,
                redistributed_sets,
            } => vec![
                ("devices_evicted", U64(devices_evicted)),
                ("survivors", U64(survivors)),
                ("redistributed_sets", U64(redistributed_sets)),
            ],
            Recovery::Checkpoint {
                logical_sets,
                written,
            } => vec![
                ("logical_sets", U64(logical_sets)),
                ("written", U64(written)),
            ],
            Recovery::Resume { logical_sets } => vec![("logical_sets", U64(logical_sets))],
            Recovery::Spill { sets, bytes } => vec![("sets", U64(sets)), ("bytes", U64(bytes))],
            Recovery::Reload { bytes } => vec![("bytes", U64(bytes))],
        }
    }
}

/// One recorded telemetry event on the simulated timeline.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Event label (kernel name, phase name, transfer label, …).
    pub name: String,
    /// Emitting subsystem.
    pub cat: EventCat,
    /// Start timestamp in simulated microseconds.
    pub ts_us: f64,
    /// Span / instant / counter.
    pub kind: EventKind,
    /// Perfetto process group: 0 for single-device runs, the device ordinal
    /// for multi-GPU runs (see [`RunTrace::for_device`]).
    pub pid: u64,
    /// Extra key–value detail.
    pub args: Vec<(&'static str, ArgValue)>,
}

/// Number of [`EventCat`] variants (per-category cap bookkeeping).
const NUM_CATS: usize = 6;

#[derive(Debug)]
struct Inner {
    events: Mutex<Vec<TraceEvent>>,
    /// Every phase span `(name, µs)` in completion order, kept apart from
    /// the capped buffer so the summary lists all of them.
    phase_us: Mutex<Vec<(String, f64)>>,
    /// Max retained events *per category*; `u64::MAX` when uncapped.
    event_cap: u64,
    /// Retained-event count per category (indexed by [`EventCat::lane`]).
    cat_counts: [AtomicU64; NUM_CATS],
    /// Events discarded per category once its cap filled.
    cat_dropped: [AtomicU64; NUM_CATS],
}

/// Shared run-telemetry recorder.
///
/// Clones share one buffer. A recorder is either *enabled* (holds an event
/// buffer) or *disabled* (a `None`; every record call returns immediately
/// without touching memory).
///
/// Each handle carries a `pid` tag — the Perfetto process group its events
/// land in. [`RunTrace::for_device`] derives a handle for another simulated
/// device: same shared buffer, caps, and registry, different process group,
/// so a multi-GPU run exports as one trace file with one timeline per GPU.
#[derive(Clone, Debug, Default)]
pub struct RunTrace {
    inner: Option<Arc<Inner>>,
    pid: u64,
    /// Metrics instrument sink; records run *before* the enabled/disabled
    /// check on `inner`, so `RunTrace::disabled().with_metrics(..)` supports
    /// metrics-only runs with no event buffering, and capped recorders keep
    /// exact metrics (and summaries) past their caps.
    metrics: MetricsSink,
}

impl RunTrace {
    /// A recorder that drops everything. Zero overhead beyond one branch
    /// per record call.
    pub fn disabled() -> Self {
        Self {
            inner: None,
            pid: 0,
            metrics: MetricsSink::disabled(),
        }
    }

    /// A live recorder with an unbounded event buffer.
    pub fn enabled() -> Self {
        Self::enabled_with_event_cap(usize::MAX)
    }

    /// A live recorder that retains at most `cap` events *per category*
    /// (phase / kernel / memory / transfer / fault). Beyond the cap, events
    /// in that category are discarded — the summary stays exact (it is read
    /// from the metrics registry, which sees every launch, byte, and fault)
    /// and the discards are reported as [`TraceSummary::dropped_events`].
    /// Bounds trace memory and file size on long runs, where the kernel lane
    /// alone can reach millions of events.
    pub fn enabled_with_event_cap(cap: usize) -> Self {
        Self {
            inner: Some(Arc::new(Inner {
                events: Mutex::default(),
                phase_us: Mutex::default(),
                event_cap: cap as u64,
                cat_counts: Default::default(),
                cat_dropped: Default::default(),
            })),
            pid: 0,
            metrics: MetricsRegistry::new().sink(),
        }
    }

    /// A handle recording into the *same* shared buffer (and the same
    /// per-category caps and summary counters) but tagging every event with
    /// Perfetto process group `pid`. Hand one to each simulated device of a
    /// multi-GPU engine so the export shows one process group per GPU; the
    /// attached metrics sink is re-labelled with the same device ordinal.
    pub fn for_device(&self, pid: u64) -> Self {
        Self {
            inner: self.inner.clone(),
            pid,
            metrics: self.metrics.for_device(pid as u32),
        }
    }

    /// Attaches a metrics sink: every kernel launch, memory event, transfer,
    /// fault, and recovery action recorded through this trace also updates
    /// the sink's registry, which replaces an enabled recorder's private one
    /// as the source of its [`TraceSummary`]. Works on disabled recorders
    /// too (metrics without event buffering).
    pub fn with_metrics(mut self, metrics: MetricsSink) -> Self {
        self.metrics = metrics;
        self
    }

    /// The attached metrics sink (disabled by default).
    pub fn metrics(&self) -> &MetricsSink {
        &self.metrics
    }

    /// The Perfetto process group this handle tags events with.
    pub fn pid(&self) -> u64 {
        self.pid
    }

    /// Whether events are being collected.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Buffers the event `make` builds — only called when the recorder is
    /// enabled — unless its category's cap is full.
    fn push(&self, make: impl FnOnce() -> TraceEvent) {
        if let Some(inner) = &self.inner {
            let ev = make();
            let lane = ev.cat.lane() as usize;
            if inner.event_cap != u64::MAX {
                // Claim a slot under the category's cap; on overflow, undo
                // and count the drop instead of buffering.
                let claimed = inner.cat_counts[lane].fetch_add(1, Ordering::Relaxed);
                if claimed >= inner.event_cap {
                    inner.cat_counts[lane].fetch_sub(1, Ordering::Relaxed);
                    inner.cat_dropped[lane].fetch_add(1, Ordering::Relaxed);
                    return;
                }
            }
            inner.events.lock().expect("trace buffer poisoned").push(ev);
        }
    }

    /// Records one IMM driver phase as a span.
    pub fn record_phase(&self, name: &str, ts_us: f64, dur_us: f64) {
        let Some(inner) = &self.inner else { return };
        inner
            .phase_us
            .lock()
            .expect("trace buffer poisoned")
            .push((name.to_string(), dur_us));
        self.push(|| TraceEvent {
            name: name.to_string(),
            cat: EventCat::Phase,
            ts_us,
            pid: self.pid,
            kind: EventKind::Span { dur_us },
            args: Vec::new(),
        });
    }

    /// Records one simulated kernel launch as a span, with its grid size and
    /// cycle accounting (`total_cycles` across all blocks, `max_block_cycles`
    /// for the most expensive block — the load-imbalance indicator). The
    /// hardware counters (occupancy, divergence, memory transactions,
    /// atomics, …) flow into the metrics sink only; span sums and metric
    /// totals reconcile exactly.
    #[allow(clippy::too_many_arguments)]
    pub fn record_kernel(
        &self,
        name: &str,
        ts_us: f64,
        dur_us: f64,
        num_blocks: usize,
        total_cycles: u64,
        max_block_cycles: u64,
        hw: &KernelHw,
    ) {
        self.metrics.record_launch(
            name,
            num_blocks as u64,
            dur_us,
            total_cycles,
            max_block_cycles,
            hw,
        );
        self.push(|| TraceEvent {
            name: name.to_string(),
            cat: EventCat::Kernel,
            ts_us,
            pid: self.pid,
            kind: EventKind::Span { dur_us },
            args: vec![
                ("blocks", ArgValue::U64(num_blocks as u64)),
                ("total_cycles", ArgValue::U64(total_cycles)),
                ("max_block_cycles", ArgValue::U64(max_block_cycles)),
            ],
        });
    }

    /// Records a device allocation: `bytes` reserved, `in_use` the total
    /// after the allocation. Emits a counter sample for the memory track.
    pub fn record_alloc(&self, ts_us: f64, bytes: usize, in_use: usize) {
        self.metrics.record_alloc(bytes as u64, in_use as u64);
        self.push(|| TraceEvent {
            name: "device_mem_in_use".to_string(),
            cat: EventCat::Memory,
            ts_us,
            pid: self.pid,
            kind: EventKind::Counter {
                value: in_use as f64,
            },
            args: vec![("alloc_bytes", ArgValue::U64(bytes as u64))],
        });
    }

    /// Records a device free: `bytes` released, `in_use` the total after.
    pub fn record_free(&self, ts_us: f64, bytes: usize, in_use: usize) {
        self.metrics.record_free(bytes as u64);
        self.push(|| TraceEvent {
            name: "device_mem_in_use".to_string(),
            cat: EventCat::Memory,
            ts_us,
            pid: self.pid,
            kind: EventKind::Counter {
                value: in_use as f64,
            },
            args: vec![("free_bytes", ArgValue::U64(bytes as u64))],
        });
    }

    /// Records a failed device allocation (the request that did not fit).
    pub fn record_alloc_failure(&self, ts_us: f64, requested: usize, in_use: usize) {
        self.metrics.record_alloc_failure();
        self.push(|| TraceEvent {
            name: "alloc_failed".to_string(),
            cat: EventCat::Memory,
            ts_us,
            pid: self.pid,
            kind: EventKind::Instant,
            args: vec![
                ("requested", ArgValue::U64(requested as u64)),
                ("in_use", ArgValue::U64(in_use as u64)),
            ],
        });
    }

    /// Records one PCIe copy of `bytes` in direction `dir` (`"h2d"` /
    /// `"d2h"`) as a span, plus its count, bytes and bandwidth
    /// `utilization` (achieved over modelled peak) in the metrics sink. The
    /// `mode` picks the lane: `"sync"` copies render as `pcie:<dir>` on the
    /// PCIe lane; `"stream"` copies, enqueued on a device copy stream,
    /// render as `stream:<dir>` on the copy-stream lane, with `ts_us` the
    /// stream-scheduled start (which can lie *ahead* of the device clock —
    /// that is the overlap). The summary reports all PCIe traffic together.
    pub fn record_transfer(
        &self,
        dir: &'static str,
        mode: &'static str,
        ts_us: f64,
        dur_us: f64,
        bytes: usize,
        utilization: f64,
    ) {
        self.metrics
            .observe_transfer(dir, mode, bytes as u64, utilization);
        let (cat, lane) = if mode == "stream" {
            (EventCat::CopyStream, "stream")
        } else {
            (EventCat::Transfer, "pcie")
        };
        self.push(|| TraceEvent {
            name: format!("{lane}:{dir}"),
            cat,
            ts_us,
            pid: self.pid,
            kind: EventKind::Span { dur_us },
            args: vec![("bytes", ArgValue::U64(bytes as u64))],
        });
    }

    /// Records an injected simulator fault (`name` like `"fault:kernel_launch"`)
    /// as an instant on the fault lane, keyed by its deterministic event
    /// ordinal in the fault plan.
    pub fn record_fault(&self, name: &str, ts_us: f64, ordinal: u64) {
        self.metrics.record_fault(name);
        self.push(|| TraceEvent {
            name: name.to_string(),
            cat: EventCat::Fault,
            ts_us,
            pid: self.pid,
            kind: EventKind::Instant,
            args: vec![("ordinal", ArgValue::U64(ordinal))],
        });
    }

    /// Records a recovery action as an instant on the fault lane, with its
    /// detail arguments, and counts it in the metrics sink (under
    /// `eim_recovery_actions_total` and the action's own counter).
    pub fn record_recovery(&self, action: Recovery, ts_us: f64) {
        self.metrics.record_recovery(action.name());
        if let Some((counter, v)) = action.counter() {
            self.metrics.counter_add(counter, &[], v);
        }
        self.push(|| TraceEvent {
            name: action.name().to_string(),
            cat: EventCat::Fault,
            ts_us,
            pid: self.pid,
            kind: EventKind::Instant,
            args: action.args(),
        });
    }

    /// A snapshot of every event recorded so far, in recording order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.inner
            .as_ref()
            .map(|i| i.events.lock().expect("trace buffer poisoned").clone())
            .unwrap_or_default()
    }

    /// The run's summary: totals read from the registry this trace feeds,
    /// plus the phase spans and the cap's drop count. All zero for a
    /// disabled recorder.
    pub fn summary(&self) -> TraceSummary {
        let (Some(inner), Some(reg)) = (&self.inner, self.metrics.registry()) else {
            return TraceSummary::default();
        };
        let kernels = reg.kernel_profiles();
        TraceSummary {
            kernel_launches: kernels.iter().map(|(_, p)| p.launches).sum(),
            kernel_cycles: kernels.iter().map(|(_, p)| p.cycles).sum(),
            alloc_events: reg.counter_total("eim_device_allocs_total"),
            free_events: reg.counter_total("eim_device_frees_total"),
            peak_bytes: reg.gauge_peak("eim_device_mem_peak_bytes"),
            transfer_events: reg.counter_total("eim_transfers_total"),
            transfer_bytes: reg.counter_total("eim_transfer_bytes_total"),
            fault_events: reg.counter_total("eim_faults_injected_total"),
            recovery_events: reg.counter_total("eim_recovery_actions_total"),
            dropped_events: inner
                .cat_dropped
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .sum(),
            phase_us: inner
                .phase_us
                .lock()
                .expect("trace buffer poisoned")
                .clone(),
        }
    }

    /// Serializes the stream as a Chrome trace-event JSON object (the
    /// `{"traceEvents": [...]}` dictionary form), loadable in Perfetto or
    /// `chrome://tracing`. `metadata` lands under `otherData`; the
    /// [`TraceSummary`] is embedded under `summary`.
    pub fn chrome_json(&self, metadata: &[(&str, String)]) -> Value {
        let recorded = self.events();
        json!({
            "traceEvents": Self::event_values(&recorded).collect::<Vec<_>>(),
            "displayTimeUnit": "ms",
            "otherData": Value::Object(Self::metadata_object(metadata)),
            "summary": self.summary().to_json(),
        })
    }

    /// The `traceEvents` entries: metadata for one Perfetto process group
    /// per device pid seen in the stream (a run with no events still gets
    /// the default group 0), then every recorded event.
    fn event_values(recorded: &[TraceEvent]) -> impl Iterator<Item = Value> + '_ {
        let mut pids: std::collections::BTreeSet<u64> = recorded.iter().map(|e| e.pid).collect();
        pids.insert(0);
        pids.into_iter()
            .flat_map(Self::process_meta_events)
            .chain(recorded.iter().map(Self::event_to_value))
    }

    /// Process-name plus lane-name metadata events for one process group,
    /// so Perfetto shows devices and subsystems instead of raw pids/tids.
    fn process_meta_events(pid: u64) -> Vec<Value> {
        let mut events = vec![json!({
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": serde_json::json!({ "name": format!("device {pid}") }),
        })];
        for (lane, (_, lane_name)) in LANES.iter().enumerate() {
            events.push(json!({
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": lane as u64,
                "args": serde_json::json!({ "name": *lane_name }),
            }));
        }
        events
    }

    fn event_to_value(ev: &TraceEvent) -> Value {
        let mut args = serde_json::Map::new();
        for (k, v) in &ev.args {
            args.insert((*k).to_string(), Value::from(v));
        }
        let mut obj = serde_json::Map::new();
        obj.insert("name".to_string(), Value::from(ev.name.as_str()));
        obj.insert("cat".to_string(), Value::from(ev.cat.as_str()));
        obj.insert("pid".to_string(), Value::from(ev.pid));
        obj.insert("tid".to_string(), Value::from(ev.cat.lane()));
        obj.insert("ts".to_string(), Value::from(ev.ts_us));
        match ev.kind {
            EventKind::Span { dur_us } => {
                obj.insert("ph".to_string(), Value::from("X"));
                obj.insert("dur".to_string(), Value::from(dur_us));
            }
            EventKind::Instant => {
                obj.insert("ph".to_string(), Value::from("i"));
                obj.insert("s".to_string(), Value::from("t"));
            }
            EventKind::Counter { value } => {
                obj.insert("ph".to_string(), Value::from("C"));
                args.insert("in_use".to_string(), Value::from(value));
            }
        }
        obj.insert("args".to_string(), Value::Object(args));
        Value::Object(obj)
    }

    fn metadata_object(metadata: &[(&str, String)]) -> serde_json::Map {
        let mut other = serde_json::Map::new();
        for (k, v) in metadata {
            other.insert((*k).to_string(), Value::from(v.as_str()));
        }
        other
    }

    /// Streams [`RunTrace::chrome_json`] into `w` one event at a time,
    /// byte-identical to pretty-printing the whole document but without
    /// materialising it: peak memory is one rendered event instead of the
    /// entire JSON string, which matters for full-scale `reproduce` sweeps
    /// where the kernel lane alone holds millions of events.
    pub fn write_chrome_stream<W: std::io::Write>(
        &self,
        mut w: W,
        metadata: &[(&str, String)],
    ) -> std::io::Result<()> {
        let recorded = self.events();
        // `traceEvents` is never empty — pid 0 always contributes metadata
        // events — so the array brackets never need the empty-`[]` form.
        w.write_all(b"{\n  \"traceEvents\": [")?;
        for (i, v) in Self::event_values(&recorded).enumerate() {
            let sep = if i == 0 { "" } else { "," };
            write!(w, "{sep}\n    {}", pretty_at(&v, 2))?;
        }
        write!(
            w,
            "\n  ],\n  \"displayTimeUnit\": \"ms\",\n  \"otherData\": {},\n  \"summary\": {}\n}}",
            pretty_at(&Value::Object(Self::metadata_object(metadata)), 1),
            pretty_at(&self.summary().to_json(), 1),
        )
    }

    /// Writes [`RunTrace::chrome_json`] to `path`, creating parent
    /// directories as needed. Streams into `<path>.tmp` and renames over
    /// the target, so a failure mid-write (full disk, crash) cannot leave a
    /// truncated, unloadable trace behind.
    pub fn write_chrome_file(
        &self,
        path: &Path,
        metadata: &[(&str, String)],
    ) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut tmp_name = path
            .file_name()
            .map(|n| n.to_os_string())
            .unwrap_or_default();
        tmp_name.push(".tmp");
        let tmp = path.with_file_name(tmp_name);
        let result = (|| {
            let mut out = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
            self.write_chrome_stream(&mut out, metadata)?;
            use std::io::Write as _;
            out.flush()?;
            out.into_inner()
                .map_err(|e| std::io::Error::other(e.to_string()))?
                .sync_all()?;
            std::fs::rename(&tmp, path)
        })();
        if result.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        result
    }
}

/// `serde_json::to_string_pretty(v)` as it renders nested `depth` levels
/// deep: strings escape `\n`, so every newline in the output is
/// indentation, and each gains two spaces per level.
fn pretty_at(v: &Value, depth: usize) -> String {
    let text = serde_json::to_string_pretty(v).expect("a Value always serializes");
    text.replace('\n', &format!("\n{}", "  ".repeat(depth)))
}

/// Machine-readable condensation of one run's telemetry.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceSummary {
    /// Number of simulated kernel launches.
    pub kernel_launches: u64,
    /// Total simulated cycles across all launches' blocks.
    pub kernel_cycles: u64,
    /// Number of device allocations.
    pub alloc_events: u64,
    /// Number of device frees.
    pub free_events: u64,
    /// High-water mark of device bytes in use on the busiest device.
    pub peak_bytes: u64,
    /// Number of PCIe transfers.
    pub transfer_events: u64,
    /// Total bytes moved across PCIe.
    pub transfer_bytes: u64,
    /// Number of injected simulator faults observed.
    pub fault_events: u64,
    /// Number of recovery actions (retries, batch splits, spills) recorded.
    pub recovery_events: u64,
    /// Events discarded by a per-category cap
    /// ([`RunTrace::enabled_with_event_cap`]); 0 for unbounded recorders.
    /// The other fields here stay exact regardless of drops.
    pub dropped_events: u64,
    /// Per-phase simulated durations `(name, µs)`, in completion order.
    pub phase_us: Vec<(String, f64)>,
}

impl TraceSummary {
    /// The summary as a JSON object (embedded in trace files and `--json`
    /// CLI output).
    pub fn to_json(&self) -> Value {
        let mut phases = serde_json::Map::new();
        for (name, us) in &self.phase_us {
            phases.insert(name.clone(), Value::from(*us));
        }
        json!({
            "kernel_launches": self.kernel_launches,
            "kernel_cycles": self.kernel_cycles,
            "alloc_events": self.alloc_events,
            "free_events": self.free_events,
            "peak_device_bytes": self.peak_bytes,
            "transfer_events": self.transfer_events,
            "transfer_bytes": self.transfer_bytes,
            "fault_events": self.fault_events,
            "recovery_events": self.recovery_events,
            "dropped_events": self.dropped_events,
            "phase_us": Value::Object(phases),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_and_returns_start() {
        let c = SimClock::new();
        assert_eq!(c.now_us(), 0.0);
        assert_eq!(c.advance(5.0), 0.0);
        assert_eq!(c.advance(2.5), 5.0);
        assert_eq!(c.now_us(), 7.5);
        c.reset();
        assert_eq!(c.now_us(), 0.0);
    }

    #[test]
    fn clock_is_race_free() {
        let c = SimClock::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = &c;
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.advance(1.0);
                    }
                });
            }
        });
        assert_eq!(c.now_us(), 8000.0);
    }

    #[test]
    fn disabled_records_nothing() {
        let t = RunTrace::disabled();
        t.record_phase("sampling", 0.0, 10.0);
        t.record_kernel("k", 0.0, 1.0, 4, 100, 50, &KernelHw::default());
        t.record_alloc(0.0, 64, 64);
        t.record_transfer("h2d", "sync", 0.0, 1.0, 1024, 0.5);
        assert!(!t.is_enabled());
        assert!(t.events().is_empty());
        assert_eq!(t.summary(), TraceSummary::default());
    }

    #[test]
    fn clones_share_one_buffer() {
        let t = RunTrace::enabled();
        let t2 = t.clone();
        t.record_kernel("a", 0.0, 1.0, 2, 10, 7, &KernelHw::default());
        t2.record_kernel("b", 1.0, 1.0, 2, 20, 9, &KernelHw::default());
        let s = t.summary();
        assert_eq!(s.kernel_launches, 2);
        assert_eq!(s.kernel_cycles, 30);
        assert_eq!(t.events().len(), 2);
    }

    #[test]
    fn summary_tracks_memory_high_water() {
        let t = RunTrace::enabled();
        t.record_alloc(0.0, 100, 100);
        t.record_alloc(1.0, 400, 500);
        t.record_free(2.0, 400, 100);
        t.record_alloc(3.0, 50, 150);
        let s = t.summary();
        assert_eq!(s.peak_bytes, 500);
        assert_eq!(s.alloc_events, 3);
        assert_eq!(s.free_events, 1);
    }

    #[test]
    fn chrome_json_shape() {
        let t = RunTrace::enabled();
        t.record_phase("estimation", 0.0, 3.0);
        t.record_kernel("eim_sample", 0.5, 2.0, 8, 1000, 200, &KernelHw::default());
        t.record_alloc(0.1, 64, 64);
        t.record_transfer("h2d", "sync", 0.0, 0.4, 4096, 0.5);
        let v = t.chrome_json(&[("engine", "eim".to_string())]);
        let events = v["traceEvents"].as_array().expect("array");
        // 1 process-name + 6 lane-name metadata events + 4 recorded events.
        assert_eq!(events.len(), 11);
        let phase = events
            .iter()
            .find(|e| e["name"] == "estimation")
            .expect("phase event");
        assert_eq!(phase["ph"], "X");
        assert_eq!(phase["dur"].as_f64(), Some(3.0));
        let kernel = events
            .iter()
            .find(|e| e["name"] == "eim_sample")
            .expect("kernel event");
        assert_eq!(kernel["cat"], "kernel");
        assert_eq!(kernel["args"]["blocks"].as_u64(), Some(8));
        let counter = events
            .iter()
            .find(|e| e["ph"] == "C")
            .expect("counter event");
        assert_eq!(counter["args"]["in_use"].as_f64(), Some(64.0));
        assert_eq!(v["otherData"]["engine"], "eim");
        assert_eq!(v["summary"]["kernel_launches"].as_u64(), Some(1));
        // Round-trips through the serializer and parser.
        let text = serde_json::to_string(&v).unwrap();
        let back: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(back["summary"]["transfer_bytes"].as_u64(), Some(4096));
    }

    #[test]
    fn clock_advance_to_never_moves_backwards() {
        let c = SimClock::new();
        c.advance(10.0);
        assert_eq!(c.advance_to(7.0), 10.0);
        assert_eq!(c.now_us(), 10.0, "waiting on a past event is free");
        assert_eq!(c.advance_to(12.5), 10.0);
        assert_eq!(c.now_us(), 12.5);
    }

    #[test]
    fn per_device_handles_share_counters_but_tag_pids() {
        let t = RunTrace::enabled();
        let d1 = t.for_device(1);
        assert_eq!(t.pid(), 0);
        assert_eq!(d1.pid(), 1);
        t.record_kernel("k0", 0.0, 1.0, 2, 10, 7, &KernelHw::default());
        d1.record_kernel("k1", 0.0, 1.0, 2, 20, 9, &KernelHw::default());
        d1.record_transfer("d2h", "stream", 1.0, 0.5, 4096, 0.5);
        let events = t.events();
        assert_eq!(events.len(), 3, "one shared buffer");
        let pid_of = |name: &str| events.iter().find(|e| e.name == name).unwrap().pid;
        assert_eq!(pid_of("k0"), 0);
        assert_eq!(pid_of("k1"), 1);
        assert_eq!(pid_of("stream:d2h"), 1);
        let s = t.summary();
        assert_eq!(s.kernel_launches, 2);
        assert_eq!(s.transfer_events, 1, "stream copies count as transfers");
        assert_eq!(s.transfer_bytes, 4096);
    }

    #[test]
    fn chrome_json_emits_one_process_group_per_device() {
        let t = RunTrace::enabled();
        t.record_kernel("k0", 0.0, 1.0, 1, 1, 1, &KernelHw::default());
        t.for_device(2)
            .record_transfer("d2h", "stream", 0.0, 1.0, 64, 0.5);
        let v = t.chrome_json(&[]);
        let events = v["traceEvents"].as_array().unwrap();
        let names: Vec<u64> = events
            .iter()
            .filter(|e| e["name"] == "process_name")
            .map(|e| e["pid"].as_u64().unwrap())
            .collect();
        assert_eq!(names, vec![0, 2]);
        let copy = events.iter().find(|e| e["name"] == "stream:d2h").unwrap();
        assert_eq!(copy["pid"].as_u64(), Some(2));
        assert_eq!(copy["cat"], "transfer");
        assert_eq!(copy["ph"], "X");
        // Copy-stream spans render on their own lane, apart from sync PCIe.
        assert_eq!(copy["tid"].as_u64(), Some(5));
    }

    #[test]
    fn fault_and_recovery_events_land_on_the_fault_lane() {
        let t = RunTrace::enabled();
        t.record_fault("fault:kernel_launch", 1.0, 7);
        t.record_recovery(
            Recovery::Retry {
                attempt: 1,
                fault_ordinal: 7,
                backoff_us: 50.0,
            },
            2.0,
        );
        let s = t.summary();
        assert_eq!(s.fault_events, 1);
        assert_eq!(s.recovery_events, 1);
        let v = t.chrome_json(&[]);
        let events = v["traceEvents"].as_array().unwrap();
        let fault = events
            .iter()
            .find(|e| e["name"] == "fault:kernel_launch")
            .expect("fault event");
        assert_eq!(fault["cat"], "fault");
        assert_eq!(fault["ph"], "i");
        assert_eq!(fault["args"]["ordinal"].as_u64(), Some(7));
        let rec = events
            .iter()
            .find(|e| e["name"] == "recover:retry")
            .expect("recovery event");
        assert_eq!(rec["args"]["attempt"].as_u64(), Some(1));
        assert_eq!(v["summary"]["fault_events"].as_u64(), Some(1));
        assert_eq!(v["summary"]["recovery_events"].as_u64(), Some(1));
    }

    #[test]
    fn event_cap_bounds_each_category_and_counts_drops() {
        let t = RunTrace::enabled_with_event_cap(3);
        for i in 0..10 {
            t.record_kernel("k", i as f64, 1.0, 1, 100, 50, &KernelHw::default());
        }
        // A different category has its own budget.
        t.record_transfer("h2d", "sync", 0.0, 1.0, 64, 0.5);
        let kernels = t
            .events()
            .iter()
            .filter(|e| e.cat == EventCat::Kernel)
            .count();
        assert_eq!(kernels, 3, "kernel lane capped");
        assert_eq!(
            t.events()
                .iter()
                .filter(|e| e.cat == EventCat::Transfer)
                .count(),
            1
        );
        let s = t.summary();
        assert_eq!(s.dropped_events, 7);
        // Aggregate counters stay exact despite the drops.
        assert_eq!(s.kernel_launches, 10);
        assert_eq!(s.kernel_cycles, 1000);
        assert_eq!(s.transfer_events, 1);
        let v = t.chrome_json(&[]);
        assert_eq!(v["summary"]["dropped_events"].as_u64(), Some(7));
    }

    #[test]
    fn uncapped_recorder_reports_zero_drops() {
        let t = RunTrace::enabled();
        for i in 0..100 {
            t.record_kernel("k", i as f64, 1.0, 1, 1, 1, &KernelHw::default());
        }
        assert_eq!(t.summary().dropped_events, 0);
        assert_eq!(t.events().len(), 100);
    }

    #[test]
    fn capped_recorder_is_race_free() {
        let t = RunTrace::enabled_with_event_cap(50);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let t = t.clone();
                s.spawn(move || {
                    for i in 0..100 {
                        t.record_kernel("k", i as f64, 1.0, 1, 1, 1, &KernelHw::default());
                    }
                });
            }
        });
        let s = t.summary();
        assert_eq!(s.kernel_launches, 800);
        assert_eq!(t.events().len(), 50);
        assert_eq!(s.dropped_events, 750);
    }

    fn busy_trace() -> RunTrace {
        let t = RunTrace::enabled();
        t.record_phase("estimation", 0.0, 3.25);
        t.record_kernel("eim_sample", 0.5, 2.0, 8, 1000, 200, &KernelHw::default());
        t.record_kernel(
            "eim_select:iter0",
            2.5,
            1.5,
            4,
            400,
            120,
            &KernelHw {
                occ_busy_cycles: 100,
                occ_capacity_cycles: 4000,
                active_lane_cycles: 9000,
                idle_lane_cycles: 3800,
                global_transactions: 12,
                global_bytes: 1536,
                atomics: 3,
                ..KernelHw::default()
            },
        );
        t.record_alloc(0.1, 64, 64);
        t.record_alloc_failure(0.2, 1 << 30, 64);
        t.record_transfer("h2d", "sync", 0.0, 0.4, 4096, 0.5);
        t.for_device(2)
            .record_transfer("d2h", "stream", 1.0, 0.5, 8192, 0.5);
        t.record_fault("fault:kernel_launch", 1.0, 7);
        // Quotes, backslashes and newlines in a name must escape, not indent.
        t.record_fault("fault:\"quoted\"\\back\nline", 1.5, 8);
        t.record_recovery(Recovery::BatchSplit { batch: 64 }, 2.0);
        t
    }

    #[test]
    fn stream_matches_to_string_pretty() {
        let t = busy_trace();
        let meta = [("engine", "eim".to_string()), ("dataset", "WV".to_string())];
        let whole = serde_json::to_string_pretty(&t.chrome_json(&meta)).unwrap();
        let mut streamed = Vec::new();
        t.write_chrome_stream(&mut streamed, &meta).unwrap();
        assert_eq!(String::from_utf8(streamed).unwrap(), whole);
        // Empty metadata exercises the `{}` object form.
        let whole = serde_json::to_string_pretty(&t.chrome_json(&[])).unwrap();
        let mut streamed = Vec::new();
        t.write_chrome_stream(&mut streamed, &[]).unwrap();
        assert_eq!(String::from_utf8(streamed).unwrap(), whole);
    }

    #[test]
    fn stream_of_empty_trace_matches_too() {
        let t = RunTrace::enabled();
        let whole = serde_json::to_string_pretty(&t.chrome_json(&[])).unwrap();
        let mut streamed = Vec::new();
        t.write_chrome_stream(&mut streamed, &[]).unwrap();
        assert_eq!(String::from_utf8(streamed).unwrap(), whole);
    }

    #[test]
    fn write_chrome_file_is_atomic_and_leaves_no_tmp() {
        let dir = std::env::temp_dir().join("eim_trace_test_atomic");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("out.trace.json");
        let t = busy_trace();
        t.write_chrome_file(&path, &[]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            text,
            serde_json::to_string_pretty(&t.chrome_json(&[])).unwrap()
        );
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "tmp files left behind: {leftovers:?}");
        // Overwriting an existing trace goes through the same rename.
        t.write_chrome_file(&path, &[("run", "2".to_string())])
            .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"run\": \"2\""));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_ride_the_trace_recorders() {
        let reg = MetricsRegistry::new();
        let t = RunTrace::enabled().with_metrics(reg.sink().with_engine("eim"));
        t.record_kernel("k", 0.0, 2.0, 4, 100, 60, &KernelHw::default());
        t.for_device(1)
            .record_kernel("k", 2.0, 1.0, 2, 40, 30, &KernelHw::default());
        t.record_alloc(0.0, 100, 100);
        t.record_free(1.0, 100, 0);
        t.record_fault("fault:transfer", 1.0, 3);
        t.record_recovery(
            Recovery::Retry {
                attempt: 1,
                fault_ordinal: 3,
                backoff_us: 1.0,
            },
            2.0,
        );
        let profiles = reg.kernel_profiles();
        assert_eq!(profiles.len(), 2, "per-device profile keys");
        assert_eq!(profiles[0].0.device, 0);
        assert_eq!(profiles[0].1.cycles, 100);
        assert_eq!(profiles[1].0.device, 1);
        assert_eq!(profiles[1].1.cycles, 40);
        let text = reg.render_prometheus();
        assert!(
            text.contains(
                "eim_faults_injected_total{device=\"0\",engine=\"eim\",kind=\"fault:transfer\"} 1"
            ),
            "{text}"
        );
        assert!(text.contains("eim_recovery_actions_total{action=\"recover:retry\",device=\"0\",engine=\"eim\"} 1"), "{text}");
        assert!(
            text.contains("eim_device_mem_peak_bytes{device=\"0\",engine=\"eim\"} 100"),
            "{text}"
        );
        // The trace events themselves are unchanged by the metrics sink.
        assert_eq!(t.summary().kernel_launches, 2);
    }

    #[test]
    fn disabled_trace_with_metrics_still_collects_metrics() {
        let reg = MetricsRegistry::new();
        let t = RunTrace::disabled().with_metrics(reg.sink().with_engine("bench"));
        t.record_kernel("k", 0.0, 1.0, 1, 10, 10, &KernelHw::default());
        assert!(!t.is_enabled());
        assert!(t.events().is_empty(), "no event buffering");
        assert_eq!(reg.kernel_profiles().len(), 1, "metrics still flow");
        assert!(t.metrics().is_enabled());
    }

    #[test]
    fn write_chrome_file_creates_dirs() {
        let dir = std::env::temp_dir().join("eim_trace_test_dir");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested").join("out.trace.json");
        let t = RunTrace::enabled();
        t.record_phase("sampling", 0.0, 1.0);
        t.write_chrome_file(&path, &[]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let v: Value = serde_json::from_str(&text).unwrap();
        assert!(v["traceEvents"].as_array().unwrap().len() >= 5);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
