//! Multi-GPU eIM — the extension the paper's conclusion plans ("extend eIM
//! to support multi-GPU execution to further improve scalability").
//!
//! Design: data-parallel sampling, centralized selection.
//!
//! * The graph (log-encoded) is replicated on every device — it is the
//!   small, read-only operand; RRR storage is what grows.
//! * Sample indices are dealt round-robin across the `D` devices; each
//!   device runs the standard eIM sampling kernel on its share, so the
//!   phase's simulated time is the *max* over devices (they run
//!   concurrently).
//! * Each non-primary device streams its freshly sampled partition to
//!   device 0 over its own interconnect link, double-buffered against the
//!   sampling kernel (every device has a dedicated DMA engine, so copies
//!   overlap compute and each other). A sampling round therefore costs
//!   `max_j max(sample_j, copy_j)`, not `max_j sample_j + copy_total`.
//! * Selection runs on device 0 with the thread-per-set scan; by then the
//!   partitions have already landed there.
//!
//! Determinism is preserved: sample `i` still derives from stream
//! `(seed, i)` no matter which device draws it, so the merged store is the
//! same multiset the single-GPU engine produces — and therefore the same
//! seed set.

use std::sync::Arc;

use eim_bitpack::PackedCsc;
use eim_gpusim::{
    ArgValue, CopyEvent, CopyStream, Device, DeviceSpec, FaultPlan, FaultSpec, RunTrace,
    TransferDirection,
};
use eim_graph::Graph;
use eim_imm::{
    AnyRrrStore, DeviceManifest, EngineError, EngineManifest, Eviction, ImmConfig, ImmEngine,
    RecoveryReport, RrrSets, RrrStoreBuilder, Selection,
};

use crate::device_graph::{PackedDeviceGraph, PlainDeviceGraph};
use crate::memory::ScratchPlan;
use crate::sampler::{sample_batch, SamplerCounters};
use crate::select::{select_on_device, ScanStrategy};
use crate::DeviceGraph;

enum GraphRepr<'g> {
    Plain(PlainDeviceGraph<'g>),
    Packed(PackedDeviceGraph),
}

/// eIM across `D` simulated devices.
///
/// There is no private time accumulator: every device advances its own
/// [`eim_gpusim::SimClock`], staging copies ride per-device [`CopyStream`]s,
/// and the engine's elapsed time is the max over the device clocks.
pub struct MultiGpuEimEngine<'g> {
    devices: Vec<Device>,
    /// One DMA engine per device: the replicated graph upload and the
    /// partition staging copies queue here.
    streams: Vec<CopyStream>,
    /// Pending per-device graph uploads; each device's first sampling round
    /// waits on its own.
    uploads: Vec<Option<CopyEvent>>,
    graph: GraphRepr<'g>,
    config: ImmConfig,
    store: AnyRrrStore,
    /// Bytes of store content each device holds before the gather.
    partition_bytes: Vec<usize>,
    /// Which partitions have already been gathered to device 0.
    gathered_bytes: usize,
    next_index: u64,
    counters: SamplerCounters,
    store_alloc_bytes: usize,
    /// Original ordinal of each live device slot — eviction compacts the
    /// device vectors, so slot index and construction-time ordinal diverge
    /// once a device dies.
    ordinals: Vec<u64>,
    /// Per-original-device recovery accounting, indexed by ordinal; evicted
    /// devices keep their entry (that is where their eviction is counted).
    device_reports: Vec<RecoveryReport>,
}

/// Per-device recovery view of a multi-GPU run, for telemetry breakdowns.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DeviceRecoverySummary {
    /// The device's construction-time ordinal.
    pub ordinal: u64,
    /// Whether the device was evicted after a fail-stop fault.
    pub evicted: bool,
    /// The device's simulated clock (0 once evicted).
    pub clock_us: f64,
    /// Recovery actions attributed to this device.
    pub report: RecoveryReport,
}

impl<'g> MultiGpuEimEngine<'g> {
    /// Builds the engine over `num_devices` identical devices of `spec`
    /// (telemetry disabled, copy overlap on).
    pub fn new(
        graph: &'g Graph,
        config: ImmConfig,
        spec: DeviceSpec,
        num_devices: usize,
    ) -> Result<Self, EngineError> {
        Self::with_telemetry(
            graph,
            config,
            spec,
            num_devices,
            &RunTrace::disabled(),
            true,
        )
    }

    /// Builds the engine with full control: device `j` reports into
    /// `trace.for_device(j)` — one Perfetto process group per GPU — and
    /// `copy_overlap` selects overlapping (the default) or forced-serial
    /// copy streams on every device.
    pub fn with_telemetry(
        graph: &'g Graph,
        config: ImmConfig,
        spec: DeviceSpec,
        num_devices: usize,
        trace: &RunTrace,
        copy_overlap: bool,
    ) -> Result<Self, EngineError> {
        assert!(num_devices >= 1, "need at least one device");
        let n = graph.num_vertices();
        config.validate(n);
        let repr = if config.packed {
            GraphRepr::Packed(PackedDeviceGraph::new(PackedCsc::from_graph(graph)))
        } else {
            GraphRepr::Plain(PlainDeviceGraph::new(graph))
        };
        let graph_bytes = match &repr {
            GraphRepr::Plain(g) => g.device_bytes(),
            GraphRepr::Packed(g) => DeviceGraph::device_bytes(g),
        };
        let devices: Vec<Device> = (0..num_devices)
            .map(|j| {
                Device::with_run_trace(spec, trace.for_device(j as u64))
                    .with_copy_overlap(copy_overlap)
            })
            .collect();
        let scratch = ScratchPlan::new(n, spec.num_sms * 4);
        for d in &devices {
            d.memory()
                .alloc(graph_bytes + scratch.total())
                .map_err(EngineError::from)?;
        }
        // Replicate the graph: every device uploads its own copy on its own
        // copy stream, all in flight concurrently; each device's first
        // sampling round hides behind its upload.
        let mut streams: Vec<CopyStream> = devices.iter().map(|d| d.copy_stream()).collect();
        let uploads: Vec<Option<CopyEvent>> = devices
            .iter()
            .zip(streams.iter_mut())
            .map(|(d, s)| Some(s.enqueue(d, graph_bytes, TransferDirection::HostToDevice)))
            .collect();
        Ok(Self {
            devices,
            streams,
            uploads,
            graph: repr,
            store: AnyRrrStore::new(n, config.packed),
            config,
            partition_bytes: vec![0; num_devices],
            gathered_bytes: 0,
            next_index: 0,
            counters: SamplerCounters::default(),
            store_alloc_bytes: 0,
            ordinals: (0..num_devices as u64).collect(),
            device_reports: vec![RecoveryReport::default(); num_devices],
        })
    }

    /// Attaches a deterministic fault plan. Device `j` runs an independent
    /// but still deterministic schedule derived from `spec`
    /// ([`FaultSpec::derive`] with the device index as salt).
    pub fn with_faults(mut self, spec: &FaultSpec) -> Self {
        let devices = std::mem::take(&mut self.devices);
        self.devices = devices
            .into_iter()
            .enumerate()
            .map(|(j, d)| d.with_fault_plan(Arc::new(FaultPlan::new(spec.derive(j as u64)))))
            .collect();
        self
    }

    /// Number of devices.
    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    /// Current simulated time on each device's own clock, in µs. After a
    /// sampling round these agree (bulk-synchronous barrier); selection
    /// advances only device 0.
    pub fn device_clocks_us(&self) -> Vec<f64> {
        self.devices.iter().map(|d| d.clock().now_us()).collect()
    }

    /// Sampling counters.
    pub fn counters(&self) -> SamplerCounters {
        self.counters
    }

    /// Per-device recovery breakdown, one entry per construction-time
    /// ordinal (evicted devices included).
    pub fn device_summaries(&self) -> Vec<DeviceRecoverySummary> {
        (0..self.device_reports.len() as u64)
            .map(|ordinal| {
                let slot = self.ordinals.iter().position(|&o| o == ordinal);
                DeviceRecoverySummary {
                    ordinal,
                    evicted: slot.is_none(),
                    clock_us: slot.map_or(0.0, |s| self.devices[s].clock_us()),
                    report: self.device_reports[ordinal as usize],
                }
            })
            .collect()
    }

    fn grow_primary_store(&mut self) -> Result<(), EngineError> {
        let needed = self.store.bytes();
        if needed <= self.store_alloc_bytes {
            return Ok(());
        }
        let new_alloc = (needed * 3 / 2).max(4096);
        self.devices[0]
            .memory()
            .alloc(new_alloc)
            .map_err(EngineError::from)?;
        self.devices[0].memory().free(self.store_alloc_bytes);
        self.store_alloc_bytes = new_alloc;
        Ok(())
    }

    /// One sampling round over all devices. On a fault this returns early
    /// with per-device accounting partially committed — the caller rolls
    /// that back (the store and `next_index` are only touched on success).
    fn sample_round(&mut self, target: usize) -> Result<(), EngineError> {
        let total = target - self.next_index as usize;
        let d = self.devices.len();
        // Blocked dealing: device j samples the contiguous global range
        // [next + sum of earlier shares, +share_j). Content depends only on
        // the global index, so the merged multiset is identical to the
        // single-device engine's — same seeds, scalability for free.
        let mut batches = Vec::with_capacity(d);
        let mut base = self.next_index;
        for (j, dev) in self.devices.iter().enumerate() {
            let share = total / d + usize::from(j < total % d);
            if share == 0 {
                continue;
            }
            let partition_before = self.partition_bytes[j];
            let batch = match &self.graph {
                GraphRepr::Plain(g) => sample_batch(
                    dev,
                    g,
                    self.config.model,
                    self.config.seed,
                    base,
                    share,
                    self.config.source_elimination,
                )?,
                GraphRepr::Packed(g) => sample_batch(
                    dev,
                    g,
                    self.config.model,
                    self.config.seed,
                    base,
                    share,
                    self.config.source_elimination,
                )?,
            };
            self.counters.sampled += batch.counters.sampled;
            self.counters.singletons += batch.counters.singletons;
            self.counters.discarded += batch.counters.discarded;
            for len in batch.sets.kept_lens() {
                self.partition_bytes[j] += len * 4 + 8;
            }
            // Non-primary devices stage this round's partition to device 0
            // on their own DMA engine, double-buffered against the sampling
            // kernel: the device is done when both finish.
            let staging = if j == 0 {
                None
            } else {
                let staged = self.partition_bytes[j] - partition_before;
                let ev = self.streams[j].checked_enqueue(
                    dev,
                    staged,
                    TransferDirection::DeviceToHost,
                )?;
                self.gathered_bytes += staged;
                Some(ev)
            };
            dev.advance_clock(batch.stats.elapsed_us);
            if let Some(upload) = self.uploads[j].take() {
                self.streams[j].wait_event(dev, &upload);
            }
            if let Some(ev) = staging {
                self.streams[j].wait_event(dev, &ev);
            }
            batches.push((batch.sets, batch.coverage));
            base += share as u64;
        }
        self.next_index = target as u64;
        // Devices ran concurrently; the round is bulk-synchronous, so align
        // every clock to the slowest device before the next round deals.
        let round_end = self
            .devices
            .iter()
            .map(|dev| dev.clock().now_us())
            .fold(0.0, f64::max);
        // Barrier skew — how long the fastest device idles waiting for the
        // slowest — is the visible cost of a straggler window; export the
        // worst round as a high-water gauge.
        let round_min = self
            .devices
            .iter()
            .map(|dev| dev.clock().now_us())
            .fold(f64::INFINITY, f64::min);
        if round_end > round_min {
            self.devices[0]
                .run_trace()
                .metrics()
                .gauge_max("eim_round_skew_us", (round_end - round_min).round() as u64);
        }
        for dev in &self.devices {
            dev.clock().advance_to(round_end);
        }
        // Devices own contiguous ascending index ranges and each batch is
        // already in sample-index order, so appending batch-by-batch IS the
        // global-index merge order — no sort, no per-set reallocation. Each
        // batch lands in bulk with its in-flight coverage histogram.
        for (sets, coverage) in &batches {
            let lens: Vec<usize> = sets.kept_lens().collect();
            self.store.append_batch(sets.arena(), &lens, coverage);
        }
        Ok(())
    }
}

impl ImmEngine for MultiGpuEimEngine<'_> {
    fn n(&self) -> usize {
        self.store.num_vertices()
    }

    fn extend_to(&mut self, target: usize) -> Result<(), EngineError> {
        // Heal first: a prior round may have committed sets and then OOMed
        // growing the primary store; a retry must fix that deficit even
        // when the sample target itself is already met.
        self.grow_primary_store()?;
        if (self.next_index as usize) >= target {
            return Ok(());
        }
        let counters_before = self.counters;
        let partitions_before = self.partition_bytes.clone();
        let gathered_before = self.gathered_bytes;
        match self.sample_round(target) {
            Ok(()) => self.grow_primary_store(),
            Err(e) => {
                // A faulted launch or staging copy aborts the whole round:
                // restore the per-device accounting so the retry (which
                // re-deals the identical index ranges) commits exactly once.
                self.counters = counters_before;
                self.partition_bytes = partitions_before;
                self.gathered_bytes = gathered_before;
                Err(e)
            }
        }
    }

    fn select(&mut self, k: usize) -> Selection {
        // A run that never sampled still owes every device its graph upload.
        for (j, dev) in self.devices.iter().enumerate() {
            if let Some(upload) = self.uploads[j].take() {
                self.streams[j].wait_event(dev, &upload);
            }
        }
        // The eager per-round staging normally leaves nothing to gather;
        // this drains any remainder onto device 0 before the scan.
        let to_gather: usize =
            self.partition_bytes[1..].iter().sum::<usize>() - self.gathered_bytes;
        if to_gather > 0 {
            let ev = self.streams[0].enqueue(
                &self.devices[0],
                to_gather,
                TransferDirection::HostToDevice,
            );
            self.streams[0].wait_event(&self.devices[0], &ev);
            self.gathered_bytes += to_gather;
        }
        let result = select_on_device(&self.devices[0], &self.store, k, ScanStrategy::ThreadPerSet);
        // `select_on_device` models its launches analytically; record the
        // kernel work on device 0's lane, one event per greedy iteration.
        let mut ts = self.devices[0].advance_clock(result.elapsed_us);
        for (i, iter) in result.iterations.iter().enumerate() {
            self.devices[0].run_trace().record_kernel_hw(
                &format!("eim_select:iter{i}"),
                ts,
                iter.elapsed_us,
                iter.launches as usize,
                iter.cycles,
                0,
                &iter.hw,
            );
            ts += iter.elapsed_us;
        }
        result.selection
    }

    fn store(&self) -> &dyn RrrSets {
        &self.store
    }

    fn logical_sets(&self) -> usize {
        self.next_index as usize
    }

    fn elapsed_us(&self) -> f64 {
        self.devices
            .iter()
            .map(|dev| dev.clock().now_us())
            .fold(0.0, f64::max)
    }

    fn advance_time(&mut self, us: f64) {
        // Host-side time passes for every device equally, keeping the
        // bulk-synchronous clocks aligned.
        for dev in &self.devices {
            dev.advance_clock(us);
        }
    }

    fn recovery_report(&self) -> RecoveryReport {
        let mut merged = RecoveryReport::default();
        for r in &self.device_reports {
            merged.merge(r);
        }
        merged
    }

    fn evict_lost_devices(&mut self) -> Result<Option<Eviction>, EngineError> {
        let lost: Vec<usize> = (0..self.devices.len())
            .filter(|&j| self.devices[j].is_lost())
            .collect();
        if lost.is_empty() || lost.len() == self.devices.len() {
            return Ok(None);
        }
        let primary_lost = lost[0] == 0;
        for &j in lost.iter().rev() {
            let ordinal = self.ordinals[j];
            let dev = &self.devices[j];
            self.device_reports[ordinal as usize].devices_evicted += 1;
            dev.run_trace().record_recovery(
                "recover:evict_device",
                dev.clock_us(),
                vec![
                    ("ordinal", ArgValue::U64(ordinal)),
                    (
                        "dead_at_event",
                        ArgValue::U64(dev.fault_plan().and_then(|p| p.dead_at()).unwrap_or(0)),
                    ),
                ],
            );
            dev.run_trace()
                .metrics()
                .counter_add("eim_device_failures_total", &[], 1);
            // A non-primary casualty's committed partition was already
            // eagerly staged to the primary each round, so no data is lost —
            // only the gather accounting must forget it.
            if j > 0 {
                self.gathered_bytes -= self.partition_bytes[j];
            }
            self.devices.remove(j);
            self.streams.remove(j);
            self.uploads.remove(j);
            self.partition_bytes.remove(j);
            self.ordinals.remove(j);
        }
        if primary_lost {
            // Promote the first survivor to primary: it must own the
            // gathered store, so reserve the store arena there and re-upload
            // the host mirror's content over its copy stream — the
            // re-shard's PCIe bill, paid on the simulated clock.
            self.devices[0]
                .memory()
                .alloc(self.store_alloc_bytes)
                .map_err(EngineError::from)?;
            if let Some(upload) = self.uploads[0].take() {
                self.streams[0].wait_event(&self.devices[0], &upload);
            }
            let bytes = self.store.bytes();
            if bytes > 0 {
                let ev = self.streams[0].enqueue(
                    &self.devices[0],
                    bytes,
                    TransferDirection::HostToDevice,
                );
                self.streams[0].wait_event(&self.devices[0], &ev);
            }
            // Everything now lives on the new primary; future rounds
            // accumulate fresh partitions on the survivors.
            for b in &mut self.partition_bytes {
                *b = 0;
            }
            self.gathered_bytes = 0;
        }
        // Eviction is a barrier: survivors leave it clock-aligned, so the
        // next sampling round deals onto a consistent timeline.
        let end = self
            .devices
            .iter()
            .map(|dev| dev.clock().now_us())
            .fold(0.0, f64::max);
        for dev in &self.devices {
            dev.clock().advance_to(end);
        }
        Ok(Some(Eviction {
            devices_evicted: lost.len() as u32,
            survivors: self.devices.len(),
        }))
    }

    fn checkpoint_manifest(&self) -> EngineManifest {
        let devices = (0..self.device_reports.len() as u64)
            .map(
                |ordinal| match self.ordinals.iter().position(|&o| o == ordinal) {
                    Some(slot) => DeviceManifest {
                        ordinal,
                        clock_us: self.devices[slot].clock_us(),
                        evicted: false,
                        partition_bytes: self.partition_bytes[slot],
                    },
                    None => DeviceManifest {
                        ordinal,
                        clock_us: 0.0,
                        evicted: true,
                        partition_bytes: 0,
                    },
                },
            )
            .collect();
        EngineManifest {
            devices,
            gathered_bytes: self.gathered_bytes,
            store_alloc_bytes: self.store_alloc_bytes,
        }
    }

    fn restore_manifest(&mut self, m: &EngineManifest) -> Result<(), EngineError> {
        if m.devices.is_empty() {
            return Ok(());
        }
        // Restore runs on a freshly built engine: every original device is
        // still present, so the manifest must describe the same topology.
        if m.devices.len() != self.devices.len() {
            return Err(EngineError::CheckpointMismatch {
                expected: self.devices.len() as u64,
                found: m.devices.len() as u64,
            });
        }
        // The replay already waited out some uploads; drain the rest so the
        // pinned clocks below are final.
        for (j, dev) in self.devices.iter().enumerate() {
            if let Some(upload) = self.uploads[j].take() {
                self.streams[j].wait_event(dev, &upload);
            }
        }
        // Reproduce the checkpointed eviction topology without re-paying the
        // re-shard: the checkpointed run already charged it, and the clocks
        // we pin below carry that cost.
        let primary_evicted = m.devices[0].evicted;
        for ordinal in (0..m.devices.len()).rev() {
            if m.devices[ordinal].evicted {
                self.devices.remove(ordinal);
                self.streams.remove(ordinal);
                self.uploads.remove(ordinal);
                self.partition_bytes.remove(ordinal);
                self.ordinals.remove(ordinal);
            }
        }
        if self.devices.is_empty() {
            return Err(EngineError::CheckpointMismatch {
                expected: 1,
                found: 0,
            });
        }
        // Pin the primary store allocation. The replay grew it on the
        // original device 0; if that device was evicted its memory went with
        // it, and the surviving primary reserves the manifest's allocation.
        if primary_evicted {
            self.devices[0]
                .memory()
                .alloc(m.store_alloc_bytes)
                .map_err(EngineError::from)?;
        } else {
            self.devices[0].memory().free(self.store_alloc_bytes);
            self.devices[0]
                .memory()
                .alloc(m.store_alloc_bytes)
                .map_err(EngineError::from)?;
        }
        self.store_alloc_bytes = m.store_alloc_bytes;
        for (slot, &ordinal) in self.ordinals.iter().enumerate() {
            let dm = &m.devices[ordinal as usize];
            self.partition_bytes[slot] = dm.partition_bytes;
            self.devices[slot].clock().set_us(dm.clock_us);
        }
        self.gathered_bytes = m.gathered_bytes;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eim_graph::{generators, WeightModel};
    use eim_imm::run_imm;

    fn cfg() -> ImmConfig {
        ImmConfig::paper_default()
            .with_k(4)
            .with_epsilon(0.25)
            .with_seed(13)
    }

    fn graph() -> Graph {
        generators::rmat(
            600,
            3_600,
            generators::RmatParams::GRAPH500,
            WeightModel::WeightedCascade,
            21,
        )
    }

    #[test]
    fn same_seeds_as_single_device() {
        let g = graph();
        let c = cfg();
        let spec = DeviceSpec::rtx_a6000_with_mem(256 << 20);
        let mut multi = MultiGpuEimEngine::new(&g, c, spec, 4).unwrap();
        let r_multi = run_imm(&mut multi, &c).unwrap();
        let r_single = crate::EimBuilder::new(&g)
            .config(c)
            .device(spec)
            .run()
            .unwrap();
        assert_eq!(r_multi.seeds, r_single.seeds);
        assert_eq!(r_multi.num_sets, r_single.num_sets);
        assert_eq!(r_multi.total_elements, r_single.total_elements);
    }

    #[test]
    fn sampling_phase_scales_with_devices() {
        // Pure sampling (the data-parallel phase) must scale near-linearly;
        // end-to-end gains are Amdahl-limited by the centralized selection.
        let g = generators::rmat(
            1_500,
            9_000,
            generators::RmatParams::GRAPH500,
            WeightModel::WeightedCascade,
            5,
        );
        let c = cfg();
        let spec = DeviceSpec::rtx_a6000_with_mem(512 << 20);
        let time = |d: usize| {
            let mut e = MultiGpuEimEngine::new(&g, c, spec, d).unwrap();
            e.extend_to(40_000).unwrap();
            e.elapsed_us()
        };
        let one = time(1);
        let four = time(4);
        assert!(
            four < 0.45 * one,
            "4 devices {four:.0} us vs 1 device {one:.0} us"
        );
    }

    #[test]
    fn end_to_end_never_slower_with_more_devices() {
        let g = graph();
        let c = cfg();
        let spec = DeviceSpec::rtx_a6000_with_mem(512 << 20);
        let time = |d: usize| {
            let mut e = MultiGpuEimEngine::new(&g, c, spec, d).unwrap();
            run_imm(&mut e, &c).unwrap();
            e.elapsed_us()
        };
        let one = time(1);
        let four = time(4);
        assert!(
            four < 1.02 * one,
            "4 devices {four:.0} vs 1 device {one:.0}"
        );
    }

    #[test]
    fn one_device_matches_the_standard_engine_times_closely() {
        let g = graph();
        let c = cfg();
        let spec = DeviceSpec::rtx_a6000_with_mem(256 << 20);
        let mut multi = MultiGpuEimEngine::new(&g, c, spec, 1).unwrap();
        let r = run_imm(&mut multi, &c).unwrap();
        assert_eq!(r.seeds.len(), 4);
        assert_eq!(multi.num_devices(), 1);
    }

    #[test]
    fn deterministic_across_runs() {
        let g = graph();
        let c = cfg();
        let spec = DeviceSpec::rtx_a6000_with_mem(256 << 20);
        let run = || {
            let mut e = MultiGpuEimEngine::new(&g, c, spec, 3).unwrap();
            let r = run_imm(&mut e, &c).unwrap();
            (r.seeds.clone(), r.num_sets, e.elapsed_us())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn graph_must_fit_every_device() {
        let g = graph();
        let err = MultiGpuEimEngine::new(&g, cfg(), DeviceSpec::rtx_a6000_with_mem(16 << 10), 2)
            .err()
            .expect("tiny devices cannot hold the graph");
        assert!(matches!(err, EngineError::OutOfMemory { .. }));
    }

    // ---- device loss, eviction, and re-sharding ----

    use eim_imm::{run_imm_recovering, RecoveryPolicy};

    fn clean_reference(g: &Graph, c: &ImmConfig) -> (Vec<u32>, usize) {
        let spec = DeviceSpec::rtx_a6000_with_mem(256 << 20);
        let mut e = MultiGpuEimEngine::new(g, *c, spec, 4).unwrap();
        let r = run_imm(&mut e, c).unwrap();
        (r.seeds, r.num_sets)
    }

    /// Runs a faulted 4-device recovery and returns
    /// `(seeds, num_sets, devices_evicted, redistributed_sets)`,
    /// or `None` when the plan killed every device (retries exhausted).
    fn faulted_run(
        g: &Graph,
        c: &ImmConfig,
        fault_spec: &str,
    ) -> Option<(Vec<u32>, usize, u32, u64)> {
        let spec = DeviceSpec::rtx_a6000_with_mem(256 << 20);
        let mut e = MultiGpuEimEngine::new(g, *c, spec, 4)
            .unwrap()
            .with_faults(&FaultSpec::parse(fault_spec).unwrap());
        match run_imm_recovering(&mut e, c, &RecoveryPolicy::retry(), &RunTrace::disabled()) {
            Ok(r) => Some((
                r.seeds,
                r.num_sets,
                r.recovery.devices_evicted,
                r.recovery.redistributed_sets,
            )),
            Err(EngineError::RetriesExhausted { .. }) => None,
            Err(e) => panic!("unexpected engine error: {e}"),
        }
    }

    #[test]
    fn losing_devices_mid_run_preserves_the_answer_exactly() {
        // Sweep deterministic fault seeds until the derived plans have
        // killed one device in some run and two-or-more in another. Every
        // surviving run must return the clean run's answer byte for byte.
        let g = graph();
        let c = cfg();
        let (clean_seeds, clean_sets) = clean_reference(&g, &c);
        let (mut saw_single_loss, mut saw_multi_loss) = (false, false);
        for fault_seed in 1..40 {
            let spec = format!("seed={fault_seed},device_fail=0.02");
            let Some((seeds, sets, evicted, redistributed)) = faulted_run(&g, &c, &spec) else {
                continue; // all four died: correct typed failure, nothing to compare
            };
            assert_eq!(seeds, clean_seeds, "{spec} changed the seed set");
            assert_eq!(sets, clean_sets, "{spec} changed the sample count");
            if evicted > 0 {
                assert!(
                    redistributed > 0,
                    "{spec}: eviction re-sharded no pending sets"
                );
            }
            saw_single_loss |= evicted == 1;
            saw_multi_loss |= evicted >= 2;
            if saw_single_loss && saw_multi_loss {
                return;
            }
        }
        panic!(
            "fault-seed sweep never produced both a 1-loss and a 2+-loss run \
             (single={saw_single_loss}, multi={saw_multi_loss})"
        );
    }

    #[test]
    fn losing_the_primary_device_preserves_the_answer_exactly() {
        // Force device 0 (the gather/selection primary) dead on its first
        // kernel launch: the promotion path must re-upload the store onto
        // the new primary and still reproduce the clean answer.
        let g = graph();
        let c = cfg();
        let (clean_seeds, clean_sets) = clean_reference(&g, &c);
        let spec = DeviceSpec::rtx_a6000_with_mem(256 << 20);
        let mut e = MultiGpuEimEngine::new(&g, c, spec, 4).unwrap();
        let kill_primary = FaultSpec::parse("seed=1,device_fail=0.999").unwrap();
        let devices = std::mem::take(&mut e.devices);
        e.devices = devices
            .into_iter()
            .enumerate()
            .map(|(j, d)| {
                if j == 0 {
                    d.with_fault_plan(Arc::new(FaultPlan::new(kill_primary.clone())))
                } else {
                    d
                }
            })
            .collect();
        let r = run_imm_recovering(&mut e, &c, &RecoveryPolicy::retry(), &RunTrace::disabled())
            .expect("survivors absorb the primary loss");
        assert_eq!(r.recovery.devices_evicted, 1);
        assert_eq!(e.num_devices(), 3);
        assert_eq!(r.seeds, clean_seeds);
        assert_eq!(r.num_sets, clean_sets);
        let summaries = e.device_summaries();
        assert!(summaries[0].evicted, "ordinal 0 should be marked evicted");
        assert_eq!(summaries[0].report.devices_evicted, 1);
        assert!(summaries[1..].iter().all(|s| !s.evicted));
    }

    #[test]
    fn straggler_skews_the_clock_but_not_the_answer() {
        let g = graph();
        let c = cfg();
        let (clean_seeds, clean_sets) = clean_reference(&g, &c);
        let spec = DeviceSpec::rtx_a6000_with_mem(256 << 20);
        let clean_time = {
            let mut e = MultiGpuEimEngine::new(&g, c, spec, 4).unwrap();
            run_imm(&mut e, &c).unwrap();
            e.elapsed_us()
        };
        let mut e = MultiGpuEimEngine::new(&g, c, spec, 4)
            .unwrap()
            .with_faults(&FaultSpec::parse("seed=5,straggler=8.0@0:64").unwrap());
        let r = run_imm_recovering(&mut e, &c, &RecoveryPolicy::retry(), &RunTrace::disabled())
            .expect("a straggler is a slowdown, not a fault");
        assert_eq!(r.seeds, clean_seeds, "straggler changed the answer");
        assert_eq!(r.num_sets, clean_sets);
        assert!(
            e.elapsed_us() > clean_time,
            "an 8x straggler window must cost simulated time \
             ({} vs clean {})",
            e.elapsed_us(),
            clean_time
        );
    }

    #[test]
    fn manifest_restores_clocks_and_partitions_onto_a_fresh_engine() {
        let g = graph();
        let c = cfg();
        let spec = DeviceSpec::rtx_a6000_with_mem(256 << 20);
        let mut a = MultiGpuEimEngine::new(&g, c, spec, 3).unwrap();
        a.extend_to(4_000).unwrap();
        let manifest = a.checkpoint_manifest();
        assert_eq!(manifest.devices.len(), 3);

        let mut b = MultiGpuEimEngine::new(&g, c, spec, 3).unwrap();
        b.extend_to(4_000).unwrap(); // replay the same samples
        b.restore_manifest(&manifest).unwrap();
        assert_eq!(b.device_clocks_us(), a.device_clocks_us());
        assert_eq!(b.checkpoint_manifest(), manifest);

        // Both engines must finish the run identically from here.
        let ra = run_imm(&mut a, &c).unwrap();
        let rb = run_imm(&mut b, &c).unwrap();
        assert_eq!(ra.seeds, rb.seeds);
        assert_eq!(ra.num_sets, rb.num_sets);
        assert_eq!(a.elapsed_us().to_bits(), b.elapsed_us().to_bits());
    }

    #[test]
    fn manifest_topology_mismatch_is_a_typed_error() {
        let g = graph();
        let c = cfg();
        let spec = DeviceSpec::rtx_a6000_with_mem(256 << 20);
        let a = MultiGpuEimEngine::new(&g, c, spec, 2).unwrap();
        let manifest = a.checkpoint_manifest();
        let mut b = MultiGpuEimEngine::new(&g, c, spec, 4).unwrap();
        assert!(matches!(
            b.restore_manifest(&manifest),
            Err(EngineError::CheckpointMismatch { .. })
        ));
    }
}
