//! The eIM engine: ties sampler, store, and selection together as an
//! [`ImmEngine`] backend for the shared IMM driver, over a pool of `D`
//! simulated devices.
//!
//! `D = 1` is the paper's configuration. `D > 1` is the extension its
//! conclusion plans ("extend eIM to support multi-GPU execution to further
//! improve scalability"): data-parallel sampling, centralized selection.
//!
//! * The graph (log-encoded) is replicated on every device — it is the
//!   small, read-only operand; RRR storage is what grows.
//! * Each sampling round deals contiguous index ranges across the devices,
//!   which run the standard eIM sampling kernel concurrently: a round costs
//!   the *max* over devices.
//! * Each non-primary device streams its freshly sampled partition to the
//!   primary (slot 0) over its own interconnect link, double-buffered
//!   against the sampling kernel (every device has a dedicated DMA engine).
//!   A round therefore costs `max_j max(sample_j, copy_j)`.
//! * The primary owns the whole store: its allocation grows, and under
//!   [`RecoveryPolicy::degrade`] spills to the host, the same way at every
//!   `D`, and selection runs there. Every `select` is charged in full,
//!   spill reload included; the driver never asks for one over the sets
//!   the previous one saw, so the engine keeps no selection of its own.
//! * A fail-stopped device is evicted and its pending work re-sharded onto
//!   the survivors; losing the primary promotes the first survivor.
//!
//! Determinism is preserved: sample `i` derives from stream `(seed, i)` no
//! matter which device draws it, so the store is the same multiset at every
//! `D` — and therefore the same seed set.

use std::sync::Arc;

use eim_gpusim::{
    CopyEvent, CopyStream, Device, DeviceSpec, FaultPlan, FaultSpec, Recovery, RunTrace,
    TransferDirection,
};
use eim_graph::Graph;
use eim_imm::{
    DeviceManifest, EngineError, EngineManifest, Eviction, ImmConfig, ImmEngine, RecoveryPolicy,
    RecoveryReport, RrrSets, RrrStore, RrrStoreBuilder, Selection,
};

use crate::device_graph::{DeviceGraph, PackedDeviceGraph, PlainDeviceGraph};
use crate::memory::{MemoryFootprint, ScratchPlan};
use crate::sampler::{sample_batch, SampleBatch, SamplerCounters};
use crate::select::{select_on_device, ScanStrategy};

enum GraphRepr<'g> {
    Plain(PlainDeviceGraph<'g>),
    Packed(PackedDeviceGraph),
}

impl GraphRepr<'_> {
    fn device_bytes(&self) -> usize {
        match self {
            GraphRepr::Plain(g) => g.device_bytes(),
            GraphRepr::Packed(g) => DeviceGraph::device_bytes(g),
        }
    }

    /// Samples global indices `[first, first + count)` on `device`.
    fn sample(
        &self,
        device: &Device,
        config: &ImmConfig,
        first: u64,
        count: usize,
    ) -> Result<SampleBatch, EngineError> {
        let (model, seed, elim) = (config.model, config.seed, config.source_elimination);
        match self {
            GraphRepr::Plain(g) => sample_batch(device, g, model, seed, first, count, elim),
            GraphRepr::Packed(g) => sample_batch(device, g, model, seed, first, count, elim),
        }
        .map_err(EngineError::from)
    }
}

/// Sets per spilled batch under host-spill degradation. Small enough that a
/// few evictions relieve a marginal deficit, big enough to amortize the
/// per-batch PCIe latency.
const SPILL_BATCH_SETS: usize = 1024;

/// One live device of the pool.
struct Member {
    device: Device,
    /// The device's DMA engine: the graph upload, partition staging, and
    /// spill/reload traffic queue here instead of stalling compute.
    stream: CopyStream,
    /// Pending graph upload; the device's first sampling round (or
    /// selection, for a degenerate run) waits on it, so upload and compute
    /// overlap.
    upload: Option<CopyEvent>,
    /// Store bytes this device staged to the primary (0 on the primary,
    /// whose own sets never move).
    staged_bytes: usize,
    /// Construction-time ordinal: eviction compacts the pool, so slot and
    /// ordinal diverge once a device dies.
    ordinal: u64,
}

impl Member {
    /// Waits out the graph upload if it is still pending.
    fn settle_upload(&mut self) {
        if let Some(upload) = self.upload.take() {
            self.stream.wait_event(&self.device, &upload);
        }
    }

    /// Moves `bytes` over the copy stream and waits for them.
    fn copy(&mut self, bytes: usize, dir: TransferDirection) {
        let ev = self.stream.enqueue(&self.device, bytes, dir);
        self.stream.wait_event(&self.device, &ev);
    }
}

/// eIM on a pool of simulated devices. Construct with [`EimEngine::new`]
/// (one device, the paper's configuration) or [`EimEngine::with_telemetry`]
/// (`D` devices), then either drive it manually or hand it to
/// [`eim_imm::run_imm`] (which [`crate::EimBuilder`] does for you).
///
/// There is no private time accumulator: every device advances its own
/// [`eim_gpusim::SimClock`], copies ride per-device [`CopyStream`]s, and the
/// engine's elapsed time is the max over the device clocks.
pub struct EimEngine<'g> {
    /// The live devices; slot 0 is the primary, which holds the store and
    /// runs selection.
    pool: Vec<Member>,
    graph: GraphRepr<'g>,
    config: ImmConfig,
    scan: ScanStrategy,
    store: RrrStore,
    next_index: u64,
    counters: SamplerCounters,
    store_alloc_bytes: usize,
    scratch_bytes: usize,
    policy: RecoveryPolicy,
    /// Per-original-device recovery accounting, indexed by ordinal; evicted
    /// devices keep their entry (that is where their eviction is counted).
    device_reports: Vec<RecoveryReport>,
    /// The oldest `spill_cursor` sets are host-resident, evicted under
    /// memory pressure in `Degrade` mode. The canonical store keeps every
    /// set (selection scans all of them); spilling reduces only the
    /// *device-resident* byte accounting.
    spill_cursor: usize,
    spilled_bytes: usize,
}

/// Per-device recovery view of a run, for telemetry breakdowns.
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

/// The multi-device name of [`EimEngine`]. Kept because the repository
/// benchmark (`repobench/src/solve.rs`) names it and is versioned apart from
/// the engine.
pub type MultiGpuEimEngine<'g> = EimEngine<'g>;

impl<'g> EimEngine<'g> {
    /// Builds the engine on one device, placing network data and sampler
    /// scratch on it. Fails with OOM if the graph alone does not fit.
    pub fn new(
        graph: &'g Graph,
        config: ImmConfig,
        device: Device,
        scan: ScanStrategy,
    ) -> Result<Self, EngineError> {
        Self::on_pool(graph, config, vec![device], scan)
    }

    /// Builds the engine over `num_devices` identical devices of `spec` with
    /// the thread-per-set selection scan: device `j` reports into
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
        let devices = (0..num_devices)
            .map(|j| {
                Device::with_run_trace(spec, trace.for_device(j as u64))
                    .with_copy_overlap(copy_overlap)
            })
            .collect();
        Self::on_pool(graph, config, devices, ScanStrategy::ThreadPerSet)
    }

    fn on_pool(
        graph: &'g Graph,
        config: ImmConfig,
        devices: Vec<Device>,
        scan: ScanStrategy,
    ) -> Result<Self, EngineError> {
        let n = graph.num_vertices();
        config.validate(n);
        config.check_graph(graph)?;
        let repr = if config.packed {
            GraphRepr::Packed(PackedDeviceGraph::from_graph(graph))
        } else {
            GraphRepr::Plain(PlainDeviceGraph::new(graph))
        };
        let graph_bytes = repr.device_bytes();
        let scratch_bytes = ScratchPlan::new(n, devices[0].spec().num_sms * 4).total();
        for d in &devices {
            d.memory().alloc(graph_bytes + scratch_bytes)?;
        }
        // Upload (replicate) the network over PCIe, every device on its own
        // copy stream, all in flight concurrently; a clock moves only once
        // someone waits on its event (the first sampling round hides behind
        // it).
        let pool: Vec<Member> = devices
            .into_iter()
            .zip(0..)
            .map(|(device, ordinal)| {
                let mut stream = device.copy_stream();
                let upload = stream.enqueue(&device, graph_bytes, TransferDirection::HostToDevice);
                Member {
                    device,
                    stream,
                    upload: Some(upload),
                    staged_bytes: 0,
                    ordinal,
                }
            })
            .collect();
        Ok(Self {
            device_reports: vec![RecoveryReport::default(); pool.len()],
            pool,
            graph: repr,
            store: RrrStore::new(n, config.packed),
            config,
            scan,
            next_index: 0,
            counters: SamplerCounters::default(),
            store_alloc_bytes: 0,
            scratch_bytes,
            policy: RecoveryPolicy::abort(),
            spill_cursor: 0,
            spilled_bytes: 0,
        })
    }

    /// Attaches a deterministic fault plan. Device `j` runs an independent
    /// but still deterministic schedule derived from `spec`
    /// ([`FaultSpec::derive`] with the device index as salt).
    pub fn with_faults(mut self, spec: &FaultSpec) -> Self {
        let pool = std::mem::take(&mut self.pool).into_iter().zip(0..);
        self.pool = pool
            .map(|(mut m, j)| {
                let plan = FaultPlan::new(spec.derive(j));
                m.device = m.device.with_fault_plan(Arc::new(plan));
                m
            })
            .collect();
        self
    }

    /// Number of live devices.
    pub fn num_devices(&self) -> usize {
        self.pool.len()
    }

    /// Current simulated time on each device's own clock, in µs. After a
    /// sampling round these agree (bulk-synchronous barrier); store growth
    /// and selection advance only the primary.
    pub fn device_clocks_us(&self) -> Vec<f64> {
        self.pool.iter().map(|m| m.device.clock_us()).collect()
    }

    /// Sampling outcome counters so far.
    pub fn counters(&self) -> SamplerCounters {
        self.counters
    }

    /// Current memory attribution; the peak is the primary's.
    pub fn footprint(&self) -> MemoryFootprint {
        MemoryFootprint {
            graph_bytes: self.graph.device_bytes(),
            store_bytes: self.store.bytes(),
            scratch_bytes: self.scratch_bytes,
            peak_bytes: self.primary().memory_stats().peak,
        }
    }

    /// Per-device recovery breakdown, one entry per construction-time
    /// ordinal (evicted devices included).
    pub fn device_summaries(&self) -> Vec<DeviceRecoverySummary> {
        let m = self.checkpoint_manifest();
        m.devices
            .iter()
            .map(|d| DeviceRecoverySummary {
                ordinal: d.ordinal,
                evicted: d.evicted,
                clock_us: d.clock_us,
                report: self.device_reports[d.ordinal as usize],
            })
            .collect()
    }

    fn primary(&self) -> &Device {
        &self.pool[0].device
    }

    /// The latest device clock: devices run concurrently, so the pool is
    /// done when its slowest member is.
    fn latest_clock_us(&self) -> f64 {
        self.device_clocks_us().into_iter().fold(0.0, f64::max)
    }

    /// Aligns every clock to the slowest device (a barrier).
    fn barrier(&self) {
        let end = self.latest_clock_us();
        for m in &self.pool {
            m.device.clock().advance_to(end);
        }
    }

    /// Recovery accounting of the primary (spills and reloads land there).
    fn primary_report(&mut self) -> &mut RecoveryReport {
        &mut self.device_reports[self.pool[0].ordinal as usize]
    }

    /// Bytes of the store that must be device-resident (total minus what
    /// was spilled to the host).
    fn resident_store_bytes(&self) -> usize {
        self.store.bytes().saturating_sub(self.spilled_bytes)
    }

    /// Evicts the next [`SPILL_BATCH_SETS`] oldest sets to host memory,
    /// paying the d2h transfer on the primary's clock. Returns `false` once
    /// every stored set is already host-resident (nothing left to evict).
    fn spill_oldest_batch(&mut self) -> bool {
        let total = self.store.num_sets();
        if self.spill_cursor >= total {
            return false;
        }
        let end = (self.spill_cursor + SPILL_BATCH_SETS).min(total);
        let bytes = self.store.spill_bytes(self.spill_cursor, end);
        // The eviction rides the copy stream (queueing behind an in-flight
        // graph upload) but is waited on immediately: the relieved memory
        // must be visible before the allocator retries.
        let ts = self.primary().clock_us();
        self.pool[0].copy(bytes, TransferDirection::DeviceToHost);
        self.primary().run_trace().record_recovery(
            Recovery::Spill {
                sets: (end - self.spill_cursor) as u64,
                bytes: bytes as u64,
            },
            ts,
        );
        self.spill_cursor = end;
        self.spilled_bytes += bytes;
        let report = self.primary_report();
        report.spill_events += 1;
        report.spilled_bytes += bytes;
        true
    }

    /// Moves the primary's store allocation to `bytes`: reserve the new
    /// extent, copy the live content, release the old one.
    fn try_regrow(&mut self, bytes: usize, needed: usize) -> Result<(), EngineError> {
        let primary = self.primary();
        primary.memory().alloc(bytes)?;
        primary.memory().free(self.store_alloc_bytes);
        let copy_us = primary
            .spec()
            .device_copy_us(self.store_alloc_bytes.min(needed));
        primary.advance_clock(copy_us);
        self.store_alloc_bytes = bytes;
        Ok(())
    }

    /// Grows the primary's allocation backing `R`/`O` when the store
    /// outgrew it. The transient old+new residency is what makes growth a
    /// real OOM hazard. Under `Degrade`, an OOM here triggers host-spill of
    /// the oldest packed batches (shrinking the resident footprint) before
    /// giving up; an exact-fit allocation (no 1.5x headroom) is the last
    /// resort.
    fn ensure_store_capacity(&mut self) -> Result<(), EngineError> {
        loop {
            let needed = self.resident_store_bytes();
            if needed <= self.store_alloc_bytes {
                return Ok(());
            }
            let new_alloc = (needed * 3 / 2).max(4096);
            let Err(err) = self.try_regrow(new_alloc, needed) else {
                return Ok(());
            };
            if !self.policy.allows_degrade() {
                return Err(err);
            }
            // Exact fit before spilling: growth headroom is a luxury.
            if new_alloc > needed && self.try_regrow(needed, needed).is_ok() {
                return Ok(());
            }
            if !self.spill_oldest_batch() {
                return Err(err);
            }
        }
    }

    /// One sampling round over the pool. A fault returns early with the
    /// store, counters, and staging accounting untouched (only the clocks
    /// keep the wasted work), so a retry re-deals the identical ranges and
    /// commits exactly once.
    fn sample_round(&mut self, target: usize) -> Result<(), EngineError> {
        let total = target - self.next_index as usize;
        let d = self.pool.len();
        // Blocked dealing: device j samples the contiguous global range
        // [next + sum of earlier shares, +share_j). Content depends only on
        // the global index, so the merged multiset is the same at every D.
        let mut batches = Vec::with_capacity(d);
        let mut staged = vec![0usize; d];
        let mut base = self.next_index;
        for (j, m) in self.pool.iter_mut().enumerate() {
            let share = total / d + usize::from(j < total % d);
            if share == 0 {
                continue;
            }
            let batch = self.graph.sample(&m.device, &self.config, base, share)?;
            // Non-primary devices stage this round's partition to the
            // primary on their own DMA engine, double-buffered against the
            // sampling kernel: the device is done when both finish.
            let staging = if j == 0 {
                None
            } else {
                staged[j] = batch.sets.kept_lens().map(|len| len * 4 + 8).sum();
                let dir = TransferDirection::DeviceToHost;
                Some(m.stream.checked_enqueue(&m.device, staged[j], dir)?)
            };
            m.device.advance_clock(batch.stats.elapsed_us);
            // The first round computed while the graph upload was in flight;
            // the round is over only when both have finished.
            m.settle_upload();
            if let Some(ev) = staging {
                m.stream.wait_event(&m.device, &ev);
            }
            batches.push(batch);
            base += share as u64;
        }
        // Devices ran concurrently and the round is bulk-synchronous. Barrier
        // skew — how long the fastest device idles waiting for the slowest —
        // is the visible cost of a straggler window; export the worst round
        // as a high-water gauge.
        let round_end = self.latest_clock_us();
        let round_min = self
            .device_clocks_us()
            .into_iter()
            .fold(f64::INFINITY, f64::min);
        if round_end > round_min {
            self.primary()
                .run_trace()
                .metrics()
                .gauge_max("eim_round_skew_us", (round_end - round_min).round() as u64);
        }
        self.barrier();
        self.next_index = target as u64;
        for (m, s) in self.pool.iter_mut().zip(&staged) {
            m.staged_bytes += s;
        }
        // Devices own contiguous ascending index ranges and each batch is in
        // sample-index order, so appending batch by batch IS the global
        // merge order. Each batch lands in bulk with the coverage deltas the
        // sampler aggregated in flight, without re-walking any set.
        for batch in &batches {
            self.counters.add(&batch.counters);
            let lens: Vec<usize> = batch.sets.kept_lens().collect();
            self.store
                .append_batch(batch.sets.arena(), &lens, &batch.coverage);
        }
        Ok(())
    }
}

impl ImmEngine for EimEngine<'_> {
    fn n(&self) -> usize {
        self.store.num_vertices()
    }

    fn extend_to(&mut self, target: usize) -> Result<(), EngineError> {
        // Heal first: a previous call may have appended sets and then OOMed
        // growing the store allocation. Retrying (possibly after a split or
        // a pressure window expiring) must fix that capacity deficit even
        // when the sample target itself is already reached.
        self.ensure_store_capacity()?;
        // Every sampled traversal counts toward theta; eliminated-to-empty
        // samples are not stored (see [`ImmEngine::logical_sets`]).
        if (self.next_index as usize) >= target {
            return Ok(());
        }
        self.sample_round(target)?;
        self.ensure_store_capacity()
    }

    fn logical_sets(&self) -> usize {
        self.next_index as usize
    }

    fn select(&mut self, k: usize) -> Selection {
        // A run that never sampled still owes every device its graph upload.
        self.pool.iter_mut().for_each(Member::settle_upload);
        // Selection scans every stored set; spilled batches must be
        // re-streamed from the host first (the degraded-mode cost).
        let spilled = self.spilled_bytes;
        if spilled > 0 {
            let ts = self.primary().clock_us();
            self.pool[0].copy(spilled, TransferDirection::HostToDevice);
            self.primary().run_trace().record_recovery(
                Recovery::Reload {
                    bytes: spilled as u64,
                },
                ts,
            );
            let report = self.primary_report();
            report.reloaded_bytes += spilled;
            report.degraded_rounds += 1;
        }
        let result = select_on_device(self.primary(), &self.store, k, self.scan);
        let primary = self.primary();
        // The covered-flag array F is transient device scratch.
        let flag_bytes = self.store.num_sets().div_ceil(8);
        let flags_ok = primary.memory().alloc(flag_bytes).is_ok();
        if flags_ok {
            primary.memory().free(flag_bytes);
        }
        // Residency high-water for the live dashboard: bytes the RRR store
        // holds at selection time.
        primary
            .run_trace()
            .metrics()
            .gauge_max("eim_rrr_store_bytes", self.store.bytes() as u64);
        // `select_on_device` models its launches analytically rather than
        // through `Device::launch`, so record the kernel work here — one
        // event per greedy iteration, so the Figure 3 warp-vs-thread
        // crossover (first iteration dominant, later ones cheap) is visible
        // in the Perfetto timeline rather than flattened into one span.
        let mut ts = primary.advance_clock(result.elapsed_us);
        for (i, iter) in result.iterations.iter().enumerate() {
            primary.run_trace().record_kernel(
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

    fn elapsed_us(&self) -> f64 {
        self.latest_clock_us()
    }

    fn advance_time(&mut self, us: f64) {
        // Host-side time passes for every device equally, keeping the
        // bulk-synchronous clocks aligned.
        for m in &self.pool {
            m.device.advance_clock(us);
        }
    }

    fn set_recovery_policy(&mut self, policy: RecoveryPolicy) {
        self.policy = policy;
    }

    fn recovery_report(&self) -> RecoveryReport {
        let mut merged = RecoveryReport::default();
        for r in &self.device_reports {
            merged.merge(r);
        }
        merged
    }

    fn evict_lost_devices(&mut self) -> Result<Option<Eviction>, EngineError> {
        let lost = self.pool.iter().filter(|m| m.device.is_lost()).count();
        if lost == 0 || lost == self.pool.len() {
            return Ok(None);
        }
        let primary_lost = self.primary().is_lost();
        for m in self.pool.iter().rev().filter(|m| m.device.is_lost()) {
            let dev = &m.device;
            self.device_reports[m.ordinal as usize].devices_evicted += 1;
            let dead_at = dev.fault_plan().and_then(|p| p.dead_at()).unwrap_or(0);
            dev.run_trace().record_recovery(
                Recovery::EvictDevice {
                    ordinal: m.ordinal,
                    dead_at_event: dead_at,
                },
                dev.clock_us(),
            );
        }
        self.pool.retain(|m| !m.device.is_lost());
        if primary_lost {
            // Promote the first survivor to primary: it must own the
            // gathered store, so reserve the store arena there and re-upload
            // the host mirror's resident content over its copy stream — the
            // re-shard's PCIe bill, paid on the simulated clock. Spilled
            // batches stay on the host until selection reloads them.
            self.primary().memory().alloc(self.store_alloc_bytes)?;
            self.pool[0].settle_upload();
            let bytes = self.resident_store_bytes();
            if bytes > 0 {
                self.pool[0].copy(bytes, TransferDirection::HostToDevice);
            }
            // Everything now lives on the new primary; future rounds
            // accumulate fresh partitions on the survivors.
            self.pool.iter_mut().for_each(|m| m.staged_bytes = 0);
        }
        // Eviction is a barrier: survivors leave it clock-aligned, so the
        // next sampling round deals onto a consistent timeline.
        self.barrier();
        Ok(Some(Eviction {
            devices_evicted: lost as u32,
            survivors: self.pool.len(),
        }))
    }

    fn checkpoint_manifest(&self) -> EngineManifest {
        let devices = (0..self.device_reports.len() as u64)
            .map(|ordinal| {
                let slot = self.pool.iter().position(|m| m.ordinal == ordinal);
                DeviceManifest {
                    ordinal,
                    clock_us: slot.map_or(0.0, |s| self.pool[s].device.clock_us()),
                    evicted: slot.is_none(),
                    // The primary holds the whole store.
                    partition_bytes: match slot {
                        Some(0) => self.store.bytes(),
                        Some(s) => self.pool[s].staged_bytes,
                        None => 0,
                    },
                }
            })
            .collect();
        EngineManifest {
            devices,
            gathered_bytes: self.pool[1..].iter().map(|m| m.staged_bytes).sum(),
            store_alloc_bytes: self.store_alloc_bytes,
        }
    }

    fn restore_manifest(&mut self, m: &EngineManifest) -> Result<(), EngineError> {
        // Restore runs on a freshly built engine: every original device is
        // still present, so the manifest must describe the same topology.
        m.check(self.pool.len())?;
        // The allocation backs the replayed store, so it holds at least the
        // store's device-resident bytes: a smaller one was never written by
        // a run that reached this store.
        let resident = self.resident_store_bytes();
        if m.store_alloc_bytes < resident {
            return Err(EngineError::CheckpointMismatch {
                expected: resident as u64,
                found: m.store_alloc_bytes as u64,
            });
        }
        // The replay already sampled everything and waited out some
        // uploads; settle the rest so the pinned clocks below are final.
        self.pool.iter_mut().for_each(Member::settle_upload);
        // Reproduce the checkpointed eviction topology without re-paying the
        // re-shard: the checkpointed run already charged it, and the clocks
        // we pin below carry that cost.
        let primary_evicted = m.devices[0].evicted;
        self.pool.retain(|d| !m.devices[d.ordinal as usize].evicted);
        // Pin the primary store allocation: the replay's single bulk
        // extension grew it along a different (cheaper) path than the
        // original incremental run, and resumed timing must match the
        // original exactly. If the original primary was evicted its memory
        // went with it, and the surviving primary reserves the manifest's
        // allocation afresh.
        if !primary_evicted {
            self.primary().memory().free(self.store_alloc_bytes);
        }
        self.primary().memory().alloc(m.store_alloc_bytes)?;
        self.store_alloc_bytes = m.store_alloc_bytes;
        for (slot, member) in self.pool.iter_mut().enumerate() {
            let dm = &m.devices[member.ordinal as usize];
            if slot > 0 {
                member.staged_bytes = dm.partition_bytes;
            }
            member.device.clock().set_us(dm.clock_us);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eim_diffusion::DiffusionModel;
    use eim_graph::{generators, WeightModel};
    use eim_imm::{run_imm, run_imm_recovering, store_digest};

    fn cfg() -> ImmConfig {
        ImmConfig::paper_default()
            .with_k(3)
            .with_epsilon(0.3)
            .with_seed(11)
    }

    fn device() -> Device {
        Device::new(DeviceSpec::rtx_a6000_with_mem(64 << 20))
    }

    /// Config and graph of the multi-device tests.
    fn pool_cfg() -> ImmConfig {
        ImmConfig::paper_default()
            .with_k(4)
            .with_epsilon(0.25)
            .with_seed(13)
    }

    fn pool_graph() -> Graph {
        generators::rmat(
            600,
            3_600,
            generators::RmatParams::GRAPH500,
            WeightModel::WeightedCascade,
            21,
        )
    }

    /// A pool of `d` untraced devices of `spec`, copy overlap on.
    fn pool<'g>(g: &'g Graph, c: ImmConfig, spec: DeviceSpec, d: usize) -> EimEngine<'g> {
        EimEngine::with_telemetry(g, c, spec, d, &RunTrace::disabled(), true).unwrap()
    }

    fn roomy() -> DeviceSpec {
        DeviceSpec::rtx_a6000_with_mem(256 << 20)
    }

    #[test]
    fn full_run_on_scale_free_graph() {
        let g = generators::barabasi_albert(400, 3, WeightModel::WeightedCascade, 2);
        let c = cfg();
        let mut e = EimEngine::new(&g, c, device(), ScanStrategy::ThreadPerSet).unwrap();
        let r = run_imm(&mut e, &c).unwrap();
        assert_eq!(r.seeds.len(), 3);
        assert!(r.coverage > 0.0);
        assert!(e.elapsed_us() > 0.0);
        let fp = e.footprint();
        assert!(fp.store_bytes > 0);
        assert!(fp.peak_bytes >= fp.graph_bytes);
    }

    #[test]
    fn matches_cpu_engine_seed_quality() {
        // eIM and the CPU reference sample from the same distribution and
        // run the same greedy; on a graph with a dominant hub both must
        // put the hub first.
        let g = generators::star_out(300, WeightModel::WeightedCascade);
        let c = cfg().with_source_elimination(false);
        let mut e = EimEngine::new(&g, c, device(), ScanStrategy::ThreadPerSet).unwrap();
        let r = run_imm(&mut e, &c).unwrap();
        assert_eq!(r.seeds[0], 0);
    }

    #[test]
    fn deterministic_end_to_end() {
        let g = generators::rmat(
            250,
            1_500,
            generators::RmatParams::GRAPH500,
            WeightModel::WeightedCascade,
            7,
        );
        let c = cfg();
        let run = || {
            let mut e = EimEngine::new(&g, c, device(), ScanStrategy::ThreadPerSet).unwrap();
            let r = run_imm(&mut e, &c).unwrap();
            (r.seeds.clone(), r.num_sets, e.elapsed_us(), e.counters())
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }

    #[test]
    fn graph_too_big_for_device_is_oom_at_construction() {
        let g = generators::rmat(
            2_000,
            20_000,
            generators::RmatParams::GRAPH500,
            WeightModel::WeightedCascade,
            7,
        );
        let tiny = Device::new(DeviceSpec::rtx_a6000_with_mem(16 << 10));
        let err = EimEngine::new(&g, cfg(), tiny, ScanStrategy::ThreadPerSet)
            .err()
            .expect("graph cannot fit");
        assert!(matches!(err, EngineError::OutOfMemory { .. }));
    }

    fn spill_graph() -> Graph {
        generators::rmat(
            500,
            5_000,
            generators::RmatParams::GRAPH500,
            WeightModel::WeightedCascade,
            7,
        )
    }

    /// Enough for graph + scratch but too small for the RRR store of
    /// [`spill_graph`] at epsilon = 0.1.
    fn spill_budget() -> DeviceSpec {
        let scratch = ScratchPlan::new(500, 84 * 4).total();
        DeviceSpec::rtx_a6000_with_mem(scratch + (60 << 10))
    }

    #[test]
    fn store_growth_can_oom_mid_run() {
        let g = spill_graph();
        let d = Device::new(spill_budget());
        let c = cfg().with_epsilon(0.1);
        match EimEngine::new(&g, c, d, ScanStrategy::ThreadPerSet) {
            Ok(mut e) => {
                let err = run_imm(&mut e, &c).unwrap_err();
                assert!(matches!(err, EngineError::OutOfMemory { .. }));
            }
            Err(err) => assert!(matches!(err, EngineError::OutOfMemory { .. })),
        }
    }

    #[test]
    fn degrade_mode_finishes_where_abort_ooms_and_seeds_match() {
        let g = spill_graph();
        let c = cfg().with_epsilon(0.1);
        // Same budget that makes `store_growth_can_oom_mid_run` fail.
        let tiny = || Device::new(spill_budget());
        let mut abort_engine = EimEngine::new(&g, c, tiny(), ScanStrategy::ThreadPerSet).unwrap();
        let err = run_imm(&mut abort_engine, &c).unwrap_err();
        assert!(matches!(err, EngineError::OutOfMemory { .. }));

        let mut degrade_engine = EimEngine::new(&g, c, tiny(), ScanStrategy::ThreadPerSet).unwrap();
        let degraded = run_imm_recovering(
            &mut degrade_engine,
            &c,
            &RecoveryPolicy::degrade(),
            &RunTrace::disabled(),
        )
        .expect("host spill must rescue the run");
        assert!(degraded.recovery.spill_events > 0, "nothing was spilled");
        assert!(degraded.recovery.spilled_bytes > 0);
        assert!(degraded.recovery.reloaded_bytes > 0, "selection reloads");
        assert!(degraded.recovery.degraded_rounds > 0);

        // Degradation trades time, never answers: a device with ample
        // memory selects the same seeds.
        let mut clean_engine = EimEngine::new(&g, c, device(), ScanStrategy::ThreadPerSet).unwrap();
        let clean = run_imm(&mut clean_engine, &c).unwrap();
        assert_eq!(degraded.seeds, clean.seeds);
        assert_eq!(degraded.num_sets, clean.num_sets);
        // The spilled run pays PCIe round-trips the clean run does not.
        assert!(degrade_engine.elapsed_us() > clean_engine.elapsed_us());
    }

    #[test]
    fn degrade_mode_rescues_a_pool_of_two() {
        let g = spill_graph();
        let c = cfg().with_epsilon(0.1);
        let mut abort_engine = pool(&g, c, spill_budget(), 2);
        let err = run_imm(&mut abort_engine, &c).unwrap_err();
        assert!(matches!(err, EngineError::OutOfMemory { .. }));

        let mut degrade_engine = pool(&g, c, spill_budget(), 2);
        let degraded = run_imm_recovering(
            &mut degrade_engine,
            &c,
            &RecoveryPolicy::degrade(),
            &RunTrace::disabled(),
        )
        .expect("host spill must rescue a pool too");
        assert!(degraded.recovery.spill_events > 0, "nothing was spilled");
        assert!(degraded.recovery.reloaded_bytes > 0, "selection reloads");

        let clean = run_imm(&mut pool(&g, c, roomy(), 2), &c).unwrap();
        assert_eq!(degraded.seeds, clean.seeds);
        assert_eq!(degraded.num_sets, clean.num_sets);
    }

    #[test]
    fn packed_store_uses_less_device_memory_than_plain() {
        let g = generators::rmat(
            2_000,
            12_000,
            generators::RmatParams::GRAPH500,
            WeightModel::WeightedCascade,
            3,
        );
        let run = |packed: bool| {
            let c = cfg().with_packed(packed);
            let mut e = EimEngine::new(&g, c, device(), ScanStrategy::ThreadPerSet).unwrap();
            run_imm(&mut e, &c).unwrap();
            e.footprint()
        };
        let packed = run(true);
        let plain = run(false);
        assert!(packed.graph_bytes < plain.graph_bytes);
        assert!(packed.store_bytes < plain.store_bytes);
    }

    #[test]
    fn source_elimination_counters_track_singletons() {
        let g = generators::star_in(200, WeightModel::WeightedCascade);
        let c = cfg().with_k(1);
        let mut e = EimEngine::new(&g, c, device(), ScanStrategy::ThreadPerSet).unwrap();
        let _ = run_imm(&mut e, &c).unwrap();
        let counters = e.counters();
        assert!(counters.singletons > 0);
        assert_eq!(counters.discarded, counters.singletons);
        assert!(counters.sampled >= counters.discarded);
    }

    // ---- pools of devices ----

    #[test]
    fn same_seeds_as_single_device() {
        let g = pool_graph();
        let c = pool_cfg();
        let mut multi = pool(&g, c, roomy(), 4);
        let r_multi = run_imm(&mut multi, &c).unwrap();
        let r_single = crate::EimBuilder::new(&g)
            .config(c)
            .device(roomy())
            .run()
            .unwrap();
        assert_eq!(r_multi.seeds, r_single.seeds);
        assert_eq!(r_multi.num_sets, r_single.num_sets);
        assert_eq!(r_multi.total_elements, r_single.total_elements);
    }

    #[test]
    fn pool_of_one_is_the_paper_engine() {
        // `with_telemetry` at D = 1 and `new` must be the same engine, bit
        // for bit: seeds, store, clock, memory, and checkpoint state.
        let g = pool_graph();
        for model in [
            DiffusionModel::IndependentCascade,
            DiffusionModel::LinearThreshold,
        ] {
            for packed in [false, true] {
                let c = pool_cfg().with_model(model).with_packed(packed);
                let mut one = pool(&g, c, roomy(), 1);
                let mut paper =
                    EimEngine::new(&g, c, Device::new(roomy()), ScanStrategy::ThreadPerSet)
                        .unwrap();
                let r_one = run_imm(&mut one, &c).unwrap();
                let r_paper = run_imm(&mut paper, &c).unwrap();
                let at = format!("{model:?}, packed={packed}");
                assert_eq!(r_one.seeds, r_paper.seeds, "{at}");
                assert_eq!(store_digest(&one.store), store_digest(&paper.store), "{at}");
                assert_eq!(
                    one.elapsed_us().to_bits(),
                    paper.elapsed_us().to_bits(),
                    "{at}"
                );
                assert_eq!(one.footprint(), paper.footprint(), "{at}");
                assert_eq!(
                    one.checkpoint_manifest(),
                    paper.checkpoint_manifest(),
                    "{at}"
                );
            }
        }
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
        let c = pool_cfg();
        let spec = DeviceSpec::rtx_a6000_with_mem(512 << 20);
        let time = |d: usize| {
            let mut e = pool(&g, c, spec, d);
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
        let g = pool_graph();
        let c = pool_cfg();
        let spec = DeviceSpec::rtx_a6000_with_mem(512 << 20);
        let time = |d: usize| {
            let mut e = pool(&g, c, spec, d);
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
    fn deterministic_across_runs() {
        let g = pool_graph();
        let c = pool_cfg();
        let run = || {
            let mut e = pool(&g, c, roomy(), 3);
            let r = run_imm(&mut e, &c).unwrap();
            (r.seeds.clone(), r.num_sets, e.elapsed_us())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn graph_must_fit_every_device() {
        let g = pool_graph();
        let spec = DeviceSpec::rtx_a6000_with_mem(16 << 10);
        let err = EimEngine::with_telemetry(&g, pool_cfg(), spec, 2, &RunTrace::disabled(), true)
            .err()
            .expect("tiny devices cannot hold the graph");
        assert!(matches!(err, EngineError::OutOfMemory { .. }));
    }

    // ---- device loss, eviction, and re-sharding ----

    fn clean_reference(g: &Graph, c: &ImmConfig) -> (Vec<u32>, usize) {
        let r = run_imm(&mut pool(g, *c, roomy(), 4), c).unwrap();
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
        let mut e = pool(g, *c, roomy(), 4).with_faults(&FaultSpec::parse(fault_spec).unwrap());
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
        let g = pool_graph();
        let c = pool_cfg();
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
        let g = pool_graph();
        let c = pool_cfg();
        let (clean_seeds, clean_sets) = clean_reference(&g, &c);
        let mut e = pool(&g, c, roomy(), 4);
        let kill_primary = FaultSpec::parse("seed=1,device_fail=0.999").unwrap();
        let mut primary = e.pool.remove(0);
        primary.device = primary
            .device
            .with_fault_plan(Arc::new(FaultPlan::new(kill_primary)));
        e.pool.insert(0, primary);
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
        let g = pool_graph();
        let c = pool_cfg();
        let (clean_seeds, clean_sets) = clean_reference(&g, &c);
        let clean_time = {
            let mut e = pool(&g, c, roomy(), 4);
            run_imm(&mut e, &c).unwrap();
            e.elapsed_us()
        };
        let mut e = pool(&g, c, roomy(), 4)
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

    // ---- checkpoint manifests ----

    #[test]
    fn manifest_restores_clocks_and_partitions_onto_a_fresh_engine() {
        let g = pool_graph();
        let c = pool_cfg();
        let mut a = pool(&g, c, roomy(), 3);
        a.extend_to(4_000).unwrap();
        let manifest = a.checkpoint_manifest();
        assert_eq!(manifest.devices.len(), 3);

        let mut b = pool(&g, c, roomy(), 3);
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

    /// Restores `m` onto a freshly replayed pool of `d`.
    fn restore_onto(d: usize, m: &EngineManifest) -> Result<(), EngineError> {
        let g = pool_graph();
        let mut e = pool(&g, pool_cfg(), roomy(), d);
        e.extend_to(4_000).unwrap();
        e.restore_manifest(m)
    }

    /// The manifest of a pool of `d` that sampled 4000 sets.
    fn manifest_of(d: usize) -> EngineManifest {
        let g = pool_graph();
        let mut e = pool(&g, pool_cfg(), roomy(), d);
        e.extend_to(4_000).unwrap();
        e.checkpoint_manifest()
    }

    fn is_mismatch(r: Result<(), EngineError>) -> bool {
        matches!(r, Err(EngineError::CheckpointMismatch { .. }))
    }

    #[test]
    fn manifest_topology_mismatch_is_a_typed_error() {
        assert!(is_mismatch(restore_onto(4, &manifest_of(2))));
    }

    #[test]
    fn pool_of_one_rejects_a_four_device_manifest() {
        // A single device must not pin its clock from device 0 of a pool.
        assert!(is_mismatch(restore_onto(1, &manifest_of(4))));
    }

    #[test]
    fn manifest_gathering_more_than_was_staged_is_a_typed_error() {
        let mut m = manifest_of(3);
        let staged: usize = m.devices[1..].iter().map(|d| d.partition_bytes).sum();
        assert_eq!(m.gathered_bytes, staged);
        m.gathered_bytes = staged + 1;
        assert!(is_mismatch(restore_onto(3, &m)));
    }

    #[test]
    fn manifest_with_an_impossible_clock_is_a_typed_error() {
        for clock in [f64::NAN, f64::INFINITY, -1.0] {
            let mut m = manifest_of(2);
            m.devices[1].clock_us = clock;
            assert!(is_mismatch(restore_onto(2, &m)), "clock {clock}");
        }
    }
}
