//! The eIM engine: ties sampler, store, and selection together as an
//! [`ImmEngine`] backend for the shared IMM driver.

use eim_bitpack::PackedCsc;
use eim_gpusim::ArgValue;
use eim_gpusim::{CopyEvent, CopyStream, Device, MemoryError, TransferDirection};
use eim_graph::Graph;
use eim_imm::{
    AnyRrrStore, DeviceManifest, EngineError, EngineManifest, ImmConfig, ImmEngine, PackedRrrBatch,
    RecoveryPolicy, RecoveryReport, RrrSets, RrrStoreBuilder, Selection,
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
}

fn to_engine_error(e: MemoryError) -> EngineError {
    EngineError::from(e)
}

/// Sets per spilled batch under host-spill degradation. Small enough that a
/// few evictions relieve a marginal deficit, big enough to amortize the
/// per-batch PCIe latency.
const SPILL_BATCH_SETS: usize = 1024;

/// eIM on a simulated device. Construct with [`EimEngine::new`], then either
/// drive it manually or hand it to [`eim_imm::run_imm`] (which
/// [`crate::EimBuilder`] does for you).
pub struct EimEngine<'g> {
    device: Device,
    /// The device's DMA engine: the graph upload and spill/reload traffic
    /// queue here instead of stalling compute.
    stream: CopyStream,
    /// Pending initial graph upload; the first sampling round (or selection,
    /// for a degenerate run) waits on it, so upload and compute overlap.
    upload: Option<CopyEvent>,
    graph: GraphRepr<'g>,
    config: ImmConfig,
    scan: ScanStrategy,
    store: AnyRrrStore,
    next_index: u64,
    counters: SamplerCounters,
    store_alloc_bytes: usize,
    scratch: ScratchPlan,
    policy: RecoveryPolicy,
    report: RecoveryReport,
    /// Host-resident copies of the oldest `spill_cursor` sets, evicted under
    /// memory pressure in `Degrade` mode. The canonical store keeps every
    /// set (selection scans all of them); spilling reduces only the
    /// *device-resident* byte accounting.
    spill_arena: Vec<PackedRrrBatch>,
    spill_cursor: usize,
    spilled_bytes: usize,
}

impl<'g> EimEngine<'g> {
    /// Builds the engine, placing network data and sampler scratch on the
    /// device. Fails with OOM if the graph alone does not fit.
    pub fn new(
        graph: &'g Graph,
        config: ImmConfig,
        device: Device,
        scan: ScanStrategy,
    ) -> Result<Self, EngineError> {
        let n = graph.num_vertices();
        config.validate(n);
        let repr = if config.packed {
            GraphRepr::Packed(PackedDeviceGraph::new(PackedCsc::from_graph(graph)))
        } else {
            GraphRepr::Plain(PlainDeviceGraph::new(graph))
        };
        let blocks = device.spec().num_sms * 4;
        let scratch = ScratchPlan::new(n, blocks);
        device
            .memory()
            .alloc(repr.device_bytes() + scratch.total())
            .map_err(to_engine_error)?;
        // Upload the network over PCIe on the copy stream; the run's
        // timeline starts here, but the clock only moves once someone
        // waits on the event (the first sampling round hides behind it).
        let mut stream = device.copy_stream();
        let upload = Some(stream.enqueue(
            &device,
            repr.device_bytes(),
            TransferDirection::HostToDevice,
        ));
        let store = AnyRrrStore::new(n, config.packed);
        Ok(Self {
            device,
            stream,
            upload,
            graph: repr,
            store,
            config,
            scan,
            next_index: 0,
            counters: SamplerCounters::default(),
            store_alloc_bytes: 0,
            scratch,
            policy: RecoveryPolicy::abort(),
            report: RecoveryReport::default(),
            spill_arena: Vec::new(),
            spill_cursor: 0,
            spilled_bytes: 0,
        })
    }

    /// The device this engine runs on.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Sampling outcome counters so far.
    pub fn counters(&self) -> SamplerCounters {
        self.counters
    }

    /// Current memory attribution.
    pub fn footprint(&self) -> MemoryFootprint {
        MemoryFootprint {
            graph_bytes: self.graph.device_bytes(),
            store_bytes: self.store.bytes(),
            scratch_bytes: self.scratch.total(),
            peak_bytes: self.device.memory_stats().peak,
        }
    }

    fn run_batch(&mut self, count: usize) -> Result<SampleBatch, EngineError> {
        let (device, config) = (&self.device, &self.config);
        match &self.graph {
            GraphRepr::Plain(g) => sample_batch(
                device,
                g,
                config.model,
                config.seed,
                self.next_index,
                count,
                config.source_elimination,
            ),
            GraphRepr::Packed(g) => sample_batch(
                device,
                g,
                config.model,
                config.seed,
                self.next_index,
                count,
                config.source_elimination,
            ),
        }
        .map_err(EngineError::from)
    }

    /// Bytes of the store that must be device-resident (total minus what
    /// was spilled to the host).
    fn resident_store_bytes(&self) -> usize {
        self.store.bytes().saturating_sub(self.spilled_bytes)
    }

    /// Evicts the next [`SPILL_BATCH_SETS`] oldest sets to host memory,
    /// paying the d2h transfer on the simulated clock. Returns `false` once
    /// every stored set is already host-resident (nothing left to evict).
    fn spill_oldest_batch(&mut self) -> bool {
        let total = self.store.num_sets();
        if self.spill_cursor >= total {
            return false;
        }
        let end = (self.spill_cursor + SPILL_BATCH_SETS).min(total);
        let batch = PackedRrrBatch::pack_range(&self.store, self.spill_cursor, end);
        let bytes = batch.device_bytes();
        // The eviction rides the copy stream (queueing behind an in-flight
        // graph upload) but is waited on immediately: the relieved memory
        // must be visible before the allocator retries.
        let ts = self.device.clock_us();
        let ev = self
            .stream
            .enqueue(&self.device, bytes, TransferDirection::DeviceToHost);
        self.stream.wait_event(&self.device, &ev);
        self.device.run_trace().record_recovery(
            "recover:spill",
            ts,
            vec![
                ("sets", ArgValue::U64((end - self.spill_cursor) as u64)),
                ("bytes", ArgValue::U64(bytes as u64)),
            ],
        );
        self.spill_cursor = end;
        self.spilled_bytes += bytes;
        self.report.spill_events += 1;
        self.report.spilled_bytes += bytes;
        self.spill_arena.push(batch);
        true
    }

    /// Grows the device allocation backing `R`/`O` when the store outgrew
    /// it: reserve the new extent, copy, release the old one. The transient
    /// old+new residency is what makes growth a real OOM hazard. Under
    /// `Degrade`, an OOM here triggers host-spill of the oldest packed
    /// batches (shrinking the resident footprint) before giving up; an
    /// exact-fit allocation (no 1.5x headroom) is the last resort.
    fn ensure_store_capacity(&mut self) -> Result<(), EngineError> {
        loop {
            let needed = self.resident_store_bytes();
            if needed <= self.store_alloc_bytes {
                return Ok(());
            }
            let new_alloc = (needed * 3 / 2).max(4096);
            let err = match self.device.memory().alloc(new_alloc) {
                Ok(()) => {
                    self.device.memory().free(self.store_alloc_bytes);
                    self.device.advance_clock(
                        self.device
                            .spec()
                            .device_copy_us(self.store_alloc_bytes.min(needed)),
                    );
                    self.store_alloc_bytes = new_alloc;
                    return Ok(());
                }
                Err(e) => e,
            };
            if !self.policy.allows_degrade() {
                return Err(to_engine_error(err));
            }
            // Exact fit before spilling: growth headroom is a luxury.
            if new_alloc > needed && self.device.memory().alloc(needed).is_ok() {
                self.device.memory().free(self.store_alloc_bytes);
                self.device.advance_clock(
                    self.device
                        .spec()
                        .device_copy_us(self.store_alloc_bytes.min(needed)),
                );
                self.store_alloc_bytes = needed;
                return Ok(());
            }
            if !self.spill_oldest_batch() {
                return Err(to_engine_error(err));
            }
        }
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
        let batch_size = target - self.next_index as usize;
        // A faulted launch commits nothing: next_index, counters, and the
        // store are untouched, so a retry resamples the identical indices.
        let batch = self.run_batch(batch_size)?;
        self.next_index = target as u64;
        self.device.advance_clock(batch.stats.elapsed_us);
        // The first round computed while the graph upload was in flight;
        // the round is over only when both have finished.
        if let Some(upload) = self.upload.take() {
            self.stream.wait_event(&self.device, &upload);
        }
        self.counters.sampled += batch.counters.sampled;
        self.counters.singletons += batch.counters.singletons;
        self.counters.discarded += batch.counters.discarded;
        // Bulk-ingest the batch: the arena is already in append order and
        // the sampler aggregated the C deltas in flight, so the store grows
        // without re-walking any set.
        let lens: Vec<usize> = batch.sets.kept_lens().collect();
        self.store
            .append_batch(batch.sets.arena(), &lens, &batch.coverage);
        self.ensure_store_capacity()?;
        Ok(())
    }

    fn logical_sets(&self) -> usize {
        self.next_index as usize
    }

    fn select(&mut self, k: usize) -> Selection {
        // A run that never sampled still owes the graph upload.
        if let Some(upload) = self.upload.take() {
            self.stream.wait_event(&self.device, &upload);
        }
        // Selection scans every stored set; spilled batches must be
        // re-streamed from the host first (the degraded-mode cost).
        if self.spilled_bytes > 0 {
            let ts = self.device.clock_us();
            let ev = self.stream.enqueue(
                &self.device,
                self.spilled_bytes,
                TransferDirection::HostToDevice,
            );
            self.stream.wait_event(&self.device, &ev);
            self.device.run_trace().record_recovery(
                "recover:reload",
                ts,
                vec![("bytes", ArgValue::U64(self.spilled_bytes as u64))],
            );
            self.report.reloaded_bytes += self.spilled_bytes;
            self.report.degraded_rounds += 1;
        }
        // The covered-flag array F is transient device scratch.
        let flag_bytes = self.store.num_sets().div_ceil(8);
        let flags_ok = self.device.memory().alloc(flag_bytes).is_ok();
        let result = select_on_device(&self.device, &self.store, k, self.scan);
        if flags_ok {
            self.device.memory().free(flag_bytes);
        }
        // Residency high-water for the live dashboard: bytes the RRR store
        // holds at selection time.
        self.device
            .run_trace()
            .metrics()
            .gauge_max("eim_rrr_store_bytes", self.store.bytes() as u64);
        // `select_on_device` models its launches analytically rather than
        // through `Device::launch`, so record the kernel work here — one
        // event per greedy iteration, so the Figure 3 warp-vs-thread
        // crossover (first iteration dominant, later ones cheap) is visible
        // in the Perfetto timeline rather than flattened into one span.
        let mut ts = self.device.advance_clock(result.elapsed_us);
        for (i, iter) in result.iterations.iter().enumerate() {
            self.device.run_trace().record_kernel_hw(
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
        self.device.clock_us()
    }

    fn advance_time(&mut self, us: f64) {
        self.device.advance_clock(us);
    }

    fn set_recovery_policy(&mut self, policy: RecoveryPolicy) {
        self.policy = policy;
    }

    fn recovery_report(&self) -> RecoveryReport {
        self.report
    }

    fn checkpoint_manifest(&self) -> EngineManifest {
        EngineManifest {
            devices: vec![DeviceManifest {
                ordinal: 0,
                clock_us: self.device.clock_us(),
                evicted: false,
                partition_bytes: self.store.bytes(),
            }],
            gathered_bytes: 0,
            store_alloc_bytes: self.store_alloc_bytes,
        }
    }

    fn restore_manifest(&mut self, m: &EngineManifest) -> Result<(), EngineError> {
        if m.devices.is_empty() {
            return Ok(());
        }
        // The replay already sampled everything; settle the graph upload so
        // the pinned clock below is final.
        if let Some(upload) = self.upload.take() {
            self.stream.wait_event(&self.device, &upload);
        }
        // Pin the store allocation: the replay's single bulk extension grew
        // it along a different (cheaper) path than the original incremental
        // run, and resumed timing must match the original exactly.
        self.device.memory().free(self.store_alloc_bytes);
        self.device
            .memory()
            .alloc(m.store_alloc_bytes)
            .map_err(to_engine_error)?;
        self.store_alloc_bytes = m.store_alloc_bytes;
        self.device.clock().set_us(m.devices[0].clock_us);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eim_gpusim::DeviceSpec;
    use eim_graph::{generators, WeightModel};
    use eim_imm::run_imm;

    fn cfg() -> ImmConfig {
        ImmConfig::paper_default()
            .with_k(3)
            .with_epsilon(0.3)
            .with_seed(11)
    }

    fn device() -> Device {
        Device::new(DeviceSpec::rtx_a6000_with_mem(64 << 20))
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

    #[test]
    fn store_growth_can_oom_mid_run() {
        let g = generators::rmat(
            500,
            5_000,
            generators::RmatParams::GRAPH500,
            WeightModel::WeightedCascade,
            7,
        );
        // Enough for graph + scratch but too small for the RRR store at
        // epsilon = 0.2.
        let scratch = ScratchPlan::new(500, 84 * 4).total();
        let budget = scratch + (60 << 10);
        let d = Device::new(DeviceSpec::rtx_a6000_with_mem(budget));
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
        use eim_gpusim::RunTrace;
        use eim_imm::{run_imm_recovering, RecoveryPolicy};
        let g = generators::rmat(
            500,
            5_000,
            generators::RmatParams::GRAPH500,
            WeightModel::WeightedCascade,
            7,
        );
        let c = cfg().with_epsilon(0.1);
        // Same budget that makes `store_growth_can_oom_mid_run` fail.
        let scratch = ScratchPlan::new(500, 84 * 4).total();
        let budget = scratch + (60 << 10);
        let tiny = || Device::new(DeviceSpec::rtx_a6000_with_mem(budget));
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
}
