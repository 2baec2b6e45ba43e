//! gIM reimplementation (§2.3 of the paper; Shahrouz et al., TPDS '21).
//!
//! Same warp-wide BFS as eIM, but with gIM's design decisions — each the
//! source of a measured difference in the evaluation:
//!
//! * the BFS queue starts in **shared memory**; when it overflows the
//!   block's budget, gIM dynamically allocates global chunks mid-kernel
//!   (`Op::DeviceMalloc`, plus allocator fragmentation that is never fully
//!   returned — the "can eventually exhaust the GPU's memory" failure of
//!   §2.3);
//! * finished queues are written to a per-block **temporary RRR buffer** in
//!   global memory and then copied again into `R` — double the copy-out
//!   traffic;
//! * network data and `R` are stored **uncompressed**;
//! * no source elimination;
//! * selection scans assign one **warp** per RRR set.

use eim_diffusion::{lt_choose, sample_rng, DiffusionModel};
use eim_gpusim::{CopyEvent, CopyStream, Device, Op, TransferDirection, WARP_SIZE};
use eim_graph::{Graph, VertexId};
use eim_imm::{EngineError, ImmConfig, ImmEngine, RrrSets, RrrStore, RrrStoreBuilder, Selection};
use rand::Rng;

use eim_core::select::{select_on_device, ScanStrategy};
use eim_core::{DeviceGraph, PlainDeviceGraph};

/// Fraction of each dynamic spill chunk lost to allocator fragmentation and
/// never returned to the free pool.
const FRAGMENTATION_LEAK: f64 = 0.10;
/// Spill chunks round up to this multiple of the request (buddy-style).
const ALLOC_ROUNDING: usize = 2;

/// Output of one gIM sampling batch: sets in index order, simulated
/// microseconds, spill events, and fragmentation-leaked bytes.
type GimBatch = (Vec<Vec<VertexId>>, f64, u64, usize);

/// gIM as an [`ImmEngine`] backend.
pub struct GimEngine<'g> {
    device: Device,
    /// DMA engine carrying the initial network upload.
    stream: CopyStream,
    /// Pending graph upload; the first sampling round waits on it, so
    /// upload and compute overlap.
    upload: Option<CopyEvent>,
    graph: &'g Graph,
    config: ImmConfig,
    store: RrrStore,
    next_index: u64,
    store_alloc_bytes: usize,
    leaked_bytes: usize,
    spill_events: u64,
}

impl<'g> GimEngine<'g> {
    /// Builds the engine; places the uncompressed graph, per-block bitmaps,
    /// and per-block temporary RRR buffers on the device.
    pub fn new(graph: &'g Graph, config: ImmConfig, device: Device) -> Result<Self, EngineError> {
        let n = graph.num_vertices();
        config.validate(n);
        config.check_graph(graph)?;
        let blocks = device.spec().num_sms * 4;
        // M bitmaps + temp RRR buffers (n u32 per block) + counts C.
        let scratch = blocks * n.div_ceil(8) + blocks * n * 4 + n * 4;
        device
            .memory()
            .alloc(graph.csc_bytes() + scratch)
            .map_err(EngineError::from)?;
        // Upload the uncompressed network over PCIe on the copy stream; the
        // clock only moves once the first sampling round waits on it.
        let mut stream = device.copy_stream();
        let upload =
            Some(stream.enqueue(&device, graph.csc_bytes(), TransferDirection::HostToDevice));
        Ok(Self {
            device,
            stream,
            upload,
            graph,
            // gIM stores plain (never packed, never eliminates sources).
            store: RrrStore::new(n, false),
            config,
            next_index: 0,
            store_alloc_bytes: 0,
            leaked_bytes: 0,
            spill_events: 0,
        })
    }

    /// The device this engine runs on.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Dynamic-allocation spill events observed so far.
    pub fn spill_events(&self) -> u64 {
        self.spill_events
    }

    /// Bytes lost to allocator fragmentation so far.
    pub fn leaked_bytes(&self) -> usize {
        self.leaked_bytes
    }

    /// Device bytes attributable to the (plain) RRR store right now.
    pub fn store_bytes(&self) -> usize {
        self.store.bytes()
    }

    fn sample_batch(&self, start: u64, count: usize) -> Result<GimBatch, EngineError> {
        // Injected launch faults hit before the kernel touches anything, so
        // a retry resamples the identical index range from scratch.
        self.device.check_kernel_fault("gim_sample")?;
        let graph = PlainDeviceGraph::new(self.graph);
        let n = self.graph.num_vertices();
        let spec = *self.device.spec();
        let shared_queue_entries = (spec.shared_mem_per_block / 2 / 4).max(32);
        let blocks = (spec.num_sms * 4).min(count.max(1));
        let model = self.config.model;
        let seed = self.config.seed;
        let device = &self.device;

        let result = device
            .try_launch("gim_sample", blocks, |ctx| {
                let b = ctx.block_id();
                let mut visited = vec![false; n];
                ctx.charge_warp_sweep(n.div_ceil(32), ctx.spec().costs.global_access);
                let mut out: Vec<(u64, Vec<VertexId>)> = Vec::new();
                let mut spills = 0u64;
                let mut leaked = 0usize;
                let mut j = b;
                while j < count {
                    let idx = start + j as u64;
                    let mut rng = sample_rng(seed, idx);
                    let source: VertexId = rng.gen_range(0..n as VertexId);
                    ctx.charge(Op::Rng, 1);
                    ctx.charge(Op::SharedAccess, 2); // queue init in shared mem
                    let mut queue = vec![source];
                    visited[source as usize] = true;
                    // Spill bookkeeping: chunks allocated when the queue grows
                    // past shared capacity.
                    let mut spilled_chunks = 0usize;
                    let chunk_bytes = shared_queue_entries * 4;

                    match model {
                        DiffusionModel::IndependentCascade => {
                            let wave = ctx.spec().costs.shared_access
                                + ctx.spec().costs.global_access
                                + ctx.spec().costs.rng;
                            let mut head = 0;
                            while head < queue.len() {
                                let u = queue[head];
                                head += 1;
                                ctx.charge(Op::SharedAccess, 1);
                                let d = graph.in_degree(u);
                                ctx.charge_warp_sweep(d, wave);
                                for i in 0..d {
                                    let v = graph.in_neighbor(u, i);
                                    let p = graph.in_weight(u, i);
                                    let r: f32 = rng.gen();
                                    if r <= p && !visited[v as usize] {
                                        visited[v as usize] = true;
                                        queue.push(v);
                                        ctx.charge(Op::AtomicGlobal, 1);
                                        // Overflow past shared capacity: gIM
                                        // dynamically allocates a global chunk.
                                        if queue.len() > shared_queue_entries * (spilled_chunks + 1)
                                        {
                                            ctx.charge(Op::DeviceMalloc, 1);
                                            let rounded = chunk_bytes * ALLOC_ROUNDING;
                                            device.memory().alloc(rounded)?;
                                            spilled_chunks += 1;
                                            spills += 1;
                                        }
                                    }
                                }
                            }
                        }
                        DiffusionModel::LinearThreshold => {
                            // gIM's LT kernel serializes the weight accumulation
                            // through atomic adds (the slow variant of §3.3).
                            let mut u = source;
                            loop {
                                let d = graph.in_degree(u);
                                if d == 0 {
                                    break;
                                }
                                ctx.charge(Op::Rng, 1);
                                let tau: f32 = rng.gen();
                                // One contended atomic per in-edge examined:
                                // through the chosen one, or all of them.
                                let pick = lt_choose((0..d).map(|i| graph.in_weight(u, i)), tau);
                                let examined = pick.map_or(d, |i| i + 1);
                                let chosen = pick.map(|i| graph.in_neighbor(u, i));
                                ctx.charge_contended_atomic(examined.min(WARP_SIZE));
                                ctx.charge(
                                    Op::AtomicGlobal,
                                    (examined.saturating_sub(WARP_SIZE)) as u64,
                                );
                                ctx.charge_warp_sweep(examined, ctx.spec().costs.global_access);
                                match chosen {
                                    Some(v) if !visited[v as usize] => {
                                        visited[v as usize] = true;
                                        queue.push(v);
                                        ctx.charge(Op::AtomicGlobal, 1);
                                        if queue.len() > shared_queue_entries * (spilled_chunks + 1)
                                        {
                                            ctx.charge(Op::DeviceMalloc, 1);
                                            device.memory().alloc(chunk_bytes * ALLOC_ROUNDING)?;
                                            spilled_chunks += 1;
                                            spills += 1;
                                        }
                                        u = v;
                                    }
                                    _ => break,
                                }
                            }
                        }
                    }

                    let q = queue.len();
                    // Sort (gIM also stores ascending for binary search).
                    if q > 1 {
                        let lg = (usize::BITS - (q - 1).leading_zeros()) as u64;
                        ctx.charge_cycles(
                            (q as u64 * lg * lg).div_ceil(WARP_SIZE as u64)
                                * ctx.spec().costs.shared_access,
                        );
                        queue.sort_unstable();
                    }
                    // Copy queue -> temp RRR buffer -> R: twice the writes of
                    // eIM's direct copy, plus the C updates.
                    ctx.charge(Op::AtomicGlobal, 1);
                    ctx.charge_warp_sweep(q, ctx.spec().costs.global_access);
                    ctx.charge_warp_sweep(q, 2 * ctx.spec().costs.global_access);
                    ctx.charge(Op::AtomicGlobal, q as u64);
                    for &v in &queue {
                        visited[v as usize] = false;
                    }
                    ctx.charge(Op::GlobalAccess, q as u64);

                    // Release spill chunks, leaking the fragmentation share.
                    if spilled_chunks > 0 {
                        let total = spilled_chunks * chunk_bytes * ALLOC_ROUNDING;
                        let leak = (total as f64 * FRAGMENTATION_LEAK) as usize;
                        device.memory().free(total - leak);
                        leaked += leak;
                    }
                    out.push((idx, std::mem::take(&mut queue)));
                    j += blocks;
                }
                Ok((out, spills, leaked))
            })
            .map_err(EngineError::from)?;

        let mut sets: Vec<Vec<VertexId>> = vec![Vec::new(); count];
        let mut spills = 0;
        let mut leaked = 0;
        for (block_sets, s, l) in result.outputs {
            spills += s;
            leaked += l;
            for (idx, set) in block_sets {
                sets[(idx - start) as usize] = set;
            }
        }
        Ok((sets, result.stats.elapsed_us, spills, leaked))
    }

    fn ensure_store_capacity(&mut self) -> Result<(), EngineError> {
        let needed = self.store.bytes();
        if needed <= self.store_alloc_bytes {
            return Ok(());
        }
        let new_alloc = (needed * 3 / 2).max(4096);
        self.device
            .memory()
            .alloc(new_alloc)
            .map_err(EngineError::from)?;
        self.device.memory().free(self.store_alloc_bytes);
        self.device.advance_clock(
            self.device
                .spec()
                .device_copy_us(self.store_alloc_bytes.min(needed)),
        );
        self.store_alloc_bytes = new_alloc;
        Ok(())
    }
}

impl ImmEngine for GimEngine<'_> {
    fn n(&self) -> usize {
        self.graph.num_vertices()
    }

    fn extend_to(&mut self, target: usize) -> Result<(), EngineError> {
        // Heal a capacity deficit left by a previous OOM before sampling
        // more (retries land here with the target possibly already met).
        self.ensure_store_capacity()?;
        while self.store.num_sets() < target {
            let batch_size = target - self.store.num_sets();
            let (sets, us, spills, leaked) = self.sample_batch(self.next_index, batch_size)?;
            self.next_index += batch_size as u64;
            self.device.advance_clock(us);
            // The first round computed under the in-flight graph upload.
            if let Some(upload) = self.upload.take() {
                self.stream.wait_event(&self.device, &upload);
            }
            self.spill_events += spills;
            self.leaked_bytes += leaked;
            for set in &sets {
                self.store.append_set(set);
            }
            self.ensure_store_capacity()?;
        }
        Ok(())
    }

    fn select(&mut self, k: usize) -> Selection {
        // A run that never sampled still owes the graph upload.
        if let Some(upload) = self.upload.take() {
            self.stream.wait_event(&self.device, &upload);
        }
        let flag_bytes = self.store.num_sets().div_ceil(8);
        let flags_ok = self.device.memory().alloc(flag_bytes).is_ok();
        let result = select_on_device(&self.device, &self.store, k, ScanStrategy::WarpPerSet);
        if flags_ok {
            self.device.memory().free(flag_bytes);
        }
        // One event per greedy iteration (see `EimEngine::select`): the
        // per-iteration spans make the warp-per-set cost profile comparable
        // against eIM's in the same Perfetto timeline.
        let mut ts = self.device.advance_clock(result.elapsed_us);
        for (i, iter) in result.iterations.iter().enumerate() {
            self.device.run_trace().record_kernel(
                &format!("gim_select:iter{i}"),
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
            .with_epsilon(0.35)
            .with_seed(5)
            .with_packed(false)
            .with_source_elimination(false)
    }

    fn device() -> Device {
        Device::new(DeviceSpec::rtx_a6000_with_mem(256 << 20))
    }

    #[test]
    fn produces_k_seeds() {
        let g = generators::barabasi_albert(300, 3, WeightModel::WeightedCascade, 2);
        let c = cfg();
        let mut e = GimEngine::new(&g, c, device()).unwrap();
        let r = run_imm(&mut e, &c).unwrap();
        assert_eq!(r.seeds.len(), 3);
        assert!(r.coverage > 0.0);
    }

    #[test]
    fn same_seeds_as_eim_same_rng_stream() {
        // gIM and eIM sample identical RRR multisets (same per-index RNG
        // streams, elimination off) and the greedy is deterministic, so
        // seeds must agree exactly.
        let g = generators::rmat(
            300,
            1_800,
            generators::RmatParams::GRAPH500,
            WeightModel::WeightedCascade,
            4,
        );
        let c = cfg();
        let mut gim = GimEngine::new(&g, c, device()).unwrap();
        let rg = run_imm(&mut gim, &c).unwrap();
        let re = eim_core::EimBuilder::new(&g)
            .config(c)
            .device(DeviceSpec::rtx_a6000_with_mem(256 << 20))
            .run()
            .unwrap();
        assert_eq!(rg.seeds, re.seeds);
        assert_eq!(rg.num_sets, re.num_sets);
    }

    #[test]
    fn lt_tau_zero_chooses_no_neighbor_on_host_device_and_gim() {
        // Sample 6_023_998 of run seed 1 draws source 0 and then tau = 0.0
        // (probability 2^-24). On a 6-cycle of weight-1 edges every other
        // tau walks the whole cycle; all three LT walks must stop at the
        // source, as the device rule `exclusive < tau <= inclusive` says.
        const IDX: u64 = 6_023_998;
        let g = generators::cycle(6, WeightModel::WeightedCascade);
        let mut rng = sample_rng(1, IDX);
        let source: VertexId = rng.gen_range(0..6);
        assert_eq!(rng.clone().gen::<f32>(), 0.0, "pinned draw moved");
        assert_eq!(eim_diffusion::sample_rrr_lt(&g, source, &mut rng), [source]);

        let dev = device();
        let plain = PlainDeviceGraph::new(&g);
        let packed = eim_core::PackedDeviceGraph::new(eim_bitpack::PackedCsc::from_graph(&g));
        let lt = DiffusionModel::LinearThreshold;
        for batch in [
            eim_core::sampler::sample_batch(&dev, &plain, lt, 1, IDX, 1, false),
            eim_core::sampler::sample_batch(&dev, &packed, lt, 1, IDX, 1, false),
            eim_core::sampler::sample_batch_reference(&dev, &plain, lt, 1, IDX, 1, false),
        ] {
            assert_eq!(batch.unwrap().sets.get(0), Some(&[source][..]));
        }

        let config = cfg().with_model(lt).with_seed(1);
        let gim = GimEngine::new(&g, config, device()).unwrap();
        assert_eq!(gim.sample_batch(IDX, 1).unwrap().0, [vec![source]]);
    }

    #[test]
    fn deep_traversals_trigger_spills() {
        // A long path forces queue growth past the shared budget on a
        // device with tiny shared memory.
        let g = generators::path(5_000, WeightModel::WeightedCascade);
        let mut spec = DeviceSpec::rtx_a6000_with_mem(256 << 20);
        spec.shared_mem_per_block = 1024; // 128-entry effective queue
        let c = cfg().with_epsilon(0.5).with_k(1);
        let mut e = GimEngine::new(&g, c, Device::new(spec)).unwrap();
        e.extend_to(200).unwrap();
        assert!(e.spill_events() > 0, "no spills on deep traversals");
        assert!(e.leaked_bytes() > 0);
    }

    #[test]
    fn fragmentation_can_oom_where_capacity_would_suffice() {
        let g = generators::path(20_000, WeightModel::WeightedCascade);
        let mut spec = DeviceSpec::rtx_a6000_with_mem(0); // set below
        spec.shared_mem_per_block = 512;
        // Budget: graph + scratch + a modest margin that leak + rounding
        // will blow through.
        let n = 20_000usize;
        let blocks = spec.num_sms * 4;
        let scratch = blocks * n.div_ceil(8) + blocks * n * 4 + n * 4;
        let g_bytes = g.csc_bytes();
        let spec = DeviceSpec {
            global_mem_bytes: g_bytes + scratch + (600 << 10),
            ..spec
        };
        let c = cfg().with_epsilon(0.5).with_k(1);
        match GimEngine::new(&g, c, Device::new(spec)) {
            Ok(mut e) => {
                let r = run_imm(&mut e, &c);
                assert!(
                    matches!(r, Err(EngineError::OutOfMemory { .. })),
                    "expected OOM, got {r:?}"
                );
            }
            Err(e) => assert!(matches!(e, EngineError::OutOfMemory { .. })),
        }
    }

    #[test]
    fn lt_model_runs_with_atomic_scan() {
        let g = generators::barabasi_albert(250, 3, WeightModel::WeightedCascade, 8);
        let c = cfg().with_model(DiffusionModel::LinearThreshold);
        let mut e = GimEngine::new(&g, c, device()).unwrap();
        let r = run_imm(&mut e, &c).unwrap();
        assert_eq!(r.seeds.len(), 3);
    }

    #[test]
    fn deterministic() {
        let g = generators::rmat(
            200,
            1_200,
            generators::RmatParams::MILD,
            WeightModel::WeightedCascade,
            6,
        );
        let c = cfg();
        let run = || {
            let mut e = GimEngine::new(&g, c, device()).unwrap();
            let r = run_imm(&mut e, &c).unwrap();
            (r.seeds.clone(), r.num_sets, e.elapsed_us())
        };
        assert_eq!(run(), run());
    }
}
