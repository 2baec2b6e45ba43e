//! cuRipples reimplementation (§2.3 of the paper; Minutoli et al., ICS '20).
//!
//! The CPU+GPU hybrid design:
//!
//! * RRR sets are generated on the device but **offloaded to host memory**
//!   batch by batch — the device never holds the full collection, which is
//!   why cuRipples scales to collections larger than device memory (no OOM
//!   column in the tables), at the price of a PCIe round per batch;
//! * at seed-selection time the sets are **moved back** onto the device
//!   until it is full; whatever does not fit is scanned by the host's CPU
//!   cores each iteration;
//! * network data and `R` are uncompressed; no source elimination.
//!
//! The transfer traffic plus the CPU-side remainder scans are the
//! structural reasons the paper measures one-to-three orders of magnitude
//! between cuRipples and eIM (Figures 7–8).

use eim_gpusim::{
    slot_makespan_cycles, CopyEvent, CopyStream, Device, KernelHw, TransferDirection,
    GLOBAL_TRANSACTION_BYTES, WARP_SIZE,
};
use eim_graph::Graph;
use eim_imm::{
    greedy_cover_store, EngineError, ImmConfig, ImmEngine, RrrSets, RrrStore, RrrStoreBuilder,
    Selection,
};
use rayon::prelude::*;

use eim_core::sampler::sample_batch;
use eim_core::PlainDeviceGraph;

/// Host-side execution parameters (the paper's testbed: 16 cores, 2.9 GHz).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HostSpec {
    /// CPU cores participating in the remainder scans.
    pub cores: usize,
    /// CPU clock, GHz.
    pub clock_ghz: f64,
    /// Cycles one CPU probe of a binary search costs (cache-missy pointer
    /// chasing through a host-memory-resident `R`).
    pub probe_cycles: u64,
}

impl Default for HostSpec {
    fn default() -> Self {
        Self {
            cores: 16,
            clock_ghz: 2.9,
            probe_cycles: 250,
        }
    }
}

/// Sets per device->host offload batch during sampling.
const OFFLOAD_BATCH_SETS: usize = 4096;

/// Share of each sampling batch generated by the host CPU — cuRipples is
/// Ripples' CPU engine plus GPU offload, and "each CPU-GPU pair creates a
/// subset of the RRR sets" (§2.3). The CPU half runs concurrently with the
/// device half; the batch costs the max of the two.
const CPU_SAMPLING_SHARE: f64 = 0.5;

/// How many host cycles one simulated device cycle of traversal work costs
/// on a CPU core: a warp cycle retires up to 32 lanes of work, a scalar
/// core roughly two — calibrated at 16.
const CPU_CYCLE_PENALTY: f64 = 16.0;

/// cuRipples as an [`ImmEngine`] backend.
pub struct CuRipplesEngine<'g> {
    device: Device,
    /// DMA engine: per-batch d2h offloads queue here and drain while the
    /// *next* batch computes, instead of stalling between batches.
    stream: CopyStream,
    /// Pending initial graph upload, waited on by the first batch.
    upload: Option<CopyEvent>,
    host: HostSpec,
    graph: &'g Graph,
    /// Kernel-facing CSC view, built once (the threshold precompute is
    /// `O(m)`; rebuilding it per sampling round would waste it).
    device_graph: PlainDeviceGraph<'g>,
    config: ImmConfig,
    /// Host-resident store (plain: cuRipples does not compress).
    store: RrrStore,
    next_index: u64,
    transfer_bytes_total: usize,
}

impl<'g> CuRipplesEngine<'g> {
    /// Builds the engine; only the graph and sampling scratch live on the
    /// device.
    pub fn new(
        graph: &'g Graph,
        config: ImmConfig,
        device: Device,
        host: HostSpec,
    ) -> Result<Self, EngineError> {
        let n = graph.num_vertices();
        config.validate(n);
        config.check_graph(graph)?;
        let blocks = device.spec().num_sms * 4;
        let scratch = blocks * n.div_ceil(8) + blocks * n * 4 + n * 4;
        device
            .memory()
            .alloc(graph.csc_bytes() + scratch)
            .map_err(EngineError::from)?;
        // Upload the uncompressed network over PCIe on the copy stream; the
        // clock only moves once the first sampling batch waits on it.
        let mut stream = device.copy_stream();
        let upload =
            Some(stream.enqueue(&device, graph.csc_bytes(), TransferDirection::HostToDevice));
        Ok(Self {
            device,
            stream,
            upload,
            host,
            graph,
            device_graph: PlainDeviceGraph::new(graph),
            store: RrrStore::new(n, false),
            config,
            next_index: 0,
            transfer_bytes_total: graph.csc_bytes(),
        })
    }

    /// Total PCIe bytes moved so far (both directions).
    pub fn transfer_bytes(&self) -> usize {
        self.transfer_bytes_total
    }

    /// The device this engine runs on.
    pub fn device(&self) -> &Device {
        &self.device
    }

    fn cpu_cycles_to_us(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.host.clock_ghz * 1000.0)
    }
}

impl ImmEngine for CuRipplesEngine<'_> {
    fn n(&self) -> usize {
        self.graph.num_vertices()
    }

    fn extend_to(&mut self, target: usize) -> Result<(), EngineError> {
        let dg = &self.device_graph;
        while self.store.num_sets() < target {
            let missing = target - self.store.num_sets();
            let batch_size = missing.min(OFFLOAD_BATCH_SETS);
            let batch = sample_batch(
                &self.device,
                dg,
                self.config.model,
                self.config.seed,
                self.next_index,
                batch_size,
                false, // cuRipples has no source elimination
            )?;
            // The device generates (1 - share) of the batch while the CPU
            // cores generate the rest; the batch costs whichever finishes
            // last.
            let gpu_us = batch.stats.elapsed_us * (1.0 - CPU_SAMPLING_SHARE);
            let cpu_us = batch.stats.total_cycles as f64 * CPU_SAMPLING_SHARE * CPU_CYCLE_PENALTY
                / (self.host.cores as f64 * self.host.clock_ghz * 1000.0);
            self.device.advance_clock(gpu_us.max(cpu_us));
            // The first batch computed under the in-flight graph upload.
            if let Some(upload) = self.upload.take() {
                self.stream.wait_event(&self.device, &upload);
            }
            // Offload the device share to host memory on the copy stream —
            // it drains while the *next* batch computes; only selection (or
            // a serialized stream) waits for the tail. Nothing is committed
            // until the enqueue passes its fault check — a faulted offload
            // drops the batch and a retry resamples the identical range.
            let batch_bytes: usize = batch.sets.kept_lens().map(|len| len * 4 + 8).sum();
            let offload = (batch_bytes as f64 * (1.0 - CPU_SAMPLING_SHARE)) as usize;
            self.stream
                .checked_enqueue(&self.device, offload, TransferDirection::DeviceToHost)?;
            self.next_index += batch_size as u64;
            self.transfer_bytes_total += offload;
            let lens: Vec<usize> = batch.sets.kept_lens().collect();
            self.store
                .append_batch(batch.sets.arena(), &lens, &batch.coverage);
        }
        Ok(())
    }

    fn select(&mut self, k: usize) -> Selection {
        // Greedy max-coverage. Because the RRR sets live in host memory and
        // the device buffer is reused as a staging area, every one of the k
        // rounds re-streams the still-uncovered sets onto the device until
        // it is full; the overflow is scanned by the CPU cores. This
        // repeated CPU<->GPU traffic is the overhead §2.3 blames for
        // cuRipples' running time.
        //
        // Selection reads sets out of host memory, so every in-flight
        // offload (and a never-awaited graph upload) must land first.
        if let Some(upload) = self.upload.take() {
            self.stream.wait_event(&self.device, &upload);
        }
        self.stream.synchronize(&self.device);
        let spec = *self.device.spec();
        let costs = spec.costs;
        let free = spec
            .global_mem_bytes
            .saturating_sub(self.device.memory_stats().in_use);
        let num_sets = self.store.num_sets();
        let store = &self.store;
        // The seeds and each set's covering round come from the shared
        // greedy core; what follows charges the rounds cuRipples runs to
        // find them. A set is covered before round `r` iff its covering
        // round is below `r`, and found in round `r` iff it equals `r`.
        let greedy = greedy_cover_store(store, k);
        let cover = &greedy.cover;

        for (r, &v) in (0..).zip(&greedy.seeds) {
            // Stage this round's uncovered sets onto the device until full.
            let mut resident_bytes = 0usize;
            let mut resident_end = 0usize; // sets below this index scan on device
            for (i, &c) in cover.iter().enumerate() {
                if c < r {
                    continue;
                }
                let extra = self.store.set_len(i) * 4 + 8;
                if resident_bytes + extra > free {
                    break;
                }
                resident_bytes += extra;
                resident_end = i + 1;
            }
            // Staged through the copy stream (after the synchronize above
            // the stream is idle, so this is a plain serial charge), waited
            // on immediately: the scan needs the data on-device.
            let ev = self.stream.enqueue(
                &self.device,
                resident_bytes,
                TransferDirection::HostToDevice,
            );
            self.stream.wait_event(&self.device, &ev);
            self.transfer_bytes_total += resident_bytes;
            let resident = resident_end;

            // Each entry: (cycles, device global transactions, device
            // atomics, device tail-wave idle lane-cycles). Host-side scans
            // contribute no device counters.
            let per_set: Vec<(u64, u64, u64, u64)> = (0..num_sets)
                .into_par_iter()
                .map(|i| {
                    if cover[i] < r {
                        return (1, 0, 0, 0);
                    }
                    let (found, probes) = store.contains_with_probes(i, v);
                    debug_assert_eq!(found, cover[i] == r, "set {i}, round {r}");
                    let len = store.set_len(i) as u64;
                    let on_device = i < resident;
                    if on_device {
                        let rounds = (probes as u64).div_ceil(4);
                        let waves = len.div_ceil(WARP_SIZE as u64);
                        if found {
                            (
                                rounds * costs.global_latency + costs.atomic_global * waves,
                                rounds + waves,
                                len,
                                (waves * WARP_SIZE as u64 - len) * costs.atomic_global,
                            )
                        } else {
                            (rounds * costs.global_latency, rounds, 0, 0)
                        }
                    } else {
                        let cycles = probes as u64 * self.host.probe_cycles
                            + if found {
                                len * self.host.probe_cycles / 4
                            } else {
                                0
                            };
                        (cycles, 0, 0, 0)
                    }
                })
                .collect();

            // Device and host run concurrently; the round costs the max.
            let device_cycles = slot_makespan_cycles(
                per_set[..resident].iter().map(|&(c, ..)| c),
                spec.warp_slots(),
            );
            let host_cycles = slot_makespan_cycles(
                per_set[resident..].iter().map(|&(c, ..)| c),
                self.host.cores,
            );
            let device_us = spec.cycles_to_us(device_cycles) + costs.kernel_launch_us;
            let host_us = self.cpu_cycles_to_us(host_cycles);
            let round_us = device_us.max(host_us);
            let ts = self.device.advance_clock(round_us);
            // The scan kernel is modelled analytically, not launched through
            // `Device::launch`; record its device share here, with hardware
            // counters for the resident (on-device) slice: each warp slot is
            // busy for its summed per-set cycles against a capacity of every
            // slot over the device makespan.
            let device_busy: u64 = per_set[..resident].iter().map(|&(c, ..)| c).sum();
            let idle: u64 = per_set[..resident].iter().map(|&(.., idle)| idle).sum();
            let txns: u64 = per_set[..resident].iter().map(|&(_, t, ..)| t).sum();
            let hw = KernelHw {
                occ_busy_cycles: device_busy,
                occ_capacity_cycles: spec.warp_slots() as u64 * device_cycles,
                active_lane_cycles: (WARP_SIZE as u64 * device_busy).saturating_sub(idle),
                idle_lane_cycles: idle,
                global_transactions: txns,
                global_bytes: txns * GLOBAL_TRANSACTION_BYTES,
                atomics: per_set[..resident].iter().map(|&(.., a, _)| a).sum(),
                ..KernelHw::default()
            };
            self.device.run_trace().record_kernel(
                "curipples_scan",
                ts,
                round_us,
                resident,
                device_cycles,
                0,
                &hw,
            );
            // Per-round result merge across PCIe (counts deltas).
            self.device.advance_clock(costs.pcie_latency_us * 2.0);
        }

        Selection {
            covered_sets: greedy.covered_sets(),
            seeds: greedy.seeds,
            num_sets,
        }
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

    fn device(bytes: usize) -> Device {
        Device::new(DeviceSpec::rtx_a6000_with_mem(bytes))
    }

    #[test]
    fn produces_same_seeds_as_gim_and_eim() {
        let g = generators::rmat(
            300,
            1_800,
            generators::RmatParams::GRAPH500,
            WeightModel::WeightedCascade,
            4,
        );
        let c = cfg();
        let mut cu = CuRipplesEngine::new(&g, c, device(256 << 20), HostSpec::default()).unwrap();
        let rc = run_imm(&mut cu, &c).unwrap();
        let re = eim_core::EimBuilder::new(&g)
            .config(c)
            .device(DeviceSpec::rtx_a6000_with_mem(256 << 20))
            .run()
            .unwrap();
        assert_eq!(rc.seeds, re.seeds);
    }

    #[test]
    fn transfers_accumulate() {
        let g = generators::barabasi_albert(300, 3, WeightModel::WeightedCascade, 2);
        let c = cfg();
        let mut e = CuRipplesEngine::new(&g, c, device(256 << 20), HostSpec::default()).unwrap();
        let _ = run_imm(&mut e, &c).unwrap();
        assert!(e.transfer_bytes() > 0);
    }

    #[test]
    fn survives_store_larger_than_device_memory() {
        // Device with room for the graph + scratch but NOT the RRR store:
        // cuRipples must still complete (host-resident store), merely slower
        // — the scalability the paper credits it with.
        let g = generators::rmat(
            400,
            2_400,
            generators::RmatParams::GRAPH500,
            WeightModel::WeightedCascade,
            9,
        );
        let n = 400usize;
        let spec = DeviceSpec::rtx_a6000();
        let blocks = spec.num_sms * 4;
        let scratch = blocks * n.div_ceil(8) + blocks * n * 4 + n * 4;
        let budget = g.csc_bytes() + scratch + (4 << 10); // ~no room for R
        let c = cfg().with_epsilon(0.2);
        let mut e = CuRipplesEngine::new(&g, c, device(budget), HostSpec::default()).unwrap();
        let r = run_imm(&mut e, &c).unwrap();
        assert_eq!(r.seeds.len(), 3);
        assert!(r.num_sets > 0);
    }

    #[test]
    fn is_slower_than_eim_on_same_workload() {
        let g = generators::rmat(
            500,
            3_000,
            generators::RmatParams::GRAPH500,
            WeightModel::WeightedCascade,
            3,
        );
        let c = cfg().with_epsilon(0.25);
        let mut cu = CuRipplesEngine::new(&g, c, device(512 << 20), HostSpec::default()).unwrap();
        let rc = run_imm(&mut cu, &c).unwrap();
        let re = eim_core::EimBuilder::new(&g)
            .config(c)
            .device(DeviceSpec::rtx_a6000_with_mem(512 << 20))
            .run()
            .unwrap();
        assert!(
            rc.elapsed_us() > re.phases.total_us(),
            "cuRipples {} vs eIM {}",
            rc.elapsed_us(),
            re.phases.total_us()
        );
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
            let mut e =
                CuRipplesEngine::new(&g, c, device(256 << 20), HostSpec::default()).unwrap();
            let r = run_imm(&mut e, &c).unwrap();
            (r.seeds.clone(), r.num_sets, e.elapsed_us())
        };
        assert_eq!(run(), run());
    }
}
