//! CPU sampling engines — the reference backend and the Ripples-style
//! CPU baseline.

use std::time::Instant;

use eim_diffusion::{sample_rng, sample_rrr};
use eim_graph::{Graph, VertexId};
use eim_trace::{KernelHw, RunTrace};
use rand::Rng;
use rayon::prelude::*;

use crate::config::ImmConfig;
use crate::martingale::{EngineError, ImmEngine};
use crate::rrrstore::{RrrSets, RrrStore, RrrStoreBuilder};
use crate::selection::{select_seeds, Selection};
use crate::source_elim::apply_source_elimination;

/// Whether the CPU engine samples serially or data-parallel with rayon.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CpuParallelism {
    /// One thread — the original IMM formulation.
    Serial,
    /// Rayon work-stealing over sample indices — Ripples-style.
    Rayon,
}

/// CPU-backed IMM engine over an [`RrrStore`] charged at the plain or packed
/// layout (per `config.packed`).
///
/// Sample `i` always derives from the deterministic stream
/// `(config.seed, i)`, so results are identical under any thread count.
pub struct CpuEngine<'g> {
    graph: &'g Graph,
    config: ImmConfig,
    parallelism: CpuParallelism,
    store: RrrStore,
    /// Next sample index to draw (indices of discarded samples are consumed
    /// too, keeping the stream aligned).
    next_index: u64,
    started: Instant,
    /// Telemetry sink; the rayon sampling sweep and the greedy selection
    /// report into the kernel lane with wall-clock timestamps.
    trace: RunTrace,
}

impl<'g> CpuEngine<'g> {
    /// A new engine over `graph`.
    pub fn new(graph: &'g Graph, config: ImmConfig, parallelism: CpuParallelism) -> Self {
        let store = RrrStore::new(graph.num_vertices(), config.packed);
        Self {
            graph,
            config,
            parallelism,
            store,
            next_index: 0,
            started: Instant::now(),
            trace: RunTrace::disabled(),
        }
    }

    /// Attaches a telemetry recorder. Unlike the GPU engines there is no
    /// simulated clock here: events carry wall-clock timestamps relative to
    /// engine construction, and the work shows up on the kernel lane as
    /// `cpu_sample` / `cpu_select` spans (one per sampling round or
    /// selection).
    pub fn with_trace(mut self, trace: RunTrace) -> Self {
        self.trace = trace;
        self
    }

    /// Wall-clock µs since engine construction — the CPU engine's time base.
    fn wall_us(&self) -> f64 {
        self.started.elapsed().as_secs_f64() * 1e6
    }

    /// Samples indices `[from, to)`, returning kept sets in index order.
    fn sample_range(&self, from: u64, to: u64) -> Vec<Option<Vec<VertexId>>> {
        let graph = self.graph;
        let cfg = &self.config;
        let n = graph.num_vertices() as u32;
        let one = |i: u64| -> Option<Vec<VertexId>> {
            let mut rng = sample_rng(cfg.seed, i);
            let source: VertexId = rng.gen_range(0..n);
            let set = sample_rrr(graph, cfg.model, source, &mut rng);
            if cfg.source_elimination {
                apply_source_elimination(&set, source)
            } else {
                Some(set)
            }
        };
        match self.parallelism {
            CpuParallelism::Serial => (from..to).map(one).collect(),
            CpuParallelism::Rayon => (from..to).into_par_iter().map(one).collect(),
        }
    }
}

impl ImmEngine for CpuEngine<'_> {
    fn n(&self) -> usize {
        self.graph.num_vertices()
    }

    fn extend_to(&mut self, target: usize) -> Result<(), EngineError> {
        if self.next_index == 0 {
            // The constructor cannot fail, so the first extension refuses a
            // graph the model cannot run on.
            self.config.check_graph(self.graph)?;
        }
        // Every drawn sample counts toward theta (see
        // [`ImmEngine::logical_sets`]); with source elimination, samples
        // whose set reduces to empty are simply not stored.
        if (self.next_index as usize) < target {
            let drawn = target - self.next_index as usize;
            let t0 = self.wall_us();
            let sets = self.sample_range(self.next_index, target as u64);
            // One kernel span per sampling round: "blocks" is the number of
            // sample indices the rayon sweep covered; the cycle counters
            // don't apply off-device.
            self.trace.record_kernel(
                "cpu_sample",
                t0,
                self.wall_us() - t0,
                drawn,
                0,
                0,
                &KernelHw::default(),
            );
            self.next_index = target as u64;
            for set in sets.into_iter().flatten() {
                self.store.append_set(&set);
            }
        }
        Ok(())
    }

    fn logical_sets(&self) -> usize {
        self.next_index as usize
    }

    fn select(&mut self, k: usize) -> Selection {
        let t0 = self.wall_us();
        let selection = select_seeds(&self.store, k);
        self.trace.record_kernel(
            "cpu_select",
            t0,
            self.wall_us() - t0,
            k,
            0,
            0,
            &KernelHw::default(),
        );
        selection
    }

    fn store(&self) -> &dyn RrrSets {
        &self.store
    }

    fn elapsed_us(&self) -> f64 {
        self.started.elapsed().as_secs_f64() * 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::martingale::run_imm;
    use eim_diffusion::DiffusionModel;
    use eim_graph::{generators, WeightModel};

    fn cfg() -> ImmConfig {
        ImmConfig::paper_default()
            .with_k(3)
            .with_epsilon(0.3)
            .with_seed(7)
    }

    #[test]
    fn star_hub_is_selected_first_ic() {
        // Out-star under weighted cascade: leaf in-edges all have p = 1, so
        // every leaf's RRR set contains the hub. The hub is the optimal
        // (and greedy-first) seed.
        let g = generators::star_out(200, WeightModel::WeightedCascade);
        let mut e = CpuEngine::new(
            &g,
            cfg().with_source_elimination(false),
            CpuParallelism::Rayon,
        );
        let r = run_imm(&mut e, &cfg().with_source_elimination(false)).unwrap();
        assert_eq!(r.seeds[0], 0, "seeds: {:?}", r.seeds);
    }

    #[test]
    fn star_hub_selected_with_source_elimination() {
        let g = generators::star_out(200, WeightModel::WeightedCascade);
        let c = cfg();
        let mut e = CpuEngine::new(&g, c, CpuParallelism::Rayon);
        let r = run_imm(&mut e, &c).unwrap();
        assert_eq!(r.seeds[0], 0, "seeds: {:?}", r.seeds);
    }

    #[test]
    fn serial_and_rayon_agree_exactly() {
        let g = generators::rmat(
            300,
            1_800,
            generators::RmatParams::GRAPH500,
            WeightModel::WeightedCascade,
            9,
        );
        let c = cfg();
        let mut a = CpuEngine::new(&g, c, CpuParallelism::Serial);
        let mut b = CpuEngine::new(&g, c, CpuParallelism::Rayon);
        let ra = run_imm(&mut a, &c).unwrap();
        let rb = run_imm(&mut b, &c).unwrap();
        assert_eq!(ra.seeds, rb.seeds);
        assert_eq!(ra.num_sets, rb.num_sets);
        assert_eq!(ra.total_elements, rb.total_elements);
    }

    #[test]
    fn packed_and_plain_stores_agree() {
        let g = generators::rmat(
            300,
            1_800,
            generators::RmatParams::GRAPH500,
            WeightModel::WeightedCascade,
            9,
        );
        let c = cfg();
        let mut plain = CpuEngine::new(&g, c.with_packed(false), CpuParallelism::Rayon);
        let mut packed = CpuEngine::new(&g, c.with_packed(true), CpuParallelism::Rayon);
        let rp = run_imm(&mut plain, &c.with_packed(false)).unwrap();
        let rq = run_imm(&mut packed, &c.with_packed(true)).unwrap();
        assert_eq!(rp.seeds, rq.seeds);
        assert_eq!(rp.num_sets, rq.num_sets);
        assert!(rq.store_bytes < rp.store_bytes);
    }

    #[test]
    fn lt_model_runs() {
        let g = generators::rmat(
            200,
            1_200,
            generators::RmatParams::MILD,
            WeightModel::WeightedCascade,
            4,
        );
        let c = cfg().with_model(DiffusionModel::LinearThreshold);
        let mut e = CpuEngine::new(&g, c, CpuParallelism::Rayon);
        let r = run_imm(&mut e, &c).unwrap();
        assert_eq!(r.seeds.len(), 3);
        assert!(r.coverage > 0.0);
    }

    #[test]
    fn source_elimination_reduces_stored_sets_on_singleton_heavy_graph() {
        // In-star: only the hub has in-edges, so RRR sets from any leaf are
        // singletons. With elimination all leaf samples are discarded and
        // convergence needs far fewer stored sets.
        let g = generators::star_in(100, WeightModel::WeightedCascade);
        let base = cfg().with_k(1);
        let c_off = base.with_source_elimination(false);
        let c_on = base.with_source_elimination(true);
        let mut off = CpuEngine::new(&g, c_off, CpuParallelism::Rayon);
        let mut on = CpuEngine::new(&g, c_on, CpuParallelism::Rayon);
        let r_off = run_imm(&mut off, &c_off).unwrap();
        let r_on = run_imm(&mut on, &c_on).unwrap();
        assert!(
            r_on.num_sets < r_off.num_sets / 2,
            "on {} off {}",
            r_on.num_sets,
            r_off.num_sets
        );
    }

    #[test]
    fn degenerate_edgeless_graph_terminates() {
        // No edges + elimination: every sample is a discarded singleton.
        // The attempt cap must kick in and still return k seeds.
        let g = eim_graph::GraphBuilder::new(50).build(WeightModel::WeightedCascade);
        let c = cfg().with_k(2).with_epsilon(0.5);
        let mut e = CpuEngine::new(&g, c, CpuParallelism::Serial);
        let r = run_imm(&mut e, &c).unwrap();
        assert_eq!(r.seeds.len(), 2);
        assert_eq!(r.num_sets, 0);
    }

    #[test]
    fn rayon_work_lands_on_the_kernel_trace_lane() {
        let g = generators::rmat(
            250,
            1_500,
            generators::RmatParams::GRAPH500,
            WeightModel::WeightedCascade,
            2,
        );
        let c = cfg();
        let trace = RunTrace::enabled();
        let mut e = CpuEngine::new(&g, c, CpuParallelism::Rayon).with_trace(trace.clone());
        run_imm(&mut e, &c).unwrap();
        let events = trace.events();
        let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
        assert!(
            names.contains(&"cpu_sample"),
            "sampling rounds must land on the kernel lane: {names:?}"
        );
        assert!(
            names.contains(&"cpu_select"),
            "selection must land on the kernel lane: {names:?}"
        );
        // The summary counts them as launches, so `--json` telemetry is
        // populated for the CPU engine too.
        assert!(trace.summary().kernel_launches >= 2);
    }

    #[test]
    fn deterministic_across_runs() {
        let g = generators::rmat(
            250,
            1_500,
            generators::RmatParams::GRAPH500,
            WeightModel::WeightedCascade,
            2,
        );
        let c = cfg();
        let run = || {
            let mut e = CpuEngine::new(&g, c, CpuParallelism::Rayon);
            run_imm(&mut e, &c).unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.seeds, b.seeds);
        assert_eq!(a.num_sets, b.num_sets);
        assert_eq!(a.total_elements, b.total_elements);
        assert_eq!(a.store_bytes, b.store_bytes);
    }
}
