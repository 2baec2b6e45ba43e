//! Device-side [`Resampler`] for the streaming engine: redraws invalidated
//! RRR samples on the simulated device and refreshes the packed graph rows
//! in place when the host graph mutates.
//!
//! The streaming engine needs pre-elimination footprints, so sampling runs
//! with source elimination off; the stored (post-elimination) content is
//! derived host-side by [`eim_imm::StreamingImmEngine`]. RNG streams are
//! keyed by `(seed, index)`, so the device redraw of an index against the
//! mutated rows is bit-identical to what a cold device run would sample.

use eim_diffusion::DiffusionModel;
use eim_gpusim::Device;
use eim_graph::{Graph, VertexId};
use eim_imm::{EngineError, Resampler};

use crate::device_graph::PackedDeviceGraph;
use crate::sampler::sample_indices;

/// Transient-fault retry budget before a redraw gives up. Matches the
/// martingale driver's default posture: a fault commits nothing, so a
/// retry resamples the identical indices.
const DEFAULT_MAX_RETRIES: u32 = 3;

/// Streams RRR redraws through the device sampler, keeping a
/// [`PackedDeviceGraph`] synchronized with the mutating host graph via
/// [`PackedDeviceGraph::with_updated_rows`] — only the changed rows'
/// thresholds and prefix sums are derived anew.
pub struct DeviceResampler {
    device: Device,
    graph: PackedDeviceGraph,
    model: DiffusionModel,
    seed: u64,
    max_retries: u32,
}

impl DeviceResampler {
    /// Wraps `device`, packing `graph` for device residence. `model` and
    /// `seed` must match the run config the streaming engine replays.
    pub fn new(device: Device, graph: &Graph, model: DiffusionModel, seed: u64) -> Self {
        Self {
            device,
            graph: PackedDeviceGraph::from_graph(graph),
            model,
            seed,
            max_retries: DEFAULT_MAX_RETRIES,
        }
    }

    /// Overrides the transient-fault retry budget.
    pub fn with_max_retries(mut self, max_retries: u32) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// The device driving the redraws.
    pub fn device(&self) -> &Device {
        &self.device
    }
}

impl Resampler for DeviceResampler {
    fn name(&self) -> &'static str {
        "device"
    }

    fn graph_changed(
        &mut self,
        graph: &Graph,
        changed_heads: &[VertexId],
    ) -> Result<(), EngineError> {
        self.graph = self.graph.with_updated_rows(graph, changed_heads);
        Ok(())
    }

    fn sample(
        &mut self,
        _graph: &Graph,
        indices: &[u64],
    ) -> Result<Vec<(VertexId, Vec<VertexId>)>, EngineError> {
        let mut attempts: u32 = 0;
        let batch = loop {
            // Elimination off: the streaming engine wants the full visited
            // footprint; it derives stored content itself.
            match sample_indices(
                &self.device,
                &self.graph,
                self.model,
                self.seed,
                indices,
                false,
            ) {
                Ok(batch) => break batch,
                Err(fault) => {
                    if attempts >= self.max_retries {
                        return Err(EngineError::RetriesExhausted { fault, attempts });
                    }
                    attempts += 1;
                }
            }
        };
        self.device.advance_clock(batch.stats.elapsed_us);
        Ok(batch
            .sources
            .iter()
            .zip(batch.sets.iter())
            .map(|(&source, set)| {
                let set = set.expect("elimination off: every sample is kept");
                debug_assert!(set.binary_search(&source).is_ok(), "footprint holds source");
                (source, set.to_vec())
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eim_gpusim::DeviceSpec;
    use eim_graph::{generators, GraphDelta, WeightModel};
    use eim_imm::HostResampler;

    fn device() -> Device {
        Device::new(DeviceSpec::rtx_a6000_with_mem(512 << 20))
    }

    #[test]
    fn device_redraw_matches_host_resampler() {
        let mut g = generators::rmat(
            300,
            1_800,
            generators::RmatParams::GRAPH500,
            WeightModel::WeightedCascade,
            3,
        );
        let model = DiffusionModel::IndependentCascade;
        let mut dev = DeviceResampler::new(device(), &g, model, 99);
        let mut host = HostResampler::new(model, 99);
        let indices: Vec<u64> = vec![0, 5, 17, 120, 121, 4096];
        assert_eq!(
            dev.sample(&g, &indices).unwrap(),
            host.sample(&g, &indices).unwrap()
        );

        // Mutate a couple of rows, push the change to the device, and check
        // the redraws still agree with the host oracle on the new graph.
        let victim = (0..g.num_vertices() as VertexId)
            .find(|&v| !g.in_neighbors(v).is_empty())
            .unwrap();
        let delta = GraphDelta {
            inserts: vec![(7, 3), (11, 3), (2, 9)],
            deletes: vec![(g.in_neighbors(victim)[0], victim)],
        };
        let applied = g.apply_delta(&delta, WeightModel::WeightedCascade, 7);
        assert!(!applied.changed_heads.is_empty());
        dev.graph_changed(&g, &applied.changed_heads).unwrap();
        assert_eq!(
            dev.sample(&g, &indices).unwrap(),
            host.sample(&g, &indices).unwrap()
        );
    }
}
