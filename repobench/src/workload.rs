//! The three workloads, their inputs, and the graph build every set-up runs.
//!
//! Inputs are a pure function of the workload seed: the edge list of a
//! Table 1 stand-in and, for `stream-social`, a schedule of update batches.
//! The system under test only ever sees those generated inputs.

use eim_diffusion::DiffusionModel;
use eim_graph::{generators, Dataset, Graph, GraphBuilder, GraphDelta, VertexId, WeightModel};
use eim_imm::ImmConfig;

/// Every workload name. `BENCHMARK.json` lists `lt-social` and
/// `stream-social`; `ic-web` runs on request (see `README.md`).
pub const WORKLOADS: [&str; 3] = ["ic-web", "lt-social", "stream-social"];

/// Weight model of every workload graph and of every inserted edge.
pub const WEIGHTS: WeightModel = WeightModel::WeightedCascade;

/// Input size: the benchmark's instances, or a reduced copy of each for the
/// benchmark's own tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Small,
}

/// Which engine a workload drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `EimEngine` on one simulated device, through `run_imm`.
    Single,
    /// `MultiGpuEimEngine` on this many simulated devices, through `run_imm`.
    Multi(usize),
    /// `StreamingImmEngine` with a `DeviceResampler`, through `apply_update`.
    Stream,
}

/// One workload at one size.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    /// Table 1 abbreviation of the stand-in network.
    pub dataset: &'static str,
    pub scale: f64,
    pub model: DiffusionModel,
    pub k: usize,
    pub epsilon: f64,
    pub kind: Kind,
    /// Edge updates per batch (`stream-social` only).
    pub edges_per_batch: usize,
}

impl Spec {
    /// The workload called `name`, if there is one.
    pub fn get(name: &str, size: Size) -> Option<Spec> {
        let full = size == Size::Full;
        let pick = |f: f64, s: f64| if full { f } else { s };
        let spec = match name {
            "ic-web" => Spec {
                name: "ic-web",
                dataset: "WG",
                scale: pick(0.25, 0.01),
                model: DiffusionModel::IndependentCascade,
                k: if full { 20 } else { 5 },
                epsilon: pick(0.15, 0.3),
                kind: Kind::Single,
                edges_per_batch: 0,
            },
            "lt-social" => Spec {
                name: "lt-social",
                dataset: "SE",
                scale: pick(1.0, 0.05),
                model: DiffusionModel::LinearThreshold,
                k: if full { 100 } else { 10 },
                epsilon: pick(0.1, 0.3),
                kind: Kind::Multi(4),
                edges_per_batch: 0,
            },
            "stream-social" => Spec {
                name: "stream-social",
                dataset: "SE",
                scale: pick(1.0, 0.05),
                model: DiffusionModel::IndependentCascade,
                k: if full { 50 } else { 10 },
                epsilon: pick(0.15, 0.3),
                kind: Kind::Stream,
                edges_per_batch: if full { 256 } else { 16 },
            },
            _ => return None,
        };
        Some(spec)
    }

    /// The run configuration: the paper's defaults (packed store, source
    /// elimination) with this workload's model, k, and epsilon.
    pub fn config(&self, seed: u64) -> ImmConfig {
        ImmConfig::paper_default()
            .with_model(self.model)
            .with_k(self.k)
            .with_epsilon(self.epsilon)
            .with_seed(seed)
    }
}

/// The generated inputs of one run.
pub struct Inputs {
    pub n: usize,
    pub edges: Vec<(VertexId, VertexId)>,
    /// Update batches, empty for the solve workloads.
    pub batches: Vec<GraphDelta>,
    pub seed: u64,
}

impl Inputs {
    /// Generates the edge list of the workload's stand-in network and, for
    /// the streaming workload, `batches` update batches against it.
    pub fn generate(spec: &Spec, seed: u64, batches: usize) -> Inputs {
        let dataset = Dataset::by_abbrev(spec.dataset).expect("registry entry");
        let g = dataset.generate(spec.scale, WeightModel::Preserve, seed);
        let mut inputs = Inputs {
            n: g.num_vertices(),
            edges: g.iter_edges().map(|(u, v, _)| (u, v)).collect(),
            batches: Vec::new(),
            seed,
        };
        drop(g);
        if spec.kind == Kind::Stream {
            let stream = generators::UpdateStreamSpec {
                batches,
                edges_per_batch: spec.edges_per_batch,
                insert_fraction: 0.5,
                seed: seed ^ 0x5eed,
            };
            inputs.batches = generators::update_stream(&inputs.build_graph(), &stream);
        }
        inputs
    }

    /// The graph build every set-up starts with: edge list to weighted CSC.
    pub fn build_graph(&self) -> Graph {
        GraphBuilder::new(self.n)
            .edges(self.edges.iter().copied())
            .weight_seed(self.seed)
            .build(WEIGHTS)
    }
}
