#![warn(missing_docs)]

//! # eim-core
//!
//! **eIM** — efficient Influence Maximization (the paper's contribution):
//! a GPU IMM implementation combining
//!
//! * log-encoded network data and RRR storage (§3.1 — [`eim_bitpack`]),
//! * RRR sampling by one warp-wide probabilistic BFS per block with a
//!   **global-memory queue**, eliminating gIM's dynamic allocations
//!   (§3.2, Algorithm 2 — [`sampler`]),
//! * an LT sampler whose neighbor selection uses a warp shuffle prefix scan
//!   instead of serialized atomic adds (§3.3),
//! * source-vertex elimination (§3.4),
//! * **thread-based** (one thread per RRR set) seed-selection scans
//!   (§3.5, Algorithm 3 — [`select`]).
//!
//! One engine, [`EimEngine`], runs all of it over a pool of simulated
//! devices: [`EimEngine::new`] builds the paper's single-device
//! configuration, [`EimEngine::with_telemetry`] a pool of `D` devices that
//! sample concurrently and select on the primary. [`MultiGpuEimEngine`] is
//! a type alias of it, kept because the repository benchmark names it.
//!
//! It runs on the [`eim_gpusim`] execution-model simulator: every kernel
//! does its real work on the CPU while charging simulated device cycles, so
//! seed sets and memory numbers are exact and timing reflects the modelled
//! GPU (see the workspace DESIGN.md for the substitution rationale).
//!
//! ```
//! use eim_core::EimBuilder;
//! use eim_graph::{generators, WeightModel};
//!
//! let g = generators::barabasi_albert(300, 3, WeightModel::WeightedCascade, 1);
//! let r = EimBuilder::new(&g).k(4).epsilon(0.3).seed(7).run().unwrap();
//! assert_eq!(r.seeds.len(), 4);
//! assert!(r.sim_time_us() > 0.0);
//! ```

mod accept;
mod builder;
mod device_graph;
mod engine;
mod memory;
mod resample;
pub mod sampler;
pub mod select;

pub use builder::{EimBuilder, EimResult};
pub use device_graph::{
    weight_threshold, DeviceGraph, EdgeScratch, PackedDeviceGraph, PlainDeviceGraph, RowThresholds,
};
pub use engine::{DeviceRecoverySummary, EimEngine, MultiGpuEimEngine};
pub use memory::MemoryFootprint;
pub use resample::DeviceResampler;
pub use select::ScanStrategy;
