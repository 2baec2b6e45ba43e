#![warn(missing_docs)]

//! # eim-gpusim
//!
//! A deterministic, CUDA-like **execution-model simulator**. The eIM paper's
//! experimental effects are properties of the GPU execution model — warp
//! width, shared vs. global memory, atomic serialization, dynamic device
//! allocation overhead, PCIe transfer cost, capacity-limited device memory —
//! not of any particular silicon. This crate provides exactly those
//! mechanisms so the algorithms above it (eIM, gIM, cuRipples) can be
//! compared under one controlled substrate.
//!
//! ## How simulation works
//!
//! Kernels are ordinary Rust closures executed **for real** (on a rayon
//! pool), one closure invocation per simulated *block*. While running, a
//! block charges the operations it performs to its [`BlockCtx`]; afterwards
//! the [`Device`] schedules the blocks round-robin onto its SMs and reports
//! the makespan as the kernel's simulated elapsed time. Algorithmic outputs
//! (RRR sets, seed sets, byte counts) are therefore exact; only *time* is
//! modelled.
//!
//! ```
//! use eim_gpusim::{Device, DeviceSpec, Op};
//!
//! let device = Device::new(DeviceSpec::test_small());
//! let result = device.launch("square", 8, |ctx| {
//!     ctx.charge(Op::Alu, 1);
//!     ctx.block_id() * ctx.block_id()
//! });
//! assert_eq!(result.outputs[3], 9);
//! assert!(result.stats.elapsed_us > 0.0);
//! ```

mod block;
mod fault;
mod launch;
mod memory;
mod schedule;
mod spec;
mod stream;
mod transfer;

pub use block::{BlockCtx, Op, OpCounts};
pub use fault::{FaultDecision, FaultPlan, FaultSpec, PressureWindow, SimFault};
pub use launch::{Device, LaunchResult, LaunchStats, TraceEntry, GLOBAL_TRANSACTION_BYTES};
pub use memory::{DeviceMemory, MemoryError, MemoryStats};
pub use schedule::slot_makespan_cycles;
pub use spec::{CostModel, DeviceSpec};
pub use stream::{CopyEvent, CopyStream};
pub use transfer::TransferDirection;

// Telemetry types appear in `Device`'s API; re-export so downstream crates
// can attach a recorder without a direct `eim-trace` dependency.
pub use eim_trace::{
    provenance, write_metrics_file, KernelHw, KernelProfile, MetricsRegistry, MetricsSink, Phase,
    ProfileKey, Recovery, RunTrace, SimClock, SnapshotAccumulator, SnapshotStreamWriter,
    TraceSummary, SNAPSHOT_SCHEMA,
};

/// Lanes per warp — fixed at 32 across every NVIDIA generation and baked
/// into the paper's algorithms ("each block launches a single warp").
pub const WARP_SIZE: usize = 32;
