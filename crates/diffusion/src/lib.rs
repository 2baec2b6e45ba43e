#![warn(missing_docs)]

//! # eim-diffusion
//!
//! The two diffusion models the paper evaluates (§2.1):
//!
//! * **Independent cascade (IC)** — every newly activated vertex gets one
//!   chance to activate each out-neighbor `v` with probability `p_uv`.
//! * **Linear threshold (LT)** — vertex `v` activates once the summed
//!   weights of its active in-neighbors reach a uniform-random threshold
//!   `tau_v`.
//!
//! Plus the two directions influence-maximization needs them in:
//!
//! * forward simulation ([`simulate_ic`], [`simulate_lt`]) and the parallel
//!   Monte-Carlo spread estimator [`estimate_spread`] — used to score seed
//!   sets ("quality of solutions" in §4.1);
//! * reverse sampling ([`sample_rrr_ic`], [`sample_rrr_lt`]) — one random
//!   reverse-reachable set per call, the primitive under all of IMM.

mod ic;
mod lt;
mod rng;
mod rrr;
mod spread;

pub use ic::{simulate_ic, simulate_ic_with_horizon};
pub use lt::{lt_overweight_row, simulate_lt, simulate_lt_with_horizon};
pub use rng::sample_rng;
pub use rrr::{lt_choose, lt_choose_prefix, lt_crosses, sample_rrr, sample_rrr_ic, sample_rrr_lt};
pub use spread::{activation_frequencies, estimate_spread};

/// Which diffusion process drives sampling and simulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DiffusionModel {
    /// Independent cascade with per-edge activation probabilities.
    IndependentCascade,
    /// Linear threshold with uniform-random vertex thresholds.
    LinearThreshold,
}

impl std::fmt::Display for DiffusionModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiffusionModel::IndependentCascade => write!(f, "IC"),
            DiffusionModel::LinearThreshold => write!(f, "LT"),
        }
    }
}
