//! Run configuration shared by every IMM implementation.

use eim_diffusion::{lt_overweight_row, DiffusionModel};
use eim_graph::Graph;

use crate::EngineError;

/// Parameters of one influence-maximization run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ImmConfig {
    /// Seed-set size `k`.
    pub k: usize,
    /// Approximation parameter `epsilon` (the paper defaults to 0.05; its
    /// sweeps cover 0.5 down to 0.05).
    pub epsilon: f64,
    /// Failure-probability exponent `ell`: the approximation holds with
    /// probability at least `1 - n^-ell`. IMM's default is 1.
    pub ell: f64,
    /// Diffusion model.
    pub model: DiffusionModel,
    /// The paper's §3.4 heuristic: drop the randomly-chosen source from each
    /// RRR set and discard sets that become empty.
    pub source_elimination: bool,
    /// Store RRR sets log-encoded (§3.1) instead of as plain `u32`s.
    pub packed: bool,
    /// RNG seed; every sample derives a deterministic stream from it.
    pub seed: u64,
}

impl ImmConfig {
    /// The paper's default setting: `k = 50`, `epsilon = 0.05`, IC model,
    /// with both eIM optimizations enabled.
    pub fn paper_default() -> Self {
        Self {
            k: 50,
            epsilon: 0.05,
            ell: 1.0,
            model: DiffusionModel::IndependentCascade,
            source_elimination: true,
            packed: true,
            seed: 0x51ed,
        }
    }

    /// Validates parameter ranges against the graph size.
    ///
    /// # Panics
    /// Panics on `k = 0`, `k > n`, non-positive `epsilon`/`ell`, or `n < 2`.
    pub fn validate(&self, n: usize) {
        assert!(n >= 2, "graph must have at least 2 vertices");
        assert!(self.k >= 1, "k must be at least 1");
        assert!(self.k <= n, "k = {} exceeds n = {n}", self.k);
        assert!(
            self.epsilon > 0.0 && self.epsilon < 1.0,
            "epsilon must be in (0, 1)"
        );
        assert!(self.ell > 0.0, "ell must be positive");
    }

    /// Checks that the model can run on `graph`: under LT every vertex's
    /// in-weights must sum to at most 1 ([`lt_overweight_row`]), so that
    /// each in-edge is picked with its weight. IC takes any weights. An
    /// engine calls this where it first meets the graph.
    pub fn check_graph(&self, graph: &Graph) -> Result<(), EngineError> {
        if self.model != DiffusionModel::LinearThreshold {
            return Ok(());
        }
        match lt_overweight_row(graph) {
            Some((vertex, _)) => Err(EngineError::LtRowAboveOne { vertex }),
            None => Ok(()),
        }
    }

    /// Builder-style setters.
    pub fn with_k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Sets `epsilon`.
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Sets the diffusion model.
    pub fn with_model(mut self, model: DiffusionModel) -> Self {
        self.model = model;
        self
    }

    /// Enables/disables source elimination.
    pub fn with_source_elimination(mut self, on: bool) -> Self {
        self.source_elimination = on;
        self
    }

    /// Enables/disables log encoding of the store.
    pub fn with_packed(mut self, on: bool) -> Self {
        self.packed = on;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_values() {
        let c = ImmConfig::paper_default();
        assert_eq!(c.k, 50);
        assert!((c.epsilon - 0.05).abs() < 1e-12);
        assert_eq!(c.model, DiffusionModel::IndependentCascade);
        assert!(c.source_elimination);
        assert!(c.packed);
        c.validate(100);
    }

    #[test]
    fn builder_chain() {
        let c = ImmConfig::paper_default()
            .with_k(10)
            .with_epsilon(0.3)
            .with_model(DiffusionModel::LinearThreshold)
            .with_source_elimination(false)
            .with_packed(false)
            .with_seed(9);
        assert_eq!(c.k, 10);
        assert_eq!(c.model, DiffusionModel::LinearThreshold);
        assert!(!c.source_elimination);
        assert!(!c.packed);
        assert_eq!(c.seed, 9);
    }

    #[test]
    #[should_panic(expected = "k = 50 exceeds n = 10")]
    fn validate_k_vs_n() {
        ImmConfig::paper_default().validate(10);
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn validate_epsilon() {
        ImmConfig::paper_default().with_epsilon(0.0).validate(100);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn validate_zero_k() {
        ImmConfig::paper_default().with_k(0).validate(100);
    }
}
