//! Forward linear-threshold simulation.

use eim_graph::{Graph, VertexId};
use rand::Rng;

/// The first vertex whose in-weights sum above 1, with that sum. An LT
/// reverse step picks in-edge `i` when the threshold falls in its slice of
/// the row's running sum, so past a sum of 1 an edge's slice is cut short
/// and it is picked with less than its weight. The sum is taken in `f64`
/// with `1e-6` of slack, so rows written as `f32` fractions of one (such as
/// weighted cascade's `1/d`) pass.
pub fn lt_overweight_row(graph: &Graph) -> Option<(VertexId, f64)> {
    (0..graph.num_vertices() as VertexId).find_map(|v| {
        let sum: f64 = graph.in_weights(v).iter().map(|&w| f64::from(w)).sum();
        (sum > 1.0 + 1e-6).then_some((v, sum))
    })
}

/// Runs one LT diffusion from `seeds` and returns the activated set
/// (ascending). Thresholds `tau_v` are drawn uniformly from `[0, 1]` at the
/// start; vertex `v` activates at step `t` when
/// `sum of p_uv over active in-neighbors u >= tau_v` (§2.1).
pub fn simulate_lt<R: Rng>(graph: &Graph, seeds: &[VertexId], rng: &mut R) -> Vec<VertexId> {
    simulate_lt_with_horizon(graph, seeds, usize::MAX, rng)
}

/// [`simulate_lt`] stopped after at most `horizon` steps — the time-bounded
/// LT variant. `horizon = 0` activates the seeds only.
pub fn simulate_lt_with_horizon<R: Rng>(
    graph: &Graph,
    seeds: &[VertexId],
    horizon: usize,
    rng: &mut R,
) -> Vec<VertexId> {
    let n = graph.num_vertices();
    let mut active = vec![false; n];
    // Incoming activated weight accumulated so far, per vertex.
    let mut in_weight = vec![0.0f32; n];
    let thresholds: Vec<f32> = (0..n).map(|_| rng.gen::<f32>()).collect();
    let mut frontier: Vec<VertexId> = Vec::new();
    for &s in seeds {
        let si = s as usize;
        assert!(si < n, "seed {s} out of range");
        if !active[si] {
            active[si] = true;
            frontier.push(s);
        }
    }
    let mut next = Vec::new();
    let mut steps = 0usize;
    while !frontier.is_empty() && steps < horizon {
        next.clear();
        for &u in &frontier {
            // u just became active: credit its weight to each out-neighbor
            // and check that neighbor's threshold.
            let nbrs = graph.out_neighbors(u);
            let ws = graph.out_weights(u);
            for (&v, &p) in nbrs.iter().zip(ws) {
                let vi = v as usize;
                if !active[vi] {
                    in_weight[vi] += p;
                    if in_weight[vi] >= thresholds[vi] {
                        active[vi] = true;
                        next.push(v);
                    }
                }
            }
        }
        std::mem::swap(&mut frontier, &mut next);
        steps += 1;
    }
    (0..n as VertexId).filter(|&v| active[v as usize]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample_rng;
    use eim_graph::{generators, GraphBuilder, WeightModel};

    #[test]
    fn path_activates_fully_under_weighted_cascade() {
        // In-degree 1 everywhere -> each edge weight 1.0 >= any threshold
        // in [0,1)... threshold can be ~1.0 but gen::<f32>() < 1.0 strictly,
        // so weight 1.0 always fires.
        let g = generators::path(12, WeightModel::WeightedCascade);
        let mut rng = sample_rng(3, 0);
        assert_eq!(simulate_lt(&g, &[0], &mut rng), (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn partial_weight_sometimes_insufficient() {
        // v has two in-neighbors each with weight 0.5; seeding only one
        // activates v iff tau_v <= 0.5 — about half the runs.
        let g = GraphBuilder::new(3)
            .edges([(0, 2), (1, 2)])
            .build(WeightModel::WeightedCascade);
        let mut hits = 0;
        for i in 0..400 {
            let mut rng = sample_rng(5, i);
            if simulate_lt(&g, &[0], &mut rng).contains(&2) {
                hits += 1;
            }
        }
        let frac = hits as f64 / 400.0;
        assert!((frac - 0.5).abs() < 0.1, "frac {frac}");
    }

    #[test]
    fn both_in_neighbors_guarantee_activation() {
        let g = GraphBuilder::new(3)
            .edges([(0, 2), (1, 2)])
            .build(WeightModel::WeightedCascade);
        for i in 0..50 {
            let mut rng = sample_rng(6, i);
            assert!(simulate_lt(&g, &[0, 1], &mut rng).contains(&2));
        }
    }

    #[test]
    fn cascades_propagate_transitively() {
        // 0 -> 1 -> 2 with in-degree 1: seeding 0 reaches 2 through the
        // chain in two steps.
        let g = generators::path(3, WeightModel::WeightedCascade);
        let mut rng = sample_rng(7, 0);
        assert_eq!(simulate_lt(&g, &[0], &mut rng), vec![0, 1, 2]);
    }

    #[test]
    fn horizon_truncates_lt() {
        let g = generators::path(8, WeightModel::WeightedCascade);
        let mut rng = sample_rng(2, 0);
        assert_eq!(
            super::simulate_lt_with_horizon(&g, &[0], 2, &mut rng),
            vec![0, 1, 2]
        );
        let mut rng = sample_rng(2, 0);
        assert_eq!(
            super::simulate_lt_with_horizon(&g, &[0], 0, &mut rng),
            vec![0]
        );
    }

    #[test]
    fn empty_seeds() {
        let g = generators::path(5, WeightModel::WeightedCascade);
        let mut rng = sample_rng(7, 0);
        assert!(simulate_lt(&g, &[], &mut rng).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_seed() {
        let g = generators::path(5, WeightModel::WeightedCascade);
        let mut rng = sample_rng(7, 0);
        simulate_lt(&g, &[77], &mut rng);
    }
}
