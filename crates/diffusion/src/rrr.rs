//! CPU reverse-reachable (RRR) samplers.
//!
//! An RRR set rooted at a uniformly-random source `s` contains every vertex
//! that *would have activated `s`* in one realization of the diffusion —
//! equivalently, the visited set of a probabilistic reverse traversal
//! (§2.2, [18]). These serial samplers are the reference implementations the
//! GPU kernels are validated against, and power the CPU (Ripples-like)
//! engine.

use eim_graph::{Graph, VertexId};
use rand::Rng;

use crate::DiffusionModel;

/// Samples one RRR set under IC: reverse BFS from `source`, crossing each
/// in-edge `(u, v)` with probability `p_uv`. Returns the visited set sorted
/// ascending (the order the paper stores sets in for binary search).
pub fn sample_rrr_ic<R: Rng>(graph: &Graph, source: VertexId, rng: &mut R) -> Vec<VertexId> {
    let n = graph.num_vertices();
    assert!((source as usize) < n, "source out of range");
    let mut visited = vec![false; n];
    visited[source as usize] = true;
    let mut queue = vec![source];
    let mut head = 0;
    while head < queue.len() {
        let u = queue[head];
        head += 1;
        let nbrs = graph.in_neighbors(u);
        let ws = graph.in_weights(u);
        for (&v, &p) in nbrs.iter().zip(ws) {
            // Draw for every in-edge, visited or not — Algorithm 2's exact
            // order ("r <- Random(0,1); if r <= p_vu and M[v] = 0"), which
            // keeps this reference sampler's RNG stream aligned with the
            // device kernel's so their outputs are bit-identical per index.
            let r: f32 = rng.gen();
            if r <= p && !visited[v as usize] {
                visited[v as usize] = true;
                queue.push(v);
            }
        }
    }
    queue.sort_unstable();
    queue
}

/// The LT reverse step's choice rule (§3.3): in-edge `i` of a row is
/// chosen iff the weights before it sum to less than `tau` and the weights
/// through it reach `tau` — `exclusive < tau <= inclusive`. Weights are
/// non-negative, so at most one edge qualifies; none does when `tau` is
/// above the row sum, or is exactly 0.0 (the `exclusive` sum of edge 0 is
/// 0.0, not below it), so a zero-weight first edge is never chosen.
#[inline]
pub fn lt_crosses(exclusive: f32, inclusive: f32, tau: f32) -> bool {
    exclusive < tau && tau <= inclusive
}

/// The in-edge an LT reverse step chooses for threshold `tau`, scanning the
/// row's weights in order and accumulating `acc + p` in `f32`. Every LT
/// walk — [`sample_rrr_lt`], and the device kernels built on this crate —
/// applies the one rule [`lt_crosses`], so their sets agree draw for draw.
pub fn lt_choose(weights: impl IntoIterator<Item = f32>, tau: f32) -> Option<usize> {
    let mut acc = 0.0f32;
    for (i, p) in weights.into_iter().enumerate() {
        let inclusive = acc + p;
        if lt_crosses(acc, inclusive, tau) {
            return Some(i);
        }
        acc = inclusive;
    }
    None
}

/// [`lt_choose`] by a search over the row's inclusive prefix sums, each
/// accumulated exactly as [`lt_choose`] does (`prefix[i]` is the `f32` sum
/// `((w0 + w1) + ...) + wi`). The sums are non-decreasing, so the first one
/// that reaches `tau` is the only candidate; it is chosen iff the rule
/// holds for it. Returns the same index as the linear scan.
///
/// The search starts at `min(⌊tau·d⌋, d − 1)`, where the sums would cross
/// `tau` if every weight were `1/d`, and gallops outward from there. Under
/// weighted cascade a step so reads the one or two sums beside its answer,
/// where a binary search read about `log2 d` sums spread over the row.
pub fn lt_choose_prefix(prefix: &[f32], tau: f32) -> Option<usize> {
    let i = first_reaching(prefix, tau);
    let inclusive = *prefix.get(i)?;
    let exclusive = if i == 0 { 0.0 } else { prefix[i - 1] };
    lt_crosses(exclusive, inclusive, tau).then_some(i)
}

/// `prefix.partition_point(|&s| s < tau)` for a non-decreasing `prefix`,
/// searched outward from the guess `g = min(⌊tau·d⌋, d − 1)`: probe `g`,
/// gallop away from it with strides 1, 2, 4, … until a probe lands on the
/// other side of `tau`, then binary-search the last stride. A row whose
/// sums track `(i + 1)/d` answers in two probes; any other non-decreasing
/// row costs `O(log |answer − g|)` probes and gets the same index.
#[inline]
fn first_reaching(prefix: &[f32], tau: f32) -> usize {
    let d = prefix.len();
    if d == 0 {
        return 0;
    }
    // `as usize` saturates: a NaN or negative product gives 0.
    let g = ((tau * d as f32) as usize).min(d - 1);
    // The answer lies in `lo..=hi`: `prefix[lo - 1] < tau` (or `lo == 0`)
    // and `prefix[hi] >= tau` (or `hi == d`).
    let (lo, hi) = if prefix[g] < tau {
        let (mut lo, mut stride) = (g + 1, 1);
        loop {
            let probe = g + stride;
            if probe >= d {
                break (lo, d);
            }
            if prefix[probe] >= tau {
                break (lo, probe);
            }
            lo = probe + 1;
            stride *= 2;
        }
    } else {
        let (mut hi, mut stride) = (g, 1);
        loop {
            let Some(probe) = g.checked_sub(stride) else {
                break (0, hi);
            };
            if prefix[probe] < tau {
                break (probe + 1, hi);
            }
            hi = probe;
            stride *= 2;
        }
    };
    lo + prefix[lo..hi].partition_point(|&s| s < tau)
}

/// Samples one RRR set under LT. From each reached vertex `u` the reverse
/// process activates *at most one* in-neighbor: with `tau_u` uniform in
/// `[0, 1]`, the in-neighbor whose running weight sum first reaches `tau_u`
/// is chosen ([`lt_choose`]; probability exactly `p_vu`, no neighbor with
/// probability `1 - sum`). The walk stops on a dead end or when it closes a
/// cycle (§2.1, §3.3).
pub fn sample_rrr_lt<R: Rng>(graph: &Graph, source: VertexId, rng: &mut R) -> Vec<VertexId> {
    let n = graph.num_vertices();
    assert!((source as usize) < n, "source out of range");
    let mut visited = vec![false; n];
    visited[source as usize] = true;
    let mut set = vec![source];
    let mut u = source;
    loop {
        let nbrs = graph.in_neighbors(u);
        if nbrs.is_empty() {
            break;
        }
        let tau: f32 = rng.gen();
        let chosen = lt_choose(graph.in_weights(u).iter().copied(), tau).map(|i| nbrs[i]);
        match chosen {
            Some(v) if !visited[v as usize] => {
                visited[v as usize] = true;
                set.push(v);
                u = v;
            }
            // Chose an already-visited vertex (cycle) or nobody: stop.
            _ => break,
        }
    }
    set.sort_unstable();
    set
}

/// Samples one RRR set under the given model.
pub fn sample_rrr<R: Rng>(
    graph: &Graph,
    model: DiffusionModel,
    source: VertexId,
    rng: &mut R,
) -> Vec<VertexId> {
    match model {
        DiffusionModel::IndependentCascade => sample_rrr_ic(graph, source, rng),
        DiffusionModel::LinearThreshold => sample_rrr_lt(graph, source, rng),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample_rng;
    use eim_graph::{generators, GraphBuilder, WeightModel};

    #[test]
    fn ic_on_path_collects_all_ancestors() {
        // path 0 -> 1 -> ... -> 9 with p = 1: reverse from 9 reaches all.
        let g = generators::path(10, WeightModel::WeightedCascade);
        let mut rng = sample_rng(1, 0);
        assert_eq!(sample_rrr_ic(&g, 9, &mut rng), (0..10).collect::<Vec<_>>());
        assert_eq!(sample_rrr_ic(&g, 0, &mut rng), vec![0]);
    }

    #[test]
    fn ic_set_contains_source_and_is_sorted_unique() {
        let g = generators::rmat(
            500,
            3_000,
            generators::RmatParams::GRAPH500,
            WeightModel::WeightedCascade,
            11,
        );
        for i in 0..50 {
            let mut rng = sample_rng(2, i);
            let src = (i as u32 * 97) % 500;
            let set = sample_rrr_ic(&g, src, &mut rng);
            assert!(set.binary_search(&src).is_ok());
            assert!(set.windows(2).all(|w| w[0] < w[1]), "sorted unique");
        }
    }

    #[test]
    fn ic_respects_zero_probability() {
        let g = generators::complete(8, WeightModel::Uniform(0.0));
        let mut rng = sample_rng(3, 0);
        assert_eq!(sample_rrr_ic(&g, 4, &mut rng), vec![4]);
    }

    #[test]
    fn lt_set_is_path_through_in_edges() {
        // Every member of an LT RRR set (except the source) must have an
        // edge to the previously chosen member — verify connectivity into
        // the source through graph edges.
        let g = generators::rmat(
            300,
            2_000,
            generators::RmatParams::MILD,
            WeightModel::WeightedCascade,
            5,
        );
        for i in 0..50 {
            let mut rng = sample_rng(4, i);
            let src = (i as u32 * 31) % 300;
            let set = sample_rrr_lt(&g, src, &mut rng);
            assert!(set.contains(&src));
            assert!(set.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn lt_on_cycle_terminates() {
        // All-1.0 weights on a cycle: the reverse walk must stop after one
        // lap instead of looping forever.
        let g = generators::cycle(6, WeightModel::WeightedCascade);
        let mut rng = sample_rng(5, 0);
        let set = sample_rrr_lt(&g, 0, &mut rng);
        assert_eq!(set, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn lt_isolated_source_is_singleton() {
        let g = GraphBuilder::new(4)
            .edge(0, 1)
            .build(WeightModel::WeightedCascade);
        let mut rng = sample_rng(6, 0);
        assert_eq!(sample_rrr_lt(&g, 3, &mut rng), vec![3]);
        // vertex 0 has no in-edges either.
        assert_eq!(sample_rrr_lt(&g, 0, &mut rng), vec![0]);
    }

    #[test]
    fn lt_chooses_neighbors_proportionally() {
        // v = 2 with in-neighbors {0, 1}, weights 0.5 / 0.5: the single
        // reverse step picks each with probability 1/2.
        let g = GraphBuilder::new(3)
            .edges([(0, 2), (1, 2)])
            .build(WeightModel::WeightedCascade);
        let mut zero = 0;
        for i in 0..1000 {
            let mut rng = sample_rng(7, i);
            let set = sample_rrr_lt(&g, 2, &mut rng);
            if set.contains(&0) {
                zero += 1;
            }
        }
        let frac = zero as f64 / 1000.0;
        assert!((frac - 0.5).abs() < 0.06, "frac {frac}");
    }

    #[test]
    fn ris_identity_ic() {
        // The RIS identity: P(v in RRR(s)) equals P(s activated | seed {v}).
        // Check on a fixed small graph by two-sided Monte Carlo.
        let g = GraphBuilder::new(4)
            .edges([(0, 1), (1, 2), (0, 2), (2, 3)])
            .build(WeightModel::WeightedCascade);
        let trials = 3000u64;
        let mut fwd = 0;
        let mut rev = 0;
        for i in 0..trials {
            let mut rng = sample_rng(8, i);
            if crate::simulate_ic(&g, &[0], &mut rng).contains(&3) {
                fwd += 1;
            }
            let mut rng = sample_rng(9, i);
            if sample_rrr_ic(&g, 3, &mut rng).contains(&0) {
                rev += 1;
            }
        }
        let (pf, pr) = (fwd as f64 / trials as f64, rev as f64 / trials as f64);
        assert!((pf - pr).abs() < 0.04, "forward {pf} vs reverse {pr}");
    }

    #[test]
    fn ris_identity_lt() {
        let g = GraphBuilder::new(4)
            .edges([(0, 1), (1, 2), (0, 2), (2, 3)])
            .build(WeightModel::WeightedCascade);
        let trials = 3000u64;
        let mut fwd = 0;
        let mut rev = 0;
        for i in 0..trials {
            let mut rng = sample_rng(10, i);
            if crate::simulate_lt(&g, &[0], &mut rng).contains(&3) {
                fwd += 1;
            }
            let mut rng = sample_rng(11, i);
            if sample_rrr_lt(&g, 3, &mut rng).contains(&0) {
                rev += 1;
            }
        }
        let (pf, pr) = (fwd as f64 / trials as f64, rev as f64 / trials as f64);
        assert!((pf - pr).abs() < 0.04, "forward {pf} vs reverse {pr}");
    }

    #[test]
    fn lt_choice_rule_at_the_edges() {
        // tau = 0.0 chooses nobody, even a zero-weight first edge: its
        // exclusive sum 0.0 is not below tau.
        for ws in [vec![0.0, 0.5], vec![0.5, 0.5], vec![0.0]] {
            let prefix: Vec<f32> = ws
                .iter()
                .scan(0.0f32, |acc, &p| {
                    *acc += p;
                    Some(*acc)
                })
                .collect();
            assert_eq!(lt_choose(ws.iter().copied(), 0.0), None, "{ws:?}");
            assert_eq!(lt_choose_prefix(&prefix, 0.0), None, "{ws:?}");
        }
        // Just above 0.0 a zero-weight edge is still skipped.
        let tiny = f32::from_bits(1);
        assert_eq!(lt_choose([0.0, 0.5], tiny), Some(1));
        assert_eq!(lt_choose_prefix(&[0.0, 0.5], tiny), Some(1));
        // tau exactly on a boundary picks the edge whose inclusive sum
        // equals it; above the row sum nobody is picked.
        assert_eq!(lt_choose([0.25, 0.25, 0.5], 0.5), Some(1));
        assert_eq!(lt_choose_prefix(&[0.25, 0.5, 1.0], 0.5), Some(1));
        assert_eq!(lt_choose([0.25, 0.25], 0.75), None);
        assert_eq!(lt_choose_prefix(&[0.25, 0.5], 0.75), None);
        assert_eq!(lt_choose_prefix(&[], 0.5), None);
    }

    #[test]
    fn lt_tau_zero_stops_the_walk() {
        // Sample 6_023_998 of run seed 1 draws source 0 and then tau = 0.0
        // exactly (probability 2^-24 per draw). On a 6-cycle of weight-1
        // edges any tau > 0 walks the whole cycle; tau = 0.0 chooses
        // nobody, so the set is the source alone.
        let g = generators::cycle(6, WeightModel::WeightedCascade);
        let mut rng = sample_rng(1, 6_023_998);
        let source = rng.gen_range(0..6);
        let mut probe = rng.clone();
        assert_eq!(probe.gen::<f32>(), 0.0);
        assert_eq!(sample_rrr_lt(&g, source, &mut rng), vec![source]);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use rand::SeedableRng;

        /// One generated row: its weights, its prefix sums, and thresholds
        /// worth probing besides the boundaries.
        fn row(kind: u8, d: usize, seed: u64, pick: usize) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let df = d as f32;
            let c = pick % d.max(1);
            let weights: Vec<f32> = match kind {
                // Weighted cascade: 1/d on every in-edge.
                0 => vec![1.0 / df; d],
                // Random weights, row sum below 1.
                1 => (0..d).map(|_| rng.gen::<f32>() / df).collect(),
                // Half the edges weigh zero.
                2 => (0..d)
                    .map(|_| {
                        if rng.gen_bool(0.5) {
                            0.0
                        } else {
                            rng.gen::<f32>() / df
                        }
                    })
                    .collect(),
                // Trivalency-like levels plus zeros; the sum may pass 1.
                3 => (0..d)
                    .map(|_| [0.0, 0.001, 0.01, 0.1][rng.gen_range(0..4usize)])
                    .collect(),
                // One heavy edge first: the sums jump past most guesses.
                4 => (0..d)
                    .map(|i| if i == 0 { 0.9 } else { 0.1 / df })
                    .collect(),
                // One heavy edge last: the sums stay below most guesses.
                5 => (0..d)
                    .map(|i| if i + 1 == d { 0.9 } else { 0.1 / df })
                    .collect(),
                // Geometric weights 2^-(i+1): half the mass on edge 0.
                6 => (0..d).map(|i| 0.5f32.powi(i as i32 + 1)).collect(),
                // A run of zeros straddling position `c`, 1/d elsewhere.
                7 => {
                    let r = 1 + pick % 64;
                    (0..d)
                        .map(|i| {
                            if i + r >= c && i <= c + r {
                                0.0
                            } else {
                                1.0 / df
                            }
                        })
                        .collect()
                }
                // Sums far below 1.
                _ => (0..d).map(|_| rng.gen::<f32>() * 0.01 / df).collect(),
            };
            let mut acc = 0.0f32;
            let prefix: Vec<f32> = weights
                .iter()
                .map(|&p| {
                    acc += p;
                    acc
                })
                .collect();
            // Where a guess lands at `c`, and just above the row sum.
            let taus = vec![
                c as f32 / df.max(1.0),
                (c as f32 + 0.5) / df.max(1.0),
                f32::from_bits(acc.to_bits() + 1),
            ];
            (weights, prefix, taus)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn prefix_lookup_matches_linear_rule(
                kind in 0u8..9,
                size in 0u8..4,
                span in 0usize..=100_000,
                seed in any::<u64>(),
                pick in 0usize..100_000,
                free_tau in 0.0f32..1.0,
            ) {
                // One edge, short rows, long rows, and rows up to 100k edges.
                let d = match size {
                    0 => 1,
                    1 => span % 64,
                    2 => span % 10_000,
                    _ => span,
                };
                let (weights, prefix, extra) = row(kind, d, seed, pick);
                let mut taus = vec![0.0, free_tau, 1.0, f32::from_bits(1)];
                taus.extend(extra);
                // Exactly on prefix boundaries, and one ulp either side:
                // every boundary of a short row, a spread of a long one's.
                let step = (d / 64).max(1);
                for j in (pick % step..d).step_by(step) {
                    let b = prefix[j];
                    taus.extend([
                        b,
                        f32::from_bits(b.to_bits().saturating_sub(1)),
                        f32::from_bits(b.to_bits() + 1),
                    ]);
                }
                let linear: Vec<Option<usize>> = taus
                    .iter()
                    .map(|&tau| lt_choose(weights.iter().copied(), tau))
                    .collect();
                for (&tau, want) in taus.iter().zip(linear) {
                    prop_assert_eq!(
                        first_reaching(&prefix, tau),
                        prefix.partition_point(|&s| s < tau),
                        "kind {} d {} tau {}", kind, d, tau
                    );
                    prop_assert_eq!(
                        lt_choose_prefix(&prefix, tau),
                        want,
                        "kind {} d {} tau {}", kind, d, tau
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "source out of range")]
    fn rejects_bad_source() {
        let g = generators::path(3, WeightModel::WeightedCascade);
        let mut rng = sample_rng(1, 0);
        sample_rrr_ic(&g, 5, &mut rng);
    }
}
