//! Property-based invariants across crates: cascade validity, RRR
//! reachability, store/count consistency, greedy-coverage guarantees, and
//! makespan bounds — on randomized graphs and stores.

use eim::diffusion::{sample_rng, sample_rrr_ic, simulate_ic, simulate_lt};
use eim::gpusim::slot_makespan_cycles;
use eim::graph::{Graph, GraphBuilder, VertexId, WeightModel};
use eim::imm::{select_seeds, RrrSets, RrrStore, RrrStoreBuilder};
use proptest::prelude::*;

/// Strategy: a random directed graph with up to 40 vertices and 160 edges.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (
        2usize..40,
        prop::collection::vec((0u32..40, 0u32..40), 0..160),
        any::<u64>(),
    )
        .prop_map(|(n, raw_edges, seed)| {
            let edges: Vec<(VertexId, VertexId)> = raw_edges
                .into_iter()
                .map(|(u, v)| (u % n as u32, v % n as u32))
                .collect();
            GraphBuilder::new(n)
                .edges(edges)
                .weight_seed(seed)
                .build(WeightModel::WeightedCascade)
        })
}

/// True if `target` is forward-reachable from `from` in `g`.
fn reachable(g: &Graph, from: VertexId, target: VertexId) -> bool {
    let mut seen = vec![false; g.num_vertices()];
    let mut stack = vec![from];
    seen[from as usize] = true;
    while let Some(u) = stack.pop() {
        if u == target {
            return true;
        }
        for &v in g.out_neighbors(u) {
            if !seen[v as usize] {
                seen[v as usize] = true;
                stack.push(v);
            }
        }
    }
    false
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ic_cascades_are_valid(g in arb_graph(), seed in any::<u64>()) {
        let n = g.num_vertices() as u32;
        let seeds = [0u32 % n];
        let mut rng = sample_rng(seed, 0);
        let active = simulate_ic(&g, &seeds, &mut rng);
        // Contains the seed; sorted unique; every non-seed member has an
        // in-neighbor in the active set (someone activated it).
        prop_assert!(active.contains(&seeds[0]));
        prop_assert!(active.windows(2).all(|w| w[0] < w[1]));
        for &v in &active {
            if v == seeds[0] { continue; }
            let has_active_parent = g
                .in_neighbors(v)
                .iter()
                .any(|u| active.binary_search(u).is_ok());
            prop_assert!(has_active_parent, "vertex {v} activated with no active parent");
        }
    }

    #[test]
    fn lt_cascades_are_valid(g in arb_graph(), seed in any::<u64>()) {
        let seeds = [1u32 % g.num_vertices() as u32];
        let mut rng = sample_rng(seed, 1);
        let active = simulate_lt(&g, &seeds, &mut rng);
        prop_assert!(active.contains(&seeds[0]));
        for &v in &active {
            if v == seeds[0] { continue; }
            let has_active_parent = g
                .in_neighbors(v)
                .iter()
                .any(|u| active.binary_search(u).is_ok());
            prop_assert!(has_active_parent);
        }
    }

    #[test]
    fn rrr_members_reach_the_source(g in arb_graph(), seed in any::<u64>()) {
        let source = (seed % g.num_vertices() as u64) as u32;
        let mut rng = sample_rng(seed, 2);
        let set = sample_rrr_ic(&g, source, &mut rng);
        prop_assert!(set.binary_search(&source).is_ok());
        // An RRR member was activated in reverse, so in the forward graph
        // it must be able to reach the source.
        for &v in &set {
            prop_assert!(reachable(&g, v, source), "member {v} cannot reach source {source}");
        }
    }

    #[test]
    fn store_counts_match_membership(
        raw_sets in prop::collection::vec(prop::collection::btree_set(0u32..30, 0..8), 0..60)
    ) {
        let n = 30;
        let mut store = RrrStore::new(n, false);
        for s in &raw_sets {
            let v: Vec<u32> = s.iter().copied().collect();
            store.append_set(&v);
        }
        for v in 0..n as u32 {
            let expected = raw_sets.iter().filter(|s| s.contains(&v)).count() as u32;
            prop_assert_eq!(store.counts()[v as usize], expected);
            for (i, s) in raw_sets.iter().enumerate() {
                prop_assert_eq!(store.contains(i, v), s.contains(&v));
            }
        }
        prop_assert_eq!(store.total_elements(), raw_sets.iter().map(|s| s.len()).sum::<usize>());
    }

    #[test]
    fn greedy_first_seed_is_max_count(
        raw_sets in prop::collection::vec(prop::collection::btree_set(0u32..20, 1..6), 1..50)
    ) {
        let n = 20;
        let mut store = RrrStore::new(n, false);
        for s in &raw_sets {
            let v: Vec<u32> = s.iter().copied().collect();
            store.append_set(&v);
        }
        let sel = select_seeds(&store, 1);
        let max_count = *store.counts().iter().max().unwrap();
        prop_assert_eq!(store.counts()[sel.seeds[0] as usize], max_count);
        prop_assert_eq!(sel.covered_sets as u32, max_count);
    }

    #[test]
    fn greedy_coverage_is_monotone_and_bounded(
        raw_sets in prop::collection::vec(prop::collection::btree_set(0u32..25, 0..6), 0..60),
        k in 1usize..10,
    ) {
        let n = 25;
        let mut store = RrrStore::new(n, false);
        for s in &raw_sets {
            let v: Vec<u32> = s.iter().copied().collect();
            store.append_set(&v);
        }
        let smaller = select_seeds(&store, k);
        let larger = select_seeds(&store, (k + 3).min(n));
        prop_assert!(larger.covered_sets >= smaller.covered_sets);
        let nonempty = raw_sets.iter().filter(|s| !s.is_empty()).count();
        prop_assert!(larger.covered_sets <= nonempty);
    }

    #[test]
    fn makespan_bounds(costs in prop::collection::vec(0u64..1000, 0..200), slots in 1usize..64) {
        let total: u64 = costs.iter().sum();
        let max = costs.iter().copied().max().unwrap_or(0);
        let makespan = slot_makespan_cycles(costs.iter().copied(), slots);
        prop_assert!(makespan >= max);
        prop_assert!(makespan >= total / slots as u64);
        prop_assert!(makespan <= total);
        // One slot serializes everything.
        prop_assert_eq!(slot_makespan_cycles(costs.iter().copied(), 1), total);
    }
}
