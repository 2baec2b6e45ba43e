//! Greedy max-coverage seed selection (§3.5, Algorithm 3).
//!
//! One greedy core, [`greedy_cover`], serves every engine. It is CELF lazy
//! greedy over an [`InvertedIndex`] (vertex → ascending ids of the sets
//! containing it), restricted to the sets below a cutoff: a heap holds one
//! `(gain bound, vertex)` entry per vertex, a stale entry is recounted
//! against the current coverage when it reaches the top, and a current one
//! is picked and marks its sets covered. By submodularity a bound never
//! understates a gain, so each pick recounts only the few vertices whose
//! bound still competes. The core reports each set's covering round;
//! coverage, per-pick gains and the device cost accounting are all read off
//! that array. Cold engines index their whole store
//! ([`greedy_cover_store`]); the streaming engine keeps the index of its
//! slot-indexed store and selects over the slots below its cutoff.
//!
//! Gain ties break toward the smallest vertex id, so seed sets are
//! deterministic. `tests/device_selection.rs` holds the direct Algorithm 3
//! transcription the core is tested against.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use eim_graph::VertexId;

use crate::rrrstore::RrrSets;

/// Result of seed selection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Selection {
    /// Selected vertices, in selection (descending-marginal-gain) order.
    pub seeds: Vec<VertexId>,
    /// RRR sets covered by the seeds.
    pub covered_sets: usize,
    /// Total sets considered.
    pub num_sets: usize,
}

impl Selection {
    /// Fraction of RRR sets covered — `F_R(S)`, the martingale estimator of
    /// `E[I(S)] / n`.
    pub fn coverage_fraction(&self) -> f64 {
        if self.num_sets == 0 {
            0.0
        } else {
            self.covered_sets as f64 / self.num_sets as f64
        }
    }
}

/// CSR inverted index over an RRR store: for every vertex, the ids of the
/// sets containing it — the transpose of the store's `R`/`O` layout. The
/// per-vertex run starts are the exclusive prefix sum of the store's count
/// array `C`. The postings fill is one sequential pass over the store's
/// sets, so every run is ascending.
pub(crate) struct InvertedIndex {
    /// `starts[v]..starts[v + 1]` bounds vertex `v`'s posting run.
    starts: Vec<usize>,
    /// Set ids, grouped by vertex.
    postings: Vec<u32>,
    /// Sets in the indexed store.
    num_sets: usize,
}

impl InvertedIndex {
    /// Builds the index of every set in `store`.
    pub(crate) fn build<S: RrrSets + ?Sized>(store: &S) -> Self {
        let n = store.num_vertices();
        let mut starts = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        starts.push(0);
        for &c in store.counts() {
            acc += c as usize;
            starts.push(acc);
        }
        let num_sets = store.num_sets();
        let mut cursors: Vec<usize> = starts[..n].to_vec();
        let mut postings = vec![0u32; acc];
        for i in 0..num_sets {
            for &v in store.set(i) {
                let cursor = &mut cursors[v as usize];
                postings[*cursor] = i as u32;
                *cursor += 1;
            }
        }
        Self {
            starts,
            postings,
            num_sets,
        }
    }

    /// Candidate seeds are `0..num_vertices()`.
    pub(crate) fn num_vertices(&self) -> usize {
        self.starts.len() - 1
    }

    /// Ids of the sets containing `v`, ascending.
    pub(crate) fn sets_of(&self, v: usize) -> &[u32] {
        &self.postings[self.starts[v]..self.starts[v + 1]]
    }

    /// Ids below `cutoff` of the sets containing `v`. A run that ends below
    /// the cutoff is taken whole, without a search.
    fn sets_below(&self, v: usize, cutoff: usize) -> &[u32] {
        let run = self.sets_of(v);
        match run.last() {
            Some(&last) if last as usize >= cutoff => {
                &run[..run.partition_point(|&i| (i as usize) < cutoff)]
            }
            _ => run,
        }
    }
}

/// Covering round of a set that no seed covers.
pub const NEVER: u32 = u32::MAX;

/// What the greedy core picked and what each pick covered.
#[derive(Debug)]
pub struct Greedy {
    /// Selected vertices, in pick order.
    pub seeds: Vec<VertexId>,
    /// Each set id's covering round (the index into `seeds` of the pick
    /// that covered it), [`NEVER`] if no seed covers it.
    pub cover: Vec<u32>,
}

impl Greedy {
    /// Sets some seed covers.
    pub fn covered_sets(&self) -> usize {
        self.cover.iter().filter(|&&c| c != NEVER).count()
    }

    /// Element `r` is how many *additional* sets pick `r` covered — the
    /// submodular diminishing-returns curve.
    #[cfg(test)]
    pub(crate) fn gains(&self) -> Vec<usize> {
        let mut gains = vec![0; self.seeds.len()];
        for &c in &self.cover {
            if c != NEVER {
                gains[c as usize] += 1;
            }
        }
        gains
    }
}

/// Greedy max-coverage over the sets of `index` below `cutoff`, picking up
/// to `k` seeds: fewer only when every vertex is picked. Ties break toward
/// the smallest vertex id, making the result deterministic.
pub(crate) fn greedy_cover(index: &InvertedIndex, cutoff: usize, k: usize) -> Greedy {
    let n = index.num_vertices();
    assert!(cutoff <= index.num_sets, "cutoff past the indexed sets");
    assert!(
        cutoff <= NEVER as usize && k < NEVER as usize,
        "set ids and rounds must fit in u32"
    );
    let mut cover = vec![NEVER; cutoff];
    // Heap of (gain upper bound, Reverse(vertex), round validated). Exactly
    // one entry per vertex at all times, so the `(gain desc, id asc)` order
    // reproduces the reference tie-break: an equal-gain smaller-id entry —
    // stale or not — always pops before a larger-id one can be selected.
    let mut heap: BinaryHeap<(u32, Reverse<u32>, u32)> = (0..n)
        .map(|v| (index.sets_below(v, cutoff).len() as u32, v))
        .map(|(gain, v)| (gain, Reverse(v as u32), 0u32))
        .collect();
    let mut seeds: Vec<VertexId> = Vec::with_capacity(k.min(n));
    while seeds.len() < k {
        let Some((bound, Reverse(v), validated)) = heap.pop() else {
            break;
        };
        let round = seeds.len() as u32;
        let sets = index.sets_below(v as usize, cutoff);
        if validated == round {
            // The bound is current: pick the vertex, cover its sets.
            let mut gain = 0u32;
            for &i in sets {
                let c = &mut cover[i as usize];
                if *c == NEVER {
                    *c = round;
                    gain += 1;
                }
            }
            debug_assert_eq!(gain, bound, "validated gain was not exact");
            seeds.push(v);
        } else {
            let fresh = sets.iter().filter(|&&i| cover[i as usize] == NEVER).count();
            heap.push((fresh as u32, Reverse(v), round));
        }
    }
    Greedy { seeds, cover }
}

/// The greedy core over every set in `store`: up to `k` seeds and each
/// set's covering round.
pub fn greedy_cover_store<S: RrrSets + ?Sized>(store: &S, k: usize) -> Greedy {
    greedy_cover(&InvertedIndex::build(store), store.num_sets(), k)
}

/// Greedy max-coverage over `store`, choosing `k` seeds. Ties break toward
/// the smallest vertex id, making the result deterministic.
pub fn select_seeds<S: RrrSets + ?Sized>(store: &S, k: usize) -> Selection {
    assert!(k <= store.num_vertices(), "k exceeds vertex count");
    let greedy = greedy_cover_store(store, k);
    Selection {
        covered_sets: greedy.covered_sets(),
        seeds: greedy.seeds,
        num_sets: store.num_sets(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rrrstore::{RrrStore, RrrStoreBuilder};
    use rand::{Rng, SeedableRng};

    fn store_from(sets: &[&[u32]], n: usize) -> RrrStore {
        let mut s = RrrStore::new(n, false);
        for set in sets {
            s.append_set(set);
        }
        s
    }

    /// A store of `sets` random sets of `1..max_len` draws over `0..n`.
    fn random_store(n: usize, sets: usize, max_len: usize, seed: u64) -> RrrStore {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut store = RrrStore::new(n, false);
        for _ in 0..sets {
            let len = rng.gen_range(1..max_len);
            let mut set: Vec<u32> = (0..len).map(|_| rng.gen_range(0..n as u32)).collect();
            set.sort_unstable();
            set.dedup();
            store.append_set(&set);
        }
        store
    }

    #[test]
    fn picks_max_coverage_vertex_first() {
        // Vertex 2 covers three sets; nothing else covers more than one.
        let s = store_from(&[&[0, 2], &[1, 2], &[2, 3], &[4]], 5);
        let sel = select_seeds(&s, 1);
        assert_eq!(sel.seeds, vec![2]);
        assert_eq!(sel.covered_sets, 3);
        assert!((sel.coverage_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn second_seed_maximizes_marginal_gain() {
        // After 2 covers {0,1,2}, the marginal winner is 4 (covers the last
        // set), not 0/1/3 (whose sets are already covered).
        let s = store_from(&[&[0, 2], &[1, 2], &[2, 3], &[4]], 5);
        let sel = select_seeds(&s, 2);
        assert_eq!(sel.seeds, vec![2, 4]);
        assert_eq!(sel.covered_sets, 4);
        assert_eq!(sel.coverage_fraction(), 1.0);
    }

    #[test]
    fn ties_break_to_smallest_id() {
        let s = store_from(&[&[3], &[1], &[1, 3]], 5);
        let sel = select_seeds(&s, 1);
        assert_eq!(sel.seeds, vec![1]);
    }

    #[test]
    fn empty_store_selects_lowest_ids() {
        let s = store_from(&[], 5);
        let sel = select_seeds(&s, 3);
        assert_eq!(sel.seeds, vec![0, 1, 2]);
        assert_eq!(sel.covered_sets, 0);
        assert_eq!(sel.coverage_fraction(), 0.0);
    }

    #[test]
    fn k_larger_than_useful_still_returns_k() {
        let s = store_from(&[&[0]], 4);
        let sel = select_seeds(&s, 3);
        assert_eq!(sel.seeds.len(), 3);
        assert_eq!(sel.seeds[0], 0);
        assert_eq!(sel.covered_sets, 1);
    }

    #[test]
    fn never_selects_same_vertex_twice() {
        let s = store_from(&[&[0], &[0], &[0], &[0]], 3);
        let sel = select_seeds(&s, 3);
        let mut sorted = sel.seeds.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 3);
    }

    #[test]
    fn gains_sum_to_coverage_and_decrease() {
        let store = random_store(80, 300, 8, 41);
        let gains = greedy_cover_store(&store, 8).gains();
        let sel = select_seeds(&store, 8);
        assert_eq!(gains.len(), sel.seeds.len());
        assert_eq!(gains.iter().sum::<usize>(), sel.covered_sets);
        // Submodularity of coverage: marginal gains never increase.
        assert!(gains.windows(2).all(|w| w[0] >= w[1]), "{gains:?}");
    }

    #[test]
    fn coverage_is_monotone_in_k() {
        let store = random_store(40, 100, 6, 23);
        let mut prev = 0;
        for k in 1..10 {
            let sel = select_seeds(&store, k);
            assert!(sel.covered_sets >= prev);
            prev = sel.covered_sets;
        }
    }

    #[test]
    fn selection_deterministic_under_parallelism() {
        let store = random_store(200, 500, 10, 31);
        let a = select_seeds(&store, 10);
        let b = select_seeds(&store, 10);
        assert_eq!(a, b);
    }
}
