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
//! [`select_seeds_reference`] is the direct Algorithm 3 transcription:
//! repeat `k` times, take the vertex appearing in the most *uncovered* RRR
//! sets, mark every set containing it covered (one task per set,
//! membership by binary search — structurally identical to the paper's
//! thread-based GPU scan), and decrement the counts of all vertices in the
//! newly covered sets. It is the differential-testing oracle.
//!
//! Both break gain ties toward the smallest vertex id, so seed sets are
//! deterministic and interchangeable between the two paths.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

use eim_graph::VertexId;
use rayon::prelude::*;

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
/// sets ([`RrrSets::for_each_set_in`]), so every run is ascending.
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
        store.for_each_set_in(0, num_sets, &mut |i, members| {
            for &v in members {
                let cursor = &mut cursors[v as usize];
                postings[*cursor] = i as u32;
                *cursor += 1;
            }
        });
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

/// Reusable buffers for the reference selector, so repeated calls (the IMM
/// driver selects once per estimation iteration) stop cloning the counts
/// array and covered flags into fresh allocations every time.
#[derive(Default)]
pub struct SelectionWorkspace {
    counts: Vec<AtomicU32>,
    flags: Vec<AtomicU32>,
    candidates: Vec<u32>,
}

impl SelectionWorkspace {
    /// An empty workspace; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grows `buf` to `len` slots and stores `value` in the first `len`.
    fn reset(buf: &mut Vec<AtomicU32>, len: usize, values: impl Iterator<Item = u32>) {
        if buf.len() < len {
            buf.resize_with(len, || AtomicU32::new(0));
        }
        for (slot, v) in buf.iter().zip(values) {
            slot.store(v, Ordering::Relaxed);
        }
    }
}

/// The reference greedy selector — [`select_seeds_reference_with_gains`]
/// with a throwaway workspace.
pub fn select_seeds_reference<S: RrrSets + ?Sized>(store: &S, k: usize) -> Selection {
    select_seeds_reference_with_gains(store, k, &mut SelectionWorkspace::new()).0
}

/// Algorithm 3 as written: per pick, a parallel argmax over the still
/// unselected vertices (a compacted candidate list, so already-selected ids
/// cost nothing) followed by a thread-parallel membership scan over every
/// RRR set. Byte-identical to [`greedy_cover_store`]'s seeds and gains;
/// quadratically slower at scale, which is exactly what makes it a useful
/// oracle.
pub fn select_seeds_reference_with_gains<S: RrrSets + ?Sized>(
    store: &S,
    k: usize,
    ws: &mut SelectionWorkspace,
) -> (Selection, Vec<usize>) {
    let n = store.num_vertices();
    let num_sets = store.num_sets();
    assert!(k <= n, "k exceeds vertex count");
    SelectionWorkspace::reset(&mut ws.counts, n, store.counts().iter().copied());
    SelectionWorkspace::reset(
        &mut ws.flags,
        num_sets.div_ceil(32),
        std::iter::repeat_n(0, num_sets.div_ceil(32)),
    );
    ws.candidates.clear();
    ws.candidates.extend(0..n as u32);
    let (counts, flags) = (&ws.counts, &ws.flags);
    let covered = AtomicUsize::new(0);
    let mut seeds = Vec::with_capacity(k);
    let mut gains = Vec::with_capacity(k);

    for _ in 0..k {
        // argmax_u C[u] over the candidate list (parallel reduce, ties to
        // the smallest id).
        let candidates = &ws.candidates;
        let best = (0..candidates.len())
            .into_par_iter()
            .map(|pos| {
                let v = candidates[pos];
                (counts[v as usize].load(Ordering::Relaxed), v, pos)
            })
            .reduce(
                || (0u32, u32::MAX, usize::MAX),
                |a, b| {
                    if b.0 > a.0 || (b.0 == a.0 && b.1 < a.1) {
                        b
                    } else {
                        a
                    }
                },
            );
        if best.2 == usize::MAX {
            break; // fewer than k vertices exist
        }
        let vid = best.1;
        ws.candidates.swap_remove(best.2);
        seeds.push(vid);
        let covered_before = covered.load(Ordering::Relaxed);
        // Thread-parallel scan: one task per set (Algorithm 3).
        (0..num_sets).into_par_iter().for_each(|i| {
            let (word, bit) = (i / 32, 1u32 << (i % 32));
            if flags[word].load(Ordering::Relaxed) & bit != 0 {
                return;
            }
            if store.contains(i, vid) {
                // First marker wins; others skip the decrement.
                if flags[word].fetch_or(bit, Ordering::Relaxed) & bit == 0 {
                    covered.fetch_add(1, Ordering::Relaxed);
                    let (s, e) = store.set_bounds(i);
                    for idx in s..e {
                        let u = store.element(idx) as usize;
                        counts[u].fetch_sub(1, Ordering::Relaxed);
                    }
                }
            }
        });
        gains.push(covered.load(Ordering::Relaxed) - covered_before);
    }

    (
        Selection {
            seeds,
            covered_sets: covered.into_inner(),
            num_sets,
        },
        gains,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rrrstore::{PlainRrrStore, RrrStoreBuilder};
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    fn store_from(sets: &[&[u32]], n: usize) -> PlainRrrStore {
        let mut s = PlainRrrStore::new(n);
        for set in sets {
            s.append_set(set);
        }
        s
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
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(41);
        let n = 80;
        let mut store = PlainRrrStore::new(n);
        for _ in 0..300 {
            let len = rng.gen_range(1..8);
            let mut set: Vec<u32> = (0..len).map(|_| rng.gen_range(0..n as u32)).collect();
            set.sort_unstable();
            set.dedup();
            store.append_set(&set);
        }
        let (sel, gains) = select_with_gains(&store, 8);
        assert_eq!(gains.len(), sel.seeds.len());
        assert_eq!(gains.iter().sum::<usize>(), sel.covered_sets);
        // Submodularity of coverage: marginal gains never increase.
        assert!(gains.windows(2).all(|w| w[0] >= w[1]), "{gains:?}");
    }

    #[test]
    fn reference_matches_greedy_coverage_randomized() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(17);
        for trial in 0..20 {
            let n = 60;
            let mut store = PlainRrrStore::new(n);
            for _ in 0..150 {
                let len = rng.gen_range(1..8);
                let mut set: Vec<u32> = (0..len).map(|_| rng.gen_range(0..n as u32)).collect();
                set.sort_unstable();
                set.dedup();
                store.append_set(&set);
            }
            for k in [1, 3, 7] {
                let a = select_seeds(&store, k);
                let b = select_seeds_reference(&store, k);
                // Greedy max-coverage is deterministic up to tie-breaking;
                // covered counts must agree exactly.
                assert_eq!(
                    a.covered_sets, b.covered_sets,
                    "trial {trial} k {k}: {:?} vs {:?}",
                    a.seeds, b.seeds
                );
            }
        }
    }

    #[test]
    fn coverage_is_monotone_in_k() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(23);
        let n = 40;
        let mut store = PlainRrrStore::new(n);
        for _ in 0..100 {
            let len = rng.gen_range(1..6);
            let mut set: Vec<u32> = (0..len).map(|_| rng.gen_range(0..n as u32)).collect();
            set.sort_unstable();
            set.dedup();
            store.append_set(&set);
        }
        let mut prev = 0;
        for k in 1..10 {
            let sel = select_seeds(&store, k);
            assert!(sel.covered_sets >= prev);
            prev = sel.covered_sets;
        }
    }

    #[test]
    fn selection_deterministic_under_parallelism() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(31);
        let n = 200;
        let mut store = PlainRrrStore::new(n);
        for _ in 0..500 {
            let len = rng.gen_range(1..10);
            let mut set: Vec<u32> = (0..len).map(|_| rng.gen_range(0..n as u32)).collect();
            set.sort_unstable();
            set.dedup();
            store.append_set(&set);
        }
        let a = select_seeds(&store, 10);
        let b = select_seeds(&store, 10);
        assert_eq!(a, b);
    }

    /// A random store with `sets` sets over `n` vertices; `max_len = 1`
    /// makes it tie-heavy (every count collides with dozens of others).
    fn random_store(n: usize, sets: usize, max_len: usize, seed: u64) -> PlainRrrStore {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut store = PlainRrrStore::new(n);
        for _ in 0..sets {
            let len = rng.gen_range(1..max_len + 1);
            let mut set: Vec<u32> = (0..len).map(|_| rng.gen_range(0..n as u32)).collect();
            set.sort_unstable();
            set.dedup();
            store.append_set(&set);
        }
        store
    }

    /// [`select_seeds`] plus the per-pick gains read off the covering rounds.
    fn select_with_gains(store: &PlainRrrStore, k: usize) -> (Selection, Vec<usize>) {
        let gains = greedy_cover_store(store, k).gains();
        (select_seeds(store, k), gains)
    }

    fn assert_paths_identical(store: &PlainRrrStore, k: usize, ctx: &str) {
        let (fast, fast_gains) = select_with_gains(store, k);
        let (reference, ref_gains) =
            select_seeds_reference_with_gains(store, k, &mut SelectionWorkspace::new());
        assert_eq!(fast, reference, "{ctx}");
        assert_eq!(fast_gains, ref_gains, "{ctx}");
    }

    #[test]
    fn indexed_matches_reference_on_random_stores() {
        for trial in 0..10 {
            let store = random_store(120, 400, 10, 100 + trial);
            for k in [1, 5, 17, 120] {
                assert_paths_identical(&store, k, &format!("trial {trial} k {k}"));
            }
        }
    }

    #[test]
    fn indexed_matches_reference_on_tie_heavy_stores() {
        // Singleton sets over few vertices: nearly every gain value is
        // shared by many vertices, so every pick exercises the tie-break.
        for trial in 0..10 {
            let store = random_store(12, 300, 1, 200 + trial);
            for k in [1, 3, 12] {
                assert_paths_identical(&store, k, &format!("tie trial {trial} k {k}"));
            }
        }
    }

    #[test]
    fn indexed_matches_reference_on_empty_and_exhausted_stores() {
        // No sets at all: both paths must fall back to ascending ids.
        assert_paths_identical(&store_from(&[], 9), 4, "empty store");
        // Fewer useful vertices than k: both pad with ascending zero-gain ids.
        assert_paths_identical(&store_from(&[&[5], &[5], &[7]], 10), 6, "exhausted");
    }

    #[test]
    fn workspace_reuse_does_not_leak_state_between_stores() {
        let mut ws = SelectionWorkspace::new();
        // Big store first, then a smaller one: stale counts/flags from the
        // first call must not bleed into the second.
        let big = random_store(100, 500, 8, 7);
        let small = random_store(30, 40, 4, 8);
        let _ = select_seeds_reference_with_gains(&big, 20, &mut ws);
        let reused = select_seeds_reference_with_gains(&small, 5, &mut ws);
        let fresh = select_seeds_reference_with_gains(&small, 5, &mut SelectionWorkspace::new());
        assert_eq!(reused.0, fresh.0);
        assert_eq!(reused.1, fresh.1);
    }

    #[test]
    fn deterministic_under_varying_thread_counts() {
        let store = random_store(150, 2_000, 12, 77);
        let baseline = select_with_gains(&store, 20);
        for threads in [1, 2, 3, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let got = pool.install(|| select_with_gains(&store, 20));
            assert_eq!(got.0, baseline.0, "threads = {threads}");
            assert_eq!(got.1, baseline.1, "threads = {threads}");
            let reference = pool.install(|| {
                select_seeds_reference_with_gains(&store, 20, &mut SelectionWorkspace::new())
            });
            assert_eq!(reference.0, baseline.0, "reference, threads = {threads}");
        }
    }

    /// Proptest generator: a sorted-unique set over `0..n`.
    fn arb_set(n: u32) -> impl Strategy<Value = Vec<u32>> {
        proptest::collection::vec(0..n, 1..10).prop_map(|mut v| {
            v.sort_unstable();
            v.dedup();
            v
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Differential property: the indexed/lazy selector is
        /// byte-identical to the reference greedy — seeds, coverage, and
        /// per-pick gains — on arbitrary stores, including tie-heavy ones
        /// (tiny vertex ranges force count collisions).
        #[test]
        fn indexed_selector_equals_reference(
            n in 1usize..40,
            sets in proptest::collection::vec(arb_set(40), 0..60),
            k_frac in 0.0f64..1.0,
        ) {
            let mut store = PlainRrrStore::new(n.max(40));
            for set in &sets {
                store.append_set(set);
            }
            let k = ((store.num_vertices() as f64) * k_frac) as usize;
            assert_paths_identical(&store, k, "proptest");
        }
    }
}
