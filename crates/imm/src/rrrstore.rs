//! The RRR store: the paper's `R` / `O` / `C` triple (§3.1, §3.5).
//!
//! All of the RRR sets live concatenated in one flat array `R`; `O[i]` gives
//! the start of set `i`; `C[v]` counts how many sets contain vertex `v`
//! (the greedy-selection priority). Sets are stored sorted ascending so
//! membership tests binary-search (§3.2: "this ordering enables us to use a
//! binary search operation during the seed selection phase").
//!
//! Log encoding is a property of device memory, so [`RrrStore`] models it
//! the way `PackedDeviceGraph` models the packed network: the host keeps
//! the ids decoded in plain arrays, and `config.packed` only picks how
//! [`RrrSets::bytes`] charges them. Packed, `R` is charged at
//! `ceil(log2 n)` bits per id and `O` at the width of its largest offset,
//! as eIM lays them out; plain, `R` is charged at 4 B per id and `O` at
//! 8 B per offset, as gIM keeps them.

use eim_bitpack::bits_for;
use eim_graph::VertexId;

/// Read interface over a collection of sorted RRR sets.
pub trait RrrSets: Sync {
    /// Number of vertices in the underlying graph (`n`).
    fn num_vertices(&self) -> usize;
    /// Number of stored sets (`theta` once sampling finishes).
    fn num_sets(&self) -> usize;
    /// Total elements across all sets (`|R|` — the Figure 6 quantity).
    fn total_elements(&self) -> usize;
    /// Members of set `i`, ascending.
    fn set(&self, i: usize) -> &[VertexId];
    /// Per-vertex occurrence counts `C`.
    fn counts(&self) -> &[u32];
    /// Store bytes as laid out on the device (`R` + `O`).
    fn bytes(&self) -> usize;

    /// Length of set `i`.
    fn set_len(&self, i: usize) -> usize {
        self.set(i).len()
    }

    /// Binary-search membership of `v` in set `i`. Returns the number of
    /// probes performed alongside the verdict, so callers can charge the
    /// simulated cost of the search.
    fn contains_with_probes(&self, i: usize, v: VertexId) -> (bool, u32) {
        let set = self.set(i);
        let (mut lo, mut hi) = (0, set.len());
        let mut probes = 0;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            probes += 1;
            match set[mid].cmp(&v) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return (true, probes),
            }
        }
        (false, probes)
    }

    /// Binary-search membership of `v` in set `i`.
    fn contains(&self, i: usize, v: VertexId) -> bool {
        self.contains_with_probes(i, v).0
    }

    /// Copies set `i` into a `Vec`.
    fn set_members(&self, i: usize) -> Vec<VertexId> {
        self.set(i).to_vec()
    }
}

/// Longest set whose probe counts [`search_probes`] reads from its table;
/// longer sets replay the search's index arithmetic.
const PROBE_TABLE_MAX_LEN: usize = 64;

/// Probe counts of every `(len, rank, found)` up to
/// [`PROBE_TABLE_MAX_LEN`], at `2 * (len * (len + 1) / 2 + rank) + found`.
static PROBE_TABLE: [u8; (PROBE_TABLE_MAX_LEN + 1) * (PROBE_TABLE_MAX_LEN + 2)] = {
    let mut table = [0u8; (PROBE_TABLE_MAX_LEN + 1) * (PROBE_TABLE_MAX_LEN + 2)];
    let mut len = 0;
    while len <= PROBE_TABLE_MAX_LEN {
        let mut rank = 0;
        while rank <= len {
            let at = 2 * (len * (len + 1) / 2 + rank);
            table[at] = replay_search(len, rank, false) as u8;
            table[at + 1] = replay_search(len, rank, true) as u8;
            rank += 1;
        }
        len += 1;
    }
    table
};

/// The index walk of [`RrrSets::contains_with_probes`] over positions
/// `0..len`, where position `mid` compares less than the probed vertex iff
/// `mid < rank`, and equal iff `found && mid == rank`.
const fn replay_search(len: usize, rank: usize, found: bool) -> u32 {
    let (mut lo, mut hi, mut probes) = (0, len, 0);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        probes += 1;
        if found && mid == rank {
            return probes;
        }
        if mid < rank {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    probes
}

/// Probes [`RrrSets::contains_with_probes`] makes in a set of `len`
/// members, `rank` of them smaller than the probed vertex, which is a
/// member (at position `rank`) iff `found`. Every comparison the search
/// makes follows from those three values, so this is its exact probe count
/// without reading the set.
#[inline]
pub fn search_probes(len: usize, rank: usize, found: bool) -> u32 {
    debug_assert!(rank < len || (!found && rank == len));
    if len <= PROBE_TABLE_MAX_LEN {
        PROBE_TABLE[2 * (len * (len + 1) / 2 + rank) + found as usize] as u32
    } else {
        replay_search(len, rank, found)
    }
}

/// Append interface of the store.
pub trait RrrStoreBuilder: RrrSets {
    /// Appends one sorted, deduplicated set, updating `O` and `C`.
    ///
    /// # Panics
    /// Panics (debug) if the set is unsorted or references `v >= n`.
    fn append_set(&mut self, set: &[VertexId]);

    /// Appends a whole sampling batch at once: `elements` is every kept
    /// set's members concatenated in append order, `lens` the per-set
    /// lengths partitioning it, and `coverage` the batch's per-vertex
    /// occurrence histogram (the sampler's in-flight `C` aggregation). `R`
    /// and `O` grow in bulk and `C` absorbs `coverage` with one
    /// vectorizable add per vertex instead of a scattered increment per
    /// element.
    ///
    /// # Panics
    /// Panics (debug) if any set is unsorted/out-of-range, if `lens` does
    /// not partition `elements`, or if `coverage` disagrees with the
    /// element multiset.
    fn append_batch(&mut self, elements: &[VertexId], lens: &[usize], coverage: &[u32]);
}

fn validate_set(set: &[VertexId], n: usize) {
    debug_assert!(
        set.windows(2).all(|w| w[0] < w[1]),
        "RRR sets must be sorted strictly ascending"
    );
    debug_assert!(
        set.last().is_none_or(|&v| (v as usize) < n),
        "set member out of range"
    );
}

#[allow(unused_variables)]
fn validate_batch(elements: &[VertexId], lens: &[usize], coverage: &[u32], n: usize) {
    debug_assert_eq!(
        lens.iter().sum::<usize>(),
        elements.len(),
        "lens must partition the element arena"
    );
    debug_assert_eq!(coverage.len(), n, "coverage must cover every vertex");
    #[cfg(debug_assertions)]
    {
        let mut cursor = 0usize;
        for &len in lens {
            validate_set(&elements[cursor..cursor + len], n);
            cursor += len;
        }
        let mut recount = vec![0u32; n];
        for &v in elements {
            recount[v as usize] += 1;
        }
        debug_assert_eq!(
            recount, coverage,
            "coverage histogram must match the element multiset"
        );
    }
}

/// Validates a patch: ascending unique set ids in range, `lens` one per id
/// and partitioning `elements`, each content sorted.
fn validate_patches(
    ids: &[usize],
    elements: &[VertexId],
    lens: &[usize],
    num_sets: usize,
    n: usize,
) {
    assert_eq!(ids.len(), lens.len(), "one length per patched set");
    assert_eq!(
        lens.iter().sum::<usize>(),
        elements.len(),
        "lens must partition the element arena"
    );
    debug_assert!(
        ids.windows(2).all(|w| w[0] < w[1]),
        "patches must be sorted by ascending set id"
    );
    if let Some(&last) = ids.last() {
        assert!(last < num_sets, "patch names set {last} of {num_sets}");
    }
    let mut cursor = 0usize;
    for &len in lens {
        validate_set(&elements[cursor..cursor + len], n);
        cursor += len;
    }
}

/// Device bytes of `len` values packed at `bits` bits into 64-bit words.
fn packed_bytes(len: usize, bits: u32) -> usize {
    (len * bits as usize).div_ceil(64) * 8
}

/// The RRR store: `R` as decoded `u32` ids, `O` as offsets into it, and
/// `C`, all in host arrays. The layout (`config.packed`) decides only what
/// [`RrrSets::bytes`] and [`RrrStore::bits_per_element`] report.
#[derive(Clone, Debug)]
pub struct RrrStore {
    n: usize,
    packed: bool,
    r: Vec<VertexId>,
    offsets: Vec<usize>,
    counts: Vec<u32>,
}

/// Another name for [`RrrStore`]. Kept because the repository benchmark
/// (`repobench/src/solve.rs`) names it and is versioned apart from the
/// store.
pub type AnyRrrStore = RrrStore;

impl RrrStore {
    /// An empty store for a graph with `n` vertices, charged at the packed
    /// (log-encoded) or plain device layout.
    pub fn new(n: usize, packed: bool) -> Self {
        Self {
            n,
            packed,
            r: Vec::new(),
            offsets: vec![0],
            counts: vec![0; n],
        }
    }

    /// Device bits per stored vertex id: `ceil(log2 n)` packed, 32 plain.
    pub fn bits_per_element(&self) -> u32 {
        if self.packed {
            self.encoded_id_bits()
        } else {
            32
        }
    }

    /// Bits of one log-encoded vertex id, `ceil(log2 n)`.
    fn encoded_id_bits(&self) -> u32 {
        bits_for(self.n.saturating_sub(1) as u64)
    }

    /// Bytes that evicting sets `[from, to)` to the host moves over PCIe,
    /// whatever the layout: the range's ids log-encoded at `ceil(log2 n)`
    /// bits, plus one `u32` length per set (the batch-local offset table).
    ///
    /// # Panics
    /// Panics if the range is out of bounds or empty.
    pub fn spill_bytes(&self, from: usize, to: usize) -> usize {
        assert!(from < to && to <= self.num_sets(), "bad spill range");
        let elements = self.offsets[to] - self.offsets[from];
        packed_bytes(elements, self.encoded_id_bits()) + (to - from) * std::mem::size_of::<u32>()
    }

    /// Replaces the contents of sets `ids` (ascending) in place. The new
    /// contents arrive the way [`RrrStoreBuilder::append_batch`] takes a
    /// batch: `elements` is every patched set's members concatenated in id
    /// order and `lens` partitions it (each content sorted; empty = the set
    /// no longer covers anything). Everything before the first patched set
    /// is untouched; from there `R` is rebuilt in one pass that copies each
    /// unpatched run whole and shifts its offsets by one running
    /// difference, and `C` absorbs the membership diff.
    pub fn patch_sets(&mut self, ids: &[usize], elements: &[VertexId], lens: &[usize]) {
        validate_patches(ids, elements, lens, self.num_sets(), self.n);
        let Some(&first) = ids.first() else {
            return;
        };
        let mut removed = 0usize;
        for &i in ids {
            let set = &self.r[self.offsets[i]..self.offsets[i + 1]];
            removed += set.len();
            for &v in set {
                self.counts[v as usize] -= 1;
            }
        }
        for &v in elements {
            self.counts[v as usize] += 1;
        }
        let (old, offsets) = (&self.r, &mut self.offsets);
        let mut r = Vec::with_capacity(old.len() - removed + elements.len());
        // `pos` is where the next unplaced set starts in `old`.
        let mut pos = offsets[first];
        r.extend_from_slice(&old[..pos]);
        let (mut next, mut shift, mut cursor) = (first, 0isize, 0usize);
        for (&id, &len) in ids.iter().zip(lens) {
            // `offsets[id]` still holds its old value unless set `id - 1` was
            // patched too, in which case set `id` starts where that one ended.
            let start = if id == next { pos } else { offsets[id] };
            let end = offsets[id + 1];
            r.extend_from_slice(&old[pos..start]);
            for o in &mut offsets[next + 1..=id] {
                *o = o.wrapping_add_signed(shift);
            }
            r.extend_from_slice(&elements[cursor..cursor + len]);
            cursor += len;
            offsets[id + 1] = offsets[id] + len;
            shift += len as isize - (end - start) as isize;
            (pos, next) = (end, id + 1);
        }
        r.extend_from_slice(&old[pos..]);
        for o in &mut offsets[next + 1..] {
            *o = o.wrapping_add_signed(shift);
        }
        self.r = r;
    }
}

impl RrrSets for RrrStore {
    fn num_vertices(&self) -> usize {
        self.n
    }
    fn num_sets(&self) -> usize {
        self.offsets.len() - 1
    }
    fn total_elements(&self) -> usize {
        self.r.len()
    }
    #[inline]
    fn set(&self, i: usize) -> &[VertexId] {
        &self.r[self.offsets[i]..self.offsets[i + 1]]
    }
    fn counts(&self) -> &[u32] {
        &self.counts
    }
    fn bytes(&self) -> usize {
        if self.packed {
            // R at its packed width; O at the packed width of the largest
            // offset (how the device lays both out under log encoding).
            let off_bits = bits_for(self.r.len() as u64);
            packed_bytes(self.r.len(), self.bits_per_element())
                + packed_bytes(self.offsets.len(), off_bits)
        } else {
            self.r.len() * 4 + self.offsets.len() * 8
        }
    }
}

impl RrrStoreBuilder for RrrStore {
    fn append_set(&mut self, set: &[VertexId]) {
        validate_set(set, self.n);
        self.r.extend_from_slice(set);
        self.offsets.push(self.r.len());
        for &v in set {
            self.counts[v as usize] += 1;
        }
    }

    fn append_batch(&mut self, elements: &[VertexId], lens: &[usize], coverage: &[u32]) {
        validate_batch(elements, lens, coverage, self.n);
        let mut acc = self.r.len();
        // Batches arrive few and large, so `R` grows to fit each one
        // exactly: doubling kept its slack resident and raised the host
        // peak of an `lt-social` run by about 5 MB.
        self.r.reserve_exact(elements.len());
        self.r.extend_from_slice(elements);
        self.offsets.extend(lens.iter().map(|&len| {
            acc += len;
            acc
        }));
        for (c, &h) in self.counts.iter_mut().zip(coverage) {
            *c += h;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eim_bitpack::PackedArray;
    use proptest::prelude::*;

    fn fill<S: RrrStoreBuilder>(store: &mut S) {
        store.append_set(&[1, 3, 5]);
        store.append_set(&[0]);
        store.append_set(&[2, 3, 4, 5]);
        store.append_set(&[]);
        store.append_set(&[5]);
    }

    #[test]
    fn store_basics_on_either_layout() {
        for packed in [false, true] {
            let mut s = RrrStore::new(6, packed);
            fill(&mut s);
            assert_eq!(s.num_sets(), 5);
            assert_eq!(s.total_elements(), 9);
            assert_eq!(s.set_len(0), 3);
            assert_eq!(s.set_len(3), 0);
            assert_eq!(s.set_members(2), vec![2, 3, 4, 5]);
            assert!(s.contains(0, 3));
            assert!(!s.contains(0, 2));
            assert!(!s.contains(3, 0));
            assert!(s.contains(4, 5));
            // C: v5 appears in sets 0, 2, 4.
            assert_eq!(s.counts()[5], 3);
            assert_eq!(s.counts()[3], 2);
            assert_eq!(s.counts()[0], 1);
            // ids 0..=5 take 3 bits packed.
            assert_eq!(s.bits_per_element(), if packed { 3 } else { 32 });
        }
    }

    #[test]
    fn packed_store_is_smaller() {
        let n = 100_000; // 17-bit ids vs 32-bit
        let mut plain = RrrStore::new(n, false);
        let mut packed = RrrStore::new(n, true);
        let set: Vec<u32> = (0..50u32).map(|i| i * 1999).collect();
        for _ in 0..100 {
            plain.append_set(&set);
            packed.append_set(&set);
        }
        assert_eq!(plain.bytes(), 5_000 * 4 + 101 * 8);
        assert!(
            (packed.bytes() as f64) < 0.62 * plain.bytes() as f64,
            "packed {} plain {}",
            packed.bytes(),
            plain.bytes()
        );
    }

    #[test]
    fn probes_are_logarithmic() {
        let mut s = RrrStore::new(1 << 16, false);
        let set: Vec<u32> = (0..1024u32).map(|i| i * 7).collect();
        s.append_set(&set);
        let (found, probes) = s.contains_with_probes(0, 7 * 512);
        assert!(found);
        assert!(probes <= 11, "probes {probes}"); // log2(1024) + 1
        let (found, probes) = s.contains_with_probes(0, 3);
        assert!(!found);
        assert!(probes <= 11);
    }

    #[test]
    fn empty_store() {
        let s = RrrStore::new(10, true);
        assert_eq!(s.num_sets(), 0);
        assert_eq!(s.total_elements(), 0);
        assert!(s.counts().iter().all(|&c| c == 0));
    }

    #[test]
    fn append_batch_matches_per_set_appends() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(17);
        let n = 500;
        // Build a batch arena the way the sampler lays it out.
        let mut elements: Vec<u32> = Vec::new();
        let mut lens: Vec<usize> = Vec::new();
        let mut coverage = vec![0u32; n];
        let mut sets: Vec<Vec<u32>> = Vec::new();
        for _ in 0..80 {
            let len = rng.gen_range(1..12);
            let mut set: Vec<u32> = (0..len).map(|_| rng.gen_range(0..n as u32)).collect();
            set.sort_unstable();
            set.dedup();
            elements.extend_from_slice(&set);
            lens.push(set.len());
            for &v in &set {
                coverage[v as usize] += 1;
            }
            sets.push(set);
        }
        // Two batches back to back: offsets must chain correctly.
        let split_sets = lens.len() / 2;
        let acc: usize = lens[..split_sets].iter().sum();
        let mut cov_a = vec![0u32; n];
        for &v in &elements[..acc] {
            cov_a[v as usize] += 1;
        }
        let cov_b: Vec<u32> = coverage.iter().zip(&cov_a).map(|(&t, &a)| t - a).collect();
        let mut bulk = RrrStore::new(n, true);
        bulk.append_batch(&elements[..acc], &lens[..split_sets], &cov_a);
        bulk.append_batch(&elements[acc..], &lens[split_sets..], &cov_b);
        let mut incremental = RrrStore::new(n, true);
        for set in &sets {
            incremental.append_set(set);
        }
        assert_eq!(bulk.r, incremental.r);
        assert_eq!(bulk.offsets, incremental.offsets);
        assert_eq!(bulk.counts(), incremental.counts());
        assert_eq!(bulk.bytes(), incremental.bytes());
    }

    #[test]
    fn empty_set_membership_probe_free() {
        let mut s = RrrStore::new(4, false);
        s.append_set(&[]);
        let (found, probes) = s.contains_with_probes(0, 2);
        assert!(!found);
        assert_eq!(probes, 0);
    }

    /// Patching a store to some content must leave it indistinguishable
    /// from a store that appended that content directly — members, counts,
    /// offsets, bytes and digest — and appending after a patch keeps
    /// working.
    #[test]
    fn patch_sets_matches_fresh_append() {
        use rand::{Rng, SeedableRng};
        // 600 vertices pack at 10 bits.
        let n = 600usize;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(77);
        let rand_set = |rng: &mut rand_chacha::ChaCha8Rng, max_len: usize| {
            let len = rng.gen_range(0..max_len);
            let mut s: Vec<u32> = (0..len).map(|_| rng.gen_range(0..n as u32)).collect();
            s.sort_unstable();
            s.dedup();
            s
        };
        let old: Vec<Vec<u32>> = (0..1124).map(|_| rand_set(&mut rng, 12)).collect();
        let last = old.len() - 1;
        let mut scatter = vec![3, 511, 512, last];
        for _ in 0..40 {
            scatter.push(rng.gen_range(0..old.len()));
        }
        scatter.sort_unstable();
        scatter.dedup();
        let every: Vec<usize> = (0..old.len()).collect();
        // Each case: the patched ids and how a patched set's new content
        // is drawn from its old one.
        type Redraw = fn(&[u32], &mut rand_chacha::ChaCha8Rng) -> Vec<u32>;
        let random: Redraw = |_, rng| {
            let len = rng.gen_range(0..12usize);
            let mut s: Vec<u32> = (0..len).map(|_| rng.gen_range(0..600)).collect();
            s.sort_unstable();
            s.dedup();
            s
        };
        let emptied: Redraw = |_, _| Vec::new();
        let grown: Redraw = |old, rng| {
            let mut s = old.to_vec();
            s.extend((0..1 + rng.gen_range(0..20)).map(|_| rng.gen_range(0..600)));
            s.sort_unstable();
            s.dedup();
            s
        };
        let shrunk: Redraw = |old, rng| old[..rng.gen_range(0..old.len().max(1))].to_vec();
        let cases: [(&str, Vec<usize>, Redraw); 9] = [
            ("scatter", scatter.clone(), random),
            ("first set", vec![0], random),
            ("last set", vec![last], random),
            ("first and last", vec![0, last], grown),
            ("every set", every.clone(), random),
            ("every set emptied", every.clone(), emptied),
            ("scatter emptied", scatter.clone(), emptied),
            ("every set grown", every.clone(), grown),
            ("scatter shrunk", scatter.clone(), shrunk),
        ];
        for (name, ids, redraw) in cases {
            let news: Vec<Vec<u32>> = ids.iter().map(|&i| redraw(&old[i], &mut rng)).collect();
            let mut target = old.clone();
            for (&i, new) in ids.iter().zip(&news) {
                target[i] = new.clone();
            }
            let elements: Vec<u32> = news.concat();
            let lens: Vec<usize> = news.iter().map(Vec::len).collect();
            for packed in [false, true] {
                let label = format!("{name} packed={packed}");
                let mut patched = RrrStore::new(n, packed);
                let mut fresh = RrrStore::new(n, packed);
                for set in &old {
                    patched.append_set(set);
                }
                for set in &target {
                    fresh.append_set(set);
                }
                patched.patch_sets(&ids, &elements, &lens);
                assert_eq!(patched.r, fresh.r, "{label}");
                assert_eq!(patched.offsets, fresh.offsets, "{label}");
                assert_eq!(patched.counts(), fresh.counts(), "{label}");
                assert_eq!(patched.bytes(), fresh.bytes(), "{label}");
                assert_eq!(
                    crate::checkpoint::store_digest(&patched),
                    crate::checkpoint::store_digest(&fresh),
                    "{label}"
                );
                // Appending after a patch keeps working.
                let extra = rand_set(&mut rng, 12);
                patched.append_set(&extra);
                assert_eq!(
                    patched.set_members(patched.num_sets() - 1),
                    extra,
                    "{label}"
                );
            }
        }
        // An empty patch changes nothing.
        let mut store = RrrStore::new(n, true);
        for set in &old {
            store.append_set(set);
        }
        let before = crate::checkpoint::store_digest(&store);
        store.patch_sets(&[], &[], &[]);
        assert_eq!(crate::checkpoint::store_digest(&store), before);
    }

    /// `R` and `O` log-encoded for real: ids at `ceil(log2 n)` bits, offsets
    /// at the width of the largest one.
    fn encoded_bytes(store: &RrrStore) -> usize {
        let nbits = bits_for(store.n.saturating_sub(1) as u64);
        let r: Vec<u64> = store.r.iter().map(|&v| v as u64).collect();
        let o: Vec<u64> = store.offsets.iter().map(|&o| o as u64).collect();
        PackedArray::from_values_with_bits(&r, nbits).bytes() + PackedArray::from_values(&o).bytes()
    }

    /// Sorted sets over `0..n` from raw draws.
    fn sets_over(n: u32, draws: Vec<Vec<u32>>) -> Vec<Vec<u32>> {
        draws
            .into_iter()
            .map(|d| {
                let mut set: Vec<u32> = d.into_iter().map(|x| x % n).collect();
                set.sort_unstable();
                set.dedup();
                set
            })
            .collect()
    }

    fn arb_draws(sets: usize, len: usize) -> impl Strategy<Value = Vec<Vec<u32>>> {
        proptest::collection::vec(proptest::collection::vec(any::<u32>(), 0..=len), 0..sets)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The probe count read off `(len, rank, found)` is the search's own,
        /// for every vertex in and around random sorted sets: empty sets,
        /// short ones inside the table and long ones past its cap.
        #[test]
        fn search_probes_matches_the_search(n in 1u32..1_000, draws in arb_draws(6, 700)) {
            let mut sets = sets_over(n, draws);
            sets.push(Vec::new());
            let mut store = RrrStore::new(n as usize, false);
            for set in &sets {
                store.append_set(set);
            }
            for (i, set) in sets.iter().enumerate() {
                for v in 0..=n {
                    let (found, probes) = store.contains_with_probes(i, v);
                    let rank = set.partition_point(|&u| u < v);
                    prop_assert_eq!(
                        search_probes(set.len(), rank, found),
                        probes,
                        "len {} v {}",
                        set.len(),
                        v
                    );
                }
            }
        }

        /// The packed layout's byte count is the size of a real encoding of
        /// `R` and `O`, for any `n` up to 2^20, after per-set and batch
        /// appends and after a patch; and a spill's byte count is the range's
        /// ids really encoded plus 4 B per set.
        #[test]
        fn packed_bytes_match_a_real_encoding(
            (near_power, raw, shift, delta) in
                (any::<bool>(), 1u32..=(1 << 20), 0u32..=20, 0u32..3),
            draws in arb_draws(40, 60),
            batch in arb_draws(20, 60),
            patch in proptest::collection::vec((any::<bool>(), proptest::collection::vec(any::<u32>(), 0..=60)), 0..60),
            range in (any::<usize>(), any::<usize>()),
        ) {
            // Half the draws land on a power of two or next to one, where
            // `ceil(log2 n)` steps.
            let n = if near_power {
                ((1 << shift) + delta).saturating_sub(1).clamp(1, 1 << 20)
            } else {
                raw
            };
            let mut store = RrrStore::new(n as usize, true);
            for set in sets_over(n, draws) {
                store.append_set(&set);
            }
            prop_assert_eq!(store.bytes(), encoded_bytes(&store));
            let batch = sets_over(n, batch);
            let mut coverage = vec![0u32; n as usize];
            for &v in batch.iter().flatten() {
                coverage[v as usize] += 1;
            }
            let lens: Vec<usize> = batch.iter().map(Vec::len).collect();
            store.append_batch(&batch.concat(), &lens, &coverage);
            prop_assert_eq!(store.bytes(), encoded_bytes(&store));

            let (mut ids, mut news) = (Vec::new(), Vec::new());
            for (i, (hit, draw)) in patch.into_iter().enumerate().take(store.num_sets()) {
                if hit {
                    ids.push(i);
                    news.extend(sets_over(n, vec![draw]));
                }
            }
            let lens: Vec<usize> = news.iter().map(Vec::len).collect();
            store.patch_sets(&ids, &news.concat(), &lens);
            prop_assert_eq!(store.bytes(), encoded_bytes(&store));

            let sets = store.num_sets();
            if sets > 0 {
                let from = range.0 % sets;
                let to = from + 1 + range.1 % (sets - from);
                let ids: Vec<u64> = store.r[store.offsets[from]..store.offsets[to]]
                    .iter()
                    .map(|&v| v as u64)
                    .collect();
                let nbits = bits_for(n as u64 - 1);
                prop_assert_eq!(
                    store.spill_bytes(from, to),
                    PackedArray::from_values_with_bits(&ids, nbits).bytes() + 4 * (to - from)
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "bad spill range")]
    fn out_of_bounds_spill_range_panics() {
        let mut store = RrrStore::new(10, true);
        fill(&mut store);
        store.spill_bytes(3, 30);
    }
}
