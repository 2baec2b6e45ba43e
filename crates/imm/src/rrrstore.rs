//! RRR-set stores: the paper's `R` / `O` / `C` triple (§3.1, §3.5).
//!
//! All of the RRR sets live concatenated in one flat array `R`; `O[i]` gives
//! the start of set `i`; `C[v]` counts how many sets contain vertex `v`
//! (the greedy-selection priority). Sets are stored sorted ascending so
//! membership tests binary-search (§3.2: "this ordering enables us to use a
//! binary search operation during the seed selection phase").
//!
//! Two backends share the [`RrrSets`] interface, chosen at runtime through
//! [`AnyRrrStore::new`]:
//! * [`PlainRrrStore`] — `u32` elements, `u64` offsets (what gIM keeps);
//! * [`PackedRrrStore`] — log-encoded elements at `ceil(log2 n)` bits (eIM).

use eim_bitpack::{bits_for, PackedBuf};
use eim_graph::VertexId;

/// Read interface over a collection of sorted RRR sets.
pub trait RrrSets: Sync {
    /// Number of vertices in the underlying graph (`n`).
    fn num_vertices(&self) -> usize;
    /// Number of stored sets (`theta` once sampling finishes).
    fn num_sets(&self) -> usize;
    /// Total elements across all sets (`|R|` — the Figure 6 quantity).
    fn total_elements(&self) -> usize;
    /// Half-open element range of set `i` in the flat array.
    fn set_bounds(&self, i: usize) -> (usize, usize);
    /// Element at absolute index `idx` of the flat array.
    fn element(&self, idx: usize) -> VertexId;
    /// Per-vertex occurrence counts `C`.
    fn counts(&self) -> &[u32];
    /// Store bytes as laid out on the device (`R` + `O`).
    fn bytes(&self) -> usize;

    /// Length of set `i`.
    fn set_len(&self, i: usize) -> usize {
        let (s, e) = self.set_bounds(i);
        e - s
    }

    /// Binary-search membership of `v` in set `i`. Returns the number of
    /// probes performed alongside the verdict, so callers can charge the
    /// simulated cost of the search.
    fn contains_with_probes(&self, i: usize, v: VertexId) -> (bool, u32) {
        let (mut lo, mut hi) = self.set_bounds(i);
        let mut probes = 0;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            probes += 1;
            match self.element(mid).cmp(&v) {
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

    /// Decodes set `i` into a `Vec`.
    fn set_members(&self, i: usize) -> Vec<VertexId> {
        let (s, e) = self.set_bounds(i);
        (s..e).map(|idx| self.element(idx)).collect()
    }

    /// Streams sets `[from, to)` in order through `f`, which receives each
    /// set's id and members. The member slice is only valid for the duration
    /// of that call — implementations reuse one decode scratch buffer across
    /// sets.
    fn for_each_set_in(&self, from: usize, to: usize, f: &mut dyn FnMut(usize, &[VertexId])) {
        let mut scratch: Vec<VertexId> = Vec::new();
        for i in from..to {
            let (s, e) = self.set_bounds(i);
            scratch.clear();
            scratch.extend((s..e).map(|idx| self.element(idx)));
            f(i, &scratch);
        }
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

/// Append interface: both stores ingest sets the same way.
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
    fn append_batch(&mut self, elements: &[VertexId], lens: &[usize], coverage: &[u32]) {
        validate_batch(elements, lens, coverage, self.num_vertices());
        let mut cursor = 0usize;
        for &len in lens {
            self.append_set(&elements[cursor..cursor + len]);
            cursor += len;
        }
    }
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

/// Uncompressed store: `u32` elements, `u64` offsets.
#[derive(Clone, Debug)]
pub struct PlainRrrStore {
    n: usize,
    r: Vec<VertexId>,
    offsets: Vec<u64>,
    counts: Vec<u32>,
}

impl PlainRrrStore {
    /// An empty store for a graph with `n` vertices.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            r: Vec::new(),
            offsets: vec![0],
            counts: vec![0; n],
        }
    }
}

/// Validates a patch list: ascending unique set ids in range, sorted
/// contents. Shared by every backend's `patch_sets`.
fn validate_patches(patches: &[(usize, Vec<VertexId>)], num_sets: usize, n: usize) {
    debug_assert!(
        patches.windows(2).all(|w| w[0].0 < w[1].0),
        "patches must be sorted by ascending set id"
    );
    for (i, set) in patches {
        assert!(*i < num_sets, "patch names set {i} of {num_sets}");
        validate_set(set, n);
    }
}

impl PlainRrrStore {
    /// Replaces the contents of the named sets in place (ids ascending,
    /// each content sorted; empty = the set no longer covers anything).
    /// Everything before the first patched set is untouched; the element
    /// arena and offsets from that point on are rebuilt in one pass, and
    /// the coverage histogram absorbs the membership diff.
    pub fn patch_sets(&mut self, patches: &[(usize, Vec<VertexId>)]) {
        validate_patches(patches, self.num_sets(), self.n);
        let Some(&(first, _)) = patches.first() else {
            return;
        };
        for (i, new) in patches {
            let (s, e) = self.set_bounds(*i);
            for &v in &self.r[s..e] {
                self.counts[v as usize] -= 1;
            }
            for &v in new {
                self.counts[v as usize] += 1;
            }
        }
        let num_sets = self.num_sets();
        let keep = self.offsets[first] as usize;
        let mut tail: Vec<VertexId> = Vec::with_capacity(self.r.len() - keep);
        let mut tail_offsets: Vec<u64> = Vec::with_capacity(num_sets - first);
        let mut p = 0usize;
        for i in first..num_sets {
            if p < patches.len() && patches[p].0 == i {
                tail.extend_from_slice(&patches[p].1);
                p += 1;
            } else {
                let (s, e) = self.set_bounds(i);
                tail.extend_from_slice(&self.r[s..e]);
            }
            tail_offsets.push(keep as u64 + tail.len() as u64);
        }
        self.r.truncate(keep);
        self.r.extend_from_slice(&tail);
        self.offsets.truncate(first + 1);
        self.offsets.extend_from_slice(&tail_offsets);
    }
}

impl RrrSets for PlainRrrStore {
    fn num_vertices(&self) -> usize {
        self.n
    }
    fn num_sets(&self) -> usize {
        self.offsets.len() - 1
    }
    fn total_elements(&self) -> usize {
        self.r.len()
    }
    fn set_bounds(&self, i: usize) -> (usize, usize) {
        (self.offsets[i] as usize, self.offsets[i + 1] as usize)
    }
    fn element(&self, idx: usize) -> VertexId {
        self.r[idx]
    }
    fn counts(&self) -> &[u32] {
        &self.counts
    }
    fn bytes(&self) -> usize {
        self.r.len() * 4 + self.offsets.len() * 8
    }
    fn for_each_set_in(&self, from: usize, to: usize, f: &mut dyn FnMut(usize, &[VertexId])) {
        // The flat array already holds every set contiguously: hand out
        // subslices instead of copying through a scratch buffer.
        for i in from..to {
            let (s, e) = self.set_bounds(i);
            f(i, &self.r[s..e]);
        }
    }
}

impl RrrStoreBuilder for PlainRrrStore {
    fn append_set(&mut self, set: &[VertexId]) {
        validate_set(set, self.n);
        self.r.extend_from_slice(set);
        self.offsets.push(self.r.len() as u64);
        for &v in set {
            self.counts[v as usize] += 1;
        }
    }

    fn append_batch(&mut self, elements: &[VertexId], lens: &[usize], coverage: &[u32]) {
        validate_batch(elements, lens, coverage, self.n);
        self.r.extend_from_slice(elements);
        self.offsets.reserve(lens.len());
        let mut acc = self.r.len() as u64 - elements.len() as u64;
        for &len in lens {
            acc += len as u64;
            self.offsets.push(acc);
        }
        for (c, &h) in self.counts.iter_mut().zip(coverage) {
            *c += h;
        }
    }
}

/// Log-encoded store: elements packed at `ceil(log2 n)` bits each.
///
/// Offsets are held as host `u64`s for simplicity; [`RrrSets::bytes`]
/// reports them at their device (packed) width so memory comparisons match
/// the layout the paper measures.
#[derive(Clone, Debug)]
pub struct PackedRrrStore {
    n: usize,
    r: PackedBuf,
    offsets: Vec<u64>,
    counts: Vec<u32>,
}

impl PackedRrrStore {
    /// An empty packed store for a graph with `n` vertices.
    pub fn new(n: usize) -> Self {
        let nbits = bits_for(n.saturating_sub(1) as u64);
        Self {
            n,
            r: PackedBuf::new(nbits),
            offsets: vec![0],
            counts: vec![0; n],
        }
    }

    /// Bits used per stored vertex id.
    pub fn bits_per_element(&self) -> u32 {
        self.r.bits_per_value()
    }

    /// Replaces the contents of the named sets (see
    /// [`PlainRrrStore::patch_sets`]). The packed element stream is
    /// bit-adjacent, so the stream is truncated at the first patched set
    /// and re-pushed from there; earlier sets keep their packed words.
    pub fn patch_sets(&mut self, patches: &[(usize, Vec<VertexId>)]) {
        validate_patches(patches, self.num_sets(), self.n);
        let Some(&(first, _)) = patches.first() else {
            return;
        };
        for (i, new) in patches {
            let (s, e) = self.set_bounds(*i);
            for idx in s..e {
                self.counts[self.r.get(idx) as usize] -= 1;
            }
            for &v in new {
                self.counts[v as usize] += 1;
            }
        }
        let num_sets = self.num_sets();
        let keep = self.offsets[first] as usize;
        let mut tail: Vec<VertexId> = Vec::with_capacity(self.r.len() - keep);
        let mut tail_offsets: Vec<u64> = Vec::with_capacity(num_sets - first);
        let mut p = 0usize;
        for i in first..num_sets {
            if p < patches.len() && patches[p].0 == i {
                tail.extend_from_slice(&patches[p].1);
                p += 1;
            } else {
                let (s, e) = self.set_bounds(i);
                tail.extend((s..e).map(|idx| self.r.get(idx) as VertexId));
            }
            tail_offsets.push(keep as u64 + tail.len() as u64);
        }
        self.r.truncate(keep);
        for &v in &tail {
            self.r.push(v as u64);
        }
        self.offsets.truncate(first + 1);
        self.offsets.extend_from_slice(&tail_offsets);
    }
}

impl RrrSets for PackedRrrStore {
    fn num_vertices(&self) -> usize {
        self.n
    }
    fn num_sets(&self) -> usize {
        self.offsets.len() - 1
    }
    fn total_elements(&self) -> usize {
        self.r.len()
    }
    fn set_bounds(&self, i: usize) -> (usize, usize) {
        (self.offsets[i] as usize, self.offsets[i + 1] as usize)
    }
    fn element(&self, idx: usize) -> VertexId {
        self.r.get(idx) as VertexId
    }
    fn counts(&self) -> &[u32] {
        &self.counts
    }
    fn bytes(&self) -> usize {
        // R at its packed width; O at the packed width of the largest
        // offset (how the device lays both out under log encoding).
        let off_bits = bits_for(self.r.len() as u64) as usize;
        self.r.bytes() + (self.offsets.len() * off_bits).div_ceil(64) * 8
    }
}

impl RrrStoreBuilder for PackedRrrStore {
    fn append_set(&mut self, set: &[VertexId]) {
        validate_set(set, self.n);
        for &v in set {
            self.r.push(v as u64);
            self.counts[v as usize] += 1;
        }
        self.offsets.push(self.r.len() as u64);
    }

    fn append_batch(&mut self, elements: &[VertexId], lens: &[usize], coverage: &[u32]) {
        validate_batch(elements, lens, coverage, self.n);
        for &v in elements {
            self.r.push(v as u64);
        }
        self.offsets.reserve(lens.len());
        let mut acc = self.r.len() as u64 - elements.len() as u64;
        for &len in lens {
            acc += len as u64;
            self.offsets.push(acc);
        }
        for (c, &h) in self.counts.iter_mut().zip(coverage) {
            *c += h;
        }
    }
}

/// Runtime-selected store backend, so engines can switch between plain and
/// log-encoded layouts from one `packed` flag.
#[derive(Clone, Debug)]
pub enum AnyRrrStore {
    /// Uncompressed backend.
    Plain(PlainRrrStore),
    /// Log-encoded backend.
    Packed(PackedRrrStore),
}

impl AnyRrrStore {
    /// An empty store for `n` vertices, packed or plain.
    pub fn new(n: usize, packed: bool) -> Self {
        if packed {
            AnyRrrStore::Packed(PackedRrrStore::new(n))
        } else {
            AnyRrrStore::Plain(PlainRrrStore::new(n))
        }
    }

    fn inner(&self) -> &dyn RrrSets {
        match self {
            AnyRrrStore::Plain(s) => s,
            AnyRrrStore::Packed(s) => s,
        }
    }

    /// Replaces the contents of the named sets in place (ids ascending,
    /// contents sorted, empty allowed), dispatching to the backend's
    /// patch path; see the per-backend `patch_sets` docs for cost models.
    pub fn patch_sets(&mut self, patches: &[(usize, Vec<VertexId>)]) {
        match self {
            AnyRrrStore::Plain(s) => s.patch_sets(patches),
            AnyRrrStore::Packed(s) => s.patch_sets(patches),
        }
    }
}

impl RrrSets for AnyRrrStore {
    fn num_vertices(&self) -> usize {
        self.inner().num_vertices()
    }
    fn num_sets(&self) -> usize {
        self.inner().num_sets()
    }
    fn total_elements(&self) -> usize {
        self.inner().total_elements()
    }
    fn set_bounds(&self, i: usize) -> (usize, usize) {
        self.inner().set_bounds(i)
    }
    fn element(&self, idx: usize) -> VertexId {
        self.inner().element(idx)
    }
    fn counts(&self) -> &[u32] {
        self.inner().counts()
    }
    fn bytes(&self) -> usize {
        self.inner().bytes()
    }
    fn contains_with_probes(&self, i: usize, v: VertexId) -> (bool, u32) {
        self.inner().contains_with_probes(i, v)
    }
    fn for_each_set_in(&self, from: usize, to: usize, f: &mut dyn FnMut(usize, &[VertexId])) {
        self.inner().for_each_set_in(from, to, f)
    }
}

impl RrrStoreBuilder for AnyRrrStore {
    fn append_set(&mut self, set: &[VertexId]) {
        match self {
            AnyRrrStore::Plain(s) => s.append_set(set),
            AnyRrrStore::Packed(s) => s.append_set(set),
        }
    }

    fn append_batch(&mut self, elements: &[VertexId], lens: &[usize], coverage: &[u32]) {
        match self {
            AnyRrrStore::Plain(s) => s.append_batch(elements, lens, coverage),
            AnyRrrStore::Packed(s) => s.append_batch(elements, lens, coverage),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill<S: RrrStoreBuilder>(store: &mut S) {
        store.append_set(&[1, 3, 5]);
        store.append_set(&[0]);
        store.append_set(&[2, 3, 4, 5]);
        store.append_set(&[]);
        store.append_set(&[5]);
    }

    fn check_common<S: RrrSets>(s: &S) {
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
    }

    #[test]
    fn plain_store_basics() {
        let mut s = PlainRrrStore::new(6);
        fill(&mut s);
        check_common(&s);
    }

    #[test]
    fn packed_store_basics() {
        let mut s = PackedRrrStore::new(6);
        fill(&mut s);
        check_common(&s);
        assert_eq!(s.bits_per_element(), 3); // ids 0..=5
    }

    #[test]
    fn stores_agree_on_random_content() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        let n = 1000;
        let mut plain = PlainRrrStore::new(n);
        let mut packed = PackedRrrStore::new(n);
        for _ in 0..200 {
            let len = rng.gen_range(0..20);
            let mut set: Vec<u32> = (0..len).map(|_| rng.gen_range(0..n as u32)).collect();
            set.sort_unstable();
            set.dedup();
            plain.append_set(&set);
            packed.append_set(&set);
        }
        assert_eq!(plain.num_sets(), packed.num_sets());
        assert_eq!(plain.total_elements(), packed.total_elements());
        assert_eq!(plain.counts(), packed.counts());
        for i in 0..plain.num_sets() {
            assert_eq!(plain.set_members(i), packed.set_members(i));
            for probe in [0u32, 5, 999, 500] {
                assert_eq!(plain.contains(i, probe), packed.contains(i, probe));
            }
        }
    }

    #[test]
    fn packed_store_is_smaller() {
        let n = 100_000; // 17-bit ids vs 32-bit
        let mut plain = PlainRrrStore::new(n);
        let mut packed = PackedRrrStore::new(n);
        let set: Vec<u32> = (0..50u32).map(|i| i * 1999).collect();
        for _ in 0..100 {
            plain.append_set(&set);
            packed.append_set(&set);
        }
        assert!(
            (packed.bytes() as f64) < 0.62 * plain.bytes() as f64,
            "packed {} plain {}",
            packed.bytes(),
            plain.bytes()
        );
    }

    #[test]
    fn probes_are_logarithmic() {
        let mut s = PlainRrrStore::new(1 << 16);
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
        let s = PackedRrrStore::new(10);
        assert_eq!(s.num_sets(), 0);
        assert_eq!(s.total_elements(), 0);
        assert!(s.counts().iter().all(|&c| c == 0));
    }

    #[test]
    fn any_store_dispatches_both_backends() {
        let mut plain = AnyRrrStore::new(6, false);
        let mut packed = AnyRrrStore::new(6, true);
        fill(&mut plain);
        fill(&mut packed);
        check_common(&plain);
        check_common(&packed);
        assert!(matches!(plain, AnyRrrStore::Plain(_)));
        assert!(matches!(packed, AnyRrrStore::Packed(_)));
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
        for packed in [false, true] {
            let mut bulk = AnyRrrStore::new(n, packed);
            // Two batches back to back: offsets must chain correctly.
            let split = elements.len() / 2;
            let mut split_sets = 0usize;
            let mut acc = 0usize;
            for &l in &lens {
                if acc + l > split {
                    break;
                }
                acc += l;
                split_sets += 1;
            }
            let mut cov_a = vec![0u32; n];
            for &v in &elements[..acc] {
                cov_a[v as usize] += 1;
            }
            let cov_b: Vec<u32> = coverage.iter().zip(&cov_a).map(|(&t, &a)| t - a).collect();
            bulk.append_batch(&elements[..acc], &lens[..split_sets], &cov_a);
            bulk.append_batch(&elements[acc..], &lens[split_sets..], &cov_b);
            let mut incremental = AnyRrrStore::new(n, packed);
            for set in &sets {
                incremental.append_set(set);
            }
            assert_eq!(bulk.num_sets(), incremental.num_sets());
            assert_eq!(bulk.total_elements(), incremental.total_elements());
            assert_eq!(bulk.counts(), incremental.counts());
            for i in 0..bulk.num_sets() {
                assert_eq!(bulk.set_members(i), incremental.set_members(i));
                assert_eq!(bulk.set_bounds(i), incremental.set_bounds(i));
            }
        }
    }

    #[test]
    fn append_batch_default_impl_falls_back_to_append_set() {
        // A builder that only implements append_set still ingests batches.
        struct Fallback(PlainRrrStore);
        impl RrrSets for Fallback {
            fn num_vertices(&self) -> usize {
                self.0.num_vertices()
            }
            fn num_sets(&self) -> usize {
                self.0.num_sets()
            }
            fn total_elements(&self) -> usize {
                self.0.total_elements()
            }
            fn set_bounds(&self, i: usize) -> (usize, usize) {
                self.0.set_bounds(i)
            }
            fn element(&self, idx: usize) -> VertexId {
                self.0.element(idx)
            }
            fn counts(&self) -> &[u32] {
                self.0.counts()
            }
            fn bytes(&self) -> usize {
                self.0.bytes()
            }
        }
        impl RrrStoreBuilder for Fallback {
            fn append_set(&mut self, set: &[VertexId]) {
                self.0.append_set(set);
            }
        }
        let mut fb = Fallback(PlainRrrStore::new(6));
        let elements = [1u32, 3, 5, 0, 2, 3, 4, 5];
        let lens = [3usize, 1, 4];
        let mut coverage = vec![0u32; 6];
        for &v in &elements {
            coverage[v as usize] += 1;
        }
        fb.append_batch(&elements, &lens, &coverage);
        assert_eq!(fb.num_sets(), 3);
        assert_eq!(fb.set_members(2), vec![2, 3, 4, 5]);
        assert_eq!(fb.counts()[5], 2);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// The probe count read off `(len, rank, found)` is the search's own,
        /// for every vertex in and around random sorted sets of either
        /// layout: empty sets, short ones inside the table and long ones
        /// past its cap.
        #[test]
        fn search_probes_matches_the_search(
            n in 1u32..1_000,
            draws in proptest::collection::vec(
                proptest::collection::vec(proptest::prelude::any::<u32>(), 0..=700),
                0..6,
            ),
        ) {
            let mut sets: Vec<Vec<u32>> = draws
                .into_iter()
                .map(|d| {
                    let mut set: Vec<u32> = d.into_iter().map(|x| x % n).collect();
                    set.sort_unstable();
                    set.dedup();
                    set
                })
                .collect();
            sets.push(Vec::new());
            for packed in [false, true] {
                let mut store = AnyRrrStore::new(n as usize, packed);
                for set in &sets {
                    store.append_set(set);
                }
                for (i, set) in sets.iter().enumerate() {
                    for v in 0..=n {
                        let (found, probes) = store.contains_with_probes(i, v);
                        let rank = set.partition_point(|&u| u < v);
                        proptest::prop_assert_eq!(
                            search_probes(set.len(), rank, found),
                            probes,
                            "len {} v {} packed {}",
                            set.len(),
                            v,
                            packed
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn empty_set_membership_probe_free() {
        let mut s = PlainRrrStore::new(4);
        s.append_set(&[]);
        let (found, probes) = s.contains_with_probes(0, 2);
        assert!(!found);
        assert_eq!(probes, 0);
    }

    /// Patching a store to some content must leave it indistinguishable
    /// from a store that appended that content directly — members, counts,
    /// and offsets.
    #[test]
    fn patch_sets_matches_fresh_append_on_every_backend() {
        use rand::{Rng, SeedableRng};
        let n = 600usize;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(77);
        let rand_set = |rng: &mut rand_chacha::ChaCha8Rng| {
            let len = rng.gen_range(0..12usize);
            let mut s: Vec<u32> = (0..len).map(|_| rng.gen_range(0..n as u32)).collect();
            s.sort_unstable();
            s.dedup();
            s
        };
        let old: Vec<Vec<u32>> = (0..1124).map(|_| rand_set(&mut rng)).collect();
        // Patch a scatter of ids, including the first and last sets and an
        // emptied set.
        let mut ids = vec![3, 511, 512, old.len() - 1];
        for _ in 0..40 {
            ids.push(rng.gen_range(0..old.len()));
        }
        ids.sort_unstable();
        ids.dedup();
        let patches: Vec<(usize, Vec<u32>)> = ids
            .iter()
            .enumerate()
            .map(|(j, &i)| (i, if j == 0 { vec![] } else { rand_set(&mut rng) }))
            .collect();
        let mut target = old.clone();
        for (i, new) in &patches {
            target[*i] = new.clone();
        }

        for packed in [false, true] {
            let mut patched = AnyRrrStore::new(n, packed);
            let mut fresh = AnyRrrStore::new(n, packed);
            for set in &old {
                patched.append_set(set);
            }
            for set in &target {
                fresh.append_set(set);
            }
            patched.patch_sets(&patches);
            assert_eq!(patched.num_sets(), fresh.num_sets());
            assert_eq!(patched.total_elements(), fresh.total_elements());
            assert_eq!(patched.counts(), fresh.counts());
            for i in 0..patched.num_sets() {
                assert_eq!(
                    patched.set_members(i),
                    fresh.set_members(i),
                    "set {i} packed={packed}"
                );
                assert_eq!(patched.set_bounds(i), fresh.set_bounds(i));
            }
            // Appending after a patch keeps working.
            let extra = rand_set(&mut rng);
            patched.append_set(&extra);
            fresh.append_set(&extra);
            assert_eq!(
                patched.set_members(patched.num_sets() - 1),
                fresh.set_members(fresh.num_sets() - 1)
            );
        }
    }
}
