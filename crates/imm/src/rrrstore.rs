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

/// Validates a patch: ascending unique set ids in range, `lens` one per id
/// and partitioning `elements`, each content sorted. Shared by every
/// backend's `patch_sets`.
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

/// A backend's flat element array, as `patch_sets` rebuilds it.
trait ElementStream {
    /// Elements stored.
    fn len(&self) -> usize;
    /// Appends elements `start..end` of `old`.
    fn copy_run(&mut self, old: &Self, start: usize, end: usize);
    /// Appends one set's members.
    fn append(&mut self, set: &[VertexId]);
}

impl ElementStream for Vec<VertexId> {
    fn len(&self) -> usize {
        Vec::len(self)
    }
    fn copy_run(&mut self, old: &Self, start: usize, end: usize) {
        self.extend_from_slice(&old[start..end]);
    }
    fn append(&mut self, set: &[VertexId]) {
        self.extend_from_slice(set);
    }
}

impl ElementStream for PackedBuf {
    fn len(&self) -> usize {
        PackedBuf::len(self)
    }
    fn copy_run(&mut self, old: &Self, start: usize, end: usize) {
        self.extend_from_buf(old, start, end);
    }
    fn append(&mut self, set: &[VertexId]) {
        for &v in set {
            self.push(v as u64);
        }
    }
}

/// Writes to `new` the element array `old` becomes when sets `ids`
/// (ascending, at least one) take the contents `elements` split by `lens`, and shifts
/// `offsets` to match. Each run of unpatched sets is one `copy_run`, and
/// its offsets move by one running difference.
fn splice_sets<E: ElementStream>(
    old: &E,
    new: &mut E,
    offsets: &mut [u64],
    ids: &[usize],
    elements: &[VertexId],
    lens: &[usize],
) {
    let first = ids[0];
    // `pos` is where the next unplaced set starts in `old`.
    let mut pos = offsets[first] as usize;
    new.copy_run(old, 0, pos);
    let (mut next, mut shift, mut cursor) = (first, 0i64, 0usize);
    for (&id, &len) in ids.iter().zip(lens) {
        // `offsets[id]` still holds its old value unless set `id - 1` was
        // patched too, in which case set `id` starts where that one ended.
        let start = if id == next {
            pos
        } else {
            offsets[id] as usize
        };
        let end = offsets[id + 1] as usize;
        new.copy_run(old, pos, start);
        for o in &mut offsets[next + 1..=id] {
            *o = o.wrapping_add_signed(shift);
        }
        new.append(&elements[cursor..cursor + len]);
        cursor += len;
        offsets[id + 1] = offsets[id] + len as u64;
        shift += len as i64 - (end - start) as i64;
        (pos, next) = (end, id + 1);
    }
    new.copy_run(old, pos, old.len());
    for o in &mut offsets[next + 1..] {
        *o = o.wrapping_add_signed(shift);
    }
}

impl PlainRrrStore {
    /// Replaces the contents of sets `ids` (ascending) in place. The new
    /// contents arrive the way [`RrrStoreBuilder::append_batch`] takes a
    /// batch: `elements` is every patched set's members concatenated in id
    /// order and `lens` partitions it (each content sorted; empty = the set
    /// no longer covers anything). Everything before the first patched set
    /// is untouched; from there the element array is rebuilt in one pass
    /// that copies each unpatched run whole, and the coverage histogram
    /// absorbs the membership diff.
    pub fn patch_sets(&mut self, ids: &[usize], elements: &[VertexId], lens: &[usize]) {
        validate_patches(ids, elements, lens, self.num_sets(), self.n);
        if ids.is_empty() {
            return;
        }
        let mut removed = 0usize;
        for &i in ids {
            let (s, e) = self.set_bounds(i);
            removed += e - s;
            for &v in &self.r[s..e] {
                self.counts[v as usize] -= 1;
            }
        }
        for &v in elements {
            self.counts[v as usize] += 1;
        }
        let rebuilt = Vec::with_capacity(self.r.len() - removed + elements.len());
        let old = std::mem::replace(&mut self.r, rebuilt);
        splice_sets(&old, &mut self.r, &mut self.offsets, ids, elements, lens);
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

    /// Replaces the contents of sets `ids` (see
    /// [`PlainRrrStore::patch_sets`] for the arguments). The packed element
    /// stream is bit-adjacent, so it is rebuilt from the first patched set
    /// on: each run of unpatched sets is copied 64 bits at a time by
    /// [`PackedBuf::extend_from_buf`], shifted to its new bit position, and
    /// only the patched sets are encoded.
    pub fn patch_sets(&mut self, ids: &[usize], elements: &[VertexId], lens: &[usize]) {
        validate_patches(ids, elements, lens, self.num_sets(), self.n);
        if ids.is_empty() {
            return;
        }
        let mut removed = 0usize;
        let mut scratch: Vec<VertexId> = Vec::new();
        for &i in ids {
            let (s, e) = self.set_bounds(i);
            removed += e - s;
            scratch.clear();
            self.r.extend_decode_u32(s, e, &mut scratch);
            for &v in &scratch {
                self.counts[v as usize] -= 1;
            }
        }
        for &v in elements {
            self.counts[v as usize] += 1;
        }
        let rebuilt = PackedBuf::with_capacity(
            self.r.bits_per_value(),
            self.r.len() - removed + elements.len(),
        );
        let old = std::mem::replace(&mut self.r, rebuilt);
        splice_sets(&old, &mut self.r, &mut self.offsets, ids, elements, lens);
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
    fn for_each_set_in(&self, from: usize, to: usize, f: &mut dyn FnMut(usize, &[VertexId])) {
        // One rolling decode per set into a reused buffer, not a `get` per
        // element.
        let mut scratch: Vec<VertexId> = Vec::new();
        for i in from..to {
            let (s, e) = self.set_bounds(i);
            scratch.clear();
            self.r.extend_decode_u32(s, e, &mut scratch);
            f(i, &scratch);
        }
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

    /// Replaces the contents of sets `ids` in place, dispatching to the
    /// backend's patch path; see [`PlainRrrStore::patch_sets`] for the
    /// arguments and the per-backend docs for cost models.
    pub fn patch_sets(&mut self, ids: &[usize], elements: &[VertexId], lens: &[usize]) {
        match self {
            AnyRrrStore::Plain(s) => s.patch_sets(ids, elements, lens),
            AnyRrrStore::Packed(s) => s.patch_sets(ids, elements, lens),
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
    /// offsets and digest — and appending after a patch keeps working.
    #[test]
    fn patch_sets_matches_fresh_append_on_every_backend() {
        use rand::{Rng, SeedableRng};
        // 600 vertices pack at 10 bits, so sets and runs start at every
        // bit phase and straddle words.
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
                let mut patched = AnyRrrStore::new(n, packed);
                let mut fresh = AnyRrrStore::new(n, packed);
                for set in &old {
                    patched.append_set(set);
                }
                for set in &target {
                    fresh.append_set(set);
                }
                patched.patch_sets(&ids, &elements, &lens);
                assert_eq!(patched.num_sets(), fresh.num_sets(), "{label}");
                assert_eq!(patched.total_elements(), fresh.total_elements(), "{label}");
                assert_eq!(patched.counts(), fresh.counts(), "{label}");
                assert_eq!(patched.bytes(), fresh.bytes(), "{label}");
                for i in 0..patched.num_sets() {
                    assert_eq!(
                        patched.set_members(i),
                        fresh.set_members(i),
                        "{label} set {i}"
                    );
                    assert_eq!(
                        patched.set_bounds(i),
                        fresh.set_bounds(i),
                        "{label} set {i}"
                    );
                }
                assert_eq!(
                    crate::checkpoint::store_digest(&patched),
                    crate::checkpoint::store_digest(&fresh),
                    "{label}"
                );
                // Appending after a patch keeps working.
                let extra = rand_set(&mut rng, 12);
                patched.append_set(&extra);
                fresh.append_set(&extra);
                assert_eq!(
                    patched.set_members(patched.num_sets() - 1),
                    fresh.set_members(fresh.num_sets() - 1),
                    "{label}"
                );
            }
        }
        // An empty patch changes nothing.
        let mut store = AnyRrrStore::new(n, true);
        for set in &old {
            store.append_set(set);
        }
        let before = crate::checkpoint::store_digest(&store);
        store.patch_sets(&[], &[], &[]);
        assert_eq!(crate::checkpoint::store_digest(&store), before);
    }

    /// The packed store's rolling-decode `for_each_set_in` hands out the
    /// same members as the per-element default, over any range.
    #[test]
    fn packed_for_each_set_in_matches_element_reads() {
        let mut s = PackedRrrStore::new(6);
        fill(&mut s);
        let mut seen = Vec::new();
        s.for_each_set_in(1, 5, &mut |i, members| seen.push((i, members.to_vec())));
        let want: Vec<(usize, Vec<u32>)> = (1..5)
            .map(|i| {
                let (a, b) = s.set_bounds(i);
                (i, (a..b).map(|idx| s.element(idx)).collect())
            })
            .collect();
        assert_eq!(seen, want);
    }
}
