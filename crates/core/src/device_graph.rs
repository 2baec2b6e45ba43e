//! Kernel-facing graph view: plain or log-encoded CSC.

use eim_bitpack::PackedCsc;
use eim_diffusion::{lt_choose, lt_choose_prefix};
use eim_graph::{Graph, VertexId, Weight};

/// Integer acceptance threshold of an IC edge weight `p`: a uniform draw
/// `u: u32` activates the edge iff `(u >> 8) <= weight_threshold(p)`.
///
/// This is *exactly* the float comparison `r <= p` with
/// `r = (u >> 8) as f32 * 2^-24` (the vendored `Standard` f32 draw): the
/// 24-bit mantissa `m = u >> 8` scales to f32 losslessly, and
/// `p * 2^24` is exact in f64, so `m * 2^-24 <= p  <=>  m <= floor(p * 2^24)`.
/// Precomputing the threshold lets the kernel compare raw keystream words
/// against the CSC weights with no float conversion per edge.
#[inline]
pub fn weight_threshold(p: f32) -> u32 {
    ((p as f64 * 16_777_216.0).floor() as u64).min(u32::MAX as u64) as u32
}

/// The per-edge host emulation state a device view keeps beside its CSC:
/// row starts, acceptance thresholds ([`weight_threshold`]) and per-row
/// inclusive weight prefix sums, all in CSC order. The device scans the
/// weights themselves; the thresholds re-encode the weight array at the
/// same 4 bytes per edge and the prefix sums emulate the warp scan, so
/// none of this changes what a view claims in device bytes.
struct EdgeTables {
    /// Exclusive prefix of in-degrees: the edge range of `v`.
    starts: Vec<usize>,
    /// Per-edge acceptance thresholds.
    thresholds: Vec<u32>,
    /// Accumulated in order as `acc + p` in `f32` — the sums [`lt_choose`]
    /// forms as it scans, so [`lt_choose_prefix`] over them picks the same
    /// edge.
    prefix: Vec<f32>,
}

impl EdgeTables {
    fn with_capacity(n: usize, m: usize) -> Self {
        let mut starts = Vec::with_capacity(n + 1);
        starts.push(0);
        Self {
            starts,
            thresholds: Vec::with_capacity(m),
            prefix: Vec::with_capacity(m),
        }
    }

    /// Tables for a host graph's CSC rows.
    fn from_graph(graph: &Graph) -> Self {
        let n = graph.num_vertices();
        let mut t = Self::with_capacity(n, graph.num_edges());
        for v in 0..n as VertexId {
            t.push_row(graph.in_weights(v).iter().copied());
        }
        t
    }

    /// Tables for a packed CSC's rows.
    fn from_packed(csc: &PackedCsc) -> Self {
        let n = csc.num_vertices();
        let mut t = Self::with_capacity(n, csc.num_edges());
        for v in 0..n as VertexId {
            t.push_packed_row(csc, v);
        }
        t
    }

    /// Appends one row with the given weights.
    fn push_row(&mut self, weights: impl IntoIterator<Item = Weight>) {
        let mut acc = 0.0f32;
        for p in weights {
            self.thresholds.push(weight_threshold(p));
            acc += p;
            self.prefix.push(acc);
        }
        self.starts.push(self.thresholds.len());
    }

    /// Appends row `v` of `csc`: its plain weights, or the derived weight
    /// `1/d` repeated across the row.
    fn push_packed_row(&mut self, csc: &PackedCsc, v: VertexId) {
        let (start, end) = csc.row_bounds(v);
        match csc.plain_weights(start, end) {
            Some(ws) => self.push_row(ws.iter().copied()),
            None => {
                let d = end - start;
                self.push_row(std::iter::repeat_n(1.0 / d as Weight, d));
            }
        }
    }

    /// Appends rows `lo..hi` of `src` verbatim: thresholds and prefix sums
    /// are row-local, so only the row starts shift.
    fn copy_rows(&mut self, src: &EdgeTables, lo: usize, hi: usize) {
        let (s, e) = (src.starts[lo], src.starts[hi]);
        let base = self.thresholds.len();
        self.thresholds.extend_from_slice(&src.thresholds[s..e]);
        self.prefix.extend_from_slice(&src.prefix[s..e]);
        self.starts
            .extend(src.starts[lo + 1..=hi].iter().map(|&x| x - s + base));
    }

    #[inline]
    fn row(&self, v: VertexId) -> std::ops::Range<usize> {
        self.starts[v as usize]..self.starts[v as usize + 1]
    }

    #[inline]
    fn lt_choose(&self, v: VertexId, tau: f32) -> Option<usize> {
        lt_choose_prefix(&self.prefix[self.row(v)], tau)
    }

    /// [`DeviceGraph::prefetch_queued`] over these tables and the
    /// `neighbors` array their rows index.
    #[inline]
    fn prefetch_queued(&self, neighbors: &[VertexId], queued: &[VertexId]) {
        if let Some(&v) = queued.get(PREFETCH_START_AHEAD) {
            prefetch(&self.starts[v as usize]);
        }
        if let Some(&v) = queued.get(PREFETCH_ROW_AHEAD) {
            let s = self.starts[v as usize];
            if let (Some(t), Some(u)) = (self.thresholds.get(s), neighbors.get(s)) {
                prefetch(t);
                prefetch(u);
            }
        }
    }
}

/// Positions in the queue [`DeviceGraph::prefetch_queued`] gets (0 is the
/// next dequeue) whose row start, and whose neighbor and threshold rows,
/// it prefetches: the vertices eight and three places behind the one being
/// expanded. A row start fetched early locates the row fetched later.
const PREFETCH_START_AHEAD: usize = 7;
const PREFETCH_ROW_AHEAD: usize = 2;

/// Asks the CPU to start loading the cache line holding `x` into L1; does
/// nothing off x86_64.
#[inline]
fn prefetch<T>(x: &T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `prefetcht0` is a hint that never faults and changes no
    // program state, here given the address of a live reference. SSE, which
    // provides it, is part of the x86_64 baseline.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>((x as *const T).cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = x;
}

/// Reusable decode buffer for [`DeviceGraph::in_edges`] on representations
/// that cannot hand out slices directly (the log-encoded CSC decodes through
/// it). Lives in the sampler's per-worker launch scratch so no allocation
/// happens mid-traversal.
#[derive(Default)]
pub struct EdgeScratch {
    nbrs: Vec<VertexId>,
    thresholds: Vec<u32>,
}

/// What a sampling kernel needs from the device-resident network data,
/// independent of whether it is log-encoded.
pub trait DeviceGraph: Sync {
    /// Vertex count.
    fn n(&self) -> usize;
    /// In-degree of `v`.
    fn in_degree(&self, v: VertexId) -> usize;
    /// The `i`-th in-neighbor of `v`.
    fn in_neighbor(&self, v: VertexId, i: usize) -> VertexId;
    /// Weight of the `i`-th in-edge of `v`.
    fn in_weight(&self, v: VertexId, i: usize) -> Weight;
    /// Bytes this representation occupies on the device.
    fn device_bytes(&self) -> usize;

    /// `v`'s full in-neighbor list alongside the integer acceptance
    /// thresholds of its edge weights ([`weight_threshold`]) — the chunked
    /// CSC view the fused sampler scans. The default decodes edge by edge
    /// into `scratch`; representations with contiguous storage override it
    /// to return their own slices zero-copy.
    fn in_edges<'a>(
        &'a self,
        v: VertexId,
        scratch: &'a mut EdgeScratch,
    ) -> (&'a [VertexId], &'a [u32]) {
        let d = self.in_degree(v);
        scratch.nbrs.clear();
        scratch.thresholds.clear();
        scratch.nbrs.reserve(d);
        scratch.thresholds.reserve(d);
        for i in 0..d {
            scratch.nbrs.push(self.in_neighbor(v, i));
            scratch
                .thresholds
                .push(weight_threshold(self.in_weight(v, i)));
        }
        (&scratch.nbrs, &scratch.thresholds)
    }

    /// The in-edge of `v` an LT reverse step chooses for threshold `tau`
    /// ([`lt_choose`]). The default scans the weights one by one;
    /// representations with a per-row prefix-sum table override it with
    /// [`lt_choose_prefix`], which returns the same edge. That lookup starts
    /// at `⌊tau·d⌋`, so under weighted cascade it reads the one or two sums
    /// beside the answer, and on other rows it gallops in `O(log d)` probes.
    fn lt_choose(&self, v: VertexId, tau: f32) -> Option<usize> {
        lt_choose((0..self.in_degree(v)).map(|i| self.in_weight(v, i)), tau)
    }

    /// Hints that a traversal will soon scan the in-edges of the vertices
    /// in `queued`, its BFS queue past the vertex being expanded, in
    /// order. Views with flat host tables prefetch the row start of one
    /// vertex a few places down the queue and the neighbor and threshold
    /// rows of a nearer one. A hint only: it changes no result, and the
    /// default does nothing.
    #[inline]
    fn prefetch_queued(&self, _queued: &[VertexId]) {}

    /// Hints that an LT walk has just stepped to `v` and will read its row
    /// on its next step, after the block's other walks in flight have
    /// stepped. Views with flat host tables prefetch `v`'s row start. A
    /// hint only, like [`DeviceGraph::prefetch_queued`].
    #[inline]
    fn prefetch_row(&self, _v: VertexId) {}
}

/// Plain (uncompressed) CSC view — what gIM keeps on the device.
///
/// Construction precomputes the flat per-edge threshold array mirroring the
/// CSC weight array, so [`DeviceGraph::in_edges`] is zero-copy, and the
/// per-row weight prefix sums behind [`DeviceGraph::lt_choose`]; engines
/// build the view once per run, amortizing the `O(m)` pass.
pub struct PlainDeviceGraph<'g> {
    graph: &'g Graph,
    tables: EdgeTables,
}

impl<'g> PlainDeviceGraph<'g> {
    /// Wraps a graph, precomputing the edge threshold and prefix-sum
    /// arrays.
    pub fn new(graph: &'g Graph) -> Self {
        Self {
            graph,
            tables: EdgeTables::from_graph(graph),
        }
    }
}

impl DeviceGraph for PlainDeviceGraph<'_> {
    fn n(&self) -> usize {
        self.graph.num_vertices()
    }
    fn in_degree(&self, v: VertexId) -> usize {
        self.tables.row(v).len()
    }
    fn in_neighbor(&self, v: VertexId, i: usize) -> VertexId {
        self.graph.csc().neighbors()[self.tables.starts[v as usize] + i]
    }
    fn in_weight(&self, v: VertexId, i: usize) -> Weight {
        self.graph.in_weights(v)[i]
    }
    fn device_bytes(&self) -> usize {
        // Thresholds re-encode the weight array (same 4 bytes per edge on
        // device), so the footprint matches the plain CSC layout.
        self.graph.csc_bytes()
    }
    fn in_edges<'a>(
        &'a self,
        v: VertexId,
        _scratch: &'a mut EdgeScratch,
    ) -> (&'a [VertexId], &'a [u32]) {
        (
            self.graph.in_neighbors(v),
            &self.tables.thresholds[self.tables.row(v)],
        )
    }
    fn lt_choose(&self, v: VertexId, tau: f32) -> Option<usize> {
        self.tables.lt_choose(v, tau)
    }
    #[inline]
    fn prefetch_queued(&self, queued: &[VertexId]) {
        self.tables
            .prefetch_queued(self.graph.csc().neighbors(), queued);
    }
    #[inline]
    fn prefetch_row(&self, v: VertexId) {
        prefetch(&self.tables.starts[v as usize]);
    }
}

/// Log-encoded CSC view with the same once-per-run host precomputation
/// [`PlainDeviceGraph`] gets — per-edge acceptance thresholds and weight
/// prefix sums in flat CSC order, and unpacked row starts — plus a decoded
/// mirror of the neighbor array, so [`DeviceGraph::in_edges`] is zero-copy.
/// The device still holds only the packed arrays, and the simulator
/// charges a packed row read exactly like a plain one: bit-decoding each
/// dequeued row on the host was emulation overhead, not modeled work. So
/// the mirror is host emulation state like the thresholds (4 bytes per
/// edge of host memory), and [`DeviceGraph::device_bytes`] delegates to the
/// packed representation unchanged.
///
/// [`DeviceGraph::in_neighbor`], an LT step's one neighbor read, reads the
/// mirror at the row start the step's lookup has just loaded: one load,
/// where the packed arrays need an offset decode and a neighbor decode.
/// Behind the short `⌊tau·d⌋` lookup, this read and
/// [`DeviceGraph::prefetch_row`] measured faster than the packed read in
/// alternating `lt-social` runs.
pub struct PackedDeviceGraph {
    csc: PackedCsc,
    /// Decoded in-neighbors in CSC order: row `v` is `tables.row(v)`.
    neighbors: Vec<VertexId>,
    tables: EdgeTables,
}

impl PackedDeviceGraph {
    /// Wraps a packed CSC, decoding the neighbor mirror once and
    /// precomputing row starts, edge thresholds and weight prefix sums.
    pub fn new(csc: PackedCsc) -> Self {
        let mut neighbors = Vec::with_capacity(csc.num_edges());
        csc.decode_neighbors_into(0, csc.num_edges(), &mut neighbors);
        let tables = EdgeTables::from_packed(&csc);
        Self {
            csc,
            neighbors,
            tables,
        }
    }

    /// Packs `graph`'s CSC with plain weights — the same view as
    /// `new(PackedCsc::from_graph(graph))` — but copies the neighbor mirror
    /// and the tables from the host CSC instead of decoding the packed one.
    pub fn from_graph(graph: &Graph) -> Self {
        Self {
            csc: PackedCsc::from_graph(graph),
            neighbors: graph.csc().neighbors().to_vec(),
            tables: EdgeTables::from_graph(graph),
        }
    }

    /// This view after `graph`'s in-rows of `changed_heads` (sorted
    /// ascending) changed. `graph`'s CSC already holds the spliced rows, so
    /// the neighbor mirror copies it and the packed copy packs it afresh;
    /// no row of the old packed copy is decoded. The thresholds and prefix
    /// sums splice: unchanged row ranges are copied, and only the changed
    /// rows are derived. The result equals `new` over a fresh pack of
    /// `graph` with this view's weight storage.
    pub fn with_updated_rows(&self, graph: &Graph, changed_heads: &[VertexId]) -> Self {
        // An empty range still tells the two weight storages apart.
        let csc = match self.csc.plain_weights(0, 0) {
            Some(_) => PackedCsc::from_graph(graph),
            None => PackedCsc::from_graph_derived(graph),
        };
        let n = csc.num_vertices();
        let mut tables = EdgeTables::with_capacity(n, csc.num_edges());
        let mut lo = 0usize;
        for &v in changed_heads {
            tables.copy_rows(&self.tables, lo, v as usize);
            tables.push_packed_row(&csc, v);
            lo = v as usize + 1;
        }
        tables.copy_rows(&self.tables, lo, n);
        Self {
            csc,
            neighbors: graph.csc().neighbors().to_vec(),
            tables,
        }
    }
}

impl DeviceGraph for PackedDeviceGraph {
    fn n(&self) -> usize {
        self.csc.num_vertices()
    }
    fn in_degree(&self, v: VertexId) -> usize {
        self.tables.row(v).len()
    }
    fn in_neighbor(&self, v: VertexId, i: usize) -> VertexId {
        self.neighbors[self.tables.starts[v as usize] + i]
    }
    fn in_weight(&self, v: VertexId, i: usize) -> Weight {
        self.csc.in_weight(v, i)
    }
    fn device_bytes(&self) -> usize {
        self.csc.bytes()
    }
    fn in_edges<'a>(
        &'a self,
        v: VertexId,
        _scratch: &'a mut EdgeScratch,
    ) -> (&'a [VertexId], &'a [u32]) {
        let r = self.tables.row(v);
        (&self.neighbors[r.clone()], &self.tables.thresholds[r])
    }
    fn lt_choose(&self, v: VertexId, tau: f32) -> Option<usize> {
        self.tables.lt_choose(v, tau)
    }
    #[inline]
    fn prefetch_queued(&self, queued: &[VertexId]) {
        self.tables.prefetch_queued(&self.neighbors, queued);
    }
    #[inline]
    fn prefetch_row(&self, v: VertexId) {
        prefetch(&self.tables.starts[v as usize]);
    }
}

impl DeviceGraph for PackedCsc {
    fn n(&self) -> usize {
        self.num_vertices()
    }
    fn in_degree(&self, v: VertexId) -> usize {
        PackedCsc::in_degree(self, v)
    }
    fn in_neighbor(&self, v: VertexId, i: usize) -> VertexId {
        PackedCsc::in_neighbor(self, v, i)
    }
    fn in_weight(&self, v: VertexId, i: usize) -> Weight {
        PackedCsc::in_weight(self, v, i)
    }
    fn device_bytes(&self) -> usize {
        self.bytes()
    }
    fn in_edges<'a>(
        &'a self,
        v: VertexId,
        scratch: &'a mut EdgeScratch,
    ) -> (&'a [VertexId], &'a [u32]) {
        // One offset decode per row plus a rolling sequential neighbor
        // decode, instead of the default's per-edge accessors (each of
        // which re-derives the row bounds from the packed offsets).
        let (start, end) = self.row_bounds(v);
        scratch.nbrs.clear();
        scratch.thresholds.clear();
        self.decode_neighbors_into(start, end, &mut scratch.nbrs);
        match self.plain_weights(start, end) {
            Some(ws) => scratch
                .thresholds
                .extend(ws.iter().map(|&p| weight_threshold(p))),
            None => {
                // Derived weights are constant across the row.
                let d = end - start;
                let t = weight_threshold(if d == 0 { 0.0 } else { 1.0 / d as Weight });
                scratch.thresholds.resize(d, t);
            }
        }
        (&scratch.nbrs, &scratch.thresholds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eim_graph::{generators, WeightModel};

    #[test]
    fn plain_and_packed_views_agree() {
        let g = generators::rmat(
            400,
            2_000,
            generators::RmatParams::GRAPH500,
            WeightModel::WeightedCascade,
            3,
        );
        let plain = PlainDeviceGraph::new(&g);
        let packed = PackedCsc::from_graph(&g);
        assert_eq!(plain.n(), packed.n());
        for v in (0..400u32).step_by(7) {
            assert_eq!(plain.in_degree(v), DeviceGraph::in_degree(&packed, v));
            for i in 0..plain.in_degree(v) {
                assert_eq!(
                    plain.in_neighbor(v, i),
                    DeviceGraph::in_neighbor(&packed, v, i)
                );
                assert_eq!(plain.in_weight(v, i), DeviceGraph::in_weight(&packed, v, i));
            }
        }
        assert!(packed.device_bytes() < plain.device_bytes());
    }

    #[test]
    fn in_edges_zero_copy_and_scratch_paths_agree() {
        let g = generators::rmat(
            300,
            1_500,
            generators::RmatParams::GRAPH500,
            WeightModel::WeightedCascade,
            9,
        );
        let plain = PlainDeviceGraph::new(&g);
        let packed = PackedCsc::from_graph(&g);
        let derived = PackedCsc::from_graph_derived(&g);
        let mut s1 = EdgeScratch::default();
        let mut s2 = EdgeScratch::default();
        let mut s3 = EdgeScratch::default();
        for v in 0..300u32 {
            let (pn, pt) = plain.in_edges(v, &mut s1);
            let (kn, kt) = packed.in_edges(v, &mut s2);
            assert_eq!(pn, kn);
            assert_eq!(pt, kt);
            assert_eq!(pn.len(), plain.in_degree(v));
            for (i, &t) in pt.iter().enumerate() {
                assert_eq!(t, weight_threshold(plain.in_weight(v, i)));
            }
            // Derived weights (weighted cascade): same neighbors, and each
            // threshold encodes 1/d exactly as the per-edge accessor does.
            let (dn, dt) = derived.in_edges(v, &mut s3);
            assert_eq!(pn, dn);
            for (i, &t) in dt.iter().enumerate() {
                assert_eq!(t, weight_threshold(DeviceGraph::in_weight(&derived, v, i)));
            }
        }
    }

    /// Every row of two views agrees: neighbors, thresholds, the LT choice
    /// at a spread of thresholds, and the device footprint.
    fn assert_views_agree(a: &PackedDeviceGraph, b: &PackedDeviceGraph, what: &str) {
        assert_eq!(a.n(), b.n(), "{what}");
        assert_eq!(a.device_bytes(), b.device_bytes(), "{what}: device bytes");
        assert_eq!(a.csc.offset_bits(), b.csc.offset_bits(), "{what}");
        assert_eq!(a.csc.neighbor_bits(), b.csc.neighbor_bits(), "{what}");
        let edges = a.csc.num_edges();
        assert_eq!(edges, b.csc.num_edges(), "{what}");
        assert_eq!(
            a.csc.plain_weights(0, edges),
            b.csc.plain_weights(0, edges),
            "{what}: weight storage"
        );
        let (mut s1, mut s2) = (EdgeScratch::default(), EdgeScratch::default());
        for v in 0..a.n() as VertexId {
            assert_eq!(
                a.in_edges(v, &mut s1),
                b.in_edges(v, &mut s2),
                "{what}: row {v}"
            );
            for i in 0..a.in_degree(v) {
                assert_eq!(a.in_neighbor(v, i), b.in_neighbor(v, i), "{what}: row {v}");
                assert_eq!(
                    a.in_weight(v, i).to_bits(),
                    b.in_weight(v, i).to_bits(),
                    "{what}: row {v}"
                );
            }
            for tau in [0.0f32, 0.05, 0.3, 0.5, 0.77, 0.999, 1.0] {
                assert_eq!(
                    a.lt_choose(v, tau),
                    b.lt_choose(v, tau),
                    "{what}: row {v} tau {tau}"
                );
            }
        }
    }

    /// Over eight batches that empty, create, grow and shrink rows, the
    /// updated view equals a fresh pack under both weight storages: rows,
    /// thresholds, LT choices, packed widths and weights.
    #[test]
    fn spliced_rows_match_a_fresh_pack() {
        use eim_graph::GraphDelta;
        use rand::{Rng, SeedableRng};
        let n = 300u32;
        let mut g = generators::rmat(
            n as usize,
            1_500,
            generators::RmatParams::GRAPH500,
            WeightModel::WeightedCascade,
            17,
        );
        let mut plain = PackedDeviceGraph::from_graph(&g);
        let mut derived = PackedDeviceGraph::new(PackedCsc::from_graph_derived(&g));
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        let (mut emptied, mut appeared, mut grew) = (0, 0, 0);
        for round in 0..8u32 {
            let mut delta = GraphDelta::default();
            // A row that empties: every in-edge of some non-empty row.
            let full = (0..n)
                .map(|i| (i * 37 + round * 11) % n)
                .find(|&v| g.in_degree(v) > 0)
                .unwrap();
            delta
                .deletes
                .extend(g.in_neighbors(full).iter().map(|&u| (u, full)));
            // A row that appears: edges into an empty row.
            let empty = (0..n)
                .map(|i| (i * 53 + round * 7) % n)
                .find(|&v| v != full && g.in_degree(v) == 0)
                .unwrap();
            delta
                .inserts
                .extend((1..4).map(|k| ((empty + k * 29) % n, empty)));
            // Random churn, which grows and shrinks rows.
            for _ in 0..12 {
                let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if rng.gen_bool(0.5) {
                    delta.inserts.push((u, v));
                } else if let Some(&w) = g.in_neighbors(v).first() {
                    delta.deletes.push((w, v));
                }
            }
            delta.inserts.retain(|&(u, v)| u != v);
            let before: Vec<usize> = (0..n).map(|v| g.in_degree(v)).collect();
            let applied = g.apply_delta(&delta, WeightModel::WeightedCascade, round as u64);
            for &h in &applied.changed_heads {
                let (was, now) = (before[h as usize], g.in_degree(h));
                emptied += usize::from(was > 0 && now == 0);
                appeared += usize::from(was == 0 && now > 0);
                grew += usize::from(was > 0 && now > was);
            }
            plain = plain.with_updated_rows(&g, &applied.changed_heads);
            derived = derived.with_updated_rows(&g, &applied.changed_heads);
            let what = format!("round {round}");
            assert_views_agree(
                &plain,
                &PackedDeviceGraph::new(PackedCsc::from_graph(&g)),
                &format!("{what} plain"),
            );
            assert_views_agree(
                &derived,
                &PackedDeviceGraph::new(PackedCsc::from_graph_derived(&g)),
                &format!("{what} derived"),
            );
        }
        assert!(
            emptied >= 8 && appeared >= 8 && grew > 0,
            "{emptied} {appeared} {grew}"
        );
    }

    #[test]
    fn weight_threshold_matches_float_compare_exactly() {
        // The acceptance decision must be bit-identical to the reference
        // float comparison for every 24-bit mantissa.
        for p in [0.0f32, 1e-9, 0.01, 0.25, 1.0 / 3.0, 0.5, 0.999, 1.0] {
            let t = weight_threshold(p);
            for m in (0u32..1 << 24).step_by(3_191).chain([
                t.saturating_sub(1),
                t,
                t.saturating_add(1).min((1 << 24) - 1),
            ]) {
                let r = m as f32 * (1.0 / (1u32 << 24) as f32);
                assert_eq!(r <= p, m <= t, "p={p} m={m}");
            }
        }
    }
}
