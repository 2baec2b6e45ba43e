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

/// Appends one row's inclusive weight prefix sums to `prefix`, accumulated
/// in order as `acc + p` in `f32` — the sums [`lt_choose`] forms as it
/// scans, so [`lt_choose_prefix`] over them picks the same edge.
fn extend_prefix(prefix: &mut Vec<f32>, weights: impl Iterator<Item = Weight>) {
    let mut acc = 0.0f32;
    prefix.extend(weights.map(|p| {
        acc += p;
        acc
    }));
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
    /// the `O(log d)` lookup, which returns the same edge.
    fn lt_choose(&self, v: VertexId, tau: f32) -> Option<usize> {
        lt_choose((0..self.in_degree(v)).map(|i| self.in_weight(v, i)), tau)
    }
}

/// Plain (uncompressed) CSC view — what gIM keeps on the device.
///
/// Construction precomputes the flat per-edge threshold array mirroring the
/// CSC weight array, so [`DeviceGraph::in_edges`] is zero-copy, and the
/// per-row weight prefix sums behind [`DeviceGraph::lt_choose`]; engines
/// build the view once per run, amortizing the `O(m)` pass.
pub struct PlainDeviceGraph<'g> {
    graph: &'g Graph,
    /// Exclusive prefix of in-degrees: edge range of `v` in `thresholds`.
    edge_starts: Vec<usize>,
    /// Per-edge acceptance thresholds in CSC order ([`weight_threshold`]).
    thresholds: Vec<u32>,
    /// Per-row inclusive weight prefix sums in CSC order. Host emulation
    /// state, like `thresholds`: the device scans the weights themselves.
    prefix: Vec<f32>,
}

impl<'g> PlainDeviceGraph<'g> {
    /// Wraps a graph, precomputing the edge threshold and prefix-sum
    /// arrays.
    pub fn new(graph: &'g Graph) -> Self {
        let n = graph.num_vertices();
        let mut edge_starts = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        edge_starts.push(0);
        for v in 0..n as VertexId {
            acc += graph.in_degree(v);
            edge_starts.push(acc);
        }
        let mut thresholds = Vec::with_capacity(acc);
        let mut prefix = Vec::with_capacity(acc);
        for v in 0..n as VertexId {
            let ws = graph.in_weights(v);
            thresholds.extend(ws.iter().map(|&p| weight_threshold(p)));
            extend_prefix(&mut prefix, ws.iter().copied());
        }
        Self {
            graph,
            edge_starts,
            thresholds,
            prefix,
        }
    }
}

impl DeviceGraph for PlainDeviceGraph<'_> {
    fn n(&self) -> usize {
        self.graph.num_vertices()
    }
    fn in_degree(&self, v: VertexId) -> usize {
        self.graph.in_degree(v)
    }
    fn in_neighbor(&self, v: VertexId, i: usize) -> VertexId {
        self.graph.in_neighbors(v)[i]
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
        let (s, e) = (
            self.edge_starts[v as usize],
            self.edge_starts[v as usize + 1],
        );
        (self.graph.in_neighbors(v), &self.thresholds[s..e])
    }
    fn lt_choose(&self, v: VertexId, tau: f32) -> Option<usize> {
        let (s, e) = (
            self.edge_starts[v as usize],
            self.edge_starts[v as usize + 1],
        );
        lt_choose_prefix(&self.prefix[s..e], tau)
    }
}

/// Log-encoded CSC view with the same once-per-run host precomputation
/// [`PlainDeviceGraph`] gets: per-edge acceptance thresholds and weight
/// prefix sums in flat CSC order, and unpacked row starts. The device still
/// holds only the packed arrays — thresholds re-encode the weight array at
/// the same 4 bytes per edge the plain view claims, the prefix sums are
/// host emulation of the warp scan, and the row starts mirror the packed
/// offsets — so [`DeviceGraph::device_bytes`] delegates to the packed
/// representation unchanged. What remains per [`DeviceGraph::in_edges`]
/// call is the sequential neighbor decode, the one cost intrinsic to the
/// log-encoded format.
pub struct PackedDeviceGraph {
    csc: PackedCsc,
    /// Exclusive prefix of in-degrees: edge range of `v` in `thresholds`
    /// and in the packed neighbor stream.
    row_starts: Vec<usize>,
    /// Per-edge acceptance thresholds in CSC order ([`weight_threshold`]).
    thresholds: Vec<u32>,
    /// Per-row inclusive weight prefix sums in CSC order (host emulation
    /// state, as in [`PlainDeviceGraph`]).
    prefix: Vec<f32>,
}

impl PackedDeviceGraph {
    /// Wraps a packed CSC, precomputing row starts, edge thresholds and
    /// weight prefix sums.
    pub fn new(csc: PackedCsc) -> Self {
        let n = csc.num_vertices();
        let m = csc.num_edges();
        let mut row_starts = Vec::with_capacity(n + 1);
        let mut thresholds = Vec::with_capacity(m);
        let mut prefix = Vec::with_capacity(m);
        for v in 0..n as VertexId {
            let (start, end) = csc.row_bounds(v);
            row_starts.push(start);
            match csc.plain_weights(start, end) {
                Some(ws) => {
                    thresholds.extend(ws.iter().map(|&p| weight_threshold(p)));
                    extend_prefix(&mut prefix, ws.iter().copied());
                }
                None => {
                    // Derived weights are constant across the row.
                    let d = end - start;
                    let p = if d == 0 { 0.0 } else { 1.0 / d as Weight };
                    thresholds.resize(thresholds.len() + d, weight_threshold(p));
                    extend_prefix(&mut prefix, std::iter::repeat_n(p, d));
                }
            }
        }
        row_starts.push(m);
        Self {
            csc,
            row_starts,
            thresholds,
            prefix,
        }
    }

    /// The wrapped packed representation.
    pub fn csc(&self) -> &PackedCsc {
        &self.csc
    }
}

impl DeviceGraph for PackedDeviceGraph {
    fn n(&self) -> usize {
        self.csc.num_vertices()
    }
    fn in_degree(&self, v: VertexId) -> usize {
        self.row_starts[v as usize + 1] - self.row_starts[v as usize]
    }
    fn in_neighbor(&self, v: VertexId, i: usize) -> VertexId {
        self.csc.in_neighbor(v, i)
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
        scratch: &'a mut EdgeScratch,
    ) -> (&'a [VertexId], &'a [u32]) {
        let (start, end) = (self.row_starts[v as usize], self.row_starts[v as usize + 1]);
        scratch.nbrs.clear();
        self.csc
            .decode_neighbors_into(start, end, &mut scratch.nbrs);
        (&scratch.nbrs, &self.thresholds[start..end])
    }
    fn lt_choose(&self, v: VertexId, tau: f32) -> Option<usize> {
        let (start, end) = (self.row_starts[v as usize], self.row_starts[v as usize + 1]);
        lt_choose_prefix(&self.prefix[start..end], tau)
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
