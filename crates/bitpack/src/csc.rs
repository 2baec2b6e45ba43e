//! Log-encoded CSC graph representation (§3.1).
//!
//! The paper's device-resident network data is the three CSC arrays —
//! offsets, in-neighbors, edge weights — with log encoding applied. Offsets
//! pack to `ceil(log2 m)` bits, neighbor ids to `ceil(log2 n)` bits. Weights
//! under the paper's default assignment (`p_uv = 1 / d^-_v`) are a function
//! of the row length, so `WeightStorage::Derived` stores none at all;
//! `WeightStorage::Plain` keeps the raw `f32`s for arbitrary weights.

use eim_graph::{Adjacency, Graph, VertexId, Weight};

use crate::{bits_for, MemoryReport, PackedArray};

/// How edge weights are represented alongside the packed structure.
#[derive(Clone, Debug, PartialEq)]
enum WeightStorage {
    /// `p_uv = 1 / d^-_v`, recomputed from the offsets on access; zero bytes.
    /// Exactly correct for the paper's weighted-cascade / LT assignment.
    Derived,
    /// Raw weights, uncompressed (floats do not log-encode).
    Plain(Vec<Weight>),
}

/// A CSC adjacency with log-encoded offsets and neighbor ids.
#[derive(Clone, Debug)]
pub struct PackedCsc {
    offsets: PackedArray,
    neighbors: PackedArray,
    weights: WeightStorage,
    num_vertices: usize,
}

impl PackedCsc {
    /// Packs a graph's CSC side, keeping weights as raw floats.
    pub fn from_graph(graph: &Graph) -> Self {
        Self::from_adjacency(graph.csc(), false)
    }

    /// Packs a graph's CSC side with derived (weighted-cascade) weights —
    /// valid when the graph was built with `WeightModel::WeightedCascade`.
    pub fn from_graph_derived(graph: &Graph) -> Self {
        Self::from_adjacency(graph.csc(), true)
    }

    fn from_adjacency(csc: &Adjacency, derive_weights: bool) -> Self {
        let offsets = PackedArray::from_values(csc.offsets());
        let neighbors = PackedArray::from_u32s(csc.neighbors());
        let weights = if derive_weights {
            WeightStorage::Derived
        } else {
            WeightStorage::Plain(csc.weights().to_vec())
        };
        Self {
            offsets,
            neighbors,
            weights,
            num_vertices: csc.num_rows(),
        }
    }

    /// Vertex count.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Edge count.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.neighbors.len()
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: VertexId) -> usize {
        let v = v as usize;
        (self.offsets.get(v + 1) - self.offsets.get(v)) as usize
    }

    /// Start/end of row `v` in the flat neighbor stream.
    #[inline]
    pub fn row_bounds(&self, v: VertexId) -> (usize, usize) {
        let v = v as usize;
        (
            self.offsets.get(v) as usize,
            self.offsets.get(v + 1) as usize,
        )
    }

    /// Decodes the `idx`-th in-neighbor of `v`.
    #[inline]
    pub fn in_neighbor(&self, v: VertexId, idx: usize) -> VertexId {
        let (start, end) = self.row_bounds(v);
        debug_assert!(start + idx < end);
        self.neighbors.get(start + idx) as VertexId
    }

    /// Weight of the `idx`-th in-edge of `v`.
    #[inline]
    pub fn in_weight(&self, v: VertexId, idx: usize) -> Weight {
        match &self.weights {
            WeightStorage::Derived => {
                let d = self.in_degree(v);
                debug_assert!(idx < d);
                1.0 / d as Weight
            }
            WeightStorage::Plain(w) => {
                let (start, end) = self.row_bounds(v);
                debug_assert!(start + idx < end);
                w[start + idx]
            }
        }
    }

    /// Appends the neighbor stream's elements `start..end` (a row from
    /// [`PackedCsc::row_bounds`]) to `out`, decoded sequentially.
    #[inline]
    pub fn decode_neighbors_into(&self, start: usize, end: usize, out: &mut Vec<VertexId>) {
        self.neighbors.extend_decode_u32(start, end, out);
    }

    /// The raw weight slice of neighbor-stream range `start..end` when
    /// weights are stored plain; `None` when they derive from the row
    /// length (`p = 1 / d`).
    pub fn plain_weights(&self, start: usize, end: usize) -> Option<&[Weight]> {
        match &self.weights {
            WeightStorage::Plain(w) => Some(&w[start..end]),
            WeightStorage::Derived => None,
        }
    }

    /// Bits used per offset entry.
    pub fn offset_bits(&self) -> u32 {
        self.offsets.bits_per_value()
    }

    /// Bits used per neighbor id.
    pub fn neighbor_bits(&self) -> u32 {
        self.neighbors.bits_per_value()
    }

    /// Packed heap bytes (offsets + neighbors + any plain weights).
    pub fn bytes(&self) -> usize {
        let w = match &self.weights {
            WeightStorage::Derived => 0,
            WeightStorage::Plain(w) => w.len() * std::mem::size_of::<Weight>(),
        };
        self.offsets.bytes() + self.neighbors.bytes() + w
    }

    /// Memory comparison against the plain CSC representation — the §4.2
    /// measurement ("up to 28.8 % saved on small networks, > 14 % on large").
    pub fn memory_report(&self, plain: &Adjacency) -> MemoryReport {
        MemoryReport::new(plain.bytes(), self.bytes())
    }

    /// Expected packed size in bytes for a graph with `n` vertices and `m`
    /// edges with plain weights — the closed form the paper's §4.2 trend
    /// follows (savings shrink as `log2 n` approaches 32).
    pub fn predicted_bytes(n: usize, m: usize) -> usize {
        let off_bits = bits_for(m as u64) as usize;
        let nb_bits = bits_for(n.saturating_sub(1) as u64) as usize;
        ((n + 1) * off_bits).div_ceil(64) * 8 + (m * nb_bits).div_ceil(64) * 8 + m * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eim_graph::{generators, GraphBuilder, WeightModel};

    fn row(p: &PackedCsc, v: VertexId) -> Vec<VertexId> {
        let (start, end) = p.row_bounds(v);
        let mut out = Vec::new();
        p.decode_neighbors_into(start, end, &mut out);
        out
    }

    fn small() -> Graph {
        GraphBuilder::new(5)
            .edges([(0, 1), (2, 1), (3, 1), (1, 4), (0, 4)])
            .build(WeightModel::WeightedCascade)
    }

    #[test]
    fn structure_roundtrips() {
        let g = small();
        let p = PackedCsc::from_graph(&g);
        assert_eq!(p.num_vertices(), 5);
        assert_eq!(p.num_edges(), 5);
        for v in 0..5u32 {
            assert_eq!(row(&p, v), g.in_neighbors(v));
            assert_eq!(p.in_degree(v), g.in_degree(v));
        }
    }

    #[test]
    fn plain_weights_roundtrip() {
        let g = small();
        let p = PackedCsc::from_graph(&g);
        for v in 0..5u32 {
            for i in 0..g.in_degree(v) {
                assert_eq!(p.in_weight(v, i), g.in_weights(v)[i]);
            }
        }
    }

    #[test]
    fn derived_weights_match_weighted_cascade() {
        let g = small();
        let p = PackedCsc::from_graph_derived(&g);
        assert!(p.bytes() < PackedCsc::from_graph(&g).bytes());
        for v in 0..5u32 {
            for i in 0..g.in_degree(v) {
                assert!((p.in_weight(v, i) - g.in_weights(v)[i]).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn row_decode_at_exact_word_boundary_and_empty_rows() {
        // Neighbor id 199 forces 8-bit ids, so a first row of exactly 8
        // in-edges fills bits 0..64: row 1 starts precisely on the word
        // boundary. Vertex 2 has no in-edges (zero-length row).
        let mut edges: Vec<(u32, u32)> = (1..=8).map(|u| (u, 0)).collect();
        edges.extend([(9, 1), (10, 1), (199, 3)]);
        let g = GraphBuilder::new(200)
            .edges(edges)
            .build(WeightModel::WeightedCascade);
        let p = PackedCsc::from_graph(&g);
        assert_eq!(p.neighbor_bits(), 8);
        assert_eq!(p.in_degree(0), 8);
        assert_eq!(p.in_degree(2), 0);
        let mut out = Vec::new();
        for v in 0..4u32 {
            let (s, e) = p.row_bounds(v);
            out.clear();
            p.decode_neighbors_into(s, e, &mut out);
            assert_eq!(out, g.in_neighbors(v), "row {v}");
        }
        // The empty row must not disturb pre-existing output contents.
        let (s, e) = p.row_bounds(2);
        assert_eq!(s, e);
        let mut keep = vec![42u32];
        p.decode_neighbors_into(s, e, &mut keep);
        assert_eq!(keep, vec![42]);
    }

    #[test]
    fn packing_saves_memory_on_realistic_graph() {
        let g = generators::rmat(
            5_000,
            40_000,
            generators::RmatParams::GRAPH500,
            WeightModel::WeightedCascade,
            3,
        );
        let p = PackedCsc::from_graph(&g);
        let rep = p.memory_report(g.csc());
        // n = 5000 -> 13-bit ids vs 32-bit: neighbor array shrinks ~60 %,
        // offsets shrink ~75 %, weights unchanged -> overall > 20 %.
        assert!(
            rep.saved_fraction() > 0.20,
            "saved {:.1} %",
            rep.saved_fraction() * 100.0
        );
    }

    #[test]
    fn savings_shrink_with_network_size() {
        // §4.2: the percentage saved decreases as networks grow (ids need
        // more bits). Compare the closed-form prediction across scales.
        let small = MemoryReport::new(
            8 * (7_000 + 1) + 8 * 100_000,
            PackedCsc::predicted_bytes(7_000, 100_000),
        );
        let large = MemoryReport::new(
            8 * (4_800_000 + 1) + 8 * 68_000_000,
            PackedCsc::predicted_bytes(4_800_000, 68_000_000),
        );
        assert!(small.saved_fraction() > large.saved_fraction());
        assert!(
            large.saved_fraction() > 0.14,
            "large {}",
            large.saved_fraction()
        );
        assert!(small.saved_fraction() < 0.35);
    }

    #[test]
    fn empty_graph_packs() {
        let g = GraphBuilder::new(0).build(WeightModel::WeightedCascade);
        let p = PackedCsc::from_graph(&g);
        assert_eq!(p.num_vertices(), 0);
        assert_eq!(p.num_edges(), 0);
    }

    #[test]
    fn isolated_vertices_have_empty_rows() {
        let g = GraphBuilder::new(4)
            .edge(0, 1)
            .build(WeightModel::WeightedCascade);
        let p = PackedCsc::from_graph(&g);
        assert_eq!(p.in_degree(3), 0);
        assert!(row(&p, 3).is_empty());
    }

    #[test]
    fn predicted_bytes_matches_actual_for_plain_weights() {
        let g = generators::erdos_renyi_gnm(1_000, 8_000, WeightModel::WeightedCascade, 5);
        let p = PackedCsc::from_graph(&g);
        let predicted = PackedCsc::predicted_bytes(1_000, 8_000);
        assert_eq!(p.bytes(), predicted);
    }
}
