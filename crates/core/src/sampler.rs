//! eIM RRR-set sampling kernels (§3.2–§3.4, Algorithm 2).
//!
//! One warp per block performs a probabilistic BFS (IC) or threshold walk
//! (LT). eIM's distinguishing choices, all modelled here:
//!
//! * the BFS queue `Q` lives in a pre-allocated **global-memory pool**, so
//!   no dynamic allocation ever happens mid-traversal and the finished
//!   queue doubles as the RRR set;
//! * set indices are assigned to blocks round-robin through a shared
//!   counter, balancing unpredictable traversal lengths;
//! * each set is sorted ascending before publication so selection can
//!   binary search (§3.2);
//! * with source elimination on (§3.4), the source is dropped in place and
//!   empty results are discarded entirely.
//!
//! [`sample_batch`] is the **fused kernel**: traversal writes directly into
//! the block's output arena (the queue *is* the RRR set — there is no
//! separate Q→R copy pass), the sort and source elimination happen in
//! place on that arena segment, the visited-bitmap reset is folded into the
//! same epilogue walk, and the per-vertex coverage histogram `C` is updated
//! in flight (the publish step's scattered atomics). Frontier expansion is
//! vectorized: each dequeued vertex's CSC neighbor slice is scanned against
//! raw RNG keystream words ([`rand_chacha::ChaCha8Rng`]'s SIMD block
//! refill) using precomputed integer acceptance thresholds
//! ([`crate::device_graph::weight_threshold`]) — bit-identical to the
//! per-edge float draw of the reference path. Under weighted cascade a
//! row's edges share one threshold, so the scan of such a row reads no
//! per-edge threshold at all ([`crate::device_graph::RowThresholds`]). Each
//! keystream window (up to 128 words) is compared in one pass, one AVX-512F
//! compare per sixteen words where the CPU has it (the window test in
//! `accept.rs`), and only the accepted positions read their neighbor
//! and `M`, in ascending order, so acceptances, enqueue order and charges
//! are those of the per-edge loop. At each dequeue the rest of the queue
//! goes to [`DeviceGraph::prefetch_queued`], which prefetches the rows the
//! next dequeues will read. On the `stream-social` redraw the keystream
//! alone is about half of the scan's time; the rest is per dequeue: the row
//! start, the accepted neighbors' lines and `M`.
//!
//! Under LT a block keeps `LT_LANES` walks in flight and steps them
//! round-robin, the host analogue of the resident warps that hide a GPU's
//! memory latency: each step is a chain of dependent loads (row start,
//! prefix-sum lookup, neighbor, visited flag), and interleaving eight
//! independent chains lets their cache misses overlap. The lookup starts
//! at `⌊tau·d⌋` ([`eim_diffusion::lt_choose_prefix`]), so under weighted
//! cascade it reads one or two sums, not a binary search's `log2 d`; the
//! neighbor is read at the row start the lookup loaded; and a step that
//! moves prefetches the next vertex's row start
//! ([`DeviceGraph::prefetch_row`]) while the other lanes step. Every lane
//! owns one sample's RNG stream and one bit of the visited mask `M`, so
//! walks in flight never see each other's marks; a finished lane publishes
//! its set through the same epilogue as an IC sample, then takes the
//! block's next sample. Every sample charges exactly what it would alone, to the same
//! block, and block totals are plain sums, so the interleaving moves no
//! simulated number.
//!
//! [`sample_batch_reference`] keeps the pre-fusion three-pass kernel
//! (traverse into a scratch queue, sort, copy out, one sample at a time) as
//! the differential oracle: both paths consume identical RNG streams and
//! produce byte-identical [`FlatSampleSets`], identical
//! [`SamplerCounters`], and identical coverage histograms.
//!
//! Blocks do the traversal work for real and charge warp-level costs; the
//! resulting sets are bit-identical across runs because every set index
//! owns a deterministic RNG stream.
//!
//! Host-side, the batch mirrors the device layout: every block appends its
//! finished sets into one flat data arena (no per-set `Vec`) and records a
//! `(start, len)` span per sample, since LT lanes finish out of order; the
//! traversal scratch (`M` mask, lanes and edge-decode buffer) lives in a
//! per-worker arena reused across blocks
//! ([`eim_gpusim::Device::launch_with_scratch`]), and the merged
//! [`FlatSampleSets`] is ordered by sample index, so its bytes are
//! independent of grid layout and thread count.

use eim_diffusion::{lt_crosses, sample_rng, DiffusionModel};
use eim_gpusim::{BlockCtx, Device, LaunchStats, Op, SimFault, WARP_SIZE};
use eim_graph::VertexId;
use rand::Rng;
use rand_chacha::ChaCha8Rng;

use crate::accept::accept_mask;
use crate::device_graph::{DeviceGraph, EdgeScratch};

/// LT walks a block keeps in flight. Sixteen measured no faster than eight.
const LT_LANES: usize = 8;

/// The visited-mask bit of single-walk traversals: every IC sample and
/// every reference-path sample.
const SOLO: u8 = 1;

/// Outcome counters of one sampling batch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SamplerCounters {
    /// Sets whose traversal visited only the source (pre-elimination) —
    /// the x-axis of Figure 5.
    pub singletons: usize,
    /// Samples discarded by source elimination.
    pub discarded: usize,
    /// Samples drawn in total.
    pub sampled: usize,
    /// Keystream words the batch drew: each sample's source, one word per
    /// IC edge test, and each LT step's threshold. Deterministic work, so a
    /// time per word compares runs that machine load would otherwise blur.
    pub keystream_words: u64,
}

impl SamplerCounters {
    /// Debug-checks the accounting invariants the Figure 5 reading depends
    /// on: a sample can be discarded at most once (`discarded <= sampled`),
    /// singletons are counted pre-elimination (`singletons <= sampled`),
    /// and — since elimination discards exactly the traversals that visited
    /// only their source — `discarded` is either zero (elimination off) or
    /// equal to `singletons`.
    #[inline]
    pub fn debug_check(&self, source_elim: bool) {
        debug_assert!(
            self.discarded <= self.sampled,
            "discarded {} > sampled {}",
            self.discarded,
            self.sampled
        );
        debug_assert!(
            self.singletons <= self.sampled,
            "singletons {} > sampled {}",
            self.singletons,
            self.sampled
        );
        if source_elim {
            debug_assert_eq!(
                self.discarded, self.singletons,
                "elimination must discard exactly the singleton traversals"
            );
        } else {
            debug_assert_eq!(self.discarded, 0, "no discards without elimination");
        }
    }

    pub(crate) fn add(&mut self, other: &SamplerCounters) {
        self.singletons += other.singletons;
        self.discarded += other.discarded;
        self.sampled += other.sampled;
        self.keystream_words += other.keystream_words;
    }
}

/// One batch's RRR sets in flat CSR-style storage: a shared element arena
/// plus per-sample offsets, with a kept/discarded flag per sample. Sample
/// `i` of the batch occupies `data[offsets[i]..offsets[i + 1]]`; discarded
/// samples (source elimination, §3.4) own an empty range. The layout is
/// canonical — built in sample-index order — so equality is byte equality
/// regardless of the grid that produced it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlatSampleSets {
    /// `len + 1` element offsets into `data`.
    offsets: Vec<usize>,
    /// All kept sets' elements, concatenated in sample order.
    data: Vec<VertexId>,
    /// Whether sample `i` was kept (false = discarded by elimination).
    kept: Vec<bool>,
}

impl FlatSampleSets {
    /// Number of samples in the batch (kept and discarded).
    pub fn len(&self) -> usize {
        self.kept.len()
    }

    /// Whether the batch holds no samples.
    pub fn is_empty(&self) -> bool {
        self.kept.is_empty()
    }

    /// Sample `i`'s sorted RRR set: `None` if elimination discarded it or
    /// `i` is out of range (bounds-checked like [`slice::get`]).
    pub fn get(&self, i: usize) -> Option<&[VertexId]> {
        (*self.kept.get(i)?).then(|| &self.data[self.offsets[i]..self.offsets[i + 1]])
    }

    /// Iterates samples in index order ([`FlatSampleSets::get`] per slot).
    pub fn iter(&self) -> impl Iterator<Item = Option<&[VertexId]>> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Total elements across all kept sets.
    pub fn total_elements(&self) -> usize {
        self.data.len()
    }

    /// The element arena: every kept set's members concatenated in sample
    /// order — exactly what a store appends, in append order.
    pub fn arena(&self) -> &[VertexId] {
        &self.data
    }

    /// Lengths of the kept sets in sample order (discarded slots skipped).
    pub fn kept_lens(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len())
            .filter(|&i| self.kept[i])
            .map(|i| self.offsets[i + 1] - self.offsets[i])
    }
}

/// Result of one batch launch.
pub struct SampleBatch {
    /// The batch's RRR sets, indexed by offset within the batch.
    pub sets: FlatSampleSets,
    /// Each sample's source vertex (its first RNG draw), by offset within
    /// the batch, kept or eliminated alike.
    pub sources: Vec<VertexId>,
    /// Per-vertex coverage histogram over the batch: `coverage[v]` counts
    /// the kept sets containing `v` — the batch's delta to the store's `C`
    /// array, aggregated during sampling so selection warm-starts its
    /// inverted index and CELF heap from ready-made counts.
    pub coverage: Vec<u32>,
    /// Launch timing.
    pub stats: LaunchStats,
    /// Outcome counters.
    pub counters: SamplerCounters,
}

/// One simulated block's share of the batch, by local (round-robin)
/// position: local position `p` holds global slot `block_id + p *
/// num_blocks`. Sets land in `data` in finish order; `spans[p]` locates
/// position `p`'s set.
struct BlockOutput {
    /// `(start, len)` of each local position's set in `data`.
    spans: Vec<(usize, usize)>,
    data: Vec<VertexId>,
    kept: Vec<bool>,
    sources: Vec<VertexId>,
    counters: SamplerCounters,
}

impl BlockOutput {
    fn new(local: usize) -> Self {
        Self {
            spans: vec![(0, 0); local],
            data: Vec::new(),
            kept: vec![false; local],
            sources: vec![0; local],
            counters: SamplerCounters::default(),
        }
    }

    /// Records `data[start..]` as local position `pos`'s set.
    fn record(&mut self, pos: usize, start: usize, kept: bool, source: VertexId) {
        self.spans[pos] = (start, self.data.len() - start);
        self.kept[pos] = kept;
        self.sources[pos] = source;
    }
}

/// One LT walk in flight: its sample's RNG stream, source, current vertex
/// and local position, the path so far, and the lane's bit in `M`.
struct LtLane {
    bit: u8,
    pos: usize,
    source: VertexId,
    u: VertexId,
    rng: ChaCha8Rng,
    path: Vec<VertexId>,
}

impl LtLane {
    /// Lane `l`. Its RNG is overwritten by the first [`LtLane::begin`].
    fn new(l: usize) -> Self {
        Self {
            bit: 1 << l,
            pos: 0,
            source: 0,
            u: 0,
            rng: sample_rng(0, 0),
            path: Vec::new(),
        }
    }

    /// Starts sample `idx` at local position `pos`: thread 0 draws the
    /// source and seeds the queue (Algorithm 2 lines 5–10).
    fn begin(
        &mut self,
        ctx: &mut BlockCtx,
        n: usize,
        seed: u64,
        idx: u64,
        pos: usize,
        visited: &mut [u8],
    ) {
        self.rng = sample_rng(seed, idx);
        self.source = self.rng.gen_range(0..n as VertexId);
        ctx.charge(Op::Rng, 1);
        ctx.charge(Op::GlobalAccess, 1);
        self.pos = pos;
        self.u = self.source;
        self.path.clear();
        self.path.push(self.source);
        visited[self.source as usize] |= self.bit;
    }

    /// One reverse step from the current vertex, charged as
    /// [`lt_traverse`] charges it. Returns `false` once the walk has ended:
    /// a dead end, no edge chosen, or a cycle closed.
    #[inline]
    fn step<G: DeviceGraph>(&mut self, ctx: &mut BlockCtx, graph: &G, visited: &mut [u8]) -> bool {
        let u = self.u;
        if graph.in_degree(u) == 0 {
            return false;
        }
        ctx.charge(Op::Rng, 1); // tau, shared across the warp
        let tau: f32 = self.rng.gen();
        let chosen = lt_step_lookup(ctx, graph, u, tau).map(|i| graph.in_neighbor(u, i));
        if let Some(v) = chosen {
            graph.prefetch_row(v);
        }
        match chosen {
            Some(v) if visited[v as usize] & self.bit == 0 => {
                visited[v as usize] |= self.bit;
                self.path.push(v);
                ctx.charge(Op::AtomicGlobal, 2);
                self.u = v;
                true
            }
            _ => false,
        }
    }
}

/// Host-side traversal scratch, one per rayon worker chunk: the visited
/// mask `M` (bit `l` for LT lane `l`, [`SOLO`] for single-walk paths; all
/// zero between blocks — Algorithm 2 line 27 restores it), the reference
/// path's queue, the LT lanes, and the edge-decode buffer for packed
/// graphs. Reused across every block the worker executes; the simulated
/// per-block memset of `M` is still charged per block.
struct SamplerScratch {
    visited: Vec<u8>,
    queue: Vec<VertexId>,
    lanes: [LtLane; LT_LANES],
    edges: EdgeScratch,
}

impl SamplerScratch {
    fn new(n: usize) -> Self {
        Self {
            visited: vec![0; n],
            queue: Vec::new(),
            lanes: std::array::from_fn(LtLane::new),
            edges: EdgeScratch::default(),
        }
    }
}

/// Samples RRR sets for indices `start..start + count` of run `seed` on
/// `device`, under `model` — the fused kernel. Grid size is `4x` the SM
/// count (persistent blocks, one warp each), with indices interleaved
/// across blocks — the paper's round-robin assignment.
///
/// Fails only when the device's fault plan schedules a transient launch
/// fault; sample content is untouched by retries (every set index owns a
/// deterministic RNG stream), so callers can simply re-invoke.
pub fn sample_batch<G: DeviceGraph>(
    device: &Device,
    graph: &G,
    model: DiffusionModel,
    seed: u64,
    start: u64,
    count: usize,
    source_elim: bool,
) -> Result<SampleBatch, SimFault> {
    launch_fused(device, graph, model, seed, count, source_elim, |j| {
        start + j as u64
    })
}

/// Samples RRR sets for an explicit list of logical `indices` of run `seed`
/// — the streaming resample kernel. Identical traversal, RNG streams, and
/// cost model to [`sample_batch`]; only the index assignment differs: block
/// `b` takes `indices[b]`, `indices[b + blocks]`, … round-robin, and the
/// merged batch is ordered by *position in `indices`* (slot `j` of the
/// result is sample `indices[j]`).
///
/// Because every set index owns a deterministic RNG stream, redrawing index
/// `i` here against a mutated graph yields exactly the set a cold batch run
/// would produce for `i` on that graph.
pub fn sample_indices<G: DeviceGraph>(
    device: &Device,
    graph: &G,
    model: DiffusionModel,
    seed: u64,
    indices: &[u64],
    source_elim: bool,
) -> Result<SampleBatch, SimFault> {
    launch_fused(
        device,
        graph,
        model,
        seed,
        indices.len(),
        source_elim,
        |j| indices[j],
    )
}

/// The fused kernel over `count` slots, slot `j` drawing logical sample
/// `index(j)`: the launch body [`sample_batch`] and [`sample_indices`]
/// share.
fn launch_fused<G: DeviceGraph>(
    device: &Device,
    graph: &G,
    model: DiffusionModel,
    seed: u64,
    count: usize,
    source_elim: bool,
    index: impl Fn(usize) -> u64 + Sync,
) -> Result<SampleBatch, SimFault> {
    let n = graph.n();
    let blocks = (device.spec().num_sms * 4).min(count.max(1));
    device.check_kernel_fault("eim_sample")?;
    let result = device.launch_with_scratch(
        "eim_sample",
        blocks,
        || SamplerScratch::new(n),
        |ctx, scratch| {
            let b = ctx.block_id();
            // Each block zeroes its own M (Algorithm 2): the simulated cost
            // is per block even though the host mask is a worker arena.
            ctx.charge_warp_sweep(n.div_ceil(32), ctx.spec().costs.global_access); // memset M
            let local = count.saturating_sub(b).div_ceil(blocks);
            let mut out = BlockOutput::new(local);
            let index_at = |p: usize| index(b + p * blocks);
            match model {
                DiffusionModel::IndependentCascade => {
                    for p in 0..local {
                        ic_sample_one(
                            ctx,
                            graph,
                            seed,
                            index_at(p),
                            p,
                            source_elim,
                            scratch,
                            &mut out,
                        );
                    }
                }
                DiffusionModel::LinearThreshold => lt_block(
                    ctx,
                    graph,
                    seed,
                    local,
                    index_at,
                    source_elim,
                    scratch,
                    &mut out,
                ),
            }
            out
        },
    );
    Ok(merge_blocks(result, blocks, count, n, source_elim))
}

/// The pre-fusion sampler: traverse into a scratch queue, sort, then copy
/// into the block output in a separate pass (charging the Q→R copy sweep
/// the fused kernel eliminates). Retained as the differential-testing
/// oracle — identical RNG consumption, [`FlatSampleSets`] bytes,
/// [`SamplerCounters`], and coverage histogram as [`sample_batch`].
pub fn sample_batch_reference<G: DeviceGraph>(
    device: &Device,
    graph: &G,
    model: DiffusionModel,
    seed: u64,
    start: u64,
    count: usize,
    source_elim: bool,
) -> Result<SampleBatch, SimFault> {
    let n = graph.n();
    let blocks = (device.spec().num_sms * 4).min(count.max(1));
    device.check_kernel_fault("eim_sample")?;
    let result = device.launch_with_scratch(
        "eim_sample",
        blocks,
        || SamplerScratch::new(n),
        |ctx, scratch| {
            let b = ctx.block_id();
            ctx.charge_warp_sweep(n.div_ceil(32), ctx.spec().costs.global_access); // memset M
            let local = count.saturating_sub(b).div_ceil(blocks);
            let mut out = BlockOutput::new(local);
            for p in 0..local {
                let idx = start + (b + p * blocks) as u64;
                let (source, words) = reference_sample_one(
                    ctx,
                    graph,
                    model,
                    seed,
                    idx,
                    &mut scratch.visited,
                    &mut scratch.queue,
                );
                let set = &scratch.queue;
                out.counters.sampled += 1;
                out.counters.keystream_words += words;
                if set.len() == 1 {
                    out.counters.singletons += 1;
                }
                // Copy Q into the block's flat output, applying source
                // elimination during the copy (§3.4): drop the source, and
                // discard samples that reduce to empty.
                let set_start = out.data.len();
                let kept = if source_elim {
                    if set.len() <= 1 {
                        debug_assert!(set.is_empty() || set[0] == source);
                        out.counters.discarded += 1;
                        false
                    } else {
                        for &v in set {
                            if v != source {
                                out.data.push(v);
                            }
                        }
                        debug_assert_eq!(
                            out.data.len() - set_start,
                            set.len() - 1,
                            "source must appear exactly once"
                        );
                        true
                    }
                } else {
                    out.data.extend_from_slice(set);
                    true
                };
                if kept {
                    let len = out.data.len() - set_start;
                    // The unfused kernel re-walks Q to write R.
                    ctx.charge_warp_sweep(len, ctx.spec().costs.global_access);
                    charge_publish(ctx, len);
                }
                out.record(p, set_start, kept, source);
            }
            out
        },
    );
    Ok(merge_blocks(result, blocks, count, n, source_elim))
}

/// Merges per-block outputs into the canonical sample-index order and
/// aggregates the batch coverage histogram. The round-robin deal is
/// invertible — global slot j lives in block j % blocks at local position
/// j / blocks — so one sizing pass plus one copy pass produces the
/// canonical layout with no per-set allocation. Shared by both sampler
/// paths, so their results are comparable field by field.
fn merge_blocks(
    result: eim_gpusim::LaunchResult<BlockOutput>,
    blocks: usize,
    count: usize,
    n: usize,
    source_elim: bool,
) -> SampleBatch {
    let mut counters = SamplerCounters::default();
    let mut lens = vec![0usize; count];
    let mut kept = vec![false; count];
    let mut sources = vec![0 as VertexId; count];
    for (b, block) in result.outputs.iter().enumerate() {
        block.counters.debug_check(source_elim);
        counters.add(&block.counters);
        for (p, &(_, len)) in block.spans.iter().enumerate() {
            let slot = b + p * blocks;
            lens[slot] = len;
            kept[slot] = block.kept[p];
            sources[slot] = block.sources[p];
        }
    }
    counters.debug_check(source_elim);
    let mut offsets = Vec::with_capacity(count + 1);
    let mut acc = 0usize;
    offsets.push(0);
    for &l in &lens {
        acc += l;
        offsets.push(acc);
    }
    let mut data = vec![0 as VertexId; acc];
    for (b, block) in result.outputs.iter().enumerate() {
        for (p, &(start, len)) in block.spans.iter().enumerate() {
            let slot = b + p * blocks;
            data[offsets[slot]..offsets[slot] + len]
                .copy_from_slice(&block.data[start..start + len]);
        }
    }
    // The batch's C deltas. On the device these land via the publish step's
    // scattered atomics while sets are still in flight; the host mirror
    // materializes them from the canonical arena so the histogram is
    // deterministic and grid-independent like the sets themselves.
    let mut coverage = vec![0u32; n];
    for &v in &data {
        coverage[v as usize] += 1;
    }
    SampleBatch {
        sets: FlatSampleSets {
            offsets,
            data,
            kept,
        },
        sources,
        stats: result.stats,
        counters,
        coverage,
    }
}

/// One fused IC sample at local position `pos`: traverse directly into the
/// block's output arena, then [`publish_set`] — a single pass over the
/// queue segment with no Q→R copy.
#[allow(clippy::too_many_arguments)]
fn ic_sample_one<G: DeviceGraph>(
    ctx: &mut BlockCtx,
    graph: &G,
    seed: u64,
    idx: u64,
    pos: usize,
    source_elim: bool,
    scratch: &mut SamplerScratch,
    out: &mut BlockOutput,
) {
    let mut rng = sample_rng(seed, idx);
    let source: VertexId = rng.gen_range(0..graph.n() as VertexId);
    // Thread 0 seeds the queue (Algorithm 2 lines 5–10).
    ctx.charge(Op::Rng, 1);
    ctx.charge(Op::GlobalAccess, 1);
    let set_start = out.data.len();
    out.data.push(source);
    scratch.visited[source as usize] |= SOLO;
    ic_traverse_fused(ctx, graph, &mut rng, scratch, &mut out.data, set_start);
    out.counters.keystream_words += rng.words_read();
    publish_set(
        ctx,
        out,
        &mut scratch.visited,
        SOLO,
        pos,
        set_start,
        source,
        source_elim,
    );
}

/// A block's LT samples, [`LT_LANES`] walks in flight: every live lane
/// takes one step per round, and a lane whose walk ended publishes its set
/// and starts the block's next local position. Each sample makes the same
/// charges as a walk run alone, so the block's totals match the
/// one-at-a-time order exactly.
#[allow(clippy::too_many_arguments)]
fn lt_block<G: DeviceGraph>(
    ctx: &mut BlockCtx,
    graph: &G,
    seed: u64,
    local: usize,
    index_at: impl Fn(usize) -> u64,
    source_elim: bool,
    scratch: &mut SamplerScratch,
    out: &mut BlockOutput,
) {
    let n = graph.n();
    let SamplerScratch { visited, lanes, .. } = scratch;
    let mut live = local.min(LT_LANES);
    for (p, lane) in lanes[..live].iter_mut().enumerate() {
        lane.begin(ctx, n, seed, index_at(p), p, visited);
    }
    let mut next = live;
    while live > 0 {
        let mut l = 0;
        while l < live {
            let lane = &mut lanes[l];
            if lane.step(ctx, graph, visited) {
                l += 1;
                continue;
            }
            let set_start = out.data.len();
            out.data.extend_from_slice(&lane.path);
            out.counters.keystream_words += lane.rng.words_read();
            publish_set(
                ctx,
                out,
                visited,
                lane.bit,
                lane.pos,
                set_start,
                lane.source,
                source_elim,
            );
            if next < local {
                lane.begin(ctx, n, seed, index_at(next), next, visited);
                next += 1;
                l += 1;
            } else {
                // Retire the lane; the last live one takes its place.
                live -= 1;
                lanes.swap(l, live);
            }
        }
    }
}

/// The fused epilogue of a finished set `out.data[set_start..]` drawn from
/// `source`: count it, sort it ascending in place (warp bitonic sort in
/// shared memory, so selection can binary-search), clear its `bit` in `M`
/// in one walk (Algorithm 2 line 27), delete the source in place under
/// elimination — the queue already IS R, so no filtered copy — then charge
/// the publish and record the set at local position `pos`.
#[allow(clippy::too_many_arguments)]
fn publish_set(
    ctx: &mut BlockCtx,
    out: &mut BlockOutput,
    visited: &mut [u8],
    bit: u8,
    pos: usize,
    set_start: usize,
    source: VertexId,
    source_elim: bool,
) {
    let q = out.data.len() - set_start;
    out.counters.sampled += 1;
    if q == 1 {
        out.counters.singletons += 1;
    }
    if q > 1 {
        charge_sort(ctx, q);
        out.data[set_start..].sort_unstable();
    }
    for &v in &out.data[set_start..] {
        visited[v as usize] &= !bit;
    }
    ctx.charge(Op::GlobalAccess, q as u64);
    let kept = if source_elim {
        if q <= 1 {
            out.counters.discarded += 1;
            out.data.truncate(set_start);
            false
        } else {
            let at = set_start
                + out.data[set_start..]
                    .binary_search(&source)
                    .expect("source must appear exactly once");
            out.data.copy_within(at + 1.., at);
            out.data.truncate(out.data.len() - 1);
            true
        }
    } else {
        true
    };
    if kept {
        charge_publish(ctx, out.data.len() - set_start);
    }
    out.record(pos, set_start, kept, source);
}

/// Traverses one RRR set into `queue` via the unfused per-edge float path,
/// leaving it sorted ascending, and returns the sample's source vertex and
/// the keystream words it drew. `visited` must be all-zero on entry and is
/// restored before returning.
fn reference_sample_one<G: DeviceGraph>(
    ctx: &mut BlockCtx,
    graph: &G,
    model: DiffusionModel,
    seed: u64,
    idx: u64,
    visited: &mut [u8],
    queue: &mut Vec<VertexId>,
) -> (VertexId, u64) {
    let mut rng = sample_rng(seed, idx);
    let n = graph.n();
    let source: VertexId = rng.gen_range(0..n as VertexId);
    // Thread 0 seeds the queue (Algorithm 2 lines 5–10).
    ctx.charge(Op::Rng, 1);
    ctx.charge(Op::GlobalAccess, 1);
    queue.clear();
    queue.push(source);
    visited[source as usize] = SOLO;
    match model {
        DiffusionModel::IndependentCascade => ic_traverse(ctx, graph, &mut rng, visited, queue),
        DiffusionModel::LinearThreshold => lt_traverse(ctx, graph, &mut rng, visited, queue),
    }
    let q = queue.len();
    if q > 1 {
        charge_sort(ctx, q);
        queue.sort_unstable();
    }
    // Reset M for the vertices we touched (Algorithm 2 line 27).
    for &v in queue.iter() {
        visited[v as usize] = 0;
    }
    ctx.charge(Op::GlobalAccess, q as u64);
    (source, rng.words_read())
}

/// Vectorized warp-wide probabilistic BFS (IC), fused variant: every
/// dequeued vertex's CSC neighbor slice is scanned in windows sized by the
/// RNG's buffered keystream, comparing raw 24-bit draws against the
/// precomputed integer thresholds — decision-identical to the float path
/// of [`ic_traverse`], word for word.
///
/// Each window is tested in one pass ([`accept_mask`]: one SIMD compare per
/// sixteen words where the CPU has AVX-512F), against the row's one shared
/// threshold or its per-edge ones, and only the accepted positions read
/// their neighbor and `M`, in ascending order and with the per-edge loop's
/// charges. Before a vertex is expanded, [`DeviceGraph::prefetch_queued`]
/// gets the queue behind it, so rows a few dequeues ahead are on their way
/// to the cache.
fn ic_traverse_fused<G: DeviceGraph>(
    ctx: &mut BlockCtx,
    graph: &G,
    rng: &mut ChaCha8Rng,
    scratch: &mut SamplerScratch,
    data: &mut Vec<VertexId>,
    set_start: usize,
) {
    let costs = *ctx.spec();
    let wave_cost = costs.costs.global_access + costs.costs.rng + costs.costs.alu;
    let mut head = set_start;
    while head < data.len() {
        let u = data[head];
        head += 1;
        graph.prefetch_queued(&data[head..]);
        ctx.charge(Op::GlobalAccess, 1); // Q.front() + head bump
        let (nbrs, thresholds) = graph.in_edges(u, &mut scratch.edges);
        let d = nbrs.len();
        ctx.charge_warp_sweep(d, wave_cost);
        let mut i = 0usize;
        while i < d {
            let words = rng.peek_words();
            let take = (d - i).min(words.len());
            // One keystream word per edge: edge `i + j` accepts iff bit `j`
            // is set, that is iff its 24-bit draw clears the threshold
            // (exactly `r <= p` in float form).
            let mut accepted = accept_mask(&words[..take], thresholds.window(i, take));
            rng.consume(take);
            while accepted != 0 {
                let v = nbrs[i + accepted.trailing_zeros() as usize];
                accepted &= accepted - 1;
                if scratch.visited[v as usize] == 0 {
                    // Mark in M, then atomically enqueue (§3.2).
                    scratch.visited[v as usize] = SOLO;
                    data.push(v);
                    ctx.charge(Op::AtomicGlobal, 2); // enqueue slot + tail bump
                }
            }
            i += take;
        }
    }
}

/// Warp-wide probabilistic BFS (IC), unfused reference: every dequeued
/// vertex's in-neighbor list is swept 32 lanes at a time; each lane draws a
/// uniform and activates its neighbor with probability `p_vu` (Algorithm 2
/// lines 11–20).
fn ic_traverse<G: DeviceGraph>(
    ctx: &mut BlockCtx,
    graph: &G,
    rng: &mut impl Rng,
    visited: &mut [u8],
    queue: &mut Vec<VertexId>,
) {
    let costs = *ctx.spec();
    let wave_cost = costs.costs.global_access + costs.costs.rng + costs.costs.alu;
    let mut head = 0usize;
    while head < queue.len() {
        let u = queue[head];
        head += 1;
        ctx.charge(Op::GlobalAccess, 1); // Q.front() + head bump
        let d = graph.in_degree(u);
        ctx.charge_warp_sweep(d, wave_cost);
        for i in 0..d {
            let v = graph.in_neighbor(u, i);
            let p = graph.in_weight(u, i);
            let r: f32 = rng.gen();
            if r <= p && visited[v as usize] == 0 {
                // Mark in M, then atomically enqueue (order matters; §3.2).
                visited[v as usize] = SOLO;
                queue.push(v);
                ctx.charge(Op::AtomicGlobal, 2); // enqueue slot + tail bump
            }
        }
    }
}

/// LT reverse walk, unfused reference: each step draws a threshold and
/// selects at most one in-neighbor via the warp shuffle prefix scan
/// (§3.3), costing `O(log d)` shuffle rounds per 32-lane wave instead of
/// `O(d)` serialized atomics — emulated weight by weight
/// ([`lt_step_scan`]). Walks the tail of `queue`.
fn lt_traverse<G: DeviceGraph>(
    ctx: &mut BlockCtx,
    graph: &G,
    rng: &mut impl Rng,
    visited: &mut [u8],
    queue: &mut Vec<VertexId>,
) {
    let mut u = *queue.last().expect("queue seeded with source");
    loop {
        if graph.in_degree(u) == 0 {
            break;
        }
        ctx.charge(Op::Rng, 1); // tau, shared across the warp
        let tau: f32 = rng.gen();
        match lt_step_scan(ctx, graph, u, tau).map(|i| graph.in_neighbor(u, i)) {
            Some(v) if visited[v as usize] == 0 => {
                visited[v as usize] = SOLO;
                queue.push(v);
                ctx.charge(Op::AtomicGlobal, 2);
                u = v;
            }
            _ => break,
        }
    }
}

/// The fused kernel's LT step: a lookup in `u`'s weight prefix sums that
/// starts at `⌊tau·d⌋` and gallops outward ([`DeviceGraph::lt_choose`]),
/// charged the waves the warp scan covers before the threshold falls —
/// through the chosen edge's wave, or all of them when no edge is chosen.
/// How the host finds the edge is emulation; the charge depends only on
/// which edge it is.
#[inline]
fn lt_step_lookup<G: DeviceGraph>(
    ctx: &mut BlockCtx,
    graph: &G,
    u: VertexId,
    tau: f32,
) -> Option<usize> {
    let chosen = graph.lt_choose(u, tau);
    let waves = chosen.map_or(graph.in_degree(u).div_ceil(WARP_SIZE), |i| {
        i / WARP_SIZE + 1
    });
    for _ in 0..waves {
        charge_lt_wave(ctx);
    }
    chosen
}

/// The reference LT step: the warp scan emulated weight by weight, charging
/// each wave as it starts ([`lt_crosses`] is the choice rule).
fn lt_step_scan<G: DeviceGraph>(
    ctx: &mut BlockCtx,
    graph: &G,
    u: VertexId,
    tau: f32,
) -> Option<usize> {
    let mut acc = 0.0f32;
    for i in 0..graph.in_degree(u) {
        if i % WARP_SIZE == 0 {
            charge_lt_wave(ctx);
        }
        let inclusive = acc + graph.in_weight(u, i);
        if lt_crosses(acc, inclusive, tau) {
            return Some(i);
        }
        acc = inclusive;
    }
    None
}

/// One 32-lane wave of the LT prefix scan: a coalesced weight load and a
/// shuffle scan.
fn charge_lt_wave(ctx: &mut BlockCtx) {
    ctx.charge(Op::GlobalAccess, 1);
    ctx.charge_shuffle_scan();
}

/// Charges the in-place ascending sort (warp bitonic sort in shared
/// memory): `q log^2 q` comparator stages over 32 lanes.
fn charge_sort(ctx: &mut BlockCtx, q: usize) {
    let lg = (usize::BITS - (q - 1).leading_zeros()) as u64;
    ctx.charge_cycles(
        (q as u64 * lg * lg).div_ceil(WARP_SIZE as u64) * ctx.spec().costs.shared_access,
    );
}

/// Charges publishing a finished set of `len` elements (Algorithm 2 lines
/// 21–28 minus the element copy, which the fused kernel does not perform):
/// the offset bump, the `O` write, and the in-flight per-vertex coverage
/// count updates.
fn charge_publish(ctx: &mut BlockCtx, len: usize) {
    ctx.charge(Op::AtomicGlobal, 1); // atomicAdd(offset, |R_i|)
    ctx.charge(Op::GlobalAccess, 1); // O[count + 1] write
    ctx.charge(Op::AtomicGlobal, len as u64); // C[v] updates (scattered)
    ctx.charge(Op::AtomicGlobal, 1); // count bump
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device_graph::{weight_threshold, PackedDeviceGraph, PlainDeviceGraph};
    use eim_bitpack::PackedCsc;
    use eim_gpusim::DeviceSpec;
    use eim_graph::{generators, Graph, WeightModel};

    fn device() -> Device {
        Device::new(DeviceSpec::test_small())
    }

    #[test]
    fn batch_produces_sorted_unique_sets_containing_structure() {
        let g = generators::rmat(
            200,
            1_200,
            generators::RmatParams::GRAPH500,
            WeightModel::WeightedCascade,
            5,
        );
        let dg = PlainDeviceGraph::new(&g);
        let d = device();
        let batch = sample_batch(
            &d,
            &dg,
            DiffusionModel::IndependentCascade,
            42,
            0,
            100,
            false,
        )
        .unwrap();
        assert_eq!(batch.sets.len(), 100);
        assert_eq!(batch.counters.sampled, 100);
        assert_eq!(batch.counters.discarded, 0);
        for set in batch.sets.iter() {
            let s = set.expect("no discards without elimination");
            assert!(!s.is_empty());
            assert!(s.windows(2).all(|w| w[0] < w[1]), "sorted unique");
            assert!(s.iter().all(|&v| (v as usize) < 200));
        }
        assert!(batch.stats.elapsed_us > 0.0);
    }

    #[test]
    fn deterministic_across_launches_and_grid_sizes() {
        let g = generators::rmat(
            150,
            900,
            generators::RmatParams::MILD,
            WeightModel::WeightedCascade,
            8,
        );
        let dg = PlainDeviceGraph::new(&g);
        let d1 = Device::new(DeviceSpec::test_small());
        let mut big = DeviceSpec::test_small();
        big.num_sms = 13; // different grid -> different block assignment
        let d2 = Device::new(big);
        let b1 = sample_batch(
            &d1,
            &dg,
            DiffusionModel::IndependentCascade,
            3,
            10,
            64,
            false,
        )
        .unwrap();
        let b2 = sample_batch(
            &d2,
            &dg,
            DiffusionModel::IndependentCascade,
            3,
            10,
            64,
            false,
        )
        .unwrap();
        assert_eq!(b1.sets, b2.sets, "content independent of grid layout");
        assert_eq!(b1.coverage, b2.coverage, "histogram independent of grid");
        let b3 = sample_batch(
            &d1,
            &dg,
            DiffusionModel::IndependentCascade,
            3,
            10,
            64,
            false,
        )
        .unwrap();
        assert_eq!(b1.sets, b3.sets);
        assert_eq!(b1.stats, b3.stats, "timing deterministic per device");
    }

    #[test]
    fn source_elimination_discards_singletons() {
        // In-star: every leaf's reverse BFS is a singleton.
        let g = generators::star_in(64, WeightModel::WeightedCascade);
        let dg = PlainDeviceGraph::new(&g);
        let d = device();
        let batch =
            sample_batch(&d, &dg, DiffusionModel::IndependentCascade, 1, 0, 200, true).unwrap();
        assert_eq!(batch.counters.sampled, 200);
        assert!(batch.counters.singletons > 150, "mostly singletons");
        assert_eq!(batch.counters.discarded, batch.counters.singletons);
        for (i, set) in batch.sets.iter().enumerate() {
            if let Some(s) = set {
                // Hub sets: source was the hub, members are leaves only.
                assert!(!s.is_empty(), "set {i} empty but kept");
            }
        }
    }

    #[test]
    fn elimination_removes_exactly_the_source() {
        let g = generators::path(20, WeightModel::WeightedCascade);
        let dg = PlainDeviceGraph::new(&g);
        let d = device();
        let with =
            sample_batch(&d, &dg, DiffusionModel::IndependentCascade, 9, 0, 50, false).unwrap();
        let without =
            sample_batch(&d, &dg, DiffusionModel::IndependentCascade, 9, 0, 50, true).unwrap();
        for (a, b) in with.sets.iter().zip(without.sets.iter()) {
            let a = a.unwrap();
            match b {
                Some(b) => {
                    assert_eq!(b.len(), a.len() - 1);
                    assert!(b.iter().all(|v| a.contains(v)));
                }
                None => assert_eq!(a.len(), 1),
            }
        }
    }

    #[test]
    fn ic_on_deterministic_path_reaches_all_ancestors() {
        let g = generators::path(30, WeightModel::WeightedCascade);
        let dg = PlainDeviceGraph::new(&g);
        let d = device();
        let batch =
            sample_batch(&d, &dg, DiffusionModel::IndependentCascade, 2, 0, 40, false).unwrap();
        for set in batch.sets.iter().map(|s| s.unwrap()) {
            // A set rooted at source s on the path must be exactly {0..=s}.
            let src = *set.last().unwrap();
            assert_eq!(set.len() as u32, src + 1);
            assert_eq!(set[0], 0);
        }
    }

    #[test]
    fn lt_sets_are_paths() {
        let g = generators::rmat(
            100,
            600,
            generators::RmatParams::MILD,
            WeightModel::WeightedCascade,
            4,
        );
        let dg = PlainDeviceGraph::new(&g);
        let d = device();
        let batch =
            sample_batch(&d, &dg, DiffusionModel::LinearThreshold, 6, 0, 80, false).unwrap();
        for set in batch.sets.iter().map(|s| s.unwrap()) {
            assert!(!set.is_empty());
            assert!(set.windows(2).all(|w| w[0] < w[1]));
        }
        assert!(batch.counters.sampled == 80);
    }

    #[test]
    fn lt_walk_terminates_on_cycle() {
        let g = generators::cycle(8, WeightModel::WeightedCascade);
        let dg = PlainDeviceGraph::new(&g);
        let d = device();
        let batch =
            sample_batch(&d, &dg, DiffusionModel::LinearThreshold, 7, 0, 10, false).unwrap();
        for set in batch.sets.iter().map(|s| s.unwrap()) {
            assert_eq!(set.len(), 8, "full lap then stop");
        }
    }

    #[test]
    fn load_imbalance_is_visible_in_stats() {
        // Heavy-tailed graph: some traversals are long -> max block cycles
        // well above the mean.
        let g = generators::barabasi_albert(500, 4, WeightModel::WeightedCascade, 3);
        let dg = PlainDeviceGraph::new(&g);
        let d = device();
        let batch = sample_batch(
            &d,
            &dg,
            DiffusionModel::IndependentCascade,
            11,
            0,
            64,
            false,
        )
        .unwrap();
        let mean = batch.stats.total_cycles / batch.stats.num_blocks.max(1) as u64;
        assert!(batch.stats.max_block_cycles >= mean);
    }

    #[test]
    fn get_is_bounds_checked() {
        let g = generators::path(10, WeightModel::WeightedCascade);
        let dg = PlainDeviceGraph::new(&g);
        let d = device();
        let batch =
            sample_batch(&d, &dg, DiffusionModel::IndependentCascade, 1, 0, 5, false).unwrap();
        let len = batch.sets.len();
        assert_eq!(len, 5);
        assert!(batch.sets.get(len - 1).is_some());
        assert!(batch.sets.get(len).is_none(), "index == len");
        assert!(batch.sets.get(len + 1).is_none(), "index == len + 1");
        let empty =
            sample_batch(&d, &dg, DiffusionModel::IndependentCascade, 1, 0, 0, false).unwrap();
        assert!(empty.sets.is_empty());
        assert!(empty.sets.get(0).is_none(), "empty batch");
        assert!(empty.sets.get(1).is_none());
    }

    #[test]
    fn coverage_histogram_matches_kept_sets() {
        let g = generators::rmat(
            180,
            1_100,
            generators::RmatParams::GRAPH500,
            WeightModel::WeightedCascade,
            12,
        );
        let dg = PlainDeviceGraph::new(&g);
        let d = device();
        for elim in [false, true] {
            let batch = sample_batch(
                &d,
                &dg,
                DiffusionModel::IndependentCascade,
                21,
                0,
                150,
                elim,
            )
            .unwrap();
            let mut expect = vec![0u32; 180];
            for set in batch.sets.iter().flatten() {
                for &v in set {
                    expect[v as usize] += 1;
                }
            }
            assert_eq!(batch.coverage, expect);
            let total: u32 = batch.coverage.iter().sum();
            assert_eq!(total as usize, batch.sets.total_elements());
        }
    }

    #[test]
    fn arena_and_kept_lens_describe_the_layout() {
        let g = generators::rmat(
            120,
            700,
            generators::RmatParams::GRAPH500,
            WeightModel::WeightedCascade,
            6,
        );
        let dg = PlainDeviceGraph::new(&g);
        let d = device();
        let batch =
            sample_batch(&d, &dg, DiffusionModel::IndependentCascade, 4, 0, 90, true).unwrap();
        let lens: Vec<usize> = batch.sets.kept_lens().collect();
        assert_eq!(lens.iter().sum::<usize>(), batch.sets.arena().len());
        let mut cursor = 0usize;
        let mut li = 0usize;
        for set in batch.sets.iter().flatten() {
            assert_eq!(set.len(), lens[li]);
            assert_eq!(set, &batch.sets.arena()[cursor..cursor + set.len()]);
            cursor += set.len();
            li += 1;
        }
        assert_eq!(li, lens.len());
    }

    // ---- fused vs reference differential suite ------------------------

    fn assert_batches_identical(a: &SampleBatch, b: &SampleBatch, what: &str) {
        assert_eq!(a.sets, b.sets, "{what}: FlatSampleSets bytes differ");
        assert_eq!(a.sources, b.sources, "{what}: sources differ");
        assert_eq!(a.counters, b.counters, "{what}: counters differ");
        assert_eq!(a.coverage, b.coverage, "{what}: coverage differs");
    }

    fn graphs_under_test() -> Vec<(&'static str, Graph)> {
        vec![
            (
                "rmat",
                generators::rmat(
                    300,
                    2_000,
                    generators::RmatParams::GRAPH500,
                    WeightModel::WeightedCascade,
                    17,
                ),
            ),
            (
                "ba",
                generators::barabasi_albert(250, 4, WeightModel::WeightedCascade, 5),
            ),
            (
                "star",
                generators::star_in(80, WeightModel::WeightedCascade),
            ),
            ("path", generators::path(40, WeightModel::WeightedCascade)),
            ("cycle", generators::cycle(12, WeightModel::WeightedCascade)),
            (
                "trivalency",
                generators::rmat(
                    200,
                    1_400,
                    generators::RmatParams::MILD,
                    WeightModel::Trivalency,
                    23,
                ),
            ),
        ]
    }

    /// Fused vs reference on one view: sets, counters, coverage, and
    /// simulated cycles. The reference charges everything the fused kernel
    /// does (its LT step scans weight by weight, charging each wave as it
    /// starts) plus the Q→R copy sweep of every kept set.
    fn assert_fused_matches_reference<G: DeviceGraph>(d: &Device, dg: &G, name: &str) {
        for model in [
            DiffusionModel::IndependentCascade,
            DiffusionModel::LinearThreshold,
        ] {
            assert_runs_match_reference(
                d,
                dg,
                model,
                &[(3, 0, 120), (91, 57, 64), (7, 5, 1)],
                name,
            );
        }
    }

    /// [`assert_fused_matches_reference`] for one model over `(seed, start,
    /// count)` batches, elimination off and on. Returns the fused batches'
    /// launch stats in run order.
    fn assert_runs_match_reference<G: DeviceGraph>(
        d: &Device,
        dg: &G,
        model: DiffusionModel,
        runs: &[(u64, u64, usize)],
        name: &str,
    ) -> Vec<LaunchStats> {
        let mut stats = Vec::new();
        for elim in [false, true] {
            for &(seed, start, count) in runs {
                let what = format!("{name}/{model:?}/elim={elim}/seed={seed}");
                let fused = sample_batch(d, dg, model, seed, start, count, elim).unwrap();
                let reference =
                    sample_batch_reference(d, dg, model, seed, start, count, elim).unwrap();
                assert_batches_identical(&fused, &reference, &what);
                // The Q→R copy sweep costs cycles but counts no operation.
                assert_eq!(fused.stats.ops, reference.stats.ops, "{what}: ops differ");
                assert_eq!(
                    fused.stats.total_cycles + copy_sweep_cycles(d, &reference),
                    reference.stats.total_cycles,
                    "{what}: cycles differ"
                );
                stats.push(fused.stats);
            }
        }
        stats
    }

    /// A graph whose in-degrees cycle through the values around the fused IC
    /// scan's 8- and 16-word compares and the RNG's 128-word windows, and whose
    /// weights mix 0.0 (threshold 0) and 1.0 (threshold 2^24) into small
    /// ordinary ones. Acceptances stay sparse, so a set depends on nearly
    /// every accepted edge.
    fn chunk_edge_graph() -> Graph {
        use eim_graph::Adjacency;
        use rand::SeedableRng;
        const DEGREES: [usize; 17] = [
            0, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 127, 128, 129, 255, 256, 257,
        ];
        let n = 700u32;
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let mut pool: Vec<VertexId> = (0..n).collect();
        let rows = (0..n)
            .map(|v| {
                let d = DEGREES[v as usize % DEGREES.len()];
                // A partial shuffle draws `d` distinct in-neighbors.
                for i in 0..d {
                    pool.swap(i, rng.gen_range(i..n as usize));
                }
                let mut nbrs = pool[..d].to_vec();
                nbrs.sort_unstable();
                let weights = (0..d)
                    .map(|_| match rng.gen_range(0..256) {
                        0..=1 => 1.0,
                        2..=33 => 0.0,
                        _ => 0.3 / d as f32,
                    })
                    .collect();
                (nbrs, weights)
            })
            .collect();
        Graph::from_csc(Adjacency::from_rows(rows))
    }

    /// The chunked IC scan against the per-edge reference on rows that end
    /// on, just before and just after chunk and refill edges, on both views
    /// with elimination off and on; the views also agree on every launch
    /// stat.
    #[test]
    fn fused_ic_scan_matches_reference_at_chunk_edges() {
        let g = chunk_edge_graph();
        let w = g.csc().weights();
        assert!(w.contains(&0.0) && w.contains(&1.0));
        assert_eq!((weight_threshold(0.0), weight_threshold(1.0)), (0, 1 << 24));
        let d = device();
        let ic = DiffusionModel::IndependentCascade;
        let runs = [(3u64, 0u64, 400usize), (91, 1_000, 257), (7, 5, 1)];
        let plain = assert_runs_match_reference(&d, &PlainDeviceGraph::new(&g), ic, &runs, "plain");
        let packed = assert_runs_match_reference(
            &d,
            &PackedDeviceGraph::from_graph(&g),
            ic,
            &runs,
            "packed",
        );
        assert_eq!(plain, packed, "plain vs packed launch stats");
    }

    #[test]
    fn fused_matches_reference_across_graphs_models_and_flags() {
        let d = device();
        for (name, g) in graphs_under_test() {
            let plain = PlainDeviceGraph::new(&g);
            assert_fused_matches_reference(&d, &plain, &format!("{name}/plain"));
            let packed = PackedDeviceGraph::new(PackedCsc::from_graph(&g));
            assert_fused_matches_reference(&d, &packed, &format!("{name}/packed"));
            // Row-derived 1/d weights: the prefix pass sums the constant.
            let derived = PackedDeviceGraph::new(PackedCsc::from_graph_derived(&g));
            assert_fused_matches_reference(&d, &derived, &format!("{name}/derived"));
            // No prefix table: the default per-weight `lt_choose`.
            let raw = PackedCsc::from_graph(&g);
            assert_fused_matches_reference(&d, &raw, &format!("{name}/raw-packed"));
        }
    }

    #[test]
    fn fused_matches_reference_on_packed_graph() {
        let g = generators::rmat(
            400,
            2_400,
            generators::RmatParams::GRAPH500,
            WeightModel::WeightedCascade,
            31,
        );
        let packed = PackedCsc::from_graph(&g);
        let d = device();
        for elim in [false, true] {
            let fused = sample_batch(
                &d,
                &packed,
                DiffusionModel::IndependentCascade,
                13,
                0,
                150,
                elim,
            )
            .unwrap();
            let reference = sample_batch_reference(
                &d,
                &packed,
                DiffusionModel::IndependentCascade,
                13,
                0,
                150,
                elim,
            )
            .unwrap();
            assert_batches_identical(&fused, &reference, &format!("packed/elim={elim}"));
            // And the packed view agrees with the plain view on content.
            let dg = PlainDeviceGraph::new(&g);
            let plain = sample_batch(
                &d,
                &dg,
                DiffusionModel::IndependentCascade,
                13,
                0,
                150,
                elim,
            )
            .unwrap();
            assert_eq!(fused.sets, plain.sets, "packed vs plain content");
        }
    }

    #[test]
    fn fused_results_independent_of_rayon_pool_size() {
        let g = generators::rmat(
            250,
            1_500,
            generators::RmatParams::GRAPH500,
            WeightModel::WeightedCascade,
            41,
        );
        let dg = PlainDeviceGraph::new(&g);
        let run = || {
            let d = device();
            let b =
                sample_batch(&d, &dg, DiffusionModel::IndependentCascade, 5, 0, 130, true).unwrap();
            (b.sets, b.coverage, b.counters, b.stats)
        };
        let baseline = run();
        for threads in [1usize, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let pooled = pool.install(run);
            assert_eq!(baseline.0, pooled.0, "{threads}-thread sets");
            assert_eq!(baseline.1, pooled.1, "{threads}-thread coverage");
            assert_eq!(baseline.2, pooled.2, "{threads}-thread counters");
            assert_eq!(baseline.3, pooled.3, "{threads}-thread stats");
        }
    }

    #[test]
    fn faulted_launch_replays_to_identical_batch() {
        use eim_gpusim::{FaultPlan, FaultSpec};
        use std::sync::Arc;
        let g = generators::rmat(
            200,
            1_200,
            generators::RmatParams::GRAPH500,
            WeightModel::WeightedCascade,
            19,
        );
        let dg = PlainDeviceGraph::new(&g);
        let clean = sample_batch(
            &device(),
            &dg,
            DiffusionModel::IndependentCascade,
            29,
            0,
            100,
            true,
        )
        .unwrap();
        let spec = FaultSpec {
            seed: 77,
            kernel_fault_prob: 0.6,
            ..FaultSpec::default()
        };
        let faulty =
            Device::new(DeviceSpec::test_small()).with_fault_plan(Arc::new(FaultPlan::new(spec)));
        let mut faults = 0usize;
        let replayed = loop {
            match sample_batch(
                &faulty,
                &dg,
                DiffusionModel::IndependentCascade,
                29,
                0,
                100,
                true,
            ) {
                Ok(b) => break b,
                Err(_) => {
                    faults += 1;
                    assert!(faults < 64, "fault schedule never clears");
                }
            }
        };
        assert!(faults > 0, "fault plan scheduled no faults");
        assert_batches_identical(&clean, &replayed, "replay after faults");
    }

    #[test]
    fn fused_charges_strictly_less_than_reference() {
        // The fused kernel drops the Q->R copy sweep; everything else is
        // charged identically, so its cycle total must be strictly lower on
        // any batch that keeps at least one set.
        let g = generators::rmat(
            220,
            1_300,
            generators::RmatParams::GRAPH500,
            WeightModel::WeightedCascade,
            3,
        );
        let dg = PlainDeviceGraph::new(&g);
        let d = device();
        let fused =
            sample_batch(&d, &dg, DiffusionModel::IndependentCascade, 8, 0, 80, false).unwrap();
        let reference =
            sample_batch_reference(&d, &dg, DiffusionModel::IndependentCascade, 8, 0, 80, false)
                .unwrap();
        assert!(
            fused.stats.total_cycles < reference.stats.total_cycles,
            "fused {} vs reference {}",
            fused.stats.total_cycles,
            reference.stats.total_cycles
        );
        assert_eq!(fused.sets, reference.sets);
    }

    // ---- LT walks in flight: lane refill -------------------------------

    /// Everything a batch reports, for equality across thread counts.
    type Fingerprint = (
        FlatSampleSets,
        Vec<VertexId>,
        Vec<u32>,
        SamplerCounters,
        LaunchStats,
    );

    fn fingerprint(b: SampleBatch) -> Fingerprint {
        (b.sets, b.sources, b.coverage, b.counters, b.stats)
    }

    /// Both fused entry points under LT: the batch of slots `100..` and the
    /// redraw of `indices`.
    fn lt_fused_runs<G: DeviceGraph>(
        d: &Device,
        dg: &G,
        indices: &[u64],
        elim: bool,
    ) -> (SampleBatch, SampleBatch) {
        let lt = DiffusionModel::LinearThreshold;
        (
            sample_batch(d, dg, lt, 5, 100, indices.len(), elim).unwrap(),
            sample_indices(d, dg, lt, 5, indices, elim).unwrap(),
        )
    }

    /// The Q→R copy sweeps the reference charges on top of the fused kernel.
    fn copy_sweep_cycles(d: &Device, reference: &SampleBatch) -> u64 {
        let sweeps: u64 = reference
            .sets
            .iter()
            .flatten()
            .map(|set| set.len().div_ceil(WARP_SIZE) as u64)
            .sum();
        sweeps * d.spec().costs.global_access
    }

    /// Each walk in flight lands in its own slot with the set, source,
    /// counters and charges it gets alone on the reference path: the batch
    /// against the reference batch, and every redrawn index against a
    /// one-sample reference launch of that index.
    fn assert_lanes_match_reference<G: DeviceGraph>(
        d: &Device,
        dg: &G,
        indices: &[u64],
        elim: bool,
        what: &str,
    ) {
        let lt = DiffusionModel::LinearThreshold;
        let (batch, redraw) = lt_fused_runs(d, dg, indices, elim);
        let reference = sample_batch_reference(d, dg, lt, 5, 100, indices.len(), elim).unwrap();
        assert_batches_identical(&batch, &reference, &format!("{what}/batch"));
        assert_eq!(batch.sources, reference.sources, "{what}/batch: sources");
        assert_eq!(
            batch.stats.total_cycles + copy_sweep_cycles(d, &reference),
            reference.stats.total_cycles,
            "{what}/batch: cycles"
        );

        // A zero-sample launch charges one block's memset of M and nothing
        // else.
        let memset = sample_batch_reference(d, dg, lt, 5, 0, 0, elim)
            .unwrap()
            .stats
            .total_cycles;
        let mut counters = SamplerCounters::default();
        let mut coverage = vec![0u32; dg.n()];
        let mut sample_cycles = 0u64;
        for (j, &idx) in indices.iter().enumerate() {
            let one = sample_batch_reference(d, dg, lt, 5, idx, 1, elim).unwrap();
            assert_eq!(
                redraw.sets.get(j),
                one.sets.get(0),
                "{what}/indices: slot {j}"
            );
            assert_eq!(
                redraw.sources[j], one.sources[0],
                "{what}/indices: source {j}"
            );
            counters.add(&one.counters);
            for (c, k) in coverage.iter_mut().zip(&one.coverage) {
                *c += k;
            }
            sample_cycles += one.stats.total_cycles - memset - copy_sweep_cycles(d, &one);
        }
        assert_eq!(redraw.counters, counters, "{what}/indices: counters");
        assert_eq!(redraw.coverage, coverage, "{what}/indices: coverage");
        assert_eq!(
            redraw.stats.total_cycles,
            redraw.stats.num_blocks as u64 * memset + sample_cycles,
            "{what}/indices: cycles"
        );
    }

    #[test]
    fn lt_lane_refill_matches_reference_and_thread_counts() {
        // `3 * LT_LANES + 5` samples per block: every lane of every block
        // refills at least three times, and blocks end with lanes retiring
        // out of order.
        let d = device();
        let count = d.spec().num_sms * 4 * (3 * LT_LANES + 5);
        // Scattered logical indices with a repeat, as a streaming redraw
        // hands them over.
        let mut indices: Vec<u64> = (0..count as u64).map(|i| i * 7_919 % 1_000_003).collect();
        indices[count - 1] = indices[2];
        let pools = [1usize, 4].map(|threads| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
        });
        for (name, g) in graphs_under_test() {
            let plain = PlainDeviceGraph::new(&g);
            let packed = PackedDeviceGraph::from_graph(&g);
            for elim in [false, true] {
                let what = format!("{name}/elim={elim}");
                assert_lanes_match_reference(&d, &plain, &indices, elim, &format!("{what}/plain"));
                assert_lanes_match_reference(
                    &d,
                    &packed,
                    &indices,
                    elim,
                    &format!("{what}/packed"),
                );
                let [one, four] = pools.each_ref().map(|pool| {
                    pool.install(|| {
                        let (batch, redraw) = lt_fused_runs(&d, &packed, &indices, elim);
                        (fingerprint(batch), fingerprint(redraw))
                    })
                });
                assert!(one == four, "{what}: 1 vs 4 rayon threads");
            }
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            #[test]
            fn counter_invariants_hold_on_random_graphs(
                gseed in 2usize..12,
                seed in 0u64..1 << 20,
                count in 1usize..96,
                elim in any::<bool>(),
            ) {
                let g = generators::rmat(
                    60 + gseed * 13,
                    400 + gseed * 80,
                    generators::RmatParams::GRAPH500,
                    WeightModel::WeightedCascade,
                    gseed as u64,
                );
                let dg = PlainDeviceGraph::new(&g);
                let d = device();
                let batch = sample_batch(
                    &d,
                    &dg,
                    DiffusionModel::IndependentCascade,
                    seed,
                    0,
                    count,
                    elim,
                )
                .unwrap();
                // Release-mode re-statement of SamplerCounters::debug_check.
                prop_assert_eq!(batch.counters.sampled, count);
                prop_assert!(batch.counters.discarded <= batch.counters.sampled);
                prop_assert!(batch.counters.singletons <= batch.counters.sampled);
                if elim {
                    prop_assert_eq!(batch.counters.discarded, batch.counters.singletons);
                } else {
                    prop_assert_eq!(batch.counters.discarded, 0);
                }
                // Singletons are a pre-elimination count: recompute them
                // from an elimination-off run of the same indices.
                let pre = sample_batch(
                    &d,
                    &dg,
                    DiffusionModel::IndependentCascade,
                    seed,
                    0,
                    count,
                    false,
                )
                .unwrap();
                let pre_singletons = pre
                    .sets
                    .iter()
                    .filter(|s| s.is_some_and(|s| s.len() == 1))
                    .count();
                prop_assert_eq!(batch.counters.singletons, pre_singletons);
                // Differential check rides along on every case.
                let reference = sample_batch_reference(
                    &d,
                    &dg,
                    DiffusionModel::IndependentCascade,
                    seed,
                    0,
                    count,
                    elim,
                )
                .unwrap();
                prop_assert_eq!(&batch.sets, &reference.sets);
                prop_assert_eq!(batch.counters, reference.counters);
            }
        }
    }
}
