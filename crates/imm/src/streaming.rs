//! Streaming IMM: incremental RRR maintenance under edge updates.
//!
//! Every engine in the workspace samples set `i` from an RNG stream that is
//! a pure function of `(config.seed, i)` — the invariant the replay and
//! checkpoint machinery already rely on. Streaming exploits it harder: when
//! the graph mutates, a sample changes **iff its traversal crossed a changed
//! in-row**, and reverse-influence traversals scan the full in-row of every
//! vertex they visit. So sample `i` must be redrawn after a batch of edge
//! updates exactly when some changed head `v` (a vertex whose in-row
//! changed) lies in `i`'s *footprint* — the visited-vertex set the sampler
//! produced, which is the stored RRR content plus the source under source
//! elimination. Samples whose footprints miss every changed row are
//! untouched byte for byte, because their `(seed, i)` streams replay the
//! same draws against identical rows.
//!
//! [`StreamingImmEngine`] maintains, across a [`GraphDelta`] stream:
//!
//! * the RRR store (plain or packed) with slot = sample index, patched in
//!   place via the backends' `patch_sets`; eliminated slots are stored
//!   empty, so the store holds exactly the kept content;
//! * the per-slot source of every sample;
//! * one `InvertedIndex` of that store — the same index every cold engine
//!   selects over — rebuilt whenever the store changes.
//!
//! The index serves invalidation and selection alike. A footprint is its
//! stored set plus, under source elimination, its source; so the slots a
//! batch invalidates are the index runs of its changed heads plus the slots
//! whose source is a changed head. The greedy core behind
//! [`crate::select_seeds`] reads the index runs below the cutoff without
//! decoding a single stored set.
//!
//! The host cost of an update is the redraw plus an index rebuild, a
//! sequential pass over the store, after the patch and again whenever the
//! replay extends the sample universe. Patching only the touched postings
//! would save little: a batch of a few hundred edges already touches most
//! of the postings entries, through the hubs every traversal crosses. The store
//! takes the new contents as one element arena plus lengths; the packed
//! store rebuilds its bit stream from the first patched set, copying each
//! unpatched run with a word-level shifted copy and encoding only the
//! patched sets.
//!
//! After patching, [`crate::run_imm`] drives the engine over the cutoff.
//! The engine is an [`ImmEngine`] whose logical prefix is the cutoff:
//! `extend_to` raises it (drawing slots only past those already
//! materialized) and `select` runs over the slots below it, which is the
//! prefix each estimation iteration of a cold run would have seen. The
//! store only grows when the mutated graph's coverage demands more samples
//! than any earlier run drew. The correctness bar is differential: at every
//! update checkpoint, seeds are byte-identical to a cold full recompute on
//! the mutated graph (`tests/streaming_updates.rs` enforces this across
//! engines, store backends, and thread pools).

use std::path::{Path, PathBuf};

use rand::Rng;
use rayon::prelude::*;

use eim_diffusion::{sample_rng, sample_rrr, DiffusionModel};
use eim_graph::{Graph, GraphDelta, VertexId, WeightModel};
use eim_trace::MetricsSink;

use crate::checkpoint::{run_fingerprint, store_digest};
use crate::config::ImmConfig;
use crate::martingale::{run_imm, EngineError, ImmEngine};
use crate::rrrstore::{AnyRrrStore, RrrSets, RrrStoreBuilder};
use crate::selection::{greedy_cover, InvertedIndex, Selection};

/// Draws RRR samples for explicit `(seed, index)` slots against the current
/// graph. Implementations must return, per index, the source vertex and the
/// full pre-elimination visited footprint (sorted ascending, containing the
/// source) — identical content to what every batch engine stores for the
/// same index, which is what makes incremental seeds match cold engines.
pub trait Resampler {
    /// Label folded into the stream fingerprint.
    fn name(&self) -> &'static str;

    /// The graph mutated; `changed_heads` are the vertices whose in-rows
    /// changed. Device-side implementations refresh their packed rows and
    /// weight thresholds here.
    fn graph_changed(
        &mut self,
        graph: &Graph,
        changed_heads: &[VertexId],
    ) -> Result<(), EngineError>;

    /// Samples the given logical indices against the current graph.
    fn sample(
        &mut self,
        graph: &Graph,
        indices: &[u64],
    ) -> Result<Vec<(VertexId, Vec<VertexId>)>, EngineError>;
}

/// Host (rayon) resampler: the CPU reference sampler, one deterministic
/// RNG stream per index.
pub struct HostResampler {
    model: DiffusionModel,
    seed: u64,
}

impl HostResampler {
    /// A resampler drawing under `model` from run seed `seed`.
    pub fn new(model: DiffusionModel, seed: u64) -> Self {
        Self { model, seed }
    }
}

impl Resampler for HostResampler {
    fn name(&self) -> &'static str {
        "host"
    }

    fn graph_changed(&mut self, _graph: &Graph, _heads: &[VertexId]) -> Result<(), EngineError> {
        Ok(()) // samples read the graph directly; nothing cached
    }

    fn sample(
        &mut self,
        graph: &Graph,
        indices: &[u64],
    ) -> Result<Vec<(VertexId, Vec<VertexId>)>, EngineError> {
        let n = graph.num_vertices() as u32;
        Ok(indices
            .par_iter()
            .map(|&i| {
                let mut rng = sample_rng(self.seed, i);
                let source: VertexId = rng.gen_range(0..n);
                (source, sample_rrr(graph, self.model, source, &mut rng))
            })
            .collect())
    }
}

/// The martingale run's outcome at one update checkpoint.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamRunResult {
    /// The seed set, in selection order — byte-identical to a cold run on
    /// the current graph.
    pub seeds: Vec<VertexId>,
    /// Final coverage fraction over the selected prefix.
    pub coverage: f64,
    /// Kept (non-eliminated) sets in the selected prefix — what a cold
    /// engine's store would hold.
    pub num_sets: usize,
    /// Logical samples the final selection ranged over.
    pub cutoff: usize,
    /// The theoretical requirement `ceil(lambda* / LB)`.
    pub theta: usize,
    /// The coverage lower bound the estimation phase produced.
    pub lower_bound: f64,
}

/// What one [`StreamingImmEngine::apply_update`] did.
#[derive(Clone, Debug)]
pub struct UpdateReport {
    /// 1-based position of this batch in the stream.
    pub batch: u64,
    /// Heads whose in-rows actually changed (net effect).
    pub changed_heads: usize,
    /// Slots the invalidation index marked stale — exactly the slots
    /// redrawn. Sorted ascending.
    pub resampled_slots: Vec<u32>,
    /// Fresh slots appended because the run needed more samples than any
    /// earlier run had drawn.
    pub fresh_slots: usize,
    /// Stored sets the update's index rebuilds read: every materialized
    /// slot, once per rebuild (after the patch, and after each extension of
    /// the sample universe). Zero for a batch that redraws nothing.
    pub decoded_sets: usize,
    /// Logical slots materialized after the update (including fresh ones).
    pub slots: usize,
    /// The run at this checkpoint.
    pub result: StreamRunResult,
}

impl UpdateReport {
    /// Fraction of the pre-extension sample universe this update redrew —
    /// the headline streaming win when it stays well below 1.
    pub fn resampled_fraction(&self) -> f64 {
        let base = self.slots - self.fresh_slots;
        if base == 0 {
            0.0
        } else {
            self.resampled_slots.len() as f64 / base as f64
        }
    }

    /// Counts this batch in the `eim_stream_*` counters of `metrics`.
    pub fn record_metrics(&self, metrics: &MetricsSink) {
        metrics.counter_add("eim_stream_batches_total", &[], 1);
        metrics.counter_add(
            "eim_stream_changed_heads_total",
            &[],
            self.changed_heads as u64,
        );
        metrics.counter_add(
            "eim_stream_invalidated_slots_total",
            &[],
            self.resampled_slots.len() as u64,
        );
        metrics.counter_add("eim_stream_fresh_sets_total", &[], self.fresh_slots as u64);
    }
}

/// Discriminant of a weight model, with any model parameters folded in, so
/// the fingerprint separates every distinct update-weight semantics.
fn weight_model_tag(model: WeightModel) -> u64 {
    match model {
        WeightModel::WeightedCascade => 1,
        WeightModel::Uniform(p) => 2 ^ (p as f64).to_bits().rotate_left(16),
        WeightModel::Trivalency => 3,
        WeightModel::Random => 4,
        WeightModel::Preserve => 5,
    }
}

/// Incremental IMM over an edge-update stream. See the module docs for the
/// invalidation model; construction wires a graph, a config, the weight
/// model driving update-time weight assignment, and a [`Resampler`].
pub struct StreamingImmEngine<R: Resampler> {
    graph: Graph,
    config: ImmConfig,
    weight_model: WeightModel,
    weight_seed: u64,
    resampler: R,
    /// Slot `i` holds sample `i`'s *stored* content (post-elimination);
    /// eliminated slots hold the empty set, and only they do.
    store: AnyRrrStore,
    /// Per-slot source vertex (sample `i`'s first RNG draw).
    sources: Vec<VertexId>,
    /// Inverted index of `store`, rebuilt whenever the store changes.
    index: InvertedIndex,
    /// Stored sets read by every index rebuild so far.
    indexed_sets: usize,
    /// Logical samples the driver counts: selection runs over the slots
    /// below it.
    cutoff: usize,
    /// The last selection and its `(cutoff, k)`. It is a pure function of
    /// those over an unchanged index, so a repeated `select` reuses it.
    selection: Option<((usize, usize), Selection)>,
    /// Update batches applied so far.
    delta_cursor: u64,
    /// The most recent run, reused verbatim for no-op batches.
    last: Option<StreamRunResult>,
}

impl<R: Resampler> StreamingImmEngine<R> {
    /// A fresh engine owning `graph`. `weight_model` and `weight_seed`
    /// drive weight assignment for inserted edges (see
    /// [`Graph::apply_delta`]); they should match how the graph was built.
    pub fn new(
        graph: Graph,
        config: ImmConfig,
        weight_model: WeightModel,
        weight_seed: u64,
        resampler: R,
    ) -> Self {
        let n = graph.num_vertices();
        config.validate(n);
        let store = AnyRrrStore::new(n, config.packed);
        Self {
            graph,
            config,
            weight_model,
            weight_seed,
            resampler,
            index: InvertedIndex::build(&store),
            store,
            sources: Vec::new(),
            indexed_sets: 0,
            cutoff: 0,
            selection: None,
            delta_cursor: 0,
            last: None,
        }
    }

    /// The current (mutated) graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The patched store. Slot = logical sample index; eliminated slots are
    /// empty (a cold engine would simply not have stored them).
    pub fn store(&self) -> &AnyRrrStore {
        &self.store
    }

    /// Logical samples currently materialized.
    pub fn slots(&self) -> usize {
        self.sources.len()
    }

    /// Update batches applied so far.
    pub fn delta_cursor(&self) -> u64 {
        self.delta_cursor
    }

    /// The most recent run's result, if any run has happened.
    pub fn last_result(&self) -> Option<&StreamRunResult> {
        self.last.as_ref()
    }

    /// Digest of the maintained store (slot-indexed, empties included).
    pub fn store_digest(&self) -> u64 {
        store_digest(&self.store)
    }

    /// Fingerprint binding config, initial-graph size, resampler, weight
    /// model, and weight stream — what a streaming checkpoint must match to
    /// resume. The weight model matters even at cursor zero: resuming under
    /// a different one would silently change update-weight semantics for
    /// every batch applied after the resume.
    pub fn fingerprint(&self) -> u64 {
        let base = run_fingerprint(&self.config, self.graph.num_vertices(), "streaming", 0);
        let mut h = base ^ self.weight_seed.rotate_left(17);
        h ^= weight_model_tag(self.weight_model).wrapping_mul(0x0000_0100_0000_01b3);
        for b in self.resampler.name().bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Appends the stored (post-elimination) content of a footprint drawn
    /// with `source` to `out`: under elimination the source is dropped and
    /// sets that contained nothing else are discarded (stored empty).
    /// Returns the stored length.
    fn push_stored(
        &self,
        source: VertexId,
        footprint: &[VertexId],
        out: &mut Vec<VertexId>,
    ) -> usize {
        let before = out.len();
        if !self.config.source_elimination {
            out.extend_from_slice(footprint);
        } else if footprint.len() > 1 {
            out.extend(footprint.iter().copied().filter(|&v| v != source));
        }
        out.len() - before
    }

    /// Re-indexes the store after it changed, dropping the cached selection.
    fn rebuild_index(&mut self) {
        self.index = InvertedIndex::build(&self.store);
        self.indexed_sets += self.store.num_sets();
        self.selection = None;
    }

    /// Extends the sample universe to `target` logical slots with fresh
    /// draws against the current graph. Returns how many were added.
    fn ensure_slots(&mut self, target: usize) -> Result<usize, EngineError> {
        let have = self.slots();
        if target <= have {
            return Ok(0);
        }
        let indices: Vec<u64> = (have as u64..target as u64).collect();
        let drawn = self.resampler.sample(&self.graph, &indices)?;
        let mut stored = Vec::new();
        for (source, footprint) in drawn {
            self.sources.push(source);
            stored.clear();
            self.push_stored(source, &footprint, &mut stored);
            self.store.append_set(&stored);
        }
        self.rebuild_index();
        Ok(target - have)
    }

    /// Kept (non-eliminated) slots below `cutoff` — the set count a cold
    /// engine's store would report at that logical prefix. A kept set is
    /// never empty: without elimination it holds its source, with it at
    /// least one other visited vertex.
    fn kept_below(&self, cutoff: usize) -> usize {
        (0..cutoff).filter(|&i| self.store.set_len(i) > 0).count()
    }

    /// Slots whose footprint holds one of `heads`, ascending: the index runs
    /// of the heads, plus the slots whose source is a head, since a stored
    /// set drops its source under elimination.
    fn invalidated(&self, heads: &[VertexId]) -> Vec<u32> {
        let mut is_head = vec![false; self.graph.num_vertices()];
        let mut stale = vec![false; self.slots()];
        for &head in heads {
            is_head[head as usize] = true;
            for &slot in self.index.sets_of(head as usize) {
                stale[slot as usize] = true;
            }
        }
        (0..self.slots() as u32)
            .filter(|&slot| stale[slot as usize] | is_head[self.sources[slot as usize] as usize])
            .collect()
    }

    /// Runs [`run_imm`] over the maintained sample universe from a zero
    /// cutoff, so each estimation iteration selects over the logical prefix
    /// a cold run would have held. Extends the universe only when the
    /// mutated graph's coverage demands more samples than any earlier run
    /// drew. Returns the run result and caches it for no-op batches.
    pub fn replay(&mut self) -> Result<StreamRunResult, EngineError> {
        self.cutoff = 0;
        let config = self.config;
        let run = run_imm(self, &config)?;
        let result = StreamRunResult {
            seeds: run.seeds,
            coverage: run.coverage,
            num_sets: run.num_sets,
            cutoff: self.cutoff,
            theta: run.theta,
            lower_bound: run.lower_bound,
        };
        self.last = Some(result.clone());
        Ok(result)
    }

    /// The slots a delta would invalidate, computed from the index without
    /// touching the graph: the slots whose footprint holds a head whose
    /// in-row membership the batch actually changes (net effect, like
    /// [`Graph::apply_delta`]). Sorted ascending.
    pub fn predict_invalidated(&self, delta: &GraphDelta) -> Vec<u32> {
        let mut heads: Vec<VertexId> = delta
            .inserts
            .iter()
            .chain(&delta.deletes)
            .map(|&(_, v)| v)
            .collect();
        heads.sort_unstable();
        heads.dedup();
        heads.retain(|&head| {
            let old: Vec<VertexId> = self.graph.in_neighbors(head).to_vec();
            let mut new: Vec<VertexId> = old
                .iter()
                .copied()
                .filter(|&u| !delta.deletes.contains(&(u, head)))
                .collect();
            for &(u, v) in &delta.inserts {
                if v == head && !new.contains(&u) {
                    new.push(u);
                }
            }
            new.sort_unstable();
            new != old
        });
        self.invalidated(&heads)
    }

    /// Applies one update batch: mutates the graph, invalidates exactly the
    /// slots whose footprints crossed a changed in-row, redraws them,
    /// patches the store and its histogram in place, re-indexes it, and
    /// runs the martingale driver again ([`Self::replay`]). A batch with no
    /// net structural effect is a no-op: zero resamples, zero index reads,
    /// cached result returned.
    pub fn apply_update(&mut self, delta: &GraphDelta) -> Result<UpdateReport, EngineError> {
        let applied = self
            .graph
            .apply_delta(delta, self.weight_model, self.weight_seed);
        self.delta_cursor += 1;
        let batch = self.delta_cursor;
        if applied.changed_heads.is_empty() {
            let result = match &self.last {
                Some(r) => r.clone(),
                None => self.replay()?,
            };
            return Ok(UpdateReport {
                batch,
                changed_heads: 0,
                resampled_slots: Vec::new(),
                fresh_slots: 0,
                decoded_sets: 0,
                slots: self.slots(),
                result,
            });
        }
        self.resampler
            .graph_changed(&self.graph, &applied.changed_heads)?;

        let stale = self.invalidated(&applied.changed_heads);
        let indexed_before = self.indexed_sets;
        if !stale.is_empty() {
            let indices: Vec<u64> = stale.iter().map(|&s| s as u64).collect();
            let drawn = self.resampler.sample(&self.graph, &indices)?;
            let ids: Vec<usize> = stale.iter().map(|&s| s as usize).collect();
            let mut elements: Vec<VertexId> = Vec::new();
            let mut lens: Vec<usize> = Vec::with_capacity(stale.len());
            for (&slot, (source, footprint)) in stale.iter().zip(&drawn) {
                debug_assert_eq!(
                    *source, self.sources[slot as usize],
                    "slot {slot}: source is a pure function of (seed, index)"
                );
                lens.push(self.push_stored(*source, footprint, &mut elements));
            }
            self.store.patch_sets(&ids, &elements, &lens);
            self.rebuild_index();
        }

        let before = self.slots();
        let result = self.replay()?;
        Ok(UpdateReport {
            batch,
            changed_heads: applied.changed_heads.len(),
            resampled_slots: stale,
            fresh_slots: self.slots() - before,
            decoded_sets: self.indexed_sets - indexed_before,
            slots: self.slots(),
            result,
        })
    }
}

impl<R: Resampler> ImmEngine for StreamingImmEngine<R> {
    fn n(&self) -> usize {
        self.graph.num_vertices()
    }

    /// Materializes slots up to `target` and raises the cutoff to it. The
    /// cutoff never drops: an extension below it is a no-op, as it is for a
    /// cold engine.
    fn extend_to(&mut self, target: usize) -> Result<(), EngineError> {
        self.ensure_slots(target)?;
        self.cutoff = self.cutoff.max(target);
        Ok(())
    }

    fn select(&mut self, k: usize) -> Selection {
        let key = (self.cutoff, k);
        if let Some((hit, selection)) = &self.selection {
            if *hit == key {
                return selection.clone();
            }
        }
        let greedy = greedy_cover(&self.index, self.cutoff, k);
        let selection = Selection {
            covered_sets: greedy.covered_sets(),
            seeds: greedy.seeds,
            num_sets: self.kept_below(self.cutoff),
        };
        self.selection = Some((key, selection.clone()));
        selection
    }

    /// Every materialized slot, eliminated ones stored empty; the driver
    /// counts kept sets from the selection instead.
    fn store(&self) -> &dyn RrrSets {
        &self.store
    }

    fn logical_sets(&self) -> usize {
        self.cutoff
    }

    /// No timeline: a streaming run reports no phase times.
    fn elapsed_us(&self) -> f64 {
        0.0
    }
}

/// Streaming checkpoint: enough to resume a killed update-stream run by
/// deterministic replay — the fingerprint pins config/graph/resampler, the
/// cursor says how many batches were applied, and the digest proves the
/// regenerated store is the one the checkpoint saw.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamCheckpoint {
    /// [`StreamingImmEngine::fingerprint`] of the run that wrote this.
    pub fingerprint: u64,
    /// Update batches applied when the checkpoint was written.
    pub delta_cursor: u64,
    /// Logical slots materialized at that point.
    pub slots: u64,
    /// FNV digest of the slot-indexed store.
    pub store_digest: u64,
}

/// File name inside the checkpoint directory.
const STREAM_CHECKPOINT_FILE: &str = "eim-stream-checkpoint.json";

impl StreamCheckpoint {
    /// Serializes to the checkpoint JSON (format 1).
    pub fn to_json(&self) -> serde_json::Value {
        serde_json::json!({
            "format": 1,
            "kind": "eim-stream-checkpoint",
            "fingerprint": self.fingerprint,
            "delta_cursor": self.delta_cursor,
            "slots": self.slots,
            "store_digest": self.store_digest,
        })
    }

    /// Parses the checkpoint JSON; the error names what is wrong with it.
    pub fn from_json(v: &serde_json::Value) -> Result<Self, String> {
        let u = |key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(|x| x.as_u64())
                .ok_or_else(|| format!("stream checkpoint field `{key}` missing or not an integer"))
        };
        let format = u("format")?;
        if format != 1 {
            return Err(format!("unsupported stream checkpoint format {format}"));
        }
        match v.get("kind").and_then(|k| k.as_str()) {
            Some("eim-stream-checkpoint") => {}
            other => return Err(format!("not a stream checkpoint: kind {other:?}")),
        }
        Ok(Self {
            fingerprint: u("fingerprint")?,
            delta_cursor: u("delta_cursor")?,
            slots: u("slots")?,
            store_digest: u("store_digest")?,
        })
    }

    /// Atomically persists into `dir` (write temp, then rename).
    pub fn save(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let tmp = dir.join(format!("{STREAM_CHECKPOINT_FILE}.tmp"));
        std::fs::write(&tmp, self.to_json().to_string())?;
        std::fs::rename(tmp, dir.join(STREAM_CHECKPOINT_FILE))
    }

    /// Loads the checkpoint from `dir`; the error names a missing file,
    /// malformed JSON, or a malformed checkpoint.
    pub fn load(dir: &Path) -> Result<Self, String> {
        let path = dir.join(STREAM_CHECKPOINT_FILE);
        let raw = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let v = serde_json::from_str(&raw)
            .map_err(|e| format!("{} is not valid JSON: {e}", path.display()))?;
        Self::from_json(&v)
    }
}

/// Checkpoint policy for a streaming run.
#[derive(Clone, Debug, Default)]
pub struct StreamCheckpointing {
    /// Where checkpoints live; `None` disables checkpointing.
    pub dir: Option<PathBuf>,
    /// Resume from the directory's checkpoint instead of starting cold.
    pub resume: bool,
    /// Deterministic kill: stop with [`EngineError::Interrupted`] after
    /// this many checkpoints written *by this process*.
    pub kill_after: Option<u32>,
}

impl StreamCheckpointing {
    /// No checkpointing at all.
    pub fn disabled() -> Self {
        Self::default()
    }
}

/// Runs `engine` over `deltas` under `ckpt`: an initial cold run, then
/// one [`StreamingImmEngine::apply_update`] per batch, with a
/// [`StreamCheckpoint`] written after the initial run and after every
/// batch. On resume, the engine re-derives the checkpointed state by
/// deterministic replay (initial run + the first `delta_cursor` batches,
/// no checkpoint writes), digest-verifies the store, then continues.
/// Returns the per-batch reports of everything this call executed.
pub fn run_stream<R: Resampler>(
    engine: &mut StreamingImmEngine<R>,
    deltas: &[GraphDelta],
    ckpt: &StreamCheckpointing,
) -> Result<Vec<UpdateReport>, EngineError> {
    assert_eq!(
        engine.delta_cursor(),
        0,
        "run_stream drives a fresh engine from batch zero"
    );
    let fp = engine.fingerprint();
    let mut written: u32 = 0;
    let mut start = 0usize;
    if ckpt.resume {
        let dir = ckpt.dir.as_deref().expect("resume requires a directory");
        let cp = StreamCheckpoint::load(dir).map_err(|_| EngineError::CheckpointIo)?;
        if cp.fingerprint != fp {
            return Err(EngineError::CheckpointMismatch {
                expected: fp,
                found: cp.fingerprint,
            });
        }
        // A checkpoint from a longer stream cannot resume against this one:
        // the cursor would point past the provided batches. The digest
        // check alone does not catch this when the missing trailing batches
        // were structural no-ops.
        if cp.delta_cursor as usize > deltas.len() {
            return Err(EngineError::CheckpointMismatch {
                expected: deltas.len() as u64,
                found: cp.delta_cursor,
            });
        }
        engine.replay()?;
        for delta in deltas.iter().take(cp.delta_cursor as usize) {
            engine.apply_update(delta)?;
        }
        let digest = engine.store_digest();
        if digest != cp.store_digest {
            return Err(EngineError::CheckpointMismatch {
                expected: cp.store_digest,
                found: digest,
            });
        }
        // The slot count is read back too, so no field the checkpoint
        // records can change without the resume noticing.
        let slots = engine.slots() as u64;
        if slots != cp.slots {
            return Err(EngineError::CheckpointMismatch {
                expected: slots,
                found: cp.slots,
            });
        }
        start = cp.delta_cursor as usize;
    } else {
        engine.replay()?;
        write_stream_checkpoint(engine, ckpt, &mut written)?;
    }

    let mut reports = Vec::with_capacity(deltas.len() - start);
    for delta in &deltas[start..] {
        reports.push(engine.apply_update(delta)?);
        write_stream_checkpoint(engine, ckpt, &mut written)?;
    }
    Ok(reports)
}

fn write_stream_checkpoint<R: Resampler>(
    engine: &StreamingImmEngine<R>,
    ckpt: &StreamCheckpointing,
    written: &mut u32,
) -> Result<(), EngineError> {
    let Some(dir) = &ckpt.dir else {
        return Ok(());
    };
    let cp = StreamCheckpoint {
        fingerprint: engine.fingerprint(),
        delta_cursor: engine.delta_cursor(),
        slots: engine.slots() as u64,
        store_digest: engine.store_digest(),
    };
    cp.save(dir).map_err(|_| EngineError::CheckpointIo)?;
    *written += 1;
    if ckpt.kill_after.is_some_and(|limit| *written >= limit) {
        return Err(EngineError::Interrupted {
            checkpoints_written: *written,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{CpuEngine, CpuParallelism};
    use crate::rrrstore::PlainRrrStore;
    use crate::selection::{greedy_cover_store, NEVER};
    use eim_graph::generators;

    fn graph() -> Graph {
        generators::rmat(
            200,
            1_200,
            generators::RmatParams::GRAPH500,
            WeightModel::WeightedCascade,
            13,
        )
    }

    fn config() -> ImmConfig {
        ImmConfig::paper_default()
            .with_k(4)
            .with_epsilon(0.3)
            .with_seed(42)
    }

    fn cold_seeds(g: &Graph, c: ImmConfig) -> Vec<VertexId> {
        let mut e = CpuEngine::new(g, c, CpuParallelism::Rayon);
        run_imm(&mut e, &c).unwrap().seeds
    }

    #[test]
    fn initial_replay_matches_cold_cpu_run() {
        let g = graph();
        for elim in [false, true] {
            let c = config().with_source_elimination(elim);
            let mut s = StreamingImmEngine::new(
                g.clone(),
                c,
                WeightModel::WeightedCascade,
                7,
                HostResampler::new(c.model, c.seed),
            );
            let r = s.replay().unwrap();
            assert_eq!(r.seeds, cold_seeds(&g, c), "elim={elim}");
        }
    }

    #[test]
    fn replay_without_extension_reuses_the_estimation_selection() {
        // On this graph, k = 8 and eps = 0.5 end estimation at 785 sets
        // while theta is 780: the final extension is a no-op.
        let g = graph();
        let c = config().with_k(8).with_epsilon(0.5);
        let mut s = StreamingImmEngine::new(
            g.clone(),
            c,
            WeightModel::WeightedCascade,
            7,
            HostResampler::new(c.model, c.seed),
        );
        let r = s.replay().unwrap();
        // The extension below the cutoff must not lower it.
        assert_eq!((r.cutoff, r.theta), (785, 780));
        assert_eq!(s.logical_sets(), r.cutoff);
        let fresh = greedy_cover(&s.index, r.cutoff, c.k);
        let coverage = fresh.covered_sets() as f64 / s.kept_below(r.cutoff) as f64;
        assert_eq!(r.seeds, fresh.seeds);
        assert_eq!(r.num_sets, s.kept_below(r.cutoff));
        assert_eq!(r.coverage.to_bits(), coverage.to_bits());
        let mut cold = CpuEngine::new(&g, c, CpuParallelism::Rayon);
        let want = run_imm(&mut cold, &c).unwrap();
        assert_eq!(cold.logical_sets(), r.cutoff);
        assert_eq!(r.seeds, want.seeds);
        assert_eq!(r.coverage.to_bits(), want.coverage.to_bits());
    }

    #[test]
    fn updates_track_cold_recompute() {
        let g = graph();
        let spec = generators::UpdateStreamSpec {
            batches: 3,
            edges_per_batch: 12,
            insert_fraction: 0.5,
            seed: 5,
        };
        let deltas = generators::update_stream(&g, &spec);
        // With k = 50 and eps = 0.1 estimation ends at its first iteration
        // and the final extension is a no-op, so the run after an update
        // first selects at the very cutoff the run before it cached.
        for c in [config(), config().with_k(50).with_epsilon(0.1)] {
            let mut s = StreamingImmEngine::new(
                g.clone(),
                c,
                WeightModel::WeightedCascade,
                7,
                HostResampler::new(c.model, c.seed),
            );
            s.replay().unwrap();
            let mut cold_graph = g.clone();
            for delta in &deltas {
                let predicted = s.predict_invalidated(delta);
                let report = s.apply_update(delta).unwrap();
                assert_eq!(report.resampled_slots, predicted);
                cold_graph.apply_delta(delta, WeightModel::WeightedCascade, 7);
                assert_eq!(
                    report.result.seeds,
                    cold_seeds(&cold_graph, c),
                    "k {} batch {}",
                    c.k,
                    report.batch
                );
                assert!(
                    report.resampled_slots.len() < s.slots(),
                    "incremental must redraw a strict subset"
                );
            }
        }
    }

    #[test]
    fn prefix_core_matches_an_index_of_the_kept_sets() {
        // The core over the engine's index below a cutoff must pick, cover
        // and gain exactly as over the index of a cold store holding the
        // kept sets below that cutoff, in slot order.
        let g = graph();
        let spec = generators::UpdateStreamSpec {
            batches: 3,
            edges_per_batch: 12,
            insert_fraction: 0.5,
            seed: 9,
        };
        let deltas = generators::update_stream(&g, &spec);
        for elim in [false, true] {
            let c = config().with_source_elimination(elim);
            let mut s = StreamingImmEngine::new(
                g.clone(),
                c,
                WeightModel::WeightedCascade,
                7,
                HostResampler::new(c.model, c.seed),
            );
            s.replay().unwrap();
            for b in 0..=deltas.len() {
                if b > 0 {
                    s.apply_update(&deltas[b - 1]).unwrap();
                }
                let slots = s.slots();
                // Kept slots from footprints redrawn on the current graph.
                let indices: Vec<u64> = (0..slots as u64).collect();
                let footprints = HostResampler::new(c.model, c.seed)
                    .sample(s.graph(), &indices)
                    .unwrap();
                for cutoff in [0, 1, slots / 3, slots / 2 + 7, slots] {
                    let mut cold = PlainRrrStore::new(g.num_vertices());
                    let mut kept_slots = Vec::new();
                    for (slot, (_, footprint)) in footprints[..cutoff].iter().enumerate() {
                        if !(elim && footprint.len() <= 1) {
                            cold.append_set(&s.store.set_members(slot));
                            kept_slots.push(slot);
                        }
                    }
                    assert_eq!(kept_slots.len(), s.kept_below(cutoff));
                    for k in [1, 4, 12] {
                        let ctx = format!("elim={elim} batch {b} cutoff {cutoff} k {k}");
                        let want = greedy_cover_store(&cold, k);
                        let got = greedy_cover(&s.index, cutoff, k);
                        assert_eq!(got.seeds, want.seeds, "{ctx}");
                        assert_eq!(got.gains(), want.gains(), "{ctx}");
                        let mut mapped = vec![NEVER; cutoff];
                        for (&slot, &round) in kept_slots.iter().zip(&want.cover) {
                            mapped[slot] = round;
                        }
                        assert_eq!(got.cover, mapped, "{ctx}");
                    }
                }
            }
        }
    }

    #[test]
    fn fingerprint_binds_weight_model() {
        let g = graph();
        let c = config();
        let fp = |wm: WeightModel| {
            StreamingImmEngine::new(g.clone(), c, wm, 7, HostResampler::new(c.model, c.seed))
                .fingerprint()
        };
        let models = [
            WeightModel::WeightedCascade,
            WeightModel::Uniform(0.1),
            WeightModel::Uniform(0.2),
            WeightModel::Trivalency,
            WeightModel::Random,
            WeightModel::Preserve,
        ];
        let fps: Vec<u64> = models.iter().map(|&m| fp(m)).collect();
        for i in 0..fps.len() {
            for j in i + 1..fps.len() {
                assert_ne!(fps[i], fps[j], "{:?} vs {:?}", models[i], models[j]);
            }
        }
    }

    #[test]
    fn checkpoint_roundtrips_json() {
        let cp = StreamCheckpoint {
            fingerprint: 0xdead_beef,
            delta_cursor: 3,
            slots: 1234,
            store_digest: 42,
        };
        assert_eq!(StreamCheckpoint::from_json(&cp.to_json()), Ok(cp));
    }
}
