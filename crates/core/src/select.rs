//! Device seed selection (§3.5, Algorithm 3) with cost accounting.
//!
//! Greedy max-coverage, as in the CPU reference, but executed under the
//! device cost model with one of two workload-distribution strategies:
//!
//! * [`ScanStrategy::ThreadPerSet`] — eIM's choice: one *thread* per RRR
//!   set. `T_n = 32 W_n` slots, each paying the full serial binary-search
//!   cost `C_t`.
//! * [`ScanStrategy::WarpPerSet`] — the alternative the paper measures
//!   against (Figure 3): one *warp* per set. `W_n` slots, each set cheaper
//!   (`C_w < C_t`, coalesced loads + cooperative probing) but far fewer
//!   slots, so serialization grows with the number of sets.
//!
//! The makespan of each scan is `max over slots of its summed per-set
//! costs` under round-robin assignment — exactly the
//! `ceil(N / slots) * C` analysis of §3.5.

use std::ops::Range;

use eim_gpusim::{CostModel, Device, KernelHw, GLOBAL_TRANSACTION_BYTES, WARP_SIZE};
use eim_graph::VertexId;
use eim_imm::{greedy_cover_store, search_probes, RrrSets, Selection};
use rayon::prelude::*;

/// Workload distribution for the selection scans.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScanStrategy {
    /// One thread per RRR set (eIM).
    ThreadPerSet,
    /// One warp (32 threads) per RRR set.
    WarpPerSet,
}

/// How many warp-cooperative probes amortize one thread probe: a warp
/// searches a sorted run 32-ary instead of binary, cutting probe rounds by
/// `log2(32) = 5x`, but pays intra-warp coordination — net ~4x per set.
const WARP_SEARCH_SPEEDUP: u64 = 4;

/// What one round's membership scan adds up over every slot. Each field
/// is a max or a sum over warp blocks, so blocks fold in any order.
#[derive(Clone, Copy, Default)]
struct RoundScan {
    /// The busiest slot's summed cycles: the scan's makespan.
    makespan: u64,
    /// Over each 32-slot warp block, its busiest slot's cycles, summed.
    warp_max: u64,
    /// Every slot's cycles, summed.
    busy: u64,
    /// Global memory transactions of the probes and count updates.
    txns: u64,
    /// Count-decrement atomics.
    atomics: u64,
    /// Predicated-off lane-cycles of the atomic tail waves (WarpPerSet).
    tail_idle: u64,
}

impl RoundScan {
    /// Folds in the same round's totals over other warp blocks.
    fn merge(&mut self, other: &Self) {
        self.makespan = self.makespan.max(other.makespan);
        self.warp_max += other.warp_max;
        self.busy += other.busy;
        self.txns += other.txns;
        self.atomics += other.atomics;
        self.tail_idle += other.tail_idle;
    }
}

/// One greedy iteration's simulated cost: its argmax reduction plus its
/// membership scan. `cycles` and `launches` sum exactly to the parent
/// [`DeviceSelection`] totals; `elapsed_us` is the span duration for a
/// per-iteration trace event (Figure 3's warp-vs-thread crossover is only
/// visible iteration by iteration — later iterations scan mostly-covered
/// sets and cost far less than the first).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SelectIteration {
    /// Simulated cycles of this iteration's launches.
    pub cycles: u64,
    /// Simulated kernel launches this iteration (2, or 1 for a final
    /// argmax that found every vertex already selected).
    pub launches: u64,
    /// This iteration's simulated duration, microseconds (cycle time plus
    /// launch overheads).
    pub elapsed_us: f64,
    /// Simulated hardware counters for this iteration's launches: occupancy
    /// from slot imbalance, divergence from intra-warp makespans
    /// (ThreadPerSet) or partial tail waves (WarpPerSet), and memory
    /// traffic from the probe and count-update transactions.
    pub hw: KernelHw,
}

/// Result of a device selection: the selection itself plus its simulated
/// time.
#[derive(Clone, Debug)]
pub struct DeviceSelection {
    /// Seeds and coverage.
    pub selection: Selection,
    /// Simulated device time of all k scan iterations, microseconds.
    pub elapsed_us: f64,
    /// Total simulated cycles across all argmax + membership-scan launches.
    pub total_cycles: u64,
    /// Number of simulated kernel launches (two per greedy iteration).
    pub launches: u64,
    /// Per-greedy-iteration cost breakdown, in selection order.
    pub iterations: Vec<SelectIteration>,
}

/// Runs greedy max-coverage over `store` on `device`, charging simulated
/// time for the argmax reductions and the per-set membership scans.
/// Produces bit-identical seeds to [`eim_imm::select_seeds`].
///
/// The simulated device runs Algorithm 3 round by round, and every scan
/// visits every set. The host takes the seeds and each set's covering
/// round from the shared greedy core ([`greedy_cover_store`]) and charges the
/// device work set-major: it walks the store once, one 32-slot warp block
/// at a time, and adds each set's cost in every round to that round's slot
/// sum (`ChargePass`). For `k > n` the core stops after `n` picks, and the
/// device's final argmax, which finds nothing left to pick, is charged on
/// its own.
pub fn select_on_device<S: RrrSets + ?Sized>(
    device: &Device,
    store: &S,
    k: usize,
    strategy: ScanStrategy,
) -> DeviceSelection {
    let spec = *device.spec();
    let costs = spec.costs;
    let n = store.num_vertices();
    let num_sets = store.num_sets();
    let slots = match strategy {
        ScanStrategy::ThreadPerSet => spec.thread_slots(),
        ScanStrategy::WarpPerSet => spec.warp_slots(),
    };
    // Round-robin assignment only ever lands sets on the first
    // `min(slots, num_sets)` slots; the rest stay empty and would only pad
    // the makespan scan with zeros.
    let used_slots = slots.min(num_sets.max(1));
    // Rayon with a single worker still pays per-call pool dispatch; the
    // simulated cost model is identical either way, so take the serial
    // path outright.
    let serial = rayon::current_num_threads() <= 1;

    let greedy = greedy_cover_store(store, k);
    let covered_sets = greedy.covered_sets();
    let (seeds, cover) = (greedy.seeds, greedy.cover);
    let mut by_id: Vec<(VertexId, u32)> = (0..).zip(&seeds).map(|(r, &v)| (v, r)).collect();
    by_id.sort_unstable();
    let pass = ChargePass {
        store,
        cover: &cover,
        by_id,
        used_slots,
        strategy,
        costs,
    };
    let blocks = used_slots.div_ceil(WARP_SIZE);
    let scans = if seeds.is_empty() {
        Vec::new()
    } else if serial {
        pass.blocks(0..blocks)
    } else {
        let pieces = (rayon::current_num_threads() * 4).min(blocks);
        let width = blocks.div_ceil(pieces);
        (0..pieces)
            .into_par_iter()
            .map(|p| pass.blocks(p * width..((p + 1) * width).min(blocks)))
            .reduce(
                || vec![RoundScan::default(); seeds.len()],
                |mut a, b| {
                    a.iter_mut().zip(&b).for_each(|(a, b)| a.merge(b));
                    a
                },
            )
    };

    // argmax_u C[u]: a grid-stride reduction over n counts. It is uniform
    // work: every warp slot busy for the whole launch, no divergence; one
    // coalesced 32-wide load per warp over the n counts.
    let warp_slots = spec.warp_slots() as u64;
    let argmax_cycles =
        (n as u64).div_ceil(spec.thread_slots() as u64) * costs.global_access + 10 * costs.shuffle;
    let mut argmax_hw = KernelHw {
        occ_busy_cycles: argmax_cycles * warp_slots,
        occ_capacity_cycles: argmax_cycles * warp_slots,
        active_lane_cycles: WARP_SIZE as u64 * argmax_cycles,
        global_transactions: (n as u64).div_ceil(WARP_SIZE as u64),
        ..KernelHw::default()
    };
    argmax_hw.global_bytes = argmax_hw.global_transactions * GLOBAL_TRANSACTION_BYTES;
    let iteration = |cycles: u64, launches: u64, hw: KernelHw| SelectIteration {
        cycles,
        launches,
        elapsed_us: spec.cycles_to_us(cycles) + launches as f64 * costs.kernel_launch_us,
        hw,
    };

    let mut iterations: Vec<SelectIteration> = Vec::with_capacity(scans.len() + 1);
    for scan in &scans {
        let mut hw = argmax_hw;
        match strategy {
            ScanStrategy::ThreadPerSet => {
                // 32 consecutive thread slots form a warp; the warp is
                // resident until its slowest lane drains, and every cycle a
                // lane waits under that makespan is divergence.
                hw.occ_busy_cycles += scan.warp_max;
                hw.active_lane_cycles += scan.busy;
                hw.idle_lane_cycles += WARP_SIZE as u64 * scan.warp_max - scan.busy;
            }
            ScanStrategy::WarpPerSet => {
                // Each warp slot is busy for its summed per-set cycles; the
                // only predicated-off lanes are the atomic tail waves.
                hw.occ_busy_cycles += scan.busy;
                hw.active_lane_cycles +=
                    (WARP_SIZE as u64 * scan.busy).saturating_sub(scan.tail_idle);
                hw.idle_lane_cycles += scan.tail_idle;
            }
        }
        // The scan drains when the busiest slot does.
        hw.occ_capacity_cycles += warp_slots * scan.makespan;
        hw.global_transactions += scan.txns;
        hw.global_bytes += scan.txns * GLOBAL_TRANSACTION_BYTES;
        hw.atomics += scan.atomics;
        iterations.push(iteration(argmax_cycles + scan.makespan, 2, hw));
    }
    if seeds.len() < k {
        // Every vertex is selected, but the final argmax still launched:
        // give it its own entry so the breakdown sums to the totals.
        iterations.push(iteration(argmax_cycles, 1, argmax_hw));
    }
    let total_cycles = iterations.iter().map(|it| it.cycles).sum();
    let launches = iterations.iter().map(|it| it.launches).sum();

    DeviceSelection {
        selection: Selection {
            seeds,
            covered_sets,
            num_sets,
        },
        elapsed_us: spec.cycles_to_us(total_cycles) + launches as f64 * costs.kernel_launch_us,
        total_cycles,
        launches,
        iterations,
    }
}

/// Charges every round's membership scan in one walk of the store.
///
/// Sets are dealt round-robin to slots (the §3.5 schedule), so slot `s`
/// holds sets `s, s + used_slots, ..`. The pass takes 32 slots at a time,
/// decodes each of their sets once and, for every round up to the one that
/// covers the set, gets the search's probe count from the set's length and
/// the rank of that round's seed in it ([`search_probes`]); in every later
/// round the set costs only its coalesced `F[i]` load (`alu`). The block's
/// slot sums then fold into each round's makespan, warp max and busy sums.
/// Integer sums commute, and each round's totals need only that round's
/// slot sums, so every total equals what the round-by-round walk adds up.
struct ChargePass<'a, S: ?Sized> {
    store: &'a S,
    /// Each set's covering round, or [`eim_imm::NEVER`].
    cover: &'a [u32],
    /// The seeds by ascending id, each with its round.
    by_id: Vec<(VertexId, u32)>,
    used_slots: usize,
    strategy: ScanStrategy,
    costs: CostModel,
}

impl<S: RrrSets + ?Sized> ChargePass<'_, S> {
    /// Every round's totals over warp blocks `blocks`; block `b` is slots
    /// `32 b .. 32 b + 32`.
    fn blocks(&self, blocks: Range<usize>) -> Vec<RoundScan> {
        let num_sets = self.cover.len();
        let rounds = self.by_id.len();
        let costs = &self.costs;
        let mut scans = vec![RoundScan::default(); rounds];
        let mut block = Block {
            loads: vec![0; WARP_SIZE * rounds],
            writes: vec![0; WARP_SIZE * rounds],
        };
        let mut per_round = vec![Fold::default(); rounds];
        for b in blocks {
            let lo = b * WARP_SIZE;
            let hi = (lo + WARP_SIZE).min(self.used_slots);
            for from in (lo..num_sets).step_by(self.used_slots) {
                let to = (from + hi - lo).min(num_sets);
                self.store.for_each_set_in(from, to, &mut |i, members| {
                    self.charge_set(i - from, self.cover[i], members, &mut block, &mut scans);
                });
            }
            // Fold the block lane by lane, every round at once: each slot
            // pays its sets' `F[i]` loads every round, probed or not.
            per_round.fill(Fold::default());
            let lanes = block.loads.chunks_exact_mut(rounds);
            for (slot, (loads, writes)) in
                (lo..hi).zip(lanes.zip(block.writes.chunks_exact_mut(rounds)))
            {
                let flat = (num_sets - slot).div_ceil(self.used_slots) as u64 * costs.alu;
                for ((fold, load), write) in per_round.iter_mut().zip(&*loads).zip(&*writes) {
                    let sum = flat + load * costs.global_latency + write;
                    fold.max = fold.max.max(sum);
                    fold.sum += sum;
                    fold.loads += load;
                }
                loads.fill(0);
                writes.fill(0);
            }
            for (scan, fold) in scans.iter_mut().zip(&per_round) {
                scan.makespan = scan.makespan.max(fold.max);
                scan.warp_max += fold.max;
                scan.busy += fold.sum;
                scan.txns += fold.loads;
            }
        }
        scans
    }

    /// Dependent loads of one membership search of `probes` probes into R:
    /// one per probe for a thread, fewer for a warp's 32-ary search.
    fn loads(&self, probes: u32) -> u64 {
        match self.strategy {
            ScanStrategy::ThreadPerSet => probes as u64,
            ScanStrategy::WarpPerSet => (probes as u64).div_ceil(WARP_SEARCH_SPEEDUP),
        }
    }

    /// Charges the set `members` in slot `lane` of the block to every round
    /// up to `cover`, the round that finds it. The seeds between two
    /// consecutive members share a rank, so the walk looks up one probe
    /// count per rank.
    fn charge_set(
        &self,
        lane: usize,
        cover: u32,
        members: &[VertexId],
        block: &mut Block,
        scans: &mut [RoundScan],
    ) {
        let seeds = &self.by_id;
        let len = members.len();
        let at = lane * seeds.len()..(lane + 1) * seeds.len();
        let (loads_row, writes_row) = (&mut block.loads[at.clone()], &mut block.writes[at]);
        let mut next = 0;
        for rank in 0..=len {
            if next == seeds.len() {
                break;
            }
            let member = members.get(rank).copied();
            let loads = self.loads(search_probes(len, rank, false));
            while let Some(&(v, round)) = seeds.get(next) {
                if member.is_some_and(|m| v >= m) {
                    break;
                }
                // Rounds after `cover` charge only the flat load; adding
                // zero keeps the skip free of a data-dependent branch.
                loads_row[round as usize] += if round <= cover { loads } else { 0 };
                next += 1;
            }
            // A seed that is a member is found by its own round's scan, or
            // was covered by an earlier one.
            if let (Some(m), Some(&(v, round))) = (member, seeds.get(next)) {
                if v == m {
                    if round == cover {
                        let r = round as usize;
                        loads_row[r] += self.loads(search_probes(len, rank, true));
                        writes_row[r] += self.charge_found(len, &mut scans[r]);
                    }
                    next += 1;
                }
            }
        }
    }

    /// Counts the decrement of every member's count of a set of `len`
    /// members into the round that finds it; returns the cycles it costs
    /// the set's slot.
    fn charge_found(&self, len: usize, scan: &mut RoundScan) -> u64 {
        let len = len as u64;
        let writes = match self.strategy {
            // Serial decrement of every member's count.
            ScanStrategy::ThreadPerSet => len,
            // 32 lanes decrement cooperatively; the final partial wave
            // predicates off its unused lanes.
            ScanStrategy::WarpPerSet => {
                let waves = len.div_ceil(WARP_SIZE as u64);
                scan.tail_idle += (waves * WARP_SIZE as u64 - len) * self.costs.atomic_global;
                waves
            }
        };
        scan.txns += writes + 1;
        scan.atomics += len;
        self.costs.atomic_global * writes + self.costs.global_access
    }
}

/// One warp block's per-slot, per-round charges, slot-major
/// (`[lane * rounds + round]`), so a set's charges land in one short row.
struct Block {
    /// Dependent loads of the membership searches.
    loads: Vec<u64>,
    /// Cycles of the count updates in the round that finds a set.
    writes: Vec<u64>,
}

/// One round's totals over the slots of a warp block.
#[derive(Clone, Copy, Default)]
struct Fold {
    /// The busiest slot's cycles.
    max: u64,
    /// Every slot's cycles, summed.
    sum: u64,
    /// Dependent loads of the membership searches, summed.
    loads: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use eim_gpusim::DeviceSpec;
    use eim_imm::{select_seeds, PlainRrrStore, RrrStoreBuilder};
    use rand::{Rng, SeedableRng};

    fn random_store(n: usize, sets: usize, seed: u64) -> PlainRrrStore {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut store = PlainRrrStore::new(n);
        for _ in 0..sets {
            let len = rng.gen_range(1..12);
            let mut set: Vec<u32> = (0..len).map(|_| rng.gen_range(0..n as u32)).collect();
            set.sort_unstable();
            set.dedup();
            store.append_set(&set);
        }
        store
    }

    #[test]
    fn matches_cpu_reference_selection() {
        let store = random_store(120, 400, 5);
        let device = Device::new(DeviceSpec::test_small());
        for k in [1, 5, 10] {
            let dev = select_on_device(&device, &store, k, ScanStrategy::ThreadPerSet);
            let cpu = select_seeds(&store, k);
            assert_eq!(dev.selection, cpu, "k = {k}");
        }
    }

    #[test]
    fn strategies_agree_on_seeds_but_not_time() {
        let store = random_store(200, 3_000, 9);
        let device = Device::new(DeviceSpec::test_small());
        let t = select_on_device(&device, &store, 8, ScanStrategy::ThreadPerSet);
        let w = select_on_device(&device, &store, 8, ScanStrategy::WarpPerSet);
        assert_eq!(t.selection, w.selection);
        assert_ne!(t.elapsed_us, w.elapsed_us);
    }

    #[test]
    fn figure3_crossover_thread_wins_at_scale() {
        // Small N: warps win (cheaper per set, enough slots). Large N:
        // threads win. Mirrors Figure 3 with k fixed.
        let device = Device::new(DeviceSpec::rtx_a6000());
        let small = random_store(100, 2_000, 1);
        let ts = select_on_device(&device, &small, 3, ScanStrategy::ThreadPerSet);
        let ws = select_on_device(&device, &small, 3, ScanStrategy::WarpPerSet);
        assert!(
            ws.elapsed_us <= ts.elapsed_us,
            "small N: warp {} vs thread {}",
            ws.elapsed_us,
            ts.elapsed_us
        );
        let large = random_store(100, 600_000, 2);
        let tl = select_on_device(&device, &large, 3, ScanStrategy::ThreadPerSet);
        let wl = select_on_device(&device, &large, 3, ScanStrategy::WarpPerSet);
        assert!(
            tl.elapsed_us < wl.elapsed_us,
            "large N: thread {} vs warp {}",
            tl.elapsed_us,
            wl.elapsed_us
        );
    }

    #[test]
    fn covered_sets_cost_almost_nothing_in_later_iterations() {
        // One dominating vertex: after seed 1 everything is covered, so
        // iteration 2's scan must be much cheaper than iteration 1's.
        let mut store = PlainRrrStore::new(50);
        for i in 0..2_000u32 {
            store.append_set(&[7, 10 + (i % 3)]);
        }
        let device = Device::new(DeviceSpec::test_small());
        let one = select_on_device(&device, &store, 1, ScanStrategy::ThreadPerSet);
        let two = select_on_device(&device, &store, 2, ScanStrategy::ThreadPerSet);
        let second_iter = two.elapsed_us - one.elapsed_us;
        assert!(
            second_iter < one.elapsed_us,
            "first {} second {}",
            one.elapsed_us,
            second_iter
        );
        assert_eq!(two.selection.covered_sets, 2_000);
    }

    #[test]
    fn empty_store_selects_lowest_ids_quickly() {
        let store = PlainRrrStore::new(10);
        let device = Device::new(DeviceSpec::test_small());
        let r = select_on_device(&device, &store, 3, ScanStrategy::ThreadPerSet);
        assert_eq!(r.selection.seeds, vec![0, 1, 2]);
        assert_eq!(r.selection.covered_sets, 0);
    }

    #[test]
    fn iteration_breakdown_sums_to_totals() {
        let store = random_store(150, 2_000, 21);
        let device = Device::new(DeviceSpec::test_small());
        for strategy in [ScanStrategy::ThreadPerSet, ScanStrategy::WarpPerSet] {
            let r = select_on_device(&device, &store, 7, strategy);
            assert_eq!(r.iterations.len(), 7);
            assert_eq!(
                r.iterations.iter().map(|i| i.cycles).sum::<u64>(),
                r.total_cycles
            );
            assert_eq!(
                r.iterations.iter().map(|i| i.launches).sum::<u64>(),
                r.launches
            );
            for it in &r.iterations {
                assert_eq!(it.launches, 2);
                assert!(it.cycles > 0);
                assert!(it.elapsed_us > 0.0);
            }
        }
    }

    #[test]
    fn exhausted_vertices_yield_a_dangling_argmax_iteration() {
        // k > n: after n picks every vertex is selected and the final
        // argmax launches but selects nothing.
        let store = PlainRrrStore::new(3);
        let device = Device::new(DeviceSpec::test_small());
        let r = select_on_device(&device, &store, 5, ScanStrategy::ThreadPerSet);
        assert_eq!(r.selection.seeds, vec![0, 1, 2]);
        assert_eq!(r.iterations.len(), 4);
        assert_eq!(r.iterations.last().unwrap().launches, 1);
        assert_eq!(
            r.iterations.iter().map(|i| i.cycles).sum::<u64>(),
            r.total_cycles
        );
        assert_eq!(
            r.iterations.iter().map(|i| i.launches).sum::<u64>(),
            r.launches
        );
    }

    #[test]
    fn serial_and_parallel_scans_agree() {
        // The parallel path splits the charge pass across workers by warp
        // block.
        let store = random_store(150, 5_000, 17);
        let device = Device::new(DeviceSpec::test_small());
        for strategy in [ScanStrategy::ThreadPerSet, ScanStrategy::WarpPerSet] {
            let run = |threads: usize| {
                rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap()
                    .install(|| select_on_device(&device, &store, 9, strategy))
            };
            let (serial, parallel) = (run(1), run(4));
            assert_eq!(serial.selection, parallel.selection);
            assert_eq!(serial.total_cycles, parallel.total_cycles);
            assert_eq!(serial.iterations, parallel.iterations);
        }
    }

    #[test]
    fn deterministic() {
        let store = random_store(80, 500, 13);
        let device = Device::new(DeviceSpec::test_small());
        let a = select_on_device(&device, &store, 6, ScanStrategy::ThreadPerSet);
        let b = select_on_device(&device, &store, 6, ScanStrategy::ThreadPerSet);
        assert_eq!(a.selection, b.selection);
        assert_eq!(a.elapsed_us, b.elapsed_us);
    }
}
