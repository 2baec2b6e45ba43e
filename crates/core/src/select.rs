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
//!
//! The host charges all k scans in one pass over the store instead of
//! replaying them. Each slot keeps a difference row over the seeds in id
//! order, and a set enters only the points where its charge changes: one
//! per member for a set no round covers (its rank under each seed follows
//! from a per-vertex count of the seeds at or below each id), and one pair
//! per probing round for a covered set. Every charge is an integer, so the
//! totals equal the round-by-round walk's exactly.

use std::ops::Range;

use eim_gpusim::{CostModel, Device, KernelHw, GLOBAL_TRANSACTION_BYTES, WARP_SIZE};
use eim_graph::VertexId;
use eim_imm::{greedy_cover_store, search_probes, RrrSets, Selection, NEVER};
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
/// at a time, and enters each set's cost in every round into its slot's
/// difference row over the seeds in id order (`ChargePass`). For `k > n`
/// the core stops after `n` picks, and the device's final argmax, which
/// finds nothing left to pick, is charged on its own.
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
    let pass = ChargePass::new(store, &seeds, &cover, used_slots, strategy, costs);
    let blocks = used_slots.div_ceil(WARP_SIZE);
    let by_id = if seeds.is_empty() {
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
    let scans: Vec<RoundScan> = pass.pos.iter().map(|&j| by_id[j as usize]).collect();

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
/// holds sets `s, s + used_slots, ..`. The pass takes 32 slots at a time and
/// decodes each of their sets once. It indexes the rounds by their seeds in
/// ascending id order, `j`, and keeps one difference row over `j` per slot:
/// the row's prefix sum at `j` is what the slot pays in the scan for the
/// `j`-th smallest seed.
///
/// * A seed's rank in a set, the number of members below it, comes from
///   `upto[v]`, the number of seeds with id `<= v`: member `m` is below the
///   `j`-th smallest seed exactly when `upto[m] <= j`, whether or not that
///   seed is itself a member.
/// * A set that no round covers is probed in every round and never found.
///   Its rank, and so its search's loads ([`search_probes`]), can change
///   only where `j` reaches a member's `upto`, so `len + 1` row entries
///   charge it in all `k` rounds. Only these sets read `upto` per member,
///   and none of their members is a seed.
/// * A set covered in round `c` is probed only by the seeds of rounds
///   `0..=c`. Each of those finds its rank by binary search and charges its
///   loads to its own `j` alone (an entry and its negation at `j + 1`). The
///   seed of round `c` is a member: it pays the found search and the count
///   updates (`charge_found`).
/// * Every set pays its coalesced `F[i]` load (`alu`) in every round, from
///   `j = 0` on.
///
/// After each block, the fold prefix-sums the block's 32 rows together and
/// keeps each seed's busiest slot for the makespan and the warp max. The
/// busy and transaction sums are linear in the charges, so they come from
/// the pass's totals, not from the rows. Entries are added with wrapping
/// arithmetic, and every prefix sum is a true, non-negative charge, so each
/// total equals what the round-by-round walk adds up. The caller maps `j`
/// back to rounds once, after the pass.
struct ChargePass<'a, S: ?Sized> {
    store: &'a S,
    /// Each set's covering round, or [`NEVER`].
    cover: &'a [u32],
    /// The seeds in round order.
    seeds: &'a [VertexId],
    /// Each round's seed's position `j` among the seeds by ascending id.
    pos: Vec<u32>,
    /// `upto[v]`: how many seeds have an id `<= v`.
    upto: Vec<u32>,
    used_slots: usize,
    strategy: ScanStrategy,
    costs: CostModel,
}

impl<'a, S: RrrSets + ?Sized> ChargePass<'a, S> {
    fn new(
        store: &'a S,
        seeds: &'a [VertexId],
        cover: &'a [u32],
        used_slots: usize,
        strategy: ScanStrategy,
        costs: CostModel,
    ) -> Self {
        let mut upto = vec![0; store.num_vertices()];
        for &v in seeds {
            upto[v as usize] = 1;
        }
        let mut seen = 0;
        for at in &mut upto {
            seen += *at;
            *at = seen;
        }
        // The seeds are distinct, so seed `v` is the `upto[v] - 1`-th
        // smallest.
        let pos = seeds.iter().map(|&v| upto[v as usize] - 1).collect();
        Self {
            store,
            cover,
            seeds,
            pos,
            upto,
            used_slots,
            strategy,
            costs,
        }
    }

    /// Every seed's totals over warp blocks `blocks`, by ascending seed id;
    /// block `b` is slots `32 b .. 32 b + 32`.
    fn blocks(&self, blocks: Range<usize>) -> Vec<RoundScan> {
        let num_sets = self.cover.len();
        let k = self.seeds.len();
        let mut piece = Piece {
            scans: vec![RoundScan::default(); k],
            rows: vec![0; (k + 1) * WARP_SIZE],
            load_steps: vec![0; k + 1],
        };
        let mut sets = 0;
        for b in blocks {
            let lo = b * WARP_SIZE;
            let hi = (lo + WARP_SIZE).min(self.used_slots);
            for from in (lo..num_sets).step_by(self.used_slots) {
                let to = (from + hi - lo).min(num_sets);
                sets += (to - from) as u64;
                self.store.for_each_set_in(from, to, &mut |i, members| {
                    self.charge_set(i - from, self.cover[i], members, &mut piece);
                });
            }
            // The entries past the last seed only balance the rows.
            let (rows, past) = piece.rows.split_at_mut(k * WARP_SIZE);
            past.fill(0);
            let mut cycles = [0u64; WARP_SIZE];
            for (steps, scan) in rows.chunks_exact_mut(WARP_SIZE).zip(&mut piece.scans) {
                for (lane, step) in cycles.iter_mut().zip(&*steps) {
                    *lane = lane.wrapping_add(*step);
                }
                steps.fill(0);
                let max = cycles.iter().fold(0, |max, &c| max.max(c));
                scan.makespan = scan.makespan.max(max);
                scan.warp_max += max;
            }
        }
        let flat = sets * self.costs.alu;
        let mut loads = 0u64;
        for (scan, &step) in piece.scans.iter_mut().zip(&piece.load_steps) {
            loads = loads.wrapping_add(step);
            scan.busy += flat + loads * self.costs.global_latency;
            scan.txns += loads;
        }
        piece.scans
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
    /// up to `cover`, the round that finds it.
    fn charge_set(&self, lane: usize, cover: u32, members: &[VertexId], piece: &mut Piece) {
        let latency = self.costs.global_latency;
        let len = members.len();
        piece.add(lane, 0, self.costs.alu);
        if cover == NEVER {
            let mut prev = self.loads(search_probes(len, 0, false));
            piece.add_loads(lane, 0, prev, latency);
            for (rank, &m) in (1..).zip(members) {
                let next = self.loads(search_probes(len, rank, false));
                let j = self.upto[m as usize] as usize;
                piece.add_loads(lane, j, next.wrapping_sub(prev), latency);
                prev = next;
            }
            return;
        }
        let cover = cover as usize;
        for (round, &seed) in self.seeds[..=cover].iter().enumerate() {
            let rank = members.partition_point(|&m| m < seed);
            let loads = self.loads(search_probes(len, rank, round == cover));
            let j = self.pos[round] as usize;
            piece.add_loads(lane, j, loads, latency);
            piece.add_loads(lane, j + 1, loads.wrapping_neg(), latency);
        }
        let j = self.pos[cover] as usize;
        let cycles = self.charge_found(len, &mut piece.scans[j]);
        piece.add(lane, j, cycles);
        piece.add(lane, j + 1, cycles.wrapping_neg());
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
        let cycles = self.costs.atomic_global * writes + self.costs.global_access;
        scan.txns += writes + 1;
        scan.atomics += len;
        scan.busy += cycles;
        cycles
    }
}

/// One worker's share of the charge pass, indexed by ascending seed id `j`.
struct Piece {
    /// Each seed's totals over the worker's blocks so far, except the busy
    /// and transaction sums of the membership searches and `F[i]` loads,
    /// which the worker adds at the end.
    scans: Vec<RoundScan>,
    /// The current block's difference rows of each slot's cycles,
    /// seed-major (`[j * 32 + lane]`, `j` up to the seed count inclusive).
    rows: Vec<u64>,
    /// The difference row of the membership searches' loads, summed over
    /// every slot the worker charged.
    load_steps: Vec<u64>,
}

impl Piece {
    /// Adds `cycles` to slot `lane`'s charge for seeds `j..` (wrapping, so a
    /// later entry can take it back).
    fn add(&mut self, lane: usize, j: usize, cycles: u64) {
        let at = &mut self.rows[j * WARP_SIZE + lane];
        *at = at.wrapping_add(cycles);
    }

    /// Adds `loads` dependent loads to slot `lane`'s searches for seeds
    /// `j..`, each costing `latency` cycles.
    fn add_loads(&mut self, lane: usize, j: usize, loads: u64, latency: u64) {
        self.add(lane, j, loads.wrapping_mul(latency));
        self.load_steps[j] = self.load_steps[j].wrapping_add(loads);
    }
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
