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

use eim_gpusim::{Device, KernelHw, GLOBAL_TRANSACTION_BYTES, WARP_SIZE};
use eim_graph::VertexId;
use eim_imm::{RrrSets, Selection};
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

/// What one membership scan adds up, in a single pass over the live sets
/// of a contiguous range of slots (the slot sums land in the caller's
/// buffer).
#[derive(Default)]
struct ScanTotals {
    /// Global memory transactions of the probes and count updates.
    txns: u64,
    /// Count-decrement atomics.
    atomics: u64,
    /// Predicated-off lane-cycles of the atomic tail waves (WarpPerSet).
    tail_idle: u64,
    /// Sets that contain the new seed.
    found: Vec<usize>,
}

impl ScanTotals {
    /// Adds the totals of another slot range.
    fn merge(mut self, other: Self) -> Self {
        self.txns += other.txns;
        self.atomics += other.atomics;
        self.tail_idle += other.tail_idle;
        self.found.extend(other.found);
        self
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
    let mut counts: Vec<u32> = store.counts().to_vec();
    let mut covered = 0usize;
    let mut selected = vec![false; n];
    let mut seeds: Vec<VertexId> = Vec::with_capacity(k);
    let mut total_cycles: u64 = 0;
    let mut launches = 0u64;
    let mut iterations: Vec<SelectIteration> = Vec::with_capacity(k);

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
    // path outright (the same convention as `eim_imm::select_seeds`).
    let serial = rayon::current_num_threads() <= 1;

    // Sets are dealt round-robin to slots (the §3.5 schedule): round `r`
    // holds sets `r * used_slots ..`, one per slot. Only uncovered sets do
    // real work in a scan, so the host walks just those — one ascending
    // live list per round — and charges each slot's covered sets their
    // constant F[i] load in bulk. Integer sums commute, so every slot sum
    // is exactly what a walk over all sets adds up.
    assert!(u32::try_from(num_sets).is_ok(), "set ids must fit in u32");
    let mut live: Vec<Vec<u32>> = (0..num_sets)
        .step_by(used_slots)
        .map(|base| (base as u32..(base + used_slots).min(num_sets) as u32).collect())
        .collect();
    let mut covered_in_slot = vec![0u64; used_slots];
    let mut slot_sums = vec![0u64; used_slots];

    let iteration = |cycles: u64, launches: u64, hw: KernelHw| SelectIteration {
        cycles,
        launches,
        elapsed_us: spec.cycles_to_us(cycles) + launches as f64 * costs.kernel_launch_us,
        hw,
    };

    let warp_slots = spec.warp_slots() as u64;
    for _ in 0..k {
        let (start_cycles, start_launches) = (total_cycles, launches);
        // argmax_u C[u]: a grid-stride reduction over n counts.
        let argmax_cycles = (n as u64).div_ceil(spec.thread_slots() as u64) * costs.global_access
            + 10 * costs.shuffle;
        total_cycles += argmax_cycles;
        launches += 1;
        // The argmax is uniform grid-stride work: every warp slot busy for
        // the whole launch, no divergence; one coalesced 32-wide load per
        // warp over the n counts.
        let mut hw = KernelHw {
            occ_busy_cycles: argmax_cycles * warp_slots,
            occ_capacity_cycles: argmax_cycles * warp_slots,
            active_lane_cycles: WARP_SIZE as u64 * argmax_cycles,
            global_transactions: (n as u64).div_ceil(WARP_SIZE as u64),
            ..KernelHw::default()
        };
        hw.global_bytes = hw.global_transactions * GLOBAL_TRANSACTION_BYTES;
        let best = if serial {
            let mut best = (0u32, usize::MAX);
            for (v, &c) in counts.iter().enumerate() {
                if !selected[v] && (best.1 == usize::MAX || c > best.0) {
                    best = (c, v);
                }
            }
            best
        } else {
            (0..n)
                .into_par_iter()
                .filter(|&v| !selected[v])
                .map(|v| (counts[v], v))
                .reduce(
                    || (0u32, usize::MAX),
                    |a, b| {
                        if b.0 > a.0 || (b.0 == a.0 && b.1 < a.1) {
                            b
                        } else {
                            a
                        }
                    },
                )
        };
        if best.1 == usize::MAX {
            // The dangling argmax still launched: give it its own entry so
            // the breakdown sums to the totals.
            iterations.push(iteration(
                total_cycles - start_cycles,
                launches - start_launches,
                hw,
            ));
            break;
        }
        let v = best.1 as VertexId;
        selected[best.1] = true;
        seeds.push(v);

        // Membership scan (Algorithm 3) of one live set: its cost depends
        // on the probe count and — when found — the count-update work.
        let scan_set = |acc: &mut ScanTotals, slot: &mut u64, i: usize| {
            let (found, probes) = store.contains_with_probes(i, v);
            let len = store.set_len(i) as u64;
            let (cycles, txns) = match strategy {
                ScanStrategy::ThreadPerSet => {
                    // Each probe is a dependent, uncoalesced load into R.
                    let search = probes as u64 * costs.global_latency;
                    if found {
                        // Serial decrement of every member's count.
                        let c = search + costs.atomic_global * len + costs.global_access;
                        (c, probes as u64 + len + 1)
                    } else {
                        (search, probes as u64)
                    }
                }
                ScanStrategy::WarpPerSet => {
                    let rounds = (probes as u64).div_ceil(WARP_SEARCH_SPEEDUP);
                    let search = rounds * costs.global_latency;
                    if found {
                        // 32 lanes decrement cooperatively; the final
                        // partial wave predicates off its unused lanes.
                        let waves = len.div_ceil(WARP_SIZE as u64);
                        let c = search + costs.atomic_global * waves + costs.global_access;
                        acc.tail_idle += (waves * WARP_SIZE as u64 - len) * costs.atomic_global;
                        (c, rounds + waves + 1)
                    } else {
                        (search, rounds)
                    }
                }
            };
            *slot += costs.alu + cycles;
            acc.txns += txns;
            if found {
                acc.atomics += len;
                acc.found.push(i);
            }
        };
        // Fills the sums of slots `lo..lo + sums.len()`: each starts at its
        // covered sets' F[i] loads (coalesced, `alu` each), then every round
        // adds its live sets in that slot range — a sub-slice of the round's
        // ascending list, so disjoint slot ranges fill disjoint sums.
        let scan_slots = |lo: usize, sums: &mut [u64]| {
            let hi = lo + sums.len();
            for (sum, &c) in sums.iter_mut().zip(&covered_in_slot[lo..hi]) {
                *sum = c * costs.alu;
            }
            let mut acc = ScanTotals::default();
            for (base, ids) in (0..).step_by(used_slots).zip(&live) {
                let from = ids.partition_point(|&i| (i as usize) < base + lo);
                let to = ids.partition_point(|&i| (i as usize) < base + hi);
                for &i in &ids[from..to] {
                    let i = i as usize;
                    scan_set(&mut acc, &mut sums[i - base - lo], i);
                }
            }
            acc
        };
        let mut scan = if serial {
            scan_slots(0, &mut slot_sums)
        } else {
            let pieces = (rayon::current_num_threads() * 4).min(used_slots);
            let width = used_slots.div_ceil(pieces);
            let parts: Vec<(usize, &mut [u64])> = slot_sums
                .chunks_mut(width)
                .enumerate()
                .map(|(p, sums)| (p * width, sums))
                .collect();
            parts
                .into_par_iter()
                .map(|(lo, sums)| scan_slots(lo, sums))
                .reduce(ScanTotals::default, ScanTotals::merge)
        };
        // The scan drains when the busiest slot does; the per-slot sums
        // also feed the occupancy and divergence counters below.
        let scan_makespan = slot_sums.iter().copied().max().unwrap_or(0);
        total_cycles += scan_makespan;
        launches += 1;

        match strategy {
            ScanStrategy::ThreadPerSet => {
                // 32 consecutive thread slots form a warp; the warp is
                // resident until its slowest lane drains, and every cycle a
                // lane waits under that makespan is divergence.
                for warp in slot_sums.chunks(WARP_SIZE) {
                    let wmax = warp.iter().copied().max().unwrap_or(0);
                    let wsum: u64 = warp.iter().sum();
                    hw.occ_busy_cycles += wmax;
                    hw.active_lane_cycles += wsum;
                    hw.idle_lane_cycles += WARP_SIZE as u64 * wmax - wsum;
                }
            }
            ScanStrategy::WarpPerSet => {
                // Each warp slot is busy for its summed per-set cycles; the
                // only predicated-off lanes are the atomic tail waves.
                let scanned: u64 = slot_sums.iter().sum();
                hw.occ_busy_cycles += scanned;
                hw.active_lane_cycles +=
                    (WARP_SIZE as u64 * scanned).saturating_sub(scan.tail_idle);
                hw.idle_lane_cycles += scan.tail_idle;
            }
        }
        hw.occ_capacity_cycles += warp_slots * scan_makespan;
        hw.global_transactions += scan.txns;
        hw.global_bytes += scan.txns * GLOBAL_TRANSACTION_BYTES;
        hw.atomics += scan.atomics;

        // Apply the updates the scan performed (host mirror of the device
        // writes): count covered sets, decrement member counts.
        for &i in &scan.found {
            covered += 1;
            let (s, e) = store.set_bounds(i);
            for idx in s..e {
                counts[store.element(idx) as usize] -= 1;
            }
        }
        // Covered sets leave the live lists and join their slot's bulk
        // F[i] charge from the next scan on.
        scan.found.sort_unstable();
        let mut rest = &scan.found[..];
        for (base, ids) in (0..).step_by(used_slots).zip(&mut live) {
            let (here, later) = rest.split_at(rest.partition_point(|&i| i < base + used_slots));
            rest = later;
            if here.is_empty() {
                continue;
            }
            for &i in here {
                covered_in_slot[i - base] += 1;
            }
            let mut gone = here.iter().peekable();
            ids.retain(|&i| gone.next_if_eq(&&(i as usize)).is_none());
        }
        iterations.push(iteration(
            total_cycles - start_cycles,
            launches - start_launches,
            hw,
        ));
    }

    DeviceSelection {
        selection: Selection {
            seeds,
            covered_sets: covered,
            num_sets,
        },
        elapsed_us: spec.cycles_to_us(total_cycles) + launches as f64 * costs.kernel_launch_us,
        total_cycles,
        launches,
        iterations,
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
        // Slot sums, traffic totals and found sets come out of one pass,
        // split across workers by slot range on the parallel path.
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
