//! Pins device selection's simulated cost model.
//!
//! * Golden values: `select_on_device` on fixed seeded stores must report
//!   exactly the cycles, clock bits, launches, per-iteration hardware
//!   counters and coverage recorded for the full walk over every set, for
//!   either store layout, either scan strategy and any rayon thread count,
//!   including sets longer than the probe table's cap, emptied sets and a
//!   set count that leaves the last round of slots partly filled.
//! * Oracle: on random stores, `select_on_device` must report the totals and
//!   per-iteration rows of a literal round-by-round walk of Algorithm 3
//!   (a membership search per round, slot and set until the set is covered,
//!   its flag load after), for either layout, strategy and thread count,
//!   with empty and long sets, `k > n`, hundreds of seeds, and more slots
//!   than sets as well as fewer.
//! * Replay: an `EimEngine` asked for the same selection over an unchanged
//!   store returns the same seeds and charges the same simulated time as a
//!   fresh computation; a grown store is selected afresh.

use eim::core::select::SelectIteration;
use eim::core::select::{select_on_device, DeviceSelection, ScanStrategy};
use eim::core::EimEngine;
use eim::gpusim::{Device, DeviceSpec, KernelHw, RunTrace, GLOBAL_TRANSACTION_BYTES, WARP_SIZE};
use eim::graph::generators;
use eim::imm::{
    select_seeds_reference, ImmConfig, ImmEngine, PackedRrrStore, PlainRrrStore, RrrSets,
    RrrStoreBuilder, Selection,
};
use eim::prelude::*;
use proptest::prelude::*;

/// SplitMix64: a self-contained generator, so the stores never change with
/// the vendored `rand`.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Appends `sets` sorted sets of 1..=12 draws over `0..n`, skewed toward low
/// ids so that a few seeds cover most sets and later scans see many covered
/// ones.
fn fill<S: RrrStoreBuilder>(store: &mut S, n: u64, sets: usize, seed: u64) {
    let mut state = seed;
    for _ in 0..sets {
        let len = 1 + next(&mut state) % 12;
        let mut set: Vec<u32> = (0..len)
            .map(|_| ((next(&mut state) % n) * (next(&mut state) % n) / n) as u32)
            .collect();
        set.sort_unstable();
        set.dedup();
        store.append_set(&set);
    }
}

fn stores(n: u64, sets: usize, seed: u64) -> (PlainRrrStore, PackedRrrStore) {
    let mut plain = PlainRrrStore::new(n as usize);
    fill(&mut plain, n, sets, seed);
    let mut packed = PackedRrrStore::new(n as usize);
    fill(&mut packed, n, sets, seed);
    (plain, packed)
}

/// One iteration as `[cycles, launches, elapsed_us bits, occ_busy,
/// occ_capacity, active_lanes, idle_lanes, global_txns, global_bytes,
/// shared_txns, atomics, atomic_retries, shared_spill_bytes, mallocs]`.
type Row = [u64; 14];

/// `(total_cycles, elapsed_us bits, launches, covered_sets)`.
type Totals = (u64, u64, u64, usize);

fn rows(r: &DeviceSelection) -> Vec<Row> {
    r.iterations
        .iter()
        .map(|it| {
            let h = &it.hw;
            [
                it.cycles,
                it.launches,
                it.elapsed_us.to_bits(),
                h.occ_busy_cycles,
                h.occ_capacity_cycles,
                h.active_lane_cycles,
                h.idle_lane_cycles,
                h.global_transactions,
                h.global_bytes,
                h.shared_transactions,
                h.atomics,
                h.atomic_retries,
                h.shared_spill_bytes,
                h.mallocs,
            ]
        })
        .collect()
}

fn totals(r: &DeviceSelection) -> Totals {
    (
        r.total_cycles,
        r.elapsed_us.to_bits(),
        r.launches,
        r.selection.covered_sets,
    )
}

fn on_threads<T: Send>(threads: usize, f: impl FnOnce() -> T + Send) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
        .install(f)
}

const SEEDS: [u32; 6] = [0, 1, 2, 3, 5, 4];

const THREAD_TOTALS: Totals = (23778, 0x4054_f1ca_c083_126e, 12, 1928);
#[rustfmt::skip]
const THREAD_ROWS: [Row; 6] = [
    [4519, 2, 0x402d_09ba_5e35_3f7d, 126314, 144608, 2880520, 1109944, 15706, 2010368, 0, 5894, 0, 0, 0],
    [4199, 2, 0x402c_65e3_53f7_ced9, 113998, 134368, 1991796, 1604556, 9545, 1221760, 0, 2795, 0, 0, 0],
    [4051, 2, 0x402c_1a1c_ac08_3127, 103110, 129632, 1575200, 1672736, 7099, 908672, 0, 1770, 0, 0, 0],
    [3627, 2, 0x402b_4106_24dd_2f1a, 96058, 116064, 1309200, 1713072, 5696, 729088, 0, 1268, 0, 0, 0],
    [3579, 2, 0x402b_2872_b020_c49c, 90078, 114528, 1112364, 1718548, 4785, 612480, 0, 1023, 0, 0, 0],
    [3803, 2, 0x402b_9b22_d0e5_6042, 85438, 121696, 959104, 1723328, 4120, 527360, 0, 871, 0, 0, 0],
];

const WARP_TOTALS: Totals = (127420, 0x4067_6d70_a3d7_0a3e, 12, 1928);
#[rustfmt::skip]
const WARP_ROWS: [Row; 6] = [
    [30026, 2, 0x4044_0353_f7ce_d916, 948064, 960832, 29832720, 453744, 4555, 583040, 0, 5894, 0, 0, 0],
    [24574, 2, 0x4041_4978_d4fd_f3b6, 693780, 786368, 21920008, 229368, 3002, 384256, 0, 2795, 0, 0, 0],
    [21050, 2, 0x403f_0ccc_cccc_cccd, 570812, 673600, 18058736, 155664, 2360, 302080, 0, 1770, 0, 0, 0],
    [19026, 2, 0x403d_06a7_ef9d_b22d, 489996, 608832, 15507424, 120864, 1980, 253440, 0, 1268, 0, 0, 0],
    [17750, 2, 0x403b_c000_0000_0000, 429048, 568000, 13576552, 101400, 1717, 219776, 0, 1023, 0, 0, 0],
    [14994, 2, 0x4038_fe76_c8b4_3958, 378952, 479808, 11982120, 92760, 1521, 194688, 0, 871, 0, 0, 0],
];

/// Selects `k` seeds with each strategy, on both layouts and on 1 and 4
/// rayon threads, and checks every run against that strategy's recorded
/// seeds, totals and per-iteration rows.
fn assert_golden(
    (plain, packed): &(PlainRrrStore, PackedRrrStore),
    k: usize,
    seeds: &[u32],
    cases: [(ScanStrategy, Totals, &[Row]); 2],
) {
    let device = Device::new(DeviceSpec::test_small());
    for (strategy, want_totals, want_rows) in cases {
        for threads in [1, 4] {
            let runs = on_threads(threads, || {
                [
                    select_on_device(&device, plain, k, strategy),
                    select_on_device(&device, packed, k, strategy),
                ]
            });
            for (layout, r) in ["plain", "packed"].iter().zip(&runs) {
                let at = format!("{strategy:?}, {layout}, {threads} thread(s)");
                assert_eq!(r.selection.seeds, seeds, "{at}");
                assert_eq!(r.selection.num_sets, plain.num_sets(), "{at}");
                assert_eq!(totals(r), want_totals, "{at}");
                assert_eq!(rows(r), want_rows, "{at}");
            }
        }
    }
}

#[test]
fn selection_cost_matches_the_full_walk_golden_values() {
    // 3,000 sets on the small spec: three rounds of 1,024 thread slots and
    // 94 rounds of 32 warp slots, with 1,928 sets covered by the end.
    let stores = stores(150, 3_000, 7);
    assert_eq!(stores.0.num_sets(), 3_000);
    assert_golden(
        &stores,
        6,
        &SEEDS,
        [
            (ScanStrategy::ThreadPerSet, THREAD_TOTALS, &THREAD_ROWS),
            (ScanStrategy::WarpPerSet, WARP_TOTALS, &WARP_ROWS),
        ],
    );
}

#[test]
fn selection_past_n_golden_values() {
    // k > n: four seeds cover all 40 sets, the fourth scan charges only
    // covered sets, and the fifth argmax finds nothing left to select.
    let (plain, packed) = stores(4, 40, 3);
    let device = Device::new(DeviceSpec::test_small());
    #[rustfmt::skip]
    let want_rows: [Row; 5] = [
        [757, 2, 0x4025_8395_8106_24dd, 3050, 24224, 26256, 19760, 184, 23552, 0, 75, 0, 0, 0],
        [733, 2, 0x4025_774b_c6a7_ef9e, 3026, 23456, 3720, 41528, 15, 1920, 0, 5, 0, 0, 0],
        [409, 2, 0x4024_d168_72b0_20c5, 2022, 13088, 2060, 11060, 4, 512, 0, 1, 0, 0, 0],
        [53, 2, 0x4024_1b22_d0e5_6042, 1666, 1696, 1704, 24, 1, 128, 0, 0, 0, 0, 0],
        [52, 1, 0x4014_353f_7ced_9168, 1664, 1664, 1664, 0, 1, 128, 0, 0, 0, 0, 0],
    ];
    for threads in [1, 4] {
        let runs = on_threads(threads, || {
            [
                select_on_device(&device, &plain, 6, ScanStrategy::ThreadPerSet),
                select_on_device(&device, &packed, 6, ScanStrategy::ThreadPerSet),
            ]
        });
        for r in &runs {
            assert_eq!(r.selection.seeds, [0, 1, 2, 3]);
            assert_eq!(totals(r), (2004, 0x4047_8083_126e_978d, 9, 40));
            assert_eq!(rows(r), want_rows.to_vec());
        }
    }
}

/// 3,333 sets over 800 vertices on the small spec: three and a quarter
/// rounds of 1,024 thread slots, 104 and a bit rounds of 32 warp slots.
/// Most sets are short and skewed toward high ids, so the seeds rank deep
/// inside the long ones; every 37th set holds 100 to 600 members, past the
/// probe table's cap; every 41st is emptied by a patch after ingest.
fn long_and_empty_stores() -> (PlainRrrStore, PackedRrrStore) {
    let (n, num_sets) = (800u64, 3_333usize);
    let mut state = 29;
    let sets: Vec<Vec<u32>> = (0..num_sets)
        .map(|j| {
            if j % 37 == 0 {
                let len = 100 + next(&mut state) % 501;
                (0..n as u32)
                    .filter(|_| next(&mut state) % n < len)
                    .collect()
            } else {
                let len = next(&mut state) % 13;
                let mut set: Vec<u32> = (0..len)
                    .map(|_| (n - 1 - (next(&mut state) % n) * (next(&mut state) % n) / n) as u32)
                    .collect();
                set.sort_unstable();
                set.dedup();
                set
            }
        })
        .collect();
    let emptied: Vec<usize> = (0..num_sets).step_by(41).collect();
    let mut plain = PlainRrrStore::new(n as usize);
    let mut packed = PackedRrrStore::new(n as usize);
    for set in &sets {
        plain.append_set(set);
        packed.append_set(set);
    }
    plain.patch_sets(&emptied, &[], &vec![0; emptied.len()]);
    packed.patch_sets(&emptied, &[], &vec![0; emptied.len()]);
    (plain, packed)
}

const LONG_SEEDS: [u32; 10] = [799, 798, 797, 796, 795, 790, 786, 794, 793, 763];

const LONG_THREAD_TOTALS: Totals = (120625, 0x406b_9400_0000_0000, 20, 1125);
#[rustfmt::skip]
const LONG_THREAD_ROWS: [Row; 10] = [
    [18579, 2, 0x403c_9439_5810_624e, 408732, 594528, 2678849, 10348991, 24982, 3197696, 0, 17215, 0, 0, 0],
    [16044, 2, 0x403a_0b43_9581_0625, 235745, 513408, 2155549, 5336707, 12782, 1636096, 0, 5922, 0, 0, 0],
    [15423, 2, 0x4039_6c49_ba5e_3540, 170932, 493536, 1965685, 3452555, 10470, 1340160, 0, 4126, 0, 0, 0],
    [16840, 2, 0x403a_d70a_3d70_a3d7, 166565, 538880, 1829285, 3449211, 9298, 1190144, 0, 3356, 0, 0, 0],
    [11524, 2, 0x4035_8624_dd2f_1aa0, 123913, 368768, 1686753, 2226879, 7353, 941184, 0, 1768, 0, 0, 0],
    [9339, 2, 0x4033_56c8_b439_5810, 121485, 298848, 1628377, 2207559, 6974, 892672, 0, 1586, 0, 0, 0],
    [12843, 2, 0x4036_d7ce_d916_872b, 109233, 410976, 1560309, 1883563, 6199, 793472, 0, 998, 0, 0, 0],
    [11223, 2, 0x4035_3916_872b_020c, 104921, 359136, 1436341, 1869547, 5865, 750720, 0, 1088, 0, 0, 0],
    [3955, 2, 0x402b_e8f5_c28f_5c29, 90421, 126560, 1361521, 1480367, 5152, 659456, 0, 587, 0, 0, 0],
    [4855, 2, 0x402d_b5c2_8f5c_28f6, 99220, 155360, 1430357, 1693099, 5319, 680832, 0, 523, 0, 0, 0],
];

const LONG_WARP_TOTALS: Totals = (256908, 0x4076_4e87_2b02_0c4a, 20, 1125);
#[rustfmt::skip]
const LONG_WARP_ROWS: [Row; 10] = [
    [31908, 2, 0x4044_f439_5810_624e, 966341, 1021056, 30748424, 122904, 4078, 521984, 0, 17215, 0, 0, 0],
    [29592, 2, 0x4043_cbc6_a7ef_9db2, 870397, 946944, 27713616, 87504, 3325, 425600, 0, 5922, 0, 0, 0],
    [27925, 2, 0x4042_f666_6666_6666, 816313, 893600, 25998192, 72240, 3048, 390144, 0, 4126, 0, 0, 0],
    [27193, 2, 0x4042_98b4_3958_1062, 773777, 870176, 24644672, 64608, 2866, 366848, 0, 3356, 0, 0, 0],
    [25169, 2, 0x4041_95a1_cac0_8312, 734661, 805408, 23396320, 61248, 2677, 342656, 0, 1768, 0, 0, 0],
    [24880, 2, 0x4041_70a3_d70a_3d70, 700501, 796160, 22316496, 47952, 2525, 323200, 0, 1586, 0, 0, 0],
    [23656, 2, 0x4040_d3f7_ced9_1687, 671865, 756992, 21401392, 46704, 2404, 307712, 0, 998, 0, 0, 0],
    [22345, 2, 0x4040_2c28_f5c2_8f5c, 647113, 715040, 20612256, 43776, 2317, 296576, 0, 1088, 0, 0, 0],
    [22448, 2, 0x4040_3958_1062_4dd3, 623185, 718336, 19848360, 41976, 2218, 283904, 0, 587, 0, 0, 0],
    [21792, 2, 0x403f_cac0_8312_6e98, 601061, 697344, 19141928, 40440, 2137, 273536, 0, 523, 0, 0, 0],
];

#[test]
fn selection_cost_of_long_and_empty_sets_golden_values() {
    let stores = long_and_empty_stores();
    assert_eq!(stores.0.num_sets(), 3_333);
    assert_golden(
        &stores,
        10,
        &LONG_SEEDS,
        [
            (
                ScanStrategy::ThreadPerSet,
                LONG_THREAD_TOTALS,
                &LONG_THREAD_ROWS,
            ),
            (ScanStrategy::WarpPerSet, LONG_WARP_TOTALS, &LONG_WARP_ROWS),
        ],
    );
}

/// Algorithm 3 as the device runs it, one round at a time: the round's
/// argmax over the `n` counts, then a membership scan in which each slot
/// takes its sets round-robin and binary-searches each one for the round's
/// seed ([`RrrSets::contains_with_probes`]), unless an earlier round covered
/// the set; every set also pays its flag load `F[i]` in every round. A set
/// the search finds decrements each member's count. Returns the seeds, the
/// per-iteration rows and the totals, as `select_on_device` reports them.
fn walk<S: RrrSets>(
    spec: &DeviceSpec,
    store: &S,
    k: usize,
    strategy: ScanStrategy,
) -> (Vec<u32>, Vec<Row>, Totals) {
    let costs = spec.costs;
    let (n, num_sets) = (store.num_vertices(), store.num_sets());
    let seeds = select_seeds_reference(store, k.min(n)).seeds;
    let slots = match strategy {
        ScanStrategy::ThreadPerSet => spec.thread_slots(),
        ScanStrategy::WarpPerSet => spec.warp_slots(),
    };
    let lanes = WARP_SIZE as u64;
    let warp_slots = spec.warp_slots() as u64;
    let argmax_cycles =
        (n as u64).div_ceil(spec.thread_slots() as u64) * costs.global_access + 10 * costs.shuffle;
    let argmax_hw = KernelHw {
        occ_busy_cycles: argmax_cycles * warp_slots,
        occ_capacity_cycles: argmax_cycles * warp_slots,
        active_lane_cycles: lanes * argmax_cycles,
        global_transactions: (n as u64).div_ceil(lanes),
        global_bytes: (n as u64).div_ceil(lanes) * GLOBAL_TRANSACTION_BYTES,
        ..KernelHw::default()
    };
    let iteration = |cycles: u64, launches: u64, hw: KernelHw| SelectIteration {
        cycles,
        launches,
        elapsed_us: spec.cycles_to_us(cycles) + launches as f64 * costs.kernel_launch_us,
        hw,
    };

    let mut covered = vec![false; num_sets];
    let mut iterations = Vec::new();
    for &seed in &seeds {
        let mut slot_cycles = vec![0u64; slots];
        let (mut txns, mut atomics, mut tail_idle) = (0, 0, 0);
        for (i, is_covered) in covered.iter_mut().enumerate() {
            let slot = &mut slot_cycles[i % slots];
            *slot += costs.alu;
            if *is_covered {
                continue;
            }
            let (found, probes) = store.contains_with_probes(i, seed);
            let loads = match strategy {
                ScanStrategy::ThreadPerSet => probes as u64,
                ScanStrategy::WarpPerSet => (probes as u64).div_ceil(4),
            };
            *slot += loads * costs.global_latency;
            txns += loads;
            if found {
                *is_covered = true;
                let len = store.set_len(i) as u64;
                let writes = match strategy {
                    ScanStrategy::ThreadPerSet => len,
                    ScanStrategy::WarpPerSet => {
                        let waves = len.div_ceil(lanes);
                        tail_idle += (waves * lanes - len) * costs.atomic_global;
                        waves
                    }
                };
                *slot += costs.atomic_global * writes + costs.global_access;
                txns += writes + 1;
                atomics += len;
            }
        }
        let makespan = slot_cycles.iter().copied().max().unwrap_or(0);
        let busy: u64 = slot_cycles.iter().sum();
        let warp_max: u64 = slot_cycles
            .chunks(WARP_SIZE)
            .map(|warp| warp.iter().copied().max().unwrap_or(0))
            .sum();
        let mut hw = argmax_hw;
        match strategy {
            ScanStrategy::ThreadPerSet => {
                hw.occ_busy_cycles += warp_max;
                hw.active_lane_cycles += busy;
                hw.idle_lane_cycles += lanes * warp_max - busy;
            }
            ScanStrategy::WarpPerSet => {
                hw.occ_busy_cycles += busy;
                hw.active_lane_cycles += lanes * busy - tail_idle;
                hw.idle_lane_cycles += tail_idle;
            }
        }
        hw.occ_capacity_cycles += warp_slots * makespan;
        hw.global_transactions += txns;
        hw.global_bytes += txns * GLOBAL_TRANSACTION_BYTES;
        hw.atomics += atomics;
        iterations.push(iteration(argmax_cycles + makespan, 2, hw));
    }
    if seeds.len() < k {
        iterations.push(iteration(argmax_cycles, 1, argmax_hw));
    }
    let total_cycles: u64 = iterations.iter().map(|it| it.cycles).sum();
    let launches: u64 = iterations.iter().map(|it| it.launches).sum();
    let elapsed_us = spec.cycles_to_us(total_cycles) + launches as f64 * costs.kernel_launch_us;
    let result = DeviceSelection {
        selection: Selection {
            seeds: seeds.clone(),
            covered_sets: covered.iter().filter(|&&c| c).count(),
            num_sets,
        },
        elapsed_us,
        total_cycles,
        launches,
        iterations,
    };
    (seeds, rows(&result), totals(&result))
}

/// `sets` sets over `0..n` drawn from `seed` and skewed toward low ids;
/// every `long`-th set draws each vertex with probability about 1/2 (past
/// the probe table's 64 entries once `n` is large enough), and every
/// `empty`-th set is empty.
fn random_stores(
    n: u64,
    sets: usize,
    seed: u64,
    long: usize,
    empty: usize,
) -> (PlainRrrStore, PackedRrrStore) {
    let mut state = seed;
    let mut plain = PlainRrrStore::new(n as usize);
    let mut packed = PackedRrrStore::new(n as usize);
    for j in 0..sets {
        let set: Vec<u32> = if j % empty == 0 {
            Vec::new()
        } else if j % long == 0 {
            (0..n as u32)
                .filter(|_| next(&mut state).is_multiple_of(2))
                .collect()
        } else {
            let len = 1 + next(&mut state) % 12;
            let mut set: Vec<u32> = (0..len)
                .map(|_| ((next(&mut state) % n) * (next(&mut state) % n) / n) as u32)
                .collect();
            set.sort_unstable();
            set.dedup();
            set
        };
        plain.append_set(&set);
        packed.append_set(&set);
    }
    (plain, packed)
}

/// Checks `select_on_device` against [`walk`] for both strategies, both
/// layouts and 1 and 4 rayon threads.
fn assert_matches_walk((plain, packed): &(PlainRrrStore, PackedRrrStore), k: usize) {
    let spec = DeviceSpec::test_small();
    let device = Device::new(spec);
    for strategy in [ScanStrategy::ThreadPerSet, ScanStrategy::WarpPerSet] {
        let (seeds, want_rows, want_totals) = walk(&spec, plain, k, strategy);
        for threads in [1, 4] {
            let runs = on_threads(threads, || {
                [
                    select_on_device(&device, plain, k, strategy),
                    select_on_device(&device, packed, k, strategy),
                ]
            });
            for (layout, r) in ["plain", "packed"].iter().zip(&runs) {
                let at = format!(
                    "{strategy:?}, {layout}, {threads} thread(s), n = {}, {} sets, k = {k}",
                    plain.num_vertices(),
                    plain.num_sets()
                );
                prop_assert_eq!(&r.selection.seeds, &seeds, "{}", at);
                prop_assert_eq!(totals(r), want_totals, "{}", at);
                prop_assert_eq!(rows(r), want_rows.clone(), "{}", at);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn charges_match_a_round_by_round_walk(
        n in 1u64..200,
        sets in 0usize..2_500,
        k in 1usize..16,
        seed in any::<u64>(),
        long in 2usize..40,
        empty in 2usize..30,
    ) {
        // 1,024 thread slots and 32 warp slots: most stores have more sets
        // than warp slots, and either more or fewer than thread slots.
        assert_matches_walk(&random_stores(n, sets, seed, long, empty), k);
    }

    #[test]
    fn charges_match_the_walk_past_n(
        n in 1u64..10,
        sets in 0usize..80,
        extra in 1usize..5,
        seed in any::<u64>(),
        empty in 2usize..10,
    ) {
        assert_matches_walk(&random_stores(n, sets, seed, usize::MAX, empty), n as usize + extra);
    }

    #[test]
    fn charges_match_the_walk_with_hundreds_of_seeds(
        n in 300u64..420,
        sets in 100usize..900,
        k in 256usize..300,
        seed in any::<u64>(),
        long in 5usize..40,
    ) {
        assert_matches_walk(&random_stores(n, sets, seed, long, usize::MAX), k);
    }
}

fn lt_graph() -> Graph {
    generators::barabasi_albert(600, 4, WeightModel::WeightedCascade, 21)
}

fn lt_config() -> ImmConfig {
    ImmConfig::paper_default()
        .with_k(8)
        .with_epsilon(0.3)
        .with_seed(17)
        .with_model(DiffusionModel::LinearThreshold)
}

/// Selects `k` on `engine` and checks the result and the simulated time it
/// charged against a fresh computation on a fresh device.
fn select_matches_fresh(engine: &mut EimEngine<'_>, spec: DeviceSpec, k: usize) -> Selection {
    let before = engine.elapsed_us();
    let got = engine.select(k);
    let after = engine.elapsed_us();
    let fresh = select_on_device(
        &Device::new(spec),
        engine.store(),
        k,
        ScanStrategy::ThreadPerSet,
    );
    assert_eq!(got, fresh.selection);
    assert_eq!(
        after.to_bits(),
        (before + fresh.elapsed_us).to_bits(),
        "clock moved {} us, fresh selection costs {} us",
        after - before,
        fresh.elapsed_us
    );
    got
}

#[test]
fn repeated_selection_replays_and_grown_store_reselects() {
    let graph = lt_graph();
    let spec = DeviceSpec::rtx_a6000();
    for devices in [1, 4] {
        let mut engine = if devices == 1 {
            EimEngine::new(
                &graph,
                lt_config(),
                Device::new(spec),
                ScanStrategy::ThreadPerSet,
            )
        } else {
            EimEngine::with_telemetry(
                &graph,
                lt_config(),
                spec,
                devices,
                &RunTrace::disabled(),
                true,
            )
        }
        .unwrap();
        engine.extend_to(2_000).unwrap();
        let first = select_matches_fresh(&mut engine, spec, 8);
        let again = select_matches_fresh(&mut engine, spec, 8);
        assert_eq!(first, again, "{devices} device(s)");
        // Another k over the same store is its own selection.
        select_matches_fresh(&mut engine, spec, 3);
        engine.extend_to(5_000).unwrap();
        let grown = select_matches_fresh(&mut engine, spec, 8);
        assert!(grown.num_sets > first.num_sets, "{devices} device(s)");
        assert_eq!(engine.store().num_sets(), grown.num_sets);
    }
}
