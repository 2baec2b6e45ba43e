//! Pins device selection's simulated cost model.
//!
//! * Golden values: `select_on_device` on fixed seeded stores must report
//!   exactly the cycles, clock bits, launches, per-iteration hardware
//!   counters and coverage recorded for the full walk over every set, for
//!   either store layout, either scan strategy and any rayon thread count.
//! * Replay: an `EimEngine` asked for the same selection over an unchanged
//!   store returns the same seeds and charges the same simulated time as a
//!   fresh computation; a grown store is selected afresh.

use eim::core::select::{select_on_device, DeviceSelection, ScanStrategy};
use eim::core::EimEngine;
use eim::gpusim::{Device, DeviceSpec, RunTrace};
use eim::graph::generators;
use eim::imm::{ImmConfig, ImmEngine, PackedRrrStore, PlainRrrStore, RrrStoreBuilder, Selection};
use eim::prelude::*;

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

#[test]
fn selection_cost_matches_the_full_walk_golden_values() {
    // 3,000 sets on the small spec: three rounds of 1,024 thread slots and
    // 94 rounds of 32 warp slots, with 1,928 sets covered by the end.
    let (plain, packed) = stores(150, 3_000, 7);
    let device = Device::new(DeviceSpec::test_small());
    let cases = [
        (ScanStrategy::ThreadPerSet, THREAD_TOTALS, &THREAD_ROWS),
        (ScanStrategy::WarpPerSet, WARP_TOTALS, &WARP_ROWS),
    ];
    for (strategy, want_totals, want_rows) in cases {
        for threads in [1, 4] {
            let runs = on_threads(threads, || {
                [
                    select_on_device(&device, &plain, 6, strategy),
                    select_on_device(&device, &packed, 6, strategy),
                ]
            });
            for (layout, r) in ["plain", "packed"].iter().zip(&runs) {
                let at = format!("{strategy:?}, {layout}, {threads} thread(s)");
                assert_eq!(r.selection.seeds, SEEDS, "{at}");
                assert_eq!(r.selection.num_sets, 3_000, "{at}");
                assert_eq!(totals(r), want_totals, "{at}");
                assert_eq!(rows(r), want_rows.to_vec(), "{at}");
            }
        }
    }
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
