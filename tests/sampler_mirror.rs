//! The fused sampler reads a graph view, never the representation behind
//! it. Every view of one graph — the plain CSC, and the log-encoded CSC
//! built from the host graph, packed with plain weights, or packed with
//! derived `1/d` weights — must yield byte-identical batches and identical
//! simulated launch statistics, for both diffusion models and with source
//! elimination on and off. Golden values pin the simulated charges across
//! commits: how a view hands out its rows is host emulation and must not
//! move a single cycle.

use eim::bitpack::PackedCsc;
use eim::core::{DeviceGraph, PackedDeviceGraph, PlainDeviceGraph};
use eim::gpusim::{Device, DeviceSpec};
use eim::graph::{generators, VertexId};
use eim::prelude::*;
use eim_core::sampler::{sample_batch, sample_indices, SampleBatch};

const SEED: u64 = 2024;
const COUNT: usize = 300;
/// Scattered, unsorted logical indices, with a repeat — what the streaming
/// resample kernel receives.
const INDICES: [u64; 12] = [5, 1_000_003, 17, 4, 250, 251, 9_999, 17, 0, 77, 123_456, 64];

fn test_graph() -> Graph {
    generators::rmat(
        400,
        2_400,
        generators::RmatParams::GRAPH500,
        WeightModel::WeightedCascade,
        41,
    )
}

fn device() -> Device {
    Device::new(DeviceSpec::rtx_a6000_with_mem(512 << 20))
}

/// FNV-1a over a batch's canonical bytes: per slot its kept flag, length
/// and members, then the coverage histogram.
fn batch_digest(b: &SampleBatch) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for set in b.sets.iter() {
        match set {
            Some(s) => {
                mix(s.len() as u64 + 1);
                s.iter().for_each(|&v| mix(v as u64));
            }
            None => mix(0),
        }
    }
    b.coverage.iter().for_each(|&c| mix(c as u64));
    h
}

/// Both sampler entry points over one view, for every model and flag.
fn batches<G: DeviceGraph>(graph: &G) -> Vec<(String, SampleBatch)> {
    let mut out = Vec::new();
    for model in [
        DiffusionModel::IndependentCascade,
        DiffusionModel::LinearThreshold,
    ] {
        for elim in [false, true] {
            let d = device();
            let b = sample_batch(&d, graph, model, SEED, 0, COUNT, elim).unwrap();
            out.push((format!("{model}/elim={elim}/batch"), b));
            let b = sample_indices(&d, graph, model, SEED, &INDICES, elim).unwrap();
            out.push((format!("{model}/elim={elim}/indices"), b));
        }
    }
    out
}

#[test]
fn every_graph_view_samples_identically() {
    let g = test_graph();
    let reference = batches(&PlainDeviceGraph::new(&g));
    let views: Vec<(&str, Vec<(String, SampleBatch)>)> = vec![
        ("from_graph", batches(&PackedDeviceGraph::from_graph(&g))),
        (
            "new(from_graph)",
            batches(&PackedDeviceGraph::new(PackedCsc::from_graph(&g))),
        ),
        (
            "new(from_graph_derived)",
            batches(&PackedDeviceGraph::new(PackedCsc::from_graph_derived(&g))),
        ),
    ];
    for (view, runs) in &views {
        for ((what, want), (_, got)) in reference.iter().zip(runs) {
            assert_eq!(got.sets, want.sets, "{view} {what}: sets");
            assert_eq!(got.sources, want.sources, "{view} {what}: sources");
            assert_eq!(got.coverage, want.coverage, "{view} {what}: coverage");
            assert_eq!(got.counters, want.counters, "{view} {what}: counters");
            assert_eq!(got.stats, want.stats, "{view} {what}: launch stats");
        }
    }
}

#[test]
fn recorded_sources_are_each_samples_first_draw() {
    use eim::diffusion::sample_rng;
    use rand::Rng;
    let g = test_graph();
    let n = g.num_vertices() as VertexId;
    let view = PackedDeviceGraph::from_graph(&g);
    for (what, b) in batches(&view) {
        let indices: Vec<u64> = if what.ends_with("indices") {
            INDICES.to_vec()
        } else {
            (0..COUNT as u64).collect()
        };
        assert_eq!(b.sources.len(), indices.len(), "{what}");
        for (j, &idx) in indices.iter().enumerate() {
            let source: VertexId = sample_rng(SEED, idx).gen_range(0..n);
            assert_eq!(b.sources[j], source, "{what}: slot {j}");
        }
    }
}

#[test]
fn launch_charges_match_pinned_values() {
    // Recorded with `PackedDeviceGraph::new(PackedCsc::from_graph(&g))`
    // before the view kept a decoded neighbor mirror: (total cycles,
    // global transactions, atomics, batch digest) per run of `batches`.
    const GOLDEN: [(&str, u64, u64, u64, u64); 8] = [
        (
            "IC/elim=false/batch",
            294_840,
            3_424,
            4_236,
            13_485_781_870_129_867_396,
        ),
        (
            "IC/elim=false/indices",
            29_181,
            318,
            441,
            18_304_276_901_424_476_917,
        ),
        (
            "IC/elim=true/batch",
            273_560,
            3_248,
            3_584,
            5_629_693_233_835_427_864,
        ),
        (
            "IC/elim=true/indices",
            28_653,
            315,
            423,
            11_237_085_243_097_470_078,
        ),
        (
            "LT/elim=false/batch",
            374_765,
            4_908,
            6_351,
            1_618_495_719_574_010_281,
        ),
        (
            "LT/elim=false/indices",
            16_609,
            217,
            282,
            5_353_609_642_309_338_604,
        ),
        (
            "LT/elim=true/batch",
            357_325,
            4_780,
            5_795,
            6_338_663_111_015_890_121,
        ),
        (
            "LT/elim=true/indices",
            16_081,
            214,
            264,
            7_246_649_270_540_998_343,
        ),
    ];
    let g = test_graph();
    let got: Vec<(String, u64, u64, u64, u64)> = batches(&PackedDeviceGraph::from_graph(&g))
        .into_iter()
        .map(|(what, b)| {
            (
                what,
                b.stats.total_cycles,
                b.stats.hw.global_transactions,
                b.stats.hw.atomics,
                batch_digest(&b),
            )
        })
        .collect();
    for ((what, cycles, tx, atomics, digest), want) in got.iter().zip(GOLDEN) {
        assert_eq!(
            (what.as_str(), *cycles, *tx, *atomics, *digest),
            want,
            "charges moved"
        );
    }
    assert_eq!(got.len(), GOLDEN.len());
}

#[test]
fn lt_charges_with_many_samples_per_block_match_pinned_values() {
    // `test_small` runs 16 blocks, so a 1,000-sample batch gives every block
    // 62 or 63 LT walks and 403 indices give it 25 or 26: each block refills
    // its walks in flight many times over. Recorded at the commit before
    // the sampler kept several LT walks in flight per block: (total cycles,
    // max block cycles, global transactions, atomics, makespan bits, batch
    // digest) per run.
    const GOLDEN: [(&str, u64, u64, u64, u64, u64, u64); 4] = [
        (
            "LT/elim=false/batch",
            1_265_697,
            88_985,
            16_993,
            21_990,
            4_644_524_771_574_359_785,
            17_990_673_805_539_274_339,
        ),
        (
            "LT/elim=false/indices",
            516_060,
            39_562,
            6_917,
            8_973,
            4_639_355_008_638_045_389,
            11_476_235_678_534_428_248,
        ),
        (
            "LT/elim=true/batch",
            1_210_017,
            85_393,
            16_597,
            20_198,
            4_644_292_554_718_573_494,
            5_719_369_888_546_918_250,
        ),
        (
            "LT/elim=true/indices",
            494_148,
            38_402,
            6_764,
            8_264,
            4_639_188_938_401_786_102,
            12_069_975_772_596_262_136,
        ),
    ];
    let g = test_graph();
    let view = PackedDeviceGraph::from_graph(&g);
    let d = Device::new(DeviceSpec::test_small());
    let indices: Vec<u64> = (0..400u64)
        .map(|i| i * 7_919 % 100_003)
        .chain([17, 5, 17])
        .collect();
    let lt = DiffusionModel::LinearThreshold;
    let mut got = Vec::new();
    for elim in [false, true] {
        for (what, b) in [
            ("batch", sample_batch(&d, &view, lt, SEED, 11, 1_000, elim)),
            (
                "indices",
                sample_indices(&d, &view, lt, SEED, &indices, elim),
            ),
        ] {
            let b = b.unwrap();
            got.push((
                format!("LT/elim={elim}/{what}"),
                b.stats.total_cycles,
                b.stats.max_block_cycles,
                b.stats.hw.global_transactions,
                b.stats.hw.atomics,
                b.stats.elapsed_us.to_bits(),
                batch_digest(&b),
            ));
        }
    }
    assert_eq!(got.len(), GOLDEN.len());
    for ((what, cycles, max_block, tx, atomics, makespan, digest), want) in got.iter().zip(GOLDEN) {
        assert_eq!(
            (
                what.as_str(),
                *cycles,
                *max_block,
                *tx,
                *atomics,
                *makespan,
                *digest
            ),
            want,
            "charges moved"
        );
    }
}

/// Every row's LT lookup, through every view, picks the edge the prefix
/// sums' partition point names: the threshold 0, each boundary and one
/// ulp either side of it, and sixteen keystream draws per row. Rows come
/// from an R-MAT graph with hubs of a few hundred in-edges, under weighted
/// cascade (where the lookup's first guess is right) and under trivalency
/// (where the sums stay far below `(i + 1)/d` and the lookup gallops).
#[test]
fn lt_lookup_matches_the_partition_point_on_every_row() {
    use eim::diffusion::{lt_crosses, sample_rng};
    use rand::Rng;
    fn check<G: DeviceGraph>(view: &G, what: &str) -> usize {
        let mut checked = 0;
        for v in 0..view.n() as VertexId {
            let mut acc = 0.0f32;
            let prefix: Vec<f32> = (0..view.in_degree(v))
                .map(|i| {
                    acc += view.in_weight(v, i);
                    acc
                })
                .collect();
            let mut taus = vec![0.0f32];
            for &b in &prefix {
                taus.extend([
                    b,
                    f32::from_bits(b.to_bits().saturating_sub(1)),
                    f32::from_bits(b.to_bits() + 1),
                ]);
            }
            let mut rng = sample_rng(SEED, u64::from(v));
            taus.extend((0..16).map(|_| rng.gen::<f32>()));
            for tau in taus {
                let i = prefix.partition_point(|&s| s < tau);
                let want = prefix.get(i).and_then(|&inclusive| {
                    let exclusive = if i == 0 { 0.0 } else { prefix[i - 1] };
                    lt_crosses(exclusive, inclusive, tau).then_some(i)
                });
                assert_eq!(view.lt_choose(v, tau), want, "{what}: row {v} tau {tau}");
                checked += 1;
            }
        }
        checked
    }
    for weights in [WeightModel::WeightedCascade, WeightModel::Trivalency] {
        let g = generators::rmat(2_000, 30_000, generators::RmatParams::GRAPH500, weights, 43);
        assert!(
            (0..2_000).any(|v| g.in_degree(v) >= 200),
            "{weights:?}: no hub"
        );
        let mut checked = check(&PlainDeviceGraph::new(&g), &format!("{weights:?}/plain"));
        checked += check(
            &PackedDeviceGraph::from_graph(&g),
            &format!("{weights:?}/packed"),
        );
        if weights == WeightModel::WeightedCascade {
            checked += check(
                &PackedDeviceGraph::new(PackedCsc::from_graph_derived(&g)),
                &format!("{weights:?}/derived"),
            );
        }
        assert!(checked > 100_000, "{weights:?}: {checked} lookups");
    }
}
