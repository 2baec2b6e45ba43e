//! Streaming differential oracle: the incremental engine must be
//! *indistinguishable* from throwing everything away. At every checkpoint of
//! an edge-update stream, [`StreamingImmEngine`]'s seeds are byte-compared
//! against a cold full recompute on the mutated graph — across every engine
//! in the workspace, every store backend, both graph layouts, and 1/4-thread
//! rayon pools. The invalidation index is additionally pinned down directly:
//! its prediction must equal the set actually resampled, deletes of
//! never-traversed edges must invalidate nothing, and hub inserts must never
//! over-invalidate.

use eim::baselines::{CuRipplesEngine, GimEngine, HostSpec};
use eim::core::{DeviceResampler, EimEngine, ScanStrategy};
use eim::diffusion::sample_rng;
use eim::gpusim::{Device, DeviceSpec, FaultPlan, FaultSpec, RunTrace};
use eim::graph::{generators, GraphDelta, VertexId};
use eim::imm::{
    run_imm, CpuEngine, CpuParallelism, HostResampler, ImmConfig, ImmEngine, Resampler, RrrSets,
    StreamRunResult, StreamingImmEngine,
};
use eim::prelude::*;
use proptest::prelude::*;
use rand::Rng;
use std::sync::Arc;

const WEIGHT_SEED: u64 = 7;

fn test_graph(seed: u64) -> Graph {
    generators::rmat(
        300,
        1_800,
        generators::RmatParams::GRAPH500,
        WeightModel::WeightedCascade,
        seed,
    )
}

fn base_config(model: DiffusionModel) -> ImmConfig {
    ImmConfig::paper_default()
        .with_k(4)
        .with_epsilon(0.3)
        .with_seed(1234)
        .with_model(model)
        .with_packed(false)
        .with_source_elimination(false)
}

fn spec() -> DeviceSpec {
    DeviceSpec::rtx_a6000_with_mem(512 << 20)
}

fn scripted_stream(g: &Graph, seed: u64, batches: usize) -> Vec<GraphDelta> {
    generators::update_stream(
        g,
        &generators::UpdateStreamSpec {
            batches,
            edges_per_batch: 12,
            insert_fraction: 0.5,
            seed,
        },
    )
}

fn streaming_engine(g: &Graph, c: ImmConfig) -> StreamingImmEngine<HostResampler> {
    StreamingImmEngine::new(
        g.clone(),
        c,
        WeightModel::WeightedCascade,
        WEIGHT_SEED,
        HostResampler::new(c.model, c.seed),
    )
}

fn cold_cpu(g: &Graph, c: ImmConfig) -> Vec<VertexId> {
    let mut e = CpuEngine::new(g, c, CpuParallelism::Rayon);
    run_imm(&mut e, &c).unwrap().seeds
}

/// The tentpole bar: one streaming engine tracks a mutating graph while five
/// independent cold engines recompute from scratch at every checkpoint. All
/// six must agree byte for byte, under 1- and 4-thread rayon pools.
#[test]
fn incremental_matches_cold_recompute_across_engines() {
    let g0 = test_graph(7);
    let c = base_config(DiffusionModel::IndependentCascade);
    let deltas = scripted_stream(&g0, 11, 2);

    type Run<'a> = Box<dyn Fn(&Graph) -> Vec<VertexId> + Sync + 'a>;
    let engines: Vec<(&str, Run)> = vec![
        (
            "eim",
            Box::new(|g| {
                let mut e =
                    EimEngine::new(g, c, Device::new(spec()), ScanStrategy::ThreadPerSet).unwrap();
                run_imm(&mut e, &c).unwrap().seeds
            }),
        ),
        (
            "gim",
            Box::new(|g| {
                let mut e = GimEngine::new(g, c, Device::new(spec())).unwrap();
                run_imm(&mut e, &c).unwrap().seeds
            }),
        ),
        (
            "curipples",
            Box::new(|g| {
                let mut e =
                    CuRipplesEngine::new(g, c, Device::new(spec()), HostSpec::default()).unwrap();
                run_imm(&mut e, &c).unwrap().seeds
            }),
        ),
        (
            "multigpu",
            Box::new(|g| {
                let mut e = EimEngine::with_telemetry(g, c, spec(), 3, &RunTrace::disabled(), true)
                    .unwrap();
                run_imm(&mut e, &c).unwrap().seeds
            }),
        ),
        ("cpu", Box::new(|g| cold_cpu(g, c))),
    ];

    for threads in [1usize, 4] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        pool.install(|| {
            let mut s = streaming_engine(&g0, c);
            let initial = s.replay().unwrap();
            let mut cold_graph = g0.clone();
            for (name, run) in &engines {
                assert_eq!(
                    initial.seeds,
                    run(&cold_graph),
                    "{name} ({threads} threads): initial replay diverged"
                );
            }
            for (b, delta) in deltas.iter().enumerate() {
                let report = s.apply_update(delta).unwrap();
                cold_graph.apply_delta(delta, WeightModel::WeightedCascade, WEIGHT_SEED);
                for (name, run) in &engines {
                    assert_eq!(
                        report.result.seeds,
                        run(&cold_graph),
                        "{name} ({threads} threads): batch {b} diverged"
                    );
                }
                assert!(
                    report.resampled_slots.len() < s.slots(),
                    "batch {b}: incremental redrew everything"
                );
            }
        });
    }
}

/// Store backends (plain / packed) and source elimination are
/// pure layout/heuristic switches: every combination must track the cold
/// recompute, under IC and LT.
#[test]
fn incremental_matches_on_every_store_backend() {
    let g0 = test_graph(23);
    for model in [
        DiffusionModel::IndependentCascade,
        DiffusionModel::LinearThreshold,
    ] {
        let deltas = scripted_stream(&g0, 5, 2);
        for packed in [false, true] {
            for elim in [false, true] {
                let c = base_config(model)
                    .with_packed(packed)
                    .with_source_elimination(elim);
                let mut s = streaming_engine(&g0, c);
                let initial = s.replay().unwrap();
                let mut cold_graph = g0.clone();
                let label = format!("{model} packed={packed} elim={elim}");
                assert_eq!(initial.seeds, cold_cpu(&cold_graph, c), "{label}: initial");
                for (b, delta) in deltas.iter().enumerate() {
                    let report = s.apply_update(delta).unwrap();
                    cold_graph.apply_delta(delta, WeightModel::WeightedCascade, WEIGHT_SEED);
                    assert_eq!(
                        report.result.seeds,
                        cold_cpu(&cold_graph, c),
                        "{label}: batch {b}"
                    );
                }
            }
        }
    }
}

/// The device resampler (packed device rows refreshed after every batch
/// via `PackedDeviceGraph::with_updated_rows`) must match both the host
/// resampler's incremental run and a cold packed-graph device engine at
/// every checkpoint.
#[test]
fn device_resampler_tracks_cold_packed_engine() {
    let g0 = test_graph(31);
    let c = base_config(DiffusionModel::IndependentCascade).with_packed(true);
    let deltas = scripted_stream(&g0, 17, 2);

    let mut dev = StreamingImmEngine::new(
        g0.clone(),
        c,
        WeightModel::WeightedCascade,
        WEIGHT_SEED,
        DeviceResampler::new(Device::new(spec()), &g0, c.model, c.seed),
    );
    let mut host = streaming_engine(&g0, c);
    assert_eq!(dev.replay().unwrap(), host.replay().unwrap());

    let mut cold_graph = g0.clone();
    for (b, delta) in deltas.iter().enumerate() {
        let rd = dev.apply_update(delta).unwrap();
        let rh = host.apply_update(delta).unwrap();
        assert_eq!(rd.result, rh.result, "batch {b}: device vs host result");
        assert_eq!(rd.resampled_slots, rh.resampled_slots, "batch {b}");
        cold_graph.apply_delta(delta, WeightModel::WeightedCascade, WEIGHT_SEED);
        let mut e = EimEngine::new(
            &cold_graph,
            c,
            Device::new(spec()),
            ScanStrategy::ThreadPerSet,
        )
        .unwrap();
        assert_eq!(
            rd.result.seeds,
            run_imm(&mut e, &c).unwrap().seeds,
            "batch {b}: device incremental vs cold packed engine"
        );
    }
}

/// Transient kernel faults during redraws are retried and commit nothing:
/// a fault-injected device stream must be bit-exact with the clean host run.
#[test]
fn fault_injected_replay_is_bit_exact() {
    let g0 = test_graph(43);
    let c = base_config(DiffusionModel::IndependentCascade);
    let deltas = scripted_stream(&g0, 29, 3);

    let device = Device::new(spec()).with_fault_plan(Arc::new(FaultPlan::new(
        FaultSpec::parse("seed=5,kernel=0.3").unwrap(),
    )));
    let mut faulty = StreamingImmEngine::new(
        g0.clone(),
        c,
        WeightModel::WeightedCascade,
        WEIGHT_SEED,
        DeviceResampler::new(device, &g0, c.model, c.seed).with_max_retries(64),
    );
    let mut clean = streaming_engine(&g0, c);
    assert_eq!(faulty.replay().unwrap(), clean.replay().unwrap());
    for (b, delta) in deltas.iter().enumerate() {
        let rf = faulty.apply_update(delta).unwrap();
        let rc = clean.apply_update(delta).unwrap();
        assert_eq!(rf.result, rc.result, "batch {b}: faults changed the run");
        assert_eq!(rf.resampled_slots, rc.resampled_slots, "batch {b}");
    }
    assert_eq!(faulty.store_digest(), clean.store_digest());
}

/// Deleting an edge whose head no traversal ever visited (and that was never
/// a source) must invalidate zero sets: the run is untouched and nothing is
/// decoded or redrawn.
#[test]
fn delete_of_untraversed_edge_invalidates_nothing() {
    // Sparse and large relative to the sample count, so plenty of vertices
    // appear in no footprint at all.
    let g0 = generators::rmat(
        4_000,
        6_000,
        generators::RmatParams::GRAPH500,
        WeightModel::WeightedCascade,
        3,
    );
    let c = ImmConfig::paper_default()
        .with_k(2)
        .with_epsilon(0.5)
        .with_seed(99)
        .with_packed(false)
        .with_source_elimination(false);
    let mut s = streaming_engine(&g0, c);
    let before = s.replay().unwrap();

    // Find a deletable edge (u, v) the index predicts clean: v's in-row
    // changes but no footprint contains v.
    let delta = (0..g0.num_vertices() as VertexId)
        .filter(|&v| !g0.in_neighbors(v).is_empty())
        .map(|v| GraphDelta {
            inserts: vec![],
            deletes: vec![(g0.in_neighbors(v)[0], v)],
        })
        .find(|d| s.predict_invalidated(d).is_empty())
        .expect("some in-edge head must sit outside every footprint");

    let report = s.apply_update(&delta).unwrap();
    assert_eq!(report.changed_heads, 1, "the delete is structural");
    assert!(report.resampled_slots.is_empty(), "no set may be redrawn");
    assert_eq!(report.decoded_sets, 0, "no stored set may be decoded");
    assert_eq!(report.result, before, "the run is untouched");
    // And it really is what a cold recompute sees.
    let mut cold = g0.clone();
    cold.apply_delta(&delta, WeightModel::WeightedCascade, WEIGHT_SEED);
    assert_eq!(report.result.seeds, cold_cpu(&cold, c));
}

/// Inserting an in-edge of a hub invalidates exactly the samples whose
/// footprint holds the hub — no set lacking it may be resampled, and every
/// set holding it must be.
#[test]
fn hub_insert_never_over_invalidates() {
    let g0 = test_graph(53);
    let c = base_config(DiffusionModel::IndependentCascade).with_source_elimination(true);
    let mut s = streaming_engine(&g0, c);
    s.replay().unwrap();
    let n = g0.num_vertices() as VertexId;

    let hub = (0..n).max_by_key(|&v| g0.in_neighbors(v).len()).unwrap();
    let tail = (0..n)
        .find(|&u| u != hub && !g0.in_neighbors(hub).contains(&u))
        .unwrap();

    // Old footprints, reconstructed before the update patches the store:
    // stored content plus the (recomputable) source.
    let holds_hub: Vec<bool> = (0..s.slots())
        .map(|i| {
            let source: VertexId = sample_rng(c.seed, i as u64).gen_range(0..n);
            source == hub || s.store().set_members(i).contains(&hub)
        })
        .collect();
    let expected: Vec<u32> = (0..s.slots() as u32)
        .filter(|&i| holds_hub[i as usize])
        .collect();
    assert!(
        !expected.is_empty(),
        "a hub should appear in some footprint"
    );

    let delta = GraphDelta {
        inserts: vec![(tail, hub)],
        deletes: vec![],
    };
    let report = s.apply_update(&delta).unwrap();
    assert_eq!(
        report.resampled_slots, expected,
        "resampled exactly the footprints holding the hub"
    );
    let mut cold = g0.clone();
    cold.apply_delta(&delta, WeightModel::WeightedCascade, WEIGHT_SEED);
    assert_eq!(report.result.seeds, cold_cpu(&cold, c));
}

/// The `count` heads of largest in-degree, ties to the smaller id.
fn top_heads(g: &Graph, count: usize) -> Vec<VertexId> {
    let mut heads: Vec<VertexId> = (0..g.num_vertices() as VertexId).collect();
    heads.sort_by_key(|&v| (std::cmp::Reverse(g.in_degree(v)), v));
    heads.truncate(count);
    heads
}

/// An edge into `head` that is not there yet: a probe that changes the
/// row without being applied.
fn probe(g: &Graph, head: VertexId) -> (VertexId, VertexId) {
    let n = g.num_vertices() as VertexId;
    let u = (0..n)
        .find(|&u| u != head && !g.in_neighbors(head).contains(&u))
        .expect("a hub is not adjacent to everything");
    (u, head)
}

/// A batch that churns the in-rows of the five current hubs: it deletes
/// every fourth in-edge (offset by round) and inserts three new ones each.
fn hub_batch(g: &Graph, round: u32) -> GraphDelta {
    let n = g.num_vertices() as VertexId;
    let mut delta = GraphDelta::default();
    for (j, h) in top_heads(g, 5).into_iter().enumerate() {
        let j = j as u32;
        delta.deletes.extend(
            g.in_neighbors(h)
                .iter()
                .skip(round as usize % 3)
                .step_by(4)
                .map(|&u| (u, h)),
        );
        delta.inserts.extend(
            (1..4)
                .map(|k| ((h + k * 41 + round * 13 + j * 7) % n, h))
                .filter(|&(u, h)| u != h),
        );
    }
    delta
}

/// The postings index after many in-place patches is the index a fresh
/// engine builds on the mutated graph. Batches churn the in-rows of the
/// current hubs, whose postings lists are the longest; after each, a probe
/// delta on every top-10 in-degree head (one head at a time, then all ten)
/// must invalidate the same slots in both engines, over the slots both
/// have drawn. Runs under IC and LT, with source elimination on and off.
#[test]
fn patched_postings_match_a_fresh_index_after_hub_batches() {
    for (model, elim) in [
        (DiffusionModel::IndependentCascade, true),
        (DiffusionModel::LinearThreshold, true),
        (DiffusionModel::IndependentCascade, false),
        (DiffusionModel::LinearThreshold, false),
    ] {
        let c = base_config(model)
            .with_source_elimination(elim)
            .with_packed(true);
        let g0 = test_graph(71);
        let mut host = streaming_engine(&g0, c);
        let mut dev = StreamingImmEngine::new(
            g0.clone(),
            c,
            WeightModel::WeightedCascade,
            WEIGHT_SEED,
            DeviceResampler::new(Device::new(spec()), &g0, c.model, c.seed),
        );
        host.replay().unwrap();
        dev.replay().unwrap();
        let mut g = g0.clone();
        for round in 0..6u32 {
            let delta = hub_batch(&g, round);
            g.apply_delta(&delta, WeightModel::WeightedCascade, WEIGHT_SEED);
            let rh = host.apply_update(&delta).unwrap();
            let rd = dev.apply_update(&delta).unwrap();
            assert!(
                rh.changed_heads >= 5,
                "{model} elim={elim} round {round}: hubs changed"
            );
            assert_eq!(
                rh.resampled_slots, rd.resampled_slots,
                "{model} elim={elim} round {round}"
            );

            let mut fresh = streaming_engine(&g, c);
            fresh.replay().unwrap();
            let heads = top_heads(&g, 10);
            let mut probes: Vec<GraphDelta> = heads
                .iter()
                .map(|&h| GraphDelta::inserting(vec![probe(&g, h)]))
                .collect();
            probes.push(GraphDelta::inserting(
                heads.iter().map(|&h| probe(&g, h)).collect(),
            ));
            let want: Vec<Vec<u32>> = probes
                .iter()
                .map(|d| fresh.predict_invalidated(d))
                .collect();
            let patched = [
                (
                    "host",
                    host.slots(),
                    probes
                        .iter()
                        .map(|d| host.predict_invalidated(d))
                        .collect::<Vec<_>>(),
                ),
                (
                    "device",
                    dev.slots(),
                    probes.iter().map(|d| dev.predict_invalidated(d)).collect(),
                ),
            ];
            for (name, slots, got) in patched {
                let common = slots.min(fresh.slots()) as u32;
                let prefix = |slots: &[u32]| -> Vec<u32> {
                    slots.iter().copied().filter(|&s| s < common).collect()
                };
                for ((got, want), delta) in got.iter().zip(&want).zip(&probes) {
                    let got = prefix(got);
                    assert!(
                        !got.is_empty(),
                        "{model} elim={elim} round {round}: hubs hold slots"
                    );
                    assert_eq!(
                        got,
                        prefix(want),
                        "{model} elim={elim} round {round} {name}: postings of {:?}",
                        delta.inserts
                    );
                }
            }
        }
    }
}

/// Invalidation against ground truth computed from scratch, not against a
/// second engine that could share a bug. After each hub batch, every slot
/// is redrawn with [`HostResampler`] on the current graph; a one-head probe
/// must then invalidate exactly the slots whose footprint holds the head.
/// The probed heads are the top-10 hubs and the source of a slot whose
/// footprint is its source alone (eliminated under source elimination).
/// Runs under IC and LT, with source elimination on and off.
#[test]
fn predicted_invalidation_matches_footprints_redrawn_from_scratch() {
    for (model, elim) in [
        (DiffusionModel::IndependentCascade, true),
        (DiffusionModel::LinearThreshold, true),
        (DiffusionModel::IndependentCascade, false),
        (DiffusionModel::LinearThreshold, false),
    ] {
        let c = base_config(model)
            .with_source_elimination(elim)
            .with_packed(true);
        let g0 = test_graph(71);
        let mut s = streaming_engine(&g0, c);
        s.replay().unwrap();
        for round in 0..6u32 {
            let delta = hub_batch(s.graph(), round);
            s.apply_update(&delta).unwrap();
            let g = s.graph();
            let indices: Vec<u64> = (0..s.slots() as u64).collect();
            let footprints = HostResampler::new(c.model, c.seed)
                .sample(g, &indices)
                .unwrap();
            let holding = |head: VertexId| -> Vec<u32> {
                (0..s.slots() as u32)
                    .filter(|&i| footprints[i as usize].1.binary_search(&head).is_ok())
                    .collect()
            };
            let lone_source = footprints
                .iter()
                .find(|(_, footprint)| footprint.len() == 1)
                .map(|&(source, _)| source)
                .expect("some sample visits its source alone");
            let mut heads = top_heads(g, 10);
            heads.push(lone_source);
            for head in heads {
                let want = holding(head);
                let ctx = format!("{model} elim={elim} round {round} head {head}");
                assert!(!want.is_empty(), "{ctx}: every probed head is visited");
                let got = s.predict_invalidated(&GraphDelta::inserting(vec![probe(g, head)]));
                assert_eq!(got, want, "{ctx}");
            }
        }
    }
}

/// `(slots, store_digest())` after the initial replay and after each of four
/// scripted batches, for the plain and packed stores with source
/// elimination off and on. Recorded before the bitmap postings filter and
/// the arena store patch landed: how an update patches the store may
/// change, what it stores may not. The digest hashes set contents, not
/// their encoding, so both layouts pin the same values.
const STORE_DIGESTS: [[(usize, u64); 5]; 4] = [
    // plain, elimination off
    [
        (3464, 0xee00_4689_feb2_1d3f),
        (3464, 0xbdd2_18e9_73ea_24c1),
        (3464, 0x3df3_cb0e_17f7_7d14),
        (3464, 0x4a59_964a_88d1_462e),
        (3464, 0x84ca_c620_a86a_fa4c),
    ],
    // plain, elimination on
    [
        (1764, 0x1d57_659e_cd04_dfdb),
        (1769, 0xae4e_11a9_77ae_fedf),
        (1769, 0x4d4a_7655_605b_b046),
        (1769, 0x1bb3_3f46_ed25_21c7),
        (1769, 0x76fe_4ef8_c61f_ccec),
    ],
    // packed, elimination off
    [
        (3464, 0xee00_4689_feb2_1d3f),
        (3464, 0xbdd2_18e9_73ea_24c1),
        (3464, 0x3df3_cb0e_17f7_7d14),
        (3464, 0x4a59_964a_88d1_462e),
        (3464, 0x84ca_c620_a86a_fa4c),
    ],
    // packed, elimination on
    [
        (1764, 0x1d57_659e_cd04_dfdb),
        (1769, 0xae4e_11a9_77ae_fedf),
        (1769, 0x4d4a_7655_605b_b046),
        (1769, 0x1bb3_3f46_ed25_21c7),
        (1769, 0x76fe_4ef8_c61f_ccec),
    ],
];

#[test]
fn store_digests_after_scripted_batches_match_pinned_values() {
    let g0 = test_graph(41);
    let deltas = scripted_stream(&g0, 13, 4);
    let mut got = Vec::new();
    for packed in [false, true] {
        for elim in [false, true] {
            let c = base_config(DiffusionModel::IndependentCascade)
                .with_packed(packed)
                .with_source_elimination(elim);
            let mut s = streaming_engine(&g0, c);
            s.replay().unwrap();
            let mut row = vec![(s.slots(), s.store_digest())];
            for delta in &deltas {
                let report = s.apply_update(delta).unwrap();
                assert!(!report.resampled_slots.is_empty(), "batches redraw");
                row.push((s.slots(), s.store_digest()));
            }
            got.push(row);
        }
    }
    assert_eq!(got, STORE_DIGESTS);
}

/// The streaming engine against a cold `CpuEngine` on degenerate graphs,
/// result field by field. On an edgeless graph under source elimination
/// every estimation sample is eliminated, so `run_imm` must skip the final
/// extension and select over the estimation prefix; after a few inserts the
/// cutoff must drop back below the slots still materialized.
#[test]
fn degenerate_graphs_match_a_cold_cpu_run() {
    fn check(
        s: &StreamingImmEngine<HostResampler>,
        c: ImmConfig,
        result: &StreamRunResult,
        ctx: &str,
    ) {
        let mut cold = CpuEngine::new(s.graph(), c, CpuParallelism::Rayon);
        let want = run_imm(&mut cold, &c).unwrap();
        assert_eq!(result.seeds, want.seeds, "{ctx}");
        assert_eq!(result.num_sets, want.num_sets, "{ctx}");
        assert_eq!(result.cutoff, cold.logical_sets(), "{ctx}");
        assert_eq!(result.cutoff, s.logical_sets(), "{ctx}");
        assert_eq!(result.theta, want.theta, "{ctx}");
        assert_eq!(
            result.lower_bound.to_bits(),
            want.lower_bound.to_bits(),
            "{ctx}"
        );
        assert_eq!(result.coverage.to_bits(), want.coverage.to_bits(), "{ctx}");
    }

    let edgeless = eim::graph::GraphBuilder::new(50).build(WeightModel::WeightedCascade);
    for packed in [false, true] {
        let c = base_config(DiffusionModel::IndependentCascade)
            .with_k(2)
            .with_epsilon(0.5)
            .with_seed(3)
            .with_source_elimination(true)
            .with_packed(packed);
        let mut s = streaming_engine(&edgeless, c);
        let r = s.replay().unwrap();
        assert_eq!((r.cutoff, r.theta), (2127, 7245), "packed={packed}");
        assert_eq!(r.num_sets, 0, "packed={packed}: every sample eliminated");
        check(&s, c, &r, &format!("edgeless packed={packed}"));

        let delta = GraphDelta::inserting(vec![(0, 1), (2, 3), (4, 1), (5, 6)]);
        let report = s.apply_update(&delta).unwrap();
        assert_eq!(report.result.cutoff, 347, "packed={packed}");
        assert_eq!(s.slots(), 2127, "packed={packed}: slots stay materialized");
        check(&s, c, &report.result, &format!("inserts packed={packed}"));
    }

    let star = generators::star_in(100, WeightModel::WeightedCascade);
    let c = base_config(DiffusionModel::IndependentCascade).with_k(1);
    let mut s = streaming_engine(&star, c);
    let r = s.replay().unwrap();
    check(&s, c, &r, "star_in(100)");
}

/// A structurally empty batch (no updates, redundant deletes, self-healing
/// delete+insert pairs) is a complete no-op: zero resamples, zero decodes,
/// and the cached result is returned untouched.
#[test]
fn empty_and_self_healing_deltas_are_noops() {
    let g0 = test_graph(61);
    let c = base_config(DiffusionModel::IndependentCascade);
    let mut s = streaming_engine(&g0, c);
    let before = s.replay().unwrap();

    let (u, v) = {
        let v = (0..g0.num_vertices() as VertexId)
            .find(|&v| !g0.in_neighbors(v).is_empty())
            .unwrap();
        (g0.in_neighbors(v)[0], v)
    };
    let absent = (0..g0.num_vertices() as VertexId)
        .find(|&w| w != v && !g0.in_neighbors(v).contains(&w))
        .unwrap();
    let cases = [
        GraphDelta::default(),
        // Deleting a non-existent edge is redundant.
        GraphDelta {
            inserts: vec![],
            deletes: vec![(absent, v)],
        },
        // Delete + reinsert of a live edge self-heals within the batch.
        GraphDelta {
            inserts: vec![(u, v)],
            deletes: vec![(u, v)],
        },
        // Duplicate records collapse.
        GraphDelta {
            inserts: vec![(u, v), (u, v)],
            deletes: vec![],
        },
    ];
    for (i, delta) in cases.iter().enumerate() {
        assert!(s.predict_invalidated(delta).is_empty(), "case {i}");
        let report = s.apply_update(delta).unwrap();
        assert_eq!(report.changed_heads, 0, "case {i}");
        assert!(report.resampled_slots.is_empty(), "case {i}");
        assert_eq!(report.decoded_sets, 0, "case {i}: no decode charged");
        assert_eq!(report.fresh_slots, 0, "case {i}");
        assert_eq!(report.result, before, "case {i}: cached result reused");
    }
}

/// Regression for the delete+reinsert weight bug: a batch that deletes and
/// re-inserts a live edge alongside a real structural change must keep the
/// surviving weight under every weight model, agree with the membership-only
/// invalidation prediction, and track the cold recompute. Only
/// WeightedCascade (the model every other test hardcodes) rewrote whole rows
/// and thus masked the zeroed placeholder weight.
#[test]
fn reinsert_batches_match_recompute_under_every_weight_model() {
    let g0 = test_graph(83);
    let c = base_config(DiffusionModel::IndependentCascade);
    let (u, v, w0) = g0.iter_edges().next().unwrap();
    let n = g0.num_vertices() as VertexId;
    let absent = (0..n)
        .flat_map(|a| (0..n).map(move |b| (a, b)))
        .find(|&(a, b)| a != b && !g0.has_edge(a, b))
        .unwrap();
    let deltas = [
        // Delete+reinsert (u, v) while inserting a genuinely new edge.
        GraphDelta {
            inserts: vec![(u, v), absent],
            deletes: vec![(u, v)],
        },
        // Same self-heal while deleting the edge the first batch added.
        GraphDelta {
            inserts: vec![(u, v)],
            deletes: vec![(u, v), absent],
        },
    ];
    for wm in [
        WeightModel::WeightedCascade,
        WeightModel::Uniform(0.1),
        WeightModel::Trivalency,
        WeightModel::Random,
        WeightModel::Preserve,
    ] {
        let mut s = StreamingImmEngine::new(
            g0.clone(),
            c,
            wm,
            WEIGHT_SEED,
            HostResampler::new(c.model, c.seed),
        );
        s.replay().unwrap();
        let mut cold_graph = g0.clone();
        for (b, delta) in deltas.iter().enumerate() {
            let predicted = s.predict_invalidated(delta);
            let report = s.apply_update(delta).unwrap();
            assert_eq!(report.resampled_slots, predicted, "{wm:?} batch {b}");
            cold_graph.apply_delta(delta, wm, WEIGHT_SEED);
            assert_eq!(
                report.result.seeds,
                cold_cpu(&cold_graph, c),
                "{wm:?} batch {b}"
            );
            let idx = s.graph().in_neighbors(v).binary_search(&u).unwrap();
            let w = s.graph().in_weights(v)[idx];
            assert!(w > 0.0, "{wm:?} batch {b}: reinserted edge silently died");
            if !matches!(wm, WeightModel::WeightedCascade) {
                assert_eq!(w, w0, "{wm:?} batch {b}: surviving weight must be kept");
            }
        }
    }
}

/// Strategy: a random update stream over `n` vertices — random batch count
/// and sizes, arbitrary insert/delete mixes, duplicate records, and (by
/// construction of small vertex ranges) frequent self-healing pairs.
fn random_stream(n: VertexId) -> impl Strategy<Value = Vec<GraphDelta>> {
    let edge = move || (0..n, 0..n - 1).prop_map(move |(u, d)| (u, (u + 1 + d) % n));
    let batch = (
        proptest::collection::vec(edge(), 0..12),
        proptest::collection::vec(edge(), 0..12),
    )
        .prop_map(|(inserts, deletes)| GraphDelta { inserts, deletes });
    proptest::collection::vec(batch, 1..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random streams: the incremental seeds equal a cold recompute at every
    /// checkpoint, and the invalidation index's prediction equals the set of
    /// slots actually redrawn.
    #[test]
    fn random_streams_match_recompute_and_prediction(
        deltas in random_stream(300),
        elim in any::<bool>(),
    ) {
        let g0 = test_graph(71);
        let c = base_config(DiffusionModel::IndependentCascade)
            .with_source_elimination(elim);
        let mut s = streaming_engine(&g0, c);
        s.replay().unwrap();
        let mut cold_graph = g0.clone();
        for delta in &deltas {
            let predicted = s.predict_invalidated(delta);
            let report = s.apply_update(delta).unwrap();
            prop_assert_eq!(&report.resampled_slots, &predicted);
            cold_graph.apply_delta(delta, WeightModel::WeightedCascade, WEIGHT_SEED);
            prop_assert_eq!(&report.result.seeds, &cold_cpu(&cold_graph, c));
        }
    }
}
