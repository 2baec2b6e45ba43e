//! End-to-end pipeline tests through the public facade: graph families x
//! diffusion models x eIM options.

use eim::graph::generators;
use eim::prelude::*;

fn families(seed: u64) -> Vec<(&'static str, Graph)> {
    vec![
        (
            "barabasi-albert",
            generators::barabasi_albert(600, 3, WeightModel::WeightedCascade, seed),
        ),
        (
            "erdos-renyi",
            generators::erdos_renyi_gnm(600, 3_000, WeightModel::WeightedCascade, seed),
        ),
        (
            "rmat",
            generators::rmat(
                600,
                3_600,
                generators::RmatParams::GRAPH500,
                WeightModel::WeightedCascade,
                seed,
            ),
        ),
        (
            "watts-strogatz",
            generators::watts_strogatz(600, 3, 0.2, WeightModel::WeightedCascade, seed),
        ),
    ]
}

#[test]
fn every_family_both_models() {
    for (name, graph) in families(3) {
        for model in [
            DiffusionModel::IndependentCascade,
            DiffusionModel::LinearThreshold,
        ] {
            let r = EimBuilder::new(&graph)
                .k(5)
                .epsilon(0.3)
                .model(model)
                .seed(11)
                .run()
                .unwrap_or_else(|e| panic!("{name}/{model}: {e}"));
            assert_eq!(r.seeds.len(), 5, "{name}/{model}");
            let mut unique = r.seeds.clone();
            unique.sort_unstable();
            unique.dedup();
            assert_eq!(unique.len(), 5, "{name}/{model}: duplicate seeds");
            assert!(r.coverage > 0.0 && r.coverage <= 1.0);
            assert!(r.sim_time_us() > 0.0);
        }
    }
}

#[test]
fn seeds_have_above_average_influence() {
    let graph = generators::barabasi_albert(1_500, 3, WeightModel::WeightedCascade, 5);
    let r = EimBuilder::new(&graph)
        .k(10)
        .epsilon(0.2)
        .seed(2)
        .run()
        .unwrap();
    let chosen = eim::diffusion::estimate_spread(
        &graph,
        &r.seeds,
        DiffusionModel::IndependentCascade,
        500,
        7,
    );
    // Average spread of 10 arbitrary vertices for comparison.
    let arbitrary: Vec<u32> = (0..10).map(|i| i * 141).collect();
    let baseline = eim::diffusion::estimate_spread(
        &graph,
        &arbitrary,
        DiffusionModel::IndependentCascade,
        500,
        7,
    );
    assert!(
        chosen > 1.5 * baseline,
        "chosen {chosen} vs arbitrary {baseline}"
    );
}

#[test]
fn coverage_and_theta_scale_with_epsilon() {
    let graph = generators::rmat(
        500,
        3_000,
        generators::RmatParams::MILD,
        WeightModel::WeightedCascade,
        8,
    );
    let loose = EimBuilder::new(&graph)
        .k(5)
        .epsilon(0.5)
        .seed(4)
        .run()
        .unwrap();
    let tight = EimBuilder::new(&graph)
        .k(5)
        .epsilon(0.15)
        .seed(4)
        .run()
        .unwrap();
    assert!(
        tight.num_sets > 3 * loose.num_sets,
        "tight {} loose {}",
        tight.num_sets,
        loose.num_sets
    );
}

#[test]
fn tiny_graphs_work() {
    let graph = generators::path(2, WeightModel::WeightedCascade);
    let r = EimBuilder::new(&graph).k(1).epsilon(0.5).run().unwrap();
    assert_eq!(r.seeds.len(), 1);
    // On 0 -> 1, vertex 0 is the only seed that covers both RRR roots.
    assert_eq!(r.seeds[0], 0);
}

#[test]
fn k_equals_n_selects_everything() {
    let graph = generators::cycle(6, WeightModel::WeightedCascade);
    let r = EimBuilder::new(&graph).k(6).epsilon(0.5).run().unwrap();
    let mut seeds = r.seeds.clone();
    seeds.sort_unstable();
    assert_eq!(seeds, vec![0, 1, 2, 3, 4, 5]);
    assert_eq!(r.coverage, 1.0);
}

#[test]
fn random_edge_weight_ic_is_supported() {
    // The paper's conclusion plans "support for the IC model with random
    // edge weights"; the pipeline here is weight-model agnostic.
    for model in [WeightModel::Random, WeightModel::Trivalency] {
        let graph = generators::rmat(400, 2_400, generators::RmatParams::MILD, model, 17);
        let r = EimBuilder::new(&graph)
            .k(4)
            .epsilon(0.3)
            .seed(23)
            .run()
            .unwrap_or_else(|e| panic!("{model:?}: {e}"));
        assert_eq!(r.seeds.len(), 4, "{model:?}");
        let spread = eim::diffusion::estimate_spread(
            &graph,
            &r.seeds,
            DiffusionModel::IndependentCascade,
            300,
            5,
        );
        assert!(spread >= 4.0, "{model:?}: spread {spread}");
    }
}

#[test]
fn multi_gpu_engine_through_facade() {
    use eim::imm::{run_imm, ImmConfig};
    let graph = generators::barabasi_albert(500, 3, WeightModel::WeightedCascade, 3);
    let c = ImmConfig::paper_default()
        .with_k(3)
        .with_epsilon(0.3)
        .with_seed(9);
    let spec = eim::gpusim::DeviceSpec::rtx_a6000();
    let trace = eim::gpusim::RunTrace::disabled();
    let mut engine =
        eim::core::EimEngine::with_telemetry(&graph, c, spec, 2, &trace, true).unwrap();
    let r = run_imm(&mut engine, &c).unwrap();
    assert_eq!(r.seeds.len(), 3);
}

#[test]
fn facade_reexports_are_usable() {
    // The prelude and module re-exports compile and interoperate.
    let g: eim::graph::Graph = eim::graph::GraphBuilder::new(3)
        .edges([(0, 1), (1, 2)])
        .build(eim::graph::WeightModel::WeightedCascade);
    let packed = eim::bitpack::PackedCsc::from_graph(&g);
    assert_eq!(packed.num_edges(), 2);
    let spec = eim::gpusim::DeviceSpec::rtx_a6000();
    assert_eq!(spec.num_sms, 84);
}
