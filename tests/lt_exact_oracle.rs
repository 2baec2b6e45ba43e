//! The fused LT sampler against ground truth. On graphs of at most twelve
//! edges every LT live-edge world can be listed: each vertex keeps one of
//! its in-edges, edge `i` with probability `w_i`, or none with probability
//! `1 − Σ w`. An RRR set in a world is the chain of kept in-edges back from
//! a uniform source until it ends or closes a cycle. Summing over worlds
//! gives each vertex's exact probability of being in a set and the exact
//! rate of singleton sets; `sample_batch` must match both within five
//! binomial standard deviations, through either graph view, with source
//! elimination on and off. No in-repo sampler serves as the oracle, so a
//! bug a fast path shares with the reference walk still shows.

use eim::core::{DeviceGraph, PackedDeviceGraph, PlainDeviceGraph};
use eim::gpusim::{Device, DeviceSpec};
use eim::graph::{parse_weighted_edge_list, VertexId};
use eim::prelude::*;
use eim_core::sampler::sample_batch;

const SAMPLES: usize = 200_000;

/// Exact LT quantities of one graph: `P(v ∈ RRR)` for each vertex, the
/// same with the source left out (what source elimination stores), and
/// `P(|RRR| = 1)`.
struct Exact {
    member: Vec<f64>,
    member_not_source: Vec<f64>,
    singleton: f64,
}

fn exact(g: &Graph) -> Exact {
    let n = g.num_vertices();
    // World digit `c[v]`: the index of `v`'s kept in-edge, or its degree
    // for none.
    let mut c = vec![0usize; n];
    let mut member = vec![0.0; n];
    let mut member_not_source = vec![0.0; n];
    let mut singleton = 0.0;
    let mut worlds = 0usize;
    loop {
        let p: f64 = (0..n as VertexId)
            .map(|v| {
                let ws = g.in_weights(v);
                match ws.get(c[v as usize]) {
                    Some(&w) => f64::from(w),
                    None => (1.0 - ws.iter().map(|&w| f64::from(w)).sum::<f64>()).max(0.0),
                }
            })
            .product();
        for s in 0..n as VertexId {
            let mut set = vec![s];
            let mut u = s;
            while let Some(&v) = g.in_neighbors(u).get(c[u as usize]) {
                if set.contains(&v) {
                    break;
                }
                set.push(v);
                u = v;
            }
            let w = p / n as f64;
            for &v in &set {
                member[v as usize] += w;
                if v != s {
                    member_not_source[v as usize] += w;
                }
            }
            if set.len() == 1 {
                singleton += w;
            }
        }
        worlds += 1;
        // Next world: a mixed-radix increment over the digits.
        let mut v = 0;
        while v < n && c[v] == g.in_degree(v as VertexId) {
            c[v] = 0;
            v += 1;
        }
        if v == n {
            break;
        }
        c[v] += 1;
    }
    assert_eq!(
        worlds,
        (0..n as VertexId)
            .map(|v| g.in_degree(v) + 1)
            .product::<usize>()
    );
    Exact {
        member,
        member_not_source,
        singleton,
    }
}

/// `count` of `SAMPLES` draws is within five standard deviations of `p`.
/// The deviation is taken at `p` kept `1e-6` away from 0 and 1: a
/// threshold draw is exactly 0 with probability `2^-24` and then picks no
/// edge, so a rate the model puts at 0 or 1 may still miss once or twice.
fn assert_rate(count: usize, p: f64, what: &str) {
    let n = SAMPLES as f64;
    let got = count as f64 / n;
    let q = p.clamp(1e-6, 1.0 - 1e-6);
    let bound = 5.0 * (q * (1.0 - q) / n).sqrt();
    assert!(
        (got - p).abs() <= bound,
        "{what}: sampled {got:.5}, exact {p:.5}, 5 sigma {bound:.5}"
    );
}

fn check<G: DeviceGraph>(view: &G, oracle: &Exact, seed: u64, what: &str) {
    for elim in [false, true] {
        let device = Device::new(DeviceSpec::rtx_a6000_with_mem(512 << 20));
        let b = sample_batch(
            &device,
            view,
            DiffusionModel::LinearThreshold,
            seed,
            0,
            SAMPLES,
            elim,
        )
        .unwrap();
        let what = format!("{what}/elim={elim}");
        assert_eq!(b.counters.sampled, SAMPLES, "{what}");
        assert_rate(
            b.counters.singletons,
            oracle.singleton,
            &format!("{what}: singletons"),
        );
        let expected = if elim {
            assert_eq!(b.counters.discarded, b.counters.singletons, "{what}");
            &oracle.member_not_source
        } else {
            &oracle.member
        };
        for (v, (&count, &p)) in b.coverage.iter().zip(expected).enumerate() {
            assert_rate(count as usize, p, &format!("{what}: vertex {v}"));
        }
    }
}

/// A 6-vertex graph whose vertex 0 has five in-edges, plus seven edges that
/// close cycles through it: twelve edges, 432 worlds.
const HUB: [(u32, u32); 12] = [
    (1, 0),
    (2, 0),
    (3, 0),
    (4, 0),
    (5, 0),
    (0, 1),
    (1, 2),
    (2, 3),
    (0, 3),
    (3, 4),
    (4, 5),
    (2, 5),
];

#[test]
fn fused_lt_sampler_matches_exact_inclusion_rates() {
    let hub_wc = GraphBuilder::new(6)
        .edges(HUB)
        .build(WeightModel::WeightedCascade);
    // Skewed rows, each leaving some mass on no edge. The hub's heavy last
    // in-edge puts most thresholds past the lookup's first guess, so the
    // lookup gallops.
    let skew = [
        0.05, 0.05, 0.05, 0.05, 0.7, 0.9, 0.6, 0.8, 0.1, 0.3, 0.5, 0.25,
    ];
    let lines: String = HUB
        .iter()
        .zip(skew)
        .map(|(&(u, v), w)| format!("{u} {v} {w}\n"))
        .collect();
    let hub_skewed = parse_weighted_edge_list(lines.as_bytes()).unwrap().0;
    // Every vertex of a 6-ring with chords has in-degree two: 729 worlds.
    let ring_wc = GraphBuilder::new(6)
        .edges((0..6).flat_map(|v| [((v + 1) % 6, v), ((v + 2) % 6, v)]))
        .build(WeightModel::WeightedCascade);
    for (g, name, seed) in [
        (&hub_wc, "hub/wc", 101),
        (&hub_skewed, "hub/skewed", 202),
        (&ring_wc, "ring/wc", 303),
    ] {
        assert!(g.num_edges() <= 12, "{name}");
        let oracle = exact(g);
        check(
            &PlainDeviceGraph::new(g),
            &oracle,
            seed,
            &format!("{name}/plain"),
        );
        check(
            &PackedDeviceGraph::from_graph(g),
            &oracle,
            seed + 1,
            &format!("{name}/packed"),
        );
    }
}

/// LT needs every in-row to sum to at most 1. A trivalency R-MAT graph
/// breaks that on hundreds of rows, and every LT entry point refuses it
/// with a typed error before sampling: the builder, the multi-device
/// engine, the gIM and cuRipples baselines, the CPU engine's first
/// extension, and the streaming engine's replay. IC takes the same graph, and weighted cascade's `1/d` rows pass
/// under LT.
#[test]
fn lt_refuses_in_rows_summing_above_one() {
    use eim::baselines::{CuRipplesEngine, GimEngine, HostSpec};
    use eim::core::{EimEngine, ScanStrategy};
    use eim::diffusion::lt_overweight_row;
    use eim::graph::generators;
    use eim::imm::{
        run_imm, CpuEngine, CpuParallelism, EngineError, HostResampler, StreamingImmEngine,
    };
    let trivalency = generators::rmat(
        2_000,
        30_000,
        generators::RmatParams::GRAPH500,
        WeightModel::Trivalency,
        43,
    );
    let (vertex, sum) = lt_overweight_row(&trivalency).expect("rows above 1");
    assert!(sum > 1.0 + 1e-6);
    let refused = Some(EngineError::LtRowAboveOne { vertex });
    let lt = DiffusionModel::LinearThreshold;
    let run = |g: &Graph, model| {
        EimBuilder::new(g)
            .model(model)
            .k(5)
            .epsilon(0.5)
            .seed(3)
            .run()
            .map(|r| r.seeds)
    };
    assert_eq!(run(&trivalency, lt).err(), refused);
    assert!(run(&trivalency, DiffusionModel::IndependentCascade).is_ok());

    let config = ImmConfig::paper_default().with_model(lt).with_k(5);
    let device = || Device::new(DeviceSpec::rtx_a6000_with_mem(512 << 20));
    let spec = DeviceSpec::rtx_a6000_with_mem(512 << 20);
    let trace = eim_trace::RunTrace::disabled();
    let multi = EimEngine::with_telemetry(&trivalency, config, spec, 4, &trace, true);
    assert_eq!(multi.err(), refused);
    let single = EimEngine::new(&trivalency, config, device(), ScanStrategy::ThreadPerSet);
    assert_eq!(single.err(), refused);
    let gim = GimEngine::new(&trivalency, config, device());
    assert_eq!(gim.err(), refused);
    let curipples = CuRipplesEngine::new(&trivalency, config, device(), HostSpec::default());
    assert_eq!(curipples.err(), refused);
    let mut cpu = CpuEngine::new(&trivalency, config, CpuParallelism::Serial);
    assert_eq!(run_imm(&mut cpu, &config).err(), refused);
    let mut streaming = StreamingImmEngine::new(
        trivalency.clone(),
        config,
        WeightModel::Trivalency,
        43,
        HostResampler::new(lt, config.seed),
    );
    assert_eq!(streaming.replay().err(), refused);

    let cascade = generators::rmat(
        2_000,
        30_000,
        generators::RmatParams::GRAPH500,
        WeightModel::WeightedCascade,
        43,
    );
    assert_eq!(lt_overweight_row(&cascade), None);
    assert!(run(&cascade, lt).is_ok());
}
