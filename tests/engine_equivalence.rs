//! Cross-engine equivalence: with the heuristics disabled, eIM, gIM,
//! cuRipples, and the CPU reference all sample the same RRR multiset (same
//! per-index RNG streams) and run the same greedy — so they must return the
//! *identical* seed set. That invariant is what makes the timing
//! comparisons of Figures 7-8 and Tables 2-5 apples-to-apples.

use eim::baselines::{CuRipplesEngine, GimEngine, HostSpec};
use eim::core::{EimEngine, MultiGpuEimEngine, ScanStrategy};
use eim::gpusim::{Device, DeviceSpec, RunTrace};
use eim::graph::generators;
use eim::imm::{run_imm, CpuEngine, CpuParallelism, ImmConfig, ImmEngine as _, RrrSets};
use eim::prelude::*;

fn test_graph(seed: u64) -> Graph {
    generators::rmat(
        400,
        2_400,
        generators::RmatParams::GRAPH500,
        WeightModel::WeightedCascade,
        seed,
    )
}

fn plain_config(model: DiffusionModel) -> ImmConfig {
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

#[test]
fn identical_seeds_across_all_engines_ic() {
    let g = test_graph(7);
    let c = plain_config(DiffusionModel::IndependentCascade);

    let mut eim = EimEngine::new(&g, c, Device::new(spec()), ScanStrategy::ThreadPerSet).unwrap();
    let r_eim = run_imm(&mut eim, &c).unwrap();

    let mut gim = GimEngine::new(&g, c, Device::new(spec())).unwrap();
    let r_gim = run_imm(&mut gim, &c).unwrap();

    let mut cur = CuRipplesEngine::new(&g, c, Device::new(spec()), HostSpec::default()).unwrap();
    let r_cur = run_imm(&mut cur, &c).unwrap();

    assert_eq!(r_eim.seeds, r_gim.seeds);
    assert_eq!(r_eim.seeds, r_cur.seeds);
    assert_eq!(r_eim.num_sets, r_gim.num_sets);
    assert_eq!(r_eim.total_elements, r_gim.total_elements);
}

#[test]
fn identical_seeds_across_all_engines_lt() {
    let g = test_graph(19);
    let c = plain_config(DiffusionModel::LinearThreshold);

    let mut eim = EimEngine::new(&g, c, Device::new(spec()), ScanStrategy::ThreadPerSet).unwrap();
    let r_eim = run_imm(&mut eim, &c).unwrap();

    let mut gim = GimEngine::new(&g, c, Device::new(spec())).unwrap();
    let r_gim = run_imm(&mut gim, &c).unwrap();

    assert_eq!(r_eim.seeds, r_gim.seeds, "LT walks must match");
    assert_eq!(r_eim.num_sets, r_gim.num_sets);
}

#[test]
fn gpu_sampler_matches_cpu_sampler_set_for_set() {
    // The device kernel and the serial reference consume the same
    // per-index RNG stream and traverse in the same order, so every RRR
    // set must be *identical*, not just statistically alike.
    use eim::diffusion::{sample_rng, sample_rrr};
    use eim_core::sampler::sample_batch;
    use eim_core::PlainDeviceGraph;
    use rand::Rng;

    let g = test_graph(29);
    let n = g.num_vertices() as u32;
    for model in [
        DiffusionModel::IndependentCascade,
        DiffusionModel::LinearThreshold,
    ] {
        let device = Device::new(spec());
        let dg = PlainDeviceGraph::new(&g);
        let batch = sample_batch(&device, &dg, model, 1234, 0, 200, false).unwrap();
        for (i, set) in batch.sets.iter().enumerate() {
            let mut rng = sample_rng(1234, i as u64);
            let source: u32 = rng.gen_range(0..n);
            let reference = sample_rrr(&g, model, source, &mut rng);
            assert_eq!(
                set,
                Some(reference.as_slice()),
                "{model}: sample {i} diverged"
            );
        }
    }
}

#[test]
fn gpu_sampler_matches_cpu_store_statistics() {
    // The device sampler and the CPU reference draw from the same RRR
    // distribution: average set sizes across many samples must agree.
    let g = test_graph(3);
    let c = plain_config(DiffusionModel::IndependentCascade);
    let mut gpu = EimEngine::new(&g, c, Device::new(spec()), ScanStrategy::ThreadPerSet).unwrap();
    let mut cpu = CpuEngine::new(&g, c, CpuParallelism::Rayon);
    gpu.extend_to(4_000).unwrap();
    cpu.extend_to(4_000).unwrap();
    let mean = |s: &dyn RrrSets| s.total_elements() as f64 / s.num_sets() as f64;
    let (mg, mc) = (mean(gpu.store()), mean(cpu.store()));
    let rel = (mg - mc).abs() / mc;
    assert!(rel < 0.05, "gpu mean {mg:.3} vs cpu mean {mc:.3}");
}

#[test]
fn scan_strategy_never_changes_results() {
    let g = test_graph(11);
    let c = plain_config(DiffusionModel::IndependentCascade);
    let run = |scan| {
        let mut e = EimEngine::new(&g, c, Device::new(spec()), scan).unwrap();
        run_imm(&mut e, &c).unwrap().seeds
    };
    assert_eq!(
        run(ScanStrategy::ThreadPerSet),
        run(ScanStrategy::WarpPerSet)
    );
}

/// FNV-1a over the store's exact byte layout: set boundaries and every
/// element in order. Byte-identical stores — not merely statistically alike —
/// hash equal.
fn store_digest(s: &dyn RrrSets) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x100000001b3);
    };
    mix(s.num_sets() as u64);
    for i in 0..s.num_sets() {
        let (lo, hi) = s.set_bounds(i);
        mix(lo as u64);
        mix(hi as u64);
        for idx in lo..hi {
            mix(s.element(idx) as u64);
        }
    }
    h
}

/// Differential harness: run every engine with copy-stream overlap on and
/// forced-serial (the `CopyStream::serialized` escape hatch), under varying
/// rayon thread counts. The overlap transform touches *timing only*: seed
/// sets and sample bytes must be identical, and overlapped simulated time can
/// never exceed the serialized schedule.
#[test]
fn overlap_on_and_off_differ_only_in_time() {
    let g = test_graph(31);
    let c = plain_config(DiffusionModel::IndependentCascade);

    type Outcome = (Vec<u32>, u64, f64);
    type EngineRun<'a> = Box<dyn Fn(bool) -> Outcome + Sync + 'a>;
    let engines: Vec<(&str, EngineRun)> = vec![
        (
            "eim",
            Box::new(|overlap| {
                let d = Device::new(spec()).with_copy_overlap(overlap);
                let mut e = EimEngine::new(&g, c, d, ScanStrategy::ThreadPerSet).unwrap();
                let r = run_imm(&mut e, &c).unwrap();
                (r.seeds, store_digest(e.store()), e.elapsed_us())
            }),
        ),
        (
            "gim",
            Box::new(|overlap| {
                let d = Device::new(spec()).with_copy_overlap(overlap);
                let mut e = GimEngine::new(&g, c, d).unwrap();
                let r = run_imm(&mut e, &c).unwrap();
                (r.seeds, store_digest(e.store()), e.elapsed_us())
            }),
        ),
        (
            "curipples",
            Box::new(|overlap| {
                let d = Device::new(spec()).with_copy_overlap(overlap);
                let mut e = CuRipplesEngine::new(&g, c, d, HostSpec::default()).unwrap();
                let r = run_imm(&mut e, &c).unwrap();
                (r.seeds, store_digest(e.store()), e.elapsed_us())
            }),
        ),
        (
            "multigpu",
            Box::new(|overlap| {
                let mut e = MultiGpuEimEngine::with_telemetry(
                    &g,
                    c,
                    spec(),
                    3,
                    &RunTrace::disabled(),
                    overlap,
                )
                .unwrap();
                let r = run_imm(&mut e, &c).unwrap();
                (r.seeds, store_digest(e.store()), e.elapsed_us())
            }),
        ),
    ];

    for threads in [1usize, 4] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        for (name, run) in &engines {
            let ((seeds_on, digest_on, us_on), (seeds_off, digest_off, us_off)) =
                pool.install(|| (run(true), run(false)));
            assert_eq!(
                seeds_on, seeds_off,
                "{name} ({threads} threads): overlap changed the seed set"
            );
            assert_eq!(
                digest_on, digest_off,
                "{name} ({threads} threads): overlap changed the sample bytes"
            );
            assert!(
                us_on <= us_off,
                "{name} ({threads} threads): overlapped schedule slower \
                 ({us_on:.3} us vs serialized {us_off:.3} us)"
            );
        }
    }
}

#[test]
fn packing_never_changes_results() {
    let g = test_graph(23);
    for elim in [false, true] {
        let base = ImmConfig::paper_default()
            .with_k(4)
            .with_epsilon(0.3)
            .with_seed(77)
            .with_source_elimination(elim);
        let run = |packed: bool| {
            let c = base.with_packed(packed);
            let mut e =
                EimEngine::new(&g, c, Device::new(spec()), ScanStrategy::ThreadPerSet).unwrap();
            run_imm(&mut e, &c).unwrap()
        };
        let plain = run(false);
        let packed = run(true);
        assert_eq!(plain.seeds, packed.seeds, "elim = {elim}");
        assert_eq!(plain.num_sets, packed.num_sets);
        assert!(packed.store_bytes < plain.store_bytes);
    }
}
