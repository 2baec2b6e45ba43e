//! The solve workloads (`ic-web`, `lt-social`): set up an engine from the
//! edge list, run one cold `run_imm`, and repeat for the run's duration.
//! The same code times the cold reference solve of `stream-social`.

use std::time::{Duration, Instant};

use eim_bitpack::PackedCsc;
use eim_core::sampler::sample_batch;
use eim_core::{EimEngine, MultiGpuEimEngine, PackedDeviceGraph, ScanStrategy};
use eim_gpusim::{Device, DeviceSpec, MetricsRegistry, RunTrace};
use eim_graph::Graph;
use eim_imm::{
    run_imm, AnyRrrStore, EngineError, ImmConfig, ImmEngine, ImmResult, RrrSets, RrrStoreBuilder,
};

use crate::clock::Stamp;
use crate::layers::{EngineTimes, TimedEngine};
use crate::report::{median, Report};
use crate::workload::{Inputs, Kind, Spec};
use crate::Args;

/// Timed solves a run makes at least, however long they take.
const MIN_SOLVES: usize = 3;

/// The simulated device every engine runs on.
pub fn device_spec() -> DeviceSpec {
    DeviceSpec::rtx_a6000()
}

/// How to construct one kind of engine.
pub trait EngineKind {
    type Engine<'g>: ImmEngine;

    fn build<'g>(
        &self,
        graph: &'g Graph,
        config: ImmConfig,
        trace: RunTrace,
    ) -> Result<Self::Engine<'g>, EngineError>;

    /// Largest minus smallest device clock after a run, in µs.
    fn clock_skew_us(engine: &Self::Engine<'_>) -> f64;
}

/// `EimEngine` on one device with the thread-per-set selection scan.
pub struct Single;

impl EngineKind for Single {
    type Engine<'g> = EimEngine<'g>;

    fn build<'g>(
        &self,
        graph: &'g Graph,
        config: ImmConfig,
        trace: RunTrace,
    ) -> Result<EimEngine<'g>, EngineError> {
        let device = Device::with_run_trace(device_spec(), trace);
        EimEngine::new(graph, config, device, ScanStrategy::ThreadPerSet)
    }

    fn clock_skew_us(_: &EimEngine<'_>) -> f64 {
        0.0
    }
}

/// `MultiGpuEimEngine` on this many devices, copy overlap on.
pub struct Multi(pub usize);

impl EngineKind for Multi {
    type Engine<'g> = MultiGpuEimEngine<'g>;

    fn build<'g>(
        &self,
        graph: &'g Graph,
        config: ImmConfig,
        trace: RunTrace,
    ) -> Result<MultiGpuEimEngine<'g>, EngineError> {
        MultiGpuEimEngine::with_telemetry(graph, config, device_spec(), self.0, &trace, true)
    }

    fn clock_skew_us(engine: &MultiGpuEimEngine<'_>) -> f64 {
        let clocks = engine.device_clocks_us();
        let max = clocks.iter().copied().fold(f64::MIN, f64::max);
        let min = clocks.iter().copied().fold(f64::MAX, f64::min);
        max - min
    }
}

/// One set-up followed by one solve.
pub struct Solve {
    /// Graph build plus engine construction.
    pub setup_s: f64,
    pub build_s: f64,
    pub new_s: f64,
    /// The `run_imm` call.
    pub solve_s: f64,
    /// The `run_imm` call on the wall clock, for the raw samples.
    pub solve_wall_s: f64,
    pub result: ImmResult,
    pub logical_sets: usize,
    pub clock_skew_us: f64,
    /// Layer times, when the engine was wrapped in a [`TimedEngine`].
    pub times: Option<EngineTimes>,
    /// One extra `PackedCsc::from_graph` on the same graph; 0 unless asked
    /// for.
    pub pack_s: f64,
}

/// Builds the graph from the edge list unless `graph` is given, constructs an
/// engine, and runs `run_imm` on it. `wrapped` times the layers,
/// `registry` collects the simulator's counters, `pack` adds the extra CSC
/// pack after the solve.
pub fn set_up_and_solve<K: EngineKind>(
    kind: &K,
    inputs: &Inputs,
    graph: Option<&Graph>,
    config: ImmConfig,
    wrapped: bool,
    registry: Option<&MetricsRegistry>,
    pack: bool,
) -> Result<Solve, EngineError> {
    let t0 = Stamp::now();
    let built;
    let graph = match graph {
        Some(g) => g,
        None => {
            built = inputs.build_graph();
            &built
        }
    };
    let build_s = t0.secs();
    let trace = match registry {
        Some(r) => RunTrace::disabled().with_metrics(r.sink().with_engine("eim")),
        None => RunTrace::disabled(),
    };
    let t1 = Stamp::now();
    let engine = kind.build(graph, config, trace)?;
    let new_s = t1.secs();
    let setup_s = t0.secs();
    let t = Stamp::now();
    let (result, logical_sets, clock_skew_us, times) = if wrapped {
        let mut engine = TimedEngine::new(engine);
        let result = run_imm(&mut engine, &config)?;
        let skew = K::clock_skew_us(engine.inner());
        let times = Some(engine.times());
        (result, engine.logical_sets(), skew, times)
    } else {
        let mut engine = engine;
        let result = run_imm(&mut engine, &config)?;
        let skew = K::clock_skew_us(&engine);
        (result, engine.logical_sets(), skew, None)
    };
    let (solve_s, solve_wall_s) = (t.secs(), t.wall_secs());
    let pack_s = if pack {
        let t = Stamp::now();
        std::hint::black_box(PackedCsc::from_graph(graph));
        t.secs()
    } else {
        0.0
    };
    Ok(Solve {
        setup_s,
        build_s,
        new_s,
        solve_s,
        solve_wall_s,
        result,
        logical_sets,
        clock_skew_us,
        times,
        pack_s,
    })
}

/// Everything that must repeat exactly between two solves of one input.
pub fn outcome_key(r: &ImmResult) -> String {
    format!(
        "seeds={:?} coverage={:016x} theta={} lower_bound={:016x} sets={} elements={} \
         store_bytes={} estimation_sets={} sim_us={:016x}",
        r.seeds,
        r.coverage.to_bits(),
        r.theta,
        r.lower_bound.to_bits(),
        r.num_sets,
        r.total_elements,
        r.store_bytes,
        r.estimation_sets,
        r.elapsed_us().to_bits(),
    )
}

/// The simulator's deterministic counters for one solve, read from its
/// metrics registry.
#[derive(Debug, Default)]
pub struct SimCounters {
    pub sample_cycles: u64,
    pub sample_transactions: u64,
    pub select_cycles: u64,
    pub kernel_launches: u64,
    pub transfer_bytes: u64,
    pub peak_bytes: u64,
}

impl SimCounters {
    pub fn read(registry: &MetricsRegistry) -> SimCounters {
        let mut c = SimCounters::default();
        for (key, profile) in registry.kernel_profiles() {
            c.kernel_launches += profile.launches;
            if key.kernel == "eim_sample" {
                c.sample_cycles += profile.cycles;
                c.sample_transactions += profile.hw.global_transactions;
            } else if key.kernel.starts_with("eim_select:") {
                c.select_cycles += profile.cycles;
            }
        }
        let json = registry.to_json();
        let series = |group: &str| {
            json[group]
                .as_object()
                .map(|m| {
                    m.iter()
                        .map(|(k, v)| (k.clone(), v.as_u64().unwrap_or(0)))
                        .collect::<Vec<_>>()
                })
                .unwrap_or_default()
        };
        for (name, v) in series("counters") {
            if name.starts_with("eim_transfer_bytes_total") {
                c.transfer_bytes += v;
            }
        }
        for (name, v) in series("gauges") {
            if name.starts_with("eim_device_mem_peak_bytes") {
                c.peak_bytes = c.peak_bytes.max(v);
            }
        }
        c
    }
}

/// Replays samples `[0, logical_sets)` once through the fused sampler on a
/// fresh device and once through the store's bulk ingest on a fresh store.
/// Returns `(sample_s, ingest_s, stored_sets, elements)`.
pub fn replay_layers(
    graph: &Graph,
    config: &ImmConfig,
    logical_sets: usize,
) -> Result<(f64, f64, usize, usize), EngineError> {
    assert!(config.packed, "every workload runs the packed layout");
    let device_graph = PackedDeviceGraph::new(PackedCsc::from_graph(graph));
    let device = Device::new(device_spec());
    let t = Stamp::now();
    let batch = sample_batch(
        &device,
        &device_graph,
        config.model,
        config.seed,
        0,
        logical_sets,
        config.source_elimination,
    )?;
    let sample_s = t.secs();
    let mut store = AnyRrrStore::new(graph.num_vertices(), config.packed);
    let t = Stamp::now();
    let lens: Vec<usize> = batch.sets.kept_lens().collect();
    store.append_batch(batch.sets.arena(), &lens, &batch.coverage);
    let ingest_s = t.secs();
    Ok((sample_s, ingest_s, store.num_sets(), store.total_elements()))
}

/// Digest lines of one solve: its outputs and simulated counters, no wall
/// times.
fn digest_solve(report: &mut Report, label: &str, solve: &Solve, registry: &MetricsRegistry) {
    report.digest(format!("{label}.outcome {}", outcome_key(&solve.result)));
    let p = &solve.result.phases;
    report.digest(format!(
        "{label}.phases_us estimation={:016x} sampling={:016x} selection={:016x}",
        p.estimation_us.to_bits(),
        p.sampling_us.to_bits(),
        p.selection_us.to_bits()
    ));
    report.digest(format!(
        "{label}.engine logical_sets={} clock_skew_us={:016x}",
        solve.logical_sets,
        solve.clock_skew_us.to_bits()
    ));
    report.digest(format!("{label}.registry {}", registry.to_json()));
}

/// Per-layer metrics of the solve path, from the wrapped solves, the
/// warm-up's counters, and the layer replays.
pub fn solve_layers(
    report: &mut Report,
    warm: &Solve,
    sim: &SimCounters,
    wrapped: &[&Solve],
    replay: (f64, f64),
) {
    let times: Vec<EngineTimes> = wrapped.iter().filter_map(|s| s.times).collect();
    let warm_times = warm.times.unwrap_or_default();
    let of = |f: fn(&EngineTimes) -> f64| median(&times.iter().map(f).collect::<Vec<_>>());
    let other: Vec<f64> = wrapped
        .iter()
        .zip(&times)
        .map(|(s, t)| s.solve_s - t.extend_s - t.select_s)
        .collect();
    let uncovered: Vec<f64> = wrapped
        .iter()
        .zip(&other)
        .map(|(s, o)| o / s.solve_s)
        .collect();
    let r = &warm.result;
    report.set("sampler.extend_s", of(|t| t.extend_s));
    report.set("sampler.extend_calls", warm_times.extend_calls as f64);
    report.set("sampler.batch_s", replay.0);
    report.set("store.ingest_s", replay.1);
    report.set("sampler.logical_sets", warm.logical_sets as f64);
    report.set("sampler.stored_sets", r.num_sets as f64);
    report.set("sampler.elements", r.total_elements as f64);
    report.set(
        "sampler.kept_frac",
        r.num_sets as f64 / warm.logical_sets.max(1) as f64,
    );
    report.set("sampler.sim_cycles", sim.sample_cycles as f64);
    report.set(
        "sampler.global_transactions",
        sim.sample_transactions as f64,
    );
    report.set("select.s", of(|t| t.select_s));
    report.set("select.calls", warm_times.select_calls as f64);
    report.set("select.sets_scanned", warm_times.sets_scanned as f64);
    report.set("select.sim_cycles", sim.select_cycles as f64);
    report.set("driver.other_s", median(&other));
    report.set("multigpu.clock_skew_us", warm.clock_skew_us);
    report.set("store.bytes", r.store_bytes as f64);
    report.set("gpusim.transfer_bytes", sim.transfer_bytes as f64);
    report.set("gpusim.kernel_launches", sim.kernel_launches as f64);
    let uncovered = median(&uncovered);
    report.set("layers.uncovered_frac", uncovered);
    report.note(format!(
        "layer coverage: extend + select = {:.1}% of the solve (uncovered {:.2}%)",
        100.0 * (1.0 - uncovered),
        100.0 * uncovered
    ));
}

/// Runs `ic-web` or `lt-social`: a warm-up solve that is the reference and
/// the digest's source, then set-up plus solve until `--seconds` have
/// passed. A traced run wraps every other solve.
pub fn run<K: EngineKind>(
    kind: &K,
    spec: &Spec,
    args: &Args,
    report: &mut Report,
) -> Result<(), String> {
    let inputs = Inputs::generate(spec, args.seed, 0);
    let config = spec.config(args.seed);
    report.digest(format!(
        "workload={} seed={} n={} input_edges={} config={config:?}",
        spec.name,
        args.seed,
        inputs.n,
        inputs.edges.len()
    ));

    let registry = MetricsRegistry::new();
    let warm = set_up_and_solve(
        kind,
        &inputs,
        None,
        config,
        args.trace,
        Some(&registry),
        false,
    )
    .map_err(|e| format!("warm-up solve failed: {e}"))?;
    report.tally.record(true, "warm-up solve");
    digest_solve(report, "solve", &warm, &registry);
    let reference = outcome_key(&warm.result);
    let sim = SimCounters::read(&registry);
    drop(registry);

    let mut timed: Vec<Solve> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut i = 0usize;
    while i < MIN_SOLVES || Instant::now() < deadline {
        let wrapped = args.trace && i.is_multiple_of(2);
        match set_up_and_solve(kind, &inputs, None, config, wrapped, None, args.trace) {
            Ok(s) => {
                let same = outcome_key(&s.result) == reference;
                report
                    .tally
                    .record(same, "a timed solve differs from the warm-up solve");
                timed.push(s);
            }
            Err(e) => report.tally.record(false, &format!("timed solve: {e}")),
        }
        i += 1;
    }
    if timed.is_empty() {
        return Err("no timed solve succeeded".into());
    }

    if let Kind::Multi(d) = spec.kind {
        // The sharded engine must select exactly what one device selects.
        let ok = match set_up_and_solve(&Single, &inputs, None, config, false, None, false) {
            Ok(single) => single.result.seeds == warm.result.seeds,
            Err(_) => false,
        };
        report.tally.record(
            ok,
            &format!("D={d} seeds differ from the D=1 EimEngine seeds"),
        );
    }

    let solve_s: Vec<f64> = timed.iter().map(|s| s.solve_s).collect();
    let solve_wall_s: Vec<f64> = timed.iter().map(|s| s.solve_wall_s).collect();
    let setup_s: Vec<f64> = timed.iter().map(|s| s.setup_s).collect();
    report.samples("solve_s", &solve_s);
    report.samples("solve_wall_s", &solve_wall_s);
    report.samples("setup_s", &setup_s);
    report.set("setup_s", median(&setup_s));
    report.set("solve_s", median(&solve_s));
    report.set("sim_ms", warm.result.elapsed_us() / 1e3);
    report.set(
        "device_peak_mb",
        sim.peak_bytes as f64 / (1u64 << 20) as f64,
    );
    report.note(format!(
        "{}: {} timed solves, solve_s median {:.4} s CPU (min {:.4}, max {:.4}; wall median {:.4} s), \
         setup_s median {:.4} s, sim {:.3} ms, device peak {:.1} MB",
        spec.name,
        timed.len(),
        median(&solve_s),
        solve_s.iter().copied().fold(f64::MAX, f64::min),
        solve_s.iter().copied().fold(0.0, f64::max),
        median(&solve_wall_s),
        median(&setup_s),
        warm.result.elapsed_us() / 1e3,
        sim.peak_bytes as f64 / (1u64 << 20) as f64,
    ));

    if args.trace {
        let (wrapped, plain): (Vec<&Solve>, Vec<&Solve>) =
            timed.iter().partition(|s| s.times.is_some());
        let replay = replay_layers(&inputs.build_graph(), &config, warm.logical_sets);
        let replay = match replay {
            Ok((sample_s, ingest_s, sets, elements)) => {
                let same = sets == warm.result.num_sets && elements == warm.result.total_elements;
                report.tally.record(
                    same,
                    "the layer replay stored different sets than the solve",
                );
                (sample_s, ingest_s)
            }
            Err(e) => {
                report.tally.record(false, &format!("layer replay: {e}"));
                (0.0, 0.0)
            }
        };
        solve_layers(report, &warm, &sim, &wrapped, replay);
        set_up_layers(report, &timed);
        let traced = median(&wrapped.iter().map(|s| s.solve_s).collect::<Vec<_>>());
        let untraced = median(&plain.iter().map(|s| s.solve_s).collect::<Vec<_>>());
        report.set("trace.overhead_frac", traced / untraced - 1.0);
        for name in STREAM_LAYERS {
            report.set(name, 0.0);
        }
    }
    Ok(())
}

/// Set-up layer metrics of the timed solves.
fn set_up_layers(report: &mut Report, timed: &[Solve]) {
    let of = |f: fn(&Solve) -> f64| median(&timed.iter().map(f).collect::<Vec<_>>());
    report.set("graph.build_s", of(|s| s.build_s));
    report.set("engine.new_s", of(|s| s.new_s));
    report.set("bitpack.pack_s", of(|s| s.pack_s));
}

/// The streaming layer's metrics, 0 on the solve workloads.
const STREAM_LAYERS: [&str; 12] = [
    "stream.initial_replay_s",
    "stream.resample_s",
    "stream.invalidate_s",
    "stream.replay_s",
    "graph.apply_delta_s",
    "stream.other_s",
    "stream.recompute_s",
    "stream.changed_heads",
    "stream.resampled_sets",
    "stream.decoded_sets",
    "stream.fresh_sets",
    "stream.resampled_frac",
];
