//! The streaming workload (`stream-social`): set up a `StreamingImmEngine`
//! with its initial replay, then apply update batches with `apply_update`
//! for the run's duration, and check the final seeds against a cold solve
//! of the mutated graph.

use std::rc::Rc;
use std::time::{Duration, Instant};

use eim_bitpack::PackedCsc;
use eim_core::DeviceResampler;
use eim_gpusim::{Device, MetricsRegistry};
use eim_graph::{Graph, GraphDelta};
use eim_imm::{EngineError, ImmConfig, StreamRunResult, StreamingImmEngine};

use crate::clock::Stamp;
use crate::layers::{ObservedResampler, ResamplerProbe};
use crate::report::{median, Report, Tally};
use crate::solve::{
    device_spec, replay_layers, set_up_and_solve, solve_layers, SimCounters, Single,
};
use crate::workload::{Inputs, Spec, WEIGHTS};
use crate::Args;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Timed batches a run applies at least, however long they take.
const MIN_BATCHES: usize = 4;
/// Batches recorded in the digest: the warm-up batch and the first timed
/// ones, which every run applies.
const DIGEST_BATCHES: usize = 4;
/// Update batches generated per run; a run stops early if it uses them all.
const BATCHES: usize = 120;

/// CPU times of one set-up.
#[derive(Clone, Copy)]
struct SetupTimes {
    setup_s: f64,
    build_s: f64,
    new_s: f64,
    replay_s: f64,
    /// One extra `PackedCsc::from_graph` of the graph (traced runs only).
    pack_s: f64,
}

/// A streaming engine ready for updates.
struct Setup {
    engine: StreamingImmEngine<ObservedResampler>,
    probe: Rc<ResamplerProbe>,
    initial: StreamRunResult,
    times: SetupTimes,
}

/// Graph build, resampler and engine construction, and the initial replay
/// that produces the first seeds.
fn set_up(inputs: &Inputs, config: ImmConfig, pack: bool) -> Result<Setup, EngineError> {
    let t0 = Stamp::now();
    let graph = inputs.build_graph();
    let build_s = t0.secs();
    let t1 = Stamp::now();
    let device = Device::new(device_spec());
    let resampler = DeviceResampler::new(device, &graph, config.model, config.seed);
    let (resampler, probe) = ObservedResampler::new(resampler);
    let mut engine = StreamingImmEngine::new(graph, config, WEIGHTS, inputs.seed, resampler);
    let new_s = t1.secs();
    let t2 = Stamp::now();
    let initial = engine.replay()?;
    let replay_s = t2.secs();
    let setup_s = t0.secs();
    let pack_s = if pack {
        let t = Stamp::now();
        std::hint::black_box(PackedCsc::from_graph(engine.graph()));
        t.secs()
    } else {
        0.0
    };
    Ok(Setup {
        engine,
        probe,
        initial,
        times: SetupTimes {
            setup_s,
            build_s,
            new_s,
            replay_s,
            pack_s,
        },
    })
}

fn stream_key(r: &StreamRunResult) -> String {
    format!(
        "seeds={:?} coverage={:016x} sets={} cutoff={} theta={} lower_bound={:016x}",
        r.seeds,
        r.coverage.to_bits(),
        r.num_sets,
        r.cutoff,
        r.theta,
        r.lower_bound.to_bits()
    )
}

/// One applied update batch.
struct Batch {
    traced: bool,
    update_s: f64,
    /// The update on the wall clock, for the raw samples.
    update_wall_s: f64,
    /// Advance of the resampler device's clock.
    sim_us: f64,
    resample_s: f64,
    invalidate_s: f64,
    replay_s: f64,
    apply_delta_s: f64,
    changed_heads: usize,
    resampled: usize,
    decoded: usize,
    fresh: usize,
    resampled_frac: f64,
    digest: String,
    seeds: Vec<u32>,
}

/// Applies `delta` to the engine and to the shadow graph. A traced batch
/// also predicts the invalidated slots first and replays once more after,
/// and checks both against the update's report.
fn apply_batch(
    setup: &mut Setup,
    shadow: &mut Graph,
    delta: &GraphDelta,
    weight_seed: u64,
    traced: bool,
    tally: &mut Tally,
) -> Result<Batch, EngineError> {
    let predicted = traced.then(|| {
        let t = Stamp::now();
        let slots = setup.engine.predict_invalidated(delta);
        (slots, t.secs())
    });
    let (busy0, sim0) = (setup.probe.busy_s.get(), setup.probe.sim_us.get());
    let t = Stamp::now();
    let report = setup.engine.apply_update(delta)?;
    let (update_s, update_wall_s) = (t.secs(), t.wall_secs());
    let resample_s = setup.probe.busy_s.get() - busy0;
    let sim_us = setup.probe.sim_us.get() - sim0;
    let t = Stamp::now();
    shadow.apply_delta(delta, WEIGHTS, weight_seed);
    let apply_delta_s = t.secs();
    let mut replay_s = 0.0;
    let mut invalidate_s = 0.0;
    if let Some((slots, s)) = predicted {
        invalidate_s = s;
        tally.record(
            slots == report.resampled_slots,
            "predict_invalidated disagrees with the slots apply_update redrew",
        );
        let t = Stamp::now();
        let replay = setup.engine.replay();
        replay_s = t.secs();
        let same = replay.is_ok_and(|r| r == report.result);
        tally.record(same, "a second replay differs from the update's result");
    }
    Ok(Batch {
        traced,
        update_s,
        update_wall_s,
        sim_us,
        resample_s,
        invalidate_s,
        replay_s,
        apply_delta_s,
        changed_heads: report.changed_heads,
        resampled: report.resampled_slots.len(),
        decoded: report.decoded_sets,
        fresh: report.fresh_slots,
        resampled_frac: report.resampled_fraction(),
        digest: format!(
            "changed_heads={} resampled={} fresh={} decoded={} slots={} sim_us={:016x} {}",
            report.changed_heads,
            report.resampled_slots.len(),
            report.fresh_slots,
            report.decoded_sets,
            report.slots,
            sim_us.to_bits(),
            stream_key(&report.result)
        ),
        seeds: report.result.seeds,
    })
}

/// Runs `stream-social`.
pub fn run(spec: &Spec, args: &Args, report: &mut Report) -> Result<(), String> {
    let inputs = Inputs::generate(spec, args.seed, BATCHES);
    let config = spec.config(args.seed);
    report.digest(format!(
        "workload={} seed={} n={} input_edges={} batches={} config={config:?}",
        spec.name,
        args.seed,
        inputs.n,
        inputs.edges.len(),
        inputs.batches.len()
    ));

    let mut setups: Vec<SetupTimes> = Vec::new();
    let mut first_key: Option<String> = None;
    let mut current: Option<Setup> = None;
    for i in 0..SETUPS {
        drop(current.take()); // free the previous engine before timing the next set-up
        let s =
            set_up(&inputs, config, args.trace).map_err(|e| format!("set-up {i} failed: {e}"))?;
        let key = format!(
            "slots={} store={:016x} sim_us={:016x} {}",
            s.engine.slots(),
            s.engine.store_digest(),
            s.probe.sim_us.get().to_bits(),
            stream_key(&s.initial)
        );
        let same = first_key.as_ref().is_none_or(|first| *first == key);
        report
            .tally
            .record(same, "a set-up's initial replay differs from the first one");
        if first_key.is_none() {
            report.digest(format!("setup {key}"));
            first_key = Some(key);
        }
        setups.push(s.times);
        current = Some(s);
    }
    let mut setup = current.expect("at least one set-up");

    let mut shadow = inputs.build_graph();
    let mut batches: Vec<Batch> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    for (i, delta) in inputs.batches.iter().enumerate() {
        // Batch 0 is the warm-up; every other timed batch of a traced run
        // is traced.
        if i > 0 && batches.len() >= MIN_BATCHES && Instant::now() >= deadline {
            break;
        }
        let traced = args.trace && i > 0 && i % 2 == 1;
        let batch = apply_batch(
            &mut setup,
            &mut shadow,
            delta,
            inputs.seed,
            traced,
            &mut report.tally,
        )
        .map_err(|e| format!("update batch {i} failed: {e}"))?;
        report.tally.record(true, "update batch");
        if i < DIGEST_BATCHES {
            report.digest(format!("batch{i} {}", batch.digest));
        }
        if i > 0 {
            batches.push(batch);
        }
    }
    let final_seeds = batches.last().map(|b| b.seeds.clone()).unwrap_or_default();
    drop(setup);

    // The incremental seeds must equal a cold solve of the mutated graph.
    let registry = MetricsRegistry::new();
    let reference = set_up_and_solve(
        &Single,
        &inputs,
        Some(&shadow),
        config,
        args.trace,
        Some(&registry),
        false,
    );
    let reference = match reference {
        Ok(r) => r,
        Err(e) => return Err(format!("cold reference solve failed: {e}")),
    };
    report.tally.record(
        reference.result.seeds == final_seeds,
        "the last batch's seeds differ from a cold solve of the mutated graph",
    );
    let sim = SimCounters::read(&registry);

    let update_s: Vec<f64> = batches.iter().map(|b| b.update_s).collect();
    let update_wall_s: Vec<f64> = batches.iter().map(|b| b.update_wall_s).collect();
    let setup_s: Vec<f64> = setups.iter().map(|s| s.setup_s).collect();
    let sim_ms: Vec<f64> = batches.iter().map(|b| b.sim_us / 1e3).collect();
    report.samples("update_s", &update_s);
    report.samples("update_wall_s", &update_wall_s);
    report.samples("setup_s", &setup_s);
    report.set("setup_s", median(&setup_s));
    report.set("solve_s", median(&update_s));
    report.set("sim_ms", median(&sim_ms));
    report.set(
        "device_peak_mb",
        sim.peak_bytes as f64 / (1u64 << 20) as f64,
    );
    report.note(format!(
        "{}: {} timed batches, update median {:.4} s CPU (min {:.4}, max {:.4}; wall median {:.4} s), \
         setup_s median {:.4} s, resampler sim {:.3} ms per batch, cold recompute {:.4} s",
        spec.name,
        batches.len(),
        median(&update_s),
        update_s.iter().copied().fold(f64::MAX, f64::min),
        update_s.iter().copied().fold(0.0, f64::max),
        median(&update_wall_s),
        median(&setup_s),
        median(&sim_ms),
        reference.solve_s,
    ));

    if args.trace {
        let replay = match replay_layers(&shadow, &config, reference.logical_sets) {
            Ok((sample_s, ingest_s, _, _)) => (sample_s, ingest_s),
            Err(e) => {
                report.tally.record(false, &format!("layer replay: {e}"));
                (0.0, 0.0)
            }
        };
        solve_layers(report, &reference, &sim, &[&reference], replay);
        stream_layers(report, &setups, &batches, reference.solve_s);
    }
    Ok(())
}

/// Per-layer metrics of the set-ups and the traced batches.
fn stream_layers(report: &mut Report, setups: &[SetupTimes], batches: &[Batch], recompute_s: f64) {
    let of_setups = |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    report.set("graph.build_s", of_setups(|s| s.build_s));
    report.set("engine.new_s", of_setups(|s| s.new_s));
    report.set("stream.initial_replay_s", of_setups(|s| s.replay_s));
    report.set("bitpack.pack_s", of_setups(|s| s.pack_s));

    let (traced, plain): (Vec<&Batch>, Vec<&Batch>) = batches.iter().partition(|b| b.traced);
    let of = |f: fn(&Batch) -> f64| median(&traced.iter().map(|b| f(b)).collect::<Vec<_>>());
    report.set("stream.resample_s", of(|b| b.resample_s));
    report.set("stream.invalidate_s", of(|b| b.invalidate_s));
    report.set("stream.replay_s", of(|b| b.replay_s));
    report.set("graph.apply_delta_s", of(|b| b.apply_delta_s));
    report.set("stream.other_s", of(other_s));
    report.set("stream.recompute_s", recompute_s);
    report.set("stream.changed_heads", of(|b| b.changed_heads as f64));
    report.set("stream.resampled_sets", of(|b| b.resampled as f64));
    report.set("stream.decoded_sets", of(|b| b.decoded as f64));
    report.set("stream.fresh_sets", of(|b| b.fresh as f64));
    report.set("stream.resampled_frac", of(|b| b.resampled_frac));
    let uncovered = of(|b| other_s(b) / b.update_s);
    report.set("layers.uncovered_frac", uncovered);
    report.note(format!(
        "stream layer coverage: resample + invalidate + replay + apply_delta = {:.1}% of the update \
         (stream.other_s, the patch and postings remainder, {:.2}%)",
        100.0 * (1.0 - uncovered),
        100.0 * uncovered
    ));
    let traced_s = median(&traced.iter().map(|b| b.update_s).collect::<Vec<_>>());
    let plain_s = median(&plain.iter().map(|b| b.update_s).collect::<Vec<_>>());
    report.set("trace.overhead_frac", traced_s / plain_s - 1.0);
}

/// The part of an update no measured row covers: patching the store and
/// the postings.
fn other_s(b: &Batch) -> f64 {
    b.update_s - b.resample_s - b.invalidate_s - b.replay_s - b.apply_delta_s
}
