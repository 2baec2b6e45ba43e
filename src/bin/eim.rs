//! `eim` — command-line influence maximization.
//!
//! ```text
//! eim --input graph.txt [OPTIONS]
//! eim --dataset EE --scale 0.01 [OPTIONS]    # synthetic stand-in
//! eim profile --dataset EE [OPTIONS]         # nvprof-style kernel table
//! eim top --replay run.jsonl [--follow] [--once] [--plain] [--check]
//!                                            # live dashboard over a
//!                                            # --snapshot-stream file
//!
//! Input (exactly one):
//!   --input <file>       SNAP edge list (src dst per line, # comments)
//!   --weighted <file>    weighted edge list (src dst p per line)
//!   --dataset <abbrev>   registry stand-in (WV, PG, ..., SL)
//!
//! Options:
//!   --k <n>              seed-set size                 [50]
//!   --eps <f>            approximation parameter       [0.1]
//!   --model <ic|lt>      diffusion model               [ic]
//!   --engine <eim|gim|curipples|cpu|multigpu>          [eim]
//!   --devices <n>        device count (multigpu)       [2]
//!   --scale <f>          dataset scale (with --dataset) [0.01]
//!   --seed <n>           RNG seed                      [7]
//!   --device-mem-mb <f>  override device memory capacity (MB)
//!   --no-pack            disable log encoding (eIM only)
//!   --no-elim            disable source elimination (eIM only)
//!   --spread-sims <n>    Monte-Carlo spread evaluations [0 = skip]
//!   --updates <spec>     streaming mode: apply a generated edge-update
//!                        stream and maintain the RRR universe
//!                        incrementally. Spec keys (comma-separated):
//!                        "batches=4,edges=16,insert=0.5,seed=1".
//!                        Supports --engine cpu (host resampler) and
//!                        eim (device resampler); composes with
//!                        --checkpoint / --resume / --ckpt-kill-after.
//!   --inject-faults <s>  deterministic fault schedule, e.g.
//!                        "seed=42,kernel=0.05,transfer=0.02,device_fail=0.001,
//!                         link_flap=0.01,straggler=3@8:24,pressure=0.6@8:24"
//!   --recovery <mode>    abort | retry | degrade       [abort]
//!   --max-retries <n>    retry budget per batch (with --recovery)
//!   --checkpoint <dir>   persist run checkpoints into <dir> (atomic
//!                        tmp-then-rename; the latest always wins)
//!   --resume             reconstruct the run from <dir>'s checkpoint and
//!                        continue; output is identical to an uninterrupted run
//!   --ckpt-kill-after <n> interrupt deliberately after the n-th checkpoint
//!                        write (exit code 3) — the kill half of kill/resume
//!                        tests
//!   --no-overlap         force-serialize copy streams (no compute/copy
//!                        overlap); results are identical, only slower
//!   --trace <file>       write a Chrome trace-event JSON (Perfetto)
//!   --trace-event-cap <n> retain at most n trace events per category;
//!                        drops are counted in the summary's dropped_events
//!   --metrics <file>     write simulated hardware counters in Prometheus
//!                        text exposition format (atomic tmp-then-rename)
//!   --snapshot-stream <file>  write phase-scoped interval-delta metrics
//!                        snapshots as JSONL, keyed to the simulated clock
//!                        (consume with `eim top`); deterministic across
//!                        identical runs and exactly reconciling to the
//!                        final registry
//!   --snapshot-interval-us <n>  simulated µs per snapshot interval [1000]
//!   --json               machine-readable output (includes a "metrics" block)
//! ```

use std::fs::File;
use std::path::{Path, PathBuf};

use std::sync::Arc;

use eim::baselines::{CuRipplesEngine, GimEngine, HostSpec};
use eim::core::DeviceResampler;
use eim::core::{DeviceRecoverySummary, EimEngine, ScanStrategy};
use eim::diffusion::estimate_spread;
use eim::gpusim::{
    provenance, write_metrics_file, Device, DeviceSpec, FaultPlan, FaultSpec, MetricsRegistry,
    Phase, RunTrace,
};
use eim::graph::{
    generators, parse_edge_list, parse_weighted_edge_list, Dataset, GraphDelta, GraphStats,
    VertexId,
};
use eim::imm::{
    run_fingerprint, run_imm_checkpointed, run_stream, Checkpointing, CpuEngine, CpuParallelism,
    EngineError, HostResampler, ImmConfig, ImmEngine, ImmResult, RecoveryPolicy, RecoveryReport,
    Resampler, RunCheckpoint, StreamCheckpointing, StreamingImmEngine, UpdateReport,
};
use eim::prelude::*;

struct Args {
    profile: bool,
    input: Option<String>,
    weighted: Option<String>,
    dataset: Option<String>,
    k: usize,
    eps: f64,
    model: DiffusionModel,
    engine: String,
    scale: f64,
    seed: u64,
    device_mem_mb: Option<f64>,
    pack: bool,
    elim: bool,
    spread_sims: usize,
    updates: Option<generators::UpdateStreamSpec>,
    devices: usize,
    faults: Option<FaultSpec>,
    recovery: RecoveryPolicy,
    max_retries: Option<u32>,
    checkpoint: Option<String>,
    resume: bool,
    ckpt_kill_after: Option<u32>,
    no_overlap: bool,
    trace: Option<String>,
    trace_event_cap: Option<usize>,
    metrics: Option<String>,
    snapshot_stream: Option<String>,
    snapshot_interval_us: u64,
    json: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: eim [profile] (--input <file> | --weighted <file> | --dataset <abbrev>) \
         [--k n] [--eps f] [--model ic|lt] \
         [--engine eim|gim|curipples|cpu|multigpu] [--devices n] \
         [--scale f] [--seed n] [--device-mem-mb f] [--no-pack] [--no-elim] \
         [--spread-sims n] [--updates spec] [--inject-faults spec] \
         [--recovery abort|retry|degrade] [--max-retries n] \
         [--checkpoint <dir>] [--resume] [--ckpt-kill-after n] [--no-overlap] \
         [--trace <file>] [--trace-event-cap n] [--metrics <file>] \
         [--snapshot-stream <file>] [--snapshot-interval-us n] [--json]\n\
       eim top --replay <file.jsonl> [--follow] [--once] [--plain] [--check]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut a = Args {
        profile: false,
        input: None,
        weighted: None,
        dataset: None,
        k: 50,
        eps: 0.1,
        model: DiffusionModel::IndependentCascade,
        engine: "eim".into(),
        scale: 0.01,
        seed: 7,
        device_mem_mb: None,
        pack: true,
        elim: true,
        spread_sims: 0,
        updates: None,
        devices: 2,
        faults: None,
        recovery: RecoveryPolicy::abort(),
        max_retries: None,
        checkpoint: None,
        resume: false,
        ckpt_kill_after: None,
        no_overlap: false,
        trace: None,
        trace_event_cap: None,
        metrics: None,
        snapshot_stream: None,
        snapshot_interval_us: 1000,
        json: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    if it.peek().map(String::as_str) == Some("profile") {
        a.profile = true;
        it.next();
    }
    while let Some(arg) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--input" => a.input = Some(val()),
            "--weighted" => a.weighted = Some(val()),
            "--dataset" => a.dataset = Some(val()),
            "--k" => a.k = val().parse().unwrap_or_else(|_| usage()),
            "--eps" => a.eps = val().parse().unwrap_or_else(|_| usage()),
            "--model" => {
                a.model = match val().to_ascii_lowercase().as_str() {
                    "ic" => DiffusionModel::IndependentCascade,
                    "lt" => DiffusionModel::LinearThreshold,
                    _ => usage(),
                }
            }
            "--engine" => a.engine = val().to_ascii_lowercase(),
            "--scale" => a.scale = val().parse().unwrap_or_else(|_| usage()),
            "--seed" => a.seed = val().parse().unwrap_or_else(|_| usage()),
            "--device-mem-mb" => a.device_mem_mb = Some(val().parse().unwrap_or_else(|_| usage())),
            "--no-pack" => a.pack = false,
            "--no-elim" => a.elim = false,
            "--spread-sims" => a.spread_sims = val().parse().unwrap_or_else(|_| usage()),
            "--updates" => {
                a.updates = Some(parse_updates_spec(&val()).unwrap_or_else(|e| {
                    eprintln!("bad --updates spec: {e}");
                    usage()
                }))
            }
            "--devices" => a.devices = val().parse().unwrap_or_else(|_| usage()),
            "--inject-faults" => {
                a.faults = Some(FaultSpec::parse(&val()).unwrap_or_else(|e| {
                    eprintln!("bad --inject-faults spec: {e}");
                    usage()
                }))
            }
            "--recovery" => {
                a.recovery = match val().to_ascii_lowercase().as_str() {
                    "abort" => RecoveryPolicy::abort(),
                    "retry" => RecoveryPolicy::retry(),
                    "degrade" => RecoveryPolicy::degrade(),
                    _ => usage(),
                }
            }
            "--max-retries" => a.max_retries = Some(val().parse().unwrap_or_else(|_| usage())),
            "--checkpoint" => a.checkpoint = Some(val()),
            "--resume" => a.resume = true,
            "--ckpt-kill-after" => {
                a.ckpt_kill_after = Some(val().parse().unwrap_or_else(|_| usage()))
            }
            "--no-overlap" => a.no_overlap = true,
            "--trace" => a.trace = Some(val()),
            "--trace-event-cap" => {
                a.trace_event_cap = Some(val().parse().unwrap_or_else(|_| usage()))
            }
            "--metrics" => a.metrics = Some(val()),
            "--snapshot-stream" => a.snapshot_stream = Some(val()),
            "--snapshot-interval-us" => {
                a.snapshot_interval_us = val().parse().unwrap_or_else(|_| usage())
            }
            "--json" => a.json = true,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    let sources = [a.input.is_some(), a.weighted.is_some(), a.dataset.is_some()]
        .iter()
        .filter(|&&b| b)
        .count();
    if sources != 1 {
        usage();
    }
    if a.devices == 0 {
        usage();
    }
    if a.resume && a.checkpoint.is_none() {
        eprintln!("--resume requires --checkpoint <dir>");
        usage();
    }
    if let Some(r) = a.max_retries {
        a.recovery = a.recovery.with_max_retries(r);
    }
    a
}

/// Parses the `--updates` grammar: comma-separated `key=value` pairs over
/// `batches` (update batches), `edges` (records per batch), `insert`
/// (insert fraction in `[0, 1]`), and `seed` (stream RNG seed). Omitted
/// keys take the [`generators::UpdateStreamSpec`] defaults.
fn parse_updates_spec(s: &str) -> Result<generators::UpdateStreamSpec, String> {
    let mut spec = generators::UpdateStreamSpec::default();
    for part in s.split(',').filter(|p| !p.is_empty()) {
        let (key, value) = part
            .split_once('=')
            .ok_or_else(|| format!("expected key=value, got '{part}'"))?;
        let bad = || format!("bad value for {key}: '{value}'");
        match key {
            "batches" => spec.batches = value.parse().map_err(|_| bad())?,
            "edges" => spec.edges_per_batch = value.parse().map_err(|_| bad())?,
            "insert" => {
                spec.insert_fraction = value.parse().map_err(|_| bad())?;
                if !(0.0..=1.0).contains(&spec.insert_fraction) {
                    return Err(format!("insert fraction {value} outside [0, 1]"));
                }
            }
            "seed" => spec.seed = value.parse().map_err(|_| bad())?,
            _ => return Err(format!("unknown key '{key}' (batches|edges|insert|seed)")),
        }
    }
    Ok(spec)
}

/// Generates the `--updates` stream for `graph`. Fails, rather than
/// panicking or aborting, on a graph with no pair of vertices to update and
/// on a batch count whose list cannot be allocated.
fn update_stream_for(
    graph: &Graph,
    spec: &generators::UpdateStreamSpec,
) -> Result<Vec<GraphDelta>, String> {
    let n = graph.num_vertices();
    if n < 2 {
        return Err(format!("updates need two vertices, the graph has {n}"));
    }
    // `update_stream` reserves one delta per batch up front.
    if Vec::<GraphDelta>::new()
        .try_reserve_exact(spec.batches)
        .is_err()
    {
        return Err(format!("batches={} does not fit in memory", spec.batches));
    }
    Ok(generators::update_stream(graph, spec))
}

fn load_graph(a: &Args) -> Graph {
    if let Some(path) = &a.input {
        let file = File::open(path).unwrap_or_else(|e| {
            eprintln!("cannot open {path}: {e}");
            std::process::exit(1);
        });
        parse_edge_list(file, WeightModel::WeightedCascade)
            .unwrap_or_else(|e| {
                eprintln!("parse error: {e}");
                std::process::exit(1);
            })
            .0
    } else if let Some(path) = &a.weighted {
        let file = File::open(path).unwrap_or_else(|e| {
            eprintln!("cannot open {path}: {e}");
            std::process::exit(1);
        });
        let (graph, ids) = parse_weighted_edge_list(file).unwrap_or_else(|e| {
            eprintln!("parse error: {e}");
            std::process::exit(1);
        });
        if a.model == DiffusionModel::LinearThreshold {
            if let Some((v, sum)) = lt_overweight_row(&graph) {
                eprintln!(
                    "{path}: the in-weights of vertex {} sum to {sum:.6}; \
                     the LT model needs every vertex's in-weights to sum to at most 1",
                    ids[v as usize]
                );
                std::process::exit(2);
            }
        }
        graph
    } else {
        let abbrev = a.dataset.as_deref().unwrap();
        let Some(d) = Dataset::by_abbrev(abbrev) else {
            eprintln!(
                "unknown dataset {abbrev}; known: WV PG SE SD EE WS WN CD CA WB WG CY SPR WT CO SL"
            );
            std::process::exit(1);
        };
        d.generate(a.scale, WeightModel::WeightedCascade, a.seed)
    }
}

/// The first vertex whose in-weights sum above 1, with that sum. An LT
/// reverse step picks in-edge `i` when the threshold falls in its slice of
/// the row's running sum, so past a sum of 1 an edge's slice is cut short
/// and it is picked with less than its weight. The sum is taken in `f64`
/// with `1e-6` of slack, so rows written as `f32` fractions of one (such as
/// weighted cascade's `1/d`) pass.
fn lt_overweight_row(graph: &Graph) -> Option<(VertexId, f64)> {
    (0..graph.num_vertices() as VertexId).find_map(|v| {
        let sum: f64 = graph.in_weights(v).iter().map(|&w| f64::from(w)).sum();
        (sum > 1.0 + 1e-6).then_some((v, sum))
    })
}

/// Reports an engine failure and exits nonzero. Under `--json` the error is
/// a structured object on stdout so harnesses can parse the failure mode
/// (the OOM cells of the paper's tables); otherwise a plain message on
/// stderr. A deliberate `--ckpt-kill-after` interruption exits 3 (resumable),
/// everything else exits 1. Never panics.
fn report_engine_error(json: bool, e: EngineError) -> ! {
    let code = match e {
        EngineError::Interrupted { .. } => 3,
        _ => 1,
    };
    if json {
        let err = match e {
            EngineError::OutOfMemory {
                requested,
                in_use,
                capacity,
            } => serde_json::json!({
                "kind": "out_of_memory",
                "message": e.to_string(),
                "requested_bytes": requested,
                "in_use_bytes": in_use,
                "capacity_bytes": capacity,
            }),
            EngineError::Fault(f) => serde_json::json!({
                "kind": "sim_fault",
                "message": e.to_string(),
                "fault_kind": f.kind(),
                "ordinal": f.ordinal(),
            }),
            EngineError::RetriesExhausted { fault, attempts } => serde_json::json!({
                "kind": "retries_exhausted",
                "message": e.to_string(),
                "fault_kind": fault.kind(),
                "ordinal": fault.ordinal(),
                "attempts": attempts,
            }),
            EngineError::Interrupted {
                checkpoints_written,
            } => serde_json::json!({
                "kind": "interrupted",
                "message": e.to_string(),
                "checkpoints_written": checkpoints_written,
            }),
            EngineError::CheckpointMismatch { expected, found } => serde_json::json!({
                "kind": "checkpoint_mismatch",
                "message": e.to_string(),
                "expected": expected,
                "found": found,
            }),
            EngineError::CheckpointIo => serde_json::json!({
                "kind": "checkpoint_io",
                "message": e.to_string(),
            }),
        };
        let out = serde_json::json!({ "error": err });
        println!("{}", serde_json::to_string_pretty(&out).expect("json"));
    } else {
        eprintln!("error: {e}");
    }
    std::process::exit(code);
}

/// The recovery report as a JSON object for `--json` output.
fn recovery_json(r: &RecoveryReport) -> serde_json::Value {
    serde_json::json!({
        "retries": r.retries,
        "batch_splits": r.batch_splits,
        "spill_events": r.spill_events,
        "spilled_bytes": r.spilled_bytes,
        "reloaded_bytes": r.reloaded_bytes,
        "degraded_rounds": r.degraded_rounds,
        "devices_evicted": r.devices_evicted,
        "redistributed_sets": r.redistributed_sets,
        "checkpoints_written": r.checkpoints_written,
        "resumes": r.resumes,
    })
}

/// Builds the checkpoint/restart control from the CLI flags, loading and
/// fingerprint-checking the resume checkpoint up front so a stale or
/// mismatched file fails fast with a clear message.
fn build_checkpointing(a: &Args, config: &ImmConfig, n: usize, devices: usize) -> Checkpointing {
    let fingerprint = run_fingerprint(config, n, &a.engine, devices);
    let mut c = Checkpointing {
        dir: a.checkpoint.clone().map(PathBuf::from),
        resume: None,
        kill_after: a.ckpt_kill_after,
        fingerprint,
    };
    if a.resume {
        let dir = c.dir.as_deref().expect("validated in parse_args");
        match RunCheckpoint::load(dir) {
            Ok(cp) => {
                if cp.fingerprint != fingerprint {
                    eprintln!(
                        "checkpoint in {} belongs to a different run (graph, config, \
                         engine, or device count changed)",
                        dir.display()
                    );
                    std::process::exit(1);
                }
                c.resume = Some(cp);
            }
            Err(e) => {
                eprintln!("cannot resume: {e}");
                std::process::exit(1);
            }
        }
    }
    c
}

/// Attaches the `--snapshot-stream` JSONL writer to `registry`, when the
/// flag was given. The header (schema + provenance) is written immediately
/// so `eim top --follow` can identify the stream before the first delta.
fn attach_snapshot_stream(a: &Args, registry: &MetricsRegistry) {
    let Some(path) = &a.snapshot_stream else {
        return;
    };
    let dataset = a
        .dataset
        .clone()
        .or_else(|| a.input.clone())
        .or_else(|| a.weighted.clone());
    let file = File::create(path).unwrap_or_else(|e| {
        eprintln!("cannot create snapshot stream {path}: {e}");
        std::process::exit(1);
    });
    let out = Box::new(std::io::BufWriter::new(file));
    if let Err(e) = registry.start_snapshot_stream(
        out,
        a.snapshot_interval_us,
        provenance(dataset.as_deref(), Some(a.seed)),
    ) {
        eprintln!("cannot start snapshot stream {path}: {e}");
        std::process::exit(1);
    }
}

/// Writes the Prometheus dump atomically, exiting on failure.
fn write_metrics_or_die(registry: &MetricsRegistry, path: &str) {
    if let Err(e) = write_metrics_file(registry, Path::new(path)) {
        eprintln!("cannot write metrics {path}: {e}");
        std::process::exit(1);
    }
}

/// The run's telemetry buffer: enabled when `enabled` (bounded by
/// `--trace-event-cap`), with the metrics registry attached when
/// `want_metrics`.
fn run_trace(a: &Args, enabled: bool, registry: &MetricsRegistry, want_metrics: bool) -> RunTrace {
    let trace = match (enabled, a.trace_event_cap) {
        (false, _) => RunTrace::disabled(),
        (true, Some(cap)) => RunTrace::enabled_with_event_cap(cap),
        (true, None) => RunTrace::enabled(),
    };
    if want_metrics {
        trace.with_metrics(registry.sink().with_engine(&a.engine))
    } else {
        trace
    }
}

/// Writes `trace` to `--trace` as Chrome trace-event JSON, when the flag was
/// given, exiting on failure.
fn write_trace_or_die(a: &Args, trace: &RunTrace) {
    let Some(path) = &a.trace else {
        return;
    };
    let source = a
        .dataset
        .clone()
        .or_else(|| a.input.clone())
        .or_else(|| a.weighted.clone())
        .unwrap_or_default();
    let metadata = [
        ("engine", a.engine.clone()),
        ("source", source),
        ("model", a.model.to_string()),
        ("k", a.k.to_string()),
        ("epsilon", a.eps.to_string()),
        ("seed", a.seed.to_string()),
    ];
    if let Err(e) = trace.write_chrome_file(Path::new(path), &metadata) {
        eprintln!("cannot write trace {path}: {e}");
        std::process::exit(1);
    }
}

/// Runs the update stream to completion on one streaming engine. Failures
/// include deliberate `--ckpt-kill-after` interrupts (exit 3).
fn drive_stream<R: Resampler>(
    mut engine: StreamingImmEngine<R>,
    deltas: &[eim::graph::GraphDelta],
    ckpt: &StreamCheckpointing,
) -> Result<(Vec<UpdateReport>, eim::imm::StreamRunResult), EngineError> {
    let reports = run_stream(&mut engine, deltas, ckpt)?;
    let last = engine
        .last_result()
        .cloned()
        .expect("run_stream always replays");
    Ok((reports, last))
}

/// `--updates` mode: generate the edge-update stream, maintain the RRR
/// universe incrementally, and report every checkpoint. Exits the process.
fn run_streaming_mode(a: &Args, graph: Graph, config: ImmConfig, dspec: DeviceSpec) -> ! {
    let uspec = a.updates.expect("checked by caller");
    let stats = GraphStats::of(&graph);
    let deltas = update_stream_for(&graph, &uspec).unwrap_or_else(|e| {
        eprintln!("bad --updates spec: {e}");
        std::process::exit(2)
    });
    let ckpt = StreamCheckpointing {
        dir: a.checkpoint.clone().map(PathBuf::from),
        resume: a.resume,
        kill_after: a.ckpt_kill_after,
    };
    // Streaming runs carry the same observability surface as batch runs:
    // device activity lands in the registry live (under the transfer phase),
    // and per-batch invalidation tallies are folded in afterwards under
    // stream-update. The `eim` arm's device records into the trace too.
    let registry = MetricsRegistry::new();
    let want_metrics = a.metrics.is_some() || a.snapshot_stream.is_some() || a.json;
    let trace = run_trace(a, a.trace.is_some(), &registry, want_metrics);
    attach_snapshot_stream(a, &registry);
    trace.metrics().set_phase(Phase::Transfer);
    // Closes the snapshot stream `batches + 1` intervals in and writes the
    // Chrome trace and the Prometheus dump; a failed run does so with no
    // batch folded in.
    let flush_telemetry = |batches: usize| {
        if let Err(e) =
            registry.finish_snapshot_stream((batches + 1) as f64 * a.snapshot_interval_us as f64)
        {
            eprintln!("cannot finish snapshot stream: {e}");
            std::process::exit(1);
        }
        write_trace_or_die(a, &trace);
        if let Some(path) = &a.metrics {
            write_metrics_or_die(&registry, path);
        }
    };
    let wall = std::time::Instant::now();
    let (reports, last) = match a.engine.as_str() {
        "cpu" => drive_stream(
            StreamingImmEngine::new(
                graph.clone(),
                config,
                WeightModel::WeightedCascade,
                a.seed,
                HostResampler::new(config.model, config.seed),
            ),
            &deltas,
            &ckpt,
        ),
        "eim" => {
            let base = Device::with_run_trace(dspec, trace.clone());
            let device = match &a.faults {
                Some(f) if !f.is_noop() => {
                    base.with_fault_plan(Arc::new(FaultPlan::new(f.clone())))
                }
                _ => base,
            };
            drive_stream(
                StreamingImmEngine::new(
                    graph.clone(),
                    config,
                    WeightModel::WeightedCascade,
                    a.seed,
                    DeviceResampler::new(device, &graph, config.model, config.seed),
                ),
                &deltas,
                &ckpt,
            )
        }
        _ => {
            eprintln!("--updates supports --engine cpu or eim");
            std::process::exit(2);
        }
    }
    .unwrap_or_else(|e| {
        flush_telemetry(0);
        report_engine_error(a.json, e)
    });
    let wall_s = wall.elapsed().as_secs_f64();
    if want_metrics {
        // Per-batch invalidation counters under the stream-update phase.
        // `run_stream` applies every batch internally, so the tallies are
        // folded in afterwards on a batch-indexed clock (one snapshot
        // interval per batch) — deterministic, and `eim top` reads the
        // invalidation trajectory batch by batch.
        let sink = registry.sink().with_engine(&a.engine);
        sink.set_phase(Phase::StreamUpdate);
        for (i, r) in reports.iter().enumerate() {
            r.record_metrics(&sink);
            registry.tick_snapshot_stream(((i + 1) as u64 * a.snapshot_interval_us) as f64);
        }
    }
    flush_telemetry(reports.len());
    if a.json {
        let checkpoints: Vec<serde_json::Value> = reports
            .iter()
            .map(|r| {
                serde_json::json!({
                    "batch": r.batch,
                    "changed_heads": r.changed_heads,
                    "resampled_sets": r.resampled_slots.len(),
                    "fresh_sets": r.fresh_slots,
                    "decoded_sets": r.decoded_sets,
                    "slots": r.slots,
                    "resampled_fraction": r.resampled_fraction(),
                    "seeds": r.result.seeds.clone(),
                    "coverage": r.result.coverage,
                    "rrr_sets": r.result.num_sets,
                })
            })
            .collect();
        let out = serde_json::json!({
            "mode": "streaming",
            "engine": a.engine.clone(),
            "model": a.model.to_string(),
            "k": a.k,
            "epsilon": a.eps,
            "graph": serde_json::json!({ "vertices": stats.vertices, "edges": stats.edges }),
            "updates": serde_json::json!({
                "batches": uspec.batches,
                "edges_per_batch": uspec.edges_per_batch,
                "insert_fraction": uspec.insert_fraction,
                "seed": uspec.seed,
                "applied": reports.len(),
            }),
            "checkpoints": serde_json::json!(checkpoints),
            "seeds": last.seeds,
            "coverage": last.coverage,
            "rrr_sets": last.num_sets,
            "theta": last.theta,
            "wall_seconds": wall_s,
            "metrics": registry.to_json(),
        });
        println!("{}", serde_json::to_string_pretty(&out).expect("json"));
    } else {
        println!(
            "graph: {} vertices, {} edges | engine: {} (streaming) | model: {} | k = {}, eps = {}",
            stats.vertices, stats.edges, a.engine, a.model, a.k, a.eps
        );
        println!(
            "update stream: {} batches x {} edges, insert fraction {:.2}, seed {}",
            uspec.batches, uspec.edges_per_batch, uspec.insert_fraction, uspec.seed
        );
        for r in &reports {
            println!(
                "batch {}: {} changed rows -> {} / {} sets resampled ({:.1}%), {} fresh | seeds: {:?}",
                r.batch,
                r.changed_heads,
                r.resampled_slots.len(),
                r.slots - r.fresh_slots,
                100.0 * r.resampled_fraction(),
                r.fresh_slots,
                r.result.seeds
            );
        }
        println!(
            "final seeds: {:?}\ncoverage: {:.2}% of {} RRR sets",
            last.seeds,
            last.coverage * 100.0,
            last.num_sets
        );
        println!("time: {wall_s:.2}s wall");
    }
    std::process::exit(0);
}

fn main() {
    // `top` is a self-contained consumer — it never loads a graph.
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("top") {
        std::process::exit(eim::top::run_from_args(&argv[1..]));
    }
    let a = parse_args();
    let graph = load_graph(&a);
    let stats = GraphStats::of(&graph);
    let config = ImmConfig::paper_default()
        .with_k(a.k)
        .with_epsilon(a.eps)
        .with_model(a.model)
        .with_seed(a.seed)
        .with_packed(a.pack)
        .with_source_elimination(a.elim);
    let baseline = config.with_packed(false).with_source_elimination(false);
    let spec = match a.device_mem_mb {
        Some(mb) => DeviceSpec::rtx_a6000_with_mem((mb * 1024.0 * 1024.0) as usize),
        None => DeviceSpec::rtx_a6000(),
    };
    if a.updates.is_some() {
        run_streaming_mode(&a, graph, config, spec);
    }
    // Recording is cheap at CLI scale: collect telemetry whenever the run
    // will report it (a trace file or the --json summary). A cap bounds the
    // buffer on long runs; summary counters stay exact either way.
    // Hardware counters ride the same recorders; a disabled trace with an
    // attached sink still collects exact metrics (profile/metrics-only runs).
    let registry = MetricsRegistry::new();
    let want_metrics = a.profile || a.metrics.is_some() || a.snapshot_stream.is_some() || a.json;
    let trace = run_trace(&a, a.trace.is_some() || a.json, &registry, want_metrics);
    attach_snapshot_stream(&a, &registry);
    // Engine construction uploads the graph; attribute that traffic to the
    // transfer phase. The IMM driver takes over at the first round.
    trace.metrics().set_phase(Phase::Transfer);
    let wall = std::time::Instant::now();

    // What a run writes besides its result: the snapshot stream's closing
    // record at simulated time `sim_us`, the Chrome trace and the
    // Prometheus dump. A failed run writes them too, before it exits, so
    // that recovery explains itself when it gives up.
    let flush_telemetry = |sim_us: f64| {
        if let Err(e) = registry.finish_snapshot_stream(sim_us) {
            eprintln!("cannot finish snapshot stream: {e}");
            std::process::exit(1);
        }
        write_trace_or_die(&a, &trace);
        if let Some(path) = &a.metrics {
            write_metrics_or_die(&registry, path);
        }
    };
    // Fails the run at simulated time `sim_us` (0 before an engine exists).
    let run_err = |e: EngineError, sim_us: f64| -> ! {
        flush_telemetry(sim_us);
        report_engine_error(a.json, e)
    };
    // Single-device engines share one device; `--inject-faults` attaches
    // the deterministic fault schedule to it.
    let make_device = || {
        let d = Device::with_run_trace(spec, trace.clone()).with_copy_overlap(!a.no_overlap);
        match &a.faults {
            Some(f) if !f.is_noop() => d.with_fault_plan(Arc::new(FaultPlan::new(f.clone()))),
            _ => d,
        }
    };
    let policy = a.recovery;
    let n_vertices = graph.num_vertices();
    let (result, sim_us, device_summaries): (
        ImmResult,
        Option<f64>,
        Option<Vec<DeviceRecoverySummary>>,
    ) = match a.engine.as_str() {
        "eim" => {
            let ckpt = build_checkpointing(&a, &config, n_vertices, 1);
            let mut e = EimEngine::new(&graph, config, make_device(), ScanStrategy::ThreadPerSet)
                .unwrap_or_else(|err| run_err(err, 0.0));
            let r = run_imm_checkpointed(&mut e, &config, &policy, &trace, &ckpt)
                .unwrap_or_else(|err| run_err(err, e.elapsed_us()));
            let us = e.elapsed_us();
            (r, Some(us), None)
        }
        "multigpu" => {
            let ckpt = build_checkpointing(&a, &config, n_vertices, a.devices);
            let mut e =
                EimEngine::with_telemetry(&graph, config, spec, a.devices, &trace, !a.no_overlap)
                    .unwrap_or_else(|err| run_err(err, 0.0));
            if let Some(f) = &a.faults {
                if !f.is_noop() {
                    e = e.with_faults(f);
                }
            }
            let r = run_imm_checkpointed(&mut e, &config, &policy, &trace, &ckpt)
                .unwrap_or_else(|err| run_err(err, e.elapsed_us()));
            let us = e.elapsed_us();
            let summaries = e.device_summaries();
            (r, Some(us), Some(summaries))
        }
        "gim" => {
            let ckpt = build_checkpointing(&a, &baseline, n_vertices, 1);
            let mut e = GimEngine::new(&graph, baseline, make_device())
                .unwrap_or_else(|err| run_err(err, 0.0));
            let r = run_imm_checkpointed(&mut e, &baseline, &policy, &trace, &ckpt)
                .unwrap_or_else(|err| run_err(err, e.elapsed_us()));
            let us = e.elapsed_us();
            (r, Some(us), None)
        }
        "curipples" => {
            let ckpt = build_checkpointing(&a, &baseline, n_vertices, 1);
            let mut e = CuRipplesEngine::new(&graph, baseline, make_device(), HostSpec::default())
                .unwrap_or_else(|err| run_err(err, 0.0));
            let r = run_imm_checkpointed(&mut e, &baseline, &policy, &trace, &ckpt)
                .unwrap_or_else(|err| run_err(err, e.elapsed_us()));
            let us = e.elapsed_us();
            (r, Some(us), None)
        }
        "cpu" => {
            let ckpt = build_checkpointing(&a, &config, n_vertices, 1);
            let mut e =
                CpuEngine::new(&graph, config, CpuParallelism::Rayon).with_trace(trace.clone());
            let r = run_imm_checkpointed(&mut e, &config, &policy, &trace, &ckpt)
                .unwrap_or_else(|err| run_err(err, e.elapsed_us()));
            let us = e.elapsed_us();
            // The CPU engine's analytic clock still keys the stream; only
            // the human-readable summary hides it.
            (r, Some(us), None)
        }
        _ => usage(),
    };
    let cpu_engine = a.engine == "cpu";
    let wall_s = wall.elapsed().as_secs_f64();
    flush_telemetry(sim_us.unwrap_or(0.0));
    let sim_us = if cpu_engine { None } else { sim_us };
    let spread = (a.spread_sims > 0).then(|| {
        estimate_spread(
            &graph,
            &result.seeds,
            a.model,
            a.spread_sims,
            a.seed ^ 0xe7a1,
        )
    });

    if a.json {
        // Multi-GPU runs break the merged recovery report down per device
        // inside the telemetry block.
        let mut telemetry = trace.summary().to_json();
        if let (Some(summaries), serde_json::Value::Object(map)) =
            (&device_summaries, &mut telemetry)
        {
            let devices: Vec<serde_json::Value> = summaries
                .iter()
                .map(|s| {
                    serde_json::json!({
                        "ordinal": s.ordinal,
                        "evicted": s.evicted,
                        "clock_us": s.clock_us,
                        "recovery": recovery_json(&s.report),
                    })
                })
                .collect();
            map.insert("devices", serde_json::json!(devices));
        }
        let out = serde_json::json!({
            "engine": a.engine,
            "model": a.model.to_string(),
            "k": a.k,
            "epsilon": a.eps,
            "graph": serde_json::json!({ "vertices": stats.vertices, "edges": stats.edges }),
            "seeds": result.seeds,
            "coverage": result.coverage,
            "rrr_sets": result.num_sets,
            "rrr_elements": result.total_elements,
            "store_bytes": result.store_bytes,
            "theta": result.theta,
            "wall_seconds": wall_s,
            "simulated_device_ms": sim_us.map(|us| us / 1000.0),
            "estimated_spread": spread,
            "recovery": recovery_json(&result.recovery),
            "telemetry": telemetry,
            "metrics": registry.to_json(),
        });
        println!("{}", serde_json::to_string_pretty(&out).expect("json"));
    } else if a.profile {
        println!(
            "graph: {} vertices, {} edges | engine: {} | model: {} | k = {}, eps = {}",
            stats.vertices, stats.edges, a.engine, a.model, a.k, a.eps
        );
        print!("{}", registry.render_profile_table());
        if let Some(path) = &a.metrics {
            println!("metrics: {path}");
        }
        if let Some(path) = &a.trace {
            println!("trace: {path}");
        }
    } else {
        println!(
            "graph: {} vertices, {} edges | engine: {} | model: {} | k = {}, eps = {}",
            stats.vertices, stats.edges, a.engine, a.model, a.k, a.eps
        );
        println!(
            "seeds: {:?}\ncoverage: {:.2}% of {} RRR sets ({} elements, {} KB)",
            result.seeds,
            result.coverage * 100.0,
            result.num_sets,
            result.total_elements,
            result.store_bytes / 1024
        );
        match sim_us {
            Some(us) => println!(
                "time: {wall_s:.2}s wall, {:.2} ms simulated device",
                us / 1000.0
            ),
            None => println!("time: {wall_s:.2}s wall (CPU engine)"),
        }
        if let Some(s) = spread {
            println!(
                "estimated spread: {s:.1} vertices ({:.2}% of the graph)",
                100.0 * s / stats.vertices.max(1) as f64
            );
        }
        if !result.recovery.is_empty() {
            let r = &result.recovery;
            println!(
                "recovery: {} retries, {} batch splits, {} spills ({} KB to host, {} KB reloaded), {} degraded rounds",
                r.retries,
                r.batch_splits,
                r.spill_events,
                r.spilled_bytes / 1024,
                r.reloaded_bytes / 1024,
                r.degraded_rounds
            );
            if r.devices_evicted > 0 {
                println!(
                    "evictions: {} device(s) lost and evicted, {} pending sets re-sharded onto survivors",
                    r.devices_evicted, r.redistributed_sets
                );
            }
            if r.checkpoints_written > 0 || r.resumes > 0 {
                println!(
                    "checkpointing: {} checkpoint(s) written, {} resume(s)",
                    r.checkpoints_written, r.resumes
                );
            }
        }
        if let Some(path) = &a.trace {
            println!("trace: {path}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eim::graph::{GraphBuilder, WeightModel};

    fn path3() -> Graph {
        GraphBuilder::new(3)
            .edges([(0, 1), (1, 2)])
            .build(WeightModel::WeightedCascade)
    }

    const KEYS: [&str; 5] = ["batches", "edges", "insert", "seed", "bogus"];
    const TOKENS: [&str; 8] = [
        "",
        "-1",
        "NaN",
        "inf",
        "1e400",
        "18446744073709551616",
        "99999999999999",
        "0.5.5",
    ];

    /// A parsed spec either generates its stream on a three-vertex graph or
    /// is refused with a message; small streams are generated in full.
    fn assert_runnable(spec: &generators::UpdateStreamSpec, text: &str) {
        assert!(
            (0.0..=1.0).contains(&spec.insert_fraction),
            "{text}: insert fraction {} accepted",
            spec.insert_fraction
        );
        let tiny = GraphBuilder::new(1).build(WeightModel::WeightedCascade);
        assert!(update_stream_for(&tiny, spec).is_err(), "{text}");
        if spec.batches.saturating_mul(spec.edges_per_batch.max(1)) <= 4096 {
            let g = path3();
            let deltas = update_stream_for(&g, spec).unwrap();
            assert_eq!(deltas.len(), spec.batches, "{text}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        #[test]
        fn updates_spec_never_panics_on_arbitrary_text(text in ".{0,120}") {
            if let Ok(spec) = parse_updates_spec(&text) {
                assert_runnable(&spec, &text);
            }
        }

        /// `key=value` items over the grammar's keys and hostile values.
        #[test]
        fn updates_spec_never_panics_on_hostile_items(
            items in proptest::collection::vec(
                (0usize..KEYS.len(), 0u64..3, proptest::prelude::any::<u64>(), -2.0f64..3.0),
                0..5,
            ),
        ) {
            let text: Vec<String> = items
                .into_iter()
                .map(|(key, kind, bits, x)| {
                    let value = match kind {
                        0 => (bits % 64).to_string(),
                        1 => x.to_string(),
                        _ => TOKENS[(bits % TOKENS.len() as u64) as usize].to_string(),
                    };
                    format!("{}={value}", KEYS[key])
                })
                .collect();
            let text = text.join(",");
            if let Ok(spec) = parse_updates_spec(&text) {
                assert_runnable(&spec, &text);
            }
        }
    }

    #[test]
    fn a_batch_count_past_memory_is_refused() {
        let spec = parse_updates_spec("batches=99999999999999").unwrap();
        let g = path3();
        let err = update_stream_for(&g, &spec).unwrap_err();
        assert!(err.contains("99999999999999"), "{err}");
    }
}
