//! `eim-bench` — the streaming-vs-recompute benchmark and a randomized
//! fault-injection soak harness.
//!
//! ```text
//! eim-bench chaos [OPTIONS]
//!
//! Options:
//!   --plans <n>        randomized fault plans to soak (default 12)
//!   --seed <n>         base RNG seed for plan generation (default 190)
//!   --devices <n>      simulated devices per run (default 4)
//!   --json <file>      write the soak summary as JSON
//!   --metrics <file>   write the aggregated device/recovery counters of
//!                      the whole soak in Prometheus text format
//!
//! eim-bench updates [OPTIONS]
//!
//! Options:
//!   --json <file>      write the streaming-vs-recompute report as JSON
//!   --smoke            CI-sized workload
//!   --seed <n>         base RNG seed (default 190)
//!   --metrics <file>   write the per-batch invalidation counters
//!                      (`eim_stream_*`, phase `stream-update`) in
//!                      Prometheus text format
//! ```
//!
//! All `--metrics` files are written atomically (tmp-then-rename), and every
//! JSON report root embeds a `provenance` header (schema version, toolchain,
//! dataset, seed, `git describe`) so checked-in `BENCH_*.json` lineage is
//! self-describing.
//!
//! Host performance is measured by `repobench/` at the repository root, the
//! one benchmark harness; this binary keeps only the two checks that are
//! differential: `updates` compares every incremental batch against a cold
//! recompute, and `chaos` compares every faulted run against the clean one.
//!
//! `chaos` generates N deterministic fault plans mixing every injection
//! class (kernel, transfer, device_fail, link_flap, straggler, pressure),
//! runs each against the multi-GPU engine under the retry/evict recovery
//! policy, and asserts the survivors return the clean run's seed set byte
//! for byte with bounded simulated-time overhead. Runs that lose every
//! device must fail with the typed exhaustion error — anything else is a
//! soak failure and a nonzero exit.

use std::path::PathBuf;
use std::time::Instant;

use eim_core::EimEngine;
use eim_gpusim::{
    provenance, write_metrics_file, DeviceSpec, FaultSpec, MetricsRegistry, MetricsSink, Phase,
    RunTrace,
};
use eim_graph::{generators, Dataset, WeightModel};
use eim_imm::{
    run_imm, run_imm_recovering, CpuEngine, CpuParallelism, EngineError, HostResampler, ImmConfig,
    ImmEngine as _, RecoveryPolicy, StreamingImmEngine,
};
use rand::{Rng, SeedableRng};
use serde_json::{Map, Value};

fn usage_and_exit(code: i32) -> ! {
    println!(
        "eim-bench chaos [--plans N] [--seed N] [--devices N] [--json FILE] [--metrics FILE]\n\
         eim-bench updates [--json FILE] [--smoke] [--seed N] [--metrics FILE]"
    );
    std::process::exit(code);
}

struct UpdatesArgs {
    json: Option<PathBuf>,
    smoke: bool,
    seed: u64,
    metrics: Option<PathBuf>,
}

fn parse_updates_args() -> UpdatesArgs {
    let mut args = UpdatesArgs {
        json: None,
        smoke: false,
        seed: 190,
        metrics: None,
    };
    let mut it = std::env::args().skip(2);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("missing value for {name}"))
        };
        match arg.as_str() {
            "--json" => args.json = Some(PathBuf::from(value("--json"))),
            "--smoke" => args.smoke = true,
            "--seed" => args.seed = value("--seed").parse().expect("seed"),
            "--metrics" => args.metrics = Some(PathBuf::from(value("--metrics"))),
            "--help" | "-h" => usage_and_exit(0),
            other => {
                eprintln!("unknown option {other}");
                usage_and_exit(1);
            }
        }
    }
    args
}

/// `updates`: the streaming-vs-recompute benchmark on the WV stand-in. Each
/// batch of edge updates is applied twice — incrementally (invalidate +
/// patch + warm replay) and as a cold full `run_imm` on the mutated graph —
/// with the seeds byte-compared so the timing comparison is honest. Reports
/// the resampled-set fraction per batch and the patch-vs-recompute wall
/// speedup; CI's `streaming-smoke` job gates both against `BENCH_pr9.json`.
fn run_updates(args: UpdatesArgs) -> ! {
    let (scale, k, eps, batches, edges) = if args.smoke {
        (0.15, 8usize, 0.3, 4usize, 24usize)
    } else {
        (0.6, 16, 0.25, 6, 48)
    };
    let dataset = Dataset::by_abbrev("WV").expect("WV registry entry");
    let g0 = dataset.generate(scale, WeightModel::WeightedCascade, args.seed);
    let config = ImmConfig::paper_default()
        .with_k(k)
        .with_epsilon(eps)
        .with_seed(args.seed)
        .with_packed(false);
    let deltas = generators::update_stream(
        &g0,
        &generators::UpdateStreamSpec {
            batches,
            edges_per_batch: edges,
            insert_fraction: 0.5,
            seed: args.seed ^ 0x5eed,
        },
    );
    println!(
        "eim-bench updates — mode: {}, WV x {scale}, {} vertices / {} edges, \
         {batches} batches x {edges} updates",
        if args.smoke { "smoke" } else { "full" },
        g0.num_vertices(),
        g0.num_edges(),
    );

    let registry = MetricsRegistry::new();
    let stream_sink = if args.metrics.is_some() {
        registry.sink().with_engine("streaming")
    } else {
        MetricsSink::disabled()
    };
    stream_sink.set_phase(Phase::StreamUpdate);

    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    let mut engine = StreamingImmEngine::new(
        g0.clone(),
        config,
        WeightModel::WeightedCascade,
        args.seed,
        HostResampler::new(config.model, config.seed),
    );
    let t = Instant::now();
    engine.replay().expect("initial replay");
    let initial_ms = ms(t);

    let mut cold_graph = g0.clone();
    let mut rows: Vec<Value> = Vec::new();
    let mut patch_total = 0.0f64;
    let mut recompute_total = 0.0f64;
    let mut fraction_sum = 0.0f64;
    for delta in &deltas {
        let t = Instant::now();
        let report = engine.apply_update(delta).expect("incremental update");
        let patch_ms = ms(t);
        cold_graph.apply_delta(delta, WeightModel::WeightedCascade, args.seed);
        let t = Instant::now();
        let mut cold = CpuEngine::new(&cold_graph, config, CpuParallelism::Rayon);
        let cold_result = run_imm(&mut cold, &config).expect("cold recompute");
        let recompute_ms = ms(t);
        assert_eq!(
            report.result.seeds, cold_result.seeds,
            "batch {}: incremental diverged from cold recompute",
            report.batch
        );
        let fraction = report.resampled_fraction();
        println!(
            "batch {}: resampled {:>6} / {:<6} ({:>5.1}%)  patch {patch_ms:>8.2} ms  \
             recompute {recompute_ms:>8.2} ms  ({:.2}x)",
            report.batch,
            report.resampled_slots.len(),
            report.slots - report.fresh_slots,
            100.0 * fraction,
            recompute_ms / patch_ms,
        );
        patch_total += patch_ms;
        recompute_total += recompute_ms;
        fraction_sum += fraction;
        report.record_metrics(&stream_sink);
        let mut row = Map::new();
        row.insert("batch", Value::from(report.batch));
        row.insert("changed_heads", Value::from(report.changed_heads));
        row.insert("resampled_sets", Value::from(report.resampled_slots.len()));
        row.insert("fresh_sets", Value::from(report.fresh_slots));
        row.insert("slots", Value::from(report.slots));
        row.insert("resampled_fraction", Value::from(fraction));
        row.insert("patch_ms", Value::from(patch_ms));
        row.insert("recompute_ms", Value::from(recompute_ms));
        rows.push(Value::Object(row));
    }
    let n_batches = deltas.len().max(1) as f64;
    let fraction_mean = fraction_sum / n_batches;
    let speedup = recompute_total / patch_total.max(1e-9);
    println!(
        "total: patch {patch_total:.2} ms vs recompute {recompute_total:.2} ms \
         -> {speedup:.2}x; mean resampled fraction {:.1}% (initial build {initial_ms:.2} ms)",
        100.0 * fraction_mean
    );

    if let Some(path) = &args.metrics {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).expect("create output dir");
            }
        }
        write_metrics_file(&registry, path).expect("write metrics");
        println!("wrote {}", path.display());
    }

    let mut root = Map::new();
    root.insert("schema", Value::from("eim-bench-updates-v1"));
    root.insert("provenance", provenance(Some("WV"), Some(args.seed)));
    root.insert(
        "mode",
        Value::from(if args.smoke { "smoke" } else { "full" }),
    );
    root.insert("seed", Value::from(args.seed));
    root.insert("dataset", Value::from("WV"));
    root.insert("scale", Value::from(scale));
    root.insert("k", Value::from(k));
    root.insert("epsilon", Value::from(eps));
    root.insert("vertices", Value::from(g0.num_vertices()));
    root.insert("edges", Value::from(g0.num_edges()));
    root.insert("batches", Value::from(batches));
    root.insert("edges_per_batch", Value::from(edges));
    root.insert("initial_ms", Value::from(initial_ms));
    root.insert("checkpoints", Value::Array(rows));
    root.insert("resampled_fraction_mean", Value::from(fraction_mean));
    root.insert("patch_ms_total", Value::from(patch_total));
    root.insert("recompute_ms_total", Value::from(recompute_total));
    root.insert("patch_speedup", Value::from(speedup));
    root.insert("seeds_match", Value::from(true));
    if let Some(path) = &args.json {
        let text = serde_json::to_string_pretty(&Value::Object(root)).expect("serialize");
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).expect("create output dir");
            }
        }
        std::fs::write(path, text).expect("write json");
        println!("wrote {}", path.display());
    }
    std::process::exit(0);
}

struct ChaosArgs {
    plans: u64,
    seed: u64,
    devices: usize,
    json: Option<PathBuf>,
    metrics: Option<PathBuf>,
}

fn parse_chaos_args() -> ChaosArgs {
    let mut args = ChaosArgs {
        plans: 12,
        seed: 190,
        devices: 4,
        json: None,
        metrics: None,
    };
    let mut it = std::env::args().skip(2);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("missing value for {name}"))
        };
        match arg.as_str() {
            "--plans" => args.plans = value("--plans").parse().expect("plans"),
            "--seed" => args.seed = value("--seed").parse().expect("seed"),
            "--devices" => args.devices = value("--devices").parse().expect("devices"),
            "--json" => args.json = Some(PathBuf::from(value("--json"))),
            "--metrics" => args.metrics = Some(PathBuf::from(value("--metrics"))),
            "--help" | "-h" => usage_and_exit(0),
            other => {
                eprintln!("unknown option {other}");
                usage_and_exit(1);
            }
        }
    }
    assert!(args.devices >= 1, "--devices must be at least 1");
    args
}

/// Draws one randomized-but-deterministic fault spec mixing every
/// injection class. Probabilities are kept low enough that most plans
/// leave survivors, high enough that the soak regularly exercises
/// retries, stragglers, flaps, and full device loss.
fn random_fault_spec(rng: &mut rand_chacha::ChaCha8Rng) -> String {
    let mut spec = format!("seed={}", rng.gen::<u64>());
    if rng.gen_bool(0.7) {
        spec.push_str(&format!(",kernel=0.{:02}", rng.gen_range(1..40u32)));
    }
    if rng.gen_bool(0.5) {
        spec.push_str(&format!(",transfer=0.{:02}", rng.gen_range(1..30u32)));
    }
    if rng.gen_bool(0.5) {
        spec.push_str(&format!(",device_fail=0.0{:02}", rng.gen_range(1..30u32)));
    }
    if rng.gen_bool(0.4) {
        spec.push_str(&format!(",link_flap=0.{:02}", rng.gen_range(1..25u32)));
    }
    if rng.gen_bool(0.5) {
        let from = rng.gen_range(0..32u64);
        let len = rng.gen_range(1..64u64);
        let mult = 1.0 + rng.gen_range(1..80u32) as f64 / 10.0;
        spec.push_str(&format!(",straggler={mult}@{from}:{}", from + len));
    }
    if rng.gen_bool(0.3) {
        let from = rng.gen_range(0..32u64);
        let len = rng.gen_range(1..48u64);
        spec.push_str(&format!(
            ",pressure=0.{:02}@{from}:{}",
            rng.gen_range(30..95u32),
            from + len
        ));
    }
    spec
}

/// Ceiling on how much simulated time a surviving chaos run may cost
/// relative to the clean run. Generous — exponential backoff across many
/// retried rounds is expensive by design — but it still catches runaway
/// retry loops and eviction storms.
const CHAOS_MAX_OVERHEAD: f64 = 200.0;

fn run_chaos(args: ChaosArgs) -> ! {
    println!(
        "eim-bench chaos — {} plans, seed {}, {} devices",
        args.plans, args.seed, args.devices
    );
    let g = generators::rmat(
        400,
        2_400,
        generators::RmatParams::GRAPH500,
        WeightModel::WeightedCascade,
        31,
    );
    let cfg = ImmConfig::paper_default()
        .with_k(4)
        .with_epsilon(0.3)
        .with_seed(args.seed);
    let spec_dev = DeviceSpec::rtx_a6000_with_mem(256 << 20);
    let registry = MetricsRegistry::new();
    // The soak's aggregate trace: device kernels/transfers and recovery
    // actions from every fault plan land in one registry, written out at
    // the end when --metrics asks for it. The clean run stays untraced so
    // the counters describe only the faulted work.
    let trace = if args.metrics.is_some() {
        RunTrace::disabled().with_metrics(registry.sink().with_engine("multigpu"))
    } else {
        RunTrace::disabled()
    };
    let make_engine = |trace: &RunTrace| {
        EimEngine::with_telemetry(&g, cfg, spec_dev, args.devices, trace, true).expect("fits")
    };

    let (clean_seeds, clean_sets, clean_time) = {
        let mut e = make_engine(&RunTrace::disabled());
        let r = run_imm(&mut e, &cfg).expect("clean run");
        (r.seeds, r.num_sets, e.elapsed_us())
    };
    println!("clean          {clean_time:>10.1} us   ({clean_sets} sets, seeds {clean_seeds:?})");

    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(args.seed);
    let policy = RecoveryPolicy::retry().with_max_retries(8);
    let mut plans = Vec::new();
    let (mut converged, mut died, mut failures) = (0u64, 0u64, 0u64);
    let (mut evictions, mut redistributed, mut retries) = (0u64, 0u64, 0u64);
    let mut max_overhead: f64 = 1.0;
    for i in 0..args.plans {
        let spec_str = random_fault_spec(&mut rng);
        let spec = FaultSpec::parse(&spec_str).expect("generated specs parse");
        let mut e = make_engine(&trace).with_faults(&spec);
        let mut entry = Map::new();
        entry.insert("plan", Value::from(i));
        entry.insert("spec", Value::from(spec_str.clone()));
        match run_imm_recovering(&mut e, &cfg, &policy, &trace) {
            Ok(r) => {
                let overhead = e.elapsed_us() / clean_time;
                let seeds_ok = r.seeds == clean_seeds && r.num_sets == clean_sets;
                let bounded = overhead <= CHAOS_MAX_OVERHEAD;
                if seeds_ok && bounded {
                    converged += 1;
                } else {
                    failures += 1;
                }
                evictions += r.recovery.devices_evicted as u64;
                redistributed += r.recovery.redistributed_sets;
                retries += r.recovery.retries as u64;
                max_overhead = max_overhead.max(overhead);
                entry.insert("outcome", Value::from("converged"));
                entry.insert("seeds_match", Value::from(seeds_ok));
                entry.insert("overhead", Value::from(overhead));
                entry.insert("overhead_bounded", Value::from(bounded));
                entry.insert(
                    "devices_evicted",
                    Value::from(r.recovery.devices_evicted as u64),
                );
                entry.insert("retries", Value::from(r.recovery.retries as u64));
                println!(
                    "plan {i:>3}  converged  overhead {overhead:>7.2}x  evicted {}  \
                     retries {:>3}  {}",
                    r.recovery.devices_evicted,
                    r.recovery.retries,
                    if seeds_ok {
                        "seeds ok"
                    } else {
                        "SEEDS DIVERGED"
                    }
                );
                if !seeds_ok {
                    eprintln!("plan {i}: spec {spec_str:?} changed the answer");
                }
                if !bounded {
                    eprintln!(
                        "plan {i}: spec {spec_str:?} overhead {overhead:.1}x \
                         exceeds {CHAOS_MAX_OVERHEAD}x"
                    );
                }
            }
            Err(EngineError::RetriesExhausted { attempts, .. }) => {
                died += 1;
                entry.insert("outcome", Value::from("retries_exhausted"));
                entry.insert("attempts", Value::from(attempts as u64));
                println!("plan {i:>3}  all devices lost (typed failure, {attempts} attempts)");
            }
            Err(other) => {
                failures += 1;
                entry.insert("outcome", Value::from("unexpected_error"));
                entry.insert("error", Value::from(other.to_string()));
                eprintln!("plan {i}: spec {spec_str:?} unexpected error: {other}");
            }
        }
        plans.push(Value::Object(entry));
    }

    println!(
        "chaos summary  {converged} converged, {died} died typed, {failures} failures; \
         {evictions} evictions, {redistributed} re-sharded sets, {retries} retries, \
         max overhead {max_overhead:.2}x"
    );

    if let Some(path) = &args.metrics {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).expect("create output dir");
            }
        }
        write_metrics_file(&registry, path).expect("write metrics");
        println!("wrote {}", path.display());
    }

    if let Some(path) = &args.json {
        let mut root = Map::new();
        root.insert("schema", Value::from("eim-bench-chaos-v1"));
        root.insert("provenance", provenance(None, Some(args.seed)));
        root.insert("seed", Value::from(args.seed));
        root.insert("devices", Value::from(args.devices as u64));
        root.insert(
            "clean_seeds",
            Value::from(clean_seeds.iter().map(|&v| v as u64).collect::<Vec<_>>()),
        );
        root.insert("clean_sets", Value::from(clean_sets as u64));
        root.insert("clean_time_us", Value::from(clean_time));
        root.insert("converged", Value::from(converged));
        root.insert("died_typed", Value::from(died));
        root.insert("failures", Value::from(failures));
        root.insert("evictions", Value::from(evictions));
        root.insert("redistributed_sets", Value::from(redistributed));
        root.insert("retries", Value::from(retries));
        root.insert("max_overhead", Value::from(max_overhead));
        root.insert("plans", Value::from(plans));
        let text = serde_json::to_string_pretty(&Value::Object(root)).expect("serialize");
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).expect("create output dir");
            }
        }
        std::fs::write(path, text).expect("write json");
        println!("wrote {}", path.display());
    }

    std::process::exit(if failures == 0 { 0 } else { 1 });
}
fn main() {
    let cmd = std::env::args().nth(1).unwrap_or_default();
    match cmd.as_str() {
        "--help" | "-h" => usage_and_exit(0),
        "chaos" => run_chaos(parse_chaos_args()),
        "updates" => run_updates(parse_updates_args()),
        other => {
            eprintln!("unknown subcommand {other:?}");
            usage_and_exit(1);
        }
    }
}
