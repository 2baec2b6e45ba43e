//! `repobench`: the repository benchmark.
//!
//! Drives the eIM engines through their public APIs on one of three
//! generated workloads (`ic-web`, `lt-social`, `stream-social`) and prints,
//! as the last line of standard output, one JSON object with the run's
//! correctness tally and its metrics: the end-to-end metrics for an
//! untraced run (`--trace 0`), the per-layer metrics for a traced run
//! (`--trace 1`). See `README.md` beside this crate for the metrics, the
//! workloads, and how to run it.

mod clock;
mod layers;
mod report;
mod solve;
mod stream;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{calibrate, Report};
use solve::{Multi, Single};
use workload::{Kind, Size, Spec, WORKLOADS};

/// Rayon worker threads every run uses (see `main`).
const WORKER_THREADS: usize = 1;

const USAGE: &str = "usage: repobench --workload <ic-web|lt-social|stream-social> \
[--seed <n>] [--seconds <s>] [--trace <0|1>] [--size <full|small>] [--out <dir>]";

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    /// Seeds the generated inputs and the run's sample streams.
    pub seed: u64,
    /// How long the timed loop runs.
    pub seconds: f64,
    /// Wrap the layers and report per-layer metrics.
    pub trace: bool,
    pub size: Size,
    /// Where the digest and the raw samples go.
    pub out: PathBuf,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        out: PathBuf::from("repobench/out"),
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("expected a non-negative number"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--size" => {
                args.size = match value.as_str() {
                    "full" => Size::Full,
                    "small" => Size::Small,
                    _ => return Err(bad("expected full or small")),
                }
            }
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("repobench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let spec = Spec::get(&args.workload, args.size).expect("workload names are checked");
    // Closed loop: one solve or one update batch at a time, on one worker
    // thread. On a small shared machine a parallel section waits for its
    // slowest thread, and load from other tenants on either core then sets
    // the time; one worker measures the host work itself, which is what a
    // layer optimization changes. Outputs are identical for any thread count.
    let available = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(WORKER_THREADS)
        .build()
        .expect("building the pool cannot fail");

    let mut report = Report::default();
    let before = calibrate();
    let ran = pool.install(|| match spec.kind {
        Kind::Single => solve::run(&Single, &spec, &args, &mut report),
        Kind::Multi(d) => solve::run(&Multi(d), &spec, &args, &mut report),
        Kind::Stream => stream::run(&spec, &args, &mut report),
    });
    let after = calibrate();
    if let Err(e) = ran {
        eprintln!("repobench: {}: {e}", spec.name);
        return ExitCode::FAILURE;
    }

    let tally = &report.tally;
    let ok_frac = 1.0 - tally.failed as f64 / tally.attempted.max(1) as f64;
    report.set("ok_frac", ok_frac);
    report.set("load.calib_ms", (before.cpu_ms + after.cpu_ms) / 2.0);
    report.set("load.calib_mem_ms", (before.mem_ms + after.mem_ms) / 2.0);
    report.samples("calib_ms", &[before.cpu_ms, after.cpu_ms]);
    report.samples("calib_mem_ms", &[before.mem_ms, after.mem_ms]);
    report.note(format!(
        "load: integer loop {:.2} ms before, {:.2} ms after; memory sweep {:.2} ms before, \
         {:.2} ms after; {WORKER_THREADS} worker thread of {available} available",
        before.cpu_ms, after.cpu_ms, before.mem_ms, after.mem_ms
    ));
    let line = match report.result_line(args.trace) {
        Ok(line) => line,
        Err(e) => {
            eprintln!("repobench: {}: {e}", spec.name);
            return ExitCode::FAILURE;
        }
    };
    let stem = format!(
        "{}-{}-seed{}-trace{}",
        spec.name,
        if args.size == Size::Full {
            "full"
        } else {
            "small"
        },
        args.seed,
        u8::from(args.trace)
    );
    report.finish(&args.out, &stem, &line);
    println!("{line}");
    ExitCode::SUCCESS
}
