//! Metric names, sample statistics, the deterministic digest, the load
//! calibration loop, and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// End-to-end metrics, reported by every untraced run: (name, unit).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("sim_ms", "ms"),
    ("device_peak_mb", "MB"),
    ("ok_frac", "ratio"),
];

/// Per-layer metrics, reported by every traced run: (name, unit). A layer a
/// workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("graph.build_s", "s"),
    ("bitpack.pack_s", "s"),
    ("engine.new_s", "s"),
    ("sampler.extend_s", "s"),
    ("sampler.extend_calls", "count"),
    ("sampler.batch_s", "s"),
    ("store.ingest_s", "s"),
    ("sampler.logical_sets", "count"),
    ("sampler.stored_sets", "count"),
    ("sampler.elements", "count"),
    ("sampler.kept_frac", "ratio"),
    ("sampler.sim_cycles", "cycles"),
    ("sampler.global_transactions", "count"),
    ("select.s", "s"),
    ("select.calls", "count"),
    ("select.sets_scanned", "count"),
    ("select.sim_cycles", "cycles"),
    ("driver.other_s", "s"),
    ("multigpu.clock_skew_us", "us"),
    ("store.bytes", "bytes"),
    ("gpusim.transfer_bytes", "bytes"),
    ("gpusim.kernel_launches", "count"),
    ("stream.initial_replay_s", "s"),
    ("stream.resample_s", "s"),
    ("stream.invalidate_s", "s"),
    ("stream.replay_s", "s"),
    ("graph.apply_delta_s", "s"),
    ("stream.other_s", "s"),
    ("stream.recompute_s", "s"),
    ("stream.changed_heads", "count"),
    ("stream.resampled_sets", "count"),
    ("stream.decoded_sets", "count"),
    ("stream.fresh_sets", "count"),
    ("stream.resampled_frac", "ratio"),
    ("layers.uncovered_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("load.calib_ms", "ms"),
    ("load.calib_mem_ms", "ms"),
];

/// Median of `samples` (mean of the middle two for an even count); 0 for
/// no samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Iterations of the integer calibration loop: about 60 ms on one 2.x GHz
/// core.
const CALIBRATION_ITERS: u64 = 20_000_000;
/// Words in the memory calibration sweep: 64 MiB, larger than any
/// last-level cache the benchmark runs on.
const CALIBRATION_WORDS: u64 = 8 << 20;

/// The load calibration: two fixed single-thread loops, each timed three
/// times, medians in ms. Their work never changes, so slower loops mean a
/// busier machine. The integer loop shows contention for the CPU; the
/// memory sweep shows contention for memory bandwidth, which the
/// memory-heavy selection and streaming work feels most.
#[derive(Clone, Copy, Debug)]
pub struct Calibration {
    pub cpu_ms: f64,
    pub mem_ms: f64,
}

fn median_ms(mut f: impl FnMut()) -> f64 {
    let runs: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&runs)
}

pub fn calibrate() -> Calibration {
    let cpu_ms = median_ms(|| {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..CALIBRATION_ITERS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x = x.wrapping_add(i);
        }
        std::hint::black_box(x);
    });
    let words: Vec<u64> = (0..CALIBRATION_WORDS).collect();
    let mem_ms = median_ms(|| {
        let sum = std::hint::black_box(&words)
            .iter()
            .fold(0u64, |a, &w| a.wrapping_add(w));
        std::hint::black_box(sum);
    });
    Calibration { cpu_ms, mem_ms }
}

/// 64-bit FNV-1a.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Operations attempted and failed. An operation is a solve, an update
/// batch, or a cross-check; it fails when it errors or a check rejects its
/// output.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one operation; `ok == false` counts it failed and says why on
    /// standard error.
    pub fn record(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("repobench: check failed: {what}");
        }
    }
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    pub tally: Tally,
    values: BTreeMap<&'static str, f64>,
    /// Deterministic record of the run's outputs: no wall times.
    digest: String,
    /// Human-readable lines printed before the result line.
    notes: Vec<String>,
    /// Raw time samples behind the medians, for the results file.
    samples: Vec<(&'static str, Vec<f64>)>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn digest(&mut self, line: String) {
        self.digest.push_str(&line);
        self.digest.push('\n');
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn samples(&mut self, name: &'static str, values: &[f64]) {
        self.samples.push((name, values.to_vec()));
    }

    /// The result line: the end-to-end metrics for an untraced run, the
    /// per-layer metrics for a traced one. Fails if a metric is missing or
    /// not a finite number.
    pub fn result_line(&self, trace: bool) -> Result<String, String> {
        let names: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut metrics = Vec::with_capacity(names.len());
        for &(name, unit) in names {
            let value = *self
                .values
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.failed == 0,
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        ))
    }

    /// Prints the notes and the digest's FNV hash, and writes
    /// `<stem>.digest` and `<stem>.json` under `out`. Write errors are
    /// reported on standard error and do not fail the run.
    pub fn finish(&self, out: &Path, stem: &str, result: &str) {
        let hash = fnv64(self.digest.as_bytes());
        for line in &self.notes {
            println!("{line}");
        }
        println!(
            "digest: {hash:016x} ({} lines)",
            self.digest.lines().count()
        );
        let mut samples = String::new();
        for (i, (name, values)) in self.samples.iter().enumerate() {
            let list: Vec<String> = values.iter().map(|v| v.to_string()).collect();
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(samples, "{sep}\"{name}\": [{}]", list.join(", "));
        }
        let json = format!(
            "{{\"digest_fnv\": \"{hash:016x}\", \"samples\": {{{samples}}}, \"result\": {result}}}\n"
        );
        let written = std::fs::create_dir_all(out)
            .and_then(|()| std::fs::write(out.join(format!("{stem}.digest")), &self.digest))
            .and_then(|()| std::fs::write(out.join(format!("{stem}.json")), json));
        if let Err(e) = written {
            eprintln!(
                "repobench: cannot write results under {}: {e}",
                out.display()
            );
        }
    }
}
