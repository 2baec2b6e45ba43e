//! Multi-GPU scaling (the paper's future-work extension): end-to-end and
//! sampling-phase speedups of `EimEngine` on pools of 1-8 devices.

use eim_core::EimEngine;
use eim_gpusim::RunTrace;
use eim_graph::Dataset;
use eim_imm::{run_imm, ImmConfig, ImmEngine};

use crate::{HarnessConfig, Table};

/// Builds the multi-GPU scaling table for the given datasets.
pub fn multigpu_scaling(cfg: &HarnessConfig, datasets: &[&Dataset], imm: &ImmConfig) -> Table {
    let mut t = Table::new([
        "Dataset",
        "devices",
        "total (ms)",
        "speedup",
        "sampling (ms)",
        "sampling speedup",
    ]);
    for d in datasets {
        let g = cfg.graph(d, 0);
        if imm.k >= g.num_vertices() {
            continue;
        }
        let mut base_total = None;
        let mut base_sampling = None;
        for devices in [1usize, 2, 4, 8] {
            let pool = || {
                let spec = cfg.device_spec();
                EimEngine::with_telemetry(&g, *imm, spec, devices, &RunTrace::disabled(), true)
            };
            let Ok(mut engine) = pool() else {
                t.row([
                    d.abbrev.to_string(),
                    devices.to_string(),
                    "OOM".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                ]);
                continue;
            };
            let Ok(r) = run_imm(&mut engine, imm) else {
                continue;
            };
            let total = engine.elapsed_us();
            // Pure sampling-phase time: a fresh engine extended to the same
            // workload, no selections (selection stays centralized, so only
            // sampling is expected to scale).
            let sampling = {
                let mut e2 = pool().expect("fit already proven");
                e2.extend_to(r.num_sets.max(1)).expect("same workload fits");
                e2.elapsed_us()
            };
            let bt = *base_total.get_or_insert(total);
            let bs = *base_sampling.get_or_insert(sampling);
            t.row([
                d.abbrev.to_string(),
                devices.to_string(),
                format!("{:.2}", total / 1000.0),
                format!("{:.2}x", bt / total),
                format!("{:.2}", sampling / 1000.0),
                format!("{:.2}x", bs / sampling),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use eim_graph::DATASETS;

    #[test]
    fn sampling_scales_with_devices() {
        let cfg = HarnessConfig {
            scale: 1.0 / 2048.0,
            runs: 1,
            ..Default::default()
        };
        let imm = ImmConfig::paper_default().with_k(10).with_epsilon(0.25);
        let cy = DATASETS.iter().find(|d| d.abbrev == "CY").unwrap();
        let t = multigpu_scaling(&cfg, &[cy], &imm);
        let csv = t.to_csv();
        let rows: Vec<&str> = csv.lines().skip(1).collect();
        assert!(rows.len() >= 3);
        let sampling_speedup = |row: &str| -> f64 {
            row.split(',')
                .nth(5)
                .unwrap()
                .trim_end_matches('x')
                .parse()
                .unwrap()
        };
        let four = rows
            .iter()
            .find(|r| r.split(',').nth(1) == Some("4"))
            .unwrap();
        // Per-launch constants (bitmap memset, launch overhead) are not
        // data-parallel, so the small test workload caps below the ideal 4x.
        assert!(
            sampling_speedup(four) > 1.7,
            "4-device sampling speedup: {four}"
        );
    }
}
