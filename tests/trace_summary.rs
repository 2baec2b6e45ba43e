//! `TraceSummary` is read from the metrics registry the trace feeds, so it
//! must not depend on how the trace buffers events or which registry it
//! feeds: a capped trace, an uncapped one, and one attached to a user
//! registry report the same totals for the same faulted multi-device run.

use eim::core::EimEngine;
use eim::gpusim::{DeviceSpec, FaultSpec, MetricsRegistry, RunTrace, TraceSummary};
use eim::graph::{generators, Graph, WeightModel};
use eim::imm::{run_imm_recovering, ImmConfig, RecoveryPolicy};
use serde_json::Value;

fn graph() -> Graph {
    generators::rmat(
        400,
        2_400,
        generators::RmatParams::GRAPH500,
        WeightModel::WeightedCascade,
        31,
    )
}

/// One faulted 4-device run (transient kernel and transfer faults plus a
/// fail-stop device loss, recovered by retries and an eviction).
fn faulted_run(g: &Graph, trace: &RunTrace) {
    let c = ImmConfig::paper_default()
        .with_k(4)
        .with_epsilon(0.2)
        .with_seed(17);
    let spec = DeviceSpec::rtx_a6000_with_mem(256 << 20);
    let faults = FaultSpec::parse("seed=3,kernel=0.1,transfer=0.05,device_fail=0.01").unwrap();
    let mut e = EimEngine::with_telemetry(g, c, spec, 4, trace, true)
        .unwrap()
        .with_faults(&faults);
    let r = run_imm_recovering(&mut e, &c, &RecoveryPolicy::retry(), trace).unwrap();
    assert!(r.recovery.retries > 0, "{:?}", r.recovery);
    assert!(r.recovery.devices_evicted > 0, "{:?}", r.recovery);
}

/// Sum of every series of counter `name` in a registry's JSON snapshot.
fn series_sum(registry: &Value, name: &str) -> u64 {
    let prefix = format!("{name}{{");
    registry["counters"]
        .as_object()
        .unwrap()
        .iter()
        .filter(|(k, _)| k.starts_with(&prefix))
        .map(|(_, v)| v.as_u64().unwrap())
        .sum()
}

/// Checks every summary total against the registry series it stands for.
fn assert_totals_match_series(s: &TraceSummary, registry: &MetricsRegistry) {
    let v = registry.to_json();
    let kernels = v["kernels"].as_array().unwrap();
    let kernel_sum =
        |field: &str| -> u64 { kernels.iter().map(|k| k[field].as_u64().unwrap()).sum() };
    assert_eq!(s.kernel_launches, kernel_sum("launches"));
    assert_eq!(s.kernel_cycles, kernel_sum("cycles"));
    assert_eq!(s.alloc_events, series_sum(&v, "eim_device_allocs_total"));
    assert_eq!(s.free_events, series_sum(&v, "eim_device_frees_total"));
    assert_eq!(s.transfer_events, series_sum(&v, "eim_transfers_total"));
    assert_eq!(s.transfer_bytes, series_sum(&v, "eim_transfer_bytes_total"));
    assert_eq!(s.fault_events, series_sum(&v, "eim_faults_injected_total"));
    assert_eq!(
        s.recovery_events,
        series_sum(&v, "eim_recovery_actions_total")
    );
    let peak = v["gauges"]
        .as_object()
        .unwrap()
        .iter()
        .filter(|(k, _)| k.starts_with("eim_device_mem_peak_bytes{"))
        .map(|(_, g)| g.as_u64().unwrap())
        .max()
        .unwrap();
    assert_eq!(s.peak_bytes, peak);
}

#[test]
fn summary_is_the_same_capped_uncapped_and_with_a_user_registry() {
    let g = graph();
    let capped = RunTrace::enabled_with_event_cap(1);
    let plain = RunTrace::enabled();
    let user = MetricsRegistry::new();
    let attached = RunTrace::enabled().with_metrics(user.sink().with_engine("eim"));
    for trace in [&capped, &plain, &attached] {
        faulted_run(&g, trace);
    }

    let s = plain.summary();
    assert!(s.kernel_launches > 0 && s.transfer_events > 0 && s.alloc_events > 0);
    assert!(s.fault_events > 0 && s.recovery_events > 0);
    assert_eq!(s.dropped_events, 0);
    let c = capped.summary();
    assert!(c.dropped_events > 0, "a cap of one drops events");
    assert_eq!(
        TraceSummary {
            dropped_events: 0,
            ..c
        },
        s
    );
    assert_eq!(attached.summary(), s);

    // The uncapped buffer holds one event per counted launch, copy, fault
    // and recovery action.
    let events = plain.events();
    let count = |cat: &str, pick: fn(&str) -> bool| {
        events
            .iter()
            .filter(|e| e.cat.as_str() == cat && pick(&e.name))
            .count() as u64
    };
    assert_eq!(count("kernel", |_| true), s.kernel_launches);
    assert_eq!(count("transfer", |_| true), s.transfer_events);
    assert_eq!(count("fault", |n| n.starts_with("fault:")), s.fault_events);
    assert_eq!(
        count("fault", |n| n.starts_with("recover:")),
        s.recovery_events
    );
    let phases: Vec<&str> = s.phase_us.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(phases, ["estimation", "sampling", "selection"]);

    for (trace, registry) in [
        (&capped, capped.metrics().registry().unwrap()),
        (&plain, plain.metrics().registry().unwrap()),
        (&attached, &user),
    ] {
        assert_totals_match_series(&trace.summary(), registry);
    }
}
