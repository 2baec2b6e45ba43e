//! Deterministic fault injection.
//!
//! A [`FaultPlan`] is a seeded schedule of simulator faults: transient
//! kernel-launch failures, PCIe transfer failures, fail-stop device loss,
//! straggler (slow-device) windows, link flaps that degrade PCIe bandwidth,
//! and artificial memory-pressure windows that temporarily shrink usable
//! device memory. The plan is *fully deterministic*: every checked launch /
//! transfer on a device draws one **event ordinal** from a serial counter,
//! and whether that event faults is a pure function of `(seed, kind,
//! ordinal)`. Retrying a faulted operation draws a fresh ordinal, so
//! transient faults clear on retry — exactly the behaviour a recovery layer
//! needs to be testable.
//!
//! Fail-stop is the exception: once a `device_fail` draw fires, the plan
//! latches dead and every subsequent check is rejected with
//! [`SimFault::DeviceLost`] *without consuming further ordinals* — the
//! device is gone, and retries cannot bring it back. Eviction (the
//! multi-GPU engine dropping the device and re-sharding its work) is the
//! only way forward.
//!
//! Allocations deliberately do **not** tick the ordinal: gIM performs
//! dynamic in-kernel allocations concurrently across blocks, so hanging the
//! schedule off allocs would make the ordinal sequence racy. Launches and
//! transfers are issued serially by the engines, keeping the plan
//! reproducible bit-for-bit across runs and thread counts.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// An injected simulator fault, surfaced alongside
/// [`MemoryError`](crate::MemoryError) in the engines' error model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimFault {
    /// A kernel launch failed transiently (the CUDA analogue being a
    /// `cudaErrorLaunchFailure` that clears on relaunch).
    KernelLaunch {
        /// The deterministic event ordinal at which the fault fired.
        ordinal: u64,
    },
    /// A PCIe transfer failed transiently.
    Transfer {
        /// The deterministic event ordinal at which the fault fired.
        ordinal: u64,
    },
    /// The device failed permanently (fail-stop): every launch and transfer
    /// from the tripping ordinal on is rejected with this fault. Retries
    /// never clear it — the recovery layer must evict the device.
    DeviceLost {
        /// The ordinal at which the device died.
        ordinal: u64,
    },
    /// A PCIe link flap: the transfer failed *and* the link degraded to the
    /// next lower bandwidth tier (retries go through, but slower).
    LinkFlap {
        /// The deterministic event ordinal at which the flap fired.
        ordinal: u64,
    },
}

impl SimFault {
    /// The ordinal at which the fault fired (keys trace events).
    pub fn ordinal(&self) -> u64 {
        match *self {
            SimFault::KernelLaunch { ordinal }
            | SimFault::Transfer { ordinal }
            | SimFault::DeviceLost { ordinal }
            | SimFault::LinkFlap { ordinal } => ordinal,
        }
    }

    /// Short machine-readable kind tag (used in `--json` error output).
    pub fn kind(&self) -> &'static str {
        match self {
            SimFault::KernelLaunch { .. } => "kernel_launch",
            SimFault::Transfer { .. } => "transfer",
            SimFault::DeviceLost { .. } => "device_lost",
            SimFault::LinkFlap { .. } => "link_flap",
        }
    }

    /// Whether a retry of the faulted operation can ever succeed. False
    /// only for fail-stop device loss.
    pub fn is_transient(&self) -> bool {
        !matches!(self, SimFault::DeviceLost { .. })
    }
}

impl fmt::Display for SimFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimFault::KernelLaunch { ordinal } => {
                write!(f, "injected kernel-launch fault at event {ordinal}")
            }
            SimFault::Transfer { ordinal } => {
                write!(f, "injected PCIe transfer fault at event {ordinal}")
            }
            SimFault::DeviceLost { ordinal } => {
                write!(f, "device lost (fail-stop) at event {ordinal}")
            }
            SimFault::LinkFlap { ordinal } => {
                write!(f, "PCIe link flap at event {ordinal} (bandwidth degraded)")
            }
        }
    }
}

impl std::error::Error for SimFault {}

/// A window on the event-ordinal axis during which a fraction of device
/// memory is artificially reserved (unusable), simulating external pressure.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PressureWindow {
    /// Fraction of device capacity made unusable, in `(0, 1]`.
    pub fraction: f64,
    /// First event ordinal (inclusive) the window covers.
    pub from_event: u64,
    /// Last event ordinal (exclusive) the window covers.
    pub to_event: u64,
}

/// A window on the event-ordinal axis during which the device computes
/// slower: kernel cycles are scaled by `multiplier` — the "straggler GPU"
/// of multi-device runs (thermal throttling, a contended PCIe switch, a
/// noisy neighbour).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StragglerWindow {
    /// Slowdown factor applied to simulated kernel compute time, `>= 1`.
    pub multiplier: f64,
    /// First event ordinal (inclusive) the window covers.
    pub from_event: u64,
    /// Last event ordinal (exclusive) the window covers.
    pub to_event: u64,
}

/// Parsed fault-injection configuration (the `--inject-faults <spec>` value).
///
/// Spec grammar: comma-separated `key=value` pairs —
/// `seed=<u64>`, `kernel=<prob>`, `transfer=<prob>`, `device_fail=<prob>`,
/// `link_flap=<prob>`, zero or more `straggler=<mult>@<from>:<to>` windows,
/// and zero or more `pressure=<fraction>@<from>:<to>` windows, e.g.
/// `seed=42,kernel=0.05,device_fail=0.01,straggler=3@8:24`.
///
/// The [`Display`](std::fmt::Display) impl renders the canonical form of a spec, and
/// `FaultSpec::parse(&spec.to_string()) == spec` for every valid spec.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultSpec {
    /// Seed for the deterministic fault schedule.
    pub seed: u64,
    /// Per-checked-launch probability of a transient kernel fault, in `[0, 1)`.
    pub kernel_fault_prob: f64,
    /// Per-checked-transfer probability of a transient PCIe fault, in `[0, 1)`.
    pub transfer_fault_prob: f64,
    /// Per-checked-event probability of permanent fail-stop device loss,
    /// in `[0, 1)`.
    pub device_fail_prob: f64,
    /// Per-checked-transfer probability of a link flap (transfer fails and
    /// the link bandwidth halves permanently), in `[0, 1)`.
    pub link_flap_prob: f64,
    /// Straggler (compute-slowdown) windows over the event-ordinal axis.
    pub straggler: Vec<StragglerWindow>,
    /// Memory-pressure windows over the event-ordinal axis.
    pub pressure: Vec<PressureWindow>,
}

impl Default for FaultSpec {
    fn default() -> Self {
        Self {
            seed: 0,
            kernel_fault_prob: 0.0,
            transfer_fault_prob: 0.0,
            device_fail_prob: 0.0,
            link_flap_prob: 0.0,
            straggler: Vec::new(),
            pressure: Vec::new(),
        }
    }
}

/// Parses `value` as `<head>@<from>:<to>`, returning the pieces; `key`
/// names the spec key in error messages.
fn parse_window(key: &str, value: &str) -> Result<(f64, u64, u64), String> {
    let (head, window) = value.split_once('@').ok_or_else(|| {
        format!("fault spec key `{key}`: `{value}` is missing the `@<from>:<to>` window")
    })?;
    let head_val: f64 = head
        .parse()
        .map_err(|_| format!("fault spec key `{key}`: `{head}` is not a number"))?;
    let (from, to) = window.split_once(':').ok_or_else(|| {
        format!("fault spec key `{key}`: window `{window}` must be `<from>:<to>`")
    })?;
    let from_event: u64 = from
        .parse()
        .map_err(|_| format!("fault spec key `{key}`: window start `{from}` is not a u64"))?;
    let to_event: u64 = to
        .parse()
        .map_err(|_| format!("fault spec key `{key}`: window end `{to}` is not a u64"))?;
    if to_event <= from_event {
        return Err(format!(
            "fault spec key `{key}`: window {from_event}:{to_event} is empty"
        ));
    }
    Ok((head_val, from_event, to_event))
}

impl FaultSpec {
    /// Parses the `--inject-faults` spec string (see type docs for grammar).
    /// Errors name the offending key and token.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut out = FaultSpec::default();
        for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec item `{}` is not `key=value`", part.trim()))?;
            let (key, value) = (key.trim(), value.trim());
            match key {
                "seed" => {
                    out.seed = value
                        .parse()
                        .map_err(|_| format!("fault spec key `seed`: `{value}` is not a u64"))?;
                }
                "kernel" | "transfer" | "device_fail" | "link_flap" => {
                    let p: f64 = value.parse().map_err(|_| {
                        format!("fault spec key `{key}`: `{value}` is not a number")
                    })?;
                    if !(0.0..1.0).contains(&p) {
                        // < 1 so a retry (or a sibling device) can survive.
                        return Err(format!(
                            "fault spec key `{key}`: probability {p} must be in [0, 1)"
                        ));
                    }
                    match key {
                        "kernel" => out.kernel_fault_prob = p,
                        "transfer" => out.transfer_fault_prob = p,
                        "device_fail" => out.device_fail_prob = p,
                        _ => out.link_flap_prob = p,
                    }
                }
                "straggler" => {
                    let (multiplier, from_event, to_event) = parse_window(key, value)?;
                    if !(multiplier >= 1.0 && multiplier.is_finite()) {
                        return Err(format!(
                            "fault spec key `straggler`: multiplier {multiplier} must be >= 1"
                        ));
                    }
                    out.straggler.push(StragglerWindow {
                        multiplier,
                        from_event,
                        to_event,
                    });
                }
                "pressure" => {
                    let (fraction, from_event, to_event) = parse_window(key, value)?;
                    if !(fraction > 0.0 && fraction <= 1.0) {
                        return Err(format!(
                            "fault spec key `pressure`: fraction {fraction} must be in (0, 1]"
                        ));
                    }
                    out.pressure.push(PressureWindow {
                        fraction,
                        from_event,
                        to_event,
                    });
                }
                other => {
                    return Err(format!(
                        "unknown fault spec key `{other}` (expected seed, kernel, transfer, \
                         device_fail, link_flap, straggler, or pressure)"
                    ))
                }
            }
        }
        Ok(out)
    }

    /// Derives a per-device variant of this spec (multi-GPU: each device
    /// gets an independent but still deterministic schedule).
    pub fn derive(&self, salt: u64) -> FaultSpec {
        FaultSpec {
            seed: self.seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            ..self.clone()
        }
    }

    /// Whether the spec injects anything at all.
    pub fn is_noop(&self) -> bool {
        self.kernel_fault_prob == 0.0
            && self.transfer_fault_prob == 0.0
            && self.device_fail_prob == 0.0
            && self.link_flap_prob == 0.0
            && self.straggler.is_empty()
            && self.pressure.is_empty()
    }
}

impl fmt::Display for FaultSpec {
    /// Canonical spec string: `seed=` first, then every active class in
    /// grammar order. Round-trips through [`FaultSpec::parse`].
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seed={}", self.seed)?;
        if self.kernel_fault_prob > 0.0 {
            write!(f, ",kernel={}", self.kernel_fault_prob)?;
        }
        if self.transfer_fault_prob > 0.0 {
            write!(f, ",transfer={}", self.transfer_fault_prob)?;
        }
        if self.device_fail_prob > 0.0 {
            write!(f, ",device_fail={}", self.device_fail_prob)?;
        }
        if self.link_flap_prob > 0.0 {
            write!(f, ",link_flap={}", self.link_flap_prob)?;
        }
        for w in &self.straggler {
            write!(
                f,
                ",straggler={}@{}:{}",
                w.multiplier, w.from_event, w.to_event
            )?;
        }
        for w in &self.pressure {
            write!(
                f,
                ",pressure={}@{}:{}",
                w.fraction, w.from_event, w.to_event
            )?;
        }
        Ok(())
    }
}

/// The outcome of drawing one event from a [`FaultPlan`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultDecision {
    /// The ordinal drawn for this event.
    pub ordinal: u64,
    /// Whether the event faults transiently.
    pub fault: bool,
    /// Whether the device fails permanently at this event (fail-stop).
    pub device_fail: bool,
    /// Whether the link flaps at this event (transfer events only).
    pub link_flap: bool,
    /// Compute-slowdown factor active at this ordinal (`1.0` outside every
    /// straggler window).
    pub straggler_multiplier: f64,
    /// Fraction of device capacity under artificial pressure at this ordinal.
    pub pressure_fraction: f64,
}

/// A live, seeded fault schedule attached to a [`Device`](crate::Device).
///
/// The plan owns the serial event counter; the decision for each event is a
/// pure hash of `(seed, kind, ordinal)`, so two runs with the same spec and
/// the same operation sequence observe identical faults.
#[derive(Debug)]
pub struct FaultPlan {
    spec: FaultSpec,
    events: AtomicU64,
    /// Ordinal at which the device fail-stopped; `u64::MAX` while alive.
    dead_at: AtomicU64,
}

// Distinct salts keep the per-class decision streams independent.
const KERNEL_SALT: u64 = 0x6b65_726e_656c_0001;
const TRANSFER_SALT: u64 = 0x7472_616e_7366_0002;
const DEVICE_FAIL_SALT: u64 = 0x6465_6164_6776_0003;
const LINK_FLAP_SALT: u64 = 0x6c69_6e6b_666c_0004;

const ALIVE: u64 = u64::MAX;

/// SplitMix64 finalizer: a well-mixed 64-bit hash of the input.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Maps a hash to a uniform float in `[0, 1)`.
fn unit_f64(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl FaultPlan {
    /// A plan executing `spec`'s schedule from event ordinal 0.
    pub fn new(spec: FaultSpec) -> Self {
        Self {
            spec,
            events: AtomicU64::new(0),
            dead_at: AtomicU64::new(ALIVE),
        }
    }

    /// The spec this plan executes.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// Number of events drawn so far.
    pub fn events_so_far(&self) -> u64 {
        self.events.load(Ordering::Relaxed)
    }

    /// Rewinds the event counter and revives the device (between
    /// independent runs on one device).
    pub fn reset(&self) {
        self.events.store(0, Ordering::Relaxed);
        self.dead_at.store(ALIVE, Ordering::Relaxed);
    }

    /// Whether the device has fail-stopped.
    pub fn is_dead(&self) -> bool {
        self.dead_at.load(Ordering::Relaxed) != ALIVE
    }

    /// The ordinal at which the device fail-stopped, if it has.
    pub fn dead_at(&self) -> Option<u64> {
        match self.dead_at.load(Ordering::Relaxed) {
            ALIVE => None,
            o => Some(o),
        }
    }

    /// Latches the device dead as of `ordinal` (idempotent; the first
    /// ordinal wins). Exposed so test harnesses can force a fail-stop at a
    /// chosen point instead of scanning for a seed.
    pub fn mark_dead(&self, ordinal: u64) {
        let _ = self
            .dead_at
            .compare_exchange(ALIVE, ordinal, Ordering::Relaxed, Ordering::Relaxed);
    }

    fn decide(&self, salt: u64, prob: f64) -> FaultDecision {
        let ordinal = self.events.fetch_add(1, Ordering::Relaxed);
        let roll = |class_salt: u64| {
            unit_f64(splitmix64(
                self.spec.seed ^ class_salt ^ ordinal.wrapping_mul(0x2545_f491_4f6c_dd1d),
            ))
        };
        let device_fail =
            self.spec.device_fail_prob > 0.0 && roll(DEVICE_FAIL_SALT) < self.spec.device_fail_prob;
        let link_flap = salt == TRANSFER_SALT
            && self.spec.link_flap_prob > 0.0
            && roll(LINK_FLAP_SALT) < self.spec.link_flap_prob;
        FaultDecision {
            ordinal,
            fault: prob > 0.0 && roll(salt) < prob,
            device_fail,
            link_flap,
            straggler_multiplier: self.straggler_multiplier_at(ordinal),
            pressure_fraction: self.pressure_fraction_at(ordinal),
        }
    }

    /// Draws the next kernel-launch event (advances the ordinal).
    pub fn next_kernel_event(&self) -> FaultDecision {
        self.decide(KERNEL_SALT, self.spec.kernel_fault_prob)
    }

    /// Draws the next transfer event (advances the ordinal).
    pub fn next_transfer_event(&self) -> FaultDecision {
        self.decide(TRANSFER_SALT, self.spec.transfer_fault_prob)
    }

    /// The artificial pressure fraction active at `ordinal` (max over all
    /// covering windows; 0.0 outside every window).
    pub fn pressure_fraction_at(&self, ordinal: u64) -> f64 {
        self.spec
            .pressure
            .iter()
            .filter(|w| ordinal >= w.from_event && ordinal < w.to_event)
            .map(|w| w.fraction)
            .fold(0.0, f64::max)
    }

    /// The straggler multiplier active at `ordinal` (max over all covering
    /// windows; 1.0 outside every window).
    pub fn straggler_multiplier_at(&self, ordinal: u64) -> f64 {
        self.spec
            .straggler
            .iter()
            .filter(|w| ordinal >= w.from_event && ordinal < w.to_event)
            .map(|w| w.multiplier)
            .fold(1.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_spec() {
        let s = FaultSpec::parse("seed=42,kernel=0.05,transfer=0.02,pressure=0.6@8:24").unwrap();
        assert_eq!(s.seed, 42);
        assert_eq!(s.kernel_fault_prob, 0.05);
        assert_eq!(s.transfer_fault_prob, 0.02);
        assert_eq!(
            s.pressure,
            vec![PressureWindow {
                fraction: 0.6,
                from_event: 8,
                to_event: 24
            }]
        );
        assert!(!s.is_noop());
    }

    #[test]
    fn parse_new_fault_classes() {
        let s =
            FaultSpec::parse("seed=1,device_fail=0.01,link_flap=0.1,straggler=2.5@4:16").unwrap();
        assert_eq!(s.device_fail_prob, 0.01);
        assert_eq!(s.link_flap_prob, 0.1);
        assert_eq!(
            s.straggler,
            vec![StragglerWindow {
                multiplier: 2.5,
                from_event: 4,
                to_event: 16
            }]
        );
        assert!(!s.is_noop());
    }

    #[test]
    fn parse_rejects_bad_specs() {
        assert!(FaultSpec::parse("kernel").is_err());
        assert!(FaultSpec::parse("kernel=1.5").is_err());
        assert!(FaultSpec::parse("kernel=1.0").is_err()); // must stay < 1: retry must be able to clear
        assert!(FaultSpec::parse("pressure=0.5").is_err());
        assert!(FaultSpec::parse("pressure=0.5@9:9").is_err());
        assert!(FaultSpec::parse("pressure=1.5@0:9").is_err());
        assert!(FaultSpec::parse("device_fail=1.0").is_err());
        assert!(FaultSpec::parse("link_flap=-0.1").is_err());
        assert!(FaultSpec::parse("straggler=0.5@0:4").is_err()); // must slow down, not speed up
        assert!(FaultSpec::parse("straggler=2").is_err()); // missing window
        assert!(FaultSpec::parse("straggler=2@4:4").is_err());
        assert!(FaultSpec::parse("warp=0.1").is_err());
        assert!(FaultSpec::parse("").unwrap().is_noop());
    }

    #[test]
    fn parse_errors_name_the_bad_token() {
        let cases = [
            ("kernel", "`kernel` is not `key=value`"),
            ("seed=x1", "`seed`: `x1` is not a u64"),
            ("kernel=abc", "`kernel`: `abc` is not a number"),
            ("device_fail=1.25", "`device_fail`: probability 1.25"),
            ("straggler=2", "missing the `@<from>:<to>` window"),
            ("straggler=2@9", "window `9` must be `<from>:<to>`"),
            ("straggler=2@a:9", "window start `a` is not a u64"),
            ("pressure=0.5@1:z", "window end `z` is not a u64"),
            ("pressure=0.5@7:7", "window 7:7 is empty"),
            ("warp=0.1", "unknown fault spec key `warp`"),
        ];
        for (spec, needle) in cases {
            let err = FaultSpec::parse(spec).unwrap_err();
            assert!(err.contains(needle), "spec `{spec}`: {err}");
        }
    }

    #[test]
    fn display_round_trips_through_parse() {
        let specs = [
            "seed=0",
            "seed=42,kernel=0.05,transfer=0.02,pressure=0.6@8:24",
            "seed=7,device_fail=0.01",
            "seed=9,link_flap=0.125",
            "seed=3,straggler=2.5@4:16,straggler=8@20:40",
            "seed=11,kernel=0.1,transfer=0.2,device_fail=0.3,link_flap=0.4,\
             straggler=1.5@0:8,pressure=0.9@2:6",
        ];
        for text in specs {
            let spec = FaultSpec::parse(text).unwrap();
            let rendered = spec.to_string();
            assert_eq!(
                FaultSpec::parse(&rendered).unwrap(),
                spec,
                "`{text}` -> `{rendered}` must round-trip"
            );
        }
        // The canonical rendering of the canonical rendering is itself.
        let spec = FaultSpec::parse("kernel=0.25,seed=5").unwrap();
        assert_eq!(spec.to_string(), "seed=5,kernel=0.25");
    }

    #[test]
    fn schedule_is_deterministic() {
        let run = || {
            let plan = FaultPlan::new(FaultSpec::parse("seed=7,kernel=0.3,transfer=0.3").unwrap());
            let mut outcomes = Vec::new();
            for _ in 0..64 {
                outcomes.push(plan.next_kernel_event().fault);
                outcomes.push(plan.next_transfer_event().fault);
            }
            outcomes
        };
        let a = run();
        assert_eq!(a, run());
        // A 30% fault rate over 128 draws fires at least once and not always.
        assert!(a.iter().any(|&f| f));
        assert!(a.iter().any(|&f| !f));
    }

    #[test]
    fn kernel_and_transfer_streams_are_independent() {
        let spec = FaultSpec::parse("seed=3,kernel=0.5,transfer=0.5").unwrap();
        let plan = FaultPlan::new(spec);
        let kernels: Vec<bool> = (0..64).map(|_| plan.next_kernel_event().fault).collect();
        plan.reset();
        let transfers: Vec<bool> = (0..64).map(|_| plan.next_transfer_event().fault).collect();
        assert_ne!(kernels, transfers);
    }

    #[test]
    fn pressure_windows_cover_their_ordinals() {
        let spec = FaultSpec::parse("pressure=0.5@2:4,pressure=0.8@3:6").unwrap();
        let plan = FaultPlan::new(spec);
        assert_eq!(plan.pressure_fraction_at(1), 0.0);
        assert_eq!(plan.pressure_fraction_at(2), 0.5);
        assert_eq!(plan.pressure_fraction_at(3), 0.8); // max over overlapping windows
        assert_eq!(plan.pressure_fraction_at(5), 0.8);
        assert_eq!(plan.pressure_fraction_at(6), 0.0);
    }

    #[test]
    fn straggler_windows_cover_their_ordinals() {
        let spec = FaultSpec::parse("straggler=2@2:4,straggler=3@3:6").unwrap();
        let plan = FaultPlan::new(spec);
        assert_eq!(plan.straggler_multiplier_at(1), 1.0);
        assert_eq!(plan.straggler_multiplier_at(2), 2.0);
        assert_eq!(plan.straggler_multiplier_at(3), 3.0); // max over overlapping windows
        assert_eq!(plan.straggler_multiplier_at(6), 1.0);
        // The drawn decision carries the window multiplier.
        assert_eq!(plan.next_kernel_event().straggler_multiplier, 1.0); // ordinal 0
        assert_eq!(plan.next_kernel_event().straggler_multiplier, 1.0); // ordinal 1
        assert_eq!(plan.next_kernel_event().straggler_multiplier, 2.0); // ordinal 2
    }

    #[test]
    fn device_fail_latches_dead() {
        // Scan for a seed whose first kernel draw kills the device.
        let mut seed = 0;
        let plan = loop {
            let p =
                FaultPlan::new(FaultSpec::parse(&format!("seed={seed},device_fail=0.2")).unwrap());
            if p.next_kernel_event().device_fail {
                p.reset();
                break p;
            }
            seed += 1;
        };
        assert!(!plan.is_dead());
        let d = plan.next_kernel_event();
        assert!(d.device_fail);
        plan.mark_dead(d.ordinal);
        assert!(plan.is_dead());
        assert_eq!(plan.dead_at(), Some(d.ordinal));
        // First latch wins; a later mark cannot move the ordinal.
        plan.mark_dead(d.ordinal + 10);
        assert_eq!(plan.dead_at(), Some(d.ordinal));
        // Reset revives.
        plan.reset();
        assert!(!plan.is_dead());
    }

    #[test]
    fn link_flap_fires_only_on_transfer_events() {
        let spec = FaultSpec::parse("seed=5,link_flap=0.5").unwrap();
        let plan = FaultPlan::new(spec.clone());
        let kernel_flaps = (0..64).any(|_| plan.next_kernel_event().link_flap);
        assert!(!kernel_flaps, "kernel events must never flap the link");
        plan.reset();
        let transfer_flaps = (0..64)
            .filter(|_| plan.next_transfer_event().link_flap)
            .count();
        assert!(transfer_flaps > 0, "p=0.5 over 64 draws should flap");
        assert!(transfer_flaps < 64);
    }

    #[test]
    fn derive_changes_the_schedule_but_not_the_shape() {
        let spec = FaultSpec::parse("seed=9,kernel=0.4").unwrap();
        let d1 = spec.derive(1);
        assert_ne!(spec.seed, d1.seed);
        assert_eq!(spec.kernel_fault_prob, d1.kernel_fault_prob);
        // Same salt -> same derived seed (the multi-GPU engine relies on this
        // for run-to-run determinism).
        assert_eq!(d1, spec.derive(1));
    }

    /// An accepted spec is one a fault plan can run: every probability in
    /// [0, 1), every window non-empty, straggler multipliers finite and
    /// at least 1, pressure fractions in (0, 1].
    fn assert_runnable(spec: &FaultSpec, text: &str) {
        for p in [
            spec.kernel_fault_prob,
            spec.transfer_fault_prob,
            spec.device_fail_prob,
            spec.link_flap_prob,
        ] {
            assert!((0.0..1.0).contains(&p), "`{text}`: probability {p}");
        }
        for w in &spec.straggler {
            assert!(w.from_event < w.to_event, "`{text}`: empty window");
            assert!(w.multiplier.is_finite() && w.multiplier >= 1.0, "`{text}`");
        }
        for w in &spec.pressure {
            assert!(w.from_event < w.to_event, "`{text}`: empty window");
            assert!(w.fraction > 0.0 && w.fraction <= 1.0, "`{text}`");
        }
    }

    /// Keys of the grammar and near misses.
    const KEYS: [&str; 10] = [
        "seed",
        "kernel",
        "transfer",
        "device_fail",
        "link_flap",
        "straggler",
        "pressure",
        " kernel ",
        "Kernel",
        "",
    ];

    /// Number-like tokens the value parsers must survive.
    const TOKENS: [&str; 10] = [
        "NaN",
        "inf",
        "-inf",
        "1e400",
        "-0",
        "",
        "0x10",
        "1.0.0",
        "+1",
        "18446744073709551616",
    ];

    /// One value token: an integer, a decimal in [-2, 3), a fraction, or a
    /// hostile token, chosen by `kind`.
    fn token(kind: u64, bits: u64, x: f64) -> String {
        match kind {
            0 => bits.to_string(),
            1 => x.to_string(),
            2 => format!("0.{}", bits % 1000),
            3 => TOKENS[(bits % TOKENS.len() as u64) as usize].to_string(),
            _ => (bits % 50).to_string(),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        #[test]
        fn parse_never_panics_on_arbitrary_text(text in ".{0,200}") {
            if let Ok(spec) = FaultSpec::parse(&text) {
                assert_runnable(&spec, &text);
            }
        }

        /// `key=value` items, each with a window or not, some mutated by
        /// one inserted or replaced character.
        #[test]
        fn parse_never_panics_on_mutated_items(
            items in proptest::collection::vec(
                (
                    (0usize..KEYS.len(), 0u64..5, proptest::prelude::any::<u64>(), -2.0f64..3.0),
                    (proptest::prelude::any::<bool>(), 0u64..40, 0u64..40),
                    (0u8..4, proptest::prelude::any::<usize>(), ".{1,1}"),
                ),
                0..6,
            ),
        ) {
            let text: Vec<String> = items
                .into_iter()
                .map(|((key, kind, bits, x), (windowed, from, to), (mutate, at, ch))| {
                    let mut item = format!("{}={}", KEYS[key], token(kind, bits, x));
                    if windowed {
                        item.push_str(&format!("@{from}:{to}"));
                    }
                    let at = item
                        .char_indices()
                        .map(|(i, _)| i)
                        .nth(at % item.chars().count())
                        .unwrap_or(0);
                    match mutate {
                        0 => item.insert_str(at, &ch),
                        1 => item.replace_range(at..at + item[at..].chars().next().map_or(0, char::len_utf8), &ch),
                        _ => {}
                    }
                    item
                })
                .collect();
            let text = text.join(",");
            if let Ok(spec) = FaultSpec::parse(&text) {
                assert_runnable(&spec, &text);
            }
        }
    }
}
