//! Forwarding adapters that time the calls into each layer from outside the
//! program: [`TimedEngine`] wraps any `ImmEngine`, [`ObservedResampler`]
//! wraps the streaming engine's `DeviceResampler`.
//!
//! Both forward every trait method unchanged. A missing forward would change
//! the run silently (a dropped `logical_sets` changes theta under source
//! elimination), which the traced run catches by comparing its digest with
//! the untraced one.

use std::cell::Cell;
use std::rc::Rc;

use eim_core::DeviceResampler;
use eim_graph::{Graph, VertexId};
use eim_imm::{
    EngineError, EngineManifest, Eviction, ImmEngine, RecoveryPolicy, RecoveryReport, Resampler,
    RrrSets, Selection,
};

use crate::clock::Stamp;

/// Host time and call counts one [`TimedEngine`] saw.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineTimes {
    /// CPU time inside `extend_to` (sampler plus store ingest).
    pub extend_s: f64,
    pub extend_calls: u64,
    /// CPU time inside `select`.
    pub select_s: f64,
    pub select_calls: u64,
    /// Sum over `select` calls of k times the stored sets it scans.
    pub sets_scanned: u64,
}

/// An `ImmEngine` that forwards to `inner` and times `extend_to` and
/// `select`.
pub struct TimedEngine<E> {
    inner: E,
    times: EngineTimes,
}

impl<E> TimedEngine<E> {
    pub fn new(inner: E) -> Self {
        Self {
            inner,
            times: EngineTimes::default(),
        }
    }

    pub fn inner(&self) -> &E {
        &self.inner
    }

    pub fn times(&self) -> EngineTimes {
        self.times
    }
}

impl<E: ImmEngine> ImmEngine for TimedEngine<E> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn extend_to(&mut self, target: usize) -> Result<(), EngineError> {
        let t = Stamp::now();
        let r = self.inner.extend_to(target);
        self.times.extend_s += t.secs();
        self.times.extend_calls += 1;
        r
    }

    fn select(&mut self, k: usize) -> Selection {
        let sets = self.inner.store().num_sets();
        let t = Stamp::now();
        let selection = self.inner.select(k);
        self.times.select_s += t.secs();
        self.times.select_calls += 1;
        self.times.sets_scanned += (k * sets) as u64;
        selection
    }

    fn store(&self) -> &dyn RrrSets {
        self.inner.store()
    }

    fn logical_sets(&self) -> usize {
        self.inner.logical_sets()
    }

    fn elapsed_us(&self) -> f64 {
        self.inner.elapsed_us()
    }

    fn advance_time(&mut self, us: f64) {
        self.inner.advance_time(us)
    }

    fn set_recovery_policy(&mut self, policy: RecoveryPolicy) {
        self.inner.set_recovery_policy(policy)
    }

    fn recovery_report(&self) -> RecoveryReport {
        self.inner.recovery_report()
    }

    fn evict_lost_devices(&mut self) -> Result<Option<Eviction>, EngineError> {
        self.inner.evict_lost_devices()
    }

    fn checkpoint_manifest(&self) -> EngineManifest {
        self.inner.checkpoint_manifest()
    }

    fn restore_manifest(&mut self, manifest: &EngineManifest) -> Result<(), EngineError> {
        self.inner.restore_manifest(manifest)
    }
}

/// What an [`ObservedResampler`] has seen so far. Shared with the benchmark
/// because the streaming engine owns the resampler.
#[derive(Debug, Default)]
pub struct ResamplerProbe {
    /// CPU time inside `graph_changed` plus `sample`.
    pub busy_s: Cell<f64>,
    /// The resampler device's simulated clock after the last call, in µs.
    pub sim_us: Cell<f64>,
}

/// A `Resampler` that forwards to a `DeviceResampler`, timing each call and
/// reading the device clock after it.
pub struct ObservedResampler {
    inner: DeviceResampler,
    probe: Rc<ResamplerProbe>,
}

impl ObservedResampler {
    pub fn new(inner: DeviceResampler) -> (Self, Rc<ResamplerProbe>) {
        let probe = Rc::new(ResamplerProbe::default());
        let resampler = Self {
            inner,
            probe: probe.clone(),
        };
        (resampler, probe)
    }

    fn observe<T>(&mut self, call: impl FnOnce(&mut DeviceResampler) -> T) -> T {
        let t = Stamp::now();
        let out = call(&mut self.inner);
        let busy = &self.probe.busy_s;
        busy.set(busy.get() + t.secs());
        self.probe.sim_us.set(self.inner.device().clock_us());
        out
    }
}

impl Resampler for ObservedResampler {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn graph_changed(
        &mut self,
        graph: &Graph,
        changed_heads: &[VertexId],
    ) -> Result<(), EngineError> {
        self.observe(|r| r.graph_changed(graph, changed_heads))
    }

    fn sample(
        &mut self,
        graph: &Graph,
        indices: &[u64],
    ) -> Result<Vec<(VertexId, Vec<VertexId>)>, EngineError> {
        self.observe(|r| r.sample(graph, indices))
    }
}
