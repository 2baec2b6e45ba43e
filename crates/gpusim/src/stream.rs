//! Async copy streams: the simulated DMA engine.
//!
//! Real GPUs move PCIe traffic on copy engines that run concurrently with
//! compute; CUDA exposes them as *streams* with event-based ordering. This
//! module models that on the simulated clock: a [`CopyStream`] is a FIFO of
//! copies with its own tail time, and enqueueing a copy does **not** advance
//! the device clock — only waiting on the returned [`CopyEvent`] does, and
//! only up to the copy's completion time. Overlap falls out of the max:
//! a device that computes for `c` µs while a copy of `t` µs is in flight
//! ends at `max(c, t)` past the enqueue point instead of `c + t`.
//!
//! Two invariants the test layer locks down:
//!
//! - **Timing only.** Streams reorder nothing observable: the data a copy
//!   "moves" was computed before the enqueue, so seed sets and sample bytes
//!   are byte-identical with overlap on or off.
//! - **Overlap never loses.** For any enqueue/wait schedule, the overlapped
//!   completion time is ≤ the forced-serial one ([`CopyStream::serialized`]),
//!   and a schedule that waits on every event degenerates to serial exactly.
//!
//! Copies are fault-plan-checked like synchronous transfers
//! ([`CopyStream::checked_enqueue`]) and draw from the *same* ordinal
//! sequence, so fault schedules replay identically in both modes.

use crate::fault::SimFault;
use crate::launch::Device;
use crate::transfer::TransferDirection;

/// Completion marker for one enqueued copy, recorded on the stream's
/// simulated timeline. Waiting on it advances the device clock to the
/// copy's completion time (never backwards).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CopyEvent {
    completes_at_us: f64,
}

impl CopyEvent {
    /// Simulated time at which the copy finishes.
    pub fn completes_at_us(&self) -> f64 {
        self.completes_at_us
    }
}

/// A FIFO copy queue on a device's simulated timeline.
///
/// Obtain one from [`Device::copy_stream`] and pass the owning device back
/// into each call — the stream itself holds only scheduling state (its tail
/// time and the serialization flag), so engines can keep the stream and the
/// device side by side in one struct without self-reference.
///
/// In serialized mode every [`CopyStream::enqueue`] immediately waits for
/// its own event, reproducing the pre-stream synchronous transfer timing
/// bit-for-bit; this is the differential-testing escape hatch.
#[derive(Clone, Debug)]
pub struct CopyStream {
    /// Completion time of the last enqueued copy; new copies start at
    /// `max(device clock, tail)`.
    tail_us: f64,
    serial: bool,
}

impl CopyStream {
    /// An overlapping stream with an empty queue.
    pub fn new() -> Self {
        Self {
            tail_us: 0.0,
            serial: false,
        }
    }

    /// A forced-serial stream: every enqueue waits on its own event, so the
    /// device timeline is identical to issuing synchronous transfers.
    pub fn serialized() -> Self {
        Self {
            tail_us: 0.0,
            serial: true,
        }
    }

    /// Whether this stream serializes every copy into the device timeline.
    pub fn is_serialized(&self) -> bool {
        self.serial
    }

    /// Completion time of the last enqueued copy (0 when nothing was ever
    /// enqueued).
    pub fn tail_us(&self) -> f64 {
        self.tail_us
    }

    /// Enqueues a copy of `bytes` on `device`'s timeline and returns its
    /// completion event. The copy starts when both the device has issued it
    /// (now) and the stream is free (its tail): FIFO order on the DMA
    /// engine. The device clock does not move unless the stream is
    /// serialized — overlap with subsequent compute is the point.
    pub fn enqueue(
        &mut self,
        device: &Device,
        bytes: usize,
        direction: TransferDirection,
    ) -> CopyEvent {
        // Priced at the link's current effective bandwidth: a link-flapped
        // device pays more per byte, and the spec-rate utilization recorded
        // with the copy makes the lost bandwidth visible in the metrics.
        let dur_us = device.transfer_time_us(bytes);
        let start_us = device.clock().now_us().max(self.tail_us);
        device.record_transfer(direction, "stream", start_us, dur_us, bytes);
        self.tail_us = start_us + dur_us;
        let event = CopyEvent {
            completes_at_us: self.tail_us,
        };
        if self.serial {
            self.wait_event(device, &event);
        }
        event
    }

    /// [`CopyStream::enqueue`] behind a fault-plan check, drawing from the
    /// same transfer-ordinal sequence as [`Device::checked_transfer`]. A
    /// scheduled fault charges the PCIe latency on the device clock, leaves
    /// the stream tail untouched (the transaction never reached the DMA
    /// engine), and returns the fault.
    pub fn checked_enqueue(
        &mut self,
        device: &Device,
        bytes: usize,
        direction: TransferDirection,
    ) -> Result<CopyEvent, SimFault> {
        device.check_transfer_fault()?;
        Ok(self.enqueue(device, bytes, direction))
    }

    /// Blocks the device on `event`: advances its clock to the copy's
    /// completion time, or does nothing when the copy already finished.
    pub fn wait_event(&self, device: &Device, event: &CopyEvent) {
        device.clock().advance_to(event.completes_at_us);
    }

    /// Blocks the device until every enqueued copy has completed.
    pub fn synchronize(&self, device: &Device) {
        device.clock().advance_to(self.tail_us);
    }
}

impl Default for CopyStream {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, FaultSpec};
    use crate::spec::DeviceSpec;
    use std::sync::Arc;

    fn device() -> Device {
        Device::new(DeviceSpec::test_small())
    }

    #[test]
    fn enqueue_does_not_advance_the_clock_until_waited() {
        let d = device();
        let mut s = d.copy_stream();
        let ev = s.enqueue(&d, 1 << 20, TransferDirection::HostToDevice);
        assert_eq!(d.clock_us(), 0.0, "copy is in flight, not charged");
        assert!(ev.completes_at_us() > 0.0);
        s.wait_event(&d, &ev);
        assert_eq!(d.clock_us(), ev.completes_at_us());
        // Waiting again is free.
        s.wait_event(&d, &ev);
        assert_eq!(d.clock_us(), ev.completes_at_us());
    }

    #[test]
    fn compute_hides_the_copy_and_vice_versa() {
        let d = device();
        let mut s = d.copy_stream();
        let ev = s.enqueue(&d, 1 << 20, TransferDirection::HostToDevice);
        let copy_us = ev.completes_at_us();
        // Compute longer than the copy: the copy is fully hidden.
        d.advance_clock(copy_us * 3.0);
        s.wait_event(&d, &ev);
        assert_eq!(d.clock_us(), copy_us * 3.0);
        // A short compute after a long copy: the copy dominates.
        let ev2 = s.enqueue(&d, 8 << 20, TransferDirection::DeviceToHost);
        d.advance_clock(1.0);
        s.wait_event(&d, &ev2);
        assert_eq!(d.clock_us(), ev2.completes_at_us());
    }

    #[test]
    fn copies_queue_fifo_behind_the_stream_tail() {
        let d = device();
        let mut s = d.copy_stream();
        let a = s.enqueue(&d, 1 << 20, TransferDirection::HostToDevice);
        let b = s.enqueue(&d, 1 << 20, TransferDirection::HostToDevice);
        // Same size back-to-back: b starts where a ends.
        assert!((b.completes_at_us() - 2.0 * a.completes_at_us()).abs() < 1e-12);
        s.synchronize(&d);
        assert_eq!(d.clock_us(), b.completes_at_us());
    }

    #[test]
    fn serialized_stream_matches_synchronous_transfers_exactly() {
        let sizes = [4096usize, 1 << 20, 123_457, 9];
        // Old-style synchronous path.
        let sync = device();
        for &b in &sizes {
            let us = sync.transfer(b, TransferDirection::DeviceToHost);
            sync.advance_clock(us);
        }
        // Forced-serial stream.
        let serial = device().with_copy_overlap(false);
        let mut s = serial.copy_stream();
        assert!(s.is_serialized());
        for &b in &sizes {
            s.enqueue(&serial, b, TransferDirection::DeviceToHost);
        }
        assert_eq!(sync.clock_us().to_bits(), serial.clock_us().to_bits());
    }

    #[test]
    fn checked_enqueue_draws_the_same_ordinals_as_checked_transfer() {
        let spec = FaultSpec::parse("seed=7,transfer=0.5").unwrap();
        let run_sync = || {
            let d = device().with_fault_plan(Arc::new(FaultPlan::new(spec.clone())));
            (0..16)
                .map(|_| {
                    d.checked_transfer(4096, TransferDirection::DeviceToHost)
                        .is_ok()
                })
                .collect::<Vec<_>>()
        };
        let run_stream = || {
            let d = device().with_fault_plan(Arc::new(FaultPlan::new(spec.clone())));
            let mut s = d.copy_stream();
            (0..16)
                .map(|_| {
                    s.checked_enqueue(&d, 4096, TransferDirection::DeviceToHost)
                        .is_ok()
                })
                .collect::<Vec<_>>()
        };
        let outcomes = run_sync();
        assert_eq!(outcomes, run_stream(), "fault schedule must replay");
        assert!(outcomes.contains(&false), "seed should fault somewhere");
    }

    #[test]
    fn faulted_enqueue_leaves_the_tail_untouched() {
        let mut seed = 0;
        // Find a seed whose first transfer draw faults.
        let plan = loop {
            let p = FaultPlan::new(FaultSpec::parse(&format!("seed={seed},transfer=0.3")).unwrap());
            if p.next_transfer_event().fault {
                p.reset();
                break p;
            }
            seed += 1;
        };
        let d = device().with_fault_plan(Arc::new(plan));
        let mut s = d.copy_stream();
        let err = s
            .checked_enqueue(&d, 4096, TransferDirection::DeviceToHost)
            .unwrap_err();
        assert!(matches!(err, SimFault::Transfer { .. }));
        assert_eq!(s.tail_us(), 0.0, "aborted copy never reached the DMA");
        assert!(d.clock_us() > 0.0, "aborted transaction pays PCIe latency");
    }
}
