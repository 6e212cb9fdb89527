//! The storage system: a set of targets advanced by discrete events.
//!
//! The driver submits [`TargetIo`] requests tagged with an opaque `u64`
//! and later collects [`Completion`]s. The system keeps its own internal
//! event queue for device completions; the driver merges the two clocks
//! by asking [`StorageSystem::next_event_time`] and calling
//! [`StorageSystem::advance_until`], which appends the completions to a
//! buffer the driver owns and reuses.
//!
//! # Hot path
//!
//! Every simulated request runs through `submit`, `try_start` and
//! `finish_part`, and none of them allocates in steady state: target
//! translation appends into a buffer the system owns, completions go
//! straight into the caller's buffer, and the parent and in-flight
//! slabs recycle their slots. A device-completion event carries only a
//! `u32` slot of the in-flight slab, which holds just what `finish_part`
//! reads (device, parent, length, kind), so the event heap sifts 24-byte
//! entries. The queue's (time, seq) FIFO tie-break is unchanged: it
//! orders events at equal times, such as SSD channels whose service
//! times tie exactly.
//! Each device's parallelism is read once, when the device is built.
//!
//! A device's `busy` signal is set at every enqueue, start and finish,
//! also when its value does not change (a request queued behind a busy
//! disk, say). Those calls stay on purpose: [`TimeWeighted::set`] folds
//! `value × Δt` into its sum at every call, so dropping one would merge
//! two products into one and move reported utilizations in their last
//! bits.
//!
//! [`TimeWeighted::set`]: wasla_simlib::TimeWeighted::set

use crate::device::DeviceModel;
use crate::request::{DeviceIo, IoKind, TargetIo};
use crate::sched::SchedulerKind;
use crate::stats::{DeviceStats, TargetStats};
use crate::target::{TargetConfig, TargetId};
use wasla_simlib::{EventQueue, SimRng, SimTime};

/// Notification that a previously submitted target request finished.
#[derive(Clone, Copy, Debug)]
pub struct Completion {
    /// The caller's tag from [`StorageSystem::submit`].
    pub tag: u64,
    /// Target the request ran against.
    pub target: TargetId,
    /// Submission time.
    pub submitted: SimTime,
    /// Completion time of the last member-device part.
    pub finished: SimTime,
}

impl Completion {
    /// Response time (queueing + service across all parts).
    pub fn response(&self) -> SimTime {
        self.finished - self.submitted
    }
}

/// A queued member-device request and its parent's slot.
struct QueuedIo {
    io: DeviceIo,
    parent: usize,
}

/// A target-level request being assembled from device parts.
#[derive(Clone, Copy)]
struct ParentReq {
    tag: u64,
    target: TargetId,
    submitted: SimTime,
    remaining: u32,
    bytes: u64,
}

/// A device part in service: what `finish_part` reads when the part's
/// completion event fires. The event itself carries only the slot.
#[derive(Clone, Copy)]
struct InFlightPart {
    device: usize,
    parent: usize,
    len: u64,
    kind: IoKind,
}

/// A slab whose freed slots are reused before it grows, so steady-state
/// simulation allocates nothing. A freed slot keeps its stale value
/// until it is reused; callers never read a slot they have released.
struct Slab<T> {
    items: Vec<T>,
    free: Vec<usize>,
}

impl<T> Slab<T> {
    fn new() -> Self {
        Slab {
            items: Vec::new(),
            free: Vec::new(),
        }
    }

    fn insert(&mut self, item: T) -> usize {
        match self.free.pop() {
            Some(slot) => {
                self.items[slot] = item;
                slot
            }
            None => {
                self.items.push(item);
                self.items.len() - 1
            }
        }
    }

    fn release(&mut self, slot: usize) {
        self.free.push(slot);
    }
}

struct DeviceRuntime {
    model: Box<dyn DeviceModel>,
    /// `model.parallelism()`, read once when the device is built.
    parallelism: usize,
    rng: SimRng,
    scheduler: SchedulerKind,
    pending: Vec<QueuedIo>,
    in_flight: usize,
    stats: DeviceStats,
    /// Service-time multiplier for injected degradation; exactly 1.0
    /// (the default) leaves service times bit-identical.
    latency_factor: f64,
}

impl DeviceRuntime {
    fn record_occupancy(&mut self, now: SimTime) {
        self.stats
            .busy
            .set(now, self.in_flight as f64 / self.parallelism as f64);
    }
}

struct TargetRuntime {
    config: TargetConfig,
    /// Indices into the flat device list.
    devices: Vec<usize>,
    requests: u64,
    bytes: u64,
    response: wasla_simlib::OnlineStats,
}

/// A simulated storage system with `M` independent targets.
pub struct StorageSystem {
    targets: Vec<TargetRuntime>,
    devices: Vec<DeviceRuntime>,
    /// Device-completion events; the payload is an `in_flight` slot.
    queue: EventQueue<u32>,
    parents: Slab<ParentReq>,
    in_flight: Slab<InFlightPart>,
    /// Reused by `submit` for target-to-member translation.
    translate_buf: Vec<(usize, DeviceIo)>,
}

impl StorageSystem {
    /// Builds a storage system from target configurations. `seed`
    /// drives the deterministic per-device randomness (rotational
    /// position sampling).
    pub fn new(configs: Vec<TargetConfig>, seed: u64) -> Self {
        let mut root_rng = SimRng::new(seed ^ 0x57a5_1a5e);
        let mut devices = Vec::new();
        let mut targets = Vec::new();
        for config in configs {
            let mut dev_ids = Vec::with_capacity(config.members.len());
            for member in &config.members {
                dev_ids.push(devices.len());
                let model = member.build();
                devices.push(DeviceRuntime {
                    parallelism: model.parallelism(),
                    model,
                    rng: root_rng.fork(devices.len() as u64),
                    scheduler: config.scheduler,
                    pending: Vec::new(),
                    in_flight: 0,
                    stats: DeviceStats::default(),
                    latency_factor: 1.0,
                });
            }
            targets.push(TargetRuntime {
                config,
                devices: dev_ids,
                requests: 0,
                bytes: 0,
                response: wasla_simlib::OnlineStats::new(),
            });
        }
        StorageSystem {
            targets,
            devices,
            queue: EventQueue::new(),
            parents: Slab::new(),
            in_flight: Slab::new(),
            translate_buf: Vec::new(),
        }
    }

    /// Number of targets.
    pub fn target_count(&self) -> usize {
        self.targets.len()
    }

    /// Degrades every member device of `target`: all subsequent service
    /// times are multiplied by `factor`. Used by the fault-injection
    /// layer to model slow or effectively failed targets.
    pub fn degrade_target(&mut self, target: TargetId, factor: f64) {
        debug_assert!(factor >= 1.0, "degradation must not speed devices up");
        for &d in &self.targets[target].devices {
            self.devices[d].latency_factor = factor;
        }
    }

    /// The configuration of a target.
    pub fn target_config(&self, target: TargetId) -> &TargetConfig {
        &self.targets[target].config
    }

    /// Capacities of all targets in bytes.
    pub fn capacities(&self) -> Vec<u64> {
        self.targets.iter().map(|t| t.config.capacity()).collect()
    }

    // hot-closure-begin: submit, start and finish device parts
    /// Submits a request against `target` at time `now`, to complete
    /// asynchronously. `tag` is returned in the [`Completion`].
    pub fn submit(&mut self, now: SimTime, target: TargetId, io: TargetIo, tag: u64) {
        debug_assert!(io.len > 0, "zero-length I/O");
        debug_assert!(
            io.end() <= self.targets[target].config.capacity(),
            "I/O past end of target {target}: end {} > capacity {}",
            io.end(),
            self.targets[target].config.capacity()
        );
        self.translate_buf.clear();
        self.targets[target]
            .config
            .translate(&io, &mut self.translate_buf);
        let parent = self.parents.insert(ParentReq {
            tag,
            target,
            submitted: now,
            remaining: self.translate_buf.len() as u32,
            bytes: io.len,
        });
        for i in 0..self.translate_buf.len() {
            let (member, dev_io) = self.translate_buf[i];
            let dev_idx = self.targets[target].devices[member];
            let dev = &mut self.devices[dev_idx];
            dev.pending.push(QueuedIo { io: dev_io, parent });
            dev.record_occupancy(now);
            self.try_start(dev_idx, now);
        }
    }

    /// Starts as many pending requests on `dev_idx` as its parallelism
    /// allows.
    fn try_start(&mut self, dev_idx: usize, now: SimTime) {
        let dev = &mut self.devices[dev_idx];
        while dev.in_flight < dev.parallelism && !dev.pending.is_empty() {
            let head = dev.model.head_position();
            let pick = dev
                .scheduler
                .pick_from(dev.pending.iter().map(|q| q.io.offset), head);
            let q = dev.pending.remove(pick);
            let service = dev.model.service_time(&q.io, &mut dev.rng);
            let service = if dev.latency_factor != 1.0 {
                SimTime::from_secs(service.as_secs() * dev.latency_factor)
            } else {
                service
            };
            dev.in_flight += 1;
            dev.record_occupancy(now);
            let slot = self.in_flight.insert(InFlightPart {
                device: dev_idx,
                parent: q.parent,
                len: q.io.len,
                kind: q.io.kind,
            });
            self.queue.schedule_at(now + service, slot as u32);
        }
    }

    /// Retires the part in in-flight `slot` at `now`, starts what its
    /// device can take next, and appends the parent's [`Completion`]
    /// to `out` once its last part lands.
    fn finish_part(&mut self, now: SimTime, slot: u32, out: &mut Vec<Completion>) {
        let part = self.in_flight.items[slot as usize];
        self.in_flight.release(slot as usize);
        let dev = &mut self.devices[part.device];
        dev.in_flight -= 1;
        match part.kind {
            IoKind::Read => {
                dev.stats.reads += 1;
                dev.stats.bytes_read += part.len;
            }
            IoKind::Write => {
                dev.stats.writes += 1;
                dev.stats.bytes_written += part.len;
            }
        }
        dev.record_occupancy(now);
        self.try_start(part.device, now);

        let parent = &mut self.parents.items[part.parent];
        parent.remaining -= 1;
        if parent.remaining > 0 {
            return;
        }
        let parent = *parent;
        self.parents.release(part.parent);
        let target = &mut self.targets[parent.target];
        target.requests += 1;
        target.bytes += parent.bytes;
        target.response.record((now - parent.submitted).as_secs());
        out.push(Completion {
            tag: parent.tag,
            target: parent.target,
            submitted: parent.submitted,
            finished: now,
        });
    }

    /// Processes internal events up to and including time `until`,
    /// appending the completions they produce to `out` (which the
    /// caller clears and reuses).
    pub fn advance_until(&mut self, until: SimTime, out: &mut Vec<Completion>) {
        while let Some((now, slot)) = self.queue.pop_until(until) {
            self.finish_part(now, slot, out);
        }
    }
    // hot-closure-end

    /// The time of the next internal event, if any work is in flight.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// True if no requests are queued or in flight anywhere.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
            && self
                .devices
                .iter()
                .all(|d| d.pending.is_empty() && d.in_flight == 0)
    }

    /// Runs until all submitted work completes; returns the final time
    /// (or `from` if already idle) plus all completions.
    pub fn drain(&mut self, from: SimTime) -> (SimTime, Vec<Completion>) {
        let mut out = Vec::new();
        let mut last = from;
        while let Some((now, slot)) = self.queue.pop_until(SimTime::FAR_FUTURE) {
            self.finish_part(now, slot, &mut out);
            last = now;
        }
        (last, out)
    }

    /// Per-device statistics, flattened in target order.
    pub fn device_stats(&self) -> Vec<&DeviceStats> {
        self.devices.iter().map(|d| &d.stats).collect()
    }

    /// Aggregated per-target statistics at time `now`.
    pub fn target_stats(&self, now: SimTime) -> Vec<TargetStats> {
        self.targets
            .iter()
            .map(|t| {
                let utils: Vec<f64> = t
                    .devices
                    .iter()
                    .map(|&d| self.devices[d].stats.utilization(now))
                    .collect();
                let max = utils.iter().cloned().fold(0.0, f64::max);
                let mean = if utils.is_empty() {
                    0.0
                } else {
                    utils.iter().sum::<f64>() / utils.len() as f64
                };
                TargetStats {
                    name: t.config.name.clone(),
                    requests: t.requests,
                    bytes: t.bytes,
                    response: t.response.clone(),
                    max_member_utilization: max,
                    mean_member_utilization: mean,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceSpec;
    use crate::disk::DiskParams;
    use crate::{GIB, KIB};

    fn one_disk_system() -> StorageSystem {
        StorageSystem::new(
            vec![TargetConfig::single(
                "d0",
                DeviceSpec::Disk(DiskParams::scsi_15k(18 * GIB)),
            )],
            1,
        )
    }

    #[test]
    fn single_request_completes() {
        let mut sys = one_disk_system();
        sys.submit(SimTime::ZERO, 0, TargetIo::read(0, 8192, 0), 42);
        assert!(!sys.is_idle());
        let (end, comps) = sys.drain(SimTime::ZERO);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].tag, 42);
        assert_eq!(comps[0].target, 0);
        assert!(end > SimTime::ZERO);
        assert!(comps[0].response() > SimTime::ZERO);
        assert!(sys.is_idle());
    }

    #[test]
    fn queued_requests_all_complete_and_serialize() {
        let mut sys = one_disk_system();
        for i in 0..10u64 {
            sys.submit(SimTime::ZERO, 0, TargetIo::read(i * GIB / 2, 8192, 0), i);
        }
        let (_, comps) = sys.drain(SimTime::ZERO);
        assert_eq!(comps.len(), 10);
        let mut tags: Vec<u64> = comps.iter().map(|c| c.tag).collect();
        tags.sort_unstable();
        assert_eq!(tags, (0..10).collect::<Vec<_>>());
        // A single disk serves one at a time: completions strictly ordered.
        for w in comps.windows(2) {
            assert!(w[0].finished <= w[1].finished);
        }
        assert_eq!(sys.device_stats()[0].requests(), 10);
    }

    #[test]
    fn advance_until_respects_time_bound() {
        let mut sys = one_disk_system();
        for i in 0..5u64 {
            sys.submit(SimTime::ZERO, 0, TargetIo::read(i * GIB, 8192, 0), i);
        }
        let mut early = Vec::new();
        sys.advance_until(SimTime::from_micros(1.0), &mut early);
        assert!(early.len() < 5);
        let (_, rest) = sys.drain(SimTime::ZERO);
        assert_eq!(early.len() + rest.len(), 5);
    }

    #[test]
    fn raid0_splits_and_reassembles() {
        let unit = 64 * KIB;
        let mut sys = StorageSystem::new(
            vec![TargetConfig::raid0(
                "r2",
                vec![DeviceSpec::Disk(DiskParams::scsi_15k(18 * GIB)); 2],
                unit,
            )],
            7,
        );
        // Request spanning 4 stripes: 2 parts per member device.
        sys.submit(SimTime::ZERO, 0, TargetIo::read(0, 4 * unit, 0), 1);
        let (_, comps) = sys.drain(SimTime::ZERO);
        assert_eq!(comps.len(), 1);
        let stats = sys.device_stats();
        assert_eq!(stats[0].requests(), 2);
        assert_eq!(stats[1].requests(), 2);
    }

    #[test]
    fn raid0_parallelism_beats_single_disk_for_large_reads() {
        let big = 8 * 1024 * KIB;
        let mut single = one_disk_system();
        single.submit(SimTime::ZERO, 0, TargetIo::read(0, big, 0), 0);
        let (t_single, _) = single.drain(SimTime::ZERO);

        let mut raid = StorageSystem::new(
            vec![TargetConfig::raid0(
                "r4",
                vec![DeviceSpec::Disk(DiskParams::scsi_15k(18 * GIB)); 4],
                256 * KIB,
            )],
            1,
        );
        raid.submit(SimTime::ZERO, 0, TargetIo::read(0, big, 0), 0);
        let (t_raid, _) = raid.drain(SimTime::ZERO);
        assert!(
            t_raid.as_secs() < 0.6 * t_single.as_secs(),
            "raid {t_raid:?} single {t_single:?}"
        );
    }

    #[test]
    fn target_stats_report_utilization() {
        let mut sys = one_disk_system();
        for i in 0..20u64 {
            sys.submit(SimTime::ZERO, 0, TargetIo::read(i * 128 * KIB, 8192, 0), i);
        }
        let (end, _) = sys.drain(SimTime::ZERO);
        let stats = sys.target_stats(end);
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].requests, 20);
        // Device was saturated the whole run.
        assert!(stats[0].max_member_utilization > 0.95);
    }

    #[test]
    fn writes_tracked_separately() {
        let mut sys = one_disk_system();
        sys.submit(SimTime::ZERO, 0, TargetIo::write(0, 4096, 0), 0);
        sys.submit(SimTime::ZERO, 0, TargetIo::read(GIB, 4096, 0), 1);
        let (_, comps) = sys.drain(SimTime::ZERO);
        assert_eq!(comps.len(), 2);
        let s = sys.device_stats()[0];
        assert_eq!(s.reads, 1);
        assert_eq!(s.writes, 1);
        assert_eq!(s.bytes_read, 4096);
        assert_eq!(s.bytes_written, 4096);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut sys = one_disk_system();
            for i in 0..50u64 {
                sys.submit(
                    SimTime::ZERO,
                    0,
                    TargetIo::read((i * 7_919_999_983) % (17 * GIB), 8192, 0),
                    i,
                );
            }
            sys.drain(SimTime::ZERO).0
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn degraded_target_scales_service_time() {
        let elapsed = |factor: Option<f64>| {
            let mut sys = one_disk_system();
            if let Some(f) = factor {
                sys.degrade_target(0, f);
            }
            for i in 0..10u64 {
                sys.submit(SimTime::ZERO, 0, TargetIo::read(i * GIB, 8192, 0), i);
            }
            sys.drain(SimTime::ZERO).0
        };
        let healthy = elapsed(None);
        // Factor 1.0 is the identity, bit for bit.
        assert_eq!(elapsed(Some(1.0)), healthy);
        let slow = elapsed(Some(4.0));
        let ratio = slow.as_secs() / healthy.as_secs();
        assert!((3.9..=4.1).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn parent_slab_reuse() {
        let mut sys = one_disk_system();
        let mut now = SimTime::ZERO;
        for round in 0..3 {
            for i in 0..5u64 {
                sys.submit(now, 0, TargetIo::read(i * GIB, 8192, 0), i);
            }
            let (end, comps) = sys.drain(now);
            assert_eq!(comps.len(), 5, "round {round}");
            now = end;
        }
        // Slabs should not have grown past the max concurrent parents,
        // nor past the one part a single disk serves at a time.
        assert!(sys.parents.items.len() <= 5);
        assert_eq!(sys.in_flight.items.len(), 1);
    }
}
