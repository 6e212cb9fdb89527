//! Open-loop workload driver for model validation.
//!
//! The closed-loop [`wasla::exec::Engine`] reproduces database behaviour; for
//! *validating the cost models* we also need an open-loop driver: issue
//! requests against a single target at a fixed rate with Poisson
//! arrivals, exactly as the utilization law `µ = λ · Cost` (paper
//! Eq. 1) assumes, and measure the target's actual busy fraction. The
//! `validate-eq1` experiment uses this to check that
//! `CostModel::request_cost` predictions line up with simulated reality
//! under controlled conditions.

use wasla::simlib::{SimRng, SimTime};
use wasla::storage::{StorageSystem, TargetIo};
use wasla::workload::WorkloadSpec;

/// One synthetic open-loop stream: a Rome workload description realized
/// as a request generator against a byte range of a target.
#[derive(Clone, Debug)]
pub struct OpenStream {
    /// The workload description to realize (rates, sizes, run count).
    pub spec: WorkloadSpec,
    /// Target to drive.
    pub target: usize,
    /// Byte range ```[start, start + span)``` the stream walks within.
    pub start: u64,
    /// Range length in bytes.
    pub span: u64,
    /// Stream id (for traces/diagnostics).
    pub stream: u32,
}

/// Result of an open-loop run.
#[derive(Clone, Debug)]
pub struct OpenLoopReport {
    /// Requested duration (simulated seconds).
    pub duration: f64,
    /// Requests issued per stream.
    pub issued: Vec<u64>,
    /// Requests completed per stream.
    pub completed: Vec<u64>,
    /// Per-target utilization over the run (busiest member device).
    pub target_utilization: Vec<f64>,
    /// Mean response time per stream (seconds).
    pub mean_response: Vec<f64>,
}

/// Per-stream generator state.
struct StreamState {
    next_arrival: f64,
    run_left: u64,
    next_offset: u64,
    issued: u64,
    completed: u64,
    response_sum: f64,
}

/// Drives the streams open-loop for `duration` simulated seconds and
/// reports measured utilizations.
///
/// Arrivals are Poisson at each stream's total rate; each arrival is a
/// read or write by the spec's rate mix; sequential runs follow the
/// spec's run count (geometrically distributed lengths), jumping to a
/// uniformly random position between runs.
pub fn run_open_loop(
    storage: &mut StorageSystem,
    streams: &[OpenStream],
    duration: f64,
    seed: u64,
) -> OpenLoopReport {
    assert!(!streams.is_empty());
    let mut rng = SimRng::new(seed);
    let mut states: Vec<StreamState> = streams
        .iter()
        .map(|s| {
            let rate = s.spec.total_rate();
            assert!(rate > 0.0, "open-loop stream needs a positive rate");
            StreamState {
                next_arrival: rng.exponential(rate),
                run_left: 0,
                next_offset: s.start,
                issued: 0,
                completed: 0,
                response_sum: 0.0,
            }
        })
        .collect();

    let mut completions = Vec::new();
    loop {
        // Next arrival across streams.
        let (idx, t_arrival) = states
            .iter()
            .enumerate()
            .map(|(i, st)| (i, st.next_arrival))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite times"))
            .expect("streams non-empty");
        // Drain storage completions up to the arrival (or stop).
        let t_next = t_arrival.min(duration);
        completions.clear();
        storage.advance_until(SimTime::from_secs(t_next), &mut completions);
        for c in &completions {
            let s = c.tag as usize;
            states[s].completed += 1;
            states[s].response_sum += c.response().as_secs();
        }
        if t_arrival > duration {
            break;
        }
        // Issue the arrival.
        let stream = &streams[idx];
        let spec = &stream.spec;
        let state = &mut states[idx];
        let is_read = rng.uniform() * spec.total_rate() < spec.read_rate;
        let len = if is_read {
            spec.read_size
        } else {
            spec.write_size
        }
        .max(512.0) as u64;
        if state.run_left == 0 {
            state.run_left = rng.geometric_mean(spec.run_count);
            let slots = (stream.span / len).max(1);
            state.next_offset = stream.start + rng.below(slots) * len;
        }
        let offset = state
            .next_offset
            .min(stream.start + stream.span.saturating_sub(len));
        state.next_offset = offset + len;
        if state.next_offset + len > stream.start + stream.span {
            state.run_left = 0;
        } else {
            state.run_left -= 1;
        }
        let io = if is_read {
            TargetIo::read(offset, len, stream.stream)
        } else {
            TargetIo::write(offset, len, stream.stream)
        };
        storage.submit(SimTime::from_secs(t_arrival), stream.target, io, idx as u64);
        state.issued += 1;
        state.next_arrival = t_arrival + rng.exponential(spec.total_rate());
    }
    // Let in-flight work finish (it still counts toward busy time, but
    // utilization is measured over the nominal duration).
    completions.clear();
    storage.advance_until(SimTime::FAR_FUTURE, &mut completions);
    for c in &completions {
        let s = c.tag as usize;
        states[s].completed += 1;
        states[s].response_sum += c.response().as_secs();
    }

    let end = SimTime::from_secs(duration);
    let target_utilization = storage
        .target_stats(end)
        .iter()
        .map(|t| t.max_member_utilization)
        .collect();
    OpenLoopReport {
        duration,
        issued: states.iter().map(|s| s.issued).collect(),
        completed: states.iter().map(|s| s.completed).collect(),
        target_utilization,
        mean_response: states
            .iter()
            .map(|s| {
                if s.completed == 0 {
                    0.0
                } else {
                    s.response_sum / s.completed as f64
                }
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wasla::storage::{DeviceSpec, DiskParams, TargetConfig, GIB};

    fn one_disk() -> StorageSystem {
        StorageSystem::new(
            vec![TargetConfig::single(
                "d0",
                DeviceSpec::Disk(DiskParams::scsi_15k(18 * GIB)),
            )],
            3,
        )
    }

    fn spec(rate: f64, run: f64, size: f64) -> WorkloadSpec {
        WorkloadSpec {
            read_size: size,
            write_size: size,
            read_rate: rate,
            write_rate: 0.0,
            run_count: run,
            overlaps: vec![],
        }
    }

    #[test]
    fn issues_at_the_requested_rate() {
        let mut storage = one_disk();
        let streams = [OpenStream {
            spec: spec(50.0, 1.0, 8192.0),
            target: 0,
            start: 0,
            span: 16 * GIB,
            stream: 0,
        }];
        let report = run_open_loop(&mut storage, &streams, 100.0, 7);
        let rate = report.issued[0] as f64 / report.duration;
        assert!((rate - 50.0).abs() < 5.0, "measured rate {rate}");
        assert_eq!(report.issued[0], report.completed[0]);
    }

    #[test]
    fn utilization_scales_with_rate() {
        let measure = |rate: f64| {
            let mut storage = one_disk();
            let streams = [OpenStream {
                spec: spec(rate, 1.0, 8192.0),
                target: 0,
                start: 0,
                span: 16 * GIB,
                stream: 0,
            }];
            run_open_loop(&mut storage, &streams, 200.0, 7).target_utilization[0]
        };
        let low = measure(20.0);
        let high = measure(60.0);
        assert!(high > 2.0 * low, "low {low} high {high}");
        // Random 8 KiB at ~5 ms a piece: 20 req/s ≈ 10% busy.
        assert!((0.05..0.25).contains(&low), "low {low}");
    }

    #[test]
    fn sequential_streams_cost_less() {
        let measure = |run: f64| {
            let mut storage = one_disk();
            let streams = [OpenStream {
                spec: spec(100.0, run, 131072.0),
                target: 0,
                start: 0,
                span: 16 * GIB,
                stream: 0,
            }];
            run_open_loop(&mut storage, &streams, 100.0, 7).target_utilization[0]
        };
        let random = measure(1.0);
        let sequential = measure(256.0);
        assert!(sequential < 0.7 * random, "seq {sequential} rand {random}");
    }

    #[test]
    fn two_streams_share_a_target() {
        let mut storage = one_disk();
        let streams = [
            OpenStream {
                spec: spec(30.0, 64.0, 131072.0),
                target: 0,
                start: 0,
                span: 4 * GIB,
                stream: 0,
            },
            OpenStream {
                spec: spec(30.0, 1.0, 8192.0),
                target: 0,
                start: 8 * GIB,
                span: 4 * GIB,
                stream: 1,
            },
        ];
        let report = run_open_loop(&mut storage, &streams, 100.0, 9);
        assert!(report.completed[0] > 1000);
        assert!(report.completed[1] > 1000);
        assert!(report.target_utilization[0] > 0.2);
        assert!(report.mean_response[0] > 0.0);
    }
}
