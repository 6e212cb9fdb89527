//! Op-log replay driver.
//!
//! Re-executes a captured [`OpLog`] against a candidate layout: every
//! record is re-issued at its recorded issue time, translated through
//! the candidate [`Placement`] onto a fresh storage system, and the
//! observed completion behaviour is measured. Replaying the same log
//! against the baseline layout it was captured on and against an
//! advised layout turns the cost model's predictions into observable,
//! regressable numbers — the paper's predict-vs-observe validation
//! loop (§6), and the same replay-against-candidate-configurations
//! methodology as the provisioning follow-up work.
//!
//! The driver is open-loop by construction: the log fixes the arrival
//! schedule, so a better layout shows up as lower device utilization
//! and an earlier final completion, not as a different request
//! sequence.

use crate::placement::Placement;
use wasla_simlib::SimTime;
use wasla_storage::{StorageSystem, TargetIo};
use wasla_trace::oplog::OpLog;
use wasla_trace::FitError;

/// What one replay of a log against one layout observed.
#[derive(Clone, Debug)]
pub struct ReplayReport {
    /// Records issued.
    pub issued: u64,
    /// Records whose every storage part completed.
    pub completed: u64,
    /// Issue-time span of the log (seconds).
    pub log_span: f64,
    /// First issue to last completion (seconds).
    pub makespan: f64,
    /// Mean per-record response time (seconds).
    pub mean_response: f64,
    /// Per-target utilization over the replay (busiest member device).
    pub target_utilization: Vec<f64>,
}

/// Replays `log` against `placement` on `storage`.
///
/// `n_objects` bounds the stream ids the placement covers; a record
/// naming a stream outside it is the same typed error the fitting path
/// reports. The replay itself is deterministic: same log, same layout,
/// same report.
pub fn replay_oplog(
    log: &OpLog,
    placement: &Placement,
    storage: &mut StorageSystem,
    n_objects: usize,
) -> Result<ReplayReport, FitError> {
    let records = log.records();
    let first_issue = records.first().map_or(SimTime::ZERO, |r| r.issue);
    let mut open: Vec<u32> = vec![0; records.len()];
    let mut completed = 0u64;
    let mut response_sum = 0.0f64;
    let mut last_completion = first_issue;
    let mut last_issue = first_issue;
    let mut translate: Vec<(usize, u64, u64)> = Vec::new();

    let mut completions = Vec::new();

    let note = |c: &wasla_storage::Completion,
                open: &mut [u32],
                completed: &mut u64,
                response_sum: &mut f64,
                last_completion: &mut SimTime| {
        let rid = c.tag as usize;
        if let Some(o) = open.get_mut(rid) {
            if *o > 0 {
                *o -= 1;
                if *o == 0 {
                    *completed += 1;
                    *response_sum += (c.finished - records[rid].issue).as_secs();
                    *last_completion = (*last_completion).max(c.finished);
                }
            }
        }
    };

    for (rid, rec) in records.iter().enumerate() {
        if rec.stream as usize >= n_objects {
            return Err(FitError::StreamOutOfRange {
                stream: rec.stream,
                objects: n_objects,
            });
        }
        completions.clear();
        storage.advance_until(rec.issue, &mut completions);
        for c in &completions {
            note(
                c,
                &mut open,
                &mut completed,
                &mut response_sum,
                &mut last_completion,
            );
        }
        translate.clear();
        placement.translate(rec.stream as usize, rec.offset, rec.len, &mut translate);
        open[rid] = translate.len() as u32;
        last_issue = rec.issue;
        for &(target, toff, tlen) in &translate {
            storage.submit(
                rec.issue,
                target,
                TargetIo {
                    kind: rec.kind,
                    offset: toff,
                    len: tlen,
                    stream: rec.stream,
                },
                rid as u64,
            );
        }
        if translate.is_empty() {
            completed += 1;
        }
    }
    completions.clear();
    storage.advance_until(SimTime::FAR_FUTURE, &mut completions);
    for c in &completions {
        note(
            c,
            &mut open,
            &mut completed,
            &mut response_sum,
            &mut last_completion,
        );
    }

    let end = last_completion.max(last_issue);
    let target_utilization = storage
        .target_stats(end.max(SimTime::from_secs(1e-9)))
        .iter()
        .map(|t| t.max_member_utilization)
        .collect();
    Ok(ReplayReport {
        issued: records.len() as u64,
        completed,
        log_span: log.span().as_secs(),
        makespan: (last_completion - first_issue).as_secs(),
        mean_response: if completed == 0 {
            0.0
        } else {
            response_sum / completed as f64
        },
        target_utilization,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::see_rows;
    use wasla_simlib::SimTime;
    use wasla_storage::{DeviceSpec, DiskParams, IoKind, TargetConfig, GIB};
    use wasla_trace::oplog::OpRecord;

    fn disks(m: usize) -> StorageSystem {
        StorageSystem::new(
            (0..m)
                .map(|j| {
                    TargetConfig::single(
                        format!("d{j}"),
                        DeviceSpec::Disk(DiskParams::scsi_15k(18 * GIB)),
                    )
                })
                .collect(),
            3,
        )
    }

    fn placement(n: usize, m: usize) -> Placement {
        Placement::build(
            &see_rows(n, m),
            &vec![4 * GIB; n],
            &vec![18 * GIB; m],
            256 * 1024,
        )
        .unwrap()
    }

    fn sample_log(n: u64) -> OpLog {
        let mut log = OpLog::new();
        for k in 0..n {
            log.push(OpRecord {
                kind: if k % 4 == 0 {
                    IoKind::Write
                } else {
                    IoKind::Read
                },
                stream: (k % 2) as u32,
                offset: (k * 12_345_678) % (2 * GIB),
                len: 65536,
                issue: SimTime::from_secs(k as f64 * 0.01),
                complete: SimTime::from_secs(k as f64 * 0.01 + 0.005),
            });
        }
        log
    }

    #[test]
    fn replay_completes_every_record() {
        let log = sample_log(200);
        let mut storage = disks(2);
        let report = replay_oplog(&log, &placement(2, 2), &mut storage, 2).unwrap();
        assert_eq!(report.issued, 200);
        assert_eq!(report.completed, 200);
        assert!(report.makespan >= report.log_span);
        assert!(report.mean_response > 0.0);
        assert_eq!(report.target_utilization.len(), 2);
        assert!(report.target_utilization.iter().all(|u| *u > 0.0));
    }

    #[test]
    fn replay_is_deterministic() {
        let log = sample_log(150);
        let run = || {
            let mut storage = disks(2);
            replay_oplog(&log, &placement(2, 2), &mut storage, 2).unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.target_utilization, b.target_utilization);
        assert_eq!(a.mean_response, b.mean_response);
    }

    #[test]
    fn more_spindles_lower_utilization() {
        let log = sample_log(300);
        let measure = |m: usize| {
            let mut storage = disks(m);
            let report = replay_oplog(&log, &placement(2, m), &mut storage, 2).unwrap();
            report
                .target_utilization
                .iter()
                .cloned()
                .fold(0.0f64, f64::max)
        };
        let narrow = measure(1);
        let wide = measure(4);
        assert!(wide < narrow, "wide {wide} narrow {narrow}");
    }

    #[test]
    fn out_of_range_stream_is_typed() {
        let mut log = OpLog::new();
        log.push(OpRecord {
            kind: IoKind::Read,
            stream: 9,
            offset: 0,
            len: 8192,
            issue: SimTime::ZERO,
            complete: SimTime::ZERO,
        });
        let mut storage = disks(1);
        let err = replay_oplog(&log, &placement(1, 1), &mut storage, 1).unwrap_err();
        assert_eq!(
            err,
            FitError::StreamOutOfRange {
                stream: 9,
                objects: 1
            }
        );
    }

    #[test]
    fn empty_log_replays_to_zeros() {
        let log = OpLog::new();
        let mut storage = disks(1);
        let report = replay_oplog(&log, &placement(1, 1), &mut storage, 1).unwrap();
        assert_eq!(report.issued, 0);
        assert_eq!(report.completed, 0);
        assert_eq!(report.makespan, 0.0);
        assert_eq!(report.mean_response, 0.0);
    }
}
