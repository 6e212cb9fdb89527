//! Property tests for the storage substrate.

use wasla_simlib::proptest::prelude::*;
use wasla_storage::{DeviceSpec, DiskParams, SchedulerKind, TargetConfig, TargetIo, GIB};

fn disk() -> DeviceSpec {
    DeviceSpec::Disk(DiskParams::scsi_15k(64 * GIB))
}

proptest! {
    /// RAID-0 translation partitions a request exactly: the member
    /// pieces cover every byte once, in order, with no overlap, and
    /// consecutive pieces alternate members.
    #[test]
    fn raid0_translation_partitions(
        width in 1usize..8,
        stripe_kib in 1u64..1024,
        offset in 0u64..1_000_000_000,
        len in 1u64..10_000_000,
    ) {
        let stripe = stripe_kib * 1024;
        let config = TargetConfig::raid0("r", vec![disk(); width], stripe);
        let io = TargetIo::read(offset, len, 3);
        let mut parts = Vec::new();
        config.translate(&io, &mut parts);
        // Total bytes preserved.
        let total: u64 = parts.iter().map(|(_, p)| p.len).sum();
        prop_assert_eq!(total, len);
        for (member, p) in &parts {
            prop_assert!(*member < width);
            prop_assert_eq!(p.stream, 3);
        }
        if width == 1 {
            // Single-member targets pass requests through unsplit.
            prop_assert_eq!(parts.len(), 1);
            prop_assert_eq!(parts[0].1.offset, offset);
        } else {
            // Each piece stays within one stripe unit; walking the
            // pieces in order advances the logical offset contiguously
            // through the round-robin mapping.
            let mut logical = offset;
            for (member, p) in &parts {
                prop_assert!(p.len <= stripe);
                let s = logical / stripe;
                prop_assert_eq!(*member, (s % width as u64) as usize);
                let within = logical % stripe;
                prop_assert_eq!(p.offset, (s / width as u64) * stripe + within);
                logical += p.len;
            }
        }
    }

    /// All schedulers return an index into the pending list.
    #[test]
    fn schedulers_pick_valid_indices(
        offsets in proptest::collection::vec(0u64..1_000_000_000, 1..50),
        head in 0u64..1_000_000_000,
    ) {
        for kind in [SchedulerKind::Fcfs, SchedulerKind::Sstf, SchedulerKind::Elevator] {
            let pick = kind.pick_from(offsets.iter().copied(), head);
            prop_assert!(pick < offsets.len());
        }
    }

    /// SSTF picks a request at minimal distance from the head.
    #[test]
    fn sstf_is_greedy_nearest(
        offsets in proptest::collection::vec(0u64..1_000_000_000, 1..50),
        head in 0u64..1_000_000_000,
    ) {
        let pick = SchedulerKind::Sstf.pick_from(offsets.iter().copied(), head);
        let best = offsets.iter().map(|o| o.abs_diff(head)).min().expect("non-empty");
        prop_assert_eq!(offsets[pick].abs_diff(head), best);
    }

    /// Elevator never picks a backward request when a forward one
    /// exists.
    #[test]
    fn elevator_prefers_forward(
        offsets in proptest::collection::vec(0u64..1_000_000_000, 1..50),
        head in 0u64..1_000_000_000,
    ) {
        let pick = SchedulerKind::Elevator.pick_from(offsets.iter().copied(), head);
        let any_forward = offsets.iter().any(|&o| o >= head);
        if any_forward {
            prop_assert!(offsets[pick] >= head);
        }
    }

    /// Device service times are positive and finite for arbitrary
    /// request sequences, and the simulated clock only moves forward.
    #[test]
    fn storage_system_time_is_monotone(
        reqs in proptest::collection::vec((0u64..60, 1u64..512, any::<bool>()), 1..60),
    ) {
        use wasla_simlib::SimTime;
        use wasla_storage::StorageSystem;
        let mut sys = StorageSystem::new(
            vec![TargetConfig::single("d0", disk())],
            9,
        );
        for (i, &(off_gib_frac, len_kib, is_write)) in reqs.iter().enumerate() {
            let offset = off_gib_frac * GIB;
            let len = len_kib * 1024;
            let io = if is_write {
                TargetIo::write(offset, len, 0)
            } else {
                TargetIo::read(offset, len, 0)
            };
            sys.submit(SimTime::ZERO, 0, io, i as u64);
        }
        let (end, comps) = sys.drain(SimTime::ZERO);
        prop_assert_eq!(comps.len(), reqs.len());
        prop_assert!(end > SimTime::ZERO);
        let mut last = SimTime::ZERO;
        for c in &comps {
            prop_assert!(c.finished >= c.submitted);
            prop_assert!(c.finished >= last);
            last = c.finished;
        }
    }
}
