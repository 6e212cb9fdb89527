//! Property tests for the simulation kernel.

use wasla_simlib::par;
use wasla_simlib::proptest::prelude::*;
use wasla_simlib::{EventQueue, SimRng, SimTime};

proptest! {
    /// `par_map` is the identity refactor: same results, same order as
    /// the serial map, at every pool width (including widths larger
    /// than the input and the empty input).
    #[test]
    fn par_map_equals_serial_map(
        items in proptest::collection::vec(any::<u64>(), 0..120),
        threads in 1usize..12,
    ) {
        let serial: Vec<u64> = items
            .iter()
            .map(|&x| x.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (x >> 7))
            .collect();
        let parallel = par::par_map_with(threads, &items, |&x| {
            x.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (x >> 7)
        });
        prop_assert_eq!(parallel, serial);
    }

    /// Tasks that derive their RNG from `task_seed` produce identical
    /// streams no matter how the pool schedules them.
    #[test]
    fn par_map_task_seeds_are_schedule_independent(
        base in any::<u64>(),
        n in 0usize..60,
        threads in 1usize..9,
    ) {
        let indices: Vec<u64> = (0..n as u64).collect();
        let draw = |&i: &u64| SimRng::new(par::task_seed(base, i)).next_u64();
        let serial: Vec<u64> = indices.iter().map(draw).collect();
        let parallel = par::par_map_with(threads, &indices, draw);
        prop_assert_eq!(parallel, serial);
    }

    /// A panicking task panics the caller at every pool width, and the
    /// smallest-index payload is the one propagated.
    #[test]
    fn par_map_propagates_panics(
        n in 1usize..50,
        bad in 0usize..50,
        threads in 1usize..9,
    ) {
        prop_assume!(bad < n);
        let items: Vec<usize> = (0..n).collect();
        let caught = std::panic::catch_unwind(|| {
            par::par_map_with(threads, &items, |&i| {
                if i >= bad {
                    panic!("task {i} failed");
                }
                i
            })
        });
        let payload = caught.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<String>().cloned().unwrap_or_default();
        prop_assert!(msg.starts_with("task "), "payload {:?}", msg);
        // Workers race past `bad`, but no propagated index can precede
        // it, and under one thread it is exactly the serial panic.
        let idx: usize = msg["task ".len()..msg.len() - " failed".len()]
            .parse()
            .unwrap();
        prop_assert!(idx >= bad);
        if threads == 1 {
            prop_assert_eq!(idx, bad);
        }
    }

    /// Events always pop in non-decreasing time order, regardless of
    /// the schedule order.
    #[test]
    fn event_queue_pops_sorted(times in proptest::collection::vec(0.0f64..1e6, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(SimTime::from_secs(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut popped = 0;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= last);
            last = t;
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
    }

    /// Same-time events preserve insertion order (FIFO tie-break).
    #[test]
    fn event_queue_fifo_at_equal_times(n in 1usize..100, t in 0.0f64..1e3) {
        let mut q = EventQueue::new();
        for i in 0..n {
            q.schedule_at(SimTime::from_secs(t), i);
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        prop_assert_eq!(order, (0..n).collect::<Vec<_>>());
    }

    /// `pop_until` is `pop` cut at a bound. Draining through a rising
    /// sequence of bounds, with follow-up events scheduled as events
    /// pop (the way a simulator schedules completions), yields exactly
    /// the order plain `pop` does — time order, FIFO at equal times —
    /// never yields an event past its bound, and stops only when the
    /// next event lies past it. Integer times make ties common.
    #[test]
    fn event_queue_pop_until_matches_pop(
        times in proptest::collection::vec(0u32..20, 1..100),
        delays in proptest::collection::vec(0u32..4, 0..100),
        steps in proptest::collection::vec(0u32..6, 1..30),
    ) {
        let secs = |t: u32| SimTime::from_secs(t as f64);
        let follow_up = |q: &mut EventQueue<usize>, now: SimTime, id: usize| {
            if let Some(&d) = delays.get(id) {
                q.schedule_at(now + secs(d), times.len() + id);
            }
        };
        let mut plain = EventQueue::new();
        let mut bounded = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            plain.schedule_at(secs(t), i);
            bounded.schedule_at(secs(t), i);
        }
        let mut want = Vec::new();
        while let Some((t, id)) = plain.pop() {
            want.push((t, id));
            follow_up(&mut plain, t, id);
        }
        let mut got = Vec::new();
        let mut bound = 0u32;
        for &step in &steps {
            bound += step;
            while let Some((t, id)) = bounded.pop_until(secs(bound)) {
                prop_assert!(t <= secs(bound));
                got.push((t, id));
                follow_up(&mut bounded, t, id);
            }
            prop_assert!(bounded.peek_time().map_or(true, |t| t > secs(bound)));
        }
        while let Some((t, id)) = bounded.pop_until(SimTime::FAR_FUTURE) {
            got.push((t, id));
            follow_up(&mut bounded, t, id);
        }
        prop_assert!(bounded.is_empty());
        prop_assert!(got.windows(2).all(|w| w[0].0 <= w[1].0));
        prop_assert_eq!(got, want);
    }

    /// `below(n)` is always within range and `uniform` within [0, 1).
    #[test]
    fn rng_bounds(seed in any::<u64>(), n in 1u64..1_000_000) {
        let mut rng = SimRng::new(seed);
        for _ in 0..100 {
            prop_assert!(rng.below(n) < n);
            let u = rng.uniform();
            prop_assert!((0.0..1.0).contains(&u));
        }
    }

    /// Exponential samples are non-negative and finite.
    #[test]
    fn exponential_non_negative(seed in any::<u64>(), rate in 0.001f64..1e4) {
        let mut rng = SimRng::new(seed);
        for _ in 0..50 {
            let x = rng.exponential(rate);
            prop_assert!(x.is_finite());
            prop_assert!(x >= 0.0);
        }
    }

    /// Shuffle is a permutation.
    #[test]
    fn shuffle_permutes(seed in any::<u64>(), n in 0usize..100) {
        let mut rng = SimRng::new(seed);
        let mut v: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..n).collect::<Vec<_>>());
    }
}
