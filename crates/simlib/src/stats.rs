//! Online statistics accumulators.

use crate::impl_json_struct;
use crate::json::{FromJson, Json, JsonError, ToJson};
use crate::time::SimTime;

/// Streaming mean/variance/min/max (Welford's algorithm).
#[derive(Clone, Debug, Default)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl OnlineStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    /// Adds one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 if fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum observation (None if empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Maximum observation (None if empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }
}

// Manual impl rather than `impl_json_struct!`: an empty accumulator
// holds `min = +inf` / `max = -inf`, which JSON can only write as
// `null`, so decoding restores the infinities instead of NaN.
impl ToJson for OnlineStats {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("count".to_string(), self.count.to_json()),
            ("mean".to_string(), self.mean.to_json()),
            ("m2".to_string(), self.m2.to_json()),
            ("min".to_string(), self.min.to_json()),
            ("max".to_string(), self.max.to_json()),
            ("sum".to_string(), self.sum.to_json()),
        ])
    }
}

impl FromJson for OnlineStats {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let get = |name: &str| v.field(name).ok_or_else(|| JsonError::missing_field(name));
        let bound = |name: &str, empty: f64| -> Result<f64, JsonError> {
            match get(name)? {
                Json::Null => Ok(empty),
                other => f64::from_json(other),
            }
        };
        Ok(OnlineStats {
            count: u64::from_json(get("count")?)?,
            mean: f64::from_json(get("mean")?)?,
            m2: f64::from_json(get("m2")?)?,
            min: bound("min", f64::INFINITY)?,
            max: bound("max", f64::NEG_INFINITY)?,
            sum: f64::from_json(get("sum")?)?,
        })
    }
}

/// Time-weighted average of a piecewise-constant signal, e.g. queue
/// depth or busy/idle state. Utilization is the time-weighted mean of a
/// 0/1 busy indicator.
#[derive(Clone, Debug)]
pub struct TimeWeighted {
    last_time: SimTime,
    last_value: f64,
    weighted_sum: f64,
    start: SimTime,
    started: bool,
}

impl Default for TimeWeighted {
    fn default() -> Self {
        Self::new()
    }
}

impl TimeWeighted {
    /// A fresh accumulator; the first `set` fixes the observation start.
    pub fn new() -> Self {
        TimeWeighted {
            last_time: SimTime::ZERO,
            last_value: 0.0,
            weighted_sum: 0.0,
            start: SimTime::ZERO,
            started: false,
        }
    }

    /// Records that the signal takes value `value` from time `now` on.
    pub fn set(&mut self, now: SimTime, value: f64) {
        if !self.started {
            self.started = true;
            self.start = now;
        } else {
            debug_assert!(now >= self.last_time);
            self.weighted_sum += self.last_value * (now - self.last_time).as_secs();
        }
        self.last_time = now;
        self.last_value = value;
    }

    /// The time-weighted mean over `[start, now]`.
    pub fn mean_until(&self, now: SimTime) -> f64 {
        if !self.started {
            return 0.0;
        }
        let span = (now - self.start).as_secs();
        if span <= 0.0 {
            return self.last_value;
        }
        let tail = self.last_value * (now - self.last_time).as_secs();
        (self.weighted_sum + tail) / span
    }

    /// Total accumulated value·time up to `now` (e.g. busy seconds).
    pub fn integral_until(&self, now: SimTime) -> f64 {
        if !self.started {
            return 0.0;
        }
        self.weighted_sum + self.last_value * (now - self.last_time).as_secs()
    }
}

impl_json_struct!(TimeWeighted {
    last_time,
    last_value,
    weighted_sum,
    start,
    started
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_basic() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
        assert!((s.sum() - 40.0).abs() < 1e-12);
    }

    #[test]
    fn online_stats_empty() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn online_stats_merge_matches_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = OnlineStats::new();
        for &x in &data {
            whole.record(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &data[..37] {
            a.record(x);
        }
        for &x in &data[37..] {
            b.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn time_weighted_utilization() {
        let mut tw = TimeWeighted::new();
        tw.set(SimTime::from_secs(0.0), 1.0); // busy
        tw.set(SimTime::from_secs(3.0), 0.0); // idle
        tw.set(SimTime::from_secs(4.0), 1.0); // busy
        let u = tw.mean_until(SimTime::from_secs(10.0));
        // busy 0-3 and 4-10 => 9 of 10 seconds
        assert!((u - 0.9).abs() < 1e-12);
        assert!((tw.integral_until(SimTime::from_secs(10.0)) - 9.0).abs() < 1e-12);
    }

    #[test]
    fn time_weighted_starts_at_first_set() {
        let mut tw = TimeWeighted::new();
        tw.set(SimTime::from_secs(5.0), 2.0);
        let m = tw.mean_until(SimTime::from_secs(7.0));
        assert!((m - 2.0).abs() < 1e-12);
        assert_eq!(TimeWeighted::new().mean_until(SimTime::from_secs(1.0)), 0.0);
    }
}
