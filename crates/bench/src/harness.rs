//! A minimal wall-clock micro-benchmark harness.
//!
//! The four `harness = false` bench targets used to run on criterion;
//! this module provides the small slice of that API they need, built
//! on `std::time::Instant` only. Each sample times a calibrated number
//! of iterations and the suite reports the median over all samples,
//! which is robust to scheduler noise without criterion's statistical
//! machinery.
//!
//! Results are printed as a table and, unless disabled, written as
//! JSON to `results/BENCH_<suite>.json` so successive runs can be
//! diffed or tracked by tooling.
//!
//! Environment knobs:
//!
//! * `WASLA_BENCH_SAMPLES` — samples per benchmark (default 11).
//! * `WASLA_BENCH_TARGET_MS` — target wall time per sample (default
//!   100 ms); iteration counts are calibrated to hit this.
//! * `WASLA_BENCH_OUT` — output directory for the JSON report
//!   (default `results/` at the workspace root).
//! * `WASLA_BENCH_NO_OUT` — set to skip writing the JSON report.

use std::time::Instant;
use wasla::simlib::json::{Json, ToJson};

/// How many units of work one benchmark iteration processes; reported
/// as a rate alongside the timing.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Logical elements (requests, rows, ...) per iteration.
    Elements(u64),
    /// Bytes per iteration.
    Bytes(u64),
}

/// Batch sizing hint for [`Bencher::iter_batched`]. The wall-clock
/// harness times every routine call individually, so the hint only
/// exists for criterion API compatibility.
#[derive(Clone, Copy, Debug)]
pub enum BatchSize {
    /// Inputs are cheap to set up; batch freely.
    SmallInput,
    /// Inputs are expensive; keep batches small.
    LargeInput,
}

#[derive(Clone, Copy, Debug)]
struct Config {
    samples: u32,
    target_ms: f64,
}

impl Config {
    fn from_env() -> Self {
        let samples = std::env::var("WASLA_BENCH_SAMPLES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(11u32)
            .max(1);
        let target_ms = std::env::var("WASLA_BENCH_TARGET_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(100.0f64)
            .max(1.0);
        Config { samples, target_ms }
    }
}

/// One finished measurement.
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// Benchmark id ("group/case" for grouped benches).
    pub id: String,
    /// Per-iteration nanoseconds, one value per sample.
    pub samples_ns: Vec<f64>,
    /// Iterations timed per sample.
    pub iters_per_sample: u64,
    /// Optional units of work per iteration.
    pub throughput: Option<Throughput>,
    /// Named per-iteration work counters (e.g. the eval engine's
    /// `EvalStats` entries), reported alongside the timing.
    pub counters: Vec<(String, f64)>,
}

impl BenchResult {
    /// Median per-iteration time in nanoseconds.
    pub fn median_ns(&self) -> f64 {
        let mut s = self.samples_ns.clone();
        s.sort_by(f64::total_cmp);
        let n = s.len();
        if n == 0 {
            return 0.0;
        }
        if n % 2 == 1 {
            s[n / 2]
        } else {
            (s[n / 2 - 1] + s[n / 2]) / 2.0
        }
    }

    fn min_ns(&self) -> f64 {
        self.samples_ns
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min)
    }

    fn max_ns(&self) -> f64 {
        self.samples_ns.iter().cloned().fold(0.0, f64::max)
    }

    fn mean_ns(&self) -> f64 {
        if self.samples_ns.is_empty() {
            return 0.0;
        }
        self.samples_ns.iter().sum::<f64>() / self.samples_ns.len() as f64
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("id".to_string(), self.id.to_json()),
            ("median_ns".to_string(), self.median_ns().to_json()),
            ("mean_ns".to_string(), self.mean_ns().to_json()),
            ("min_ns".to_string(), self.min_ns().to_json()),
            ("max_ns".to_string(), self.max_ns().to_json()),
            (
                "samples".to_string(),
                (self.samples_ns.len() as u64).to_json(),
            ),
            (
                "iters_per_sample".to_string(),
                self.iters_per_sample.to_json(),
            ),
        ];
        if let Some(tp) = self.throughput {
            let (key, units) = match tp {
                Throughput::Elements(n) => ("elements_per_sec", n),
                Throughput::Bytes(n) => ("bytes_per_sec", n),
            };
            let per_sec = units as f64 / (self.median_ns() * 1e-9);
            fields.push((key.to_string(), per_sec.to_json()));
        }
        if !self.counters.is_empty() {
            fields.push((
                "counters".to_string(),
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), v.to_json()))
                        .collect(),
                ),
            ));
        }
        Json::Obj(fields)
    }
}

/// Runs timed closures and collects per-iteration samples.
pub struct Bencher<'a> {
    config: &'a Config,
    samples_ns: Vec<f64>,
    iters: u64,
    counters: Vec<(String, f64)>,
}

impl Bencher<'_> {
    /// Attaches a named per-iteration work counter to the result
    /// (e.g. cost-model lookups per gradient call). Typically recorded
    /// from one instrumented call before or after the timed loop.
    pub fn counter(&mut self, name: impl Into<String>, value: f64) {
        self.counters.push((name.into(), value));
    }

    /// Times `f` in a tight loop, calibrating the iteration count so
    /// each sample lasts roughly the target wall time.
    pub fn iter<R>(&mut self, mut f: impl FnMut() -> R) {
        let iters = self.calibrate(|| {
            std::hint::black_box(f());
        });
        for _ in 0..self.config.samples {
            let t0 = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            let ns = t0.elapsed().as_secs_f64() * 1e9;
            self.samples_ns.push(ns / iters as f64);
        }
        self.iters = iters;
    }

    /// Times `routine` on fresh inputs from `setup`; only the routine
    /// is on the clock.
    pub fn iter_batched<S, R>(
        &mut self,
        mut setup: impl FnMut() -> S,
        mut routine: impl FnMut(S) -> R,
        _size: BatchSize,
    ) {
        let iters = {
            let input = setup();
            self.calibrate_once(|| {
                std::hint::black_box(routine(input));
            })
        };
        for _ in 0..self.config.samples {
            let inputs: Vec<S> = (0..iters).map(|_| setup()).collect();
            let t0 = Instant::now();
            for input in inputs {
                std::hint::black_box(routine(input));
            }
            let ns = t0.elapsed().as_secs_f64() * 1e9;
            self.samples_ns.push(ns / iters as f64);
        }
        self.iters = iters;
    }

    /// Warmup + calibration for re-runnable closures: estimates the
    /// per-call cost and picks an iteration count near the target.
    fn calibrate(&self, mut f: impl FnMut()) -> u64 {
        let t0 = Instant::now();
        let mut calls = 0u64;
        loop {
            f();
            calls += 1;
            let elapsed = t0.elapsed().as_secs_f64();
            if elapsed > 0.02 || calls >= 1_000 {
                let per_call = elapsed / calls as f64;
                return self.iters_for(per_call);
            }
        }
    }

    /// Calibration from a single call, for consume-once closures.
    fn calibrate_once(&self, f: impl FnOnce()) -> u64 {
        let t0 = Instant::now();
        f();
        self.iters_for(t0.elapsed().as_secs_f64().max(1e-9))
    }

    fn iters_for(&self, per_call_s: f64) -> u64 {
        let target_s = self.config.target_ms * 1e-3;
        ((target_s / per_call_s).ceil() as u64).clamp(1, 100_000_000)
    }
}

/// The benchmark registry for one suite (one bench target).
pub struct Harness {
    suite: String,
    config: Config,
    results: Vec<BenchResult>,
}

impl Harness {
    /// Creates the harness for a named suite, reading configuration
    /// from the environment.
    pub fn new(suite: impl Into<String>) -> Self {
        Harness {
            suite: suite.into(),
            config: Config::from_env(),
            results: Vec::new(),
        }
    }

    /// Measures one benchmark.
    pub fn bench_function(&mut self, id: impl Into<String>, f: impl FnOnce(&mut Bencher)) {
        self.bench_with_throughput(id, None, f);
    }

    /// Opens a named group; cases inside report as `group/case`.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> Group<'_> {
        Group {
            harness: self,
            name: name.into(),
            throughput: None,
        }
    }

    fn bench_with_throughput(
        &mut self,
        id: impl Into<String>,
        throughput: Option<Throughput>,
        f: impl FnOnce(&mut Bencher),
    ) {
        let id = id.into();
        let mut bencher = Bencher {
            config: &self.config,
            samples_ns: Vec::new(),
            iters: 0,
            counters: Vec::new(),
        };
        f(&mut bencher);
        let result = BenchResult {
            id: id.clone(),
            samples_ns: bencher.samples_ns,
            iters_per_sample: bencher.iters,
            throughput,
            counters: bencher.counters,
        };
        println!(
            "{:48} {:>14} /iter  (median of {}, {} iters/sample)",
            result.id,
            format_ns(result.median_ns()),
            result.samples_ns.len(),
            result.iters_per_sample,
        );
        self.results.push(result);
    }

    /// Prints the summary and writes the JSON report.
    pub fn finish(self) {
        if self.results.is_empty() {
            return;
        }
        if std::env::var_os("WASLA_BENCH_NO_OUT").is_some() {
            return;
        }
        let dir = std::env::var("WASLA_BENCH_OUT")
            .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../results").to_string());
        let report = Json::Obj(vec![
            ("suite".to_string(), self.suite.to_json()),
            (
                "samples_per_bench".to_string(),
                self.config.samples.to_json(),
            ),
            ("target_ms".to_string(), self.config.target_ms.to_json()),
            ("host".to_string(), host_json()),
            (
                "benches".to_string(),
                Json::Arr(self.results.iter().map(|r| r.to_json()).collect()),
            ),
        ]);
        let path = format!("{dir}/BENCH_{}.json", self.suite);
        if std::fs::create_dir_all(&dir).is_ok()
            && std::fs::write(&path, report.to_string_pretty()).is_ok()
        {
            eprintln!("bench report written to {path}");
        } else {
            eprintln!("bench report could not be written to {path}");
        }
    }
}

/// The facts about the machine a report was measured on that move its
/// numbers: the cores the process may use, the OS and the architecture.
fn host_json() -> Json {
    let parallelism = wasla::simlib::par::available_parallelism();
    Json::Obj(vec![
        ("available_parallelism".to_string(), parallelism.to_json()),
        ("os".to_string(), std::env::consts::OS.to_string().to_json()),
        (
            "arch".to_string(),
            std::env::consts::ARCH.to_string().to_json(),
        ),
    ])
}

/// A group of related cases sharing a name prefix and throughput.
pub struct Group<'a> {
    harness: &'a mut Harness,
    name: String,
    throughput: Option<Throughput>,
}

impl Group<'_> {
    /// Declares the units of work per iteration for following cases.
    pub fn throughput(&mut self, tp: Throughput) {
        self.throughput = Some(tp);
    }

    /// Measures one case in the group.
    pub fn bench_function(&mut self, id: impl Into<String>, f: impl FnOnce(&mut Bencher)) {
        let full = format!("{}/{}", self.name, id.into());
        self.harness.bench_with_throughput(full, self.throughput, f);
    }

    /// Ends the group (kept for criterion API parity).
    pub fn finish(self) {}
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} us", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// Declares the `main` for a bench target: runs each registered
/// function against one [`Harness`] and writes the suite report.
#[macro_export]
macro_rules! bench_main {
    ($suite:literal, $($func:path),+ $(,)?) => {
        fn main() {
            let mut harness = $crate::harness::Harness::new($suite);
            $($func(&mut harness);)+
            harness.finish();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_config() -> Config {
        Config {
            samples: 5,
            target_ms: 1.0,
        }
    }

    #[test]
    fn median_of_samples() {
        let r = BenchResult {
            id: "x".into(),
            samples_ns: vec![5.0, 1.0, 3.0],
            iters_per_sample: 1,
            throughput: None,
            counters: vec![],
        };
        assert_eq!(r.median_ns(), 3.0);
        let even = BenchResult {
            id: "y".into(),
            samples_ns: vec![1.0, 2.0, 3.0, 10.0],
            iters_per_sample: 1,
            throughput: None,
            counters: vec![],
        };
        assert_eq!(even.median_ns(), 2.5);
    }

    #[test]
    fn bencher_iter_collects_samples() {
        let config = quiet_config();
        let mut b = Bencher {
            config: &config,
            samples_ns: Vec::new(),
            iters: 0,
            counters: Vec::new(),
        };
        let mut count = 0u64;
        b.iter(|| {
            count += 1;
            count
        });
        assert_eq!(b.samples_ns.len(), 5);
        assert!(b.iters >= 1);
        assert!(b.samples_ns.iter().all(|&ns| ns > 0.0));
    }

    #[test]
    fn bencher_iter_batched_runs_setup_per_iteration() {
        let config = quiet_config();
        let mut b = Bencher {
            config: &config,
            samples_ns: Vec::new(),
            iters: 0,
            counters: Vec::new(),
        };
        b.iter_batched(
            || vec![1u64, 2, 3],
            |v| v.into_iter().sum::<u64>(),
            BatchSize::SmallInput,
        );
        assert_eq!(b.samples_ns.len(), 5);
    }

    #[test]
    fn result_json_includes_throughput_rate() {
        let r = BenchResult {
            id: "g/x".into(),
            samples_ns: vec![1000.0],
            iters_per_sample: 10,
            throughput: Some(Throughput::Elements(100)),
            counters: vec![("cost_model_calls".to_string(), 42.0)],
        };
        let j = r.to_json();
        // 100 elements per 1000 ns = 1e8 per second.
        use wasla::simlib::json::FromJson;
        let rate = f64::from_json(j.field("elements_per_sec").unwrap()).unwrap();
        assert!((rate - 1e8).abs() / 1e8 < 1e-9);
    }

    #[test]
    fn format_ns_scales_units() {
        assert_eq!(format_ns(12.0), "12.0 ns");
        assert_eq!(format_ns(1500.0), "1.500 us");
        assert_eq!(format_ns(2.5e6), "2.500 ms");
        assert_eq!(format_ns(3.2e9), "3.200 s");
    }
}
