//! Fleet-scale stress benchmarks: synthetic tenant generation
//! throughput, the cost of one warm advise tick (with a small and a
//! 1,000-entry fit cache), and the price of an admission rejection.
//!
//! Two ratios are gated in `ci/bench_diff.sh`. Admission control must
//! stay nearly free (a shed request does no calibration, no trace run,
//! no solve), which is what makes load-shedding a defense rather than
//! another source of load. And a tick must not pay for the size of the
//! session it runs against: batch workers share cached values and
//! merge back only what they added, so 1,000 cached fits may cost a
//! tick little more than 8.

use std::hint::black_box;
use wasla::simlib::SimTime;
use wasla::storage::IoKind;
use wasla::stress::{self, StressOptions};
use wasla::trace::oplog::{OpLog, OpRecord};
use wasla::workload::synth::{self, SynthSpec};
use wasla::{AdviseRequest, BatchPolicy, Service};
use wasla_bench::harness::{Harness, Throughput};

const TICK: usize = 8;

fn tick_requests(spec: &SynthSpec) -> Vec<wasla::AdviseRequest> {
    let targets = stress::fleet(spec);
    (0..TICK as u64)
        .map(|i| stress::tenant_request(spec, &targets, i))
        .collect()
}

fn bench_generate(c: &mut Harness) {
    let spec = SynthSpec {
        tenants: 256,
        ..SynthSpec::default()
    };
    let mut group = c.benchmark_group("stress");
    group.throughput(Throughput::Elements(spec.tenants as u64));
    group.bench_function("generate_256", |b| {
        b.iter(|| black_box(synth::generate(black_box(&spec)).expect("valid spec")))
    });
    group.finish();
}

fn bench_served_tick(c: &mut Harness) {
    let opts = StressOptions::default();
    let requests = tick_requests(&opts.spec);
    let mut service = Service::new(opts.service_seed);
    // Warm the calibration and fit caches once; the steady-state tick
    // is the quantity a capacity planner budgets against.
    service.advise_batch_with(&requests, &opts.policy);
    let mut group = c.benchmark_group("stress");
    group.throughput(Throughput::Elements(TICK as u64));
    group.bench_function("tick_served_b8", |b| {
        b.iter(|| black_box(service.advise_batch_with(&requests, &opts.policy)))
    });
    group.finish();
}

/// Fills the service's fit cache with `count` distinct fits of
/// one-record logs over the first request's object inventory: cheap
/// to compute, as large per entry as a real tenant's fit.
fn prefill_fits(service: &mut Service, request: &AdviseRequest, count: u64) {
    let names = request.scenario.catalog.names();
    let sizes = request.scenario.catalog.sizes();
    for k in 0..count {
        let mut log = OpLog::new();
        log.push(OpRecord {
            kind: IoKind::Read,
            stream: 0,
            offset: k * 8192,
            len: 8192,
            issue: SimTime::ZERO,
            complete: SimTime::ZERO,
        });
        service
            .session_mut()
            .fit(
                &log,
                &names,
                &sizes,
                &request.config.fit,
                request.config.advisor.solver.objective,
            )
            .expect("one-record fit");
    }
}

fn bench_served_tick_warm1000(c: &mut Harness) {
    let opts = StressOptions::default();
    let requests = tick_requests(&opts.spec);
    let mut service = Service::new(opts.service_seed);
    prefill_fits(&mut service, &requests[0], 1000);
    // The same warm-up as `tick_served_b8`: the tick's own fits join
    // the 1,000 already cached.
    service.advise_batch_with(&requests, &opts.policy);
    assert_eq!(service.session().fits_cached(), 1000 + TICK);
    let mut group = c.benchmark_group("stress");
    group.throughput(Throughput::Elements(TICK as u64));
    group.bench_function("tick_served_b8_warm1000", |b| {
        b.iter(|| black_box(service.advise_batch_with(&requests, &opts.policy)))
    });
    group.finish();
}

fn bench_rejected_tick(c: &mut Harness) {
    let opts = StressOptions::default();
    let requests = tick_requests(&opts.spec);
    let policy = BatchPolicy {
        queue_capacity: Some(0),
        ..BatchPolicy::default()
    };
    let mut service = Service::new(opts.service_seed);
    let mut group = c.benchmark_group("stress");
    group.throughput(Throughput::Elements(TICK as u64));
    group.bench_function("tick_rejected_b8", |b| {
        b.iter(|| black_box(service.advise_batch_with(&requests, &policy)))
    });
    group.finish();
}

wasla_bench::bench_main!(
    "stress",
    bench_generate,
    bench_served_tick,
    bench_served_tick_warm1000,
    bench_rejected_tick
);
