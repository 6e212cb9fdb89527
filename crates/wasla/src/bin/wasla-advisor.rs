//! `wasla-advisor` — the standalone layout advisor the paper proposes
//! (§1: "could be implemented as a standalone database storage layout
//! advisor").
//!
//! ```text
//! wasla-advisor calibrate --device scsi15k --capacity-gb 18.4 --out disk.model.json
//! wasla-advisor fit --oplog oplog.tsv --objects objects.json [--out workloads.json]
//! wasla-advisor advise --workloads w.json --targets t.json [--models m.json,...]
//!                      [--objective minmax|provision-cost|wear-blend]
//!                      [--tier-spec tiers.json]
//!                      [--regular] [--pin OBJ=TARGET]... [--forbid OBJ=TARGET]...
//!                      [--out layout.json]
//! wasla-advisor capture [--scenario tpch|tpcc] [--scale S] [--max-time T] --out-dir DIR
//! wasla-advisor replay  --oplog oplog.tsv [--scenario tpch|tpcc] [--scale S]
//!                       [--objective NAME] [--coarse] [--cache-dir DIR]
//! wasla-advisor serve   --oplog oplog.tsv --budget BYTES_PER_TICK
//!                       [--pane-s S] [--panes N] [--threshold X] [--alpha A]
//!                       [--fail TICK:TARGET]... [--cache-dir DIR] [--json]
//! wasla-advisor stress [--tenants N] [--targets M] [--batch B] [--seed S]
//!                      [--queue-cap N] [--brownout N] [--max-attempts K] ...
//! wasla-advisor demo  [--scale 0.05] [--objective NAME] [--cache-dir DIR]
//! ```
//!
//! * `calibrate` builds a tabulated cost model for a device type and
//!   writes it as JSON (models calibrated against real hardware can be
//!   substituted — the advisor only sees the table).
//! * `advise` consumes a `WorkloadSet` JSON (per-object names, sizes,
//!   and Rome-style descriptions — produce one with `fit` from a
//!   captured op-log, or with the analytic estimator) plus a target list, and prints the
//!   recommended layout. `--objective` picks the layout objective
//!   (`minmax` is the paper's default; `provision-cost` weights each
//!   target by its tier's $/IOPS; `wear-blend` penalizes write traffic
//!   on wear-limited tiers) and `--tier-spec` overrides the per-target
//!   tier descriptors from a JSON array of `Tier` objects (one per
//!   target, in target order).
//! * `fit` fits per-object workload descriptions from a captured
//!   op-log and an object inventory (`[{"name":..,"size":..}]`).
//! * `capture` runs a built-in scenario under the SEE baseline with
//!   op-log capture on and writes `oplog.tsv` (the compact
//!   line-oriented record format) plus `objects.json` to `--out-dir`.
//! * `replay` feeds a captured op-log through the streamed advise
//!   pipeline and replays it against the SEE baseline and the advised
//!   layout, printing a predicted-vs-observed report.
//! * `serve` runs the online re-layout control loop over a captured
//!   op-log stream: pane-aligned sliding windows, cheap drift probes,
//!   and budgeted incremental migration (`--budget` voluntary bytes
//!   per tick; evacuations off targets failed via `--fail` are always
//!   admitted). With `--cache-dir` the controller checkpoint persists
//!   next to the stage caches, so a restarted daemon resumes where it
//!   left off.
//! * `stress` drives the fleet-scale multi-tenant stress scenario:
//!   thousands of synthetic tenants (seeded, zipf-skewed — see
//!   `wasla::workload::synth`) advised in batches under an explicit
//!   admission/deadline/backoff policy. The deterministic report (tick
//!   stats + per-slot decision log) goes to stdout — byte-identical at
//!   any `WASLA_THREADS` — and wall-clock throughput goes to stderr.
//! * `demo` runs the built-in TPC-H-like scenario end-to-end. With
//!   `--cache-dir`, the advisor session persists its calibration and
//!   fit caches there (crash-safe, versioned, checksummed): a rerun
//!   starts warm, a corrupt cache file is quarantined and rebuilt, and
//!   a quarantine that cannot be written maps to the I/O exit code.
//!
//! Every failure surfaces as a [`WaslaError`] with a stable exit
//! code. Each subcommand accepts only the flags listed above: an
//! unknown flag, a flag missing its value, or a malformed number is a
//! usage error, never silently ignored.
//!
//! | exit | class | examples |
//! |------|-------|----------|
//! | `2`  | usage | unknown subcommand or flag, missing or malformed flag value, unknown `--objective` name, `--tier-spec`/`--models` length mismatch |
//! | `3`  | file I/O | unreadable op-log/workload/model file, unwritable `--out` |
//! | `4`  | malformed JSON | corrupt model/workload/tier files |
//! | `5`  | overloaded | a batch request shed by admission control (`--queue-cap`) |
//! | `1`  | pipeline | infeasible problems, unmodelable targets, bad op-logs |

use std::sync::Arc;
use wasla::cli::Flags;
use wasla::core::report::{render_layout, render_stages};
use wasla::core::{recommend, AdminConstraint, AdvisorOptions, LayoutProblem};
use wasla::error::WaslaError;
use wasla::model::{
    calibrate_device, check_capacity, CalibrationGrid, ModelError, TableModel, TargetCostModel,
};
use wasla::pipeline::{self, AdviseConfig, RunSettings, Scenario, LVM_STRIPE};
use wasla::simlib::json::FromJson;
use wasla::storage::{DeviceSpec, DiskParams, SsdParams, TargetConfig};
use wasla::workload::{SqlWorkload, WorkloadSet};

const USAGE: &str = "usage:
  wasla-advisor calibrate --device <scsi15k|scsi10k|nearline7200|ssd|ssd2> \
--capacity-gb <G> [--out FILE]
  wasla-advisor fit --oplog FILE --objects FILE [--window-s S] [--out FILE]
  wasla-advisor advise --workloads FILE --targets FILE [--models FILE,...] \
[--objective minmax|provision-cost|wear-blend] [--tier-spec FILE] \
[--regular] [--pin OBJ=T]... [--forbid OBJ=T]... [--out FILE]
  wasla-advisor capture [--scenario tpch|tpcc] [--scale S] [--max-time T] --out-dir DIR
  wasla-advisor replay --oplog FILE [--scenario tpch|tpcc] [--scale S] \
[--objective NAME] [--coarse] [--cache-dir DIR]
  wasla-advisor serve --oplog FILE --budget BYTES_PER_TICK [--scenario tpch|tpcc] \
[--scale S] [--pane-s S] [--panes N] [--threshold X] [--alpha A] [--carry-cap N] \
[--fail TICK:TARGET]... [--objective NAME] [--coarse] [--cache-dir DIR] [--json]
  wasla-advisor stress [--tenants N] [--targets M] [--batch B] [--seed S] [--zipf T] \
[--objects-min N] [--objects-max N] [--size-mib-min X] [--size-mib-max X] \
[--write-frac F] [--burstiness F] [--interactive-share F] [--batch-share F] \
[--queue-cap N] [--brownout N] [--max-attempts K] [--backoff-base N] [--backoff-cap N]
  wasla-advisor demo [--scale S] [--objective NAME] [--cache-dir DIR]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("calibrate") => calibrate(&args[1..]),
        Some("fit") => fit(&args[1..]),
        Some("advise") => advise(&args[1..]),
        Some("capture") => capture(&args[1..]),
        Some("replay") => replay(&args[1..]),
        Some("serve") => serve(&args[1..]),
        Some("stress") => stress(&args[1..]),
        Some("demo") => demo(&args[1..]),
        Some(other) => Err(WaslaError::Usage(format!("unknown subcommand {other:?}"))),
        None => Err(WaslaError::Usage("missing subcommand".to_string())),
    };
    if let Err(err) = result {
        eprintln!("wasla-advisor: {err}");
        if matches!(err, WaslaError::Usage(_)) {
            eprintln!("{USAGE}");
        }
        std::process::exit(err.exit_code());
    }
}

/// The layout objective named by `--objective`, defaulting to the
/// paper's min-max. Unknown names are usage errors (exit code 2).
fn objective_from_flags(f: &Flags<'_>) -> Result<wasla::core::ObjectiveKind, WaslaError> {
    match f.value("--objective") {
        Some(name) => pipeline::parse_objective(name),
        None => Ok(wasla::core::ObjectiveKind::MinMax),
    }
}

fn read_file(path: &str) -> Result<String, WaslaError> {
    std::fs::read_to_string(path).map_err(|e| WaslaError::io(path, &e))
}

fn write_file(path: &str, contents: &str) -> Result<(), WaslaError> {
    std::fs::write(path, contents).map_err(|e| WaslaError::io(path, &e))
}

/// Reads and decodes a JSON file, tagging parse errors with the path.
fn load_json<T: FromJson>(path: &str, what: &str) -> Result<T, WaslaError> {
    wasla::simlib::json::from_str(&read_file(path)?).map_err(|e| {
        WaslaError::Json(wasla::simlib::json::JsonError::new(format!(
            "{path}: {what}: {e}"
        )))
    })
}

/// An object inventory entry for the `fit` subcommand.
struct ObjectEntry {
    name: String,
    size: u64,
}

wasla::simlib::impl_json_struct!(ObjectEntry { name, size });

fn fit(args: &[String]) -> Result<(), WaslaError> {
    let f = Flags::parse(args, "fit", "--oplog --objects --window-s --out", "")?;
    let mut fit_config = wasla::trace::FitConfig::default();
    f.number_into("--window-s", &mut fit_config.window_s)?;
    let objects_path = f.require("--objects")?;
    let objects: Vec<ObjectEntry> =
        load_json(objects_path, "objects ([{\"name\":..., \"size\":...}])")?;
    let names: Vec<String> = objects.iter().map(|o| o.name.clone()).collect();
    let sizes: Vec<u64> = objects.iter().map(|o| o.size).collect();
    let log = wasla::trace::oplog::OpLog::parse_tsv(&read_file(f.require("--oplog")?)?)?;
    let set = wasla::trace::oplog::fit_oplog_streamed(
        &log,
        &names,
        &sizes,
        &fit_config,
        wasla::trace::oplog::DEFAULT_CHUNK,
    )?;
    let records = log.len();
    set.validate()
        .map_err(|e| WaslaError::Internal(format!("fitted set is inconsistent: {e}")))?;
    let json = wasla::simlib::json::to_string_pretty(&set);
    match f.value("--out") {
        Some(path) => {
            write_file(path, &json)?;
            eprintln!(
                "fitted {} objects from {records} records → {path}",
                set.len()
            );
        }
        None => println!("{json}"),
    }
    Ok(())
}

/// The built-in scenario a `--scenario` flag names: the paper's
/// TPC-H-like OLAP setup or the TPC-C-like OLTP setup, each with its
/// standard workload mix and capture settings (OLTP runs are
/// open-ended, so they get a hard time cap).
fn scenario_from_flags(
    f: &Flags<'_>,
) -> Result<(Scenario, Vec<SqlWorkload>, RunSettings), WaslaError> {
    let scale: f64 = f.number("--scale")?.unwrap_or(0.01);
    let name = f.value("--scenario").unwrap_or("tpch");
    match name {
        "tpch" => Ok((
            Scenario::homogeneous_disks(4, scale),
            vec![SqlWorkload::olap1_21(3)],
            RunSettings::default(),
        )),
        "tpcc" => {
            let max_time: f64 = f.number("--max-time")?.unwrap_or(60.0);
            Ok((
                Scenario::oltp_disks(scale),
                vec![SqlWorkload::oltp()],
                RunSettings {
                    max_time: Some(max_time),
                    ..RunSettings::default()
                },
            ))
        }
        other => Err(WaslaError::Usage(format!(
            "unknown --scenario {other:?} (tpch or tpcc)"
        ))),
    }
}

fn capture(args: &[String]) -> Result<(), WaslaError> {
    let f = Flags::parse(
        args,
        "capture",
        "--out-dir --scenario --scale --max-time",
        "",
    )?;
    let out_dir = f.require("--out-dir")?;
    let (scenario, workloads, settings) = scenario_from_flags(&f)?;
    let outcome = wasla::replay::capture_oplog(&scenario, &workloads, &settings)?;
    std::fs::create_dir_all(out_dir).map_err(|e| WaslaError::io(out_dir, &e))?;
    let oplog_path = format!("{out_dir}/oplog.tsv");
    write_file(&oplog_path, &outcome.log.to_tsv())?;
    let objects: Vec<ObjectEntry> = scenario
        .catalog
        .names()
        .into_iter()
        .zip(scenario.catalog.sizes())
        .map(|(name, size)| ObjectEntry { name, size })
        .collect();
    write_file(
        &format!("{out_dir}/objects.json"),
        &wasla::simlib::json::to_string_pretty(&objects),
    )?;
    eprintln!(
        "captured {} ops over {:.2}s under SEE → {oplog_path}",
        outcome.log.len(),
        outcome.log.span().as_secs()
    );
    Ok(())
}

fn replay(args: &[String]) -> Result<(), WaslaError> {
    let f = Flags::parse(
        args,
        "replay",
        "--oplog --scenario --scale --max-time --objective --cache-dir",
        "--coarse",
    )?;
    let oplog_path = f.require("--oplog")?;
    let (scenario, _workloads, _settings) = scenario_from_flags(&f)?;
    let log = wasla::trace::oplog::OpLog::parse_tsv(&read_file(oplog_path)?)?;
    let mut config = if f.has("--coarse") {
        AdviseConfig::fast()
    } else {
        AdviseConfig::full()
    };
    config.advisor.solver.objective = objective_from_flags(&f)?;
    let validation = match f.value("--cache-dir") {
        Some(dir) => {
            let (mut service, notes) = wasla::Service::open(0x5eed, dir)?;
            for note in &notes {
                eprintln!("cache: {note}");
            }
            let v =
                wasla::replay::replay_validate(service.session_mut(), &log, &scenario, &config)?;
            service.persist()?;
            v
        }
        None => {
            let mut session = wasla::AdvisorSession::new();
            wasla::replay::replay_validate(&mut session, &log, &scenario, &config)?
        }
    };
    print!(
        "{}",
        wasla::replay::render_validation(&validation, &scenario)
    );
    Ok(())
}

/// Parses `--fail TICK:TARGET` occurrences into injected failures.
fn failures_from_flags(f: &Flags<'_>) -> Result<Vec<wasla::daemon::TargetFailure>, WaslaError> {
    f.values("--fail")
        .into_iter()
        .map(|spec| {
            let bad = || WaslaError::Usage(format!("--fail expects TICK:TARGET, got {spec:?}"));
            let (tick, target) = spec.split_once(':').ok_or_else(bad)?;
            Ok(wasla::daemon::TargetFailure {
                tick: tick.parse().map_err(|_| bad())?,
                target: target.parse().map_err(|_| bad())?,
            })
        })
        .collect()
}

fn serve(args: &[String]) -> Result<(), WaslaError> {
    let f = Flags::parse(
        args,
        "serve",
        "--oplog --budget --scenario --scale --max-time --pane-s --panes --threshold --alpha \
         --carry-cap --fail --objective --cache-dir",
        "--coarse --json",
    )?;
    let oplog_path = f.require("--oplog")?;
    let budget: u64 = f
        .number("--budget")?
        .ok_or_else(|| WaslaError::Usage("missing required --budget".to_string()))?;
    let (scenario, _workloads, _settings) = scenario_from_flags(&f)?;
    let log = wasla::trace::oplog::OpLog::parse_tsv(&read_file(oplog_path)?)?;
    let mut config = if f.has("--coarse") {
        AdviseConfig::fast()
    } else {
        AdviseConfig::full()
    };
    config.advisor.solver.objective = objective_from_flags(&f)?;
    let mut daemon = wasla::daemon::DaemonConfig {
        budget_bytes_per_tick: budget,
        target_failures: failures_from_flags(&f)?,
        ..wasla::daemon::DaemonConfig::default()
    };
    f.number_into("--pane-s", &mut daemon.window.pane_s)?;
    f.number_into("--panes", &mut daemon.window.panes_per_window)?;
    f.number_into("--threshold", &mut daemon.drift_threshold)?;
    f.number_into("--alpha", &mut daemon.alpha)?;
    f.number_into("--carry-cap", &mut daemon.carry_cap_ticks)?;
    let mut service = match f.value("--cache-dir") {
        Some(dir) => {
            let (service, notes) = wasla::Service::open(scenario.seed, dir)?;
            for note in &notes {
                eprintln!("cache: {note}");
            }
            service
        }
        None => wasla::Service::new(scenario.seed),
    };
    let report = service.run_loop(&log, &scenario, &config, &daemon)?;
    service.persist()?;
    for note in &report.degraded {
        eprintln!("degraded: {note}");
    }
    if f.has("--json") {
        println!("{}", report.render_decisions());
    } else {
        print!("{}", wasla::daemon::render_ticks(&report));
    }
    Ok(())
}

fn calibrate(args: &[String]) -> Result<(), WaslaError> {
    let f = Flags::parse(args, "calibrate", "--device --capacity-gb --out", "")?;
    let device = f.require("--device")?;
    let capacity_gb: f64 = f
        .number("--capacity-gb")?
        .ok_or_else(|| WaslaError::Usage("missing required --capacity-gb".to_string()))?;
    if !(capacity_gb.is_finite() && capacity_gb > 0.0) {
        return Err(WaslaError::Usage(format!(
            "--capacity-gb must be a positive number, got {capacity_gb}"
        )));
    }
    let capacity = (capacity_gb * 1e9) as u64;
    let spec = match device {
        "scsi15k" => DeviceSpec::Disk(DiskParams::scsi_15k(capacity)),
        "scsi10k" => DeviceSpec::Disk(DiskParams::scsi_10k(capacity)),
        "nearline7200" => DeviceSpec::Disk(DiskParams::nearline_7200(capacity)),
        "ssd" => DeviceSpec::Ssd(SsdParams::sata_gen1(capacity)),
        "ssd2" => DeviceSpec::Ssd(SsdParams::sata_gen2(capacity)),
        other => {
            return Err(WaslaError::Usage(format!("unknown device type {other:?}")));
        }
    };
    let grid = CalibrationGrid::default();
    if let Err(ModelError::BelowCalibrationFloor { floor, .. }) =
        check_capacity(&spec, &grid, device)
    {
        return Err(WaslaError::Usage(format!(
            "--capacity-gb {capacity_gb} is below the calibration floor of {floor} bytes"
        )));
    }
    eprintln!("calibrating {device} ({capacity_gb} GB)...");
    let model = calibrate_device(&spec, &grid, 7);
    let json = model.to_json();
    match f.value("--out") {
        Some(path) => {
            write_file(path, &json)?;
            eprintln!("model written to {path}");
        }
        None => println!("{json}"),
    }
    Ok(())
}

fn parse_constraint(s: &str) -> Result<(String, usize), WaslaError> {
    let (obj, t) = s.split_once('=').ok_or_else(|| {
        WaslaError::Usage(format!(
            "constraint must look like OBJECT=TARGET_INDEX: {s}"
        ))
    })?;
    let target: usize = t
        .parse()
        .map_err(|_| WaslaError::Usage(format!("target index must be an integer: {s}")))?;
    Ok((obj.to_string(), target))
}

fn advise(args: &[String]) -> Result<(), WaslaError> {
    let f = Flags::parse(
        args,
        "advise",
        "--workloads --targets --models --objective --tier-spec --pin --forbid --out",
        "--regular",
    )?;
    let workloads_path = f.require("--workloads")?;
    let targets_path = f.require("--targets")?;
    let workloads: WorkloadSet = load_json(workloads_path, "WorkloadSet")?;
    let mut targets: Vec<TargetConfig> = load_json(targets_path, "Vec<TargetConfig>")?;

    // Tier overrides: one Tier per target, in target order. Targets
    // parsed from old spec files carry their device-derived default
    // tier, so this flag is only needed for custom economics.
    if let Some(path) = f.value("--tier-spec") {
        let tiers: Vec<wasla::storage::Tier> = load_json(path, "Vec<Tier>")?;
        if tiers.len() != targets.len() {
            return Err(WaslaError::Usage(format!(
                "--tier-spec needs one tier per target ({} tiers for {} targets)",
                tiers.len(),
                targets.len()
            )));
        }
        for (target, tier) in targets.iter_mut().zip(tiers) {
            target.tier = tier;
        }
    }

    // Cost models: either provided per target, or calibrated here.
    let models: Vec<Arc<dyn wasla::model::CostModel>> = match f.value("--models") {
        Some(list) => {
            let paths: Vec<&str> = list.split(',').collect();
            if paths.len() != targets.len() {
                return Err(WaslaError::Usage(format!(
                    "--models needs one file per target ({} files for {} targets)",
                    paths.len(),
                    targets.len()
                )));
            }
            paths
                .iter()
                .zip(&targets)
                .map(|(path, t)| {
                    let table: TableModel = load_json(path, "TableModel")?;
                    let member = TargetCostModel::member_spec(t)?;
                    Ok(Arc::new(TargetCostModel {
                        member: table,
                        width: t.width(),
                        stripe_unit: t.stripe_unit,
                        parallelism: member.build().parallelism(),
                        name: t.name.clone(),
                        tier: t.tier.clone(),
                    }) as Arc<dyn wasla::model::CostModel>)
                })
                .collect::<Result<_, WaslaError>>()?
        }
        None => {
            eprintln!("calibrating cost models for {} targets...", targets.len());
            TargetCostModel::for_targets(&targets, &CalibrationGrid::default(), 7)?
                .into_iter()
                .map(|m| Arc::new(m) as Arc<dyn wasla::model::CostModel>)
                .collect()
        }
    };

    let expect_id = |name: &str| -> Result<usize, WaslaError> {
        workloads
            .names
            .iter()
            .position(|n| n == name)
            .ok_or_else(|| WaslaError::Usage(format!("no object named {name} in the workload set")))
    };
    let mut constraints = Vec::new();
    for c in f.values("--pin") {
        let (obj, target) = parse_constraint(c)?;
        constraints.push(AdminConstraint::PinTo {
            object: expect_id(&obj)?,
            target,
        });
    }
    for c in f.values("--forbid") {
        let (obj, target) = parse_constraint(c)?;
        constraints.push(AdminConstraint::Forbid {
            object: expect_id(&obj)?,
            target,
        });
    }

    let problem = LayoutProblem {
        kinds: vec![wasla::workload::ObjectKind::Table; workloads.len()],
        capacities: targets.iter().map(|t| t.capacity()).collect(),
        target_names: targets.iter().map(|t| t.name.clone()).collect(),
        models,
        workloads,
        stripe_size: LVM_STRIPE as f64,
        constraints,
    };
    let mut options = AdvisorOptions {
        regularize: f.has("--regular"),
        ..AdvisorOptions::default()
    };
    options.solver.objective = objective_from_flags(&f)?;
    let rec = recommend(&problem, &options)?;
    println!("{}", render_stages(&problem, &rec.stages));
    println!(
        "{}",
        render_layout(&problem, rec.final_layout(), problem.n())
    );
    println!(
        "advisor time: {:.2}s (solver {:.2}s, regularization {:.2}s){}",
        rec.timings.total_s(),
        rec.timings.solver_s,
        rec.timings.regularize_s,
        if rec.fell_back_to_see {
            " — SEE is predicted optimal for this workload"
        } else {
            ""
        }
    );
    if let Some(path) = f.value("--out") {
        let json = wasla::simlib::json::to_string_pretty(rec.final_layout());
        write_file(path, &json)?;
        eprintln!("layout written to {path}");
    }
    Ok(())
}

fn stress(args: &[String]) -> Result<(), WaslaError> {
    let opts = wasla::StressOptions::from_args(args)?;
    eprintln!(
        "stressing {} tenants on {} shared targets (batch {})...",
        opts.spec.tenants, opts.spec.targets, opts.batch
    );
    let outcome = wasla::stress::run_stress(&opts)?;
    print!("{}", outcome.render_report());
    eprintln!("{}", outcome.render_timing());
    Ok(())
}

fn demo(args: &[String]) -> Result<(), WaslaError> {
    let f = Flags::parse(args, "demo", "--scale --objective --cache-dir", "")?;
    let scale: f64 = f.number("--scale")?.unwrap_or(0.05);
    let scenario = Scenario::homogeneous_disks(4, scale);
    let workloads = [SqlWorkload::olap1_63(7)];
    let mut config = AdviseConfig::full();
    config.advisor.solver.objective = objective_from_flags(&f)?;
    eprintln!("running the built-in TPC-H-like demo at scale {scale}...");
    let outcome = match f.value("--cache-dir") {
        Some(dir) => {
            let (mut service, notes) = wasla::Service::open(0x5eed, dir)?;
            for note in &notes {
                eprintln!("cache: {note}");
            }
            let outcome = service
                .advise_batch(&[wasla::AdviseRequest {
                    scenario: scenario.clone(),
                    workloads: workloads.to_vec(),
                    config: config.clone(),
                    seed: Some(AdvisorOptions::default().seed),
                    deadline: None,
                }])
                .pop()
                .ok_or_else(|| {
                    WaslaError::Internal("one request in, one outcome out".to_string())
                })??;
            service.persist()?;
            outcome
        }
        None => pipeline::advise(&scenario, &workloads, &config)?,
    };
    for note in &outcome.degraded {
        eprintln!("degraded: {note}");
    }
    let rec = &outcome.recommendation;
    println!("{}", render_stages(&outcome.problem, &rec.stages));
    println!("{}", render_layout(&outcome.problem, rec.final_layout(), 8));
    let optimized = pipeline::run_with_layout(
        &scenario,
        &workloads,
        rec.final_layout(),
        &RunSettings::default(),
    )?;
    println!(
        "SEE {:.0}s → optimized {:.0}s ({:.2}x)",
        outcome.baseline_run.elapsed.as_secs(),
        optimized.elapsed.as_secs(),
        optimized.speedup_vs(&outcome.baseline_run)
    );
    Ok(())
}
