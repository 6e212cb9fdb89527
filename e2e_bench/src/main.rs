//! End-to-end advisor benchmark.
//!
//! ```text
//! e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans <file>]
//! ```
//!
//! Runs one named workload in this process, one client in a closed
//! loop. `--trace 0` measures the end-to-end metrics untraced;
//! `--trace 1` runs an untraced pass and a traced pass over the same
//! inputs, checks that their outputs are identical, and reports the
//! per-layer metrics. Every output check that fails exits with code 1
//! and names the check. The last line of standard output is the
//! result object; the line before it holds the run facts.

mod cold_sweep;
mod daemon;
mod fleet;
mod harness;
mod inputs;
mod oplog_replay;
mod reference;
mod spans;
mod staged;
mod stats;

use harness::{Ctx, Report};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use wasla::simlib::hash::Fnv64;

/// The named workloads and the worker threads each runs with.
const WORKLOADS: [(&str, usize); 4] = [
    ("cold_sweep", cold_sweep::THREADS),
    ("oplog_replay", oplog_replay::THREADS),
    ("fleet", fleet::THREADS),
    ("daemon", daemon::THREADS),
];

struct Args {
    workload: String,
    ctx: Ctx,
    spans: Option<PathBuf>,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
    format!(
        "usage: e2e_bench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--spans <file>]",
        names.join("|")
    )
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut spans = None;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        let bad = || format!("{flag}: malformed value {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--spans" => spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.iter().any(|(n, _)| *n == workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        ctx: Ctx {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        },
        spans,
    })
}

/// A JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Output of a short-lived helper command, or `unknown`. Git is kept
/// from searching above the working directory, so a checkout that is
/// not a repository reads nothing outside itself.
fn command_line(program: &str, args: &[&str]) -> String {
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(Path::to_path_buf))
        .unwrap_or_default();
    std::process::Command::new(program)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Content hash of the benchmarked sources; it stands in for the
/// commit when the source tree carries no git metadata.
fn source_hash(roots: &[&str]) -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for root in roots {
        walk(Path::new(root), &mut files);
    }
    files.sort();
    let mut h = Fnv64::new();
    for file in &files {
        h.write_str(&file.to_string_lossy());
        if let Ok(bytes) = std::fs::read(file) {
            h.write_bytes(&bytes);
        }
    }
    format!("{:016x}", h.finish())
}

fn host_facts(report: &mut Report, args: &Args, threads: usize) {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    report.fact("workload", json_str(&args.workload));
    report.fact("seed", args.ctx.seed);
    report.fact("seconds", args.ctx.seconds);
    report.fact("trace", args.ctx.trace);
    report.fact("available_parallelism", parallelism);
    report.fact("wasla_threads", threads);
    report.fact(
        "commit",
        json_str(&command_line("git", &["rev-parse", "HEAD"])),
    );
    report.fact(
        "source_hash",
        json_str(&source_hash(&["crates", "e2e_bench/src"])),
    );
    report.fact("rustc", json_str(&command_line("rustc", &["--version"])));
}

fn render_result(report: &Report, correct: bool) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "{}: {{\"value\": {value:?}, \"unit\": {}}}",
                json_str(m.name),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    )
}

fn render_facts(report: &Report) -> String {
    let facts: Vec<String> = report
        .facts
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{\"facts\": {{{}}}}}", facts.join(", "))
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2e_bench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let threads = WORKLOADS
        .iter()
        .find(|(n, _)| *n == args.workload)
        .map_or(1, |(_, t)| *t);
    // The program sees only generated inputs: no injected faults, and
    // the workload's own thread count. Set before any thread starts.
    std::env::remove_var(wasla::simlib::fault::ENV_VAR);
    std::env::set_var("WASLA_THREADS", threads.to_string());

    let mut report = Report::default();
    host_facts(&mut report, &args, threads);
    let outcome = match args.workload.as_str() {
        "cold_sweep" => cold_sweep::run(&args.ctx, &mut report),
        "oplog_replay" => oplog_replay::run(&args.ctx, &mut report),
        "fleet" => fleet::run(&args.ctx, &mut report),
        _ => daemon::run(&args.ctx, &mut report),
    };
    if let Some(spans) = &report.spans {
        let path = args.spans.clone().unwrap_or_else(|| {
            PathBuf::from(format!(
                ".bench_spans/{}-seed{}.jsonl",
                args.workload, args.ctx.seed
            ))
        });
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, spans));
        match written {
            Ok(()) => report.fact("spans", json_str(&path.to_string_lossy())),
            Err(e) => eprintln!(
                "e2e_bench: could not write spans to {}: {e}",
                path.display()
            ),
        }
    }
    println!("{}", render_facts(&report));
    match outcome {
        Ok(()) => {
            println!("{}", render_result(&report, true));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2e_bench: check failed: {}: {}", e.check, e.detail);
            println!("{}", render_result(&report, false));
            ExitCode::from(1)
        }
    }
}
