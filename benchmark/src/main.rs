//! The repo benchmark. See `benchmark/README.md`.
//!
//! `qsr-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! [--smoke]` runs one workload and prints, as the last line of standard
//! output, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. Everything else goes to standard error.
//! `--list` prints the workload names. It measures the engine from
//! outside, through public functions and counters only.

mod config;
mod fixture;
mod metrics;
mod stats;
mod trace;
mod workloads;

use fixture::{Report, RunCx, OUT_DIR};
use metrics::{Metrics, END_TO_END, PER_LAYER};
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    workload: &'static workloads::Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) = (
        None,
        config::DEFAULT_SEED,
        config::DEFAULT_SECONDS,
        false,
        false,
    );
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--list" => {
                for w in workloads::ALL {
                    println!("{}", w.name);
                }
                return Ok(None);
            }
            "--smoke" => smoke = true,
            "--workload" => {
                let name = value()?;
                workload = Some(
                    workloads::ALL
                        .iter()
                        .find(|w| w.name == name)
                        .ok_or(format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload NAME is required (see --list)")?;
    Ok(Some(Args {
        workload,
        seed,
        seconds,
        trace,
        smoke,
    }))
}

fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".to_string(), |s| s.trim().to_string())
}

fn end_to_end(report: &Report) -> Metrics {
    let mut m = Metrics::default();
    m.set("setup_s", report.setup_s.p50(), report.setup_s.len());
    m.set("op_ms_p50", report.op_ms.p50(), report.op_ms.len());
    m.set(
        "tuples_per_s",
        report.tuples_per_s.p50(),
        report.tuples_per_s.len(),
    );
    m
}

fn run(args: &Args, scrubbed: &[String]) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let scale = config::Scale::new(args.smoke);
    let seconds = if args.smoke {
        args.seconds / config::SMOKE_SECONDS_DIVISOR
    } else {
        args.seconds
    };
    let name = args.workload.name;
    let header = format!(
        "workload={name} seed={} seconds={seconds} trace={} smoke={} nproc={} workers={} commit={} scrubbed={scrubbed:?}",
        args.seed,
        u8::from(args.trace),
        args.smoke,
        config::nproc(),
        config::server_workers(),
        git_commit(),
    );
    let pinned = config::describe(&scale);
    eprintln!("{header}\n{pinned}");

    std::fs::create_dir_all(OUT_DIR)?;
    let mut cx = RunCx {
        workload: name,
        seed: args.seed,
        measure: Duration::from_secs_f64(seconds),
        scale,
        tracer: trace::Tracer::new(args.trace),
    };
    let mut report = (args.workload.run)(&mut cx)?;

    let (metrics, list) = if args.trace {
        let m = &mut report.layers;
        m.set("bench.op_ms_p50", report.op_ms.p50(), report.op_ms.len());
        m.set(
            "bench.op_samples",
            report.op_ms.len() as f64,
            report.op_ms.len(),
        );
        m.set(
            "bench.uncovered_job_share",
            cx.tracer.uncovered_share("bench.job"),
            report.tuples_per_s.len(),
        );
        m.set("bench.peak_rss_mb", fixture::peak_rss_mb(), 1);
        cx.tracer
            .write_jsonl(&Path::new(OUT_DIR).join(format!("trace-{name}.jsonl")))?;
        (report.layers, PER_LAYER)
    } else {
        (end_to_end(&report), END_TO_END)
    };
    eprint!("{}", metrics.table(list));
    eprintln!(
        "ops attempted={} failed={}",
        report.attempted, report.failed
    );
    let line = metrics::result_line(report.attempted.max(1), report.failed, &metrics, list);
    std::fs::write(
        Path::new(OUT_DIR).join(format!("result-{name}-trace{}.json", u8::from(args.trace))),
        format!(
            "{{\"run\": {}, \"config\": {}, \"result\": {line}}}\n",
            metrics::json_string(&header),
            metrics::json_string(&pinned)
        ),
    )?;
    println!("{line}");
    Ok(if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    // Before anything reads the environment or starts a thread.
    let scrubbed = config::scrub_env();
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("qsr-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    run(&args, &scrubbed).unwrap_or_else(|e| {
        eprintln!("qsr-benchmark: {}: {e}", args.workload.name);
        ExitCode::FAILURE
    })
}
