//! Runs every experiment in sequence and writes the combined markdown to
//! `experiments_output.md` in the current directory (the source for
//! `EXPERIMENTS.md`).
//!
//! `--pool-pages N` runs every experiment over an N-frame shared buffer
//! pool (exported as `QSR_POOL_PAGES` for the harness). The default, 0,
//! is the uncached passthrough configuration whose ledger numbers match
//! the paper's cost analysis exactly.
//!
//! `--suspend-deadline C` (exported as `QSR_SUSPEND_DEADLINE`) caps every
//! measured suspend at C simulated cost units — the degradation ladder
//! may commit a cheaper rung than each experiment's nominal policy.
//! `--disk-quota BYTES` (exported as `QSR_DISK_QUOTA`) arms a disk quota
//! of `used + BYTES` around every measured suspend; headrooms no ladder
//! rung fits surface as typed clean-abort experiment failures.
//!
//! `--trace-json PATH` (exported as `QSR_TRACE`) attaches a structured
//! trace sink to every experiment database: each suspend-lifecycle event
//! is appended to PATH as one JSON line.

#![forbid(unsafe_code)]

use qsr_bench::experiments as ex;

fn main() {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--pool-pages" => {
                let n: usize = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--pool-pages needs a non-negative integer");
                std::env::set_var("QSR_POOL_PAGES", n.to_string());
            }
            "--suspend-deadline" => {
                let c: f64 = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--suspend-deadline needs a cost-unit number");
                std::env::set_var("QSR_SUSPEND_DEADLINE", c.to_string());
            }
            "--disk-quota" => {
                let b: u64 = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--disk-quota needs a byte count");
                std::env::set_var("QSR_DISK_QUOTA", b.to_string());
            }
            "--trace-json" => {
                let p = args.next().filter(|p| !p.is_empty());
                let p = p.expect("--trace-json needs a file path");
                std::env::set_var("QSR_TRACE", p);
            }
            other => {
                eprintln!(
                    "unknown argument: {other} (supported: --pool-pages N, \
                     --suspend-deadline C, --disk-quota BYTES, --trace-json PATH)"
                );
                std::process::exit(2);
            }
        }
    }
    eprintln!("buffer pool: {} pages", qsr_bench::harness::pool_pages());
    if let Some(d) = qsr_bench::harness::suspend_deadline() {
        eprintln!("suspend deadline: {d} cost units");
    }
    if let Some(b) = qsr_bench::harness::disk_quota_headroom() {
        eprintln!("disk-quota headroom: {b} bytes");
    }
    let t0 = std::time::Instant::now();
    let mut out = String::from("# Experiment results (generated by all_experiments)\n");
    type Experiment = fn() -> qsr_storage::Result<String>;
    let runs: Vec<(&str, Experiment)> = vec![
        ("table2", ex::table2::run),
        ("figure2", ex::figure2::run),
        ("figure8", ex::figure8::run),
        ("figure9", ex::figure9::run),
        ("figure10", ex::figure10::run),
        ("figure12", ex::figure12::run),
        ("figure13", ex::figure13::run),
        ("figure14", ex::figure14::run),
        ("figure15", ex::figure15::run),
        ("example10", ex::example10::run),
        ("ablation", ex::ablation::run),
    ];
    let mut failures = 0;
    for (name, f) in runs {
        eprintln!("=== running {name} ===");
        match f() {
            Ok(md) => {
                out.push('\n');
                out.push_str(&md);
            }
            Err(e) => {
                failures += 1;
                out.push_str(&format!("\n### {name}: FAILED — {e}\n"));
                eprintln!("{name} FAILED: {e}");
            }
        }
    }
    out.push_str(&format!(
        "\n---\nTotal wall time: {:.1}s; failures: {failures}\n",
        t0.elapsed().as_secs_f64()
    ));
    std::fs::write("experiments_output.md", &out).expect("write results");
    eprintln!("wrote experiments_output.md ({failures} failures)");
    if failures > 0 {
        std::process::exit(1);
    }
}
