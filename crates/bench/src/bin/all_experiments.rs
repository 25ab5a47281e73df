//! Runs every experiment in sequence and writes the combined markdown to
//! `experiments_output.md` in the current directory (the source for
//! `EXPERIMENTS.md`).
//!
//! The harness settings apply to every experiment (see
//! `qsr_bench::harness`): `QSR_POOL_PAGES=N` runs over an N-frame shared
//! buffer pool (the default, 0, is the uncached passthrough
//! configuration whose ledger numbers match the paper's cost analysis
//! exactly); `QSR_SUSPEND_DEADLINE=C` caps every measured suspend at C
//! simulated cost units, so the degradation ladder may commit a cheaper
//! rung than each experiment's nominal policy; `QSR_DISK_QUOTA=BYTES`
//! arms a disk quota of `used + BYTES` around every measured suspend,
//! and headrooms no ladder rung fits surface as typed clean-abort
//! experiment failures; `QSR_TRACE=PATH` appends each suspend-lifecycle
//! event of every experiment database to PATH as one JSON line.

#![forbid(unsafe_code)]

use qsr_bench::experiments as ex;

fn main() {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!(
            "unknown argument: {arg} (all_experiments takes none; set QSR_POOL_PAGES, \
             QSR_SUSPEND_DEADLINE, QSR_DISK_QUOTA or QSR_TRACE instead)"
        );
        std::process::exit(2);
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
