//! Runs the DESIGN.md §8 ablations. See `qsr_bench::experiments::ablation`.

#![forbid(unsafe_code)]

fn main() {
    if let Err(e) = qsr_bench::experiments::ablation::run() {
        eprintln!("ablation failed: {e}");
        std::process::exit(1);
    }
}
