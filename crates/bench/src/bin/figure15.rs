//! Regenerates the paper's figure15 experiment. See `qsr_bench::experiments::figure15`.

#![forbid(unsafe_code)]

fn main() {
    if let Err(e) = qsr_bench::experiments::figure15::run() {
        eprintln!("figure15 failed: {e}");
        std::process::exit(1);
    }
}
