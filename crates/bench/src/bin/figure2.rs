//! Regenerates the paper's figure2 experiment. See `qsr_bench::experiments::figure2`.

#![forbid(unsafe_code)]

fn main() {
    if let Err(e) = qsr_bench::experiments::figure2::run() {
        eprintln!("figure2 failed: {e}");
        std::process::exit(1);
    }
}
