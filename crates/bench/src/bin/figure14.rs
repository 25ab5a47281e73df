//! Regenerates the paper's figure14 experiment. See `qsr_bench::experiments::figure14`.

#![forbid(unsafe_code)]

fn main() {
    if let Err(e) = qsr_bench::experiments::figure14::run() {
        eprintln!("figure14 failed: {e}");
        std::process::exit(1);
    }
}
