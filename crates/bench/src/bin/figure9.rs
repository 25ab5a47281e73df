//! Regenerates the paper's figure9 experiment. See `qsr_bench::experiments::figure9`.

#![forbid(unsafe_code)]

fn main() {
    if let Err(e) = qsr_bench::experiments::figure9::run() {
        eprintln!("figure9 failed: {e}");
        std::process::exit(1);
    }
}
