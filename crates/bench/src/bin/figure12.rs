//! Regenerates the paper's figure12 experiment. See `qsr_bench::experiments::figure12`.

#![forbid(unsafe_code)]

fn main() {
    if let Err(e) = qsr_bench::experiments::figure12::run() {
        eprintln!("figure12 failed: {e}");
        std::process::exit(1);
    }
}
