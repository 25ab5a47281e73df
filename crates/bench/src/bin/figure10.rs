//! Regenerates the paper's figure10 experiment. See `qsr_bench::experiments::figure10`.

#![forbid(unsafe_code)]

fn main() {
    if let Err(e) = qsr_bench::experiments::figure10::run() {
        eprintln!("figure10 failed: {e}");
        std::process::exit(1);
    }
}
