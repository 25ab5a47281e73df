//! Regenerates the paper's figure13 experiment. See `qsr_bench::experiments::figure13`.

#![forbid(unsafe_code)]

fn main() {
    if let Err(e) = qsr_bench::experiments::figure13::run() {
        eprintln!("figure13 failed: {e}");
        std::process::exit(1);
    }
}
