//! Regenerates the paper's figure8 experiment. See `qsr_bench::experiments::figure8`.

#![forbid(unsafe_code)]

fn main() {
    if let Err(e) = qsr_bench::experiments::figure8::run() {
        eprintln!("figure8 failed: {e}");
        std::process::exit(1);
    }
}
