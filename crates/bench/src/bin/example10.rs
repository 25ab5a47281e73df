//! Regenerates the paper's example10 experiment. See `qsr_bench::experiments::example10`.

#![forbid(unsafe_code)]

fn main() {
    if let Err(e) = qsr_bench::experiments::example10::run() {
        eprintln!("example10 failed: {e}");
        std::process::exit(1);
    }
}
