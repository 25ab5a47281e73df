//! Regenerates the paper's table2 experiment. See `qsr_bench::experiments::table2`.

#![forbid(unsafe_code)]

fn main() {
    if let Err(e) = qsr_bench::experiments::table2::run() {
        eprintln!("table2 failed: {e}");
        std::process::exit(1);
    }
}
