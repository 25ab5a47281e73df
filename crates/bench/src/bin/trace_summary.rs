//! Render the per-operator I/O attribution table from a JSONL trace.
//!
//! Usage: `trace_summary <trace.jsonl>`
//!
//! Reads a flight-recorder sink file (written via `QSR_TRACE` or
//! `--trace-json`) and prints the markdown attribution table: fresh dump
//! pages split by the phase that paid for them, salvage-reused dump
//! pages, execution read/write pages, and the per-operator cache
//! hit-rate heuristic. Validation is `trace_check`'s job — this tool
//! only needs the attribution-relevant fields and fails on lines where
//! they are malformed.

#![forbid(unsafe_code)]

use qsr_bench::attribution::{from_jsonl, render};
use std::process::exit;

fn main() {
    let mut args = std::env::args().skip(1);
    let (Some(trace_path), None) = (args.next(), args.next()) else {
        eprintln!("usage: trace_summary <trace.jsonl>");
        exit(2);
    };
    let text = std::fs::read_to_string(&trace_path).unwrap_or_else(|e| {
        eprintln!("trace_summary: read {trace_path}: {e}");
        exit(2);
    });
    let table = from_jsonl(&text).unwrap_or_else(|e| {
        eprintln!("trace_summary: {trace_path}: {e}");
        exit(1);
    });
    if table.ops.is_empty() && table.meta_pages.is_empty() {
        println!("trace_summary: {trace_path}: no attributable I/O events");
        return;
    }
    print!("{}", render(&table));
}
