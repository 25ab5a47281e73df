//! Validate a `QSR_TRACE` JSONL file against the checked-in schema.
//!
//! Usage: `trace_check <trace.jsonl> <trace.schema.json>`
//!
//! Every line must be either a trace record — an object with exactly the
//! schema's `record_keys`, a known `phase`, a known `event` name, and all
//! of that event's required `data` keys — or a `{"failure": "..."}`
//! marker written by `Tracer::record_failure`. Additionally `seq` must be
//! strictly increasing within each contiguous run (the file may append
//! multiple sessions; `seq` restarts at 0 are run boundaries). Exits
//! non-zero naming the first offending line.

#![forbid(unsafe_code)]

use qsr_bench::json::{parse, Json};
use std::process::exit;

fn fail(line_no: usize, msg: &str) -> ! {
    eprintln!("trace_check: line {line_no}: {msg}");
    exit(1)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let (Some(trace_path), Some(schema_path)) = (args.next(), args.next()) else {
        eprintln!("usage: trace_check <trace.jsonl> <trace.schema.json>");
        exit(2);
    };
    let schema_text =
        std::fs::read_to_string(&schema_path).unwrap_or_else(|e| {
            eprintln!("trace_check: read {schema_path}: {e}");
            exit(2);
        });
    let schema = parse(&schema_text).unwrap_or_else(|e| {
        eprintln!("trace_check: schema is not valid JSON: {e}");
        exit(2);
    });
    let schema = schema.as_obj().expect("schema must be an object");
    let record_keys: Vec<&str> = match &schema["record_keys"] {
        Json::Arr(a) => a.iter().filter_map(|v| v.as_str()).collect(),
        _ => Vec::new(),
    };
    let phases: Vec<&str> = match &schema["phases"] {
        Json::Arr(a) => a.iter().filter_map(|v| v.as_str()).collect(),
        _ => Vec::new(),
    };
    let events = schema["events"].as_obj().expect("schema events object");

    let trace_text = std::fs::read_to_string(&trace_path).unwrap_or_else(|e| {
        eprintln!("trace_check: read {trace_path}: {e}");
        exit(2);
    });
    let mut records = 0usize;
    let mut failures = 0usize;
    let mut last_seq: Option<f64> = None;
    for (i, line) in trace_text.lines().enumerate() {
        let line_no = i + 1;
        if line.trim().is_empty() {
            continue;
        }
        let v = parse(line).unwrap_or_else(|e| fail(line_no, &format!("not valid JSON: {e}")));
        let obj = v
            .as_obj()
            .unwrap_or_else(|| fail(line_no, "not a JSON object"));
        if obj.len() == 1 && obj.contains_key("failure") {
            if obj["failure"].as_str().is_none() {
                fail(line_no, "failure marker must carry a string label");
            }
            failures += 1;
            continue;
        }
        for k in &record_keys {
            if !obj.contains_key(*k) {
                fail(line_no, &format!("record is missing key {k:?}"));
            }
        }
        for k in obj.keys() {
            if !record_keys.contains(&k.as_str()) {
                fail(line_no, &format!("record has unknown key {k:?}"));
            }
        }
        let phase = obj["phase"]
            .as_str()
            .unwrap_or_else(|| fail(line_no, "phase must be a string"));
        if !phases.contains(&phase) {
            fail(line_no, &format!("unknown phase {phase:?}"));
        }
        let event = obj["event"]
            .as_str()
            .unwrap_or_else(|| fail(line_no, "event must be a string"));
        let Some(required) = events.get(event) else {
            fail(line_no, &format!("unknown event {event:?}"));
        };
        let data = obj["data"]
            .as_obj()
            .unwrap_or_else(|| fail(line_no, "data must be an object"));
        if let Json::Arr(req) = required {
            for k in req.iter().filter_map(|v| v.as_str()) {
                if !data.contains_key(k) {
                    fail(line_no, &format!("event {event} data is missing {k:?}"));
                }
            }
        }
        let seq = obj["seq"]
            .as_num()
            .unwrap_or_else(|| fail(line_no, "seq must be a number"));
        if let Some(prev) = last_seq {
            // seq restarting at 0 marks a new tracer session in an
            // appended file; within a session it must strictly increase.
            if seq != 0.0 && seq <= prev {
                fail(line_no, &format!("seq {seq} not increasing (prev {prev})"));
            }
        }
        last_seq = Some(seq);
        if obj["ledger"].as_obj().is_none() {
            fail(line_no, "ledger must be an object");
        }
        records += 1;
    }
    if records == 0 {
        eprintln!("trace_check: {trace_path}: no trace records found");
        exit(1);
    }
    println!(
        "trace_check: {trace_path}: {records} records, {failures} failure markers — OK"
    );
}
