//! Table-driven audit of the hard-error `QSR_*` knob parsing.
//!
//! Every knob reader funnels through [`qsr_storage::parse_env_value`] /
//! [`qsr_storage::parse_env_flag`], which take the raw string instead of
//! reading the environment — so this table covers unset, valid,
//! malformed, and empty values for every knob type without racy
//! `std::env::set_var` calls. The contract under test: a malformed value
//! is a hard error whose message names the offending variable, never a
//! silent fall-through to the default.

use qsr_storage::{parse_env_flag, parse_env_value, BackendKind};

/// One table row: (knob name, raw value, expected parse outcome).
type Row<T> = (&'static str, Option<&'static str>, Result<Option<T>, ()>);

/// A flag-knob row: (raw value, expected parse outcome).
type FlagRow = (Option<&'static str>, Result<Option<bool>, ()>);

#[test]
fn numeric_knobs_parse_or_name_the_variable() {
    // (knob, raw value, expected) — one row per interesting case for each
    // numeric knob family in the tree.
    let u64_table: &[Row<u64>] = &[
        // unset → None, no error
        ("QSR_POOL_PAGES", None, Ok(None)),
        ("QSR_DISK_QUOTA", None, Ok(None)),
        // valid values (whitespace tolerated)
        ("QSR_POOL_PAGES", Some("64"), Ok(Some(64))),
        ("QSR_POOL_PAGES", Some(" 64 "), Ok(Some(64))),
        ("QSR_DISK_QUOTA", Some("1048576"), Ok(Some(1_048_576))),
        ("QSR_ORACLE_SEED", Some("3735928559"), Ok(Some(0xDEAD_BEEF))),
        ("QSR_ORACLE_FAULTS", Some("128"), Ok(Some(128))),
        ("QSR_ORACLE_STRIDE", Some("7"), Ok(Some(7))),
        // malformed → hard error
        ("QSR_POOL_PAGES", Some("64k"), Err(())),
        ("QSR_POOL_PAGES", Some("-1"), Err(())),
        ("QSR_DISK_QUOTA", Some("1e6"), Err(())),
        ("QSR_ORACLE_SEED", Some("0xBEEF"), Err(())),
        // empty → hard error ("QSR_X=" is a typo, not an unset)
        ("QSR_POOL_PAGES", Some(""), Err(())),
        ("QSR_DISK_QUOTA", Some("   "), Err(())),
    ];
    for (name, raw, expected) in u64_table {
        let got = parse_env_value::<u64>(name, *raw);
        match expected {
            Ok(v) => assert_eq!(got.as_ref().ok(), Some(v), "{name}={raw:?}"),
            Err(()) => {
                let msg = got.expect_err(&format!("{name}={raw:?} must hard-error"));
                assert!(msg.contains(name), "error {msg:?} must name {name}");
            }
        }
    }

    // QSR_WORKERS (the server's slice-thread count; 0 = serial) reads as
    // usize, as do the spill-shape knobs QSR_MEM_BUDGET / QSR_MERGE_FANIN
    // (0 = unlimited).
    let usize_table: &[Row<usize>] = &[
        ("QSR_WORKERS", None, Ok(None)),
        ("QSR_WORKERS", Some("0"), Ok(Some(0))),
        ("QSR_WORKERS", Some("4"), Ok(Some(4))),
        ("QSR_WORKERS", Some("two"), Err(())),
        ("QSR_WORKERS", Some("-1"), Err(())),
        ("QSR_WORKERS", Some(""), Err(())),
        ("QSR_MEM_BUDGET", None, Ok(None)),
        ("QSR_MEM_BUDGET", Some("5000"), Ok(Some(5000))),
        ("QSR_MEM_BUDGET", Some("64k"), Err(())),
        ("QSR_MEM_BUDGET", Some("-1"), Err(())),
        ("QSR_MEM_BUDGET", Some(""), Err(())),
        ("QSR_MERGE_FANIN", None, Ok(None)),
        ("QSR_MERGE_FANIN", Some("4"), Ok(Some(4))),
        ("QSR_MERGE_FANIN", Some("64k"), Err(())),
        ("QSR_MERGE_FANIN", Some("-1"), Err(())),
        ("QSR_MERGE_FANIN", Some(""), Err(())),
    ];
    for (name, raw, expected) in usize_table {
        let got = parse_env_value::<usize>(name, *raw);
        match expected {
            Ok(v) => assert_eq!(got.as_ref().ok(), Some(v), "{name}={raw:?}"),
            Err(()) => {
                let msg = got.expect_err(&format!("{name}={raw:?} must hard-error"));
                assert!(msg.contains(name), "error {msg:?} must name {name}");
            }
        }
    }

    let f64_table: &[Row<f64>] = &[
        ("QSR_SUSPEND_DEADLINE", None, Ok(None)),
        ("QSR_SUSPEND_DEADLINE", Some("12.5"), Ok(Some(12.5))),
        ("QSR_SCALE", Some("0.01"), Ok(Some(0.01))),
        ("QSR_SUSPEND_DEADLINE", Some("12.5s"), Err(())),
        ("QSR_SCALE", Some(""), Err(())),
        // QSR_SLA_BUDGET: the server's uniform per-tenant suspend-cost
        // budget, in ledger cost units.
        ("QSR_SLA_BUDGET", None, Ok(None)),
        ("QSR_SLA_BUDGET", Some("5000"), Ok(Some(5000.0))),
        ("QSR_SLA_BUDGET", Some("0.5"), Ok(Some(0.5))),
        ("QSR_SLA_BUDGET", Some("cheap"), Err(())),
        ("QSR_SLA_BUDGET", Some(""), Err(())),
    ];
    for (name, raw, expected) in f64_table {
        let got = parse_env_value::<f64>(name, *raw);
        match expected {
            Ok(v) => assert_eq!(got.as_ref().ok(), Some(v), "{name}={raw:?}"),
            Err(()) => {
                let msg = got.expect_err(&format!("{name}={raw:?} must hard-error"));
                assert!(msg.contains(name), "error {msg:?} must name {name}");
            }
        }
    }
}

#[test]
fn flag_knobs_accept_only_zero_and_one() {
    let table: &[FlagRow] = &[
        (None, Ok(None)),
        (Some("0"), Ok(Some(false))),
        (Some("1"), Ok(Some(true))),
        (Some("true"), Err(())),
        (Some("yes"), Err(())),
        (Some("2"), Err(())),
        (Some(""), Err(())),
    ];
    // Same contract for every flag knob; QSR_ORACLE_FULL widens the
    // oracle corpus.
    for knob in ["QSR_ORACLE_FULL"] {
        for (raw, expected) in table {
            let got = parse_env_flag(knob, *raw);
            match expected {
                Ok(v) => assert_eq!(got.as_ref().ok(), Some(v), "{knob}={raw:?}"),
                Err(()) => {
                    let msg = got.expect_err(&format!("{knob}={raw:?} must hard-error"));
                    assert!(msg.contains(knob), "error {msg:?} must name the variable");
                }
            }
        }
    }
}

#[test]
fn backend_knob_accepts_only_known_backends() {
    // QSR_SUSPEND_BACKEND parses through BackendKind::from_str: the three
    // shipped backends are valid, anything else is a hard error that
    // names both the variable and the valid options.
    let table: &[Row<BackendKind>] = &[
        ("QSR_SUSPEND_BACKEND", None, Ok(None)),
        ("QSR_SUSPEND_BACKEND", Some("local"), Ok(Some(BackendKind::Local))),
        ("QSR_SUSPEND_BACKEND", Some("memory"), Ok(Some(BackendKind::Memory))),
        ("QSR_SUSPEND_BACKEND", Some(" remote "), Ok(Some(BackendKind::Remote))),
        ("QSR_SUSPEND_BACKEND", Some("tape"), Err(())),
        ("QSR_SUSPEND_BACKEND", Some("Local "), Err(())),
        ("QSR_SUSPEND_BACKEND", Some(""), Err(())),
    ];
    for (name, raw, expected) in table {
        let got = parse_env_value::<BackendKind>(name, *raw);
        match expected {
            Ok(v) => assert_eq!(got.as_ref().ok(), Some(v), "{name}={raw:?}"),
            Err(()) => {
                let msg = got.expect_err(&format!("{name}={raw:?} must hard-error"));
                assert!(msg.contains(name), "error {msg:?} must name {name}");
            }
        }
    }
    let msg = parse_env_value::<BackendKind>("QSR_SUSPEND_BACKEND", Some("tape")).unwrap_err();
    assert!(
        msg.contains("local") && msg.contains("memory") && msg.contains("remote"),
        "error {msg:?} must list the valid backends"
    );
}

#[test]
fn string_knobs_reject_empty_values() {
    // QSR_TRACE / QSR_ORACLE_CASE parse as strings: anything non-empty is
    // valid, but an empty value is still the "typo, not unset" hard error.
    assert_eq!(
        parse_env_value::<String>("QSR_TRACE", Some("/tmp/t.jsonl")),
        Ok(Some("/tmp/t.jsonl".to_string()))
    );
    let msg = parse_env_value::<String>("QSR_TRACE", Some("")).expect_err("empty must error");
    assert!(msg.contains("QSR_TRACE"), "error {msg:?} must name QSR_TRACE");
    assert_eq!(parse_env_value::<String>("QSR_ORACLE_CASE", None), Ok(None));
}
