//! Table-driven audit of the hard-error `QSR_*` setting parsing.
//!
//! Every variable the harnesses read funnels through
//! [`qsr_oracle::parse_env_value`] / [`qsr_oracle::parse_env_flag`],
//! which take the raw string instead of reading the environment — so
//! this table covers unset, valid, malformed, and empty values for every
//! setting type without touching the process environment. The contract
//! under test: a malformed value is a hard error whose message names the
//! offending variable, never a silent fall-through to the default.

use qsr_oracle::{parse_env_flag, parse_env_value};
use qsr_storage::BackendKind;

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
        ("QSR_DISK_QUOTA", None, Ok(None)),
        ("QSR_ORACLE_SEED", None, Ok(None)),
        // valid values (whitespace tolerated)
        ("QSR_DISK_QUOTA", Some("1048576"), Ok(Some(1_048_576))),
        ("QSR_DISK_QUOTA", Some(" 65536 "), Ok(Some(65_536))),
        ("QSR_ORACLE_SEED", Some("3735928559"), Ok(Some(0xDEAD_BEEF))),
        ("QSR_ORACLE_FAULTS", Some("128"), Ok(Some(128))),
        ("QSR_ORACLE_STRIDE", Some("7"), Ok(Some(7))),
        // malformed → hard error
        ("QSR_DISK_QUOTA", Some("1e6"), Err(())),
        ("QSR_DISK_QUOTA", Some("-1"), Err(())),
        ("QSR_ORACLE_SEED", Some("0xBEEF"), Err(())),
        // empty → hard error ("QSR_X=" is a typo, not an unset)
        ("QSR_DISK_QUOTA", Some("   "), Err(())),
        ("QSR_ORACLE_FAULTS", Some(""), Err(())),
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

    // QSR_POOL_PAGES (the experiment harness's buffer-pool frames; 0 =
    // uncached passthrough) reads as usize.
    let usize_table: &[Row<usize>] = &[
        ("QSR_POOL_PAGES", None, Ok(None)),
        ("QSR_POOL_PAGES", Some("0"), Ok(Some(0))),
        ("QSR_POOL_PAGES", Some("64"), Ok(Some(64))),
        ("QSR_POOL_PAGES", Some(" 64 "), Ok(Some(64))),
        ("QSR_POOL_PAGES", Some("64k"), Err(())),
        ("QSR_POOL_PAGES", Some("two"), Err(())),
        ("QSR_POOL_PAGES", Some("-1"), Err(())),
        ("QSR_POOL_PAGES", Some(""), Err(())),
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
        ("QSR_SCALE", None, Ok(None)),
        ("QSR_SCALE", Some("1"), Ok(Some(1.0))),
        ("QSR_SCALE", Some("big"), Err(())),
        ("QSR_SUSPEND_DEADLINE", Some("50"), Ok(Some(50.0))),
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
    // Same contract for every flag: QSR_ORACLE_FULL widens the oracle
    // corpus, QSR_NIGHTLY the server stress lanes.
    for knob in ["QSR_ORACLE_FULL", "QSR_NIGHTLY"] {
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
fn backend_names_accept_only_known_backends() {
    // `qsr-server --backend` and the oracle's `backend=` token both parse
    // through BackendKind::from_str: the three shipped backends are
    // valid, anything else is an error that names the valid options.
    let table: &[(&str, Result<BackendKind, ()>)] = &[
        ("local", Ok(BackendKind::Local)),
        ("memory", Ok(BackendKind::Memory)),
        ("remote", Ok(BackendKind::Remote)),
        ("tape", Err(())),
        ("Local", Err(())),
        (" remote ", Err(())),
        ("", Err(())),
    ];
    for (raw, expected) in table {
        match (raw.parse::<BackendKind>(), expected) {
            (Ok(got), Ok(want)) => assert_eq!(got, *want, "--backend {raw:?}"),
            (Err(msg), Err(())) => assert!(
                msg.contains("local") && msg.contains("memory") && msg.contains("remote"),
                "error {msg:?} must list the valid backends"
            ),
            (got, _) => panic!("--backend {raw:?}: unexpected {got:?}"),
        }
    }
    // The oracle's token spelling goes through the same parser.
    let token =
        |backend: &str| format!("case=sort;pool=0;policy=opt;backend={backend};mode=sweep:3");
    let s: qsr_oracle::Scenario = token("memory").parse().unwrap();
    assert_eq!(s.backend, BackendKind::Memory);
    assert!(token("tape").parse::<qsr_oracle::Scenario>().is_err());
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
