//! Hard-error parsing for the `QSR_*` settings the harnesses read.
//!
//! The engine crates read no environment: every engine setting is an
//! API value (`PlanSpec::MemoryBudget`, `Database::install_backend`,
//! `ServerConfig`, `SuspendOptions`). The variables that remain belong
//! to the programs that consume them — `qsr-bench`'s experiment harness
//! (`QSR_SCALE`, `QSR_POOL_PAGES`, `QSR_SUSPEND_DEADLINE`,
//! `QSR_DISK_QUOTA`, `QSR_TRACE`), this oracle (`QSR_TRACE`), its sweep
//! (`QSR_ORACLE_*`) and the server stress lanes (`QSR_NIGHTLY`) — and
//! each is read through these helpers.
//!
//! A malformed value is a hard error that names the variable, never a
//! silent fall-back to the default: a typo like `QSR_POOL_PAGES=64k`
//! must not become an invisible misconfiguration.
//!
//! The parsing core ([`parse_env_value`]) is pure — it takes the raw
//! string instead of reading the environment — so the table-driven test
//! in `crates/oracle/tests/env_knobs.rs` covers every case without
//! touching the process environment.

use std::fmt::Display;
use std::str::FromStr;

/// Parse an environment value. `Ok(None)` when the variable is unset,
/// `Ok(Some(v))` on success, and an `Err` naming the variable when the
/// value is present but malformed. An empty value counts as malformed:
/// `QSR_X=` is a typo, not a way to unset.
pub fn parse_env_value<T>(name: &str, raw: Option<&str>) -> Result<Option<T>, String>
where
    T: FromStr,
    T::Err: Display,
{
    match raw {
        None => Ok(None),
        Some(v) => match v.trim().parse::<T>() {
            Ok(parsed) if !v.trim().is_empty() => Ok(Some(parsed)),
            Ok(_) => Err(format!("invalid {name}: empty value (unset it instead)")),
            Err(e) => Err(format!("invalid {name}={v:?}: {e}")),
        },
    }
}

/// Parse a 0/1 flag. Only `"0"` and `"1"` are accepted; anything else is
/// a hard error naming the variable.
pub fn parse_env_flag(name: &str, raw: Option<&str>) -> Result<Option<bool>, String> {
    match raw {
        None => Ok(None),
        Some("0") => Ok(Some(false)),
        Some("1") => Ok(Some(true)),
        Some(v) => Err(format!("invalid {name}={v:?}: expected 0 or 1")),
    }
}

/// Read and parse `name` from the environment. Panics (a hard error that
/// names the variable) when the value is present but malformed.
pub fn env_parse<T>(name: &str) -> Option<T>
where
    T: FromStr,
    T::Err: Display,
{
    let raw = std::env::var(name).ok();
    match parse_env_value(name, raw.as_deref()) {
        Ok(v) => v,
        Err(e) => panic!("{e}"),
    }
}

/// Read and parse the 0/1 flag `name`. Panics on any other value.
pub fn env_flag(name: &str) -> Option<bool> {
    let raw = std::env::var(name).ok();
    match parse_env_flag(name, raw.as_deref()) {
        Ok(v) => v,
        Err(e) => panic!("{e}"),
    }
}
