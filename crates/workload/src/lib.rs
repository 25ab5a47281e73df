//! # qsr-workload
//!
//! Synthetic table generators for the paper's experiments:
//!
//! * uniform tables with random unique integer keys and fixed-width
//!   payloads (the paper's R, S, T: 200-byte tuples),
//! * the two-regime *skewed* table of Figure 12 (a filter predicate
//!   selects 1-in-10 tuples over the first ~2/3 of the table and 9-in-10
//!   over the rest, for an effective selectivity of 0.385),
//! * presorted tables (Example 10 assumes S is already sorted on the join
//!   column).
//!
//! Every generator registers the table in the database catalog and can
//! optionally build a sorted index on a column (for index NLJ).
//!
//! The *filter trick*: experiments sweep "filter selectivity". To make a
//! predicate with exact selectivity `s`, each row carries a `sel` column
//! holding a deterministic pseudo-random value in `0..1000`; the predicate
//! `sel < 1000*s` then selects the desired fraction, uniformly spread.

#![forbid(unsafe_code)]

pub mod corpus;
pub mod gen;

pub use corpus::{case_by_name, cases, populate, populate_with, OracleCase, SkewProfile};
pub use gen::{
    build_index, generate_skewed_table, generate_table, KeyDist, TableSpec, SKEW_SEL_HIGH,
    SKEW_SEL_LOW, SKEW_SWITCH_FRACTION,
};
