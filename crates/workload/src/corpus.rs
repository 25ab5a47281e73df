//! Deterministic query corpus for the differential suspend-point oracle.
//!
//! Each case is a small plan over tiny fixed-seed tables, sized so that an
//! exhaustive stride-1 suspend-point sweep (one suspend/resume per work
//! unit) stays affordable in CI while still driving every operator through
//! its interesting states: the block-NLJ outer buffer refills three times,
//! the sort spills multiple runs, the hash join spills partitions, the
//! hybrid partition stays resident, and the aggregates cross group
//! boundaries. The corpus spans all six stateful operators — block NLJ,
//! index NLJ, sort, merge join, hash join, hash aggregate — plus the
//! pass-through ones (filter, project, streaming aggregate, distinct) as
//! composites.

use crate::gen::{build_index, generate_table, KeyDist, TableSpec};
use qsr_exec::{AggFn, PlanSpec, Predicate};
use qsr_storage::{Database, Result};
use std::sync::Arc;

/// One oracle workload: a named deterministic plan over the corpus tables.
pub struct OracleCase {
    /// Stable case name, used in repro tokens (`QSR_ORACLE_CASE=<name>`).
    pub name: &'static str,
    /// The plan to execute.
    pub plan: PlanSpec,
}

/// Key-distribution profile for the grace/multipass tables (`ga`, `gb`,
/// `gc`). Only those tables vary: the legacy `o*` tables are identical
/// under every profile, so pre-existing cases keep their goldens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SkewProfile {
    /// Duplicate-heavy build side (the depth-forcing default: the hot key
    /// never splits, so recursion bottoms out in the NLJ fallback).
    #[default]
    Default,
    /// Zipf-skewed join keys on both sides.
    Zipf,
    /// Duplicate-heavy keys on both sides.
    Dup,
    /// Reverse-sorted keys (adversarial run formation for sort; unique
    /// keys for the join).
    Rev,
}

/// Generate the corpus tables (fixed seeds; fully deterministic) and the
/// index the index-NLJ case probes. Safe to call on any fresh database.
pub fn populate(db: &Arc<Database>) -> Result<()> {
    populate_with(db, SkewProfile::Default)
}

/// [`populate`] with an explicit skew profile for the grace tables.
pub fn populate_with(db: &Arc<Database>, profile: SkewProfile) -> Result<()> {
    // `oa` is the driving table; `ob` joins it on overlapping keys (both
    // key sets are permutations of a 0-based range, so ob's 20 keys all
    // match); `oc` is presorted for the merge-join's right side.
    generate_table(db, &TableSpec::new("oa", 48).payload(24).seed(11))?;
    generate_table(db, &TableSpec::new("ob", 20).payload(24).seed(12))?;
    generate_table(db, &TableSpec::new("oc", 16).payload(24).seed(13).sorted())?;
    build_index(db, "ob", 0)?;
    // Grace tables: `gb` builds against `ga` in the recursive-spill join;
    // `gc` feeds the multi-pass sort (60 rows / buffer 6 → 10 sublists).
    let (ga_dist, gb_dist, gc_dist) = match profile {
        SkewProfile::Default => (KeyDist::Unique, KeyDist::DupHeavy, KeyDist::Unique),
        SkewProfile::Zipf => (KeyDist::Zipf, KeyDist::Zipf, KeyDist::Zipf),
        SkewProfile::Dup => (KeyDist::DupHeavy, KeyDist::DupHeavy, KeyDist::Unique),
        SkewProfile::Rev => (KeyDist::Reversed, KeyDist::Unique, KeyDist::Reversed),
    };
    generate_table(db, &TableSpec::new("ga", 54).payload(24).seed(14).dist(ga_dist))?;
    generate_table(db, &TableSpec::new("gb", 27).payload(24).seed(15).dist(gb_dist))?;
    generate_table(db, &TableSpec::new("gc", 60).payload(24).seed(16).dist(gc_dist))?;
    Ok(())
}

fn scan(table: &str) -> Box<PlanSpec> {
    Box::new(PlanSpec::TableScan {
        table: table.into(),
    })
}

fn sel_filter(table: &str, value: i64) -> Box<PlanSpec> {
    Box::new(PlanSpec::Filter {
        input: scan(table),
        predicate: Predicate::IntLt { col: 1, value },
    })
}

/// The oracle cases. Names are stable across versions: repro tokens embed
/// them, so renaming a case invalidates recorded repros.
pub fn cases() -> Vec<OracleCase> {
    vec![
        OracleCase {
            name: "block-nlj",
            plan: PlanSpec::BlockNlj {
                outer: sel_filter("oa", 700),
                inner: scan("ob"),
                outer_key: 0,
                inner_key: 0,
                buffer_tuples: 12,
            },
        },
        OracleCase {
            name: "index-nlj",
            plan: PlanSpec::IndexNlj {
                outer: sel_filter("oa", 700),
                inner_table: "ob".into(),
                outer_key: 0,
                inner_key: 0,
            },
        },
        OracleCase {
            name: "sort",
            plan: PlanSpec::Sort {
                input: Box::new(PlanSpec::Project {
                    input: scan("oa"),
                    columns: vec![1, 0],
                }),
                key: 0,
                buffer_tuples: 12,
            },
        },
        OracleCase {
            name: "merge-join",
            plan: PlanSpec::MergeJoin {
                left: Box::new(PlanSpec::Sort {
                    input: scan("oa"),
                    key: 0,
                    buffer_tuples: 16,
                }),
                // `oc` is presorted on its key: exercises the sorted-scan
                // path on one side while the other resumes mid-sort.
                right: scan("oc"),
                left_key: 0,
                right_key: 0,
            },
        },
        OracleCase {
            name: "hash-join",
            plan: PlanSpec::HashJoin {
                build: scan("ob"),
                probe: scan("oa"),
                build_key: 0,
                probe_key: 0,
                partitions: 3,
                hybrid: true,
            },
        },
        OracleCase {
            // A stateful parent over the hybrid join: the sort's contract
            // on the join is signed once, then the join emits inline
            // partition-0 matches all through its probe phase — the
            // window where a dump of the join's current state cannot
            // regenerate what the sort would redo.
            name: "sort-over-hybrid-join",
            plan: PlanSpec::Sort {
                input: Box::new(PlanSpec::HashJoin {
                    build: scan("ob"),
                    probe: scan("oa"),
                    build_key: 0,
                    probe_key: 0,
                    partitions: 3,
                    hybrid: true,
                }),
                key: 0,
                buffer_tuples: 64,
            },
        },
        OracleCase {
            name: "hash-agg",
            plan: PlanSpec::HashAgg {
                input: scan("oa"),
                group_col: 1,
                agg_col: 0,
                func: AggFn::Sum,
                partitions: 3,
            },
        },
        OracleCase {
            name: "stream-agg",
            plan: PlanSpec::StreamAgg {
                input: Box::new(PlanSpec::Sort {
                    input: scan("oa"),
                    key: 1,
                    buffer_tuples: 12,
                }),
                group_col: Some(1),
                agg_col: 0,
                func: AggFn::Max,
            },
        },
        OracleCase {
            // Recursive grace hash join: budget 3 over a duplicate-heavy
            // 27-row build forces spills at levels 0 and 1 and the
            // block-NLJ fallback at depth 2.
            name: "grace-join-deep",
            plan: PlanSpec::MemoryBudget {
                input: Box::new(PlanSpec::HashJoin {
                    build: scan("gb"),
                    probe: scan("ga"),
                    build_key: 0,
                    probe_key: 0,
                    partitions: 3,
                    hybrid: false,
                }),
                mem_budget: 3,
                merge_fanin: 0,
            },
        },
        OracleCase {
            // Multi-pass external sort: 60 rows at buffer 6 flush 10
            // sublists; fan-in 2 needs ≥ 3 intermediate merge passes
            // before the final merge.
            name: "multipass-sort",
            plan: PlanSpec::MemoryBudget {
                input: Box::new(PlanSpec::Sort {
                    input: scan("gc"),
                    key: 0,
                    buffer_tuples: 6,
                }),
                mem_budget: 0,
                merge_fanin: 2,
            },
        },
        OracleCase {
            name: "distinct",
            plan: PlanSpec::Distinct {
                input: Box::new(PlanSpec::Sort {
                    input: Box::new(PlanSpec::Project {
                        input: scan("ob"),
                        columns: vec![1],
                    }),
                    key: 0,
                    buffer_tuples: 8,
                }),
            },
        },
    ]
}

/// Look up a case by name (repro-token replay).
pub fn case_by_name(name: &str) -> Option<OracleCase> {
    cases().into_iter().find(|c| c.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsr_exec::QueryExecution;
    use qsr_storage::Tuple;

    struct TempDir(std::path::PathBuf);
    impl TempDir {
        fn new() -> Self {
            static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
            let p = std::env::temp_dir().join(format!(
                "qsr-corpus-test-{}-{}",
                std::process::id(),
                N.fetch_add(1, std::sync::atomic::Ordering::SeqCst)
            ));
            std::fs::create_dir_all(&p).unwrap();
            TempDir(p)
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn run_all(dir: &std::path::Path) -> Vec<(String, Vec<Tuple>)> {
        let db = Database::open_default(dir).unwrap();
        populate(&db).unwrap();
        cases()
            .into_iter()
            .map(|c| {
                let mut exec = QueryExecution::start(db.clone(), c.plan).unwrap();
                let (rows, done) = exec.run().unwrap();
                assert!(done, "case {} must finish uninterrupted", c.name);
                assert!(!rows.is_empty(), "case {} produced no output", c.name);
                (c.name.to_string(), rows)
            })
            .collect()
    }

    #[test]
    fn corpus_runs_and_is_deterministic_across_databases() {
        let d1 = TempDir::new();
        let d2 = TempDir::new();
        assert_eq!(run_all(&d1.0), run_all(&d2.0));
    }

    #[test]
    fn case_names_are_unique_and_resolvable() {
        let names: Vec<_> = cases().iter().map(|c| c.name).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
        for n in names {
            assert!(case_by_name(n).is_some());
        }
        assert!(case_by_name("no-such-case").is_none());
    }
}
