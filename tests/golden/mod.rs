//! Golden suspended-query directories: a database directory holding a
//! committed suspend, written once by an older build and checked in, so
//! every later build proves it can still resume what that build stored.
//!
//! `suspend-v3/` was written by `examples/golden_suspend.rs` (the
//! [`write_suspend`] below) at commit fbdca7e, with delta checkpoints on
//! and two generations kept — suspend modes of that build. It holds the
//! layout of that era at its newest: a `SuspendedQuery` v3 frame (it
//! carries delta-chain dependencies), a v2 manifest (a delta chain and a
//! retained generation),
//! a hash join parked in its partition task walk (phase byte 5), columnar
//! `TupleBlock` dump blocks, delta frames, and word-parallel checksums.
//! The query is a merge join of a hash aggregate with a sort over a hash
//! join. It was suspended twice under `AllDump`, with a resume in between,
//! each time while the aggregate, the sort and the join all held in-memory
//! state, so the second suspend chains delta dumps to the first one's.

//!
//! `suspend-v2/` was written by the same example (`--v2`, the
//! [`write_suspend_v2`] below) at commit b0587b5, the last build that
//! wrote columnar dump blocks. It holds the oldest layout that build
//! still wrote: a single suspend, so a `SuspendedQuery` v2 frame (no
//! delta section) under a v1 manifest, and a
//! full — not delta — columnar `TupleBlock` dump of a sort buffer. The
//! query is a merge join of two sorts, suspended once under `AllDump`
//! while the right sort was still reading its input.

//!
//! `suspend-fnv/` was written by the same example (`--fnv`, the
//! [`write_suspend_fnv`] below) at commit cfe96cc, the last build that
//! wrote the hash join's two retired join-phase bytes — 2, the linear
//! partition scan, and 4, the budgeted task walk — and one of the builds
//! that stamped every page trailer and frame with FNV-1a. It holds a
//! `SuspendedQuery` v2 frame under a v1 manifest (a single suspend: no
//! delta chain, nothing retained). The query is a merge join of two hash joins, one
//! without and one under a memory budget, suspended once under `AllDump`
//! while both were streaming their join phase.

//!
//! `suspend-rows/` was written by the same example (`--rows`, the
//! [`write_suspend_rows`] below) at commit 8af0d5f, the last build whose
//! block NLJ, merge join and hash join kept their rows as `Vec<Tuple>`s.
//! It is the current era: this build writes the same layout, so besides
//! resuming it, `tests/golden_resume.rs` writes it again and compares
//! every dump blob byte for byte. It holds a `SuspendedQuery` v3 frame
//! (delta-chain dependencies) under a v2 manifest with a delta chain and
//! nothing retained, row-record dump blocks, delta frames and
//! word-parallel checksums. The query is a merge join of a merge join
//! over a block NLJ with a sort over a hybrid hash join. It was suspended
//! twice under `AllDump`, with a resume in between, each time while the
//! NLJ held its outer buffer, the inner merge join both its value
//! packets, the sort its buffer and the hash join its partition-0 table.

// Each includer uses its own part of this module.
#![allow(dead_code)]

use qsr::core::{OpId, SuspendPolicy};
use qsr::exec::{AggFn, PlanSpec, QueryExecution, SuspendTrigger};
use qsr::storage::{Database, Result};
use qsr::workload::{generate_table, KeyDist, TableSpec};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The checked-in directory of the `SuspendedQuery` v3 era.
pub fn suspend_v3_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/suspend-v3")
}

/// The checked-in directory of the FNV, join-phase-2-and-4 era.
pub fn suspend_fnv_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/suspend-fnv")
}

/// The checked-in directory of the current era.
pub fn suspend_rows_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/suspend-rows")
}

/// The checked-in directory of the `SuspendedQuery` v2 era.
pub fn suspend_v2_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/suspend-v2")
}

/// `MergeJoin(HashAgg(r), Sort(HashJoin{build: s, probe: t}))` on `sel`,
/// operators numbered in preorder: merge join 0, hash aggregate 1, scan
/// of `r` 2, sort 3, hash join 4, scans of `s` and `t` 5 and 6. The
/// one-partition aggregate emits `r`'s `sel` groups (about 860 of 2 000
/// rows) in key order; the sort orders the key-on-key join of `s` and
/// `t` by `s.sel`.
pub fn plan() -> PlanSpec {
    let scan = |table: &str| {
        Box::new(PlanSpec::TableScan {
            table: table.into(),
        })
    };
    PlanSpec::MergeJoin {
        left: Box::new(PlanSpec::HashAgg {
            input: scan("r"),
            group_col: 1,
            agg_col: 0,
            func: AggFn::Sum,
            partitions: 1,
        }),
        right: Box::new(PlanSpec::Sort {
            input: Box::new(PlanSpec::HashJoin {
                build: scan("s"),
                probe: scan("t"),
                build_key: 0,
                probe_key: 0,
                partitions: 4,
                hybrid: false,
            }),
            key: 1,
            buffer_tuples: 100,
        }),
        left_key: 0,
        right_key: 1,
    }
}

/// Create the three 2 000-row tables in a fresh database at `dir`.
pub fn populate(dir: &Path) -> Result<Arc<Database>> {
    let db = Database::open_default(dir)?;
    for (table, seed) in [("r", 41), ("s", 42), ("t", 43)] {
        generate_table(&db, &TableSpec::new(table, 2000).payload(8).seed(seed))?;
    }
    Ok(db)
}

/// Hash-join work units before the first suspend: 2 000 build and 2 000
/// probe rows partitioned, then 1 000 of the 2 000 probe rows of the
/// partition task walk. By then the merge join has pulled the aggregate's
/// first group (all groups are in memory) and is filling the sort (spilled
/// sublists plus a buffer) from the join's task phase. The resumed segment
/// runs 300 more join work units before the second suspend.
const SUSPEND_AFTER_JOIN_TICKS: [u64; 2] = [5000, 300];

/// Populate `dir`, then run [`plan`] through two `AllDump` suspends,
/// reopening the database for the resume in between, so the second
/// suspend chains delta dumps to the first. The merge join has not
/// matched a row at either suspend, so nothing has been delivered:
/// resuming must produce the whole result. (The build that wrote
/// `suspend-v3/` also kept the first generation in the manifest; this
/// build keeps only the newest.)
pub fn write_suspend(dir: &Path) -> Result<()> {
    for (i, n) in SUSPEND_AFTER_JOIN_TICKS.into_iter().enumerate() {
        let mut exec = match i {
            0 => QueryExecution::start(populate(dir)?, plan())?,
            _ => QueryExecution::recover(Database::open_default(dir)?)?
                .expect("the first suspend committed"),
        };
        exec.set_trigger(Some(SuspendTrigger::AfterOpTuples { op: OpId(4), n }));
        let (delivered, done) = exec.run()?;
        assert!(
            !done && delivered.is_empty(),
            "suspend {i} must land inside the sort's input"
        );
        let inputs = exec.suspend_problem().inputs;
        for op in [1, 3, 4] {
            assert!(
                inputs[&OpId(op)].heap_bytes > 0,
                "op {op} must hold in-memory state"
            );
        }
        exec.suspend(&SuspendPolicy::AllDump)?;
    }
    Ok(())
}

/// `MergeJoin(Sort(r), Sort(s))` on the key column, operators numbered in
/// preorder: merge join 0, sort of `r` 1, its scan 2, sort of `s` 3, its
/// scan 4. Each sort writes a sublist every 256 rows.
pub fn plan_v2() -> PlanSpec {
    let sort = |table: &str| {
        Box::new(PlanSpec::Sort {
            input: Box::new(PlanSpec::TableScan {
                table: table.into(),
            }),
            key: 0,
            buffer_tuples: 256,
        })
    };
    PlanSpec::MergeJoin {
        left: sort("r"),
        right: sort("s"),
        left_key: 0,
        right_key: 0,
    }
}

/// Create the two 600-row tables of [`plan_v2`] in a fresh database at
/// `dir`.
pub fn populate_v2(dir: &Path) -> Result<Arc<Database>> {
    let db = Database::open_default(dir)?;
    for (table, seed) in [("r", 51), ("s", 52)] {
        generate_table(&db, &TableSpec::new(table, 600).payload(8).seed(seed))?;
    }
    Ok(db)
}

/// Rows the scan of `s` has delivered at the suspend: the right sort has
/// sealed one sublist and buffers the next 144 rows, while the left sort
/// is merging its three sublists.
pub const SUSPEND_V2_AFTER_S_ROWS: u64 = 400;

/// Populate `dir`, then run [`plan_v2`] to its one `AllDump` suspend.
/// The merge join is still waiting for its first right row, so resuming
/// must produce the whole result.
pub fn write_suspend_v2(dir: &Path) -> Result<()> {
    let mut exec = QueryExecution::start(populate_v2(dir)?, plan_v2())?;
    exec.set_trigger(Some(SuspendTrigger::AfterOpTuples {
        op: OpId(4),
        n: SUSPEND_V2_AFTER_S_ROWS,
    }));
    let (delivered, done) = exec.run()?;
    assert!(
        !done && delivered.is_empty(),
        "the suspend must land inside the right sort's input"
    );
    assert!(
        exec.suspend_problem().inputs[&OpId(3)].heap_bytes > 0,
        "the right sort buffers rows"
    );
    exec.suspend(&SuspendPolicy::AllDump)?;
    Ok(())
}

/// `MergeJoin(HashJoin{build: a, probe: p}, MemoryBudget(HashJoin{build:
/// b, probe: p}))` on the key column, operators numbered in preorder:
/// merge join 0, the unbudgeted hash join 1 and its scans of `a` and `p`
/// 2 and 3, the budgeted hash join 4 and its scans of `b` and `p` 5 and 6
/// (the envelope takes no number). Each join has one partition and probes
/// the presorted `p`, so it emits in key order; every key of `p` meets
/// one row of `a` and one of `b`.
pub fn plan_fnv() -> PlanSpec {
    let join = |build: &str| {
        Box::new(PlanSpec::HashJoin {
            build: Box::new(PlanSpec::TableScan {
                table: build.into(),
            }),
            probe: Box::new(PlanSpec::TableScan { table: "p".into() }),
            build_key: 0,
            probe_key: 0,
            partitions: 1,
            hybrid: false,
        })
    };
    PlanSpec::MergeJoin {
        left: join("a"),
        right: Box::new(PlanSpec::MemoryBudget {
            input: join("b"),
            mem_budget: 1000,
            merge_fanin: 0,
        }),
        left_key: 0,
        right_key: 0,
    }
}

/// Rows in each table of [`plan_fnv`].
pub const SUSPEND_FNV_ROWS: u64 = 250;

/// Create the tables of [`plan_fnv`] in a fresh database at `dir`: `a`
/// and `b` with their keys shuffled, `p` presorted.
pub fn populate_fnv(dir: &Path) -> Result<Arc<Database>> {
    let db = Database::open_default(dir)?;
    for (table, seed) in [("a", 61), ("b", 62)] {
        generate_table(
            &db,
            &TableSpec::new(table, SUSPEND_FNV_ROWS)
                .payload(8)
                .seed(seed),
        )?;
    }
    generate_table(
        &db,
        &TableSpec::new("p", SUSPEND_FNV_ROWS)
            .payload(8)
            .seed(63)
            .sorted(),
    )?;
    Ok(db)
}

/// Budgeted-join work units before the suspend: its build and probe rows
/// partitioned, then 100 probe rows of its join phase. The unbudgeted
/// join, which the merge join pulls in step with it, is as far along.
pub const SUSPEND_FNV_JOIN_TICKS: u64 = 2 * SUSPEND_FNV_ROWS + 100;

/// Populate `dir`, then run [`plan_fnv`] to its one `AllDump` suspend,
/// taken while both hash joins hold their partition's build table in
/// memory.
pub fn write_suspend_fnv(dir: &Path) -> Result<()> {
    let mut exec = QueryExecution::start(populate_fnv(dir)?, plan_fnv())?;
    exec.set_trigger(Some(SuspendTrigger::AfterOpTuples {
        op: OpId(4),
        n: SUSPEND_FNV_JOIN_TICKS,
    }));
    let (delivered, done) = exec.run()?;
    assert!(
        !done && !delivered.is_empty(),
        "the suspend must land inside both join phases"
    );
    let inputs = exec.suspend_problem().inputs;
    for op in [1, 4] {
        assert!(
            inputs[&OpId(op)].heap_bytes > 0,
            "hash join {op} must hold its build table"
        );
    }
    exec.suspend(&SuspendPolicy::AllDump)?;
    Ok(())
}

/// `MergeJoin(MergeJoin(BlockNlj(a, b), c), Sort(HashJoin{hybrid, build:
/// s, probe: t}))` on the key column, operators numbered in preorder:
/// outer merge join 0, inner merge join 1, block NLJ 2 with its scans of
/// `a` and `b` 3 and 4, scan of `c` 5, sort 6, hash join 7 with its scans
/// of `s` and `t` 8 and 9. The NLJ buffers all of `a` (Zipf keys, so a
/// key repeats) in one block and rescans the presorted `b`, so it emits
/// in key order and the inner merge join's left packets hold every `a`
/// row of their key. The hybrid join matches `s.sel` with `t.sel` (a
/// `sel` repeats too) and keeps build partition 0 in memory.
pub fn plan_rows() -> PlanSpec {
    let scan = |table: &str| {
        Box::new(PlanSpec::TableScan {
            table: table.into(),
        })
    };
    PlanSpec::MergeJoin {
        left: Box::new(PlanSpec::MergeJoin {
            left: Box::new(PlanSpec::BlockNlj {
                outer: scan("a"),
                inner: scan("b"),
                outer_key: 0,
                inner_key: 0,
                buffer_tuples: SUSPEND_ROWS_TABLE_ROWS as usize,
            }),
            right: scan("c"),
            left_key: 0,
            right_key: 0,
        }),
        right: Box::new(PlanSpec::Sort {
            input: Box::new(PlanSpec::HashJoin {
                build: scan("s"),
                probe: scan("t"),
                build_key: 1,
                probe_key: 1,
                partitions: 4,
                hybrid: true,
            }),
            key: 0,
            buffer_tuples: 64,
        }),
        left_key: 0,
        right_key: 0,
    }
}

/// Rows in `a`, `b` and `c` of [`plan_rows`]; `s` and `t` have twice as
/// many.
pub const SUSPEND_ROWS_TABLE_ROWS: u64 = 300;

/// Create the five tables of [`plan_rows`] in a fresh database at `dir`.
pub fn populate_rows(dir: &Path) -> Result<Arc<Database>> {
    let db = Database::open_default(dir)?;
    let n = SUSPEND_ROWS_TABLE_ROWS;
    let specs = [
        TableSpec::new("a", n).dist(KeyDist::Zipf).seed(71),
        TableSpec::new("b", n).sorted().seed(72),
        TableSpec::new("c", n).sorted().seed(73),
        TableSpec::new("s", 2 * n).seed(74),
        TableSpec::new("t", 2 * n).seed(75),
    ];
    for spec in specs {
        generate_table(&db, &spec.payload(8))?;
    }
    Ok(db)
}

/// Hash-join work units before each suspend: all of `s` partitioned and
/// half of `t`, then 150 more rows of `t` in the resumed segment. The
/// outer merge join holds the inner one's first row and is filling the
/// sort, which the hash join feeds partition-0 matches while it
/// partitions `t`.
pub const SUSPEND_ROWS_JOIN_TICKS: [u64; 2] = [3 * SUSPEND_ROWS_TABLE_ROWS, 150];

/// Populate `dir`, then run [`plan_rows`] through two `AllDump` suspends,
/// reopening the database for the resume in between, so the second
/// suspend chains delta dumps to the first. Nothing has been delivered at
/// either suspend, so resuming must produce the whole result.
pub fn write_suspend_rows(dir: &Path) -> Result<()> {
    for (i, n) in SUSPEND_ROWS_JOIN_TICKS.into_iter().enumerate() {
        let mut exec = match i {
            0 => QueryExecution::start(populate_rows(dir)?, plan_rows())?,
            _ => QueryExecution::recover(Database::open_default(dir)?)?
                .expect("the first suspend committed"),
        };
        exec.set_trigger(Some(SuspendTrigger::AfterOpTuples { op: OpId(7), n }));
        let (delivered, done) = exec.run()?;
        assert!(
            !done && delivered.is_empty(),
            "suspend {i} must land inside the sort's input"
        );
        let inputs = exec.suspend_problem().inputs;
        for op in [1, 2, 6, 7] {
            assert!(
                inputs[&OpId(op)].heap_bytes > 0,
                "op {op} must hold in-memory state"
            );
        }
        exec.suspend(&SuspendPolicy::AllDump)?;
    }
    Ok(())
}
