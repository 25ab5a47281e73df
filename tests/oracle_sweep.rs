//! Differential suspend-point oracle driver.
//!
//! Every corpus query is run twice — once uninterrupted (the golden run),
//! once under interference — and the delivered tuple sequences must be
//! bit-identical. Three interference families:
//!
//! 1. an exhaustive sweep suspending at every `QSR_ORACLE_STRIDE`-th
//!    work-unit boundary (default 1: *every* boundary) under every
//!    pool × writers configuration,
//! 2. multi-suspend chains (suspend → resume → suspend …) to depth 3,
//! 3. `QSR_ORACLE_FAULTS` randomized fault schedules (default 32; seeded,
//!    no wall-clock entropy) striking the suspend or resume phase,
//! 4. a vectorized batch-mode lane (`batch=` token axis) re-running the
//!    sweep and chains through `next_batch` against the tuple-mode golden;
//!    `QSR_ORACLE_FULL=1` widens the batch sizes to {1, 7, 64, 1024}.
//!
//! On failure the harness prints a repro line
//! (`QSR_ORACLE_SEED=… QSR_ORACLE_CASE='…'`), greedily shrinks the
//! scenario, prints the minimized token, and panics. Replaying: set
//! `QSR_ORACLE_CASE` to a printed token and rerun this test — only the
//! replay runs, everything else skips. `QSR_ORACLE_FULL=1` widens the
//! fault budget and chain coverage for a nightly-style run.

use qsr::oracle::{shrink, Mode, Oracle, Policy, Scenario, SkewProfile};
use qsr::storage::{splitmix64, BackendKind, FaultSchedule};

const DEFAULT_SEED: u64 = 0x0D1F_F5EE;

struct Config {
    seed: u64,
    stride: u64,
    faults: u64,
    full: bool,
    replay: Option<String>,
}

fn config() -> Config {
    // Hard-error parsing: a malformed QSR_ORACLE_* value must abort the
    // run naming the variable, never silently fall back to a default.
    let full = qsr::storage::env_flag("QSR_ORACLE_FULL").unwrap_or(false);
    Config {
        seed: qsr::storage::env_parse("QSR_ORACLE_SEED").unwrap_or(DEFAULT_SEED),
        stride: qsr::storage::env_parse("QSR_ORACLE_STRIDE").unwrap_or(1).max(1),
        faults: qsr::storage::env_parse("QSR_ORACLE_FAULTS")
            .unwrap_or(if full { 128 } else { 32 }),
        full,
        replay: qsr::storage::env_parse::<String>("QSR_ORACLE_CASE"),
    }
}

/// The pool-pages × dump-writers matrix every family covers.
const CONFIGS: [(usize, usize); 4] = [(0, 0), (0, 4), (64, 0), (64, 4)];

/// Report a failing scenario: print the repro token, shrink, print the
/// minimized token, panic.
fn fail_with_repro(oracle: &mut Oracle, s: &Scenario, seed: u64, err: &str) -> ! {
    eprintln!("oracle failure: {err}");
    eprintln!("repro: QSR_ORACLE_SEED={seed} QSR_ORACLE_CASE='{s}' cargo test --release --test oracle_sweep");
    let min = shrink(oracle, s);
    if min != *s {
        eprintln!("minimized: QSR_ORACLE_SEED={seed} QSR_ORACLE_CASE='{min}'");
    }
    panic!("oracle scenario failed: {min}");
}

fn check_or_die(oracle: &mut Oracle, s: &Scenario, seed: u64) {
    if let Err(e) = oracle.check(s) {
        fail_with_repro(oracle, s, seed, &e);
    }
}

/// Replay a single scenario token from the environment. When
/// `QSR_ORACLE_CASE` is unset this test is a no-op; when set, the other
/// oracle tests skip and only the replay runs.
#[test]
fn replay_repro_token() {
    let cfg = config();
    let Some(token) = cfg.replay else { return };
    let s: Scenario = token
        .parse()
        .unwrap_or_else(|e| panic!("bad QSR_ORACLE_CASE token {token:?}: {e}"));
    let mut oracle = Oracle::new();
    check_or_die(&mut oracle, &s, cfg.seed);
}

#[test]
fn exhaustive_suspend_point_sweep() {
    let cfg = config();
    if cfg.replay.is_some() {
        return;
    }
    let mut oracle = Oracle::new();
    for case in qsr::workload::cases() {
        let total = oracle
            .total_work_units(case.name)
            .unwrap_or_else(|e| panic!("golden run of {}: {e}", case.name));
        for (pool_pages, dump_writers) in CONFIGS {
            let mut boundary = 1;
            while boundary <= total {
                // Alternate policies across the sweep so both the
                // all-dump and the MIP-optimized suspend paths see every
                // region of the boundary space.
                let policy = if boundary % 2 == 0 {
                    Policy::Optimized
                } else {
                    Policy::Dump
                };
                let s = Scenario {
                    case: case.name.to_string(),
                    pool_pages,
                    dump_writers,
                    batch: 0,
                    mem_budget: 0,
                    merge_fanin: 0,
                    skew: SkewProfile::Default,
                    policy,
                    quota: None,
                    backend: Default::default(),
                    delta: false,
                    keep: 1,
                    mode: Mode::Sweep { boundary },
                };
                check_or_die(&mut oracle, &s, cfg.seed);
                boundary += cfg.stride;
            }
        }
    }
}

#[test]
fn multi_suspend_chains_to_depth_three() {
    let cfg = config();
    if cfg.replay.is_some() {
        return;
    }
    let mut oracle = Oracle::new();
    let configs: &[(usize, usize)] = if cfg.full { &CONFIGS } else { &[(0, 0), (64, 4)] };
    for case in qsr::workload::cases() {
        let total = oracle.total_work_units(case.name).unwrap();
        let step = (total / 4).max(1);
        // Fixed chains splitting the query into roughly equal segments,
        // plus one seeded-random chain per case.
        let mut chains = vec![vec![step, step], vec![step, step, step]];
        let mut x = cfg.seed ^ splitmix64(case.name.len() as u64);
        let mut next = move || {
            x = splitmix64(x);
            x
        };
        chains.push(vec![
            1 + next() % total.max(1),
            1 + next() % step,
            1 + next() % step,
        ]);
        for (pool_pages, dump_writers) in configs.iter().copied() {
            for boundaries in &chains {
                let s = Scenario {
                    case: case.name.to_string(),
                    pool_pages,
                    dump_writers,
                    batch: 0,
                    mem_budget: 0,
                    merge_fanin: 0,
                    skew: SkewProfile::Default,
                    policy: if boundaries.len() % 2 == 0 {
                        Policy::Optimized
                    } else {
                        Policy::Dump
                    },
                    quota: None,
                    backend: Default::default(),
                    delta: false,
                    keep: 1,
                    mode: Mode::Chain {
                        boundaries: boundaries.clone(),
                    },
                };
                check_or_die(&mut oracle, &s, cfg.seed);
            }
        }
    }
}

/// Vectorized-execution family: the exhaustive suspend-point sweep again,
/// but with the interfered run (and every recovery re-execution) driven
/// through `next_batch` while the golden stays tuple-at-a-time. Batch
/// sizes are deliberately odd so suspend boundaries land *mid-batch* at
/// every possible alignment — the contract under test is that operators
/// fully process any consumed batch and surface the suspend on the next
/// pull, so delivered output is bit-identical to the scalar path no
/// matter where inside a batch the request lands.
#[test]
fn batch_mode_suspend_point_sweep() {
    let cfg = config();
    if cfg.replay.is_some() {
        return;
    }
    let mut oracle = Oracle::new();
    let batches: &[usize] = if cfg.full { &[1, 7, 64, 1024] } else { &[7, 64] };
    for case in qsr::workload::cases() {
        let total = oracle
            .total_work_units(case.name)
            .unwrap_or_else(|e| panic!("golden run of {}: {e}", case.name));
        for &batch in batches {
            let mut boundary = 1;
            while boundary <= total {
                let policy = if boundary % 2 == 0 {
                    Policy::Optimized
                } else {
                    Policy::Dump
                };
                let s = Scenario {
                    case: case.name.to_string(),
                    pool_pages: 0,
                    dump_writers: 0,
                    batch,
                    mem_budget: 0,
                    merge_fanin: 0,
                    skew: SkewProfile::Default,
                    policy,
                    quota: None,
                    backend: Default::default(),
                    delta: false,
                    keep: 1,
                    mode: Mode::Sweep { boundary },
                };
                check_or_die(&mut oracle, &s, cfg.seed);
                boundary += cfg.stride;
            }
        }
    }
}

/// The sort-over-hybrid-join regression: every boundary (always stride 1)
/// under all three policies, tuple and batch-48 lanes. Between the sort's
/// contract signing and the end of the join's probe phase the hybrid join
/// has emitted inline partition-0 matches that only a GoBack regenerates;
/// an Optimized plan pairing `Sort: GoBack` with `HashJoin: Dump` there
/// resumed with those tuples missing. The bare budget-less hybrid join
/// rides the same sweep: every suspend point of the partition task walk,
/// in both lanes of its one shared step.
#[test]
fn sort_over_hybrid_join_every_policy_and_lane() {
    let cfg = config();
    if cfg.replay.is_some() {
        return;
    }
    let mut oracle = Oracle::new();
    for case in ["sort-over-hybrid-join", "hash-join"] {
        let total = oracle
            .total_work_units(case)
            .unwrap_or_else(|e| panic!("golden run of {case}: {e}"));
        for policy in [Policy::Dump, Policy::GoBack, Policy::Optimized] {
            for batch in [0, 48] {
                for boundary in 1..=total {
                    let s = Scenario {
                        case: case.to_string(),
                        pool_pages: 0,
                        dump_writers: 0,
                        batch,
                        mem_budget: 0,
                        merge_fanin: 0,
                        skew: SkewProfile::Default,
                        policy,
                        quota: None,
                        backend: Default::default(),
                        delta: false,
                        keep: 1,
                        mode: Mode::Sweep { boundary },
                    };
                    check_or_die(&mut oracle, &s, cfg.seed);
                }
            }
        }
    }
}

/// Batch-mode chains: suspend → resume → suspend with every segment
/// executing vectorized, so resumed operators are re-driven through
/// `next_batch` from restored row-oriented state.
#[test]
fn batch_mode_multi_suspend_chains() {
    let cfg = config();
    if cfg.replay.is_some() {
        return;
    }
    let mut oracle = Oracle::new();
    for case in qsr::workload::cases() {
        let total = oracle.total_work_units(case.name).unwrap();
        let step = (total / 4).max(1);
        for (batch, boundaries) in [(7, vec![step, step]), (64, vec![step, step, step])] {
            let s = Scenario {
                case: case.name.to_string(),
                pool_pages: 64,
                dump_writers: 4,
                batch,
                mem_budget: 0,
                merge_fanin: 0,
                skew: SkewProfile::Default,
                policy: Policy::Optimized,
                quota: None,
                backend: Default::default(),
                delta: false,
                keep: 1,
                mode: Mode::Chain { boundaries },
            };
            check_or_die(&mut oracle, &s, cfg.seed);
        }
    }
}

/// Backend × delta × retention family: multi-suspend chains (the only
/// mode where delta frames and the retention window actually build up)
/// across every suspend backend, with delta checkpointing on and a
/// keep-last-2 window, so every resume replays chained frames whose
/// ancestors the retention GC must have preserved. The memory backend
/// resumes through the same handle (its state dies with the process by
/// design); local and remote resume through a fresh handle like every
/// other scenario.
#[test]
fn backend_delta_retention_chains() {
    let cfg = config();
    if cfg.replay.is_some() {
        return;
    }
    let mut oracle = Oracle::new();
    let cases: &[&str] = if cfg.full {
        &["sort", "hash-join", "hash-agg", "distinct", "merge-join"]
    } else {
        &["sort", "hash-join"]
    };
    for case in cases {
        let total = oracle
            .total_work_units(case)
            .unwrap_or_else(|e| panic!("golden run of {case}: {e}"));
        let step = (total / 4).max(1);
        for backend in [BackendKind::Local, BackendKind::Memory, BackendKind::Remote] {
            for (delta, keep) in [(true, 1), (true, 2), (false, 3)] {
                let s = Scenario {
                    case: case.to_string(),
                    pool_pages: 0,
                    dump_writers: 0,
                    batch: 0,
                    mem_budget: 0,
                    merge_fanin: 0,
                    skew: SkewProfile::Default,
                    policy: Policy::Dump,
                    quota: None,
                    backend,
                    delta,
                    keep,
                    mode: Mode::Chain {
                        boundaries: vec![step, step, step],
                    },
                };
                check_or_die(&mut oracle, &s, cfg.seed);
            }
        }
    }
}

/// Disk-pressure family: sweep quota headrooms from "nothing fits" (clean
/// abort + rerun) through "only the cheapest rungs fit" up to "everything
/// fits", at the MIP-optimized policy whose ladder has all four rungs.
/// Every headroom must deliver golden output — via a committed suspend at
/// whatever rung the quota admits, or via clean abort and re-execution.
#[test]
fn degradation_ladder_quota_sweep() {
    let cfg = config();
    if cfg.replay.is_some() {
        return;
    }
    let mut oracle = Oracle::new();
    const PAGE: u64 = 4096;
    let headrooms: &[u64] = &[0, PAGE, 2 * PAGE, 4 * PAGE, 16 * PAGE, 64 * PAGE, 1024 * PAGE];
    for case in qsr::workload::cases() {
        let total = oracle
            .total_work_units(case.name)
            .unwrap_or_else(|e| panic!("golden run of {}: {e}", case.name));
        let boundary = (total / 2).max(1);
        for &headroom in headrooms {
            for policy in [Policy::Optimized, Policy::Dump] {
                let s = Scenario {
                    case: case.name.to_string(),
                    pool_pages: 0,
                    dump_writers: 0,
                    batch: 0,
                    mem_budget: 0,
                    merge_fanin: 0,
                    skew: SkewProfile::Default,
                    policy,
                    quota: Some(headroom),
                    backend: Default::default(),
                    delta: false,
                    keep: 1,
                    mode: Mode::Sweep { boundary },
                };
                check_or_die(&mut oracle, &s, cfg.seed);
            }
        }
    }
}

/// Scripted `NoSpace` at every write ordinal of the suspend phase: rung 0
/// loses exactly one write (the fault is one-shot), so the ladder steps
/// down once and the next rung — salvaging rung 0's valid blobs — must
/// still commit a resumable suspend that delivers golden output.
#[test]
fn scripted_nospace_at_every_suspend_write() {
    let cfg = config();
    if cfg.replay.is_some() {
        return;
    }
    let mut oracle = Oracle::new();
    // hash-join and hash-agg pin the in-place partition-writer sealing:
    // a NoSpace on the first suspend write once lost the unflushed tail
    // page, and the retry rung committed a run set missing tuples.
    for case in ["sort", "hash-join", "hash-agg"] {
        let total = oracle
            .total_work_units(case)
            .unwrap_or_else(|e| panic!("golden run of {case}: {e}"));
        let boundary = (total / 2).max(1);
        let shape = Scenario {
            case: case.to_string(),
            pool_pages: 0,
            dump_writers: 0,
            batch: 0,
            mem_budget: 0,
            merge_fanin: 0,
            skew: SkewProfile::Default,
            policy: Policy::Optimized,
            quota: None,
            backend: Default::default(),
            delta: false,
            keep: 1,
            mode: Mode::Fault {
                boundary,
                during_resume: false,
                schedule: FaultSchedule::default(),
            },
        };
        let (writes, _) = oracle
            .probe_fault_windows(&shape, boundary, false)
            .unwrap_or_else(|e| panic!("nospace probe [{shape}]: {e}"));
        for ord in 1..=writes.max(1) {
            let s = Scenario {
                mode: Mode::Fault {
                    boundary,
                    during_resume: false,
                    schedule: FaultSchedule {
                        write_fault: Some((ord, qsr::storage::WriteFault::NoSpace)),
                        ..Default::default()
                    },
                },
                ..shape.clone()
            };
            check_or_die(&mut oracle, &s, cfg.seed);
        }
    }
}

/// Larger-than-memory knob variants: explicit `budget=`/`fanin=` tokens
/// overriding the grace cases' own envelopes, crossed with the adversarial
/// skew profiles. Budget 1 forces the deepest partition tree (every
/// recursion level plus the block-NLJ fallback); fan-in 2 over the
/// reversed table maximizes intermediate merge passes. The sweep walks
/// every work-unit boundary, so suspends land mid-partition-spill and
/// mid-merge-pass at every alignment the state machines allow.
const GRACE_VARIANTS: [(&str, u64, u64, SkewProfile); 6] = [
    ("grace-join-deep", 1, 0, SkewProfile::Dup),
    ("grace-join-deep", 2, 0, SkewProfile::Zipf),
    ("grace-join-deep", 5, 0, SkewProfile::Rev),
    ("multipass-sort", 0, 2, SkewProfile::Rev),
    ("multipass-sort", 0, 3, SkewProfile::Zipf),
    ("multipass-sort", 0, 2, SkewProfile::Dup),
];

#[test]
fn grace_memory_knob_sweep() {
    let cfg = config();
    if cfg.replay.is_some() {
        return;
    }
    let mut oracle = Oracle::new();
    // The full lane crosses every boundary with the whole pool × writers ×
    // batch matrix; the quick lane rotates through the matrix across the
    // boundary space so each combination still sees every region.
    let mut combos = Vec::new();
    for (pool_pages, dump_writers) in CONFIGS {
        for batch in [0, 48] {
            combos.push((pool_pages, dump_writers, batch));
        }
    }
    for (case, mem_budget, merge_fanin, skew) in GRACE_VARIANTS {
        let probe = Scenario {
            case: case.to_string(),
            pool_pages: 0,
            dump_writers: 0,
            batch: 0,
            mem_budget,
            merge_fanin,
            skew,
            policy: Policy::Dump,
            quota: None,
            backend: Default::default(),
            delta: false,
            keep: 1,
            mode: Mode::Sweep { boundary: 1 },
        };
        let total = oracle
            .total_work_units_for(&probe)
            .unwrap_or_else(|e| panic!("golden run [{probe}]: {e}"));
        // Quick lane: cap each variant near 96 boundaries; stride-1 under
        // QSR_ORACLE_FULL=1 (or an explicit QSR_ORACLE_STRIDE).
        let stride = if cfg.full {
            cfg.stride
        } else {
            cfg.stride.max(total / 96).max(1)
        };
        let mut boundary = 1;
        let mut turn = 0usize;
        while boundary <= total {
            let policy = if boundary % 2 == 0 {
                Policy::Optimized
            } else {
                Policy::Dump
            };
            let picks: &[(usize, usize, usize)] = if cfg.full {
                &combos
            } else {
                std::slice::from_ref(&combos[turn % combos.len()])
            };
            for &(pool_pages, dump_writers, batch) in picks {
                let s = Scenario {
                    case: case.to_string(),
                    pool_pages,
                    dump_writers,
                    batch,
                    mem_budget,
                    merge_fanin,
                    skew,
                    policy,
                    quota: None,
                    backend: Default::default(),
                    delta: false,
                    keep: 1,
                    mode: Mode::Sweep { boundary },
                };
                check_or_die(&mut oracle, &s, cfg.seed);
            }
            turn += 1;
            boundary += stride;
        }
    }
}

/// Seeded fault schedules against the knobbed grace scenarios: 32 runs
/// whose boundaries are drawn from the whole work-unit space, so faults
/// strike suspends parked mid-recursive-spill and mid-merge-pass, during
/// both the suspend and the resume phase.
#[test]
fn grace_knob_fault_schedules() {
    let cfg = config();
    if cfg.replay.is_some() {
        return;
    }
    let mut oracle = Oracle::new();
    let mut x = cfg.seed ^ 0x6ACE;
    let mut next = move || {
        x = splitmix64(x);
        x
    };
    for i in 0..32u64 {
        let (case, mem_budget, merge_fanin, skew) =
            GRACE_VARIANTS[(next() % GRACE_VARIANTS.len() as u64) as usize];
        let (pool_pages, dump_writers) = CONFIGS[(next() % CONFIGS.len() as u64) as usize];
        let during_resume = next() % 2 == 1;
        let policy = if next() % 2 == 0 { Policy::Dump } else { Policy::Optimized };
        let batch = if next() % 2 == 0 { 0 } else { 48 };
        let shape = Scenario {
            case: case.to_string(),
            pool_pages,
            dump_writers,
            batch,
            mem_budget,
            merge_fanin,
            skew,
            policy,
            quota: None,
            backend: Default::default(),
            delta: false,
            keep: 1,
            mode: Mode::Fault {
                boundary: 1,
                during_resume,
                schedule: FaultSchedule::default(),
            },
        };
        let total = oracle.total_work_units_for(&shape).unwrap();
        let boundary = 1 + next() % total.max(1);
        let shape = Scenario {
            mode: Mode::Fault {
                boundary,
                during_resume,
                schedule: FaultSchedule::default(),
            },
            ..shape
        };
        let (writes, reads) = oracle
            .probe_fault_windows(&shape, boundary, during_resume)
            .unwrap_or_else(|e| panic!("grace fault probe {i} [{shape}]: {e}"));
        let schedule = FaultSchedule::from_seed(cfg.seed.wrapping_add(0x6ACE + i), writes, reads);
        let s = Scenario {
            mode: Mode::Fault {
                boundary,
                during_resume,
                schedule,
            },
            ..shape
        };
        check_or_die(&mut oracle, &s, cfg.seed);
    }
}

#[test]
fn randomized_fault_schedules() {
    let cfg = config();
    if cfg.replay.is_some() {
        return;
    }
    let mut oracle = Oracle::new();
    let cases = qsr::workload::cases();
    let mut x = cfg.seed;
    let mut next = move || {
        x = splitmix64(x);
        x
    };
    for i in 0..cfg.faults {
        let case = &cases[(next() % cases.len() as u64) as usize];
        let total = oracle.total_work_units(case.name).unwrap();
        let (pool_pages, dump_writers) = CONFIGS[(next() % CONFIGS.len() as u64) as usize];
        let during_resume = next() % 2 == 1;
        let boundary = 1 + next() % total.max(1);
        let policy = if next() % 2 == 0 { Policy::Dump } else { Policy::Optimized };
        // One in four randomized fault runs also squeezes the disk: a
        // seeded quota headroom compounds the scripted fault schedule.
        let quota = (next() % 4 == 0).then(|| next() % (256 * 1024));
        let shape = Scenario {
            case: case.name.to_string(),
            pool_pages,
            dump_writers,
            batch: 0,
            mem_budget: 0,
            merge_fanin: 0,
            skew: SkewProfile::Default,
            policy,
            quota,
            backend: Default::default(),
            delta: false,
            keep: 1,
            mode: Mode::Fault {
                boundary,
                during_resume,
                schedule: FaultSchedule::default(),
            },
        };
        // Size the fault windows to the I/O the targeted phase actually
        // issues, so scheduled ordinals usually land inside the phase.
        let (writes, reads) = oracle
            .probe_fault_windows(&shape, boundary, during_resume)
            .unwrap_or_else(|e| panic!("fault probe {i} [{shape}]: {e}"));
        let schedule = FaultSchedule::from_seed(cfg.seed.wrapping_add(i), writes, reads);
        let s = Scenario {
            mode: Mode::Fault {
                boundary,
                during_resume,
                schedule,
            },
            ..shape
        };
        check_or_die(&mut oracle, &s, cfg.seed);
    }
}
