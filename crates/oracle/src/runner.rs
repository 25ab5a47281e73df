//! Scenario execution: golden runs, interference, recovery ladders.

use crate::scenario::{Mode, Scenario};
use qsr_exec::QueryExecution;
use qsr_storage::{BackendKind, CostModel, Database, FaultInjector, Tuple};
use qsr_workload::{corpus, SkewProfile};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Seed of every injector the oracle attaches. Torn-write prefix lengths
/// and read-flip bit positions derive from it, so a repro token replays
/// the exact same corruption without carrying the seed along.
pub const FI_SEED: u64 = 0xFA01D;

struct TempDir(PathBuf);
impl TempDir {
    fn new(tag: &str) -> Self {
        static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let p = std::env::temp_dir().join(format!(
            "qsr-oracle-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, std::sync::atomic::Ordering::SeqCst)
        ));
        std::fs::create_dir_all(&p).expect("create oracle temp dir");
        TempDir(p)
    }
}
impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

type OracleResult<T> = Result<T, String>;

fn ctx_err<T>(what: &str, e: impl std::fmt::Display) -> OracleResult<T> {
    Err(format!("{what}: {e}"))
}

/// The oracle: caches golden runs per corpus case and checks scenarios
/// against them.
#[derive(Default)]
pub struct Oracle {
    /// Golden output and total work units of an uninterrupted run, keyed
    /// by everything that shapes the output: case name plus the memory
    /// budget / merge fan-in / skew knobs (output *order* differs under
    /// different spill shapes and key distributions).
    golden: HashMap<String, (Vec<Tuple>, u64)>,
}

fn golden_key(case: &str, mem_budget: u64, merge_fanin: u64, skew: SkewProfile) -> String {
    format!("{case}|b{mem_budget}|f{merge_fanin}|{skew:?}")
}

impl Oracle {
    /// A fresh oracle with an empty golden cache.
    pub fn new() -> Self {
        Self::default()
    }

    fn open(dir: &Path, pool_pages: usize) -> OracleResult<Arc<Database>> {
        let db = Database::open_with_pool(dir, CostModel::default(), pool_pages)
            .map_err(|e| format!("open database: {e}"))?;
        // With QSR_TRACE set, every database handle the oracle opens gets
        // a flight recorder + JSONL sink, so a repro token replays with
        // its trace attached.
        if let Some(path) = crate::env_parse::<PathBuf>("QSR_TRACE") {
            qsr_storage::install_json_tracer(&db, &path)
                .map_err(|e| format!("install tracer: {e}"))?;
        }
        Ok(db)
    }

    /// Fresh database with the corpus loaded (under `skew`) and durably
    /// flushed, so fault ordinals cover only suspend/resume I/O, never the
    /// load.
    fn setup(dir: &Path, pool_pages: usize, skew: SkewProfile) -> OracleResult<Arc<Database>> {
        let db = Self::open(dir, pool_pages)?;
        corpus::populate_with(&db, skew).map_err(|e| format!("populate corpus: {e}"))?;
        db.pool()
            .flush_all()
            .map_err(|e| format!("flush corpus: {e}"))?;
        Ok(db)
    }

    fn plan_of(case: &str) -> OracleResult<qsr_exec::PlanSpec> {
        corpus::case_by_name(case)
            .map(|c| c.plan)
            .ok_or_else(|| format!("unknown corpus case {case:?}"))
    }

    /// The case plan with the scenario's memory knobs applied. Non-zero
    /// scenario knobs override a case's own `MemoryBudget` envelope (so a
    /// `budget=` token re-shapes `grace-join-deep`'s partition tree) and
    /// wrap knob-free plans in a fresh envelope. The knobbed plan travels
    /// inside `SuspendedQuery`, so resume rebuilds identical spill shapes
    /// without re-reading the scenario.
    fn plan_with_knobs(
        case: &str,
        mem_budget: u64,
        merge_fanin: u64,
    ) -> OracleResult<qsr_exec::PlanSpec> {
        use qsr_exec::PlanSpec;
        let plan = Self::plan_of(case)?;
        if mem_budget == 0 && merge_fanin == 0 {
            return Ok(plan);
        }
        Ok(match plan {
            PlanSpec::MemoryBudget {
                input,
                mem_budget: b,
                merge_fanin: f,
            } => PlanSpec::MemoryBudget {
                input,
                mem_budget: if mem_budget != 0 { mem_budget as usize } else { b },
                merge_fanin: if merge_fanin != 0 { merge_fanin as usize } else { f },
            },
            other => PlanSpec::MemoryBudget {
                input: Box::new(other),
                mem_budget: mem_budget as usize,
                merge_fanin: merge_fanin as usize,
            },
        })
    }

    fn plan_for(s: &Scenario) -> OracleResult<qsr_exec::PlanSpec> {
        Self::plan_with_knobs(&s.case, s.mem_budget, s.merge_fanin)
    }

    /// Install the scenario's suspend backend on a handle. A no-op for
    /// `Local` — pre-backend tokens keep their exact legacy I/O.
    fn install(db: &Arc<Database>, s: &Scenario) {
        if s.backend != BackendKind::Local {
            db.install_backend(s.backend);
        }
    }

    /// "Process restart" honoring the backend axis. Local and remote
    /// state lives on disk, so the handle is dropped and the directory
    /// reopened (with the scenario's backend reinstalled). The memory
    /// backend's state lives *in* the handle — by design it dies with the
    /// process — so those scenarios resume through the same handle,
    /// scrubbed of any injector or quota a fresh open wouldn't carry.
    fn reopen(dir: &Path, s: &Scenario, db: Arc<Database>) -> OracleResult<Arc<Database>> {
        if s.backend == BackendKind::Memory {
            db.disk().set_fault_injector(None);
            db.disk().set_quota(None);
            return Ok(db);
        }
        drop(db);
        let db = Self::open(dir, s.pool_pages)?;
        Self::install(&db, s);
        Ok(db)
    }

    /// Golden output of `case` with the knobs off (uninterrupted run),
    /// cached.
    pub fn golden(&mut self, case: &str) -> OracleResult<Vec<Tuple>> {
        self.golden_entry(case, 0, 0, SkewProfile::Default).map(|(t, _)| t)
    }

    /// Golden output under the scenario's budget/fan-in/skew knobs. The
    /// golden run itself is always uninterrupted, pool-free and
    /// tuple-at-a-time — only the knobs that change the *output* feed the
    /// cache key.
    pub fn golden_for(&mut self, s: &Scenario) -> OracleResult<Vec<Tuple>> {
        self.golden_entry(&s.case, s.mem_budget, s.merge_fanin, s.skew)
            .map(|(t, _)| t)
    }

    /// Total work units an uninterrupted knob-free run of `case` ticks —
    /// the sweep space is `1..=total`.
    pub fn total_work_units(&mut self, case: &str) -> OracleResult<u64> {
        self.golden_entry(case, 0, 0, SkewProfile::Default).map(|(_, u)| u)
    }

    /// [`Self::total_work_units`] under the scenario's knobs: recursive
    /// spills and intermediate merge passes tick work units of their own,
    /// so the sweep space grows with the partition tree.
    pub fn total_work_units_for(&mut self, s: &Scenario) -> OracleResult<u64> {
        self.golden_entry(&s.case, s.mem_budget, s.merge_fanin, s.skew)
            .map(|(_, u)| u)
    }

    fn golden_entry(
        &mut self,
        case: &str,
        mem_budget: u64,
        merge_fanin: u64,
        skew: SkewProfile,
    ) -> OracleResult<(Vec<Tuple>, u64)> {
        let key = golden_key(case, mem_budget, merge_fanin, skew);
        if let Some(e) = self.golden.get(&key) {
            return Ok(e.clone());
        }
        let dir = TempDir::new("golden");
        let db = Self::setup(&dir.0, 0, skew)?;
        let plan = Self::plan_with_knobs(case, mem_budget, merge_fanin)?;
        let mut exec = QueryExecution::start(db, plan)
            .map_err(|e| format!("golden start: {e}"))?;
        let tuples = exec
            .run_to_completion()
            .map_err(|e| format!("golden run: {e}"))?;
        if tuples.is_empty() {
            return Err(format!("golden run of {case:?} produced no output"));
        }
        let entry = (tuples, exec.work_units());
        self.golden.insert(key, entry.clone());
        Ok(entry)
    }

    /// Arm the work-unit observer to raise a suspend `b` units from now.
    fn arm(exec: &mut QueryExecution, b: u64) {
        let threshold = exec.work_units() + b.max(1);
        exec.set_work_unit_observer(Some(Box::new(move |_op, seq: u64| seq >= threshold)));
    }

    /// Install the scenario's disk quota immediately before a suspend
    /// attempt: `used_bytes + headroom`, so the headroom is exactly the
    /// space the suspend phase may consume. No-op without a quota. The
    /// caller lifts it (`set_quota(None)`) once the attempt settles so
    /// execution and resume stay unconstrained.
    fn arm_quota(db: &Database, quota: Option<u64>) {
        if let Some(headroom) = quota {
            let dm = db.disk();
            dm.set_quota(Some(dm.used_bytes().saturating_add(headroom)));
        }
    }

    fn diff(s: &Scenario, what: &str, got: &[Tuple], golden: &[Tuple]) -> OracleResult<()> {
        if got == golden {
            return Ok(());
        }
        let first = got
            .iter()
            .zip(golden)
            .position(|(a, b)| a != b)
            .unwrap_or(got.len().min(golden.len()));
        Err(format!(
            "{what}: output diverges from golden run ({} vs {} tuples, first difference at {first}) [{s}]",
            got.len(),
            golden.len(),
        ))
    }

    /// Check one scenario. `Ok(())` means the interfered run delivered the
    /// golden output (or walked a legal recovery ladder that did). The
    /// error string names the first divergence and embeds the repro token.
    pub fn check(&mut self, s: &Scenario) -> OracleResult<()> {
        let golden = self.golden_for(s)?;
        match &s.mode {
            Mode::Sweep { boundary } => self.check_chain(s, &[*boundary], &golden),
            Mode::Chain { boundaries } => self.check_chain(s, boundaries, &golden),
            Mode::Fault {
                boundary,
                during_resume,
                schedule,
            } => self.check_fault(s, *boundary, *during_resume, schedule, &golden),
        }
    }

    /// Suspend at each boundary in turn (fault-free), resuming through a
    /// fresh database handle each time — the "different process" the paper
    /// promises resume works from.
    fn check_chain(
        &mut self,
        s: &Scenario,
        boundaries: &[u64],
        golden: &[Tuple],
    ) -> OracleResult<()> {
        let dir = TempDir::new(&s.case);
        let mut db = Self::setup(&dir.0, s.pool_pages, s.skew)?;
        Self::install(&db, s);
        let plan = Self::plan_for(s)?;
        let mut exec = match QueryExecution::start(db.clone(), plan.clone()) {
            Ok(e) => e,
            Err(e) => return ctx_err("start", e),
        };
        let policy = s.policy.to_suspend_policy();
        let mut collected = Vec::new();
        // Tuples delivered up to the last *committed* suspend — the resume
        // point a clean-aborted later suspend must fall back to.
        let mut committed = 0usize;
        for (i, &b) in boundaries.iter().enumerate() {
            Self::arm(&mut exec, b);
            let (tuples, done) = match exec.run() {
                Ok(r) => r,
                Err(e) => return ctx_err(&format!("segment {i} run [{s}]"), e),
            };
            collected.extend(tuples);
            if done {
                // Boundary beyond the end of the query: the sweep ran off
                // the tail, which is a legal (trivial) scenario.
                return Self::diff(s, &format!("segment {i} ran to completion"), &collected, golden);
            }
            Self::arm_quota(&db, s.quota);
            let suspended = exec.suspend(&policy);
            db.disk().set_quota(None);
            if let Err(e) = suspended {
                if s.quota.is_none() {
                    return ctx_err(&format!("suspend {i} [{s}]"), e);
                }
                // Clean abort under disk pressure. The contract: on-disk
                // state is exactly the pre-suspend state — the previously
                // committed generation, or no suspend at all. Recover from
                // a fresh handle and finish the query from there.
                let db = Self::reopen(&dir.0, s, db)?;
                return match QueryExecution::recover(db.clone()) {
                    Ok(Some(mut resumed)) => {
                        let mut all = collected[..committed].to_vec();
                        match resumed.run_to_completion() {
                            Ok(suffix) => all.extend(suffix),
                            Err(e2) => return ctx_err(&format!("post-abort resume [{s}]"), e2),
                        }
                        Self::diff(
                            s,
                            &format!("prior-generation resume after clean-abort suspend ({e})"),
                            &all,
                            golden,
                        )
                    }
                    Ok(None) if i == 0 => Self::diff(
                        s,
                        &format!("fresh rerun after clean-abort suspend ({e})"),
                        &Self::rerun(db, &plan)?,
                        golden,
                    ),
                    Ok(None) => Err(format!(
                        "clean-abort suspend {i} lost the prior committed generation [{s}]"
                    )),
                    Err(re) => Err(format!(
                        "recovery after clean-abort suspend ({e}) failed: {re} [{s}]"
                    )),
                };
            }
            committed = collected.len();
            db = Self::reopen(&dir.0, s, db)?;
            exec = match QueryExecution::recover(db.clone()) {
                Ok(Some(r)) => r,
                Ok(None) => {
                    return Err(format!(
                        "recover {i}: committed suspend left no manifest [{s}]"
                    ))
                }
                Err(e) => return ctx_err(&format!("recover {i} [{s}]"), e),
            };
        }
        match exec.run_to_completion() {
            Ok(suffix) => collected.extend(suffix),
            Err(e) => return ctx_err(&format!("final segment [{s}]"), e),
        }
        Self::diff(s, "suspend/resume chain", &collected, golden)
    }

    /// One suspend under a scripted fault schedule, then the recovery
    /// ladder: clean recovery must match golden; a typed failure must be
    /// followed by a successful fallback (retry or full re-execution) that
    /// matches golden. Panics and silent divergence are the only failures.
    fn check_fault(
        &mut self,
        s: &Scenario,
        boundary: u64,
        during_resume: bool,
        schedule: &qsr_storage::FaultSchedule,
        golden: &[Tuple],
    ) -> OracleResult<()> {
        let dir = TempDir::new(&s.case);
        let db = Self::setup(&dir.0, s.pool_pages, s.skew)?;
        Self::install(&db, s);
        let plan = Self::plan_for(s)?;
        let mut exec = match QueryExecution::start(db.clone(), plan.clone()) {
            Ok(e) => e,
            Err(e) => return ctx_err("start", e),
        };
        let policy = s.policy.to_suspend_policy();
        Self::arm(&mut exec, boundary);
        let (prefix, done) = match exec.run() {
            Ok(r) => r,
            Err(e) => return ctx_err(&format!("pre-suspend run [{s}]"), e),
        };
        if done {
            return Self::diff(s, "ran to completion before boundary", &prefix, golden);
        }

        if !during_resume {
            // Faults strike the suspend phase (under the scenario's disk
            // quota, when set — pressure and faults compound).
            let fi = Arc::new(FaultInjector::seeded(FI_SEED));
            schedule.apply(&fi);
            db.disk().set_fault_injector(Some(fi));
            Self::arm_quota(&db, s.quota);
            let suspend_ok = exec.suspend(&policy).is_ok();

            // "Process restart": reopen from the directory, injector-free.
            let db = Self::reopen(&dir.0, s, db)?;
            match QueryExecution::recover(db.clone()) {
                Ok(Some(mut resumed)) => {
                    let mut all = prefix;
                    match resumed.run_to_completion() {
                        Ok(suffix) => all.extend(suffix),
                        Err(e) => return ctx_err(&format!("post-recovery run [{s}]"), e),
                    }
                    Self::diff(s, "recovery after suspend-phase fault", &all, golden)
                }
                Ok(None) => {
                    if suspend_ok {
                        return Err(format!(
                            "suspend reported success but recovery sees no manifest [{s}]"
                        ));
                    }
                    // Uncommitted suspend: the query restarts from scratch
                    // and must re-deliver the full golden output.
                    Self::diff(
                        s,
                        "fresh rerun after failed suspend",
                        &Self::rerun(db, &plan)?,
                        golden,
                    )
                }
                Err(resume_err) => {
                    // Typed failure: the contract requires a successful
                    // fallback re-execution from scratch.
                    let _ = qsr_exec::clear_manifest(&db);
                    Self::diff(
                        s,
                        &format!("fallback rerun after typed recovery error ({resume_err})"),
                        &Self::rerun(db, &plan)?,
                        golden,
                    )
                }
            }
        } else {
            // Clean suspend; faults strike the recovery / resume phase.
            Self::arm_quota(&db, s.quota);
            let suspended = exec.suspend(&policy);
            db.disk().set_quota(None);
            if let Err(e) = suspended {
                if s.quota.is_none() {
                    return ctx_err(&format!("clean suspend [{s}]"), e);
                }
                // Disk pressure aborted the suspend before the fault
                // window even opened: the only legal on-disk state is "no
                // suspend", and a fresh rerun must deliver golden.
                let db = Self::reopen(&dir.0, s, db)?;
                return match QueryExecution::recover(db.clone()) {
                    Ok(None) => Self::diff(
                        s,
                        &format!("fresh rerun after clean-abort suspend ({e})"),
                        &Self::rerun(db, &plan)?,
                        golden,
                    ),
                    Ok(Some(_)) => Err(format!(
                        "clean-abort suspend ({e}) left a loadable manifest [{s}]"
                    )),
                    Err(re) => Err(format!(
                        "recovery after clean-abort suspend ({e}): {re} [{s}]"
                    )),
                };
            }

            let db = Self::reopen(&dir.0, s, db)?;
            let fi = Arc::new(FaultInjector::seeded(FI_SEED));
            schedule.apply(&fi);
            db.disk().set_fault_injector(Some(fi));
            let recovered = QueryExecution::recover(db.clone());
            // The fault window is the resume phase only; lift it before
            // the continuation runs.
            db.disk().set_fault_injector(None);
            match recovered {
                Ok(Some(mut resumed)) => {
                    let mut all = prefix;
                    match resumed.run_to_completion() {
                        Ok(suffix) => all.extend(suffix),
                        Err(e) => return ctx_err(&format!("post-resume run [{s}]"), e),
                    }
                    Self::diff(s, "resume under fault schedule", &all, golden)
                }
                Ok(None) => Err(format!(
                    "committed suspend invisible to recovery under read faults [{s}]"
                )),
                Err(resume_err) => {
                    // Typed failure: a clean retry from a fresh process
                    // must succeed — resume never damages the on-disk
                    // suspend state — and the output must match.
                    let db = Self::reopen(&dir.0, s, db)?;
                    let mut resumed = match QueryExecution::recover(db) {
                        Ok(Some(r)) => r,
                        Ok(None) => {
                            return Err(format!(
                                "manifest lost after failed resume ({resume_err}) [{s}]"
                            ))
                        }
                        Err(e) => {
                            return Err(format!(
                                "clean retry after typed resume error ({resume_err}) failed: {e} [{s}]"
                            ))
                        }
                    };
                    let mut all = prefix;
                    match resumed.run_to_completion() {
                        Ok(suffix) => all.extend(suffix),
                        Err(e) => return ctx_err(&format!("retry run [{s}]"), e),
                    }
                    Self::diff(
                        s,
                        &format!("retry after typed resume error ({resume_err})"),
                        &all,
                        golden,
                    )
                }
            }
        }
    }

    fn rerun(db: Arc<Database>, plan: &qsr_exec::PlanSpec) -> OracleResult<Vec<Tuple>> {
        let mut fresh = match QueryExecution::start(db, plan.clone()) {
            Ok(e) => e,
            Err(e) => return ctx_err("fresh rerun start", e),
        };
        fresh
            .run_to_completion()
            .map_err(|e| format!("fresh rerun: {e}"))
    }

    /// Measure how many write and read events the targeted phase of a
    /// fault-mode scenario issues, fault-free. Randomized schedules draw
    /// their ordinals from these windows so most scheduled faults actually
    /// fire instead of landing past the end of the phase.
    pub fn probe_fault_windows(
        &mut self,
        s: &Scenario,
        boundary: u64,
        during_resume: bool,
    ) -> OracleResult<(u64, u64)> {
        let dir = TempDir::new("probe");
        let db = Self::setup(&dir.0, s.pool_pages, s.skew)?;
        Self::install(&db, s);
        let mut exec = QueryExecution::start(db.clone(), Self::plan_for(s)?)
            .map_err(|e| format!("probe start: {e}"))?;
        Self::arm(&mut exec, boundary);
        let (_, done) = exec.run().map_err(|e| format!("probe run: {e}"))?;
        if done {
            return Ok((0, 0));
        }
        let fi = Arc::new(FaultInjector::seeded(FI_SEED));
        if !during_resume {
            db.disk().set_fault_injector(Some(fi.clone()));
            exec.suspend(&s.policy.to_suspend_policy())
                .map_err(|e| format!("probe suspend: {e}"))?;
            return Ok((fi.writes_observed(), fi.reads_observed()));
        }
        exec.suspend(&s.policy.to_suspend_policy())
            .map_err(|e| format!("probe suspend: {e}"))?;
        let db = Self::reopen(&dir.0, s, db)?;
        db.disk().set_fault_injector(Some(fi.clone()));
        let r = QueryExecution::recover(db.clone());
        db.disk().set_fault_injector(None);
        match r {
            Ok(Some(_)) => Ok((fi.writes_observed(), fi.reads_observed())),
            Ok(None) => Err("probe: committed suspend invisible".into()),
            Err(e) => Err(format!("probe recover: {e}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Mode, Policy};

    #[test]
    fn sweep_scenario_passes_on_healthy_code() {
        let mut oracle = Oracle::new();
        let s = Scenario {
            case: "sort".into(),
            pool_pages: 0,
            mem_budget: 0,
            merge_fanin: 0,
            skew: SkewProfile::Default,
            policy: Policy::Dump,
            quota: None,
            backend: Default::default(),
            mode: Mode::Sweep { boundary: 5 },
        };
        oracle.check(&s).unwrap();
    }

    #[test]
    fn boundary_past_end_is_trivially_ok() {
        let mut oracle = Oracle::new();
        let total = oracle.total_work_units("distinct").unwrap();
        let s = Scenario {
            case: "distinct".into(),
            pool_pages: 0,
            mem_budget: 0,
            merge_fanin: 0,
            skew: SkewProfile::Default,
            policy: Policy::Dump,
            quota: None,
            backend: Default::default(),
            mode: Mode::Sweep { boundary: total + 100 },
        };
        oracle.check(&s).unwrap();
    }

    #[test]
    fn zero_headroom_forces_clean_abort_and_rerun() {
        // Headroom 0: even the all-GoBack rung cannot persist its
        // `SuspendedQuery` blob, so the ladder must abort cleanly and the
        // oracle's fresh rerun must still deliver golden output.
        let mut oracle = Oracle::new();
        let s = Scenario {
            case: "sort".into(),
            pool_pages: 0,
            mem_budget: 0,
            merge_fanin: 0,
            skew: SkewProfile::Default,
            policy: Policy::Optimized,
            quota: Some(0),
            backend: Default::default(),
            mode: Mode::Sweep { boundary: 5 },
        };
        oracle.check(&s).unwrap();
    }

    #[test]
    fn generous_headroom_suspends_normally() {
        let mut oracle = Oracle::new();
        let s = Scenario {
            case: "sort".into(),
            pool_pages: 0,
            mem_budget: 0,
            merge_fanin: 0,
            skew: SkewProfile::Default,
            policy: Policy::Optimized,
            quota: Some(64 * 1024 * 1024),
            backend: Default::default(),
            mode: Mode::Sweep { boundary: 5 },
        };
        oracle.check(&s).unwrap();
    }

    #[test]
    fn scenario_knobs_override_the_case_envelope() {
        // grace-join-deep ships budget 3; a budget=5 token must reshape the
        // partition tree (different spill counts → different work-unit
        // totals) rather than double-wrap the plan.
        let mut oracle = Oracle::new();
        let base = Scenario {
            case: "grace-join-deep".into(),
            pool_pages: 0,
            mem_budget: 0,
            merge_fanin: 0,
            skew: SkewProfile::Default,
            policy: Policy::Dump,
            quota: None,
            backend: Default::default(),
            mode: Mode::Sweep { boundary: 4 },
        };
        let widened = Scenario { mem_budget: 9, ..base.clone() };
        let t_base = oracle.total_work_units_for(&base).unwrap();
        let t_wide = oracle.total_work_units_for(&widened).unwrap();
        assert!(
            t_wide < t_base,
            "budget 9 must spill less than the case's own budget 3 \
             ({t_wide} vs {t_base} work units)"
        );
        oracle.check(&widened).unwrap();
    }

    #[test]
    fn skewed_goldens_are_cached_separately() {
        let mut oracle = Oracle::new();
        let base = Scenario {
            case: "multipass-sort".into(),
            pool_pages: 0,
            mem_budget: 0,
            merge_fanin: 0,
            skew: SkewProfile::Default,
            policy: Policy::Dump,
            quota: None,
            backend: Default::default(),
            mode: Mode::Sweep { boundary: 7 },
        };
        let rev = Scenario { skew: SkewProfile::Rev, ..base.clone() };
        let g_base = oracle.golden_for(&base).unwrap();
        let g_rev = oracle.golden_for(&rev).unwrap();
        assert_ne!(g_base, g_rev, "rev skew must regenerate gc");
        oracle.check(&rev).unwrap();
    }
}
