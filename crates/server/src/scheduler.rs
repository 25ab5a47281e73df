//! The preemptive multi-session scheduler.
//!
//! Suspend/resume *is* the scheduler (ROADMAP item 1, SaGe-style web
//! preemption): every admitted session runs for a work-unit quantum, then
//! yields. Sessions beyond the live-slot budget are parked on disk through
//! the ordinary suspend path — the optimizer's suspend-cost estimate picks
//! the cheapest victim — and resumed round-robin, so N sessions share one
//! `Database`/buffer pool with per-tenant fairness accounting.
//!
//! ## The scheduling loop
//!
//! All scheduler state is one slot table (sessions in admission order) and
//! there is one loop over it (`Sched::run`):
//!
//! 1. **claim** the next runnable session at the round-robin cursor;
//! 2. **make room**: while `max_live` sessions already hold in-memory
//!    state, check out the live sessions nobody has claimed, price each
//!    (`victim_signal`, the tree DP's price) and suspend the cheapest to
//!    disk;
//! 3. **activate** the claimed session (start it, or resume its committed
//!    generation) and run one **slice** of `quantum` work units;
//! 4. **put it back**, still live — it is parked only when a later claim
//!    needs its slot and it is the cheapest to suspend.
//!
//! Each time the cursor wraps, queued admissions are re-priced.
//! [`ServerConfig::workers`] only chooses who runs the loop: `0` runs it
//! inline on the caller's thread — one session at a time, every ledger
//! charge in a deterministic order, bit-identical cost journals across
//! runs (the property the oracle and the golden tests pin) — and `N >= 1`
//! runs the same loop on N scoped threads over the shared `Database`. The
//! table's mutex is released across every victim pricing, suspend, resume
//! and slice, so preemption suspends, resumes and degradation-ladder descents
//! of different sessions genuinely overlap; ledger totals stay correct
//! (every counter is atomic or lock-guarded) but per-phase attribution
//! interleaves, so runs with two or more workers are validated by output
//! equality, never ledger equality.
//!
//! `max_live` is a strict bound in both modes: a thread that cannot get a
//! live slot (every live session is claimed by another thread) waits for
//! one to come back, and no new claim is handed out while it waits. At
//! most `min(workers, max_live)` sessions therefore run concurrently.
//!
//! Robustness model, layered on the per-query degradation ladder:
//!
//! - **Preemption is crash-safe**: a victim's suspend commits through its
//!   private generation-numbered manifest; a crash at any write ordinal
//!   leaves every session with exactly one valid generation.
//! - **Clean abort rolls back**: when a victim's suspend exhausts the
//!   ladder (resource pressure), its in-memory execution is gone; the
//!   server rolls the session's delivered-output buffer back to the last
//!   committed generation so re-resuming never duplicates a tuple.
//! - **Server-level shedding**: pressure that defeats even the ladder
//!   sheds the lowest-priority session (clean abort + registry removal)
//!   before starving all tenants.
//! - **Deterministic resume retry**: transient resume failures back off on
//!   the pinned [`RESUME_BACKOFF`] schedule, counted per session.
//! - **Spill reclaim**: a session's run files are deleted when it finishes
//!   or is shed, after its registry entries are retired.
//!
//! ## SLA scheduling and admission control
//!
//! With [`ServerConfig::sla`] set, each tenant gets a suspend-cost budget;
//! every preemption of that tenant derives its `SuspendOptions::deadline`
//! from the budget's unspent remainder, so a tenant whose suspends have
//! already cost a lot gets progressively stricter deadlines (and the
//! degradation ladder admission-skips rungs it can no longer afford). A
//! preemption that commits below the requested rung — or aborts — under a
//! derived deadline counts as an SLA miss for that session.
//!
//! With [`ServerConfig::admission`] set, [`QsrServer::try_admit`] prices a
//! new session's estimated memory against the live victim set
//! (`victim_signal` per live session, the same signal preemption uses) and
//! refuses sessions whose price exceeds the cap: a typed
//! [`StorageError::Overloaded`] rejection, or a parked queue entry that
//! the loop re-prices head-of-line as load drains.

use crate::admission::admission_price;
use crate::registry::{SessionId, SessionMeta, SessionRegistry};
use qsr_core::{SuspendOptimizer, SuspendPolicy};
use qsr_exec::{
    read_manifest_named, reclaim_spill_files, PlanSpec, QueryExecution, ResumeError, Rung,
    SuspendOptions, RESUME_BACKOFF,
};
use qsr_storage::{
    Database, Decode, Encode, FileId, Phase, Result, StorageError, TraceEvent, Tuple,
};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Per-tenant suspend-cost budgets for SLA-aware preemption deadlines.
#[derive(Debug, Clone)]
pub struct SlaConfig {
    /// Budget (in simulated ledger cost units) for tenants with no
    /// explicit entry.
    pub default_budget: f64,
    /// Per-tenant overrides: `(tenant, budget)`.
    pub tenants: Vec<(String, f64)>,
}

impl SlaConfig {
    /// The same budget for every tenant.
    pub fn uniform(budget: f64) -> Self {
        Self {
            default_budget: budget,
            tenants: Vec::new(),
        }
    }

    /// The suspend-cost budget for `tenant`.
    pub fn budget_for(&self, tenant: &str) -> f64 {
        self.tenants
            .iter()
            .find(|(t, _)| t == tenant)
            .map(|(_, b)| *b)
            .unwrap_or(self.default_budget)
    }
}

/// Admission-control policy: price a new session's estimated memory
/// against the cost of preempting live victims to fit it.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Total session memory the server is willing to have live at once,
    /// in estimated tuples ([`PlanSpec::estimated_mem_tuples`] units).
    pub memory_budget: u64,
    /// Maximum acceptable admission price (total `victim_signal` of the
    /// preemptions needed to free the demanded memory).
    pub max_price: f64,
    /// Park rejected sessions on a FIFO queue (re-priced each time the
    /// scheduling cursor wraps) instead of returning a typed
    /// [`StorageError::Overloaded`] error.
    pub queue: bool,
}

/// Outcome of [`QsrServer::try_admit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The session was admitted durably and will be scheduled.
    Admitted(SessionId),
    /// The session was parked on the admission queue (only with
    /// [`AdmissionConfig::queue`] set).
    Queued,
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Work units per scheduling slice. Every `quantum` operator ticks the
    /// running session yields (the paper's suspend exception, raised by a
    /// `WorkUnitObserver`).
    pub quantum: u64,
    /// Live-session slots: how many sessions may hold in-memory execution
    /// state at once, a strict bound whatever `workers` is. Activating a
    /// session beyond this budget first preempts the cheapest-to-suspend
    /// unclaimed live victim to disk.
    pub max_live: usize,
    /// Suspend policy used for preemptions.
    pub policy: SuspendPolicy,
    /// Suspend options used for preemptions.
    pub options: SuspendOptions,
    /// Threads running the scheduling loop. `0` (the default) runs it
    /// inline on the caller's thread, with ledgers bit-identical across
    /// runs; `>= 1` runs the same loop on that many threads, of which at
    /// most `min(workers, max_live)` run slices at once.
    pub workers: usize,
    /// Per-tenant SLA budgets; `None` disables deadline derivation (every
    /// preemption uses `options.deadline` as-is).
    pub sla: Option<SlaConfig>,
    /// Admission control; `None` admits unconditionally.
    pub admission: Option<AdmissionConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            quantum: 2_000,
            max_live: 1,
            policy: SuspendPolicy::Optimized { budget: None },
            options: SuspendOptions::default(),
            workers: 0,
            sla: None,
            admission: None,
        }
    }
}

/// Per-session fairness ledger, reported per tenant.
#[derive(Debug, Clone, Default)]
pub struct FairnessStats {
    /// Scheduling slices this session ran.
    pub quanta: u64,
    /// Work units ticked across all slices.
    pub work_units: u64,
    /// Result tuples delivered.
    pub tuples: u64,
    /// Successful preemption suspends.
    pub suspends: u64,
    /// Successful resumes.
    pub resumes: u64,
    /// Transient-resume retries spent (backoff schedule steps taken).
    pub resume_retries: u64,
    /// Simulated `Phase::Resume` cost of each *successful* resume attempt,
    /// in ledger units (deterministic — no wall clocks). Failed transient
    /// attempts' re-read costs land in `resume_retry_cost`, never here.
    pub resume_cost: Vec<f64>,
    /// Simulated `Phase::Suspend` cost of each successful preemption of
    /// this session (the victim's own park cost).
    pub suspend_cost: Vec<f64>,
    /// Simulated `Phase::Fallback` cost charged to this session's
    /// *preemption decisions*: when preempting a victim to make room for
    /// this session descends the degradation ladder, the rung>0 fallback
    /// I/O is the cost of this session's demand for the slot, not of the
    /// victim — so it accrues here, on the session whose activation
    /// demanded the slot.
    pub preempt_fallback_cost: f64,
    /// `Phase::Resume` cost burned by failed transient resume attempts
    /// (backoff-retry re-reads). Kept out of `resume_cost` so the SLA
    /// scheduler sees the true per-resume price, not the flaky-device tax.
    pub resume_retry_cost: f64,
    /// Preemptions of this session that, under an SLA-derived deadline,
    /// committed below the requested rung or aborted.
    pub sla_misses: u64,
    /// Wall-clock nanoseconds of each scheduling slice (bench latency
    /// percentiles; never feeds the simulated ledger).
    pub slice_nanos: Vec<u64>,
}

/// Where a session currently lives.
enum SessionState {
    /// Admitted, never yet run (or rolled all the way back to scratch).
    Fresh,
    /// Holding in-memory execution state.
    Live(Box<QueryExecution>),
    /// Parked on disk under its committed manifest generation.
    Suspended { generation: u64 },
    /// Ran to completion; output is final.
    Finished,
    /// Shed by the server-level degradation ladder; output discarded.
    Shed,
}

/// One admitted session.
pub struct Session {
    /// The durable admission record.
    pub meta: SessionMeta,
    state: SessionState,
    /// Output delivered so far *in this process* (absolute stream offset
    /// of `collected[0]` is `base`).
    pub collected: Vec<Tuple>,
    /// Absolute tuple offset of `collected[0]` — nonzero only for
    /// sessions recovered mid-stream after a crash.
    base: Option<u64>,
    /// Absolute tuple count at the last committed suspend generation;
    /// clean-abort rollback truncates `collected` to this point.
    committed_tuples: u64,
    /// Estimated peak memory in tuples ([`PlanSpec::estimated_mem_tuples`]),
    /// the admission controller's per-session demand figure.
    pub est_mem: u64,
    /// Fairness ledger.
    pub fairness: FairnessStats,
    /// Run files of this session's earlier executions (parked or rolled
    /// back), reclaimed when the session is retired.
    spill_files: Vec<FileId>,
}

impl Session {
    fn new(meta: SessionMeta, state: SessionState) -> Self {
        let base = match state {
            SessionState::Fresh => Some(0),
            _ => None, // learned from tuples_emitted() at first activation
        };
        let est_mem = PlanSpec::decode_from_slice(&meta.plan_bytes)
            .map(|p| p.estimated_mem_tuples())
            .unwrap_or(0);
        Self {
            meta,
            state,
            collected: Vec::new(),
            base,
            committed_tuples: 0,
            est_mem,
            fairness: FairnessStats::default(),
            spill_files: Vec::new(),
        }
    }

    /// Session identifier.
    pub fn id(&self) -> SessionId {
        SessionId(self.meta.id)
    }

    /// True while the scheduler still owes this session CPU.
    pub fn is_runnable(&self) -> bool {
        matches!(
            self.state,
            SessionState::Fresh | SessionState::Live(_) | SessionState::Suspended { .. }
        )
    }

    /// True once the session ran to completion (not shed).
    pub fn is_finished(&self) -> bool {
        matches!(self.state, SessionState::Finished)
    }

    /// True when the session was shed by the server-level ladder.
    pub fn is_shed(&self) -> bool {
        matches!(self.state, SessionState::Shed)
    }

    fn is_live(&self) -> bool {
        matches!(self.state, SessionState::Live(_))
    }

    /// Estimated cost of suspending this (live) session right now: the
    /// suspend estimate of its optimal plan, priced by the tree DP.
    fn victim_signal(&self) -> f64 {
        match &self.state {
            SessionState::Live(exec) => {
                SuspendOptimizer::victim_signal(&exec.suspend_problem(), &exec.ctx().graph)
            }
            _ => f64::INFINITY,
        }
    }

    /// Move to `next`, dropping any in-memory execution but keeping the
    /// run files it created for reclaim at retirement.
    fn drop_exec(&mut self, next: SessionState) {
        if let SessionState::Live(exec) = &mut self.state {
            self.spill_files.extend(exec.take_spill_files());
        }
        self.state = next;
    }
}

/// What the scheduling loop did: one pass for [`QsrServer::run_round`],
/// the whole run for [`QsrServer::run_to_completion`].
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundReport {
    /// Slices actually run.
    pub slices: u64,
    /// Sessions that reached completion.
    pub finished: u64,
    /// Shedding-ladder walks.
    pub shed: u64,
    /// Preemption suspends.
    pub preemptions: u64,
}

/// The shared infrastructure every slice primitive works against: the
/// database, the durable registry, and the scheduling config.
struct Env {
    db: Arc<Database>,
    registry: SessionRegistry,
    config: ServerConfig,
}

/// What one preemption attempt did.
struct PreemptOutcome {
    /// `Phase::Fallback` ledger delta across the attempt — rung>0 ladder
    /// I/O, attributed by the caller to the preempting decision.
    fallback_cost: f64,
    /// On a committed park: the committed rung and the plan's estimated
    /// suspend cost (the SLA spend figure). Otherwise the clean-abort or
    /// halt error.
    committed: Result<(Rung, f64)>,
}

/// Preempt a live session: suspend its execution to disk under its
/// private manifest, with `deadline` (when SLA-derived) tightening the
/// configured suspend deadline. On success the session parks as
/// `Suspended` and its committed-output watermark advances; its own
/// `Phase::Suspend` delta is recorded on its fairness row. On a clean
/// abort (ladder exhausted under resource pressure) the in-memory
/// execution is gone — the session rolls back to its last committed
/// generation (or scratch) without duplicating output — and the error is
/// returned for the server-level ladder. Halting faults propagate
/// immediately: the process is dead.
fn preempt_on(env: &Env, s: &mut Session, est_cost: f64, deadline: Option<f64>) -> PreemptOutcome {
    let SessionState::Live(exec) = std::mem::replace(&mut s.state, SessionState::Fresh) else {
        unreachable!("victims are checked out of the table live");
    };
    env.db.ledger().trace(|| TraceEvent::Preempt {
        session: s.meta.id,
        est_suspend_cost: est_cost,
        reason: "live-slot pressure".to_string(),
    });
    let before = env.db.ledger().snapshot();
    let mut options = env.config.options.clone();
    if let Some(d) = deadline {
        options.deadline = Some(options.deadline.map_or(d, |x| x.min(d)));
    }
    let outcome = exec.suspend_with(&env.config.policy, &options);
    let after = env.db.ledger().snapshot();
    let fallback_cost = after.phase_cost(Phase::Fallback) - before.phase_cost(Phase::Fallback);
    let suspend_cost = after.phase_cost(Phase::Suspend) - before.phase_cost(Phase::Suspend);
    let committed = match outcome {
        Ok(handle) => {
            s.committed_tuples = s.base.unwrap_or(0) + s.collected.len() as u64;
            s.state = SessionState::Suspended {
                generation: handle.generation,
            };
            s.fairness.suspends += 1;
            s.fairness.suspend_cost.push(suspend_cost);
            s.spill_files.extend(handle.spill_files);
            Ok((handle.rung, handle.report.est_suspend_cost))
        }
        Err(e) => {
            let halted = env.db.disk().fault_injector().is_some_and(|fi| fi.halted());
            if !halted {
                // Clean abort: on-disk state is exactly the last committed
                // generation (the ladder never touched the manifest).
                rollback_on(&env.db, s);
            }
            Err(e)
        }
    };
    PreemptOutcome {
        fallback_cost,
        committed,
    }
}

/// Roll a session whose in-memory execution is lost — a clean-aborted
/// suspend, or a failed slice whose failed write leaves operator state
/// undefined — back to its last committed suspend generation (or
/// scratch), truncating delivered output to the committed watermark so
/// the replay never duplicates a tuple.
fn rollback_on(db: &Database, s: &mut Session) {
    let manifest = read_manifest_named(db, &SessionRegistry::manifest_name(s.id()))
        .ok()
        .flatten();
    let keep = s.committed_tuples.saturating_sub(s.base.unwrap_or(0)) as usize;
    s.collected.truncate(keep);
    let next = match manifest {
        Some(m) => SessionState::Suspended {
            generation: m.generation,
        },
        None => {
            // Back to scratch: the whole stream will replay.
            s.base = Some(0);
            s.committed_tuples = 0;
            s.collected.clear();
            SessionState::Fresh
        }
    };
    s.drop_exec(next);
}

/// Resume a suspended session's execution from its private manifest,
/// retrying transient failures on the pinned deterministic backoff
/// schedule ([`RESUME_BACKOFF`]). Non-transient failures surface
/// immediately with the structured [`ResumeError`] taxonomy. Each failed
/// attempt's `Phase::Resume` delta accrues to `resume_retry_cost`; only
/// the successful attempt's delta is the resume's recorded cost.
fn resume_on(
    env: &Env,
    s: &mut Session,
    generation: u64,
) -> std::result::Result<Box<QueryExecution>, ResumeError> {
    let id = s.id();
    let name = SessionRegistry::manifest_name(id);
    let mut attempt = 1u32;
    let (exec, before) = loop {
        let before = env.db.ledger().snapshot().phase_cost(Phase::Resume);
        match QueryExecution::recover_named(env.db.clone(), &name) {
            Ok(Some(exec)) => break (exec, before),
            Ok(None) => {
                return Err(ResumeError::Storage(StorageError::invalid(format!(
                    "{id}: suspended at generation {generation} but manifest is gone"
                ))))
            }
            Err(ResumeError::Storage(e)) if e.is_transient() => {
                s.fairness.resume_retry_cost +=
                    env.db.ledger().snapshot().phase_cost(Phase::Resume) - before;
                match RESUME_BACKOFF.delay_after(attempt) {
                    Some(d) => {
                        std::thread::sleep(d);
                        attempt += 1;
                        s.fairness.resume_retries += 1;
                    }
                    None => return Err(ResumeError::Storage(e)),
                }
            }
            Err(e) => return Err(e),
        }
    };
    let after = env.db.ledger().snapshot().phase_cost(Phase::Resume);
    if s.base.is_none() {
        // Recovered mid-stream: everything before this point was
        // delivered by the pre-crash process.
        s.base = Some(exec.tuples_emitted());
    }
    s.committed_tuples = exec.tuples_emitted();
    s.fairness.resumes += 1;
    s.fairness.resume_cost.push(after - before);
    env.db.ledger().trace(|| TraceEvent::SessionResume {
        session: id.0,
        generation,
    });
    Ok(Box::new(exec))
}

/// Bring a non-live runnable session live: start it fresh or resume it
/// from its committed generation.
fn activate_on(env: &Env, s: &mut Session) -> Result<()> {
    match &s.state {
        SessionState::Live(_) => Ok(()),
        SessionState::Fresh => {
            let spec = PlanSpec::decode_from_slice(&s.meta.plan_bytes)?;
            let mut exec = Box::new(QueryExecution::start(env.db.clone(), spec)?);
            exec.set_manifest_name(SessionRegistry::manifest_name(s.id()));
            s.state = SessionState::Live(exec);
            Ok(())
        }
        SessionState::Suspended { generation } => {
            let generation = *generation;
            let exec = resume_on(env, s, generation).map_err(StorageError::from)?;
            s.state = SessionState::Live(exec);
            Ok(())
        }
        _ => Err(StorageError::invalid("activate on a retired session")),
    }
}

/// Run one quantum-bounded slice of a live session. Returns whether the
/// session finished.
fn run_slice_on(env: &Env, s: &mut Session) -> Result<bool> {
    let quantum = env.config.quantum.max(1);
    let SessionState::Live(exec) = &mut s.state else {
        return Err(StorageError::invalid("run_slice on a non-live session"));
    };
    let clock = std::time::Instant::now();
    let units_before = exec.work_units();
    let mut n = 0u64;
    exec.set_work_unit_observer(Some(Box::new(move |_, _| {
        n += 1;
        n >= quantum
    })));
    let outcome = exec.run();
    exec.set_work_unit_observer(None);
    // The quantum's suspend request is a yield, not necessarily a
    // preemption — withdraw it so the execution can keep running live
    // next round if no pressure materializes.
    exec.clear_suspend_request();
    let units_after = exec.work_units();
    let (tuples, done) = outcome?;
    s.fairness.quanta += 1;
    s.fairness.work_units += units_after.saturating_sub(units_before);
    s.fairness.tuples += tuples.len() as u64;
    s.fairness
        .slice_nanos
        .push(clock.elapsed().as_nanos() as u64);
    s.collected.extend(tuples);
    if done {
        s.state = SessionState::Finished;
        retire_on(env, s)?;
    }
    Ok(done)
}

/// Retire a session that will never run again (finished or shed): remove
/// its registry entries — committed suspend generation, then meta — and
/// only then reclaim the run files its executions left behind, which
/// that generation may have referenced.
fn retire_on(env: &Env, s: &mut Session) -> Result<()> {
    env.registry.remove(s.id())?;
    reclaim_spill_files(&env.db, &mut s.spill_files)
}

/// Durably admit a session: the meta sidecar commits before the session
/// is handed to the scheduler.
fn admit_on(
    env: &Env,
    next_id: &mut u64,
    tenant: &str,
    priority: u32,
    spec: &PlanSpec,
) -> Result<Session> {
    let id = *next_id;
    *next_id += 1;
    let meta = SessionMeta {
        id,
        tenant: tenant.to_string(),
        priority,
        plan_bytes: spec.encode_to_vec(),
    };
    env.registry.admit(&meta)?;
    env.db.ledger().trace(|| TraceEvent::SessionAdmit {
        session: id,
        tenant: tenant.to_string(),
        priority,
    });
    Ok(Session::new(meta, SessionState::Fresh))
}

/// Scheduler books that outlive a run of the loop.
#[derive(Default)]
struct Books {
    next_id: u64,
    /// Suspend-cost spend per tenant (SLA deadline derivation).
    sla_spent: HashMap<String, f64>,
    /// Sessions refused by admission control and parked for retry.
    admission_queue: VecDeque<(String, u32, PlanSpec)>,
    /// Most sessions ever holding in-memory state at once.
    peak_live: usize,
}

impl Books {
    /// The SLA-derived suspend deadline for `tenant`: the unspent part of
    /// its budget. `None` when SLA scheduling is off.
    fn sla_deadline(&self, config: &ServerConfig, tenant: &str) -> Option<f64> {
        let sla = config.sla.as_ref()?;
        let spent = self.sla_spent.get(tenant).copied().unwrap_or(0.0);
        Some((sla.budget_for(tenant) - spent).max(0.0))
    }

    /// SLA spend of one preemption of `victim` under a derived deadline —
    /// the only place budgets are drawn down: anything but a commit on
    /// the requested rung is a miss, and a commit spends the plan's
    /// estimated suspend cost from the tenant's budget.
    fn sla_spend(&mut self, victim: &mut Session, committed: Option<(Rung, f64)>) {
        if !matches!(committed, Some((Rung::Requested, _))) {
            victim.fairness.sla_misses += 1;
        }
        if let Some((_, est_suspend)) = committed {
            *self
                .sla_spent
                .entry(victim.meta.tenant.clone())
                .or_insert(0.0) += est_suspend;
        }
    }
}

/// The long-lived multi-session engine.
pub struct QsrServer {
    env: Env,
    sessions: Vec<Session>,
    books: Books,
}

impl QsrServer {
    /// Open a server over `db` with no admitted sessions.
    pub fn new(db: Arc<Database>, config: ServerConfig) -> Self {
        Self {
            env: Env {
                registry: SessionRegistry::new(db.clone()),
                db,
                config,
            },
            sessions: Vec::new(),
            books: Books {
                next_id: 1,
                ..Books::default()
            },
        }
    }

    /// Reconstruct a server from a database directory after a crash: scan
    /// the registry, park every session with a committed suspend
    /// generation as `Suspended`, and restart the rest from scratch. No
    /// execution state is rebuilt here — sessions resume lazily on their
    /// first scheduling slice, so recovery cost is paid per session, not
    /// up front. Recovery also runs the orphan-blob sweep: dump fragments
    /// leaked by torn uploads (referenced by no manifest that survived)
    /// are deleted on backends that can enumerate their blobs.
    pub fn recover(db: Arc<Database>, config: ServerConfig) -> Result<Self> {
        let mut server = Self::new(db, config);
        let db = &server.env.db;
        for meta in server.env.registry.scan()? {
            let id = SessionId(meta.id);
            server.books.next_id = server.books.next_id.max(meta.id + 1);
            let manifest = read_manifest_named(db, &SessionRegistry::manifest_name(id))
                .map_err(StorageError::from)?;
            let state = match manifest {
                Some(m) => SessionState::Suspended {
                    generation: m.generation,
                },
                None => SessionState::Fresh,
            };
            db.ledger().trace(|| TraceEvent::RecoveryStep {
                step: match &state {
                    SessionState::Suspended { generation } => {
                        format!("registry: {id} reconstructed at suspend generation {generation}")
                    }
                    _ => format!("registry: {id} reconstructed with no committed suspend"),
                },
            });
            server.sessions.push(Session::new(meta, state));
        }
        // Best-effort: a still-dead remote endpoint must not block
        // recovery; the next recover (or GC) sweeps instead.
        let _ = QueryExecution::sweep_orphan_blobs(db);
        Ok(server)
    }

    /// Mutable scheduling configuration (quantum, slots, policy) — takes
    /// effect from the next run of the loop.
    pub fn config_mut(&mut self) -> &mut ServerConfig {
        &mut self.env.config
    }

    /// All sessions, admission order.
    pub fn sessions(&self) -> &[Session] {
        &self.sessions
    }

    /// The most sessions that ever held in-memory execution state at
    /// once; never exceeds `max_live`.
    pub fn peak_live(&self) -> usize {
        self.books.peak_live
    }

    /// Durably admit a new session for `tenant` at `priority`. The meta
    /// sidecar commits before the session is scheduled, so an admitted
    /// session survives a crash even if it never ran. Bypasses admission
    /// control — use [`QsrServer::try_admit`] for priced admission.
    pub fn admit(&mut self, tenant: &str, priority: u32, spec: &PlanSpec) -> Result<SessionId> {
        let s = admit_on(&self.env, &mut self.books.next_id, tenant, priority, spec)?;
        let id = s.id();
        self.sessions.push(s);
        Ok(id)
    }

    /// Admit `tenant`'s session if its estimated memory can be freed
    /// cheaply enough under the configured [`AdmissionConfig`]; with no
    /// admission config this is exactly [`QsrServer::admit`]. Free memory
    /// under the budget admits for 0; otherwise the live sessions are
    /// priced by `victim_signal` in the ascending order the scheduler
    /// would actually preempt them. Rejections return a typed
    /// [`StorageError::Overloaded`] (or park the session on the admission
    /// queue when `queue` is set).
    pub fn try_admit(&mut self, tenant: &str, priority: u32, spec: &PlanSpec) -> Result<Admission> {
        let Some(adm) = self.env.config.admission.clone() else {
            return self.admit(tenant, priority, spec).map(Admission::Admitted);
        };
        let demand = spec.estimated_mem_tuples();
        let victims: Vec<(f64, u64)> = self
            .sessions
            .iter()
            .filter(|s| s.is_live())
            .map(|s| (s.victim_signal(), s.est_mem))
            .collect();
        let used: u64 = victims.iter().map(|(_, mem)| mem).sum();
        match admission_price(demand, adm.memory_budget.saturating_sub(used), &victims) {
            Some(price) if price <= adm.max_price => {
                self.admit(tenant, priority, spec).map(Admission::Admitted)
            }
            priced => {
                let price = priced.unwrap_or(f64::INFINITY);
                self.env.db.ledger().trace(|| TraceEvent::AdmissionReject {
                    tenant: tenant.to_string(),
                    est_mem: demand,
                    price,
                    queued: adm.queue,
                });
                if adm.queue {
                    self.books.admission_queue.push_back((
                        tenant.to_string(),
                        priority,
                        spec.clone(),
                    ));
                    Ok(Admission::Queued)
                } else {
                    Err(StorageError::Overloaded {
                        est_mem: demand,
                        price,
                    })
                }
            }
        }
    }

    /// Sessions currently parked on the admission queue.
    pub fn queued_admissions(&self) -> usize {
        self.books.admission_queue.len()
    }

    /// One round-robin pass of the scheduling loop: queued admissions are
    /// re-priced, then every runnable session gets one quantum, in
    /// admission order, parking and resuming through the suspend
    /// machinery as live slots demand.
    pub fn run_round(&mut self) -> Result<RoundReport> {
        self.run(Some(1))
    }

    /// Drive all sessions to completion (or shedding), on the caller's
    /// thread with `workers == 0` and on `workers` threads otherwise.
    /// Returns the number of slices run.
    pub fn run_to_completion(&mut self) -> Result<u64> {
        self.run(None).map(|report| report.slices)
    }

    /// Run the scheduling loop for `passes` cursor passes (`None`: until
    /// nothing is runnable and the admission queue is empty). Sessions,
    /// their fairness rows, and their exactly-once watermarks survive in
    /// admission order.
    fn run(&mut self, passes: Option<u64>) -> Result<RoundReport> {
        let sched = Sched {
            env: &self.env,
            table: Mutex::new(Table {
                slots: std::mem::take(&mut self.sessions)
                    .into_iter()
                    .map(Some)
                    .collect(),
                // Past the end: the first claim wraps, which drains the
                // admission queue and starts the first pass.
                cursor: usize::MAX,
                passes_left: passes,
                books: std::mem::take(&mut self.books),
                ..Table::default()
            }),
            cv: Condvar::new(),
        };
        match sched.env.config.workers {
            0 => sched.run(),
            n => std::thread::scope(|scope| {
                for _ in 0..n {
                    scope.spawn(|| sched.run());
                }
            }),
        }
        let table = sched
            .table
            .into_inner()
            .expect("scheduler threads joined without panicking");
        self.sessions = table.slots.into_iter().flatten().collect();
        self.books = table.books;
        match table.fatal {
            Some(e) => Err(e),
            None => Ok(table.report),
        }
    }
}

/// The slot table: all scheduler state, behind one mutex for the length
/// of a run.
#[derive(Default)]
struct Table {
    /// Sessions in admission order; `None` marks one checked out by a
    /// loop thread (it is always returned to the same slot).
    slots: Vec<Option<Session>>,
    /// Round-robin claim cursor: the next claim scans from here to the
    /// end of the table, then wraps.
    cursor: usize,
    /// Cursor passes still to start (`None`: run to completion).
    passes_left: Option<u64>,
    /// Sessions currently checked out.
    checked_out: usize,
    /// Estimated memory of the checked-out sessions.
    held_mem: u64,
    /// Checked-out sessions still waiting in `make_room` for a live slot;
    /// every other checked-out session is live (or about to be).
    claiming: usize,
    /// Threads waiting in `make_room` for a live slot to come back.
    starved: usize,
    /// A thread is draining the admission queue.
    draining: bool,
    /// The run is over; every thread leaves the loop.
    stopped: bool,
    report: RoundReport,
    /// First fatal error; set once, stops every thread.
    fatal: Option<StorageError>,
    books: Books,
}

impl Table {
    fn live_in_table(&self) -> impl Iterator<Item = &Session> {
        self.slots.iter().flatten().filter(|s| s.is_live())
    }

    /// Sessions holding in-memory state (or a slot reserved for it),
    /// checked out or not.
    fn live(&self) -> usize {
        self.live_in_table().count() + self.checked_out - self.claiming
    }

    /// Estimated memory of the [`Table::live`] sessions.
    fn live_mem(&self) -> u64 {
        self.live_in_table().map(|s| s.est_mem).sum::<u64>() + self.held_mem
    }

    /// Check the session in slot `i` out of the table.
    fn take(&mut self, i: usize) -> Session {
        let s = self.slots[i].take().expect("slot scanned as occupied");
        self.checked_out += 1;
        self.held_mem += s.est_mem;
        s
    }

    /// Return a checked-out session to its slot; from here its state
    /// alone says whether it occupies a live slot.
    fn put(&mut self, i: usize, s: Session) {
        self.checked_out -= 1;
        self.held_mem -= s.est_mem;
        self.slots[i] = Some(s);
    }

    fn fail(&mut self, e: StorageError) {
        self.fatal.get_or_insert(e);
    }
}

type Guard<'g> = MutexGuard<'g, Table>;

/// One run of the scheduling loop over the slot table.
struct Sched<'a> {
    env: &'a Env,
    table: Mutex<Table>,
    /// Signalled on every put-back and state change a waiter may need.
    cv: Condvar,
}

impl Sched<'_> {
    fn lock(&self) -> Guard<'_> {
        self.table
            .lock()
            .expect("a scheduler thread panicked holding the slot table")
    }

    fn wait<'g>(&self, t: Guard<'g>) -> Guard<'g> {
        self.cv
            .wait(t)
            .expect("a scheduler thread panicked holding the slot table")
    }

    /// The scheduling loop — the only one; see the module docs. Runs on
    /// the caller's thread or on several at once; the table lock is held
    /// only between the numbered steps, never across a victim pricing, a
    /// suspend, a resume or a slice.
    fn run(&self) {
        let mut t = self.lock();
        loop {
            let claimed;
            (t, claimed) = self.claim(t);
            let Some((idx, mut s)) = claimed else { break };
            if !s.is_live() {
                t.claiming += 1;
                t = self.make_room(t, &mut s);
                t.claiming -= 1;
            }
            // The session may have been shed while making room for itself.
            if s.is_runnable() && t.fatal.is_none() {
                t.books.peak_live = t.books.peak_live.max(t.live());
                drop(t);
                let outcome =
                    activate_on(self.env, &mut s).and_then(|()| run_slice_on(self.env, &mut s));
                if matches!(&outcome, Err(e) if e.is_resource_pressure()) {
                    // Execution itself hit pressure (e.g. a spill write
                    // over quota); the failed write leaves the live
                    // operator state undefined.
                    rollback_on(&self.env.db, &mut s);
                }
                t = self.lock();
                match outcome {
                    Ok(done) => {
                        t.report.slices += 1;
                        t.report.finished += u64::from(done);
                    }
                    Err(e) if e.is_resource_pressure() => {
                        self.shed_lowest_priority(&mut t, &mut s, e)
                    }
                    Err(e) => t.fail(e),
                }
            }
            t.put(idx, s);
            self.cv.notify_all();
        }
        drop(t);
        self.cv.notify_all();
    }

    /// Step 1: claim the next runnable session in admission order, or
    /// `None` when this thread should leave the loop. Running off the end
    /// of the table ends a pass: queued admissions are re-priced and the
    /// cursor wraps.
    fn claim<'g>(&'g self, mut t: Guard<'g>) -> (Guard<'g>, Option<(usize, Session)>) {
        loop {
            if t.fatal.is_some() || t.stopped {
                return (t, None);
            }
            if t.starved > 0 {
                // A thread is waiting for a live slot: let it have the
                // next session that comes back rather than re-claim it.
                t = self.wait(t);
                continue;
            }
            let next = (t.cursor..t.slots.len())
                .find(|&i| t.slots[i].as_ref().is_some_and(Session::is_runnable));
            if let Some(i) = next {
                t.cursor = i + 1;
                let s = t.take(i);
                return (t, Some((i, s)));
            }
            if t.cursor == 0 && t.checked_out > 0 {
                // A fresh pass found nothing, but a checked-out session
                // may come back runnable (or its return may end the run).
                t = self.wait(t);
            } else if t.cursor > 0
                || (self.env.config.admission.is_some() && !t.books.admission_queue.is_empty())
            {
                // End of a pass. (A fresh pass that found nothing still
                // owes queued admissions a re-pricing: the load they were
                // waiting on may have drained since the last wrap.)
                if t.passes_left == Some(0) {
                    t.stopped = true;
                    continue;
                }
                t.passes_left = t.passes_left.map(|p| p - 1);
                t = self.drain_admission_queue(t);
                t.cursor = 0;
            } else {
                t.stopped = true;
            }
        }
    }

    /// Check out every live session nobody has claimed and price each one
    /// — `victim_signal`, a tree-DP solve — with the table unlocked. The
    /// caller puts them back.
    fn price_live<'g>(&'g self, mut t: Guard<'g>) -> (Guard<'g>, Vec<(usize, Session, f64)>) {
        let live: Vec<usize> = (0..t.slots.len())
            .filter(|&i| t.slots[i].as_ref().is_some_and(Session::is_live))
            .collect();
        if live.is_empty() {
            // Keep the lock: a caller about to wait for a put-back must
            // not miss one between an unlock here and its wait.
            return (t, Vec::new());
        }
        let held: Vec<(usize, Session)> = live.into_iter().map(|i| (i, t.take(i))).collect();
        drop(t);
        let priced = held
            .into_iter()
            .map(|(i, s)| {
                let cost = s.victim_signal();
                (i, s, cost)
            })
            .collect();
        (self.lock(), priced)
    }

    /// Step 2, the park decision — the only one: while every live slot is
    /// taken, suspend the unclaimed live session that is cheapest to
    /// suspend (ties toward the earlier admission) to make room for `s`.
    /// Ladder fallback I/O of the preemption is charged to `s`, the
    /// session whose activation demanded the slot. A victim whose suspend
    /// exhausts the ladder walks the shedding ladder instead — which may
    /// shed `s` itself.
    fn make_room<'g>(&'g self, mut t: Guard<'g>, s: &mut Session) -> Guard<'g> {
        let config = &self.env.config;
        while s.is_runnable() && t.fatal.is_none() && t.live() >= config.max_live.max(1) {
            let priced;
            (t, priced) = self.price_live(t);
            let mut cheapest: Option<(usize, Session, f64)> = None;
            for (i, o, cost) in priced {
                match &cheapest {
                    Some((_, _, c)) if *c <= cost => t.put(i, o),
                    _ => {
                        if let Some((j, dearer, _)) = cheapest.replace((i, o, cost)) {
                            t.put(j, dearer);
                        }
                    }
                }
            }
            self.cv.notify_all();
            let Some((vidx, mut victim, cost)) = cheapest else {
                // Every live session is claimed by another thread: wait
                // for one to come back, holding new claims off meanwhile.
                t.starved += 1;
                t = self.wait(t);
                t.starved -= 1;
                self.cv.notify_all();
                continue;
            };
            let deadline = t.books.sla_deadline(config, &victim.meta.tenant);
            drop(t);
            let out = preempt_on(self.env, &mut victim, cost, deadline);
            t = self.lock();
            s.fairness.preempt_fallback_cost += out.fallback_cost;
            if deadline.is_some() {
                t.books
                    .sla_spend(&mut victim, out.committed.as_ref().ok().copied());
            }
            t.put(vidx, victim);
            self.cv.notify_all();
            match out.committed {
                Ok(_) => t.report.preemptions += 1,
                Err(e) if e.is_resource_pressure() => self.shed_lowest_priority(&mut t, s, e),
                Err(e) => t.fail(e),
            }
        }
        t
    }

    /// Server-level degradation ladder — the only shedding path: pressure
    /// `e` defeated a victim's suspend ladder or a slice, so shed the
    /// lowest-priority runnable session (ties toward the younger) among
    /// the table and the session in hand, via clean abort: drop its
    /// execution state, discard its output, retire its registry entries
    /// and run files. Sessions claimed by other threads cannot be shed —
    /// they come back through their own error paths. With nothing left to
    /// shed, the pressure error is fatal.
    fn shed_lowest_priority(&self, t: &mut Table, held: &mut Session, e: StorageError) {
        t.report.shed += 1;
        let victim = t
            .slots
            .iter_mut()
            .flatten()
            .chain(std::iter::once(held))
            .filter(|s| s.is_runnable())
            .min_by_key(|s| (s.meta.priority, std::cmp::Reverse(s.meta.id)));
        let Some(v) = victim else {
            return t.fail(e);
        };
        v.drop_exec(SessionState::Shed);
        v.collected.clear();
        self.env.db.ledger().trace(|| TraceEvent::Shed {
            session: v.meta.id,
            priority: v.meta.priority,
            reason: format!("pressure: {e}"),
        });
        if let Err(e) = retire_on(self.env, v) {
            t.fail(e);
        }
    }

    /// Re-price queued admissions FIFO as load drains — at every cursor
    /// wrap — admitting every affordable head-of-line entry to the end of
    /// the table. An entry that can never be admitted — nothing is live
    /// and it still does not fit the budget — is dropped (with a
    /// rejection trace) rather than blocking the queue forever.
    fn drain_admission_queue<'g>(&'g self, mut t: Guard<'g>) -> Guard<'g> {
        let Some(adm) = &self.env.config.admission else {
            return t;
        };
        if std::mem::replace(&mut t.draining, true) {
            return t;
        }
        while let Some((_, _, spec)) = t.books.admission_queue.front() {
            let demand = spec.estimated_mem_tuples();
            let priced;
            (t, priced) = self.price_live(t);
            let victims: Vec<(f64, u64)> = priced.iter().map(|(_, s, c)| (*c, s.est_mem)).collect();
            for (i, s, _) in priced {
                t.put(i, s);
            }
            self.cv.notify_all();
            let free = adm.memory_budget.saturating_sub(t.live_mem());
            let price = admission_price(demand, free, &victims);
            let affordable = price.is_some_and(|p| p <= adm.max_price);
            if !affordable && t.live() > 0 {
                break; // head-of-line waits for load to drain
            }
            let (tenant, priority, spec) =
                t.books.admission_queue.pop_front().expect("front checked");
            if affordable {
                match admit_on(self.env, &mut t.books.next_id, &tenant, priority, &spec) {
                    Ok(s) => t.slots.push(Some(s)),
                    Err(e) => {
                        t.fail(e);
                        break;
                    }
                }
            } else {
                // Even an idle server cannot fit it: unadmittable.
                self.env.db.ledger().trace(|| TraceEvent::AdmissionReject {
                    tenant,
                    est_mem: demand,
                    price: price.unwrap_or(f64::INFINITY),
                    queued: false,
                });
            }
        }
        t.draining = false;
        t
    }
}
