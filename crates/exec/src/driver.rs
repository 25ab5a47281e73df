//! The query lifecycle driver (paper §2, Figure 3): execute → suspend →
//! resume → continue.
//!
//! `QueryExecution` owns a built plan and its execution context. During
//! the execute phase, `next()` pulls tuples from the root; when a suspend
//! request lands (via [`crate::context::SuspendTrigger`] or
//! [`QueryExecution::request_suspend`]), `Poll::Suspended` bubbles up and
//! the caller invokes [`QueryExecution::suspend`], which:
//!
//! 1. switches the cost ledger to the suspend phase,
//! 2. snapshots per-operator statistics and asks the
//!    [`SuspendPolicy`] for a suspend plan (the online optimizer, a
//!    purist policy, or a fixed plan),
//! 3. carries the plan out by walking the tree with `Suspend()` /
//!    `Suspend(Ctr)` calls,
//! 4. serializes the `SuspendedQuery` structure (plus the contract graph
//!    and the work snapshot) to the blob store, and
//! 5. drops the whole tree — all memory is released.
//!
//! [`QueryExecution::resume`] reverses the process; the resumed execution
//! delivers exactly the tuples following the last pre-suspend output.

use crate::context::{DumpWatchdog, ExecContext, SuspendTrigger, WorkUnitObserver};
use crate::operator::{Operator, Poll, SuspendMode};
use crate::plan::{build_plan, PlanSpec};
use crate::recovery::{
    clear_manifest_named, commit_manifest_named, read_manifest_named, with_retries, ResumeError,
    SuspendManifest, SUSPEND_MANIFEST,
};
use qsr_core::{
    ContractGraph, OpId, OpSuspendInputs, OptimizeReport, PlanTopology, SolveBudget, Strategy,
    SuspendOptimizer, SuspendPlan, SuspendPolicy, SuspendProblem, SuspendedQuery,
};
use qsr_storage::{
    delete_run, is_delta_frame, pages_for_bytes, BlobId, Database, Decode,
    DeltaDump, Encode, FileId, Phase, Result, Schema, StorageError, TraceEvent, Tuple,
};
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

/// Handle to a suspended query on disk.
#[derive(Debug, Clone)]
pub struct SuspendedHandle {
    /// Blob holding the serialized `SuspendedQuery`.
    pub blob: BlobId,
    /// The optimizer's report (chosen plan, estimated costs, solve time).
    pub report: OptimizeReport,
    /// Generation number the suspend committed under (see
    /// [`SuspendManifest`]).
    pub generation: u64,
    /// Name of the manifest the suspend committed under;
    /// [`QueryExecution::resume`] keeps committing there.
    pub manifest_name: String,
    /// The degradation-ladder rung that actually committed.
    pub rung: Rung,
    /// Run files the suspended execution created since it started (or
    /// resumed). The committed generation may reference them, so they
    /// outlive the suspend; whoever finally retires the query reclaims
    /// them with [`reclaim_spill_files`].
    pub spill_files: Vec<FileId>,
}

/// Delete run files of a query that will never run again (finished, or
/// shed with its suspend generation retired). Best-effort like every
/// reclaim path — a failed delete leaks a file, it never fails a query —
/// except that a halting fault surfaces: the simulated process is dead.
/// Charges nothing to the cost ledger.
pub fn reclaim_spill_files(db: &Database, files: &mut Vec<FileId>) -> Result<()> {
    for file in files.drain(..) {
        if let Err(e) = delete_run(db.run_pool(), file) {
            if db.disk().fault_injector().is_some_and(|fi| fi.halted()) {
                return Err(e);
            }
        }
    }
    Ok(())
}

/// Options for the suspend phase.
#[derive(Debug, Clone)]
pub struct SuspendOptions {
    /// Persist the contract graph inside `SuspendedQuery` (paper §3.3,
    /// "Suspend During or After Resume"): with it, a resumed query can be
    /// re-suspended immediately with full flexibility; without it, the
    /// graph re-forms gradually as execution continues, and early
    /// re-suspensions fall back to DumpState-heavy plans. Persisting costs
    /// a few hundred bytes — the default.
    pub persist_graph: bool,
    /// Ignored; defaults to 0. A suspend writes its dump blobs serially on
    /// the suspending thread whatever this says (DESIGN.md §11). The field
    /// stays only because existing callers still read and print it.
    pub dump_writers: usize,
    /// Suspend I/O deadline in simulated cost units. When set, each
    /// degradation-ladder rung runs under a live watchdog: a rung whose
    /// dump I/O would overrun the deadline fails with a typed
    /// [`StorageError::DeadlineExceeded`] and the driver steps down to the
    /// next, cheaper rung. It also feeds the optimizer's suspend-budget
    /// constraint when the policy does not carry one (admission control:
    /// plans are chosen to fit the deadline before any I/O is spent).
    /// `None` disables both — the pre-ladder behavior.
    pub deadline: Option<f64>,
    /// Ignored; defaults to `None`. The suspend plan is chosen by the
    /// exact tree DP, which has no search to budget (DESIGN.md §4). The
    /// field stays only because existing callers still read and print it.
    pub solve_budget: Option<SolveBudget>,
    /// Ignored; defaults to 0. A resume reads each dump blob when its
    /// operator consumes it, on the resuming thread (DESIGN.md §11). The
    /// field stays only because existing callers still read and print it.
    pub resume_workers: usize,
    /// Ignored; defaults to `None`. Every suspend diffs each dump against
    /// its resume baseline and writes the smaller of the delta frame and
    /// the full dump (DESIGN.md §18). The field stays only because
    /// existing callers still read and print it.
    pub delta: Option<bool>,
    /// Ignored; defaults to `None`. Every commit keeps only the newest
    /// generation; a manifest's retained generations, written by older
    /// builds, are collected by the next commit (DESIGN.md §18). The
    /// field stays only because existing callers still read and print it.
    pub keep_generations: Option<usize>,
}

impl Default for SuspendOptions {
    fn default() -> Self {
        Self {
            persist_graph: true,
            dump_writers: 0,
            deadline: None,
            solve_budget: None,
            resume_workers: 0,
            delta: None,
            keep_generations: None,
        }
    }
}

/// One rung of the suspend degradation ladder, in descending order of
/// plan quality: the requested policy, the all-DumpState strawman, the
/// all-GoBack minimum. Each rung is
/// individually crash-safe (the manifest commits only at the end of a
/// fully successful rung); a rung failing with a *non-halting* error —
/// [`StorageError::NoSpace`], [`StorageError::DeadlineExceeded`], an
/// exhausted transient — hands over to the next rung, which salvages the
/// failed rung's checksum-valid dump blobs instead of rewriting them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rung {
    /// The caller's policy.
    Requested,
    /// Every operator dumps.
    AllDump,
    /// Every operator goes back; near-zero dump I/O.
    AllGoBack,
}

impl Rung {
    /// Stable label for logs and benchmark output.
    pub fn name(&self) -> &'static str {
        match self {
            Rung::Requested => "requested",
            Rung::AllDump => "all-dump",
            Rung::AllGoBack => "all-goback",
        }
    }
    /// The ladder for `policy`: start at the requested plan, then only
    /// strictly cheaper rungs (never climb back up), ending at AllGoBack.
    fn ladder(policy: &SuspendPolicy) -> Vec<Rung> {
        match policy {
            SuspendPolicy::Optimized { .. } | SuspendPolicy::Fixed(_) => {
                vec![Rung::Requested, Rung::AllDump, Rung::AllGoBack]
            }
            SuspendPolicy::AllDump => vec![Rung::Requested, Rung::AllGoBack],
            SuspendPolicy::AllGoBack => vec![Rung::Requested],
        }
    }
}

/// A live query execution.
pub struct QueryExecution {
    db: Arc<Database>,
    ctx: ExecContext,
    root: Box<dyn Operator>,
    spec: PlanSpec,
    topology: PlanTopology,
    tuples_emitted: u64,
    finished: bool,
    /// Sidecar name this execution's suspends commit under. Defaults to
    /// the global [`SUSPEND_MANIFEST`]; the multi-session server assigns
    /// each session its own name so concurrent suspended sessions never
    /// garbage-collect each other's generations.
    manifest_name: String,
}

impl QueryExecution {
    /// Build and open a fresh execution of `spec` (the execute phase
    /// begins; stateful operators create their initial checkpoints).
    pub fn start(db: Arc<Database>, spec: PlanSpec) -> Result<Self> {
        Self::start_inner(db, spec, true)
    }

    /// Like [`QueryExecution::start`] but with checkpointing disabled —
    /// the ablation baseline for the paper's "negligible overhead during
    /// execution" claim. Only all-DumpState suspends remain possible.
    pub fn start_without_checkpointing(db: Arc<Database>, spec: PlanSpec) -> Result<Self> {
        Self::start_inner(db, spec, false)
    }

    /// Like [`QueryExecution::start`] with explicit
    /// [`crate::plan::BuildOptions`] (ablation toggles such as disabling
    /// contract migration).
    pub fn start_with_build_options(
        db: Arc<Database>,
        spec: PlanSpec,
        options: crate::plan::BuildOptions,
    ) -> Result<Self> {
        db.ledger().set_phase(Phase::Execute);
        let built = crate::plan::build_plan_with(&db, &spec, options)?;
        let mut exec = Self {
            ctx: ExecContext::new(db.clone()),
            db,
            root: built.root,
            spec,
            topology: built.topology,
            tuples_emitted: 0,
            finished: false,
            manifest_name: SUSPEND_MANIFEST.to_string(),
        };
        exec.root.open(&mut exec.ctx)?;
        Ok(exec)
    }

    fn start_inner(db: Arc<Database>, spec: PlanSpec, checkpoints: bool) -> Result<Self> {
        db.ledger().set_phase(Phase::Execute);
        let built = build_plan(&db, &spec)?;
        let mut exec = Self {
            ctx: ExecContext::new(db.clone()),
            db,
            root: built.root,
            spec,
            topology: built.topology,
            tuples_emitted: 0,
            finished: false,
            manifest_name: SUSPEND_MANIFEST.to_string(),
        };
        exec.ctx.checkpoints_enabled = checkpoints;
        exec.root.open(&mut exec.ctx)?;
        Ok(exec)
    }

    /// The plan's output schema.
    pub fn schema(&self) -> &Schema {
        self.root.schema()
    }

    /// The plan topology.
    pub fn topology(&self) -> &PlanTopology {
        &self.topology
    }

    /// Shared execution context (contract graph, work table, ...).
    pub fn ctx(&self) -> &ExecContext {
        &self.ctx
    }

    /// Number of result tuples delivered so far (across suspensions).
    pub fn tuples_emitted(&self) -> u64 {
        self.tuples_emitted
    }

    /// Install a deterministic suspend trigger (experiments).
    pub fn set_trigger(&mut self, trigger: Option<SuspendTrigger>) {
        self.ctx.set_trigger(trigger);
    }

    /// Raise a suspend request (the paper's suspend exception).
    pub fn request_suspend(&mut self) {
        self.ctx.request_suspend();
    }

    /// Withdraw a pending suspend request (a scheduler that decided to
    /// preempt a *different* victim retracts the request it raised here).
    pub fn clear_suspend_request(&mut self) {
        self.ctx.clear_suspend_request();
    }

    /// The manifest sidecar name this execution's suspends commit under.
    pub fn manifest_name(&self) -> &str {
        &self.manifest_name
    }

    /// Commit future suspends of this execution under `name` instead of
    /// the global [`SUSPEND_MANIFEST`]. Per-session names let N suspended
    /// sessions coexist in one database directory, each with its own
    /// generation chain.
    pub fn set_manifest_name(&mut self, name: impl Into<String>) {
        self.manifest_name = name.into();
    }

    /// Install a work-unit observer (oracle harness hook): called on every
    /// tick; returning `true` raises a suspend request at that boundary.
    pub fn set_work_unit_observer(&mut self, obs: Option<Box<dyn WorkUnitObserver>>) {
        self.ctx.set_work_unit_observer(obs);
    }

    /// Work units ticked by this execution segment (restarts at 0 after
    /// resume, which builds a fresh context).
    pub fn work_units(&self) -> u64 {
        self.ctx.work_units()
    }

    /// Pull the next output tuple.
    #[allow(clippy::should_implement_trait)] // fallible pull, not an Iterator
    pub fn next(&mut self) -> Result<Poll> {
        if self.finished {
            return Ok(Poll::Done);
        }
        let out = self.root.next(&mut self.ctx)?;
        match &out {
            Poll::Tuple(_) => self.tuples_emitted += 1,
            Poll::Done => self.finish()?,
            Poll::Suspended => {}
        }
        Ok(out)
    }

    /// The plan reached `Done`: its operators will never read their spill
    /// runs again, and no committed suspend generation references the
    /// ones this execution created, so reclaim them.
    fn finish(&mut self) -> Result<()> {
        self.finished = true;
        reclaim_spill_files(&self.db, &mut self.ctx.spill_files)
    }

    /// Hand over the run files this execution created (a caller dropping
    /// a live execution it will not resume reclaims them itself).
    pub fn take_spill_files(&mut self) -> Vec<FileId> {
        std::mem::take(&mut self.ctx.spill_files)
    }

    /// Has no effect: rows always move one at a time. Kept only because
    /// the `benchmark/` crate still calls it; it is removed together with
    /// those calls (ROADMAP item 3(c)).
    pub fn set_batch_size(&mut self, _rows: usize) {}

    /// Run until completion or suspension. Returns the tuples produced in
    /// this stretch and whether the query finished.
    pub fn run(&mut self) -> Result<(Vec<Tuple>, bool)> {
        let mut out = Vec::new();
        loop {
            match self.next()? {
                Poll::Tuple(t) => out.push(t),
                Poll::Done => return Ok((out, true)),
                Poll::Suspended => return Ok((out, false)),
            }
        }
    }

    /// Run to completion, failing if a suspend request interrupts.
    pub fn run_to_completion(&mut self) -> Result<Vec<Tuple>> {
        let (tuples, done) = self.run()?;
        if !done {
            return Err(StorageError::invalid(
                "query suspended during run_to_completion",
            ));
        }
        Ok(tuples)
    }

    /// Snapshot the optimizer inputs (per-operator statistics + topology +
    /// work table). Public so experiments can inspect the problem.
    pub fn suspend_problem(&self) -> SuspendProblem {
        let mut inputs: BTreeMap<_, OpSuspendInputs> = BTreeMap::new();
        self.root.visit(&mut |op: &dyn Operator| {
            inputs.insert(op.op_id(), op.suspend_inputs());
        });
        SuspendProblem {
            topo: self.topology.clone(),
            model: *self.db.ledger().model(),
            inputs,
            work: self.ctx.work.snapshot(),
        }
    }

    /// Carry out the suspend phase under `policy`, consuming the
    /// execution. All in-memory state is released; the returned handle
    /// resumes the query later (or elsewhere).
    pub fn suspend(self, policy: &SuspendPolicy) -> Result<SuspendedHandle> {
        self.suspend_with(policy, &SuspendOptions::default())
    }

    /// [`QueryExecution::suspend`] with explicit [`SuspendOptions`].
    ///
    /// The suspend commits atomically: dump blobs and the serialized
    /// `SuspendedQuery` are written and fsynced first, then a
    /// generation-numbered [`SuspendManifest`] is swapped into place with
    /// an atomic rename. A crash at any point before the rename leaves the
    /// previous suspend (or a clean "no suspend" state) fully intact; a
    /// crash after it leaves the new suspend committed. Only after the
    /// commit are the previous generation's blobs garbage-collected.
    ///
    /// Under resource pressure — a disk quota ([`StorageError::NoSpace`]),
    /// an I/O deadline ([`SuspendOptions::deadline`]), a permanent device
    /// fault — the attempt walks a **degradation ladder** ([`Rung`]):
    /// requested plan → all-DumpState → all-GoBack → typed clean abort. Each rung is individually crash-safe; a failed
    /// rung's checksum-valid dump blobs are salvaged and reused by the
    /// next rung, orphaned ones deleted. Every rung after the first
    /// charges its I/O to [`Phase::Fallback`], keeping the committed
    /// suspend's `Phase::Suspend` spend comparable to the budget. Halting
    /// faults (crash, torn write) return immediately — the process is
    /// dead and recovery owns the directory.
    pub fn suspend_with(
        mut self,
        policy: &SuspendPolicy,
        options: &SuspendOptions,
    ) -> Result<SuspendedHandle> {
        self.db.ledger().set_phase(Phase::Suspend);
        let problem = self.suspend_problem();

        // The previous generation (if any) seeds the new generation number
        // and is garbage-collected after the new manifest commits. An
        // unreadable old manifest only disables GC; it cannot block a new
        // suspend (its blobs leak, its manifest is overwritten).
        let prev = read_manifest_named(&self.db, &self.manifest_name)
            .ok()
            .flatten();

        let rungs = Rung::ladder(policy);
        let last = rungs.len() - 1;
        let mut last_err: Option<StorageError> = None;
        for (i, rung) in rungs.iter().enumerate() {
            // Only the first rung is the budgeted suspend proper; all
            // insurance I/O below it is kept out of `Phase::Suspend`.
            let phase = if i == 0 { Phase::Suspend } else { Phase::Fallback };
            self.db.ledger().set_phase(phase);
            self.db
                .ledger()
                .trace(|| TraceEvent::RungStart { rung: rung.name() });
            let report = match self.rung_report(rung, policy, &problem, options) {
                Ok(r) => r,
                Err(e) => {
                    self.db.ledger().trace(|| TraceEvent::RungAbort {
                        rung: rung.name(),
                        reason: format!("optimize failed: {e}"),
                    });
                    if self.halted() {
                        return Err(e);
                    }
                    last_err = Some(e);
                    continue;
                }
            };
            self.db.ledger().trace(|| TraceEvent::RungPlan {
                rung: rung.name(),
                est_suspend: report.est_suspend_cost,
                est_resume: report.est_resume_cost,
            });
            // Admission control: when the plan's own estimate already
            // exceeds the deadline there is no point paying for its dumps
            // — skip straight to a cheaper rung. The final rung is always
            // attempted; the estimate is a model, not a measurement.
            if let Some(d) = options.deadline {
                if i < last && report.est_suspend_cost > d {
                    self.db.ledger().trace(|| TraceEvent::RungAbort {
                        rung: rung.name(),
                        reason: format!(
                            "admission: estimated suspend cost {:.3} exceeds deadline {:.3}",
                            report.est_suspend_cost, d
                        ),
                    });
                    last_err = Some(StorageError::DeadlineExceeded {
                        spent: report.est_suspend_cost,
                        budget: d,
                    });
                    continue;
                }
            }
            if let Some(budget) = options.deadline {
                self.ctx.set_watchdog(Some(DumpWatchdog {
                    budget,
                    baseline: self.db.ledger().snapshot(),
                }));
            }
            let attempt = self.attempt_rung(&report, options, phase, prev.as_ref());
            self.ctx.set_watchdog(None);
            match attempt {
                Ok((mut handle, sq)) => {
                    handle.rung = *rung;
                    handle.spill_files = std::mem::take(&mut self.ctx.spill_files);
                    self.db.ledger().trace(|| TraceEvent::RungCommit {
                        rung: rung.name(),
                        generation: handle.generation,
                    });
                    // Commit point passed. Reclaim in strictly safe order:
                    // salvage orphans first (never referenced by any
                    // manifest), then the superseded generation and any
                    // generations an older build's manifest retained.
                    self.db.ledger().set_phase(Phase::Fallback);
                    let backend = self.db.backend();
                    for id in self.ctx.take_salvage().into_values() {
                        let _ = backend.delete_blob(id);
                    }
                    if let Some(old) = prev {
                        Self::gc_generations(&self.db, &old, &sq);
                    }
                    self.root.close(&mut self.ctx)?;
                    self.db.ledger().set_phase(Phase::Execute);
                    return Ok(handle);
                }
                Err(failure) => {
                    let (e, partial) = *failure;
                    self.db.ledger().trace(|| TraceEvent::RungAbort {
                        rung: rung.name(),
                        reason: e.to_string(),
                    });
                    if self.halted() {
                        return Err(e);
                    }
                    // Non-halting failure: salvage what this rung already
                    // paid for, then step down.
                    self.db.ledger().set_phase(Phase::Fallback);
                    self.salvage_rung(&partial);
                    last_err = Some(e);
                }
            }
        }

        // Clean abort: every rung failed. The previous generation's
        // manifest was never touched (commit happens only at the end of a
        // successful rung), so on-disk state is exactly the pre-suspend
        // state; delete the salvaged blobs nothing will ever reference and
        // surface the last rung's typed error.
        self.db.ledger().set_phase(Phase::Fallback);
        let backend = self.db.backend();
        for id in self.ctx.take_salvage().into_values() {
            let _ = backend.delete_blob(id);
        }
        let _ = self.root.close(&mut self.ctx);
        self.db.ledger().set_phase(Phase::Execute);
        let err = last_err
            .unwrap_or_else(|| StorageError::invalid("suspend aborted: no ladder rung available"));
        // Freeze the flight-recorder tail on the typed clean abort so the
        // events leading up to it survive alongside the error.
        if let Some(t) = self.db.tracer() {
            t.record_failure(&format!("suspend aborted cleanly: {err}"));
        }
        Err(err)
    }

    /// True when the fault injector has halted all I/O (a crash or torn
    /// write fired): the simulated process is dead, no cleanup can run,
    /// and recovery owns the directory.
    fn halted(&self) -> bool {
        self.db
            .disk()
            .fault_injector()
            .is_some_and(|fi| fi.halted())
    }

    /// Choose the plan for one ladder rung. The requested rung honors the
    /// caller's policy (with the deadline as suspend-budget constraint
    /// when the policy carries none); lower rungs use progressively
    /// cheaper fixed strategies.
    fn rung_report(
        &self,
        rung: &Rung,
        policy: &SuspendPolicy,
        problem: &SuspendProblem,
        options: &SuspendOptions,
    ) -> Result<OptimizeReport> {
        let policy = match (rung, policy) {
            (Rung::Requested, SuspendPolicy::Optimized { budget }) => SuspendPolicy::Optimized {
                budget: budget.or(options.deadline),
            },
            (Rung::Requested, other) => other.clone(),
            (Rung::AllDump, _) => SuspendPolicy::AllDump,
            (Rung::AllGoBack, _) => SuspendPolicy::AllGoBack,
        };
        SuspendOptimizer::choose(&policy, problem, &self.ctx.graph)
    }

    /// Carry out one ladder rung end to end: walk the tree under the
    /// rung's plan, record fallbacks, persist the `SuspendedQuery`, sync
    /// everything it references, and commit the manifest. On failure the
    /// partial [`SuspendedQuery`] comes back with the error so the caller
    /// can salvage the dump blobs it references.
    fn attempt_rung(
        &mut self,
        report: &OptimizeReport,
        options: &SuspendOptions,
        phase: Phase,
        prev: Option<&SuspendManifest>,
    ) -> std::result::Result<(SuspendedHandle, SuspendedQuery), Box<(StorageError, SuspendedQuery)>>
    {
        // The rung's primary dump walk writes each dump as a delta frame
        // against its resume baseline when that is smaller; anything
        // recorded by an earlier (failed) rung is stale.
        self.ctx.set_delta_enabled(true);
        let _ = self.ctx.take_delta_emitted();
        let mut sq = SuspendedQuery {
            plan_bytes: self.spec.encode_to_vec(),
            suspend_plan: report.plan.clone(),
            tuples_emitted: self.tuples_emitted,
            graph_bytes: options
                .persist_graph
                .then(|| self.ctx.graph.encode_to_vec()),
            work_snapshot: self.ctx.work.snapshot().into_iter().collect(),
            ..Default::default()
        };

        // Operator dump blobs are written serially on this thread as the
        // walk reaches them; every one is durable before the manifest
        // rename below commits the suspend.
        let suspended = self
            .root
            .suspend(&mut self.ctx, SuspendMode::Current, &report.plan, &mut sq);
        if let Err(e) = suspended {
            return Err(Box::new((e, sq)));
        }
        // Harvest the delta chains the dump walk emitted *before* the
        // fallback shadow passes run (their scratch dumps are always full
        // frames and must not disturb the primary records' chains).
        self.ctx.set_delta_enabled(false);
        sq.delta_deps = self.ctx.take_delta_emitted();
        // Fallback insurance is charged to its own phase: the optimizer's
        // suspend-cost estimate budgets the chosen plan, not the
        // best-effort shadow passes that record a dump-free GoBack
        // fallback per dumped operator. Keeping those writes out of
        // `Phase::Suspend` keeps "measured suspend time ≤ budget"
        // meaningful (they still count toward total overhead).
        self.db.ledger().set_phase(Phase::Fallback);
        self.generate_fallbacks(&report.plan, &mut sq);
        self.db.ledger().set_phase(phase);

        let backend = self.db.backend();
        let blob = match backend.put_blob(&sq.encode_to_vec()) {
            Ok(b) => b,
            Err(e) => return Err(Box::new((e, sq))),
        };
        // The serialized SuspendedQuery is the one non-operator page write
        // of a committing rung; journaling it closes the per-phase
        // attribution sum (dump pages + seal pages + this).
        self.db.ledger().trace(|| TraceEvent::MetaWrite {
            label: "suspended-query",
            pages: pages_for_bytes(blob.len as usize) as u64,
        });
        self.db.ledger().trace(|| TraceEvent::BackendPut {
            backend: backend.name(),
            bytes: blob.len,
            pages: pages_for_bytes(blob.len as usize) as u64,
        });

        // Durability barrier: everything the manifest makes reachable must
        // have left this process before the rename that commits it, since
        // resume reopens the database with a fresh pool and reads from
        // disk. The blobs are fsynced. Run pages left the process when
        // their writer sealed them: they are in the OS page cache, not
        // fsynced — enough against a process kill (DESIGN.md §10), not
        // against an OS crash.
        if let Err(e) = self.sync_rung(&sq, blob) {
            // The just-saved `SuspendedQuery` blob is referenced by
            // nothing yet; reclaim it so a failed rung leaks no files.
            let _ = backend.delete_blob(blob);
            return Err(Box::new((e, sq)));
        }

        let generation = prev.map_or(1, |m| m.generation + 1);
        let mut manifest = SuspendManifest::new(generation, blob);
        manifest.chain_len = sq
            .delta_deps
            .values()
            .map(|chain| chain.len() as u64)
            .max()
            .unwrap_or(0);
        if let Err(e) = commit_manifest_named(&self.db, &self.manifest_name, &manifest) {
            let _ = backend.delete_blob(blob);
            return Err(Box::new((e, sq)));
        }
        Ok((
            SuspendedHandle {
                blob,
                report: report.clone(),
                generation,
                manifest_name: self.manifest_name.clone(),
                rung: Rung::Requested, // overwritten by the ladder loop
                spill_files: Vec::new(), // filled in by the ladder loop
            },
            sq,
        ))
    }

    /// Fsync the blobs a rung's manifest would reference, and check that
    /// every run this execution sealed has all its pages in its file — no
    /// page a writer still buffers can be reachable from the manifest.
    fn sync_rung(&self, sq: &SuspendedQuery, blob: BlobId) -> Result<()> {
        let backend = self.db.backend();
        backend.sync_blob(blob)?;
        for rec in sq.records.values().chain(sq.fallbacks.values().flatten()) {
            if let Some(b) = rec.heap_dump {
                backend.sync_blob(b)?;
            }
        }
        for run in &self.ctx.sealed_runs {
            let written = self.db.disk().num_pages(run.file)?;
            if written < run.pages {
                return Err(StorageError::invalid(format!(
                    "run {} holds {written} of its {} sealed pages",
                    run.file, run.pages
                )));
            }
        }
        Ok(())
    }

    /// After a rung fails: read back every dump blob its partial
    /// `SuspendedQuery` references. Blobs whose checksum validates go into
    /// the salvage cache — the next rung reuses them byte-for-byte instead
    /// of rewriting; blobs that do not read back cleanly (torn by the
    /// failure) are orphans and deleted immediately. Either way no file
    /// from a failed rung is left unaccounted for.
    fn salvage_rung(&mut self, partial: &SuspendedQuery) {
        let backend = self.db.backend();
        let mut valid = Vec::new();
        for rec in partial
            .records
            .values()
            .chain(partial.fallbacks.values().flatten())
        {
            if let Some(b) = rec.heap_dump {
                match backend.get_blob(b) {
                    Ok(_) => valid.push(b),
                    Err(_) => {
                        let _ = backend.delete_blob(b);
                    }
                }
            }
        }
        self.ctx.add_salvage(valid);
    }

    /// For each operator whose primary record dumps heap state, check
    /// whether its contract chain admits GoBack-to-self and, if so, run a
    /// *shadow* suspend pass over its subtree under a plan that flips only
    /// that operator to GoBack. The resulting record set is stored in
    /// `sq.fallbacks[op]`; resume substitutes it when the dump blob turns
    /// out to be missing or corrupt.
    ///
    /// Fallbacks are best-effort: a failure, an inadmissible chain, or a
    /// fallback that would itself need a dump blob simply skips that
    /// operator (the suspend stays correct — the fallback is optional).
    fn generate_fallbacks(&mut self, plan: &SuspendPlan, sq: &mut SuspendedQuery) {
        let candidates: Vec<OpId> = sq
            .records
            .values()
            .filter(|r| matches!(r.strategy, Strategy::Dump) && r.heap_dump.is_some())
            .map(|r| r.op)
            .collect();
        for op in candidates {
            // Admissible only with a live non-barrier checkpoint whose
            // contracts cover every rebuild child.
            if self.ctx.graph.resolve_chain(&self.topology, op, op).is_none() {
                continue;
            }
            let Some(latest) = self.ctx.graph.latest_ckpt(op) else {
                continue;
            };
            let covered = self
                .topology
                .node(op)
                .rebuild_children
                .iter()
                .all(|&c| self.ctx.graph.contract_from(latest, c).is_some());
            if !covered {
                continue;
            }

            let mut fplan = plan.clone();
            fplan.set(op, Strategy::GoBack { to: op });
            let mut scratch = SuspendedQuery::default();
            let ctx = &mut self.ctx;
            let mut outcome: Result<bool> = Ok(false);
            self.root.visit_mut(&mut |node: &mut dyn Operator| {
                if node.op_id() == op && matches!(outcome, Ok(false)) {
                    outcome = node
                        .suspend(ctx, SuspendMode::Current, &fplan, &mut scratch)
                        .map(|()| true);
                }
            });
            // A usable fallback must be dump-free — its whole point is to
            // survive without blobs.
            let dump_free = scratch.records.values().all(|r| r.heap_dump.is_none());
            match outcome {
                Ok(true) if dump_free && !scratch.records.is_empty() => {
                    sq.fallbacks
                        .insert(op, scratch.records.into_values().collect());
                }
                _ => {
                    for r in scratch.records.values() {
                        if let Some(b) = r.heap_dump {
                            let _ = self.db.backend().delete_blob(b);
                        }
                    }
                }
            }
        }
    }

    /// Load a `SuspendedQuery` blob through the suspend backend.
    fn load_sq(db: &Database, blob: BlobId) -> Result<SuspendedQuery> {
        SuspendedQuery::decode_from_slice(&db.backend().get_blob(blob)?)
    }

    /// Every file a generation's `SuspendedQuery` pins: record and
    /// fallback dump blobs plus the delta-chain ancestors under them.
    fn sq_files(sq: &SuspendedQuery) -> impl Iterator<Item = FileId> + '_ {
        sq.records
            .values()
            .chain(sq.fallbacks.values().flatten())
            .filter_map(|r| r.heap_dump.map(|b| b.file))
            .chain(sq.delta_deps.values().flatten().map(|b| b.file))
    }

    /// Generation GC after a commit: collect the superseded generation,
    /// and every generation an older build's manifest retained beside it,
    /// keeping anything the new generation references — including every
    /// blob its delta chains reach, so the live chain is never broken. Run
    /// files referenced through operator aux/control bytes are never
    /// touched — the new generation may share them. Best-effort: errors
    /// are ignored; a crash mid-GC leaks blobs but never loses committed
    /// state.
    fn gc_generations(db: &Database, old: &SuspendManifest, new_sq: &SuspendedQuery) {
        let keep: HashSet<FileId> = Self::sq_files(new_sq).collect();
        for (generation, qblob) in
            std::iter::once((old.generation, old.query)).chain(old.retained.iter().copied())
        {
            Self::gc_generation(db, generation, qblob, &keep);
        }
    }

    /// Delete one dropped generation's blobs: records and fallbacks first,
    /// then delta-chain ancestors nothing keeps alive, then the
    /// `SuspendedQuery` blob.
    ///
    /// Ordering invariant: dump blobs are deleted *before* the old
    /// `SuspendedQuery` blob. The old query blob is the only index of the
    /// old generation's dumps — deleting it first and crashing would leak
    /// dumps with no record to re-enumerate them, while this order lets a
    /// future GC pass resume from the surviving query blob. At every
    /// intermediate point the newly committed manifest names the one valid
    /// generation chain.
    fn gc_generation(db: &Database, generation: u64, qblob: BlobId, keep: &HashSet<FileId>) {
        let Ok(old_sq) = Self::load_sq(db, qblob) else {
            return;
        };
        let backend = db.backend();
        let mut deleted = 0u64;
        let mut seen: HashSet<FileId> = HashSet::new();
        for rec in old_sq
            .records
            .values()
            .chain(old_sq.fallbacks.values().flatten())
        {
            if let Some(b) = rec.heap_dump {
                if !keep.contains(&b.file) {
                    seen.insert(b.file);
                    if backend.delete_blob(b).is_ok() {
                        deleted += 1;
                    }
                }
            }
        }
        // Delta ancestors this generation pinned; deduped (a chain shared
        // by several operators lists its blobs once) and skipped when a
        // record delete above already covered the file.
        for b in old_sq.delta_deps.values().flatten() {
            if !keep.contains(&b.file) && seen.insert(b.file) && backend.delete_blob(*b).is_ok() {
                deleted += 1;
            }
        }
        if backend.delete_blob(qblob).is_ok() {
            deleted += 1;
        }
        db.ledger().trace(|| TraceEvent::RetentionGc {
            generation,
            blobs_deleted: deleted,
        });
    }

    /// Retire the committed generation after a successful resume (or when
    /// the resumed query ran to completion): remove the manifest, then
    /// delete the generation's blobs. The manifest removal is the
    /// retirement commit point — a crash *before* it leaves the generation
    /// fully resumable, a crash anywhere *after* it leaves the clean "no
    /// suspend" state (the remaining deletes only reclaim blobs no
    /// manifest references). The generation's records are enumerated
    /// before the manifest goes away, mirroring [`Self::gc_generation`]'s
    /// "index blob last" ordering; at every step there is at most one
    /// loadable generation and it is exactly what the manifest names.
    ///
    /// No-op when no manifest exists. An unreadable manifest or query blob
    /// degrades to removing the manifest alone (the blobs leak, committed
    /// state is never at risk).
    pub fn retire_generation(db: &Database) -> Result<()> {
        Self::retire_generation_named(db, SUSPEND_MANIFEST)
    }

    /// [`QueryExecution::retire_generation`] for an explicitly named
    /// manifest (per-session suspend chains).
    pub fn retire_generation_named(db: &Database, name: &str) -> Result<()> {
        let Some(m) = read_manifest_named(db, name).ok().flatten() else {
            return Ok(());
        };
        // Enumerate everything the manifest reaches — the current
        // generation and its retained predecessors — before the manifest
        // goes away.
        let old_sq = Self::load_sq(db, m.query).ok();
        let retained: Vec<(u64, Option<SuspendedQuery>, BlobId)> = m
            .retained
            .iter()
            .map(|(g, q)| (*g, Self::load_sq(db, *q).ok(), *q))
            .collect();
        clear_manifest_named(db, name)?;
        let backend = db.backend();
        let mut deleted = 0u64;
        let mut seen: HashSet<FileId> = HashSet::new();
        if let Some(sq) = &old_sq {
            for rec in sq.records.values().chain(sq.fallbacks.values().flatten()) {
                if let Some(b) = rec.heap_dump {
                    seen.insert(b.file);
                    if backend.delete_blob(b).is_ok() {
                        deleted += 1;
                    }
                }
            }
            for b in sq.delta_deps.values().flatten() {
                if seen.insert(b.file) && backend.delete_blob(*b).is_ok() {
                    deleted += 1;
                }
            }
        }
        if backend.delete_blob(m.query).is_ok() {
            deleted += 1;
        }
        db.ledger().trace(|| TraceEvent::RetentionGc {
            generation: m.generation,
            blobs_deleted: deleted,
        });
        // Retained predecessors are unreachable once the manifest is gone;
        // collect them too (their delta ancestors may be shared with the
        // primary chain, hence the cross-generation dedup).
        for (generation, rsq, qblob) in retained {
            let mut deleted = 0u64;
            if let Some(sq) = &rsq {
                for rec in sq.records.values().chain(sq.fallbacks.values().flatten()) {
                    if let Some(b) = rec.heap_dump {
                        if seen.insert(b.file) && backend.delete_blob(b).is_ok() {
                            deleted += 1;
                        }
                    }
                }
                for b in sq.delta_deps.values().flatten() {
                    if seen.insert(b.file) && backend.delete_blob(*b).is_ok() {
                        deleted += 1;
                    }
                }
            }
            if backend.delete_blob(qblob).is_ok() {
                deleted += 1;
            }
            db.ledger().trace(|| TraceEvent::RetentionGc {
                generation,
                blobs_deleted: deleted,
            });
        }
        Ok(())
    }

    /// Orphan-blob sweep (run on recover and available to GC): delete
    /// every blob the backend can enumerate that no committed manifest's
    /// closure — current and retained `SuspendedQuery` blobs, their record
    /// and fallback dumps, and every delta-chain ancestor — references.
    /// Torn remote puts leave exactly such blobs behind: the fragment
    /// landed under an id no manifest will ever name, and without this
    /// sweep it leaks forever.
    ///
    /// Backends that cannot enumerate blobs as a distinct class (the local
    /// disk, where dumps share a directory with table heaps) return `None`
    /// from [`SuspendBackend::list_blobs`] and the sweep is a no-op.
    /// Returns `(scanned, deleted)`. Deletes are charged to the ledger
    /// under [`Phase::Fallback`] — reclaim I/O caused by a failed suspend,
    /// not by any live query.
    ///
    /// Must only run while no suspend is in flight (recover-time, or a
    /// quiesced GC window): a concurrent suspend writes its dump blobs
    /// *before* committing the manifest that references them, and the
    /// sweep would reap that window's blobs as orphans.
    pub fn sweep_orphan_blobs(db: &Database) -> Result<(u64, u64)> {
        let backend = db.backend();
        let Some(blobs) = backend.list_blobs()? else {
            return Ok((0, 0));
        };
        let mut keep: HashSet<FileId> = HashSet::new();
        for name in backend.list_manifests("")? {
            // The sidecar namespace also holds session metadata and other
            // non-manifest files; anything that does not decode as a
            // manifest is not ours to interpret and keeps nothing alive.
            let Ok(Some(bytes)) = backend.read_manifest(&name) else {
                continue;
            };
            let Ok(m) = SuspendManifest::decode_from_slice(&bytes) else {
                continue;
            };
            for (_, qblob) in std::iter::once((m.generation, m.query))
                .chain(m.retained.iter().copied())
            {
                keep.insert(qblob.file);
                if let Ok(sq) = Self::load_sq(db, qblob) {
                    keep.extend(Self::sq_files(&sq));
                }
            }
        }
        let scanned = blobs.len() as u64;
        let mut deleted = 0u64;
        let ledger = db.ledger();
        let prev = ledger.phase();
        ledger.set_phase(Phase::Fallback);
        for b in blobs {
            if !keep.contains(&b.file) && backend.delete_blob(b).is_ok() {
                ledger.charge_write(1);
                deleted += 1;
            }
        }
        ledger.set_phase(prev);
        ledger.trace(|| TraceEvent::OrphanSweep { scanned, deleted });
        Ok((scanned, deleted))
    }

    /// Recover from a database directory: if a committed suspend manifest
    /// exists, validate and resume it; `Ok(None)` is the clean "no suspend
    /// happened" state. This is the fresh-process entry point — it needs
    /// nothing but the directory.
    pub fn recover(db: Arc<Database>) -> std::result::Result<Option<Self>, ResumeError> {
        Self::recover_named(db, SUSPEND_MANIFEST)
    }

    /// [`QueryExecution::recover`] for an explicitly named manifest. The
    /// recovered execution keeps committing under `name`, so a session
    /// resumed by the server stays on its own generation chain.
    pub fn recover_named(
        db: Arc<Database>,
        name: &str,
    ) -> std::result::Result<Option<Self>, ResumeError> {
        match read_manifest_named(&db, name)? {
            None => {
                db.ledger().trace(|| TraceEvent::RecoveryStep {
                    step: format!("no suspend manifest at {name}; clean start"),
                });
                Ok(None)
            }
            Some(m) => {
                db.ledger().trace(|| TraceEvent::RecoveryStep {
                    step: format!("manifest generation {} found at {name}; resuming", m.generation),
                });
                let mut exec = Self::resume_validated(db, m.query)?;
                exec.manifest_name = name.to_string();
                Ok(Some(exec))
            }
        }
    }

    /// Resume a suspended query: read `SuspendedQuery`, rebuild the plan,
    /// and reconstruct all operator state (the resume phase). The returned
    /// execution continues exactly after the last pre-suspend tuple, and
    /// commits its next suspend under the handle's manifest name.
    pub fn resume(db: Arc<Database>, handle: &SuspendedHandle) -> Result<Self> {
        let mut exec = Self::resume_from_blob(db, handle.blob)?;
        exec.manifest_name.clone_from(&handle.manifest_name);
        Ok(exec)
    }

    /// Resume from a raw blob id with a legacy `StorageError` result.
    /// Delegates to [`QueryExecution::resume_validated`]; like it, the
    /// execution commits under the default [`SUSPEND_MANIFEST`].
    pub fn resume_from_blob(db: Arc<Database>, blob: BlobId) -> Result<Self> {
        Self::resume_validated(db, blob).map_err(Into::into)
    }

    /// Validating resume with the structured [`ResumeError`] taxonomy:
    /// frame/checksum/version checks on the `SuspendedQuery`, plan-spec
    /// decode, catalog compatibility, bounded-backoff retry of transient
    /// I/O, and GoBack-fallback substitution for unreadable dump blobs.
    /// Each dump blob is read when its operator resumes, on this thread.
    pub fn resume_validated(
        db: Arc<Database>,
        blob: BlobId,
    ) -> std::result::Result<Self, ResumeError> {
        db.ledger().set_phase(Phase::Resume);
        let out = Self::resume_validated_inner(&db, blob);
        if let Err(e) = &out {
            // Attach the flight-recorder tail to the failure out-of-band
            // (the ResumeError shape is frozen; callers fetch the tail via
            // Database::tracer / Tracer::failure_tail).
            if let Some(t) = db.tracer() {
                t.record_failure(&format!("resume failed: {e}"));
            }
        }
        db.ledger().set_phase(Phase::Execute);
        out
    }

    fn resume_validated_inner(
        db: &Arc<Database>,
        blob: BlobId,
    ) -> std::result::Result<Self, ResumeError> {
        let mut sq = with_retries(|| Self::load_sq(db, blob)).map_err(|e| {
            if e.is_corruption() || matches!(e, StorageError::NotFound(_)) {
                ResumeError::SuspendedQueryUnreadable(e)
            } else {
                ResumeError::Storage(e)
            }
        })?;
        db.ledger().trace(|| TraceEvent::RecoveryStep {
            step: format!(
                "suspended query loaded: {} records, {} fallbacks",
                sq.records.len(),
                sq.fallbacks.len()
            ),
        });
        let spec = PlanSpec::decode_from_slice(&sq.plan_bytes)
            .map_err(|e| ResumeError::IncompatiblePlan(e.to_string()))?;
        for t in spec.tables() {
            if db.table(t).is_err() {
                return Err(ResumeError::MissingTable(t.to_string()));
            }
        }
        // Optimistic resume loop: try with the primary records; when a
        // dump blob turns out unreadable, substitute that operator's
        // GoBack fallback and rebuild. Bounded by the number of records.
        let mut substitutions = sq.records.len() + 1;
        loop {
            match with_retries(|| Self::try_resume(db, &spec, &sq)) {
                Ok(exec) => return Ok(exec),
                Err(e) if e.is_corruption() || matches!(e, StorageError::NotFound(_)) => {
                    if substitutions == 0 {
                        return Err(ResumeError::Storage(e));
                    }
                    substitutions -= 1;
                    let Some(op) = Self::find_unreadable_dump(db, &sq) else {
                        return Err(ResumeError::Storage(e));
                    };
                    match sq.fallbacks.remove(&op) {
                        Some(recs) => {
                            db.ledger().trace(|| TraceEvent::RecoveryStep {
                                step: format!(
                                    "dump blob for op {} unreadable; substituting GoBack fallback",
                                    op.0
                                ),
                            });
                            for r in recs {
                                sq.put_record(r);
                            }
                            sq.suspend_plan.set(op, Strategy::GoBack { to: op });
                        }
                        None => return Err(ResumeError::DumpUnavailable { op, source: e }),
                    }
                }
                Err(e) => return Err(ResumeError::Storage(e)),
            }
        }
    }

    /// Locate an operator whose dump blob no longer reads back cleanly. A
    /// delta frame is only as good as its whole chain, so the walk
    /// materializes chains end to end (checksum-verified apply) — damage
    /// to *any* ancestor marks the dependent operator unreadable.
    fn find_unreadable_dump(db: &Database, sq: &SuspendedQuery) -> Option<OpId> {
        for rec in sq.records.values() {
            if let Some(b) = rec.heap_dump {
                if let Err(e) = with_retries(|| Self::materialize_blob(db, b)) {
                    if !e.is_transient() {
                        return Some(rec.op);
                    }
                }
            }
        }
        None
    }

    /// Read a dump blob through the backend and fully reconstruct it if it
    /// is a delta frame (recursing through its ancestors).
    fn materialize_blob(db: &Database, id: BlobId) -> Result<Vec<u8>> {
        let raw = db.backend().get_blob(id)?;
        if !is_delta_frame(&raw) {
            return Ok(raw);
        }
        let delta = DeltaDump::decode_from_bytes(&raw)?;
        let base = Self::materialize_blob(db, delta.base)?;
        delta.apply(&base)
    }

    /// One resume attempt over a fixed record set: each operator reads
    /// its own dump blob through [`ExecContext::get_dump_value`] as it
    /// resumes, so fallback substitution always reads the *current*
    /// record set.
    fn try_resume(db: &Arc<Database>, spec: &PlanSpec, sq: &SuspendedQuery) -> Result<Self> {
        let built = build_plan(db, spec)?;
        let mut ctx = ExecContext::new(db.clone());
        if let Some(gb) = &sq.graph_bytes {
            ctx.graph = ContractGraph::decode_from_slice(gb)?;
        }
        ctx.work.restore(sq.work_snapshot.iter().copied());
        let mut exec = Self {
            db: db.clone(),
            ctx,
            root: built.root,
            spec: spec.clone(),
            topology: built.topology,
            tuples_emitted: sq.tuples_emitted,
            finished: false,
            manifest_name: SUSPEND_MANIFEST.to_string(),
        };
        exec.root.resume(&mut exec.ctx, sq)?;
        Ok(exec)
    }
}
