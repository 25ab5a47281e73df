//! Structured suspend-lifecycle tracing: typed events, a bounded
//! flight-recorder ring, and an optional JSONL sink.
//!
//! The [`Tracer`] is the single journal every layer writes to: phase
//! transitions (from [`CostLedger::set_phase`](crate::CostLedger)),
//! per-operator dump and execution I/O (from the exec layer), buffer-pool
//! evictions and write-backs, degradation-ladder rung lifecycle, injected faults, and resume recovery steps. Every record
//! carries the [`CostSnapshot`] at emit time, so post-hoc analysis can
//! attribute ledger deltas to the events between two records.
//!
//! ## Zero overhead when off
//!
//! No tracer installed ⇒ emit sites reduce to one relaxed atomic load
//! (see [`CostLedger::trace`](crate::CostLedger)); event payloads are
//! built inside closures that never run. The tracer itself performs all
//! file I/O through `std::fs`, never through the [`DiskManager`]
//! (crate::DiskManager), so tracing can never perturb the cost ledger:
//! with the tracer disabled or absent, ledger totals are bit-identical.
//!
//! ## Flight recorder
//!
//! The ring keeps the most recent `capacity` records. On a resume failure
//! or a clean ladder abort the driver calls [`Tracer::record_failure`],
//! freezing a copy of the tail next to the error label;
//! [`Tracer::failure_tail`] retrieves it for diagnostics without changing
//! the shape of any error type.

use crate::cost::{CostLedger, CostSnapshot, Phase, PhaseCost};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;

/// Default flight-recorder capacity (records kept in the ring).
pub const DEFAULT_RING_CAPACITY: usize = 256;

/// One typed trace event. Variants mirror the lifecycle layers: phases,
/// operator I/O, buffer pool, degradation ladder, fault injection, and
/// resume recovery.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// The ledger's active phase changed away from `phase`.
    PhaseExit {
        /// The phase being left.
        phase: Phase,
    },
    /// The ledger's active phase changed to `phase`.
    PhaseEnter {
        /// The phase now active.
        phase: Phase,
    },
    /// One operator dump blob was materialized (or reused from salvage).
    OpDump {
        /// Operator id.
        op: u32,
        /// Strategy label (currently always `"dump"`).
        strategy: &'static str,
        /// Encoded blob size in bytes.
        bytes: u64,
        /// Pages the blob occupies.
        pages: u64,
        /// True when a salvage-cache blob was reused (zero fresh I/O).
        reused: bool,
    },
    /// Per-operator execution I/O charged through the exec context.
    OpIo {
        /// Operator id.
        op: u32,
        /// Pages read.
        reads: u64,
        /// Pages written.
        writes: u64,
    },
    /// The buffer pool evicted a frame.
    PoolEvict {
        /// File of the victim page.
        file: u64,
        /// Page number of the victim.
        page: u64,
        /// Whether the victim was dirty (written back separately).
        dirty: bool,
    },
    /// The buffer pool wrote dirty frames back to disk.
    PoolWriteBack {
        /// File flushed.
        file: u64,
        /// Dirty pages written back.
        pages: u64,
    },
    /// A degradation-ladder rung was entered.
    RungStart {
        /// Rung name.
        rung: &'static str,
    },
    /// The optimizer produced a plan for the current rung.
    RungPlan {
        /// Rung name.
        rung: &'static str,
        /// Estimated suspend cost of the plan.
        est_suspend: f64,
        /// Estimated resume cost of the plan.
        est_resume: f64,
    },
    /// The current rung was abandoned (ladder descends or aborts).
    RungAbort {
        /// Rung name.
        rung: &'static str,
        /// Why (admission decision, watchdog veto, or I/O error).
        reason: String,
    },
    /// The current rung committed a resumable suspend.
    RungCommit {
        /// Rung name.
        rung: &'static str,
        /// Manifest generation committed.
        generation: u64,
    },
    /// The fault injector struck an I/O event.
    FaultInjected {
        /// Target label (file or sidecar name; empty for reads).
        target: String,
        /// Fault class label.
        kind: &'static str,
        /// 1-based ordinal of the struck event.
        ordinal: u64,
    },
    /// One step of resume-time recovery (validation, substitution).
    RecoveryStep {
        /// Human-readable step description.
        step: String,
    },
    /// A grace hash join entered a recursive spill: one over-budget
    /// partition is being re-partitioned one level deeper.
    PartitionSpill {
        /// Operator id.
        op: u32,
        /// Recursion level being *entered* (1 = first re-partition).
        level: u64,
        /// Dot-separated partition indices from the root to this
        /// partition (e.g. `"2.0"`).
        path: String,
        /// Build tuples in the partition being re-partitioned.
        tuples: u64,
        /// Pages of the build run being re-partitioned.
        pages: u64,
    },
    /// An external sort started one intermediate merge-pass group.
    MergePass {
        /// Operator id.
        op: u32,
        /// Zero-based pass number.
        pass: u64,
        /// Input runs merged by this group.
        runs: u64,
        /// Total tuples across the group's input runs.
        tuples: u64,
        /// Total pages across the group's input runs.
        pages: u64,
    },
    /// Suspend metadata written outside any operator (e.g. the
    /// `SuspendedQuery` blob or the manifest commit).
    MetaWrite {
        /// What was written.
        label: &'static str,
        /// Pages charged.
        pages: u64,
    },
    /// The dump watchdog vetoed a suspend-phase write.
    WatchdogVeto {
        /// Cost already spent against the budget.
        spent: f64,
        /// The budget.
        budget: f64,
        /// Estimated cost of the vetoed write.
        upcoming: f64,
    },
    /// The multi-session server admitted a new session.
    SessionAdmit {
        /// Session id.
        session: u64,
        /// Owning tenant.
        tenant: String,
        /// Scheduling priority (higher = survives pressure longer).
        priority: u32,
    },
    /// The scheduler chose a live session as the preemption victim and is
    /// about to suspend it.
    Preempt {
        /// The victim session.
        session: u64,
        /// The victim-choice signal: estimated suspend cost of the
        /// optimal plan for this execution.
        est_suspend_cost: f64,
        /// What raised the preemption (quantum expiry, memory/slot
        /// pressure, disk pressure).
        reason: String,
    },
    /// The scheduler resumed a suspended session from its committed
    /// generation.
    SessionResume {
        /// The resumed session.
        session: u64,
        /// Manifest generation it resumed from.
        generation: u64,
    },
    /// The server shed a session (clean abort) to relieve pressure before
    /// starving all tenants.
    Shed {
        /// The shed session.
        session: u64,
        /// Its priority at shed time (sheds pick the lowest).
        priority: u32,
        /// The pressure that forced the shed.
        reason: String,
    },
    /// A suspend backend persisted one dump blob.
    BackendPut {
        /// Backend label (`local`, `memory`, `remote`).
        backend: &'static str,
        /// Payload bytes written.
        bytes: u64,
        /// Pages the blob occupies.
        pages: u64,
    },
    /// The robustness layer retried a transient backend failure.
    BackendRetry {
        /// Backend label the retry targets.
        backend: &'static str,
        /// 1-based attempt number that failed.
        attempt: u32,
        /// The transient error that triggered the retry.
        reason: String,
    },
    /// The robustness layer failed over from one backend to another.
    Failover {
        /// Backend label abandoned.
        from: &'static str,
        /// Backend label now serving.
        to: &'static str,
        /// The error that forced the failover.
        reason: String,
    },
    /// A delta chain was folded back into a full checkpoint (compaction).
    ChainCompact {
        /// Operator whose chain was compacted.
        op: u32,
        /// Chain length (delta links) folded away.
        chain_len: u64,
    },
    /// Generation GC collected an old suspend generation.
    RetentionGc {
        /// The collected generation.
        generation: u64,
        /// Dump blobs deleted with it.
        blobs_deleted: u64,
    },
    /// An orphan-blob sweep ran (on recover or GC): blobs the backend
    /// enumerated vs. blobs referenced by no retained manifest or live
    /// delta chain that were deleted.
    OrphanSweep {
        /// Blobs the backend listed.
        scanned: u64,
        /// Unreferenced blobs deleted.
        deleted: u64,
    },
    /// Admission control priced a new session against the live victim set
    /// and refused to start it (rejected outright or parked on the queue).
    AdmissionReject {
        /// Requesting tenant label.
        tenant: String,
        /// Estimated memory demand in tuples.
        est_mem: u64,
        /// Suspend-cost price of freeing that much memory (infinite when
        /// no victim combination suffices).
        price: f64,
        /// True when the session was queued for retry instead of rejected.
        queued: bool,
    },
}

/// One journal record: a sequence number, the phase active at emit time,
/// the event, and the full ledger snapshot at emit time.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Monotone per-tracer sequence number (0-based).
    pub seq: u64,
    /// Ledger phase active when the event was emitted.
    pub phase: Phase,
    /// The event.
    pub event: TraceEvent,
    /// Ledger counters at emit time.
    pub ledger: CostSnapshot,
}

struct TracerInner {
    seq: u64,
    capacity: usize,
    ring: VecDeque<TraceRecord>,
    /// When enabled, every record is also kept here (unbounded; tests and
    /// the attribution summarizer use it).
    full: Option<Vec<TraceRecord>>,
    /// Unbuffered append-mode sink: each line goes out in one `write_all`
    /// on an `O_APPEND` fd, so several live tracers (e.g. the suspend-side
    /// and resume-side database handles of one oracle scenario) can share
    /// a sink path without interleaving partial lines.
    sink: Option<File>,
    failure: Option<(String, Vec<TraceRecord>)>,
}

/// The structured event journal. Install on a database with
/// [`Database::install_tracer`](crate::Database::install_tracer); every
/// layer with ledger access then emits through
/// [`CostLedger::trace`](crate::CostLedger::trace).
pub struct Tracer {
    ledger: CostLedger,
    inner: Mutex<TracerInner>,
}

impl Tracer {
    /// A tracer snapshotting `ledger` at each emit, with the default ring
    /// capacity.
    pub fn new(ledger: CostLedger) -> Self {
        Self::with_capacity(ledger, DEFAULT_RING_CAPACITY)
    }

    /// A tracer with an explicit flight-recorder ring capacity.
    pub fn with_capacity(ledger: CostLedger, capacity: usize) -> Self {
        Self {
            ledger,
            inner: Mutex::new(TracerInner {
                seq: 0,
                capacity: capacity.max(1),
                ring: VecDeque::new(),
                full: None,
                sink: None,
                failure: None,
            }),
        }
    }

    /// Keep every record (not just the ring tail) for later retrieval via
    /// [`Tracer::take_full`]. Used by tests and the attribution table.
    pub fn enable_full_capture(&self) {
        let mut g = self.inner.lock();
        if g.full.is_none() {
            g.full = Some(Vec::new());
        }
    }

    /// Append records as JSON lines to `path` (created if missing). The
    /// sink uses plain `std::fs` I/O and never touches the cost ledger.
    pub fn set_json_sink(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        self.inner.lock().sink = Some(file);
        Ok(())
    }

    /// Emit one event, stamping it with the current ledger snapshot.
    pub fn emit(&self, event: TraceEvent) {
        let ledger = self.ledger.snapshot();
        let phase = self.ledger.phase();
        let mut g = self.inner.lock();
        let rec = TraceRecord {
            seq: g.seq,
            phase,
            event,
            ledger,
        };
        g.seq += 1;
        if let Some(sink) = g.sink.as_mut() {
            let mut line = record_json(&rec);
            line.push('\n');
            let _ = sink.write_all(line.as_bytes());
        }
        if let Some(full) = g.full.as_mut() {
            full.push(rec.clone());
        }
        if g.ring.len() == g.capacity {
            g.ring.pop_front();
        }
        g.ring.push_back(rec);
    }

    /// Number of events emitted so far.
    pub fn events_emitted(&self) -> u64 {
        self.inner.lock().seq
    }

    /// The current flight-recorder tail (oldest first).
    pub fn tail(&self) -> Vec<TraceRecord> {
        self.inner.lock().ring.iter().cloned().collect()
    }

    /// Drain the full capture (empty unless
    /// [`Tracer::enable_full_capture`] was called). Capture stays enabled.
    pub fn take_full(&self) -> Vec<TraceRecord> {
        let mut g = self.inner.lock();
        match g.full.as_mut() {
            Some(v) => std::mem::take(v),
            None => Vec::new(),
        }
    }

    /// Freeze the current tail next to `label`. Called by the lifecycle
    /// driver when a suspend aborts cleanly or a resume fails, so the
    /// events leading up to the error survive for diagnostics.
    pub fn record_failure(&self, label: &str) {
        let mut g = self.inner.lock();
        let tail: Vec<TraceRecord> = g.ring.iter().cloned().collect();
        g.failure = Some((label.to_string(), tail));
        if let Some(sink) = g.sink.as_mut() {
            let _ = sink.write_all(format!("{{\"failure\":{}}}\n", json_string(label)).as_bytes());
        }
    }

    /// The most recent failure label and its frozen flight-recorder tail.
    pub fn failure_tail(&self) -> Option<(String, Vec<TraceRecord>)> {
        self.inner.lock().failure.clone()
    }

    /// Flush the JSONL sink, if one is attached. Each line is already
    /// written out eagerly; this only drains OS-level buffering.
    pub fn flush(&self) {
        if let Some(sink) = self.inner.lock().sink.as_mut() {
            let _ = sink.flush();
        }
    }
}

/// Install a tracer on `db` whose JSONL sink is `path`, and return it.
/// Harnesses (bench, oracle) call this after every `Database` open when
/// their trace setting names a sink, so repro runs carry their traces.
pub fn install_json_tracer(
    db: &crate::db::Database,
    path: &std::path::Path,
) -> std::io::Result<std::sync::Arc<Tracer>> {
    let tracer = std::sync::Arc::new(Tracer::new(db.ledger().clone()));
    tracer.set_json_sink(path)?;
    db.install_tracer(Some(tracer.clone()));
    Ok(tracer)
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let g = self.inner.lock();
        f.debug_struct("Tracer")
            .field("seq", &g.seq)
            .field("ring_len", &g.ring.len())
            .field("has_sink", &g.sink.is_some())
            .finish()
    }
}

/// Lowercase phase label used in JSON output.
pub fn phase_name(p: Phase) -> &'static str {
    match p {
        Phase::Execute => "execute",
        Phase::Suspend => "suspend",
        Phase::Fallback => "fallback",
        Phase::Resume => "resume",
    }
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Escape `s` as a JSON string literal (quotes included).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The event's JSON name and data object.
pub fn event_json(e: &TraceEvent) -> (&'static str, String) {
    match e {
        TraceEvent::PhaseExit { phase } => (
            "PhaseExit",
            format!("{{\"phase\":{}}}", json_string(phase_name(*phase))),
        ),
        TraceEvent::PhaseEnter { phase } => (
            "PhaseEnter",
            format!("{{\"phase\":{}}}", json_string(phase_name(*phase))),
        ),
        TraceEvent::OpDump {
            op,
            strategy,
            bytes,
            pages,
            reused,
        } => (
            "OpDump",
            format!(
                "{{\"op\":{op},\"strategy\":{},\"bytes\":{bytes},\"pages\":{pages},\"reused\":{reused}}}",
                json_string(strategy)
            ),
        ),
        TraceEvent::OpIo { op, reads, writes } => (
            "OpIo",
            format!("{{\"op\":{op},\"reads\":{reads},\"writes\":{writes}}}"),
        ),
        TraceEvent::PoolEvict { file, page, dirty } => (
            "PoolEvict",
            format!("{{\"file\":{file},\"page\":{page},\"dirty\":{dirty}}}"),
        ),
        TraceEvent::PoolWriteBack { file, pages } => (
            "PoolWriteBack",
            format!("{{\"file\":{file},\"pages\":{pages}}}"),
        ),
        TraceEvent::RungStart { rung } => (
            "RungStart",
            format!("{{\"rung\":{}}}", json_string(rung)),
        ),
        TraceEvent::RungPlan {
            rung,
            est_suspend,
            est_resume,
        } => (
            "RungPlan",
            format!(
                "{{\"rung\":{},\"est_suspend\":{},\"est_resume\":{}}}",
                json_string(rung),
                json_f64(*est_suspend),
                json_f64(*est_resume)
            ),
        ),
        TraceEvent::RungAbort { rung, reason } => (
            "RungAbort",
            format!(
                "{{\"rung\":{},\"reason\":{}}}",
                json_string(rung),
                json_string(reason)
            ),
        ),
        TraceEvent::RungCommit { rung, generation } => (
            "RungCommit",
            format!(
                "{{\"rung\":{},\"generation\":{generation}}}",
                json_string(rung)
            ),
        ),
        TraceEvent::FaultInjected {
            target,
            kind,
            ordinal,
        } => (
            "FaultInjected",
            format!(
                "{{\"target\":{},\"kind\":{},\"ordinal\":{ordinal}}}",
                json_string(target),
                json_string(kind)
            ),
        ),
        TraceEvent::RecoveryStep { step } => (
            "RecoveryStep",
            format!("{{\"step\":{}}}", json_string(step)),
        ),
        TraceEvent::PartitionSpill {
            op,
            level,
            path,
            tuples,
            pages,
        } => (
            "PartitionSpill",
            format!(
                "{{\"op\":{op},\"level\":{level},\"path\":{},\"tuples\":{tuples},\"pages\":{pages}}}",
                json_string(path)
            ),
        ),
        TraceEvent::MergePass {
            op,
            pass,
            runs,
            tuples,
            pages,
        } => (
            "MergePass",
            format!(
                "{{\"op\":{op},\"pass\":{pass},\"runs\":{runs},\"tuples\":{tuples},\"pages\":{pages}}}"
            ),
        ),
        TraceEvent::MetaWrite { label, pages } => (
            "MetaWrite",
            format!("{{\"label\":{},\"pages\":{pages}}}", json_string(label)),
        ),
        TraceEvent::WatchdogVeto {
            spent,
            budget,
            upcoming,
        } => (
            "WatchdogVeto",
            format!(
                "{{\"spent\":{},\"budget\":{},\"upcoming\":{}}}",
                json_f64(*spent),
                json_f64(*budget),
                json_f64(*upcoming)
            ),
        ),
        TraceEvent::SessionAdmit {
            session,
            tenant,
            priority,
        } => (
            "SessionAdmit",
            format!(
                "{{\"session\":{session},\"tenant\":{},\"priority\":{priority}}}",
                json_string(tenant)
            ),
        ),
        TraceEvent::Preempt {
            session,
            est_suspend_cost,
            reason,
        } => (
            "Preempt",
            format!(
                "{{\"session\":{session},\"est_suspend_cost\":{},\"reason\":{}}}",
                json_f64(*est_suspend_cost),
                json_string(reason)
            ),
        ),
        TraceEvent::SessionResume {
            session,
            generation,
        } => (
            "SessionResume",
            format!("{{\"session\":{session},\"generation\":{generation}}}"),
        ),
        TraceEvent::Shed {
            session,
            priority,
            reason,
        } => (
            "Shed",
            format!(
                "{{\"session\":{session},\"priority\":{priority},\"reason\":{}}}",
                json_string(reason)
            ),
        ),
        TraceEvent::BackendPut {
            backend,
            bytes,
            pages,
        } => (
            "BackendPut",
            format!(
                "{{\"backend\":{},\"bytes\":{bytes},\"pages\":{pages}}}",
                json_string(backend)
            ),
        ),
        TraceEvent::BackendRetry {
            backend,
            attempt,
            reason,
        } => (
            "BackendRetry",
            format!(
                "{{\"backend\":{},\"attempt\":{attempt},\"reason\":{}}}",
                json_string(backend),
                json_string(reason)
            ),
        ),
        TraceEvent::Failover { from, to, reason } => (
            "Failover",
            format!(
                "{{\"from\":{},\"to\":{},\"reason\":{}}}",
                json_string(from),
                json_string(to),
                json_string(reason)
            ),
        ),
        TraceEvent::ChainCompact { op, chain_len } => (
            "ChainCompact",
            format!("{{\"op\":{op},\"chain_len\":{chain_len}}}"),
        ),
        TraceEvent::RetentionGc {
            generation,
            blobs_deleted,
        } => (
            "RetentionGc",
            format!("{{\"generation\":{generation},\"blobs_deleted\":{blobs_deleted}}}"),
        ),
        TraceEvent::OrphanSweep { scanned, deleted } => (
            "OrphanSweep",
            format!("{{\"scanned\":{scanned},\"deleted\":{deleted}}}"),
        ),
        TraceEvent::AdmissionReject {
            tenant,
            est_mem,
            price,
            queued,
        } => (
            "AdmissionReject",
            format!(
                "{{\"tenant\":{},\"est_mem\":{est_mem},\"price\":{},\"queued\":{queued}}}",
                json_string(tenant),
                json_f64(*price)
            ),
        ),
    }
}

fn phase_cost_json(p: &PhaseCost) -> String {
    format!(
        "{{\"pages_read\":{},\"pages_written\":{},\"direct_cost\":{}}}",
        p.pages_read,
        p.pages_written,
        json_f64(p.direct_cost)
    )
}

fn snapshot_json(s: &CostSnapshot) -> String {
    let mut phases = String::from("{");
    for (i, p) in Phase::ALL.iter().enumerate() {
        if i > 0 {
            phases.push(',');
        }
        let pc = s.phase(*p);
        phases.push_str(&format!(
            "{}:{}",
            json_string(phase_name(*p)),
            phase_cost_json(&pc)
        ));
    }
    phases.push('}');
    format!(
        "{{\"phases\":{phases},\"cache\":{{\"hits\":{},\"misses\":{},\"evictions\":{},\"write_backs\":{}}}}}",
        s.cache.hits, s.cache.misses, s.cache.evictions, s.cache.write_backs
    )
}

/// Render one record as a single JSON line (no trailing newline).
pub fn record_json(r: &TraceRecord) -> String {
    let (name, data) = event_json(&r.event);
    format!(
        "{{\"seq\":{},\"phase\":{},\"event\":{},\"data\":{data},\"ledger\":{}}}",
        r.seq,
        json_string(phase_name(r.phase)),
        json_string(name),
        snapshot_json(&r.ledger)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;

    #[test]
    fn ring_keeps_only_the_tail() {
        let t = Tracer::with_capacity(CostLedger::new(CostModel::symmetric(1.0)), 3);
        for i in 0..10u32 {
            t.emit(TraceEvent::OpIo {
                op: i,
                reads: 1,
                writes: 0,
            });
        }
        let tail = t.tail();
        assert_eq!(tail.len(), 3);
        assert_eq!(tail[0].seq, 7);
        assert_eq!(tail[2].seq, 9);
        assert_eq!(t.events_emitted(), 10);
    }

    #[test]
    fn full_capture_keeps_everything() {
        let t = Tracer::with_capacity(CostLedger::default(), 2);
        t.enable_full_capture();
        for _ in 0..5 {
            t.emit(TraceEvent::RungStart { rung: "requested" });
        }
        assert_eq!(t.take_full().len(), 5);
        assert_eq!(t.tail().len(), 2);
        // Capture stays on after draining.
        t.emit(TraceEvent::RungAbort {
            rung: "requested",
            reason: "x".into(),
        });
        assert_eq!(t.take_full().len(), 1);
    }

    #[test]
    fn records_carry_the_ledger_snapshot() {
        let ledger = CostLedger::new(CostModel::symmetric(1.0));
        let t = Tracer::new(ledger.clone());
        ledger.charge_read(7);
        t.emit(TraceEvent::OpIo {
            op: 0,
            reads: 7,
            writes: 0,
        });
        let tail = t.tail();
        assert_eq!(tail[0].ledger.total_pages_read(), 7);
        assert_eq!(tail[0].phase, Phase::Execute);
    }

    #[test]
    fn failure_freezes_the_tail() {
        let t = Tracer::with_capacity(CostLedger::default(), 4);
        t.emit(TraceEvent::RungStart { rung: "all-dump" });
        t.record_failure("boom");
        t.emit(TraceEvent::RungStart { rung: "all-goback" });
        let (label, tail) = t.failure_tail().unwrap();
        assert_eq!(label, "boom");
        assert_eq!(tail.len(), 1, "tail frozen before the later event");
    }

    #[test]
    fn json_lines_are_well_formed() {
        let ledger = CostLedger::default();
        let t = Tracer::new(ledger.clone());
        ledger.set_phase(Phase::Suspend);
        t.emit(TraceEvent::RungAbort {
            rung: "requested",
            reason: "quota \"tight\"\n".into(),
        });
        let line = record_json(&t.tail()[0]);
        assert!(line.starts_with("{\"seq\":0,\"phase\":\"suspend\""));
        assert!(line.contains("\\\"tight\\\""), "{line}");
        assert!(line.contains("\\n"), "{line}");
        assert!(!line.contains('\n'), "one line");
        // Balanced braces (cheap well-formedness proxy).
        let opens = line.matches('{').count();
        let closes = line.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn json_sink_appends_lines() {
        /// Removed even when an assertion fails.
        struct TempDir(std::path::PathBuf);
        impl Drop for TempDir {
            fn drop(&mut self) {
                let _ = std::fs::remove_dir_all(&self.0);
            }
        }
        let dir =
            TempDir(std::env::temp_dir().join(format!("qsr-trace-test-{}", std::process::id())));
        std::fs::create_dir_all(&dir.0).unwrap();
        let path = dir.0.join("t.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let t = Tracer::new(CostLedger::default());
            t.set_json_sink(&path).unwrap();
            t.emit(TraceEvent::PoolWriteBack { file: 3, pages: 2 });
            t.emit(TraceEvent::RungStart { rung: "requested" });
        }
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body.lines().count(), 2);
        assert!(body.contains("\"PoolWriteBack\""));
    }
}
