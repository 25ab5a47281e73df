//! Deterministic fault injection for crash-safety testing.
//!
//! A [`FaultInjector`] is attached to a [`DiskManager`](crate::DiskManager)
//! (and therefore covers every [`BlobStore`](crate::BlobStore), heap, run,
//! and sidecar I/O flowing through it). Tests script faults against a
//! global ordinal of I/O events:
//!
//! * every page write, file create, file delete, and sidecar commit step
//!   is one **write event**;
//! * every page read is one **read event**.
//!
//! Faults are exact and repeatable — "fail the 7th write" fails the same
//! operation on every run of the same workload, which is what lets the
//! crash-matrix harness enumerate every suspend-phase write and crash at
//! each one in turn.
//!
//! ## Crash model
//!
//! A [`WriteFault::Crash`] (or the tail end of a [`WriteFault::Torn`]
//! write) *halts* the injector: the failed process would be dead, so every
//! subsequent read **and** write through the same manager also fails until
//! [`FaultInjector::clear`] is called or a fresh `Database` is opened over
//! the directory without the injector. This prevents a buggy caller from
//! "recovering" inside the doomed process — post-crash cleanup code paths
//! must not be able to repair state the real crashed process could not.
//!
//! Durability is modeled as write-through: bytes issued before the crash
//! point are on disk, bytes after are not. Torn writes model the one
//! partial-durability case that matters for page-granular storage — a
//! page (or sidecar file) whose prefix hit the platter before power cut.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

use crate::error::{Result, StorageError};

/// What to do to a scripted write event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFault {
    /// Fail the write and halt all subsequent I/O (simulated process death).
    /// Nothing from this write reaches disk.
    Crash,
    /// Write only a prefix of the payload, then halt. Models a torn page:
    /// the tail of the page (or sidecar file) never hits disk.
    Torn,
    /// Fail this and the next `n - 1` write attempts with a retryable
    /// I/O error ([`StorageError::is_transient`] returns true), then let
    /// retries through. Models a flaky device or interrupted syscall.
    Transient(u32),
    /// Fail the write with a non-retryable I/O error but keep the process
    /// alive. Models revoked permission or a dying device.
    Permanent,
    /// Fail the write with a typed [`StorageError::NoSpace`] and keep the
    /// process alive. Models disk exhaustion striking exactly this write —
    /// the error the suspend degradation ladder steps down on, so this
    /// fault kind lets tests drive every ladder rung from any ordinal.
    NoSpace,
}

/// What the storage layer should do with one write event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteOutcome {
    /// No fault: perform the write normally.
    Proceed,
    /// Torn write: persist only the first `keep` bytes of the payload.
    /// The injector is already halted; the caller must not report success
    /// (it will fail its *next* I/O, like a crashed process would).
    TornPrefix(usize),
}

/// The operation class of one recorded write event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum WriteKind {
    /// File creation.
    Create,
    /// A page write or append (the buffer pool turns buffered appends
    /// into ordered write-backs, so both record as `Page`).
    Page,
    /// File deletion.
    Delete,
    /// The tmp-file half of an atomic sidecar commit.
    SidecarWrite,
    /// The rename half of an atomic sidecar commit.
    SidecarRename,
    /// Sidecar removal.
    SidecarRemove,
}

/// One recorded write event: which target it hit, what it was, and how
/// many payload bytes it carried. Recorded (when enabled) by the disk
/// manager alongside fault consultation, so tests can compare the exact
/// per-file write sequences of two executions (e.g. a suspend with and
/// without a caching pool).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WriteEvent {
    /// Target label: the page-file name (`f12.qsr`) or sidecar name.
    pub target: String,
    /// Operation class.
    pub kind: WriteKind,
    /// Payload length in bytes.
    pub len: usize,
}

#[derive(Default)]
struct State {
    writes: u64,
    reads: u64,
    write_faults: HashMap<u64, WriteFault>,
    /// Per-target write ordinals: how many write events each target label
    /// (`f12.qsr`, a sidecar name, `remote:put`) has seen. Unlike the
    /// global counter, a target's ordinal stream is unaffected by writes
    /// to *other* targets, so faults scripted per-target stay exact under
    /// concurrent interleaving across files.
    target_writes: HashMap<String, u64>,
    /// Faults scripted against the nth write event of a specific target.
    target_write_faults: HashMap<(String, u64), WriteFault>,
    /// Read ordinals whose returned bytes get one bit flipped.
    read_flips: HashMap<u64, ()>,
    /// Read ordinals that fail with a transient error.
    read_transients: HashMap<u64, ()>,
    halted: bool,
    /// When true, labeled write events are appended to `events`.
    recording: bool,
    events: Vec<WriteEvent>,
}

/// Scriptable, deterministic I/O fault injector. See the module docs for
/// the event-counting and crash model.
pub struct FaultInjector {
    state: Mutex<State>,
    seed: u64,
}

impl Default for FaultInjector {
    fn default() -> Self {
        Self::new()
    }
}

/// SplitMix64 step — used to derive which bit a read-flip corrupts (and by
/// [`FaultSchedule::from_seed`] and the oracle harness as a deterministic
/// PRNG), so derived values vary across ordinals but are identical across
/// runs.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FaultInjector {
    /// An injector with no scripted faults (still counts events).
    pub fn new() -> Self {
        Self::seeded(0)
    }

    /// An injector whose derived values (e.g. which bit a read flip
    /// corrupts) are drawn from `seed`.
    pub fn seeded(seed: u64) -> Self {
        Self {
            state: Mutex::new(State::default()),
            seed,
        }
    }

    /// Convenience: a shareable injector.
    pub fn new_arc() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// Script a fault against the `nth` write event (1-based: `n = 1`
    /// fails the first write after the injector is attached).
    pub fn fail_write(&self, nth: u64, fault: WriteFault) {
        assert!(nth >= 1, "write ordinals are 1-based");
        let mut st = self.state.lock();
        match fault {
            WriteFault::Transient(count) => {
                // A retried write gets a fresh ordinal, so expanding the
                // window here makes `count` consecutive attempts fail.
                for i in 0..count as u64 {
                    st.write_faults.insert(nth + i, WriteFault::Transient(1));
                }
            }
            f => {
                st.write_faults.insert(nth, f);
            }
        }
    }

    /// Script a fault against the `nth` write event *of one target label*
    /// (1-based). Target labels are the ones carried by
    /// [`FaultInjector::before_write_at`]: page-file names (`f12.qsr`),
    /// sidecar names, or `remote:put`. Unlike [`FaultInjector::fail_write`],
    /// the ordinal here counts only writes to `target`, so the script stays
    /// exact when concurrent sessions interleave writes to other files —
    /// the threaded stress lane relies on this. A per-target fault takes
    /// precedence over a global-ordinal fault landing on the same event.
    pub fn fail_write_on(&self, target: &str, nth: u64, fault: WriteFault) {
        assert!(nth >= 1, "write ordinals are 1-based");
        let mut st = self.state.lock();
        match fault {
            WriteFault::Transient(count) => {
                for i in 0..count as u64 {
                    st.target_write_faults
                        .insert((target.to_string(), nth + i), WriteFault::Transient(1));
                }
            }
            f => {
                st.target_write_faults.insert((target.to_string(), nth), f);
            }
        }
    }

    /// Write events observed so far on one target label (including failed
    /// ones). Targets the injector has never seen report 0.
    pub fn writes_observed_on(&self, target: &str) -> u64 {
        self.state
            .lock()
            .target_writes
            .get(target)
            .copied()
            .unwrap_or(0)
    }

    /// Script one bit flip into the bytes returned by the `nth` read
    /// event (1-based). The bit position is derived from the seed and the
    /// ordinal, so it is stable across runs.
    pub fn flip_read_bit(&self, nth: u64) {
        assert!(nth >= 1, "read ordinals are 1-based");
        self.state.lock().read_flips.insert(nth, ());
    }

    /// Script transient failures for `count` read events starting at the
    /// `nth` (1-based). Retried reads get fresh ordinals, so `count`
    /// consecutive attempts fail before a retry succeeds.
    pub fn fail_reads_transiently(&self, nth: u64, count: u32) {
        assert!(nth >= 1, "read ordinals are 1-based");
        let mut st = self.state.lock();
        for i in 0..count as u64 {
            st.read_transients.insert(nth + i, ());
        }
    }

    /// Total write events observed so far (including failed ones).
    pub fn writes_observed(&self) -> u64 {
        self.state.lock().writes
    }

    /// Total read events observed so far (including failed ones).
    pub fn reads_observed(&self) -> u64 {
        self.state.lock().reads
    }

    /// True once a [`WriteFault::Crash`] or [`WriteFault::Torn`] has fired.
    pub fn halted(&self) -> bool {
        self.state.lock().halted
    }

    /// Drop all scripted faults, the halt flag, and the event counters.
    /// Equivalent to "restarting the process" while keeping the disk: the
    /// restarted process counts its I/O from scratch, so ordinals scripted
    /// after a `clear` are 1-based again.
    pub fn clear(&self) {
        *self.state.lock() = State::default();
    }

    /// Turn labeled write-event recording on or off. Turning it on clears
    /// any previously recorded events, so a recording window starts empty.
    pub fn record_events(&self, on: bool) {
        let mut st = self.state.lock();
        st.recording = on;
        if on {
            st.events.clear();
        }
    }

    /// Drain the recorded write events (oldest first).
    pub fn take_events(&self) -> Vec<WriteEvent> {
        std::mem::take(&mut self.state.lock().events)
    }

    /// The error every I/O call returns once the injector has halted.
    pub fn halt_error() -> StorageError {
        Self::crashed_err()
    }

    fn crashed_err() -> StorageError {
        StorageError::Io(std::io::Error::other(
            "fault injection: process halted by injected crash",
        ))
    }

    /// Fail fast if the injector has already halted. Used by operations
    /// (fsync, metadata) that are not counted as events but still must not
    /// run in a "dead" process.
    pub fn check_alive(&self) -> Result<()> {
        if self.state.lock().halted {
            return Err(Self::crashed_err());
        }
        Ok(())
    }

    fn transient_err(what: &str, ordinal: u64) -> StorageError {
        StorageError::Io(std::io::Error::new(
            std::io::ErrorKind::Interrupted,
            format!("fault injection: transient {what} failure at ordinal {ordinal}"),
        ))
    }

    /// Record one write event of `payload_len` bytes and decide its fate.
    ///
    /// Called by the disk manager before performing the write. An `Err`
    /// means the write must not happen (and, for crashes, that the whole
    /// manager is now dead); `TornPrefix(k)` means persist only the first
    /// `k` bytes and halt.
    pub fn before_write(&self, payload_len: usize) -> Result<WriteOutcome> {
        self.before_write_at(None, payload_len)
    }

    /// [`FaultInjector::before_write`] with a target label and operation
    /// class, recorded when event recording is on. The disk manager calls
    /// this form for every write event; `before_write` is the unlabeled
    /// convenience used by direct unit tests.
    pub fn before_write_at(
        &self,
        event: Option<(&str, WriteKind)>,
        payload_len: usize,
    ) -> Result<WriteOutcome> {
        let mut st = self.state.lock();
        if st.halted {
            return Err(Self::crashed_err());
        }
        if st.recording {
            if let Some((target, kind)) = event {
                st.events.push(WriteEvent {
                    target: target.to_string(),
                    kind,
                    len: payload_len,
                });
            }
        }
        st.writes += 1;
        let ordinal = st.writes;
        // Per-target ordinal stream: advances only for this label, so a
        // `fail_write_on` script is immune to interleaved writes elsewhere.
        let target_fault = event.and_then(|(target, _)| {
            let t = st.target_writes.entry(target.to_string()).or_insert(0);
            *t += 1;
            let t_ord = *t;
            st.target_write_faults.remove(&(target.to_string(), t_ord))
        });
        match target_fault.or_else(|| st.write_faults.remove(&ordinal)) {
            None => Ok(WriteOutcome::Proceed),
            Some(WriteFault::Crash) => {
                st.halted = true;
                Err(Self::crashed_err())
            }
            Some(WriteFault::Torn) => {
                st.halted = true;
                // Tear mid-payload at a seed-derived offset; always keep at
                // least one byte and lose at least one so the tear is real.
                let keep = if payload_len <= 1 {
                    0
                } else {
                    1 + (splitmix64(self.seed ^ ordinal) as usize) % (payload_len - 1)
                };
                Ok(WriteOutcome::TornPrefix(keep))
            }
            Some(WriteFault::Transient(_)) => Err(Self::transient_err("write", ordinal)),
            Some(WriteFault::Permanent) => Err(StorageError::Io(std::io::Error::other(format!(
                "fault injection: permanent write failure at ordinal {ordinal}"
            )))),
            Some(WriteFault::NoSpace) => Err(StorageError::NoSpace {
                requested: payload_len as u64,
                available: 0,
            }),
        }
    }

    /// Record one read event and decide its fate. On success, returns the
    /// bit index to flip in the returned bytes, if one is scripted.
    pub fn before_read(&self, payload_len: usize) -> Result<Option<usize>> {
        let mut st = self.state.lock();
        if st.halted {
            return Err(Self::crashed_err());
        }
        st.reads += 1;
        let ordinal = st.reads;
        if st.read_transients.remove(&ordinal).is_some() {
            return Err(Self::transient_err("read", ordinal));
        }
        if st.read_flips.remove(&ordinal).is_some() && payload_len > 0 {
            let bit = (splitmix64(self.seed ^ !ordinal) as usize) % (payload_len * 8);
            return Ok(Some(bit));
        }
        Ok(None)
    }
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock();
        f.debug_struct("FaultInjector")
            .field("writes", &st.writes)
            .field("reads", &st.reads)
            .field("halted", &st.halted)
            .field("pending_write_faults", &st.write_faults.len())
            .finish()
    }
}

/// Flip bit `bit` (0-based, LSB-first within each byte) in `bytes`.
pub fn flip_bit(bytes: &mut [u8], bit: usize) {
    bytes[bit / 8] ^= 1 << (bit % 8);
}

/// A concrete, replayable fault schedule: at most one write fault and at
/// most one read fault, each at an explicit 1-based ordinal. Schedules are
/// derived deterministically from a seed ([`FaultSchedule::from_seed`]) —
/// no wall-clock entropy — so a failing schedule reproduces bit-identically
/// from its seed, and a shrinker can minimize the ordinals directly.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultSchedule {
    /// Scripted write fault, if any: `(ordinal, fault)`.
    pub write_fault: Option<(u64, WriteFault)>,
    /// Scripted read bit-flip ordinal, if any.
    pub read_flip: Option<u64>,
    /// Scripted transient read failures, if any: `(ordinal, count)`.
    pub read_transient: Option<(u64, u32)>,
}

impl FaultSchedule {
    /// Derive a schedule from `seed`. Write-fault ordinals land in
    /// `1..=write_window`, read-fault ordinals in `1..=read_window`; a
    /// window of 0 disables that fault class. The mapping is pure — the
    /// same seed always yields the same schedule.
    pub fn from_seed(seed: u64, write_window: u64, read_window: u64) -> Self {
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(1);
            splitmix64(x ^ seed.rotate_left(17))
        };
        let mut out = FaultSchedule::default();
        if write_window > 0 {
            let ordinal = 1 + next() % write_window;
            out.write_fault = Some((
                ordinal,
                match next() % 6 {
                    0 => WriteFault::Crash,
                    1 => WriteFault::Torn,
                    2 => WriteFault::Transient(1 + (next() % 3) as u32),
                    3 => WriteFault::Transient(MAX_SCHEDULED_TRANSIENTS),
                    4 => WriteFault::NoSpace,
                    _ => WriteFault::Permanent,
                },
            ));
        }
        if read_window > 0 {
            match next() % 3 {
                0 => out.read_flip = Some(1 + next() % read_window),
                1 => out.read_transient = Some((1 + next() % read_window, 1 + (next() % 3) as u32)),
                _ => {
                    // Both: a flip and, later, a transient burst.
                    out.read_flip = Some(1 + next() % read_window);
                    out.read_transient =
                        Some((1 + next() % read_window, MAX_SCHEDULED_TRANSIENTS));
                }
            }
        }
        out
    }

    /// Script this schedule into `fi` (ordinals count from the injector's
    /// current position — attach/clear first for 1-based scripting).
    pub fn apply(&self, fi: &FaultInjector) {
        if let Some((ordinal, fault)) = self.write_fault {
            fi.fail_write(ordinal, fault);
        }
        if let Some(ordinal) = self.read_flip {
            fi.flip_read_bit(ordinal);
        }
        if let Some((ordinal, count)) = self.read_transient {
            fi.fail_reads_transiently(ordinal, count);
        }
    }

    /// True when the schedule scripts nothing.
    pub fn is_empty(&self) -> bool {
        self.write_fault.is_none() && self.read_flip.is_none() && self.read_transient.is_none()
    }
}

/// Transient-burst length that exhausts the resume path's bounded retry
/// budget (`with_retries` makes 4 attempts; a burst this long outlasts it).
pub const MAX_SCHEDULED_TRANSIENTS: u32 = 6;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_events_without_faults() {
        let fi = FaultInjector::new();
        for _ in 0..3 {
            assert_eq!(fi.before_write(8).unwrap(), WriteOutcome::Proceed);
        }
        assert_eq!(fi.before_read(8).unwrap(), None);
        assert_eq!(fi.writes_observed(), 3);
        assert_eq!(fi.reads_observed(), 1);
        assert!(!fi.halted());
    }

    #[test]
    fn crash_halts_all_subsequent_io() {
        let fi = FaultInjector::new();
        fi.fail_write(2, WriteFault::Crash);
        assert!(fi.before_write(8).is_ok());
        assert!(fi.before_write(8).is_err());
        assert!(fi.halted());
        assert!(fi.before_write(8).is_err(), "writes stay dead");
        assert!(fi.before_read(8).is_err(), "reads stay dead");
        // Halted events are not counted — the process is gone.
        assert_eq!(fi.writes_observed(), 2);
        fi.clear();
        assert!(fi.before_write(8).is_ok());
    }

    #[test]
    fn torn_write_keeps_a_strict_prefix_then_halts() {
        let fi = FaultInjector::seeded(42);
        fi.fail_write(1, WriteFault::Torn);
        match fi.before_write(100).unwrap() {
            WriteOutcome::TornPrefix(k) => assert!((1..100).contains(&k), "k={k}"),
            other => panic!("expected torn prefix, got {other:?}"),
        }
        assert!(fi.halted());
        assert!(fi.before_write(8).is_err());
    }

    #[test]
    fn transient_writes_fail_then_recover() {
        let fi = FaultInjector::new();
        fi.fail_write(1, WriteFault::Transient(2));
        let e1 = fi.before_write(8).unwrap_err();
        assert!(e1.is_transient(), "{e1}");
        let e2 = fi.before_write(8).unwrap_err();
        assert!(e2.is_transient(), "{e2}");
        assert_eq!(fi.before_write(8).unwrap(), WriteOutcome::Proceed);
        assert!(!fi.halted());
    }

    #[test]
    fn permanent_failure_is_not_transient_and_does_not_halt() {
        let fi = FaultInjector::new();
        fi.fail_write(1, WriteFault::Permanent);
        let e = fi.before_write(8).unwrap_err();
        assert!(!e.is_transient());
        assert!(!fi.halted());
        assert_eq!(fi.before_write(8).unwrap(), WriteOutcome::Proceed);
    }

    #[test]
    fn nospace_fault_is_typed_and_does_not_halt() {
        let fi = FaultInjector::new();
        fi.fail_write(1, WriteFault::NoSpace);
        let e = fi.before_write(4096).unwrap_err();
        assert!(
            matches!(e, StorageError::NoSpace { requested: 4096, .. }),
            "{e}"
        );
        assert!(e.is_resource_pressure());
        assert!(!e.is_transient());
        assert!(!fi.halted(), "disk pressure must not kill the process");
        assert_eq!(fi.before_write(8).unwrap(), WriteOutcome::Proceed);
    }

    #[test]
    fn per_target_ordinals_ignore_interleaved_writes() {
        let fi = FaultInjector::new();
        fi.fail_write_on("a.qsr", 2, WriteFault::Permanent);
        // Writes to other targets do not advance a.qsr's ordinal stream.
        let w = |t: &str| fi.before_write_at(Some((t, WriteKind::Page)), 8);
        assert!(w("b.qsr").is_ok());
        assert!(w("a.qsr").is_ok(), "a.qsr ordinal 1 is clean");
        assert!(w("b.qsr").is_ok());
        assert!(w("c.qsr").is_ok());
        let e = w("a.qsr").unwrap_err();
        assert!(!e.is_transient(), "{e}");
        assert!(!fi.halted());
        assert_eq!(fi.writes_observed_on("a.qsr"), 2);
        assert_eq!(fi.writes_observed_on("b.qsr"), 2);
        assert_eq!(fi.writes_observed_on("never"), 0);
    }

    #[test]
    fn per_target_fault_takes_precedence_over_global() {
        let fi = FaultInjector::new();
        fi.fail_write(1, WriteFault::Crash);
        fi.fail_write_on("a.qsr", 1, WriteFault::Transient(1));
        let e = fi
            .before_write_at(Some(("a.qsr", WriteKind::Page)), 8)
            .unwrap_err();
        assert!(e.is_transient(), "per-target transient wins: {e}");
        assert!(!fi.halted(), "the masked global crash never fires");
        // The global ordinal has moved past 1, so the shadowed crash is inert.
        assert_eq!(
            fi.before_write_at(Some(("a.qsr", WriteKind::Page)), 8).unwrap(),
            WriteOutcome::Proceed
        );
    }

    #[test]
    fn per_target_transient_expands_like_global() {
        let fi = FaultInjector::new();
        fi.fail_write_on("s", 1, WriteFault::Transient(2));
        let w = || fi.before_write_at(Some(("s", WriteKind::SidecarWrite)), 8);
        assert!(w().unwrap_err().is_transient());
        assert!(w().unwrap_err().is_transient());
        assert_eq!(w().unwrap(), WriteOutcome::Proceed);
    }

    #[test]
    fn read_faults_flip_deterministic_bit() {
        let fi = FaultInjector::seeded(7);
        fi.flip_read_bit(2);
        assert_eq!(fi.before_read(16).unwrap(), None);
        let bit = fi.before_read(16).unwrap().expect("flip scripted");
        assert!(bit < 16 * 8);

        // Same seed + same ordinal → same bit.
        let fi2 = FaultInjector::seeded(7);
        fi2.flip_read_bit(2);
        fi2.before_read(16).unwrap();
        assert_eq!(fi2.before_read(16).unwrap(), Some(bit));
    }

    #[test]
    fn transient_reads_fail_then_recover() {
        let fi = FaultInjector::new();
        fi.fail_reads_transiently(1, 2);
        assert!(fi.before_read(8).unwrap_err().is_transient());
        assert!(fi.before_read(8).unwrap_err().is_transient());
        assert_eq!(fi.before_read(8).unwrap(), None);
    }

    #[test]
    fn flip_bit_flips_exactly_one_bit() {
        let mut b = vec![0u8; 4];
        flip_bit(&mut b, 11);
        assert_eq!(b, vec![0, 0b0000_1000, 0, 0]);
        flip_bit(&mut b, 11);
        assert_eq!(b, vec![0; 4]);
    }
}
