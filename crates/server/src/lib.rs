//! # qsr-server
//!
//! A long-lived multi-session query engine that uses the paper's
//! suspend/resume machinery *as the scheduler*: N concurrent sessions
//! share one `Database`/buffer pool, each runs for a work-unit quantum,
//! and sessions beyond the live-slot budget are parked on disk through the
//! ordinary (crash-safe, degradation-laddered) suspend path and resumed
//! round-robin. See `DESIGN.md` §15.
//!
//! Two layers:
//!
//! - [`registry`] — the crash-safe session registry: one atomic meta
//!   sidecar plus one private generation-numbered suspend manifest per
//!   session, reconstructed by a directory scan after a crash.
//! - [`scheduler`] — the preemptive round-robin driver, one loop run
//!   inline or on worker threads: quantum slicing, MIP-cheapest victim
//!   choice under a strict live-slot bound, clean-abort rollback,
//!   server-level shedding, and deterministic resume backoff, with
//!   per-tenant fairness accounting.

#![forbid(unsafe_code)]

pub mod registry;
pub mod scheduler;

pub use registry::{SessionId, SessionMeta, SessionRegistry, SESSION_PREFIX};
pub use scheduler::{
    Admission, AdmissionConfig, FairnessStats, QsrServer, RoundReport, ServerConfig, Session,
    SlaConfig,
};
