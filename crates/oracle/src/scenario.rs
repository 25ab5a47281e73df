//! Scenario descriptions and their repro-token syntax.

use qsr_storage::{BackendKind, FaultSchedule, WriteFault};
use qsr_workload::SkewProfile;
use std::fmt;
use std::str::FromStr;

fn skew_token(p: SkewProfile) -> &'static str {
    match p {
        SkewProfile::Default => "",
        SkewProfile::Zipf => "zipf",
        SkewProfile::Dup => "dup",
        SkewProfile::Rev => "rev",
    }
}

fn parse_skew(s: &str) -> Result<SkewProfile, String> {
    match s {
        "zipf" => Ok(SkewProfile::Zipf),
        "dup" => Ok(SkewProfile::Dup),
        "rev" => Ok(SkewProfile::Rev),
        p => Err(format!("unknown skew profile {p:?}")),
    }
}

/// Which suspend policy the scenario exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// `SuspendPolicy::AllDump` — every operator dumps.
    Dump,
    /// `SuspendPolicy::AllGoBack` — every operator goes back.
    GoBack,
    /// `SuspendPolicy::Optimized { budget: None }` — the optimizer picks a
    /// mix of DumpState and GoBack strategies.
    Optimized,
}

impl Policy {
    /// The executable policy.
    pub fn to_suspend_policy(self) -> qsr_core::SuspendPolicy {
        match self {
            Policy::Dump => qsr_core::SuspendPolicy::AllDump,
            Policy::GoBack => qsr_core::SuspendPolicy::AllGoBack,
            Policy::Optimized => qsr_core::SuspendPolicy::Optimized { budget: None },
        }
    }

    fn token(self) -> &'static str {
        match self {
            Policy::Dump => "dump",
            Policy::GoBack => "goback",
            Policy::Optimized => "opt",
        }
    }
}

/// What kind of interference the scenario applies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mode {
    /// One suspend at work-unit boundary `boundary` (1-based, counted from
    /// the start of the execution segment), then resume and finish.
    Sweep {
        /// Suspend boundary.
        boundary: u64,
    },
    /// A chain of suspends: each entry is a boundary *relative to the
    /// start of its segment* (execution restarts its work-unit counter
    /// after every resume).
    Chain {
        /// Per-segment boundaries, depth ≤ 3.
        boundaries: Vec<u64>,
    },
    /// One suspend at `boundary` with a scripted fault schedule active
    /// during the suspend phase (`during_resume: false`) or the recovery /
    /// resume phase (`during_resume: true`).
    Fault {
        /// Suspend boundary.
        boundary: u64,
        /// Phase under fault.
        during_resume: bool,
        /// The concrete schedule (tokens embed it verbatim, so replay
        /// needs no probing).
        schedule: FaultSchedule,
    },
}

/// A fully specified oracle scenario. `Display` renders the repro token;
/// `FromStr` parses it back — `QSR_ORACLE_CASE='<token>'` replays exactly
/// this scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    /// Corpus case name (see `qsr_workload::corpus`).
    pub case: String,
    /// Buffer-pool frames (0 = uncached passthrough).
    pub pool_pages: usize,
    /// Per-partition hash-join build budget in tuples, applied by wrapping
    /// the case's plan in a `MemoryBudget` envelope (0 = absent, legacy
    /// execution and pre-existing tokens unchanged).
    pub mem_budget: u64,
    /// Sort merge fan-in cap, applied through the same envelope (0 =
    /// absent, single-pass merge).
    pub merge_fanin: u64,
    /// Key-distribution profile for the grace corpus tables (`ga`, `gb`,
    /// `gc`); the legacy tables are identical under every profile.
    pub skew: SkewProfile,
    /// Suspend policy.
    pub policy: Policy,
    /// Disk-quota headroom in bytes for the suspend phase (`None` =
    /// unlimited). The runner installs `used_bytes + headroom` as the
    /// quota immediately before each suspend attempt and lifts it after,
    /// so the headroom is exactly the space the suspend may consume —
    /// small values force the degradation ladder, `Some(0)` forces a
    /// clean abort.
    pub quota: Option<u64>,
    /// Suspend backend every dump/manifest routes through (`Local` =
    /// absent, legacy on-disk path and pre-existing tokens unchanged).
    /// `Memory` scenarios resume through the same database handle — the
    /// backend's state dies with the process by design.
    pub backend: BackendKind,
    /// Interference mode.
    pub mode: Mode,
}

fn fault_token(f: WriteFault) -> String {
    match f {
        WriteFault::Crash => "crash".into(),
        WriteFault::Torn => "torn".into(),
        WriteFault::Transient(n) => format!("t{n}"),
        WriteFault::Permanent => "perm".into(),
        WriteFault::NoSpace => "nospace".into(),
    }
}

fn parse_fault(s: &str) -> Result<WriteFault, String> {
    match s {
        "crash" => Ok(WriteFault::Crash),
        "torn" => Ok(WriteFault::Torn),
        "perm" => Ok(WriteFault::Permanent),
        "nospace" => Ok(WriteFault::NoSpace),
        t => t
            .strip_prefix('t')
            .and_then(|n| n.parse().ok())
            .map(WriteFault::Transient)
            .ok_or_else(|| format!("bad write-fault token {t:?}")),
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "case={};pool={};policy={}",
            self.case,
            self.pool_pages,
            self.policy.token()
        )?;
        if self.mem_budget != 0 {
            write!(f, ";budget={}", self.mem_budget)?;
        }
        if self.merge_fanin != 0 {
            write!(f, ";fanin={}", self.merge_fanin)?;
        }
        if self.skew != SkewProfile::Default {
            write!(f, ";skew={}", skew_token(self.skew))?;
        }
        if let Some(q) = self.quota {
            write!(f, ";quota={q}")?;
        }
        if self.backend != BackendKind::Local {
            write!(f, ";backend={}", self.backend)?;
        }
        match &self.mode {
            Mode::Sweep { boundary } => write!(f, ";mode=sweep:{boundary}"),
            Mode::Chain { boundaries } => {
                let bs: Vec<String> = boundaries.iter().map(|b| b.to_string()).collect();
                write!(f, ";mode=chain:{}", bs.join(","))
            }
            Mode::Fault {
                boundary,
                during_resume,
                schedule,
            } => {
                write!(
                    f,
                    ";mode=fault:{boundary}:{}",
                    if *during_resume { "resume" } else { "suspend" }
                )?;
                if let Some((ord, fault)) = schedule.write_fault {
                    write!(f, ";wf={ord}:{}", fault_token(fault))?;
                }
                if let Some(ord) = schedule.read_flip {
                    write!(f, ";rf={ord}")?;
                }
                if let Some((ord, count)) = schedule.read_transient {
                    write!(f, ";rt={ord}:{count}")?;
                }
                Ok(())
            }
        }
    }
}

impl FromStr for Scenario {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let mut case = None;
        let mut pool = None;
        let mut mem_budget = None;
        let mut merge_fanin = None;
        let mut skew = None;
        let mut policy = None;
        let mut quota = None;
        let mut backend = None;
        let mut mode: Option<Mode> = None;
        for part in s.split(';').filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("bad token part {part:?}"))?;
            let num = |v: &str| -> Result<u64, String> {
                v.parse().map_err(|_| format!("bad number in {part:?}"))
            };
            match key {
                "case" => case = Some(value.to_string()),
                "pool" => pool = Some(num(value)? as usize),
                // Tokens minted while the engine had a batch lane or a dump
                // writer pool may carry a batch size or a writer count. Rows
                // always move one at a time and dumps are always written
                // serially now, so either part is checked and ignored.
                "batch" | "writers" => {
                    num(value)?;
                }
                "budget" => mem_budget = Some(num(value)?),
                "fanin" => merge_fanin = Some(num(value)?),
                "skew" => skew = Some(parse_skew(value)?),
                "policy" => {
                    policy = Some(match value {
                        "dump" => Policy::Dump,
                        "goback" => Policy::GoBack,
                        "opt" => Policy::Optimized,
                        p => return Err(format!("unknown policy {p:?}")),
                    })
                }
                "quota" => quota = Some(num(value)?),
                "backend" => backend = Some(value.parse::<BackendKind>()?),
                "mode" => {
                    let (kind, rest) = value
                        .split_once(':')
                        .ok_or_else(|| format!("bad mode {value:?}"))?;
                    mode = Some(match kind {
                        "sweep" => Mode::Sweep { boundary: num(rest)? },
                        "chain" => Mode::Chain {
                            boundaries: rest
                                .split(',')
                                .map(num)
                                .collect::<Result<Vec<_>, _>>()?,
                        },
                        "fault" => {
                            let (b, phase) = rest
                                .split_once(':')
                                .ok_or_else(|| format!("bad fault mode {rest:?}"))?;
                            Mode::Fault {
                                boundary: num(b)?,
                                during_resume: match phase {
                                    "resume" => true,
                                    "suspend" => false,
                                    p => return Err(format!("unknown fault phase {p:?}")),
                                },
                                schedule: FaultSchedule::default(),
                            }
                        }
                        k => return Err(format!("unknown mode {k:?}")),
                    });
                }
                "wf" | "rf" | "rt" => {
                    let Some(Mode::Fault { schedule, .. }) = mode.as_mut() else {
                        return Err(format!("{key}= outside a fault mode"));
                    };
                    match key {
                        "wf" => {
                            let (ord, fault) = value
                                .split_once(':')
                                .ok_or_else(|| format!("bad wf {value:?}"))?;
                            schedule.write_fault = Some((num(ord)?, parse_fault(fault)?));
                        }
                        "rf" => schedule.read_flip = Some(num(value)?),
                        "rt" => {
                            let (ord, count) = value
                                .split_once(':')
                                .ok_or_else(|| format!("bad rt {value:?}"))?;
                            schedule.read_transient = Some((num(ord)?, num(count)? as u32));
                        }
                        _ => unreachable!(),
                    }
                }
                k => return Err(format!("unknown key {k:?}")),
            }
        }
        Ok(Scenario {
            case: case.ok_or("missing case=")?,
            pool_pages: pool.ok_or("missing pool=")?,
            // Absent in pre-grace tokens: legacy knob-free execution.
            mem_budget: mem_budget.unwrap_or(0),
            merge_fanin: merge_fanin.unwrap_or(0),
            skew: skew.unwrap_or_default(),
            policy: policy.ok_or("missing policy=")?,
            quota,
            // Absent in pre-backend tokens: the local disk.
            backend: backend.unwrap_or_default(),
            mode: mode.ok_or("missing mode=")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(s: &Scenario) {
        let token = s.to_string();
        let back: Scenario = token.parse().unwrap_or_else(|e| panic!("{token}: {e}"));
        assert_eq!(&back, s, "token {token}");
    }

    #[test]
    fn tokens_roundtrip() {
        roundtrip(&Scenario {
            case: "sort".into(),
            pool_pages: 64,
            mem_budget: 0,
            merge_fanin: 0,
            skew: SkewProfile::Default,
            policy: Policy::Dump,
            quota: None,
            backend: Default::default(),
            mode: Mode::Sweep { boundary: 17 },
        });
        roundtrip(&Scenario {
            case: "hash-join".into(),
            pool_pages: 0,
            mem_budget: 0,
            merge_fanin: 0,
            skew: SkewProfile::Default,
            policy: Policy::Optimized,
            quota: Some(8192),
            backend: Default::default(),
            mode: Mode::Chain {
                boundaries: vec![3, 9, 2],
            },
        });
        roundtrip(&Scenario {
            case: "merge-join".into(),
            pool_pages: 64,
            mem_budget: 0,
            merge_fanin: 0,
            skew: SkewProfile::Default,
            policy: Policy::Dump,
            quota: None,
            backend: Default::default(),
            mode: Mode::Fault {
                boundary: 12,
                during_resume: true,
                schedule: FaultSchedule {
                    write_fault: Some((3, WriteFault::Transient(6))),
                    read_flip: Some(9),
                    read_transient: Some((4, 2)),
                },
            },
        });
        roundtrip(&Scenario {
            case: "distinct".into(),
            pool_pages: 0,
            mem_budget: 0,
            merge_fanin: 0,
            skew: SkewProfile::Default,
            policy: Policy::Dump,
            quota: None,
            backend: Default::default(),
            mode: Mode::Fault {
                boundary: 1,
                during_resume: false,
                schedule: FaultSchedule {
                    write_fault: Some((7, WriteFault::Crash)),
                    ..Default::default()
                },
            },
        });
        // The disk-pressure family: a quota headroom combined with a
        // scripted NoSpace ordinal.
        roundtrip(&Scenario {
            case: "sort".into(),
            pool_pages: 0,
            mem_budget: 0,
            merge_fanin: 0,
            skew: SkewProfile::Default,
            policy: Policy::Optimized,
            quota: Some(0),
            backend: Default::default(),
            mode: Mode::Fault {
                boundary: 5,
                during_resume: false,
                schedule: FaultSchedule {
                    write_fault: Some((2, WriteFault::NoSpace)),
                    ..Default::default()
                },
            },
        });
    }

    #[test]
    fn nospace_token_spells_out() {
        let s = Scenario {
            case: "sort".into(),
            pool_pages: 0,
            mem_budget: 0,
            merge_fanin: 0,
            skew: SkewProfile::Default,
            policy: Policy::Optimized,
            quota: Some(4096),
            backend: Default::default(),
            mode: Mode::Fault {
                boundary: 3,
                during_resume: false,
                schedule: FaultSchedule {
                    write_fault: Some((2, WriteFault::NoSpace)),
                    ..Default::default()
                },
            },
        };
        let token = s.to_string();
        assert!(token.contains("quota=4096"), "token {token}");
        assert!(token.contains("wf=2:nospace"), "token {token}");
        assert_eq!(token.parse::<Scenario>().unwrap(), s);
    }

    #[test]
    fn batch_tokens_parse_and_replay_one_row_at_a_time() {
        // Tokens minted while the engine had a batch lane or a dump writer
        // pool may carry a `batch=N` or `writers=N` part; they parse to the
        // same scenario as the token without it, and re-render without it.
        // A malformed number is still rejected.
        let plain: Scenario = "case=sort;pool=0;policy=dump;mode=sweep:3".parse().unwrap();
        for part in [
            "batch=0",
            "batch=48",
            "batch=1024",
            "writers=0",
            "writers=4",
            "writers=0;batch=48",
        ] {
            let token = format!("case=sort;pool=0;{part};policy=dump;mode=sweep:3");
            let s: Scenario = token.parse().unwrap_or_else(|e| panic!("{token}: {e}"));
            assert_eq!(s, plain, "token {token}");
            let back = s.to_string();
            assert!(
                !back.contains("batch=") && !back.contains("writers="),
                "token {back}"
            );
        }
        for bad in ["batch=x", "writers=x", "writers=-1"] {
            let token = format!("case=sort;pool=0;{bad};policy=dump;mode=sweep:3");
            assert!(token.parse::<Scenario>().is_err(), "accepted {token:?}");
        }
    }

    #[test]
    fn grace_knob_tokens_roundtrip() {
        let s = Scenario {
            case: "grace-join-deep".into(),
            pool_pages: 64,
            mem_budget: 3,
            merge_fanin: 2,
            skew: SkewProfile::Dup,
            policy: Policy::Optimized,
            quota: None,
            backend: Default::default(),
            mode: Mode::Sweep { boundary: 9 },
        };
        let token = s.to_string();
        assert!(token.contains("budget=3;fanin=2;skew=dup"), "token {token}");
        roundtrip(&s);
        for skew in [SkewProfile::Zipf, SkewProfile::Rev] {
            roundtrip(&Scenario { skew, ..s.clone() });
        }
    }

    #[test]
    fn pre_grace_tokens_parse_as_knob_free() {
        // Tokens minted before the memory-budget axis existed carry no
        // budget=/fanin=/skew= parts; they must replay with the knobs off,
        // and knob-free tokens must not grow redundant parts.
        let s: Scenario = "case=sort;pool=0;writers=0;policy=dump;mode=sweep:3"
            .parse()
            .unwrap();
        assert_eq!(s.mem_budget, 0);
        assert_eq!(s.merge_fanin, 0);
        assert_eq!(s.skew, SkewProfile::Default);
        let token = s.to_string();
        for part in ["budget=", "fanin=", "skew="] {
            assert!(!token.contains(part), "token {token}");
        }
    }

    #[test]
    fn backend_tokens_roundtrip() {
        let base = Scenario {
            case: "sort".into(),
            pool_pages: 0,
            mem_budget: 0,
            merge_fanin: 0,
            skew: SkewProfile::Default,
            policy: Policy::Dump,
            quota: None,
            backend: BackendKind::Remote,
            mode: Mode::Chain {
                boundaries: vec![5, 5, 5],
            },
        };
        let token = base.to_string();
        assert!(token.contains("backend=remote;mode="), "token {token}");
        roundtrip(&base);
        for backend in [BackendKind::Local, BackendKind::Memory] {
            roundtrip(&Scenario { backend, ..base.clone() });
        }
    }

    #[test]
    fn pre_backend_tokens_parse_as_legacy_lifecycle() {
        // Tokens minted before the backend axis existed carry no
        // backend= part; they must replay on the local disk, and local
        // tokens must not grow a redundant part.
        let s: Scenario = "case=sort;pool=0;writers=0;policy=dump;mode=sweep:3"
            .parse()
            .unwrap();
        assert_eq!(s.backend, BackendKind::Local);
        assert!(!s.to_string().contains("backend="), "token {s}");
    }

    #[test]
    fn delta_and_keep_tokens_are_rejected() {
        // Tokens minted while delta checkpoints and keep-last-N retention
        // were suspend modes may carry a `delta=` or `keep=` part. Every
        // suspend now writes delta frames and keeps one generation, so
        // `delta=0` or `keep=2` would replay a different program than the
        // one that failed: such tokens fail to parse, like any unknown
        // part, whatever their value (a `delta=1` or `keep=1` token
        // replays with that part deleted by hand).
        for part in ["delta=0", "delta=1", "keep=1", "keep=2", "delta=1;keep=3", "delta=x"] {
            let token = format!("case=sort;pool=0;policy=dump;{part};mode=chain:5,5,5");
            assert!(token.parse::<Scenario>().is_err(), "accepted {token:?}");
        }
    }

    #[test]
    fn parse_rejects_malformed_tokens() {
        for bad in [
            "",
            "case=sort",
            "case=sort;pool=0;writers=0;policy=dump;mode=warp:3",
            "case=sort;pool=0;writers=0;policy=zzz;mode=sweep:3",
            "case=sort;pool=0;writers=0;policy=dump;mode=sweep:3;wf=1:crash",
            "case=sort;pool=x;writers=0;policy=dump;mode=sweep:3",
            "case=sort;pool=0;writers=0;policy=dump;quota=lots;mode=sweep:3",
            "case=sort;pool=0;writers=0;policy=dump;mode=fault:3:suspend;wf=1:nospce",
            "case=sort;pool=0;writers=0;policy=dump;skew=bogus;mode=sweep:3",
            "case=sort;pool=0;writers=0;policy=dump;budget=x;mode=sweep:3",
            "case=sort;pool=0;writers=0;policy=dump;backend=tape;mode=sweep:3",
        ] {
            assert!(bad.parse::<Scenario>().is_err(), "accepted {bad:?}");
        }
    }
}
