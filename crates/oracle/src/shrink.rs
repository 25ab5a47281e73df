//! Greedy scenario minimization.
//!
//! Given a failing scenario, try progressively simpler variants and keep
//! each one that still fails: environment first (buffer pool → 0, dump
//! writers → 0, policy → plain AllDump), then structure (shorter chains,
//! dropped fault-schedule components), then magnitudes (suspend boundary
//! and fault ordinals bisected toward 1). The trial budget is capped so a
//! pathological failure cannot stall the harness; the result is the
//! simplest variant found, not a global minimum.

use crate::runner::Oracle;
use crate::scenario::{Mode, Policy, Scenario};

/// Upper bound on shrink trials (each trial replays a scenario).
const MAX_TRIALS: usize = 48;

struct Shrinker<'a> {
    oracle: &'a mut Oracle,
    trials: usize,
}

impl Shrinker<'_> {
    /// True if `candidate` still fails (spending one trial).
    fn still_fails(&mut self, candidate: &Scenario) -> bool {
        if self.trials >= MAX_TRIALS {
            return false;
        }
        self.trials += 1;
        self.oracle.check(candidate).is_err()
    }

    /// Adopt `candidate` over `best` if it still fails.
    fn try_adopt(&mut self, best: &mut Scenario, candidate: Scenario) {
        if candidate != *best && self.still_fails(&candidate) {
            *best = candidate;
        }
    }
}

/// Candidate values bisecting `v` down toward 1: `[1, v/2, v-1]`, deduped
/// and excluding `v` itself.
fn bisect_down(v: u64) -> Vec<u64> {
    let mut c: Vec<u64> = [1, v / 2, v.saturating_sub(1)]
        .into_iter()
        .filter(|&x| x >= 1 && x != v)
        .collect();
    c.sort_unstable();
    c.dedup();
    c
}

/// Like [`bisect_down`] but targeting 0 — quota headrooms are meaningful
/// all the way down to "no space at all".
fn bisect_to_zero(v: u64) -> Vec<u64> {
    let mut c: Vec<u64> = [0, v / 2, v.saturating_sub(1)]
        .into_iter()
        .filter(|&x| x != v)
        .collect();
    c.sort_unstable();
    c.dedup();
    c
}

/// Minimize `failing` (which must currently fail `oracle.check`). Returns
/// the simplest still-failing variant found within the trial budget.
pub fn shrink(oracle: &mut Oracle, failing: &Scenario) -> Scenario {
    let mut best = failing.clone();
    let mut sh = Shrinker { oracle, trials: 0 };

    // Environment: the backend, the cache, the grace knobs, the optimizer
    // and the quota — each is a whole subsystem eliminated from the repro.
    if best.backend != qsr_storage::BackendKind::Local {
        // The local disk is the reference backend; keep memory/remote only
        // if the failure needs them.
        let mut c = best.clone();
        c.backend = qsr_storage::BackendKind::Local;
        sh.try_adopt(&mut best, c);
    }
    if best.pool_pages != 0 {
        let mut c = best.clone();
        c.pool_pages = 0;
        sh.try_adopt(&mut best, c);
    }
    if best.skew != qsr_workload::SkewProfile::Default {
        // The default profile already forces recursive spills; a failure
        // that survives losing the skew axis was never about it.
        let mut c = best.clone();
        c.skew = qsr_workload::SkewProfile::Default;
        sh.try_adopt(&mut best, c);
    }
    if best.mem_budget != 0 {
        // Budget 0 removes the whole grace-partitioning layer (the case
        // reverts to its own plan); keep it only if the failure survives.
        let mut c = best.clone();
        c.mem_budget = 0;
        sh.try_adopt(&mut best, c);
    }
    if best.merge_fanin != 0 {
        let mut c = best.clone();
        c.merge_fanin = 0;
        sh.try_adopt(&mut best, c);
    }
    if best.policy != Policy::Dump {
        let mut c = best.clone();
        c.policy = Policy::Dump;
        sh.try_adopt(&mut best, c);
    }
    if best.quota.is_some() {
        // Dropping the quota removes the whole disk-pressure subsystem
        // from the repro; failing that, the magnitude pass below squeezes
        // the headroom toward zero.
        let mut c = best.clone();
        c.quota = None;
        sh.try_adopt(&mut best, c);
    }

    // Structure.
    match best.mode.clone() {
        Mode::Chain { boundaries } => {
            // Shorter chains first (a depth-1 chain is a sweep).
            for keep in (1..boundaries.len()).rev() {
                let mut c = best.clone();
                c.mode = Mode::Chain {
                    boundaries: boundaries[..keep].to_vec(),
                };
                sh.try_adopt(&mut best, c);
            }
        }
        Mode::Fault { boundary, during_resume, schedule } => {
            // Drop whole fault classes: a single-fault repro beats a
            // compound one.
            let mut parts = Vec::new();
            if schedule.write_fault.is_some() {
                let mut one = schedule.clone();
                one.write_fault = None;
                parts.push(one);
            }
            if schedule.read_flip.is_some() {
                let mut one = schedule.clone();
                one.read_flip = None;
                parts.push(one);
            }
            if schedule.read_transient.is_some() {
                let mut one = schedule.clone();
                one.read_transient = None;
                parts.push(one);
            }
            for p in parts {
                if p.is_empty() {
                    continue;
                }
                let mut c = best.clone();
                c.mode = Mode::Fault {
                    boundary,
                    during_resume,
                    schedule: p,
                };
                sh.try_adopt(&mut best, c);
            }
        }
        Mode::Sweep { .. } => {}
    }

    // Magnitudes: bisect every ordinal down while the failure survives.
    loop {
        let before = best.clone();
        if let Some(q) = best.quota {
            for nq in bisect_to_zero(q) {
                let mut c = best.clone();
                c.quota = Some(nq);
                sh.try_adopt(&mut best, c);
            }
        }
        // Bisect the memory knobs toward their floors like any other
        // magnitude: canonical small values make tokens comparable across
        // repros (budget 1 / fan-in 2 are the deepest-recursion floors, so
        // a knob-sensitive failure usually survives the walk down).
        if best.mem_budget > 1 {
            for nb in bisect_down(best.mem_budget) {
                let mut c = best.clone();
                c.mem_budget = nb;
                sh.try_adopt(&mut best, c);
            }
        }
        if best.merge_fanin > 2 {
            // Fan-in 1 would never make merge progress; 2 is the floor.
            for nf in bisect_down(best.merge_fanin).into_iter().filter(|&f| f >= 2) {
                let mut c = best.clone();
                c.merge_fanin = nf;
                sh.try_adopt(&mut best, c);
            }
        }
        match best.mode.clone() {
            Mode::Sweep { boundary } => {
                for b in bisect_down(boundary) {
                    let mut c = best.clone();
                    c.mode = Mode::Sweep { boundary: b };
                    sh.try_adopt(&mut best, c);
                }
            }
            Mode::Chain { boundaries } => {
                for (i, &b) in boundaries.iter().enumerate() {
                    for nb in bisect_down(b) {
                        let mut bs = boundaries.clone();
                        bs[i] = nb;
                        let mut c = best.clone();
                        c.mode = Mode::Chain { boundaries: bs };
                        sh.try_adopt(&mut best, c);
                    }
                }
            }
            Mode::Fault { boundary, during_resume, schedule } => {
                for b in bisect_down(boundary) {
                    let mut c = best.clone();
                    c.mode = Mode::Fault {
                        boundary: b,
                        during_resume,
                        schedule: schedule.clone(),
                    };
                    sh.try_adopt(&mut best, c);
                }
                if let Some((ord, fault)) = schedule.write_fault {
                    for o in bisect_down(ord) {
                        let mut sch = schedule.clone();
                        sch.write_fault = Some((o, fault));
                        let mut c = best.clone();
                        c.mode = Mode::Fault {
                            boundary,
                            during_resume,
                            schedule: sch,
                        };
                        sh.try_adopt(&mut best, c);
                    }
                }
                if let Some(ord) = schedule.read_flip {
                    for o in bisect_down(ord) {
                        let mut sch = schedule.clone();
                        sch.read_flip = Some(o);
                        let mut c = best.clone();
                        c.mode = Mode::Fault {
                            boundary,
                            during_resume,
                            schedule: sch,
                        };
                        sh.try_adopt(&mut best, c);
                    }
                }
                if let Some((ord, count)) = schedule.read_transient {
                    for o in bisect_down(ord) {
                        let mut sch = schedule.clone();
                        sch.read_transient = Some((o, count));
                        let mut c = best.clone();
                        c.mode = Mode::Fault {
                            boundary,
                            during_resume,
                            schedule: sch,
                        };
                        sh.try_adopt(&mut best, c);
                    }
                }
            }
        }
        if best == before || sh.trials >= MAX_TRIALS {
            break;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bisect_down_targets_one() {
        assert_eq!(bisect_down(10), vec![1, 5, 9]);
        assert_eq!(bisect_down(2), vec![1]);
        assert!(bisect_down(1).is_empty());
    }

    #[test]
    fn bisect_to_zero_targets_zero() {
        assert_eq!(bisect_to_zero(10), vec![0, 5, 9]);
        assert_eq!(bisect_to_zero(1), vec![0]);
        assert!(bisect_to_zero(0).is_empty());
    }
}
