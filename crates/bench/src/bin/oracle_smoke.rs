//! Oracle smoke: one differential suspend/resume check plus one seeded
//! fault schedule per corpus case, at the heaviest configuration (caching
//! pool, parallel dump writers, MIP-optimized policy). A fast end-to-end
//! sanity pass over the same machinery `tests/oracle_sweep.rs` sweeps
//! exhaustively; wall-clock per case is printed for the bench log.

#![forbid(unsafe_code)]

use qsr_oracle::{Mode, Oracle, Policy, Scenario, SkewProfile};
use qsr_storage::FaultSchedule;
use std::time::Instant;

const SEED: u64 = 0x0D1F_F5EE;

fn main() {
    let mut oracle = Oracle::new();
    let mut failures = 0u32;
    for case in qsr_workload::cases() {
        let t0 = Instant::now();
        let total = match oracle.total_work_units(case.name) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{:<12} golden run failed: {e}", case.name);
                failures += 1;
                continue;
            }
        };
        let boundary = (total / 2).max(1);
        let sweep = Scenario {
            case: case.name.to_string(),
            pool_pages: 64,
            dump_writers: 4,
            policy: Policy::Optimized,
            quota: None,
            batch: 48,
            mem_budget: 0,
            merge_fanin: 0,
            skew: SkewProfile::Default,
            backend: Default::default(),
            delta: false,
            keep: 1,
            mode: Mode::Sweep { boundary },
        };
        let pressured = Scenario {
            quota: Some(2 * 4096),
            pool_pages: 0,
            dump_writers: 0,
            ..sweep.clone()
        };
        let shape = Scenario {
            mode: Mode::Fault {
                boundary,
                during_resume: false,
                schedule: FaultSchedule::default(),
            },
            ..sweep.clone()
        };
        let fault = match oracle.probe_fault_windows(&shape, boundary, false) {
            Ok((writes, reads)) => Scenario {
                mode: Mode::Fault {
                    boundary,
                    during_resume: false,
                    schedule: FaultSchedule::from_seed(SEED, writes, reads),
                },
                ..shape
            },
            Err(e) => {
                eprintln!("{:<12} fault probe failed: {e}", case.name);
                failures += 1;
                continue;
            }
        };
        for s in [&sweep, &pressured, &fault] {
            if let Err(e) = oracle.check(s) {
                eprintln!("{:<12} FAIL [{s}]: {e}", case.name);
                failures += 1;
            }
        }
        println!(
            "{:<12} ok  boundary {boundary}/{total}  {:?}",
            case.name,
            t0.elapsed()
        );
    }
    if failures > 0 {
        eprintln!("oracle smoke: {failures} failure(s)");
        std::process::exit(1);
    }
    println!("oracle smoke: all cases pass");
}
