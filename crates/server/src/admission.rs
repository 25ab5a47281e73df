//! Admission pricing for the multi-session server.
//!
//! When a new session asks to start, the server must decide whether the
//! memory it would pin can be freed cheaply enough. Each live session is a
//! potential preemption victim with a *signal* — the suspend estimate of
//! its optimal plan, as the tree DP prices it (`victim_signal`) — and a
//! memory footprint it would release when parked. The admission price of a demand
//! is the total signal of the victims the scheduler would actually
//! preempt.
//!
//! The scheduler preempts victims in ascending-signal order (cheapest
//! suspend first), so the price here walks the same order: this is the
//! cost of the preemption sequence the server will really run, not an
//! abstract optimum over victim subsets. The full set-cover optimum is a
//! knapsack the 100-microsecond admission path has no business solving;
//! ascending-signal greedy is within one victim of it and — more
//! importantly — truthful about what the scheduler does next.

/// Price of admitting a session that needs `demand` memory units when
/// `free` units are unclaimed and `victims` lists each live session as
/// `(victim_signal, memory_freed_if_preempted)`.
///
/// Returns `Some(0.0)` when the demand fits in free memory, `Some(total
/// signal)` of the cheapest ascending-signal victim prefix that frees
/// enough, and `None` when preempting *every* victim still would not fit
/// the demand (the session cannot be admitted at any price).
///
/// Non-finite or negative signals are treated as infinitely expensive
/// victims: they sort last and poison the price if reached (`None` is
/// returned rather than a meaningless sum).
pub fn admission_price(demand: u64, free: u64, victims: &[(f64, u64)]) -> Option<f64> {
    if demand <= free {
        return Some(0.0);
    }
    let mut order: Vec<&(f64, u64)> = victims.iter().collect();
    // Ascending signal; ties break toward the bigger release, then stable.
    order.sort_by(|a, b| {
        a.0.partial_cmp(&b.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(b.1.cmp(&a.1))
    });
    let mut freed = free;
    let mut price = 0.0;
    for (signal, mem) in order {
        if !signal.is_finite() || *signal < 0.0 {
            return None;
        }
        price += signal;
        freed = freed.saturating_add(*mem);
        if freed >= demand {
            return Some(price);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_in_free_memory_is_free() {
        assert_eq!(admission_price(100, 100, &[]), Some(0.0));
        assert_eq!(admission_price(0, 0, &[]), Some(0.0));
        assert_eq!(admission_price(50, 100, &[(1.0, 10)]), Some(0.0));
    }

    #[test]
    fn walks_victims_in_ascending_signal_order() {
        // Needs 100 more; cheapest-first picks 2.0 (60) then 3.0 (50).
        let victims = [(5.0, 200), (2.0, 60), (3.0, 50)];
        assert_eq!(admission_price(100, 0, &victims), Some(5.0));
        // A bigger demand reaches the expensive victim too.
        assert_eq!(admission_price(250, 0, &victims), Some(10.0));
    }

    #[test]
    fn impossible_demand_has_no_price() {
        assert_eq!(admission_price(1_000, 0, &[(1.0, 10), (2.0, 20)]), None);
        assert_eq!(admission_price(1, 0, &[]), None);
    }

    #[test]
    fn infinite_signals_poison_only_when_reached() {
        // The infinite victim sorts last and is never needed.
        let victims = [(f64::INFINITY, 500), (1.0, 100)];
        assert_eq!(admission_price(100, 0, &victims), Some(1.0));
        // Needed → unpriceable.
        assert_eq!(admission_price(400, 0, &victims), None);
    }

    #[test]
    fn signal_ties_prefer_the_bigger_release() {
        let victims = [(1.0, 10), (1.0, 100)];
        assert_eq!(admission_price(50, 0, &victims), Some(1.0));
    }
}
