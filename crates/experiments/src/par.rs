//! Deterministic scoped-thread fan-out.
//!
//! The experiment pipeline is embarrassingly parallel at two levels —
//! harness preparation per workload, and mode execution within a figure —
//! and every unit of work is a pure function of its inputs (the simulator
//! is deterministic). [`par_map`] exploits that: items are claimed from an
//! atomic counter by a small pool of scoped threads and the results are
//! written back into per-item slots, so the returned vector is in *item*
//! order no matter how the OS schedules the workers. Figure output is
//! therefore byte-identical to a serial run.
//!
//! The worker count comes from [`jobs_for`], capped by [`set_jobs`] (the
//! `repro --jobs N` flag); `0` (the default) means one worker per available
//! CPU. No external crates: plain `std::thread::scope`.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Global worker-count cap; 0 = auto (available parallelism).
static JOBS: AtomicUsize = AtomicUsize::new(0);

/// Cap the number of worker threads used by [`par_map`] (0 restores the
/// default of one worker per available CPU).
pub fn set_jobs(n: usize) {
    JOBS.store(n, Ordering::Relaxed);
}

/// The effective worker count for a fan-out over `n` items.
pub fn jobs_for(n: usize) -> usize {
    let cap = match JOBS.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism().map_or(1, usize::from),
        n => n,
    };
    cap.clamp(1, n.max(1))
}

/// Map `f` over `items` on up to [`jobs_for`]`(items.len())` scoped worker
/// threads. `f` receives `(index, item)`; the result vector is in item
/// order regardless of completion order, so callers observe exactly the
/// serial result. A panicking worker propagates the panic.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let workers = jobs_for(n);
    if workers <= 1 || n <= 1 {
        return items.into_iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|x| Mutex::new(Some(x))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = slots[i]
                    .lock()
                    .expect("slot lock")
                    .take()
                    .expect("each slot is claimed once");
                let r = f(i, item);
                *results[i].lock().expect("result lock") = Some(r);
            });
        }
    });
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result lock")
                .expect("every index was processed")
        })
        .collect()
}

/// One failed unit of an isolated fan-out ([`par_map_isolated`]): which
/// item panicked, its human-readable label, and the panic payload.
#[derive(Clone, Debug)]
pub struct RunError {
    /// Item index in the input vector.
    pub index: usize,
    /// The label the caller attached to the item (workload/mode/seed).
    pub label: String,
    /// The panic message.
    pub detail: String,
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "worker for {} (item {}) failed: {}", self.label, self.index, self.detail)
    }
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panicked: {s}")
    } else {
        "panicked with a non-string payload".into()
    }
}

/// [`par_map`] with each item under `catch_unwind`: a panicking item
/// becomes a [`RunError`] in its slot while the rest of the fan-out
/// completes. Wall-clock deadlines are not enforced here: the step and
/// cycle budgets bound every simulation, and only the campaign
/// orchestrator ([`crate::orchestrate`]) can kill a stuck worker.
///
/// `label` names each item for the error report; it is called before the
/// work starts, so it must be cheap and panic-free.
pub fn par_map_isolated<T, R, F, L>(items: Vec<T>, label: L, f: F) -> Vec<Result<R, RunError>>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
    L: Fn(usize, &T) -> String + Sync,
{
    par_map(items, |i, item| {
        let label = label(i, &item);
        std::panic::catch_unwind(AssertUnwindSafe(|| f(i, item))).map_err(|p| RunError {
            index: i,
            label,
            detail: panic_text(p),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_item_order() {
        // Uneven work so completion order differs from item order.
        let items: Vec<u64> = (0..64).collect();
        let out = par_map(items.clone(), |i, x| {
            if i % 7 == 0 {
                std::thread::yield_now();
            }
            x * 2
        });
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_item_runs_inline() {
        assert_eq!(par_map(vec![21], |_, x: i32| x * 2), vec![42]);
    }

    #[test]
    fn isolated_map_contains_a_panicking_worker() {
        let out = par_map_isolated(
            (0..32).collect::<Vec<u64>>(),
            |_, x| format!("item-{x}"),
            |_, x| {
                if x == 13 {
                    panic!("unlucky item");
                }
                x * 2
            },
        );
        assert_eq!(out.len(), 32);
        for (i, r) in out.iter().enumerate() {
            if i == 13 {
                let e = r.as_ref().expect_err("item 13 panicked");
                assert_eq!(e.index, 13);
                assert_eq!(e.label, "item-13");
                assert!(e.detail.contains("unlucky item"), "{}", e.detail);
            } else {
                assert_eq!(*r.as_ref().expect("others complete"), i as u64 * 2);
            }
        }
    }

    #[test]
    fn isolated_map_single_item_is_caught_inline() {
        let out = par_map_isolated(
            vec![0u64],
            |_, _| "solo".into(),
            |_, _| -> u64 { panic!("solo failure") },
        );
        assert!(out[0].as_ref().is_err_and(|e| e.detail.contains("solo failure")));
    }

    #[test]
    fn jobs_cap_is_respected_and_restored() {
        set_jobs(1);
        assert_eq!(jobs_for(100), 1);
        set_jobs(3);
        assert_eq!(jobs_for(100), 3);
        assert_eq!(jobs_for(2), 2, "never more workers than items");
        set_jobs(0);
        assert!(jobs_for(100) >= 1);
    }
}
