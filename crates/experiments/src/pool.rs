//! Determinism-preserving worker pool.
//!
//! The pool fans independent work items over a fixed number of worker
//! threads pulling from a shared atomic index (global-queue stealing:
//! whichever worker is free next takes the next cell). Each worker hands
//! back its `(index, result)` pairs when it is joined, and each result
//! lands in the slot of its item index. Because results are
//! gathered **by index** rather than by completion order, the output of
//! [`run_indexed`] is identical for any worker count — pool scheduling
//! can never leak into results. The harness uses it to fan independent
//! (workload × scheduler) cells over worker threads; the engine itself
//! stays single-threaded.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Environment variable consulted by [`resolve_jobs`] when no explicit
/// `--jobs` value is given.
pub const JOBS_ENV: &str = "MEMSCHED_JOBS";

/// Resolve the worker count: an explicit request (e.g. from `--jobs N`)
/// wins, then the `MEMSCHED_JOBS` environment variable, then the
/// machine's available parallelism. Always at least 1.
pub fn resolve_jobs(explicit: Option<usize>) -> usize {
    if let Some(n) = explicit {
        return n.max(1);
    }
    if let Ok(v) = std::env::var(JOBS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// Apply `f` to every item and return the results **in item order**,
/// using up to `jobs` worker threads.
///
/// With `jobs <= 1` the items run inline on the caller's thread with no
/// thread machinery at all, which keeps single-worker runs trivially
/// deterministic and cheap. With more workers, each result lands in the
/// slot of its item index, so the returned `Vec` is byte-for-byte the
/// same regardless of how the pool interleaved the work.
pub fn run_indexed<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if jobs <= 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let next = AtomicUsize::new(0);
    let workers = jobs.min(items.len());
    let mut slots: Vec<Option<R>> = items.iter().map(|_| None).collect();

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break done;
                        }
                        done.push((i, f(i, &items[i])));
                    }
                })
            })
            .collect();
        for handle in handles {
            for (i, r) in handle.join().expect("worker pool panicked") {
                slots[i] = Some(r);
            }
        }
    });

    slots
        .into_iter()
        .map(|s| s.expect("every slot filled by a worker"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_item_order() {
        let items: Vec<usize> = (0..100).collect();
        for jobs in [1, 2, 3, 8] {
            let out = run_indexed(&items, jobs, |i, &x| {
                assert_eq!(i, x);
                x * 2
            });
            assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn output_is_independent_of_worker_count() {
        let items: Vec<u64> = (0..37).collect();
        let reference = run_indexed(&items, 1, |i, &x| (i as u64) * 31 + x);
        for jobs in [2, 4, 16] {
            assert_eq!(
                run_indexed(&items, jobs, |i, &x| (i as u64) * 31 + x),
                reference
            );
        }
    }

    #[test]
    fn handles_empty_and_singleton_inputs() {
        let empty: Vec<u32> = vec![];
        assert!(run_indexed(&empty, 8, |_, &x| x).is_empty());
        assert_eq!(run_indexed(&[7u32], 8, |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn resolve_jobs_prefers_explicit_and_floors_at_one() {
        assert_eq!(resolve_jobs(Some(5)), 5);
        assert_eq!(resolve_jobs(Some(0)), 1);
        assert!(resolve_jobs(None) >= 1);
    }
}
