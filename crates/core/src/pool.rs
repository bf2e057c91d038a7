//! The evaluation pool: one work-stealing parallel loop for every caller
//! that fans work out over worker threads — a campaign's initial
//! population, its evaluate and evolve passes, and the minimizer's
//! speculative candidate scans.

use std::sync::atomic::{AtomicUsize, Ordering};

/// The default worker count: the cores this process may run on (which
/// honours CPU affinity, so `taskset -c 0` means one), capped at 16.
pub fn num_threads_default() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(16)
}

/// The one parallel loop: `work(slot, k)` runs exactly once for every `k` in
/// `0..n` and the results come back in index order. One scoped worker per
/// slot (the caller's thread drives the first) claims the next index from a
/// shared cursor, so a worker that drew cheap items steals what a slower one
/// has not reached yet. Which worker ran which index is
/// scheduling-dependent; the returned vector is not, so state derived from
/// it is identical for any slot count. With a single slot everything runs
/// in index order on the caller's thread.
pub fn steal_map<S: Send, R: Send>(
    slots: &mut [S],
    n: usize,
    work: impl Fn(&mut S, usize) -> R + Sync,
) -> Vec<R> {
    // The cursor only hands out tickets; results are published by the joins.
    let cursor = AtomicUsize::new(0);
    let drive = |slot: &mut S| {
        let mut done = Vec::new();
        loop {
            let k = cursor.fetch_add(1, Ordering::Relaxed);
            if k >= n {
                break done;
            }
            done.push((k, work(slot, k)));
        }
    };
    let (first, rest) = slots.split_first_mut().expect("at least one worker slot");
    let mut placed: Vec<Option<R>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let spawned: Vec<_> = rest
            .iter_mut()
            .map(|slot| scope.spawn(|| drive(slot)))
            .collect();
        let mut done = drive(first);
        for handle in spawned {
            done.extend(handle.join().expect("pool worker panicked"));
        }
        for (k, result) in done {
            placed[k] = Some(result);
        }
    });
    placed
        .into_iter()
        .map(|r| r.expect("every index is claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn stolen_work_runs_exactly_once_and_returns_in_index_order() {
        // The first half of the items costs 20x the second, so a static
        // split would leave late workers idle; whatever the schedule, every
        // index is claimed exactly once and results come back in order.
        let n = 64usize;
        for workers in [1usize, 2, 3, 8] {
            let visits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
            let mut per_worker = vec![0usize; workers];
            let out = steal_map(&mut per_worker, n, |count, k| {
                *count += 1;
                visits[k].fetch_add(1, Ordering::Relaxed);
                let spins = if k < n / 2 { 20_000u64 } else { 1_000 };
                let spun = (0..spins).fold(k as u64, |acc, x| {
                    std::hint::black_box(acc.wrapping_mul(31).wrapping_add(x))
                });
                (k, spun)
            });
            assert!(out.iter().map(|&(k, _)| k).eq(0..n), "{workers} workers");
            assert!(visits.iter().all(|v| v.load(Ordering::Relaxed) == 1));
            assert_eq!(per_worker.iter().sum::<usize>(), n, "{per_worker:?}");
        }
        assert!(steal_map(&mut [(); 3], 0, |_, k| k).is_empty());
    }
}
