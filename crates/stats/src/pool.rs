//! The workspace's one worker pool.
//!
//! [`map`] hands results back in item order, whoever ran them: the
//! serial-equivalence clause of the determinism contract, in one place.
//! The executor's machine lanes, the campaign runner's cells and the
//! random forest's trees all fan out through it.

use std::panic::resume_unwind;
use std::sync::Mutex;

/// Runs `run(state, item)` for every item on up to `workers` threads and
/// returns the results in item order.
///
/// Workers claim items one at a time from a shared queue, so a slow item
/// does not hold up the rest. Worker `w` builds its state once with
/// `init(w)` (worker indices are `0..workers`) and threads it through
/// every item it claims. With `workers <= 1`, or at most one item,
/// everything runs inline on the calling thread as worker 0.
///
/// # Panics
///
/// If `run` panics, the panic resumes on the calling thread with its
/// original payload once every worker has stopped (the other workers
/// finish the items left in the queue first).
///
/// # Examples
///
/// ```
/// let squares = tuna_stats::pool::map(4, (0..10u64).collect(), |_| (), |_, x| x * x);
/// assert_eq!(squares, (0..10u64).map(|x| x * x).collect::<Vec<_>>());
/// ```
pub fn map<T, S, R>(
    workers: usize,
    items: Vec<T>,
    init: impl Fn(usize) -> S + Sync,
    run: impl Fn(&mut S, T) -> R + Sync,
) -> Vec<R>
where
    T: Send,
    R: Send,
{
    let n = items.len();
    let workers = workers.min(n);
    if workers <= 1 {
        let mut state = init(0);
        return items
            .into_iter()
            .map(|item| run(&mut state, item))
            .collect();
    }

    // The lock is held only to take the next item, never while `run`
    // runs, so a panicking item cannot poison it.
    let queue = Mutex::new(items.into_iter().enumerate());
    let claim = || queue.lock().expect("pool queue poisoned").next();
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let (claim, init, run) = (&claim, &init, &run);
                scope.spawn(move || {
                    let mut state = init(w);
                    let mut done = Vec::new();
                    while let Some((i, item)) = claim() {
                        done.push((i, run(&mut state, item)));
                    }
                    done
                })
            })
            .collect();
        // A resumed panic leaves the scope only after every worker has
        // stopped, and keeps its payload.
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|payload| resume_unwind(payload)))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::map;
    use std::sync::Mutex;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn results_come_back_in_item_order() {
        let n = 12;
        // Early items are the slow ones, so later items finish first
        // on any multi-worker run.
        let skewed = |_: &mut (), i: usize| {
            thread::sleep(Duration::from_millis(((n - i) % 4) as u64 * 3));
            i * 10
        };
        let expected: Vec<usize> = (0..n).map(|i| i * 10).collect();
        for workers in [0, 1, 2, 4, n + 3] {
            assert_eq!(
                map(workers, (0..n).collect(), |_| (), skewed),
                expected,
                "workers={workers}"
            );
        }
    }

    #[test]
    fn one_worker_or_one_item_runs_on_the_calling_thread() {
        let caller = thread::current().id();
        for (workers, n) in [(0, 5), (1, 5), (4, 1)] {
            let ids = map(workers, vec![(); n], |_| (), |_, ()| thread::current().id());
            assert!(
                ids.iter().all(|&id| id == caller),
                "workers={workers} items={n}"
            );
        }
    }

    #[test]
    fn init_runs_once_per_worker_with_distinct_indices() {
        let inits = Mutex::new(Vec::new());
        let workers = 3;
        let claimed_by = map(
            workers,
            (0..30).collect(),
            |w| {
                inits.lock().unwrap().push(w);
                w
            },
            |&mut w, _: usize| w,
        );
        let mut inits = inits.into_inner().unwrap();
        inits.sort_unstable();
        assert_eq!(inits, vec![0, 1, 2]);
        assert!(claimed_by.iter().all(|&w| w < workers));
    }

    #[test]
    fn a_panic_keeps_its_payload() {
        for workers in [1, 4] {
            let payload = std::panic::catch_unwind(|| {
                map(
                    workers,
                    (0..8).collect(),
                    |_| (),
                    |_, i: usize| {
                        if i == 5 {
                            panic!("item five failed");
                        }
                        i
                    },
                )
            })
            .expect_err("the panic must propagate");
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"item five failed"),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn empty_input_maps_to_empty_output() {
        for workers in [0, 1, 4] {
            let out: Vec<u8> = map(workers, Vec::<u8>::new(), |_| (), |_, x| x);
            assert!(out.is_empty());
        }
    }
}
