//! Stress tests for the work-stealing worker pool (`vendor/rayon`):
//! nested scopes, uneven job sizes, and panicking jobs must never
//! deadlock the fixed-size pool or kill a worker, and after one-time
//! initialisation `threads_spawned` must stay flat no matter how much
//! work is thrown at it.
//!
//! Stats note: the global pool is process-wide and tests in this binary
//! run concurrently, so every counter assertion is monotone (strict
//! increase, or exact non-increase for the spawn counter) rather than
//! an equality between deltas. Exact accounting equalities live in the
//! vendored crate's unit tests, which use isolated private pools.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Spin-wait work whose cost scales with `units`, opaque to the
/// optimiser.
fn busy_work(units: usize) -> u64 {
    let mut acc = 0x9e37_79b9u64;
    for i in 0..units * 50 {
        acc = std::hint::black_box(acc.rotate_left(7) ^ i as u64);
    }
    acc
}

#[test]
fn deep_nesting_with_fanout_terminates_and_spawns_nothing() {
    let init = rayon::global_pool_stats();
    let hits = AtomicUsize::new(0);
    // 3 levels of nesting, fan-out 3 at each: 3 + 9 + 27 = 39 jobs, far
    // more concurrent scopes than pool workers on any host — waiting
    // scopes must help (and steal) instead of deadlocking.
    rayon::scope(|a| {
        for _ in 0..3 {
            a.spawn(|_| {
                rayon::scope(|b| {
                    for _ in 0..3 {
                        b.spawn(|_| {
                            rayon::scope(|c| {
                                for _ in 0..3 {
                                    c.spawn(|_| {
                                        hits.fetch_add(1, Ordering::SeqCst);
                                    });
                                }
                            });
                            hits.fetch_add(1, Ordering::SeqCst);
                        });
                    }
                });
                hits.fetch_add(1, Ordering::SeqCst);
            });
        }
    });
    assert_eq!(hits.load(Ordering::SeqCst), 39);
    let after = rayon::global_pool_stats();
    assert_eq!(
        init.threads_spawned, after.threads_spawned,
        "nested scopes run on the fixed pool, never on new threads"
    );
}

#[test]
fn uneven_job_sizes_fill_every_slot_in_order() {
    // One huge job up front, a tail of tiny ones: with LIFO local
    // deques + FIFO stealing the tiny jobs migrate while the big one
    // runs, and slot-indexed results keep the output order exact.
    let sizes: Vec<usize> = (0..64).map(|i| if i == 0 { 2000 } else { i % 7 }).collect();
    let slots: Vec<Mutex<Option<(usize, u64)>>> = sizes.iter().map(|_| Mutex::new(None)).collect();
    rayon::scope(|s| {
        for (&units, slot) in sizes.iter().zip(&slots) {
            s.spawn(move |_| *slot.lock().unwrap() = Some((units, busy_work(units))));
        }
    });
    let results: Vec<(usize, u64)> = slots
        .into_iter()
        .map(|slot| slot.into_inner().unwrap().expect("every slot filled"))
        .collect();
    assert_eq!(results.len(), sizes.len());
    for (slot, (units, value)) in results.iter().enumerate() {
        assert_eq!(*units, sizes[slot], "slot {slot} out of order");
        assert_eq!(
            *value,
            busy_work(*units),
            "slot {slot} computed wrong value"
        );
    }
}

#[test]
fn panicking_jobs_neither_deadlock_nor_kill_workers() {
    let init = rayon::global_pool_stats();
    // Several rounds of scopes where one job panics among many that
    // don't: the panic must propagate to the scope caller each time,
    // the surviving jobs must all have run, and the pool must keep
    // executing afterwards with the same worker threads.
    for round in 0..3 {
        let survivors = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rayon::scope(|s| {
                for i in 0..8 {
                    s.spawn(|_| {
                        busy_work(5);
                        survivors.fetch_add(1, Ordering::SeqCst);
                    });
                    if i == 3 {
                        s.spawn(|_| panic!("round {round}: job explosion"));
                    }
                }
            });
        }));
        assert!(
            result.is_err(),
            "round {round}: job panic must reach the caller"
        );
        assert_eq!(
            survivors.load(Ordering::SeqCst),
            8,
            "round {round}: non-panicking jobs must all complete"
        );
    }
    // Workers survived: the pool still runs jobs, on the same threads.
    let check: Vec<AtomicUsize> = (0..32).map(|_| AtomicUsize::new(0)).collect();
    rayon::scope(|s| {
        for (x, slot) in check.iter().enumerate() {
            s.spawn(move |_| slot.store(x * 3, Ordering::SeqCst));
        }
    });
    let check: Vec<usize> = check.into_iter().map(AtomicUsize::into_inner).collect();
    assert_eq!(check, (0..32usize).map(|x| x * 3).collect::<Vec<_>>());
    let after = rayon::global_pool_stats();
    assert_eq!(
        init.threads_spawned, after.threads_spawned,
        "panics must not cost worker threads (no respawns, no deaths)"
    );
    assert!(after.jobs_executed > init.jobs_executed);
}

#[test]
fn steal_counter_sees_the_forced_handoff() {
    // Deterministic steal at >= 2 participants (the pool's >= 1 worker
    // plus the helping caller): job A spawns B onto the deque of
    // whichever thread runs A, then spins in the scope body until B has
    // executed. A's thread cannot run B (it is spinning, not helping),
    // so B is only reachable by another thread stealing it.
    let before = rayon::global_pool_stats();
    for _ in 0..4 {
        rayon::scope(|outer| {
            outer.spawn(|_| {
                let done = AtomicBool::new(false);
                rayon::scope(|inner| {
                    inner.spawn(|_| done.store(true, Ordering::Release));
                    while !done.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                });
            });
        });
    }
    let after = rayon::global_pool_stats();
    assert!(
        after.steals >= before.steals + 4,
        "each forced handoff must be a steal: {} -> {}",
        before.steals,
        after.steals
    );
    assert_eq!(before.threads_spawned, after.threads_spawned);
}

#[test]
fn stealing_preserves_slot_indexed_determinism_under_load() {
    // A mixed workload re-run repeatedly must produce the same results
    // every time regardless of which threads steal what, and local
    // pops + steals + injector takes all feed the same executed-jobs
    // counter (monotone view). One scoped pool job per slot, so the
    // pool is exercised even on a 1-core host.
    let expected: Vec<u64> = (0..48usize).map(|i| busy_work(i % 11)).collect();
    let baseline = rayon::global_pool_stats();
    for _ in 0..5 {
        let got: Vec<Mutex<u64>> = (0..48usize).map(|_| Mutex::new(0)).collect();
        rayon::scope(|s| {
            for (i, slot) in got.iter().enumerate() {
                s.spawn(move |_| {
                    *slot.lock().unwrap() = busy_work(i % 11);
                });
            }
        });
        let got: Vec<u64> = got.into_iter().map(|m| m.into_inner().unwrap()).collect();
        assert_eq!(got, expected);
    }
    let after = rayon::global_pool_stats();
    assert!(after.jobs_executed > baseline.jobs_executed);
    assert!(
        after.local_hits + after.injector_hits + after.steals >= after.jobs_executed,
        "every executed job was popped from some queue"
    );
    assert_eq!(baseline.threads_spawned, after.threads_spawned);
}

#[test]
fn detached_spawns_from_scope_guests_still_run() {
    // A detached `rayon::spawn` issued *inside* a scope lands on the
    // caller's transient guest deque; when the scope ends before the
    // job runs, deregistration must hand it to the injector, not drop
    // it.
    static RAN: AtomicUsize = AtomicUsize::new(0);
    let before = RAN.load(Ordering::SeqCst);
    rayon::scope(|s| {
        s.spawn(|_| {
            // Keep pool threads busy enough that the detached job can
            // plausibly still be queued when the scope exits.
            busy_work(50);
        });
        rayon::spawn(|| {
            RAN.fetch_add(1, Ordering::SeqCst);
        });
    });
    // The detached job has no completion handle; poll with a timeout.
    for _ in 0..10_000 {
        if RAN.load(Ordering::SeqCst) > before {
            return;
        }
        std::thread::yield_now();
    }
    panic!("detached spawn from inside a scope was lost");
}
