//! Detection-power battery: deliberately broken concurrency variants the
//! checker MUST flag. Each case is a known bug class seeded into a small
//! model; a passing run here means the checker failed to find a planted
//! bug and is itself broken. Every failure's replay token is re-run and
//! must reproduce the identical verdict (kind and message byte-for-byte).
//!
//! Run with `RUSTFLAGS="--cfg gpf_check" cargo test -p gpf-check`.
#![cfg(gpf_check)]

use gpf_check::explore::{Explorer, Failure};
use gpf_check::rt::FailureKind;
use gpf_check::shim::atomic::{AtomicU64, Ordering};
use gpf_check::shim::sync::Mutex;
use gpf_check::shim::thread as chk_thread;

/// Flag the bug, then prove the printed token replays the exact schedule.
fn expect_bug<F>(explorer: Explorer, name: &str, kind: FailureKind, model: F) -> Failure
where
    F: Fn(),
{
    let failure = explorer
        .clone()
        .check(name, &model)
        .expect_err("the checker must flag this seeded bug");
    assert_eq!(failure.kind, kind, "wrong verdict for {name}: {failure}");
    assert!(!failure.replay.is_empty());
    let replayed = explorer
        .with_replay(&failure.replay)
        .expect("failure tokens must parse")
        .check(name, &model)
        .expect_err("replaying the failing schedule must fail again");
    assert_eq!(replayed.kind, failure.kind, "replay diverged for {name}");
    assert_eq!(replayed.message, failure.message, "replay not byte-identical for {name}");
    failure
}

/// Bug 1 — consumer loads the ready flag with `Relaxed` where `Acquire`
/// is required: no happens-before edge to the producer's payload store, so
/// a consumer that sees the flag may still read the payload's initial 0.
#[test]
fn bug_relaxed_consumer_load_is_flagged() {
    let failure = expect_bug(
        Explorer::exhaustive(64),
        "bug_relaxed_consumer_load",
        FailureKind::ModelPanic,
        || {
            let flag = AtomicU64::new(0);
            let data = AtomicU64::new(0);
            chk_thread::scope(|s| {
                s.spawn(|| {
                    data.store(7, Ordering::Relaxed);
                    flag.store(1, Ordering::Release);
                });
                s.spawn(|| {
                    // BUG: Relaxed drops the acquire edge the publish needs.
                    if flag.load(Ordering::Relaxed) == 1 {
                        assert_eq!(data.load(Ordering::Relaxed), 7, "stale payload");
                    }
                });
            });
        },
    );
    assert!(failure.message.contains("stale payload"), "{failure}");
}

/// Bug 2 — producer publishes the flag with `Relaxed` where `Release` is
/// required: even an acquire load cannot synchronize with it, so the
/// payload may still read stale.
#[test]
fn bug_relaxed_producer_store_is_flagged() {
    let failure = expect_bug(
        Explorer::exhaustive(64),
        "bug_relaxed_producer_store",
        FailureKind::ModelPanic,
        || {
            let flag = AtomicU64::new(0);
            let data = AtomicU64::new(0);
            chk_thread::scope(|s| {
                s.spawn(|| {
                    data.store(7, Ordering::Relaxed);
                    // BUG: Relaxed drops the release edge the publish needs.
                    flag.store(1, Ordering::Relaxed);
                });
                s.spawn(|| {
                    if flag.load(Ordering::Acquire) == 1 {
                        assert_eq!(data.load(Ordering::Relaxed), 7, "stale payload");
                    }
                });
            });
        },
    );
    assert!(failure.message.contains("stale payload"), "{failure}");
}

/// Bug 3 — AB/BA lock ordering deadlock, caught by the lock-wait cycle
/// walk the moment the second thread parks.
#[test]
fn bug_lock_order_inversion_deadlocks() {
    expect_bug(
        Explorer::exhaustive(64),
        "bug_ab_ba_deadlock",
        FailureKind::Deadlock,
        || {
            let a = Mutex::new(0u64);
            let b = Mutex::new(0u64);
            chk_thread::scope(|s| {
                s.spawn(|| {
                    let _ga = a.lock();
                    let _gb = b.lock();
                });
                s.spawn(|| {
                    // BUG: opposite acquisition order to the other thread.
                    let _gb = b.lock();
                    let _ga = a.lock();
                });
            });
        },
    );
}

/// Bug 4 — lost update: increment via separate load and store instead of
/// `fetch_add`, so a preemption between them drops one increment.
#[test]
fn bug_load_then_store_increment_loses_updates() {
    expect_bug(
        Explorer::exhaustive(64),
        "bug_nonatomic_increment",
        FailureKind::ModelPanic,
        || {
            let counter = AtomicU64::new(0);
            chk_thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| {
                        // BUG: read-modify-write torn into two operations.
                        let v = counter.load(Ordering::SeqCst);
                        counter.store(v + 1, Ordering::SeqCst);
                    });
                }
            });
            assert_eq!(counter.load(Ordering::SeqCst), 2, "an increment was lost");
        },
    );
}

/// Bug 5 — drop-accounting drift, modeled on the trace ring: events are
/// guarded by the ring mutex but the dropped counter is bumped with a
/// separate load+store, so two concurrent pushers under-count drops and
/// `held + dropped != pushed`.
#[test]
fn bug_ring_drop_accounting_drifts() {
    expect_bug(
        Explorer::exhaustive(64),
        "bug_ring_drop_accounting",
        FailureKind::ModelPanic,
        || {
            const CAP: usize = 2;
            let ring: Mutex<Vec<u64>> = Mutex::new(Vec::new());
            let dropped = AtomicU64::new(0);
            let push = |v: u64| {
                let mut g = ring.lock();
                g.push(v);
                let evicted = g.len() > CAP;
                if evicted {
                    g.remove(0);
                }
                drop(g);
                if evicted {
                    // BUG: counter updated outside the lock, non-atomically,
                    // so two concurrent evictors can both read the same value
                    // and one increment is lost.
                    let d = dropped.load(Ordering::SeqCst);
                    dropped.store(d + 1, Ordering::SeqCst);
                }
            };
            chk_thread::scope(|s| {
                s.spawn(|| {
                    push(1);
                    push(2);
                });
                s.spawn(|| {
                    push(3);
                    push(4);
                });
            });
            let held = ring.lock().len() as u64;
            let lost = dropped.load(Ordering::SeqCst);
            assert_eq!(held + lost, 4, "drop accounting drifted");
        },
    );
}
