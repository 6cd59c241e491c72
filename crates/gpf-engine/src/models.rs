//! `gpf-check` models of the engine's own concurrent structures, run over
//! the REAL types under the schedule explorer (ROADMAP 5(b)): what every
//! read-sized stage now goes through.
//!
//! Run with
//! `RUSTFLAGS="--cfg gpf_check" cargo test -p gpf-engine --lib models:: -- --test-threads=1`
//! (`scripts/ci.sh` does, beside `gpf-check`'s own models).
//! `GPF_CHECK_SCHEDULES=<n>` overrides the per-model schedule budget.

use crate::budget::{BudgetAccountant, Shed, TrackedParts, TrackedStore};
use crate::config::EngineConfig;
use crate::context::EngineContext;
use crate::dataset::{FoldGroups, OwnedParts, TaskSource};
use gpf_check::explore::{Explorer, Failure, Report};
use gpf_compress::GpfSerialize;
use gpf_support::chk::thread as chk_thread;
use gpf_support::sync::Mutex;
use std::sync::Arc;

const SCHEDULES: usize = 10_000;

fn pass(result: Result<Report, Failure>, name: &str) -> Report {
    match result {
        Ok(report) => report,
        // gpf-lint: allow(no-panic): test-only module (built under
        // `cfg(all(test, gpf_check))`); a failed model check fails its test.
        Err(f) => panic!("engine component '{name}' failed model check:\n{f}"),
    }
}

/// `TaskSource::Owned`: each partition sits in a cell that exactly one
/// taker empties, whichever way the takers interleave and whichever of the
/// two taking paths they use; a second taker sees an empty partition, never
/// a torn one.
#[test]
fn model_task_source_cells_are_each_emptied_once() {
    let parts = || vec![vec![1u64, 2], vec![3], vec![4, 5, 6]];
    let model = || {
        let source = TaskSource::Owned(OwnedParts::Cells(parts().into_iter().map(Mutex::new).collect()));
        let seen: Vec<Mutex<Vec<Vec<u64>>>> = (0..3).map(|_| Mutex::new(Vec::new())).collect();
        chk_thread::scope(|s| {
            // What a consuming narrow operator's task does …
            s.spawn(|| {
                for (i, seen) in seen.iter().enumerate() {
                    source.for_each_chunk(i, &mut |chunk| seen.lock().push(chunk));
                }
            });
            // … racing what a shuffle map task does, in the other order.
            s.spawn(|| {
                for (i, seen) in seen.iter().enumerate().rev() {
                    source.with_part(i, |items| seen.lock().push(items.to_vec()));
                }
            });
        });
        for (want, seen) in parts().into_iter().zip(seen) {
            let mut seen = seen.into_inner();
            seen.sort();
            assert_eq!(seen, vec![Vec::new(), want], "one taker gets the partition, the other nothing");
        }
    };
    let report = pass(Explorer::exhaustive(3).check("model_task_source_exhaustive", model), "TaskSource (exhaustive)");
    assert!(report.schedules > 1, "exploration must actually branch");
    pass(Explorer::random(0x7A5C_50CE, SCHEDULES).check("model_task_source", model), "TaskSource");
}

/// `FoldGroups`: every task's value is folded exactly once into some group
/// — tasks of one group contend on its lock, tasks of different groups do
/// not meet — and the merge after the join sees every group.
#[test]
fn model_fold_groups_fold_every_value_once() {
    // Pin the worker count: it sizes the groups.
    std::env::set_var("GPF_PAR_THREADS", "2");
    let model = || {
        let groups = FoldGroups::new(4, || 0u64);
        chk_thread::scope(|s| {
            // Each thread folds into both groups.
            for tasks in [[0usize, 2], [3, 1]] {
                let groups = &groups;
                s.spawn(move || {
                    for i in tasks {
                        groups.fold(i, |acc| *acc += 1 << (8 * i));
                    }
                });
            }
        });
        assert_eq!(groups.merged(|acc, next| *acc += next), Some(0x0101_0101), "every value, once");
    };
    let report = pass(Explorer::exhaustive(3).check("model_fold_groups_exhaustive", model), "FoldGroups (exhaustive)");
    assert!(report.schedules > 1, "exploration must actually branch");
    pass(Explorer::random(0xF01D_6209, SCHEDULES).check("model_fold_groups", model), "FoldGroups");
}

/// `TrackedStore` under concurrent reads, as a budgeted stage's wave makes
/// them: two tasks read the same spilled slot, each decoding its own copy,
/// while a third streams the resident slot (pinning it as it reads), under
/// an accountant that fits the one large partition plus a little. Every
/// read returns its partition's records or breaches against a pin or the
/// other reader's charge; a breached read re-run alone after the join
/// succeeds. The ledger never passes the budget, and once every reader is
/// done it holds exactly the resident slots' charges: the readers' charges
/// returned on drop and `shed`'s credits neither leak nor count twice.
#[test]
fn model_tracked_store_restores_stay_within_the_ledger() {
    // One worker: the build's ticket writes run inline, so the explored
    // threads are the three below.
    std::env::set_var("GPF_PAR_THREADS", "1");
    let parts = || vec![(0..24u64).collect::<Vec<u64>>(), (100..106).collect(), (200..206).collect()];
    let model = || {
        let want = parts();
        let budget = want[0].resident_bytes() as u64 + 16;
        let acct = Arc::new(BudgetAccountant::new(budget));
        let store = TrackedStore::build(parts(), &EngineContext::new(EngineConfig::gpf()), Arc::clone(&acct));
        assert!(!store.is_spilled(0) && store.is_spilled(1) && store.is_spilled(2));
        let breached: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        let read = |i: usize| match store.read(i) {
            Ok(part) => assert_eq!(*part, want[i], "slot {i}"),
            Err(err) => {
                assert_eq!(err, (want[i].resident_bytes() as u64, budget), "slot {i}");
                breached.lock().push(i);
            }
        };
        chk_thread::scope(|s| {
            s.spawn(|| read(1));
            s.spawn(|| read(1));
            s.spawn(|| {
                let mut seen = Vec::new();
                store.stream(0, &mut |chunk| seen.extend_from_slice(chunk));
                assert_eq!(seen, want[0], "streamed slot 0");
            });
        });
        for i in breached.into_inner() {
            let rerun = store.read(i).map(|part| part.to_vec());
            assert_eq!(rerun, Ok(want[i].clone()), "a read of slot {i} alone fits the budget");
        }
        assert!(acct.peak() <= budget, "ledger peak {} over budget {budget}", acct.peak());
        assert_eq!(acct.used(), store.resident_charge(), "the ledger holds exactly the resident charges");
    };
    let report = pass(
        Explorer::exhaustive(3).check("model_tracked_store_restores_exhaustive", model),
        "TrackedStore restores (exhaustive)",
    );
    assert!(report.schedules > 1, "exploration must actually branch");
    pass(Explorer::random(0x5B11_2E57, SCHEDULES).check("model_tracked_store_restores", model), "TrackedStore restores");
}

/// `TrackedStore::take` racing a `shed` and a read of another slot, as a
/// consuming operator's task meets a concurrent eviction: slots 0 and 2
/// start resident and slot 1 spilled, under a budget that fits slots 0 and
/// 2 but not slot 1 beside both. One thread takes slot 0, one reads slot 1
/// (evicting whatever it needs, its charge returned when its copy drops),
/// one sheds everything unpinned. The take returns slot 0's records
/// whether or not the shed spilled them first; a breached read re-run
/// alone succeeds; the taken slot is never shed or read back; the ledger
/// never passes the budget, and after the join it holds exactly the
/// resident charges.
#[test]
fn model_tracked_store_take_races_shed_and_restore() {
    // One worker: the build's ticket writes run inline, so the explored
    // threads are the three below.
    std::env::set_var("GPF_PAR_THREADS", "1");
    let parts = || vec![(0..12u64).collect::<Vec<u64>>(), (100..112).collect(), (200..206).collect()];
    let model = || {
        let want = parts();
        let charge = |i: usize| want[i].resident_bytes() as u64;
        let budget = charge(0) + charge(2);
        let acct = Arc::new(BudgetAccountant::new(budget));
        let store = TrackedStore::build(parts(), &EngineContext::new(EngineConfig::gpf()), Arc::clone(&acct));
        assert!(!store.is_spilled(0) && store.is_spilled(1) && !store.is_spilled(2));
        let breached = Mutex::new(false);
        chk_thread::scope(|s| {
            s.spawn(|| assert_eq!(store.take(0), want[0], "the taken slot 0"));
            s.spawn(|| match store.read(1) {
                Ok(part) => assert_eq!(*part, want[1], "read slot 1"),
                Err(err) => {
                    assert_eq!(err, (charge(1), budget), "slot 1");
                    *breached.lock() = true;
                }
            });
            s.spawn(|| {
                store.shed(u64::MAX);
            });
        });
        if breached.into_inner() {
            let rerun = store.read(1).map(|part| part.to_vec());
            assert_eq!(rerun, Ok(want[1].clone()), "a read of slot 1 alone fits the budget");
        }
        assert!(store.is_taken(0), "the taken slot was shed or restored");
        assert!(store.read(0).is_ok_and(|part| part.is_empty()), "a taken slot reads as empty");
        assert!(store.is_taken(0), "reading a taken slot brought it back");
        assert!(acct.peak() <= budget, "ledger peak {} over budget {budget}", acct.peak());
        assert_eq!(acct.used(), store.resident_charge(), "the ledger holds exactly the resident charges");
    };
    let report = pass(
        Explorer::exhaustive(3).check("model_tracked_store_take_exhaustive", model),
        "TrackedStore take (exhaustive)",
    );
    assert!(report.schedules > 1, "exploration must actually branch");
    pass(Explorer::random(0x7A4E_5ED0, SCHEDULES).check("model_tracked_store_take", model), "TrackedStore take");
}

/// Cross-store reclaim racing a dropped store (the rest of ROADMAP 5(b)):
/// two stores on one accountant that fits one. One thread builds the
/// second store, whose admissions reclaim from the first through the
/// registry; another drops the first store's last handle, so its `Drop`
/// credits its resident charges back while the reclaim may be spilling
/// from it — or the reclaim finds it expired and the build spills on the
/// spot. Either way the second store holds its records, the ledger never
/// passes the budget, and after the join it holds exactly the live store's
/// resident charges: `Drop`'s credit-back and `shed`'s credits neither leak
/// nor count twice.
#[test]
fn model_cross_store_reclaim_races_a_dropped_store() {
    // One worker: the builds' ticket writes run inline, so the explored
    // threads are the two below.
    std::env::set_var("GPF_PAR_THREADS", "1");
    let parts = || vec![(0..12u64).collect::<Vec<u64>>(), (100..112).collect()];
    let model = || {
        let want = parts();
        let budget = want.iter().map(|p| p.resident_bytes() as u64).sum::<u64>();
        let acct = Arc::new(BudgetAccountant::new(budget));
        let ctx = EngineContext::new(EngineConfig::gpf());
        let first = TrackedStore::build(parts(), &ctx, Arc::clone(&acct));
        assert!(!first.is_spilled(0) && !first.is_spilled(1));
        // The scope joins the build, so this holds the second store.
        let built = Mutex::new(Vec::new());
        chk_thread::scope(|s| {
            s.spawn(|| built.lock().push(TrackedStore::build(parts(), &ctx, Arc::clone(&acct))));
            s.spawn(move || drop(first));
        });
        for second in built.into_inner() {
            for (i, want) in want.iter().enumerate() {
                let mut seen = Vec::new();
                second.stream(i, &mut |chunk| seen.extend_from_slice(chunk));
                assert_eq!(&seen, want, "slot {i} of the second store");
            }
            assert_eq!(acct.used(), second.resident_charge(), "the ledger holds exactly the live store's charges");
        }
        assert!(acct.peak() <= budget, "ledger peak {} over budget {budget}", acct.peak());
    };
    let report = pass(
        Explorer::exhaustive(3).check("model_cross_store_reclaim_exhaustive", model),
        "cross-store reclaim (exhaustive)",
    );
    assert!(report.schedules > 1, "exploration must actually branch");
    pass(Explorer::random(0xC055_D20F, SCHEDULES).check("model_cross_store_reclaim", model), "cross-store reclaim");
}
