//! `gpf-check` models of the engine's own concurrent structures, run over
//! the REAL types under the schedule explorer (ROADMAP 5(b)): what every
//! read-sized stage now goes through.
//!
//! Run with
//! `RUSTFLAGS="--cfg gpf_check" cargo test -p gpf-engine --lib models:: -- --test-threads=1`
//! (`scripts/ci.sh` does, beside `gpf-check`'s own models).
//! `GPF_CHECK_SCHEDULES=<n>` overrides the per-model schedule budget.

use crate::dataset::{FoldGroups, TaskSource};
use gpf_check::explore::{Explorer, Failure, Report};
use gpf_support::chk::thread as chk_thread;
use gpf_support::sync::Mutex;

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
        let source = TaskSource::Owned(parts().into_iter().map(Mutex::new).collect());
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
