//! Explorer self-tests (satellite): determinism, exhaustive completeness,
//! and no false positives on a correctly synchronized message pass.
//!
//! Only meaningful under the instrumented build:
//! `RUSTFLAGS="--cfg gpf_check" cargo test -p gpf-check`.
#![cfg(gpf_check)]

use std::collections::HashSet;
use std::sync::Mutex;

use gpf_check::explore::Explorer;
use gpf_check::shim::atomic::{AtomicU64, Ordering};
use gpf_check::shim::thread as chk_thread;

/// Exhaustive mode enumerates the model's full interleaving set, each
/// schedule exactly once.
///
/// Model: two peer threads, three `fetch_add(1)` steps each on one shared
/// atomic. Each thread contributes 4 scheduler steps (3 RMWs plus its
/// termination step), so the full interleaving set has C(8,4) = 70
/// members; distinct recorded decision paths biject onto interleavings
/// (the first divergence between two interleavings is a recorded choice).
/// The 3-subsets of ranks {0..5} taken by thread A across the RMWs must
/// then cover all C(6,3) = 20 possibilities.
#[test]
fn exhaustive_enumerates_full_interleaving_set() {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    // Rank triples are taken modulo 6: every schedule completes (no
    // failures, no aborts), so SEQ advances by exactly 6 per schedule and
    // the static's persistence across schedules cancels out.
    let triples: Mutex<Vec<[u64; 3]>> = Mutex::new(Vec::new());
    let body_a = || {
        let mut t = [0u64; 3];
        for slot in t.iter_mut() {
            *slot = SEQ.fetch_add(1, Ordering::Relaxed) % 6;
        }
        triples.lock().unwrap().push(t);
    };
    let body_b = || {
        for _ in 0..3 {
            SEQ.fetch_add(1, Ordering::Relaxed);
        }
    };
    let report = Explorer::exhaustive(64)
        .check_threads("exhaustive_completeness", &[&body_a, &body_b])
        .expect("a race-free counter model must pass");
    assert!(report.complete, "the bounded DFS must exhaust this model");
    assert_eq!(report.schedules, 70, "C(8,4) interleavings of 4+4 steps");
    let seen = triples.lock().unwrap();
    assert_eq!(seen.len(), 70);
    let distinct: HashSet<[u64; 3]> = seen.iter().copied().collect();
    assert_eq!(distinct.len(), 20, "C(6,3) rank triples for thread A");
}

/// Identical seeds must produce byte-identical schedules: the observable
/// per-schedule op orders of two runs with the same base seed are equal,
/// and a different seed produces a different sequence (sanity that the
/// seed actually steers scheduling).
#[test]
fn identical_seeds_replay_identical_schedules() {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let run = |seed: u64| -> Vec<[u64; 3]> {
        let triples: Mutex<Vec<[u64; 3]>> = Mutex::new(Vec::new());
        let body_a = || {
            let mut t = [0u64; 3];
            for slot in t.iter_mut() {
                *slot = SEQ.fetch_add(1, Ordering::Relaxed) % 6;
            }
            triples.lock().unwrap().push(t);
        };
        let body_b = || {
            for _ in 0..3 {
                SEQ.fetch_add(1, Ordering::Relaxed);
            }
        };
        Explorer::random(seed, 60)
            .check_threads("seed_determinism", &[&body_a, &body_b])
            .expect("a race-free counter model must pass");
        triples.into_inner().unwrap()
    };
    let first = run(0x5EED_CAFE);
    let second = run(0x5EED_CAFE);
    assert_eq!(first, second, "same seed, same schedules, same op orders");
    let other = run(0x0DD_5EED);
    assert_ne!(first, other, "a different seed must explore differently");
}

/// A correct release/acquire message pass must never be flagged: an
/// acquire load observing the flag must also observe the payload, even
/// though the payload itself is stored and loaded `Relaxed`.
#[test]
fn message_pass_has_no_false_positive() {
    let report = Explorer::exhaustive(64)
        .check("message_pass_release_acquire", || {
            let flag = AtomicU64::new(0);
            let data = AtomicU64::new(0);
            chk_thread::scope(|s| {
                s.spawn(|| {
                    data.store(42, Ordering::Relaxed);
                    flag.store(1, Ordering::Release);
                });
                s.spawn(|| {
                    if flag.load(Ordering::Acquire) == 1 {
                        let payload = data.load(Ordering::Relaxed);
                        assert_eq!(payload, 42, "acquire must publish the payload");
                    }
                });
            });
        })
        .unwrap_or_else(|f| panic!("false positive: {f}"));
    assert!(report.complete);
    assert!(report.schedules > 1, "exploration must actually branch");
}

/// Replay tokens parse back into the decision sources they describe.
#[test]
fn replay_tokens_round_trip() {
    use gpf_check::explore::parse_replay;
    use gpf_check::rt::DecisionSource;
    match parse_replay("seed:00000000deadbeef") {
        Some(DecisionSource::Random(s)) => assert_eq!(s, 0xdead_beef),
        other => panic!("bad parse: {other:?}"),
    }
    match parse_replay("path:1.0.2") {
        Some(DecisionSource::Prefix(p)) => assert_eq!(p, vec![1, 0, 2]),
        other => panic!("bad parse: {other:?}"),
    }
    match parse_replay("path:") {
        Some(DecisionSource::Prefix(p)) => assert!(p.is_empty()),
        other => panic!("bad parse: {other:?}"),
    }
    assert!(parse_replay("garbage").is_none());
}
