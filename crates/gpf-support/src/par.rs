//! Scoped data parallelism over `std::thread::scope`.
//!
//! The replacement for the workspace's rayon usage: an ordered parallel map
//! over index ranges and slices. Work distribution is
//! **atomic work-stealing of chunk indices** — a shared counter that idle
//! workers bump to claim the next chunk — so a straggler chunk (a hot
//! genome partition, say) never serializes the whole map the way static
//! striping would.
//!
//! Guarantees:
//!
//! - **Output order equals input order**, regardless of which worker ran
//!   which chunk (results are reassembled by chunk index).
//! - **Panic transparency**: a panic in the closure propagates to the
//!   caller with its original payload, so `should_panic` tests and the
//!   engine's routing asserts behave exactly as under sequential code.
//! - **Sequential fallback**: one-element inputs, one-core machines, and
//!   `GPF_PAR_THREADS=1` all take the plain-loop path, which is also the
//!   reference semantics the parallel path is tested against.

use crate::chk::atomic::{AtomicUsize, Ordering};
use crate::chk::thread as chk_thread;

/// What one worker did during a `map_range_chunked` call — feeds the
/// `par.*` trace counters when tracing is enabled.
#[derive(Default, Clone, Copy)]
struct WorkerStats {
    chunks: u64,
    steals: u64,
    busy_ns: u64,
}

/// One worker's output: `(chunk index, chunk results)` pairs plus its
/// utilization stats.
type WorkerOut<U> = (Vec<(usize, Vec<U>)>, WorkerStats);

/// Worker-thread count: `GPF_PAR_THREADS` if set, else available
/// parallelism, else 1.
pub fn max_threads() -> usize {
    if let Some(n) = std::env::var("GPF_PAR_THREADS").ok().and_then(|s| s.parse::<usize>().ok()) {
        return n.max(1);
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Parallel map over `0..n`, returning results in index order.
pub fn map_range<U, F>(n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    map_range_chunked(n, default_chunk(n), f)
}

/// Parallel map over `0..n` with an explicit chunk grain — exposed so tests
/// can drive adversarial chunk sizes (1, n-1, n, > n) through the same
/// work-stealing machinery the defaults use.
pub fn map_range_chunked<U, F>(n: usize, chunk: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let chunk = chunk.max(1);
    let workers = max_threads().min(n.div_ceil(chunk));
    if workers <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let nchunks = n.div_ceil(chunk);
    let next = AtomicUsize::new(0);
    let f = &f;
    let next = &next;
    // Per-worker utilization accounting, only while tracing is on: the
    // enabled() gate keeps clock reads off the untraced hot path.
    let traced = gpf_trace::enabled();
    let t_start = if traced { gpf_trace::clock::now_ns() } else { 0 };
    let mut per_worker: Vec<WorkerOut<U>> = chk_thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    let mut local: Vec<(usize, Vec<U>)> = Vec::new();
                    let mut stats = WorkerStats::default();
                    loop {
                        // ordering: Relaxed suffices — the counter only
                        // hands out chunk indices; results flow back through
                        // the scope join, which is the synchronizing edge.
                        let c = next.fetch_add(1, Ordering::Relaxed);
                        if c >= nchunks {
                            break;
                        }
                        let t0 = if traced { gpf_trace::clock::now_ns() } else { 0 };
                        let lo = c * chunk;
                        let hi = (lo + chunk).min(n);
                        local.push((c, (lo..hi).map(f).collect()));
                        if traced {
                            stats.chunks += 1;
                            // Round-robin would hand chunk c to worker
                            // c % workers; any other claimant stole it off
                            // the shared counter.
                            if c % workers != w {
                                stats.steals += 1;
                            }
                            stats.busy_ns +=
                                gpf_trace::clock::now_ns().saturating_sub(t0);
                        }
                    }
                    (local, stats)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(v) => v,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    if traced {
        let wall_ns = gpf_trace::clock::now_ns().saturating_sub(t_start);
        let busy_ns: u64 = per_worker.iter().map(|(_, s)| s.busy_ns).sum();
        gpf_trace::counter(gpf_trace::names::PAR_CHUNKS)
            .add(per_worker.iter().map(|(_, s)| s.chunks).sum());
        gpf_trace::counter(gpf_trace::names::PAR_STEALS)
            .add(per_worker.iter().map(|(_, s)| s.steals).sum());
        gpf_trace::counter(gpf_trace::names::PAR_BUSY_NS).add(busy_ns);
        // Idle = the pool's wall-clock capacity the workers did not fill —
        // thread ramp-up, counter contention, and end-of-map tail where
        // some workers are drained while a straggler chunk finishes.
        gpf_trace::counter(gpf_trace::names::PAR_IDLE_NS)
            .add((wall_ns * workers as u64).saturating_sub(busy_ns));
    }

    // Reassemble in chunk order.
    let mut slots: Vec<Option<Vec<U>>> = (0..nchunks).map(|_| None).collect();
    for (worker, _) in &mut per_worker {
        for (c, vals) in worker.drain(..) {
            debug_assert!(slots[c].is_none(), "chunk {c} claimed twice");
            slots[c] = Some(vals);
        }
    }
    let mut out = Vec::with_capacity(n);
    for slot in slots {
        // gpf-lint: allow(no-panic): the fetch_add counter hands out each
        // chunk index to exactly one worker, and all workers joined above —
        // an empty slot is a work-stealing bug worth crashing on.
        out.extend(slot.expect("every chunk claimed exactly once"));
    }
    out
}

/// Parallel map over a slice, preserving order.
pub fn map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    map_range(items.len(), |i| f(&items[i]))
}

/// Default chunk grain: enough chunks for stealing to smooth stragglers
/// (~8 per worker) without drowning small maps in coordination overhead.
fn default_chunk(n: usize) -> usize {
    n.div_ceil(max_threads().saturating_mul(8).max(1)).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_matches_sequential() {
        let items: Vec<u64> = (0..10_000).collect();
        let seq: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        assert_eq!(map(&items, |x| x * 3 + 1), seq);
    }

    #[test]
    fn map_range_empty_and_single() {
        assert_eq!(map_range(0, |i| i), Vec::<usize>::new());
        assert_eq!(map_range(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn adversarial_chunk_sizes_preserve_order() {
        let n = 1003;
        let expect: Vec<usize> = (0..n).map(|i| i * i).collect();
        for chunk in [1, 2, 3, 7, n - 1, n, n + 1, 10 * n] {
            assert_eq!(map_range_chunked(n, chunk, |i| i * i), expect, "chunk {chunk}");
        }
    }

    #[test]
    #[should_panic(expected = "deliberate panic at 37")]
    fn panics_propagate_with_payload() {
        let _ = map_range(100, |i| {
            if i == 37 {
                panic!("deliberate panic at 37");
            }
            i
        });
    }

    #[test]
    fn tracing_counters_account_for_every_chunk() {
        if max_threads() < 2 {
            return; // sequential fallback records nothing
        }
        gpf_trace::set_enabled(true);
        let chunks_before = gpf_trace::counter("par.chunks").get();
        let busy_before = gpf_trace::counter("par.busy_ns").get();
        let out = map_range_chunked(64, 4, |i| i);
        gpf_trace::set_enabled(false);
        assert_eq!(out, (0..64).collect::<Vec<_>>());
        // Other tests may run concurrently with tracing enabled, so the
        // deltas are lower bounds: at least this call's 16 chunks landed.
        assert!(gpf_trace::counter("par.chunks").get() >= chunks_before + 16);
        assert!(gpf_trace::counter("par.busy_ns").get() >= busy_before);
    }

    #[test]
    fn threads_env_forces_sequential() {
        // Can't set env safely in parallel tests; just exercise the
        // sequential path via workers<=1 semantics using a 1-chunk map.
        let out = map_range_chunked(64, 64, |i| i);
        assert_eq!(out, (0..64).collect::<Vec<_>>());
    }
}
