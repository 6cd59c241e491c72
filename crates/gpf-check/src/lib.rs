//! # gpf-check
//!
//! Deterministic concurrency model checking for the GPF workspace — the
//! static-analysis discipline of PR 2 (validator + gpf-lint) extended from
//! graphs and source text to *schedules and memory orderings*. Std-only,
//! like everything else in the tree.
//!
//! ## Two compilation modes
//!
//! The [`shim`] module exports the concurrency primitives the workspace
//! runs: the `Atomic*` types (`load`, `store`, `swap`, `fetch_add`,
//! `fetch_max`, `get_mut`, `into_inner`), `Mutex`, `RwLock`, `OnceLock` and
//! `thread::scope`.
//! Normally they compile to the real `std::sync` / `std::thread` items —
//! zero cost, identical codegen. Under
//! `RUSTFLAGS="--cfg gpf_check"` every
//! access instead routes through a cooperative scheduler (`rt`) that:
//!
//! - runs **one logical thread at a time** (baton passing over real OS
//!   threads, so TLS and borrows behave exactly as in production code);
//! - turns every primitive access into an explicit **scheduling point**
//!   whose successor is chosen by the active `explore::Explorer`;
//! - keeps a **per-location store history**, so a `Relaxed` load may
//!   observe a stale value unless a release/acquire (or SeqCst) edge
//!   forbids it — wrong orderings *actually fail* under exploration;
//! - reports **deadlocks** (a lock-wait cycle, or every remaining thread
//!   parked on a lock or a join), **livelocks** (the schedule's step
//!   budget) and **model panics** (a failed assertion, such as a stale
//!   payload read through a missing release/acquire edge), each with a
//!   replayable schedule.
//!
//! Code written against the shim runs **unmodified** in both modes:
//! `gpf_support::par`, `gpf_support::sync`, and the `gpf-trace`
//! ring/recorder/counters are checked as-is by the model tests in this
//! crate's `tests/` directory.
//!
//! ## Replay
//!
//! A failing schedule prints a `GPF_CHECK_REPLAY=<token>` line (same
//! contract as the proptest harness's `GPF_PROPTEST_REPLAY`). Re-running
//! the same test with that environment variable set replays the failing
//! schedule byte-identically: `seed:<hex>` tokens name one seeded-random
//! schedule, `path:<c0.c1...>` tokens name one exhaustive-DFS decision
//! path.
//!
//! ## Known gaps (documented approximations)
//!
//! - The memory model is an approximation: per-location store buffers +
//!   release/acquire clock joins + a global SeqCst clock. It admits stale
//!   `Relaxed`/`Acquire` reads and forbids reading overwritten-and-synced
//!   values, but does not model IRIW-style SC subtleties or fences.
//! - Only shim-routed state is visible: plain memory handed across
//!   threads by ownership transfer (move/join) is assumed correct, and
//!   `OnceLock` initialization is pass-through (init closures must not
//!   perform shim operations).
//! - RMW operations always read the newest store, per the C++ coherence
//!   rule; their release-sequence behavior is approximated by ordinary
//!   release/acquire edges.

pub mod shim;

#[cfg(gpf_check)]
pub mod rt;

#[cfg(gpf_check)]
pub mod explore;

/// `true` when the workspace was compiled with `--cfg gpf_check` (the
/// instrumented scheduler is active and `explore` is available).
pub const ACTIVE: bool = cfg!(gpf_check);
