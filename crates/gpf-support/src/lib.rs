//! # gpf-support
//!
//! The hermetic build substrate for the GPF workspace: everything the other
//! crates used to pull from crates.io, reimplemented on `std` alone so the
//! whole workspace builds and tests with the network unplugged.
//!
//! | module | replaces | provides |
//! |---|---|---|
//! | [`rng`] | `rand` + `rand_distr` | SplitMix64 seeding, xoshiro256++ core, `gen_range`/`gen_bool`/`fill_bytes`, Box–Muller [`rng::Normal`] |
//! | [`par`] | `rayon` | scoped, ordered parallel map with atomic work-stealing of chunk indices |
//! | [`sync`] | `parking_lot` | `Mutex`/`RwLock` with non-poisoning `lock()` ergonomics |
//! | [`proptest`](mod@proptest) | `proptest` | strategy combinators, `proptest!` macro, fixed-seed corpus, halving shrinker |
//! | [`chk`] | `loom` | concurrency shim: real `std` primitives normally, scheduler-instrumented doubles under `--cfg gpf_check` |
//!
//! Design constraints, in order:
//!
//! 1. **Determinism.** Every random stream is seedable and stable across
//!    runs and platforms: the engine's benchmark tables must reproduce
//!    byte-for-byte from a seed.
//! 2. **Zero dependencies.** `cargo build --offline` from a clean checkout
//!    must succeed; nothing here may touch the registry.
//! 3. **Mechanical migration.** The public surfaces mirror the crates they
//!    replace closely enough that a port is mostly a `use`-line change.

pub mod par;
pub mod proptest;
pub mod rng;
pub mod sync;

/// The concurrency shim the workspace's primitives are built on: real
/// `std` types in normal builds, scheduler-instrumented doubles under
/// `RUSTFLAGS="--cfg gpf_check"` so gpf-check can model-check the code
/// that uses them. Downstream crates reach the shim through this alias
/// (`gpf_support::chk::atomic`, `chk::thread`, ...) rather than naming
/// `std::sync` directly — the `concurrency-boundary` lint enforces it.
pub use gpf_check::shim as chk;
