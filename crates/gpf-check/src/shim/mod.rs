//! The shim layer: the only concurrency primitives workspace code may use
//! (enforced by gpf-lint's `concurrency-boundary` rule).
//!
//! | module | normal build | `--cfg gpf_check` |
//! |---|---|---|
//! | [`atomic`] | `std::sync::atomic` aliases | store-history atomics with ordering-aware visibility |
//! | [`sync`] | non-poisoning `std::sync` wrappers, `OnceLock` | scheduler-mediated locks with happens-before edges |
//! | [`thread`] | `std::thread` scope | virtual threads under the cooperative scheduler |
//!
//! `gpf-support` re-exports this module as `gpf_support::chk`.

pub mod atomic;
pub mod sync;
pub mod thread;
