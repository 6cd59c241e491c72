//! # gpf-bench
//!
//! The experiment harness: one function per table/figure of the paper's
//! evaluation (§5), each producing an [`report::ExperimentReport`] whose
//! rows mirror what the paper printed — with the paper's own numbers shown
//! alongside for shape comparison.
//!
//! | experiment | paper artifact | function |
//! |---|---|---|
//! | `table1`  | I/O vs CPU share, 1→30 samples, Lustre/NFS | [`experiments::table1`] |
//! | `fig5`    | quality score & delta distributions | [`experiments::fig5`] |
//! | `fig10`   | WGS scaling, GPF vs Churchill | [`experiments::fig10`] |
//! | `fig11a`  | MarkDuplicate strong scaling | [`experiments::fig11a`] |
//! | `fig11b`  | BQSR strong scaling | [`experiments::fig11b`] |
//! | `fig11c`  | INDEL realignment strong scaling | [`experiments::fig11c`] |
//! | `fig11d`  | aligner throughput vs Persona | [`experiments::fig11d`] |
//! | `table3`  | genomic data compression per stage | [`experiments::table3`] |
//! | `table4`  | redundancy elimination on/off | [`experiments::table4`] |
//! | `fig12`   | blocked-time analysis per phase | [`experiments::fig12`] |
//! | `fig13`   | cluster utilization timeline | [`experiments::fig13`] |
//! | `table5`  | platform comparison (parallel efficiency) | [`experiments::table5`] |
//!
//! Scale: every experiment accepts a `scale` factor (1.0 ≈ a 0.84 Mb genome
//! at 20× — laptop-friendly), the `experiments` binary's `--scale`. Each
//! report carries the paper's claims about its artifact, held against the
//! numbers it prints, and `experiments all` ends with the Summary of the
//! verdicts they roll up to ([`report::summary`]). The tables that read one
//! job read one replay of it ([`experiments::Lab`]).
//!
//! This crate reproduces the paper's evaluation; it does not defend the
//! repo's own speed. That is `benchmark/`'s job (whole-pipeline metrics
//! against the parent commit), and recovery, the memory budget and the skew
//! split are defended by plain tests over [`workload`]'s two workloads
//! (`tests/pipeline_gates.rs`).

pub mod experiments;
pub mod report;
pub mod workload;

pub use report::ExperimentReport;
pub use workload::{SkewRun, SkewedWorkload, WgsWorkload};
