//! # gpf-baselines
//!
//! The comparator systems of the paper's evaluation (§5.2), rebuilt on the
//! same substrates so every comparison is mechanism-for-mechanism rather
//! than constant-for-constant:
//!
//! * [`churchill`] — Churchill (Kelly et al. 2015): full-pipeline
//!   parallelization with **fixed-boundary** chromosomal subregions decided
//!   at the start of the analysis, and intermediate data handed between
//!   steps through **files on disk**. Its scaling ceiling (§5.2.1: limited
//!   to ~1024 cores, 128 min vs GPF's 37 at 1024) comes from static load
//!   imbalance plus the disk round-trips — both reproduced here.
//! * [`flavors`] — ADAM-like, GATK4-like and Persona-like configurations
//!   of the engine GPF's own Processes run on: Kryo-style serialization
//!   (no genomic compression), a per-record heap overhead, a format
//!   conversion around each kernel (ADAM's columnar conversion, Persona's
//!   AGD import and export), and a JVM-vs-native CPU factor calibrated in
//!   DESIGN.md. A flavor changes how the kernels execute, never which.
//! * [`persona`] — Persona (Byma et al. 2017): a dataflow framework with
//!   the AGD storage format. Alignment uses the SNAP-like hash aligner,
//!   single-end, and every dataset must be **converted into and out of
//!   AGD** at the rates the paper quotes (360 MB/s in, 82 MB/s out) —
//!   the conversion cost that Figure 11(d)'s "Persona real BWA" line adds.
//! * [`kernels`] — MarkDuplicate / BQSR / INDEL realignment under a
//!   flavor: each runner executes `gpf-core`'s `MarkDuplicateProcess`,
//!   `BaseRecalibrationProcess` or `IndelRealignProcess` and returns the
//!   engine `JobRun` the Figure 11 benchmarks feed to the cluster
//!   simulator.

pub mod churchill;
pub mod flavors;
pub mod kernels;
pub mod persona;

pub use churchill::ChurchillPipeline;
pub use flavors::Flavor;
