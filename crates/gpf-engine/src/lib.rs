//! # gpf-engine
//!
//! The execution engine underneath GPF — this reproduction's substitute for
//! Apache Spark (the paper builds GPF on Spark 2.1; the calibration notes for
//! this reproduction gate on "no Spark; must rebuild distributed engine from
//! scratch", so this crate *is* that rebuild).
//!
//! ## What it provides
//!
//! * [`dataset::Dataset`] — an eagerly evaluated, partitioned, in-memory
//!   collection with Spark-shaped operations: narrow (`map`, `flat_map`,
//!   `filter`, `map_partitions`) and wide (`into_partition_by`,
//!   `into_partition_by_key`, `reduce_by_key`, `sort_by_key`). Narrow ops
//!   run data-parallel over partitions on [`gpf_support::par`]; wide ops
//!   run a real **shuffle** that serializes every bucket with the configured
//!   [`gpf_compress::SerializerKind`], so shuffle byte counts honestly
//!   reflect Java-like vs Kryo-like vs GPF-compressed encodings (§4.2 of the
//!   paper).
//! * [`metrics`] — per-task and per-stage accounting: measured CPU seconds,
//!   records, shuffle bytes, serialization time, estimated allocation churn.
//!   Stage structure follows Spark's model (a stage = pipelined narrow work
//!   per partition, closed by a shuffle), so "number of stages" (paper
//!   Table 4) is a meaningful engine output.
//! * [`sim`] — the **cluster cost model**: a list-scheduling simulator that
//!   replays a recorded job onto `nodes × cores` with disk/network bandwidth
//!   parameters, producing makespans at arbitrary core counts (Figure 10),
//!   per-second utilization timelines (Figure 13), and Ousterhout-style
//!   blocked-time counterfactuals (Figure 12).
//! * [`fsmodel`] — shared-filesystem contention models (Lustre/NFS) for the
//!   paper's Table 1 motivation experiment.
//! * [`context::EngineContext`] — the `SparkContext` analogue: owns the
//!   configuration, the metrics registry and [`broadcast`] variables.
//!
//! ## Fidelity notes
//!
//! Task CPU durations are *measured* from real execution of real algorithms
//! on laptop-scale data; only the cluster (nodes, disks, network) is
//! simulated. Strong-scaling shape therefore emerges from genuine task-time
//! distributions — including stragglers from skewed genomic coverage —
//! rather than from synthetic constants.

pub mod broadcast;
pub mod budget;
pub mod config;
pub mod context;
pub mod dataset;
pub mod fault;
mod frame;
pub mod fsmodel;
pub mod metrics;
#[cfg(all(test, gpf_check))]
mod models;
mod shuffle;
pub mod sim;
mod task;
mod timing;

pub use broadcast::Broadcast;
pub use budget::{BudgetAccountant, BudgetBreach};
pub use config::EngineConfig;
pub use context::{EngineContext, Failure};
pub use dataset::{Dataset, PartRef};
pub use fault::{AttemptRecord, EngineError, FaultKind, FaultPlan, FaultSite};
pub use metrics::{JobRun, StageKind, StageMetrics};
pub use sim::{BlockedTimeReport, SimCluster, SimOptions, SimResult};
