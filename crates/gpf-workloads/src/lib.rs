//! # gpf-workloads
//!
//! Synthetic genomic workload generators — this reproduction's substitute
//! for the paper's datasets (NA12878 Platinum Genomes reads, the hg19
//! reference, and dbsnp_138), which are multi-hundred-GB downloads that a
//! laptop-scale reproduction cannot (and need not) carry.
//!
//! The generators preserve the *statistical structure* the paper's
//! evaluation depends on:
//!
//! * [`refgen`] — reference genomes with realistic GC drift and tandem /
//!   interspersed repeats (repeats are what make alignment ambiguous and
//!   CPU-hungry);
//! * [`variants`] — a diploid donor genome with planted SNVs and indels
//!   (ground truth for caller validation), plus a known-sites VCF with
//!   partial overlap (the dbSNP analogue BQSR and realignment consume);
//! * [`quality`] — per-cycle quality-score models for two instrument
//!   profiles mirroring the paper's SRR622461 / SRR504516 samples: raw
//!   scores are dispersed, adjacent deltas concentrate near zero
//!   (Figure 5), which is exactly the property GPF's quality codec exploits;
//! * [`readsim`] — a wgsim-like paired-end read simulator with per-base
//!   errors driven by quality, occasional `N`s, PCR/optical duplicates, and
//!   **coverage hotspots** (the paper notes 10 000×-deep pileups inside a
//!   50× dataset in §4.4 — the load imbalance its dynamic repartitioner
//!   exists to fix).
//!
//! Everything is deterministic given a seed.

pub mod quality;
pub mod readsim;
pub mod refgen;
pub mod variants;

pub use quality::QualityProfile;
pub use readsim::{ReadSimulator, SimulatedPair, SimulatorConfig};
pub use refgen::ReferenceSpec;
pub use variants::{DonorGenome, PlantedVariant, VariantSpec};
