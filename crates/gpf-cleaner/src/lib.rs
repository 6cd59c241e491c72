//! # gpf-cleaner
//!
//! The Cleaner stage of the WGS pipeline (§2.1 of the paper): the
//! "intermediate processing" between alignment and variant calling that most
//! pipelines run through Picard / SAMtools / GATK:
//!
//! * [`sort`] — coordinate sorting of SAM records;
//! * [`markdup`] — `MarkDuplicate`: flag reads with identical unclipped
//!   fragment coordinates and orientation, keeping the best-quality copy
//!   (Picard's criterion);
//! * [`realign`] — `IndelRealignment`: detect intervals around observed /
//!   known indels and locally realign reads whose alignments can improve
//!   against an indel-bearing haplotype;
//! * [`bqsr`] — `BaseRecalibration` (BQSR): build empirical quality tables
//!   over covariates (read group, reported quality, machine cycle,
//!   dinucleotide context) with known variant sites masked out, then rewrite
//!   base qualities.
//!
//! Everything here is a pure in-memory algorithm over record slices; the
//! GPF `Process` wrappers in `gpf-core` handle distribution, and the paper's
//! famous BQSR "mask table broadcast" serial step falls out of how the
//! wrapper uses these functions.

pub mod bqsr;
pub mod markdup;
pub mod realign;
pub mod sort;

pub use bqsr::{apply_recalibration, build_recal_table, RecalTable};
pub use markdup::{
    duplicate_sources, mark_duplicates, set_duplicate_flag, DedupStats, FragmentSignature,
};
pub use realign::{find_realign_intervals, realign_interval, RealignStats};
pub use sort::{coordinate_cmp, coordinate_key, coordinate_sort, is_coordinate_sorted};
