//! # gpf-core
//!
//! **GPF — the Genomic Programming Framework** (the paper's primary
//! contribution, §3–§4): a programming model and runtime that lets users
//! compose whole-genome analysis pipelines as serial-looking programs
//! ("think-in-serial") that execute as optimized parallel dataflow
//! ("run-in-parallel").
//!
//! ## Programming model (§3)
//!
//! * [`resource`] — a **Resource** is the abstraction of data (RDDs,
//!   numbers, headers), *Undefined* until filled, *Defined* while readable
//!   (Figure 2), and *Released* once the last step that reads it has run —
//!   the plan, not the user, decides lifetimes. Concrete resources are the
//!   bundles: [`FastqPairBundle`],
//!   [`SamBundle`], [`VcfBundle`], [`PartitionInfoBundle`].
//! * [`process`] — a **Process** is an execution instance consuming input
//!   Resources and defining output Resources. It is *Blocked* until every
//!   input is Defined, then *Ready*, then *Running*.
//! * [`pipeline`] — the runtime driver (Table 2's "Runtime System"):
//!   `Pipeline::new(name, ctx)`, [`Pipeline::add_process`], and
//!   [`Pipeline::run`], which performs the paper's Algorithm 1 — iterative
//!   dependency resolution with circular-dependency detection — plus the
//!   §4.3 **redundancy elimination**: chains of partition Processes are
//!   fused so read-only FASTA/VCF partition RDDs are built once and the
//!   merge→repartition→join round-trip between consecutive Processes is
//!   replaced by a per-partition map (Figure 7).
//! * [`partition`] — the §4.4 **dynamic repartitioning** machinery:
//!   [`partition::PartitionInfo`] maps genome positions to partition ids
//!   through per-contig segment tables (Figure 8) and a split table for
//!   overloaded partitions (Figure 9).
//! * [`processes`] — the Table 2 algorithm Processes: `BwaMemProcess`,
//!   `MarkDuplicateProcess`, `IndelRealignProcess`,
//!   `BaseRecalibrationProcess`, `HaplotypeCallerProcess`, and
//!   `ReadRepartitioner`.
//! * `loader` — `FileLoader`, the Figure 3 input helpers.
//! * [`validate`] — the static analysis layer: [`Pipeline::check`] builds
//!   the full Process/Resource graph up front and reports every defect at
//!   once (cycle paths, undefined inputs, duplicate producers, bundle-kind
//!   mismatches, dead outputs) plus the Figure 7 fusion-eligibility report;
//!   [`Pipeline::run`] refuses a defective graph with
//!   [`pipeline::PipelineError::Invalid`] before any dataset work starts.
//!
//! ## Example (the paper's Figure 3, in Rust)
//!
//! ```no_run
//! use gpf_core::prelude::*;
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), gpf_core::pipeline::PipelineError> {
//! # let reference: Arc<gpf_formats::ReferenceGenome> = unimplemented!();
//! # let fastq1 = ""; let fastq2 = "";
//! let ctx = gpf_engine::EngineContext::new(gpf_engine::EngineConfig::gpf());
//! let mut pipeline = Pipeline::new("myPipeline", Arc::clone(&ctx));
//!
//! let fastq_pair_rdd = FileLoader::load_fastq_pair_to_rdd(&ctx, fastq1, fastq2, 8)?;
//! let fastq_pair_bundle = FastqPairBundle::defined("fastqPair", fastq_pair_rdd);
//!
//! let aligned_sam = SamBundle::undefined("alignedSam", SamHeaderInfo::unsorted_header(reference.dict().clone()));
//! pipeline.add_process(BwaMemProcess::pair_end(
//!     "MyBwaMapping", Arc::clone(&reference), fastq_pair_bundle, Arc::clone(&aligned_sam)));
//!
//! let deduped = SamBundle::undefined("dedupedSam", SamHeaderInfo::unsorted_header(reference.dict().clone()));
//! pipeline.add_process(MarkDuplicateProcess::new("MyMarkDuplicate", aligned_sam, Arc::clone(&deduped)));
//!
//! pipeline.run()?;
//! # Ok(()) }
//! ```

mod loader;
pub mod partition;
pub mod pipeline;
pub mod process;
pub mod processes;
pub mod resource;
pub mod validate;

pub use loader::FileLoader;
pub use partition::PartitionInfo;
pub use pipeline::{Pipeline, PipelineError};
pub use process::Process;
pub use resource::{
    FastqPairBundle, PartitionInfoBundle, ResourceAny, ResourceKind, ResourceState, SamBundle,
    VcfBundle,
};
pub use validate::{Diagnostic, DiagnosticKind, Severity, ValidationReport};

/// Convenient glob import for pipeline authors.
pub mod prelude {
    pub use crate::loader::FileLoader;
    pub use crate::partition::PartitionInfo;
    pub use crate::pipeline::Pipeline;
    pub use crate::processes::{
        BaseRecalibrationProcess, BwaMemProcess, HaplotypeCallerProcess, IndelRealignProcess,
        MarkDuplicateProcess, ReadRepartitioner,
    };
    pub use crate::resource::{FastqPairBundle, PartitionInfoBundle, SamBundle, VcfBundle};
    pub use gpf_formats::sam::SamHeaderInfo;
    pub use gpf_formats::vcf::VcfHeaderInfo;
}
