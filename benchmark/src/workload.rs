//! The four workloads. Partition geometry and the memory budget are
//! constants of each workload, never derived from the host's core count or
//! from the program's own footprint, so outputs are host-independent and a
//! more compact partition format shows up as less spill.

/// Which generated files a workload's pipeline starts from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Input {
    /// `reads_1.fastq` + `reads_2.fastq`: the Aligner runs.
    FastqPair,
    /// `aligned.sam`: the Aligner ran in `gen`.
    AlignedSam,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json` and the README.
    pub why: &'static str,
    pub input: Input,
    /// Engine partitions of the input dataset (≈ tasks per stage).
    pub input_parts: usize,
    /// Genomic partition length handed to the `ReadRepartitioner`, bases.
    pub region_len: u64,
    /// `EngineConfig::with_memory_budget`, bytes.
    pub memory_budget: Option<u64>,
}

/// Generator scale (`gpf_bench::WgsWorkload::build`'s `scale`): genome
/// length is `840_000 × SCALE` bases at 20× coverage.
pub const SCALE: f64 = 0.15;

/// Partition geometry. `wgs-full` and the two coarse `clean-call`s run about
/// 630 records per input task over 1640-base regions; `clean-call-fine` is
/// the repo's canonical sim-WGS geometry of about 60 records per task over
/// 400-base regions (`gpf_bench::WgsWorkload::build`'s 1536 partitions and
/// `genome / 1300` at its own scale).
const COARSE_PARTS: usize = 32;
const COARSE_REGION: u64 = 1640;
const FINE_PARTS: usize = 1536;
const FINE_REGION: u64 = 400;

/// Fixed byte budget of `clean-call-tight-mem`: about a quarter of the
/// materialized footprint `clean-call` had when the benchmark was defined.
pub const TIGHT_BUDGET_BYTES: u64 = 5 << 20;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "wgs-full",
        why: "FASTQ to VCF through Aligner, Cleaner and Caller; the aligner is about half the work, so seeding, prefilter and SW changes show here",
        input: Input::FastqPair,
        input_parts: COARSE_PARTS,
        region_len: COARSE_REGION,
        memory_budget: None,
    },
    Workload {
        name: "clean-call",
        why: "the same reads from aligned SAM, so the aligner does nothing; caller, cleaner and codec changes show here and aligner changes must not",
        input: Input::AlignedSam,
        input_parts: COARSE_PARTS,
        region_len: COARSE_REGION,
        memory_budget: None,
    },
    Workload {
        name: "clean-call-tight-mem",
        why: "clean-call under a fixed byte budget of a quarter of its footprint, so the spill, restore and streamed paths of the same engine and codec run",
        input: Input::AlignedSam,
        input_parts: COARSE_PARTS,
        region_len: COARSE_REGION,
        memory_budget: Some(TIGHT_BUDGET_BYTES),
    },
    Workload {
        name: "clean-call-fine",
        why: "clean-call's records in 12 times as many tasks and mostly-empty shuffle buckets, so per-task scheduling and per-bucket framing dominate",
        input: Input::AlignedSam,
        input_parts: FINE_PARTS,
        region_len: FINE_REGION,
        memory_budget: None,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
