//! Persona-like comparator: dataflow execution with the AGD format.
//!
//! Persona (Byma et al., USENIX ATC'17) stores genomic data in its own AGD
//! (Aggregate Genomic Data) format and runs tools as TensorFlow dataflow
//! graphs. Two properties matter for the paper's Figure 11 comparison:
//!
//! * it integrates **SNAP** as its aligner and uses **single-end** reads
//!   (§5.2.3: "Persona integrated SNAP as a reader aligner ... it used
//!   single-end reads"), while GPF aligns paired-end with BWA;
//! * every dataset must be **converted into AGD** before processing and
//!   **out of AGD** (to BAM) after — at 360 MB/s in and 82 MB/s out as the
//!   Persona paper reports. The GPF authors charge this conversion to
//!   Persona's effective throughput, which collapses it by ~20× (the
//!   "Persona real BWA" line in Figure 11(d)).

use crate::flavors::Flavor;
use gpf_align::SnapAligner;
use gpf_engine::{Dataset, EngineContext, JobRun};
use gpf_formats::fastq::FastqRecord;
use gpf_formats::sam::SamRecord;
use gpf_formats::ReferenceGenome;
use std::sync::Arc;

/// FASTQ → AGD import rate, bytes/s (Persona paper: 360 MB/s).
const AGD_IMPORT_BPS: f64 = 360.0e6;
/// AGD → BAM export rate, bytes/s (Persona paper: 82 MB/s).
const AGD_EXPORT_BPS: f64 = 82.0e6;

/// Seconds of AGD format conversion around one job: importing `fastq_bytes`
/// and exporting `bam_bytes`.
pub fn conversion_seconds(fastq_bytes: u64, bam_bytes: u64) -> f64 {
    fastq_bytes as f64 / AGD_IMPORT_BPS + bam_bytes as f64 / AGD_EXPORT_BPS
}

/// Result of a Persona-style alignment run.
pub struct PersonaAlignRun {
    /// Engine-recorded job (alignment proper).
    pub run: JobRun,
    /// Bases aligned.
    pub bases: u64,
    /// Input FASTQ volume (drives AGD import cost).
    pub fastq_bytes: u64,
    /// Output BAM volume (drives AGD export cost).
    pub bam_bytes: u64,
    /// Aligned records (for downstream kernels).
    pub records: Vec<SamRecord>,
}

/// Run SNAP single-end alignment under the Persona flavor.
pub fn run_snap_align(
    reference: &Arc<ReferenceGenome>,
    snap: &SnapAligner,
    reads: &[FastqRecord],
    nparts: usize,
) -> PersonaAlignRun {
    let ctx = EngineContext::new(Flavor::PersonaLike.engine_config().with_parallelism(nparts));
    ctx.set_phase("aligner");
    let bases: u64 = reads.iter().map(|r| r.len() as u64).sum();
    let fastq_bytes: u64 = reads.iter().map(|r| r.to_fastq_string().len() as u64).sum();
    let ds = Dataset::from_vec(Arc::clone(&ctx), reads.to_vec(), nparts);
    let snap_ref: &SnapAligner = snap;
    // SAFETY-free sharing: SnapAligner is Sync; map borrows it for the call.
    let aligned = ds.map(move |r| snap_ref.align_read(&r.name, &r.seq, &r.qual));
    let records = aligned.collect_local();
    let bam_bytes = aligned.serialized_size(gpf_compress::SerializerKind::KryoSim);
    let _ = reference;
    PersonaAlignRun { run: ctx.take_run(), bases, fastq_bytes, bam_bytes, records }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpf_workloads::readsim::{ReadSimulator, SimulatorConfig};
    use gpf_workloads::refgen::ReferenceSpec;
    use gpf_workloads::variants::{DonorGenome, VariantSpec};

    #[test]
    fn conversion_costs_match_paper_rates() {
        // 430 GB FASTQ in, 125 GB BAM out — §5.2.3's example: ~1194 s import
        // + ~1524 s export ≈ 2700+ s, i.e. the ~3300 s the paper quotes for
        // the platinum genome is the right order.
        let secs = conversion_seconds(430_000_000_000, 125_000_000_000);
        assert!((2000.0..4500.0).contains(&secs), "{secs}");
    }

    #[test]
    fn snap_align_runs() {
        let reference = Arc::new(
            ReferenceSpec { contig_lengths: vec![30_000], seed: 61, ..Default::default() }
                .generate(),
        );
        let donor = DonorGenome::generate(&reference, &VariantSpec::default());
        let pairs = ReadSimulator::new(
            &reference,
            &donor,
            SimulatorConfig { coverage: 4.0, duplicate_rate: 0.1, ..Default::default() },
        )
        .simulate();
        // Persona uses single-end: take mate 1 only.
        let reads: Vec<FastqRecord> = pairs.iter().map(|p| p.pair.r1.clone()).collect();
        let snap = SnapAligner::new(&reference);
        let aligned = run_snap_align(&reference, &snap, &reads, 3);
        assert_eq!(aligned.records.len(), reads.len());
        assert!(aligned.bases > 0);
        assert!(aligned.bam_bytes > 0);
        assert!(aligned.run.total_cpu_s() > 0.0);
    }
}
