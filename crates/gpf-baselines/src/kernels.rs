//! Flavor-parameterized kernel runners for the Figure 11 strong-scaling
//! comparisons: each executes the `gpf-core` Process of its name — the one
//! GPF's own pipeline runs — on the engine under a flavor's configuration
//! and returns the recorded [`JobRun`] for the cluster simulator.

use crate::flavors::Flavor;
use gpf_core::partition::PartitionInfo;
use gpf_core::process::Process;
use gpf_core::processes::{BaseRecalibrationProcess, IndelRealignProcess, MarkDuplicateProcess};
use gpf_core::resource::{PartitionInfoBundle, SamBundle, VcfBundle};
use gpf_engine::{Dataset, EngineContext, JobRun};
use gpf_formats::sam::{SamHeaderInfo, SamRecord};
use gpf_formats::vcf::{VcfHeaderInfo, VcfRecord};
use gpf_formats::ReferenceGenome;
use std::sync::Arc;

/// Shared input for a kernel run.
#[derive(Clone)]
pub struct KernelInput {
    /// Reference genome.
    pub reference: Arc<ReferenceGenome>,
    /// Aligned records (the kernel's working set).
    pub records: Vec<SamRecord>,
    /// Known-sites VCF (dbSNP analogue).
    pub known: Vec<VcfRecord>,
    /// Genomic partition length for locus partitioning.
    pub partition_len: u64,
    /// Engine partition count for the input dataset.
    pub nparts: usize,
}

/// The Resources a kernel's Process is built from.
struct KernelResources {
    reference: Arc<ReferenceGenome>,
    reads: Arc<SamBundle>,
    known: Arc<VcfBundle>,
    partition_info: Arc<PartitionInfoBundle>,
    output: Arc<SamBundle>,
}

/// Execute the Process `make_process` builds over `input` under `flavor`:
/// the flavor's engine configuration, and its format conversion on the way
/// in and out when it has one.
fn run<P: Process>(
    flavor: Flavor,
    input: &KernelInput,
    make_process: impl FnOnce(KernelResources) -> Arc<P>,
) -> JobRun {
    let ctx = EngineContext::new(flavor.engine_config().with_parallelism(input.nparts));
    ctx.set_phase("cleaner");
    let dict = input.reference.dict().clone();
    let mut reads = Dataset::from_vec(Arc::clone(&ctx), input.records.clone(), input.nparts);
    if flavor.converts_format() {
        reads = reads.barrier_via_disk("format-conversion(in)");
    }
    let header = SamHeaderInfo::unsorted_header(dict.clone());
    let output = SamBundle::undefined("cleanedSam", header.clone());
    let process = make_process(KernelResources {
        reference: Arc::clone(&input.reference),
        reads: SamBundle::defined("alignedSam", header, reads),
        known: VcfBundle::defined(
            "knownSites",
            VcfHeaderInfo::new_header(dict.clone(), vec![]),
            Dataset::from_vec(Arc::clone(&ctx), input.known.clone(), input.nparts),
        ),
        partition_info: PartitionInfoBundle::defined(
            "partInfo",
            PartitionInfo::new(&dict.lengths(), input.partition_len),
        ),
        output: Arc::clone(&output),
    });
    process.execute(&ctx);
    let out = output.consume();
    if flavor.converts_format() {
        let _ = out.barrier_via_disk("format-conversion(out)");
    } else {
        // Materialization of the kernel output (writes survive the job).
        let _ = out.len();
    }
    ctx.take_run()
}

/// MarkDuplicate kernel (Figure 11(a)).
pub fn run_markdup(flavor: Flavor, input: &KernelInput) -> JobRun {
    run(flavor, input, |r| MarkDuplicateProcess::new("MarkDuplicate", r.reads, r.output))
}

/// BQSR kernel (Figure 11(b)).
pub fn run_bqsr(flavor: Flavor, input: &KernelInput) -> JobRun {
    run(flavor, input, |r| {
        BaseRecalibrationProcess::new("BQSR", r.reference, Some(r.known), r.partition_info, r.reads, r.output)
    })
}

/// INDEL realignment kernel (Figure 11(c)).
pub fn run_realign(flavor: Flavor, input: &KernelInput) -> JobRun {
    run(flavor, input, |r| {
        IndelRealignProcess::new("IndelRealign", r.reference, Some(r.known), r.partition_info, r.reads, r.output)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpf_engine::StageKind;
    use gpf_formats::sam::SamFlags;
    use gpf_formats::Cigar;

    fn input() -> KernelInput {
        let seq: Vec<u8> = (0..20_000).map(|i| b"ACGT"[(i * 7 + i / 13) % 4]).collect();
        let reference = Arc::new(ReferenceGenome::from_contigs(vec![("chr1", seq)]));
        let records: Vec<SamRecord> = (0..400)
            .map(|i| {
                let pos = (i * 47) as u64 % 19_000;
                SamRecord {
                    name: format!("r{i}"),
                    flags: SamFlags::default(),
                    contig: 0,
                    pos,
                    mapq: 60,
                    cigar: Cigar::parse("100M").unwrap(),
                    mate_contig: 0,
                    mate_pos: (pos + 200).min(18_999),
                    tlen: 300,
                    seq: reference.contig_seq(0)[pos as usize..pos as usize + 100].to_vec(),
                    qual: vec![b'F'; 100],
                    read_group: 1,
                    edit_distance: 0,
                }
            })
            .collect();
        KernelInput { reference, records, known: vec![], partition_len: 2_000, nparts: 4 }
    }

    #[test]
    fn all_kernels_run_under_all_flavors() {
        let input = input();
        for flavor in [Flavor::Gpf, Flavor::AdamLike, Flavor::Gatk4Like] {
            let md = run_markdup(flavor, &input);
            assert!(md.num_stages() >= 2, "{flavor:?} markdup stages");
            let bq = run_bqsr(flavor, &input);
            assert!(bq.num_stages() >= 3, "{flavor:?} bqsr stages");
            let ir = run_realign(flavor, &input);
            assert!(ir.num_stages() >= 2, "{flavor:?} realign stages");
        }
    }

    #[test]
    fn adam_pays_conversion_and_bigger_shuffles() {
        let input = input();
        let gpf = run_markdup(Flavor::Gpf, &input);
        let adam = run_markdup(Flavor::AdamLike, &input);
        assert!(
            adam.total_shuffle_bytes() > gpf.total_shuffle_bytes(),
            "adam {} vs gpf {}",
            adam.total_shuffle_bytes(),
            gpf.total_shuffle_bytes()
        );
        assert!(adam.num_stages() > gpf.num_stages(), "conversion adds stages");
        let persona = run_markdup(Flavor::PersonaLike, &input);
        assert!(persona.num_stages() > gpf.num_stages(), "AGD import and export add stages");
    }

    /// MarkDuplicate ships each read's signature, not the read: the job
    /// moves less than half of what the input records serialize to.
    #[test]
    fn markdup_shuffles_signatures_not_records() {
        let input = input();
        let run = run_markdup(Flavor::Gpf, &input);
        let config = Flavor::Gpf.engine_config();
        let serializer = config.serializer;
        let records = Dataset::from_vec(EngineContext::new(config), input.records.clone(), input.nparts)
            .serialized_size(serializer);
        assert!(
            run.total_shuffle_bytes() * 2 < records,
            "shuffled {} of {records} record bytes",
            run.total_shuffle_bytes()
        );
    }

    /// What the cluster simulator reads of a run: the stage count, each
    /// stage's kind and task count, and the bytes shuffled, collected to
    /// the driver and broadcast.
    fn dataflow(run: &JobRun) -> (usize, Vec<(StageKind, usize)>, u64, u64, u64) {
        let stages = run.stages.iter().map(|s| (s.kind, s.num_tasks())).collect();
        let collected = run
            .stages
            .iter()
            .filter(|s| s.kind == StageKind::Collect)
            .map(|s| s.total_shuffle_write())
            .sum();
        let broadcast = run.stages.iter().map(|s| s.broadcast_bytes).sum();
        (run.num_stages(), stages, run.total_shuffle_bytes(), collected, broadcast)
    }

    /// BQSR and realignment under each flavor, pinned: the bundle build's
    /// three shuffles, BQSR's one collect and broadcast of the merged
    /// table, ADAM's and Persona's two conversion barriers, and the bytes
    /// each serializer writes.
    #[test]
    fn bqsr_and_realign_dataflow_is_pinned_per_flavor() {
        use StageKind::{Collect, Final, Shuffle};
        let input = input();
        let bqsr = vec![(Shuffle, 4), (Shuffle, 10), (Shuffle, 10), (Collect, 10), (Final, 10)];
        let realign = vec![(Shuffle, 4), (Shuffle, 10), (Shuffle, 10), (Final, 10)];
        let adam_bqsr = vec![
            (Shuffle, 4),
            (Shuffle, 4),
            (Shuffle, 10),
            (Shuffle, 10),
            (Collect, 10),
            (Shuffle, 10),
            (Final, 10),
        ];
        let adam_realign =
            vec![(Shuffle, 4), (Shuffle, 4), (Shuffle, 10), (Shuffle, 10), (Shuffle, 10), (Final, 10)];
        let want = [
            (Flavor::Gpf, (5, bqsr.clone(), 52_116, 1_670, 170), (4, realign.clone(), 50_446, 0, 0)),
            (Flavor::AdamLike, (7, adam_bqsr.clone(), 288_116, 1_670, 170), (6, adam_realign.clone(), 286_446, 0, 0)),
            (Flavor::Gatk4Like, (5, bqsr, 110_516, 1_670, 170), (4, realign, 108_846, 0, 0)),
            (Flavor::PersonaLike, (7, adam_bqsr, 288_116, 1_670, 170), (6, adam_realign, 286_446, 0, 0)),
        ];
        for (flavor, bqsr, realign) in want {
            assert_eq!(dataflow(&run_bqsr(flavor, &input)), bqsr, "{flavor:?} bqsr");
            assert_eq!(dataflow(&run_realign(flavor, &input)), realign, "{flavor:?} realign");
        }
    }

    /// MarkDuplicate under each flavor, pinned: its signature shuffle, the
    /// collect of the duplicate set, the conversion barriers around ADAM's
    /// and Persona's runs, and the bytes each serializer writes.
    #[test]
    fn markdup_dataflow_is_pinned_per_flavor() {
        use StageKind::{Collect, Final, Shuffle};
        let input = input();
        let markdup = vec![(Shuffle, 4), (Collect, 4), (Final, 4)];
        let converted = vec![(Shuffle, 4), (Shuffle, 4), (Collect, 4), (Shuffle, 4), (Final, 4)];
        let want = [
            (Flavor::Gpf, (3, markdup.clone(), 8_010, 4, 6)),
            (Flavor::AdamLike, (5, converted.clone(), 185_604, 4, 6)),
            (Flavor::Gatk4Like, (3, markdup, 8_010, 4, 6)),
            (Flavor::PersonaLike, (5, converted, 185_604, 4, 6)),
        ];
        for (flavor, markdup) in want {
            assert_eq!(dataflow(&run_markdup(flavor, &input)), markdup, "{flavor:?} markdup");
        }
    }

    #[test]
    fn bqsr_records_serial_collect_and_broadcast() {
        let input = input();
        let run = run_bqsr(Flavor::Gpf, &input);
        assert!(
            run.stages.iter().any(|s| s.kind == gpf_engine::StageKind::Collect),
            "collect stage present"
        );
        assert!(run.stages.iter().any(|s| s.broadcast_bytes > 0), "broadcast recorded");
    }
}
