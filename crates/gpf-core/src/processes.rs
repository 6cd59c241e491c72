//! The algorithm-specific Processes of Table 2.
//!
//! | paper constructor | here |
//! |---|---|
//! | `BwaMemProcess.pairEnd(name, referencePath, inputFASTQPairBundle, outputSAMBundle)` | [`BwaMemProcess::pair_end`] |
//! | `MarkDuplicateProcess(name, inputSAMBundle, outputSAMBundle)` | [`MarkDuplicateProcess::new`] |
//! | `IndelRealignProcess(name, referencePath, rodMap, partitionInfoBundle, inputSAMList, outputSAMList)` | [`IndelRealignProcess::new`] |
//! | `BaseRecalibrationProcess(...)` | [`BaseRecalibrationProcess::new`] |
//! | `HaplotypeCallerProcess(..., outputVCFBundle, useGVCF)` | [`HaplotypeCallerProcess::new`] |
//! | `ReadRepartitioner(name, inputSAMBundleList, outputPartitionInfo, referenceLength, advisedPartitionLength)` | [`ReadRepartitioner::new`] |
//!
//! The three Cleaner/Caller stages implement [`BundleStage`] — their
//! inputs, output, phase and per-bundle work — and nothing else: the one
//! blanket `Process` impl in [`crate::process`] runs each of them alone or
//! as a link of a §4.3 fused chain. A paper-fidelity
//! note recorded in DESIGN.md: bundles carry the real FASTA/VCF partition
//! payloads (so shuffle volumes are honest), while the per-partition compute
//! reads the reference through a driver-held `Arc` for coordinate
//! simplicity — the distributed-memory analogue of Spark's broadcast
//! reference.

use crate::partition::PartitionInfo;
use crate::process::{BundleStage, BundleStageIo, Process, RegionBundle, StageOutput};
use crate::resource::{
    FastqPairBundle, PartitionInfoBundle, ResourceAny, SamBundle, VcfBundle,
};
use gpf_align::BwaMemAligner;
use gpf_cleaner::bqsr::{apply_recalibration, build_recal_table, RecalTable};
use gpf_cleaner::realign::{find_realign_intervals, realign_interval};
use gpf_cleaner::{coordinate_cmp, duplicate_sources, set_duplicate_flag, FragmentSignature};
use gpf_engine::{Dataset, EngineContext};
use gpf_formats::sam::SamRecord;
use gpf_formats::vcf::{Genotype, VcfRecord};
use gpf_formats::ReferenceGenome;
use gpf_support::sync::Mutex;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Aligner stage
// ---------------------------------------------------------------------------

/// `BwaMemProcess` — map paired-end reads to the reference with the
/// BWT-based aligner (Aligner stage).
pub struct BwaMemProcess {
    name: String,
    reference: Arc<ReferenceGenome>,
    input: Arc<FastqPairBundle>,
    output: Arc<SamBundle>,
    aligner: Mutex<Option<Arc<BwaMemAligner>>>,
}

impl BwaMemProcess {
    /// Paired-end constructor (Table 2's `BwaMemProcess.pairEnd`).
    pub fn pair_end(
        name: impl Into<String>,
        reference: Arc<ReferenceGenome>,
        input: Arc<FastqPairBundle>,
        output: Arc<SamBundle>,
    ) -> Arc<Self> {
        Arc::new(Self {
            name: name.into(),
            reference,
            input,
            output,
            aligner: Mutex::new(None),
        })
    }

    /// Reuse a pre-built aligner (index construction is expensive; the
    /// paper's bwa index is likewise built offline and reused).
    pub fn with_aligner(self: &Arc<Self>, aligner: Arc<BwaMemAligner>) -> Arc<Self> {
        *self.aligner.lock() = Some(aligner);
        Arc::clone(self)
    }

    fn get_aligner(&self) -> Arc<BwaMemAligner> {
        let mut guard = self.aligner.lock();
        guard.get_or_insert_with(|| Arc::new(BwaMemAligner::new(&self.reference))).clone()
    }
}

impl Process for BwaMemProcess {
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
        ctx.set_phase("aligner");
        let aligner = self.get_aligner();
        // The pairs are not needed past this stage: consumed, they are
        // dropped when it ends rather than held beside their alignments.
        let pairs = self.input.consume();
        let aligned = pairs.flat_map(move |p| {
            let (a, b) = aligner.align_pair(p);
            [a, b]
        });
        self.output.define(aligned);
    }
}

// ---------------------------------------------------------------------------
// Cleaner stage: MarkDuplicate
// ---------------------------------------------------------------------------

/// `MarkDuplicateProcess` — remove redundant alignments (Cleaner stage).
pub struct MarkDuplicateProcess {
    name: String,
    input: Arc<SamBundle>,
    output: Arc<SamBundle>,
}

impl MarkDuplicateProcess {
    /// Constructor (Table 2).
    pub fn new(
        name: impl Into<String>,
        input: Arc<SamBundle>,
        output: Arc<SamBundle>,
    ) -> Arc<Self> {
        Arc::new(Self { name: name.into(), input, output })
    }
}

impl Process for MarkDuplicateProcess {
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
        ctx.set_phase("cleaner");
        let reads = self.input.consume();
        let nparts = reads.num_partitions();
        // The decision reads coordinates, flags, a name and a quality sum:
        // that — a signature naming where its read sits — is what gets
        // shuffled, and the reads stay where they are.
        let signatures = reads.flat_map_indexed(|part, index, r| {
            FragmentSignature::of(r, (part as u32, index as u32))
        });
        // Co-locate whole fragments: both mates (and any duplicate fragment
        // with identical coordinates) share the fragment's leftmost raw
        // coordinate.
        let colocated = signatures.into_partition_by(nparts, move |s| {
            (gpf_engine::dataset::stable_hash(&s.colocation) % nparts as u64) as usize
        });
        // Only the duplicates' positions travel back: to the driver, then
        // to every task as one small table (GATK4's Spark MarkDuplicates
        // returns its verdict the same way).
        let mut duplicates: Vec<Vec<u32>> = vec![Vec::new(); nparts];
        for (part, index) in colocated.into_map_partitions(|s| duplicate_sources(&s)).collect() {
            // Positions came through a shuffle; one that names no input
            // partition (or, below, no read) flags nothing.
            if let Some(indices) = duplicates.get_mut(part as usize) {
                indices.push(index);
            }
        }
        duplicates.iter_mut().for_each(|indices| indices.sort_unstable());
        let duplicates = ctx.broadcast(duplicates);
        // The last read of the input: a sole-owned one is marked where it
        // sits and handed on, not copied to set a bit.
        let marked = reads.into_map_indexed(move |part, index, mut r| {
            set_duplicate_flag(&mut r, duplicates[part].binary_search(&(index as u32)).is_ok());
            r
        });
        self.output.define(marked);
    }
}

// ---------------------------------------------------------------------------
// Auxiliary: ReadRepartitioner
// ---------------------------------------------------------------------------

/// `ReadRepartitioner` — generate the [`PartitionInfo`] used for scalable
/// locus partitioning (§4.4): equal-length base partitions, per-partition
/// read counts reduced to the driver, over-threshold partitions split.
pub struct ReadRepartitioner {
    name: String,
    inputs: Vec<Arc<SamBundle>>,
    output: Arc<PartitionInfoBundle>,
    reference_lengths: Vec<u64>,
    advised_partition_length: u64,
}

impl ReadRepartitioner {
    /// Constructor (Table 2's auxiliary Process).
    pub fn new(
        name: impl Into<String>,
        inputs: Vec<Arc<SamBundle>>,
        output: Arc<PartitionInfoBundle>,
        reference_lengths: Vec<u64>,
        advised_partition_length: u64,
    ) -> Arc<Self> {
        Arc::new(Self {
            name: name.into(),
            inputs,
            output,
            reference_lengths,
            advised_partition_length,
        })
    }
}

impl Process for ReadRepartitioner {
    fn name(&self) -> &str {
        &self.name
    }

    fn input_resources(&self) -> Vec<Arc<dyn ResourceAny>> {
        self.inputs.iter().map(|b| b.clone() as Arc<dyn ResourceAny>).collect()
    }

    fn output_resources(&self) -> Vec<Arc<dyn ResourceAny>> {
        vec![self.output.clone()]
    }

    fn execute(&self, ctx: &Arc<EngineContext>) {
        let base = PartitionInfo::new(&self.reference_lengths, self.advised_partition_length);
        // Tuple (partition id, 1), reduced and collected to the driver —
        // §4.4's second step verbatim.
        let mut count_of = vec![0u64; base.num_base_partitions() as usize];
        for bundle in &self.inputs {
            let ds = bundle.dataset();
            let base_b = base.clone();
            let pairs = ds
                .map(move |r| (crate::process::route_record(r, &base_b), 1u64))
                .reduce_by_key(ds.num_partitions(), |a, b| a + b)
                .collect();
            for (id, c) in pairs {
                count_of[id as usize] += c;
            }
        }
        // Segmentation threshold: half the mean partition load, so hotspot
        // partitions split into pieces comfortably *below* the mean — the
        // load-balance margin that keeps the caller's deepest pileup from
        // becoming the straggler task (§4.4).
        let total: u64 = count_of.iter().sum();
        let threshold = (total / (count_of.len() as u64).max(1) / 2).max(1);
        let (info, stats) = base.split_dense(&count_of, threshold);
        ctx.record_repartition(
            stats.splits as u64,
            stats.moved_records,
            stats.cap_hits as u64,
            stats.merged as u64,
        );
        // The per-contig start-id table is broadcast to executors (§4.4's
        // `SparkContext.broadcast(x)`).
        let _b = ctx.broadcast(info.clone());
        self.output.define(info);
    }
}

// ---------------------------------------------------------------------------
// Bundle stages: IndelRealign, BaseRecalibration, HaplotypeCaller
// ---------------------------------------------------------------------------

/// `IndelRealignProcess` — adjust alignments around indels (Cleaner stage).
pub struct IndelRealignProcess {
    io: BundleStageIo,
    output: Arc<SamBundle>,
}

impl IndelRealignProcess {
    /// Constructor (Table 2). `rod` is the known-sites resource (the paper's
    /// `rodMap`; pass the dbSNP bundle or `None`).
    pub fn new(
        name: impl Into<String>,
        reference: Arc<ReferenceGenome>,
        rod: Option<Arc<VcfBundle>>,
        partition_info: Arc<PartitionInfoBundle>,
        input: Arc<SamBundle>,
        output: Arc<SamBundle>,
    ) -> Arc<Self> {
        let io = BundleStageIo { name: name.into(), reference, rod, partition_info, input };
        Arc::new(Self { io, output })
    }
}

impl BundleStage for IndelRealignProcess {
    fn io(&self) -> &BundleStageIo {
        &self.io
    }
    fn output(&self) -> StageOutput {
        StageOutput::Sam(self.output.clone())
    }
    fn phase(&self) -> &'static str {
        "cleaner"
    }

    fn run_on_bundles(
        &self,
        _ctx: &Arc<EngineContext>,
        bundles: Dataset<RegionBundle>,
    ) -> Dataset<RegionBundle> {
        let reference = self.io.reference.clone();
        bundles.into_map(move |mut b| {
            let intervals = find_realign_intervals(&b.sams, &b.vcfs, &reference);
            for iv in &intervals {
                realign_interval(&mut b.sams, &reference, iv, &b.vcfs);
            }
            b
        })
    }
}

/// `BaseRecalibrationProcess` — adjust quality scores (Cleaner stage).
///
/// Gather pass per partition → table merge (`Collect`, the step §5.2.2
/// blames for BQSR's efficiency loss; here the partition tables are folded
/// in parallel groups and only the partials meet at the driver) → broadcast
/// → apply pass per partition.
pub struct BaseRecalibrationProcess {
    io: BundleStageIo,
    output: Arc<SamBundle>,
}

impl BaseRecalibrationProcess {
    /// Constructor (Table 2).
    pub fn new(
        name: impl Into<String>,
        reference: Arc<ReferenceGenome>,
        rod: Option<Arc<VcfBundle>>,
        partition_info: Arc<PartitionInfoBundle>,
        input: Arc<SamBundle>,
        output: Arc<SamBundle>,
    ) -> Arc<Self> {
        let io = BundleStageIo { name: name.into(), reference, rod, partition_info, input };
        Arc::new(Self { io, output })
    }
}

impl BundleStage for BaseRecalibrationProcess {
    fn io(&self) -> &BundleStageIo {
        &self.io
    }
    fn output(&self) -> StageOutput {
        StageOutput::Sam(self.output.clone())
    }
    fn phase(&self) -> &'static str {
        "cleaner"
    }

    fn run_on_bundles(
        &self,
        ctx: &Arc<EngineContext>,
        bundles: Dataset<RegionBundle>,
    ) -> Dataset<RegionBundle> {
        let reference = self.io.reference.clone();
        // Gather: a covariate table per bundle, folded as it is produced.
        // This is the driver-bound step §5.2.2 names — each table is still
        // charged to the `collect` at its serialized size — without its
        // serial part and without its footprint: the tables are integer
        // counts, so each task adds its own into its group's sum and drops
        // it, and the driver is left the few partial sums.
        let merged = bundles.map_fold(
            move |b| build_recal_table(&b.sams, &reference, &b.vcfs),
            RecalTable::default,
            RecalTable::merge,
            |a, b| a.merge(&b),
        );
        // One lookup table per job, computed here rather than per bundle.
        merged.finish();
        // Broadcast the mask table to every node (the "multiple gigabyte
        // mask table" of §5.2.2 — here it is proportionally sized).
        let table = ctx.broadcast(merged);
        // Apply.
        bundles.into_map(move |mut b| {
            apply_recalibration(&mut b.sams, table.value());
            b
        })
    }
}

/// `HaplotypeCallerProcess` — call variants via local de-novo assembly of
/// haplotypes in active regions with the pair-HMM (Caller stage).
pub struct HaplotypeCallerProcess {
    io: BundleStageIo,
    output: Arc<VcfBundle>,
    use_gvcf: bool,
}

impl HaplotypeCallerProcess {
    /// Constructor (Table 2). `use_gvcf = true` additionally emits
    /// homozygous-reference block records for inactive called regions.
    pub fn new(
        name: impl Into<String>,
        reference: Arc<ReferenceGenome>,
        rod: Option<Arc<VcfBundle>>,
        partition_info: Arc<PartitionInfoBundle>,
        input: Arc<SamBundle>,
        output: Arc<VcfBundle>,
        use_gvcf: bool,
    ) -> Arc<Self> {
        let io = BundleStageIo { name: name.into(), reference, rod, partition_info, input };
        Arc::new(Self { io, output, use_gvcf })
    }
}

impl BundleStage for HaplotypeCallerProcess {
    fn io(&self) -> &BundleStageIo {
        &self.io
    }
    fn output(&self) -> StageOutput {
        StageOutput::Vcf(self.output.clone())
    }
    fn phase(&self) -> &'static str {
        "caller"
    }

    fn run_on_bundles(
        &self,
        _ctx: &Arc<EngineContext>,
        bundles: Dataset<RegionBundle>,
    ) -> Dataset<RegionBundle> {
        let reference = self.io.reference.clone();
        let use_gvcf = self.use_gvcf;
        // Consumed, so each task frees its region's reads as it finishes
        // rather than the driver freeing every region's after the wave.
        bundles.into_map(move |b| {
            let mut sams: Vec<&SamRecord> = b.sams.iter().collect();
            sams.sort_by(|x, y| coordinate_cmp(x, y));
            let mut calls = gpf_caller::HaplotypeCaller.call(sams, &reference);
            // A read overhanging the region boundary can produce a call
            // outside the region; the partition that owns that locus makes
            // the call, so drop it here. (Regions are not padded today —
            // ROADMAP item 2 adds the halo.)
            calls.retain(|v| {
                v.contig == b.region.contig && v.pos >= b.region.start && v.pos < b.region.end
            });
            if use_gvcf && calls.is_empty() && !b.sams.is_empty() {
                // GVCF mode: one reference block per called-clean region.
                calls.push(VcfRecord {
                    contig: b.region.contig,
                    pos: b.region.start,
                    ref_allele: vec![b'N'],
                    alt_allele: vec![b'.'],
                    qual: 0.0,
                    genotype: Genotype::HomRef,
                    depth: b.sams.len() as u32,
                });
            }
            // The Caller is the last bundle stage: what leaves it is the
            // region and its calls, not another copy of the reads.
            RegionBundle {
                partition_id: b.partition_id,
                region: b.region,
                fasta: Vec::new(),
                sams: Vec::new(),
                vcfs: Vec::new(),
                calls,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpf_engine::EngineConfig;
    use gpf_formats::sam::{SamFlags, SamHeaderInfo, NO_CONTIG};
    use gpf_formats::vcf::VcfHeaderInfo;
    use gpf_formats::Cigar;

    /// `use_gvcf = true` adds one `HomRef` block for a read-bearing region
    /// the caller found nothing in; a region without reads gets none.
    #[test]
    fn gvcf_mode_emits_one_homref_block_per_clean_read_bearing_region() {
        let seq: Vec<u8> = (0..1000).map(|i| b"ACGT"[i % 4]).collect();
        let reference = Arc::new(ReferenceGenome::from_contigs(vec![("chr1", seq)]));
        let dict = reference.dict().clone();
        // Reference-perfect reads, all inside the first of two 500-base
        // regions.
        let reads: Vec<SamRecord> = (0..20usize)
            .map(|i| SamRecord {
                name: format!("r{i}"),
                flags: SamFlags::default(),
                contig: 0,
                pos: (40 + 8 * i) as u64,
                mapq: 60,
                cigar: Cigar::parse("40M").unwrap(),
                mate_contig: NO_CONTIG,
                mate_pos: 0,
                tlen: 0,
                seq: reference.contig_seq(0)[40 + 8 * i..][..40].to_vec(),
                qual: vec![b'I'; 40],
                read_group: 1,
                edit_distance: 0,
            })
            .collect();
        for (use_gvcf, want) in [(false, 0), (true, 1)] {
            let ctx = EngineContext::new(EngineConfig::default());
            let input = SamBundle::defined(
                "reads",
                SamHeaderInfo::unsorted_header(dict.clone()),
                Dataset::from_vec(Arc::clone(&ctx), reads.clone(), 2),
            );
            let output = VcfBundle::undefined("calls", VcfHeaderInfo::new_header(dict.clone(), vec![]));
            let regions = PartitionInfoBundle::defined("regions", PartitionInfo::new(&dict.lengths(), 500));
            let caller = HaplotypeCallerProcess::new(
                "caller",
                Arc::clone(&reference),
                None,
                regions,
                input,
                Arc::clone(&output),
                use_gvcf,
            );
            caller.execute(&ctx);
            let calls = output.dataset().collect_local();
            assert_eq!(calls.len(), want, "use_gvcf = {use_gvcf}");
            if let Some(block) = calls.first() {
                assert_eq!((block.contig, block.pos, block.depth), (0, 0, 20));
                assert_eq!(block.genotype, Genotype::HomRef);
                assert_eq!((block.ref_allele.as_slice(), block.alt_allele.as_slice()), (&b"N"[..], &b"."[..]));
            }
        }
    }
}
