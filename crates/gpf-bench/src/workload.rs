//! Shared WGS workload construction and pipeline runners.
//!
//! One [`WgsWorkload`] is the laptop-scale analogue of the paper's
//! NA12878 Platinum Genomes setup: a synthetic reference (hg19 stand-in), a
//! diploid donor with planted variants, simulated paired-end reads
//! (coverage hotspots included), and a known-sites VCF (dbsnp_138 stand-in).

use gpf_align::{BwaMemAligner, SnapAligner};
use gpf_baselines::churchill::ChurchillPipeline;
use gpf_core::prelude::*;
use gpf_core::PipelineError;
use gpf_engine::{Dataset, EngineConfig, EngineContext, JobRun};
use gpf_formats::fastq::FastqPair;
use gpf_formats::sam::SamRecord;
use gpf_formats::vcf::VcfRecord;
use gpf_formats::ReferenceGenome;
use gpf_workloads::readsim::{ReadSimulator, SimulatorConfig};
use gpf_workloads::refgen::ReferenceSpec;
use gpf_workloads::variants::{DonorGenome, VariantSpec};
use gpf_support::chk::sync::OnceLock;
use std::sync::Arc;

/// The WGS benchmark workload.
pub struct WgsWorkload {
    /// Reference genome (hg19 stand-in).
    pub reference: Arc<ReferenceGenome>,
    /// Donor genome with planted truth.
    pub donor: DonorGenome,
    /// Simulated paired-end reads.
    pub pairs: Vec<FastqPair>,
    /// Known-sites VCF (dbsnp stand-in).
    pub known: Vec<VcfRecord>,
    /// Shared BWA-MEM index.
    pub aligner: Arc<BwaMemAligner>,
    /// Genomic partition length for PartitionInfo.
    pub partition_len: u64,
    /// Engine partitions for the FASTQ input (≈ task count per stage).
    pub fastq_parts: usize,
    snap: OnceLock<Arc<SnapAligner>>,
    aligned_cache: OnceLock<Vec<SamRecord>>,
}

/// Result of one GPF pipeline run.
pub struct GpfRun {
    /// Emitted variant calls.
    pub calls: Vec<VcfRecord>,
    /// Engine-recorded job — derived by replaying `trace`.
    pub run: JobRun,
    /// The raw event stream the run recorded (spans, scheduler decisions,
    /// shuffle counters); export with `gpf_trace::sink`.
    pub trace: gpf_trace::Trace,
    /// Number of fused chains the optimizer found.
    pub fused_chains: usize,
    /// Peak bytes the memory-budget accountant admitted, when the run's
    /// config installed one ([`EngineConfig::with_memory_budget`]) — the
    /// figure `tests/pipeline_gates.rs` bounds against the budget.
    pub ledger_peak_bytes: Option<u64>,
}

impl WgsWorkload {
    /// Build the workload. `scale = 1.0` is a ~1 Mb genome at 20× —
    /// large enough for >1000 tasks per stage, small enough for a laptop.
    pub fn build(scale: f64, seed: u64) -> Self {
        let unit = (350_000.0 * scale) as u64;
        let reference = Arc::new(
            ReferenceSpec {
                contig_lengths: vec![unit.max(40_000), (unit * 4 / 5).max(30_000), (unit * 3 / 5).max(20_000)],
                seed,
                ..Default::default()
            }
            .generate(),
        );
        let donor = DonorGenome::generate(
            &reference,
            &VariantSpec { seed: seed ^ 0xaaaa, ..Default::default() },
        );
        let pairs = ReadSimulator::new(
            &reference,
            &donor,
            SimulatorConfig {
                coverage: 20.0,
                duplicate_rate: 0.10,
                hotspot_count: 2,
                hotspot_multiplier: 35.0,
                seed: seed ^ 0x5555,
                ..Default::default()
            },
        )
        .simulate()
        .into_iter()
        .map(|s| s.pair)
        .collect::<Vec<_>>();
        let known = donor.known_sites(&reference, 0.8, 50, seed ^ 0x1234);
        let aligner = Arc::new(BwaMemAligner::new(&reference));
        let genome = reference.genome_length();
        Self {
            reference,
            donor,
            pairs,
            known,
            aligner,
            partition_len: (genome / 1300).max(400),
            fastq_parts: 1536,
            snap: OnceLock::new(),
            aligned_cache: OnceLock::new(),
        }
    }

    /// Shared SNAP index (built on first use).
    pub fn snap(&self) -> Arc<SnapAligner> {
        self.snap.get_or_init(|| Arc::new(SnapAligner::new(&self.reference))).clone()
    }

    /// Aligned records for kernel benchmarks (aligned once, cached).
    pub fn aligned_records(&self) -> &[SamRecord] {
        self.aligned_cache.get_or_init(|| {
            let ctx = EngineContext::new(EngineConfig::gpf().with_parallelism(self.fastq_parts));
            let ds = Dataset::from_vec(Arc::clone(&ctx), self.pairs.clone(), self.fastq_parts);
            let aligner = Arc::clone(&self.aligner);
            ds.flat_map(move |p| {
                let (a, b) = aligner.align_pair(p);
                [a, b]
            })
            .collect_local()
        })
    }

    /// Run the full GPF pipeline (Figure 3's program) with or without the
    /// §4.3 redundancy elimination.
    pub fn run_gpf(&self, optimize: bool) -> GpfRun {
        self.run_gpf_cfg(optimize, EngineConfig::gpf().with_parallelism(self.fastq_parts))
            // gpf-lint: allow(no-panic): the bench constructs this pipeline
            // from the canonical WGS template with faults disabled; a failure
            // here is a bench bug and there is no caller to propagate to.
            .expect("WGS pipeline executes")
    }

    /// [`Self::run_gpf`] under a caller-supplied engine configuration —
    /// `tests/pipeline_gates.rs` re-runs the identical pipeline under a
    /// seeded fault plan or a memory budget and observes recovery (or a
    /// structured failure).
    pub fn run_gpf_cfg(
        &self,
        optimize: bool,
        config: EngineConfig,
    ) -> Result<GpfRun, PipelineError> {
        let ctx = EngineContext::new(config);
        let mut pipeline = Pipeline::new("wgs", Arc::clone(&ctx));
        pipeline.set_optimize(optimize);
        let dict = self.reference.dict().clone();

        // Under a memory budget the input RDDs are the first eviction
        // candidates: downstream stages stream them chunk-by-chunk.
        let fastq_rdd = Dataset::from_vec(Arc::clone(&ctx), self.pairs.clone(), self.fastq_parts)
            .evictable();
        let fastq_bundle = FastqPairBundle::defined("fastqPair", fastq_rdd);
        let known_rdd = Dataset::from_vec(Arc::clone(&ctx), self.known.clone(), self.fastq_parts)
            .evictable();
        let dbsnp =
            VcfBundle::defined("dbsnp", VcfHeaderInfo::new_header(dict.clone(), vec![]), known_rdd);

        let aligned =
            SamBundle::undefined("alignedSam", SamHeaderInfo::unsorted_header(dict.clone()));
        pipeline.add_process(
            BwaMemProcess::pair_end(
                "BwaMapping",
                Arc::clone(&self.reference),
                fastq_bundle,
                Arc::clone(&aligned),
            )
            .with_aligner(Arc::clone(&self.aligner)),
        );

        let deduped =
            SamBundle::undefined("dedupedSam", SamHeaderInfo::unsorted_header(dict.clone()));
        pipeline.add_process(MarkDuplicateProcess::new(
            "MarkDuplicate",
            Arc::clone(&aligned),
            Arc::clone(&deduped),
        ));

        let pinfo = PartitionInfoBundle::undefined("partInfo");
        pipeline.add_process(ReadRepartitioner::new(
            "Repartitioner",
            vec![Arc::clone(&deduped)],
            Arc::clone(&pinfo),
            self.reference.dict().lengths(),
            self.partition_len,
        ));

        let realigned =
            SamBundle::undefined("realignedSam", SamHeaderInfo::unsorted_header(dict.clone()));
        pipeline.add_process(IndelRealignProcess::new(
            "IndelRealign",
            Arc::clone(&self.reference),
            Some(Arc::clone(&dbsnp)),
            Arc::clone(&pinfo),
            Arc::clone(&deduped),
            Arc::clone(&realigned),
        ));

        let recaled =
            SamBundle::undefined("recaledSam", SamHeaderInfo::unsorted_header(dict.clone()));
        pipeline.add_process(BaseRecalibrationProcess::new(
            "BQSR",
            Arc::clone(&self.reference),
            Some(Arc::clone(&dbsnp)),
            Arc::clone(&pinfo),
            Arc::clone(&realigned),
            Arc::clone(&recaled),
        ));

        let vcf_out =
            VcfBundle::undefined("ResultVCF", VcfHeaderInfo::new_header(dict, vec!["s".into()]));
        pipeline.add_process(HaplotypeCallerProcess::new(
            "HaplotypeCaller",
            Arc::clone(&self.reference),
            Some(dbsnp),
            pinfo,
            recaled,
            Arc::clone(&vcf_out),
            false,
        ));

        pipeline.run()?;
        // Collect before draining the trace so the final collect stage is
        // part of the recorded job, exactly as the metrics tests expect.
        let calls = vcf_out.dataset().collect_local();
        let ledger_peak_bytes = ctx.accountant().map(|a| a.peak());
        let (run, trace) = ctx.take_run_traced();
        Ok(GpfRun {
            calls,
            run,
            trace,
            fused_chains: pipeline.fused_chains().len(),
            ledger_peak_bytes,
        })
    }

    /// Run the Churchill-like comparator on the same inputs.
    pub fn run_churchill(&self) -> (Vec<VcfRecord>, JobRun) {
        let pipeline = ChurchillPipeline::with_aligner(
            Arc::clone(&self.reference),
            Arc::clone(&self.aligner),
            self.partition_len,
            self.fastq_parts,
        );
        pipeline.run(&self.pairs, &self.known)
    }
}

// ---------------------------------------------------------------------------
// Skewed workload for the dynamic-repartition gate (paper §4.4)
// ---------------------------------------------------------------------------

use gpf_core::partition::PartitionInfo;
use gpf_support::rng::{Rng, SeedableRng, StdRng};

/// Pack a genomic locus into a shuffle key (contig in the high bits).
fn pack_locus(contig: u32, pos: u64) -> u64 {
    ((contig as u64) << 40) | pos
}

fn unpack_locus(key: u64) -> gpf_formats::GenomePosition {
    gpf_formats::GenomePosition::new((key >> 40) as u32, key & ((1u64 << 40) - 1))
}

/// Deterministic skewed engine workload: one hotspot window on contig 0
/// holds most records, with coverage decaying exponentially off the
/// hotspot start (real WGS coverage is this uneven — a uniform model would
/// make the skew gate trivial), over a uniform floor across the genome.
/// Records are `(packed locus, payload)` pairs — the engine-level
/// distillation of read routing, cheap enough to shuffle repeatedly yet
/// skewed exactly like the pileup the caller sees.
pub struct SkewedWorkload {
    /// `(packed locus, payload)` records (see `pack_locus`).
    pub records: Vec<(u64, u64)>,
    /// Contig lengths of the synthetic genome.
    pub contig_lengths: Vec<u64>,
    /// Base partition length handed to [`PartitionInfo::new`].
    pub partition_len: u64,
    /// Engine partitions of the input dataset.
    pub input_parts: usize,
}

/// Result of one [`SkewedWorkload::run`].
pub struct SkewRun {
    /// Engine-recorded job (the compute stage's per-task shuffle-read
    /// bytes are the straggler-tail input; feed the run to `sim` for
    /// makespans).
    pub run: JobRun,
    /// Per-base-partition canonical output bytes: final partitions grouped
    /// back to their base partition, concatenated, sorted, serialized.
    /// Identical across split and unsplit runs iff the repartition changed
    /// placement only.
    pub canonical: Vec<Vec<u8>>,
    /// Final partition count (== base count when unsplit).
    pub n_partitions: usize,
    /// Base partitions split ([`gpf_core::partition::SplitStats`]).
    pub splits: u64,
    /// Records living in split partitions.
    pub moved_records: u64,
    /// Partitions truncated by the 64-piece cap.
    pub cap_hits: u64,
    /// Underfull base partitions merged into shared final partitions.
    pub merged: u64,
}

impl SkewedWorkload {
    /// Build the workload. `scale = 1.0` is ~48k records over a 1.2 Mb
    /// genome in 96 base partitions, with ~55% of records inside one
    /// partition-length hotspot window.
    pub fn build(scale: f64, seed: u64) -> Self {
        let contig_lengths = vec![600_000u64, 400_000, 200_000];
        let partition_len = 12_500u64; // 1.2 Mb / 12.5 kb = 96 base partitions
        let genome: u64 = contig_lengths.iter().sum();
        let n = ((48_000.0 * scale) as usize).max(4_000);
        let hot_start = 17 * partition_len; // inside contig 0
        let mut rng = StdRng::seed_from_u64(seed);
        let records = (0..n)
            .map(|_| {
                let (contig, pos) = if rng.gen_bool(0.55) {
                    // Exponential coverage decay off the hotspot start;
                    // mean partition_len/6 keeps ~99% inside one window.
                    let u = rng.next_f64();
                    let d = (-(1.0 - u).ln() * (partition_len as f64 / 6.0)) as u64;
                    (0u32, (hot_start + d).min(contig_lengths[0] - 1))
                } else {
                    // Uniform floor: pick a genome offset, map to a contig.
                    let mut off = rng.gen_range(0..genome);
                    let mut contig = 0u32;
                    for (c, &len) in contig_lengths.iter().enumerate() {
                        if off < len {
                            contig = c as u32;
                            break;
                        }
                        off -= len;
                    }
                    (contig, off)
                };
                (pack_locus(contig, pos), rng.next_u64())
            })
            .collect();
        Self { records, contig_lengths, partition_len, input_parts: 64 }
    }

    /// The unsplit base layout.
    pub fn base_info(&self) -> PartitionInfo {
        PartitionInfo::new(&self.contig_lengths, self.partition_len)
    }

    /// Shuffle into genomic partitions, run a pileup-shaped compute stage,
    /// and canonicalize the output per base partition.
    ///
    /// With `split` the run does §4.4 in the open: count records per base
    /// partition, build the table with
    /// [`PartitionInfo::with_splits_merges_stats`] at half the mean load
    /// (hotspots split, underfull runs merged), broadcast it, shuffle
    /// through its final ids. Without, it shuffles into the base layout.
    pub fn run(&self, split: bool) -> SkewRun {
        let base = self.base_info();
        let nbase = base.num_partitions() as usize;
        let ctx = EngineContext::new(EngineConfig::gpf().with_parallelism(self.input_parts));
        let d = Dataset::from_vec(Arc::clone(&ctx), self.records.clone(), self.input_parts);

        let (final_info, stats) = if split {
            let mut counts: Vec<(u32, u64)> = (0..nbase as u32).map(|id| (id, 0)).collect();
            for &(k, _) in &self.records {
                counts[base.partition_id(unpack_locus(k)) as usize].1 += 1;
            }
            let threshold = (self.records.len() as u64 / nbase as u64 / 2).max(1);
            let (info, stats) = base.with_splits_merges_stats(&counts, threshold);
            ctx.record_repartition(
                stats.splits as u64,
                stats.moved_records,
                stats.cap_hits as u64,
                stats.merged as u64,
            );
            let _b = ctx.broadcast(info.clone());
            (info, stats)
        } else {
            (base.clone(), Default::default())
        };
        let route_info = final_info.clone();
        let shuffled = d.into_partition_by(final_info.num_partitions() as usize, move |kv| {
            route_info.partition_id(unpack_locus(kv.0)) as usize
        });

        // Pileup-shaped compute: a per-record hash chain, so a task's CPU
        // time is proportional to partition depth — as are its shuffle-read
        // bytes, whose max over median is the straggler tail
        // `tests/pipeline_gates.rs` holds.
        let computed = shuffled.narrow_op("pileup", |_, p| {
            p.iter()
                .map(|&(k, v)| {
                    let mut h = k ^ v;
                    for _ in 0..256 {
                        h = h.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(29) ^ k;
                    }
                    (k, h)
                })
                .collect()
        });

        // Canonicalize per base partition, by each record's *locus*: split
        // pieces and merged runs both change only placement, so regrouping
        // records under the base layout + sorting erases the layout and
        // leaves only content. (Grouping by final-id ranges would conflate
        // merged neighbours into one group and break the differential.)
        let mut groups: Vec<Vec<(u64, u64)>> = (0..nbase).map(|_| Vec::new()).collect();
        for t in 0..computed.num_partitions() {
            for &(k, v) in computed.partition(t).iter() {
                groups[base.partition_id(unpack_locus(k)) as usize].push((k, v));
            }
        }
        let canonical: Vec<Vec<u8>> = groups
            .into_iter()
            .map(|mut group| {
                group.sort_unstable();
                let mut bytes = Vec::with_capacity(group.len() * 16);
                for (k, v) in group {
                    bytes.extend_from_slice(&k.to_le_bytes());
                    bytes.extend_from_slice(&v.to_le_bytes());
                }
                bytes
            })
            .collect();

        SkewRun {
            run: ctx.take_run(),
            canonical,
            n_partitions: final_info.num_partitions() as usize,
            splits: stats.splits as u64,
            moved_records: stats.moved_records,
            cap_hits: stats.cap_hits as u64,
            merged: stats.merged as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skewed_workload_is_seed_deterministic() {
        let a = SkewedWorkload::build(0.1, 0x2018);
        let b = SkewedWorkload::build(0.1, 0x2018);
        assert_eq!(a.records, b.records, "same seed must reproduce records byte-identically");
        let c = SkewedWorkload::build(0.1, 0x2019);
        assert_ne!(a.records, c.records, "a different seed must actually change the workload");
        // And the full split run is deterministic end-to-end.
        let r1 = a.run(true);
        let r2 = b.run(true);
        assert_eq!(r1.canonical, r2.canonical);
        assert_eq!(r1.n_partitions, r2.n_partitions);
        assert_eq!((r1.splits, r1.moved_records, r1.cap_hits), (r2.splits, r2.moved_records, r2.cap_hits));
    }

    #[test]
    fn split_run_splits_hotspot_and_preserves_output() {
        let w = SkewedWorkload::build(0.1, 7);
        let unsplit = w.run(false);
        let split = w.run(true);
        assert_eq!(unsplit.n_partitions, w.base_info().num_partitions() as usize);
        assert!(split.n_partitions > unsplit.n_partitions, "hotspot must split");
        assert!(split.splits >= 1);
        assert!(split.moved_records > 0);
        assert_eq!(split.canonical, unsplit.canonical, "split must change placement only");
    }
}
