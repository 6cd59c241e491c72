//! Processes — the execution abstraction of the GPF programming model — and
//! the bundled-RDD machinery the engine-level optimization works on.
//!
//! A Process (paper §3.1, Figure 2) walks through three states: **Blocked**
//! (some input Resource is Undefined), **Ready** (all inputs Defined),
//! **Running**. The pipeline's DAG scheduler drives these transitions.
//!
//! The Cleaner/Caller Processes are *partition Processes* in the paper's
//! terminology: they operate on a **bundled RDD** whose elements pair a
//! genomic partition with everything that partition needs — the FASTA slice,
//! the reads, and the known-variant sites (Figure 7). [`RegionBundle`] is
//! that element type; [`build_bundles`] performs the partition + join that
//! constructs it (three shuffles); the [`BundleStage`] trait is what the
//! §4.3 redundancy elimination fuses across consecutive Processes.
//!
//! A bundle stage declares its inputs ([`BundleStageIo`]), its output, its
//! phase and its per-bundle work; everything else is one blanket
//! [`Process`] impl. `run_bundle_chain` is the one executor: a stage run
//! alone is a chain of one, a fused chain is longer, both build their
//! bundles in the same place, and the last stage's output is the bundles'
//! reads or calls flattened in partition order.

use crate::partition::PartitionInfo;
use crate::resource::{PartitionInfoBundle, ResourceAny, SamBundle, VcfBundle};
use gpf_compress::{ByteReader, ByteWriter, CodecError, GpfSerialize};
use gpf_engine::{Dataset, EngineContext};
use gpf_formats::sam::SamRecord;
use gpf_formats::vcf::VcfRecord;
use gpf_formats::{GenomeInterval, ReferenceGenome};
use gpf_trace::{span_in, Category};
use std::sync::Arc;

/// A schedulable unit of work.
pub trait Process: Send + Sync {
    /// Process name (for reports and error messages).
    fn name(&self) -> &str;

    /// Input Resources this Process depends on.
    fn input_resources(&self) -> Vec<Arc<dyn ResourceAny>>;

    /// Output Resources this Process defines.
    fn output_resources(&self) -> Vec<Arc<dyn ResourceAny>>;

    /// Run the Process, defining every output Resource.
    fn execute(&self, ctx: &Arc<EngineContext>);

    /// Downcast to a fusable bundle-stage Process (§4.3), if applicable.
    fn as_bundle_stage(&self) -> Option<&dyn BundleStage> {
        None
    }
}

/// One element of the bundled RDD: a genomic partition with its reference
/// slice, reads, known sites, and (for the Caller) emitted calls.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionBundle {
    /// Final partition id (from [`PartitionInfo`]).
    pub partition_id: u32,
    /// The genomic interval this bundle covers.
    pub region: GenomeInterval,
    /// Reference bases of the region (the FASTA partition payload).
    pub fasta: Vec<u8>,
    /// Reads assigned to the region.
    pub sams: Vec<SamRecord>,
    /// Known variant sites inside the region (the VCF partition payload).
    pub vcfs: Vec<VcfRecord>,
    /// Variant calls produced by a Caller stage (empty before the Caller).
    pub calls: Vec<VcfRecord>,
}

impl GpfSerialize for RegionBundle {
    fn write(&self, w: &mut ByteWriter) {
        w.write_u32(self.partition_id);
        self.region.write(w);
        w.write_bytes(&self.fasta);
        self.sams.write(w);
        self.vcfs.write(w);
        self.calls.write(w);
    }

    fn read(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            partition_id: r.read_u32()?,
            region: GenomeInterval::read(r)?,
            fasta: r.read_bytes()?,
            sams: Vec::read(r)?,
            vcfs: Vec::read(r)?,
            calls: Vec::read(r)?,
        })
    }
}

/// Route a SAM record to its final partition id. Unmapped reads follow their
/// mate when possible, else land in partition 0.
pub fn route_record(r: &SamRecord, info: &PartitionInfo) -> u32 {
    if let Some(pos) = r.position() {
        info.partition_id(pos)
    } else if r.mate_contig != gpf_formats::sam::NO_CONTIG {
        info.partition_id(gpf_formats::GenomePosition::new(r.mate_contig, r.mate_pos))
    } else {
        0
    }
}

/// Build the bundled RDD: partition the FASTA reference, the known-sites
/// VCF, and the SAM records by [`PartitionInfo`], then join them per
/// partition (Figure 7(a)'s `groupBy` × 3 + `join`). Three shuffles — this
/// is exactly the work the §4.3 fusion avoids repeating.
///
/// Borrowing caller of `build_bundles_owned`: the caller keeps `sams` and
/// `known`, so both are routed from where they sit.
pub fn build_bundles(
    ctx: &Arc<EngineContext>,
    reference: &ReferenceGenome,
    info: &PartitionInfo,
    sams: &Dataset<SamRecord>,
    known: Option<&Dataset<VcfRecord>>,
) -> Dataset<RegionBundle> {
    build_bundles_owned(ctx, reference, info, sams.clone(), known.cloned())
}

/// [`build_bundles`] over inputs taken by value — what a bundle stage gets
/// when it `consume()`s its Resources. A handle that is the last one to its
/// records gives them up: each shuffle map task frees the input partition
/// it serialized, so the reads are resident once, as bundles, when this
/// returns. A shared handle (or faults, or a budget) is read in place.
fn build_bundles_owned(
    ctx: &Arc<EngineContext>,
    reference: &ReferenceGenome,
    info: &PartitionInfo,
    sams: Dataset<SamRecord>,
    known: Option<Dataset<VcfRecord>>,
) -> Dataset<RegionBundle> {
    let nparts = info.num_partitions() as usize;
    let intervals = info.intervals();

    // FASTA partition RDD: slice per region, shuffled into place.
    let fasta_chunks: Vec<(u32, Vec<u8>)> = intervals
        .iter()
        .enumerate()
        .map(|(id, iv)| (id as u32, reference.slice(*iv).to_vec()))
        .collect();
    let fasta_ds = Dataset::from_vec(Arc::clone(ctx), fasta_chunks, sams.num_partitions())
        .into_partition_by_key(nparts, |pid: &u32| *pid as usize);

    // VCF and SAM partition RDDs: records are routed directly, never keyed.
    let info_v = info.clone();
    let vcf_ds: Dataset<VcfRecord> = match known {
        Some(k) => k.into_partition_by(nparts, move |v| {
            info_v.partition_id(gpf_formats::GenomePosition::new(v.contig, v.pos)) as usize
        }),
        None => Dataset::from_partitions(Arc::clone(ctx), vec![Vec::new(); nparts]),
    };
    let info_s = info.clone();
    let sam_ds = sams.into_partition_by(nparts, move |r| route_record(r, &info_s) as usize);

    // Join per partition into the bundle RDD. The shuffled datasets are
    // temporaries of this function and are consumed, so the records move.
    let with_vcf =
        sam_ds.into_zip_partitions(vcf_ds, |pi, sams, vcfs| vec![(pi as u32, sams, vcfs)]);
    let intervals_arc = Arc::new(intervals);
    with_vcf.into_zip_partitions(fasta_ds, move |pi, svs, fasta_part| {
        let (pid, sams, vcfs) =
            svs.into_iter().next().unwrap_or((pi as u32, Vec::new(), Vec::new()));
        let fasta = fasta_part.into_iter().next().map(|(_, f)| f).unwrap_or_default();
        vec![RegionBundle {
            partition_id: pid,
            region: intervals_arc[pi],
            fasta,
            sams,
            vcfs,
            calls: Vec::new(),
        }]
    })
}

/// What a bundle stage reads — Table 2's constructor arguments shared by
/// `IndelRealignProcess`, `BaseRecalibrationProcess` and
/// `HaplotypeCallerProcess`.
pub struct BundleStageIo {
    /// Process name (for reports and error messages).
    pub(crate) name: String,
    /// Reference genome the stage computes against.
    pub(crate) reference: Arc<ReferenceGenome>,
    /// The known-sites resource (the paper's `rodMap`, a dbSNP analogue).
    pub(crate) rod: Option<Arc<VcfBundle>>,
    /// The PartitionInfo the bundles are built over.
    pub(crate) partition_info: Arc<PartitionInfoBundle>,
    /// The reads the bundles are built from.
    pub(crate) input: Arc<SamBundle>,
}

/// The Resource a bundle stage defines.
pub enum StageOutput {
    /// Reads handed on — the Resource a fused chain links through.
    Sam(Arc<SamBundle>),
    /// Calls: the Caller, which ends a chain.
    Vcf(Arc<VcfBundle>),
}

/// A *partition Process*: it operates on the bundled RDD and is the fusion
/// target of §4.3. This is its whole contract — the one [`Process`] impl
/// below serves every stage, and `run_bundle_chain` runs it.
pub trait BundleStage: Send + Sync {
    /// What the stage reads.
    fn io(&self) -> &BundleStageIo;

    /// What the stage defines.
    fn output(&self) -> StageOutput;

    /// The engine phase its tasks are charged to.
    fn phase(&self) -> &'static str;

    /// Transform the bundled RDD (per-partition compute plus any global
    /// gather/broadcast steps the algorithm needs).
    fn run_on_bundles(
        &self,
        ctx: &Arc<EngineContext>,
        bundles: Dataset<RegionBundle>,
    ) -> Dataset<RegionBundle>;
}

impl<S: BundleStage> Process for S {
    fn name(&self) -> &str {
        &self.io().name
    }

    fn input_resources(&self) -> Vec<Arc<dyn ResourceAny>> {
        let io = self.io();
        let mut v: Vec<Arc<dyn ResourceAny>> = vec![io.input.clone(), io.partition_info.clone()];
        if let Some(rod) = &io.rod {
            v.push(rod.clone());
        }
        v
    }

    fn output_resources(&self) -> Vec<Arc<dyn ResourceAny>> {
        match self.output() {
            StageOutput::Sam(sam) => vec![sam],
            StageOutput::Vcf(vcf) => vec![vcf],
        }
    }

    /// Unfused (Figure 7(a)): a chain of one, so this stage repartitions and
    /// joins for itself.
    fn execute(&self, ctx: &Arc<EngineContext>) {
        run_bundle_chain(ctx, &[self]);
    }

    fn as_bundle_stage(&self) -> Option<&dyn BundleStage> {
        Some(self)
    }
}

/// Run a chain of bundle stages — one stage alone, or a §4.3 fused chain
/// (Figure 7(b)): build the bundled RDD once from the head's inputs, map
/// each stage over it, and let the last stage define its outputs. Every
/// bundle build of a bundle stage, fused or not, happens here.
pub(crate) fn run_bundle_chain(ctx: &Arc<EngineContext>, chain: &[&dyn BundleStage]) {
    let (Some(head), Some(last)) = (chain.first(), chain.last()) else {
        return;
    };
    ctx.set_phase(head.phase());
    let io = head.io();
    let info = io.partition_info.info();
    let known = io.rod.as_ref().map(|r| r.consume());
    let mut bundles = {
        let _build_span = span_in(ctx.trace_log(), "bundles:build", Category::Scheduler);
        build_bundles_owned(ctx, &io.reference, &info, io.input.consume(), known)
            // The bundles are the largest live allocation of the WGS
            // pipeline — under a memory budget they must be evictable or no
            // budget below the materialized size is feasible.
            .evictable()
    };
    for stage in chain {
        ctx.set_phase(stage.phase());
        bundles = stage.run_on_bundles(ctx, bundles);
    }
    // Intermediate SAM merges are exactly the redundancy the fusion
    // removes — only the last link flattens the bundles into its output,
    // moving their records. Final partition ids ascend with genomic
    // position and each bundle's calls are sorted and inside its region,
    // so the flattened calls are already in genome order.
    match last.output() {
        StageOutput::Sam(output) => output.define(bundles.into_flat_map(|b| b.sams)),
        StageOutput::Vcf(output) => output.define(bundles.into_flat_map(|b| b.calls)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpf_engine::EngineConfig;
    use gpf_formats::sam::{SamFlags, SamHeaderInfo};
    use gpf_formats::{Cigar, ContigDict};

    fn reference() -> ReferenceGenome {
        let seq: Vec<u8> = (0..1000).map(|i| b"ACGT"[i % 4]).collect();
        ReferenceGenome::from_contigs(vec![("chr1", seq.clone()), ("chr2", seq[..500].to_vec())])
    }

    fn mapped(name: &str, contig: u32, pos: u64) -> SamRecord {
        SamRecord {
            name: name.into(),
            flags: SamFlags::default(),
            contig,
            pos,
            mapq: 60,
            cigar: Cigar::parse("10M").unwrap(),
            mate_contig: gpf_formats::sam::NO_CONTIG,
            mate_pos: 0,
            tlen: 0,
            seq: b"ACGTACGTAC".to_vec(),
            qual: vec![b'I'; 10],
            read_group: 1,
            edit_distance: 0,
        }
    }

    #[test]
    fn bundles_hold_region_consistent_data() {
        let ctx = gpf_engine::EngineContext::new(EngineConfig::default());
        let r = reference();
        let info = PartitionInfo::new(&r.dict().lengths(), 250);
        let records = vec![
            mapped("a", 0, 10),
            mapped("b", 0, 400),
            mapped("c", 1, 260),
            SamRecord::unmapped("u", b"ACGT".to_vec(), b"IIII".to_vec()),
        ];
        let sams = Dataset::from_vec(Arc::clone(&ctx), records, 2);
        let bundles = build_bundles(&ctx, &r, &info, &sams, None);
        assert_eq!(bundles.len(), info.num_partitions() as usize);
        let all = bundles.collect_local();
        for b in &all {
            assert_eq!(b.fasta.len() as u64, b.region.len());
            for s in &b.sams {
                if let Some(p) = s.position() {
                    assert!(b.region.contains(p), "{} in {:?}", s.name, b.region);
                }
            }
        }
        // Every record survived exactly once.
        let total: usize = all.iter().map(|b| b.sams.len()).sum();
        assert_eq!(total, 4);
        // Unmapped read went to partition 0.
        assert!(all[0].sams.iter().any(|s| s.name == "u"));
    }

    /// Hotspot profile: 270 of 300 reads pile onto chr1's first base
    /// partition, the rest spread over chr2.
    fn hotspot_records() -> Vec<SamRecord> {
        (0..300)
            .map(|i| {
                if i % 10 == 0 {
                    mapped(&format!("cold{i}"), 1, (i * 13) as u64 % 480)
                } else {
                    mapped(&format!("hot{i}"), 0, (i % 240) as u64)
                }
            })
            .collect()
    }

    /// Run the `ReadRepartitioner` Process over `records` on 250-base
    /// partitions and return the table it published.
    fn published_table(
        ctx: &Arc<EngineContext>,
        r: &ReferenceGenome,
        records: &[SamRecord],
    ) -> PartitionInfo {
        let header = SamHeaderInfo::unsorted_header(r.dict().clone());
        let sams = Dataset::from_vec(Arc::clone(ctx), records.to_vec(), 4);
        let output = PartitionInfoBundle::undefined("partitionInfo");
        let p = crate::processes::ReadRepartitioner::new(
            "Repartitioner",
            vec![SamBundle::defined("aligned", header, sams)],
            Arc::clone(&output),
            r.dict().lengths(),
            250,
        );
        p.execute(ctx);
        output.info()
    }

    #[test]
    fn auto_threshold_pins_explicit_split_decisions() {
        let ctx = gpf_engine::EngineContext::new(EngineConfig::default());
        let r = reference();
        let records = hotspot_records();
        let published = published_table(&ctx, &r, &records);

        let base = PartitionInfo::new(&r.dict().lengths(), 250);
        let nbase = base.num_base_partitions();
        assert!(published.num_partitions() > nbase, "the hotspot must split");
        // 300 records, so the half-mean-load threshold is known in closed
        // form; the counts are taken here, not from the Process.
        let mut counts: Vec<(u32, u64)> = (0..nbase).map(|id| (id, 0)).collect();
        for rec in &records {
            counts[route_record(rec, &base) as usize].1 += 1;
        }
        assert_eq!(published, base.with_splits(&counts, (300 / nbase as u64 / 2).max(1)));
        // The decision is visible in the trace.
        let (_, trace) = ctx.take_run_traced();
        assert!(trace.events.iter().any(|e| &*e.name == "repartition.split"));
    }

    #[test]
    fn bundles_over_the_published_table_keep_every_record() {
        let ctx = gpf_engine::EngineContext::new(EngineConfig::default());
        let r = reference();
        let records = hotspot_records();
        let info = published_table(&ctx, &r, &records);
        let sams = Dataset::from_vec(Arc::clone(&ctx), records.clone(), 4);
        let all = build_bundles(&ctx, &r, &info, &sams, None).collect_local();
        assert_eq!(all.len(), info.num_partitions() as usize);
        for b in &all {
            assert_eq!(b.fasta.len() as u64, b.region.len());
            for s in &b.sams {
                let p = s.position().expect("every hotspot record is mapped");
                assert!(b.region.contains(p), "{} outside {:?}", s.name, b.region);
            }
        }
        // Every record survived exactly once.
        let mut got: Vec<&str> =
            all.iter().flat_map(|b| b.sams.iter().map(|s| s.name.as_str())).collect();
        let mut want: Vec<&str> = records.iter().map(|s| s.name.as_str()).collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn flatten_round_trips_records() {
        let ctx = gpf_engine::EngineContext::new(EngineConfig::default());
        let r = reference();
        let info = PartitionInfo::new(&r.dict().lengths(), 100);
        let records: Vec<SamRecord> =
            (0..50).map(|i| mapped(&format!("r{i}"), (i % 2) as u32, (i * 17) as u64 % 480)).collect();
        let sams = Dataset::from_vec(Arc::clone(&ctx), records.clone(), 4);
        let bundles = build_bundles(&ctx, &r, &info, &sams, None);
        let flat = bundles.into_flat_map(|b| b.sams);
        let mut names: Vec<String> = flat.collect_local().into_iter().map(|r| r.name).collect();
        names.sort();
        let mut expect: Vec<String> = records.into_iter().map(|r| r.name).collect();
        expect.sort();
        assert_eq!(names, expect);
    }

    #[test]
    fn region_bundle_serializes() {
        use gpf_compress::serializer::{deserialize_batch, serialize_batch, SerializerKind};
        let b = RegionBundle {
            partition_id: 3,
            region: GenomeInterval::new(0, 100, 200),
            fasta: b"ACGT".repeat(25),
            sams: vec![mapped("x", 0, 120)],
            vcfs: vec![],
            calls: vec![],
        };
        for kind in [SerializerKind::JavaSim, SerializerKind::KryoSim, SerializerKind::Gpf] {
            let buf = serialize_batch(kind, std::slice::from_ref(&b));
            let out: Vec<RegionBundle> = deserialize_batch(kind, &buf).unwrap();
            assert_eq!(out[0], b);
        }
    }

    #[test]
    fn process_state_tracks_inputs() {
        struct Dummy {
            input: Arc<SamBundle>,
            output: Arc<SamBundle>,
        }
        impl Process for Dummy {
            fn name(&self) -> &str {
                "dummy"
            }
            fn input_resources(&self) -> Vec<Arc<dyn ResourceAny>> {
                vec![self.input.clone()]
            }
            fn output_resources(&self) -> Vec<Arc<dyn ResourceAny>> {
                vec![self.output.clone()]
            }
            fn execute(&self, ctx: &Arc<EngineContext>) {
                self.output.define(Dataset::from_vec(Arc::clone(ctx), vec![], 1));
            }
        }
        let ctx = gpf_engine::EngineContext::new(EngineConfig::default());
        let dict = ContigDict::from_pairs([("chr1", 100u64)]);
        let input = SamBundle::undefined("in", SamHeaderInfo::unsorted_header(dict.clone()));
        let output = SamBundle::undefined("out", SamHeaderInfo::unsorted_header(dict));
        let p = Dummy { input: input.clone(), output };
        // Ready (Figure 2) = every input Resource Defined.
        let ready = |p: &Dummy| p.input_resources().iter().all(|r| r.is_defined());
        assert!(!ready(&p));
        input.define(Dataset::from_vec(Arc::clone(&ctx), vec![], 1));
        assert!(ready(&p));
        p.execute(&ctx);
        assert!(p.output_resources()[0].is_defined());
    }
}
