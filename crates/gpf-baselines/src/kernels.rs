//! Flavor-parameterized kernel runners for the Figure 11 strong-scaling
//! comparisons: each runs one Cleaner kernel on the engine under a flavor's
//! configuration and returns the recorded [`JobRun`] for the cluster
//! simulator.

use crate::flavors::Flavor;
use gpf_cleaner::bqsr::{apply_recalibration, build_recal_table, RecalTable};
use gpf_cleaner::mark_duplicates;
use gpf_cleaner::realign::{find_realign_intervals, realign_interval};
use gpf_core::partition::PartitionInfo;
use gpf_core::process::build_bundles;
use gpf_engine::{Dataset, EngineContext, JobRun};
use gpf_formats::sam::SamRecord;
use gpf_formats::vcf::VcfRecord;
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

impl KernelInput {
    fn ctx(&self, flavor: Flavor) -> Arc<EngineContext> {
        EngineContext::new(flavor.engine_config().with_parallelism(self.nparts))
    }

    fn dataset(&self, ctx: &Arc<EngineContext>, flavor: Flavor) -> Dataset<SamRecord> {
        let ds = Dataset::from_vec(Arc::clone(ctx), self.records.clone(), self.nparts);
        if flavor.converts_format() {
            // ADAM ingests by converting BAM -> columnar storage.
            ds.barrier_via_disk("format-conversion(in)")
        } else {
            ds
        }
    }

    fn finish(
        &self,
        ctx: &Arc<EngineContext>,
        flavor: Flavor,
        out: Dataset<SamRecord>,
    ) -> JobRun {
        if flavor.converts_format() {
            let _ = out.barrier_via_disk("format-conversion(out)");
        } else {
            // Materialization of the kernel output (writes survive the job).
            let _ = out.len();
        }
        ctx.take_run()
    }

    fn partition_info(&self) -> PartitionInfo {
        PartitionInfo::new(&self.reference.dict().lengths(), self.partition_len)
    }
}

/// MarkDuplicate kernel (Figure 11(a)).
pub fn run_markdup(flavor: Flavor, input: &KernelInput) -> JobRun {
    let ctx = input.ctx(flavor);
    ctx.set_phase("cleaner");
    let ds = input.dataset(&ctx, flavor);
    let nparts = input.nparts;
    let keyed = ds.map(|r| {
        let own = (r.contig, r.pos);
        let mate = (r.mate_contig, r.mate_pos);
        let key = own.min(mate);
        ((key.0 as u64) << 40 | key.1, r.clone())
    });
    let partitioned = keyed.into_partition_by_key(nparts, move |k: &u64| {
        (gpf_engine::dataset::stable_hash(k) % nparts as u64) as usize
    });
    let marked = partitioned.map_partitions(|part| {
        let mut records: Vec<SamRecord> = part.iter().map(|(_, r)| r.clone()).collect();
        mark_duplicates(&mut records);
        records
    });
    input.finish(&ctx, flavor, marked)
}

/// BQSR kernel (Figure 11(b)): gather → collect (serial) → broadcast → apply.
pub fn run_bqsr(flavor: Flavor, input: &KernelInput) -> JobRun {
    let ctx = input.ctx(flavor);
    ctx.set_phase("cleaner");
    let ds = input.dataset(&ctx, flavor);
    let info = input.partition_info();
    let known = Dataset::from_vec(Arc::clone(&ctx), input.known.clone(), input.nparts);
    let bundles = build_bundles(&ctx, &input.reference, &info, &ds, Some(&known));
    let reference = Arc::clone(&input.reference);
    let tables = bundles.map(move |b| build_recal_table(&b.sams, &reference, &b.vcfs));
    let collected = tables.collect();
    let mut merged = RecalTable::default();
    for t in &collected {
        merged.merge(t);
    }
    merged.finish();
    let table = ctx.broadcast(merged);
    let recal = bundles.map(move |b| {
        let mut out = b.clone();
        apply_recalibration(&mut out.sams, table.value());
        out
    });
    let out = recal.flat_map(|b| b.sams.clone());
    input.finish(&ctx, flavor, out)
}

/// INDEL realignment kernel (Figure 11(c)).
pub fn run_realign(flavor: Flavor, input: &KernelInput) -> JobRun {
    let ctx = input.ctx(flavor);
    ctx.set_phase("cleaner");
    let ds = input.dataset(&ctx, flavor);
    let info = input.partition_info();
    let known = Dataset::from_vec(Arc::clone(&ctx), input.known.clone(), input.nparts);
    let bundles = build_bundles(&ctx, &input.reference, &info, &ds, Some(&known));
    let reference = Arc::clone(&input.reference);
    let realigned = bundles.map(move |b| {
        let mut out = b.clone();
        let intervals = find_realign_intervals(&out.sams, &out.vcfs, &reference);
        for iv in &intervals {
            realign_interval(&mut out.sams, &reference, iv, &out.vcfs);
        }
        out
    });
    let out = realigned.flat_map(|b| b.sams.clone());
    input.finish(&ctx, flavor, out)
}

#[cfg(test)]
mod tests {
    use super::*;
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
