//! Full GPF WGS pipeline integration: Aligner → Cleaner → Caller through the
//! Pipeline runtime, with and without the §4.3 redundancy elimination.

use gpf_compress::serializer::{serialize_batch, SerializerKind};
use gpf_core::prelude::*;
use gpf_engine::{EngineConfig, EngineContext, JobRun};
use gpf_formats::vcf::VcfRecord;
use gpf_workloads::readsim::{simulate_fastq_pairs, SimulatorConfig};
use gpf_workloads::refgen::ReferenceSpec;
use gpf_workloads::variants::{DonorGenome, VariantSpec};
use std::sync::{Arc, Mutex};

/// One pipeline at a time: `shuffle_move_accounting…` reads process-global
/// counters exactly while tracing is on.
static ONE_PIPELINE: Mutex<()> = Mutex::new(());

struct Setup {
    reference: Arc<gpf_formats::ReferenceGenome>,
    donor: DonorGenome,
    pairs: Vec<gpf_formats::FastqPair>,
    known_vcf: Vec<VcfRecord>,
}

fn setup() -> Setup {
    let reference = Arc::new(
        ReferenceSpec {
            contig_lengths: vec![60_000, 30_000],
            seed: 404,
            repeat_fraction: 0.05,
            ..Default::default()
        }
        .generate(),
    );
    let donor = DonorGenome::generate(
        &reference,
        &VariantSpec { snv_rate: 7e-4, indel_rate: 6e-5, seed: 9, ..Default::default() },
    );
    let pairs = simulate_fastq_pairs(
        &reference,
        &donor,
        SimulatorConfig {
            coverage: 25.0,
            duplicate_rate: 0.10,
            hotspot_count: 1,
            hotspot_multiplier: 25.0,
            ..Default::default()
        },
    );
    let known_vcf = donor.known_sites(&reference, 0.7, 10, 77);
    Setup { reference, donor, pairs, known_vcf }
}

/// What one run's `ReadRepartitioner` decided (§4.4).
struct Repartition {
    /// The published `PartitionInfo`, serialized.
    table: Vec<u8>,
    /// `repartition.split` instants in the session trace.
    instants: usize,
}

/// Build and run the full pipeline; returns (calls, engine run, fused
/// chains, repartition decision).
fn run_pipeline(s: &Setup, optimize: bool) -> (Vec<VcfRecord>, JobRun, usize, Repartition) {
    let _one = ONE_PIPELINE.lock().unwrap_or_else(|e| e.into_inner());
    run_pipeline_unlocked(s, optimize)
}

fn run_pipeline_unlocked(s: &Setup, optimize: bool) -> (Vec<VcfRecord>, JobRun, usize, Repartition) {
    let ctx = EngineContext::new(EngineConfig::gpf().with_parallelism(6));
    let mut pipeline = Pipeline::new("wgs", Arc::clone(&ctx));
    pipeline.set_optimize(optimize);

    let dict = s.reference.dict().clone();
    let fastq_rdd =
        gpf_engine::Dataset::from_vec(Arc::clone(&ctx), s.pairs.clone(), 6);
    let fastq_bundle = FastqPairBundle::defined("fastqPair", fastq_rdd);
    let known_rdd = gpf_engine::Dataset::from_vec(Arc::clone(&ctx), s.known_vcf.clone(), 6);
    let dbsnp = VcfBundle::defined(
        "dbsnp",
        VcfHeaderInfo::new_header(dict.clone(), vec![]),
        known_rdd,
    );

    let aligned = SamBundle::undefined("alignedSam", SamHeaderInfo::unsorted_header(dict.clone()));
    pipeline.add_process(BwaMemProcess::pair_end(
        "MyBwaMapping",
        Arc::clone(&s.reference),
        fastq_bundle,
        Arc::clone(&aligned),
    ));

    let deduped = SamBundle::undefined("dedupedSam", SamHeaderInfo::unsorted_header(dict.clone()));
    pipeline.add_process(MarkDuplicateProcess::new(
        "MyMarkDuplicate",
        Arc::clone(&aligned),
        Arc::clone(&deduped),
    ));

    let pinfo = PartitionInfoBundle::undefined("partInfo");
    pipeline.add_process(ReadRepartitioner::new(
        "MyRepartitioner",
        vec![Arc::clone(&deduped)],
        Arc::clone(&pinfo),
        s.reference.dict().lengths(),
        6_000,
    ));

    let realigned = SamBundle::undefined("realignedSam", SamHeaderInfo::unsorted_header(dict.clone()));
    pipeline.add_process(IndelRealignProcess::new(
        "MyIndelRealign",
        Arc::clone(&s.reference),
        Some(Arc::clone(&dbsnp)),
        Arc::clone(&pinfo),
        Arc::clone(&deduped),
        Arc::clone(&realigned),
    ));

    let recaled = SamBundle::undefined("recaledSam", SamHeaderInfo::unsorted_header(dict.clone()));
    pipeline.add_process(BaseRecalibrationProcess::new(
        "MyBQSR",
        Arc::clone(&s.reference),
        Some(Arc::clone(&dbsnp)),
        Arc::clone(&pinfo),
        Arc::clone(&realigned),
        Arc::clone(&recaled),
    ));

    let vcf_out = VcfBundle::undefined(
        "ResultVCF",
        VcfHeaderInfo::new_header(dict, vec!["sample".into()]),
    );
    pipeline.add_process(HaplotypeCallerProcess::new(
        "MyHaplotypeCaller",
        Arc::clone(&s.reference),
        Some(dbsnp),
        Arc::clone(&pinfo),
        recaled,
        Arc::clone(&vcf_out),
        false,
    ));

    pipeline.run().expect("pipeline executes");
    let fused = pipeline.fused_chains().len();
    let calls = vcf_out.dataset().collect_local();
    let (run, trace) = ctx.take_run_traced();
    let repartition = Repartition {
        table: serialize_batch(SerializerKind::Gpf, &[pinfo.info()]),
        instants: trace.events.iter().filter(|e| &*e.name == "repartition.split").count(),
    };
    (calls, run, fused, repartition)
}

/// Calls of `setup()`'s seed, and a floor just under their measured
/// precision (59 of 62 within a base of a planted variant, 0.952).
const PINNED_CALLS: usize = 62;
const PRECISION_FLOOR: f64 = 0.95;

#[test]
fn full_pipeline_recovers_planted_variants() {
    let s = setup();
    let (calls, ..) = run_pipeline(&s, true);
    assert!(!calls.is_empty(), "pipeline produced calls");
    let near = |c: &VcfRecord, t: &gpf_workloads::variants::PlantedVariant| {
        c.contig == t.pos.contig && c.pos.abs_diff(t.pos.pos) <= 1
    };
    let recalled = s.donor.truth.iter().filter(|t| calls.iter().any(|c| near(c, t))).count();
    let recall = recalled as f64 / s.donor.truth.len() as f64;
    assert!(
        recall > 0.55,
        "recall {recall:.2} ({recalled}/{}; {} calls)",
        s.donor.truth.len(),
        calls.len()
    );
    // The call set is a function of the seed: anything upstream that shifts
    // a recalibrated quality, an alignment or a duplicate mark shows here
    // first. Re-pin the count only with the cause in hand.
    let true_calls = calls.iter().filter(|c| s.donor.truth.iter().any(|t| near(c, t))).count();
    let precision = true_calls as f64 / calls.len() as f64;
    assert!(precision > PRECISION_FLOOR, "precision {precision:.3} ({true_calls}/{} calls)", calls.len());
    assert_eq!(calls.len(), PINNED_CALLS, "call count moved (precision {precision:.3}, recall {recall:.3})");
    // Calls are coordinate-sorted.
    for w in calls.windows(2) {
        assert!((w[0].contig, w[0].pos) <= (w[1].contig, w[1].pos));
    }
}

#[test]
fn fusion_preserves_output_and_cuts_stages() {
    let s = setup();
    let (calls_opt, run_opt, fused, repartition_opt) = run_pipeline(&s, true);
    let (calls_raw, run_raw, fused_raw, repartition_raw) = run_pipeline(&s, false);

    assert!(fused >= 1, "optimizer fused at least one chain");
    assert_eq!(fused_raw, 0, "optimizer disabled fuses nothing");

    // Semantic equivalence (Figure 7: the optimization must not change
    // results).
    assert_eq!(calls_opt.len(), calls_raw.len(), "same call count");
    for (a, b) in calls_opt.iter().zip(&calls_raw) {
        assert_eq!((a.contig, a.pos), (b.contig, b.pos));
        assert_eq!(a.alt_allele, b.alt_allele);
        assert_eq!(a.genotype, b.genotype);
    }

    // One §4.4 decision per pipeline, and the same one: fusion changes who
    // builds the bundles, never the table they are built from.
    assert_eq!((repartition_opt.instants, repartition_raw.instants), (1, 1));
    assert!(repartition_opt.table == repartition_raw.table, "published PartitionInfos differ");

    // Table 4 direction: fewer stages, less shuffle data.
    assert!(
        run_opt.num_stages() < run_raw.num_stages(),
        "stages {} (fused) < {} (raw)",
        run_opt.num_stages(),
        run_raw.num_stages()
    );
    assert!(
        run_opt.total_shuffle_bytes() < run_raw.total_shuffle_bytes(),
        "shuffle {} (fused) < {} (raw)",
        run_opt.total_shuffle_bytes(),
        run_raw.total_shuffle_bytes()
    );
}

#[test]
fn pipeline_records_three_phases() {
    let s = setup();
    let (_, run, ..) = run_pipeline(&s, true);
    let phases = run.phases();
    assert!(phases.contains(&"aligner".to_string()), "{phases:?}");
    assert!(phases.contains(&"cleaner".to_string()), "{phases:?}");
    assert!(phases.contains(&"caller".to_string()), "{phases:?}");
}

/// Faults off and no budget: every shuffle whose input nobody reads
/// afterwards *moves* its partitions (each map task frees the one it
/// serialized) — the temporaries of the Process that runs it (MarkDuplicate's
/// signatures, the Repartitioner's map-side combine, the bundle build's
/// keyed FASTA) and the Resources the fused chain is the last reader of
/// (`dbsnp`'s known sites and `dedupedSam`'s reads, handed over by
/// `consume()`). No shuffle borrows — the calls leave the Caller flattened
/// in partition order, with no shuffle of their own — and none copies a
/// record.
#[test]
fn shuffle_move_accounting_moves_temporaries_and_consumed_resources() {
    let s = setup();
    let count = |name: &str| {
        gpf_trace::counters_snapshot().iter().find(|(n, _)| *n == name).map_or(0, |(_, v)| *v)
    };
    use gpf_trace::names::{
        SHUFFLE_PARTITIONS_BORROWED as BORROWED, SHUFFLE_PARTITIONS_CLONED as CLONED,
        SHUFFLE_PARTITIONS_MOVED as MOVED,
    };
    let _one = ONE_PIPELINE.lock().unwrap_or_else(|e| e.into_inner());
    gpf_trace::set_enabled(true);
    let before = [MOVED, BORROWED, CLONED].map(count);
    let (calls, _, fused, _) = run_pipeline_unlocked(&s, true);
    let [moved, borrowed, cloned] = [MOVED, BORROWED, CLONED].map(count);
    gpf_trace::set_enabled(false);
    assert_eq!(fused, 1);
    assert_eq!(calls.len(), PINNED_CALLS);
    // Each over the six input partitions.
    assert_eq!(
        moved - before[0],
        5 * 6,
        "the signatures, the combined counts, the keyed FASTA, the known sites and the reads"
    );
    assert_eq!(borrowed - before[1], 0, "every shuffle's input is spent");
    assert_eq!(cloned - before[2], 0, "only a budget-tracked input is gathered by cloning");
}
