//! Cross-crate integration tests over the `gpf` facade: GPF vs the
//! Churchill comparator, failure injection, and engine counterfactual
//! invariants on real pipeline recordings.

use gpf::baselines::churchill::ChurchillPipeline;
use gpf::core::prelude::*;
use gpf::engine::sim::{blocked_time, simulate};
use gpf::engine::{Dataset, EngineConfig, EngineContext, SimCluster, SimOptions};
use gpf::workloads::readsim::{simulate_fastq_pairs, SimulatorConfig};
use gpf::workloads::refgen::ReferenceSpec;
use gpf::workloads::variants::{DonorGenome, VariantSpec};
use std::sync::Arc;

fn workload() -> (
    Arc<gpf::formats::ReferenceGenome>,
    DonorGenome,
    Vec<gpf::formats::FastqPair>,
    Vec<gpf::formats::vcf::VcfRecord>,
) {
    let reference = Arc::new(
        ReferenceSpec { contig_lengths: vec![60_000], seed: 808, ..Default::default() }.generate(),
    );
    let donor = DonorGenome::generate(
        &reference,
        &VariantSpec { snv_rate: 1e-3, indel_rate: 5e-5, seed: 4, ..Default::default() },
    );
    let pairs = simulate_fastq_pairs(
        &reference,
        &donor,
        SimulatorConfig { coverage: 22.0, duplicate_rate: 0.08, hotspot_count: 1, ..Default::default() },
    );
    let known = donor.known_sites(&reference, 0.8, 15, 3);
    (reference, donor, pairs, known)
}

/// GPF and Churchill are different systems running the same algorithms —
/// their call sets must largely agree (both recover the planted variants).
#[test]
fn gpf_and_churchill_call_consistent_variants() {
    let (reference, donor, pairs, known) = workload();

    // GPF (through the Pipeline runtime).
    let ctx = EngineContext::new(EngineConfig::gpf().with_parallelism(24));
    let mut pipeline = Pipeline::new("wgs", Arc::clone(&ctx));
    let dict = reference.dict().clone();
    let fastq = FastqPairBundle::defined(
        "fq",
        Dataset::from_vec(Arc::clone(&ctx), pairs.clone(), 24),
    );
    let dbsnp = VcfBundle::defined(
        "dbsnp",
        VcfHeaderInfo::new_header(dict.clone(), vec![]),
        Dataset::from_vec(Arc::clone(&ctx), known.clone(), 24),
    );
    let aligned = SamBundle::undefined("aligned", SamHeaderInfo::unsorted_header(dict.clone()));
    pipeline.add_process(BwaMemProcess::pair_end(
        "align",
        Arc::clone(&reference),
        fastq,
        Arc::clone(&aligned),
    ));
    let deduped = SamBundle::undefined("deduped", SamHeaderInfo::unsorted_header(dict.clone()));
    pipeline.add_process(MarkDuplicateProcess::new("dedup", aligned, Arc::clone(&deduped)));
    let pinfo = PartitionInfoBundle::undefined("pinfo");
    pipeline.add_process(ReadRepartitioner::new(
        "repart",
        vec![Arc::clone(&deduped)],
        Arc::clone(&pinfo),
        reference.dict().lengths(),
        4_000,
    ));
    let vcf = VcfBundle::undefined("vcf", VcfHeaderInfo::new_header(dict, vec!["s".into()]));
    pipeline.add_process(HaplotypeCallerProcess::new(
        "call",
        Arc::clone(&reference),
        Some(dbsnp),
        pinfo,
        deduped,
        Arc::clone(&vcf),
        false,
    ));
    pipeline.run().expect("gpf pipeline executes");
    let gpf_calls = vcf.dataset().collect_local();

    // Churchill on the same inputs.
    let churchill = ChurchillPipeline::new(Arc::clone(&reference), 6_000, 12);
    let (ch_calls, ch_run) = churchill.run(&pairs, &known);

    assert!(!gpf_calls.is_empty() && !ch_calls.is_empty());
    // Agreement: most GPF SNV calls appear in Churchill's set (±1bp).
    let snvs: Vec<_> = gpf_calls.iter().filter(|c| c.is_snv()).collect();
    let agree = snvs
        .iter()
        .filter(|g| ch_calls.iter().any(|c| c.contig == g.contig && c.pos.abs_diff(g.pos) <= 1))
        .count();
    assert!(
        agree as f64 / snvs.len().max(1) as f64 > 0.7,
        "agreement {agree}/{}",
        snvs.len()
    );
    // Both recover a majority of planted truth.
    for calls in [&gpf_calls, &ch_calls] {
        let recalled = donor
            .truth
            .iter()
            .filter(|t| calls.iter().any(|c| c.contig == t.pos.contig && c.pos.abs_diff(t.pos.pos) <= 1))
            .count();
        assert!(recalled * 2 > donor.truth.len(), "recall {recalled}/{}", donor.truth.len());
    }
    // Churchill's profile is disk-heavy (file handoffs between every step).
    assert!(ch_run.total_shuffle_bytes() > 0);
}

/// Malformed FASTQ input fails loudly at the loader, not deep in a Process.
#[test]
fn malformed_fastq_is_rejected_at_load() {
    let ctx = EngineContext::new(EngineConfig::gpf());
    let bad = "@read1\nACGT\nIIII\n"; // missing '+' separator
    match FileLoader::load_fastq_pair_to_rdd(&ctx, bad, bad, 2) {
        Err(gpf::core::PipelineError::Load(msg)) => assert!(msg.contains('+')),
        _ => panic!("expected a load error"),
    }
}

/// A circular Process graph is refused up front by the static validator,
/// with the actual cycle path in the diagnostic and the Algorithm-1
/// "circular dependency" wording preserved in the Display.
#[test]
fn circular_pipeline_is_detected() {
    let ctx = EngineContext::new(EngineConfig::gpf());
    let dict = gpf::formats::ContigDict::from_pairs([("chr1", 1_000u64)]);
    let a = SamBundle::undefined("a", SamHeaderInfo::unsorted_header(dict.clone()));
    let b = SamBundle::undefined("b", SamHeaderInfo::unsorted_header(dict.clone()));
    let mut pipeline = Pipeline::new("circular", ctx);
    pipeline.add_process(MarkDuplicateProcess::new("x", Arc::clone(&a), Arc::clone(&b)));
    pipeline.add_process(MarkDuplicateProcess::new("y", b, a));
    match pipeline.run() {
        Err(ref err @ gpf::core::PipelineError::Invalid(ref diags)) => {
            let cycle = diags
                .iter()
                .find_map(|d| match d.kind() {
                    gpf::core::DiagnosticKind::Cycle { path } => Some(path.clone()),
                    _ => None,
                })
                .expect("cycle diagnostic");
            // x -[b]-> y -[a]-> x: alternating path closing on itself.
            assert_eq!(cycle.len(), 5);
            assert_eq!(cycle.first(), cycle.last());
            // Compatibility Display still names the stuck Processes.
            let text = err.to_string();
            assert!(text.contains("circular dependency among processes:"), "{text}");
        }
        other => panic!("expected invalid-pipeline error, got {other:?}"),
    }
}

/// Simulator invariants on a real recorded pipeline: monotone in cores,
/// counterfactuals never exceed the baseline, utilization bounded.
#[test]
fn simulator_invariants_on_real_recording() {
    let (reference, _donor, pairs, known) = workload();
    let churchill = ChurchillPipeline::new(Arc::clone(&reference), 6_000, 16);
    let (_, run) = churchill.run(&pairs, &known);
    let opts = SimOptions::default();
    let mut last = f64::INFINITY;
    for cores in [64usize, 128, 256, 512, 1024] {
        let sim = simulate(&run, &SimCluster::paper_cluster(cores), &opts);
        assert!(sim.makespan_s <= last + 1e-9, "monotone at {cores}");
        assert!(sim.timeline.iter().all(|b| b.cpu_util <= 1.0 + 1e-9));
        last = sim.makespan_s;
    }
    let rep = blocked_time(&run, &SimCluster::paper_cluster(256), &opts);
    assert!(rep.without_disk_s <= rep.base_s);
    assert!(rep.without_net_s <= rep.base_s);
}

/// The GPF serializer keeps whole-pipeline shuffle volume below Kryo's.
#[test]
fn gpf_serializer_beats_kryo_on_pipeline_shuffles() {
    let (reference, _donor, pairs, _) = workload();
    let volumes: Vec<u64> = [EngineConfig::gpf(), EngineConfig::kryo()]
        .into_iter()
        .map(|cfg| {
            let ctx = EngineContext::new(cfg.with_parallelism(16));
            let aligner = gpf::align::BwaMemAligner::new(&reference);
            let ds = Dataset::from_vec(Arc::clone(&ctx), pairs.clone(), 16);
            let aligned = ds.flat_map(move |p| {
                let (a, b) = aligner.align_pair(p);
                [a, b]
            });
            let nparts = 16;
            let _ = aligned
                .map(|r| (r.pos, r.clone()))
                .into_partition_by_key(nparts, move |k: &u64| (*k % nparts as u64) as usize);
            ctx.take_run().total_shuffle_bytes()
        })
        .collect();
    assert!(volumes[0] < volumes[1], "gpf {} < kryo {}", volumes[0], volumes[1]);
}
