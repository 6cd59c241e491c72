//! The bundle-stage executor: IndelRealign, BQSR and the Caller run through
//! one chain executor whether they run alone or fused (§4.3, Figure 7).
//!
//! * Every bundle build is one `bundles:build` span — one per stage when the
//!   stages run alone, one for the whole chain when they fuse.
//! * A chain fuses only over one set of known sites: its bundles are built
//!   once, from the head's inputs, so a link whose known-sites Resource
//!   differs from the head's must run on its own, and the fused and unfused
//!   runs define the same records.

use gpf_align::BwaMemAligner;
use gpf_core::prelude::*;
use gpf_engine::{Dataset, EngineConfig, EngineContext};
use gpf_formats::sam::SamRecord;
use gpf_formats::vcf::VcfRecord;
use gpf_formats::ReferenceGenome;
use gpf_trace::{EventKind, Trace};
use gpf_workloads::readsim::{simulate_fastq_pairs, SimulatorConfig};
use gpf_workloads::refgen::ReferenceSpec;
use gpf_workloads::variants::{DonorGenome, VariantSpec};
use std::sync::{Arc, OnceLock};

const INPUT_PARTS: usize = 4;
const REGION_LEN: u64 = 3_000;

struct Setup {
    reference: Arc<ReferenceGenome>,
    aligned: Vec<SamRecord>,
    known: Vec<VcfRecord>,
}

fn setup() -> &'static Setup {
    static SETUP: OnceLock<Setup> = OnceLock::new();
    SETUP.get_or_init(|| {
        let reference = Arc::new(
            ReferenceSpec {
                contig_lengths: vec![18_000, 9_000],
                seed: 2028,
                repeat_fraction: 0.05,
                ..Default::default()
            }
            .generate(),
        );
        let donor = DonorGenome::generate(
            &reference,
            &VariantSpec { snv_rate: 2e-3, indel_rate: 2e-4, seed: 28, ..Default::default() },
        );
        let pairs = simulate_fastq_pairs(
            &reference,
            &donor,
            SimulatorConfig { coverage: 15.0, ..Default::default() },
        );
        let aligner = BwaMemAligner::new(&reference);
        let aligned = pairs
            .iter()
            .flat_map(|p| {
                let (a, b) = aligner.align_pair(p);
                [a, b]
            })
            .collect();
        let known = donor.known_sites(&reference, 0.7, 10, 77);
        Setup { reference, aligned, known }
    })
}

/// The stages of a pipeline over `setup()`'s aligned reads, with the known
/// sites each one names.
struct Stages {
    ctx: Arc<EngineContext>,
    pipeline: Pipeline,
    recaled: Arc<SamBundle>,
    calls: Option<Arc<VcfBundle>>,
}

/// IndelRealign (`dbsnp`) → BQSR (`bqsr_rod`), and the Caller (`dbsnp`)
/// after them when `with_caller`.
fn stages(optimize: bool, bqsr_rod: &str, with_caller: bool) -> Stages {
    let s = setup();
    let ctx = EngineContext::new(EngineConfig::gpf());
    let mut pipeline = Pipeline::new("bundle-chain", Arc::clone(&ctx));
    pipeline.set_optimize(optimize);
    let dict = s.reference.dict().clone();
    let sam_header = || SamHeaderInfo::unsorted_header(dict.clone());
    let sites = |name: &str, records: Vec<VcfRecord>| {
        VcfBundle::defined(
            name,
            VcfHeaderInfo::new_header(dict.clone(), vec![]),
            Dataset::from_vec(Arc::clone(&ctx), records, INPUT_PARTS),
        )
    };
    let dbsnp = sites("dbsnp", s.known.clone());
    let bqsr_sites = if bqsr_rod == "dbsnp" { Arc::clone(&dbsnp) } else { sites(bqsr_rod, Vec::new()) };
    let aligned = SamBundle::defined(
        "alignedSam",
        sam_header(),
        Dataset::from_vec(Arc::clone(&ctx), s.aligned.clone(), INPUT_PARTS),
    );
    let part_info = PartitionInfoBundle::undefined("partInfo");
    pipeline.add_process(ReadRepartitioner::new(
        "Repartitioner",
        vec![Arc::clone(&aligned)],
        Arc::clone(&part_info),
        dict.lengths(),
        REGION_LEN,
    ));

    let realigned = SamBundle::undefined("realignedSam", sam_header());
    pipeline.add_process(IndelRealignProcess::new(
        "Realign",
        Arc::clone(&s.reference),
        Some(Arc::clone(&dbsnp)),
        Arc::clone(&part_info),
        aligned,
        Arc::clone(&realigned),
    ));
    let recaled = SamBundle::undefined("recaledSam", sam_header());
    pipeline.add_process(BaseRecalibrationProcess::new(
        "BQSR",
        Arc::clone(&s.reference),
        Some(bqsr_sites),
        Arc::clone(&part_info),
        realigned,
        Arc::clone(&recaled),
    ));
    let calls = with_caller.then(|| {
        let calls =
            VcfBundle::undefined("ResultVCF", VcfHeaderInfo::new_header(dict.clone(), vec!["sample".into()]));
        pipeline.add_process(HaplotypeCallerProcess::new(
            "Caller",
            Arc::clone(&s.reference),
            Some(dbsnp),
            part_info,
            Arc::clone(&recaled),
            Arc::clone(&calls),
            false,
        ));
        calls
    });
    Stages { ctx, pipeline, recaled, calls }
}

fn bundle_builds(trace: &Trace) -> usize {
    trace
        .events
        .iter()
        .filter(|e| e.kind == EventKind::Begin && &*e.name == "bundles:build")
        .count()
}

#[test]
fn every_bundle_build_is_one_span_fused_or_not() {
    let mut calls = Vec::new();
    for (optimize, builds) in [(false, 3), (true, 1)] {
        let mut st = stages(optimize, "dbsnp", true);
        st.pipeline.run().expect("pipeline executes");
        assert_eq!(st.pipeline.fused_chains().len(), usize::from(optimize));
        let (_, trace) = st.ctx.take_run_traced();
        assert_eq!(bundle_builds(&trace), builds, "optimize = {optimize}");
        calls.push(st.calls.expect("the Caller ran").dataset().collect_local());
    }
    assert!(!calls[0].is_empty(), "the Caller called something");
    assert_eq!(calls[0], calls[1], "fusion changes who builds the bundles, never the calls");
}

#[test]
fn links_with_different_known_sites_do_not_fuse() {
    let sorted = |records: Vec<SamRecord>| {
        let mut keyed: Vec<(String, SamRecord)> =
            records.into_iter().map(|r| (format!("{r:?}"), r)).collect();
        keyed.sort_by(|a, b| a.0.cmp(&b.0));
        keyed.into_iter().map(|(_, r)| r).collect::<Vec<_>>()
    };
    let mut recaled = Vec::new();
    for optimize in [false, true] {
        let mut st = stages(optimize, "noSites", false);
        assert!(
            st.pipeline.check().fusion_chains().is_empty(),
            "Realign (dbsnp) and BQSR (noSites) reported as fusable"
        );
        st.pipeline.run().expect("pipeline executes");
        assert!(st.pipeline.fused_chains().is_empty(), "optimize = {optimize}");
        recaled.push(sorted(st.recaled.dataset().collect_local()));
    }
    assert_eq!(recaled[0].len(), setup().aligned.len());
    assert!(recaled[0] == recaled[1], "fused and unfused BQSR output differ");

    // The same pair over one set of known sites still fuses.
    let st = stages(true, "dbsnp", false);
    assert_eq!(st.pipeline.check().fusion_chains(), vec![vec!["Realign".to_string(), "BQSR".to_string()]]);
}
