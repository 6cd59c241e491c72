//! `Pipeline::check()` — the pre-run static validator.
//!
//! Covers the ISSUE acceptance cases: a deliberately broken 4-process graph
//! must report the cycle path, the undefined input, and the dead outputs in
//! one pass; duplicate producers and aliasing (of one bundle kind or of
//! two) are errors;
//! and the Figure 7 fusion-eligibility report must match what `run()`
//! actually fuses.

use gpf_core::prelude::*;
use gpf_core::{DiagnosticKind, PipelineError, ResourceAny, ResourceState, Severity};
use gpf_engine::{Dataset, EngineConfig, EngineContext};
use gpf_formats::{ContigDict, SamRecord};
use std::sync::Arc;

fn ctx() -> Arc<EngineContext> {
    EngineContext::new(EngineConfig::gpf().with_parallelism(2))
}

fn header() -> SamHeaderInfo {
    SamHeaderInfo::unsorted_header(ContigDict::from_pairs([("chr1".to_string(), 50_000u64)]))
}

fn sam_undefined(name: &str) -> Arc<SamBundle> {
    SamBundle::undefined(name, header())
}

fn sam_defined(ctx: &Arc<EngineContext>, name: &str) -> Arc<SamBundle> {
    let empty = Dataset::from_vec(Arc::clone(ctx), Vec::<SamRecord>::new(), 2);
    SamBundle::defined(name, header(), empty)
}

/// The acceptance-criteria graph: four Processes where two form a cycle, one
/// reads an input nobody defines, and two leave unconsumed outputs. One
/// `check()` call reports every defect at once.
#[test]
fn broken_four_process_graph_reports_all_defects_in_one_pass() {
    let ctx = ctx();
    let mut pipeline = Pipeline::new("broken", Arc::clone(&ctx));

    let sam_a = sam_undefined("samA");
    let sam_b = sam_undefined("samB");
    // DedupA and DedupB form a cycle: A —samB→ B —samA→ A.
    pipeline.add_process(MarkDuplicateProcess::new(
        "DedupA",
        Arc::clone(&sam_a),
        Arc::clone(&sam_b),
    ));
    pipeline.add_process(MarkDuplicateProcess::new("DedupB", sam_b, sam_a));
    // DedupC reads samX, which nothing defines, and nobody reads its samY.
    pipeline.add_process(MarkDuplicateProcess::new(
        "DedupC",
        sam_undefined("samX"),
        sam_undefined("samY"),
    ));
    // DedupD is fine on the input side, but nobody reads its samZ either.
    pipeline.add_process(MarkDuplicateProcess::new(
        "DedupD",
        sam_defined(&ctx, "samIn"),
        sam_undefined("samZ"),
    ));

    let report = pipeline.check();
    assert!(!report.is_ok());

    // Exactly the expected defects, all from the single pass.
    let errors = report.errors();
    assert_eq!(errors.len(), 2, "{report}");
    let cycle_path = errors
        .iter()
        .find_map(|d| match d.kind() {
            DiagnosticKind::Cycle { path } => Some(path.clone()),
            _ => None,
        })
        .expect("cycle diagnostic present");
    assert_eq!(cycle_path.len(), 5, "two-process cycle path P -> r -> P -> r -> P");
    assert_eq!(cycle_path.first(), cycle_path.last(), "cycle path closes on itself");
    assert!(errors.iter().any(|d| matches!(
        d.kind(),
        DiagnosticKind::UndefinedInput { process, resource }
            if process == "DedupC" && resource == "samX"
    )));

    let warnings = report.warnings();
    let mut dead: Vec<(&str, &str)> = warnings
        .iter()
        .filter_map(|d| match d.kind() {
            DiagnosticKind::DeadOutput { process, resource } => {
                Some((process.as_str(), resource.as_str()))
            }
            _ => None,
        })
        .collect();
    dead.sort_unstable();
    assert_eq!(dead, vec![("DedupC", "samY"), ("DedupD", "samZ")]);

    // Diagnostics are ordered errors-first.
    let severities: Vec<Severity> =
        report.diagnostics().iter().map(|d| d.severity()).collect();
    let mut sorted = severities.clone();
    sorted.sort();
    assert_eq!(severities, sorted);

    // run() refuses to start and surfaces exactly the error-severity findings.
    match pipeline.run() {
        Err(PipelineError::Invalid(diags)) => {
            assert_eq!(diags.len(), 2);
            assert!(diags.iter().all(|d| d.severity() == Severity::Error));
        }
        other => panic!("expected Invalid, got {other:?}"),
    }
}

/// A three-process cycle comes back as the full alternating
/// Process → Resource → … → Process path, in deterministic DFS order.
#[test]
fn cycle_path_alternates_processes_and_resources() {
    let ctx = ctx();
    let mut pipeline = Pipeline::new("ring", Arc::clone(&ctx));
    let sam_a = sam_undefined("samA");
    let sam_b = sam_undefined("samB");
    let sam_c = sam_undefined("samC");
    pipeline.add_process(MarkDuplicateProcess::new("A", Arc::clone(&sam_a), Arc::clone(&sam_b)));
    pipeline.add_process(MarkDuplicateProcess::new("B", sam_b, Arc::clone(&sam_c)));
    pipeline.add_process(MarkDuplicateProcess::new("C", sam_c, sam_a));

    let report = pipeline.check();
    let path = report
        .errors()
        .iter()
        .find_map(|d| match d.kind() {
            DiagnosticKind::Cycle { path } => Some(path.clone()),
            _ => None,
        })
        .expect("cycle diagnostic present");
    // DFS starts at process 0, so the rotation is deterministic.
    assert_eq!(path, vec!["A", "samB", "B", "samC", "C", "samA", "A"]);
    // Display keeps the legacy "stuck processes" naming plus the path.
    let text = report.errors()[0].to_string();
    assert!(text.contains("circular dependency among processes:"), "{text}");
    assert!(text.contains("A -> [samB] -> B"), "{text}");
}

#[test]
fn duplicate_producer_is_an_error() {
    let ctx = ctx();
    let mut pipeline = Pipeline::new("dup", Arc::clone(&ctx));
    let out = sam_undefined("samOut");
    pipeline.add_process(MarkDuplicateProcess::new(
        "P1",
        sam_defined(&ctx, "in1"),
        Arc::clone(&out),
    ));
    pipeline.add_process(MarkDuplicateProcess::new("P2", sam_defined(&ctx, "in2"), out));

    let report = pipeline.check();
    assert!(!report.is_ok());
    assert!(report.errors().iter().any(|d| matches!(
        d.kind(),
        DiagnosticKind::DuplicateProducer { resource, producers }
            if resource == "samOut" && *producers == vec!["P1".to_string(), "P2".to_string()]
    )));
}

/// Same name bound to two distinct Resource objects: the producer would fill
/// one object while the consumer waits forever on the other.
#[test]
fn aliased_resource_name_is_an_error() {
    let ctx = ctx();
    let mut pipeline = Pipeline::new("alias", Arc::clone(&ctx));
    pipeline.add_process(MarkDuplicateProcess::new(
        "P1",
        sam_defined(&ctx, "in"),
        sam_undefined("shared"),
    ));
    // A *different* SamBundle object that happens to reuse the name.
    pipeline.add_process(MarkDuplicateProcess::new(
        "P2",
        sam_undefined("shared"),
        sam_undefined("out2"),
    ));

    let report = pipeline.check();
    assert!(!report.is_ok());
    assert!(report.errors().iter().any(|d| matches!(
        d.kind(),
        DiagnosticKind::AliasedResource { resource, referrers }
            if resource == "shared" && *referrers == vec!["P1".to_string(), "P2".to_string()]
    )));
}

#[test]
fn bundle_kind_mismatch_is_an_error() {
    let ctx = ctx();
    let mut pipeline = Pipeline::new("kinds", Arc::clone(&ctx));
    // "shared" as a SAM bundle here...
    pipeline.add_process(MarkDuplicateProcess::new(
        "Producer",
        sam_defined(&ctx, "in"),
        sam_undefined("shared"),
    ));
    // ...and as a PartitionInfo bundle here.
    pipeline.add_process(ReadRepartitioner::new(
        "Consumer",
        vec![sam_defined(&ctx, "otherSam")],
        PartitionInfoBundle::undefined("shared"),
        vec![50_000],
        5_000,
    ));

    // A Resource object has one kind, so two kinds under one name are two
    // objects: the aliasing defect.
    let report = pipeline.check();
    assert!(!report.is_ok());
    assert!(report.errors().iter().any(|d| matches!(
        d.kind(),
        DiagnosticKind::AliasedResource { resource, referrers }
            if resource == "shared"
                && *referrers == vec!["Producer".to_string(), "Consumer".to_string()]
    )));
}

/// A SAM whose `@SQ` lines are in another order than the reference's
/// contigs is valid SAM, but its contig ids would index the wrong contigs.
/// `run()` refuses it before any dataset work, naming the resource, the
/// Process and the first contig that differs; a known-sites VCF whose
/// dictionary stops short is refused the same way.
#[test]
fn bundle_dictionary_other_than_the_reference_is_an_error() {
    use gpf_workloads::refgen::ReferenceSpec;

    let reference = Arc::new(
        ReferenceSpec { contig_lengths: vec![3_000, 2_000], seed: 5, ..Default::default() }
            .generate(),
    );
    let swapped = ContigDict::from_pairs([("chr2", 2_000u64), ("chr1", 3_000)]);
    let ctx = ctx();
    let mut pipeline = Pipeline::new("dicts", Arc::clone(&ctx));
    let empty = Dataset::from_vec(Arc::clone(&ctx), Vec::<SamRecord>::new(), 2);
    let aligned = SamBundle::defined("alignedSam", SamHeaderInfo::unsorted_header(swapped), empty);
    let short = ContigDict::from_pairs([("chr1", 3_000u64)]);
    let known = Dataset::from_vec(Arc::clone(&ctx), Vec::new(), 2);
    let dbsnp = VcfBundle::defined("dbsnp", VcfHeaderInfo::new_header(short, vec![]), known);
    let pinfo = PartitionInfoBundle::undefined("partInfo");
    pipeline.add_process(ReadRepartitioner::new(
        "Repartitioner",
        vec![Arc::clone(&aligned)],
        Arc::clone(&pinfo),
        reference.dict().lengths(),
        1_000,
    ));
    let realigned =
        SamBundle::undefined("realignedSam", SamHeaderInfo::unsorted_header(reference.dict().clone()));
    pipeline.add_process(IndelRealignProcess::new(
        "IndelRealign",
        Arc::clone(&reference),
        Some(dbsnp),
        pinfo,
        aligned,
        Arc::clone(&realigned),
    ));

    let mismatches: Vec<(String, String, String)> = pipeline
        .check()
        .errors()
        .iter()
        .filter_map(|d| match d.kind() {
            DiagnosticKind::DictionaryMismatch { resource, process, contig } => {
                Some((resource.clone(), process.clone(), contig.clone()))
            }
            _ => None,
        })
        .collect();
    let row = |r: &str, p: &str, c: &str| (r.to_string(), p.to_string(), c.to_string());
    assert_eq!(
        mismatches,
        vec![
            row("alignedSam", "Repartitioner", "chr2"),
            row("alignedSam", "IndelRealign", "chr2"),
            row("dbsnp", "IndelRealign", "chr2"),
        ]
    );
    match pipeline.run() {
        Err(PipelineError::Invalid(errors)) => {
            assert_eq!(errors.len(), 3, "{errors:?}");
            let text = PipelineError::Invalid(errors).to_string();
            assert!(text.starts_with("invalid pipeline: "), "{text}");
            assert!(text.contains("`alignedSam`") && text.contains("`chr2`"), "{text}");
        }
        other => panic!("expected Invalid, got {other:?}"),
    }
    assert_eq!(realigned.state(), ResourceState::Undefined, "nothing ran");
}

/// The WGS template (Figure 3) is valid: check() passes, flags only the
/// terminal VCF as an unconsumed output, and its fusion-eligibility report
/// names exactly the chains `run()` then fuses.
#[test]
fn fusion_report_matches_what_run_fuses() {
    use gpf_workloads::readsim::{simulate_fastq_pairs, SimulatorConfig};
    use gpf_workloads::refgen::ReferenceSpec;
    use gpf_workloads::variants::{DonorGenome, VariantSpec};

    let reference = Arc::new(
        ReferenceSpec { contig_lengths: vec![30_000, 20_000], seed: 11, ..Default::default() }
            .generate(),
    );
    let donor = DonorGenome::generate(
        &reference,
        &VariantSpec { seed: 12, ..Default::default() },
    );
    let pairs = simulate_fastq_pairs(
        &reference,
        &donor,
        SimulatorConfig { coverage: 8.0, ..Default::default() },
    );
    let known_vcf = donor.known_sites(&reference, 0.7, 10, 13);

    for optimize in [true, false] {
        let ctx = EngineContext::new(EngineConfig::gpf().with_parallelism(4));
        let mut pipeline = Pipeline::new("wgs", Arc::clone(&ctx));
        pipeline.set_optimize(optimize);
        let dict = reference.dict().clone();

        let fastq_rdd = Dataset::from_vec(Arc::clone(&ctx), pairs.clone(), 4);
        let fastq_bundle = FastqPairBundle::defined("fastqPair", fastq_rdd);
        let known_rdd = Dataset::from_vec(Arc::clone(&ctx), known_vcf.clone(), 4);
        let dbsnp = VcfBundle::defined(
            "dbsnp",
            VcfHeaderInfo::new_header(dict.clone(), vec![]),
            known_rdd,
        );

        let aligned =
            SamBundle::undefined("alignedSam", SamHeaderInfo::unsorted_header(dict.clone()));
        pipeline.add_process(BwaMemProcess::pair_end(
            "BwaMapping",
            Arc::clone(&reference),
            fastq_bundle,
            Arc::clone(&aligned),
        ));
        let deduped =
            SamBundle::undefined("dedupedSam", SamHeaderInfo::unsorted_header(dict.clone()));
        pipeline.add_process(MarkDuplicateProcess::new(
            "MarkDuplicate",
            aligned,
            Arc::clone(&deduped),
        ));
        let pinfo = PartitionInfoBundle::undefined("partInfo");
        pipeline.add_process(ReadRepartitioner::new(
            "Repartitioner",
            vec![Arc::clone(&deduped)],
            Arc::clone(&pinfo),
            reference.dict().lengths(),
            5_000,
        ));
        let realigned =
            SamBundle::undefined("realignedSam", SamHeaderInfo::unsorted_header(dict.clone()));
        pipeline.add_process(IndelRealignProcess::new(
            "IndelRealign",
            Arc::clone(&reference),
            Some(Arc::clone(&dbsnp)),
            Arc::clone(&pinfo),
            deduped,
            Arc::clone(&realigned),
        ));
        let recaled =
            SamBundle::undefined("recaledSam", SamHeaderInfo::unsorted_header(dict.clone()));
        pipeline.add_process(BaseRecalibrationProcess::new(
            "BQSR",
            Arc::clone(&reference),
            Some(Arc::clone(&dbsnp)),
            Arc::clone(&pinfo),
            realigned,
            Arc::clone(&recaled),
        ));
        let vcf_out =
            VcfBundle::undefined("ResultVCF", VcfHeaderInfo::new_header(dict, vec!["s".into()]));
        pipeline.add_process(HaplotypeCallerProcess::new(
            "HaplotypeCaller",
            Arc::clone(&reference),
            Some(dbsnp),
            pinfo,
            recaled,
            vcf_out,
            false,
        ));

        let report = pipeline.check();
        assert!(report.is_ok(), "valid WGS graph:\n{report}");
        // The only warning is the terminal VCF nobody consumes in-graph.
        let warnings = report.warnings();
        assert_eq!(warnings.len(), 1, "{report}");
        assert!(matches!(
            warnings[0].kind(),
            DiagnosticKind::DeadOutput { resource, .. } if resource == "ResultVCF"
        ));

        let predicted = report.fusion_chains();
        if optimize {
            assert!(
                predicted
                    .iter()
                    .any(|c| c.len() > 1 && c.contains(&"IndelRealign".to_string())),
                "{predicted:?}"
            );
        } else {
            assert!(predicted.is_empty(), "{predicted:?}");
        }

        pipeline.run().expect("valid WGS graph executes");
        assert_eq!(
            predicted,
            pipeline.fused_chains().to_vec(),
            "check() predicted exactly what run() fused (optimize={optimize})"
        );
    }
}
