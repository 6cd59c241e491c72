//! Trace tour: run a small GPF pipeline with tracing on, then look at the
//! run three ways — the terminal report, a Chrome/Perfetto trace file, and
//! the global counter registry.
//!
//! ```sh
//! cargo run --release --example trace_tour
//! # then open https://ui.perfetto.dev and load /tmp/gpf_trace.json
//! ```

use gpf::core::prelude::*;
use gpf::engine::{Dataset, EngineConfig, EngineContext};
use gpf::trace::sink::{chrome_trace, text_report};
use gpf::workloads::readsim::{simulate_fastq_pairs, SimulatorConfig};
use gpf::workloads::refgen::ReferenceSpec;
use gpf::workloads::variants::{DonorGenome, VariantSpec};
use std::sync::Arc;

fn main() {
    // Tracing is off by default (the engine still derives its metrics from
    // the event stream either way); turning it on adds the engine's task
    // Begin events and the global counters printed at the end.
    gpf::trace::set_enabled(true);

    // A tiny workload: synthetic genome, simulated paired-end reads.
    let reference = Arc::new(ReferenceSpec::small(7).generate());
    let donor = DonorGenome::generate(&reference, &VariantSpec::default());
    let pairs = simulate_fastq_pairs(
        &reference,
        &donor,
        SimulatorConfig { coverage: 12.0, ..Default::default() },
    );
    let known = donor.known_sites(&reference, 0.8, 20, 99);

    // An application can add its own spans/counters next to the engine's:
    // a span opened on the context's log lands in the trace exported below.
    let ctx = EngineContext::new(EngineConfig::gpf().with_parallelism(32));
    let mut pipeline = Pipeline::new("traceTour", Arc::clone(&ctx));
    let dict = reference.dict().clone();
    {
        let mut setup =
            gpf::trace::span_in(ctx.trace_log(), "setup:graph", gpf::trace::Category::Other);

        let fastq = FastqPairBundle::defined(
            "fastqPair",
            Dataset::from_vec(Arc::clone(&ctx), pairs, 32),
        );
        let dbsnp = VcfBundle::defined(
            "dbsnp",
            VcfHeaderInfo::new_header(dict.clone(), vec![]),
            Dataset::from_vec(Arc::clone(&ctx), known, 32),
        );
        let aligned =
            SamBundle::undefined("alignedSam", SamHeaderInfo::unsorted_header(dict.clone()));
        pipeline.add_process(BwaMemProcess::pair_end(
            "Mapping",
            Arc::clone(&reference),
            fastq,
            Arc::clone(&aligned),
        ));
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
            reference.dict().lengths(),
            4_000,
        ));
        let vcf = VcfBundle::undefined(
            "ResultVCF",
            VcfHeaderInfo::new_header(dict, vec!["sample1".into()]),
        );
        pipeline.add_process(HaplotypeCallerProcess::new(
            "Caller",
            Arc::clone(&reference),
            Some(dbsnp),
            pinfo,
            deduped,
            Arc::clone(&vcf),
            false,
        ));
        setup.add_counter("processes", 4);
    }

    pipeline.run().expect("pipeline executes");

    // One drain yields both views of the run: the JobRun the simulator
    // consumes, and the raw event stream it was derived from.
    let (run, trace) = ctx.take_run_traced();
    println!(
        "run: {} stages, {:.2} core-s cpu, {:.1} KiB shuffled\n",
        run.num_stages(),
        run.total_cpu_s(),
        run.total_shuffle_bytes() as f64 / 1024.0
    );

    // View 1: terminal report (top spans, per-phase cpu, fig-12 breakdown).
    println!("{}", text_report(&trace, 5));

    // View 2: Chrome trace JSON for https://ui.perfetto.dev.
    let path = std::env::temp_dir().join("gpf_trace.json");
    std::fs::write(&path, chrome_trace(&trace)).expect("write trace");
    println!("wrote {} ({} events) - load it at https://ui.perfetto.dev", path.display(), trace.events.len());

    // View 3: the global counter registry (codec + scheduler counters land
    // here alongside anything the application added).
    println!("\nglobal counters:");
    for (name, value) in gpf::trace::counters_snapshot() {
        println!("  {name:<28} {value}");
    }
}
