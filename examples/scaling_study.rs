//! Scaling study: record one real pipeline execution, then replay it on
//! simulated clusters of growing size — a miniature of the paper's
//! Figure 10 plus the Figure 12 blocked-time analysis.
//!
//! ```sh
//! cargo run --release --example scaling_study
//! ```

use gpf::engine::sim::{blocked_time, simulate};
use gpf::engine::{SimCluster, SimOptions};
use gpf_bench_like::*;

/// Minimal local reimplementation of the bench workload so the example has
/// no dev-only dependencies.
mod gpf_bench_like {
    use gpf::align::BwaMemAligner;
    use gpf::caller::HaplotypeCaller;
    use gpf::cleaner::{coordinate_sort, mark_duplicates};
    use gpf::engine::{Dataset, EngineConfig, EngineContext, JobRun};
    use gpf::workloads::readsim::{simulate_fastq_pairs, SimulatorConfig};
    use gpf::workloads::refgen::ReferenceSpec;
    use gpf::workloads::variants::{DonorGenome, VariantSpec};
    use std::sync::Arc;

    /// Run a compact align → dedup → call job and return its recording.
    pub fn record_compact_wgs() -> JobRun {
        let reference = Arc::new(
            ReferenceSpec { contig_lengths: vec![250_000, 150_000], seed: 1, ..Default::default() }
                .generate(),
        );
        let donor = DonorGenome::generate(&reference, &VariantSpec::default());
        let pairs = simulate_fastq_pairs(
            &reference,
            &donor,
            SimulatorConfig { coverage: 12.0, hotspot_count: 1, ..Default::default() },
        );
        let ctx = EngineContext::new(EngineConfig::gpf().with_parallelism(512));
        ctx.set_phase("aligner");
        let aligner = Arc::new(BwaMemAligner::new(&reference));
        let fastq = Dataset::from_vec(Arc::clone(&ctx), pairs, 512);
        let aligned = fastq.flat_map(move |p| {
            let (a, b) = aligner.align_pair(p);
            [a, b]
        });
        ctx.set_phase("cleaner");
        let nparts = 512;
        let deduped = aligned
            .map(|r| {
                let key = (r.contig, r.pos).min((r.mate_contig, r.mate_pos));
                ((key.0 as u64) << 40 | key.1, r.clone())
            })
            .into_partition_by_key(nparts, move |k: &u64| {
                (gpf::engine::dataset::stable_hash(k) % nparts as u64) as usize
            })
            .map_partitions(|part| {
                let mut records: Vec<_> = part.iter().map(|(_, r)| r.clone()).collect();
                mark_duplicates(&mut records);
                records
            });
        ctx.set_phase("caller");
        let reference2 = Arc::clone(&reference);
        let _calls = deduped.map_partitions(move |records| {
            let mut sorted = records.to_vec();
            coordinate_sort(&mut sorted);
            HaplotypeCaller.call(&sorted, &reference2)
        });
        ctx.take_run()
    }
}

fn main() {
    println!("recording one real pipeline execution...");
    let run = record_compact_wgs();
    println!(
        "recorded {} stages, {:.1} core-s CPU, {:.1} MiB shuffled\n",
        run.num_stages(),
        run.total_cpu_s(),
        run.total_shuffle_bytes() as f64 / (1 << 20) as f64
    );

    println!("{:<8} {:>12} {:>10} {:>12}", "cores", "time (s)", "speedup", "efficiency");
    let opts = SimOptions::default();
    let base = simulate(&run, &SimCluster::paper_cluster(128), &opts).makespan_s;
    for cores in [128usize, 256, 512, 1024, 2048] {
        let t = simulate(&run, &SimCluster::paper_cluster(cores), &opts).makespan_s;
        let speedup = base / t;
        println!(
            "{:<8} {:>12.3} {:>9.2}x {:>11.0}%",
            cores,
            t,
            speedup,
            100.0 * speedup * 128.0 / cores as f64
        );
    }

    let rep = blocked_time(&run, &SimCluster::paper_cluster(1024), &opts);
    println!(
        "\nblocked-time analysis @1024 cores: removing ALL disk time buys {:.1}%, \
         all network time {:.1}% — the job is CPU-bound, §5.3's conclusion.",
        100.0 * rep.disk_improvement(),
        100.0 * rep.net_improvement()
    );
}
