//! One function per paper table/figure. Every report prints measured values
//! next to the paper's published numbers; the reproduction target is the
//! *shape* (who wins, approximate factors, where scaling flattens), not the
//! absolute numbers — our substrate is a simulated cluster driven by real
//! task measurements, not the authors' 240-node testbed.

use crate::report::{fmt_bytes, ExperimentReport};
use crate::workload::{GpfRun, WgsWorkload};
use gpf_baselines::flavors::Flavor;
use gpf_baselines::kernels::{run_bqsr, run_markdup, run_realign, KernelInput};
use gpf_baselines::persona;
use gpf_compress::SerializerKind;
use gpf_core::partition::PartitionInfo;
use gpf_core::process::build_bundles;
use gpf_engine::fsmodel::{
    classic_pipeline_share, SharedFs, TABLE1_BYTES_PER_SAMPLE, TABLE1_CPU_CORE_SECONDS,
};
use gpf_engine::sim::{blocked_time, simulate, SimCluster, SimOptions};
use gpf_engine::{Dataset, EngineConfig, EngineContext, JobRun};
use gpf_workloads::quality::QualityProfile;
use gpf_support::rng::StdRng;
use gpf_support::rng::SeedableRng;
use std::sync::{Arc, OnceLock};

/// Lazily shared workload + pipeline runs, so `experiments all` builds each
/// expensive artifact exactly once.
pub struct Lab {
    /// Workload scale factor.
    pub scale: f64,
    workload: OnceLock<WgsWorkload>,
    gpf_opt: OnceLock<GpfRun>,
    gpf_raw: OnceLock<GpfRun>,
    churchill: OnceLock<JobRun>,
}

impl Lab {
    /// Create a lab at `scale`.
    pub fn new(scale: f64) -> Self {
        Self {
            scale,
            workload: OnceLock::new(),
            gpf_opt: OnceLock::new(),
            gpf_raw: OnceLock::new(),
            churchill: OnceLock::new(),
        }
    }

    /// The shared workload.
    pub fn workload(&self) -> &WgsWorkload {
        self.workload.get_or_init(|| WgsWorkload::build(self.scale, 2018))
    }

    /// GPF pipeline run with redundancy elimination.
    pub fn gpf_opt(&self) -> &GpfRun {
        self.gpf_opt.get_or_init(|| self.workload().run_gpf(true))
    }

    /// GPF pipeline run without redundancy elimination.
    pub fn gpf_raw(&self) -> &GpfRun {
        self.gpf_raw.get_or_init(|| self.workload().run_gpf(false))
    }

    /// Churchill comparator run.
    pub fn churchill(&self) -> &JobRun {
        self.churchill.get_or_init(|| self.workload().run_churchill().1)
    }

    fn kernel_input(&self) -> KernelInput {
        let w = self.workload();
        KernelInput {
            reference: Arc::clone(&w.reference),
            records: w.aligned_records().to_vec(),
            known: w.known.clone(),
            partition_len: w.partition_len,
            nparts: w.fastq_parts,
        }
    }
}

/// The paper's GPF runs on Scala/Spark; our kernels are native Rust. This
/// JVM-parity factor (see DESIGN.md §"Calibration") scales measured task CPU
/// so the simulated core-seconds-per-megabase match the paper's Table 4.
const GPF_CPU_FACTOR: f64 = 3.5;

/// Churchill's component mix (native bwa + JVM GATK/Picard tools, no
/// in-memory reuse) — calibrated to the paper's ~3x wall-clock gap.
const CHURCHILL_CPU_FACTOR: f64 = 5.0;

fn sim_at(run: &JobRun, cores: usize, cpu_scale: f64) -> gpf_engine::SimResult {
    let mut cluster = SimCluster::paper_cluster(cores);
    cluster.cpu_scale = cpu_scale;
    simulate(run, &cluster, &SimOptions::default())
}

/// Merge repeated executions of the same job by taking each task's minimum
/// duration across runs. Execution is deterministic, so stage structure is
/// identical; the minimum strips one-off host artifacts (allocator stalls,
/// page-fault bursts) that would otherwise masquerade as stragglers, while
/// systematic skew (hotspot pileups, repeat tangles) survives every repeat.
fn min_of_runs(mut runs: Vec<JobRun>) -> JobRun {
    let Some(mut base) = runs.pop() else {
        return JobRun::default();
    };
    for other in runs {
        assert_eq!(other.stages.len(), base.stages.len(), "same stage structure");
        for (b, o) in base.stages.iter_mut().zip(&other.stages) {
            for (bt, ot) in b.task_cpu_s.iter_mut().zip(&o.task_cpu_s) {
                *bt = bt.min(*ot);
            }
        }
    }
    base
}

/// Run a kernel several times and keep per-task minima.
fn stable_kernel_run(runner: &impl Fn() -> JobRun) -> JobRun {
    min_of_runs((0..3).map(|_| runner()).collect())
}

// ---------------------------------------------------------------------------
// Table 1 — I/O share of a classic pipeline on shared filesystems
// ---------------------------------------------------------------------------

/// Table 1: timing shares for scaling 1 → 30 samples on Lustre and NFS.
pub fn table1() -> ExperimentReport {
    let mut r = ExperimentReport::new(
        "table1",
        "I/O vs CPU share, classic file-based pipeline (paper Table 1)",
        &["config", "I/O % (paper)", "I/O % (ours)", "CPU % (paper)", "CPU % (ours)"],
    );
    let cases = [
        ("1 sample 96 cores Lustre", SharedFs::lustre(), 1usize, 96usize, 29.0, 71.0),
        ("1 sample 96 cores NFS", SharedFs::nfs(), 1, 96, 25.0, 75.0),
        ("30 samples 480 cores Lustre", SharedFs::lustre(), 30, 16, 60.0, 40.0),
        ("30 samples 480 cores NFS", SharedFs::nfs(), 30, 16, 74.0, 26.0),
    ];
    for (name, fs, samples, cores_per_sample, paper_io, paper_cpu) in cases {
        let share = classic_pipeline_share(
            &fs,
            samples,
            cores_per_sample,
            TABLE1_BYTES_PER_SAMPLE,
            TABLE1_CPU_CORE_SECONDS,
        );
        r.row(vec![
            name.to_string(),
            format!("{paper_io:.0}%"),
            format!("{:.0}%", share.io_percent()),
            format!("{paper_cpu:.0}%"),
            format!("{:.0}%", share.cpu_percent()),
        ]);
    }
    r.note("shape: I/O share grows with sample count; NFS saturates before Lustre");
    r
}

// ---------------------------------------------------------------------------
// Figure 5 — quality score and delta distributions
// ---------------------------------------------------------------------------

/// Figure 5: raw quality scores are dispersed; adjacent deltas concentrate
/// near zero.
pub fn fig5() -> ExperimentReport {
    let mut r = ExperimentReport::new(
        "fig5",
        "quality score vs adjacent-delta concentration (paper Figure 5)",
        &["sample", "mode mass (raw)", "P(|delta| <= 1)", "P(|delta| <= 10)", "mean qual char"],
    );
    for profile in [QualityProfile::srr622461_like(), QualityProfile::srr504516_like()] {
        let mut rng = StdRng::seed_from_u64(5);
        let mut raw = vec![0u64; 128];
        let mut d_total = 0u64;
        let mut d_le1 = 0u64;
        let mut d_le10 = 0u64;
        let mut sum = 0u64;
        let mut n = 0u64;
        for _ in 0..500 {
            let q = profile.sample(100, &mut rng);
            for w in q.windows(2) {
                let d = (w[1] as i32 - w[0] as i32).unsigned_abs();
                d_total += 1;
                if d <= 1 {
                    d_le1 += 1;
                }
                if d <= 10 {
                    d_le10 += 1;
                }
            }
            for &c in &q {
                raw[c as usize] += 1;
                sum += c as u64;
                n += 1;
            }
        }
        let mode = raw.iter().max().copied().unwrap_or(0);
        r.row(vec![
            profile.name.to_string(),
            format!("{:.1}%", 100.0 * mode as f64 / n as f64),
            format!("{:.1}%", 100.0 * d_le1 as f64 / d_total as f64),
            format!("{:.1}%", 100.0 * d_le10 as f64 / d_total as f64),
            format!("{:.1}", sum as f64 / n as f64),
        ]);
    }
    r.note("paper: \"the vast majority of adjacent quality score differences are ranged between 0-10\"");
    r.note("deltas are far more concentrated than raw scores -> delta+Huffman coding wins");
    r
}

// ---------------------------------------------------------------------------
// Figure 10 — WGS scaling, GPF vs Churchill
// ---------------------------------------------------------------------------

/// Figure 10: execution time and speedup with increasing core counts.
pub fn fig10(lab: &Lab) -> ExperimentReport {
    let gpf = &lab.gpf_opt().run;
    let churchill = lab.churchill();
    let mut r = ExperimentReport::new(
        "fig10",
        "WGS execution time & scalability (paper Figure 10)",
        &[
            "cores",
            "GPF (s)",
            "GPF speedup",
            "GPF eff.",
            "Churchill (s)",
            "Churchill/GPF",
            "paper GPF (min)",
            "paper Churchill (min)",
        ],
    );
    let paper_gpf = [174.0, 96.0, 57.0, 37.0, 24.0];
    let paper_ch = [320.0, 210.0, 150.0, 128.0, f64::NAN];
    let cores_list = [128usize, 256, 512, 1024, 2048];
    let g128 = sim_at(gpf, 128, GPF_CPU_FACTOR).makespan_s;
    for (i, &cores) in cores_list.iter().enumerate() {
        let g = sim_at(gpf, cores, GPF_CPU_FACTOR).makespan_s;
        let c = sim_at(churchill, cores, CHURCHILL_CPU_FACTOR).makespan_s;
        let speedup = g128 / g;
        let eff = 100.0 * speedup * 128.0 / cores as f64;
        r.row(vec![
            cores.to_string(),
            format!("{g:.1}"),
            format!("{speedup:.2}x"),
            format!("{eff:.0}%"),
            format!("{c:.1}"),
            format!("{:.2}x", c / g),
            format!("{:.0}", paper_gpf[i]),
            if paper_ch[i].is_nan() { "-".into() } else { format!("{:.0}", paper_ch[i]) },
        ]);
    }
    r.note("paper: GPF >50% parallel efficiency at 2048 cores, ~3x faster than Churchill");
    r.note("Churchill's static subregions + disk round-trips flatten its curve first");
    r
}

// ---------------------------------------------------------------------------
// Figure 11 — kernel strong scaling vs ADAM / GATK4 / Persona
// ---------------------------------------------------------------------------

fn fig11_kernel(
    id: &str,
    title: &str,
    lab: &Lab,
    runner: impl Fn(Flavor, &KernelInput) -> JobRun,
    flavors: &[Flavor],
    paper_note: &str,
) -> ExperimentReport {
    let input = lab.kernel_input();
    let mut headers = vec!["cores".to_string()];
    for f in flavors {
        headers.push(format!("{} (s)", f.name()));
    }
    for f in flavors.iter().skip(1) {
        headers.push(format!("{}/GPF", f.name()));
    }
    let mut r = ExperimentReport::new(id, title, &headers.iter().map(|s| s.as_str()).collect::<Vec<_>>());
    let runs: Vec<(Flavor, JobRun)> = flavors
        .iter()
        .map(|&f| (f, stable_kernel_run(&|| runner(f, &input))))
        .collect();
    for cores in [128usize, 256, 512, 1024] {
        let times: Vec<f64> =
            runs.iter().map(|(f, run)| sim_at(run, cores, f.cpu_factor()).makespan_s).collect();
        let mut row = vec![cores.to_string()];
        for t in &times {
            row.push(format!("{t:.2}"));
        }
        for t in times.iter().skip(1) {
            row.push(format!("{:.1}x", t / times[0]));
        }
        r.row(row);
    }
    r.note(paper_note);
    r
}

/// Figure 11(a): MarkDuplicate strong scaling.
pub fn fig11a(lab: &Lab) -> ExperimentReport {
    fig11_kernel(
        "fig11a",
        "MarkDuplicate speedup (paper Figure 11a)",
        lab,
        run_markdup,
        &[Flavor::Gpf, Flavor::AdamLike, Flavor::Gatk4Like, Flavor::PersonaLike],
        "paper: GPF 7.3x vs ADAM, 6.3x vs GATK4, ~10x vs Persona",
    )
}

/// Figure 11(b): BQSR strong scaling.
pub fn fig11b(lab: &Lab) -> ExperimentReport {
    let mut r = fig11_kernel(
        "fig11b",
        "Base Recalibration speedup (paper Figure 11b)",
        lab,
        run_bqsr,
        &[Flavor::Gpf, Flavor::AdamLike, Flavor::Gatk4Like],
        "paper: GPF 6.4x vs ADAM, 8.4x vs GATK4",
    );
    r.note("the Collect after BQSR is a serial step (mask-table broadcast) visible in all flavors");
    r
}

/// Figure 11(c): INDEL realignment strong scaling.
pub fn fig11c(lab: &Lab) -> ExperimentReport {
    fig11_kernel(
        "fig11c",
        "INDEL Realignment speedup (paper Figure 11c)",
        lab,
        run_realign,
        &[Flavor::Gpf, Flavor::AdamLike],
        "paper: GPF 7.6x vs ADAM (GATK4 lacks a Spark realigner)",
    )
}

/// Figure 11(d): aligner throughput (Gbases/s) — GPF-BWA vs Persona, with
/// and without AGD conversion charged.
pub fn fig11d(lab: &Lab) -> ExperimentReport {
    let w = lab.workload();
    // GPF: paired-end BWA through the engine (half the dataset, like §5.2.3).
    let half = &w.pairs[..w.pairs.len() / 2];
    let ctx = EngineContext::new(EngineConfig::gpf().with_parallelism(w.fastq_parts));
    ctx.set_phase("aligner");
    let ds = Dataset::from_vec(Arc::clone(&ctx), half.to_vec(), w.fastq_parts);
    let aligner = Arc::clone(&w.aligner);
    let aligned = ds.flat_map(move |p| {
        let (a, b) = aligner.align_pair(p);
        [a, b]
    });
    let gpf_bases: u64 = half.iter().map(|p| p.total_bases() as u64).sum();
    let _ = aligned.len();
    let gpf_run = ctx.take_run();

    // Persona: SNAP single-end on the same reads (mate 1 only).
    let reads: Vec<gpf_formats::FastqRecord> = half.iter().map(|p| p.r1.clone()).collect();
    let snap = w.snap();
    let persona = persona::run_snap_align(&w.reference, &snap, &reads, w.fastq_parts);
    let conversion_s = persona::conversion_seconds(persona.fastq_bytes, persona.bam_bytes);

    let mut r = ExperimentReport::new(
        "fig11d",
        "aligner throughput, Gbases aligned / second (paper Figure 11d)",
        &[
            "cores",
            "GPF BWA",
            "Persona SNAP",
            "Persona SNAP +AGD",
            "Persona/GPF (real)",
        ],
    );
    for cores in [128usize, 256, 512] {
        let g = sim_at(&gpf_run, cores, GPF_CPU_FACTOR).makespan_s;
        let p = sim_at(&persona.run, cores, Flavor::PersonaLike.cpu_factor()).makespan_s;
        let gpf_tp = gpf_bases as f64 / g / 1e9;
        let snap_tp = persona.bases as f64 / p / 1e9;
        let real_tp = persona.bases as f64 / (p + conversion_s) / 1e9;
        r.row(vec![
            cores.to_string(),
            format!("{gpf_tp:.4}"),
            format!("{snap_tp:.4}"),
            format!("{real_tp:.4}"),
            format!("{:.1}x", gpf_tp / real_tp),
        ]);
    }
    r.note(format!(
        "AGD conversion charged at 360 MB/s in / 82 MB/s out = {conversion_s:.1}s serial \
         (paper: conversion is ~200x the 16.7s alignment time at scale)"
    ));
    r.note("paper: with conversion counted, Persona's effective throughput is ~20x below GPF-BWA");
    r
}

// ---------------------------------------------------------------------------
// Table 3 — genomic data compression per pipeline stage
// ---------------------------------------------------------------------------

/// Table 3: serialized sizes of three stage payloads, Kryo-origin vs GPF.
pub fn table3(lab: &Lab) -> ExperimentReport {
    let w = lab.workload();
    let ctx = EngineContext::new(EngineConfig::gpf().with_parallelism(64));
    let fastq = Dataset::from_vec(Arc::clone(&ctx), w.pairs.clone(), 64);
    let sam = Dataset::from_vec(Arc::clone(&ctx), w.aligned_records().to_vec(), 64);
    let info = PartitionInfo::new(&w.reference.dict().lengths(), w.partition_len);
    let known = Dataset::from_vec(Arc::clone(&ctx), w.known.clone(), 64);
    let bundles = build_bundles(&ctx, &w.reference, &info, &sam, Some(&known));

    let mut r = ExperimentReport::new(
        "table3",
        "efficient compression of genomic data (paper Table 3)",
        &["stage", "origin", "compressed", "ratio", "paper origin", "paper compressed", "paper ratio"],
    );
    let rows: [(&str, u64, u64, &str, &str, f64); 3] = [
        (
            "Load FASTQ",
            fastq.serialized_size(SerializerKind::KryoSim),
            fastq.serialized_size(SerializerKind::Gpf),
            "20.0GB",
            "11.1GB",
            20.0 / 11.1,
        ),
        (
            "Segment SAM",
            sam.serialized_size(SerializerKind::KryoSim),
            sam.serialized_size(SerializerKind::Gpf),
            "22.8GB",
            "14.4GB",
            22.8 / 14.4,
        ),
        (
            "Generate Bundle RDD",
            bundles.serialized_size(SerializerKind::KryoSim),
            bundles.serialized_size(SerializerKind::Gpf),
            "27.0GB",
            "18.7GB",
            27.0 / 18.7,
        ),
    ];
    for (stage, origin, compressed, po, pc, pr) in rows {
        r.row(vec![
            stage.to_string(),
            fmt_bytes(origin),
            fmt_bytes(compressed),
            format!("{:.2}x", origin as f64 / compressed as f64),
            po.to_string(),
            pc.to_string(),
            format!("{pr:.2}x"),
        ]);
    }
    r.note("shape: FASTQ compresses best (seq+qual dominate); bundles dilute as uncompressed fields grow");
    r
}

// ---------------------------------------------------------------------------
// Table 4 — redundancy elimination on/off
// ---------------------------------------------------------------------------

/// Table 4: effect of eliminating redundant partition/join operations.
pub fn table4(lab: &Lab) -> ExperimentReport {
    let opt = lab.gpf_opt();
    let raw = lab.gpf_raw();
    let sim_opt = sim_at(&opt.run, 256, GPF_CPU_FACTOR);
    let sim_raw = sim_at(&raw.run, 256, GPF_CPU_FACTOR);
    let mut r = ExperimentReport::new(
        "table4",
        "redundant shuffle elimination, 256 cores (paper Table 4)",
        &["metric", "optimized", "original", "paper optimized", "paper original"],
    );
    r.row(vec![
        "Running Time".into(),
        format!("{:.1} s", sim_opt.makespan_s),
        format!("{:.1} s", sim_raw.makespan_s),
        "18 min".into(),
        "21 min".into(),
    ]);
    r.row(vec![
        "Stage Num.".into(),
        opt.run.num_stages().to_string(),
        raw.run.num_stages().to_string(),
        "22".into(),
        "38".into(),
    ]);
    r.row(vec![
        "Core Hour".into(),
        format!("{:.2} h", sim_opt.core_hours()),
        format!("{:.2} h", sim_raw.core_hours()),
        "63.98 h".into(),
        "74.95 h".into(),
    ]);
    r.row(vec![
        "GC Time".into(),
        format!("{:.1} core-s", sim_opt.gc_s),
        format!("{:.1} core-s", sim_raw.gc_s),
        "6.34 h".into(),
        "7.16 h".into(),
    ]);
    r.row(vec![
        "Shuffle Time".into(),
        format!("{:.1} core-s", sim_opt.shuffle_time_s()),
        format!("{:.1} core-s", sim_raw.shuffle_time_s()),
        "24.29 min".into(),
        "46.83 min".into(),
    ]);
    r.row(vec![
        "Shuffle Data".into(),
        fmt_bytes(opt.run.total_shuffle_bytes()),
        fmt_bytes(raw.run.total_shuffle_bytes()),
        "187.0 GB".into(),
        "326.1 GB".into(),
    ]);
    r.note(format!("fused chains detected: {}", opt.fused_chains));
    r.note("shape: every metric improves with fusion; shuffle data drops the most");
    r
}

// ---------------------------------------------------------------------------
// Figure 12 — blocked-time analysis
// ---------------------------------------------------------------------------

/// Figure 12: JCT improvement upper bound from removing disk / network time.
pub fn fig12(lab: &Lab) -> ExperimentReport {
    let run = &lab.gpf_opt().run;
    let mut cluster = SimCluster::paper_cluster(2048);
    cluster.cpu_scale = GPF_CPU_FACTOR;
    let opts = SimOptions::default();
    let mut r = ExperimentReport::new(
        "fig12",
        "blocked-time analysis: JCT reduction bounds (paper Figure 12)",
        &["phase", "w/o disk", "w/o network", "paper w/o disk", "paper w/o net"],
    );
    let paper = [("aligner", 2.73, 1.38), ("cleaner", 3.26, 0.79), ("caller", 2.68, 0.58)];
    for (phase, p_disk, p_net) in paper {
        let sub = JobRun {
            stages: run.stages.iter().filter(|s| s.phase == phase).cloned().collect(),
        };
        if sub.stages.is_empty() {
            continue;
        }
        let rep = blocked_time(&sub, &cluster, &opts);
        r.row(vec![
            phase.to_string(),
            format!("{:.2}%", 100.0 * rep.disk_improvement()),
            format!("{:.2}%", 100.0 * rep.net_improvement()),
            format!("{p_disk:.2}%"),
            format!("{p_net:.2}%"),
        ]);
    }
    let whole = blocked_time(run, &cluster, &opts);
    r.row(vec![
        "whole job".to_string(),
        format!("{:.2}%", 100.0 * whole.disk_improvement()),
        format!("{:.2}%", 100.0 * whole.net_improvement()),
        "<=4.6% combined".to_string(),
        "-".to_string(),
    ]);
    r.note("paper conclusion: I/O cannot improve JCT more than ~4.6% — GPF is CPU-bound");
    r
}

// ---------------------------------------------------------------------------
// Figure 13 — utilization timeline
// ---------------------------------------------------------------------------

/// Figure 13: per-interval CPU/disk/network utilization over the 2048-core
/// run, annotated with the active pipeline phase.
pub fn fig13(lab: &Lab) -> ExperimentReport {
    let run = &lab.gpf_opt().run;
    let mut cluster = SimCluster::paper_cluster(2048);
    cluster.cpu_scale = GPF_CPU_FACTOR;
    let opts = SimOptions { timeline_bins: 60, ..Default::default() };
    let sim = simulate(run, &cluster, &opts);
    let mut r = ExperimentReport::new(
        "fig13",
        "cluster utilization timeline at 2048 cores (paper Figure 13)",
        &["t (s)", "phase", "CPU util", "disk MB/s", "net MB/s"],
    );
    for bin in sim.timeline.iter().step_by(3) {
        let phase = sim
            .stage_spans
            .iter()
            .find(|s| bin.t_s >= s.start_s && bin.t_s < s.end_s)
            .map(|s| s.phase.clone())
            .unwrap_or_default();
        r.row(vec![
            format!("{:.1}", bin.t_s),
            phase,
            format!("{:.0}%", 100.0 * bin.cpu_util),
            format!("{:.1}", bin.disk_bps / 1e6),
            format!("{:.1}", bin.net_bps / 1e6),
        ]);
    }
    r.note("shape: CPU saturates during aligner and caller; disk/net spike at stage boundaries");
    r
}

// ---------------------------------------------------------------------------
// Table 5 — platform comparison
// ---------------------------------------------------------------------------

/// Table 5: parallel efficiency of the compared platforms.
pub fn table5(lab: &Lab) -> ExperimentReport {
    let mut r = ExperimentReport::new(
        "table5",
        "platform comparison (paper Table 5)",
        &["system", "in-memory", "#cores", "parallel eff. (ours)", "paper eff."],
    );
    let gpf = &lab.gpf_opt().run;
    let eff = |run: &JobRun, cpu: f64, cores: usize| {
        let t1 = sim_at(run, 128, cpu).makespan_s;
        let tc = sim_at(run, cores, cpu).makespan_s;
        100.0 * (t1 / tc) * 128.0 / cores as f64
    };
    r.row(vec![
        "GPF".into(),
        "yes".into(),
        "2048".into(),
        format!("{:.0}%", eff(gpf, GPF_CPU_FACTOR, 2048)),
        ">50%".into(),
    ]);
    r.row(vec![
        "Churchill".into(),
        "no".into(),
        "768".into(),
        format!("{:.0}%", eff(lab.churchill(), CHURCHILL_CPU_FACTOR, 768)),
        "28%".into(),
    ]);
    let input = lab.kernel_input();
    let adam = run_bqsr(Flavor::AdamLike, &input);
    r.row(vec![
        "ADAM (Cleaner)".into(),
        "yes".into(),
        "1024".into(),
        format!("{:.0}%", eff(&adam, Flavor::AdamLike.cpu_factor(), 1024)),
        "14.8%".into(),
    ]);
    let gatk = run_bqsr(Flavor::Gatk4Like, &input);
    r.row(vec![
        "GATK4 (Cleaner&Caller)".into(),
        "yes".into(),
        "1024".into(),
        format!("{:.0}%", eff(&gatk, Flavor::Gatk4Like.cpu_factor(), 1024)),
        "41.6%".into(),
    ]);
    let w = lab.workload();
    let reads: Vec<gpf_formats::FastqRecord> =
        w.pairs.iter().take(w.pairs.len() / 2).map(|p| p.r1.clone()).collect();
    let snap = w.snap();
    let persona = persona::run_snap_align(&w.reference, &snap, &reads, w.fastq_parts);
    r.row(vec![
        "Persona (Aligner&Cleaner)".into(),
        "no".into(),
        "512".into(),
        format!("{:.0}%", eff(&persona.run, Flavor::PersonaLike.cpu_factor(), 512)),
        "51.1%".into(),
    ]);
    r.note("efficiency baseline: 128 cores; hardware model identical across systems");
    r
}

/// Run every experiment, in paper order.
pub fn all(scale: f64) -> Vec<ExperimentReport> {
    let lab = Lab::new(scale);
    vec![
        table1(),
        fig5(),
        fig10(&lab),
        fig11a(&lab),
        fig11b(&lab),
        fig11c(&lab),
        fig11d(&lab),
        table3(&lab),
        table4(&lab),
        fig12(&lab),
        fig13(&lab),
        table5(&lab),
    ]
}
