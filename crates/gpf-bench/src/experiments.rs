//! One function per paper table/figure. Every report prints measured values
//! next to the paper's published numbers, and carries the paper's claims
//! about the artifact, each held against those numbers (see
//! [`crate::report::Paper`]); the claims decide the artifact's verdict. Our
//! substrate is a simulated cluster driven by real task measurements, not
//! the authors' 240-node testbed, so absolute times differ by construction.

use crate::report::{descending, fmt_bytes, sig3, ExperimentReport, Paper};
use crate::workload::WgsWorkload;
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
use gpf_formats::fastq::{FastqPair, FastqRecord};
use gpf_workloads::quality::QualityProfile;
use gpf_support::rng::StdRng;
use gpf_support::rng::SeedableRng;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Arc, OnceLock};

/// Runs of each job behind one replay.
const RUNS: usize = 3;

/// A job the tables replay on the simulated cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Job {
    /// The WGS pipeline, with (`fused`) or without §4.3's redundancy
    /// elimination.
    Gpf {
        /// Whether the optimizer fuses partition Processes.
        fused: bool,
    },
    /// The Churchill comparator on the same inputs.
    Churchill,
    /// One Cleaner kernel's Process under one flavor (Figure 11a–c).
    Kernel(Kernel, Flavor),
    /// Persona's SNAP, single-end, over the first mates of half the pairs
    /// (§5.2.3).
    PersonaSnap,
    /// GPF's paired-end BWA over the same half of the pairs.
    GpfAligner,
}

/// The Cleaner kernels Figure 11 compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// `MarkDuplicateProcess`.
    MarkDuplicate,
    /// `BaseRecalibrationProcess`.
    Bqsr,
    /// `IndelRealignProcess`.
    Realign,
}

/// A job as every table reads it.
pub struct Replay {
    /// The job with each task's minimum duration over its runs.
    pub run: JobRun,
    /// Serial seconds the job pays outside the engine: Persona's AGD
    /// conversion, 0 for every other job.
    pub conversion_s: f64,
}

type RunOnce = dyn Fn(&Lab, Job) -> Replay;

/// The shared workload and every job's replay, each built once, so the
/// tables that read the same job read the same numbers.
pub struct Lab {
    /// Workload scale factor.
    pub scale: f64,
    workload: OnceLock<WgsWorkload>,
    kernel_input: OnceLock<KernelInput>,
    run_once: Box<RunOnce>,
    replays: RefCell<Vec<(Job, Rc<Replay>)>>,
}

impl Lab {
    /// Create a lab at `scale`.
    pub fn new(scale: f64) -> Self {
        Self::with_runner(scale, Box::new(run_once))
    }

    fn with_runner(scale: f64, run_once: Box<RunOnce>) -> Self {
        Self {
            scale,
            workload: OnceLock::new(),
            kernel_input: OnceLock::new(),
            run_once,
            replays: RefCell::new(Vec::new()),
        }
    }

    /// The shared workload.
    pub fn workload(&self) -> &WgsWorkload {
        self.workload.get_or_init(|| WgsWorkload::build(self.scale, 2018))
    }

    /// `job` as the tables replay it: run three times on first use and
    /// merged to each task's minimum duration.
    pub fn replay(&self, job: Job) -> Rc<Replay> {
        let cached = self.replays.borrow().iter().find(|(j, _)| *j == job).map(|(_, r)| Rc::clone(r));
        if let Some(replay) = cached {
            return replay;
        }
        let runs: Vec<Replay> = (0..RUNS).map(|_| (self.run_once)(self, job)).collect();
        let conversion_s = runs[0].conversion_s;
        let run = min_of_runs(runs.into_iter().map(|r| r.run).collect());
        let replay = Rc::new(Replay { run, conversion_s });
        self.replays.borrow_mut().push((job, Rc::clone(&replay)));
        replay
    }

    fn kernel_input(&self) -> &KernelInput {
        self.kernel_input.get_or_init(|| {
            let w = self.workload();
            KernelInput {
                reference: Arc::clone(&w.reference),
                records: w.aligned_records().to_vec(),
                known: w.known.clone(),
                partition_len: w.partition_len,
                nparts: w.fastq_parts,
            }
        })
    }
}

/// The half of the pairs Figure 11(d)'s aligners read (§5.2.3).
fn aligner_pairs(w: &WgsWorkload) -> &[FastqPair] {
    &w.pairs[..w.pairs.len() / 2]
}

/// Execute `job` once on the host.
fn run_once(lab: &Lab, job: Job) -> Replay {
    let w = lab.workload();
    let mut conversion_s = 0.0;
    let run = match job {
        Job::Gpf { fused } => w.run_gpf(fused).run,
        Job::Churchill => w.run_churchill().1,
        Job::Kernel(kernel, flavor) => {
            let run = match kernel {
                Kernel::MarkDuplicate => run_markdup,
                Kernel::Bqsr => run_bqsr,
                Kernel::Realign => run_realign,
            };
            run(flavor, lab.kernel_input())
        }
        Job::PersonaSnap => {
            let reads: Vec<FastqRecord> = aligner_pairs(w).iter().map(|p| p.r1.clone()).collect();
            let snap = persona::run_snap_align(&w.reference, &w.snap(), &reads, w.fastq_parts);
            conversion_s = persona::conversion_seconds(snap.fastq_bytes, snap.bam_bytes);
            snap.run
        }
        Job::GpfAligner => {
            let ctx = EngineContext::new(EngineConfig::gpf().with_parallelism(w.fastq_parts));
            ctx.set_phase("aligner");
            let ds = Dataset::from_vec(Arc::clone(&ctx), aligner_pairs(w).to_vec(), w.fastq_parts);
            let aligner = Arc::clone(&w.aligner);
            let _ = ds
                .flat_map(move |p| {
                    let (a, b) = aligner.align_pair(p);
                    [a, b]
                })
                .len();
            ctx.take_run()
        }
    };
    Replay { run, conversion_s }
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

/// Parallel efficiency at `cores` against the 128-core baseline, percent.
fn efficiency(run: &JobRun, cpu_scale: f64, cores: usize) -> f64 {
    let t128 = sim_at(run, 128, cpu_scale).makespan_s;
    let tc = sim_at(run, cores, cpu_scale).makespan_s;
    100.0 * (t128 / tc) * 128.0 / cores as f64
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
    let mut io = Vec::new();
    for (name, fs, samples, cores_per_sample, paper_io, paper_cpu) in cases {
        let share = classic_pipeline_share(
            &fs,
            samples,
            cores_per_sample,
            TABLE1_BYTES_PER_SAMPLE,
            TABLE1_CPU_CORE_SECONDS,
        );
        io.push(share.io_percent());
        r.row(vec![
            name.to_string(),
            format!("{paper_io:.0}%"),
            format!("{:.0}%", share.io_percent()),
            format!("{paper_cpu:.0}%"),
            format!("{:.0}%", share.cpu_percent()),
        ]);
    }
    let grows = |one: f64, thirty: f64| (format!("{one:.0}% -> {thirty:.0}%"), thirty > one);
    let (ours, holds) = grows(io[0], io[2]);
    r.claim_order("Lustre: I/O share grows from 1 to 30 samples", "29% -> 60%", ours, holds);
    let (ours, holds) = grows(io[1], io[3]);
    r.claim_order("NFS: I/O share grows from 1 to 30 samples", "25% -> 74%", ours, holds);
    r.claim_order(
        "at 30 samples NFS saturates before Lustre",
        "74% > 60%",
        format!("{:.0}% vs {:.0}%", io[3], io[2]),
        io[3] > io[2],
    );
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
        let mode = 100.0 * raw.iter().max().copied().unwrap_or(0) as f64 / n as f64;
        let le1 = 100.0 * d_le1 as f64 / d_total as f64;
        let le10 = 100.0 * d_le10 as f64 / d_total as f64;
        r.row(vec![
            profile.name.to_string(),
            format!("{mode:.1}%"),
            format!("{le1:.1}%"),
            format!("{le10:.1}%"),
            format!("{:.1}", sum as f64 / n as f64),
        ]);
        r.claim_order(
            format!("{}: deltas concentrate, raw scores disperse", profile.name),
            "deltas near 0",
            format!("P(|delta| <= 1) {le1:.1}% vs mode {mode:.1}%"),
            le1 > mode,
        );
        r.claim_order(
            format!("{}: most adjacent deltas lie in 0-10", profile.name),
            "\"the vast majority\"",
            format!("{le10:.1}%"),
            le10 > 50.0,
        );
    }
    r
}

// ---------------------------------------------------------------------------
// Figure 10 — WGS scaling, GPF vs Churchill
// ---------------------------------------------------------------------------

/// Figure 10: execution time and speedup with increasing core counts.
pub fn fig10(lab: &Lab) -> ExperimentReport {
    let (gpf, churchill) = (lab.replay(Job::Gpf { fused: true }), lab.replay(Job::Churchill));
    let (gpf, churchill) = (&gpf.run, &churchill.run);
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
    let mut gpf_wins = 0;
    let mut ratio_1024 = f64::NAN;
    let mut eff_2048 = f64::NAN;
    for (i, &cores) in cores_list.iter().enumerate() {
        let g = sim_at(gpf, cores, GPF_CPU_FACTOR).makespan_s;
        let c = sim_at(churchill, cores, CHURCHILL_CPU_FACTOR).makespan_s;
        let eff = efficiency(gpf, GPF_CPU_FACTOR, cores);
        gpf_wins += usize::from(g < c);
        if cores == 1024 {
            ratio_1024 = c / g;
        }
        eff_2048 = eff;
        r.row(vec![
            cores.to_string(),
            sig3(g),
            format!("{:.2}x", g128 / g),
            format!("{eff:.0}%"),
            sig3(c),
            format!("{:.2}x", c / g),
            format!("{:.0}", paper_gpf[i]),
            if paper_ch[i].is_nan() { "-".into() } else { format!("{:.0}", paper_ch[i]) },
        ]);
    }
    r.claim("GPF parallel efficiency at 2048 cores", Paper::AtLeast(50.0), eff_2048, "%");
    r.claim_order(
        "GPF faster than Churchill at every core count",
        "4 of 4",
        format!("{gpf_wins} of {}", cores_list.len()),
        gpf_wins == cores_list.len(),
    );
    r.claim("Churchill/GPF at 1024 cores", Paper::About(3.0), ratio_1024, "x");
    r
}

// ---------------------------------------------------------------------------
// Figure 11 — kernel strong scaling vs ADAM / GATK4 / Persona
// ---------------------------------------------------------------------------

/// One Figure 11(a–c) panel: `flavors[0]` is GPF, and `paper[i]` is the
/// paper's factor for `flavors[i + 1]` over GPF.
fn fig11_kernel(
    id: &str,
    title: &str,
    lab: &Lab,
    kernel: Kernel,
    flavors: &[Flavor],
    paper: &[f64],
) -> ExperimentReport {
    let mut headers = vec!["cores".to_string()];
    for f in flavors {
        headers.push(format!("{} (s)", f.name()));
    }
    for f in flavors.iter().skip(1) {
        headers.push(format!("{}/GPF", f.name()));
    }
    let mut r = ExperimentReport::new(id, title, &headers.iter().map(|s| s.as_str()).collect::<Vec<_>>());
    let runs: Vec<(Flavor, Rc<Replay>)> =
        flavors.iter().map(|&f| (f, lab.replay(Job::Kernel(kernel, f)))).collect();
    let cores_list = [128usize, 256, 512, 1024];
    let mut gpf_wins = 0;
    let mut factors = Vec::new();
    for cores in cores_list {
        let times: Vec<f64> =
            runs.iter().map(|(f, replay)| sim_at(&replay.run, cores, f.cpu_factor()).makespan_s).collect();
        gpf_wins += usize::from(times[1..].iter().all(|&t| times[0] < t));
        factors = times[1..].iter().map(|t| t / times[0]).collect();
        let mut row = vec![cores.to_string()];
        row.extend(times.iter().map(|&t| sig3(t)));
        row.extend(factors.iter().map(|x| format!("{x:.1}x")));
        r.row(row);
    }
    r.claim_order(
        "GPF fastest at every core count",
        "4 of 4",
        format!("{gpf_wins} of {}", cores_list.len()),
        gpf_wins == cores_list.len(),
    );
    for ((f, &p), &x) in flavors[1..].iter().zip(paper).zip(&factors) {
        r.claim(format!("{}/GPF at 1024 cores", f.name()), Paper::About(p), x, "x");
    }
    r
}

/// Figure 11(a): MarkDuplicate strong scaling.
pub fn fig11a(lab: &Lab) -> ExperimentReport {
    fig11_kernel(
        "fig11a",
        "MarkDuplicate speedup (paper Figure 11a)",
        lab,
        Kernel::MarkDuplicate,
        &[Flavor::Gpf, Flavor::AdamLike, Flavor::Gatk4Like, Flavor::PersonaLike],
        &[7.3, 6.3, 10.0],
    )
}

/// Figure 11(b): BQSR strong scaling.
pub fn fig11b(lab: &Lab) -> ExperimentReport {
    fig11_kernel(
        "fig11b",
        "Base Recalibration speedup (paper Figure 11b)",
        lab,
        Kernel::Bqsr,
        &[Flavor::Gpf, Flavor::AdamLike, Flavor::Gatk4Like],
        &[6.4, 8.4],
    )
}

/// Figure 11(c): INDEL realignment strong scaling.
pub fn fig11c(lab: &Lab) -> ExperimentReport {
    let mut r = fig11_kernel(
        "fig11c",
        "INDEL Realignment speedup (paper Figure 11c)",
        lab,
        Kernel::Realign,
        &[Flavor::Gpf, Flavor::AdamLike],
        &[7.6],
    );
    r.note("GATK4 lacks a Spark realigner, so the paper compares ADAM only");
    r
}

/// Figure 11(d): aligner throughput (Gbases/s) — GPF-BWA vs Persona, with
/// and without AGD conversion charged.
pub fn fig11d(lab: &Lab) -> ExperimentReport {
    let half = aligner_pairs(lab.workload());
    // GPF aligns both mates; Persona's SNAP aligns mate 1 only.
    let gpf_bases: u64 = half.iter().map(|p| p.total_bases() as u64).sum();
    let snap_bases: u64 = half.iter().map(|p| p.r1.len() as u64).sum();
    let gpf = lab.replay(Job::GpfAligner);
    let snap = lab.replay(Job::PersonaSnap);

    let mut r = ExperimentReport::new(
        "fig11d",
        "aligner throughput, Gbases aligned / second (paper Figure 11d)",
        &["cores", "GPF BWA", "Persona SNAP", "Persona SNAP +AGD", "GPF/Persona (real)"],
    );
    let mut factor = f64::NAN;
    for cores in [128usize, 256, 512] {
        let g = sim_at(&gpf.run, cores, GPF_CPU_FACTOR).makespan_s;
        let p = sim_at(&snap.run, cores, Flavor::PersonaLike.cpu_factor()).makespan_s;
        let gpf_tp = gpf_bases as f64 / g / 1e9;
        let snap_tp = snap_bases as f64 / p / 1e9;
        let real_tp = snap_bases as f64 / (p + snap.conversion_s) / 1e9;
        factor = gpf_tp / real_tp;
        r.row(vec![
            cores.to_string(),
            format!("{gpf_tp:.4}"),
            format!("{snap_tp:.4}"),
            format!("{real_tp:.4}"),
            format!("{factor:.1}x"),
        ]);
    }
    r.claim(
        "GPF-BWA over Persona with AGD conversion, 512 cores",
        Paper::About(20.0),
        factor,
        "x",
    );
    r.note(format!(
        "AGD conversion charged at 360 MB/s in / 82 MB/s out = {}s serial \
         (paper: conversion is ~200x the 16.7s alignment time at scale)",
        sig3(snap.conversion_s)
    ));
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
            1.80,
        ),
        (
            "Segment SAM",
            sam.serialized_size(SerializerKind::KryoSim),
            sam.serialized_size(SerializerKind::Gpf),
            "22.8GB",
            "14.4GB",
            1.58,
        ),
        (
            "Generate Bundle RDD",
            bundles.serialized_size(SerializerKind::KryoSim),
            bundles.serialized_size(SerializerKind::Gpf),
            "27.0GB",
            "18.7GB",
            1.44,
        ),
    ];
    let mut ratios = Vec::new();
    for (stage, origin, compressed, po, pc, pr) in rows {
        let ratio = origin as f64 / compressed as f64;
        ratios.push(ratio);
        r.row(vec![
            stage.to_string(),
            fmt_bytes(origin),
            fmt_bytes(compressed),
            format!("{ratio:.2}x"),
            po.to_string(),
            pc.to_string(),
            format!("{pr:.2}x"),
        ]);
        r.claim(format!("{stage} compression ratio"), Paper::About(pr), ratio, "x");
    }
    r.claim_order(
        "the ratio dilutes FASTQ > SAM > bundles",
        "1.80x > 1.58x > 1.44x",
        ratios.iter().map(|x| format!("{x:.2}x")).collect::<Vec<_>>().join(" > "),
        descending(&ratios),
    );
    r
}

// ---------------------------------------------------------------------------
// Table 4 — redundancy elimination on/off
// ---------------------------------------------------------------------------

/// Table 4: effect of eliminating redundant partition/join operations.
pub fn table4(lab: &Lab) -> ExperimentReport {
    let (opt, raw) = (lab.replay(Job::Gpf { fused: true }), lab.replay(Job::Gpf { fused: false }));
    let (opt, raw) = (&opt.run, &raw.run);
    let sim_opt = sim_at(opt, 256, GPF_CPU_FACTOR);
    let sim_raw = sim_at(raw, 256, GPF_CPU_FACTOR);
    let mut r = ExperimentReport::new(
        "table4",
        "redundant shuffle elimination, 256 cores (paper Table 4)",
        &["metric", "optimized", "original", "paper optimized", "paper original"],
    );
    let mib = |run: &JobRun| run.total_shuffle_bytes() as f64 / (1024.0 * 1024.0);
    let metrics = [
        ("Running Time", sim_opt.makespan_s, sim_raw.makespan_s, "s", "18 min", "21 min"),
        ("Stage Num.", opt.num_stages() as f64, raw.num_stages() as f64, "", "22", "38"),
        ("Core Hour", sim_opt.core_hours(), sim_raw.core_hours(), "h", "63.98 h", "74.95 h"),
        ("GC Time", sim_opt.gc_s, sim_raw.gc_s, "core-s", "6.34 h", "7.16 h"),
        (
            "Shuffle Time",
            sim_opt.shuffle_time_s(),
            sim_raw.shuffle_time_s(),
            "core-s",
            "24.29 min",
            "46.83 min",
        ),
        ("Shuffle Data", mib(opt), mib(raw), "MiB", "187.0 GB", "326.1 GB"),
    ];
    for (metric, o, w, unit, paper_o, paper_w) in metrics {
        let show = |v: f64| format!("{} {unit}", sig3(v)).trim_end().to_string();
        r.claim_order(
            format!("fusion lowers {metric}"),
            format!("{paper_o} vs {paper_w}"),
            format!("{} vs {}", show(o), show(w)),
            o < w,
        );
        r.row(vec![metric.into(), show(o), show(w), paper_o.into(), paper_w.into()]);
    }
    r
}

// ---------------------------------------------------------------------------
// Figure 12 — blocked-time analysis
// ---------------------------------------------------------------------------

/// Figure 12: JCT improvement upper bound from removing disk / network time.
pub fn fig12(lab: &Lab) -> ExperimentReport {
    let gpf = lab.replay(Job::Gpf { fused: true });
    let run = &gpf.run;
    let mut cluster = SimCluster::paper_cluster(2048);
    cluster.cpu_scale = GPF_CPU_FACTOR;
    let opts = SimOptions::default();
    let mut r = ExperimentReport::new(
        "fig12",
        "blocked-time analysis: JCT reduction bounds (paper Figure 12)",
        &["phase", "w/o disk", "w/o network", "paper w/o disk", "paper w/o net"],
    );
    let paper = [("aligner", 2.73, 1.38), ("cleaner", 3.26, 0.79), ("caller", 2.68, 0.58)];
    let bound = |r: &mut ExperimentReport, phase: &str, job: &JobRun, p_disk: String, p_net: String| {
        let rep = blocked_time(job, &cluster, &opts);
        let (disk, net) = (100.0 * rep.disk_improvement(), 100.0 * rep.net_improvement());
        r.row(vec![phase.to_string(), format!("{disk:.2}%"), format!("{net:.2}%"), p_disk, p_net]);
        r.claim(format!("{phase}: JCT gain w/o disk + w/o network"), Paper::AtMost(4.6), disk + net, "%");
    };
    for (phase, p_disk, p_net) in paper {
        let sub = JobRun {
            stages: run.stages.iter().filter(|s| s.phase == phase).cloned().collect(),
        };
        if sub.stages.is_empty() {
            continue;
        }
        bound(&mut r, phase, &sub, format!("{p_disk:.2}%"), format!("{p_net:.2}%"));
    }
    bound(&mut r, "whole job", run, "<=4.6% combined".to_string(), "-".to_string());
    r
}

// ---------------------------------------------------------------------------
// Figure 13 — utilization timeline
// ---------------------------------------------------------------------------

/// Figure 13: per-interval CPU/disk/network utilization over the 2048-core
/// run, annotated with the active pipeline phase.
pub fn fig13(lab: &Lab) -> ExperimentReport {
    let gpf = lab.replay(Job::Gpf { fused: true });
    let run = &gpf.run;
    let mut cluster = SimCluster::paper_cluster(2048);
    cluster.cpu_scale = GPF_CPU_FACTOR;
    let opts = SimOptions { timeline_bins: 60, ..Default::default() };
    let sim = simulate(run, &cluster, &opts);
    let mut r = ExperimentReport::new(
        "fig13",
        "cluster utilization timeline at 2048 cores (paper Figure 13)",
        &["t (s)", "phase", "CPU util", "disk MB/s", "net MB/s"],
    );
    let mut peak_cpu: Vec<(String, f64)> = vec![("aligner".into(), 0.0), ("caller".into(), 0.0)];
    for bin in sim.timeline.iter().step_by(3) {
        let phase = sim
            .stage_spans
            .iter()
            .find(|s| bin.t_s >= s.start_s && bin.t_s < s.end_s)
            .map(|s| s.phase.clone())
            .unwrap_or_default();
        let cpu = (100.0 * bin.cpu_util).round();
        if let Some((_, peak)) = peak_cpu.iter_mut().find(|(p, _)| *p == phase) {
            *peak = peak.max(cpu);
        }
        r.row(vec![
            sig3(bin.t_s),
            phase,
            format!("{cpu:.0}%"),
            format!("{:.1}", bin.disk_bps / 1e6),
            format!("{:.1}", bin.net_bps / 1e6),
        ]);
    }
    for (phase, peak) in peak_cpu {
        r.claim(format!("CPU saturates in the {phase} (peak row)"), Paper::AtLeast(100.0), peak, "%");
    }
    let aligner_tasks =
        run.stages.iter().filter(|s| s.phase == "aligner").map(|s| s.num_tasks()).max().unwrap_or(0);
    r.note(format!("the aligner's widest stage runs {aligner_tasks} tasks on 2048 cores"));
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
    let rows = [
        ("GPF", "yes", 2048, GPF_CPU_FACTOR, Job::Gpf { fused: true }, Paper::AtLeast(50.0), ">50%"),
        ("Churchill", "no", 768, CHURCHILL_CPU_FACTOR, Job::Churchill, Paper::About(28.0), "28%"),
        (
            "ADAM (Cleaner)",
            "yes",
            1024,
            Flavor::AdamLike.cpu_factor(),
            Job::Kernel(Kernel::Bqsr, Flavor::AdamLike),
            Paper::About(14.8),
            "14.8%",
        ),
        (
            "GATK4 (Cleaner&Caller)",
            "yes",
            1024,
            Flavor::Gatk4Like.cpu_factor(),
            Job::Kernel(Kernel::Bqsr, Flavor::Gatk4Like),
            Paper::About(41.6),
            "41.6%",
        ),
        (
            "Persona (Aligner&Cleaner)",
            "no",
            512,
            Flavor::PersonaLike.cpu_factor(),
            Job::PersonaSnap,
            Paper::About(51.1),
            "51.1%",
        ),
    ];
    for (system, in_memory, cores, cpu, job, paper, paper_shown) in rows {
        let eff = efficiency(&lab.replay(job).run, cpu, cores);
        r.row(vec![
            system.into(),
            in_memory.into(),
            cores.to_string(),
            format!("{eff:.0}%"),
            paper_shown.into(),
        ]);
        r.claim(format!("{system} parallel efficiency at {cores} cores"), paper, eff, "%");
    }
    r.note("efficiency baseline: 128 cores; hardware model identical across systems");
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small real job, so the simulator has tasks to place.
    fn small_run() -> JobRun {
        let ctx = EngineContext::new(EngineConfig::gpf().with_parallelism(4));
        let ds = Dataset::from_vec(Arc::clone(&ctx), (0..4_000u64).collect::<Vec<_>>(), 8);
        let _ = ds.map(|x| x.wrapping_mul(0x9e37_79b9_7f4a_7c15)).len();
        ctx.take_run()
    }

    #[test]
    fn a_job_two_tables_read_runs_three_times() {
        let calls: Rc<RefCell<Vec<Job>>> = Rc::default();
        let seen = Rc::clone(&calls);
        let lab = Lab::with_runner(
            0.05,
            Box::new(move |_, job| {
                seen.borrow_mut().push(job);
                Replay { run: small_run(), conversion_s: 0.0 }
            }),
        );
        let fig10 = fig10(&lab);
        let table5 = table5(&lab);
        let calls = calls.borrow();
        let runs_of = |job: Job| calls.iter().filter(|&&j| j == job).count();
        assert_eq!(runs_of(Job::Gpf { fused: true }), RUNS, "read by Figure 10 and Table 5");
        assert_eq!(runs_of(Job::Churchill), RUNS, "read by Figure 10 and Table 5");
        assert_eq!(calls.len(), 5 * RUNS, "Table 5's five rows are five jobs");
        // Both tables print the one replay's GPF efficiency at 2,048 cores.
        assert_eq!(fig10.rows[4][3], table5.rows[0][3]);
        assert_eq!(fig10.claims[0].ours, table5.claims[0].ours);
    }

    #[test]
    fn min_of_runs_keeps_each_tasks_fastest_run() {
        let mut a = small_run();
        let mut b = a.clone();
        a.stages[0].task_cpu_s[0] = 1.0;
        b.stages[0].task_cpu_s[0] = 0.5;
        b.stages[0].task_cpu_s[1] = 9.0;
        let second = a.stages[0].task_cpu_s[1];
        let merged = min_of_runs(vec![a, b]);
        assert_eq!(merged.stages[0].task_cpu_s[0], 0.5);
        assert_eq!(merged.stages[0].task_cpu_s[1], second.min(9.0));
    }
}
