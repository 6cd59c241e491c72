//! One child process = what one user does: read the generated files, set
//! up, and execute one workload's pipeline once, cold and untraced, from
//! input text in memory to VCF text in memory. Prints one [`Record`] line.

use crate::gen;
use crate::record::Record;
use crate::score::score;
use crate::workload::{Input, Workload};
use gpf_align::BwaMemAligner;
use gpf_core::prelude::*;
use gpf_core::PipelineError;
use gpf_engine::{Dataset, EngineConfig, EngineContext, JobRun};
use gpf_formats::sam::parse_sam;
use gpf_formats::vcf::{format_vcf, parse_vcf, VcfRecord};
use gpf_formats::ReferenceGenome;
use gpf_trace::names as tn;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// How a diagnostic run differs from a measured one.
#[derive(Debug, Clone, Copy)]
pub struct ChildOpts {
    /// `Pipeline::set_optimize` — the §4.3 redundancy elimination.
    pub optimize: bool,
    /// `gpf_trace::set_enabled(true)`: the kernels count their cells.
    pub trace: bool,
}

/// Everything set-up produces; the timed region starts from this.
struct Setup {
    reference: Arc<ReferenceGenome>,
    known: Vec<VcfRecord>,
    aligner: Option<Arc<BwaMemAligner>>,
    /// `reads_1.fastq` or `aligned.sam`.
    text_a: String,
    /// `reads_2.fastq` (empty for SAM input).
    text_b: String,
}

struct Executed {
    vcf_text: String,
    calls: Vec<VcfRecord>,
    run: JobRun,
    /// Task CPU seconds per pipeline phase tag.
    phase_cpu: Vec<(String, f64)>,
    /// Events the engine's bounded trace ring dropped.
    trace_dropped: u64,
    fused_chains: usize,
    ledger_peak: u64,
    reads: usize,
    bases: usize,
    load_s: f64,
    vcf_write_s: f64,
}

/// Run one child. `started` is the process start; set-up is timed from it.
pub fn run(w: &Workload, dir: &Path, opts: ChildOpts, started: Instant) -> Result<Record, String> {
    // The pool's own count, so the idle figure below is against the
    // threads that actually ran.
    let threads = gpf_support::par::max_threads();
    let setup = set_up(w, dir)?;
    let setup_s = started.elapsed().as_secs_f64();

    gpf_trace::set_enabled(opts.trace);
    let counters0 = gpf_trace::counters_snapshot();
    let cpu0 = process_cpu_s()?;
    let t0 = Instant::now();
    let exec = execute(w, &setup, opts).map_err(|e| e.to_string())?;
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s()? - cpu0;
    gpf_trace::set_enabled(false);
    // Read before scoring so the figure is the pipeline's, not the scorer's.
    let peak_rss_mb = peak_rss_mb()?;
    let counters1 = gpf_trace::counters_snapshot();
    let counter = |name: &str| {
        let at = |snap: &[(&'static str, u64)]| {
            snap.iter().find(|(n, _)| *n == name).map_or(0, |(_, v)| *v)
        };
        (at(&counters1) - at(&counters0)) as f64
    };

    let truth_text = read(dir, gen::TRUTH)?;
    let (_, truth) = parse_vcf(&truth_text).map_err(|e| format!("{}: {e}", gen::TRUTH))?;
    let s = score(&truth, &exec.calls);

    if exec.trace_dropped > 0 {
        return Err(format!(
            "the engine's trace ring dropped {} events; the JobRun counts are incomplete",
            exec.trace_dropped
        ));
    }
    let task_cpu_s = exec.run.total_cpu_s();
    let phase_cpu =
        |p: &str| exec.phase_cpu.iter().find(|(name, _)| name == p).map_or(0.0, |(_, cpu)| *cpu);
    let phase_sum: f64 = exec.phase_cpu.iter().map(|(_, cpu)| cpu).sum();
    if (phase_sum - task_cpu_s).abs() > 1e-6 * task_cpu_s.max(1.0) {
        return Err(format!(
            "per-phase task CPU {phase_sum} s does not add up to JobRun::total_cpu_s {task_cpu_s} s"
        ));
    }
    let mb = |bytes: f64| bytes / (1u64 << 20) as f64;

    let mut r = Record::default();
    r.str("workload", w.name);
    r.str("digest", &format!("{:016x}", fnv1a(exec.vcf_text.as_bytes())));
    r.num("reads", exec.reads as f64);
    r.num("bases", exec.bases as f64);
    r.num("setup_s", setup_s);
    r.num("wall_s", wall_s);
    r.num("reads_per_s", exec.reads as f64 / wall_s);
    r.num("cpu_s", cpu_s);
    r.num("peak_rss_mb", peak_rss_mb);
    r.num("call_f1", s.f1());
    r.num("align.phase_cpu_s", phase_cpu("aligner"));
    r.num("cleaner.phase_cpu_s", phase_cpu("cleaner"));
    r.num("caller.phase_cpu_s", phase_cpu("caller"));
    r.num("engine.task_cpu_s", task_cpu_s);
    r.num("engine.serde_s", exec.run.total_serde_s());
    r.num("engine.shuffle_mb", mb(exec.run.total_shuffle_bytes() as f64));
    r.num("engine.stages", exec.run.num_stages() as f64);
    r.num("engine.tasks", exec.run.stages.iter().map(|st| st.num_tasks()).sum::<usize>() as f64);
    r.num("engine.driver_cpu_s", cpu_s - task_cpu_s);
    r.num("engine.pool_idle_s", threads as f64 * wall_s - cpu_s);
    r.num("engine.spill_count", counter(tn::MEM_BUDGET_SPILLED));
    r.num("engine.spill_mb", mb(counter(tn::MEM_BUDGET_SPILLED_BYTES)));
    r.num("engine.restore_count", counter(tn::MEM_BUDGET_RESTORED));
    r.num("engine.ledger_peak_mb", mb(exec.ledger_peak as f64));
    r.num("formats.load_s", exec.load_s);
    r.num("formats.vcf_write_s", exec.vcf_write_s);
    r.num("core.fused_chains", exec.fused_chains as f64);
    r.num("caller.calls", exec.calls.len() as f64);
    r.num("caller.snv_precision", s.snv.precision());
    r.num("caller.snv_recall", s.snv.recall());
    r.num("caller.indel_precision", s.indel.precision());
    r.num("caller.indel_recall", s.indel.recall());
    r.num("caller.gt_concordance", s.gt_concordance());
    if opts.trace {
        let (hit, skip) = (counter(tn::ALIGN_PREFILTER_HIT), counter(tn::ALIGN_PREFILTER_SKIP));
        r.num(
            "align.prefilter_skip_ratio",
            if hit + skip > 0.0 { skip / (hit + skip) } else { 0.0 },
        );
        r.num("align.sw_cells", counter(tn::ALIGN_SW_CELLS));
        r.num("caller.pairhmm_cells", counter(tn::PAIRHMM_CELLS));
        r.num("compress.serialize_mb", mb(counter(tn::CODEC_SERIALIZE_BYTES)));
    }
    Ok(r)
}

fn read(dir: &Path, name: &str) -> Result<String, String> {
    std::fs::read_to_string(dir.join(name))
        .map_err(|e| format!("{}: {e}", dir.join(name).display()))
}

fn set_up(w: &Workload, dir: &Path) -> Result<Setup, String> {
    let reference = Arc::new(
        ReferenceGenome::parse_fasta(&read(dir, gen::REFERENCE)?)
            .map_err(|e| format!("{}: {e}", gen::REFERENCE))?,
    );
    let (_, known) =
        parse_vcf(&read(dir, gen::KNOWN)?).map_err(|e| format!("{}: {e}", gen::KNOWN))?;
    let (text_a, text_b, aligner) = match w.input {
        Input::FastqPair => (
            read(dir, gen::READS_1)?,
            read(dir, gen::READS_2)?,
            Some(Arc::new(BwaMemAligner::new(&reference))),
        ),
        Input::AlignedSam => (read(dir, gen::ALIGNED)?, String::new(), None),
    };
    Ok(Setup { reference, known, aligner, text_a, text_b })
}

/// The timed region: the paper's Figure 3 program (the chain of
/// `gpf_bench::WgsWorkload::run_gpf_cfg`), text in, text out.
fn execute(w: &Workload, s: &Setup, opts: ChildOpts) -> Result<Executed, PipelineError> {
    let mut config = EngineConfig::gpf().with_parallelism(w.input_parts);
    if let Some(bytes) = w.memory_budget {
        config = config.with_memory_budget(bytes);
    }
    let ctx = EngineContext::new(config);
    let mut pipeline = Pipeline::new(w.name, Arc::clone(&ctx));
    pipeline.set_optimize(opts.optimize);
    let reference = &s.reference;
    let dict = reference.dict().clone();
    let sam_bundle =
        |name: &str| SamBundle::undefined(name, SamHeaderInfo::unsorted_header(dict.clone()));

    // Input datasets are evictable: under a budget they are the first
    // victims and downstream stages stream them.
    let t_load = Instant::now();
    let (aligned, reads, bases) = match w.input {
        Input::FastqPair => {
            let pairs =
                FileLoader::load_fastq_pair_to_rdd(&ctx, &s.text_a, &s.text_b, w.input_parts)?;
            let reads = 2 * pairs.len();
            let bases = (0..pairs.num_partitions())
                .map(|i| pairs.partition(i).iter().map(|p| p.total_bases()).sum::<usize>())
                .sum();
            let aligned = sam_bundle("alignedSam");
            let process = BwaMemProcess::pair_end(
                "BwaMapping",
                Arc::clone(reference),
                FastqPairBundle::defined("fastqPair", pairs.evictable()),
                Arc::clone(&aligned),
            );
            // The index was built in set-up; without this the process
            // would build its own inside the timed region.
            let process = match &s.aligner {
                Some(a) => process.with_aligner(Arc::clone(a)),
                None => process,
            };
            pipeline.add_process(process);
            (aligned, reads, bases)
        }
        Input::AlignedSam => {
            let (header, records) =
                parse_sam(&s.text_a).map_err(|e| PipelineError::Load(e.to_string()))?;
            let (reads, bases) = (records.len(), records.iter().map(|r| r.seq.len()).sum());
            let ds = Dataset::from_vec(Arc::clone(&ctx), records, w.input_parts).evictable();
            (SamBundle::defined("alignedSam", header, ds), reads, bases)
        }
    };
    let load_s = t_load.elapsed().as_secs_f64();

    let known = Dataset::from_vec(Arc::clone(&ctx), s.known.clone(), w.input_parts).evictable();
    let dbsnp = VcfBundle::defined("dbsnp", VcfHeaderInfo::new_header(dict.clone(), vec![]), known);

    let deduped = sam_bundle("dedupedSam");
    pipeline.add_process(MarkDuplicateProcess::new("MarkDuplicate", aligned, Arc::clone(&deduped)));
    let pinfo = PartitionInfoBundle::undefined("partInfo");
    pipeline.add_process(ReadRepartitioner::new(
        "Repartitioner",
        vec![Arc::clone(&deduped)],
        Arc::clone(&pinfo),
        dict.lengths(),
        w.region_len,
    ));
    let realigned = sam_bundle("realignedSam");
    pipeline.add_process(IndelRealignProcess::new(
        "IndelRealign",
        Arc::clone(reference),
        Some(Arc::clone(&dbsnp)),
        Arc::clone(&pinfo),
        deduped,
        Arc::clone(&realigned),
    ));
    let recaled = sam_bundle("recaledSam");
    pipeline.add_process(BaseRecalibrationProcess::new(
        "BQSR",
        Arc::clone(reference),
        Some(Arc::clone(&dbsnp)),
        Arc::clone(&pinfo),
        realigned,
        Arc::clone(&recaled),
    ));
    let vcf_header = VcfHeaderInfo::new_header(dict, vec!["s".into()]);
    let vcf_out = VcfBundle::undefined("ResultVCF", vcf_header.clone());
    pipeline.add_process(HaplotypeCallerProcess::new(
        "HaplotypeCaller",
        Arc::clone(reference),
        Some(dbsnp),
        pinfo,
        recaled,
        Arc::clone(&vcf_out),
        false,
    ));

    pipeline.run()?;
    let calls = vcf_out.dataset().collect_local();
    let t_write = Instant::now();
    let vcf_text = format_vcf(&vcf_header, &calls);
    let vcf_write_s = t_write.elapsed().as_secs_f64();

    let ledger_peak = ctx.accountant().map_or(0, |a| a.peak());
    let (run, trace) = ctx.take_run_traced();
    Ok(Executed {
        vcf_text,
        calls,
        phase_cpu: phase_cpu(&trace),
        trace_dropped: trace.dropped,
        run,
        fused_chains: pipeline.fused_chains().len(),
        ledger_peak,
        reads,
        bases,
        load_s,
        vcf_write_s,
    })
}

/// Task CPU seconds per phase tag, from the task-end events `JobRun` itself
/// is derived from (`gpf_engine::metrics::derive_job_run`'s table: `End` /
/// `Compute` events carrying `cpu_bits`). `JobRun::stages_in_phase` cannot
/// give this: with fusion on one stage holds Cleaner and Caller operators,
/// the whole stage is credited to whichever did more, and that flips
/// between runs of the same input. The caller checks the sum against
/// `JobRun::total_cpu_s`, so a change of the event encoding fails loudly.
fn phase_cpu(trace: &gpf_trace::Trace) -> Vec<(String, f64)> {
    let mut out: Vec<(String, f64)> = Vec::new();
    for ev in &trace.events {
        if ev.kind != gpf_trace::EventKind::End || ev.cat != gpf_trace::Category::Compute {
            continue;
        }
        let Some(bits) = ev.counter("cpu_bits") else {
            continue;
        };
        let cpu = f64::from_bits(bits);
        match out.iter_mut().find(|(p, _)| **p == *ev.phase) {
            Some((_, acc)) => *acc += cpu,
            None => out.push((ev.phase.to_string(), cpu)),
        }
    }
    out
}

/// FNV-1a, 64-bit: the VCF digest compared across rounds and workloads.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

/// Process user + system CPU seconds from `/proc/self/stat` (fields 14 and
/// 15, in clock ticks; Linux fixes `USER_HZ` at 100).
fn process_cpu_s() -> Result<f64, String> {
    let stat =
        std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // The command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis.
    let rest = stat.rsplit_once(')').ok_or("/proc/self/stat: no command field")?.1;
    let ticks = |field: usize| {
        rest.split_whitespace()
            .nth(field - 3)
            .and_then(|t| t.parse::<u64>().ok())
            .ok_or_else(|| format!("/proc/self/stat: field {field} missing"))
    };
    Ok((ticks(14)? + ticks(15)?) as f64 / 100.0)
}

/// Peak resident set (`VmHWM`) in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "/proc/self/status: no VmHWM line".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;
    use std::path::PathBuf;

    const FILES: [&str; 6] =
        [gen::READS_1, gen::READS_2, gen::REFERENCE, gen::KNOWN, gen::TRUTH, gen::ALIGNED];

    fn generated(tag: &str, seed: u64) -> PathBuf {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{}-{tag}", std::process::id()));
        // The generator's smallest genome (its contig-length floors).
        gen::generate(seed, 0.01, &dir).expect("generate");
        dir
    }

    fn digests(dir: &Path) -> Vec<u64> {
        FILES.iter().map(|f| fnv1a(&std::fs::read(dir.join(f)).expect("generated file"))).collect()
    }

    #[test]
    fn the_seed_decides_every_generated_file() {
        let (a, again, b) = (generated("a", 1), generated("again", 1), generated("b", 2));
        assert_eq!(digests(&a), digests(&again), "the same seed must give the same inputs");
        for ((file, da), db) in FILES.iter().zip(digests(&a)).zip(digests(&b)) {
            assert_ne!(da, db, "{file} is the same for seeds 1 and 2");
        }
        for dir in [a, again, b] {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn a_breached_budget_is_an_error_and_a_feasible_one_changes_nothing() {
        let dir = generated("budget", 3);
        let opts = ChildOpts { optimize: true, trace: false };
        let run_with = |budget| {
            let w = Workload { memory_budget: budget, ..WORKLOADS[1] };
            run(&w, &dir, opts, Instant::now())
        };
        let breach = run_with(Some(64)).expect_err("64 bytes cannot hold one partition");
        assert!(breach.contains("memory budget exceeded"), "{breach}");

        let free = run_with(None).expect("unbudgeted run");
        let tight = run_with(Some(4 << 20)).expect("budgeted run");
        assert_eq!(free.get_str("digest"), tight.get_str("digest"));
        assert_eq!(free.get_num("engine.spill_count"), Some(0.0));
        assert!(tight.get_num("engine.spill_count") > Some(0.0));
        assert_eq!(free.get_num("align.phase_cpu_s"), Some(0.0));
        let _ = std::fs::remove_dir_all(dir);
    }
}
