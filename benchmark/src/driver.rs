//! The orchestrator: generates inputs, spawns one fresh child process per
//! repetition (closed loop, one job at a time), aggregates, checks outputs,
//! and prints either the driver's one-line result (`contract`), the full
//! report (`report`) or the repeatability check (`selfcheck`).
//!
//! An end-to-end metric of a run is each genome's **best** child (fastest,
//! smallest, most accurate) averaged over the run's genomes, not the median
//! child. The pipeline is deterministic; what varies between children of one
//! input is how much the shared host took away, which only ever adds, and
//! comes in bursts of five to ten children: over 36 windows of ten identical
//! `clean-call` children the median child's wall time spread 13.5% (quartile
//! distance over median) and the best child's 7.2% (README, "Host noise").
//! Per-layer metrics have no bound and stay medians.

use crate::metrics::{Better, EndToEnd, Source, END_TO_END, PER_LAYER};
use crate::record::{quote, Record};
use crate::workload::{Input, Workload, SCALE, WORKLOADS};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Seed of a plain `run.sh`; its accuracy floors are pinned exactly.
pub const DEFAULT_SEED: u64 = 2018;
/// Independent genomes a run generates and cycles its children through.
/// One small genome's cost depends on where its six coverage hotspots fall
/// (pair-HMM cells ran 73-116 M between seeds, the fastest child 0.92-1.17 s);
/// a run reports the mean over its genomes, as a user with many samples sees.
pub const GENOMES: usize = 3;
/// Rounds of the full report and of each `--selfcheck` set: three children
/// per genome and workload.
const REPORT_ROUNDS: usize = 3 * GENOMES;
/// A contract run measures at least two children per genome, however slow.
const MIN_ROUNDS: usize = 2 * GENOMES;
/// Repetitions of each timed diagnostic variant.
const DIAGNOSTIC_ROUNDS: usize = 3;

pub struct Bench {
    exe: PathBuf,
    out: PathBuf,
    /// Input directory of each genome.
    genomes: Vec<PathBuf>,
    seeds: Vec<u64>,
    nproc: usize,
    /// `min(nproc, 4)`, handed to every child as `GPF_PAR_THREADS`.
    threads: usize,
}

impl Bench {
    /// Set up under `out` and generate the run's genomes from `seed`.
    pub fn new(out: PathBuf, seed: u64) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        // Consecutive run seeds get disjoint genome seeds.
        let seeds: Vec<u64> = (0..GENOMES as u64)
            .map(|g| seed.wrapping_mul(GENOMES as u64).wrapping_add(g))
            .collect();
        let genomes = seeds.iter().map(|s| out.join(format!("inputs-{s}"))).collect();
        let bench = Self { exe, out, genomes, seeds, nproc, threads: nproc.min(4) };
        for (dir, s) in bench.genomes.iter().zip(&bench.seeds) {
            // Start from nothing: a stale file must not stand in for a
            // generator that stopped writing it.
            let _ = std::fs::remove_dir_all(dir);
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            bench.spawn(
                &["gen", "--seed", &s.to_string(), "--dir", &dir.to_string_lossy()],
                bench.threads,
            )?;
        }
        Ok(bench)
    }

    /// Run one subcommand of this binary to completion; its stdout comes
    /// back on success.
    fn spawn(&self, args: &[&str], threads: usize) -> Result<String, String> {
        let out = Command::new(&self.exe)
            .args(args)
            .env("GPF_PAR_THREADS", threads.to_string())
            .stdin(Stdio::null())
            .output()
            .map_err(|e| format!("spawn {}: {e}", self.exe.display()))?;
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        if out.status.success() {
            Ok(stdout)
        } else {
            let stderr = String::from_utf8_lossy(&out.stderr);
            Err(format!("`{}` {}: {}", args.join(" "), out.status, stderr.trim()))
        }
    }

    /// One cold child of `w` on genome `g`; `extra` selects a diagnostic
    /// variant. The record says which genome it ran.
    fn child(
        &self,
        w: &Workload,
        g: usize,
        extra: &[&str],
        threads: usize,
    ) -> Result<Record, String> {
        let dir = self.genomes[g].to_string_lossy().into_owned();
        let mut args = vec!["child", "--workload", w.name, "--dir", &dir];
        args.extend_from_slice(extra);
        let mut rec = self.spawn(&args, threads).and_then(|stdout| parse_result(&stdout))?;
        rec.num("genome", g as f64);
        Ok(rec)
    }

    /// The next measured child of `w`: children cycle through the genomes.
    fn measure(&self, w: &Workload, t: &mut Tally) {
        let g = t.attempted as usize % GENOMES;
        t.push(self.child(w, g, &[], self.threads));
    }

    /// The layer walk, on the first genome.
    fn walk(&self) -> Result<Record, String> {
        let dir = self.genomes[0].to_string_lossy().into_owned();
        let trace = self.out.join("walk-trace.json").to_string_lossy().into_owned();
        self.spawn(&["walk", "--dir", &dir, "--trace-out", &trace], self.threads)
            .and_then(|stdout| parse_result(&stdout))
    }

    /// Remove the generated inputs (tens of megabytes per genome).
    fn clean(&self) {
        for dir in &self.genomes {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// A child's result is the last line of its stdout.
pub fn parse_result(stdout: &str) -> Result<Record, String> {
    let line = stdout.lines().last().ok_or("the child printed no result line")?;
    Record::parse(line).map_err(|e| format!("bad result line ({e}): {line}"))
}

pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 { v[mid] } else { (v[mid - 1] + v[mid]) / 2.0 })
}

/// The children of one workload: attempted, failed, and what the good ones
/// measured.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub records: Vec<Record>,
    pub problems: Vec<String>,
}

impl Tally {
    /// Count one child. A child that exited non-zero, returned a
    /// `PipelineError`, printed a bad line, or produced a VCF whose digest
    /// differs from the first good child of the same genome is a failure,
    /// not a crash.
    pub fn push(&mut self, outcome: Result<Record, String>) {
        self.attempted += 1;
        let verdict = outcome.and_then(|rec| {
            let genome = rec.get_num("genome").ok_or("the result has no genome")?;
            let digest = rec.get_str("digest").ok_or("the result line has no digest")?;
            match self.digest(genome as usize) {
                Some(first) if first != digest => Err(format!(
                    "VCF digest {digest} differs from {first} of an earlier round on the same genome"
                )),
                _ => Ok(rec),
            }
        });
        match verdict {
            Ok(rec) => self.records.push(rec),
            Err(problem) => self.fail(problem),
        }
    }

    /// Count a failed child or a violated check.
    pub fn fail(&mut self, problem: String) {
        self.failed = (self.failed + 1).min(self.attempted.max(1));
        self.problems.push(problem);
    }

    fn of_genome(&self, g: usize) -> impl Iterator<Item = &Record> {
        self.records.iter().filter(move |r| r.get_num("genome") == Some(g as f64))
    }

    /// VCF digest of the first good child on genome `g`.
    pub fn digest(&self, g: usize) -> Option<&str> {
        self.of_genome(g).next().and_then(|r| r.get_str("digest"))
    }

    fn values(&self, key: &str) -> Vec<f64> {
        self.records.iter().filter_map(|r| r.get_num(key)).collect()
    }

    /// Mean over the genomes of `pick` over one genome's good children;
    /// `None` unless every genome has one.
    fn genome_mean(&self, key: &str, pick: fn(&[f64]) -> Option<f64>) -> Option<f64> {
        let per_genome: Option<Vec<f64>> = (0..GENOMES)
            .map(|g| pick(&self.of_genome(g).filter_map(|r| r.get_num(key)).collect::<Vec<_>>()))
            .collect();
        per_genome.map(|v| v.iter().sum::<f64>() / GENOMES as f64)
    }

    /// An end-to-end metric of the run: each genome's best child (fastest,
    /// smallest, most accurate), averaged over the genomes.
    pub fn best(&self, m: &EndToEnd) -> Option<f64> {
        self.genome_mean(
            m.name,
            match m.better {
                Better::Lower => |v| v.iter().copied().reduce(f64::min),
                Better::Higher => |v| v.iter().copied().reduce(f64::max),
            },
        )
    }

    /// A per-layer metric of the run: each genome's median child, averaged
    /// over the genomes.
    pub fn typical(&self, key: &str) -> Option<f64> {
        self.genome_mean(key, median)
    }
}

/// Accuracy floors: (metric, least acceptable mean over the genomes). For
/// the default seed they are the values measured when the benchmark was
/// defined, cut to four decimals, so any loss of accuracy fails. For other
/// seeds they sit four standard deviations or more under the mean of a
/// 40-seed sweep (worst seen: F1 0.796 coarse and 0.711 fine, indel recall
/// 0.56 and 0.45), so only a collapse fails.
fn floors(seed: u64, w: &Workload) -> [(&'static str, f64); 5] {
    let fine = w.region_len < 1000;
    let v = match (seed == DEFAULT_SEED, fine) {
        (true, false) => [0.8541, 0.9967, 0.7514, 1.0, 0.7111],
        (true, true) => [0.7866, 0.9963, 0.6548, 1.0, 0.6],
        (false, false) => [0.75, 0.94, 0.60, 0.75, 0.40],
        (false, true) => [0.65, 0.94, 0.50, 0.75, 0.25],
    };
    [
        ("call_f1", v[0]),
        ("caller.snv_precision", v[1]),
        ("caller.snv_recall", v[2]),
        ("caller.indel_precision", v[3]),
        ("caller.indel_recall", v[4]),
    ]
}

/// The correctness checks beyond "the child succeeded": budgeted output
/// equals unbudgeted (`clean_call_digests`, one per genome), accuracy
/// floors, and the layer predictions that are exact (spills only under a
/// budget, no aligner CPU without an aligner).
pub fn verify(w: &Workload, t: &mut Tally, clean_call_digests: &[Option<String>], seed: u64) {
    if t.records.is_empty() {
        return;
    }
    let mut problems = Vec::new();
    if w.memory_budget.is_some() {
        for g in 0..GENOMES {
            let reference = clean_call_digests.get(g).and_then(|d| d.as_deref());
            if t.digest(g) != reference {
                problems.push(format!(
                    "genome {g}: budgeted VCF digest {:?} differs from clean-call's {reference:?}",
                    t.digest(g)
                ));
            }
        }
    }
    for (metric, floor) in floors(seed, w) {
        match t.typical(metric) {
            Some(v) if v >= floor => {}
            v => problems.push(format!("{metric} = {v:?} is under its floor {floor}")),
        }
    }
    let spills = t.typical("engine.spill_count").unwrap_or(-1.0);
    if w.memory_budget.is_some() != (spills > 0.0) {
        problems.push(format!(
            "engine.spill_count = {spills}: spills are predicted exactly when a budget is set"
        ));
    }
    let align_cpu = t.typical("align.phase_cpu_s").unwrap_or(-1.0);
    if (w.input == Input::FastqPair) != (align_cpu > 0.0) {
        problems.push(format!(
            "align.phase_cpu_s = {align_cpu}: aligner CPU is predicted exactly when the input is FASTQ"
        ));
    }
    for p in problems {
        t.fail(format!("{}: {p}", w.name));
    }
}

fn clean_call() -> &'static Workload {
    &WORKLOADS[1]
}

/// The three diagnostic runs plus the derived ratios, as (name, value), on
/// the first genome. The timed variants (untraced, traced, one thread)
/// alternate so host drift falls on all three, and compare fastest against
/// fastest.
fn diagnostics(b: &Bench, walk: &Record) -> Result<Vec<(&'static str, f64)>, String> {
    let wgs = &WORKLOADS[0];
    let get =
        |rec: &Record, key: &str| rec.get_num(key).ok_or(format!("diagnostic run lacks `{key}`"));
    let variants: [(&[&str], usize); 3] =
        [(&[], b.threads), (&["--trace-kernels"], b.threads), (&[], 1)];
    let mut fastest: [Option<(f64, Record)>; 3] = [None, None, None];
    for _ in 0..DIAGNOSTIC_ROUNDS {
        for ((extra, threads), slot) in variants.iter().zip(&mut fastest) {
            let rec = b.child(wgs, 0, extra, *threads)?;
            let wall = get(&rec, "wall_s")?;
            if slot.as_ref().is_none_or(|(best, _)| wall < *best) {
                *slot = Some((wall, rec));
            }
        }
    }
    let [Some((wall, plain)), Some((traced_wall, traced)), Some((serial_wall, _))] = fastest else {
        return Err("a diagnostic variant never ran".into());
    };
    let unfused = b.child(clean_call(), 0, &["--no-optimize"], b.threads)?;
    Ok(vec![
        ("walk.coverage", get(walk, "walk.sum_s")? / get(&plain, "cpu_s")?),
        ("align.prefilter_skip_ratio", get(&traced, "align.prefilter_skip_ratio")?),
        ("align.sw_cells", get(&traced, "align.sw_cells")?),
        ("caller.pairhmm_cells", get(&traced, "caller.pairhmm_cells")?),
        ("compress.serialize_mb", get(&traced, "compress.serialize_mb")?),
        ("trace.overhead_pct", (traced_wall / wall - 1.0) * 100.0),
        ("support.par_speedup", serial_wall / wall),
        ("support.threads", b.threads as f64),
        ("core.stages_unfused", get(&unfused, "engine.stages")?),
        ("core.shuffle_mb_unfused", get(&unfused, "engine.shuffle_mb")?),
    ])
}

/// The per-layer metrics measured on a workload's own children, in table
/// order.
fn child_layers(t: &Tally) -> Result<Vec<(&'static str, f64)>, String> {
    let walls = t.values("wall_s");
    PER_LAYER
        .iter()
        .filter_map(|m| {
            let v = match (m.source, m.name) {
                (Source::Child, name) => t.typical(name),
                (Source::Rounds, "run.wall_min_s") => walls.iter().copied().reduce(f64::min),
                (Source::Rounds, "run.wall_max_s") => walls.iter().copied().reduce(f64::max),
                (Source::Rounds, _) => Some(walls.len() as f64),
                (Source::Walk | Source::Diagnostic, _) => return None,
            };
            Some(
                v.map(|v| (m.name, v)).ok_or(format!("no value for per-layer metric `{}`", m.name)),
            )
        })
        .collect()
}

/// The per-layer metrics every workload shares: the walk's and the
/// diagnostic runs', in table order.
fn shared_layers(
    walk: &Record,
    diag: &[(&'static str, f64)],
) -> Result<Vec<(&'static str, f64)>, String> {
    PER_LAYER
        .iter()
        .filter_map(|m| {
            let v = match m.source {
                Source::Walk => walk.get_num(m.name),
                Source::Diagnostic => diag.iter().find(|(n, _)| *n == m.name).map(|(_, v)| *v),
                Source::Child | Source::Rounds => return None,
            };
            Some(
                v.map(|v| (m.name, v)).ok_or(format!("no value for per-layer metric `{}`", m.name)),
            )
        })
        .collect()
}

fn end_to_end_values(t: &Tally) -> Result<Vec<(&'static str, f64)>, String> {
    END_TO_END
        .iter()
        .map(|m| t.best(m).map(|v| (m.name, v)).ok_or(format!("no value for `{}`", m.name)))
        .collect()
}

/// Unit and direction of a metric from either table.
fn describe(name: &str) -> (&'static str, Better) {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, m.better))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit, m.better)))
        .find(|(n, _, _)| *n == name)
        .map_or(("", Better::Lower), |(_, unit, better)| (unit, better))
}

/// One line of the report: name, value, unit, which way is better.
fn print_metric(name: &str, v: f64, note: &str) {
    let (unit, better) = describe(name);
    println!("{name:<32} {v:>16.6} {unit:<9} {:<6} {note}", better.as_str());
}

fn metrics_json(values: &[(&'static str, f64)]) -> String {
    let body: Vec<String> = values
        .iter()
        .map(|(n, v)| {
            format!("{}: {{\"value\": {v}, \"unit\": {}}}", quote(n), quote(describe(n).0))
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// `clean-call`'s VCF digest per genome, from the good children of `t`.
fn digests(t: &Tally) -> Vec<Option<String>> {
    (0..GENOMES).map(|g| t.digest(g).map(str::to_string)).collect()
}

/// The driver's contract: one workload, one seed, `seconds` of measuring,
/// one JSON line last on stdout. Returns the process exit code.
pub fn contract(
    out: PathBuf,
    w: &Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<i32, String> {
    let b = Bench::new(out, seed)?;
    let mut t = Tally::default();
    // The budgeted workload is checked against one unmeasured `clean-call`
    // child per genome.
    let mut reference = Tally::default();
    if w.memory_budget.is_some() {
        for _ in 0..GENOMES {
            b.measure(clean_call(), &mut reference);
        }
        t.problems.append(&mut reference.problems);
    }
    // A traced run spends its time on the walk and the diagnostics; the
    // per-layer counts of one child per genome repeat exactly.
    let (budget_s, min_rounds) = if trace { (0.0, GENOMES) } else { (seconds, MIN_ROUNDS) };
    let started = Instant::now();
    while t.attempted < min_rounds as u64 || started.elapsed().as_secs_f64() < budget_s {
        b.measure(w, &mut t);
    }
    verify(w, &mut t, &digests(&reference), seed);

    let values = if trace {
        let walk = b.walk()?;
        [child_layers(&t)?, shared_layers(&walk, &diagnostics(&b, &walk)?)?].concat()
    } else {
        end_to_end_values(&t)?
    };
    b.clean();
    for p in &t.problems {
        eprintln!("problem: {p}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        t.failed == 0 && t.problems.is_empty(),
        t.attempted,
        t.failed,
        metrics_json(&values)
    );
    Ok(0)
}

/// One tally per workload.
fn tallies() -> Vec<Tally> {
    WORKLOADS.iter().map(|_| Tally::default()).collect()
}

fn verify_all(tallies: &mut [Tally], seed: u64) {
    let reference = digests(&tallies[1]);
    for (w, t) in WORKLOADS.iter().zip(tallies.iter_mut()) {
        verify(w, t, &reference, seed);
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The full report: every workload, the walk, the diagnostics, the checks;
/// every metric printed by name with its unit; `results.json` written.
pub fn report(out: PathBuf, seed: u64) -> Result<i32, String> {
    let started = Instant::now();
    let b = Bench::new(out, seed)?;
    // Each round spawns one child per workload in round-robin order, so
    // host drift spreads over all workloads.
    let mut tallies = tallies();
    for round in 0..REPORT_ROUNDS {
        for (w, t) in WORKLOADS.iter().zip(&mut tallies) {
            let failed_before = t.failed;
            b.measure(w, t);
            let outcome = match (t.failed > failed_before, t.records.last()) {
                (false, Some(r)) => {
                    format!("wall {:.3} s", r.get_num("wall_s").unwrap_or(f64::NAN))
                }
                _ => format!("FAILED: {}", t.problems.last().map_or("", String::as_str)),
            };
            eprintln!("round {}/{REPORT_ROUNDS} {:<22} {outcome}", round + 1, w.name);
        }
    }
    verify_all(&mut tallies, seed);
    let walk = b.walk()?;
    let diag = diagnostics(&b, &walk)?;
    b.clean();

    let mut json = String::new();
    let _ = write!(
        json,
        "{{\n  \"commit\": {}, \"seed\": {seed}, \"genome_seeds\": {:?}, \"scale\": {SCALE}, \
         \"rounds\": {REPORT_ROUNDS}, \"nproc\": {}, \"threads\": {}, \"cpu_model\": {},\n  \"workloads\": {{",
        quote(&std::env::var("GPF_BENCH_COMMIT").unwrap_or_else(|_| "unknown".into())),
        b.seeds,
        b.nproc,
        b.threads,
        quote(&cpu_model()),
    );
    let mut problems = Vec::new();
    for (i, (w, t)) in WORKLOADS.iter().zip(&tallies).enumerate() {
        let n = t.records.len();
        let failed_fraction = t.failed as f64 / t.attempted.max(1) as f64;
        println!("\n== {} — {}", w.name, w.why);
        println!(
            "{:<32} {failed_fraction:>16.6} {:<9} {:<6} {} of {} children failed",
            "failed_fraction", "ratio", "lower", t.failed, t.attempted
        );
        let e2e = end_to_end_values(t)?;
        for (name, v) in &e2e {
            let med = median(&t.values(name)).unwrap_or(f64::NAN);
            print_metric(
                name,
                *v,
                &format!(
                    "mean over {GENOMES} genomes of the best child; median of all {n}: {med:.6}"
                ),
            );
        }
        let layers = child_layers(t)?;
        for (name, v) in &layers {
            print_metric(name, *v, "");
        }
        let per_genome = |key: &str| t.typical(key).unwrap_or(0.0);
        let _ = write!(
            json,
            "{}\n    {}: {{\"genomes\": {GENOMES}, \"reads_per_genome\": {}, \"bases_per_genome\": {}, \
             \"attempted\": {}, \"failed\": {}, \"failed_fraction\": {failed_fraction}, \"samples\": {n},\n      \
             \"end_to_end\": {},\n      \"per_layer\": {}}}",
            if i > 0 { "," } else { "" },
            quote(w.name),
            per_genome("reads"),
            per_genome("bases"),
            t.attempted,
            t.failed,
            metrics_json(&e2e),
            metrics_json(&layers),
        );
        problems.extend(t.problems.iter().cloned());
    }
    println!("\n== walk and diagnostics — on the first genome; the walk is single-threaded calls into each layer");
    let shared = shared_layers(&walk, &diag)?;
    for (name, v) in &shared {
        print_metric(name, *v, "");
    }
    let wall = &END_TO_END[0];
    if tallies[3].best(wall) <= tallies[1].best(wall) {
        problems.push("clean-call-fine wall_s does not exceed clean-call wall_s".into());
    }
    let elapsed_s = started.elapsed().as_secs_f64();
    let _ = write!(
        json,
        "\n  }},\n  \"walk_and_diagnostics\": {},\n  \"elapsed_s\": {elapsed_s},\n  \"problems\": [{}]\n}}\n",
        metrics_json(&shared),
        problems.iter().map(|p| quote(p)).collect::<Vec<_>>().join(", "),
    );
    let path = b.out.join("results.json");
    std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "\nwrote {} and {} in {elapsed_s:.0} s",
        path.display(),
        b.out.join("walk-trace.json").display()
    );
    for p in &problems {
        println!("PROBLEM: {p}");
    }
    Ok(if problems.is_empty() { 0 } else { 1 })
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
pub fn worsening(m: &EndToEnd, a: f64, b: f64) -> f64 {
    match m.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// The repeatability criterion as a command: two sets of the same code,
/// children alternating A/B inside each round; fails when any end-to-end
/// metric of any workload differs by more than its bound.
pub fn selfcheck(out: PathBuf, seed: u64) -> Result<i32, String> {
    let b = Bench::new(out, seed)?;
    let mut sets = [tallies(), tallies()];
    for round in 0..REPORT_ROUNDS {
        for (wi, w) in WORKLOADS.iter().enumerate() {
            // Alternate which set goes first, so neither always runs on
            // the caches the other warmed.
            for side in if round % 2 == 0 { [0, 1] } else { [1, 0] } {
                b.measure(w, &mut sets[side][wi]);
            }
        }
        eprintln!("round {}/{REPORT_ROUNDS} done", round + 1);
    }
    b.clean();
    let mut exceeded = 0;
    println!(
        "{:<22} {:<12} {:>12} {:>12} {:>9} {:>7}",
        "workload", "metric", "set A", "set B", "differ", "bound"
    );
    for (wi, w) in WORKLOADS.iter().enumerate() {
        for set in &sets {
            if set[wi].failed > 0 {
                println!("{}: {} children failed: {:?}", w.name, set[wi].failed, set[wi].problems);
                exceeded += 1;
            }
        }
        for m in &END_TO_END {
            let (Some(a), Some(bv)) = (sets[0][wi].best(m), sets[1][wi].best(m)) else {
                continue;
            };
            let d = worsening(m, a, bv);
            let over = d.abs() > m.bound;
            exceeded += over as i32;
            println!(
                "{:<22} {:<12} {a:>12.5} {bv:>12.5} {:>8.2}% {:>6.0}%{}",
                w.name,
                m.name,
                d * 100.0,
                m.bound * 100.0,
                if over { "  EXCEEDED" } else { "" }
            );
        }
    }
    Ok(if exceeded == 0 { 0 } else { 1 })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A good child's record, as `Bench::child` hands it over.
    fn child_line(genome: usize, digest: &str, wall_s: f64) -> Result<Record, String> {
        let mut r = Record::default();
        r.str("digest", digest);
        r.num("wall_s", wall_s);
        r.num("genome", genome as f64);
        Ok(r)
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn failed_children_are_counted_not_fatal() {
        let mut t = Tally::default();
        t.push(child_line(0, "aa", 1.0));
        // A child that hit PipelineError::MemoryBudgetExceeded exits
        // non-zero; the driver hands its stderr over as an Err.
        t.push(Err(
            "`child --workload clean-call-tight-mem` exit status: 2: memory budget exceeded \
                    in process `MarkDuplicate`"
                .into(),
        ));
        t.push(child_line(0, "bb", 2.0)); // digest differs from an earlier round
        t.push(child_line(1, "bb", 2.0)); // another genome has its own digest
        t.push(parse_result("{\"digest\": \"aa\", \"wall_s\": 3.")); // truncated line
        t.push(parse_result("")); // no line at all
        t.push(child_line(0, "aa", 3.0));
        assert_eq!((t.attempted, t.failed), (7, 4));
        assert_eq!(median(&t.values("wall_s")), Some(2.0));
        assert!(t.problems[0].contains("memory budget exceeded"));
        assert!(t.problems[1].contains("differs from"));
    }

    #[test]
    fn a_run_reports_the_mean_over_genomes_of_each_genomes_best_child() {
        let (wall, rate) = (&END_TO_END[0], &END_TO_END[1]);
        let mut t = Tally::default();
        for (g, wall_s) in [(0, 1.0), (1, 2.0), (2, 3.0), (0, 0.8), (1, 2.5)] {
            let mut r = child_line(g, "aa", wall_s).unwrap();
            r.num("reads_per_s", 10.0 / wall_s);
            t.push(Ok(r));
        }
        assert_eq!(t.best(wall), Some((0.8 + 2.0 + 3.0) / 3.0));
        assert_eq!(t.best(rate), Some((10.0 / 0.8 + 10.0 / 2.0 + 10.0 / 3.0) / 3.0));
        // A genome without a good child leaves the run without a value.
        let mut partial = Tally::default();
        partial.push(child_line(0, "aa", 1.0));
        assert_eq!(partial.best(wall), None);
    }

    #[test]
    fn verify_flags_a_budgeted_run_that_differs_or_does_not_spill() {
        let tight = &WORKLOADS[2];
        let mut rec = Record::default();
        rec.str("digest", "aa");
        rec.num("genome", 0.0);
        for (k, v) in [
            ("call_f1", 1.0),
            ("caller.snv_precision", 1.0),
            ("caller.snv_recall", 1.0),
            ("caller.indel_precision", 1.0),
            ("caller.indel_recall", 1.0),
            ("engine.spill_count", 12.0),
            ("align.phase_cpu_s", 0.0),
        ] {
            rec.num(k, v);
        }
        // One good child per genome.
        let tally = || {
            let mut t = Tally::default();
            for g in 0..GENOMES {
                let mut r = rec.clone();
                r.0.retain(|(k, _)| k != "genome");
                r.num("genome", g as f64);
                t.push(Ok(r));
            }
            t
        };
        let same = vec![Some("aa".to_string()); GENOMES];
        let mut good = tally();
        verify(tight, &mut good, &same, 1);
        assert_eq!((good.failed, good.problems.len()), (0, 0));

        let mut one_differs = same.clone();
        one_differs[1] = Some("bb".into());
        let mut differs = tally();
        verify(tight, &mut differs, &one_differs, 1);
        assert_eq!(differs.failed, 1);
        assert!(differs.problems[0].contains("genome 1"));

        // The same records under the unbudgeted workload: spills are a violation.
        let mut spilled = tally();
        verify(&WORKLOADS[1], &mut spilled, &[], 1);
        assert_eq!(spilled.failed, 1);
        assert!(spilled.problems[0].contains("engine.spill_count"));
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        let lower = &END_TO_END[0];
        let higher = &END_TO_END[1];
        assert_eq!((lower.better, higher.better), (Better::Lower, Better::Higher));
        assert!((worsening(lower, 2.0, 2.2) - 0.1).abs() < 1e-12);
        assert!((worsening(higher, 2.0, 1.8) - 0.1).abs() < 1e-12);
        assert!(worsening(higher, 2.0, 2.2) < 0.0);
    }
}
