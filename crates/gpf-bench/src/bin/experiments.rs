//! Experiment driver: regenerate any table/figure of the paper's evaluation.
//!
//! ```text
//! experiments <id>[,<id>...] [--scale X]
//! experiments all [--scale X]
//! experiments --smoke
//! experiments --smoke --trace out.json     # traced WGS run -> Chrome JSON
//! experiments --validate-trace out.json    # schema-check a trace file
//! experiments --smoke --mem-report         # per-stage heap breakdown
//! ```
//!
//! Ids: table1 table3 table4 table5 fig5 fig10 fig11a fig11b fig11c fig11d
//! fig12 fig13; `all` is every one of them, in paper order. `--scale`
//! shrinks/grows the workload; 1.0 ≈ a 0.84 Mb genome at 20×. Every
//! invocation ends with the Summary: each report's verdict, computed from
//! its claims. `--smoke` runs every requested experiment at a tiny fixed
//! scale — a CI-speed check that each code path still executes, not a
//! measurement.

use gpf_bench::experiments::{self, Job, Lab};
use gpf_bench::report::summary;
use gpf_bench::workload::WgsWorkload;
use gpf_bench::ExperimentReport;
use gpf_trace::sink::{self, console_err, console_out};

/// Every paper artifact, in paper order: what `all` runs.
const ALL: [&str; 12] = [
    "table1", "fig5", "fig10", "fig11a", "fig11b", "fig11c", "fig11d", "table3", "table4", "fig12",
    "fig13", "table5",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = 1.0;
    let mut smoke = false;
    let mut trace_path: Option<String> = None;
    let mut validate_path: Option<String> = None;
    let mut mem_report = false;
    let mut allow_drops = false;
    let mut ids: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => smoke = true,
            "--scale" => {
                i += 1;
                scale = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--scale needs a number"));
            }
            "--trace" => {
                i += 1;
                trace_path =
                    Some(args.get(i).cloned().unwrap_or_else(|| die("--trace needs a path")));
            }
            "--validate-trace" => {
                i += 1;
                validate_path = Some(
                    args.get(i).cloned().unwrap_or_else(|| die("--validate-trace needs a path")),
                );
            }
            "--mem-report" => mem_report = true,
            "--allow-drops" => allow_drops = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: experiments <id>[,<id>...]|all [--scale X] [--smoke]\n\
                     ids: table1 table3 table4 table5 fig5 fig10 fig11a fig11b fig11c fig11d fig12 fig13\n\
                     all: every id in paper order; every run ends with the Summary of verdicts\n\
                     extra: diag (per-stage task/straggler diagnostics, not a paper artifact)\n\
                     --smoke: tiny fixed scale; verifies code paths, numbers are meaningless\n\
                     --trace PATH: run the WGS pipeline traced; write Chrome JSON to PATH,\n\
                                   print the text report (load PATH at https://ui.perfetto.dev)\n\
                     --validate-trace PATH: schema-check a Chrome trace file; exit 2 on\n\
                                            failure or when events were dropped (ring\n\
                                            overflow) unless --allow-drops is also given\n\
                     --mem-report: run the WGS pipeline with the tracking allocator on and\n\
                                   print the per-stage heap breakdown + tag attribution"
                );
                return;
            }
            id => ids.extend(id.split(',').map(|s| s.to_string())),
        }
        i += 1;
    }
    if ids.is_empty() || ids.iter().any(|s| s == "all") {
        ids = ALL.map(String::from).to_vec();
    }
    if smoke {
        scale = 0.05;
        console_err(&format!("[smoke] scale forced to {scale}; output verifies code paths only"));
    }

    if let Some(path) = &validate_path {
        validate_trace_file(path, allow_drops);
        return;
    }
    if mem_report {
        run_mem_report(scale);
        return;
    }
    if let Some(path) = &trace_path {
        run_traced(scale, path);
        return;
    }

    let lab = Lab::new(scale);
    let mut reports = Vec::new();
    for id in &ids {
        if id == "diag" {
            diagnose(&lab);
            continue;
        }
        let report: ExperimentReport = match id.as_str() {
            "table1" => experiments::table1(),
            "fig5" => experiments::fig5(),
            "fig10" => experiments::fig10(&lab),
            "fig11a" => experiments::fig11a(&lab),
            "fig11b" => experiments::fig11b(&lab),
            "fig11c" => experiments::fig11c(&lab),
            "fig11d" => experiments::fig11d(&lab),
            "table3" => experiments::table3(&lab),
            "table4" => experiments::table4(&lab),
            "fig12" => experiments::fig12(&lab),
            "fig13" => experiments::fig13(&lab),
            "table5" => experiments::table5(&lab),
            other => die(&format!("unknown experiment `{other}`")),
        };
        report.print();
        reports.push(report);
    }
    if !reports.is_empty() {
        console_out(&format!(
            "== summary — verdicts from each report's claims (scale {scale}) ==\n{}",
            summary(&reports)
        ));
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// `--trace PATH`: run the optimized WGS pipeline with tracing enabled,
/// write the Chrome trace JSON to `path`, and print the terminal report.
fn run_traced(scale: f64, path: &str) {
    gpf_trace::set_enabled(true);
    // Heap tracking rides along on traced runs so the exported trace
    // carries the heap.live_bytes counter track and the text report its
    // memory section.
    gpf_trace::alloc::set_tracking(true);
    let gpf = WgsWorkload::build(scale, 2018).run_gpf(true);
    let json = sink::chrome_trace(&gpf.trace);
    if let Err(e) = std::fs::write(path, &json) {
        die(&format!("cannot write trace to {path}: {e}"));
    }
    console_out(&sink::text_report(&gpf.trace, 10));
    console_err(&format!(
        "trace: {} events ({} dropped), {} stages derived, {} fused chains -> {path} \
         (load at https://ui.perfetto.dev)",
        gpf.trace.events.len(),
        gpf.trace.dropped,
        gpf.run.num_stages(),
        gpf.fused_chains,
    ));
}

/// `--validate-trace PATH`: schema-check a Chrome trace file, and fail when
/// the exporter recorded ring drops (the derived numbers undercount) unless
/// `--allow-drops` waives the check.
fn validate_trace_file(path: &str, allow_drops: bool) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
    match sink::validate_chrome_trace(&text) {
        Ok(n) => console_err(&format!("{path}: valid Chrome trace, {n} events")),
        Err(e) => die(&format!("{path}: invalid Chrome trace: {e}")),
    }
    let dropped = parse_gpf_dropped(&text).unwrap_or(0);
    if dropped > 0 {
        if allow_drops {
            console_err(&format!(
                "{path}: {dropped} events dropped (ring overflow) — accepted via --allow-drops"
            ));
        } else {
            die(&format!(
                "{path}: {dropped} events dropped (ring overflow) — derived numbers \
                 undercount; raise the trace capacity or pass --allow-drops"
            ));
        }
    }
}

/// Extract the `"gpfDropped":N` header field the Chrome exporter stamps.
fn parse_gpf_dropped(text: &str) -> Option<u64> {
    let key = "\"gpfDropped\":";
    let at = text.find(key)? + key.len();
    let digits: String = text[at..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// Render the per-stage heap columns of a derived run plus the global tag
/// attribution the tracking allocator accumulated.
fn mem_breakdown(run: &gpf_engine::JobRun) -> String {
    use std::fmt::Write as _;
    let mb = |b: u64| b as f64 / (1024.0 * 1024.0);
    let mut out = String::new();
    let _ = writeln!(out, "per-stage heap (tracking allocator)");
    let _ = writeln!(
        out,
        "{:<4} {:<10} {:<28} {:>10} {:>12} {:>13}",
        "id", "phase", "label", "peak(MB)", "live-end(MB)", "task-peak(MB)"
    );
    for s in &run.stages {
        let _ = writeln!(
            out,
            "{:<4} {:<10} {:<28} {:>10.2} {:>12.2} {:>13.2}",
            s.id,
            s.phase,
            s.label.chars().take(28).collect::<String>(),
            mb(s.heap_peak_bytes),
            mb(s.heap_live_bytes),
            mb(s.heap_task_peak_bytes),
        );
    }
    let total = |name: &str| -> u64 {
        gpf_trace::counters_snapshot()
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };
    use gpf_trace::names as tn;
    let _ = writeln!(
        out,
        "heap tags (MB allocated): task {:.2}  serde {:.2}  shuffle {:.2}  spill {:.2}  \
         untagged {:.2}",
        mb(total(tn::HEAP_TAG_TASK)),
        mb(total(tn::HEAP_TAG_SERDE)),
        mb(total(tn::HEAP_TAG_SHUFFLE)),
        mb(total(tn::HEAP_TAG_SPILL)),
        mb(total(tn::HEAP_TAG_UNTAGGED)),
    );
    let _ = writeln!(
        out,
        "heap totals: {:.2} MB allocated / {:.2} MB freed over {} allocations",
        mb(total(tn::HEAP_ALLOC_BYTES)),
        mb(total(tn::HEAP_FREED_BYTES)),
        total(tn::HEAP_ALLOC_COUNT),
    );
    out
}

/// `--mem-report`: run the WGS pipeline with tracing and the tracking
/// allocator on, then print the trace text report followed by the
/// per-stage heap breakdown and tag attribution.
fn run_mem_report(scale: f64) {
    gpf_trace::set_enabled(true);
    gpf_trace::alloc::set_tracking(true);
    let run = WgsWorkload::build(scale, 2018).run_gpf(true);
    gpf_trace::alloc::flush_thread_stats();
    gpf_trace::alloc::set_tracking(false);
    gpf_trace::set_enabled(false);
    console_out(&sink::text_report(&run.trace, 10));
    console_out(&mem_breakdown(&run.run));
}

/// Print per-stage diagnostics of the optimized GPF replay (not a paper
/// artifact; a tool for understanding what bounds the simulated makespan).
fn diagnose(lab: &Lab) {
    let gpf = lab.replay(Job::Gpf { fused: true });
    let run = &gpf.run;
    println!(
        "{:<4} {:<10} {:<28} {:>6} {:>9} {:>9} {:>10} {:>10} {:>9}",
        "id", "phase", "label", "tasks", "cpu(s)", "max(s)", "read", "write", "bcast"
    );
    for s in &run.stages {
        let max = s.task_cpu_s.iter().cloned().fold(0.0f64, f64::max);
        println!(
            "{:<4} {:<10} {:<28} {:>6} {:>9.3} {:>9.4} {:>10} {:>10} {:>9}",
            s.id,
            s.phase,
            s.label.chars().take(28).collect::<String>(),
            s.num_tasks(),
            s.total_cpu_s(),
            max,
            s.total_shuffle_read(),
            s.total_shuffle_write(),
            s.broadcast_bytes,
        );
    }
    // Routing sanity: how do aligned records distribute over partitions?
    {
        let w = lab.workload();
        let records = w.aligned_records();
        let unmapped = records.iter().filter(|r| !r.flags.is_mapped()).count();
        println!(
            "records {} unmapped {} ({:.1}%)",
            records.len(),
            unmapped,
            100.0 * unmapped as f64 / records.len() as f64
        );
        let base = gpf_core::PartitionInfo::new(&w.reference.dict().lengths(), w.partition_len);
        let mut counts = vec![0u64; base.num_base_partitions() as usize];
        for r in records {
            counts[gpf_core::process::route_record(r, &base) as usize] += 1;
        }
        let count_pairs: Vec<(u32, u64)> =
            counts.iter().enumerate().map(|(i, &c)| (i as u32, c)).collect();
        let total: u64 = counts.iter().sum();
        let threshold = (total / base.num_base_partitions().max(1) as u64 / 2).max(1);
        let info = base.with_splits(&count_pairs, threshold);
        let mut final_counts = vec![0u64; info.num_partitions() as usize];
        for r in records {
            final_counts[gpf_core::process::route_record(r, &info) as usize] += 1;
        }
        let mut sorted: Vec<(u64, usize)> =
            final_counts.iter().enumerate().map(|(i, &c)| (c, i)).collect();
        sorted.sort_by_key(|&(count, _)| std::cmp::Reverse(count));
        println!(
            "final partitions {} mean {:.1}; top: {:?}",
            info.num_partitions(),
            total as f64 / info.num_partitions() as f64,
            &sorted[..8.min(sorted.len())]
        );
    }
    // Markdup-shuffle key skew check.
    {
        let w = lab.workload();
        let records = w.aligned_records();
        let mut sizes = vec![0u64; w.fastq_parts];
        for r in records {
            let own = (r.contig, r.pos);
            let mate = (r.mate_contig, r.mate_pos);
            let key = own.min(mate);
            let k = (key.0 as u64).wrapping_shl(40) | key.1;
            sizes[(gpf_engine::dataset::stable_hash(&k) % w.fastq_parts as u64) as usize] += 1;
        }
        let mut s: Vec<u64> = sizes.clone();
        s.sort();
        println!(
            "markdup-shuffle partition records: median {} p99 {} max {}",
            s[s.len() / 2],
            s[s.len() * 99 / 100],
            s.last().copied().unwrap_or(0)
        );
    }
    // Decompose the longest tasks of each stage under the paper cluster's
    // per-task bandwidth shares (disk 12 MB/s, net 150 MB/s, cpu x3.5).
    for s in &run.stages {
        let n = s.num_tasks();
        let mut durations: Vec<(f64, f64, f64, usize)> = (0..n)
            .map(|i| {
                let cpu = s.task_cpu_s.get(i).copied().unwrap_or(0.0) * 3.5;
                let read = s.shuffle_read_bytes.get(i).copied().unwrap_or(0) as f64;
                let write = s.shuffle_write_bytes.get(i).copied().unwrap_or(0) as f64;
                let disk = (read + write) / 12.0e6;
                let net = read / 150.0e6;
                (cpu + disk + net, cpu, disk + net, i)
            })
            .collect();
        durations.sort_by(|a, b| b.0.total_cmp(&a.0));
        let top: Vec<String> = durations
            .iter()
            .take(3)
            .map(|(t, cpu, io, i)| format!("#{i}: {t:.3}s (cpu {cpu:.3} io {io:.3})"))
            .collect();
        println!("stage {:>2} top tasks: {}", s.id, top.join("  "));
    }
    for cores in [128usize, 2048] {
        let sim = gpf_engine::sim::simulate(
            run,
            &gpf_engine::SimCluster::paper_cluster(cores),
            &gpf_engine::SimOptions::default(),
        );
        println!(
            "\nsim @{cores}: makespan {:.3}s busy {:.1} core-s gc {:.2} disk {:.2} net {:.2} serial {:.3}",
            sim.makespan_s, sim.core_busy_s, sim.gc_s, sim.disk_s, sim.net_s, sim.serial_s
        );
        for span in sim.stage_spans.iter() {
            if span.end_s - span.start_s > 0.01 * sim.makespan_s {
                println!(
                    "  stage {:>3} [{:<8}] {:>8.3} -> {:>8.3} (serial {:.4}) {}",
                    span.stage_id, span.phase, span.start_s, span.end_s, span.serial_s, span.label
                );
            }
        }
    }
}
