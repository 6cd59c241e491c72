//! The cluster cost model: replay a recorded [`JobRun`] on a simulated
//! cluster of `nodes × cores_per_node` cores.
//!
//! Task CPU durations come from real measured execution (see
//! [`crate::dataset`]); this module adds the parts a laptop cannot measure —
//! disk bandwidth, network transfer, stage barriers, serial driver steps —
//! and schedules the tasks with an LPT (longest-processing-time-first) list
//! scheduler, exactly the greedy policy Spark's scheduler approximates.
//!
//! Outputs map one-to-one onto the paper's evaluation artifacts:
//!
//! * [`SimResult::makespan_s`] at varying core counts → Figure 10;
//! * [`blocked_time`] counterfactuals (zero disk / zero network) →
//!   Figure 12, the Ousterhout-style blocked-time analysis of §5.3.1;
//! * [`SimResult::timeline`] per-second CPU/disk/network utilization →
//!   Figure 13;
//! * core-hours, GC time, shuffle time and shuffle bytes → Table 4.

use crate::metrics::{JobRun, StageKind};

/// Cluster hardware description.
#[derive(Debug, Clone)]
pub struct SimCluster {
    /// Number of nodes.
    pub nodes: usize,
    /// Usable cores per node (the paper uses 10 of 24 due to memory limits).
    pub cores_per_node: usize,
    /// Sequential disk bandwidth per node, bytes/s (SATA ~120 MB/s).
    pub disk_bw_bps: f64,
    /// Network bandwidth per node, bytes/s (IB FDR effective ~1.5 GB/s).
    pub net_bw_bps: f64,
    /// Per-I/O fixed latency, seconds.
    pub io_latency_s: f64,
    /// Scale factor from measured host CPU seconds to simulated CPU seconds
    /// (calibrates host speed to the paper's Xeon E5-2692v2; 1.0 = as
    /// measured).
    pub cpu_scale: f64,
}

impl SimCluster {
    /// The paper's cluster (§5.1) scaled to `cores` total cores: Xeon
    /// E5-2692v2 nodes with one SATA disk each, InfiniBand FDR, 10 usable
    /// cores per node.
    pub fn paper_cluster(cores: usize) -> Self {
        assert!(cores > 0);
        let cores_per_node = 10usize.min(cores);
        Self {
            nodes: cores.div_ceil(cores_per_node),
            cores_per_node,
            disk_bw_bps: 120.0 * 1e6,
            net_bw_bps: 1.5 * 1e9,
            io_latency_s: 0.5e-3,
            cpu_scale: 1.0,
        }
    }

    /// Total cores.
    pub(crate) fn cores(&self) -> usize {
        self.nodes * self.cores_per_node
    }

    /// Fair-share disk bandwidth per concurrently running task.
    fn disk_share(&self) -> f64 {
        self.disk_bw_bps / self.cores_per_node as f64
    }

    /// Fair-share network bandwidth per concurrently running task.
    fn net_share(&self) -> f64 {
        self.net_bw_bps / self.cores_per_node as f64
    }
}

/// GC seconds charged per byte of heap churn: 25 s per GiB.
const GC_SECONDS_PER_BYTE: f64 = 25.0 / (1u64 << 30) as f64;

/// Simulation options.
#[derive(Debug, Clone)]
pub struct SimOptions {
    /// Zero out disk time (blocked-time counterfactual).
    pub zero_disk: bool,
    /// Zero out network time (blocked-time counterfactual).
    pub zero_net: bool,
    /// Number of timeline bins to emit.
    pub timeline_bins: usize,
}

impl Default for SimOptions {
    fn default() -> Self {
        Self { zero_disk: false, zero_net: false, timeline_bins: 240 }
    }
}

/// One simulated task's time components.
#[derive(Debug, Clone, Copy, Default)]
struct TaskSim {
    cpu_s: f64,
    gc_s: f64,
    disk_s: f64,
    net_s: f64,
}

impl TaskSim {
    fn total(&self) -> f64 {
        self.cpu_s + self.gc_s + self.disk_s + self.net_s
    }
}

/// A scheduled task instance (for the timeline).
#[derive(Debug, Clone, Copy)]
struct Placed {
    start: f64,
    task: TaskSim,
    disk_bytes: u64,
    net_bytes: u64,
}

/// Span of one stage in simulated time.
#[derive(Debug, Clone)]
pub struct StageSpan {
    /// Stage id from the recorded run.
    pub stage_id: usize,
    /// Phase tag ("aligner" / "cleaner" / "caller" / ...).
    pub phase: String,
    /// Stage label.
    pub label: String,
    /// Start time, seconds.
    pub start_s: f64,
    /// End time, seconds.
    pub end_s: f64,
    /// Serial (driver) seconds inside this span.
    pub serial_s: f64,
}

/// One timeline bin.
#[derive(Debug, Clone, Copy)]
pub struct TimeBin {
    /// Bin start time, seconds.
    pub t_s: f64,
    /// Mean CPU utilization in `[0,1]` across all cores.
    pub cpu_util: f64,
    /// Aggregate disk throughput, bytes/s.
    pub disk_bps: f64,
    /// Aggregate network throughput, bytes/s.
    pub net_bps: f64,
}

/// Result of simulating a job on a cluster.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Wall-clock job completion time, seconds.
    pub makespan_s: f64,
    /// Sum of all task durations (the paper's "Core Hour" is this / 3600).
    pub core_busy_s: f64,
    /// Total GC seconds across tasks.
    pub gc_s: f64,
    /// Total disk I/O seconds across tasks.
    pub disk_s: f64,
    /// Total network seconds across tasks.
    pub net_s: f64,
    /// Total serial driver seconds (collects, broadcasts).
    pub serial_s: f64,
    /// Per-stage spans.
    pub stage_spans: Vec<StageSpan>,
    /// Utilization timeline.
    pub timeline: Vec<TimeBin>,
}

impl SimResult {
    /// Core hours (Table 4 row).
    pub fn core_hours(&self) -> f64 {
        self.core_busy_s / 3600.0
    }

    /// Shuffle time in seconds: disk + network I/O attributable to shuffles.
    pub fn shuffle_time_s(&self) -> f64 {
        self.disk_s + self.net_s
    }
}

/// Simulate `run` on `cluster`.
pub fn simulate(run: &JobRun, cluster: &SimCluster, opts: &SimOptions) -> SimResult {
    let cores = cluster.cores();
    assert!(cores > 0);
    let mut clock = 0.0f64;
    let mut core_busy = 0.0f64;
    let mut gc_total = 0.0f64;
    let mut disk_total = 0.0f64;
    let mut net_total = 0.0f64;
    let mut serial_total = 0.0f64;
    let mut spans = Vec::with_capacity(run.stages.len());
    let mut placed: Vec<Placed> = Vec::new();

    for stage in &run.stages {
        let n = stage.num_tasks();
        let start = clock;
        let mut tasks: Vec<TaskSim> = Vec::with_capacity(n);
        let total_cpu: f64 = stage.task_cpu_s.iter().sum();
        for i in 0..n {
            let cpu = stage.task_cpu_s.get(i).copied().unwrap_or(0.0) * cluster.cpu_scale;
            let read = stage.shuffle_read_bytes.get(i).copied().unwrap_or(0) as f64;
            let write = stage.shuffle_write_bytes.get(i).copied().unwrap_or(0) as f64;
            // GC distributed across tasks in proportion to CPU share (uniform
            // when the stage did no CPU work).
            let gc_share = if total_cpu > 0.0 {
                stage.task_cpu_s.get(i).copied().unwrap_or(0.0) / total_cpu
            } else {
                1.0 / n.max(1) as f64
            };
            let gc = stage.alloc_bytes as f64 * GC_SECONDS_PER_BYTE * gc_share;
            // Shuffle reads come from remote disks over the network; writes
            // go to local disk (Spark always spills shuffle output to disk).
            // Collect results skip the disk: tasks stream them to the driver.
            let (disk_bytes, extra_net) = if stage.kind == StageKind::Collect {
                (read, write)
            } else {
                (read + write, 0.0)
            };
            let mut disk = disk_bytes / cluster.disk_share();
            let mut net = (read + extra_net) / cluster.net_share();
            if disk_bytes > 0.0 {
                disk += cluster.io_latency_s;
            }
            if read + extra_net > 0.0 {
                net += cluster.io_latency_s;
            }
            if opts.zero_disk {
                disk = 0.0;
            }
            if opts.zero_net {
                net = 0.0;
            }
            tasks.push(TaskSim { cpu_s: cpu, gc_s: gc, disk_s: disk, net_s: net });
        }

        // LPT list scheduling onto `cores` identical cores.
        let mut order: Vec<usize> = (0..tasks.len()).collect();
        order.sort_by(|&a, &b| tasks[b].total().total_cmp(&tasks[a].total()));
        let mut core_free = vec![start; cores];
        let mut stage_end = start;
        for &ti in &order {
            let t = tasks[ti];
            // Earliest-available core (linear scan is fine: cores ≤ few thousand).
            let mut ci = 0;
            let mut free = f64::INFINITY;
            for (i, &f) in core_free.iter().enumerate() {
                if f < free {
                    ci = i;
                    free = f;
                }
            }
            let end = free + t.total();
            core_free[ci] = end;
            stage_end = stage_end.max(end);
            core_busy += t.total();
            gc_total += t.gc_s;
            disk_total += t.disk_s;
            net_total += t.net_s;
            let read = stage.shuffle_read_bytes.get(ti).copied().unwrap_or(0);
            let write = stage.shuffle_write_bytes.get(ti).copied().unwrap_or(0);
            placed.push(Placed {
                start: free,
                task: t,
                disk_bytes: if opts.zero_disk { 0 } else { read + write },
                net_bytes: if opts.zero_net { 0 } else { read },
            });
        }

        // Serial driver work: collect funnel and broadcast distribution.
        let mut serial = 0.0f64;
        if stage.kind == StageKind::Collect {
            let bytes: u64 = stage.shuffle_write_bytes.iter().sum();
            if !opts.zero_net {
                serial += bytes as f64 / cluster.net_bw_bps + cluster.io_latency_s;
            }
        }
        if stage.broadcast_bytes > 0 && !opts.zero_net {
            // Torrent-style broadcast: ~log2(nodes) rounds of full transfers.
            let rounds = ((cluster.nodes as f64).log2().ceil()).max(1.0);
            serial += stage.broadcast_bytes as f64 / cluster.net_bw_bps * rounds;
        }
        serial_total += serial;
        clock = stage_end + serial;
        spans.push(StageSpan {
            stage_id: stage.id,
            phase: stage.phase.clone(),
            label: stage.label.clone(),
            start_s: start,
            end_s: clock,
            serial_s: serial,
        });
    }

    let timeline = build_timeline(&placed, clock, cores, opts.timeline_bins);
    SimResult {
        makespan_s: clock,
        core_busy_s: core_busy,
        gc_s: gc_total,
        disk_s: disk_total,
        net_s: net_total,
        serial_s: serial_total,
        stage_spans: spans,
        timeline,
    }
}

/// Bin placed tasks into a utilization timeline. Within a task, I/O happens
/// first (read), CPU+GC in the middle, and the write share of disk at the
/// end; for binning we spread each component uniformly over the task span —
/// at Figure 13's resolution the difference is invisible.
fn build_timeline(placed: &[Placed], makespan: f64, cores: usize, bins: usize) -> Vec<TimeBin> {
    if makespan <= 0.0 || bins == 0 {
        return Vec::new();
    }
    let dt = makespan / bins as f64;
    let mut cpu = vec![0.0f64; bins];
    let mut disk = vec![0.0f64; bins];
    let mut net = vec![0.0f64; bins];
    for p in placed {
        let dur = p.task.total();
        if dur <= 0.0 {
            continue;
        }
        let cpu_frac = (p.task.cpu_s + p.task.gc_s) / dur;
        let first = ((p.start / dt) as usize).min(bins - 1);
        let last = (((p.start + dur) / dt) as usize).min(bins - 1);
        for b in first..=last {
            let bin_start = b as f64 * dt;
            let bin_end = bin_start + dt;
            let overlap = (p.start + dur).min(bin_end) - p.start.max(bin_start);
            if overlap <= 0.0 {
                continue;
            }
            cpu[b] += overlap * cpu_frac;
            let share = overlap / dur;
            disk[b] += p.disk_bytes as f64 * share;
            net[b] += p.net_bytes as f64 * share;
        }
    }
    (0..bins)
        .map(|b| TimeBin {
            t_s: b as f64 * dt,
            cpu_util: (cpu[b] / (dt * cores as f64)).min(1.0),
            disk_bps: disk[b] / dt,
            net_bps: net[b] / dt,
        })
        .collect()
}

/// Blocked-time analysis (§5.3.1 / Figure 12): job completion time with all
/// disk or all network time removed, as an upper bound on what I/O
/// optimization could buy.
#[derive(Debug, Clone)]
pub struct BlockedTimeReport {
    /// Baseline makespan.
    pub base_s: f64,
    /// Makespan with disk time zeroed.
    pub without_disk_s: f64,
    /// Makespan with network time zeroed.
    pub without_net_s: f64,
}

impl BlockedTimeReport {
    /// Fractional JCT reduction from removing disk I/O.
    pub fn disk_improvement(&self) -> f64 {
        (1.0 - self.without_disk_s / self.base_s).max(0.0)
    }

    /// Fractional JCT reduction from removing network I/O.
    pub fn net_improvement(&self) -> f64 {
        (1.0 - self.without_net_s / self.base_s).max(0.0)
    }
}

/// Run the three counterfactual simulations.
pub fn blocked_time(run: &JobRun, cluster: &SimCluster, opts: &SimOptions) -> BlockedTimeReport {
    let base = simulate(run, cluster, opts);
    let mut no_disk = opts.clone();
    no_disk.zero_disk = true;
    let mut no_net = opts.clone();
    no_net.zero_net = true;
    BlockedTimeReport {
        base_s: base.makespan_s,
        without_disk_s: simulate(run, cluster, &no_disk).makespan_s,
        without_net_s: simulate(run, cluster, &no_net).makespan_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::StageMetrics;

    /// `stages` stages of `tasks` equal tasks. No stage allocates, so the
    /// simulator charges no GC.
    fn uniform_run(stages: usize, tasks: usize, cpu_each: f64, shuffle_bytes: u64) -> JobRun {
        let mut run = JobRun::default();
        for s in 0..stages {
            let mut st = StageMetrics::new(s, "phase".into());
            st.task_cpu_s = vec![cpu_each; tasks];
            if s > 0 {
                st.shuffle_read_bytes = vec![shuffle_bytes / tasks as u64; tasks];
            }
            if s + 1 < stages {
                st.shuffle_write_bytes = vec![shuffle_bytes / tasks as u64; tasks];
                st.kind = StageKind::Shuffle;
            }
            run.stages.push(st);
        }
        run
    }

    #[test]
    fn more_cores_never_slower() {
        let run = uniform_run(3, 256, 0.5, 1 << 28);
        let opts = SimOptions::default();
        let mut last = f64::INFINITY;
        for cores in [32, 64, 128, 256, 512] {
            let r = simulate(&run, &SimCluster::paper_cluster(cores), &opts);
            assert!(r.makespan_s <= last + 1e-9, "{cores} cores regressed");
            last = r.makespan_s;
        }
    }

    #[test]
    fn perfect_scaling_until_task_limit() {
        // 256 equal tasks, no I/O: doubling cores halves time until
        // cores > tasks, after which time is flat.
        let run = uniform_run(1, 256, 1.0, 0);
        let opts = SimOptions::default();
        let t64 = simulate(&run, &SimCluster::paper_cluster(64), &opts).makespan_s;
        let t128 = simulate(&run, &SimCluster::paper_cluster(128), &opts).makespan_s;
        let t512 = simulate(&run, &SimCluster::paper_cluster(512), &opts).makespan_s;
        assert!((t64 / t128 - 2.0).abs() < 0.05, "t64={t64} t128={t128}");
        assert!((t512 - 1.0).abs() < 1e-6, "flat at one task-duration: {t512}");
    }

    #[test]
    fn straggler_bounds_makespan() {
        let mut run = uniform_run(1, 64, 0.1, 0);
        run.stages[0].task_cpu_s[7] = 30.0;
        let opts = SimOptions::default();
        let r = simulate(&run, &SimCluster::paper_cluster(1024), &opts);
        assert!((r.makespan_s - 30.0).abs() < 1e-6);
    }

    #[test]
    fn blocked_time_counterfactuals_ordered() {
        let run = uniform_run(4, 64, 0.2, 1 << 30);
        let cluster = SimCluster::paper_cluster(128);
        let rep = blocked_time(&run, &cluster, &SimOptions::default());
        assert!(rep.without_disk_s <= rep.base_s);
        assert!(rep.without_net_s <= rep.base_s);
        assert!(rep.disk_improvement() > 0.0);
        assert!(rep.net_improvement() >= 0.0);
        // Shuffle reads hit both disk and network; writes disk only, so the
        // disk improvement should dominate (§5.3.1 found the same).
        assert!(rep.disk_improvement() >= rep.net_improvement());
    }

    #[test]
    fn gc_time_scales_with_alloc_bytes() {
        let mut run = uniform_run(1, 8, 0.1, 0);
        run.stages[0].alloc_bytes = 4 << 30;
        let r = simulate(&run, &SimCluster::paper_cluster(64), &SimOptions::default());
        assert!((r.gc_s - 100.0).abs() < 1.0, "4 GiB at 25 s/GiB: {}", r.gc_s);
    }

    #[test]
    fn collect_adds_serial_time() {
        let mut run = JobRun::default();
        let mut st = StageMetrics::new(0, "p".into());
        st.task_cpu_s = vec![0.1; 4];
        st.kind = StageKind::Collect;
        st.shuffle_write_bytes = vec![3_000_000_000]; // 3 GB to the driver
        run.stages.push(st);
        let cluster = SimCluster::paper_cluster(64);
        let r = simulate(&run, &cluster, &SimOptions::default());
        assert!(r.serial_s > 1.5, "3 GB over 1.5 GB/s ≥ 2 s serial: {}", r.serial_s);
        // Serial time does not shrink with more cores.
        let r2 = simulate(&run, &SimCluster::paper_cluster(2048), &SimOptions::default());
        assert!((r2.serial_s - r.serial_s).abs() / r.serial_s < 0.5);
    }

    #[test]
    fn broadcast_cost_grows_with_node_count() {
        let mut run = JobRun::default();
        let mut st = StageMetrics::new(0, "p".into());
        st.task_cpu_s = vec![0.1; 4];
        st.broadcast_bytes = 2_000_000_000;
        run.stages.push(st);
        let small = simulate(&run, &SimCluster::paper_cluster(20), &SimOptions::default());
        let large = simulate(&run, &SimCluster::paper_cluster(2048), &SimOptions::default());
        assert!(large.serial_s > small.serial_s);
    }

    #[test]
    fn timeline_conserves_bytes() {
        let run = uniform_run(2, 32, 0.3, 1 << 26);
        let opts = SimOptions { timeline_bins: 100, ..Default::default() };
        let r = simulate(&run, &SimCluster::paper_cluster(64), &opts);
        let dt = r.makespan_s / 100.0;
        let disk_bytes: f64 = r.timeline.iter().map(|b| b.disk_bps * dt).sum();
        let expected: u64 = run.stages.iter().map(|s| s.total_shuffle_write() + s.total_shuffle_read()).sum();
        let rel_err = (disk_bytes - expected as f64).abs() / expected as f64;
        assert!(rel_err < 0.05, "timeline disk {disk_bytes} vs recorded {expected}");
        assert!(r.timeline.iter().all(|b| b.cpu_util <= 1.0 + 1e-9));
    }

    #[test]
    fn empty_run_is_zero() {
        let r = simulate(&JobRun::default(), &SimCluster::paper_cluster(64), &SimOptions::default());
        assert_eq!(r.makespan_s, 0.0);
        assert!(r.timeline.is_empty());
    }

    #[test]
    fn cpu_scale_multiplies_cpu_time() {
        let run = uniform_run(1, 16, 1.0, 0);
        let mut cluster = SimCluster::paper_cluster(16);
        cluster.cpu_scale = 2.0;
        let opts = SimOptions::default();
        let r = simulate(&run, &cluster, &opts);
        assert!((r.makespan_s - 2.0).abs() < 1e-9);
    }
}
