//! Shared-filesystem contention models — the substrate for the paper's
//! Table 1 motivation experiment.
//!
//! The paper ran a *classic* (file-based, non-GPF) WGS pipeline over 1–30
//! samples on Lustre and NFS and observed the I/O share of total runtime
//! climbing from ~29 % to 60 % (Lustre) and ~25 % to 74 % (NFS). The effect
//! is pure bandwidth contention: CPU capacity scales with the allocated
//! cores while shared-filesystem bandwidth does not. This module provides a
//! small analytic model of exactly that contention; the `table1` experiment
//! in `gpf-bench` drives a simulated classic pipeline through it.

/// A shared filesystem serving many concurrent client nodes.
#[derive(Debug, Clone)]
pub struct SharedFs {
    /// Descriptive name ("lustre", "nfs").
    pub name: &'static str,
    /// Aggregate backend bandwidth, bytes/s.
    pub aggregate_bw_bps: f64,
    /// Per-client cap (a single client cannot exceed this), bytes/s.
    pub per_client_bw_bps: f64,
    /// Fraction of aggregate bandwidth lost per extra concurrent client
    /// (metadata/lock contention; NFS suffers much more than Lustre).
    pub contention_loss: f64,
}

impl SharedFs {
    /// A Lustre-like parallel filesystem: high aggregate bandwidth spread
    /// over several OSSes, mild contention loss. Bandwidth constants are
    /// calibrated so the Table-1 workload profile lands on the paper's
    /// 29 % → 60 % I/O share when scaling 1 → 30 samples.
    pub fn lustre() -> Self {
        Self {
            name: "lustre",
            aggregate_bw_bps: 9.4e9,
            per_client_bw_bps: 1.05e9,
            contention_loss: 0.004,
        }
    }

    /// An NFS server: single-server bandwidth, strong contention loss
    /// (calibrated to Table 1's 25 % → 74 % I/O share).
    pub fn nfs() -> Self {
        Self {
            name: "nfs",
            aggregate_bw_bps: 6.7e9,
            per_client_bw_bps: 1.25e9,
            contention_loss: 0.012,
        }
    }

    /// Effective bandwidth available to *each* of `clients` concurrent
    /// clients, bytes/s.
    pub(crate) fn per_client_effective_bw(&self, clients: usize) -> f64 {
        assert!(clients > 0);
        let degraded =
            self.aggregate_bw_bps * (1.0 - self.contention_loss * (clients as f64 - 1.0)).max(0.2);
        (degraded / clients as f64).min(self.per_client_bw_bps)
    }

    /// Seconds for one client to move `bytes` while `clients` are active.
    pub(crate) fn transfer_seconds(&self, bytes: u64, clients: usize) -> f64 {
        bytes as f64 / self.per_client_effective_bw(clients)
    }
}

/// Result of the classic-pipeline Table 1 model for one configuration.
#[derive(Debug, Clone)]
pub struct IoCpuShare {
    /// Filesystem name.
    pub fs: &'static str,
    /// Number of samples processed concurrently.
    pub samples: usize,
    /// Total cores allocated.
    pub cores: usize,
    /// Time spent on I/O, seconds.
    pub io_s: f64,
    /// Time spent on CPU, seconds.
    pub cpu_s: f64,
}

impl IoCpuShare {
    /// I/O share of total runtime.
    pub fn io_percent(&self) -> f64 {
        100.0 * self.io_s / (self.io_s + self.cpu_s)
    }

    /// CPU share of total runtime.
    pub fn cpu_percent(&self) -> f64 {
        100.0 - self.io_percent()
    }
}

/// Effective parallelism cap of classic single-node bioinformatics tools.
///
/// The paper's related-work data (HugeSeq, GATK-Queue, Churchill itself)
/// show "modest improvements in speed between 8 and 24 cores (2-fold), with
/// a maximal 3-fold speedup being achieved with 48 cores, and no additional
/// increase beyond 48 cores" — the classic pipeline of Table 1 does not use
/// more than ~16 cores effectively per sample.
pub(crate) const CLASSIC_EFFECTIVE_CORES: usize = 16;

/// Model a classic file-based WGS pipeline (the paper's Table 1 setup):
/// every stage writes its intermediate SAM/BAM files back to the shared
/// filesystem and the next stage reads them. `bytes_per_sample` is the
/// total intermediate volume moved per sample across the pipeline;
/// `cpu_core_seconds_per_sample` the compute work per sample. Per-sample
/// compute parallelism saturates at [`CLASSIC_EFFECTIVE_CORES`].
pub fn classic_pipeline_share(
    fs: &SharedFs,
    samples: usize,
    cores_per_sample: usize,
    bytes_per_sample: u64,
    cpu_core_seconds_per_sample: f64,
) -> IoCpuShare {
    // All samples run concurrently, each on its own core group; all hit the
    // shared filesystem at once.
    let effective = cores_per_sample.min(CLASSIC_EFFECTIVE_CORES);
    let cpu_s = cpu_core_seconds_per_sample / effective as f64;
    let io_s = fs.transfer_seconds(bytes_per_sample, samples);
    IoCpuShare { fs: fs.name, samples, cores: samples * cores_per_sample, io_s, cpu_s }
}

/// The Table 1 workload profile: one 100 Gb+ WGS sample moves ~780 GB of
/// intermediate data through the shared filesystem over the pipeline and
/// costs ~30 000 core-seconds of compute.
pub const TABLE1_BYTES_PER_SAMPLE: u64 = 780_000_000_000;
/// Compute cost per sample for the Table 1 profile, core-seconds.
pub const TABLE1_CPU_CORE_SECONDS: f64 = 30_000.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_client_gets_capped_bandwidth() {
        let l = SharedFs::lustre();
        assert_eq!(l.per_client_effective_bw(1), l.per_client_bw_bps);
    }

    #[test]
    fn bandwidth_degrades_with_clients() {
        for fs in [SharedFs::lustre(), SharedFs::nfs()] {
            let one = fs.per_client_effective_bw(1);
            let ten = fs.per_client_effective_bw(10);
            let thirty = fs.per_client_effective_bw(30);
            assert!(one >= ten, "{}", fs.name);
            assert!(ten > thirty, "{}", fs.name);
        }
    }

    #[test]
    fn nfs_congests_harder_than_lustre() {
        let l = SharedFs::lustre().per_client_effective_bw(30);
        let n = SharedFs::nfs().per_client_effective_bw(30);
        assert!(l > 1.5 * n, "lustre {l} vs nfs {n}");
    }

    #[test]
    fn io_share_grows_with_scale_like_table1() {
        // Table 1: Lustre 29% -> 60%, NFS 25% -> 74% scaling 1 -> 30 samples
        // (1 sample on 96 cores, 30 samples on 480 cores = 16 cores each).
        let bytes = TABLE1_BYTES_PER_SAMPLE;
        let cpu = TABLE1_CPU_CORE_SECONDS;
        let l1 = classic_pipeline_share(&SharedFs::lustre(), 1, 96, bytes, cpu);
        let l30 = classic_pipeline_share(&SharedFs::lustre(), 30, 16, bytes, cpu);
        let n1 = classic_pipeline_share(&SharedFs::nfs(), 1, 96, bytes, cpu);
        let n30 = classic_pipeline_share(&SharedFs::nfs(), 30, 16, bytes, cpu);
        assert!((l1.io_percent() - 29.0).abs() < 4.0, "lustre 1: {:.1}%", l1.io_percent());
        assert!((l30.io_percent() - 60.0).abs() < 6.0, "lustre 30: {:.1}%", l30.io_percent());
        assert!((n1.io_percent() - 25.0).abs() < 4.0, "nfs 1: {:.1}%", n1.io_percent());
        assert!((n30.io_percent() - 74.0).abs() < 6.0, "nfs 30: {:.1}%", n30.io_percent());
        assert!(n30.io_percent() > l30.io_percent(), "NFS saturates before Lustre");
    }

    #[test]
    fn share_percentages_sum_to_hundred() {
        let s = classic_pipeline_share(&SharedFs::nfs(), 4, 8, 1 << 30, 100.0);
        assert!((s.io_percent() + s.cpu_percent() - 100.0).abs() < 1e-9);
        assert_eq!(s.cores, 32);
    }
}
