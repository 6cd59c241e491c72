//! Engine configuration.

use crate::fault::FaultPlan;
use gpf_compress::SerializerKind;

/// Engine-wide configuration — the analogue of a `SparkConf`.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Serializer used for shuffle payloads and serialized persistence.
    ///
    /// The paper's GPF uses its genomic compression ([`SerializerKind::Gpf`]);
    /// the ADAM/GATK4-like baselines run the same pipelines under
    /// [`SerializerKind::KryoSim`].
    pub serializer: SerializerKind,
    /// Default number of partitions for `parallelize` and wide operations
    /// when the caller does not specify one.
    pub default_parallelism: usize,
    /// Fixed per-record heap-churn estimate (object headers, boxing) in
    /// bytes, on top of payload bytes.
    pub per_record_overhead_bytes: u64,
    /// The fault plan. `None` (the default) disables the whole fault path —
    /// no injection, no checksums, no retry machinery — so pipelines that
    /// don't opt in pay nothing.
    pub faults: Option<FaultPlan>,
    /// Memory budget for resident partition bytes, in bytes. `None` (the
    /// default) runs fully in-memory, exactly as before. `Some(bytes)`
    /// installs a [`crate::BudgetAccountant`] on the context: datasets
    /// produced by shuffles/barriers (and any marked `.evictable()`)
    /// become eviction candidates under a spill-vs-recompute policy, and
    /// map stages over evicted partitions stream chunk-by-chunk instead of
    /// materializing them.
    pub memory_budget: Option<u64>,
}

impl EngineConfig {
    /// GPF's configuration: compressed genomic serializer.
    pub fn gpf() -> Self {
        Self { serializer: SerializerKind::Gpf, ..Self::default() }
    }

    /// A Kryo-configured Spark analogue (ADAM / GATK4 baselines).
    pub fn kryo() -> Self {
        Self { serializer: SerializerKind::KryoSim, ..Self::default() }
    }

    /// A Java-serialization Spark analogue (Spark's out-of-the-box default).
    pub fn java() -> Self {
        Self { serializer: SerializerKind::JavaSim, ..Self::default() }
    }

    /// Set the default parallelism.
    pub fn with_parallelism(mut self, parts: usize) -> Self {
        assert!(parts > 0, "parallelism must be positive");
        self.default_parallelism = parts;
        self
    }

    /// Enable fault tolerance — checksummed segments and spill frames,
    /// bounded task retry, lineage recompute — with `plan` deciding what is
    /// injected ([`FaultPlan::seeded`]`(seed, 0)` injects nothing).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Cap resident partition bytes at `bytes`: install the memory-budget
    /// accountant and enable graceful degradation (eviction to checksummed
    /// spill, chunked streaming scans) when a stage would breach it.
    pub fn with_memory_budget(mut self, bytes: u64) -> Self {
        assert!(bytes > 0, "memory budget must be positive");
        self.memory_budget = Some(bytes);
        self
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            serializer: SerializerKind::Gpf,
            default_parallelism: 8,
            per_record_overhead_bytes: 48,
            faults: None,
            memory_budget: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_pick_serializers() {
        assert_eq!(EngineConfig::gpf().serializer, SerializerKind::Gpf);
        assert_eq!(EngineConfig::kryo().serializer, SerializerKind::KryoSim);
        assert_eq!(EngineConfig::java().serializer, SerializerKind::JavaSim);
    }

    #[test]
    fn with_parallelism_sets_value() {
        let c = EngineConfig::default().with_parallelism(64);
        assert_eq!(c.default_parallelism, 64);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_parallelism_rejected() {
        let _ = EngineConfig::default().with_parallelism(0);
    }

    #[test]
    fn memory_budget_default_off_and_opt_in() {
        assert!(EngineConfig::default().memory_budget.is_none());
        let c = EngineConfig::gpf().with_memory_budget(1 << 20);
        assert_eq!(c.memory_budget, Some(1 << 20));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_memory_budget_rejected() {
        let _ = EngineConfig::default().with_memory_budget(0);
    }

    #[test]
    fn faults_default_off_and_opt_in() {
        assert!(EngineConfig::default().faults.is_none());
        let c = EngineConfig::gpf().with_faults(FaultPlan::seeded(9, 100));
        assert_eq!(c.faults.as_ref().map(|plan| plan.seed), Some(9));
    }
}
