//! Deterministic fault injection and the structured errors recovery
//! surfaces — GPF's stand-in for the task failures Spark treats as routine
//! at WGS scale (lost executors, corrupt shuffle files).
//!
//! The model is a [`FaultPlan`]: a pure function from a *fault site* —
//! `(stage, partition, attempt, surface)` — to an optional [`FaultKind`].
//! Sites are decided either explicitly (a [`FaultSite`] list, used by tests
//! that must exhaust a retry budget) or probabilistically from a seed: the
//! decision is a hash of the site coordinates, so the same seed replays the
//! exact same fault schedule on every run — a failing chaos test prints its
//! seed and the whole schedule is reproducible from it.
//!
//! Recovery itself lives in `task.rs` (retry), `frame.rs` (the checksum
//! verify and the bounded re-read), `shuffle.rs` and [`crate::dataset`]
//! (lineage recompute of a segment or a spilled partition) and
//! [`crate::context`] (the failure slot [`crate::EngineContext::fail`] that
//! [`gpf_core`]'s `Pipeline::run` maps to `PipelineError::TaskFailed`). This
//! module only holds the plan, the two recovery constants, and the
//! [`EngineError`] those layers exchange.

use gpf_support::rng::SplitMix64;
use std::fmt;

/// What gets injected at a fault site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The task attempt fails as if the user closure panicked.
    TaskPanic,
    /// One serialized shuffle bucket has a bit flipped after the map side
    /// checksummed it (detected by the reduce-side verify).
    CorruptBucket,
    /// One spill frame of a `barrier_via_disk` partition has a bit flipped
    /// at rest, after checksumming (detected on read-back).
    CorruptSpill,
    /// A spill *read* returns a truncated buffer (the stored bytes are
    /// intact; the read path saw a short copy — detected by checksum /
    /// record-count verification, recovered by re-read).
    TruncateSpill,
    /// A spill *read* returns a bit-flipped copy of an intact buffer
    /// (detected by checksum verification on read-back).
    CorruptSpillRead,
}

/// Where in the engine a fault decision is being made. Each surface admits
/// only the kinds that are physically meaningful there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultSurface {
    /// A narrow-op task (`narrow_op` and everything built on it).
    NarrowTask,
    /// A shuffle map task (route + order by bucket + serialize).
    ShuffleMap,
    /// One map partition's serialized bucket buffer.
    ShuffleBucket,
    /// One partition's `barrier_via_disk` spill frames, at rest.
    Spill,
    /// One partition's spill frames on *read-back* (barrier read side and
    /// budget-evicted partition restore). Faults here model transient read
    /// errors: the stored bytes stay intact, only the copy handed to the
    /// reader is damaged.
    SpillRead,
}

impl FaultSurface {
    /// Kinds a probabilistic plan may inject at this surface.
    fn kinds(self) -> &'static [FaultKind] {
        match self {
            FaultSurface::NarrowTask | FaultSurface::ShuffleMap => &[FaultKind::TaskPanic],
            FaultSurface::ShuffleBucket => &[FaultKind::CorruptBucket],
            FaultSurface::Spill => &[FaultKind::CorruptSpill],
            FaultSurface::SpillRead => &[FaultKind::TruncateSpill, FaultKind::CorruptSpillRead],
        }
    }

    fn id(self) -> u64 {
        match self {
            FaultSurface::NarrowTask => 1,
            FaultSurface::ShuffleMap => 2,
            FaultSurface::ShuffleBucket => 3,
            FaultSurface::Spill => 4,
            FaultSurface::SpillRead => 5,
        }
    }
}

/// An explicit injection site: fires when stage, partition and attempt all
/// match and `kind` is admissible at the queried surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSite {
    /// Stage index ([`crate::EngineContext::current_stage`] at op entry).
    pub stage: u32,
    /// Partition (task) index within the stage.
    pub partition: u32,
    /// Attempt number (0 = first execution).
    pub attempt: u32,
    /// What to inject.
    pub kind: FaultKind,
}

/// A replayable fault schedule: explicit sites plus a seeded injection rate.
///
/// This is the whole fault-tolerance configuration
/// ([`crate::EngineConfig::faults`]): `None` there skips every fault path —
/// the zero-overhead default — and a plan that injects nothing
/// ([`FaultPlan::seeded`]`(seed, 0)`) still turns checksums and recovery on.
///
/// The probabilistic path only ever fires on attempt 0, so any schedule it
/// produces is recoverable within a one-retry budget; schedules that must
/// defeat the budget (to test terminal failure) list explicit sites
/// covering every attempt.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the probabilistic site decisions (printed by chaos tests).
    pub seed: u64,
    /// Injection probability per site, in permille (0 disables the
    /// probabilistic path; 1000 faults every first attempt).
    pub rate_permille: u32,
    /// Explicit sites, checked before the probabilistic path.
    pub sites: Vec<FaultSite>,
}

impl FaultPlan {
    /// A purely probabilistic plan.
    pub fn seeded(seed: u64, rate_permille: u32) -> Self {
        Self { seed, rate_permille, sites: Vec::new() }
    }

    /// A plan that injects only at the listed sites.
    pub fn explicit(sites: Vec<FaultSite>) -> Self {
        Self { seed: 0, rate_permille: 0, sites }
    }

    /// Deterministic site hash: the whole schedule is a pure function of
    /// `(seed, stage, partition, surface)`.
    fn site_hash(&self, stage: u32, partition: u32, surface: FaultSurface) -> u64 {
        let a = SplitMix64::mix(self.seed, stage as u64);
        let b = SplitMix64::mix(a, partition as u64);
        SplitMix64::mix(b, surface.id())
    }

    /// Decide what (if anything) to inject at a site.
    pub(crate) fn decide(
        &self,
        stage: u32,
        partition: u32,
        attempt: u32,
        surface: FaultSurface,
    ) -> Option<FaultKind> {
        for site in &self.sites {
            if site.stage == stage
                && site.partition == partition
                && site.attempt == attempt
                && surface.kinds().contains(&site.kind)
            {
                return Some(site.kind);
            }
        }
        // The seeded path fires only on first attempts — retries of a
        // probabilistically faulted task always run clean, which is what
        // keeps every seeded schedule inside the retry budget.
        if attempt == 0 && self.rate_permille > 0 {
            let h = self.site_hash(stage, partition, surface);
            if h % 1000 < self.rate_permille as u64 {
                let kinds = surface.kinds();
                return Some(kinds[((h / 1000) % kinds.len() as u64) as usize]);
            }
        }
        None
    }

    /// Salt for deterministic byte corruption at a site (which bit of which
    /// buffer gets flipped).
    pub fn corruption_salt(&self, stage: u32, partition: u32) -> u64 {
        SplitMix64::mix(self.site_hash(stage, partition, FaultSurface::ShuffleBucket), 0x5a17)
    }
}

/// Flip one seeded bit of `bytes`. Returns `false` (and does nothing) when
/// the buffer is empty.
pub(crate) fn corrupt_bit(bytes: &mut [u8], salt: u64) -> bool {
    if bytes.is_empty() {
        return false;
    }
    let h = SplitMix64::mix(salt, bytes.len() as u64);
    let idx = (h % bytes.len() as u64) as usize;
    bytes[idx] ^= 1 << ((h >> 32) % 8);
    true
}

/// Retries allowed per task after its first attempt: a task failing
/// `1 + MAX_TASK_RETRIES` times surfaces an [`EngineError`], and a plan may
/// damage a spill read on attempts `0..=MAX_TASK_RETRIES` only.
pub(crate) const MAX_TASK_RETRIES: u32 = 3;

/// Base of the exponential per-attempt backoff *accounting*.
const BACKOFF_BASE_NS: u64 = 1_000_000;

/// Backoff charged to attempt `attempt` (`BACKOFF_BASE_NS << (attempt - 1)`;
/// the first attempt is charged nothing). Recorded, never slept: the engine
/// is in-memory and deterministic, so the cost model charges the wait
/// instead of paying it in wall-clock.
pub(crate) fn backoff_ns(attempt: u32) -> u64 {
    if attempt == 0 {
        0
    } else {
        BACKOFF_BASE_NS.saturating_mul(1u64 << (attempt - 1).min(20))
    }
}

/// One failed attempt in a task's history.
#[derive(Debug, Clone, PartialEq)]
pub struct AttemptRecord {
    /// Attempt number (0 = first execution).
    pub attempt: u32,
    /// Why the attempt failed (injected fault or captured panic message).
    pub cause: String,
    /// Backoff accounting charged before this attempt, in ns.
    pub backoff_ns: u64,
}

/// A task that exhausted its retry budget — the structured failure
/// `Pipeline::run` maps to `PipelineError::TaskFailed`.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineError {
    /// Operation label (`"map"`, `"partitionBy"`, …).
    pub label: String,
    /// Stage index at op entry.
    pub stage: u32,
    /// Partition (task) index.
    pub partition: u32,
    /// Every failed attempt, in order.
    pub attempts: Vec<AttemptRecord>,
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "task `{}` (stage {}, partition {}) failed after {} attempts: ",
            self.label,
            self.stage,
            self.partition,
            self.attempts.len()
        )?;
        for (i, a) in self.attempts.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "attempt {} ({} ns backoff): {}", a.attempt, a.backoff_ns, a.cause)?;
        }
        Ok(())
    }
}

impl std::error::Error for EngineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let plan = FaultPlan::seeded(0xfeed, 500);
        let again = FaultPlan::seeded(0xfeed, 500);
        let other = FaultPlan::seeded(0xbeef, 500);
        let mut same = 0;
        let mut diff = 0;
        for stage in 0..4u32 {
            for part in 0..64u32 {
                let d = plan.decide(stage, part, 0, FaultSurface::NarrowTask);
                assert_eq!(d, again.decide(stage, part, 0, FaultSurface::NarrowTask));
                if d == other.decide(stage, part, 0, FaultSurface::NarrowTask) {
                    same += 1;
                } else {
                    diff += 1;
                }
            }
        }
        assert!(diff > 0, "different seeds must produce different schedules ({same} same)");
    }

    #[test]
    fn seeded_path_fires_only_on_first_attempts() {
        let plan = FaultPlan::seeded(7, 1000);
        assert!(plan.decide(0, 0, 0, FaultSurface::NarrowTask).is_some());
        for attempt in 1..5 {
            assert_eq!(plan.decide(0, 0, attempt, FaultSurface::NarrowTask), None);
        }
    }

    #[test]
    fn rate_roughly_matches_permille() {
        let plan = FaultPlan::seeded(42, 250);
        let hits = (0..1000u32)
            .filter(|&p| plan.decide(0, p, 0, FaultSurface::ShuffleBucket).is_some())
            .count();
        assert!((150..350).contains(&hits), "250‰ plan hit {hits}/1000 sites");
    }

    #[test]
    fn explicit_sites_respect_surface_kinds() {
        let plan = FaultPlan::explicit(vec![FaultSite {
            stage: 1,
            partition: 2,
            attempt: 0,
            kind: FaultKind::CorruptBucket,
        }]);
        assert_eq!(
            plan.decide(1, 2, 0, FaultSurface::ShuffleBucket),
            Some(FaultKind::CorruptBucket)
        );
        // The same site queried from a task surface is inert: a bucket
        // corruption cannot fire inside a narrow task.
        assert_eq!(plan.decide(1, 2, 0, FaultSurface::NarrowTask), None);
        assert_eq!(plan.decide(1, 3, 0, FaultSurface::ShuffleBucket), None);
    }

    #[test]
    fn spill_read_surface_admits_only_read_faults() {
        // Seeded plans at full rate on the read surface yield only the two
        // read-side kinds, and the write-side CorruptSpill never leaks in.
        let plan = FaultPlan::seeded(0xdead, 1000);
        for part in 0..64u32 {
            let k = plan.decide(3, part, 0, FaultSurface::SpillRead);
            assert!(
                matches!(k, Some(FaultKind::TruncateSpill | FaultKind::CorruptSpillRead)),
                "unexpected kind {k:?}"
            );
        }
        // An explicit write-side corruption site is inert on the read surface
        // and vice versa.
        let plan = FaultPlan::explicit(vec![
            FaultSite { stage: 0, partition: 0, attempt: 0, kind: FaultKind::CorruptSpill },
            FaultSite { stage: 0, partition: 1, attempt: 0, kind: FaultKind::TruncateSpill },
        ]);
        assert_eq!(plan.decide(0, 0, 0, FaultSurface::SpillRead), None);
        assert_eq!(plan.decide(0, 1, 0, FaultSurface::Spill), None);
        assert_eq!(
            plan.decide(0, 1, 0, FaultSurface::SpillRead),
            Some(FaultKind::TruncateSpill)
        );
    }

    #[test]
    fn corrupt_bit_flips_exactly_one_bit() {
        let mut buf = vec![0u8; 64];
        assert!(corrupt_bit(&mut buf, 99));
        let ones: u32 = buf.iter().map(|b| b.count_ones()).sum();
        assert_eq!(ones, 1);
        let mut empty: Vec<u8> = Vec::new();
        assert!(!corrupt_bit(&mut empty, 99));
    }

    #[test]
    fn backoff_doubles_per_attempt() {
        assert_eq!(backoff_ns(0), 0);
        assert_eq!(backoff_ns(1), BACKOFF_BASE_NS);
        assert_eq!(backoff_ns(3), BACKOFF_BASE_NS * 4);
    }

    #[test]
    fn engine_error_display_names_the_site() {
        let err = EngineError {
            label: "map".into(),
            stage: 2,
            partition: 7,
            attempts: vec![
                AttemptRecord { attempt: 0, cause: "injected: task panic".into(), backoff_ns: 0 },
                AttemptRecord { attempt: 1, cause: "injected: task panic".into(), backoff_ns: 5 },
            ],
        };
        let text = err.to_string();
        assert!(text.contains("`map`"), "{text}");
        assert!(text.contains("stage 2"), "{text}");
        assert!(text.contains("partition 7"), "{text}");
        assert!(text.contains("failed after 2 attempts"), "{text}");
        assert!(text.contains("attempt 1"), "{text}");
    }
}
