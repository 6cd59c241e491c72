//! Bounded-memory streaming: the headline invariant is that any memory
//! budget admitting a feasible schedule yields output **byte-identical**
//! to the unbudgeted run — degradation (spill, streamed maps, recompute)
//! may cost time, never correctness. The property test sweeps budgets at
//! 1/2, 1/4 and 1/8 of the materialized size crossed with seeded fault
//! plans and split-table routing on/off; directed tests pin ledger-peak
//! bounding, infeasible-budget structured errors, and the breach message.

use gpf_engine::{Dataset, EngineConfig, EngineContext, FaultPlan};
use gpf_support::proptest::prelude::*;
use std::sync::Arc;

/// Approximate materialized footprint of the input: the record payload is
/// what the accountant charges (16 bytes per `(u64, u64)`), and the exact
/// per-`Vec` overhead does not matter for picking budget fractions.
fn materialized_bytes(data: &[(u64, u64)]) -> u64 {
    (data.len() as u64 * 16).max(64)
}

/// The job every identity check runs: evictable input → streamed narrow
/// ops → shuffle (optionally through a split table). Read-back streams
/// tracked partitions, so it is feasible under any budget; layout identity
/// is `partition_sizes` + the concatenated stream.
fn job(
    ctx: &Arc<EngineContext>,
    data: &[(u64, u64)],
    parts: usize,
    nparts: usize,
    split: bool,
) -> (Vec<usize>, Vec<(u64, u64)>) {
    let d = Dataset::from_vec(Arc::clone(ctx), data.to_vec(), parts).evictable();
    let m = d.map(|kv| (kv.0, kv.1.rotate_left(7))).filter(|kv| kv.1 % 97 != 0);
    // Deterministic split table: base 0 splits by value parity into one
    // extra final partition. The same table drives the unbudgeted baseline.
    let out = m.into_partition_by(nparts + split as usize, move |kv: &(u64, u64)| {
        let base = (kv.0 % nparts as u64) as usize;
        if split && base == 0 && kv.1 & 1 == 1 {
            nparts
        } else {
            base
        }
    });
    (out.partition_sizes(), out.collect_local())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Headline invariant: budgets at 1/2, 1/4 and 1/8 of the materialized
    /// input size — crossed with seeded fault plans and split-table routing —
    /// produce output identical to the unbudgeted, fault-free run, with no
    /// terminal failure and no breach (every stage of this job streams, so
    /// every budget fraction is feasible).
    #[test]
    fn budgeted_runs_are_byte_identical(
        data in proptest::collection::vec((0u64..40, any::<u64>()), 1..300),
        parts in 1usize..5,
        nparts in 1usize..5,
        seed in any::<u64>(),
        rate in 0u32..150,
        knobs in 0usize..6,
    ) {
        let denom_idx = knobs % 3;
        let split = knobs >= 3;
        let baseline = {
            let ctx = EngineContext::new(EngineConfig::default().with_parallelism(4));
            job(&ctx, &data, parts, nparts, split)
        };
        let denom = [2u64, 4, 8][denom_idx];
        let budget = (materialized_bytes(&data) / denom).max(1);
        let ctx = EngineContext::new(
            EngineConfig::default()
                .with_parallelism(4)
                .with_memory_budget(budget)
                .with_faults(FaultPlan::seeded(seed, rate)),
        );
        let budgeted = job(&ctx, &data, parts, nparts, split);
        prop_assert_eq!(budgeted, baseline, "budget {} must not change output", budget);
        prop_assert!(ctx.take_failure().is_none(), "degradation is never terminal");
        prop_assert!(ctx.take_budget_breach().is_none(), "streaming schedules never breach");
    }
}

/// Ledger discipline: a budget an eighth of the materialized size forces
/// spills, and the accountant's peak never exceeds the budget (checked
/// exactly — the +64 KiB slack of the bench gate covers driver-side
/// buffers the ledger does not track, not accountant overshoot).
#[test]
fn ledger_peak_stays_within_budget_and_spills_happen() {
    let data: Vec<(u64, u64)> = (0..4000u64).map(|i| (i % 23, i.wrapping_mul(0x2545f491))).collect();
    let budget = materialized_bytes(&data) / 8;
    let ctx = EngineContext::new(
        EngineConfig::default().with_parallelism(4).with_memory_budget(budget),
    );
    let d = Dataset::from_vec(Arc::clone(&ctx), data, 8).evictable();
    assert!(d.spilled_partitions() > 0, "budget/8 must force spills at build");
    assert!(d.spilled_bytes() > 0);
    let out = d.map(|kv| (kv.0, kv.1 ^ 0xff)).into_partition_by(4, |kv| (kv.0 % 4) as usize);
    let _ = out.collect_local();
    let acct = ctx.accountant().expect("budget installs an accountant");
    assert!(
        acct.peak() <= budget,
        "ledger peak {} exceeds budget {}",
        acct.peak(),
        budget
    );
    assert!(ctx.take_budget_breach().is_none());
    assert!(ctx.take_failure().is_none());
}

/// Infeasible budgets surface as a clean structured breach naming the
/// operator and both byte figures — never a panic, never a partial
/// result silently presented as complete.
#[test]
fn infeasible_budget_breaches_cleanly_with_pinned_message() {
    let data: Vec<(u64, u64)> = (0..2000u64).map(|i| (i, i)).collect();
    let budget = 256u64; // far below any single partition
    let ctx = EngineContext::new(
        EngineConfig::default().with_parallelism(4).with_memory_budget(budget),
    );
    let d = Dataset::from_vec(Arc::clone(&ctx), data, 2).evictable();
    // A whole-partition operator needs one partition resident: infeasible.
    let out = d.map_partitions(|p| p.to_vec());
    assert_eq!(out.partition_sizes().iter().sum::<usize>(), 0, "breached run yields empty output");
    let breach = ctx.take_budget_breach().expect("infeasible restore records a breach");
    assert_eq!(breach.operator, "mapPartitions");
    assert_eq!(breach.budget, budget);
    assert!(breach.requested > budget);
    let text = breach.to_string();
    assert!(
        text.contains("memory budget exceeded in operator `mapPartitions`"),
        "{text}"
    );
    assert!(text.contains(&format!("budget {budget} bytes")), "{text}");
    assert!(text.contains(&format!("requested {} bytes", breach.requested)), "{text}");
}
