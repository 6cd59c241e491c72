//! Memory-budget accountant, spill-vs-recompute eviction policy, and the
//! evictable partition store behind [`crate::Dataset`]'s tracked mode.
//!
//! ROADMAP item 3 / Rosalind's O(√t) idea: cap peak resident bytes
//! regardless of input size by trading memory for recompute/IO. The
//! [`BudgetAccountant`] is a single ledger of exactly-accounted resident
//! partition bytes (via [`GpfSerialize::resident_bytes`]); every partition
//! materialization *admits* its charge, and when a charge would breach the
//! budget the accountant reclaims from registered `TrackedStore`s —
//! oldest-touched victims first — before giving up.
//!
//! The eviction policy is spill-vs-recompute by lineage cost:
//!
//! * a **clean** resident partition (its spill ticket already exists)
//!   is *dropped* — recomputing it later is a checksummed re-read, the
//!   cheap-lineage case ([`mem.budget.dropped_clean`][c1]);
//! * a **dirty** resident partition is *spilled* — serialized into a
//!   checksummed `SpillTicket` first, the expensive-lineage case
//!   ([`mem.budget.spilled`][c2]).
//!
//! The spill image and its read-back are `crate::frame`'s: frames are
//! pristine at rest, a read-back fault damages only the transient copy, the
//! checksum detects it and a bounded re-read recovers — a tracked-store
//! read never returns corrupt data. A read fails in two ways only. Its
//! charge may not fit beside the partitions other readers pin: the task
//! runner re-runs that task alone, and only a genuinely infeasible budget
//! (restoring one task's partitions alone breaches) surfaces as a
//! structured [`BudgetBreach`]. And a frame may be damaged at rest, which a
//! store has no lineage to recompute and reports by panicking with the
//! frame's coordinates.
//!
//! [c1]: gpf_trace::names::MEM_BUDGET_DROPPED_CLEAN
//! [c2]: gpf_trace::names::MEM_BUDGET_SPILLED

use crate::fault::FaultPlan;
use crate::frame::{DamagedAtRest, FrameReader, SpillTicket};
use gpf_compress::serializer::{GpfSerialize, SerializerKind};
use gpf_support::chk::atomic::{AtomicU64, Ordering};
use gpf_support::par;
use gpf_support::sync::{Mutex, RwLock};
use gpf_trace::names as tn;
use std::sync::{Arc, Weak};

/// Bump a registry counter. Unconditional — not gated on `set_enabled` —
/// for the same reason as `record_fault_event`: these fire only on budget
/// events (a spill serializes frames, a restore decodes them) whose cost
/// dwarfs the registry lookup, and tests and benches read the counters
/// without a tracing session.
fn note(name: &'static str, n: u64) {
    if n > 0 {
        gpf_trace::counter(name).add(n);
    }
}

/// A structured budget breach: the accountant exhausted every eviction
/// victim and the charge still did not fit. Carried through
/// the context's one failure slot (`crate::Failure::Budget`) to
/// `PipelineError::MemoryBudgetExceeded`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetBreach {
    /// Stage index at the failing operation's entry.
    pub stage: u32,
    /// Operation label (`"map"`, `"collect"`, …).
    pub operator: String,
    /// Bytes the operation tried to admit.
    pub requested: u64,
    /// The installed budget.
    pub budget: u64,
}

impl std::fmt::Display for BudgetBreach {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "memory budget exceeded in operator `{}` (stage {}): requested {} bytes, budget {} bytes",
            self.operator, self.stage, self.requested, self.budget
        )
    }
}

/// Anything the accountant can reclaim resident bytes from.
pub(crate) trait Shed: Send + Sync {
    /// Evict victims until at least `need` bytes are freed (crediting the
    /// accountant per victim) or nothing evictable remains. Returns the
    /// bytes actually freed.
    fn shed(&self, need: u64) -> u64;
}

struct Ledger {
    used: u64,
    peak: u64,
}

/// The per-run memory-budget accountant (installed by
/// [`crate::EngineConfig::with_memory_budget`]).
///
/// The ledger holds *exact* resident partition bytes — charges come from
/// [`GpfSerialize::resident_bytes`], not the allocator — and only a charge
/// that fits is admitted, so its peak never passes the budget. Which
/// partitions are resident at once is not fixed: tasks restore in parallel,
/// so how many spills and restores a budgeted run makes (and its peak below
/// the budget) can differ between runs, while the bytes it produces cannot.
/// The `TrackingAlloc` gauges ride along as the ground-truth cross-check:
/// [`crate::EngineContext`] annotates every `heap.live_bytes` sample with
/// the current ledger value.
pub struct BudgetAccountant {
    budget: u64,
    ledger: Mutex<Ledger>,
    stores: Mutex<Vec<Weak<dyn Shed>>>,
}

impl BudgetAccountant {
    /// A fresh accountant with `budget` bytes of headroom.
    pub(crate) fn new(budget: u64) -> Self {
        Self {
            budget,
            ledger: Mutex::new(Ledger { used: 0, peak: 0 }),
            stores: Mutex::new(Vec::new()),
        }
    }

    /// Bytes currently charged to the ledger.
    pub(crate) fn used(&self) -> u64 {
        self.ledger.lock().used
    }

    /// High-water mark of the ledger. Only successful admissions move it,
    /// so `peak() <= budget` holds by construction.
    pub fn peak(&self) -> u64 {
        self.ledger.lock().peak
    }

    /// Register an evictable store as a reclaim source. Held weakly: a
    /// dropped dataset unregisters itself by expiring.
    pub(crate) fn register(&self, store: Weak<dyn Shed>) {
        self.stores.lock().push(store);
    }

    /// Charge `bytes` to the ledger, evicting victims from registered
    /// stores if needed. `Err((requested, budget))` when the policy is
    /// exhausted and the charge still does not fit.
    pub(crate) fn admit(&self, bytes: u64) -> Result<(), (u64, u64)> {
        loop {
            {
                let mut led = self.ledger.lock();
                if led.used.saturating_add(bytes) <= self.budget {
                    led.used += bytes;
                    if led.used > led.peak {
                        led.peak = led.used;
                    }
                    return Ok(());
                }
            }
            if self.reclaim(bytes) == 0 {
                note(tn::MEM_BUDGET_BREACH, 1);
                return Err((bytes, self.budget));
            }
        }
    }

    /// Return `bytes` to the ledger (an eviction or a dropped dataset).
    pub(crate) fn credit(&self, bytes: u64) {
        let mut led = self.ledger.lock();
        led.used = led.used.saturating_sub(bytes);
    }

    /// Ask every live registered store to shed until `need` bytes are
    /// freed. Returns total bytes freed (0 = nothing evictable anywhere).
    fn reclaim(&self, need: u64) -> u64 {
        // Snapshot upgrades first so no store lock is taken while the
        // registry lock is held (shed() takes slot locks).
        let live: Vec<Arc<dyn Shed>> = {
            let mut stores = self.stores.lock();
            stores.retain(|w| w.strong_count() > 0);
            stores.iter().filter_map(Weak::upgrade).collect()
        };
        let mut freed = 0u64;
        for store in live {
            if freed >= need {
                break;
            }
            freed += store.shed(need - freed);
        }
        freed
    }
}

/// One partition slot of a [`TrackedStore`].
enum Slot<T> {
    /// Materialized in memory, charged to the ledger. `ticket` present
    /// means the spill image already exists (the partition is *clean*):
    /// eviction may drop the data and recompute it by re-reading.
    Resident { data: Arc<Vec<T>>, bytes: u64, ticket: Option<Arc<SpillTicket>> },
    /// Evicted (or never admitted): only the checksummed spill image
    /// exists. `bytes` is the resident charge a restore will admit.
    Spilled { ticket: Arc<SpillTicket>, bytes: u64 },
}

/// Type-erased view of a [`TrackedStore`] used by `Dataset`'s `Parts`
/// enum, so datasets of non-serializable element types can still carry
/// the (always-plain) variant without a `GpfSerialize` bound.
pub(crate) trait TrackedParts<T>: Send + Sync {
    /// Number of partitions.
    fn num_parts(&self) -> usize;
    /// Record count of partition `i` (known without restoring).
    fn part_len(&self, i: usize) -> usize;
    /// Restore partition `i` fully resident. `Err((requested, budget))`
    /// only when its charge does not fit, even after evicting every
    /// unpinned victim.
    fn read(&self, i: usize) -> Result<Arc<Vec<T>>, (u64, u64)>;
    /// Stream partition `i` chunk-by-chunk without materializing it:
    /// resident slots yield one chunk, spilled slots one per frame.
    fn stream(&self, i: usize, f: &mut dyn FnMut(&[T]));
    /// Whether partition `i` is currently evicted (test/bench visibility).
    fn is_spilled(&self, i: usize) -> bool;
}

/// An evictable partition store: the tracked backing of a `Dataset`.
pub(crate) struct TrackedStore<T> {
    kind: SerializerKind,
    stage: u32,
    acct: Arc<BudgetAccountant>,
    /// Read-side fault plan, captured at build time from the engine's
    /// configuration.
    faults: Option<FaultPlan>,
    counts: Vec<usize>,
    slots: Vec<RwLock<Slot<T>>>,
    /// Per-slot last-touch generation (LRU clock for victim selection).
    touch: Vec<AtomicU64>,
    clock: AtomicU64,
}

impl<T: GpfSerialize + Send + Sync + 'static> TrackedStore<T> {
    /// Build a store from materialized partitions, admitting each
    /// partition's charge. A partition whose charge cannot be admitted
    /// even after eviction is spilled on the spot instead of failing:
    /// dataset *creation* always succeeds under any budget.
    ///
    /// Admission is one serial pass in partition order, so which partitions
    /// spill does not depend on scheduling. The spill tickets of those
    /// that were not admitted are then written in parallel, each partition
    /// dropped as soon as its ticket exists.
    pub(crate) fn build(
        parts: Vec<Vec<T>>,
        kind: SerializerKind,
        stage: u32,
        acct: Arc<BudgetAccountant>,
        faults: Option<FaultPlan>,
    ) -> Arc<Self> {
        let counts: Vec<usize> = parts.iter().map(Vec::len).collect();
        let n = parts.len();
        let bytes: Vec<u64> = parts.iter().map(|p| p.resident_bytes() as u64).collect();
        let admitted: Vec<bool> = bytes.iter().map(|&b| acct.admit(b).is_ok()).collect();
        let cells: Vec<Mutex<Vec<T>>> = parts.into_iter().map(Mutex::new).collect();
        let slots = par::map_range(n, |i| {
            let (part, bytes) = (std::mem::take(&mut *cells[i].lock()), bytes[i]);
            if admitted[i] {
                return RwLock::new(Slot::Resident { data: Arc::new(part), bytes, ticket: None });
            }
            let ticket = Arc::new(SpillTicket::write(kind, &part));
            note(tn::MEM_BUDGET_SPILLED, 1);
            note(tn::MEM_BUDGET_SPILLED_BYTES, bytes);
            RwLock::new(Slot::Spilled { ticket, bytes })
        });
        let store = Arc::new(Self {
            kind,
            stage,
            acct: Arc::clone(&acct),
            faults,
            counts,
            slots,
            touch: (0..n).map(|_| AtomicU64::new(0)).collect(),
            clock: AtomicU64::new(1),
        });
        let weak: Weak<dyn Shed> = {
            let w: Weak<Self> = Arc::downgrade(&store);
            w
        };
        acct.register(weak);
        store
    }

    fn touch_slot(&self, i: usize) {
        // gpf-lint: allow(relaxed-ordering): the touch clock is a pure LRU
        // heuristic for victim ordering — a stale generation can only make
        // eviction pick a slightly different victim, never corrupt data
        // (slot state itself is guarded by the per-slot RwLock).
        let gen = self.clock.fetch_add(1, Ordering::Relaxed);
        // gpf-lint: allow(relaxed-ordering): same heuristic clock as above.
        self.touch[i].store(gen, Ordering::Relaxed);
    }

    /// Run `decode` over a reader for partition `i` and fold what the plan
    /// did to it into the registry. Unconditional like `record_fault_event`:
    /// a read is only damaged under configured faults, and chaos tests read
    /// the counters without tracing on.
    fn read_frames(&self, i: usize, decode: impl FnOnce(&mut FrameReader<'_>) -> Result<(), DamagedAtRest>) {
        let mut reader = FrameReader::new(self.faults.as_ref(), self.stage, i);
        let read = decode(&mut reader);
        note(tn::FAULT_INJECTED, reader.damaged_reads);
        note(tn::TASK_RETRIES, reader.damaged_reads);
        if let Err(damaged) = read {
            // gpf-lint: allow(no-panic): nothing damages a frame this store
            // wrote and still holds; stored bytes that fail their checksum
            // are engine corruption, not an input error, and an evicted
            // partition has no lineage to recompute from.
            panic!("{damaged:?}: a tracked store has no lineage to recompute it from");
        }
    }
}

impl<T: GpfSerialize + Send + Sync + 'static> TrackedParts<T> for TrackedStore<T> {
    fn num_parts(&self) -> usize {
        self.slots.len()
    }

    fn part_len(&self, i: usize) -> usize {
        self.counts[i]
    }

    fn read(&self, i: usize) -> Result<Arc<Vec<T>>, (u64, u64)> {
        self.touch_slot(i);
        // Snapshot under a read lock; never hold any slot lock across
        // admit() (its reclaim path write-locks slots).
        let (ticket, bytes) = {
            let slot = self.slots[i].read();
            match &*slot {
                Slot::Resident { data, .. } => return Ok(Arc::clone(data)),
                Slot::Spilled { ticket, bytes } => (Arc::clone(ticket), *bytes),
            }
        };
        self.acct.admit(bytes)?;
        let mut out = Vec::with_capacity(self.counts[i]);
        self.read_frames(i, |reader| reader.read_all(&ticket, &mut out));
        let data = Arc::new(out);
        let mut slot = self.slots[i].write();
        match &*slot {
            // Lost a restore race: keep the winner's copy, refund ours.
            Slot::Resident { data: winner, .. } => {
                let winner = Arc::clone(winner);
                drop(slot);
                self.acct.credit(bytes);
                Ok(winner)
            }
            Slot::Spilled { .. } => {
                note(tn::MEM_BUDGET_RESTORED, 1);
                note(tn::MEM_BUDGET_RESTORED_BYTES, bytes);
                *slot = Slot::Resident { data: Arc::clone(&data), bytes, ticket: Some(ticket) };
                Ok(data)
            }
        }
    }

    fn stream(&self, i: usize, f: &mut dyn FnMut(&[T])) {
        self.touch_slot(i);
        let ticket = {
            let slot = self.slots[i].read();
            match &*slot {
                Slot::Resident { data, .. } => {
                    // Already paid for — one chunk, zero extra footprint.
                    let data = Arc::clone(data);
                    drop(slot);
                    f(&data);
                    return;
                }
                Slot::Spilled { ticket, .. } => Arc::clone(ticket),
            }
        };
        // Decode frame-by-frame: transient footprint is one frame, not the
        // partition, and nothing is charged to the ledger.
        let mut chunk: Vec<T> = Vec::new();
        self.read_frames(i, |reader| {
            (0..ticket.num_frames()).try_for_each(|idx| {
                chunk.clear();
                reader.read(&ticket, idx, &mut chunk)?;
                f(&chunk);
                Ok(())
            })
        });
    }

    fn is_spilled(&self, i: usize) -> bool {
        matches!(&*self.slots[i].read(), Slot::Spilled { .. })
    }
}

impl<T> TrackedStore<T> {
    /// The ledger bytes this store's resident slots hold.
    pub(crate) fn resident_charge(&self) -> u64 {
        self.slots
            .iter()
            .map(|slot| match &*slot.read() {
                Slot::Resident { bytes, .. } => *bytes,
                Slot::Spilled { .. } => 0,
            })
            .sum()
    }
}

impl<T> Drop for TrackedStore<T> {
    /// A dropped dataset returns its resident charges to the ledger.
    /// Without this, dead stores pin ledger bytes no reclaim can ever
    /// find — their `Weak` registration has already expired — and the
    /// accountant slowly fills with ghost charges until any admit fails.
    fn drop(&mut self) {
        let resident = self.resident_charge();
        if resident > 0 {
            self.acct.credit(resident);
        }
    }
}

impl<T: GpfSerialize + Send + Sync + 'static> Shed for TrackedStore<T> {
    fn shed(&self, need: u64) -> u64 {
        // Victim order: least-recently-touched first.
        let mut order: Vec<(u64, usize)> = (0..self.slots.len())
            // gpf-lint: allow(relaxed-ordering): LRU heuristic read —
            // staleness only reorders victims; slot locks carry correctness.
            .map(|i| (self.touch[i].load(Ordering::Relaxed), i))
            .collect();
        order.sort_unstable();
        let mut freed = 0u64;
        for (_, i) in order {
            if freed >= need {
                break;
            }
            let mut slot = self.slots[i].write();
            if let Slot::Resident { data, bytes, ticket } = &mut *slot {
                // An active reader (a live PartRef) pins the partition.
                if Arc::strong_count(data) > 1 {
                    continue;
                }
                let bytes = *bytes;
                let ticket = match ticket.take() {
                    // Clean: the spill image already exists — cheap
                    // lineage, drop and re-read later.
                    Some(t) => {
                        note(tn::MEM_BUDGET_DROPPED_CLEAN, 1);
                        t
                    }
                    // Dirty: expensive lineage — serialize a checksummed
                    // spill image first.
                    None => {
                        let t = Arc::new(SpillTicket::write(self.kind, data));
                        note(tn::MEM_BUDGET_SPILLED, 1);
                        note(tn::MEM_BUDGET_SPILLED_BYTES, bytes);
                        t
                    }
                };
                *slot = Slot::Spilled { ticket, bytes };
                drop(slot);
                self.acct.credit(bytes);
                freed += bytes;
            }
        }
        freed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultKind, FaultSite};
    use crate::frame::FRAME_RECORDS;

    fn store_with(
        budget: u64,
        parts: Vec<Vec<u64>>,
        faults: Option<FaultPlan>,
    ) -> (Arc<BudgetAccountant>, Arc<TrackedStore<u64>>) {
        let acct = Arc::new(BudgetAccountant::new(budget));
        let store =
            TrackedStore::build(parts, SerializerKind::Gpf, 0, Arc::clone(&acct), faults);
        (acct, store)
    }

    #[test]
    fn unlimited_budget_keeps_everything_resident() {
        let parts: Vec<Vec<u64>> = (0..4).map(|p| (0..100).map(|i| p * 1000 + i).collect()).collect();
        let (acct, store) = store_with(u64::MAX, parts.clone(), None);
        for (i, want) in parts.iter().enumerate() {
            assert!(!store.is_spilled(i));
            assert_eq!(&*store.read(i).unwrap(), want);
        }
        assert_eq!(acct.used(), acct.peak());
        assert!(acct.used() > 0);
    }

    #[test]
    fn tight_budget_spills_then_restores_byte_identically() {
        let parts: Vec<Vec<u64>> = (0..8).map(|p| (0..500).map(|i| p * 10_000 + i).collect()).collect();
        let one = parts[0].resident_bytes() as u64;
        // Room for ~2 partitions: building 8 must evict, not fail.
        let (acct, store) = store_with(one * 2 + 64, parts.clone(), None);
        assert!((0..8).any(|i| store.is_spilled(i)), "tight budget must spill");
        for (i, want) in parts.iter().enumerate() {
            assert_eq!(&*store.read(i).unwrap(), want, "partition {i}");
        }
        assert!(acct.peak() <= acct.budget, "ledger peak may never pass the budget");
    }

    #[test]
    fn streaming_visits_all_records_without_admitting() {
        let parts: Vec<Vec<u64>> = vec![(0..5000).collect()];
        let one = parts[0].resident_bytes() as u64;
        // Budget below one partition: the slot starts (and stays) spilled.
        let (acct, store) = store_with(one / 2, parts.clone(), None);
        assert!(store.is_spilled(0));
        let used_before = acct.used();
        let mut seen = Vec::new();
        let mut chunks = 0usize;
        store.stream(0, &mut |chunk| {
            chunks += 1;
            assert!(chunk.len() <= FRAME_RECORDS);
            seen.extend_from_slice(chunk);
        });
        assert_eq!(seen, parts[0]);
        assert!(chunks > 1, "5000 records must stream in multiple frames");
        assert_eq!(acct.used(), used_before, "streaming must not charge the ledger");
        assert!(store.is_spilled(0), "streaming must not restore the slot");
    }

    #[test]
    fn infeasible_restore_surfaces_requested_and_budget() {
        let parts: Vec<Vec<u64>> = vec![(0..5000).collect()];
        let one = parts[0].resident_bytes() as u64;
        let (_acct, store) = store_with(one / 2, parts, None);
        let err = store.read(0).unwrap_err();
        assert_eq!(err, (one, one / 2));
    }

    #[test]
    fn injected_read_damage_is_detected_and_retried() {
        let parts: Vec<Vec<u64>> = vec![(0..3000).collect()];
        let one = parts[0].resident_bytes() as u64;
        // Explicit read faults on attempts 0 and 1; attempt 2 reads clean.
        let plan = FaultPlan::explicit(vec![
            FaultSite { stage: 0, partition: 0, attempt: 0, kind: FaultKind::CorruptSpillRead },
            FaultSite { stage: 0, partition: 0, attempt: 1, kind: FaultKind::TruncateSpill },
        ]);
        let (_acct, store) = store_with(one / 2, parts.clone(), Some(plan));
        let mut seen = Vec::new();
        store.stream(0, &mut |chunk| seen.extend_from_slice(chunk));
        assert_eq!(seen, parts[0], "damaged read-backs must recover byte-identically");
    }

    /// Stored bytes that fail verification end the re-read loop at once: a
    /// store, which has no lineage to recompute from, panics naming the
    /// frame.
    #[test]
    fn a_frame_damaged_at_rest_is_fatal_in_a_store() {
        let parts: Vec<Vec<u64>> = vec![(0..3000).collect()];
        let one = parts[0].resident_bytes() as u64;
        let (_acct, store) = store_with(one / 2, parts, None);
        {
            let mut slot = store.slots[0].write();
            let Slot::Spilled { ticket, .. } = &mut *slot else { panic!("the slot starts spilled") };
            let ticket = Arc::get_mut(ticket).expect("no reader holds the ticket yet");
            assert!(ticket.corrupt_at_rest(1), "salt 1 picks frame 1 of 3");
        }
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| store.stream(0, &mut |_| {})));
        let payload = caught.expect_err("a frame damaged at rest must not be read");
        let message = payload.downcast_ref::<String>().expect("a formatted panic message");
        assert!(message.contains("stage: 0, partition: 0, frame: 1"), "{message}");
    }

    #[test]
    fn eviction_prefers_clean_partitions() {
        let parts: Vec<Vec<u64>> = (0..4).map(|p| (0..400).map(|i| p * 7 + i).collect()).collect();
        let one = parts[0].resident_bytes() as u64;
        let (acct, store) = store_with(one * 3 + 64, parts, None);
        // Restore everything once so some slots carry clean tickets, then
        // force an eviction pass via a fresh over-budget charge.
        for i in 0..4 {
            // gpf-lint: allow(swallowed-error): warming the LRU clock; a
            // restore failure would fail the assertions below anyway.
            let _ = store.read(i);
        }
        assert!(acct.admit(one * 2).is_ok(), "eviction must make room");
        acct.credit(one * 2);
        assert!((0..4).any(|i| store.is_spilled(i)));
    }

    #[test]
    fn breach_notes_counter_and_errors() {
        let acct = BudgetAccountant::new(100);
        assert!(acct.admit(40).is_ok());
        assert_eq!(acct.admit(100).unwrap_err(), (100, 100));
        assert_eq!(acct.used(), 40);
        assert_eq!(acct.peak(), 40);
    }
}
