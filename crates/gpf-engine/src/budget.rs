//! Memory-budget accountant and the evictable partition store behind
//! [`crate::Dataset`]'s tracked mode.
//!
//! The cap on resident bytes: the [`BudgetAccountant`] is a single ledger
//! of exactly-accounted resident partition bytes (via
//! [`GpfSerialize::resident_bytes`]); every partition materialization
//! *admits* its charge, and when a charge would breach the budget the
//! accountant reclaims from registered `TrackedStore`s before giving up.
//!
//! A store's slot only moves forward: `Resident → Spilled → Taken`. A
//! reclaim spills resident, unpinned slots in partition order — each is
//! serialized into a checksummed `SpillTicket` ([`mem.budget.spilled`][c1]).
//! A spilled slot stays spilled: a whole-partition read admits the
//! partition's charge and decodes a copy private to the reader, whose
//! charge leaves the ledger when the reader drops it ([`Charge`]).
//!
//! The spill image and its read-back are `crate::frame`'s: every frame read
//! is checksum-verified, so a tracked-store read never returns corrupt
//! data. A read fails in two ways only. Its charge may not fit beside the
//! partitions other readers pin: the task runner re-runs that task alone,
//! and only a genuinely infeasible budget (restoring one task's partitions
//! alone breaches) surfaces as a structured [`BudgetBreach`]. And a frame
//! may be damaged at rest, which a store has no lineage to recompute and
//! reports by panicking with the frame's coordinates.
//!
//! A consuming operator that holds the last handle to a store *takes* its
//! partitions instead (`TrackedParts::take`): the slot is emptied, its
//! charge leaves the ledger, and a spilled partition is decoded straight
//! into the task's vector without admission, so the take neither evicts
//! anything nor can breach.
//!
//! Every spill, restore and breached read is recorded through the run's
//! trace keyed by the store's stage and the partition
//! (`EngineContext::record_part_event`), beside its registry counter.
//!
//! [c1]: gpf_trace::names::MEM_BUDGET_SPILLED

use crate::context::EngineContext;
use crate::dataset::PartRef;
use crate::frame::{DamagedAtRest, SpillTicket};
use gpf_compress::serializer::GpfSerialize;
use gpf_support::par;
use gpf_support::sync::{Mutex, RwLock};
use gpf_trace::names as tn;
use std::sync::{Arc, Weak};

/// Bump a registry counter. Unconditional — not gated on `set_enabled` —
/// for the same reason as `record_part_event`: these fire only on budget
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
/// partitions are resident at once is not fixed: tasks read in parallel,
/// so which reads meet each other's charges (and the ledger's peak below
/// the budget) can differ between runs, while the bytes a run produces
/// cannot.
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
    pub fn used(&self) -> u64 {
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
    /// stores if needed. `Err((requested, budget))` when nothing is left to
    /// evict and the charge still does not fit; the caller decides whether
    /// that is a breach.
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

/// A reader's hold on ledger bytes: a partition decoded from a spilled
/// slot for one reader carries the charge its read admitted, and returns
/// it to the ledger when the reader drops the partition.
pub struct Charge {
    acct: Arc<BudgetAccountant>,
    bytes: u64,
}

impl Drop for Charge {
    fn drop(&mut self) {
        self.acct.credit(self.bytes);
    }
}

/// One partition slot of a [`TrackedStore`]. A slot only moves forward:
/// `Resident → Spilled → Taken`, or `Resident → Taken`.
enum Slot<T> {
    /// Materialized in memory, charged to the ledger.
    Resident { data: Arc<Vec<T>>, bytes: u64 },
    /// Evicted (or never admitted): only the checksummed spill image
    /// exists. `bytes` is the resident charge a read admits.
    Spilled { ticket: Arc<SpillTicket>, bytes: u64 },
    /// Handed over to a consuming task ([`TrackedParts::take`]): holds
    /// nothing and charges nothing, and is never shed or restored.
    Taken,
}

/// Type-erased view of a [`TrackedStore`] used by `Dataset`'s `Parts`
/// enum, so datasets of non-serializable element types can still carry
/// the (always-plain) variant without a `GpfSerialize` bound.
pub(crate) trait TrackedParts<T>: Send + Sync {
    /// Number of partitions.
    fn num_parts(&self) -> usize;
    /// Record count of partition `i` (known without restoring).
    fn part_len(&self, i: usize) -> usize;
    /// Partition `i` whole: a resident slot pinned for the reader, or a
    /// spilled one decoded into a copy private to the reader, which holds
    /// the partition's admitted charge until it drops (the slot stays
    /// spilled). `Err((requested, budget))` only when that charge does not
    /// fit, even after evicting every unpinned victim.
    fn read(&self, i: usize) -> Result<PartRef<'_, T>, (u64, u64)>;
    /// Stream partition `i` chunk-by-chunk without materializing it:
    /// resident slots yield one chunk, spilled slots one per frame.
    fn stream(&self, i: usize, f: &mut dyn FnMut(&[T]));
    /// Hand partition `i` over by value and empty its slot: a resident
    /// partition moves out (cloned only if a reader still pins it) and its
    /// charge leaves the ledger; a spilled one is read back (a restore, in
    /// the counters) frame by frame straight into the returned vector,
    /// without admission. Only the last handle to the store may take
    /// (`TaskSource` decides); a taken slot reads, streams and takes as an
    /// empty partition.
    fn take(&self, i: usize) -> Vec<T>;
    /// Whether partition `i` is currently evicted (test/bench visibility).
    fn is_spilled(&self, i: usize) -> bool;
}

/// An evictable partition store: the tracked backing of a `Dataset`.
pub(crate) struct TrackedStore<T> {
    /// The run it belongs to: its serializer and trace.
    ctx: Arc<EngineContext>,
    /// The stage it was built in: its events' stage.
    stage: u32,
    acct: Arc<BudgetAccountant>,
    counts: Vec<usize>,
    slots: Vec<RwLock<Slot<T>>>,
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
    pub(crate) fn build(parts: Vec<Vec<T>>, ctx: &Arc<EngineContext>, acct: Arc<BudgetAccountant>) -> Arc<Self> {
        let (kind, stage) = (ctx.serializer(), ctx.current_stage());
        let counts: Vec<usize> = parts.iter().map(Vec::len).collect();
        let n = parts.len();
        let bytes: Vec<u64> = parts.iter().map(|p| p.resident_bytes() as u64).collect();
        let admitted: Vec<bool> = bytes.iter().map(|&b| acct.admit(b).is_ok()).collect();
        let cells: Vec<Mutex<Vec<T>>> = parts.into_iter().map(Mutex::new).collect();
        let slots = par::map_range(n, |i| {
            let (part, bytes) = (std::mem::take(&mut *cells[i].lock()), bytes[i]);
            if admitted[i] {
                return RwLock::new(Slot::Resident { data: Arc::new(part), bytes });
            }
            let ticket = Arc::new(SpillTicket::write(kind, &part));
            ctx.record_part_event(tn::MEM_BUDGET_SPILLED, stage, i as u32, 1);
            note(tn::MEM_BUDGET_SPILLED_BYTES, bytes);
            RwLock::new(Slot::Spilled { ticket, bytes })
        });
        let store = Arc::new(Self { ctx: Arc::clone(ctx), stage, acct: Arc::clone(&acct), counts, slots });
        let weak: Weak<dyn Shed> = {
            let w: Weak<Self> = Arc::downgrade(&store);
            w
        };
        acct.register(weak);
        store
    }

    /// Record one of this store's events on partition `i` through the
    /// run's trace (and its registry counter).
    fn event(&self, name: &'static str, i: usize) {
        self.ctx.record_part_event(name, self.stage, i as u32, 1);
    }

    /// Decode frame `idx` of partition `i`'s `ticket` onto `out`, or panic
    /// naming the frame when its stored bytes fail their checksum.
    fn read_frame(&self, i: usize, ticket: &SpillTicket, idx: usize, out: &mut Vec<T>) {
        if !ticket.read(idx, out) {
            let damaged = DamagedAtRest { stage: self.stage, partition: i as u32, frame: idx };
            // gpf-lint: allow(no-panic): nothing damages a frame this store
            // wrote and still holds; stored bytes that fail their checksum
            // are engine corruption, not an input error, and an evicted
            // partition has no lineage to recompute from.
            panic!("{damaged:?}: a tracked store has no lineage to recompute it from");
        }
    }

    /// Decode spilled partition `i` whole (a restore, in the counters).
    fn restore(&self, i: usize, ticket: &SpillTicket, bytes: u64) -> Vec<T> {
        let mut out = Vec::with_capacity(self.counts[i]);
        for idx in 0..ticket.num_frames() {
            self.read_frame(i, ticket, idx, &mut out);
        }
        self.event(tn::MEM_BUDGET_RESTORED, i);
        note(tn::MEM_BUDGET_RESTORED_BYTES, bytes);
        out
    }
}

impl<T: GpfSerialize + Clone + Send + Sync + 'static> TrackedParts<T> for TrackedStore<T> {
    fn num_parts(&self) -> usize {
        self.slots.len()
    }

    fn part_len(&self, i: usize) -> usize {
        self.counts[i]
    }

    fn read(&self, i: usize) -> Result<PartRef<'_, T>, (u64, u64)> {
        // Snapshot under a read lock; never hold any slot lock across
        // admit() (its reclaim path write-locks slots).
        let (ticket, bytes) = match &*self.slots[i].read() {
            Slot::Resident { data, .. } => return Ok(PartRef::Owned(Arc::clone(data))),
            Slot::Spilled { ticket, bytes } => (Arc::clone(ticket), *bytes),
            Slot::Taken => return Ok(PartRef::Owned(Arc::default())),
        };
        if let Err(refused) = self.acct.admit(bytes) {
            self.event(tn::MEM_BUDGET_BREACH, i);
            return Err(refused);
        }
        // Held from here on, so a decode that panics returns the charge too.
        let charge = Charge { acct: Arc::clone(&self.acct), bytes };
        Ok(PartRef::Restored(self.restore(i, &ticket, bytes), charge))
    }

    fn stream(&self, i: usize, f: &mut dyn FnMut(&[T])) {
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
                Slot::Taken => return,
            }
        };
        // Decode frame-by-frame: transient footprint is one frame, not the
        // partition, and nothing is charged to the ledger.
        let mut chunk: Vec<T> = Vec::new();
        for idx in 0..ticket.num_frames() {
            chunk.clear();
            self.read_frame(i, &ticket, idx, &mut chunk);
            f(&chunk);
        }
    }

    fn take(&self, i: usize) -> Vec<T> {
        let slot = std::mem::replace(&mut *self.slots[i].write(), Slot::Taken);
        match slot {
            Slot::Resident { data, bytes } => {
                self.acct.credit(bytes);
                Arc::unwrap_or_clone(data)
            }
            Slot::Spilled { ticket, bytes } => self.restore(i, &ticket, bytes),
            Slot::Taken => Vec::new(),
        }
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
                Slot::Spilled { .. } | Slot::Taken => 0,
            })
            .sum()
    }

    /// Whether partition `i` was handed over by [`TrackedParts::take`].
    #[cfg(test)]
    pub(crate) fn is_taken(&self, i: usize) -> bool {
        matches!(&*self.slots[i].read(), Slot::Taken)
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
    /// Spill resident, unpinned slots in partition order.
    fn shed(&self, need: u64) -> u64 {
        let mut freed = 0u64;
        for (i, slot) in self.slots.iter().enumerate() {
            if freed >= need {
                break;
            }
            let mut slot = slot.write();
            let Slot::Resident { data, bytes } = &*slot else { continue };
            // An active reader (a live PartRef) pins the partition.
            if Arc::strong_count(data) > 1 {
                continue;
            }
            let bytes = *bytes;
            let ticket = Arc::new(SpillTicket::write(self.ctx.serializer(), data));
            *slot = Slot::Spilled { ticket, bytes };
            drop(slot);
            self.acct.credit(bytes);
            self.event(tn::MEM_BUDGET_SPILLED, i);
            note(tn::MEM_BUDGET_SPILLED_BYTES, bytes);
            freed += bytes;
        }
        freed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::frame::FRAME_RECORDS;

    fn store_with(budget: u64, parts: Vec<Vec<u64>>) -> (Arc<BudgetAccountant>, Arc<TrackedStore<u64>>) {
        let ctx = EngineContext::new(EngineConfig::gpf().with_memory_budget(budget));
        let acct = Arc::clone(ctx.accountant().expect("a budget installs an accountant"));
        let store = TrackedStore::build(parts, &ctx, Arc::clone(&acct));
        (acct, store)
    }

    #[test]
    fn unlimited_budget_keeps_everything_resident() {
        let parts: Vec<Vec<u64>> = (0..4).map(|p| (0..100).map(|i| p * 1000 + i).collect()).collect();
        let (acct, store) = store_with(u64::MAX, parts.clone());
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
        let (acct, store) = store_with(one * 2 + 64, parts.clone());
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
        let (acct, store) = store_with(one / 2, parts.clone());
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
        let (_acct, store) = store_with(one / 2, parts);
        let err = store.read(0).unwrap_err();
        assert_eq!(err, (one, one / 2));
    }

    /// Stored bytes that fail verification are fatal: a store, which has no
    /// lineage to recompute from, panics naming the frame.
    #[test]
    fn a_frame_damaged_at_rest_is_fatal_in_a_store() {
        let parts: Vec<Vec<u64>> = vec![(0..3000).collect()];
        let one = parts[0].resident_bytes() as u64;
        let (_acct, store) = store_with(one / 2, parts);
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

    /// A take empties its slot: a resident partition's charge leaves the
    /// ledger with it, a spilled one is decoded without admitting anything,
    /// and a taken slot is neither shed nor charged again. A read of a
    /// spilled slot holds its charge only while the reader holds the copy,
    /// and leaves the slot spilled.
    #[test]
    fn take_hands_partitions_over_and_empties_their_slots() {
        let parts: Vec<Vec<u64>> = (0..3).map(|p| (0..2000).map(|i| p * 10_000 + i).collect()).collect();
        let one = parts[0].resident_bytes() as u64;
        let (acct, store) = store_with(one + 64, parts.clone());
        assert!(!store.is_spilled(0) && store.is_spilled(1) && store.is_spilled(2));
        assert_eq!(acct.used(), one);
        assert_eq!(store.take(0), parts[0], "the resident partition moves out");
        assert_eq!(acct.used(), 0, "its charge leaves the ledger with it");
        assert_eq!(store.take(1), parts[1], "the spilled partition is decoded");
        assert_eq!((acct.used(), acct.peak()), (0, one), "without admission");
        for i in [0, 1] {
            assert!(store.is_taken(i) && !store.is_spilled(i), "slot {i}");
            assert!(store.take(i).is_empty(), "a second take of slot {i} is empty");
        }
        let read = store.read(2).unwrap();
        assert_eq!(&*read, &parts[2]);
        assert_eq!(acct.used(), one, "the reader holds the charge its read admitted");
        assert!(store.is_spilled(2), "the read leaves slot 2 spilled");
        drop(read);
        assert_eq!(store.shed(u64::MAX), 0, "no slot is resident to shed");
        assert!(store.is_taken(0) && store.is_taken(1));
        assert_eq!((acct.used(), store.resident_charge()), (0, 0));
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
