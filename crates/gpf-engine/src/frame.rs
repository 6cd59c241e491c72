//! The checksummed frame: the one format engine data takes when it leaves
//! tracked memory, and the one place a checksum is compared.
//!
//! A partition spills as a [`SpillTicket`] — [`FRAME_RECORDS`]-record
//! [`SpillFrame`]s, each with an FNV-1a checksum over its serialized bytes.
//! The budget store's eviction image and `barrier_via_disk`'s "files" are
//! both tickets, written by [`SpillTicket::write`] and read back through
//! [`FrameReader::read`]; shuffle segments are not frames (they live inside
//! a map task's output buffer) but are verified by the same
//! [`verify_decode`].
//!
//! Frames model write-verified durable storage as in-memory buffers
//! ([`crate::fsmodel`] prices the IO analytically), so they are pristine at
//! rest unless a plan says otherwise: [`SpillTicket::corrupt_at_rest`] is
//! the write-side injection ([`FaultSurface::Spill`]), [`damaged_read`] the
//! read-side one ([`FaultSurface::SpillRead`]), which damages only the
//! transient copy handed to the decoder. A damaged copy fails its checksum
//! and is re-read; stored bytes that fail are reported as
//! [`DamagedAtRest`], and what happens then is the caller's lineage story.

use crate::dataset::Fnv1a;
use crate::fault::{corrupt_bit, FaultKind, FaultPlan, FaultSurface, MAX_TASK_RETRIES};
use gpf_compress::serializer::{deserialize_batch_into, serialize_batch, GpfSerialize, SerializerKind};
use gpf_trace::alloc::{self, AllocTag};
use std::hash::Hasher;

/// Records per spill frame: the unit of chunked streaming. Map stages over
/// a spilled partition decode one frame at a time, so their transient
/// footprint is bounded by the frame, not the partition.
pub(crate) const FRAME_RECORDS: usize = 1024;

/// FNV-1a over a byte buffer — the shuffle-segment / spill checksum.
pub(crate) fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.write(bytes);
    h.finish()
}

/// Verify → decode → count-check `bytes` into `out`: the checksum (when the
/// writer took one) must match, the batch must decode, and it must hold
/// exactly `records` records. On any mismatch `out` is left as it was and
/// the result is `false` — the bytes are damaged.
pub(crate) fn verify_decode<T: GpfSerialize>(
    kind: SerializerKind,
    bytes: &[u8],
    checksum: Option<u64>,
    records: usize,
    out: &mut Vec<T>,
) -> bool {
    if checksum.is_some_and(|sum| fnv64(bytes) != sum) {
        return false;
    }
    let before = out.len();
    match deserialize_batch_into(kind, bytes, out) {
        Ok(n) if n == records => true,
        _ => {
            out.truncate(before);
            false
        }
    }
}

/// One checksummed spill frame: a serialized chunk of ≤ [`FRAME_RECORDS`]
/// records.
pub(crate) struct SpillFrame {
    bytes: Vec<u8>,
    records: u32,
    checksum: u64,
}

impl SpillFrame {
    /// The raw stored bytes, **not** checksum-verified. Their one consumer
    /// is [`FrameReader::read`], which hands them (or a damaged copy of
    /// them) to [`verify_decode`] — enforced by gpf-lint's
    /// `spill-read-checksum` rule, which flags any call site without a
    /// nearby `verify_decode`.
    fn payload_unverified(&self) -> &[u8] {
        &self.bytes
    }
}

/// The spill image of one partition: checksummed frames plus the
/// serializer that wrote them.
pub(crate) struct SpillTicket {
    frames: Vec<SpillFrame>,
    kind: SerializerKind,
}

impl SpillTicket {
    /// Serialize `data` into checksummed frames (none for an empty
    /// partition).
    pub(crate) fn write<T: GpfSerialize>(kind: SerializerKind, data: &[T]) -> Self {
        let _scope = alloc::scope(AllocTag::Spill);
        let frames = data
            .chunks(FRAME_RECORDS)
            .map(|chunk| {
                let bytes = serialize_batch(kind, chunk);
                let checksum = fnv64(&bytes);
                SpillFrame { bytes, records: chunk.len() as u32, checksum }
            })
            .collect();
        Self { frames, kind }
    }

    pub(crate) fn num_frames(&self) -> usize {
        self.frames.len()
    }

    /// Serialized size across all frames (the bytes `fsmodel` prices).
    pub(crate) fn spilled_bytes(&self) -> u64 {
        self.frames.iter().map(|f| f.bytes.len() as u64).sum()
    }

    /// Write-side injection ([`FaultSurface::Spill`]): flip one salted bit
    /// of one salted frame *after* its checksum was taken over the correct
    /// bytes, so detection must fire even when the flipped bit would still
    /// decode. `false` when there is no frame to damage.
    pub(crate) fn corrupt_at_rest(&mut self, salt: u64) -> bool {
        let n = self.frames.len().max(1) as u64;
        self.frames.get_mut((salt % n) as usize).is_some_and(|f| corrupt_bit(&mut f.bytes, salt))
    }
}

/// Read-side injection ([`FaultSurface::SpillRead`]): the damaged
/// *transient copy* a faulted read observes — truncated or with one bit
/// flipped — or `None` when the plan leaves this read alone. The stored
/// bytes stay pristine, so the checksum verify detects the damage and a
/// re-read recovers byte-identically.
fn damaged_read(
    plan: &FaultPlan,
    stage: u32,
    partition: u32,
    attempt: u32,
    stored: &[u8],
) -> Option<Vec<u8>> {
    let kind = plan.decide(stage, partition, attempt, FaultSurface::SpillRead)?;
    let salt = plan.corruption_salt(stage, partition);
    let mut copy = stored.to_vec();
    if kind == FaultKind::TruncateSpill {
        copy.truncate((salt % copy.len().max(1) as u64) as usize);
    } else {
        corrupt_bit(&mut copy, salt);
    }
    Some(copy)
}

/// A frame whose *stored* bytes fail verification: no re-read can help, so
/// the reader stops and names it. The barrier recomputes the partition from
/// lineage; a tracked store has none.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct DamagedAtRest {
    pub(crate) stage: u32,
    pub(crate) partition: u32,
    pub(crate) frame: usize,
}

/// Reads one partition's frames at a fault site, counting what the plan did
/// to it.
pub(crate) struct FrameReader<'a> {
    /// Read-side fault plan; `None` reads the stored bytes as they are.
    plan: Option<&'a FaultPlan>,
    stage: u32,
    partition: u32,
    /// Reads the plan damaged, each detected and re-read.
    pub(crate) damaged_reads: u64,
}

impl<'a> FrameReader<'a> {
    pub(crate) fn new(plan: Option<&'a FaultPlan>, stage: u32, partition: usize) -> Self {
        Self { plan, stage, partition: partition as u32, damaged_reads: 0 }
    }

    /// Decode frame `idx` of `ticket` onto `out`. A read the plan damaged
    /// fails [`verify_decode`] and is re-read; a plan may damage attempts
    /// `0..=MAX_TASK_RETRIES` only, so the loop ends one read past that at
    /// the latest — with the records, or with the stored bytes themselves
    /// failing.
    pub(crate) fn read<T: GpfSerialize>(
        &mut self,
        ticket: &SpillTicket,
        idx: usize,
        out: &mut Vec<T>,
    ) -> Result<(), DamagedAtRest> {
        let _scope = alloc::scope(AllocTag::Spill);
        let frame = &ticket.frames[idx];
        let mut attempt = 0u32;
        loop {
            let stored = frame.payload_unverified();
            let damaged = self
                .plan
                .filter(|_| attempt <= MAX_TASK_RETRIES)
                .and_then(|plan| damaged_read(plan, self.stage, self.partition, attempt, stored));
            let read = damaged.as_deref().unwrap_or(stored);
            if verify_decode(ticket.kind, read, Some(frame.checksum), frame.records as usize, out) {
                return Ok(());
            }
            if damaged.is_none() {
                return Err(DamagedAtRest { stage: self.stage, partition: self.partition, frame: idx });
            }
            self.damaged_reads += 1;
            attempt += 1;
        }
    }

    /// Decode every frame of `ticket`, in order.
    pub(crate) fn read_all<T: GpfSerialize>(
        &mut self,
        ticket: &SpillTicket,
        out: &mut Vec<T>,
    ) -> Result<(), DamagedAtRest> {
        (0..ticket.num_frames()).try_for_each(|idx| self.read(ticket, idx, out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultSite;

    #[test]
    fn a_damaged_read_is_re_read_and_a_damaged_frame_is_named() {
        let data: Vec<u64> = (0..2500).collect();
        let mut ticket = SpillTicket::write(SerializerKind::KryoSim, &data);
        assert_eq!(ticket.num_frames(), 3);
        assert_eq!(SpillTicket::write::<u64>(SerializerKind::KryoSim, &[]).num_frames(), 0);
        // Every attempt the plan may damage is damaged: the read past them
        // still returns the records.
        let sites = (0..=MAX_TASK_RETRIES)
            .map(|attempt| FaultSite { stage: 2, partition: 5, attempt, kind: FaultKind::TruncateSpill })
            .collect();
        let plan = FaultPlan::explicit(sites);
        let mut out: Vec<u64> = Vec::new();
        let mut reader = FrameReader::new(Some(&plan), 2, 5);
        assert_eq!(reader.read_all(&ticket, &mut out), Ok(()));
        assert_eq!(out, data);
        assert_eq!(reader.damaged_reads, 12, "4 damaged reads per frame");

        // One stored bit flipped: that frame is reported, with or without a
        // plan, and `out` keeps only the frames before it.
        assert!(ticket.corrupt_at_rest(1));
        let bad = 1 % ticket.num_frames();
        for plan in [None, Some(&plan)] {
            out.clear();
            let err = FrameReader::new(plan, 2, 5).read_all(&ticket, &mut out).unwrap_err();
            assert_eq!(err, DamagedAtRest { stage: 2, partition: 5, frame: bad });
            assert_eq!(out, data[..bad * FRAME_RECORDS]);
        }
    }
}
