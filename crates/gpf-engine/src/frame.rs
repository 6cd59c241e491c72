//! The checksummed frame: the format a budget-evicted partition takes when
//! it leaves tracked memory, and the one place a checksum is compared.
//!
//! A partition spills as a [`SpillTicket`] — [`FRAME_RECORDS`]-record
//! [`SpillFrame`]s, each with an FNV-1a checksum over its serialized bytes.
//! Tickets are the budget store's eviction image and nothing else: written
//! by [`SpillTicket::write`] and read back by [`SpillTicket::read`].
//! Shuffle segments — the disk barrier's "files" among them — are not
//! frames (they live inside a map task's output buffer) but are verified by
//! the same [`verify_decode`].
//!
//! Frames are in-memory buffers that never leave the process, and no fault
//! plan touches them: every read hands the stored bytes to
//! [`verify_decode`], plan or no plan. Bytes that fail are damaged at rest —
//! a second read of them cannot succeed where the first failed — and the
//! store reports them as [`DamagedAtRest`], which, having no lineage, it
//! treats as fatal.

use crate::dataset::Fnv1a;
#[cfg(test)]
use crate::fault::corrupt_bit;
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
    /// is [`SpillTicket::read`], which hands them to [`verify_decode`] —
    /// enforced by gpf-lint's `spill-read-checksum` rule, which flags any
    /// call site without a nearby `verify_decode`.
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

    /// Verify and decode frame `idx` onto `out`. `false` when the stored
    /// bytes fail [`verify_decode`]; `out` is then left as it was.
    pub(crate) fn read<T: GpfSerialize>(&self, idx: usize, out: &mut Vec<T>) -> bool {
        let _scope = alloc::scope(AllocTag::Spill);
        let frame = &self.frames[idx];
        verify_decode(self.kind, frame.payload_unverified(), Some(frame.checksum), frame.records as usize, out)
    }

    /// Damage at rest, for tests: flip one salted bit of one salted frame
    /// *after* its checksum was taken over the correct bytes, so detection
    /// must fire even when the flipped bit would still decode. `false` when
    /// there is no frame to damage.
    #[cfg(test)]
    pub(crate) fn corrupt_at_rest(&mut self, salt: u64) -> bool {
        let n = self.frames.len().max(1) as u64;
        self.frames.get_mut((salt % n) as usize).is_some_and(|f| corrupt_bit(&mut f.bytes, salt))
    }
}

/// A frame whose stored bytes fail verification, named by the store that
/// read it: a tracked store has no lineage to recompute the partition
/// from.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct DamagedAtRest {
    pub(crate) stage: u32,
    pub(crate) partition: u32,
    pub(crate) frame: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_frame_damaged_at_rest_fails_its_read() {
        let data: Vec<u64> = (0..2500).collect();
        let mut ticket = SpillTicket::write(SerializerKind::KryoSim, &data);
        assert_eq!(ticket.num_frames(), 3);
        assert_eq!(SpillTicket::write::<u64>(SerializerKind::KryoSim, &[]).num_frames(), 0);
        // The first frame whose read fails, reading in order onto `out`.
        let first_bad = |ticket: &SpillTicket, out: &mut Vec<u64>| {
            (0..ticket.num_frames()).find(|&idx| !ticket.read(idx, out))
        };
        let mut out: Vec<u64> = Vec::new();
        assert_eq!(first_bad(&ticket, &mut out), None);
        assert_eq!(out, data);

        // One stored bit flipped: that frame fails, and `out` keeps only the
        // frames before it.
        assert!(ticket.corrupt_at_rest(1));
        let bad = 1 % ticket.num_frames();
        out.clear();
        assert_eq!(first_bad(&ticket, &mut out), Some(bad));
        assert_eq!(out, data[..bad * FRAME_RECORDS]);
    }
}
