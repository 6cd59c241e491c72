//! The seed shuffle as a pure function, kept as the executable oracle.
//!
//! What `shuffle_reference` computed before the clone-free shuffle replaced
//! it, with the engine taken out: every record cloned into its bucket, every
//! non-empty bucket serialized into a buffer of its own by
//! `serialize_batch`, transfer sizes read off the buffer lengths, output
//! partitions the buckets concatenated in map order. No context, no stages,
//! no timing — input partitions in, output partitions and the two per-task
//! byte vectors out. It lives under `tests/` only, so the engine carries one
//! shuffle and `proptests.rs` / `operator_matrix.rs` pin that one to this.

use gpf_compress::serializer::serialize_batch;
use gpf_compress::{GpfSerialize, SerializerKind};

/// What a shuffle of `input` must produce.
pub struct Shuffled<T> {
    /// Output partition `t`: the records routed to `t`, in input order.
    pub parts: Vec<Vec<T>>,
    /// Bytes map task `i` writes (`StageMetrics::shuffle_write_bytes`).
    pub write_bytes: Vec<u64>,
    /// Bytes reduce task `t` reads (`StageMetrics::shuffle_read_bytes`).
    pub read_bytes: Vec<u64>,
}

pub fn shuffle_oracle<T: GpfSerialize + Clone>(
    kind: SerializerKind,
    input: &[Vec<T>],
    nparts: usize,
    route: impl Fn(&T) -> usize,
) -> Shuffled<T> {
    let mut parts: Vec<Vec<T>> = (0..nparts).map(|_| Vec::new()).collect();
    let mut write_bytes = Vec::with_capacity(input.len());
    let mut read_bytes = vec![0u64; nparts];
    for part in input {
        let mut buckets: Vec<Vec<T>> = (0..nparts).map(|_| Vec::new()).collect();
        for item in part {
            let target = route(item);
            assert!(target < nparts, "router produced partition {target} >= {nparts}");
            buckets[target].push(item.clone());
        }
        let mut written = 0u64;
        for (t, bucket) in buckets.into_iter().enumerate() {
            // An empty bucket is a zero-length segment: no framing written.
            if bucket.is_empty() {
                continue;
            }
            let len = serialize_batch(kind, &bucket).len() as u64;
            written += len;
            read_bytes[t] += len;
            parts[t].extend(bucket);
        }
        write_bytes.push(written);
    }
    Shuffled { parts, write_bytes, read_bytes }
}
