//! Broadcast variables — read-only values shipped once to every node.
//!
//! `SparkContext.broadcast(x)` in the paper's §4.4 ships the per-contig
//! partition table to all executors; BQSR broadcasts its mask table (§5.2.2).
//! In this engine a broadcast is an `Arc`; its serialized size is recorded
//! in the session trace, and the simulator charges it as driver →
//! all-nodes network traffic.

use std::ops::Deref;
use std::sync::Arc;

/// A read-only value shipped to every node.
#[derive(Debug, Clone)]
pub struct Broadcast<T> {
    value: Arc<T>,
}

impl<T> Broadcast<T> {
    pub(crate) fn new(value: T) -> Self {
        Self { value: Arc::new(value) }
    }

    /// Access the broadcast value.
    pub fn value(&self) -> &T {
        &self.value
    }
}

impl<T> Deref for Broadcast<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deref_and_accessors() {
        let b = Broadcast::new(vec![1, 2, 3]);
        assert_eq!(b.len(), 3);
        assert_eq!(b.value()[0], 1);
        let b2 = b.clone();
        assert_eq!(b2.value(), b.value());
    }
}
