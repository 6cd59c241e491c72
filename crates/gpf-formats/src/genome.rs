//! Contig dictionaries, genomic positions and intervals.
//!
//! The GPF engine partitions work by genomic locus (§4.4 of the paper), so a
//! compact, copyable notion of "where on the genome" is used throughout:
//! [`GenomePosition`] is a `(contig id, 0-based position)` pair and
//! [`GenomeInterval`] a half-open range on one contig. The [`ContigDict`]
//! maps contig names to ids and records lengths — it is the Rust analogue of
//! the SAM `@SQ` header lines and the paper's `refContigInfo`.

use crate::error::FormatError;
use std::collections::HashMap;

/// Name and length of one reference contig (chromosome).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContigInfo {
    /// Contig name, e.g. `"chr1"`.
    pub name: String,
    /// Contig length in bases.
    pub length: u64,
}

/// An ordered dictionary of contigs, assigning each a dense integer id.
///
/// Contig ids are indices into the insertion order, matching the order of
/// `@SQ` lines in a SAM header / records in a FASTA reference.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ContigDict {
    contigs: Vec<ContigInfo>,
    by_name: HashMap<String, u32>,
}

impl ContigDict {
    /// Create an empty dictionary.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Build a dictionary from `(name, length)` pairs.
    pub fn from_pairs<I, S>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (S, u64)>,
        S: Into<String>,
    {
        let mut d = Self::new();
        for (name, len) in pairs {
            d.push(name.into(), len);
        }
        d
    }

    /// Append a contig, returning its id.
    ///
    /// # Panics
    /// Panics if the name is already present — duplicate `@SQ` entries are a
    /// malformed header and callers are expected to validate first.
    pub(crate) fn push(&mut self, name: String, length: u64) -> u32 {
        assert!(
            !self.by_name.contains_key(&name),
            "duplicate contig `{name}` in dictionary"
        );
        let id = self.contigs.len() as u32;
        self.by_name.insert(name.clone(), id);
        self.contigs.push(ContigInfo { name, length });
        id
    }

    /// Number of contigs.
    pub fn len(&self) -> usize {
        self.contigs.len()
    }

    /// `true` if the dictionary has no contigs.
    pub fn is_empty(&self) -> bool {
        self.contigs.is_empty()
    }

    /// Look up a contig id by name.
    pub(crate) fn id_of(&self, name: &str) -> Option<u32> {
        self.by_name.get(name).copied()
    }

    /// Look up a contig id by name, erroring with [`FormatError::UnknownContig`].
    pub(crate) fn require_id(&self, name: &str) -> Result<u32, FormatError> {
        self.id_of(name)
            .ok_or_else(|| FormatError::UnknownContig { name: name.to_string() })
    }

    /// Name of contig `id`.
    ///
    /// # Panics
    /// Panics when `id` is out of range.
    pub fn name_of(&self, id: u32) -> &str {
        &self.contigs[id as usize].name
    }

    /// Length of contig `id`.
    ///
    /// # Panics
    /// Panics when `id` is out of range.
    pub fn length_of(&self, id: u32) -> u64 {
        self.contigs[id as usize].length
    }

    /// Iterate contigs in id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &ContigInfo> {
        self.contigs.iter()
    }

    /// Total genome length (sum of contig lengths).
    pub(crate) fn genome_length(&self) -> u64 {
        self.contigs.iter().map(|c| c.length).sum()
    }

    /// Contig lengths in id order — the `referenceLength: List(Int)` argument
    /// of the paper's `ReadRepartitioner` (Table 2).
    pub fn lengths(&self) -> Vec<u64> {
        self.contigs.iter().map(|c| c.length).collect()
    }
}

/// A 0-based position on a contig identified by dense id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GenomePosition {
    /// Contig id in the owning [`ContigDict`].
    pub contig: u32,
    /// 0-based offset on the contig.
    pub pos: u64,
}

impl GenomePosition {
    /// Construct a position.
    pub fn new(contig: u32, pos: u64) -> Self {
        Self { contig, pos }
    }
}

/// A half-open interval `[start, end)` on one contig.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GenomeInterval {
    /// Contig id.
    pub contig: u32,
    /// Inclusive 0-based start.
    pub start: u64,
    /// Exclusive end.
    pub end: u64,
}

impl GenomeInterval {
    /// Construct an interval.
    ///
    /// # Panics
    /// Panics if `start > end`.
    pub fn new(contig: u32, start: u64, end: u64) -> Self {
        assert!(start <= end, "interval start {start} > end {end}");
        Self { contig, start, end }
    }

    /// Interval length.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// `true` when the interval is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// `true` if `p` lies inside the interval.
    pub fn contains(&self, p: GenomePosition) -> bool {
        p.contig == self.contig && p.pos >= self.start && p.pos < self.end
    }

    /// `true` if the two intervals share at least one base.
    pub fn overlaps(&self, other: &GenomeInterval) -> bool {
        self.contig == other.contig && self.start < other.end && other.start < self.end
    }

    /// The intersection of two intervals, or `None` when disjoint.
    pub fn intersect(&self, other: &GenomeInterval) -> Option<GenomeInterval> {
        if !self.overlaps(other) {
            return None;
        }
        Some(GenomeInterval::new(
            self.contig,
            self.start.max(other.start),
            self.end.min(other.end),
        ))
    }

    /// Grow the interval by `pad` on both sides, clamping to `[0, contig_len]`.
    pub fn padded(&self, pad: u64, contig_len: u64) -> GenomeInterval {
        GenomeInterval::new(
            self.contig,
            self.start.saturating_sub(pad),
            (self.end + pad).min(contig_len),
        )
    }

    /// Merge two overlapping-or-adjacent intervals on the same contig.
    pub(crate) fn merge(&self, other: &GenomeInterval) -> Option<GenomeInterval> {
        if self.contig != other.contig {
            return None;
        }
        if self.start > other.end || other.start > self.end {
            return None;
        }
        Some(GenomeInterval::new(
            self.contig,
            self.start.min(other.start),
            self.end.max(other.end),
        ))
    }
}

/// Merge a set of intervals into a minimal sorted set of disjoint intervals.
pub fn merge_intervals(mut ivs: Vec<GenomeInterval>) -> Vec<GenomeInterval> {
    ivs.sort();
    let mut out: Vec<GenomeInterval> = Vec::with_capacity(ivs.len());
    for iv in ivs {
        if let Some(last) = out.last_mut() {
            if let Some(m) = last.merge(&iv) {
                *last = m;
                continue;
            }
        }
        out.push(iv);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dict() -> ContigDict {
        ContigDict::from_pairs([("chr1", 1000u64), ("chr2", 500), ("chrM", 16)])
    }

    #[test]
    fn dict_ids_follow_insertion_order() {
        let d = dict();
        assert_eq!(d.id_of("chr1"), Some(0));
        assert_eq!(d.id_of("chr2"), Some(1));
        assert_eq!(d.id_of("chrM"), Some(2));
        assert_eq!(d.name_of(1), "chr2");
        assert_eq!(d.length_of(2), 16);
        assert_eq!(d.genome_length(), 1516);
        assert_eq!(d.lengths(), vec![1000, 500, 16]);
    }

    #[test]
    fn dict_unknown_contig_errors() {
        let d = dict();
        assert!(d.id_of("chrZ").is_none());
        assert!(matches!(
            d.require_id("chrZ"),
            Err(FormatError::UnknownContig { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "duplicate contig")]
    fn dict_rejects_duplicates() {
        let mut d = dict();
        d.push("chr1".into(), 5);
    }

    #[test]
    fn interval_contains_and_overlap() {
        let a = GenomeInterval::new(0, 10, 20);
        let b = GenomeInterval::new(0, 19, 30);
        let c = GenomeInterval::new(0, 20, 30);
        let d = GenomeInterval::new(1, 10, 20);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c), "half-open: touching intervals do not overlap");
        assert!(!a.overlaps(&d), "different contigs never overlap");
        assert!(a.contains(GenomePosition::new(0, 10)));
        assert!(!a.contains(GenomePosition::new(0, 20)));
        assert_eq!(a.intersect(&b), Some(GenomeInterval::new(0, 19, 20)));
        assert_eq!(a.intersect(&c), None);
    }

    #[test]
    fn interval_padding_clamps() {
        let a = GenomeInterval::new(0, 5, 10);
        let p = a.padded(100, 50);
        assert_eq!(p, GenomeInterval::new(0, 0, 50));
    }

    #[test]
    fn merge_intervals_collapses_adjacent_and_overlapping() {
        let ivs = vec![
            GenomeInterval::new(0, 30, 40),
            GenomeInterval::new(0, 0, 10),
            GenomeInterval::new(0, 10, 20), // adjacent to the first
            GenomeInterval::new(1, 0, 5),
            GenomeInterval::new(0, 35, 50),
        ];
        let merged = merge_intervals(ivs);
        assert_eq!(
            merged,
            vec![
                GenomeInterval::new(0, 0, 20),
                GenomeInterval::new(0, 30, 50),
                GenomeInterval::new(1, 0, 5),
            ]
        );
    }

    #[test]
    fn positions_order_by_contig_then_pos() {
        let a = GenomePosition::new(0, 999);
        let b = GenomePosition::new(1, 0);
        assert!(a < b);
    }
}
