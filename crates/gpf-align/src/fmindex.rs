//! BWT + FM-index over the concatenated reference genome.
//!
//! Alphabet: `$ < A < C < G < T` (any `N` in the reference collapses to `A`,
//! as bwa does). The BWT is held two bits per row in 64-row rank blocks, so
//! a backward-search step is a checkpoint load plus one masked popcount;
//! locate is O(1) because the full suffix array is retained (4 bytes/base —
//! cheap at this reproduction's genome scale, and it keeps `locate` exact).

use crate::suffix::suffix_array;
use gpf_formats::base::rank4;
use gpf_formats::{GenomeInterval, ReferenceGenome};

/// BWT rows per rank block.
const BLOCK_ROWS: usize = 64;

/// 64 BWT rows: how many of each rank precede the block, and the rows' two
/// rank bits as two planes (bit `r` of each plane is row `r` of the block).
/// 32 bytes, 32-aligned: two blocks per cache line, never one across two.
#[derive(Clone, Copy, Default)]
#[repr(C, align(32))]
struct RankBlock {
    before: [u32; 4],
    low: u64,
    high: u64,
}

/// FM-index over a genome.
pub struct FmIndex {
    /// Text in 0..=3 ranks (sentinel handled implicitly, conceptually at the
    /// end of the text).
    text: Vec<u8>,
    /// Full suffix array (includes the sentinel suffix at index 0
    /// conceptually removed — entries address `text`).
    sa: Vec<u32>,
    /// The BWT, one block per [`BLOCK_ROWS`] rows plus one, so the block of
    /// row `rows` (one past the end) always exists. The sentinel's row is
    /// stored, and counted in `before`, as an `A`; [`FmIndex::occ`] takes it
    /// back out.
    blocks: Vec<RankBlock>,
    /// Number of BWT rows: one per text suffix plus the sentinel suffix.
    rows: usize,
    /// Row of the BWT holding the sentinel.
    sentinel_pos: usize,
    /// C[c]: number of text characters strictly smaller than `c` (sentinel
    /// included).
    c: [usize; 5],
    /// Contig start offsets in the concatenated text.
    contig_offsets: Vec<u64>,
    /// Contig lengths.
    contig_lengths: Vec<u64>,
}

impl FmIndex {
    /// Build the index over the full reference genome.
    pub fn build(reference: &ReferenceGenome) -> Self {
        let (cat, offsets) = reference.concatenated();
        let lengths = reference.dict().lengths();
        Self::build_from_text(&cat, offsets, lengths)
    }

    /// Build from a raw text (exposed for tests).
    pub fn build_from_text(raw: &[u8], contig_offsets: Vec<u64>, contig_lengths: Vec<u64>) -> Self {
        let text: Vec<u8> = raw.iter().map(|&b| rank4(b)).collect();
        let n = text.len();
        assert!(n > 0, "cannot index an empty genome");
        let sa = suffix_array(&text);

        // BWT with conceptual sentinel: row 0 of the full BWT matrix is the
        // sentinel suffix, whose BWT char is text[n-1]; row r > 0 is suffix
        // sa[r-1], and for sa[r-1]=0 the BWT char is the sentinel, stored as
        // rank 0. `counts` ends as the per-rank totals (one `A` too many,
        // the sentinel's).
        let rows = n + 1;
        let mut blocks = vec![RankBlock::default(); rows / BLOCK_ROWS + 1];
        let mut counts = [0u32; 4];
        let mut sentinel_pos = 0usize;
        for row in 0..rows {
            let ch = match row.checked_sub(1).map(|r| sa[r] as usize) {
                None => text[n - 1],
                Some(0) => {
                    sentinel_pos = row;
                    0
                }
                Some(s) => text[s - 1],
            };
            let block = &mut blocks[row / BLOCK_ROWS];
            block.low |= u64::from(ch & 1) << (row % BLOCK_ROWS);
            block.high |= u64::from(ch >> 1) << (row % BLOCK_ROWS);
            counts[ch as usize] += 1;
            if (row + 1) % BLOCK_ROWS == 0 {
                blocks[(row + 1) / BLOCK_ROWS].before = counts;
            }
        }
        counts[0] -= 1;

        // C array: sentinel counts as the single smallest character.
        // c[k] = first BWT row whose suffix starts with rank k.
        let mut c = [0usize; 5];
        c[0] = 1; // one sentinel before 'A'
        for i in 0..4 {
            c[i + 1] = c[i] + counts[i] as usize;
        }

        Self { text, sa, blocks, rows, sentinel_pos, c, contig_offsets, contig_lengths }
    }

    /// Genome length (bases).
    pub fn len(&self) -> usize {
        self.text.len()
    }

    /// `true` when the indexed text is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.text.is_empty()
    }

    /// occurrences of `ch` in `bwt[0..i)`, for `i` up to and including the
    /// number of rows.
    #[inline]
    fn occ(&self, ch: u8, i: usize) -> usize {
        let block = &self.blocks[i / BLOCK_ROWS];
        // Rows of this block below `i`, and among them those whose two bits
        // spell `ch`: a plane is taken as is where `ch` has the bit set and
        // inverted where it has not.
        let below = (1u64 << (i % BLOCK_ROWS)) - 1;
        let low = block.low ^ (u64::from(ch & 1) ^ 1).wrapping_neg();
        let high = block.high ^ (u64::from(ch >> 1) ^ 1).wrapping_neg();
        let count = block.before[ch as usize] as usize + (low & high & below).count_ones() as usize;
        // The sentinel's row reads as an `A`, in the planes of its own block
        // and in `before` of every later one.
        count - usize::from(ch == 0 && i > self.sentinel_pos)
    }

    /// First BWT row whose suffix starts with `ch`.
    fn c_of(&self, ch: u8) -> usize {
        self.c[ch as usize]
    }

    /// Backward-search `pattern` (ASCII ACGT; other characters abort with
    /// `None`). Returns the SA interval `[lo, hi)` in BWT row space.
    pub fn backward_search(&self, pattern: &[u8]) -> Option<(usize, usize)> {
        if !pattern.iter().all(|b| matches!(b, b'A' | b'C' | b'G' | b'T')) {
            return None;
        }
        self.search(pattern.iter().map(|&b| rank4(b)))
    }

    /// [`FmIndex::backward_search`] of a pattern already in 0..=3 ranks
    /// (the aligner's seeds: `verify::OrientedRead::seed`), with no ASCII
    /// to validate or rank; a value above 3 aborts with `None`.
    pub fn backward_search_ranks(&self, ranks: &[u8]) -> Option<(usize, usize)> {
        self.search(ranks.iter().copied())
    }

    /// The one backward-search loop, over the pattern's ranks.
    fn search(
        &self,
        ranks: impl DoubleEndedIterator<Item = u8> + ExactSizeIterator,
    ) -> Option<(usize, usize)> {
        if ranks.len() == 0 {
            return None;
        }
        let mut lo = 0usize;
        let mut hi = self.rows;
        for ch in ranks.rev() {
            if ch > 3 {
                return None;
            }
            lo = self.c_of(ch) + self.occ(ch, lo);
            hi = self.c_of(ch) + self.occ(ch, hi);
            if lo >= hi {
                return None;
            }
        }
        Some((lo, hi))
    }

    /// Number of occurrences of `pattern`.
    pub fn count(&self, pattern: &[u8]) -> usize {
        self.backward_search(pattern).map(|(lo, hi)| hi - lo).unwrap_or(0)
    }

    /// Text positions of the SA interval (row space from
    /// [`FmIndex::backward_search`]), capped at `max` results.
    pub fn locate(&self, lo: usize, hi: usize, max: usize) -> &[u32] {
        // Row 0 is the sentinel suffix; data rows are offset by one.
        let first = lo.max(1);
        let end = hi.min(lo.saturating_add(max)).max(first);
        &self.sa[first - 1..end - 1]
    }

    /// Find up to `max` text positions where `pattern` occurs.
    pub fn find(&self, pattern: &[u8], max: usize) -> Vec<u32> {
        match self.backward_search(pattern) {
            Some((lo, hi)) => self.locate(lo, hi, max).to_vec(),
            None => Vec::new(),
        }
    }

    /// Convert a concatenated-text position into `(contig, offset)`;
    /// `None` when a match of `len` bases would span a contig boundary.
    pub fn resolve(&self, text_pos: u32, len: usize) -> Option<(u32, u64)> {
        let pos = text_pos as u64;
        let idx = self.contig_offsets.partition_point(|&o| o <= pos) - 1;
        let off = pos - self.contig_offsets[idx];
        if off + len as u64 > self.contig_lengths[idx] {
            return None;
        }
        Some((idx as u32, off))
    }

    /// The reference window `[start, end)` on a contig as raw 0..=3 ranks
    /// (for the extender).
    pub fn contig_window(&self, interval: GenomeInterval) -> &[u8] {
        let base = self.contig_offsets[interval.contig as usize];
        &self.text[(base + interval.start) as usize..(base + interval.end) as usize]
    }

    /// Contig length.
    pub fn contig_len(&self, contig: u32) -> u64 {
        self.contig_lengths[contig as usize]
    }

    /// Number of contigs.
    pub fn num_contigs(&self) -> usize {
        self.contig_lengths.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index(text: &[u8]) -> FmIndex {
        FmIndex::build_from_text(text, vec![0], vec![text.len() as u64])
    }

    /// Naive occurrence finder for cross-checking.
    fn naive_find(text: &[u8], pattern: &[u8]) -> Vec<u32> {
        (0..=text.len().saturating_sub(pattern.len()))
            .filter(|&i| &text[i..i + pattern.len()] == pattern)
            .map(|i| i as u32)
            .collect()
    }

    #[test]
    fn count_and_find_simple() {
        let text = b"ACGTACGTACGT";
        let idx = index(text);
        assert_eq!(idx.count(b"ACGT"), 3);
        assert_eq!(idx.count(b"CGTA"), 2);
        assert_eq!(idx.count(b"TTT"), 0);
        let mut hits = idx.find(b"ACGT", 10);
        hits.sort();
        assert_eq!(hits, vec![0, 4, 8]);
    }

    #[test]
    fn matches_naive_on_many_patterns() {
        let mut state = 0xdead_beefu64;
        let text: Vec<u8> = (0..800)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                b"ACGT"[(state >> 33) as usize % 4]
            })
            .collect();
        let idx = index(&text);
        for start in (0..700).step_by(37) {
            for len in [4usize, 8, 15, 31] {
                let pattern = &text[start..start + len];
                let mut got = idx.find(pattern, usize::MAX);
                got.sort();
                assert_eq!(got, naive_find(&text, pattern), "pattern at {start} len {len}");
            }
        }
    }

    #[test]
    fn whole_text_is_found_once() {
        let text = b"GATTACAGATT";
        let idx = index(text);
        assert_eq!(idx.find(text, 10), vec![0]);
    }

    #[test]
    fn absent_and_invalid_patterns() {
        let idx = index(b"ACGTACGT");
        assert_eq!(idx.count(b"AAAAAAAA"), 0);
        assert_eq!(idx.count(b"ACNT"), 0, "N aborts the search");
        assert_eq!(idx.count(b""), 0);
    }

    #[test]
    fn rank_patterns_search_like_their_ascii() {
        let idx = index(b"ACGTACGTTGCA");
        assert_eq!(idx.backward_search_ranks(&[0, 1, 2, 3]), idx.backward_search(b"ACGT"));
        assert_eq!(idx.backward_search_ranks(&[2, 1, 0]), idx.backward_search(b"GCA"));
        assert_eq!(idx.backward_search_ranks(&[0, 4, 1]), None, "4 is no rank");
        assert_eq!(idx.backward_search_ranks(&[]), None);
    }

    #[test]
    fn single_character_counts() {
        let text = b"AACCGGTTAA";
        let idx = index(text);
        assert_eq!(idx.count(b"A"), 4);
        assert_eq!(idx.count(b"C"), 2);
        assert_eq!(idx.count(b"G"), 2);
        assert_eq!(idx.count(b"T"), 2);
    }

    #[test]
    fn resolve_maps_contigs_and_rejects_spanning() {
        let text = b"AAAACCCC"; // two contigs of 4
        let idx = FmIndex::build_from_text(text, vec![0, 4], vec![4, 4]);
        assert_eq!(idx.resolve(0, 4), Some((0, 0)));
        assert_eq!(idx.resolve(4, 4), Some((1, 0)));
        assert_eq!(idx.resolve(5, 3), Some((1, 1)));
        assert_eq!(idx.resolve(2, 4), None, "spans the boundary");
        assert_eq!(idx.num_contigs(), 2);
        assert_eq!(idx.contig_len(1), 4);
    }

    #[test]
    fn contig_window_returns_ranks() {
        let text = b"ACGTAAAA";
        let idx = FmIndex::build_from_text(text, vec![0], vec![8]);
        let w = idx.contig_window(GenomeInterval::new(0, 0, 4));
        assert_eq!(w, &[0, 1, 2, 3]);
    }

    #[test]
    fn repeated_text_counts_all_occurrences() {
        let text: Vec<u8> = b"ACGT".repeat(50);
        let idx = index(&text);
        assert_eq!(idx.count(b"ACGTACGT"), 49);
        assert_eq!(idx.find(b"ACGTACGT", 5).len(), 5, "locate respects max");
    }
}
