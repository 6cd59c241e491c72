//! The byte-per-row FM-index, kept verbatim as the executable oracle.
//!
//! This is `gpf_align::fmindex` as it stood before the rank-block layout:
//! one `u8` per BWT row, an occurrence checkpoint every 64 rows and a byte
//! scan with a sentinel compare per byte inside `occ`. It lives under
//! `tests/` only, so the library carries one implementation and
//! `fm_differential.rs` pins that one to this — same search interval, same
//! count, same hits in the same order. Its suffix array comes from the
//! prefix-doubling oracle in `sa_oracle/`, not from the library, so the
//! two indexes share no construction code.

use crate::sa_oracle::suffix_array_doubling as suffix_array;
use gpf_formats::base::rank4;

/// Occurrence-count checkpoint spacing.
const OCC_SAMPLE: usize = 64;

/// FM-index over a genome.
pub struct OracleFmIndex {
    /// Text in 0..=3 ranks (sentinel handled implicitly, conceptually at the
    /// end of the text).
    text: Vec<u8>,
    /// Full suffix array (includes the sentinel suffix at index 0
    /// conceptually removed — entries address `text`).
    sa: Vec<u32>,
    /// BWT characters, 0..=3, with `sentinel_pos` marking where `$` sits.
    bwt: Vec<u8>,
    /// Row of the BWT holding the sentinel.
    sentinel_pos: usize,
    /// C[c]: number of text characters strictly smaller than `c` (sentinel
    /// included).
    c: [usize; 5],
    /// Sampled cumulative occ counts: `occ_samples[block][c]` = occurrences
    /// of `c` in `bwt[0 .. block*OCC_SAMPLE)`.
    occ_samples: Vec<[u32; 4]>,
    /// Contig start offsets in the concatenated text.
    contig_offsets: Vec<u64>,
    /// Contig lengths.
    contig_lengths: Vec<u64>,
}

impl OracleFmIndex {
    /// Build from a raw text (exposed for tests).
    pub fn build_from_text(raw: &[u8], contig_offsets: Vec<u64>, contig_lengths: Vec<u64>) -> Self {
        let text: Vec<u8> = raw.iter().map(|&b| rank4(b)).collect();
        let n = text.len();
        assert!(n > 0, "cannot index an empty genome");
        let sa = suffix_array(&text);

        // BWT with conceptual sentinel: row 0 of the full BWT matrix is the
        // sentinel suffix, whose BWT char is text[n-1]; for sa[i]=0 the BWT
        // char is the sentinel. We store rows for suffixes 0..n and remember
        // where the sentinel char lives.
        let mut bwt = Vec::with_capacity(n + 1);
        bwt.push(text[n - 1]); // row for the sentinel suffix "$"
        let mut sentinel_pos = 0usize;
        for (row, &s) in sa.iter().enumerate() {
            if s == 0 {
                sentinel_pos = row + 1;
                bwt.push(0); // placeholder; excluded from occ counts
            } else {
                bwt.push(text[s as usize - 1]);
            }
        }

        // C array: sentinel counts as the single smallest character.
        let mut counts = [0usize; 4];
        for &ch in &text {
            counts[ch as usize] += 1;
        }
        let mut c = [0usize; 5];
        c[0] = 1; // one sentinel before 'A'
        for i in 0..4 {
            c[i + 1] = c[i] + counts[i];
        }
        // c[k] = #chars < rank k where rank space is A=0..T=3 shifted by
        // sentinel: lookup uses c[rank] as "first row of rank" = c[rank].

        // Occ checkpoints.
        let blocks = bwt.len() / OCC_SAMPLE + 1;
        let mut occ_samples = Vec::with_capacity(blocks);
        let mut acc = [0u32; 4];
        for (i, &ch) in bwt.iter().enumerate() {
            if i % OCC_SAMPLE == 0 {
                occ_samples.push(acc);
            }
            if i != sentinel_pos {
                acc[ch as usize] += 1;
            }
        }
        occ_samples.push(acc);

        Self { text, sa, bwt, sentinel_pos, c, occ_samples, contig_offsets, contig_lengths }
    }

    /// Genome length (bases).
    pub fn len(&self) -> usize {
        self.text.len()
    }

    /// Number of BWT rows (`len() + 1`) and the row holding the sentinel.
    pub fn rows_and_sentinel(&self) -> (usize, usize) {
        (self.bwt.len(), self.sentinel_pos)
    }

    /// occurrences of `ch` in `bwt[0..i)`.
    fn occ(&self, ch: u8, i: usize) -> usize {
        let block = i / OCC_SAMPLE;
        let mut count = self.occ_samples[block][ch as usize] as usize;
        for (j, &b) in self.bwt[block * OCC_SAMPLE..i].iter().enumerate() {
            let pos = block * OCC_SAMPLE + j;
            if b == ch && pos != self.sentinel_pos {
                count += 1;
            }
        }
        count
    }

    /// First BWT row whose suffix starts with `ch`.
    fn c_of(&self, ch: u8) -> usize {
        self.c[ch as usize]
    }

    /// Backward-search `pattern` (ASCII ACGT; other characters abort with
    /// `None`). Returns the SA interval `[lo, hi)` in BWT row space.
    pub fn backward_search(&self, pattern: &[u8]) -> Option<(usize, usize)> {
        if pattern.is_empty() {
            return None;
        }
        let mut lo = 0usize;
        let mut hi = self.bwt.len();
        for &b in pattern.iter().rev() {
            if !matches!(b, b'A' | b'C' | b'G' | b'T') {
                return None;
            }
            let ch = rank4(b);
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
    /// [`OracleFmIndex::backward_search`]), capped at `max` results.
    pub fn locate(&self, lo: usize, hi: usize, max: usize) -> Vec<u32> {
        let mut out = Vec::with_capacity((hi - lo).min(max));
        for row in lo..hi.min(lo.saturating_add(max)) {
            // Row 0 is the sentinel suffix; data rows are offset by one.
            if row == 0 {
                continue;
            }
            out.push(self.sa[row - 1]);
        }
        out
    }

    /// Find up to `max` text positions where `pattern` occurs.
    pub fn find(&self, pattern: &[u8], max: usize) -> Vec<u32> {
        match self.backward_search(pattern) {
            Some((lo, hi)) => self.locate(lo, hi, max),
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
}
