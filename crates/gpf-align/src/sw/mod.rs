//! Banded fitting alignment with affine gaps and CIGAR traceback.
//!
//! Aligns a whole read against a reference window: the read is global, the
//! window is local (free leading/trailing reference gaps). This is the
//! "extension" half of seed-and-extend — BWA-MEM's banded Smith–Waterman.
//!
//! Gaps are affine (`gap_open + len × gap_extend`), so a contiguous indel is
//! preferred over the same bases split into several gaps — essential both
//! for alignment quality and for unambiguous variant extraction downstream.
//!
//! Two kernels compute the same DP, each the only path on its own inputs.
//! [`swar`] packs four 16-bit band lanes into each u64 accumulator and
//! fills a row per sweep; [`reference`](mod@reference) is the
//! cell-at-a-time kernel with full-width `i32` cells. [`fit_align`] picks
//! from what it can observe: the SWAR kernel whenever the scoring fits its
//! 16-bit envelope ([`swar::in_envelope`]), the reference for every other
//! [`Scoring`]. `fit_align` is public over any `Scoring`, and its callers
//! do not share one: the aligner, IndelRealign and the genotyper each score
//! with their own, so out-of-envelope scorings are supported inputs, not a
//! test hook. The reference is therefore both the out-of-envelope path and
//! the tests' reference: the differential proptests in
//! `tests/kernel_differential.rs` pin the SWAR kernel's score, CIGAR,
//! `window_start`, and edit distance to it bit for bit, so results are
//! identical whichever side of the envelope an input falls.

pub mod reference;
pub mod swar;

use gpf_formats::cigar::Cigar;

/// Alignment scoring parameters.
#[derive(Debug, Clone, Copy)]
pub struct Scoring {
    /// Score for a base match.
    pub match_score: i32,
    /// Penalty (negative) for a mismatch.
    pub mismatch: i32,
    /// Penalty (negative) charged once when a gap opens.
    pub gap_open: i32,
    /// Penalty (negative) per gap base.
    pub gap_extend: i32,
    /// Band half-width (must exceed the largest expected indel).
    pub band: usize,
}

impl Default for Scoring {
    fn default() -> Self {
        Self { match_score: 2, mismatch: -3, gap_open: -5, gap_extend: -2, band: 16 }
    }
}

/// Result of a fitting alignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alignment {
    /// Total score.
    pub score: i32,
    /// Offset of the alignment's first reference base within the window.
    pub window_start: usize,
    /// CIGAR over the read (M/I/D only; the caller adds clips).
    pub cigar: Cigar,
    /// Edit distance (mismatches + inserted + deleted bases).
    pub edit_distance: u32,
}

const NEG: i32 = i32::MIN / 4;

/// DP state indices.
const S_M: usize = 0;
const S_X: usize = 1; // gap in reference (read insertion)
const S_Y: usize = 2; // gap in read (reference deletion)

/// Align `read` (0..=3 ranks) against `window` (0..=3 ranks) with free
/// reference end gaps, banded around the diagonal `j ≈ i + diag_offset`.
///
/// Returns `None` when the band never covers a full-read path.
pub fn fit_align(read: &[u8], window: &[u8], diag_offset: usize, sc: &Scoring) -> Option<Alignment> {
    if gpf_trace::enabled() && !read.is_empty() && !window.is_empty() {
        // Band area actually evaluated: Σ_i (hi(i) - lo(i)).
        let (m, n, band) = (read.len(), window.len(), sc.band);
        let cells: u64 = (0..=m)
            .map(|i| {
                let lo = (i + diag_offset).saturating_sub(band);
                let hi = (i + diag_offset + band + 1).min(n + 1);
                hi.saturating_sub(lo) as u64
            })
            .sum();
        gpf_trace::counter(gpf_trace::names::ALIGN_SW_CELLS).add(cells);
    }
    if swar::in_envelope(read.len(), window.len(), sc) {
        swar::fit_align_swar(read, window, diag_offset, sc)
    } else {
        reference::fit_align_ref(read, window, diag_offset, sc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpf_formats::cigar::CigarOp;

    fn ranks(s: &[u8]) -> Vec<u8> {
        s.iter().map(|&b| gpf_formats::base::rank4(b)).collect()
    }

    fn align(read: &[u8], window: &[u8], diag: usize) -> Alignment {
        fit_align(&ranks(read), &ranks(window), diag, &Scoring::default()).expect("aligns")
    }

    #[test]
    fn default_scoring_takes_the_swar_path() {
        // The seed unit tests below all run under the default scoring; this
        // pins that they exercise the SWAR kernel, not the fallback.
        assert!(swar::in_envelope(150, 300, &Scoring::default()));
    }

    #[test]
    fn perfect_match() {
        let a = align(b"ACGTACGT", b"TTACGTACGTTT", 2);
        assert_eq!(a.cigar.to_string(), "8M");
        assert_eq!(a.window_start, 2);
        assert_eq!(a.edit_distance, 0);
        assert_eq!(a.score, 16);
    }

    #[test]
    fn single_mismatch() {
        let a = align(b"ACGTACGT", b"TTACGAACGTTT", 2);
        assert_eq!(a.cigar.to_string(), "8M");
        assert_eq!(a.edit_distance, 1);
        assert_eq!(a.score, 7 * 2 - 3);
    }

    #[test]
    fn deletion_from_reference() {
        let read = b"ACGTACGT";
        let window = b"GGACGTGGACGTCC"; // window has GG inserted vs read
        let a = align(read, window, 2);
        assert_eq!(a.cigar.to_string(), "4M2D4M");
        assert_eq!(a.edit_distance, 2);
        assert_eq!(a.score, 8 * 2 - 5 - 2 * 2);
    }

    #[test]
    fn insertion_to_reference() {
        let read = b"ACGTTTACGT";
        let window = b"GGACGTACGTCC";
        let a = align(read, window, 2);
        assert_eq!(a.edit_distance, 2);
        assert_eq!(a.cigar.read_len(), 10);
        assert_eq!(a.cigar.ref_span(), 8);
        let inserted: u32 = a
            .cigar
            .0
            .iter()
            .filter(|(_, op)| *op == CigarOp::Ins)
            .map(|&(count, _)| count)
            .sum();
        assert_eq!(inserted, 2);
        assert_eq!(a.score, 8 * 2 - 5 - 2 * 2);
    }

    #[test]
    fn affine_gaps_stay_contiguous() {
        // A 5-base deletion must come out as one 5D op, not split gaps.
        let read: Vec<u8> = [&b"ACGTACGTCCGGAAT"[..], &b"TGCATGCAGGCCTTA"[..]].concat();
        let window: Vec<u8> =
            [&b"ACGTACGTCCGGAAT"[..], &b"GGGTC"[..], &b"TGCATGCAGGCCTTA"[..]].concat();
        let a = align(&read, &window, 0);
        assert_eq!(a.cigar.to_string(), "15M5D15M");
        assert_eq!(a.edit_distance, 5);
    }

    #[test]
    fn window_start_is_free() {
        let a = align(b"CCCC", b"AAAAAACCCC", 0);
        assert_eq!(a.window_start, 6);
        assert_eq!(a.cigar.to_string(), "4M");
    }

    #[test]
    fn cigar_consumes_whole_read() {
        let reads: [&[u8]; 3] = [b"ACGT", b"ACGTACGTAC", b"TTTTTTT"];
        for read in reads {
            let window: Vec<u8> = [b"GG".as_slice(), read, b"GG".as_slice()].concat();
            let a = align(read, &window, 2);
            assert_eq!(a.cigar.read_len(), read.len() as u64);
        }
    }

    #[test]
    fn too_small_window_returns_none() {
        let r = ranks(b"ACGTACGTACGTACGTACGTACGTACGTACGT");
        let w = ranks(b"ACG");
        assert!(fit_align(&r, &w, 0, &Scoring::default()).is_none());
    }

    #[test]
    fn empty_inputs_return_none() {
        assert!(fit_align(&[], &[0, 1], 0, &Scoring::default()).is_none());
        assert!(fit_align(&[0], &[], 0, &Scoring::default()).is_none());
    }

    #[test]
    fn prefers_mismatch_over_two_gaps() {
        let a = align(b"ACGTACGT", b"ACGAACGT", 0);
        assert_eq!(a.cigar.to_string(), "8M");
        assert_eq!(a.edit_distance, 1);
    }

    #[test]
    fn mismatch_cheaper_than_open_close() {
        // With affine costs a single substitution (−3) must beat an
        // insertion+deletion pair (2 opens = −14).
        let a = align(b"AAAATAAAA", b"CCAAAACAAAACC", 2);
        assert_eq!(a.cigar.to_string(), "9M");
    }
}
