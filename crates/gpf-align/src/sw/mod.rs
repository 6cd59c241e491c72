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
//! Two bodies compute the same DP; on any one input exactly one of them
//! runs, and both return what the reference returns.
//!
//! - **One sweep.** Inside the 16-bit envelope ([`in_envelope`]) the x86_64
//!   build sweeps the DP a row at a time over biased `u16` band lanes,
//!   eight per `__m128i` ([`sse2`]), into the row layout of the private
//!   `band` module; its end-cell scan and traceback read that layout back,
//!   re-deriving the reference's decisions so that CIGAR tie-breaks are the
//!   reference's. SSE2 is part of the x86_64 baseline, so nothing is
//!   detected at run time and no option selects a body.
//! - **The reference.** [`reference`](mod@reference) is the
//!   cell-at-a-time kernel with full-width `i32` cells and its own
//!   traceback. `fit_align` takes it for every input outside the envelope,
//!   and for every input on other targets. `fit_align` is public over any
//!   `Scoring`, and its callers do not share one: the aligner, IndelRealign
//!   and the genotyper each score with their own, so out-of-envelope
//!   scorings are supported inputs, not a test hook.
//!
//! The reference is also the tests' oracle: the differential proptests in
//! `tests/kernel_differential.rs` pin the sweep to it — score, CIGAR,
//! `window_start` and edit distance — so results are identical whichever
//! body an input takes.

#[cfg(target_arch = "x86_64")]
mod band;
pub mod reference;
#[cfg(target_arch = "x86_64")]
pub mod sse2;

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

/// Live biased values stay within `BIAS ± SPAN_LIMIT ⊆ [0x100, 0x7F00]`:
/// below `0x8000`, so the signed 16-bit max is the lane max, with one more
/// step of headroom on each side for the additions ahead of a max and the
/// saturating gap subtractions.
const SPAN_LIMIT: i64 = 0x3F00;

/// `true` when the 16-bit sweep reproduces the reference exactly for this
/// input shape and scoring: gap deltas non-positive (dead-lane sentinel
/// equals `NEG` semantics) and the worst-case dynamic range — longest
/// path × largest step plus the Y ramp — inside the biased 16-bit span.
pub fn in_envelope(m: usize, n: usize, sc: &Scoring) -> bool {
    let ge = sc.gap_extend as i64;
    let go_ge = sc.gap_open as i64 + ge;
    if ge > 0 || go_ge > 0 {
        return false;
    }
    let p_max = (sc.match_score as i64)
        .abs()
        .max((sc.mismatch as i64).abs())
        .max(-go_ge)
        .max(-ge);
    let Some(width) = sc.band.checked_mul(2).and_then(|b| b.checked_add(1)) else {
        return false;
    };
    if width > 1 << 20 || m >= 1 << 20 || n >= 1 << 20 {
        return false;
    }
    let span = (m as i64 + n as i64 + 3) * p_max + 2 * width as i64 * (-ge) + p_max;
    span <= SPAN_LIMIT
}

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
    #[cfg(target_arch = "x86_64")]
    if in_envelope(read.len(), window.len(), sc) {
        return sse2::fit_align_sse2(read, window, diag_offset, sc);
    }
    reference::fit_align_ref(read, window, diag_offset, sc)
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

    fn lcg(state: &mut u64) -> u64 {
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        *state >> 33
    }

    fn rand_seq(state: &mut u64, len: usize) -> Vec<u8> {
        (0..len).map(|_| (lcg(state) % 4) as u8).collect()
    }

    #[test]
    fn default_scoring_takes_the_sweep_path() {
        // The seed unit tests below all run under the default scoring; this
        // pins that they exercise the sweep on x86_64, not the fallback.
        assert!(in_envelope(150, 300, &Scoring::default()));
    }

    #[test]
    fn envelope_rejects_wide_scores_and_positive_gaps() {
        let sc = Scoring::default();
        assert!(in_envelope(150, 300, &sc));
        assert!(!in_envelope(1 << 14, 1 << 14, &sc)); // range overflow
        assert!(!in_envelope(10, 10, &Scoring { match_score: 30_000, ..sc }));
        assert!(!in_envelope(10, 10, &Scoring { gap_extend: 1, ..sc }));
        assert!(!in_envelope(10, 10, &Scoring { gap_open: 5, gap_extend: -1, ..sc }));
        // go+ge = 0 is still exact (nothing escapes a dead lane).
        assert!(in_envelope(10, 10, &Scoring { gap_open: 2, gap_extend: -2, ..sc }));
    }

    #[test]
    fn matches_reference_on_random_inputs() {
        let mut st = 0xfeed_u64;
        let scorings = [
            Scoring::default(),
            Scoring { band: 0, ..Scoring::default() },
            Scoring { band: 3, ..Scoring::default() },
            Scoring { match_score: 1, mismatch: -1, gap_open: -3, gap_extend: -1, band: 8 },
            Scoring { match_score: 5, mismatch: 0, gap_open: -7, gap_extend: -2, band: 5 },
            Scoring { match_score: 0, mismatch: -2, gap_open: -2, gap_extend: 0, band: 4 },
        ];
        for round in 0..200 {
            let sc = &scorings[round % scorings.len()];
            let m = 1 + (lcg(&mut st) % 40) as usize;
            let n = 1 + (lcg(&mut st) % 60) as usize;
            let diag = (lcg(&mut st) % 8) as usize;
            let read = rand_seq(&mut st, m);
            let window = rand_seq(&mut st, n);
            assert!(in_envelope(m, n, sc), "round {round}");
            let fast = fit_align(&read, &window, diag, sc);
            let slow = reference::fit_align_ref(&read, &window, diag, sc);
            assert_eq!(fast, slow, "round {round} sc={sc:?} read={read:?} window={window:?}");
        }
    }

    #[test]
    fn wide_band_saturated_lo_matches_reference() {
        // lo(i) saturates at 0 for the first rows: drift 0 then 1.
        let mut st = 7u64;
        let read = rand_seq(&mut st, 30);
        let window = rand_seq(&mut st, 35);
        let sc = Scoring { band: 20, ..Scoring::default() };
        assert_eq!(
            fit_align(&read, &window, 0, &sc),
            reference::fit_align_ref(&read, &window, 0, &sc)
        );
    }

    #[test]
    fn uncovered_band_is_none_in_both() {
        // diag offset pushes the band past the window end quickly.
        let read = vec![0u8; 20];
        let window = vec![1u8; 25];
        let sc = Scoring { band: 2, ..Scoring::default() };
        let fast = fit_align(&read, &window, 24, &sc);
        let slow = reference::fit_align_ref(&read, &window, 24, &sc);
        assert_eq!(fast, slow);
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
