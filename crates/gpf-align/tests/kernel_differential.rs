//! Differential and hostile-input properties for the alignment kernels.
//!
//! The SWAR Smith–Waterman is pinned to the retained scalar reference —
//! identical score, CIGAR, `window_start`, and edit distance, including
//! `None` on uncovered bands — and the Myers bit-parallel distance to a
//! classic O(mn) DP. The prefilter property is the one the candidate loops
//! rely on for byte-identical output: it never skips a window the DP would
//! have accepted.
//!
//! The exact-placement shortcut ahead of the DP is pinned the same way: a
//! naive in-band occurrence count says when it must fire and when it must
//! decline (two occurrences in a tandem repeat, an occurrence one diagonal
//! outside the band or hanging over the window's end, a scoring under which
//! an edit is free), and whenever it fires its answer is `fit_align`'s.

use gpf_align::myers;
use gpf_align::sw::{self, reference::fit_align_ref, swar, Alignment, Scoring};
use gpf_align::verify::{exact_placement, verify_at, verify_candidate, OrientedRead};
use gpf_formats::base::unrank4;
use gpf_formats::cigar::{Cigar, CigarOp};
use gpf_support::proptest::prelude::*;

fn rank_seq(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..4, 0..max_len)
}

/// Byte sequences with no alphabet guarantee — the kernels promise byte
/// equality semantics, not a 4-letter alphabet.
fn wild_seq(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..max_len)
}

fn scoring() -> impl Strategy<Value = Scoring> {
    (0i32..=4, -4i32..=0, -8i32..=0, -4i32..=0, 0usize..=24).prop_map(
        |(match_score, mismatch, gap_open, gap_extend, band)| Scoring {
            match_score,
            mismatch,
            gap_open,
            gap_extend,
            band,
        },
    )
}

/// Scorings that may fall outside the SWAR envelope (positive gap deltas,
/// huge magnitudes) — the dispatcher must still agree with the reference
/// by falling back.
fn hostile_scoring() -> impl Strategy<Value = Scoring> {
    (any::<i16>(), any::<i16>(), -40i32..=40, -40i32..=40, 0usize..=40).prop_map(
        |(match_score, mismatch, gap_open, gap_extend, band)| Scoring {
            match_score: match_score as i32,
            mismatch: mismatch as i32,
            gap_open,
            gap_extend,
            band,
        },
    )
}

/// Classic O(mn) fitting edit distance: read global, window start/end free.
fn dp_fitting(read: &[u8], window: &[u8]) -> u32 {
    let m = read.len();
    let mut prev: Vec<u32> = (0..=m as u32).collect();
    let mut cur = vec![0u32; m + 1];
    let mut best = prev[m];
    for j in 1..=window.len() {
        cur[0] = 0;
        for i in 1..=m {
            let sub = prev[i - 1] + u32::from(read[i - 1] != window[j - 1]);
            cur[i] = sub.min(prev[i] + 1).min(cur[i - 1] + 1);
        }
        best = best.min(cur[m]);
        std::mem::swap(&mut prev, &mut cur);
    }
    best
}

/// Window offsets inside the band around `diag` where `read` occurs verbatim
/// and in full — the spec `exact_placement` is held to.
fn in_band_occurrences(read: &[u8], window: &[u8], diag: usize, band: usize) -> Vec<usize> {
    (diag.saturating_sub(band)..=diag + band)
        .filter(|&off| off + read.len() <= window.len() && window[off..off + read.len()] == *read)
        .collect()
}

/// Does every edit strictly cost under `sc`? (Otherwise a path with edits
/// can tie or beat the verbatim one and only the DP knows which it picks.)
fn every_edit_costs(sc: &Scoring) -> bool {
    sc.match_score > 0 && sc.gap_open <= 0 && sc.mismatch < sc.match_score && sc.gap_extend < 0
}

/// What `exact_placement` must return, from the two specs above.
fn expected_exact(read: &[u8], window: &[u8], diag: usize, sc: &Scoring) -> Option<Alignment> {
    let occurrences = in_band_occurrences(read, window, diag, sc.band);
    if read.is_empty() || !every_edit_costs(sc) || occurrences.len() != 1 {
        return None;
    }
    Some(Alignment {
        score: read.len() as i32 * sc.match_score,
        window_start: occurrences[0],
        cigar: Cigar::from_ops(vec![(read.len() as u32, CigarOp::Match)]),
        edit_distance: 0,
    })
}

/// Fires exactly when the spec says, and then agrees with the DP.
fn check_exact(
    read: &[u8],
    window: &[u8],
    diag: usize,
    sc: &Scoring,
) -> Result<Option<Alignment>, TestCaseError> {
    let got = exact_placement(read, window, diag, sc);
    prop_assert_eq!(&got, &expected_exact(read, window, diag, sc));
    if got.is_some() {
        prop_assert_eq!(&got, &sw::fit_align(read, window, diag, sc));
    }
    Ok(got)
}

/// The verification sequence as the aligners spelled it out before
/// `verify_candidate`: prefilter, DP, threshold.
fn prefilter_then_dp(
    read: &[u8],
    window: &[u8],
    diag: usize,
    threshold: f64,
    sc: &Scoring,
) -> Option<Alignment> {
    if !myers::prefilter_allows(read, window, threshold.ceil() as i64, sc) {
        return None;
    }
    sw::fit_align(read, window, diag, sc).filter(|a| a.score as f64 >= threshold)
}

fn oriented(ranks: &[u8]) -> OrientedRead {
    let ascii: Vec<u8> = ranks.iter().map(|&r| unrank4(r)).collect();
    let mut read = OrientedRead::default();
    read.load(&ascii, false);
    assert_eq!(read.ranks(), ranks);
    read
}

proptest! {
    #[test]
    fn exact_placement_fires_by_the_spec_and_equals_the_dp(
        read in rank_seq(50),
        left in rank_seq(40),
        right in rank_seq(40),
        diag in 0usize..60,
        sc in scoring(),
    ) {
        // The read planted in random flanks: found when the band reaches it,
        // not when it does not, and never when chance plants it twice.
        let window = [left.as_slice(), &read, &right].concat();
        check_exact(&read, &window, diag, &sc)?;
        // Unplanted: almost always declines, and must agree when it fires.
        check_exact(&read, &[left.as_slice(), &right].concat(), diag, &sc)?;
    }

    #[test]
    fn exact_placement_at_the_band_edge(
        read in proptest::collection::vec(0u8..4, 12..50),
        left in proptest::collection::vec(0u8..4, 30..60),
        right in rank_seq(30),
        band in 0usize..=24,
    ) {
        // The occurrence sits `band` diagonals from the centre (covered) or
        // `band + 1` (not covered), on either side.
        let sc = Scoring { band, ..Scoring::default() };
        let window = [left.as_slice(), &read, &right].concat();
        let off = left.len();
        for diag in [off - band, off + band] {
            let got = check_exact(&read, &window, diag, &sc)?;
            if in_band_occurrences(&read, &window, diag, band) == [off] {
                prop_assert_eq!(got.map(|a| a.window_start), Some(off));
            }
        }
        for diag in [off - band - 1, off + band + 1] {
            let got = check_exact(&read, &window, diag, &sc)?;
            prop_assert!(got.is_none_or(|a| a.window_start != off), "reached past the band");
        }
    }

    #[test]
    fn exact_placement_declines_tandem_repeats(
        unit in proptest::collection::vec(0u8..4, 1..=8),
        copies in 3usize..12,
        extra in 2usize..6,
        diag in 0usize..8,
        band in 8usize..=24,
    ) {
        // A read of whole repeat units inside a longer run of the same
        // unit: period <= band, so at least two occurrences are in band and
        // the DP's tie-break, not this shortcut, must pick among them.
        let sc = Scoring { band, ..Scoring::default() };
        let read = unit.repeat(copies);
        let window = unit.repeat(copies + extra);
        prop_assert!(in_band_occurrences(&read, &window, diag, band).len() >= 2);
        prop_assert_eq!(check_exact(&read, &window, diag, &sc)?, None);
    }

    #[test]
    fn exact_placement_under_hostile_scoring(
        read in rank_seq(40),
        left in rank_seq(20),
        right in rank_seq(20),
        diag in 0usize..30,
        sc in hostile_scoring(),
    ) {
        // Any scoring at all: it declines unless every edit costs (match 0,
        // mismatch no worse than a match, free or profitable gaps all
        // decline), and where it fires the dispatcher's DP agrees.
        let window = [left.as_slice(), &read, &right].concat();
        let got = check_exact(&read, &window, diag, &sc)?;
        if !every_edit_costs(&sc) {
            prop_assert_eq!(got, None);
        }
    }

    #[test]
    fn verify_candidate_is_prefilter_then_dp_then_threshold(
        read in rank_seq(50),
        left in rank_seq(40),
        right in rank_seq(40),
        diag in 0usize..60,
        sc in scoring(),
        num in 0u32..=120,
    ) {
        // With and without the shortcut firing, accepted and rejected
        // (thresholds above the perfect score included).
        let mut probe = oriented(&read);
        let threshold = probe.threshold(num as f64 / 100.0, &sc);
        for window in [[left.as_slice(), &read, &right].concat(), [left.as_slice(), &right].concat()] {
            prop_assert_eq!(
                verify_candidate(&mut probe, &window, diag, threshold, &sc),
                prefilter_then_dp(&read, &window, diag, threshold, &sc)
            );
        }
    }

    #[test]
    fn verify_at_clips_the_window_at_contig_ends(
        contig in proptest::collection::vec(0u8..4, 30..160),
        start in 0usize..160,
        len in 1usize..60,
        shift in 0usize..30,
        pad in 0usize..30,
    ) {
        // A read cut from the contig (so the shortcut fires wherever the
        // clipped window still holds it whole), verified at a position up to
        // `shift` off, with the pad running past either contig end — or the
        // read itself hanging over the end.
        let sc = Scoring::default();
        let start = start % contig.len();
        let mut read = contig[start..(start + len).min(contig.len())].to_vec();
        read.resize(len, 3); // hangs over the end when cut short
        let pos = (start + shift).saturating_sub(15).min(contig.len() - 1);
        let mut probe = oriented(&read);
        let got = verify_at(&mut probe, &contig, pos, pad, 0.4, &sc);
        let w_start = pos.saturating_sub(pad);
        let w_end = (pos + len + pad).min(contig.len());
        let threshold = probe.threshold(0.4, &sc);
        let expect = prefilter_then_dp(&read, &contig[w_start..w_end], pos - w_start, threshold, &sc)
            .map(|a| ((w_start + a.window_start) as u64, a));
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn swar_sw_matches_reference(
        read in rank_seq(60),
        window in rank_seq(90),
        diag in 0usize..12,
        sc in scoring(),
    ) {
        // In-envelope scorings take the SWAR path; the result must be the
        // reference's bit for bit (CIGAR tie-breaks included).
        if !swar::in_envelope(read.len(), window.len(), &sc) {
            return Ok(());
        }
        let fast = swar::fit_align_swar(&read, &window, diag, &sc);
        let slow = fit_align_ref(&read, &window, diag, &sc);
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn dispatch_matches_reference_on_any_scoring(
        read in wild_seq(40),
        window in wild_seq(60),
        diag in 0usize..8,
        sc in hostile_scoring(),
    ) {
        // Wild bytes, wild scorings: whichever kernel the dispatcher
        // picks, the public fit_align contract is the reference's.
        let via_dispatch = sw::fit_align(&read, &window, diag, &sc);
        let direct = fit_align_ref(&read, &window, diag, &sc);
        prop_assert_eq!(via_dispatch, direct);
    }

    #[test]
    fn sw_hostile_shapes_stay_clean(
        read in rank_seq(50),
        diag in 0usize..6,
        sc in scoring(),
    ) {
        // Empty window, band 0, read longer than window: a clean Option,
        // never a panic — and any Some consumes the whole read.
        for window in [Vec::new(), vec![0u8; 3], vec![2u8; read.len() / 2]] {
            if let Some(a) = sw::fit_align(&read, &window, diag, &sc) {
                prop_assert_eq!(a.cigar.read_len(), read.len() as u64);
                prop_assert!(a.window_start <= window.len());
            }
        }
    }

    #[test]
    fn myers_matches_dp(read in wild_seq(150), window in wild_seq(200)) {
        if read.is_empty() {
            return Ok(());
        }
        let expect = dp_fitting(&read, &window);
        prop_assert_eq!(myers::fitting_distance(&read, &window, u32::MAX), Some(expect));
        // The cutoff form agrees on both sides of the exact distance.
        prop_assert_eq!(myers::fitting_distance(&read, &window, expect), Some(expect));
        if expect > 0 {
            prop_assert_eq!(myers::fitting_distance(&read, &window, expect - 1), None);
        }
    }

    #[test]
    fn prefilter_never_skips_an_acceptable_candidate(
        read in rank_seq(60),
        window in rank_seq(90),
        diag in 0usize..12,
        sc in scoring(),
        num in 0i64..=100,
    ) {
        // Soundness over arbitrary thresholds: if the DP reaches
        // min_score, the prefilter must have allowed the window.
        let perfect = read.len() as i64 * sc.match_score as i64;
        let min_score = perfect * num / 100;
        let allowed = myers::prefilter_allows(&read, &window, min_score, &sc);
        if let Some(aln) = sw::fit_align(&read, &window, diag, &sc) {
            if aln.score as i64 >= min_score {
                prop_assert!(allowed, "skipped a window scoring {}", aln.score);
            }
        }
    }
}
