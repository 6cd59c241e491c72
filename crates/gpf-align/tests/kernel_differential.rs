//! Differential and hostile-input properties for the alignment kernels.
//!
//! The SWAR Smith–Waterman is pinned to the retained scalar reference —
//! identical score, CIGAR, `window_start`, and edit distance, including
//! `None` on uncovered bands — and the Myers bit-parallel distance to a
//! classic O(mn) DP. The prefilter property is the one mate rescue and
//! realignment rely on for byte-identical output: it never skips a window
//! the DP would have accepted (seed candidates no longer consult it, and
//! `verify_candidate` still equals the old prefilter-then-DP sequence).
//!
//! The exact-placement shortcut ahead of the DP is pinned the same way: a
//! naive in-band occurrence count says when it must fire and when it must
//! decline (two occurrences in a tandem repeat, an occurrence one diagonal
//! outside the band or hanging over the window's end, a scoring under which
//! an edit is free), and whenever it fires its answer is `fit_align`'s.
//!
//! `verify_candidate` as a whole is held to `fit_align(..).filter(score ≥
//! threshold)` over the inputs a one-mismatch shortcut could get wrong:
//! reads of 1, 63, 64, 65 and 150 bases planted with one mismatch at the
//! first, a middle or the last base; a one-mismatch read inside a tandem
//! repeat (two or more one-mismatch offsets in band); a verbatim copy beside
//! a one-mismatch copy; the one-mismatch copy at and just past the band
//! edge; a gapped path with no mismatch beside a one-mismatch offset; and
//! hostile scorings.

use gpf_align::myers;
use gpf_align::sw::{self, reference::fit_align_ref, swar, Alignment, Scoring};
use gpf_align::verify::{
    exact_placement, one_mismatch_placement, verify_at, verify_candidate, OrientedRead,
};
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

/// Every window offset inside the band around `diag` that holds the whole
/// read, with the number of bases where it differs from the read.
fn in_band_hamming<'a>(
    read: &'a [u8],
    window: &'a [u8],
    diag: usize,
    band: usize,
) -> impl Iterator<Item = (usize, usize)> + 'a {
    (diag.saturating_sub(band)..=diag + band)
        .filter(move |&off| off + read.len() <= window.len())
        .map(move |off| (off, read.iter().zip(&window[off..]).filter(|(r, w)| r != w).count()))
}

/// Window offsets inside the band around `diag` where `read` occurs verbatim
/// and in full — the spec `exact_placement` is held to.
fn in_band_occurrences(read: &[u8], window: &[u8], diag: usize, band: usize) -> Vec<usize> {
    in_band_hamming(read, window, diag, band).filter(|&(_, d)| d == 0).map(|(off, _)| off).collect()
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

/// Does one mismatch outscore every gapped path under `sc` —
/// `(m−1)·match + mismatch > m·match + gap_open + gap_extend`?
fn mismatch_beats_a_gap(sc: &Scoring) -> bool {
    sc.mismatch as i64 - sc.match_score as i64 > sc.gap_open as i64 + sc.gap_extend as i64
}

/// What `one_mismatch_placement` must return: under a scoring where every
/// edit costs and a mismatch beats any gap, no in-band offset verbatim and
/// exactly one with one mismatch.
fn expected_one_mismatch(
    read: &[u8],
    window: &[u8],
    diag: usize,
    sc: &Scoring,
) -> Option<Alignment> {
    let offsets: Vec<(usize, usize)> = in_band_hamming(read, window, diag, sc.band).collect();
    let ones: Vec<usize> = offsets.iter().filter(|&&(_, d)| d == 1).map(|&(off, _)| off).collect();
    let verbatim = offsets.iter().any(|&(_, d)| d == 0);
    if read.is_empty()
        || !every_edit_costs(sc)
        || !mismatch_beats_a_gap(sc)
        || verbatim
        || ones.len() != 1
    {
        return None;
    }
    Some(Alignment {
        score: (read.len() as i32 - 1) * sc.match_score + sc.mismatch,
        window_start: ones[0],
        cigar: Cigar::from_ops(vec![(read.len() as u32, CigarOp::Match)]),
        edit_distance: 1,
    })
}

/// Fires exactly when the spec says, and then agrees with the DP.
fn check_one_mismatch(
    read: &[u8],
    window: &[u8],
    diag: usize,
    sc: &Scoring,
) -> Result<Option<Alignment>, TestCaseError> {
    let got = one_mismatch_placement(read, window, diag, sc);
    prop_assert_eq!(&got, &expected_one_mismatch(read, window, diag, sc));
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

/// What `verify_candidate` is held to: the DP, then the threshold.
fn dp_then_threshold(
    read: &[u8],
    window: &[u8],
    diag: usize,
    threshold: f64,
    sc: &Scoring,
) -> Option<Alignment> {
    sw::fit_align(read, window, diag, sc).filter(|a| a.score as f64 >= threshold)
}

/// `verify_candidate` on `read` against `window` equals the DP then the
/// threshold, at `min_score_frac` `num`%, and each shortcut on its ladder
/// fires exactly by its spec.
fn check_verify(
    read: &[u8],
    window: &[u8],
    diag: usize,
    num: u32,
    sc: &Scoring,
) -> Result<Option<Alignment>, TestCaseError> {
    let probe = oriented(read);
    let threshold = probe.threshold(num as f64 / 100.0, sc);
    let got = verify_candidate(&probe, window, diag, threshold, sc);
    prop_assert_eq!(&got, &dp_then_threshold(read, window, diag, threshold, sc));
    check_exact(read, window, diag, sc)?;
    check_one_mismatch(read, window, diag, sc)?;
    Ok(got)
}

/// The read lengths the one-mismatch battery plants: one base, either side
/// of a 64-bit word, and the benchmark's 150.
const PLANTED_LENS: [usize; 5] = [1, 63, 64, 65, 150];

/// `read` with the base at `at` (first, middle or last by `which`) replaced
/// by a different rank.
fn one_mismatch(read: &[u8], which: usize, delta: u8) -> Vec<u8> {
    let at = [0, read.len() / 2, read.len() - 1][which % 3];
    let mut out = read.to_vec();
    out[at] = (out[at] + 1 + delta % 3) % 4;
    out
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
        let probe = oriented(&read);
        let threshold = probe.threshold(num as f64 / 100.0, &sc);
        for window in [[left.as_slice(), &read, &right].concat(), [left.as_slice(), &right].concat()] {
            prop_assert_eq!(
                verify_candidate(&probe, &window, diag, threshold, &sc),
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
        let probe = oriented(&read);
        let got = verify_at(&probe, &contig, pos, pad, 0.4, &sc);
        let w_start = pos.saturating_sub(pad);
        let w_end = (pos + len + pad).min(contig.len());
        let threshold = probe.threshold(0.4, &sc);
        let expect = prefilter_then_dp(&read, &contig[w_start..w_end], pos - w_start, threshold, &sc)
            .map(|a| ((w_start + a.window_start) as u64, a));
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn verify_candidate_on_planted_one_mismatch_reads(
        (len, bases) in (0usize..5, proptest::collection::vec(0u8..4, 150)),
        (left, right) in (rank_seq(40), rank_seq(40)),
        (which, delta) in (0usize..3, 0u8..3),
        shift in 0usize..=40,
        sc in scoring(),
        num in 0u32..=100,
    ) {
        // One copy of the read with one base changed — first, middle or last
        // — verified from up to 20 diagonals either side of it, under the
        // default scoring and a random one.
        let read = &bases[..PLANTED_LENS[len]];
        let window = [left.as_slice(), &one_mismatch(read, which, delta), &right].concat();
        let diag = (left.len() + shift).saturating_sub(20);
        for sc in [Scoring::default(), sc] {
            check_verify(read, &window, diag, num, &sc)?;
        }
        // And it does fire: a long read's planted copy in band is the only
        // offset within one mismatch of it.
        if read.len() > 1 && shift.abs_diff(20) <= Scoring::default().band {
            let fired = one_mismatch_placement(read, &window, diag, &Scoring::default());
            prop_assert_eq!(fired.map(|a| a.window_start), Some(left.len()));
        }
    }

    #[test]
    fn verify_candidate_on_a_one_mismatch_read_inside_a_tandem_repeat(
        unit in proptest::collection::vec(0u8..4, 1..=8),
        (copies, extra) in (3usize..12, 2usize..6),
        (which, delta) in (0usize..3, 0u8..3),
        diag in 0usize..8,
        band in 8usize..=24,
        num in 0u32..=100,
    ) {
        // Whole repeat units with one base changed, inside a longer run of
        // the unit: the offsets one period apart all hold the read with one
        // mismatch (period <= band, so at least two are in band) and only
        // the DP's tie-break may pick among them.
        let sc = Scoring { band, ..Scoring::default() };
        let read = one_mismatch(&unit.repeat(copies), which, delta);
        let window = unit.repeat(copies + extra);
        let one_off = in_band_hamming(&read, &window, diag, band).filter(|&(_, d)| d == 1).count();
        prop_assert!(one_off >= 2, "{one_off} one-mismatch offsets in band");
        check_verify(&read, &window, diag, num, &sc)?;
        prop_assert_eq!(one_mismatch_placement(&read, &window, diag, &sc), None);
    }

    #[test]
    fn verify_candidate_with_a_verbatim_copy_beside_a_one_mismatch_copy(
        read in proptest::collection::vec(0u8..4, 1..60),
        (left, gap, right) in (rank_seq(20), rank_seq(12), rank_seq(20)),
        (which, delta, verbatim_first) in (0usize..3, 0u8..3, any::<bool>()),
        diag in 0usize..40,
        sc in scoring(),
        num in 0u32..=100,
    ) {
        // The perfect copy wins wherever the band holds it; where it holds
        // only the one-mismatch copy, that one does.
        let planted = one_mismatch(&read, which, delta);
        let (a, b) = if verbatim_first { (&read, &planted) } else { (&planted, &read) };
        let window = [left.as_slice(), a, &gap, b, &right].concat();
        for sc in [Scoring::default(), sc] {
            check_verify(&read, &window, diag, num, &sc)?;
        }
    }

    #[test]
    fn verify_candidate_one_mismatch_at_the_band_edge(
        read in proptest::collection::vec(0u8..4, 12..70),
        left in proptest::collection::vec(0u8..4, 30..60),
        right in rank_seq(30),
        (which, delta) in (0usize..3, 0u8..3),
        band in 0usize..=24,
        num in 0u32..=100,
    ) {
        // The one-mismatch copy `band` diagonals from the centre (covered)
        // or `band + 1` (not covered), on either side.
        let sc = Scoring { band, ..Scoring::default() };
        let window = [left.as_slice(), &one_mismatch(&read, which, delta), &right].concat();
        let off = left.len();
        for diag in [off - band, off + band, off - band - 1, off + band + 1] {
            check_verify(&read, &window, diag, num, &sc)?;
        }
    }

    #[test]
    fn verify_candidate_deletion_path_beside_a_one_mismatch_offset(
        (read, cut, extra) in (proptest::collection::vec(0u8..4, 2..60), 0usize..60, 0u8..4),
        (left, gap, right) in (rank_seq(20), rank_seq(10), rank_seq(20)),
        (which, delta, deletion_first) in (0usize..3, 0u8..3, any::<bool>()),
        diag in 0usize..40,
        sc in scoring(),
        num in 0u32..=100,
    ) {
        // The read verbatim but for one extra window base — a one-base
        // deletion and no mismatch — beside a one-mismatch copy. Under the
        // default scoring the mismatch scores higher, under a cheap gap the
        // deletion does; either way the answer is the DP's.
        let cut = 1 + cut % (read.len() - 1);
        let deleted = [&read[..cut], &[extra], &read[cut..]].concat();
        let planted = one_mismatch(&read, which, delta);
        let (a, b) = if deletion_first { (&deleted, &planted) } else { (&planted, &deleted) };
        let window = [left.as_slice(), a, &gap, b, &right].concat();
        let cheap_gap = Scoring { gap_open: 0, gap_extend: -1, ..Scoring::default() };
        for sc in [Scoring::default(), cheap_gap, sc] {
            check_verify(&read, &window, diag, num, &sc)?;
        }
        prop_assert_eq!(one_mismatch_placement(&read, &window, diag, &cheap_gap), None);
    }

    #[test]
    fn verify_candidate_on_one_mismatch_reads_under_hostile_scoring(
        (len, bases) in (0usize..5, proptest::collection::vec(0u8..4, 150)),
        (left, right) in (rank_seq(20), rank_seq(20)),
        (which, delta) in (0usize..3, 0u8..3),
        diag in 0usize..40,
        sc in hostile_scoring(),
        num in 0u32..=100,
    ) {
        // Any scoring at all, the planted read and the same read unplanted;
        // the certificate declines whenever the scoring fails its
        // preconditions or its inequality.
        let read = &bases[..PLANTED_LENS[len]];
        let planted = one_mismatch(read, which, delta);
        for window in [[left.as_slice(), &planted, &right].concat(), [left.as_slice(), &right].concat()] {
            check_verify(read, &window, diag, num, &sc)?;
            if !every_edit_costs(&sc) || !mismatch_beats_a_gap(&sc) {
                prop_assert_eq!(one_mismatch_placement(read, &window, diag, &sc), None);
            }
        }
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
