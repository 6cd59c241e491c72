//! Lane-parallel banded Smith–Waterman: four 16-bit band lanes per u64.
//!
//! The band of [`super::fit_align`]'s DP has constant width `2·band + 1`,
//! and in band coordinates every cell of row `i` depends only on row `i−1`
//! (for M and X) shifted by the band drift `s_i = lo(i) − lo(i−1) ∈ {0, 1}`,
//! plus the in-row Y chain. That makes a row-per-sweep SWAR formulation
//! possible with plain u64 arithmetic — no `std::simd`, no intrinsics. It
//! is the in-envelope body on every target but x86_64, where
//! [`super::sse2`] computes the same lanes eight at a time.
//!
//! - **Lane layout** is `sw::band`'s: band lane `c` (window column
//!   `j = lo(i) + c`) lives in bits `16·(c mod 4)..` of word `c / 4`,
//!   biased by `0x4000` with `0` the dead-lane sentinel (the reference's
//!   `NEG`), and each row keeps one zero pad word on both sides so lane
//!   shifts can read across word boundaries branch-free.
//! - **Guard-bit compare.** With all live lanes in `[1, 0x7F00]`, bit 15 of
//!   every lane is free, so `((a | 0x8000·) − b) & 0x8000·` computes a
//!   per-lane `a ≥ b` without cross-lane borrows; expanding that bit to a
//!   full lane mask gives branch-free per-lane max. Dead lanes (0) lose
//!   every max against live lanes — exactly `NEG` semantics.
//! - **M and X rows** read the previous row's words at lane offset
//!   `s_i − 1` / `s_i` (an aligned read or a one-lane funnel shift) and
//!   apply the substitution / gap deltas to all four lanes at once.
//! - **Y row (in-row chain).** `Y(c) = max(M(c−1)+go+ge, Y(c−1)+ge)`
//!   unrolls to `Y(c) = max_{k<c} [A(k) + ge·(c−1−k)]` with
//!   `A(k) = M(k)+go+ge`. Adding the ramp `r_k = |ge|·k` turns that into a
//!   plain running max: `Y(c) = (max_{k<c} [A(k)+r_k]) − r_{c−1}` — an
//!   exclusive prefix max computed in log-steps per word (`x = max(x, x≪16)`,
//!   `x = max(x, x≪32)`) with a scalar carry between words.
//! - **Traceback** is `sw::band`'s: it re-derives the reference's
//!   decisions from the stored matrices, so the CIGAR is the reference's.
//!
//! [`in_envelope`] gates all of this: the scoring's worst-case dynamic
//! range (longest path × largest step, plus the Y ramp) must fit the biased
//! 16-bit range, and gap deltas must be non-positive so dead lanes are
//! *exactly* the reference's `NEG` cells (a positive gap delta would let
//! the reference store `NEG + δ` values that the sentinel cannot mirror).
//! Out-of-envelope calls fall back to [`super::reference::fit_align_ref`].

use super::band::{BandDp, LANES};
use super::{Alignment, Scoring};

const LANE_MASK: u64 = 0xFFFF;
const ONES: u64 = 0x0001_0001_0001_0001;
const SIGN: u64 = 0x8000_8000_8000_8000;
/// Live biased values stay within `BIAS ± SPAN_LIMIT ⊆ [256, 0x7F00]`,
/// keeping bit 15 free for the guard-bit compare and one more step of
/// headroom below `0xFFFF` for the pre-max additions.
const SPAN_LIMIT: i64 = 0x3F00;

#[inline(always)]
fn bcast(v: u16) -> u64 {
    (v as u64) * ONES
}

/// Expand each lane's bit 15 into a full `0xFFFF`/`0x0000` lane mask.
#[inline(always)]
fn expand_sign(x: u64) -> u64 {
    ((x >> 15) & ONES) * LANE_MASK
}

/// Per-lane `a ≥ b` mask. Requires every lane of both operands ≤ `0x7FFF`
/// (`expand_sign` reads only bit 15, so no post-subtract masking needed).
#[inline(always)]
fn ge_mask(a: u64, b: u64) -> u64 {
    expand_sign((a | SIGN).wrapping_sub(b))
}

/// Per-lane max; ties pick `a`. Requires lanes ≤ `0x7FFF`.
#[inline(always)]
fn max16(a: u64, b: u64) -> u64 {
    let keep_a = ge_mask(a, b);
    (a & keep_a) | (b & !keep_a)
}

/// Subtract a per-lane non-negative `delta` from every live lane; dead
/// lanes stay dead. Setting bit 15 before the subtraction makes the lane
/// self-masking: a live lane keeps bit 15 (the envelope guarantees
/// `live − delta ≥ 0x100 > 0` and `live − delta ≤ 0x7F00`), a dead lane
/// drops it for `delta ≥ 1`. The mask `s − (s ≫ 15)` expands each kept
/// sign bit to `0x7FFF`, which simultaneously selects live lanes and
/// strips the marker bit — including the `delta = 0` dead case, where
/// `d = 0x8000` masks to 0. No borrow crosses a lane because every lane
/// satisfies `(x | 0x8000) ≥ delta`.
#[inline(always)]
fn subs(x: u64, delta: u64) -> u64 {
    let d = (x | SIGN).wrapping_sub(delta);
    let s = d & SIGN;
    d & (s - (s >> 15))
}

/// Word `w` of a row read with every lane shifted up by one (target lane
/// `l` takes source lane `l−1`); `row` is the padded row slice, `w` a data
/// word index (`row[w]` is the previous word thanks to the leading pad).
#[inline(always)]
fn read_shift_up(row: &[u64], w: usize) -> u64 {
    (row[w + 1] << 16) | (row[w] >> 48)
}

/// Word `w` read with every lane shifted down by one (target lane `l`
/// takes source lane `l+1`); the trailing pad covers the last word.
#[inline(always)]
fn read_shift_down(row: &[u64], w: usize) -> u64 {
    (row[w + 1] >> 16) | (row[w + 2] << 48)
}

/// `true` when the SWAR kernel reproduces the reference exactly for this
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

/// The packed kernel. Callers must check [`in_envelope`] first; within the
/// envelope this returns exactly what `fit_align_ref` returns, including
/// tie-breaks. See the module docs for the arithmetic.
pub fn fit_align_swar(
    read: &[u8],
    window: &[u8],
    diag_offset: usize,
    sc: &Scoring,
) -> Option<Alignment> {
    let mut dp = BandDp::new(read.len(), window.len(), diag_offset, sc.band)?;
    sweep(&mut dp, read, window, sc);
    dp.traceback(read, window, sc)
}

/// Fill rows `1..=m` of `dp`, a word of four lanes at a time.
fn sweep(dp: &mut BandDp, read: &[u8], window: &[u8], sc: &Scoring) {
    let m = read.len();
    let n = window.len();
    let words = dp.words();

    // Scoring decomposed for lane arithmetic. The envelope guarantees
    // ge ≤ 0 and go+ge ≤ 0; match/mismatch may have either sign.
    let split = |d: i64| -> (u64, u64) {
        if d >= 0 {
            (bcast(d as u16), 0)
        } else {
            (0, bcast((-d) as u16))
        }
    };
    let (mat_p, mat_n) = split(sc.match_score as i64);
    let (mis_p, mis_n) = split(sc.mismatch as i64);
    let ge = sc.gap_extend as i64;
    let go_ge = sc.gap_open as i64 + ge;
    let ext_n = bcast((-ge) as u16);
    let open_n = bcast((-go_ge) as u16);

    // Y-scan ramps: ramp[w] holds r_c = |ge|·c for the word's four lanes,
    // ramp_prev[w] holds r_{c−1} (lane c=0 never consumes its entry — the
    // exclusive prefix max is always dead there).
    let ge_abs = (-ge) as u64;
    let ramp: Vec<u64> = (0..words)
        .map(|w| {
            (0..LANES).fold(0u64, |acc, l| acc | (ge_abs * (w * LANES + l) as u64) << (16 * l))
        })
        .collect();
    let ramp_prev: Vec<u64> = (0..words)
        .map(|w| {
            (0..LANES).fold(0u64, |acc, l| {
                let c = w * LANES + l;
                if c == 0 { acc } else { acc | (ge_abs * (c - 1) as u64) << (16 * l) }
            })
        })
        .collect();

    // Per-symbol equality tables over *absolute* window columns: for read
    // symbol `s`, lane `j mod 4` of word `j / 4` is `0xFFFF` iff
    // `window[j−1] == s` (column 0 and out-of-range columns stay 0). A
    // row's band word then extracts its four columns with one funnel shift
    // instead of four bounds-checked window probes. Reads with more than
    // `MAX_SYMS` distinct bytes (wild-byte inputs; never rank data) keep
    // the scalar probe path.
    const MAX_SYMS: usize = 12;
    let eq_words = n / LANES + words + 2;
    let mut sym_of = [u8::MAX; 256];
    let mut n_syms = 0usize;
    let mut overflow = false;
    for &b in read {
        if sym_of[b as usize] == u8::MAX {
            if n_syms == MAX_SYMS {
                overflow = true;
                break;
            }
            sym_of[b as usize] = n_syms as u8;
            n_syms += 1;
        }
    }
    let mut eq_tables = vec![0u64; if overflow { 0 } else { n_syms * eq_words }];
    if !overflow {
        for (j0, &wb) in window.iter().enumerate() {
            let s = sym_of[wb as usize];
            if s != u8::MAX {
                let j = j0 + 1;
                eq_tables[s as usize * eq_words + j / LANES] |= LANE_MASK << (16 * (j % LANES));
            }
        }
    }

    for i in 1..=m {
        let lo_i = dp.lo(i);
        let live = dp.live(i);
        if live == 0 {
            // Uncovered row: every lane dead, and the matrices are
            // pre-zeroed — nothing to write.
            continue;
        }
        let drift = lo_i - dp.lo(i - 1); // 0 or 1 — lo is nondecreasing by ≤1
        let rb = read[i - 1];
        // The previous row is read immutably, the current row is written
        // in place (no scratch copy).
        let ([prev_m, prev_x, prev_y], [cur_m, cur_x, cur_y]) = dp.rows_mut(i);

        // Funnel-shift parameters for this row's eq-table extraction:
        // band column c maps to absolute column `lo_i + c`, so word `w`
        // starts at table word `k0 + w`, rotated down by `r_sh` bits. The
        // `(x << (63 − r_sh)) << 1` form is a shift-by-64 that stays
        // defined when `r_sh == 0`.
        let k0 = lo_i / LANES;
        let r_sh = (lo_i % LANES) * 16;
        // Row-scoped sub-slices with lengths LLVM can tie to the loop
        // bounds below, so the hot loop carries no bounds checks.
        let eq_row = if overflow {
            &[][..]
        } else {
            let s = sym_of[rb as usize] as usize * eq_words;
            &eq_tables[s + k0..s + k0 + words + 1]
        };
        let ramp_r = &ramp[..words];
        let rp_r = &ramp_prev[..words];

        // One fused pass per word: M and X from row i−1, then the Y chain
        // (ramped exclusive prefix max over A(c) = M(i, c) + go + ge) on
        // the just-computed M word, with a scalar carry between words.
        // Words are split into fully-live (`mask` folds to `!0`) and one
        // partial tail word; words past `live` stay at their pre-zeroed
        // dead state.
        let wfull = (live / LANES).min(words);
        let tail = live % LANES;
        let mut carry: u64 = 0; // biased max of B over all earlier lanes
        let mut do_word = |w: usize, mask: u64, carry: &mut u64| {
            // M: best of M/X/Y at (i−1, j−1), i.e. prev lane c + drift − 1.
            let (dm, dx, dy) = if drift == 0 {
                (read_shift_up(prev_m, w), read_shift_up(prev_x, w), read_shift_up(prev_y, w))
            } else {
                (prev_m[w + 1], prev_x[w + 1], prev_y[w + 1])
            };
            let best = max16(max16(dm, dx), dy);
            // Equality mask over the word's four window columns.
            let eqm = if overflow {
                let jbase = lo_i + w * LANES;
                let mut acc = 0u64;
                for l in 0..LANES {
                    let j = jbase + l;
                    if j >= 1 && j <= n && window[j - 1] == rb {
                        acc |= LANE_MASK << (16 * l);
                    }
                }
                acc
            } else {
                (eq_row[w] >> r_sh) | ((eq_row[w + 1] << (63 - r_sh)) << 1)
            };
            let pos = mis_p ^ ((mat_p ^ mis_p) & eqm);
            let neg = mis_n ^ ((mat_n ^ mis_n) & eqm);
            // M = best + (pos − neg); dead lanes stay dead. Bit 15 marks
            // each lane, neg is subtracted first so no lane ever borrows
            // (`(best | 0x8000) − neg ≥ 0x4100`), and `lm` — `0x7FFF` on
            // live in-row lanes of `best` — strips the marker and kills
            // dead and out-of-row lanes in one AND. On live lanes the
            // result `best − neg + pos ≤ 0x7F00` never disturbs the marker.
            let lb = best.wrapping_add(bcast(0x7F00)) & SIGN;
            let lm = (lb - (lb >> 15)) & mask;
            let word_m = ((best | SIGN) - neg).wrapping_add(pos) & lm;
            cur_m[1 + w] = word_m;
            // X: gap in reference — prev row, same j, i.e. lane c + drift.
            let (gm, gx) = if drift == 0 {
                (prev_m[w + 1], prev_x[w + 1])
            } else {
                (read_shift_down(prev_m, w), read_shift_down(prev_x, w))
            };
            cur_x[1 + w] = max16(subs(gm, open_n), subs(gx, ext_n)) & mask;
            // Y from the M word just produced: B(c) = M − (go+ge) + ramp
            // on live lanes, reusing `lm` (word_m's live mask — liveness
            // survives the subtraction by the envelope's one-step
            // headroom, and the `+ ramp ≤ 0x7F00` bound keeps bit 15 the
            // marker).
            let b = ((word_m | SIGN) - open_n).wrapping_add(ramp_r[w]) & lm;
            let x0 = (b << 16) | *carry;
            let x1 = max16(x0, x0 << 16);
            let p = max16(x1, x1 << 32);
            cur_y[1 + w] = subs(p, rp_r[w]) & mask;
            // The top lanes of `p` and `b` are plain scalars — a pair of
            // `u64::max`es replaces a lane max on the carried chain.
            *carry = (p >> 48).max(b >> 48);
        };
        for w in 0..wfull {
            do_word(w, !0, &mut carry);
        }
        if tail != 0 {
            do_word(wfull, (1u64 << (16 * tail)) - 1, &mut carry);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::reference::fit_align_ref;
    use super::*;

    fn lcg(state: &mut u64) -> u64 {
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        *state >> 33
    }

    fn rand_seq(state: &mut u64, len: usize) -> Vec<u8> {
        (0..len).map(|_| (lcg(state) % 4) as u8).collect()
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
            let fast = fit_align_swar(&read, &window, diag, sc);
            let slow = fit_align_ref(&read, &window, diag, sc);
            assert_eq!(fast, slow, "round {round} sc={sc:?} read={read:?} window={window:?}");
        }
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
    fn wide_band_saturated_lo_matches_reference() {
        // lo(i) saturates at 0 for the first rows: drift 0 then 1.
        let mut st = 7u64;
        let read = rand_seq(&mut st, 30);
        let window = rand_seq(&mut st, 35);
        let sc = Scoring { band: 20, ..Scoring::default() };
        assert_eq!(
            fit_align_swar(&read, &window, 0, &sc),
            fit_align_ref(&read, &window, 0, &sc)
        );
    }

    #[test]
    fn uncovered_band_is_none_in_both() {
        // diag offset pushes the band past the window end quickly.
        let read = vec![0u8; 20];
        let window = vec![1u8; 25];
        let sc = Scoring { band: 2, ..Scoring::default() };
        let fast = fit_align_swar(&read, &window, 24, &sc);
        let slow = fit_align_ref(&read, &window, 24, &sc);
        assert_eq!(fast, slow);
    }
}
