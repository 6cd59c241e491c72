//! The SSE2 sweep: eight 16-bit band lanes per `__m128i`.
//!
//! [`fit_align_sse2`] fills the `u16` rows of `sw::band` a row at a time
//! and hands them to its end-cell scan and traceback; within
//! [`super::in_envelope`] it therefore returns exactly what
//! `fit_align_ref` returns. SSE2 is part of the x86_64 baseline, so
//! [`super::fit_align`] takes this body on that target and nothing is
//! detected at run time.
//!
//! The band has constant width `2·band + 1`, and in band coordinates every
//! cell of row `i` depends only on row `i − 1` (for M and X), shifted by
//! the band drift `lo(i) − lo(i − 1) ∈ {0, 1}`, plus the in-row Y chain:
//!
//! - **Max.** Every live value lies in `[0x100, 0x7F00]` and a dead lane is
//!   `0`, so the signed `pmaxsw` is the lane max, and a dead lane loses
//!   every max against a live one.
//! - **Dead-preserving subtraction** of a gap penalty is the unsigned
//!   saturating `psubusw`: a dead lane stays `0`, and the envelope keeps a
//!   live lane live.
//! - **M** is `max(M, X, Y)` of the previous row, read one lane shifted by
//!   the band drift, plus the substitution delta picked by equality, masked
//!   to the lanes that are live and inside the row.
//! - **Equality.** One 16-bit copy of the window is compared (`pcmpeqw`)
//!   with the row's read byte, so any byte is a symbol.
//! - **Y.** `Y(c) = max(M(c−1) + go + ge, Y(c−1) + ge)` unrolls to a
//!   running max once the ramp `r_c = |ge|·c` is added:
//!   `Y(c) = max_{k<c} [M(k) + go + ge + r_k] − r_{c−1}`. The prefix max
//!   takes three log steps (lane shifts by 1, 2 and 4) inside a vector; the
//!   running max of earlier vectors is a broadcast carry, so the chain from
//!   one vector to the next is one max.
//! - **Row tail.** A row's vectors cover its live lanes rounded up to a
//!   multiple of four: a tail of one to four lanes is a half vector, read
//!   and written with 64-bit moves, so no access leaves the row.

use super::band::{BandDp, PAD};
use super::{Alignment, Scoring};
use std::arch::x86_64::*;

/// The SSE2 kernel. Callers must check [`super::in_envelope`] first;
/// within the envelope this returns exactly what `fit_align_ref` returns,
/// including tie-breaks.
pub fn fit_align_sse2(
    read: &[u8],
    window: &[u8],
    diag_offset: usize,
    sc: &Scoring,
) -> Option<Alignment> {
    let mut dp = BandDp::new(read.len(), window.len(), diag_offset, sc.band)?;
    // Lane j holds window column j (`window[j − 1]`). A row's vectors end
    // at most three lanes past its band, and the band ends by column n.
    // Column 0 and the lanes past the window feed only dead lanes (no M
    // predecessor, or outside the row), so their value is immaterial.
    let mut win = vec![0u16; window.len() + 4];
    for (lane, &b) in win[1..].iter_mut().zip(window) {
        *lane = u16::from(b);
    }
    // SAFETY: SSE2 is part of the x86_64 baseline, the only target this
    // module builds for; `sweep` checks every row's bounds itself.
    unsafe { sweep(&mut dp, read, &win, sc) };
    dp.traceback(read, window, sc)
}

/// The scoring as lane constants.
struct Deltas {
    /// `−(gap_open + gap_extend)`: opening a gap.
    open: __m128i,
    /// `−gap_extend`: extending one.
    ext: __m128i,
    mismatch: __m128i,
    /// `match − mismatch`, added where the bases are equal.
    gain: __m128i,
    /// `r_c = |ge|·c` on the lanes of the first vector.
    ramp0: __m128i,
    /// `8·|ge|`: the ramp's step from one vector to the next.
    ramp_step: __m128i,
}

/// One row's inputs: row `i − 1` of M, X and Y, row `i` of each, the
/// window lanes from the row's first column, the band drift and the read
/// byte splatted.
struct Row {
    prev: [*const u16; 3],
    cur: [*mut u16; 3],
    win: *const u16,
    drift: usize,
    base: __m128i,
}

/// Fill rows `1..=m` of `dp`, eight lanes at a time.
///
/// # Safety
///
/// The host must support SSE2, which every x86_64 host does.
#[target_feature(enable = "sse2")]
// SAFETY: its one caller, `fit_align_sse2`, builds only for x86_64, whose
// baseline includes SSE2.
unsafe fn sweep(dp: &mut BandDp, read: &[u8], win: &[u16], sc: &Scoring) {
    let ext = _mm_set1_epi16(-sc.gap_extend as i16);
    let d = Deltas {
        open: _mm_set1_epi16(-(sc.gap_open + sc.gap_extend) as i16),
        ext,
        mismatch: _mm_set1_epi16(sc.mismatch as i16),
        gain: _mm_set1_epi16((sc.match_score - sc.mismatch) as i16),
        ramp0: _mm_mullo_epi16(_mm_setr_epi16(0, 1, 2, 3, 4, 5, 6, 7), ext),
        ramp_step: _mm_slli_epi16::<3>(ext),
    };
    let lanes = dp.lanes();
    for i in 1..=read.len() {
        let lo_i = dp.lo(i);
        let live = dp.live(i);
        if live == 0 {
            // Uncovered row: every lane dead, and the matrices are
            // pre-zeroed — nothing to write.
            continue;
        }
        // The vectors cover band lanes `0..covered`: inside the row's data
        // lanes, and inside `win` from the row's first column. A vector at
        // band lane `c` reads row i − 1 from lane `c + drift − 1 ≥ −1` to
        // `c + drift + 8 ≤ covered + 1`, inside the row's pads.
        let covered = live.next_multiple_of(PAD);
        assert!(covered <= lanes && lo_i + covered <= win.len());
        let drift = lo_i - dp.lo(i - 1);
        let (prev, cur) = dp.rows_mut(i);
        let row = Row {
            prev: prev.map(<[u16]>::as_ptr),
            cur: cur.map(<[u16]>::as_mut_ptr),
            win: win[lo_i..].as_ptr(),
            drift,
            base: _mm_set1_epi16(i16::from(read[i - 1])),
        };
        let mut carry = _mm_setzero_si128();
        let mut ramp = d.ramp0;
        let all = _mm_set1_epi16(-1);
        for at in (0..live - live % 8).step_by(8) {
            // SAFETY: `at + 8 ≤ live ≤ covered`, checked above.
            carry = unsafe { step::<false>(&row, &d, at, all, ramp, carry) };
            ramp = _mm_add_epi16(ramp, d.ramp_step);
        }
        let tail = live % 8;
        if tail != 0 {
            let at = live - tail;
            let mask = _mm_cmpgt_epi16(
                _mm_set1_epi16(tail as i16),
                _mm_setr_epi16(0, 1, 2, 3, 4, 5, 6, 7),
            );
            if tail <= 4 {
                // SAFETY: `at + 4 = covered`, checked above.
                unsafe { step::<true>(&row, &d, at, mask, ramp, carry) };
            } else {
                // SAFETY: `at + 8 = covered`, checked above.
                unsafe { step::<false>(&row, &d, at, mask, ramp, carry) };
            }
        }
    }
}

/// Eight lanes from `p` (four, zero-extended, when `HALF`).
///
/// # Safety
///
/// The lanes read must be in bounds.
#[inline(always)]
// SAFETY: every caller is `step`, whose pointers `sweep` bounds per row.
unsafe fn load<const HALF: bool>(p: *const u16) -> __m128i {
    if HALF {
        // SAFETY: the caller's four lanes; `movq` needs no alignment.
        unsafe { _mm_loadl_epi64(p.cast()) }
    } else {
        // SAFETY: the caller's eight lanes; `movdqu` needs no alignment.
        unsafe { _mm_loadu_si128(p.cast()) }
    }
}

/// Store eight lanes of `v` at `p` (the low four when `HALF`).
///
/// # Safety
///
/// The lanes written must be in bounds.
#[inline(always)]
// SAFETY: every caller is `step`, whose pointers `sweep` bounds per row.
unsafe fn store<const HALF: bool>(p: *mut u16, v: __m128i) {
    if HALF {
        // SAFETY: the caller's four lanes; `movq` needs no alignment.
        unsafe { _mm_storel_epi64(p.cast(), v) }
    } else {
        // SAFETY: the caller's eight lanes; `movdqu` needs no alignment.
        unsafe { _mm_storeu_si128(p.cast(), v) }
    }
}

/// Band lanes `at..at + 8` (`at..at + 4` when `HALF`) of one row, lanes
/// outside `mask` written dead; returns the Y carry for the next vector:
/// the ramped running max of M over every lane so far, splatted.
///
/// # Safety
///
/// Band lanes `at..at + 8` (`+ 4` when `HALF`) must lie inside the row's
/// lanes `0..covered`, as `sweep` checks them.
#[inline(always)]
// SAFETY: every caller is `sweep`, which checks each row's bounds first.
unsafe fn step<const HALF: bool>(
    row: &Row,
    d: &Deltas,
    at: usize,
    mask: __m128i,
    ramp: __m128i,
    carry: __m128i,
) -> __m128i {
    // Band lane `at` sits at lane `PAD + at` of its row, behind the leading
    // pad. M's source in row i − 1 is one lane before the drift-shifted
    // lane, X's the drift-shifted lane itself.
    let lane = PAD + at;
    let (src_m, src_x) = (lane + row.drift - 1, lane + row.drift);
    let [pm, px, py] = row.prev;
    let [cm, cx, cy] = row.cur;
    // SAFETY: `sweep` checked that row i − 1's lanes `src_m..src_x + 8`
    // lie inside the row, pads included, and `win`'s lanes `at..at + 8`
    // inside the window copy.
    let (diag_m, diag_x, diag_y, up_m, up_x, bases) = unsafe {
        (
            load::<HALF>(pm.add(src_m)),
            load::<HALF>(px.add(src_m)),
            load::<HALF>(py.add(src_m)),
            load::<HALF>(pm.add(src_x)),
            load::<HALF>(px.add(src_x)),
            load::<HALF>(row.win.add(at)),
        )
    };
    let best = _mm_max_epi16(_mm_max_epi16(diag_m, diag_x), diag_y);
    let live = _mm_and_si128(_mm_cmpgt_epi16(best, _mm_setzero_si128()), mask);
    let eq = _mm_cmpeq_epi16(bases, row.base);
    let sub = _mm_add_epi16(d.mismatch, _mm_and_si128(eq, d.gain));
    let m = _mm_and_si128(_mm_add_epi16(best, sub), live);
    let x = _mm_max_epi16(_mm_subs_epu16(up_m, d.open), _mm_subs_epu16(up_x, d.ext));
    // Y(c) = max over k < c of B(k) = M(k) − open + r_k, less r_{c−1}.
    let b = _mm_and_si128(_mm_add_epi16(_mm_sub_epi16(m, d.open), ramp), live);
    let mut incl = _mm_max_epi16(b, _mm_slli_si128::<2>(b));
    incl = _mm_max_epi16(incl, _mm_slli_si128::<4>(incl));
    incl = _mm_max_epi16(incl, _mm_slli_si128::<8>(incl));
    let excl = _mm_max_epi16(_mm_slli_si128::<2>(incl), carry);
    let y = _mm_subs_epu16(excl, _mm_subs_epu16(ramp, d.ext));
    // SAFETY: row i's lanes `lane..lane + 8` are its band lanes
    // `at..at + 8`, which `sweep` checked lie inside the row.
    unsafe {
        store::<HALF>(cm.add(lane), m);
        store::<HALF>(cx.add(lane), _mm_and_si128(x, mask));
        store::<HALF>(cy.add(lane), _mm_and_si128(y, mask));
    }
    let top = _mm_shufflehi_epi16::<0xFF>(incl);
    _mm_max_epi16(carry, _mm_unpackhi_epi64(top, top))
}
