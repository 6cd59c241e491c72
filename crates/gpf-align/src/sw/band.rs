//! The DP layout the SSE2 sweep writes, and the one end-cell scan and
//! traceback that read it.
//!
//! Row `i` of each of the M, X and Y matrices holds band lane `c` (window
//! column `j = lo(i) + c`) as a *biased* `u16`, `value + 0x4000`, with `0`
//! reserved as the dead-lane sentinel (the reference's `NEG`). A row is
//! `lanes = 2·band + 1` rounded up to a multiple of [`PAD`], between `PAD`
//! zero lanes on each side, so the sweep reads a row shifted by one lane
//! either way, and writes a half vector at its tail, without a bounds
//! test; lanes past a row's live width stay zero. The three matrices share
//! one zeroed allocation, and [`BandDp::new`] sets row 0.
//!
//! The matrices are kept for every row and no backtrack codes are stored:
//! [`BandDp::traceback`] re-derives the reference kernel's decision at each
//! cell from the stored values using the *same* comparison order and
//! band-range conditions, so tie-breaks — and therefore the CIGAR — are
//! `fit_align_ref`'s, not merely score-equivalent.

use super::{Alignment, Scoring, NEG, S_M, S_X, S_Y};
use gpf_formats::cigar::{Cigar, CigarOp};

/// Zero lanes on each side of a row, and the multiple a row's lanes round
/// up to: the SSE2 sweep's half vector.
pub(crate) const PAD: usize = 4;
/// Bias added to every live value; `0` is the dead-lane sentinel.
const BIAS: u16 = 0x4000;

/// The M, X and Y matrices of one banded fitting alignment.
pub(crate) struct BandDp {
    m: usize,
    n: usize,
    diag_offset: usize,
    band: usize,
    lanes: usize,
    stride: usize,
    /// M rows, then X rows, then Y rows, `stride` lanes each.
    buf: Vec<u16>,
}

impl BandDp {
    /// Zeroed matrices for an `m`-base read against an `n`-base window,
    /// with row 0's free leading reference gap (M = 0 on every band lane)
    /// set. `None` where `fit_align_ref` returns `None` before its DP.
    pub(crate) fn new(m: usize, n: usize, diag_offset: usize, band: usize) -> Option<Self> {
        if m == 0 || n == 0 || n + band < m {
            return None;
        }
        let lanes = (2 * band + 1).next_multiple_of(PAD);
        let stride = lanes + 2 * PAD;
        let mut dp = BandDp {
            m,
            n,
            diag_offset,
            band,
            lanes,
            stride,
            buf: vec![0; 3 * (m + 1) * stride],
        };
        let live = dp.live(0);
        dp.buf[PAD..PAD + live].fill(BIAS);
        Some(dp)
    }

    /// Data lanes per row, pads excluded.
    pub(crate) fn lanes(&self) -> usize {
        self.lanes
    }

    /// First window column of row `i`'s band.
    pub(crate) fn lo(&self, i: usize) -> usize {
        (i + self.diag_offset).saturating_sub(self.band)
    }

    /// One past the last window column of row `i`'s band.
    fn hi(&self, i: usize) -> usize {
        (i + self.diag_offset + self.band + 1).min(self.n + 1)
    }

    /// Band lanes of row `i` inside the window: lanes `0..live(i)`.
    pub(crate) fn live(&self, i: usize) -> usize {
        self.hi(i).saturating_sub(self.lo(i))
    }

    /// Row `i − 1` of M, X and Y to read, and row `i` of each to write;
    /// every row is `lanes() + 2·PAD` lanes, pads included.
    pub(crate) fn rows_mut(&mut self, i: usize) -> ([&[u16]; 3], [&mut [u16]; 3]) {
        fn split(mat: &mut [u16], i: usize, stride: usize) -> (&[u16], &mut [u16]) {
            let (done, rest) = mat.split_at_mut(i * stride);
            (&done[(i - 1) * stride..], &mut rest[..stride])
        }
        let stride = self.stride;
        let (m, rest) = self.buf.split_at_mut((self.m + 1) * stride);
        let (x, y) = rest.split_at_mut((self.m + 1) * stride);
        let ((pm, cm), (px, cx), (py, cy)) =
            (split(m, i, stride), split(x, i, stride), split(y, i, stride));
        ([pm, px, py], [cm, cx, cy])
    }

    /// Unbiased value of state `s` at row `i`, band lane `c`; `NEG` for a
    /// dead lane.
    fn get(&self, s: usize, i: usize, c: usize) -> i64 {
        match self.buf[(s * (self.m + 1) + i) * self.stride + PAD + c] {
            0 => NEG as i64,
            lane => i64::from(lane) - i64::from(BIAS),
        }
    }

    /// The best end cell on the last row and the path back from it: what
    /// `fit_align_ref` returns for the same input, once a sweep has filled
    /// rows `1..=m`.
    pub(crate) fn traceback(&self, read: &[u8], window: &[u8], sc: &Scoring) -> Option<Alignment> {
        let m = self.m;
        let (lo, hi) = (|i| self.lo(i), |i| self.hi(i));
        let ge = sc.gap_extend as i64;
        let go_ge = sc.gap_open as i64 + ge;

        // Best end cell on the last row — same scan order as the reference.
        let neg = NEG as i64;
        let (mut best, mut j_end, mut s_end) = (neg, 0usize, S_M);
        for j in lo(m)..hi(m) {
            for s in [S_M, S_X] {
                let v = self.get(s, m, j - lo(m));
                if v > best {
                    best = v;
                    j_end = j;
                    s_end = s;
                }
            }
        }
        if best <= neg {
            return None;
        }

        // Traceback: re-derive the reference's backtrack decision at each
        // cell from the stored values, with identical comparison order.
        let mut ops_rev: Vec<CigarOp> = Vec::with_capacity(m + 8);
        let mut edit = 0u32;
        let (mut i, mut j, mut s) = (m, j_end, s_end);
        while i > 0 {
            let from: u8 = match s {
                S_M => {
                    if j >= 1 && j > lo(i - 1) && j - 1 < hi(i - 1) {
                        let cp = j - 1 - lo(i - 1);
                        let (mut b, mut f) = (neg, 0u8);
                        for ps in [S_M, S_X, S_Y] {
                            let v = self.get(ps, i - 1, cp);
                            if v > b {
                                b = v;
                                f = ps as u8 + 1;
                            }
                        }
                        f
                    } else {
                        0
                    }
                }
                S_X => {
                    if j >= lo(i - 1) && j < hi(i - 1) {
                        let cp = j - lo(i - 1);
                        let open = self.get(S_M, i - 1, cp) + go_ge;
                        let extend = self.get(S_X, i - 1, cp) + ge;
                        if open >= extend && open > neg {
                            S_M as u8 + 1
                        } else if extend > neg {
                            S_X as u8 + 1
                        } else {
                            0
                        }
                    } else {
                        0
                    }
                }
                _ => {
                    if j >= 1 && j > lo(i) {
                        let cp = j - 1 - lo(i);
                        let open = self.get(S_M, i, cp) + go_ge;
                        let extend = self.get(S_Y, i, cp) + ge;
                        if open >= extend && open > neg {
                            S_M as u8 + 1
                        } else if extend > neg {
                            S_Y as u8 + 1
                        } else {
                            0
                        }
                    } else {
                        0
                    }
                }
            };
            if from == 0 {
                return None; // band broke the path
            }
            let prev_state = (from - 1) as usize;
            match s {
                S_M => {
                    if read[i - 1] != window[j - 1] {
                        edit += 1;
                    }
                    ops_rev.push(CigarOp::Match);
                    i -= 1;
                    j -= 1;
                }
                S_X => {
                    ops_rev.push(CigarOp::Ins);
                    edit += 1;
                    i -= 1;
                }
                _ => {
                    ops_rev.push(CigarOp::Del);
                    edit += 1;
                    j -= 1;
                }
            }
            s = prev_state;
        }
        let window_start = j;

        let mut runs: Vec<(u32, CigarOp)> = Vec::new();
        for op in ops_rev.into_iter().rev() {
            match runs.last_mut() {
                Some((count, last)) if *last == op => *count += 1,
                _ => runs.push((1, op)),
            }
        }
        Some(Alignment {
            score: best as i32,
            window_start,
            cigar: Cigar::from_ops(runs),
            edit_distance: edit,
        })
    }
}
