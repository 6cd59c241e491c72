//! The scalar kernel: the out-of-envelope path and the tests' reference.
//!
//! [`fit_align_ref`] is the cell-at-a-time banded affine DP the workspace
//! shipped with before the lane-parallel sweep. It stays in the library
//! because it runs: [`super::fit_align`] takes it for every scoring or
//! input shape outside the sweep's 16-bit envelope, and for every input on
//! targets other than x86_64, where it is the only implementation. That
//! also makes it the reference — the public contract is exactly this
//! function's behavior on every input, and the differential proptests pin
//! the sweep to it (identical score, CIGAR, `window_start` and edit
//! distance). It keeps its own traceback, over its own backtrack codes, so
//! the oracle shares no code with the body it checks.

use super::{Alignment, Scoring, NEG, S_M, S_X, S_Y};
use gpf_formats::cigar::{Cigar, CigarOp};

/// Align `read` (0..=3 ranks) against `window` (0..=3 ranks) with free
/// reference end gaps, banded around the diagonal `j ≈ i + diag_offset`.
///
/// Returns `None` when the band never covers a full-read path.
pub fn fit_align_ref(
    read: &[u8],
    window: &[u8],
    diag_offset: usize,
    sc: &Scoring,
) -> Option<Alignment> {
    let m = read.len();
    let n = window.len();
    if m == 0 || n == 0 || n + sc.band < m {
        return None;
    }
    let band = sc.band;
    // j counts consumed window characters: 0..=n.
    let lo = |i: usize| (i + diag_offset).saturating_sub(band);
    let hi = |i: usize| (i + diag_offset + band + 1).min(n + 1);
    let width = 2 * band + 1;
    let cells = (m + 1) * width;
    // dp[state][cell], bt[state][cell] = predecessor state + op marker.
    let mut dp = [vec![NEG; cells], vec![NEG; cells], vec![NEG; cells]];
    // bt codes: 0 = invalid/start, 1..=3 = came from state (code-1).
    let mut bt = [vec![0u8; cells], vec![0u8; cells], vec![0u8; cells]];
    let at = |i: usize, j: usize| i * width + (j - lo(i));

    // Row 0: free leading reference gap — start in M with score 0 anywhere.
    for j in lo(0)..hi(0) {
        dp[S_M][at(0, j)] = 0;
    }
    for i in 1..=m {
        for j in lo(i)..hi(i) {
            let cell = at(i, j);
            // M: consume read[i-1] and window[j-1].
            if j >= 1 && j > lo(i - 1) && j - 1 < hi(i - 1) {
                let prev = at(i - 1, j - 1);
                let sub = if read[i - 1] == window[j - 1] { sc.match_score } else { sc.mismatch };
                let (mut best, mut from) = (NEG, 0u8);
                for s in [S_M, S_X, S_Y] {
                    if dp[s][prev] > best {
                        best = dp[s][prev];
                        from = s as u8 + 1;
                    }
                }
                if best > NEG {
                    dp[S_M][cell] = best + sub;
                    bt[S_M][cell] = from;
                }
            }
            // X: consume read[i-1] only (insertion to reference).
            if j >= lo(i - 1) && j < hi(i - 1) {
                let prev = at(i - 1, j);
                let open = dp[S_M][prev].saturating_add(sc.gap_open + sc.gap_extend);
                let extend = dp[S_X][prev].saturating_add(sc.gap_extend);
                if open >= extend && open > NEG {
                    dp[S_X][cell] = open;
                    bt[S_X][cell] = S_M as u8 + 1;
                } else if extend > NEG {
                    dp[S_X][cell] = extend;
                    bt[S_X][cell] = S_X as u8 + 1;
                }
            }
            // Y: consume window[j-1] only (deletion from reference).
            if j >= 1 && j > lo(i) {
                let prev = at(i, j - 1);
                let open = dp[S_M][prev].saturating_add(sc.gap_open + sc.gap_extend);
                let extend = dp[S_Y][prev].saturating_add(sc.gap_extend);
                if open >= extend && open > NEG {
                    dp[S_Y][cell] = open;
                    bt[S_Y][cell] = S_M as u8 + 1;
                } else if extend > NEG {
                    dp[S_Y][cell] = extend;
                    bt[S_Y][cell] = S_Y as u8 + 1;
                }
            }
        }
    }

    // Best end cell on the last row: M or X states (ending in Y would mean a
    // trailing reference deletion, which the free end gap makes pointless).
    let (mut best, mut j_end, mut s_end) = (NEG, 0usize, S_M);
    for j in lo(m)..hi(m) {
        for s in [S_M, S_X] {
            if dp[s][at(m, j)] > best {
                best = dp[s][at(m, j)];
                j_end = j;
                s_end = s;
            }
        }
    }
    if best <= NEG {
        return None;
    }

    // Traceback.
    let mut ops_rev: Vec<CigarOp> = Vec::with_capacity(m + 8);
    let mut edit = 0u32;
    let (mut i, mut j, mut s) = (m, j_end, s_end);
    while i > 0 {
        let from = bt[s][at(i, j)];
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

    // Run-length encode.
    let mut runs: Vec<(u32, CigarOp)> = Vec::new();
    for op in ops_rev.into_iter().rev() {
        match runs.last_mut() {
            Some((count, last)) if *last == op => *count += 1,
            _ => runs.push((1, op)),
        }
    }
    Some(Alignment { score: best, window_start, cigar: Cigar::from_ops(runs), edit_distance: edit })
}
