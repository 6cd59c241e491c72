//! The scalar pair-HMM, kept verbatim as the executable oracle.
//!
//! This is `gpf_caller::pairhmm::log10_likelihood` as it stood while the
//! library shipped it beside `PairHmmBatch`: one (read, haplotype) pair per
//! call, six freshly allocated DP rows, the emission and the row maximum
//! recomputed per cell. It lives under `tests/` only, so the library
//! carries one pair-HMM and `pairhmm_differential.rs` pins that one to
//! this, `to_bits`-equal; the library's `pairhmm::sweep_battery` unit
//! tests include this file by path to pin each column sweep by name. It
//! takes the library's `HmmParams` and the
//! library's quality table, so the two sides cannot drift apart on a
//! transition or an error probability.

// Verbatim is the point: the oracle keeps the seed's loop and comparison
// forms rather than clippy's.
#![allow(clippy::needless_range_loop, clippy::manual_range_contains)]

use gpf_caller::pairhmm::HmmParams;
use gpf_formats::quality::char_to_error_prob;

/// log10 P(read | haplotype).
///
/// `read`/`qual` must have equal lengths; `haplotype` is raw ACGT bytes.
pub fn log10_likelihood(read: &[u8], qual: &[u8], haplotype: &[u8], params: &HmmParams) -> f64 {
    assert_eq!(read.len(), qual.len());
    let m = read.len();
    let n = haplotype.len();
    if m == 0 || n == 0 {
        return f64::NEG_INFINITY;
    }
    let go = params.gap_open;
    let ge = params.gap_extend;
    let t_mm = 1.0 - 2.0 * go; // match -> match
    let t_gm = 1.0 - ge; // gap -> match

    // DP rows over haplotype positions 0..=n for states M, X (ins in read),
    // Y (del from read / gap in read... conventions: X consumes read only,
    // Y consumes haplotype only).
    let width = n + 1;
    let mut m_prev = vec![0.0f64; width];
    let mut x_prev = vec![0.0f64; width];
    let mut y_prev = vec![0.0f64; width];
    let mut m_cur = vec![0.0f64; width];
    let mut x_cur = vec![0.0f64; width];
    let mut y_cur = vec![0.0f64; width];

    // Free start anywhere on the haplotype: probability mass 1/n enters at
    // each haplotype offset through the Y state of row 0.
    let start = 1.0 / n as f64;
    for j in 0..=n {
        y_prev[j] = start;
    }

    let mut log_scale = 0.0f64;
    for i in 1..=m {
        m_cur[0] = 0.0;
        x_cur[0] = 0.0;
        y_cur[0] = 0.0;
        let e = char_to_error_prob(qual[i - 1]);
        for j in 1..=n {
            let emit = if read[i - 1] == haplotype[j - 1] && read[i - 1] != b'N' {
                1.0 - e
            } else {
                e / 3.0
            };
            m_cur[j] = emit
                * (t_mm * m_prev[j - 1] + t_gm * (x_prev[j - 1] + y_prev[j - 1]));
            // X: read insertion (consume read base, stay on haplotype col).
            x_cur[j] = m_prev[j] * go + x_prev[j] * ge;
            // Y: haplotype deletion (consume haplotype base, same read row).
            y_cur[j] = m_cur[j - 1] * go + y_cur[j - 1] * ge;
        }
        // Scale the row to avoid underflow on long reads.
        let row_max = m_cur
            .iter()
            .chain(x_cur.iter())
            .chain(y_cur.iter())
            .fold(0.0f64, |a, &b| a.max(b));
        if row_max > 0.0 && (row_max < 1e-280 || row_max > 1e280) {
            let inv = 1.0 / row_max;
            for v in m_cur.iter_mut().chain(x_cur.iter_mut()).chain(y_cur.iter_mut()) {
                *v *= inv;
            }
            log_scale += row_max.log10();
        }
        std::mem::swap(&mut m_prev, &mut m_cur);
        std::mem::swap(&mut x_prev, &mut x_cur);
        std::mem::swap(&mut y_prev, &mut y_cur);
    }

    // Free end: sum the final read row over all haplotype positions.
    let total: f64 = (0..=n).map(|j| m_prev[j] + x_prev[j]).sum();
    if total <= 0.0 {
        f64::NEG_INFINITY
    } else {
        total.log10() + log_scale
    }
}
