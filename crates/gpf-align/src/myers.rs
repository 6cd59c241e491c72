//! Myers bit-parallel edit distance — the wide-window prefilter of mate
//! rescue and indel realignment (seed candidates are verified without it:
//! [`crate::verify`]).
//!
//! [`fitting_distance`] computes the *fitting* (semi-global) unit-cost edit
//! distance of a read against a reference window — the read is consumed in
//! full, the window start and end are free — processing 64 read positions
//! per u64 word (Myers 1999, in Hyyrö's block formulation). One column of
//! the bit-parallel recurrence replaces 64 cells of the classic DP.
//!
//! Its job here is not alignment but *pruning*: [`prefilter_allows`] turns
//! the measured distance into a sound upper bound on the score any affine
//! banded alignment ([`crate::sw::fit_align`]) could reach, so window
//! loops can skip the expensive DP outright when even the bound falls below
//! their acceptance threshold. Soundness argument (DESIGN.md §15): the
//! fitting unit-cost distance `d` is a lower bound on the number of edits
//! (substitutions + inserted read bases + deleted window bases) of *every*
//! read-consuming path, banded or not; each edit costs at least
//! [`min_edit_cost`] score relative to a perfect column, so no path scores
//! above `m·match − d·min_edit_cost`.

/// Edit-distance state for one read/window pair, reusable across windows
/// and, through [`MyersPattern::rebuild`], across reads.
///
/// Holds the per-symbol pattern masks (`peq`) and the per-block vertical
/// delta vectors. Scanning a window is allocation-free, and so is
/// re-indexing for a read no longer than one seen before.
pub struct MyersPattern {
    /// Read length.
    m: usize,
    /// Number of 64-bit blocks covering the read.
    blocks: usize,
    /// Dense symbol remap: byte -> index into `peq`, 255 = unseen.
    sym_index: [u8; 256],
    /// Per-symbol match masks over read positions, `blocks` words each,
    /// laid out symbol-major.
    peq: Vec<u64>,
    /// Number of distinct read symbols indexed in `peq`.
    nsyms: usize,
    /// Scratch: vertical positive deltas per block.
    pv: Vec<u64>,
    /// Scratch: vertical negative deltas per block.
    mv: Vec<u64>,
}

impl Default for MyersPattern {
    /// The pattern of the empty read.
    fn default() -> Self {
        Self {
            m: 0,
            blocks: 1,
            sym_index: [255u8; 256],
            peq: Vec::new(),
            nsyms: 0,
            pv: vec![0],
            mv: vec![0],
        }
    }
}

impl MyersPattern {
    /// Index the read's symbols into bit masks. Any byte values are
    /// accepted — equality is plain byte equality, exactly as
    /// [`crate::sw::fit_align`] compares rank arrays.
    pub fn build(read: &[u8]) -> Self {
        let mut pattern = Self::default();
        pattern.rebuild(read);
        pattern
    }

    /// Re-index for another read, keeping the buffers.
    pub fn rebuild(&mut self, read: &[u8]) {
        let blocks = read.len().div_ceil(64).max(1);
        self.m = read.len();
        self.blocks = blocks;
        self.sym_index.fill(255);
        self.peq.clear();
        self.nsyms = 0;
        for (i, &b) in read.iter().enumerate() {
            if self.sym_index[b as usize] == 255 {
                self.sym_index[b as usize] = self.nsyms as u8;
                self.peq.extend(std::iter::repeat_n(0u64, blocks));
                self.nsyms += 1;
            }
            let s = self.sym_index[b as usize] as usize;
            self.peq[s * blocks + (i / 64)] |= 1u64 << (i % 64);
        }
        self.pv.resize(blocks, 0);
        self.mv.resize(blocks, 0);
    }

    /// Fitting edit distance of the read against `window`, abandoning early
    /// with `None` once the distance provably exceeds `k`.
    ///
    /// `None` is also returned for an empty read (no meaningful distance).
    /// An empty window costs `m` (the whole read inserted).
    pub fn distance_within(&mut self, window: &[u8], k: u32) -> Option<u32> {
        if self.m == 0 {
            return None;
        }
        let blocks = self.blocks;
        let last_bit = 1u64 << ((self.m - 1) % 64);
        // Column 0: D[i][0] = i (leading window gap is not free — the read
        // must consume window characters or pay insertions).
        for b in 0..blocks {
            self.pv[b] = !0u64;
            self.mv[b] = 0;
        }
        // Score at the bottom row of the last block.
        let mut score = self.m as u32;
        let mut best = score;
        for (col, &c) in window.iter().enumerate() {
            let si = self.sym_index[c as usize];
            let zero_eq = si == 255 || si as usize >= self.nsyms;
            let base = if zero_eq { 0 } else { si as usize * blocks };
            // hin: horizontal delta entering block 0's top row. The fitting
            // DP's top row is all zeros (free window start), so it is 0.
            let mut hin: i32 = 0;
            for b in 0..blocks {
                let eq0 = if zero_eq { 0 } else { self.peq[base + b] };
                let pv = self.pv[b];
                let mv = self.mv[b];
                // Hyyrö's block step with carry-in `hin`.
                let mut eq = eq0;
                if hin < 0 {
                    eq |= 1;
                }
                let xv = eq | mv;
                let xh = (((eq & pv).wrapping_add(pv)) ^ pv) | eq;
                let mut ph = mv | !(xh | pv);
                let mut mh = pv & xh;
                let top = if b == blocks - 1 { last_bit } else { 1u64 << 63 };
                let mut hout: i32 = 0;
                if ph & top != 0 {
                    hout = 1;
                } else if mh & top != 0 {
                    hout = -1;
                }
                ph <<= 1;
                mh <<= 1;
                if hin > 0 {
                    ph |= 1;
                } else if hin < 0 {
                    mh |= 1;
                }
                self.pv[b] = mh | !(xv | ph);
                self.mv[b] = ph & xv;
                hin = hout;
            }
            score = score.wrapping_add_signed(hin);
            best = best.min(score);
            // Early abandon: the bottom-row score drops by at most 1 per
            // column, so the best any remaining column can reach is
            // `score - remaining` — once that still exceeds `k` (and no
            // earlier column got there) the window is proven out of budget.
            let remaining = (window.len() - col - 1) as u32;
            if best > k && score > k.saturating_add(remaining) {
                return None;
            }
        }
        if best <= k { Some(best) } else { None }
    }

    /// Sound DP-skip test for score-thresholded candidate loops: `true` when
    /// an alignment of the read against `window` might still reach
    /// `min_score` under `sc` (run the DP), `false` when no path possibly
    /// can (skip it).
    ///
    /// Skipping is *output-preserving*: every skipped window is one the
    /// caller would have rejected after running [`crate::sw::fit_align`],
    /// because the best achievable score `m·match − d·min_edit_cost` already
    /// falls short of `min_score`. Callers that accept on
    /// `score >= threshold` must pass `threshold.ceil()` when the threshold
    /// is fractional.
    ///
    /// Counts each decision on the `align.prefilter.{hit,skip}` counter pair
    /// when tracing is enabled.
    pub fn allows(&mut self, window: &[u8], min_score: i64, sc: &crate::sw::Scoring) -> bool {
        let pass = match max_edits_for_score(self.m, min_score, sc) {
            // Degenerate scoring: edits can be free, no finite cutoff — the
            // DP must decide.
            None => true,
            // Empty read: fitting distance is undefined; let the DP return
            // its own None.
            Some(_) if self.m == 0 => true,
            Some(k) => self.distance_within(window, k).is_some(),
        };
        if gpf_trace::enabled() {
            let name = if pass {
                gpf_trace::names::ALIGN_PREFILTER_HIT
            } else {
                gpf_trace::names::ALIGN_PREFILTER_SKIP
            };
            gpf_trace::counter(name).add(1);
        }
        pass
    }
}

/// One-shot fitting distance with a cutoff; see
/// [`MyersPattern::distance_within`].
pub fn fitting_distance(read: &[u8], window: &[u8], k: u32) -> Option<u32> {
    MyersPattern::build(read).distance_within(window, k)
}

/// Minimum score cost of one unit edit under `sc`, relative to a perfectly
/// matching column: a substitution forgoes a match and takes the mismatch,
/// an inserted read base forgoes a match and pays a gap base, a deleted
/// window base pays a gap base. Gap-open costs only add to these, so the
/// minimum over the three is a sound per-edit floor. Returns `None` when
/// the scoring makes edits free (or profitable) — no pruning is possible.
pub fn min_edit_cost(sc: &crate::sw::Scoring) -> Option<i64> {
    let sub = sc.match_score as i64 - sc.mismatch as i64;
    let ins = sc.match_score as i64 - sc.gap_extend as i64;
    let del = -(sc.gap_extend as i64);
    let c = sub.min(ins).min(del);
    (c > 0).then_some(c)
}

/// Largest fitting distance that could still reach `min_score` under `sc`
/// for a read of length `m`: any path with `d` edits scores at most
/// `m·match − d·min_edit_cost`. Returns `None` when no finite cutoff
/// exists (degenerate scoring) — callers must then run the DP unfiltered.
pub fn max_edits_for_score(m: usize, min_score: i64, sc: &crate::sw::Scoring) -> Option<u32> {
    let cost = min_edit_cost(sc)?;
    let perfect = m as i64 * sc.match_score as i64;
    if perfect < min_score {
        // Even the perfect alignment misses the threshold; 0 keeps the
        // filter sound (distance 0 still "passes" and the DP decides).
        return Some(0);
    }
    Some(((perfect - min_score) / cost).min(u32::MAX as i64) as u32)
}

/// One-shot [`MyersPattern::allows`].
pub fn prefilter_allows(
    read: &[u8],
    window: &[u8],
    min_score: i64,
    sc: &crate::sw::Scoring,
) -> bool {
    MyersPattern::build(read).allows(window, min_score, sc)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Classic O(mn) fitting edit distance: read global, window local.
    fn dp_fitting(read: &[u8], window: &[u8]) -> u32 {
        let m = read.len();
        let n = window.len();
        let mut prev: Vec<u32> = (0..=m as u32).collect();
        let mut cur = vec![0u32; m + 1];
        let mut best = prev[m];
        for j in 1..=n {
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

    #[test]
    fn exact_match_is_zero() {
        assert_eq!(fitting_distance(b"ACGT", b"TTACGTTT", 10), Some(0));
    }

    #[test]
    fn substitution_counts_one() {
        assert_eq!(fitting_distance(b"ACGT", b"TTACCTTT", 10), Some(1));
    }

    #[test]
    fn empty_window_costs_read_length() {
        assert_eq!(fitting_distance(b"ACGT", b"", 10), Some(4));
        assert_eq!(fitting_distance(b"ACGT", b"", 3), None);
    }

    #[test]
    fn empty_read_is_none() {
        assert_eq!(fitting_distance(b"", b"ACGT", 10), None);
    }

    #[test]
    fn cutoff_rejects() {
        assert_eq!(fitting_distance(b"AAAA", b"TTTT", 3), None);
        assert_eq!(fitting_distance(b"AAAA", b"TTTT", 4), Some(4));
    }

    #[test]
    fn matches_dp_across_word_boundary() {
        // Reads of 63/64/65/130 bases exercise the block carry logic.
        let mut state = 0x2390u64;
        let mut gen = |n: usize| -> Vec<u8> {
            (0..n)
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(11);
                    (state >> 33) as u8 % 4
                })
                .collect()
        };
        for m in [1usize, 7, 63, 64, 65, 100, 128, 130] {
            let read = gen(m);
            let window = gen(m + 40);
            let expect = dp_fitting(&read, &window);
            assert_eq!(
                fitting_distance(&read, &window, u32::MAX),
                Some(expect),
                "m={m}"
            );
        }
    }

    #[test]
    fn min_edit_cost_default_scoring() {
        let sc = crate::sw::Scoring::default();
        // sub: 2-(-3)=5, ins: 2-(-2)=4, del: 2.
        assert_eq!(min_edit_cost(&sc), Some(2));
        // Degenerate: free gaps -> no pruning possible.
        let free = crate::sw::Scoring { gap_extend: 0, ..sc };
        assert_eq!(min_edit_cost(&free), None);
    }

    #[test]
    fn prefilter_never_skips_an_acceptable_window() {
        // Differential soundness: whenever the DP would accept at
        // `min_score`, the prefilter must say "run it".
        let sc = crate::sw::Scoring::default();
        let mut state = 0x51u64;
        let mut gen = |n: usize| -> Vec<u8> {
            (0..n)
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(11);
                    (state >> 33) as u8 % 4
                })
                .collect()
        };
        for round in 0..100 {
            let read = gen(20 + round % 30);
            let window = gen(40 + round % 50);
            let perfect = read.len() as i64 * sc.match_score as i64;
            let min_score = (perfect * 2) / 5; // the 0.4 fraction callers use
            let allowed = prefilter_allows(&read, &window, min_score, &sc);
            if let Some(aln) = crate::sw::fit_align(&read, &window, 10, &sc) {
                if aln.score as i64 >= min_score {
                    assert!(allowed, "round {round}: skipped an acceptable window");
                }
            }
        }
    }

    #[test]
    fn max_edits_matches_bound_arithmetic() {
        let sc = crate::sw::Scoring::default();
        // m=100: perfect 200. Threshold 80 -> (200-80)/2 = 60 edits.
        assert_eq!(max_edits_for_score(100, 80, &sc), Some(60));
        // Threshold above perfect -> 0 (filter stays sound, DP decides).
        assert_eq!(max_edits_for_score(10, 1000, &sc), Some(0));
    }
}
