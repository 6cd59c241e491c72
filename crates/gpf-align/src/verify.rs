//! Candidate verification, shared by [`crate::bwamem`] and [`crate::snap`].
//!
//! Both aligners end the same way: seed hits vote for diagonals, the best
//! diagonals are checked against a padded reference window, and a check that
//! reaches the acceptance threshold becomes a candidate. This module owns
//! that tail — the per-orientation read state ([`OrientedRead`]), the vote
//! table (`vote`, `rank_votes`) and the check itself
//! ([`verify_candidate`]), which names the DP's answer without running it
//! wherever it can prove what that answer is, and otherwise runs it:
//!
//! 1. [`exact_placement`] — the read occurs verbatim at exactly one in-band
//!    window offset: that *is* the DP's answer;
//! 2. [`one_mismatch_placement`] — no in-band offset is verbatim and exactly
//!    one differs from the read in one base, under a scoring where one
//!    mismatch beats any gap: that is the DP's answer too;
//! 3. [`fit_align`] — everything else;
//!
//! then the threshold. Each rung counts itself on `align.verify.{exact,
//! one_mismatch, dp}` when tracing is on. The Myers prefilter is not on this
//! path: a seed-voted window is almost never hopeless (on benchmark genome
//! 6054 it spared 1 DP of 9,043 and cost a Myers scan for each), so it stays
//! where windows are wide and blind — mate rescue ([`crate::bwamem`]).

use crate::myers;
use crate::sw::{fit_align, Alignment, Scoring};
use gpf_formats::base::{rank4, reverse_complement_in_place};
use gpf_formats::cigar::{Cigar, CigarOp};
use gpf_formats::sam::{SamFlags, SamRecord, NO_CONTIG};
use gpf_trace::names;
use std::ops::RangeInclusive;

/// One read in one orientation, in every form verification needs. A caller
/// keeps one of these per `align_read`/`align_pair` call and
/// [`OrientedRead::load`]s it per mate and strand, so the buffers are
/// allocated once.
#[derive(Default)]
pub struct OrientedRead {
    seq: Vec<u8>,
    ranks: Vec<u8>,
    /// Offsets, ascending, of the bases that are not `ACGT`. Their rank is
    /// `A`'s, so a seed covering one is not searched ([`OrientedRead::seed`]).
    non_acgt: Vec<usize>,
}

impl OrientedRead {
    /// Take `seq` as given, or reverse-complemented when `reverse`.
    pub fn load(&mut self, seq: &[u8], reverse: bool) {
        self.seq.clear();
        self.seq.extend_from_slice(seq);
        if reverse {
            reverse_complement_in_place(&mut self.seq);
        }
        self.ranks.clear();
        self.ranks.extend(self.seq.iter().map(|&b| rank4(b)));
        self.non_acgt.clear();
        self.non_acgt.extend(
            (0..self.seq.len()).filter(|&i| !matches!(self.seq[i], b'A' | b'C' | b'G' | b'T')),
        );
    }

    /// The oriented bases (ASCII).
    pub fn seq(&self) -> &[u8] {
        &self.seq
    }

    /// The oriented bases as 0..=3 ranks.
    pub fn ranks(&self) -> &[u8] {
        &self.ranks
    }

    /// The ranks of the seed `[off, off + len)`, ready for
    /// [`crate::FmIndex::backward_search_ranks`]; `None` when the seed
    /// covers a base that is not `ACGT` (which `backward_search` would
    /// refuse) or runs past the read.
    pub fn seed(&self, off: usize, len: usize) -> Option<&[u8]> {
        let next = self.non_acgt.partition_point(|&p| p < off);
        if self.non_acgt.get(next).is_some_and(|&p| p < off + len) {
            return None;
        }
        self.ranks.get(off..off + len)
    }

    /// The score an alignment must reach to be accepted: `min_score_frac`
    /// of the perfect score.
    pub fn threshold(&self, min_score_frac: f64, sc: &Scoring) -> f64 {
        min_score_frac * (self.seq.len() as i32 * sc.match_score) as f64
    }
}

/// `true` when every edit strictly costs under `sc` and no gap open pays:
/// the precondition of both shortcuts.
fn edits_cost(sc: &Scoring) -> bool {
    sc.match_score > 0 && sc.gap_open <= 0 && myers::min_edit_cost(sc).is_some()
}

/// The window offsets whose ungapped path the band around `diag_offset`
/// covers whole: `|off − diag_offset| ≤ band` and `off + m ≤ n` (`m ≤ n`).
fn in_band(m: usize, n: usize, diag_offset: usize, band: usize) -> RangeInclusive<usize> {
    diag_offset.saturating_sub(band)..=diag_offset.saturating_add(band).min(n - m)
}

/// The ungapped `mM` alignment at `off` with `edits` mismatches.
fn ungapped(m: usize, off: usize, edits: u32, sc: &Scoring) -> Alignment {
    Alignment {
        score: (m as i32 - edits as i32) * sc.match_score + edits as i32 * sc.mismatch,
        window_start: off,
        cigar: Cigar::from_ops(vec![(m as u32, CigarOp::Match)]),
        edit_distance: edits,
    }
}

/// The alignment of `read` against `window` when it can be named without
/// the DP: `read` occurs verbatim at exactly one window offset the band
/// around `diag_offset` covers, under a scoring where every edit strictly
/// costs. `None` means "ask [`fit_align`]", never "no alignment".
///
/// Soundness (DESIGN.md §15): a path with no edit scores `m·match`; with
/// `min_edit_cost > 0` and no profitable gap open, a path with any edit
/// scores less. The no-edit paths of the banded DP are exactly the verbatim
/// occurrences at offsets `off` with `|off − diag_offset| ≤ band` and
/// `off + m ≤ n`; when there is one, it is the DP's unique optimum and the
/// traceback can only return it. With two (a tandem repeat inside the band)
/// the DP's tie-break decides, so this declines.
pub fn exact_placement(
    read: &[u8],
    window: &[u8],
    diag_offset: usize,
    sc: &Scoring,
) -> Option<Alignment> {
    let (m, n) = (read.len(), window.len());
    if m == 0 || m > n || !edits_cost(sc) {
        return None;
    }
    let mut occurrences =
        in_band(m, n, diag_offset, sc.band).filter(|&off| window[off..off + m] == *read);
    let off = occurrences.next()?;
    if occurrences.next().is_some() {
        return None;
    }
    Some(ungapped(m, off, 0, sc))
}

/// The alignment of `read` against `window` when it is the read with one
/// base substituted: no offset [`exact_placement`] scans holds the read
/// verbatim and exactly one holds it with one mismatch, under its scoring
/// preconditions plus `(m−1)·match + mismatch > m·match + gap_open +
/// gap_extend`. `None` means "ask [`fit_align`]", never "no alignment".
///
/// Soundness (DESIGN.md §15a, "One-mismatch certificate"): an ungapped path
/// at an in-band offset with `k` mismatches scores `m·match − k·(match −
/// mismatch)`, so with no `k = 0` offset the single `k = 1` offset beats
/// every other ungapped path. A path with a gap has at most `m` aligned
/// read bases, at least one gap open and at least one gap base, so it
/// scores at most `m·match + gap_open + gap_extend` (an inserted read base
/// also forgoes its match), which the inequality puts strictly below. The
/// offset is the banded DP's unique optimum and the traceback can only
/// return it. Two one-mismatch offsets (a tandem repeat) tie, and a verbatim
/// offset outranks; both decline, as does a scoring that fails the
/// inequality (a gap cheap enough to beat the mismatch).
pub fn one_mismatch_placement(
    read: &[u8],
    window: &[u8],
    diag_offset: usize,
    sc: &Scoring,
) -> Option<Alignment> {
    let (m, n) = (read.len(), window.len());
    let mismatch_beats_a_gap = i64::from(sc.mismatch) - i64::from(sc.match_score)
        > i64::from(sc.gap_open) + i64::from(sc.gap_extend);
    if m == 0 || m > n || !edits_cost(sc) || !mismatch_beats_a_gap {
        return None;
    }
    let mut found = None;
    for off in in_band(m, n, diag_offset, sc.band) {
        let mut diffs = read.iter().zip(&window[off..off + m]).filter(|(r, w)| r != w);
        match (diffs.next(), diffs.next()) {
            (None, _) => return None,
            (Some(_), None) if found.is_some() => return None,
            (Some(_), None) => found = Some(off),
            (Some(_), Some(_)) => {}
        }
    }
    found.map(|off| ungapped(m, off, 1, sc))
}

/// Align `read` against `window` around `diag_offset` and accept the result
/// only if it scores at least `threshold`. Exactly
/// `fit_align(..).filter(|a| a.score >= threshold)`, without the DP
/// wherever its answer is proven (module docs).
pub fn verify_candidate(
    read: &OrientedRead,
    window: &[u8],
    diag_offset: usize,
    threshold: f64,
    sc: &Scoring,
) -> Option<Alignment> {
    let ranks = &read.ranks;
    let (decided_by, aln) = match exact_placement(ranks, window, diag_offset, sc) {
        Some(aln) => (names::ALIGN_VERIFY_EXACT, Some(aln)),
        None => match one_mismatch_placement(ranks, window, diag_offset, sc) {
            Some(aln) => (names::ALIGN_VERIFY_ONE_MISMATCH, Some(aln)),
            None => (names::ALIGN_VERIFY_DP, fit_align(ranks, window, diag_offset, sc)),
        },
    };
    if gpf_trace::enabled() {
        gpf_trace::counter(decided_by).add(1);
    }
    aln.filter(|a| a.score as f64 >= threshold)
}

/// Record one seed hit: `hit` is where the seed taken at read offset `off`
/// occurs in the text. Diagonals are bucketed by 8 to tolerate indels.
pub(crate) fn vote(votes: &mut Vec<(i64, u32)>, hit: u32, off: usize) {
    let diag = hit as i64 - off as i64;
    votes.push((diag - diag.rem_euclid(8), 1));
}

/// Merge the recorded hits per diagonal and order the diagonals most votes
/// first, ties by diagonal.
pub(crate) fn rank_votes(votes: &mut Vec<(i64, u32)>) {
    votes.sort_unstable();
    votes.dedup_by(|next, kept| {
        let same = next.0 == kept.0;
        if same {
            kept.1 += next.1;
        }
        same
    });
    votes.sort_unstable_by_key(|&(diag, n)| (std::cmp::Reverse(n), diag));
}

/// [`verify_candidate`] against the window of a whole contig (`contig_ranks`)
/// that pads the read's span at `pos` by `pad` on both sides, clipped to the
/// contig. Returns the accepted alignment with its position on the contig.
pub fn verify_at(
    read: &OrientedRead,
    contig_ranks: &[u8],
    pos: usize,
    pad: usize,
    min_score_frac: f64,
    sc: &Scoring,
) -> Option<(u64, Alignment)> {
    let w_start = pos.saturating_sub(pad);
    let w_end = (pos + read.seq.len() + pad).min(contig_ranks.len());
    if w_end <= w_start {
        return None;
    }
    let threshold = read.threshold(min_score_frac, sc);
    let aln = verify_candidate(read, &contig_ranks[w_start..w_end], pos - w_start, threshold, sc)?;
    Some(((w_start + aln.window_start) as u64, aln))
}

/// One accepted alignment of a read.
#[derive(Debug, Clone)]
pub(crate) struct Placement {
    /// Contig index.
    pub contig: u32,
    /// 0-based position of the first aligned reference base.
    pub pos: u64,
    /// The read aligned as its reverse complement.
    pub reverse: bool,
    /// Score, CIGAR and edit distance.
    pub aln: Alignment,
}

impl Placement {
    /// The mapped SAM record of a read placed here; a reverse-strand
    /// placement stores the read reverse-complemented, as SAM requires.
    pub fn into_record(self, name: &str, seq: &[u8], qual: &[u8], mapq: u8) -> SamRecord {
        let (mut seq, mut qual) = (seq.to_vec(), qual.to_vec());
        let mut flags = SamFlags::default();
        if self.reverse {
            flags.set(SamFlags::REVERSE);
            reverse_complement_in_place(&mut seq);
            qual.reverse();
        }
        SamRecord {
            name: name.to_string(),
            flags,
            contig: self.contig,
            pos: self.pos,
            mapq,
            cigar: self.aln.cigar,
            mate_contig: NO_CONTIG,
            mate_pos: 0,
            tlen: 0,
            seq,
            qual,
            read_group: 1,
            edit_distance: self.aln.edit_distance as u16,
        }
    }
}
