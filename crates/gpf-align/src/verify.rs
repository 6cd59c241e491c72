//! Candidate verification, shared by [`crate::bwamem`] and [`crate::snap`].
//!
//! Both aligners end the same way: seed hits vote for diagonals, the best
//! diagonals are checked against a padded reference window, and a check that
//! reaches the acceptance threshold becomes a candidate. This module owns
//! that tail — the per-orientation read state ([`OrientedRead`]), the vote
//! table ([`vote`], [`rank_votes`]) and the check itself
//! ([`verify_candidate`]), which decides as cheaply as it soundly can:
//!
//! 1. [`exact_placement`] — the read occurs verbatim at exactly one in-band
//!    window offset: that *is* the DP's answer, no DP needed;
//! 2. the Myers prefilter — no path can reach the threshold: rejected, no DP
//!    needed either;
//! 3. [`fit_align`] — everything else.

use crate::myers::{self, MyersPattern};
use crate::sw::{fit_align, Alignment, Scoring};
use gpf_formats::base::{rank4, reverse_complement_in_place};
use gpf_formats::cigar::{Cigar, CigarOp};
use gpf_formats::sam::{SamFlags, SamRecord, NO_CONTIG};

/// One read in one orientation, in every form verification needs. A caller
/// keeps one of these per `align_read`/`align_pair` call and
/// [`OrientedRead::load`]s it per mate and strand, so the buffers are
/// allocated once.
#[derive(Default)]
pub struct OrientedRead {
    seq: Vec<u8>,
    ranks: Vec<u8>,
    pattern: MyersPattern,
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
        self.pattern.rebuild(&self.ranks);
    }

    /// The oriented bases (ASCII).
    pub fn seq(&self) -> &[u8] {
        &self.seq
    }

    /// The oriented bases as 0..=3 ranks.
    pub fn ranks(&self) -> &[u8] {
        &self.ranks
    }

    /// The score an alignment must reach to be accepted: `min_score_frac`
    /// of the perfect score.
    pub fn threshold(&self, min_score_frac: f64, sc: &Scoring) -> f64 {
        min_score_frac * (self.seq.len() as i32 * sc.match_score) as f64
    }

    /// Bit-parallel prefilter: `false` when no alignment against `window`
    /// can reach `threshold`, so a score-thresholded DP may be skipped
    /// (output-preserving — see [`MyersPattern::allows`]).
    pub fn may_reach(&mut self, window: &[u8], threshold: f64, sc: &Scoring) -> bool {
        self.pattern.allows(window, threshold.ceil() as i64, sc)
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
    let edits_cost = sc.match_score > 0 && sc.gap_open <= 0 && myers::min_edit_cost(sc).is_some();
    if m == 0 || m > n || !edits_cost {
        return None;
    }
    let first = diag_offset.saturating_sub(sc.band);
    let last = diag_offset.saturating_add(sc.band).min(n - m);
    let mut occurrences = (first..=last).filter(|&off| window[off..off + m] == *read);
    let off = occurrences.next()?;
    if occurrences.next().is_some() {
        return None;
    }
    Some(Alignment {
        score: m as i32 * sc.match_score,
        window_start: off,
        cigar: Cigar::from_ops(vec![(m as u32, CigarOp::Match)]),
        edit_distance: 0,
    })
}

/// Align `read` against `window` around `diag_offset` and accept the result
/// only if it scores at least `threshold`. Exactly
/// `fit_align(..).filter(|a| a.score >= threshold)`, reached the cheapest
/// sound way (module docs).
pub fn verify_candidate(
    read: &mut OrientedRead,
    window: &[u8],
    diag_offset: usize,
    threshold: f64,
    sc: &Scoring,
) -> Option<Alignment> {
    let aln = match exact_placement(&read.ranks, window, diag_offset, sc) {
        Some(aln) => aln,
        None if read.may_reach(window, threshold, sc) => {
            fit_align(&read.ranks, window, diag_offset, sc)?
        }
        None => return None,
    };
    (aln.score as f64 >= threshold).then_some(aln)
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
    read: &mut OrientedRead,
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
