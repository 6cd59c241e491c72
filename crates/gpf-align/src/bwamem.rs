//! BWA-MEM-like seed-and-extend aligner over the FM-index.
//!
//! The pipeline stage the paper calls `BwaMemProcess.pairEnd` (Table 2).
//! Algorithmic skeleton, matching bwa-mem's architecture:
//!
//! 1. **Seeding** — exact-match seeds of length `seed_len` taken at a stride
//!    across the read (both orientations) are located through FM-index
//!    backward search on the read's 0..=3 ranks (a seed over a base that is
//!    not `ACGT` is skipped); over-repetitive seeds are dropped, exactly like
//!    bwa-mem's `max_occ` filter.
//! 2. **Chaining/voting** — seed hits vote for alignment *diagonals*
//!    (text position − read offset, bucketed to tolerate indels).
//! 3. **Extension** — the best diagonals are verified against a padded
//!    reference window ([`crate::verify`]): by a verbatim or one-mismatch
//!    placement where that provably is the DP's answer, else by banded
//!    fitting alignment ([`crate::sw`]).
//! 4. **Scoring** — MAPQ derives from the margin between best and
//!    second-best alignment scores; reads without an acceptable alignment
//!    come back unmapped.
//! 5. **Pairing** — mates are aligned independently, combined with a
//!    proper-pair insert/orientation check, and a failed mate is *rescued*
//!    by a banded search in the window implied by its partner, behind the
//!    Myers prefilter ([`crate::myers`]) — its one use in the aligner.

use crate::fmindex::FmIndex;
use crate::myers::MyersPattern;
use crate::sw::{fit_align, Scoring};
use crate::verify::{rank_votes, verify_at, vote, OrientedRead, Placement};
use gpf_formats::base::reverse_complement;
use gpf_formats::fastq::FastqPair;
use gpf_formats::sam::{SamFlags, SamRecord};
use gpf_formats::{GenomeInterval, ReferenceGenome};

/// The aligner's tuning values: one table, built once by
/// [`BwaMemAligner::new`] from [`Default`].
#[derive(Debug, Clone)]
pub struct AlignerOptions {
    /// Exact-match seed length.
    pub seed_len: usize,
    /// Stride between seed start offsets.
    pub seed_stride: usize,
    /// Seeds with more hits than this are skipped (repeat filter).
    pub max_seed_hits: usize,
    /// Diagonals to verify by extension, per read.
    pub max_candidates: usize,
    /// Reference padding around a candidate window.
    pub window_pad: usize,
    /// Extension scoring.
    pub scoring: Scoring,
    /// Minimum fraction of the perfect score to accept an alignment.
    pub min_score_frac: f64,
    /// Expected insert size mean (proper-pair check and rescue).
    pub insert_mean: f64,
    /// Expected insert size standard deviation.
    pub insert_sd: f64,
}

impl Default for AlignerOptions {
    fn default() -> Self {
        Self {
            seed_len: 19,
            seed_stride: 11,
            max_seed_hits: 64,
            max_candidates: 8,
            window_pad: 24,
            scoring: Scoring::default(),
            min_score_frac: 0.4,
            insert_mean: 380.0,
            insert_sd: 50.0,
        }
    }
}

/// Buffers one `align_read`/`align_pair` call owns and reuses for every
/// mate, strand and rescue attempt: nothing below allocates per read except
/// what ends up in the output records.
#[derive(Default)]
struct Scratch {
    /// The read in the orientation being worked on.
    read: OrientedRead,
    /// Seed hits per bucketed diagonal.
    votes: Vec<(i64, u32)>,
    /// Verified candidates of the current read, both strands.
    cands: Vec<Placement>,
    /// The rescued mate's Myers masks, built only when a rescue runs.
    pattern: MyersPattern,
}

/// The aligner: FM-index plus options.
pub struct BwaMemAligner {
    index: FmIndex,
    opts: AlignerOptions,
}

impl BwaMemAligner {
    /// Build the index and aligner for a reference genome.
    pub fn new(reference: &ReferenceGenome) -> Self {
        Self { index: FmIndex::build(reference), opts: AlignerOptions::default() }
    }

    /// Access the underlying FM-index.
    pub fn index(&self) -> &FmIndex {
        &self.index
    }

    /// Align a single read; returns the best alignment as a [`SamRecord`]
    /// (unmapped record when nothing acceptable is found).
    pub fn align_read(&self, name: &str, seq: &[u8], qual: &[u8]) -> SamRecord {
        self.align_single(name, seq, qual, &mut Scratch::default())
    }

    /// Align a pair; returns `(mate1, mate2)` records with mate/pairing
    /// fields filled in.
    pub fn align_pair(&self, pair: &FastqPair) -> (SamRecord, SamRecord) {
        let mut scratch = Scratch::default();
        let (m1, m2) = (&pair.r1, &pair.r2);
        let mut r1 = self.align_single(&m1.name, &m1.seq, &m1.qual, &mut scratch);
        let mut r2 = self.align_single(&m2.name, &m2.seq, &m2.qual, &mut scratch);

        // Mate rescue: one mapped, one not -> banded search near the mate.
        if r1.flags.is_mapped() && !r2.flags.is_mapped() {
            if let Some(res) = self.rescue(&r1, &pair.r2.seq, &mut scratch) {
                self.apply_rescue(&mut r2, res, &pair.r2.seq, &pair.r2.qual);
            }
        } else if r2.flags.is_mapped() && !r1.flags.is_mapped() {
            if let Some(res) = self.rescue(&r2, &pair.r1.seq, &mut scratch) {
                self.apply_rescue(&mut r1, res, &pair.r1.seq, &pair.r1.qual);
            }
        }

        // Pair flags and TLEN.
        r1.flags.set(SamFlags::PAIRED | SamFlags::FIRST_IN_PAIR);
        r2.flags.set(SamFlags::PAIRED | SamFlags::SECOND_IN_PAIR);
        if !r1.flags.is_mapped() {
            r2.flags.set(SamFlags::MATE_UNMAPPED);
        }
        if !r2.flags.is_mapped() {
            r1.flags.set(SamFlags::MATE_UNMAPPED);
        }
        if r1.flags.is_reverse() {
            r2.flags.set(SamFlags::MATE_REVERSE);
        }
        if r2.flags.is_reverse() {
            r1.flags.set(SamFlags::MATE_REVERSE);
        }
        if r1.flags.is_mapped() && r2.flags.is_mapped() {
            r1.mate_contig = r2.contig;
            r1.mate_pos = r2.pos;
            r2.mate_contig = r1.contig;
            r2.mate_pos = r1.pos;
            if r1.contig == r2.contig {
                let left = r1.pos.min(r2.pos);
                let right = r1.ref_end().max(r2.ref_end());
                let tlen = (right - left) as i64;
                let max_insert = self.opts.insert_mean + 4.0 * self.opts.insert_sd;
                let proper = r1.flags.is_reverse() != r2.flags.is_reverse()
                    && tlen as f64 <= max_insert;
                if proper {
                    r1.flags.set(SamFlags::PROPER_PAIR);
                    r2.flags.set(SamFlags::PROPER_PAIR);
                }
                if r1.pos <= r2.pos {
                    r1.tlen = tlen;
                    r2.tlen = -tlen;
                } else {
                    r1.tlen = -tlen;
                    r2.tlen = tlen;
                }
            }
        }
        (r1, r2)
    }

    /// Seed, verify and emit one read on its own.
    fn align_single(
        &self,
        name: &str,
        seq: &[u8],
        qual: &[u8],
        scratch: &mut Scratch,
    ) -> SamRecord {
        self.candidates(seq, scratch);
        self.emit(name, seq, qual, &mut scratch.cands)
    }

    /// Seed both orientations and verify the best diagonals into
    /// `scratch.cands`.
    fn candidates(&self, seq: &[u8], scratch: &mut Scratch) {
        let Scratch { read, votes, cands, .. } = scratch;
        cands.clear();
        let (sl, stride) = (self.opts.seed_len, self.opts.seed_stride);
        if seq.len() < sl {
            return;
        }
        let tail = seq.len() - sl;
        for reverse in [false, true] {
            read.load(seq, reverse);
            // Seeds every `stride` bases, plus one flush with the read's end,
            // searched as the ranks `load` computed; a seed over a base that
            // is not `ACGT` is skipped, as `backward_search` would refuse it.
            votes.clear();
            for off in (0..=tail).step_by(stride).chain((!tail.is_multiple_of(stride)).then_some(tail)) {
                let hits =
                    read.seed(off, sl).and_then(|seed| self.index.backward_search_ranks(seed));
                if let Some((lo, hi)) = hits {
                    if hi - lo > self.opts.max_seed_hits {
                        continue; // repeat region
                    }
                    for &hit in self.index.locate(lo, hi, self.opts.max_seed_hits) {
                        vote(votes, hit, off);
                    }
                }
            }
            // Verify top diagonals.
            rank_votes(votes);
            for &(diag, _) in votes.iter().take(self.opts.max_candidates) {
                cands.extend(self.extend(read, diag.max(0) as u64, reverse));
            }
        }
    }

    /// Banded extension of an oriented read at a candidate text diagonal.
    fn extend(&self, read: &OrientedRead, text_start: u64, reverse: bool) -> Option<Placement> {
        let (contig, pos) = self.index.resolve(text_start as u32, 1)?;
        let whole = GenomeInterval::new(contig, 0, self.index.contig_len(contig));
        let (pos, aln) = verify_at(
            read,
            self.index.contig_window(whole),
            pos as usize,
            self.opts.window_pad,
            self.opts.min_score_frac,
            &self.opts.scoring,
        )?;
        Some(Placement { contig, pos, reverse, aln })
    }

    /// Build the output record from verified candidates.
    fn emit(&self, name: &str, seq: &[u8], qual: &[u8], cands: &mut Vec<Placement>) -> SamRecord {
        cands.sort_by_key(|c| (std::cmp::Reverse(c.aln.score), c.contig, c.pos));
        // Deduplicate identical loci (same diagonal found twice).
        cands.dedup_by_key(|c| (c.contig, c.pos, c.reverse));
        let mapq = match cands.get(1) {
            None => 60,
            Some(second) => (((cands[0].aln.score - second.aln.score) * 6).clamp(0, 60)) as u8,
        };
        match cands.drain(..).next() {
            Some(best) => best.into_record(name, seq, qual, mapq),
            None => SamRecord::unmapped(name, seq.to_vec(), qual.to_vec()),
        }
    }

    /// Try to place an unmapped mate near its mapped partner.
    fn rescue(
        &self,
        anchor: &SamRecord,
        mate_seq: &[u8],
        scratch: &mut Scratch,
    ) -> Option<Placement> {
        let Scratch { read, pattern, .. } = scratch;
        let sc = &self.opts.scoring;
        let clen = self.index.contig_len(anchor.contig);
        let span = (self.opts.insert_mean + 4.0 * self.opts.insert_sd) as u64;
        // The mate should be on the opposite strand, within the insert span.
        let (w_start, w_end, mate_reverse) = if anchor.flags.is_reverse() {
            (anchor.ref_end().saturating_sub(span), anchor.ref_end().min(clen), false)
        } else {
            (anchor.pos, (anchor.pos + span).min(clen), true)
        };
        if w_end <= w_start + mate_seq.len() as u64 / 2 {
            return None;
        }
        read.load(mate_seq, mate_reverse);
        let window =
            self.index.contig_window(GenomeInterval::new(anchor.contig, w_start, w_end));
        let threshold = read.threshold(self.opts.min_score_frac, sc);
        // One bit-parallel prefilter covers the whole diagonal scan: the
        // fitting distance is diagonal-independent, so if no path anywhere
        // in the window can reach the threshold, every banded attempt
        // below would be rejected too. Rescue is the aligner's one caller
        // of Myers, so the masks are built here.
        pattern.rebuild(read.ranks());
        if !pattern.allows(window, threshold.ceil() as i64, sc) {
            return None;
        }
        // A wide band is unnecessary: scan the window by trying several
        // diagonal offsets.
        let mut best: Option<Placement> = None;
        let step = sc.band.max(8);
        let mut diag = 0usize;
        while diag + mate_seq.len() / 2 < window.len() {
            if let Some(aln) = fit_align(read.ranks(), window, diag, sc) {
                if (aln.score as f64) >= threshold
                    && best.as_ref().is_none_or(|b| aln.score > b.aln.score)
                {
                    best = Some(Placement {
                        contig: anchor.contig,
                        pos: w_start + aln.window_start as u64,
                        reverse: mate_reverse,
                        aln,
                    });
                }
            }
            diag += step;
        }
        best
    }

    /// Overwrite an unmapped record with a rescued alignment.
    fn apply_rescue(&self, rec: &mut SamRecord, res: Placement, seq: &[u8], qual: &[u8]) {
        rec.flags.clear(SamFlags::UNMAPPED);
        if res.reverse {
            rec.flags.set(SamFlags::REVERSE);
            rec.seq = reverse_complement(seq);
            let mut q = qual.to_vec();
            q.reverse();
            rec.qual = q;
        }
        rec.contig = res.contig;
        rec.pos = res.pos;
        rec.mapq = 20; // rescued placements get modest confidence
        rec.cigar = res.aln.cigar;
        rec.edit_distance = res.aln.edit_distance as u16;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpf_formats::quality::phred_to_char;

    fn reference() -> ReferenceGenome {
        // Deterministic pseudo-random 6kb genome over two contigs.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut gen = |n: usize| -> Vec<u8> {
            (0..n)
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    b"ACGT"[(state >> 33) as usize % 4]
                })
                .collect()
        };
        ReferenceGenome::from_contigs(vec![("chr1", gen(4000)), ("chr2", gen(2000))])
    }

    fn quals(n: usize) -> Vec<u8> {
        vec![phred_to_char(35); n]
    }

    #[test]
    fn aligns_exact_read_to_its_locus() {
        let r = reference();
        let aligner = BwaMemAligner::new(&r);
        let read = r.contig_seq(0)[500..600].to_vec();
        let rec = aligner.align_read("r1", &read, &quals(100));
        assert!(rec.flags.is_mapped());
        assert_eq!(rec.contig, 0);
        assert_eq!(rec.pos, 500);
        assert_eq!(rec.cigar.to_string(), "100M");
        assert_eq!(rec.edit_distance, 0);
        assert!(rec.mapq >= 30);
    }

    #[test]
    fn aligns_reverse_complement_read() {
        let r = reference();
        let aligner = BwaMemAligner::new(&r);
        let fwd = r.contig_seq(1)[300..400].to_vec();
        let read = reverse_complement(&fwd);
        let rec = aligner.align_read("r2", &read, &quals(100));
        assert!(rec.flags.is_mapped());
        assert!(rec.flags.is_reverse());
        assert_eq!(rec.contig, 1);
        assert_eq!(rec.pos, 300);
        // Stored sequence is the reference-forward orientation.
        assert_eq!(rec.seq, fwd);
    }

    #[test]
    fn tolerates_mismatches() {
        let r = reference();
        let aligner = BwaMemAligner::new(&r);
        let mut read = r.contig_seq(0)[1000..1100].to_vec();
        for i in [10usize, 40, 90] {
            read[i] = match read[i] {
                b'A' => b'C',
                _ => b'A',
            };
        }
        let rec = aligner.align_read("r3", &read, &quals(100));
        assert!(rec.flags.is_mapped());
        assert_eq!(rec.pos, 1000);
        assert!(rec.edit_distance >= 2, "edit {}", rec.edit_distance);
    }

    #[test]
    fn tolerates_small_deletion() {
        let r = reference();
        let aligner = BwaMemAligner::new(&r);
        // Read skips 3 reference bases in the middle.
        let mut read = r.contig_seq(0)[2000..2050].to_vec();
        read.extend_from_slice(&r.contig_seq(0)[2053..2103]);
        let rec = aligner.align_read("r4", &read, &quals(100));
        assert!(rec.flags.is_mapped());
        assert_eq!(rec.pos, 2000);
        assert!(rec.cigar.has_indel(), "cigar {}", rec.cigar);
        assert_eq!(rec.cigar.ref_span(), 103);
    }

    #[test]
    fn garbage_read_is_unmapped() {
        let r = reference();
        let aligner = BwaMemAligner::new(&r);
        // A read that matches nothing (alternating pattern absent in the
        // pseudo-random genome at this length).
        let read: Vec<u8> = (0..100).map(|i| if i % 2 == 0 { b'A' } else { b'C' }).collect();
        let rec = aligner.align_read("junk", &read, &quals(100));
        // Either unmapped or very low quality.
        assert!(!rec.flags.is_mapped() || rec.mapq < 10 || rec.edit_distance > 20);
    }

    #[test]
    fn pair_alignment_sets_mate_fields() {
        let r = reference();
        let aligner = BwaMemAligner::new(&r);
        let frag = &r.contig_seq(0)[800..1180];
        let r1 = fastq_record_new("p/1", &frag[..100]);
        let r2 = fastq_record_new("p/2", &reverse_complement(&frag[280..380]));
        let pair = FastqPair::new(r1, r2).unwrap();
        let (a, b) = aligner.align_pair(&pair);
        assert!(a.flags.is_mapped() && b.flags.is_mapped());
        assert!(a.flags.has(SamFlags::PROPER_PAIR), "proper pair");
        assert_eq!(a.pos, 800);
        assert_eq!(b.pos, 1080);
        assert_eq!(a.mate_pos, b.pos);
        assert_eq!(a.tlen, 380);
        assert_eq!(b.tlen, -380);
        assert!(a.flags.has(SamFlags::FIRST_IN_PAIR));
        assert!(b.flags.has(SamFlags::SECOND_IN_PAIR));
        assert!(a.flags.has(SamFlags::MATE_REVERSE));
    }

    fn fastq_record_new(name: &str, seq: &[u8]) -> gpf_formats::FastqRecord {
        gpf_formats::FastqRecord::new(name, seq, &quals(seq.len())).unwrap()
    }

    #[test]
    fn mate_rescue_places_damaged_mate() {
        let r = reference();
        let aligner = BwaMemAligner::new(&r);
        let frag = &r.contig_seq(0)[1500..1880];
        // Mate 2 heavily corrupted in its seed region but still >60% intact.
        let mut m2 = reverse_complement(&frag[280..380]);
        for i in (0..m2.len()).step_by(5) {
            m2[i] = match m2[i] {
                b'A' => b'G',
                _ => b'A',
            };
        }
        let pair = FastqPair::new(fastq_record_new("q/1", &frag[..100]), {
            gpf_formats::FastqRecord::new("q/2", &m2, &quals(100)).unwrap()
        })
        .unwrap();
        let (a, b) = aligner.align_pair(&pair);
        assert!(a.flags.is_mapped());
        // Rescue should place mate 2 on chr1 near 1780 (or leave it unmapped
        // if the damage is too heavy — but never on another contig).
        if b.flags.is_mapped() {
            assert_eq!(b.contig, 0);
            assert!(b.pos.abs_diff(1780) < 40, "rescued at {}", b.pos);
        }
    }

    #[test]
    fn repeat_reads_get_low_mapq() {
        // Build a genome with an exact 300bp repeat at two loci.
        let mut state = 77u64;
        let mut gen = |n: usize| -> Vec<u8> {
            (0..n)
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(99);
                    b"ACGT"[(state >> 33) as usize % 4]
                })
                .collect()
        };
        let unique1 = gen(1000);
        let repeat = gen(300);
        let unique2 = gen(1000);
        let seq = [unique1, repeat.clone(), unique2, repeat.clone()].concat();
        let r = ReferenceGenome::from_contigs(vec![("chr1", seq)]);
        let aligner = BwaMemAligner::new(&r);
        let read = repeat[100..200].to_vec();
        let rec = aligner.align_read("rep", &read, &quals(100));
        assert!(rec.flags.is_mapped());
        assert_eq!(rec.mapq, 0, "ambiguous read must have MAPQ 0");
    }
}
