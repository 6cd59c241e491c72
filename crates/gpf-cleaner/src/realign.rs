//! IndelRealignment — local realignment around indels.
//!
//! The aligner maps each read independently, so reads carrying an indel with
//! little flanking sequence can end up with suboptimal alignments (scattered
//! mismatches instead of a clean gap). GATK's IndelRealigner fixes this in
//! two phases, mirrored here:
//!
//! 1. [`find_realign_intervals`] — collect candidate intervals around
//!    observed indels (read CIGARs) and known indel sites, merge overlaps;
//! 2. [`realign_interval`] — for each interval, build indel-bearing
//!    candidate haplotypes from the observed/known indels, test whether a
//!    read scores better against a haplotype than against the reference,
//!    and if so re-align it against the reference with an indel-friendly
//!    scoring (wider band, cheap gaps), updating position, CIGAR and edit
//!    distance.

use gpf_align::sw::{fit_align, Scoring};
use gpf_formats::base::rank4;
use gpf_formats::cigar::CigarOp;
use gpf_formats::genome::merge_intervals;
use gpf_formats::sam::SamRecord;
use gpf_formats::vcf::VcfRecord;
use gpf_formats::{GenomeInterval, ReferenceGenome};
use std::collections::HashMap;

/// Statistics from realigning one interval set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RealignStats {
    /// Intervals processed.
    pub intervals: usize,
    /// Reads whose alignment was rewritten.
    pub realigned_reads: usize,
    /// Candidate haplotypes evaluated.
    pub haplotypes_tested: usize,
}

/// Padding added around each indel evidence site.
const INTERVAL_PAD: u64 = 40;

/// Find intervals worth realigning: around indels observed in read CIGARs
/// and around known indel sites.
pub fn find_realign_intervals(
    records: &[SamRecord],
    known_indels: &[VcfRecord],
    reference: &ReferenceGenome,
) -> Vec<GenomeInterval> {
    let mut raw: Vec<GenomeInterval> = Vec::new();
    for r in records {
        if !r.flags.is_mapped() || !r.cigar.has_indel() {
            continue;
        }
        for block in r.cigar.walk() {
            if matches!(block.op, CigarOp::Ins | CigarOp::Del) {
                let pos = r.pos + block.ref_off;
                let clen = reference.dict().length_of(r.contig);
                raw.push(GenomeInterval::new(r.contig, pos, pos + block.len as u64).padded(INTERVAL_PAD, clen));
            }
        }
    }
    for v in known_indels {
        if v.ref_allele.len() != v.alt_allele.len() {
            let clen = reference.dict().length_of(v.contig);
            let end = v.pos + v.ref_allele.len() as u64;
            raw.push(GenomeInterval::new(v.contig, v.pos, end).padded(INTERVAL_PAD, clen));
        }
    }
    merge_intervals(raw)
}

/// One candidate indel: (ref position, deleted length, inserted bases).
type IndelCandidate = (u64, u32, Vec<u8>);

/// Collect indel candidates supported by reads in an interval.
fn indel_candidates(records: &[SamRecord], interval: &GenomeInterval) -> Vec<(IndelCandidate, u32)> {
    let mut counts: HashMap<IndelCandidate, u32> = HashMap::new();
    for r in records {
        if !r.flags.is_mapped() || r.contig != interval.contig || !r.cigar.has_indel() {
            continue;
        }
        for block in r.cigar.walk() {
            let pos = r.pos + block.ref_off;
            if pos < interval.start || pos >= interval.end {
                continue;
            }
            match block.op {
                CigarOp::Del => {
                    *counts.entry((pos, block.len, Vec::new())).or_insert(0) += 1;
                }
                CigarOp::Ins => {
                    let ins = r.seq
                        [block.read_off as usize..(block.read_off + block.len as u64) as usize]
                        .to_vec();
                    *counts.entry((pos, 0, ins)).or_insert(0) += 1;
                }
                _ => {}
            }
        }
    }
    let mut out: Vec<(IndelCandidate, u32)> = counts.into_iter().collect();
    out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0 .0.cmp(&b.0 .0)));
    out
}

/// Realign reads overlapping `interval`. Mutates `records` in place.
pub fn realign_interval(
    records: &mut [SamRecord],
    reference: &ReferenceGenome,
    interval: &GenomeInterval,
    known_indels: &[VcfRecord],
) -> RealignStats {
    let mut stats = RealignStats { intervals: 1, ..Default::default() };
    let clen = reference.dict().length_of(interval.contig);
    let window_iv = interval.padded(160, clen);
    let ref_window: Vec<u8> =
        reference.slice(window_iv).iter().map(|&b| rank4(b)).collect();

    // Candidate indels: read evidence plus known sites inside the interval.
    let mut cands = indel_candidates(records, interval);
    for v in known_indels {
        if v.contig == interval.contig
            && v.pos >= interval.start
            && v.pos < interval.end
            && v.ref_allele.len() != v.alt_allele.len()
        {
            let (del, ins) = if v.ref_allele.len() > v.alt_allele.len() {
                ((v.ref_allele.len() - v.alt_allele.len()) as u32, Vec::new())
            } else {
                (0u32, v.alt_allele[1..].to_vec())
            };
            cands.push(((v.pos + 1, del, ins), 1));
        }
    }
    if cands.is_empty() {
        return stats;
    }

    // Build up to three alternative haplotype windows.
    let mut haplotypes: Vec<Vec<u8>> = Vec::new();
    for ((pos, del, ins), _) in cands.iter().take(3) {
        if *pos < window_iv.start {
            continue;
        }
        let cut = (*pos - window_iv.start) as usize;
        if cut + *del as usize > ref_window.len() {
            continue;
        }
        let mut alt = Vec::with_capacity(ref_window.len() + ins.len());
        alt.extend_from_slice(&ref_window[..cut]);
        alt.extend(ins.iter().map(|&b| rank4(b)));
        alt.extend_from_slice(&ref_window[cut + *del as usize..]);
        haplotypes.push(alt);
        stats.haplotypes_tested += 1;
    }
    if haplotypes.is_empty() {
        return stats;
    }

    let strict = Scoring::default();
    let relaxed = Scoring { gap_open: -2, gap_extend: -1, band: 24, ..Scoring::default() };
    // One rank buffer for the whole interval — re-filled per read, never
    // re-allocated inside the haplotype loop.
    let mut read_ranks: Vec<u8> = Vec::new();
    for r in records.iter_mut() {
        if !r.flags.is_mapped()
            || r.contig != interval.contig
            || r.ref_end() <= interval.start
            || r.pos >= interval.end
            || r.edit_distance == 0
        {
            continue;
        }
        read_ranks.clear();
        read_ranks.extend(r.seq.iter().map(|&b| rank4(b)));
        let diag = (r.pos.saturating_sub(window_iv.start)) as usize;
        let Some(ref_aln) = fit_align(&read_ranks, &ref_window, diag, &strict) else {
            continue;
        };
        // An alternative haplotype only matters if it beats the reference
        // score strictly; the bit-parallel prefilter skips the affine DP
        // for haplotypes that provably cannot.
        let best_alt = haplotypes
            .iter()
            .filter(|h| {
                gpf_align::myers::prefilter_allows(
                    &read_ranks,
                    h,
                    ref_aln.score as i64 + 1,
                    &strict,
                )
            })
            .filter_map(|h| fit_align(&read_ranks, h, diag, &strict))
            .map(|a| a.score)
            .max();
        if let Some(alt_score) = best_alt {
            if alt_score > ref_aln.score {
                // The read prefers an indel haplotype: re-derive its
                // reference alignment with indel-friendly scoring — but the
                // strict pass above already produced one, so only pay for
                // the relaxed re-alignment when strict didn't improve the
                // record.
                let strict_edit = ref_aln.edit_distance as u16;
                let new_aln = if strict_edit < r.edit_distance {
                    Some(ref_aln)
                } else {
                    fit_align(&read_ranks, &ref_window, diag, &relaxed)
                        .filter(|a| (a.edit_distance as u16) < r.edit_distance)
                };
                if let Some(new_aln) = new_aln {
                    r.pos = window_iv.start + new_aln.window_start as u64;
                    r.cigar = new_aln.cigar;
                    r.edit_distance = new_aln.edit_distance as u16;
                    stats.realigned_reads += 1;
                }
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpf_formats::sam::SamFlags;
    use gpf_formats::vcf::Genotype;
    use gpf_formats::Cigar;

    fn reference() -> ReferenceGenome {
        let mut state = 0x5555u64;
        let seq: Vec<u8> = (0..4000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(3);
                b"ACGT"[(state >> 33) as usize % 4]
            })
            .collect();
        ReferenceGenome::from_contigs(vec![("chr1", seq)])
    }

    fn mapped(name: &str, pos: u64, cigar: &str, seq: Vec<u8>) -> SamRecord {
        let n = seq.len();
        SamRecord {
            name: name.into(),
            flags: SamFlags::default(),
            contig: 0,
            pos,
            mapq: 60,
            cigar: Cigar::parse(cigar).unwrap(),
            mate_contig: gpf_formats::sam::NO_CONTIG,
            mate_pos: 0,
            tlen: 0,
            seq,
            qual: vec![b'I'; n],
            read_group: 1,
            edit_distance: 0,
        }
    }

    #[test]
    fn intervals_from_cigar_indels() {
        let r = reference();
        let records = vec![
            mapped("a", 1000, "50M3D50M", r.contig_seq(0)[1000..1100].to_vec()),
            mapped("b", 1020, "40M3D60M", r.contig_seq(0)[1020..1120].to_vec()),
            mapped("c", 3000, "100M", r.contig_seq(0)[3000..3100].to_vec()),
        ];
        let ivs = find_realign_intervals(&records, &[], &r);
        assert_eq!(ivs.len(), 1, "overlapping evidence merges: {ivs:?}");
        assert!(ivs[0].contains(gpf_formats::GenomePosition::new(0, 1050)));
    }

    #[test]
    fn intervals_from_known_indels() {
        let r = reference();
        let known = vec![VcfRecord {
            contig: 0,
            pos: 2000,
            ref_allele: b"ATTT".to_vec(),
            alt_allele: b"A".to_vec(),
            qual: 99.0,
            genotype: Genotype::Het,
            depth: 10,
        }];
        let ivs = find_realign_intervals(&[], &known, &r);
        assert_eq!(ivs.len(), 1);
        assert!(ivs[0].start <= 2000 - 30 && ivs[0].end >= 2004 + 30);
    }

    #[test]
    fn known_snvs_do_not_create_intervals() {
        let r = reference();
        let known = vec![VcfRecord {
            contig: 0,
            pos: 2000,
            ref_allele: b"A".to_vec(),
            alt_allele: b"G".to_vec(),
            qual: 99.0,
            genotype: Genotype::Het,
            depth: 10,
        }];
        assert!(find_realign_intervals(&[], &known, &r).is_empty());
    }

    /// Construct the scenario realignment exists for: a read carrying a
    /// deletion whose aligner alignment chose mismatches instead of the gap.
    #[test]
    fn misaligned_indel_read_is_rescued() {
        let r = reference();
        let refseq = r.contig_seq(0);
        // Donor haplotype: 6bp deletion at 1550.
        let mut donor: Vec<u8> = refseq[1500..1550].to_vec();
        donor.extend_from_slice(&refseq[1556..1606]);
        // This read truly spans the deletion; give it a deliberately bad
        // alignment: full 100M at 1500 with a wrong (high) edit distance.
        let mut bad = mapped("bad", 1500, "100M", donor.clone());
        bad.edit_distance = 30;

        // A supporting read that the aligner *did* get right provides the
        // indel evidence.
        let good = mapped("good", 1500, "50M6D50M", donor);

        let mut records = vec![bad, good];
        let iv = GenomeInterval::new(0, 1540, 1566);
        let stats = realign_interval(&mut records, &r, &iv, &[]);
        assert!(stats.haplotypes_tested >= 1);
        assert_eq!(stats.realigned_reads, 1, "the bad read gets rewritten");
        let fixed = &records[0];
        assert!(fixed.cigar.has_indel(), "cigar now {}", fixed.cigar);
        assert_eq!(fixed.cigar.ref_span(), 106);
        assert!(fixed.edit_distance <= 6, "edit now {}", fixed.edit_distance);
    }

    #[test]
    fn perfect_reads_are_untouched() {
        let r = reference();
        let rec = mapped("ok", 1000, "100M", r.contig_seq(0)[1000..1100].to_vec());
        let before = rec.clone();
        let mut records = vec![rec];
        let iv = GenomeInterval::new(0, 990, 1110);
        let known = vec![VcfRecord {
            contig: 0,
            pos: 1050,
            ref_allele: b"AT".to_vec(),
            alt_allele: b"A".to_vec(),
            qual: 99.0,
            genotype: Genotype::Het,
            depth: 10,
        }];
        realign_interval(&mut records, &r, &iv, &known);
        assert_eq!(records[0], before);
    }

    #[test]
    fn empty_interval_is_noop() {
        let r = reference();
        let mut records = vec![mapped("x", 100, "100M", r.contig_seq(0)[100..200].to_vec())];
        let iv = GenomeInterval::new(0, 3000, 3100);
        let stats = realign_interval(&mut records, &r, &iv, &[]);
        assert_eq!(stats.realigned_reads, 0);
        assert_eq!(stats.haplotypes_tested, 0);
    }
}
