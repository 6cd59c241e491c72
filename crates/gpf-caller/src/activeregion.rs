//! Active-region detection: find loci where the reads disagree with the
//! reference enough to be worth assembling.

use gpf_formats::cigar::CigarOp;
use gpf_formats::genome::merge_intervals;
use gpf_formats::sam::SamRecord;
use gpf_formats::{GenomeInterval, ReferenceGenome};

/// Minimum read depth to consider a locus.
pub const MIN_DEPTH: u32 = 4;
/// Minimum fraction of non-reference evidence (mismatches weighted 1, indel
/// ops weighted 2) to mark a locus active.
pub const MIN_EVIDENCE_FRAC: f64 = 0.15;
/// Padding around active loci.
pub const PAD: u64 = 60;
/// Maximum region length (longer evidence clusters are split).
pub const MAX_REGION_LEN: u64 = 400;

/// Per-locus pileup counters.
#[derive(Debug, Clone, Copy, Default)]
struct Pileup {
    depth: u32,
    mismatches: u32,
    indels: u32,
}

/// Find active regions over (sorted or unsorted) records.
///
/// The pileup is a dense window over the loci the sweep has not left yet:
/// reads are taken in start order, every locus left of the current read's
/// start is complete (no later read reaches it), so it is judged and
/// dropped. The window therefore never outgrows the longest alignment.
pub fn find_active_regions<'a>(
    records: impl IntoIterator<Item = &'a SamRecord>,
    reference: &ReferenceGenome,
) -> Vec<GenomeInterval> {
    let mut reads: Vec<&SamRecord> = records
        .into_iter()
        .filter(|r| r.flags.is_mapped() && !r.flags.is_duplicate() && r.flags.is_primary())
        .collect();
    // Start order is all the sweep needs; on sorted input this is one pass.
    reads.sort_by_key(|r| (r.contig, r.pos));

    let mut active: Vec<GenomeInterval> = Vec::new();
    // Judge and drop the first `n` loci of `pile`, which start at `base`.
    let mut flush = |pile: &mut Vec<Pileup>, n: usize, contig: u32, base: u64| {
        let clen = reference.dict().length_of(contig);
        for (pos, p) in (base..).zip(pile.drain(..n)) {
            let evidence = p.mismatches as f64 + 2.0 * p.indels as f64;
            if p.depth >= MIN_DEPTH && evidence / p.depth as f64 >= MIN_EVIDENCE_FRAC {
                active.push(GenomeInterval::new(contig, pos, pos + 1).padded(PAD, clen));
            }
        }
    };
    // `pile[i]` is locus `base + i` of `contig`.
    let mut pile: Vec<Pileup> = Vec::new();
    let (mut contig, mut base) = (0u32, 0u64);
    for r in reads {
        let done =
            if r.contig == contig { pile.len().min((r.pos - base) as usize) } else { pile.len() };
        flush(&mut pile, done, contig, base);
        (contig, base) = (r.contig, r.pos);
        // A trailing insertion counts at the locus after the last aligned one.
        let reach = r.cigar.ref_span() as usize + 1;
        if pile.len() < reach {
            pile.resize(reach, Pileup::default());
        }
        let refseq = reference.contig_seq(r.contig);
        for block in r.cigar.walk() {
            let at = block.ref_off as usize;
            let span = &mut pile[at..];
            match block.op {
                CigarOp::Match | CigarOp::Equal | CigarOp::Diff => {
                    let cols = span[..block.len as usize].iter_mut();
                    let read_bases = &r.seq[block.read_off as usize..];
                    for ((p, &read_b), &ref_b) in cols.zip(read_bases).zip(&refseq[r.pos as usize + at..]) {
                        p.depth += 1;
                        if read_b != b'N' && read_b != ref_b {
                            p.mismatches += 1;
                        }
                    }
                }
                CigarOp::Ins => span[0].indels += 1,
                CigarOp::Del => {
                    span[0].indels += 1;
                    for p in &mut span[..block.len as usize] {
                        p.depth += 1;
                    }
                }
                _ => {}
            }
        }
    }
    let left = pile.len();
    flush(&mut pile, left, contig, base);
    let merged = merge_intervals(active);

    // Split oversized regions.
    let mut out = Vec::with_capacity(merged.len());
    for iv in merged {
        if iv.len() <= MAX_REGION_LEN {
            out.push(iv);
        } else {
            let mut s = iv.start;
            while s < iv.end {
                let e = (s + MAX_REGION_LEN).min(iv.end);
                out.push(GenomeInterval::new(iv.contig, s, e));
                s = e;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpf_formats::sam::SamFlags;
    use gpf_formats::Cigar;

    fn reference() -> ReferenceGenome {
        let mut state = 0x777u64;
        let seq: Vec<u8> = (0..3000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(5);
                b"ACGT"[(state >> 33) as usize % 4]
            })
            .collect();
        ReferenceGenome::from_contigs(vec![("chr1", seq)])
    }

    fn read(r: &ReferenceGenome, pos: u64, len: usize, mismatch_at: &[usize]) -> SamRecord {
        let mut seq = r.contig_seq(0)[pos as usize..pos as usize + len].to_vec();
        for &i in mismatch_at {
            seq[i] = if seq[i] == b'A' { b'G' } else { b'A' };
        }
        SamRecord {
            name: format!("r{pos}-{mismatch_at:?}"),
            flags: SamFlags::default(),
            contig: 0,
            pos,
            mapq: 60,
            cigar: Cigar::from_ops(vec![(len as u32, CigarOp::Match)]),
            mate_contig: gpf_formats::sam::NO_CONTIG,
            mate_pos: 0,
            tlen: 0,
            seq,
            qual: vec![b'I'; len],
            read_group: 1,
            edit_distance: mismatch_at.len() as u16,
        }
    }

    #[test]
    fn clean_reads_produce_no_regions() {
        let r = reference();
        let records: Vec<SamRecord> = (0..20).map(|i| read(&r, i * 100, 100, &[])).collect();
        assert!(find_active_regions(&records, &r).is_empty());
    }

    #[test]
    fn consistent_mismatch_cluster_is_active() {
        let r = reference();
        // 10 reads covering position 1000, each mismatching at ref pos 1050.
        let records: Vec<SamRecord> = (0..10).map(|_| read(&r, 1000, 100, &[50])).collect();
        let regions = find_active_regions(&records, &r);
        assert_eq!(regions.len(), 1);
        assert!(regions[0].contains(gpf_formats::GenomePosition::new(0, 1050)));
    }

    #[test]
    fn sparse_sequencing_errors_stay_inactive() {
        let r = reference();
        // 20 reads, each with one error at a *different* position: per-locus
        // evidence is 1/20 = 5% < threshold.
        let records: Vec<SamRecord> = (0..20).map(|i| read(&r, 1000, 100, &[i * 5])).collect();
        let regions = find_active_regions(&records, &r);
        assert!(regions.is_empty(), "{regions:?}");
    }

    #[test]
    fn indels_count_double() {
        let r = reference();
        let mut records: Vec<SamRecord> = (0..10).map(|_| read(&r, 500, 100, &[])).collect();
        // 2 of 10 reads carry a deletion at ref 550 — 2*2/10 = 40% evidence.
        for rec in records.iter_mut().take(2) {
            rec.cigar = Cigar::parse("50M3D47M").unwrap();
        }
        let regions = find_active_regions(&records, &r);
        assert_eq!(regions.len(), 1);
        assert!(regions[0].contains(gpf_formats::GenomePosition::new(0, 550)));
    }

    #[test]
    fn low_depth_loci_are_skipped() {
        let r = reference();
        // Only 2 reads (below `MIN_DEPTH`), both mismatching.
        let records: Vec<SamRecord> = (0..2).map(|_| read(&r, 100, 100, &[10])).collect();
        assert!(find_active_regions(&records, &r).is_empty());
    }

    #[test]
    fn duplicates_are_ignored() {
        let r = reference();
        let mut records: Vec<SamRecord> = (0..10).map(|_| read(&r, 100, 100, &[10])).collect();
        for rec in records.iter_mut() {
            rec.flags.set(SamFlags::DUPLICATE);
        }
        assert!(find_active_regions(&records, &r).is_empty());
    }

    #[test]
    fn oversized_clusters_split() {
        let r = reference();
        let mut records = Vec::new();
        // Mismatch evidence across a 1500bp stretch.
        for start in (0..1500).step_by(50) {
            for _ in 0..6 {
                records.push(read(&r, start, 100, &[25]));
            }
        }
        let regions = find_active_regions(&records, &r);
        assert!(regions.len() > 2);
        assert!(regions.iter().all(|iv| iv.len() <= MAX_REGION_LEN));
    }
}
