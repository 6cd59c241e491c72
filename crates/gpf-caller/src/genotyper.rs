//! Genotyping: haplotype likelihoods → variant calls.
//!
//! Each assembled alternative haplotype is decomposed into variants by
//! aligning it against the reference window; every variant is then genotyped
//! diploidly from the pair-HMM read likelihoods of the reference and
//! alternative haplotypes.

use crate::assembly::assemble;
use crate::pairhmm::{HmmJob, HmmParams, PairHmmBatch};
use gpf_align::sw::{fit_align, Scoring};
use gpf_formats::base::rank4;
use gpf_formats::cigar::CigarOp;
use gpf_formats::sam::SamRecord;
use gpf_formats::vcf::{Genotype, VcfRecord};
use gpf_formats::{GenomeInterval, ReferenceGenome};

/// Minimum Phred-scaled call quality to emit.
const MIN_CALL_QUAL: f64 = 30.0;
/// Window padding around the active region.
pub const WINDOW_PAD: u64 = 70;
/// Cap on reads fed to the pair-HMM per region. GATK similarly downsamples
/// deep pileups (maxReadsPerAlignmentStart / region downsampling); 120 reads
/// are ample for diploid calls and bound the pair-HMM cost of 10000x hotspot
/// pileups (§4.4).
pub const MAX_READS: usize = 120;

/// A variant extracted from a haplotype-vs-reference alignment.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct RawVariant {
    /// 0-based reference position (anchor base for indels).
    pos: u64,
    ref_allele: Vec<u8>,
    alt_allele: Vec<u8>,
}

/// Extract variants by aligning `hap` to `ref_window`.
fn extract_variants(
    hap: &[u8],
    ref_window: &[u8],
    window_start: u64,
) -> Vec<RawVariant> {
    let len_diff = hap.len().abs_diff(ref_window.len());
    let scoring =
        Scoring { band: (len_diff + 20).max(24), gap_open: -4, gap_extend: -1, ..Scoring::default() };
    let hap_ranks: Vec<u8> = hap.iter().map(|&b| rank4(b)).collect();
    let win_ranks: Vec<u8> = ref_window.iter().map(|&b| rank4(b)).collect();
    let Some(aln) = fit_align(&hap_ranks, &win_ranks, 0, &scoring) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let base = window_start + aln.window_start as u64;
    for block in aln.cigar.walk() {
        let ref_pos = aln.window_start as u64 + block.ref_off;
        match block.op {
            CigarOp::Match => {
                for k in 0..block.len as u64 {
                    let h = hap[(block.read_off + k) as usize];
                    let r = ref_window[(ref_pos + k) as usize];
                    if h != r {
                        out.push(RawVariant {
                            pos: base + block.ref_off + k,
                            ref_allele: vec![r],
                            alt_allele: vec![h],
                        });
                    }
                }
            }
            CigarOp::Ins => {
                if block.ref_off == 0 {
                    continue; // no anchor available
                }
                let anchor = ref_window[(ref_pos - 1) as usize];
                let mut alt = vec![anchor];
                alt.extend_from_slice(
                    &hap[block.read_off as usize..(block.read_off + block.len as u64) as usize],
                );
                out.push(RawVariant {
                    pos: base + block.ref_off - 1,
                    ref_allele: vec![anchor],
                    alt_allele: alt,
                });
            }
            CigarOp::Del => {
                if block.ref_off == 0 {
                    continue;
                }
                let anchor = ref_window[(ref_pos - 1) as usize];
                let mut refa = vec![anchor];
                refa.extend_from_slice(
                    &ref_window[ref_pos as usize..(ref_pos + block.len as u64) as usize],
                );
                out.push(RawVariant {
                    pos: base + block.ref_off - 1,
                    ref_allele: refa,
                    alt_allele: vec![anchor],
                });
            }
            _ => {}
        }
    }
    out
}

/// log10(0.5·10^a + 0.5·10^b) computed stably.
fn log10_mean(a: f64, b: f64) -> f64 {
    let m = a.max(b);
    if m == f64::NEG_INFINITY {
        return m;
    }
    m + (0.5 * 10f64.powf(a - m) + 0.5 * 10f64.powf(b - m)).log10()
}

/// Call variants in one active region from its overlapping reads.
pub fn call_region(
    reads: &[&SamRecord],
    reference: &ReferenceGenome,
    region: GenomeInterval,
) -> Vec<VcfRecord> {
    let clen = reference.dict().length_of(region.contig);
    let window = region.padded(WINDOW_PAD, clen);
    let ref_window = reference.slice(window);

    // Assemble candidate haplotypes from the (downsampled) reads.
    let usable = &reads[..reads.len().min(MAX_READS)];
    if usable.is_empty() {
        return Vec::new();
    }
    let seqs: Vec<&[u8]> = usable.iter().map(|r| r.seq.as_slice()).collect();
    let haps = assemble(ref_window, &seqs);
    if haps.len() < 2 {
        return Vec::new();
    }

    let lik = read_likelihoods(usable, &haps, window.start);
    genotype(usable, &haps, &lik, ref_window, window)
}

/// The window of `hap` a read placed `off` bases into the region's window is
/// evaluated against, rather than the whole haplotype — the
/// free-start/free-end HMM gives identical likelihoods up to the windowing
/// pad, at a fraction of the DP cost (the same observation production
/// pair-HMMs exploit; the pad absorbs indel coordinate shifts).
fn hap_window(hap: &[u8], off: u64, read_len: usize) -> &[u8] {
    const HMM_PAD: u64 = 32;
    let lo = off.saturating_sub(HMM_PAD) as usize;
    let hi = ((off + read_len as u64 + HMM_PAD) as usize).min(hap.len());
    if lo >= hi {
        hap
    } else {
        &hap[lo..hi]
    }
}

/// Pair-HMM likelihood matrix `[read][haplotype]`.
///
/// One job per distinct (read, window): haplotypes that differ only outside
/// a read's window hand it the same bytes, so the same operations and the
/// same bits — the first occurrence is evaluated and `slot` points the
/// others at its result. The region's jobs run as one list, so the kernel
/// fills its lanes across reads as well as across haplotypes.
fn read_likelihoods(usable: &[&SamRecord], haps: &[Vec<u8>], window_start: u64) -> Vec<Vec<f64>> {
    let mut jobs: Vec<HmmJob<'_>> = Vec::new();
    let mut slot: Vec<usize> = Vec::with_capacity(usable.len() * haps.len());
    for r in usable {
        let first = jobs.len();
        for h in haps {
            let hap = hap_window(h, r.pos.saturating_sub(window_start), r.seq.len());
            let seen = jobs[first..].iter().position(|j| j.hap == hap);
            slot.push(seen.map_or(jobs.len(), |p| first + p));
            if seen.is_none() {
                jobs.push(HmmJob { read: &r.seq, qual: &r.qual, hap });
            }
        }
    }
    if gpf_trace::enabled() {
        let shared = (slot.len() - jobs.len()) as u64;
        gpf_trace::counter(gpf_trace::names::PAIRHMM_SHARED_WINDOWS).add(shared);
    }
    let results = PairHmmBatch::new(HmmParams::default()).run(&jobs);
    slot.chunks(haps.len()).map(|row| row.iter().map(|&k| results[k]).collect()).collect()
}

/// Decompose the alternative haplotypes into variants and genotype each
/// from the likelihood matrix `lik[read][haplotype]`.
fn genotype(
    usable: &[&SamRecord],
    haps: &[Vec<u8>],
    lik: &[Vec<f64>],
    ref_window: &[u8],
    window: GenomeInterval,
) -> Vec<VcfRecord> {
    // Variants per alternative haplotype (haplotype 0 is the reference).
    let mut out: Vec<VcfRecord> = Vec::new();
    let mut seen: std::collections::HashSet<RawVariant> = std::collections::HashSet::new();
    for (hi, hap) in haps.iter().enumerate().skip(1) {
        for v in extract_variants(hap, ref_window, window.start) {
            if !seen.insert(v.clone()) {
                continue;
            }
            // Diploid genotype likelihoods against this haplotype.
            let mut gl_homref = 0.0f64;
            let mut gl_het = 0.0f64;
            let mut gl_homalt = 0.0f64;
            for row in lik {
                let l_ref = row[0];
                let l_alt = row[hi];
                gl_homref += l_ref;
                gl_het += log10_mean(l_ref, l_alt);
                gl_homalt += l_alt;
            }
            let (best_gl, genotype) = [
                (gl_het, Genotype::Het),
                (gl_homalt, Genotype::HomAlt),
            ]
            .into_iter()
            .max_by(|a, b| a.0.total_cmp(&b.0))
            .unwrap_or((gl_het, Genotype::Het));
            let qual = 10.0 * (best_gl - gl_homref);
            if qual < MIN_CALL_QUAL || best_gl <= gl_homref {
                continue;
            }
            let depth = usable
                .iter()
                .filter(|r| r.pos <= v.pos && r.ref_end() > v.pos)
                .count() as u32;
            out.push(VcfRecord {
                contig: window.contig,
                pos: v.pos,
                ref_allele: v.ref_allele,
                alt_allele: v.alt_allele,
                qual,
                genotype,
                depth,
            });
        }
    }
    out.sort_by(|a, b| (a.pos, &a.alt_allele).cmp(&(b.pos, &b.alt_allele)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpf_formats::sam::SamFlags;
    use gpf_formats::Cigar;

    fn reference() -> ReferenceGenome {
        let mut state = 0x13579u64;
        let seq: Vec<u8> = (0..2000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(17);
                b"ACGT"[(state >> 33) as usize % 4]
            })
            .collect();
        ReferenceGenome::from_contigs(vec![("chr1", seq)])
    }

    /// A clean mapped read copied from `seq_src` at haplotype offset,
    /// reported at reference position `ref_pos`.
    fn read_from(name: &str, seq: Vec<u8>, ref_pos: u64) -> SamRecord {
        let n = seq.len();
        SamRecord {
            name: name.into(),
            flags: SamFlags::default(),
            contig: 0,
            pos: ref_pos,
            mapq: 60,
            cigar: Cigar::from_ops(vec![(n as u32, CigarOp::Match)]),
            mate_contig: gpf_formats::sam::NO_CONTIG,
            mate_pos: 0,
            tlen: 0,
            seq,
            qual: vec![b'F'; n],
            read_group: 1,
            edit_distance: 0,
        }
    }

    /// Tile reads of `read_len` over a haplotype that replaces the reference
    /// in [start, start+hap_len).
    fn tile(hap: &[u8], ref_start: u64, n: usize, read_len: usize, tag: &str) -> Vec<SamRecord> {
        (0..n)
            .map(|i| {
                let off = (i * 13) % (hap.len() - read_len);
                read_from(
                    &format!("{tag}{i}"),
                    hap[off..off + read_len].to_vec(),
                    ref_start + off as u64,
                )
            })
            .collect()
    }

    fn region() -> GenomeInterval {
        GenomeInterval::new(0, 950, 1050)
    }

    #[test]
    fn hom_snv_is_called() {
        let r = reference();
        let mut hap = r.contig_seq(0)[900..1100].to_vec();
        hap[100] = if hap[100] == b'A' { b'G' } else { b'A' }; // ref pos 1000
        let records = tile(&hap, 900, 20, 80, "h");
        let reads: Vec<&SamRecord> = records.iter().collect();
        let calls = call_region(&reads, &r, region());
        assert_eq!(calls.len(), 1, "calls: {calls:?}");
        let v = &calls[0];
        assert_eq!(v.pos, 1000);
        assert_eq!(v.alt_allele, vec![hap[100]]);
        assert_eq!(v.genotype, Genotype::HomAlt);
        assert!(v.qual >= MIN_CALL_QUAL);
        assert!(v.depth > 5);
    }

    #[test]
    fn het_snv_is_called_het() {
        let r = reference();
        let refhap = r.contig_seq(0)[900..1100].to_vec();
        let mut althap = refhap.clone();
        althap[100] = if althap[100] == b'C' { b'T' } else { b'C' };
        let mut records = tile(&refhap, 900, 12, 80, "r");
        records.extend(tile(&althap, 900, 12, 80, "a"));
        let reads: Vec<&SamRecord> = records.iter().collect();
        let calls = call_region(&reads, &r, region());
        assert_eq!(calls.len(), 1, "calls: {calls:?}");
        assert_eq!(calls[0].genotype, Genotype::Het);
        assert_eq!(calls[0].pos, 1000);
    }

    #[test]
    fn deletion_is_called_with_anchor_alleles() {
        let r = reference();
        let refseq = r.contig_seq(0);
        let mut hap = refseq[900..1000].to_vec();
        hap.extend_from_slice(&refseq[1005..1105]); // 5bp deletion at 1000
        let records = tile(&hap, 900, 20, 80, "d");
        let reads: Vec<&SamRecord> = records.iter().collect();
        let calls = call_region(&reads, &r, region());
        assert_eq!(calls.len(), 1, "calls: {calls:?}");
        let v = &calls[0];
        assert_eq!(v.pos, 999, "anchor base before the deletion");
        assert_eq!(v.ref_allele.len(), 6);
        assert_eq!(v.alt_allele.len(), 1);
        assert_eq!(v.ref_allele[0], v.alt_allele[0]);
    }

    #[test]
    fn insertion_is_called() {
        let r = reference();
        let refseq = r.contig_seq(0);
        let mut hap = refseq[900..1000].to_vec();
        hap.extend_from_slice(b"GTC");
        hap.extend_from_slice(&refseq[1000..1100]);
        let records = tile(&hap, 900, 20, 80, "i");
        let reads: Vec<&SamRecord> = records.iter().collect();
        let calls = call_region(&reads, &r, region());
        assert_eq!(calls.len(), 1, "calls: {calls:?}");
        let v = &calls[0];
        assert_eq!(v.pos, 999);
        assert_eq!(v.alt_allele.len(), 4);
        assert_eq!(v.ref_allele.len(), 1);
    }

    #[test]
    fn clean_reads_produce_no_calls() {
        let r = reference();
        let hap = r.contig_seq(0)[900..1100].to_vec();
        let records = tile(&hap, 900, 16, 80, "c");
        let reads: Vec<&SamRecord> = records.iter().collect();
        let calls = call_region(&reads, &r, region());
        assert!(calls.is_empty(), "{calls:?}");
    }

    #[test]
    fn lone_erroneous_read_is_not_called() {
        let r = reference();
        let refhap = r.contig_seq(0)[900..1100].to_vec();
        let mut records = tile(&refhap, 900, 15, 80, "c");
        let mut noisy = refhap[60..140].to_vec();
        noisy[40] = if noisy[40] == b'G' { b'A' } else { b'G' };
        records.push(read_from("noise", noisy, 960));
        let reads: Vec<&SamRecord> = records.iter().collect();
        let calls = call_region(&reads, &r, region());
        assert!(calls.is_empty(), "singleton error must be pruned: {calls:?}");
    }

    #[test]
    fn empty_region_returns_nothing() {
        let r = reference();
        let calls = call_region(&[], &r, region());
        assert!(calls.is_empty());
    }

    #[test]
    fn windows_shared_between_haplotypes_change_no_call() {
        // Two SNVs 60 bases apart, one on every read and one on half of
        // them: three haplotypes, and 40-base reads whose ±32-base windows
        // reach one SNV, both or neither — so most reads see the same bytes
        // in two or all three.
        let r = reference();
        let mut hom = r.contig_seq(0)[900..1100].to_vec();
        hom[70] = if hom[70] == b'A' { b'G' } else { b'A' }; // ref pos 970
        let mut both = hom.clone();
        both[130] = if both[130] == b'C' { b'T' } else { b'C' }; // ref pos 1030
        let mut records = tile(&hom, 900, 24, 40, "h");
        records.extend(tile(&both, 900, 24, 40, "b"));
        let reads: Vec<&SamRecord> = records.iter().collect();
        let calls = call_region(&reads, &r, region());
        assert_eq!(calls.iter().map(|v| v.pos).collect::<Vec<_>>(), vec![970, 1030]);

        // The same region with every (read, haplotype) pair evaluated on its
        // own: one job per `run` call, so no window is shared and no lane
        // has a neighbour.
        let window = region().padded(WINDOW_PAD, 2000);
        let seqs: Vec<&[u8]> = reads.iter().map(|r| r.seq.as_slice()).collect();
        let haps = assemble(r.slice(window), &seqs);
        assert!(haps.len() >= 3, "{} haplotypes", haps.len());
        let windows = |rec: &SamRecord| -> Vec<&[u8]> {
            haps.iter().map(|h| hap_window(h, rec.pos - window.start, rec.seq.len())).collect()
        };
        let shared =
            reads.iter().filter(|rec| windows(rec)[1..].contains(&windows(rec)[0])).count();
        assert!(shared >= 10, "only {shared} reads share a window between haplotypes");
        let mut batch = PairHmmBatch::new(HmmParams::default());
        let separately: Vec<Vec<f64>> = reads
            .iter()
            .map(|rec| {
                windows(rec)
                    .into_iter()
                    .map(|hap| batch.run(&[HmmJob { read: &rec.seq, qual: &rec.qual, hap }])[0])
                    .collect()
            })
            .collect();
        assert_eq!(calls, genotype(&reads, &haps, &separately, r.slice(window), window));
    }
}
