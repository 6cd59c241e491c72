//! SNAP-like hash-table aligner — the baseline integrated by Persona (§5.2.3).
//!
//! SNAP trades memory for speed: instead of an FM-index it builds a dense
//! hash table from fixed-length k-mers ("seeds") to genome locations, looks
//! up a handful of seeds per read, and verifies candidate locations
//! directly. Persona uses it single-end; the paper's Figure 11(d) compares
//! its throughput against GPF's paired-end BWA.

use crate::sw::Scoring;
use crate::verify::{rank_votes, verify_at, vote, OrientedRead, Placement};
use gpf_formats::base::rank4;
use gpf_formats::sam::SamRecord;
use gpf_formats::ReferenceGenome;
use std::collections::HashMap;

/// SNAP-style aligner options.
#[derive(Debug, Clone)]
pub struct SnapOptions {
    /// Seed (k-mer) length; SNAP's default is 20.
    pub seed_len: usize,
    /// Stride between indexed genome positions.
    pub index_stride: usize,
    /// Seeds looked up per read.
    pub seeds_per_read: usize,
    /// Hash buckets larger than this are skipped (repeat filter).
    pub max_bucket: usize,
    /// Candidate locations verified per read.
    pub max_candidates: usize,
    /// Extension scoring.
    pub scoring: Scoring,
    /// Minimum fraction of the perfect score to accept.
    pub min_score_frac: f64,
}

impl Default for SnapOptions {
    fn default() -> Self {
        Self {
            seed_len: 20,
            index_stride: 1,
            seeds_per_read: 8,
            max_bucket: 32,
            max_candidates: 6,
            scoring: Scoring::default(),
            min_score_frac: 0.4,
        }
    }
}

/// The hash-based aligner.
pub struct SnapAligner {
    table: HashMap<u64, Vec<u32>>,
    /// The concatenated genome as 0..=3 ranks (what verification compares).
    text: Vec<u8>,
    contig_offsets: Vec<u64>,
    contig_lengths: Vec<u64>,
    opts: SnapOptions,
}

/// Pack a k-mer (ACGT only) into a u64; `None` if it contains other bases.
fn pack_kmer(kmer: &[u8]) -> Option<u64> {
    debug_assert!(kmer.len() <= 31);
    let mut v = 1u64; // leading 1 guards length
    for &b in kmer {
        if !matches!(b, b'A' | b'C' | b'G' | b'T') {
            return None;
        }
        v = (v << 2) | rank4(b) as u64;
    }
    Some(v)
}

impl SnapAligner {
    /// Build the seed table over the reference.
    pub fn new(reference: &ReferenceGenome) -> Self {
        Self::with_options(reference, SnapOptions::default())
    }

    /// Build with explicit options.
    pub fn with_options(reference: &ReferenceGenome, opts: SnapOptions) -> Self {
        let (mut text, contig_offsets) = reference.concatenated();
        let contig_lengths = reference.dict().lengths();
        let mut table: HashMap<u64, Vec<u32>> = HashMap::new();
        let k = opts.seed_len;
        let mut pos = 0usize;
        while pos + k <= text.len() {
            if let Some(key) = pack_kmer(&text[pos..pos + k]) {
                let bucket = table.entry(key).or_default();
                if bucket.len() <= opts.max_bucket {
                    bucket.push(pos as u32);
                }
            }
            pos += opts.index_stride;
        }
        for b in &mut text {
            *b = rank4(*b);
        }
        Self { table, text, contig_offsets, contig_lengths, opts }
    }

    /// Approximate index memory footprint in bytes (SNAP's hash index is
    /// several times larger than an FM-index — visible in reports).
    pub fn index_bytes(&self) -> usize {
        self.table.len() * 16 + self.table.values().map(|v| v.len() * 4).sum::<usize>()
    }

    /// Align a single-end read.
    pub fn align_read(&self, name: &str, seq: &[u8], qual: &[u8]) -> SamRecord {
        let k = self.opts.seed_len;
        let mut read = OrientedRead::default();
        let mut votes: Vec<(i64, u32)> = Vec::new();
        let mut best: Option<Placement> = None;
        let mut second_score = i32::MIN;
        for reverse in [false, true] {
            if seq.len() < k {
                continue;
            }
            read.load(seq, reverse);
            // Vote on diagonals from a few seeds.
            votes.clear();
            let stride = ((seq.len() - k) / self.opts.seeds_per_read.max(1)).max(1);
            for off in (0..=seq.len() - k).step_by(stride) {
                let key = pack_kmer(&read.seq()[off..off + k]);
                let Some(bucket) = key.and_then(|key| self.table.get(&key)) else {
                    continue;
                };
                if bucket.len() <= self.opts.max_bucket {
                    for &hit in bucket {
                        vote(&mut votes, hit, off);
                    }
                }
            }
            rank_votes(&mut votes);
            for &(diag, _) in votes.iter().take(self.opts.max_candidates) {
                let Some(cand) = self.verify(&read, diag.max(0) as u64, reverse) else {
                    continue;
                };
                match &best {
                    Some(b) if cand.aln.score <= b.aln.score => {
                        second_score = second_score.max(cand.aln.score);
                    }
                    _ => {
                        if let Some(b) = &best {
                            second_score = second_score.max(b.aln.score);
                        }
                        best = Some(cand);
                    }
                }
            }
        }
        let Some(best) = best else {
            return SamRecord::unmapped(name, seq.to_vec(), qual.to_vec());
        };
        let mapq = if second_score == i32::MIN {
            60
        } else {
            (((best.aln.score - second_score) * 6).clamp(0, 60)) as u8
        };
        best.into_record(name, seq, qual, mapq)
    }

    fn verify(&self, read: &OrientedRead, text_start: u64, reverse: bool) -> Option<Placement> {
        // Resolve contig.
        let idx = self.contig_offsets.partition_point(|&o| o <= text_start) - 1;
        let base = self.contig_offsets[idx] as usize;
        let contig_ranks = &self.text[base..base + self.contig_lengths[idx] as usize];
        let (pos, aln) = verify_at(
            read,
            contig_ranks,
            text_start as usize - base,
            16,
            self.opts.min_score_frac,
            &self.opts.scoring,
        )?;
        Some(Placement { contig: idx as u32, pos, reverse, aln })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpf_formats::base::reverse_complement;
    use gpf_formats::quality::phred_to_char;

    fn reference() -> ReferenceGenome {
        let mut state = 0xabcdefu64;
        let mut gen = |n: usize| -> Vec<u8> {
            (0..n)
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(7);
                    b"ACGT"[(state >> 33) as usize % 4]
                })
                .collect()
        };
        ReferenceGenome::from_contigs(vec![("chr1", gen(5000))])
    }

    fn quals(n: usize) -> Vec<u8> {
        vec![phred_to_char(35); n]
    }

    #[test]
    fn aligns_exact_reads() {
        let r = reference();
        let snap = SnapAligner::new(&r);
        for start in [0usize, 777, 2500, 4900 - 100] {
            let read = r.contig_seq(0)[start..start + 100].to_vec();
            let rec = snap.align_read("s", &read, &quals(100));
            assert!(rec.flags.is_mapped(), "start {start}");
            assert_eq!(rec.pos, start as u64, "start {start}");
            assert_eq!(rec.edit_distance, 0);
        }
    }

    #[test]
    fn aligns_reverse_reads() {
        let r = reference();
        let snap = SnapAligner::new(&r);
        let read = reverse_complement(&r.contig_seq(0)[1200..1300]);
        let rec = snap.align_read("rev", &read, &quals(100));
        assert!(rec.flags.is_mapped());
        assert!(rec.flags.is_reverse());
        assert_eq!(rec.pos, 1200);
    }

    #[test]
    fn tolerates_scattered_mismatches() {
        let r = reference();
        let snap = SnapAligner::new(&r);
        let mut read = r.contig_seq(0)[3000..3100].to_vec();
        read[50] = if read[50] == b'A' { b'T' } else { b'A' };
        let rec = snap.align_read("mm", &read, &quals(100));
        assert!(rec.flags.is_mapped());
        assert_eq!(rec.pos, 3000);
        assert_eq!(rec.edit_distance, 1);
    }

    #[test]
    fn unalignable_read_is_unmapped() {
        let r = reference();
        let snap = SnapAligner::new(&r);
        let read: Vec<u8> = (0..100).map(|i| if i % 2 == 0 { b'A' } else { b'C' }).collect();
        let rec = snap.align_read("junk", &read, &quals(100));
        assert!(!rec.flags.is_mapped() || rec.edit_distance > 20);
    }

    #[test]
    fn index_reports_nonzero_footprint() {
        let r = reference();
        let snap = SnapAligner::new(&r);
        assert!(snap.index_bytes() > 5000 * 2, "dense index: {}", snap.index_bytes());
    }

    #[test]
    fn pack_kmer_rejects_n() {
        assert!(pack_kmer(b"ACGTN").is_none());
        assert!(pack_kmer(b"ACGT").is_some());
        assert_ne!(pack_kmer(b"ACGT"), pack_kmer(b"ACGA"));
        // Leading-1 guard distinguishes lengths.
        assert_ne!(pack_kmer(b"A"), pack_kmer(b"AA"));
    }
}
