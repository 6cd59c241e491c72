//! The hash-map active-region finder, kept verbatim as the executable oracle.
//!
//! This is `gpf_caller::activeregion::find_active_regions` as it stood
//! before the position-indexed pileup: one `HashMap<(contig, pos), Pileup>`
//! entry per covered locus, probed once per aligned base. It lives under
//! `tests/` only, so the library carries one implementation and
//! `activeregion_differential.rs` pins that one to this — the same regions
//! in the same order. It reads the library's thresholds, so the two sides
//! cannot drift apart on one.

use gpf_caller::activeregion::{MAX_REGION_LEN, MIN_DEPTH, MIN_EVIDENCE_FRAC, PAD};
use gpf_formats::cigar::CigarOp;
use gpf_formats::genome::merge_intervals;
use gpf_formats::sam::SamRecord;
use gpf_formats::{GenomeInterval, ReferenceGenome};
use std::collections::HashMap;

/// Per-locus pileup counters.
#[derive(Debug, Clone, Copy, Default)]
struct Pileup {
    depth: u32,
    mismatches: u32,
    indels: u32,
}

/// Find active regions over (sorted or unsorted) records.
pub fn find_active_regions(
    records: &[SamRecord],
    reference: &ReferenceGenome,
) -> Vec<GenomeInterval> {
    // Sparse pileup keyed by (contig, pos) — regions are rare, genomes big.
    let mut pile: HashMap<(u32, u64), Pileup> = HashMap::new();
    for r in records {
        if !r.flags.is_mapped() || r.flags.is_duplicate() || !r.flags.is_primary() {
            continue;
        }
        let refseq = reference.contig_seq(r.contig);
        for block in r.cigar.walk() {
            match block.op {
                CigarOp::Match | CigarOp::Equal | CigarOp::Diff => {
                    for k in 0..block.len as u64 {
                        let ref_i = r.pos + block.ref_off + k;
                        if ref_i as usize >= refseq.len() {
                            break;
                        }
                        let read_b = r.seq[(block.read_off + k) as usize];
                        let p = pile.entry((r.contig, ref_i)).or_default();
                        p.depth += 1;
                        if read_b != b'N' && read_b != refseq[ref_i as usize] {
                            p.mismatches += 1;
                        }
                    }
                }
                CigarOp::Ins | CigarOp::Del => {
                    let ref_i = r.pos + block.ref_off;
                    let p = pile.entry((r.contig, ref_i)).or_default();
                    p.indels += 1;
                    if block.op == CigarOp::Del {
                        for k in 0..block.len as u64 {
                            let p = pile.entry((r.contig, ref_i + k)).or_default();
                            p.depth += 1;
                        }
                    }
                }
                _ => {}
            }
        }
    }

    let mut active: Vec<GenomeInterval> = Vec::new();
    for ((contig, pos), p) in &pile {
        if p.depth < MIN_DEPTH {
            continue;
        }
        let evidence = p.mismatches as f64 + 2.0 * p.indels as f64;
        if evidence / p.depth as f64 >= MIN_EVIDENCE_FRAC {
            let clen = reference.dict().length_of(*contig);
            active.push(GenomeInterval::new(*contig, *pos, pos + 1).padded(PAD, clen));
        }
    }
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
