//! Test-side oracle: the hash-map BQSR table exactly as it shipped before
//! the dense-table rewrite (ROADMAP 2d: oracles live under `tests/`, not
//! `src/`). Everything below the imports is that implementation verbatim;
//! the differential battery in `bqsr_differential.rs` holds the shipped
//! table to it count for count, quality for quality and byte for byte.
#![allow(dead_code)]

use gpf_compress::{ByteReader, ByteWriter, CodecError, GpfSerialize};
use gpf_formats::cigar::CigarOp;
use gpf_formats::quality::{char_to_phred, phred_to_char};
use gpf_formats::sam::SamRecord;
use gpf_formats::vcf::VcfRecord;
use gpf_formats::ReferenceGenome;
use std::collections::{HashMap, HashSet};

/// Cycle bucket width (cycles 0-4 -> bucket 0, ...).
const CYCLE_BUCKET: u64 = 5;
/// Minimum observations before a sub-table contributes a delta.
const MIN_OBS: u64 = 20;

/// Error/observation counts per covariate combination.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecalTable {
    /// (read group, reported quality) -> (mismatches, observations).
    pub rg_q: HashMap<(u16, u8), (u64, u64)>,
    /// (read group, reported quality, cycle bucket) -> counts.
    pub cycle: HashMap<(u16, u8, u8), (u64, u64)>,
    /// (read group, reported quality, dinucleotide context) -> counts.
    pub context: HashMap<(u16, u8, u8), (u64, u64)>,
}

/// Phred of the Laplace-smoothed empirical error rate.
fn empirical_phred(mismatches: u64, observations: u64) -> f64 {
    let p = (mismatches as f64 + 1.0) / (observations as f64 + 2.0);
    -10.0 * p.log10()
}

/// Anchor rate re-smoothed at the sub-table's sample size, so a delta of
/// zero means "this covariate behaves like its parent" rather than being
/// biased by mismatched Laplace priors.
fn anchor_at_scale(anchor_m: u64, anchor_n: u64, sub_n: u64) -> f64 {
    if anchor_n == 0 {
        return empirical_phred(0, 0);
    }
    let scaled_m = anchor_m as f64 * sub_n as f64 / anchor_n as f64;
    let p = (scaled_m + 1.0) / (sub_n as f64 + 2.0);
    -10.0 * p.log10()
}

/// Positions masked from error counting: all bases touched by known variants.
pub fn known_sites_mask(known: &[VcfRecord]) -> HashSet<(u32, u64)> {
    let mut mask = HashSet::with_capacity(known.len() * 2);
    for v in known {
        for off in 0..v.ref_allele.len().max(1) as u64 {
            mask.insert((v.contig, v.pos + off));
        }
    }
    mask
}

/// Dinucleotide context code of the base at `i` in stored read order.
fn context_code(seq: &[u8], i: usize) -> u8 {
    let cur = gpf_formats::base::rank4(seq[i]);
    let prev = if i > 0 { gpf_formats::base::rank4(seq[i - 1]) } else { 0 };
    (prev << 2) | cur
}

impl RecalTable {
    /// Accumulate one record's aligned bases into the table.
    pub fn observe(
        &mut self,
        r: &SamRecord,
        reference: &ReferenceGenome,
        mask: &HashSet<(u32, u64)>,
    ) {
        if !r.flags.is_mapped() || !r.flags.is_primary() || r.flags.is_duplicate() {
            return;
        }
        let refseq = reference.contig_seq(r.contig);
        let read_len = r.seq.len() as u64;
        for block in r.cigar.walk() {
            if !matches!(block.op, CigarOp::Match | CigarOp::Equal | CigarOp::Diff) {
                continue;
            }
            for k in 0..block.len as u64 {
                let read_i = (block.read_off + k) as usize;
                let ref_i = (r.pos + block.ref_off + k) as usize;
                if ref_i >= refseq.len() {
                    break;
                }
                let base = r.seq[read_i];
                if base == b'N' || refseq[ref_i] == b'N' {
                    continue;
                }
                if mask.contains(&(r.contig, ref_i as u64)) {
                    continue;
                }
                let q = char_to_phred(r.qual[read_i]);
                let cycle = if r.flags.is_reverse() {
                    read_len - 1 - read_i as u64
                } else {
                    read_i as u64
                };
                let cycle_bucket = (cycle / CYCLE_BUCKET).min(255) as u8;
                let ctx = context_code(&r.seq, read_i);
                let miss = (base != refseq[ref_i]) as u64;
                let e = self.rg_q.entry((r.read_group, q)).or_insert((0, 0));
                e.0 += miss;
                e.1 += 1;
                let e = self.cycle.entry((r.read_group, q, cycle_bucket)).or_insert((0, 0));
                e.0 += miss;
                e.1 += 1;
                let e = self.context.entry((r.read_group, q, ctx)).or_insert((0, 0));
                e.0 += miss;
                e.1 += 1;
            }
        }
    }

    /// Merge another table into this one (associative + commutative — safe
    /// for tree aggregation).
    pub fn merge(&mut self, other: &RecalTable) {
        for (k, v) in &other.rg_q {
            let e = self.rg_q.entry(*k).or_insert((0, 0));
            e.0 += v.0;
            e.1 += v.1;
        }
        for (k, v) in &other.cycle {
            let e = self.cycle.entry(*k).or_insert((0, 0));
            e.0 += v.0;
            e.1 += v.1;
        }
        for (k, v) in &other.context {
            let e = self.context.entry(*k).or_insert((0, 0));
            e.0 += v.0;
            e.1 += v.1;
        }
    }

    /// Total bases observed.
    pub fn observations(&self) -> u64 {
        self.rg_q.values().map(|&(_, n)| n).sum()
    }

    /// Recalibrated quality for one base.
    pub fn recalibrate(&self, rg: u16, reported_q: u8, cycle_bucket: u8, ctx: u8) -> u8 {
        let Some(&(m, n)) = self.rg_q.get(&(rg, reported_q)) else {
            return reported_q;
        };
        if n < MIN_OBS {
            return reported_q;
        }
        let anchor = empirical_phred(m, n);
        let mut q = anchor;
        if let Some(&(cm, cn)) = self.cycle.get(&(rg, reported_q, cycle_bucket)) {
            if cn >= MIN_OBS {
                q += empirical_phred(cm, cn) - anchor_at_scale(m, n, cn);
            }
        }
        if let Some(&(xm, xn)) = self.context.get(&(rg, reported_q, ctx)) {
            if xn >= MIN_OBS {
                q += empirical_phred(xm, xn) - anchor_at_scale(m, n, xn);
            }
        }
        q.round().clamp(2.0, 93.0) as u8
    }
}

impl GpfSerialize for RecalTable {
    fn write(&self, w: &mut ByteWriter) {
        // Sorted entries keep the wire form deterministic.
        let mut rgq: Vec<_> = self.rg_q.iter().map(|(k, v)| (*k, *v)).collect();
        rgq.sort();
        let mut cyc: Vec<_> = self.cycle.iter().map(|(k, v)| (*k, *v)).collect();
        cyc.sort();
        let mut ctx: Vec<_> = self.context.iter().map(|(k, v)| (*k, *v)).collect();
        ctx.sort();
        w.write_u64(rgq.len() as u64);
        for ((rg, q), (m, n)) in rgq {
            w.write_u16(rg);
            w.write_u8(q);
            w.write_u64(m);
            w.write_u64(n);
        }
        for table in [cyc, ctx] {
            w.write_u64(table.len() as u64);
            for ((rg, q, k), (m, n)) in table {
                w.write_u16(rg);
                w.write_u8(q);
                w.write_u8(k);
                w.write_u64(m);
                w.write_u64(n);
            }
        }
    }

    fn read(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let mut out = RecalTable::default();
        let n = r.read_u64()? as usize;
        for _ in 0..n {
            let rg = r.read_u16()?;
            let q = r.read_u8()?;
            let m = r.read_u64()?;
            let obs = r.read_u64()?;
            out.rg_q.insert((rg, q), (m, obs));
        }
        for which in 0..2 {
            let n = r.read_u64()? as usize;
            for _ in 0..n {
                let rg = r.read_u16()?;
                let q = r.read_u8()?;
                let k = r.read_u8()?;
                let m = r.read_u64()?;
                let obs = r.read_u64()?;
                if which == 0 {
                    out.cycle.insert((rg, q, k), (m, obs));
                } else {
                    out.context.insert((rg, q, k), (m, obs));
                }
            }
        }
        Ok(out)
    }
}

/// Build a table over a record slice (one partition's gather pass).
pub fn build_recal_table(
    records: &[SamRecord],
    reference: &ReferenceGenome,
    known: &[VcfRecord],
) -> RecalTable {
    let mask = known_sites_mask(known);
    let mut table = RecalTable::default();
    for r in records {
        table.observe(r, reference, &mask);
    }
    table
}

/// Rewrite the qualities of `records` using `table`.
pub fn apply_recalibration(records: &mut [SamRecord], table: &RecalTable) {
    for r in records.iter_mut() {
        if !r.flags.is_mapped() {
            continue;
        }
        let read_len = r.seq.len() as u64;
        let quals: Vec<u8> = r
            .qual
            .iter()
            .enumerate()
            .map(|(i, &qc)| {
                let q = char_to_phred(qc);
                let cycle = if r.flags.is_reverse() {
                    read_len - 1 - i as u64
                } else {
                    i as u64
                };
                let bucket = (cycle / CYCLE_BUCKET).min(255) as u8;
                let ctx = context_code(&r.seq, i);
                phred_to_char(table.recalibrate(r.read_group, q, bucket, ctx))
            })
            .collect();
        r.qual = quals;
    }
}
