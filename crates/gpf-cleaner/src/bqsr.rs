//! Base Quality Score Recalibration (BQSR).
//!
//! Sequencers systematically mis-report base qualities as a function of
//! machine cycle and sequence context. BQSR measures the *empirical* error
//! rate per covariate combination — masking out known variant sites so real
//! variation is not counted as error — and rewrites each base's quality.
//!
//! Covariates follow GATK: read group, reported quality, machine cycle
//! (bucketed), and dinucleotide context. The model is hierarchical: the
//! (read group, quality) empirical rate anchors the estimate, and cycle /
//! context tables contribute deltas.
//!
//! Distribution note (§5.2.2 of the paper): the table is built per partition,
//! merged at the driver (`Collect` — the serial step the paper observed
//! slowing BQSR's parallel efficiency), and broadcast back with the known-
//! sites mask. [`RecalTable`] therefore implements [`GpfSerialize`] and
//! [`RecalTable::merge`].
//!
//! Data layout: the recalibrated quality depends only on (read group,
//! reported quality, cycle bucket, context) — a few thousand combinations
//! for millions of bases — so per-base work is array indexing. Counts sit
//! in dense per-read-group rows indexed by reported quality; the known-sites
//! mask is a sorted vector walked in step with each CIGAR block; and the
//! recalibrated quality of every combination is computed once per finished
//! table ([`RecalTable::finish`]) into a lookup table that
//! [`apply_recalibration`] reads. The wire form lists the non-empty counts in
//! key order and knows nothing of the layout.

use gpf_compress::{ByteReader, ByteWriter, CodecError, GpfSerialize};
use gpf_formats::cigar::CigarOp;
use gpf_formats::quality::{char_to_phred, is_valid_qual_char, phred_to_char, MAX_PHRED};
use gpf_formats::sam::SamRecord;
use gpf_formats::vcf::VcfRecord;
use gpf_formats::ReferenceGenome;
use std::sync::OnceLock;

/// Cycle bucket width (cycles 0-4 -> bucket 0, ...).
const CYCLE_BUCKET: usize = 5;
/// Highest cycle bucket; later cycles share it.
const MAX_BUCKET: usize = 255;
/// Dinucleotide contexts: previous base × current base.
const CONTEXTS: usize = 16;
/// Minimum observations before a sub-table contributes a delta.
const MIN_OBS: u64 = 20;

/// `(mismatches, observations)` of one covariate combination.
type Counts = (u64, u64);

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

/// Positions masked from error counting — every base touched by a known
/// variant — as sorted, deduplicated `(contig, pos)` pairs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KnownSitesMask(Vec<(u32, u64)>);

impl KnownSitesMask {
    /// The masked sites in `(contig, pos)` order.
    pub fn sites(&self) -> &[(u32, u64)] {
        &self.0
    }

    /// The masked sites at or after `(contig, pos)`.
    fn at_or_after(&self, contig: u32, pos: u64) -> &[(u32, u64)] {
        &self.0[self.0.partition_point(|&site| site < (contig, pos))..]
    }
}

/// Positions masked from error counting: all bases touched by known variants.
pub fn known_sites_mask(known: &[VcfRecord]) -> KnownSitesMask {
    let mut sites = Vec::with_capacity(known.len() * 2);
    for v in known {
        for off in 0..v.ref_allele.len().max(1) as u64 {
            sites.push((v.contig, v.pos.saturating_add(off)));
        }
    }
    sites.sort_unstable();
    sites.dedup();
    KnownSitesMask(sites)
}

/// Dinucleotide context code of the base at `i` in stored read order.
fn context_code(seq: &[u8], i: usize) -> usize {
    let cur = gpf_formats::base::rank4(seq[i]);
    let prev = if i > 0 { gpf_formats::base::rank4(seq[i - 1]) } else { 0 };
    ((prev << 2) | cur) as usize
}

/// Cycle bucket of the base at `i` in stored read order.
fn cycle_bucket(read_len: usize, i: usize, reverse: bool) -> usize {
    let cycle = if reverse { read_len - 1 - i } else { i };
    (cycle / CYCLE_BUCKET).min(MAX_BUCKET)
}

/// BQSR walks `seq`, `qual` and the CIGAR in lock step. SAM text can carry a
/// mapped record where they disagree (`QUAL` of `*`, a CIGAR longer than
/// `SEQ`, bytes outside Phred+33); such a record is neither counted nor
/// rewritten, instead of being indexed out of bounds.
fn is_well_formed(r: &SamRecord) -> bool {
    r.qual.len() == r.seq.len()
        && r.cigar.read_len() <= r.seq.len() as u64
        && r.qual.iter().all(|&c| is_valid_qual_char(c))
}

/// Per-read-group rows indexed by reported quality, sorted by read group.
/// The count table and the lookup table built from it share this shape.
#[derive(Debug, Clone)]
struct Groups<R>(Vec<(u16, Vec<R>)>);

impl<R> Default for Groups<R> {
    fn default() -> Self {
        Groups(Vec::new())
    }
}

impl<R> Groups<R> {
    fn rows(&self, read_group: u16) -> Option<&[R]> {
        let at = self.0.binary_search_by_key(&read_group, |g| g.0).ok()?;
        Some(&self.0[at].1)
    }

    fn rows_mut(&mut self, read_group: u16) -> &mut Vec<R> {
        let at = match self.0.binary_search_by_key(&read_group, |g| g.0) {
            Ok(at) => at,
            Err(at) => {
                self.0.insert(at, (read_group, Vec::new()));
                at
            }
        };
        &mut self.0[at].1
    }
}

/// `slots[i]`, growing `slots` with empty entries to hold it.
fn slot<T: Default>(slots: &mut Vec<T>, i: usize) -> &mut T {
    if i >= slots.len() {
        slots.resize_with(i + 1, T::default);
    }
    &mut slots[i]
}

fn add(into: &mut Counts, from: Counts) {
    into.0 += from.0;
    into.1 += from.1;
}

/// Non-empty entries of a sub-table with their index.
fn non_empty(counts: &[Counts]) -> impl Iterator<Item = (u8, Counts)> + Clone + '_ {
    // Sub-tables hold at most 256 entries, so the index fits the wire's u8.
    counts.iter().enumerate().filter(|(_, c)| **c != (0, 0)).map(|(k, c)| (k as u8, *c))
}

/// Counts of one (read group, reported quality).
#[derive(Debug, Clone, Default)]
struct QualityRow {
    total: Counts,
    /// Indexed by cycle bucket; grown to the largest bucket seen.
    cycle: Vec<Counts>,
    context: [Counts; CONTEXTS],
}

impl QualityRow {
    fn merge(&mut self, other: &QualityRow) {
        add(&mut self.total, other.total);
        if self.cycle.len() < other.cycle.len() {
            self.cycle.resize(other.cycle.len(), (0, 0));
        }
        for (a, b) in self.cycle.iter_mut().zip(&other.cycle) {
            add(a, *b);
        }
        for (a, b) in self.context.iter_mut().zip(&other.context) {
            add(a, *b);
        }
    }
}

/// Recalibrated qualities of one (read group, reported quality): one entry
/// per (cycle bucket, context), plus a trailing "no such bucket" row and
/// "no such context" column that carry no delta. Empty when the row is
/// below the observation floor and the reported quality stands.
#[derive(Debug, Clone, Default)]
struct LutRow {
    buckets: usize,
    quals: Vec<u8>,
}

impl LutRow {
    fn build(row: &QualityRow) -> LutRow {
        let (m, n) = row.total;
        if n < MIN_OBS {
            return LutRow::default();
        }
        let anchor = empirical_phred(m, n);
        let delta = |&(sub_m, sub_n): &Counts| {
            (sub_n >= MIN_OBS).then(|| empirical_phred(sub_m, sub_n) - anchor_at_scale(m, n, sub_n))
        };
        let cycle: Vec<Option<f64>> = row.cycle.iter().map(delta).chain([None]).collect();
        let context: Vec<Option<f64>> = row.context.iter().map(delta).chain([None]).collect();
        let mut quals = Vec::with_capacity(cycle.len() * context.len());
        for cycle_delta in &cycle {
            for context_delta in &context {
                let mut q = anchor;
                if let Some(d) = cycle_delta {
                    q += d;
                }
                if let Some(d) = context_delta {
                    q += d;
                }
                quals.push(q.round().clamp(2.0, 93.0) as u8);
            }
        }
        LutRow { buckets: row.cycle.len(), quals }
    }

    fn get(&self, bucket: usize, ctx: usize) -> Option<u8> {
        self.quals.get(bucket.min(self.buckets) * (CONTEXTS + 1) + ctx.min(CONTEXTS)).copied()
    }
}

#[cfg(test)]
thread_local! {
    /// Lookup tables built on this thread (the at-most-once-per-job check).
    static LUT_BUILDS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

fn build_lut(counts: &Groups<QualityRow>) -> Groups<LutRow> {
    #[cfg(test)]
    LUT_BUILDS.with(|n| n.set(n.get() + 1));
    Groups(
        counts.0.iter().map(|(rg, rows)| (*rg, rows.iter().map(LutRow::build).collect())).collect(),
    )
}

/// Error/observation counts per covariate combination.
#[derive(Debug, Clone, Default)]
pub struct RecalTable {
    counts: Groups<QualityRow>,
    /// Recalibrated qualities of `counts`; dropped whenever they change.
    lut: OnceLock<Groups<LutRow>>,
}

impl RecalTable {
    fn rows(&self) -> impl Iterator<Item = (u16, u8, &QualityRow)> + Clone + '_ {
        // Rows are indexed by a u8 quality, so the index fits.
        self.counts
            .0
            .iter()
            .flat_map(|(rg, rows)| rows.iter().enumerate().map(move |(q, row)| (*rg, q as u8, row)))
    }

    /// Non-empty `(read group, reported quality) -> (mismatches,
    /// observations)` entries in key order.
    pub fn rg_q_counts(&self) -> impl Iterator<Item = ((u16, u8), Counts)> + Clone + '_ {
        self.rows()
            .filter(|(_, _, row)| row.total != (0, 0))
            .map(|(rg, q, row)| ((rg, q), row.total))
    }

    /// Non-empty `(read group, reported quality, cycle bucket) -> counts`
    /// entries in key order.
    pub fn cycle_counts(&self) -> impl Iterator<Item = ((u16, u8, u8), Counts)> + Clone + '_ {
        self.rows()
            .flat_map(|(rg, q, row)| non_empty(&row.cycle).map(move |(k, c)| ((rg, q, k), c)))
    }

    /// Non-empty `(read group, reported quality, dinucleotide context) ->
    /// counts` entries in key order.
    pub fn context_counts(&self) -> impl Iterator<Item = ((u16, u8, u8), Counts)> + Clone + '_ {
        self.rows()
            .flat_map(|(rg, q, row)| non_empty(&row.context).map(move |(k, c)| ((rg, q, k), c)))
    }

    /// Accumulate one record's aligned bases into the table.
    pub fn observe(&mut self, r: &SamRecord, reference: &ReferenceGenome, mask: &KnownSitesMask) {
        if !r.flags.is_mapped()
            || !r.flags.is_primary()
            || r.flags.is_duplicate()
            || r.contig as usize >= reference.dict().len()
            || !is_well_formed(r)
        {
            return;
        }
        self.lut.take();
        let refseq = reference.contig_seq(r.contig);
        let read_len = r.seq.len();
        let reverse = r.flags.is_reverse();
        let rows = self.counts.rows_mut(r.read_group);
        for block in r.cigar.walk() {
            if !matches!(block.op, CigarOp::Match | CigarOp::Equal | CigarOp::Diff) {
                continue;
            }
            let ref_start = r.pos.saturating_add(block.ref_off);
            // Past the contig end; so is every later block.
            let Some(ref_bases) = refseq.get(ref_start as usize..) else { break };
            let mut masked = mask.at_or_after(r.contig, ref_start);
            let read_start = block.read_off as usize;
            for (k, &ref_base) in ref_bases.iter().take(block.len as usize).enumerate() {
                // Sites ascend with `k`, so the mask is walked, not searched.
                if masked.first() == Some(&(r.contig, ref_start + k as u64)) {
                    masked = &masked[1..];
                    continue;
                }
                let read_i = read_start + k;
                let base = r.seq[read_i];
                if base == b'N' || ref_base == b'N' {
                    continue;
                }
                let miss = (base != ref_base) as u64;
                let row = slot(rows, char_to_phred(r.qual[read_i]) as usize);
                add(&mut row.total, (miss, 1));
                add(slot(&mut row.cycle, cycle_bucket(read_len, read_i, reverse)), (miss, 1));
                add(&mut row.context[context_code(&r.seq, read_i)], (miss, 1));
            }
        }
    }

    /// Merge another table into this one (associative + commutative — safe
    /// for tree aggregation).
    pub fn merge(&mut self, other: &RecalTable) {
        self.lut.take();
        for (rg, theirs) in &other.counts.0 {
            let rows = self.counts.rows_mut(*rg);
            if rows.len() < theirs.len() {
                rows.resize_with(theirs.len(), QualityRow::default);
            }
            for (a, b) in rows.iter_mut().zip(theirs) {
                a.merge(b);
            }
        }
    }

    /// Total bases observed.
    pub fn observations(&self) -> u64 {
        self.rg_q_counts().map(|(_, (_, n))| n).sum()
    }

    fn lut(&self) -> &Groups<LutRow> {
        self.lut.get_or_init(|| build_lut(&self.counts))
    }

    /// Compute the recalibrated quality of every covariate combination now.
    /// The driver calls this on the merged table before broadcasting it, so
    /// the job pays for it once; a table that skipped it computes the same
    /// on first use.
    pub fn finish(&self) {
        self.lut();
    }

    /// Recalibrated quality for one base.
    pub fn recalibrate(&self, rg: u16, reported_q: u8, cycle_bucket: u8, ctx: u8) -> u8 {
        self.lut()
            .rows(rg)
            .and_then(|rows| {
                rows.get(reported_q as usize)?.get(cycle_bucket as usize, ctx as usize)
            })
            .unwrap_or(reported_q)
    }
}

/// Tables are equal when they hold the same counts, whatever spare capacity
/// their rows grew and whether or not either has been finished.
impl PartialEq for RecalTable {
    fn eq(&self, other: &Self) -> bool {
        self.rg_q_counts().eq(other.rg_q_counts())
            && self.cycle_counts().eq(other.cycle_counts())
            && self.context_counts().eq(other.context_counts())
    }
}

impl Eq for RecalTable {}

fn write_sub_table(
    w: &mut ByteWriter,
    entries: impl Iterator<Item = ((u16, u8, u8), Counts)> + Clone,
) {
    w.write_u64(entries.clone().count() as u64);
    for ((rg, q, k), (m, n)) in entries {
        w.write_u16(rg);
        w.write_u8(q);
        w.write_u8(k);
        w.write_u64(m);
        w.write_u64(n);
    }
}

impl GpfSerialize for RecalTable {
    fn write(&self, w: &mut ByteWriter) {
        // Three key-ordered lists of the non-empty entries: the wire form
        // does not know how the counts are laid out in memory.
        w.write_u64(self.rg_q_counts().count() as u64);
        for ((rg, q), (m, n)) in self.rg_q_counts() {
            w.write_u16(rg);
            w.write_u8(q);
            w.write_u64(m);
            w.write_u64(n);
        }
        write_sub_table(w, self.cycle_counts());
        write_sub_table(w, self.context_counts());
    }

    fn read(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        // `observe` writes Phred+33 qualities and 16 contexts; anything else
        // is not a table, and must not size a row.
        let quality = |q: u8| {
            if q <= MAX_PHRED {
                Ok(q as usize)
            } else {
                Err(CodecError::Corrupt(format!(
                    "recalibration table quality {q} above {MAX_PHRED}"
                )))
            }
        };
        let mut out = RecalTable::default();
        let n = r.read_u64()?;
        for _ in 0..n {
            let rg = r.read_u16()?;
            let q = quality(r.read_u8()?)?;
            slot(out.counts.rows_mut(rg), q).total = (r.read_u64()?, r.read_u64()?);
        }
        for which in 0..2 {
            let n = r.read_u64()?;
            for _ in 0..n {
                let rg = r.read_u16()?;
                let q = quality(r.read_u8()?)?;
                let k = r.read_u8()? as usize;
                let counts = (r.read_u64()?, r.read_u64()?);
                let row = slot(out.counts.rows_mut(rg), q);
                if which == 0 {
                    *slot(&mut row.cycle, k) = counts;
                } else {
                    let Some(entry) = row.context.get_mut(k) else {
                        return Err(CodecError::Corrupt(format!(
                            "recalibration table context {k} of {CONTEXTS}"
                        )));
                    };
                    *entry = counts;
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
    let lut = table.lut();
    for r in records.iter_mut() {
        if !r.flags.is_mapped() || !is_well_formed(r) {
            continue;
        }
        let Some(rows) = lut.rows(r.read_group) else { continue };
        let reverse = r.flags.is_reverse();
        let SamRecord { seq, qual, .. } = r;
        for (i, qc) in qual.iter_mut().enumerate() {
            let recalibrated = rows
                .get(char_to_phred(*qc) as usize)
                .and_then(|row| row.get(cycle_bucket(seq.len(), i, reverse), context_code(seq, i)));
            if let Some(q) = recalibrated {
                *qc = phred_to_char(q);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpf_compress::serializer::{deserialize_batch, serialize_batch, SerializerKind};
    use gpf_formats::sam::{format_sam, parse_sam, SamFlags, SamHeaderInfo};
    use gpf_formats::vcf::Genotype;
    use gpf_formats::Cigar;

    fn reference() -> ReferenceGenome {
        let mut state = 0xfeedu64;
        let seq: Vec<u8> = (0..2000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(13);
                b"ACGT"[(state >> 33) as usize % 4]
            })
            .collect();
        ReferenceGenome::from_contigs(vec![("chr1", seq)])
    }

    /// A read copied from the reference with chosen mismatch positions.
    fn read_at(
        r: &ReferenceGenome,
        pos: u64,
        len: usize,
        mismatch_at: &[usize],
        q: u8,
    ) -> SamRecord {
        let mut seq = r.contig_seq(0)[pos as usize..pos as usize + len].to_vec();
        for &i in mismatch_at {
            seq[i] = match seq[i] {
                b'A' => b'C',
                b'C' => b'G',
                b'G' => b'T',
                b'T' => b'A',
                other => other,
            };
        }
        SamRecord {
            name: format!("r{pos}"),
            flags: SamFlags::default(),
            contig: 0,
            pos,
            mapq: 60,
            cigar: Cigar::from_ops(vec![(len as u32, CigarOp::Match)]),
            mate_contig: gpf_formats::sam::NO_CONTIG,
            mate_pos: 0,
            tlen: 0,
            seq,
            qual: vec![phred_to_char(q); len],
            read_group: 1,
            edit_distance: mismatch_at.len() as u16,
        }
    }

    #[test]
    fn overconfident_qualities_are_lowered() {
        let r = reference();
        // Reads report Q40 but carry ~10% errors -> empirical ~Q10.
        let mut records: Vec<SamRecord> = (0..40)
            .map(|i| {
                let pos = (i * 40) as u64;
                read_at(&r, pos, 50, &[5, 15, 25, 35, 45], 40)
            })
            .collect();
        let table = build_recal_table(&records, &r, &[]);
        assert!(table.observations() > 1000);
        apply_recalibration(&mut records, &table);
        let mean_q: f64 = records
            .iter()
            .flat_map(|rec| rec.qual.iter())
            .map(|&c| char_to_phred(c) as f64)
            .sum::<f64>()
            / (records.len() * 50) as f64;
        assert!(mean_q < 20.0, "mean recalibrated quality {mean_q}");
        assert!(mean_q > 5.0, "not absurdly low: {mean_q}");
    }

    #[test]
    fn accurate_qualities_stay_roughly_put() {
        let r = reference();
        // Q30 reported, 1 error in 1000 observed -> empirical near Q30.
        let mut records: Vec<SamRecord> = (0..40)
            .map(|i| {
                let pos = (i * 40) as u64;
                let mm: &[usize] = if i % 33 == 0 { &[10] } else { &[] };
                read_at(&r, pos, 50, mm, 30)
            })
            .collect();
        let table = build_recal_table(&records, &r, &[]);
        apply_recalibration(&mut records, &table);
        let mean_q: f64 = records
            .iter()
            .flat_map(|rec| rec.qual.iter())
            .map(|&c| char_to_phred(c) as f64)
            .sum::<f64>()
            / (records.len() * 50) as f64;
        assert!((mean_q - 30.0).abs() < 5.0, "mean {mean_q}");
    }

    #[test]
    fn known_sites_are_masked() {
        let r = reference();
        // Every read carries a "mismatch" at ref position 105 — but it's a
        // known variant, so BQSR must not count it.
        let records: Vec<SamRecord> = (0..30).map(|_| read_at(&r, 100, 50, &[5], 35)).collect();
        let known = vec![VcfRecord {
            contig: 0,
            pos: 105,
            ref_allele: vec![r.contig_seq(0)[105]],
            alt_allele: b"T".to_vec(),
            qual: 99.0,
            genotype: Genotype::Het,
            depth: 0,
        }];
        let masked = build_recal_table(&records, &r, &known);
        let unmasked = build_recal_table(&records, &r, &[]);
        let masked_miss: u64 = masked.rg_q_counts().map(|(_, (m, _))| m).sum();
        let unmasked_miss: u64 = unmasked.rg_q_counts().map(|(_, (m, _))| m).sum();
        assert_eq!(masked_miss, 0, "all mismatches sit on the known site");
        assert_eq!(unmasked_miss, 30);
    }

    #[test]
    fn merge_is_associative_with_observe() {
        let r = reference();
        let a: Vec<SamRecord> = (0..10).map(|i| read_at(&r, i * 50, 40, &[3], 30)).collect();
        let b: Vec<SamRecord> = (10..20).map(|i| read_at(&r, i * 50, 40, &[7], 30)).collect();
        let whole = build_recal_table(&[a.clone(), b.clone()].concat(), &r, &[]);
        let mut merged = build_recal_table(&a, &r, &[]);
        merged.merge(&build_recal_table(&b, &r, &[]));
        assert_eq!(whole, merged);
    }

    #[test]
    fn table_serialization_round_trips() {
        let r = reference();
        let records: Vec<SamRecord> =
            (0..20).map(|i| read_at(&r, i * 60, 50, &[2, 9], 33)).collect();
        let table = build_recal_table(&records, &r, &[]);
        for kind in [SerializerKind::JavaSim, SerializerKind::KryoSim, SerializerKind::Gpf] {
            let buf = serialize_batch(kind, std::slice::from_ref(&table));
            let out: Vec<RecalTable> = deserialize_batch(kind, &buf).unwrap();
            assert_eq!(out[0], table);
        }
    }

    #[test]
    fn duplicates_and_unmapped_are_ignored() {
        let r = reference();
        let mut dup = read_at(&r, 100, 50, &[1], 30);
        dup.flags.set(SamFlags::DUPLICATE);
        let unmapped = SamRecord::unmapped("u", b"ACGT".to_vec(), b"IIII".to_vec());
        let table = build_recal_table(&[dup, unmapped], &r, &[]);
        assert_eq!(table.observations(), 0);
    }

    #[test]
    fn sparse_covariates_fall_back_to_reported_quality() {
        let table = RecalTable::default();
        assert_eq!(table.recalibrate(1, 37, 0, 5), 37);
    }

    #[test]
    fn apply_preserves_lengths_and_range() {
        let r = reference();
        let mut records: Vec<SamRecord> =
            (0..25).map(|i| read_at(&r, i * 70, 60, &[4], 38)).collect();
        let table = build_recal_table(&records, &r, &[]);
        apply_recalibration(&mut records, &table);
        for rec in &records {
            assert_eq!(rec.qual.len(), rec.seq.len());
            assert!(rec.qual.iter().all(|&c| (33..=126).contains(&c)));
        }
    }

    fn lut_builds() -> usize {
        LUT_BUILDS.with(|n| n.get())
    }

    /// One job: partition tables merged — one after another, or in groups
    /// on workers whose partial sums are then merged, as
    /// `Dataset::aggregate` does it — finished once, then applied to many
    /// bundles on many threads.
    #[test]
    fn lut_is_built_once_per_merged_table() {
        let r = reference();
        let bundles: Vec<Vec<SamRecord>> = (0..316u64)
            .map(|b| (0..4).map(|i| read_at(&r, (b * 5 + i * 30) % 1900, 50, &[7], 35)).collect())
            .collect();
        let before = lut_builds();
        let merge_all = |bundles: &[Vec<SamRecord>]| {
            let mut merged = RecalTable::default();
            for b in bundles {
                merged.merge(&build_recal_table(b, &r, &[]));
            }
            merged
        };
        let mut merged = merge_all(&bundles);
        for group in [1, 79, 158, 315] {
            let by_groups: RecalTable = std::thread::scope(|s| {
                let partials: Vec<_> =
                    bundles.chunks(group).map(|chunk| s.spawn(|| merge_all(chunk))).collect();
                partials.into_iter().map(|w| w.join().expect("worker panicked")).fold(
                    RecalTable::default(),
                    |mut acc, partial| {
                        acc.merge(&partial);
                        acc
                    },
                )
            });
            assert_eq!(by_groups, merged, "groups of {group}");
        }
        assert_eq!(lut_builds(), before, "gathering and merging build nothing");
        merged.finish();
        assert_eq!(lut_builds(), before + 1);

        let table = &merged;
        let by_workers: Vec<Vec<SamRecord>> = std::thread::scope(|s| {
            let workers: Vec<_> = bundles
                .chunks(80)
                .map(|chunk| {
                    s.spawn(move || {
                        let mut out = chunk.to_vec();
                        for b in &mut out {
                            apply_recalibration(b, table);
                        }
                        assert_eq!(lut_builds(), 0, "a worker built its own table");
                        out
                    })
                })
                .collect();
            workers.into_iter().flat_map(|w| w.join().expect("worker panicked")).collect()
        });
        let mut by_driver = bundles.clone();
        for b in &mut by_driver {
            apply_recalibration(b, &merged);
        }
        assert_eq!(lut_builds(), before + 1, "316 bundles, one table");
        assert_eq!(by_workers, by_driver);
        assert_ne!(by_driver, bundles);

        // New counts drop the finished table; the next use rebuilds it once.
        merged.merge(&build_recal_table(&bundles[0], &r, &[]));
        assert_eq!(merged.recalibrate(1, 35, 0, 0), merged.clone().recalibrate(1, 35, 0, 0));
        assert_eq!(lut_builds(), before + 2);
    }

    #[test]
    fn equality_ignores_spare_rows_and_the_finished_table() {
        let r = reference();
        let records: Vec<SamRecord> = (0..30).map(|i| read_at(&r, i * 60, 50, &[2], 33)).collect();
        let table = build_recal_table(&records, &r, &[]);
        let finished = table.clone();
        finished.finish();
        assert_eq!(finished, table);
        // A read whose every base is masked grows rows without counting.
        let mut grown = table.clone();
        let mut other_group = read_at(&r, 0, 10, &[], 60);
        other_group.read_group = 9;
        let all_masked = KnownSitesMask((0..10).map(|p| (0, p)).collect());
        grown.observe(&other_group, &r, &all_masked);
        assert_eq!(grown, table);
        assert_eq!(
            serialize_batch(SerializerKind::Gpf, std::slice::from_ref(&grown)),
            serialize_batch(SerializerKind::Gpf, std::slice::from_ref(&table))
        );
    }

    #[test]
    fn wire_entries_outside_the_table_are_rejected() {
        for (q, ctx) in [(94u8, 0u8), (255, 0), (30, 16), (30, 255)] {
            let mut w = ByteWriter::new(SerializerKind::Gpf);
            w.write_u64(1);
            w.write_u16(1);
            w.write_u8(q);
            w.write_u64(0);
            w.write_u64(25);
            w.write_u64(0);
            w.write_u64(1);
            w.write_u16(1);
            w.write_u8(30);
            w.write_u8(ctx);
            w.write_u64(0);
            w.write_u64(25);
            let got = RecalTable::read(&mut ByteReader::new(SerializerKind::Gpf, &w.buf));
            assert!(matches!(got, Err(CodecError::Corrupt(_))), "q {q} ctx {ctx}: {got:?}");
        }
    }

    /// SAM text the parser accepts but BQSR cannot walk: each hostile line
    /// sits between two well-formed reads, which must come out exactly as
    /// they do without it.
    #[test]
    fn hostile_sam_records_are_skipped_not_indexed() {
        let r = reference();
        let good: Vec<SamRecord> = (0..30).map(|i| read_at(&r, i * 40, 50, &[5, 25], 36)).collect();
        let header = SamHeaderInfo::unsorted_header(r.dict().clone());
        let clean_text = format_sam(&header, &good);
        let seq50 = String::from_utf8(r.contig_seq(0)[100..150].to_vec()).unwrap();
        let hostile = [
            // QUAL `*` on a mapped read.
            format!("h1\t0\tchr1\t101\t60\t50M\t*\t0\t0\t{seq50}\t*\tRG:Z:rg1"),
            // CIGAR consumes 80 read bases, SEQ holds 50.
            format!("h2\t0\tchr1\t101\t60\t80M\t*\t0\t0\t{seq50}\t{}\tRG:Z:rg1", "E".repeat(50)),
            format!(
                "h3\t16\tchr1\t101\t60\t10S60M10I\t*\t0\t0\t{seq50}\t{}\tRG:Z:rg1",
                "E".repeat(50)
            ),
            // SEQ `*` with a CIGAR.
            "h4\t0\tchr1\t101\t60\t50M\t*\t0\t0\t*\t*\tRG:Z:rg1".to_string(),
            // Quality bytes below `!` and above `~`.
            format!("h5\t0\tchr1\t101\t60\t50M\t*\t0\t0\t{seq50}\t{}\tRG:Z:rg1", " ".repeat(50)),
            format!(
                "h6\t0\tchr1\t101\t60\t50M\t*\t0\t0\t{seq50}\t{}\x7f\tRG:Z:rg1",
                "E".repeat(49)
            ),
            // Mapped flag, no contig.
            format!("h7\t0\t*\t101\t60\t50M\t*\t0\t0\t{seq50}\t{}\tRG:Z:rg1", "E".repeat(50)),
        ];
        // Header, then a hostile line after each of the first seven reads.
        let mut hostile_lines = hostile.iter();
        let mut mixed_text = String::new();
        for line in clean_text.lines() {
            mixed_text += line;
            mixed_text.push('\n');
            if !line.starts_with('@') {
                if let Some(h) = hostile_lines.next() {
                    mixed_text += h;
                    mixed_text.push('\n');
                }
            }
        }
        let (_, clean) = parse_sam(&clean_text).unwrap();
        let (_, mut mixed) = parse_sam(&mixed_text).unwrap();
        assert_eq!(mixed.len(), clean.len() + hostile.len());
        // A start beyond the contig's end is rejected by `parse_sam`, so
        // BQSR can only meet it on a record built in code.
        mixed.insert(1, SamRecord { name: "h8".into(), pos: u64::MAX - 1, ..clean[0].clone() });

        // h7 and h8 are well-formed reads that merely sit on no reference:
        // they count nothing and are recalibrated like any read. The others
        // are left as parsed.
        let untouched = |r: &SamRecord| r.name.starts_with('h') && r.name != "h7" && r.name != "h8";
        let table = build_recal_table(&mixed, &r, &[]);
        assert_eq!(table, build_recal_table(&clean, &r, &[]));
        let mut out = mixed.clone();
        apply_recalibration(&mut out, &table);
        let mut expect = clean.clone();
        apply_recalibration(&mut expect, &table);
        assert_ne!(expect, clean);
        let kept: Vec<&SamRecord> = out.iter().filter(|r| !r.name.starts_with('h')).collect();
        assert_eq!(kept, expect.iter().collect::<Vec<_>>());
        for (got, parsed) in out.iter().zip(&mixed).filter(|(r, _)| untouched(r)) {
            assert_eq!(got, parsed, "{} was rewritten", got.name);
        }
    }
}
