//! Pair-HMM: `P(read | haplotype)` with quality-aware emissions.
//!
//! The standard three-state (match / insert / delete) pair hidden Markov
//! model used by GATK's HaplotypeCaller, implemented in linear probability
//! space with per-row scaling (numerically equivalent to log space but much
//! faster). The read aligns globally; the haplotype start and end are free,
//! which the initial distribution and final summation encode.
//!
//! This is the compute kernel the paper identifies as one of the two
//! CPU-dominant components (§5.3.2: "Both the BWA-MEM and HaplotypeCaller
//! are computationally intensive components ... in which CPU architecture
//! and speed completely determine efficiency").
//!
//! [`PairHmmBatch::run`] is the one implementation. Its unit of work is one
//! [`HmmJob`] — a read, its qualities and the haplotype window it is scored
//! against — and it takes a region's whole job list, orders it by shape and
//! runs it [`LANES`] jobs to a group, whichever reads and haplotypes they
//! come from. Per job it hoists the quality→probability lookups (the cached
//! 256-entry table in `gpf_formats::quality`) and the emission pair
//! `(1−e, e/3)` out of the DP, reuses the row buffers across groups, and
//! takes the row-scaling maximum inside the column sweep. The scalar
//! one-pair-per-call kernel it replaced survives as the test-side oracle
//! `tests/pairhmm_oracle/`: every job's DP executes that kernel's
//! floating-point operations in that kernel's order, so results are
//! bit-equal to it (`tests/pairhmm_differential.rs`) and the genotyper's
//! output is byte-identical.

use gpf_formats::quality::char_to_error_prob;

/// Transition probabilities.
#[derive(Debug, Clone, Copy)]
pub struct HmmParams {
    /// Gap-open probability (match → ins/del).
    pub gap_open: f64,
    /// Gap-extension probability (ins → ins, del → del).
    pub gap_extend: f64,
}

impl Default for HmmParams {
    fn default() -> Self {
        // GATK defaults: gap open ~ Q45, extension ~ Q10.
        Self { gap_open: 10f64.powf(-4.5), gap_extend: 0.1 }
    }
}

/// Lanes interleaved per DP column: this many jobs advance through the
/// recurrence together in one sweep.
const LANES: usize = 4;

/// One pair-HMM evaluation: `log10 P(read | hap)` with `qual` as the read's
/// Phred+33 base qualities.
#[derive(Debug, Clone, Copy)]
pub struct HmmJob<'a> {
    /// Read bases.
    pub read: &'a [u8],
    /// Read qualities, one per base.
    pub qual: &'a [u8],
    /// The haplotype (window) the read is scored against.
    pub hap: &'a [u8],
}

/// Batched pair-HMM over a list of jobs.
///
/// Construction is cheap; the value is in reuse and interleaving — one
/// instance per region keeps the DP rows warm across every group, so the
/// inner DP allocates nothing, and jobs run [`LANES`] at a time with their
/// columns *interleaved* in memory (`row[j][lane]`). Interleaving is what
/// buys the throughput: the in-row recurrence
/// `Y(j) = go·M(j−1) + ge·Y(j−1)` is a serial multiply–add chain whose
/// latency bounds any single-job sweep, but the lanes' chains are
/// independent, so they pipeline and the sweep runs at ALU throughput
/// instead of chain latency.
///
/// A lane is a whole job: the read base, the emission pair and the row
/// count are held per lane, so a group fills from any four jobs of the list
/// — the same read against four haplotypes, or four reads against one. Jobs
/// are grouped in (window length, read length) order, which keeps the
/// rectangle a group sweeps close to the cells its jobs own.
///
/// Results are **bit-identical** to the scalar kernel kept in
/// `tests/pairhmm_oracle/` — the reference below. Lanes never feed
/// each other, and within a lane the DP executes the reference's
/// floating-point operations in the reference's order: the emission pair
/// `(1−e, e/3)` is the same IEEE operations computed once per read base
/// instead of once per cell (a read `N` stores `e/3` in both arms, which is
/// what the reference's `!= b'N'` test selects); the row maximum
/// accumulates by compare-select over exactly the reference's column set —
/// every value is finite and non-negative, so the result is the reference's
/// `f64::max` fold in any order and can never be NaN; and a lane whose read
/// is shorter than its group's takes its free-end sum at its own last row.
/// Pad columns (a window shorter than the group's widest) and pad rows (a
/// read shorter than the group's longest, emitting `0.0`) hold values that
/// never reach a live cell, the row maximum, the row scaling or the sum.
pub struct PairHmmBatch {
    params: HmmParams,
    /// Per read row and lane: the read base and its emission pair,
    /// `em = 1 − e` (correct base, `e/3` for an `N`) and `mm = e/3`.
    rb: Vec<[u8; LANES]>,
    em: Vec<[f64; LANES]>,
    mm: Vec<[f64; LANES]>,
    /// Haplotype bytes, lane-interleaved to match the row layout.
    hb: Vec<[u8; LANES]>,
    // Two DP rows for each of the M, X and Y states, lane-interleaved over
    // haplotype positions — one [`LANES`]-wide bundle per column, so a
    // column index pays one bounds check for all four lanes — reused across
    // groups.
    rows: [Vec<[f64; LANES]>; 6],
}

impl PairHmmBatch {
    /// A fresh batch evaluator with empty (lazily grown) scratch.
    pub fn new(params: HmmParams) -> Self {
        Self {
            params,
            rb: Vec::new(),
            em: Vec::new(),
            mm: Vec::new(),
            hb: Vec::new(),
            rows: Default::default(),
        }
    }

    /// log10 P(read | h) for each haplotype, in iteration order: one job
    /// per haplotype through [`PairHmmBatch::run`].
    pub fn likelihoods<'h, I>(&mut self, read: &[u8], qual: &[u8], haps: I) -> Vec<f64>
    where
        I: IntoIterator<Item = &'h [u8]>,
    {
        let jobs: Vec<HmmJob<'_>> =
            haps.into_iter().map(|hap| HmmJob { read, qual, hap }).collect();
        self.run(&jobs)
    }

    /// log10 P(read | hap) for each job, in job order.
    ///
    /// Total over hostile input: a read/qual length mismatch, an empty
    /// read, or an empty haplotype yields `NEG_INFINITY` for that job — no
    /// panic, and no NaN (the scaled DP keeps probabilities finite and
    /// non-negative).
    pub fn run(&mut self, jobs: &[HmmJob<'_>]) -> Vec<f64> {
        let mut out = vec![f64::NEG_INFINITY; jobs.len()];
        let mut order: Vec<usize> = (0..jobs.len())
            .filter(|&k| {
                let job = &jobs[k];
                job.read.len() == job.qual.len() && !job.read.is_empty() && !job.hap.is_empty()
            })
            .collect();
        order.sort_unstable_by_key(|&k| (jobs[k].hap.len(), jobs[k].read.len(), k));
        let mut lane_cells = 0u64;
        for group in order.chunks(LANES) {
            lane_cells += self.group(jobs, group, &mut out);
        }
        if gpf_trace::enabled() {
            let cells = order.iter().fold(0u64, |a, &k| {
                let job = &jobs[k];
                a.saturating_add((job.read.len() as u64).saturating_mul(job.hap.len() as u64))
            });
            gpf_trace::counter(gpf_trace::names::PAIRHMM_CELLS).add(cells);
            gpf_trace::counter(gpf_trace::names::PAIRHMM_LANE_CELLS).add(lane_cells);
        }
        out
    }

    /// One interleaved pass of up to [`LANES`] jobs; `group` holds their
    /// indices into `jobs`/`out`. Mirrors the reference DP operation for
    /// operation per lane (see the struct docs) and returns the lane-cells
    /// swept, padding included.
    fn group(&mut self, jobs: &[HmmJob<'_>], group: &[usize], out: &mut [f64]) -> u64 {
        let lanes = group.len(); // 1..=LANES
        let mut ms = [0usize; LANES];
        let mut ns = [0usize; LANES];
        for (l, &k) in group.iter().enumerate() {
            ms[l] = jobs[k].read.len();
            ns[l] = jobs[k].hap.len();
        }
        let max_m = ms.iter().copied().fold(0, usize::max);
        let max_n = ns.iter().copied().fold(0, usize::max);
        // Shortest live window: columns 0..=min_n exist in every live lane,
        // so that range needs no per-lane column test below.
        let min_n = ns[..lanes].iter().copied().fold(usize::MAX, usize::min);
        let width = max_n + 1; // in LANES-wide column bundles

        for row in &mut self.rows {
            row.clear();
            row.resize(width, [0.0; LANES]);
        }
        // Pad rows, pad columns and missing lanes stay zero: nothing enters
        // the DP through them and a pad row emits nothing.
        self.rb.clear();
        self.rb.resize(max_m, [0; LANES]);
        self.em.clear();
        self.em.resize(max_m, [0.0; LANES]);
        self.mm.clear();
        self.mm.resize(max_m, [0.0; LANES]);
        self.hb.clear();
        self.hb.resize(max_n, [0; LANES]);
        for (l, &k) in group.iter().enumerate() {
            let job = &jobs[k];
            for (i, (&b, &q)) in job.read.iter().zip(job.qual).enumerate() {
                let e = char_to_error_prob(q);
                self.rb[i][l] = b;
                self.mm[i][l] = e / 3.0;
                self.em[i][l] = if b == b'N' { e / 3.0 } else { 1.0 - e };
            }
            for (j, &b) in job.hap.iter().enumerate() {
                self.hb[j][l] = b;
            }
        }

        let go = self.params.gap_open;
        let ge = self.params.gap_extend;
        let t_mm = 1.0 - 2.0 * go;
        let t_gm = 1.0 - ge;

        // Local slice views: one bounds assertion each, then the hot-loop
        // indexing below stays in range by construction.
        let hb = &self.hb[..max_n];
        let [m_prev, x_prev, y_prev, m_cur, x_cur, y_cur] = &mut self.rows;
        let (mut m_prev, mut x_prev, mut y_prev) =
            (&mut m_prev[..width], &mut x_prev[..width], &mut y_prev[..width]);
        let (mut m_cur, mut x_cur, mut y_cur) =
            (&mut m_cur[..width], &mut x_cur[..width], &mut y_cur[..width]);
        // Free start anywhere on each haplotype.
        for (l, &n) in ns[..lanes].iter().enumerate() {
            let start = 1.0 / n as f64;
            for bundle in &mut y_prev[..=n] {
                bundle[l] = start;
            }
        }

        let mut log_scale = [0.0f64; LANES];
        for i in 1..=max_m {
            let rb = self.rb[i - 1];
            let em = self.em[i - 1];
            let mm = self.mm[i - 1];
            m_cur[0] = [0.0; LANES];
            x_cur[0] = [0.0; LANES];
            y_cur[0] = [0.0; LANES];
            // Per-lane row maximum over exactly the scalar's value set:
            // columns 0..=n_l, pad columns excluded (column 0 holds zeros).
            let mut row_max = [0.0f64; LANES];
            // One column of every lane; evaluates to each lane's largest
            // state. Column bundles copy into registers: one bounds check
            // per bundle, four lanes of arithmetic each. A macro, because a
            // closure called from both loops below is left out of line, and
            // a call per column costs more than the sweep's other savings.
            macro_rules! column {
                ($j:expr) => {{
                    let j = $j;
                    let mp_d = m_prev[j - 1];
                    let xp_d = x_prev[j - 1];
                    let yp_d = y_prev[j - 1];
                    let mp = m_prev[j];
                    let xp = x_prev[j];
                    let mc_d = m_cur[j - 1];
                    let yc_d = y_cur[j - 1];
                    let hbj = hb[j - 1];
                    let mut mv = [0.0f64; LANES];
                    let mut xv = [0.0f64; LANES];
                    let mut yv = [0.0f64; LANES];
                    let mut top = [0.0f64; LANES];
                    for l in 0..LANES {
                        let emit = if rb[l] == hbj[l] { em[l] } else { mm[l] };
                        mv[l] = emit * (t_mm * mp_d[l] + t_gm * (xp_d[l] + yp_d[l]));
                        xv[l] = mp[l] * go + xp[l] * ge;
                        yv[l] = mc_d[l] * go + yc_d[l] * ge;
                        let mx = if xv[l] > mv[l] { xv[l] } else { mv[l] };
                        top[l] = if yv[l] > mx { yv[l] } else { mx };
                    }
                    m_cur[j] = mv;
                    x_cur[j] = xv;
                    y_cur[j] = yv;
                    top
                }};
            }
            for j in 1..=min_n {
                let top = column!(j);
                for l in 0..LANES {
                    row_max[l] = if top[l] > row_max[l] { top[l] } else { row_max[l] };
                }
            }
            for j in min_n + 1..=max_n {
                let top = column!(j);
                for l in 0..LANES {
                    if j <= ns[l] && top[l] > row_max[l] {
                        row_max[l] = top[l];
                    }
                }
            }
            for (l, &k) in group.iter().enumerate() {
                if i > ms[l] {
                    continue; // this lane's read has ended
                }
                let row_max = row_max[l];
                if row_max > 0.0 && !(1e-280..=1e280).contains(&row_max) {
                    let inv = 1.0 / row_max;
                    for j in 0..=ns[l] {
                        m_cur[j][l] *= inv;
                        x_cur[j][l] *= inv;
                        y_cur[j][l] *= inv;
                    }
                    log_scale[l] += row_max.log10();
                }
                if i == ms[l] {
                    // Free end: sum this lane's last read row in the
                    // scalar's column order.
                    let mut total = 0.0f64;
                    for j in 0..=ns[l] {
                        total += m_cur[j][l] + x_cur[j][l];
                    }
                    out[k] =
                        if total <= 0.0 { f64::NEG_INFINITY } else { total.log10() + log_scale[l] };
                }
            }
            std::mem::swap(&mut m_prev, &mut m_cur);
            std::mem::swap(&mut x_prev, &mut x_cur);
            std::mem::swap(&mut y_prev, &mut y_cur);
        }
        (max_m * max_n * LANES) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpf_formats::quality::phred_to_char;

    fn q(n: usize, phred: u8) -> Vec<u8> {
        vec![phred_to_char(phred); n]
    }

    const HAP: &[u8] = b"ACGTACGGTACGTTACGGATCCGATCGATTACGACGTACGGTACGTTACG";

    /// log10 P(read | hap) of one pair through the batch.
    fn lk(read: &[u8], qual: &[u8], hap: &[u8]) -> f64 {
        PairHmmBatch::new(HmmParams::default()).likelihoods(read, qual, [hap])[0]
    }

    #[test]
    fn perfect_read_beats_mismatched_read() {
        let read = &HAP[10..40];
        let good = lk(read, &q(30, 30), HAP);
        let mut bad = read.to_vec();
        bad[15] = if bad[15] == b'A' { b'C' } else { b'A' };
        let worse = lk(&bad, &q(30, 30), HAP);
        assert!(good > worse + 1.0, "good {good} vs bad {worse}");
    }

    #[test]
    fn likelihood_is_a_probability() {
        let read = &HAP[5..35];
        let l = lk(read, &q(30, 30), HAP);
        assert!(l <= 0.0, "log10 prob must be ≤ 0: {l}");
        assert!(l.is_finite());
    }

    #[test]
    fn low_quality_mismatch_is_forgiven() {
        let mut read = HAP[10..40].to_vec();
        read[20] = if read[20] == b'G' { b'T' } else { b'G' };
        let mut quals = q(30, 35);
        let high_q = lk(&read, &quals, HAP);
        quals[20] = phred_to_char(2); // the mismatching base is marked unreliable
        let low_q = lk(&read, &quals, HAP);
        assert!(low_q > high_q, "low-q mismatch {low_q} vs high-q mismatch {high_q}");
    }

    #[test]
    fn matching_haplotype_beats_wrong_haplotype() {
        let hap_alt: Vec<u8> = HAP
            .iter()
            .map(|&b| if b == b'A' { b'C' } else { b })
            .collect();
        let read = &HAP[10..40];
        let own = lk(read, &q(30, 30), HAP);
        let other = lk(read, &q(30, 30), &hap_alt);
        assert!(own > other + 3.0);
    }

    #[test]
    fn indel_read_prefers_indel_haplotype() {
        // Read carries a 4bp deletion relative to HAP.
        let mut read = HAP[10..25].to_vec();
        read.extend_from_slice(&HAP[29..44]);
        let mut hap_del = HAP[..25].to_vec();
        hap_del.extend_from_slice(&HAP[29..]);
        let on_ref = lk(&read, &q(30, 30), HAP);
        let on_alt = lk(&read, &q(30, 30), &hap_del);
        assert!(on_alt > on_ref + 2.0, "alt {on_alt} vs ref {on_ref}");
    }

    #[test]
    fn n_bases_are_neutral() {
        let mut read = HAP[10..40].to_vec();
        let clean = lk(&read, &q(30, 30), HAP);
        read[5] = b'N';
        let with_n = lk(&read, &q(30, 30), HAP);
        // An N costs roughly a mismatch emission but must not zero out.
        assert!(with_n.is_finite());
        assert!(with_n < clean);
        assert!(with_n > clean - 6.0);
    }

    #[test]
    fn long_read_does_not_underflow() {
        let hap: Vec<u8> = HAP.iter().cycle().take(3000).copied().collect();
        let read = &hap[100..1100]; // 1000bp read
        let l = lk(read, &q(1000, 30), &hap);
        assert!(l.is_finite(), "scaled DP survives 1000bp: {l}");
    }

    #[test]
    fn empty_inputs_are_impossible() {
        assert_eq!(lk(b"", b"", HAP), f64::NEG_INFINITY);
        assert_eq!(lk(b"ACGT", &q(4, 30), b""), f64::NEG_INFINITY);
    }

    #[test]
    fn batch_is_total_over_hostile_input() {
        let mut batch = PairHmmBatch::new(HmmParams::default());
        let haps: Vec<&[u8]> = vec![HAP, b""];
        // Length mismatch: no panic, NEG_INFINITY everywhere.
        let bad = batch.likelihoods(b"ACGT", b"II", haps.iter().copied());
        assert!(bad.iter().all(|l| *l == f64::NEG_INFINITY));
        // Empty read.
        let empty = batch.likelihoods(b"", b"", haps.iter().copied());
        assert!(empty.iter().all(|l| *l == f64::NEG_INFINITY));
        // Quality bytes outside the phred range clamp instead of panicking,
        // and never produce NaN.
        let wild = batch.likelihoods(b"ACGT", &[0u8, 31, 127, 255], haps.iter().copied());
        assert_eq!(wild[1], f64::NEG_INFINITY); // empty haplotype
        assert!(wild[0].is_finite() && !wild[0].is_nan());
        // All-N read stays finite (every base emits the miscall floor).
        let all_n = batch.likelihoods(b"NNNN", &q(4, 30), [HAP]);
        assert!(all_n[0].is_finite());
    }
}
