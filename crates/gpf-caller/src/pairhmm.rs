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
//! takes the row-scaling maximum inside the column sweep, which runs four
//! lanes wide in AVX2 where the host has it and portably elsewhere. The
//! scalar one-pair-per-call kernel it replaced survives as the test-side
//! oracle `tests/pairhmm_oracle/`: every job's DP executes that kernel's
//! floating-point operations in that kernel's order, on either sweep, so
//! results are bit-equal to it (`tests/pairhmm_differential.rs`, and the
//! `sweep_battery` below for each sweep by name) and the genotyper's
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
/// The column sweep of a read row has two bodies over one lane layout (the
/// private `Sweep`): a portable one on `[f64; LANES]` bundles, and on x86_64 with
/// AVX2 one that holds each bundle in one `__m256d`. Everything around the
/// sweep — grouping, emission hoisting, the free start, row scaling and the
/// free-end sum — is shared.
///
/// Results are **bit-identical** to the scalar kernel kept in
/// `tests/pairhmm_oracle/` — the reference below — on either sweep. Lanes
/// never feed each other, and within a lane the DP executes the reference's
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
    /// Per read row and lane: the read base (widened, so a column's four
    /// lanes compare in one packed compare) and its emission pair,
    /// `em = 1 − e` (correct base, `e/3` for an `N`) and `mm = e/3`.
    rb: Vec<[u64; LANES]>,
    em: Vec<[f64; LANES]>,
    mm: Vec<[f64; LANES]>,
    /// Haplotype bytes, widened and lane-interleaved to match the rows.
    hb: Vec<[u64; LANES]>,
    // Two DP rows for each of the M, X and Y states, lane-interleaved over
    // haplotype positions — one [`LANES`]-wide bundle per column, so a
    // column index pays one bounds check for all four lanes — reused across
    // groups.
    rows: [Vec<[f64; LANES]>; 6],
}

/// Which body sweeps a read row's columns. The host decides, once per
/// [`PairHmmBatch::run`]; both bodies give the same bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sweep {
    /// `[f64; LANES]` arithmetic, vectorized as the compiler sees fit; the
    /// only sweep compiled off x86_64.
    Portable,
    /// One `__m256d` per column bundle. Chosen only where
    /// `is_x86_feature_detected!("avx2")` holds, which is what makes
    /// calling [`sweep_avx2`] sound.
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Sweep {
    /// The widest sweep this host runs.
    fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Sweep::Avx2;
        }
        Sweep::Portable
    }
}

/// The transition probabilities as the recurrence uses them.
#[derive(Debug, Clone, Copy)]
struct Transitions {
    go: f64,
    ge: f64,
    t_mm: f64,
    t_gm: f64,
}

/// What the column sweep of one read row reads and writes: the row's read
/// base and emission pair per lane, the group's haplotype columns
/// (`hb.len()` is the widest window), each lane's window length, the
/// shortest live one, and the M, X, Y rows before and after (`hb.len() + 1`
/// bundles each, column 0 of `cur` already zero).
struct Row<'r> {
    rb: [u64; LANES],
    em: [f64; LANES],
    mm: [f64; LANES],
    hb: &'r [[u64; LANES]],
    ns: [usize; LANES],
    min_n: usize,
    t: Transitions,
    prev: [&'r [[f64; LANES]]; 3],
    cur: [&'r mut [[f64; LANES]]; 3],
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
        self.run_on(Sweep::detect(), jobs)
    }

    /// [`PairHmmBatch::run`] with the column sweep named.
    fn run_on(&mut self, sweep: Sweep, jobs: &[HmmJob<'_>]) -> Vec<f64> {
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
            lane_cells += self.group(sweep, jobs, group, &mut out);
        }
        if gpf_trace::enabled() {
            let cells = order.iter().fold(0u64, |a, &k| {
                let job = &jobs[k];
                a.saturating_add((job.read.len() as u64).saturating_mul(job.hap.len() as u64))
            });
            gpf_trace::counter(gpf_trace::names::PAIRHMM_CELLS).add(cells);
            gpf_trace::counter(gpf_trace::names::PAIRHMM_LANE_CELLS).add(lane_cells);
            let wide_groups =
                if sweep == Sweep::Portable { 0 } else { order.len().div_ceil(LANES) };
            gpf_trace::counter(gpf_trace::names::PAIRHMM_WIDE_GROUPS).add(wide_groups as u64);
        }
        out
    }

    /// One interleaved pass of up to [`LANES`] jobs; `group` holds their
    /// indices into `jobs`/`out`. Mirrors the reference DP operation for
    /// operation per lane (see the struct docs) and returns the lane-cells
    /// swept, padding included.
    fn group(
        &mut self,
        sweep: Sweep,
        jobs: &[HmmJob<'_>],
        group: &[usize],
        out: &mut [f64],
    ) -> u64 {
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
        // so that range needs no per-lane column test in the sweep.
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
                self.rb[i][l] = u64::from(b);
                self.mm[i][l] = e / 3.0;
                self.em[i][l] = if b == b'N' { e / 3.0 } else { 1.0 - e };
            }
            for (j, &b) in job.hap.iter().enumerate() {
                self.hb[j][l] = u64::from(b);
            }
        }

        let go = self.params.gap_open;
        let ge = self.params.gap_extend;
        let t = Transitions { go, ge, t_mm: 1.0 - 2.0 * go, t_gm: 1.0 - ge };

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
            m_cur[0] = [0.0; LANES];
            x_cur[0] = [0.0; LANES];
            y_cur[0] = [0.0; LANES];
            let row = Row {
                rb: self.rb[i - 1],
                em: self.em[i - 1],
                mm: self.mm[i - 1],
                hb,
                ns,
                min_n,
                t,
                prev: [&*m_prev, &*x_prev, &*y_prev],
                cur: [&mut *m_cur, &mut *x_cur, &mut *y_cur],
            };
            let row_max = match sweep {
                Sweep::Portable => sweep_portable(row),
                #[cfg(target_arch = "x86_64")]
                // SAFETY: `Sweep::detect` returns `Sweep::Avx2` only where
                // `is_x86_feature_detected!("avx2")` holds, and AVX2 is
                // `sweep_avx2`'s only requirement.
                Sweep::Avx2 => unsafe { sweep_avx2(row) },
            };
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

/// The portable column sweep of one read row: fills columns `1..` of the
/// current rows and returns each lane's row maximum over its own columns
/// (column 0 holds zeros, pad columns are excluded).
#[inline(always)]
fn sweep_portable(row: Row<'_>) -> [f64; LANES] {
    let Row { rb, em, mm, hb, ns, min_n, t, prev, cur } = row;
    let Transitions { go, ge, t_mm, t_gm } = t;
    let [m_prev, x_prev, y_prev] = prev;
    let [m_cur, x_cur, y_cur] = cur;
    let max_n = hb.len();
    let mut row_max = [0.0f64; LANES];
    // One column of every lane; evaluates to each lane's largest state.
    // Column bundles copy into registers: one bounds check per bundle, four
    // lanes of arithmetic each. A macro, because a closure called from both
    // loops below is left out of line, and a call per column costs more
    // than the sweep's other savings.
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
    row_max
}

/// [`sweep_portable`] with each column bundle in one `__m256d`, the same
/// IEEE operations in the same order: separate multiplies and adds (no
/// `fma` — a fused multiply-add rounds once where the reference rounds
/// twice), the emission picked by one 64-bit compare and a blend, and the
/// row maximum by `maxpd`, which is exactly `if a > b { a } else { b }`.
/// The previous column's bundles stay in registers from one column to the
/// next.
///
/// # Safety
///
/// The host must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: called only with `Sweep::Avx2`, which `Sweep::detect` returns
// only where `is_x86_feature_detected!("avx2")` holds.
unsafe fn sweep_avx2(row: Row<'_>) -> [f64; LANES] {
    use std::arch::x86_64::*;

    let Row { rb, em, mm, hb, ns, min_n, t, prev, cur } = row;
    let [m_prev, x_prev, y_prev] = prev;
    let [m_cur, x_cur, y_cur] = cur;
    let max_n = hb.len();
    // Slices of exactly `max_n + 1` bundles: every index below is in range,
    // and every load and store goes through a bounds-checked bundle.
    let (m_prev, x_prev, y_prev) = (&m_prev[..=max_n], &x_prev[..=max_n], &y_prev[..=max_n]);
    let (m_cur, x_cur, y_cur) = (&mut m_cur[..=max_n], &mut x_cur[..=max_n], &mut y_cur[..=max_n]);
    // It is already; saying so lets the compiler drop the bounds checks.
    let min_n = min_n.min(max_n);
    macro_rules! load {
        ($bundle:expr) => {
            _mm256_loadu_pd($bundle.as_ptr())
        };
    }
    macro_rules! store {
        ($bundle:expr, $v:expr) => {
            _mm256_storeu_pd($bundle.as_mut_ptr(), $v)
        };
    }
    let go = _mm256_set1_pd(t.go);
    let ge = _mm256_set1_pd(t.ge);
    let t_mm = _mm256_set1_pd(t.t_mm);
    let t_gm = _mm256_set1_pd(t.t_gm);
    let rb = _mm256_loadu_si256(rb.as_ptr().cast());
    let em = load!(em);
    let mm = load!(mm);
    // Column j − 1 of the previous rows and of the current ones.
    let (mut mp_d, mut xp_d, mut yp_d) = (load!(m_prev[0]), load!(x_prev[0]), load!(y_prev[0]));
    let (mut mc_d, mut yc_d) = (load!(m_cur[0]), load!(y_cur[0]));
    let mut row_max = _mm256_setzero_pd();
    macro_rules! column {
        ($j:expr) => {{
            let j = $j;
            let (mp, xp, yp) = (load!(m_prev[j]), load!(x_prev[j]), load!(y_prev[j]));
            let hbj = _mm256_loadu_si256(hb[j - 1].as_ptr().cast());
            let matched = _mm256_castsi256_pd(_mm256_cmpeq_epi64(rb, hbj));
            let emit = _mm256_blendv_pd(mm, em, matched);
            let mv = _mm256_mul_pd(
                emit,
                _mm256_add_pd(
                    _mm256_mul_pd(t_mm, mp_d),
                    _mm256_mul_pd(t_gm, _mm256_add_pd(xp_d, yp_d)),
                ),
            );
            let xv = _mm256_add_pd(_mm256_mul_pd(mp, go), _mm256_mul_pd(xp, ge));
            let yv = _mm256_add_pd(_mm256_mul_pd(mc_d, go), _mm256_mul_pd(yc_d, ge));
            store!(m_cur[j], mv);
            store!(x_cur[j], xv);
            store!(y_cur[j], yv);
            (mp_d, xp_d, yp_d, mc_d, yc_d) = (mp, xp, yp, mv, yv);
            _mm256_max_pd(yv, _mm256_max_pd(xv, mv))
        }};
    }
    for j in 1..=min_n {
        let top = column!(j);
        row_max = _mm256_max_pd(top, row_max);
    }
    // The pad tail: a lane takes column j into its maximum only while
    // j ≤ n_l, i.e. n_l > j − 1.
    let ns = _mm256_set_epi64x(ns[3] as i64, ns[2] as i64, ns[1] as i64, ns[0] as i64);
    for j in min_n + 1..=max_n {
        let top = column!(j);
        let live = _mm256_cmpgt_epi64(ns, _mm256_set1_epi64x((j - 1) as i64));
        row_max = _mm256_blendv_pd(row_max, _mm256_max_pd(top, row_max), _mm256_castsi256_pd(live));
    }
    let mut out = [0.0f64; LANES];
    _mm256_storeu_pd(out.as_mut_ptr(), row_max);
    out
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

// The scalar oracle of `tests/pairhmm_differential.rs`, for the battery
// below. (A path inside an inline module resolves through directories that
// do not exist, hence out here.)
#[cfg(test)]
#[path = "../tests/pairhmm_oracle/mod.rs"]
mod pairhmm_oracle;

/// Every column sweep this build has, each driven by name over the job
/// shapes of `tests/pairhmm_differential.rs` and held `to_bits`-equal to
/// the scalar oracle. The public API reaches only the sweep the host
/// dispatches; this reaches each of them on one host.
#[cfg(test)]
mod sweep_battery {
    use super::*;
    use super::pairhmm_oracle;
    use gpf_support::proptest::prelude::*;

    /// Every sweep this host runs, by name. One it cannot run is left out,
    /// and the battery says so once.
    fn sweeps() -> Vec<(&'static str, Sweep)> {
        static SKIPPED: std::sync::Once = std::sync::Once::new();
        let wide = Sweep::detect();
        if wide == Sweep::Portable {
            SKIPPED.call_once(|| {
                eprintln!("pair-HMM sweep battery: this host lacks AVX2, the avx2 sweep is skipped")
            });
            return vec![("portable", Sweep::Portable)];
        }
        vec![("portable", Sweep::Portable), ("avx2", wide)]
    }

    /// The oracle's answer for one job; it asserts equal read and quality
    /// lengths, which the batch answers with `NEG_INFINITY`.
    fn want(job: &HmmJob<'_>) -> f64 {
        if job.read.len() != job.qual.len() {
            return f64::NEG_INFINITY;
        }
        pairhmm_oracle::log10_likelihood(job.read, job.qual, job.hap, &HmmParams::default())
    }

    /// `jobs` through a fresh batch on every sweep, each result bit-equal
    /// to the oracle's.
    fn check(jobs: &[HmmJob<'_>]) -> Result<(), TestCaseError> {
        for (name, sweep) in sweeps() {
            let got = PairHmmBatch::new(HmmParams::default()).run_on(sweep, jobs);
            prop_assert_eq!(got.len(), jobs.len());
            for (job, g) in jobs.iter().zip(&got) {
                let (g, w) = (g.to_bits(), want(job).to_bits());
                prop_assert_eq!(g, w, "{} sweep, job {:?}: {:x} vs {:x}", name, job, g, w);
            }
        }
        Ok(())
    }

    fn seq(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(
            prop_oneof![
                8 => Just(b'A'),
                8 => Just(b'C'),
                8 => Just(b'G'),
                8 => Just(b'T'),
                1 => Just(b'N')
            ],
            0..max_len,
        )
    }

    /// One job's (read, qualities, haplotype), its qualities from one of
    /// three Phred+33 bands so neighbouring lanes differ by orders of
    /// magnitude.
    fn job() -> impl Strategy<Value = (Vec<u8>, Vec<u8>, Vec<u8>)> {
        let band = prop_oneof![Just((33u8, 126u8)), Just((33, 40)), Just((110, 126))];
        (seq(60), band, seq(90)).prop_flat_map(|(read, (lo, hi), hap)| {
            let len = read.len();
            (Just(read), proptest::collection::vec(lo..=hi, len..=len), Just(hap))
        })
    }

    fn as_jobs(jobs: &[(Vec<u8>, Vec<u8>, Vec<u8>)]) -> Vec<HmmJob<'_>> {
        jobs.iter().map(|(read, qual, hap)| HmmJob { read, qual, hap }).collect()
    }

    /// The row-scaling group of `lanes_that_scale_run_beside_lanes_that_do_not`:
    /// two ~400-base reads that fit nowhere and scale beside two that match
    /// and never do, lanes of four widths and heights, the narrowest lane's
    /// read all zero bytes (the one read that "matches" its pad columns).
    #[test]
    fn lanes_that_scale_beside_lanes_that_do_not_on_every_sweep() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut bases = |n: usize| -> Vec<u8> {
            (0..n)
                .map(|_| {
                    state =
                        state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    b"ACGT"[(state >> 33) as usize % 4]
                })
                .collect()
        };
        let haps = [bases(460), bases(445), bases(452), bases(430)];
        let reads =
            [haps[0][20..420].to_vec(), bases(400), haps[2][100..400].to_vec(), vec![0; 350]];
        let quals: Vec<Vec<u8>> =
            reads.iter().map(|r| (0..r.len()).map(|i| 40 + (i % 60) as u8).collect()).collect();
        let jobs: Vec<HmmJob<'_>> =
            (0..4).map(|k| HmmJob { read: &reads[k], qual: &quals[k], hap: &haps[k] }).collect();
        let scaled = jobs.iter().map(want).collect::<Vec<_>>();
        assert!(scaled[1] < -280.0 && scaled[3] < -280.0, "{scaled:?}");
        if let Err(e) = check(&jobs) {
            panic!("{e}");
        }
    }

    proptest! {
        #[test]
        fn mixed_job_lists_on_every_sweep(jobs in proptest::collection::vec(job(), 0..23)) {
            // Lanes of different width and height, a last group with lanes
            // missing, empty reads and windows in between.
            check(&as_jobs(&jobs))?;
        }

        #[test]
        fn arbitrary_bytes_on_every_sweep(
            jobs in proptest::collection::vec(
                (
                    proptest::collection::vec(any::<u8>(), 0..30),
                    proptest::collection::vec(any::<u8>(), 0..30),
                    proptest::collection::vec(any::<u8>(), 0..40),
                ),
                0..9,
            ),
        ) {
            // Any read, quality and haplotype byte, quality lengths that
            // need not match the read's.
            check(&as_jobs(&jobs))?;
        }

        #[test]
        fn one_batch_reused_across_lists_on_every_sweep(
            first in proptest::collection::vec(job(), 0..9),
            second in proptest::collection::vec(job(), 0..9),
        ) {
            // Stale rows, emissions or symbols from the first list would
            // surface in the second.
            let (first, second) = (as_jobs(&first), as_jobs(&second));
            for (name, sweep) in sweeps() {
                let mut batch = PairHmmBatch::new(HmmParams::default());
                let _ = batch.run_on(sweep, &first);
                let got = batch.run_on(sweep, &second);
                for (job, g) in second.iter().zip(&got) {
                    let w = want(job);
                    prop_assert_eq!(g.to_bits(), w.to_bits(), "{} sweep, job {:?}", name, job);
                }
            }
        }
    }
}
