//! Differential and hostile-input properties for the batched pair-HMM.
//!
//! `PairHmmBatch` is pinned to the scalar `log10_likelihood` the library
//! used to ship, kept test-side in `pairhmm_oracle/`: the batch hoists
//! per-read work and runs four jobs to a sweep, but executes the same
//! floating-point operations per (read, haplotype), so the results must
//! agree not just to the 1e-9 acceptance bound but bit for bit — whichever
//! reads and haplotypes share a sweep. The hostile properties hold the
//! batch total: no panic and no NaN on any byte input, which is what keeps
//! garbage out of the genotyper's posteriors.

mod pairhmm_oracle;

use gpf_caller::pairhmm::{HmmJob, HmmParams, PairHmmBatch};
use gpf_support::proptest::prelude::*;
use pairhmm_oracle::log10_likelihood;

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

fn read_with_quals(max_len: usize) -> impl Strategy<Value = (Vec<u8>, Vec<u8>)> {
    seq(max_len).prop_flat_map(|s| {
        let len = s.len();
        (Just(s), proptest::collection::vec(33u8..=126, len..=len))
    })
}

/// One job's (read, qualities, haplotype). The qualities come from one of
/// three bands per job — the whole Phred+33 range, its bottom or its top —
/// so neighbouring lanes of one sweep carry emissions ten orders of
/// magnitude apart.
fn job() -> impl Strategy<Value = (Vec<u8>, Vec<u8>, Vec<u8>)> {
    let band = prop_oneof![Just((33u8, 126u8)), Just((33, 40)), Just((110, 126))];
    (seq(60), band, seq(90)).prop_flat_map(|(read, (lo, hi), hap)| {
        let len = read.len();
        (Just(read), proptest::collection::vec(lo..=hi, len..=len), Just(hap))
    })
}

/// Row scaling needs a read of some 280 bases that fits nowhere (the cheapest
/// path, an insertion run, loses a factor ten per row), so the property above
/// never reaches it. Here one sweep holds two such reads beside two that
/// match their haplotypes and never scale, with the lanes differing in width
/// and in height as well. The narrowest lane's read is all zero bytes, the
/// one read that "matches" its own pad columns: were they let into its row
/// maximum, they would outweigh its live columns by a factor ten per row.
#[test]
fn lanes_that_scale_run_beside_lanes_that_do_not() {
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut bases = |n: usize| -> Vec<u8> {
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                b"ACGT"[(state >> 33) as usize % 4]
            })
            .collect()
    };
    let haps = [bases(460), bases(445), bases(452), bases(430)];
    let reads = [haps[0][20..420].to_vec(), bases(400), haps[2][100..400].to_vec(), vec![0; 350]];
    let quals: Vec<Vec<u8>> =
        reads.iter().map(|r| (0..r.len()).map(|i| 40 + (i % 60) as u8).collect()).collect();
    let jobs: Vec<HmmJob<'_>> =
        (0..4).map(|k| HmmJob { read: &reads[k], qual: &quals[k], hap: &haps[k] }).collect();
    let params = HmmParams::default();
    let got = PairHmmBatch::new(params).run(&jobs);
    let want: Vec<f64> =
        jobs.iter().map(|j| log10_likelihood(j.read, j.qual, j.hap, &params)).collect();
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g.to_bits(), w.to_bits(), "{g} vs {w}");
    }
    // A likelihood below 1e-280 is one only a scaled row can carry.
    assert!(want[0] > -100.0 && want[2] > -100.0, "{want:?}");
    assert!(want[1] < -280.0 && want[3] < -280.0, "{want:?}");
}

proptest! {
    #[test]
    fn mixed_job_lists_match_scalar_reference(jobs in proptest::collection::vec(job(), 0..23)) {
        // Reads of 0..60 bases against windows of 0..90 in one list: sweeps
        // whose lanes differ in width (pad columns) and in height (lanes
        // that finish early), a last sweep with lanes missing, and empty
        // reads and windows in between.
        let params = HmmParams::default();
        let list: Vec<HmmJob<'_>> =
            jobs.iter().map(|(read, qual, hap)| HmmJob { read, qual, hap }).collect();
        let got = PairHmmBatch::new(params).run(&list);
        prop_assert_eq!(got.len(), list.len());
        for (job, g) in list.iter().zip(&got) {
            let want = log10_likelihood(job.read, job.qual, job.hap, &params);
            prop_assert_eq!(g.to_bits(), want.to_bits(), "job {:?}: {} vs {}", job, g, want);
        }
    }

    #[test]
    fn batch_matches_scalar_reference(
        (read, quals) in read_with_quals(40),
        haps in proptest::collection::vec(seq(60), 1..5),
    ) {
        let params = HmmParams::default();
        let mut batch = PairHmmBatch::new(params);
        let got = batch.likelihoods(&read, &quals, haps.iter().map(|h| h.as_slice()));
        prop_assert_eq!(got.len(), haps.len());
        for (h, g) in haps.iter().zip(&got) {
            let want = log10_likelihood(&read, &quals, h, &params);
            // The acceptance bound is 1e-9; the implementation achieves
            // bit-equality, which we pin so genotyper output stays
            // byte-identical.
            if want.is_finite() {
                prop_assert!((g - want).abs() <= 1e-9, "batch {} vs scalar {}", g, want);
            }
            prop_assert_eq!(g.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn batch_reuse_keeps_buffers_clean(
        (read_a, quals_a) in read_with_quals(30),
        (read_b, quals_b) in read_with_quals(50),
        hap in seq(60),
    ) {
        // Evaluating A then B through one batch must equal evaluating B
        // alone — stale row contents or emission tables would surface here.
        let params = HmmParams::default();
        let mut batch = PairHmmBatch::new(params);
        let _ = batch.likelihoods(&read_a, &quals_a, [hap.as_slice()].into_iter());
        let reused = batch.likelihoods(&read_b, &quals_b, [hap.as_slice()].into_iter());
        let fresh = log10_likelihood(&read_b, &quals_b, &hap, &params);
        prop_assert_eq!(reused[0].to_bits(), fresh.to_bits());
    }

    #[test]
    fn batch_is_total_and_nan_free(
        read in proptest::collection::vec(any::<u8>(), 0..30),
        qual_len in 0usize..30,
        haps in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..40), 0..4),
    ) {
        // Arbitrary read bytes, arbitrary (possibly mismatched) quality
        // lengths, arbitrary haplotype bytes: every entry is a clean
        // finite-or-NEG_INFINITY value, never NaN, never a panic.
        let mut batch = PairHmmBatch::new(HmmParams::default());
        let quals = vec![0u8; qual_len];
        let got = batch.likelihoods(&read, &quals, haps.iter().map(|h| h.as_slice()));
        prop_assert_eq!(got.len(), haps.len());
        for l in got {
            prop_assert!(!l.is_nan());
            prop_assert!(l <= 0.0 || l == f64::NEG_INFINITY || l.is_finite());
        }
    }

    #[test]
    fn wild_quality_bytes_never_poison_likelihoods(
        read in seq(25),
        hap in seq(50),
        raw_quals in proptest::collection::vec(any::<u8>(), 0..30),
    ) {
        // Quality bytes outside the Phred+33 range clamp through the table;
        // the likelihood stays NaN-free and the scalar reference (also on
        // the table) agrees exactly.
        if read.is_empty() || hap.is_empty() {
            return Ok(());
        }
        let mut quals = raw_quals;
        quals.resize(read.len(), 0);
        let params = HmmParams::default();
        let mut batch = PairHmmBatch::new(params);
        let got = batch.likelihoods(&read, &quals, [hap.as_slice()].into_iter());
        prop_assert!(!got[0].is_nan());
        let want = log10_likelihood(&read, &quals, &hap, &params);
        prop_assert_eq!(got[0].to_bits(), want.to_bits());
    }
}
