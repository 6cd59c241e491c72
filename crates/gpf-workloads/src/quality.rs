//! Per-cycle quality-score models.
//!
//! Figure 5 of the paper compares two Illumina samples (SRR622461 and
//! SRR504516): the raw quality-score distributions differ and are dispersed,
//! while the *adjacent-delta* distributions of both concentrate tightly
//! around zero — the property the quality codec exploits. The two presets
//! here are shaped to reproduce those histograms.

use gpf_formats::quality::{phred_to_char, MAX_PHRED};
use gpf_support::rng::StdRng;
use gpf_support::rng::Rng;
use gpf_support::rng::{Distribution, Normal};

/// A sequencing-instrument quality profile.
#[derive(Debug, Clone)]
pub struct QualityProfile {
    /// Profile name (for reports).
    pub name: &'static str,
    /// Phred score at cycle 0.
    pub start_q: f64,
    /// Linear decline in mean quality per cycle.
    pub slope_per_cycle: f64,
    /// Standard deviation of the AR(1) innovation per cycle.
    pub jitter_sd: f64,
    /// AR(1) persistence (close to 1 = smooth strings = small deltas).
    pub persistence: f64,
    /// Probability per read of a mid-read quality dip (flow-cell blemish).
    pub dip_prob: f64,
}

impl QualityProfile {
    /// HiSeq-2000-like profile mirroring the paper's SRR622461 sample:
    /// high, flat qualities with small jitter.
    pub fn srr622461_like() -> Self {
        Self {
            name: "SRR622461",
            start_q: 38.0,
            slope_per_cycle: -0.05,
            jitter_sd: 1.2,
            persistence: 0.9,
            dip_prob: 0.03,
        }
    }

    /// An older-chemistry profile mirroring SRR504516: lower mean, wider
    /// spread, faster decline.
    pub fn srr504516_like() -> Self {
        Self {
            name: "SRR504516",
            start_q: 34.0,
            slope_per_cycle: -0.09,
            jitter_sd: 2.2,
            persistence: 0.82,
            dip_prob: 0.06,
        }
    }

    /// Sample a quality string of `len` cycles.
    pub fn sample(&self, len: usize, rng: &mut StdRng) -> Vec<u8> {
        // gpf-lint: allow(no-panic): jitter_sd is a positive model constant
        // set in this module, never user input.
        let innov = Normal::new(0.0, self.jitter_sd).expect("valid sd");
        let mut out = Vec::with_capacity(len);
        let mut dev = 0.0f64; // AR(1) deviation from the cycle mean
        let dip_at = if rng.gen_bool(self.dip_prob) && len > 10 {
            Some(rng.gen_range(5..len - 5))
        } else {
            None
        };
        for cycle in 0..len {
            dev = self.persistence * dev + innov.sample(rng);
            let mut q = self.start_q + self.slope_per_cycle * cycle as f64 + dev;
            if let Some(d) = dip_at {
                // A short V-shaped dip around the blemish.
                let dist = (cycle as i64 - d as i64).unsigned_abs();
                if dist < 4 {
                    q -= (8 - 2 * dist) as f64;
                }
            }
            let q = q.round().clamp(2.0, MAX_PHRED as f64) as u8;
            out.push(phred_to_char(q));
        }
        out
    }

}

#[cfg(test)]
mod tests {
    use super::*;
    use gpf_support::rng::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    #[test]
    fn sample_lengths_and_range() {
        let p = QualityProfile::srr622461_like();
        let q = p.sample(150, &mut rng());
        assert_eq!(q.len(), 150);
        assert!(q.iter().all(|&c| (33..=126).contains(&c)));
    }

    #[test]
    fn srr622461_is_higher_quality_than_srr504516() {
        let mut r = rng();
        let a: f64 = QualityProfile::srr622461_like()
            .sample(100, &mut r)
            .iter()
            .map(|&c| c as f64)
            .sum::<f64>()
            / 100.0;
        let b: f64 = QualityProfile::srr504516_like()
            .sample(100, &mut r)
            .iter()
            .map(|&c| c as f64)
            .sum::<f64>()
            / 100.0;
        assert!(a > b, "{a} vs {b}");
    }

    #[test]
    fn deltas_concentrate_near_zero_figure5() {
        // The Figure 5 property: adjacent deltas are far more concentrated
        // than the raw scores.
        for profile in [QualityProfile::srr622461_like(), QualityProfile::srr504516_like()] {
            let mut r = rng();
            let mut delta_small = 0u64;
            let mut delta_total = 0u64;
            let mut raw_hist = vec![0u64; 128];
            for _ in 0..200 {
                let q = profile.sample(100, &mut r);
                for w in q.windows(2) {
                    let d = (w[1] as i32 - w[0] as i32).unsigned_abs();
                    delta_total += 1;
                    if d <= 3 {
                        delta_small += 1;
                    }
                }
                for &c in &q {
                    raw_hist[c as usize] += 1;
                }
            }
            let frac_small = delta_small as f64 / delta_total as f64;
            assert!(frac_small > 0.8, "{}: deltas within ±3: {frac_small}", profile.name);
            // Raw scores are dispersed: mode holds well under 80% of mass.
            let total: u64 = raw_hist.iter().sum();
            let mode = raw_hist.iter().max().copied().unwrap_or(0);
            assert!(
                (mode as f64) < 0.8 * total as f64,
                "{}: raw mode fraction {}",
                profile.name,
                mode as f64 / total as f64
            );
        }
    }

    #[test]
    fn quality_declines_with_cycle() {
        let p = QualityProfile::srr504516_like();
        let mut r = rng();
        let mut early = 0.0;
        let mut late = 0.0;
        for _ in 0..100 {
            let q = p.sample(100, &mut r);
            early += q[..20].iter().map(|&c| c as f64).sum::<f64>() / 20.0;
            late += q[80..].iter().map(|&c| c as f64).sum::<f64>() / 20.0;
        }
        assert!(early > late, "early {early} late {late}");
    }
}
