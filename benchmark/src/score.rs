//! Truth scorer: the emitted VCF against the simulator's planted variants.
//!
//! A call matches a truth variant of the same contig and class (SNV or
//! indel) whose position is within ±1 (SNV) or ±8 (indel; callers
//! left-align indels differently from the planter). Matching is one to
//! one, nearest first, so two calls cannot both claim one planted variant.

use gpf_formats::vcf::VcfRecord;

const SNV_TOLERANCE: u64 = 1;
const INDEL_TOLERANCE: u64 = 8;

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassScore {
    pub tp: u64,
    pub fp: u64,
    pub fn_: u64,
}

impl ClassScore {
    pub fn precision(&self) -> f64 {
        ratio(self.tp, self.tp + self.fp)
    }

    pub fn recall(&self) -> f64 {
        ratio(self.tp, self.tp + self.fn_)
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Score {
    pub snv: ClassScore,
    pub indel: ClassScore,
    /// Matched pairs whose genotype (het / hom-alt) also agrees.
    pub gt_agree: u64,
}

impl Score {
    /// F1 over both classes pooled.
    pub fn f1(&self) -> f64 {
        let tp = self.snv.tp + self.indel.tp;
        let fp = self.snv.fp + self.indel.fp;
        let fn_ = self.snv.fn_ + self.indel.fn_;
        ratio(2 * tp, 2 * tp + fp + fn_)
    }

    /// Genotype concordance over matched pairs.
    pub fn gt_concordance(&self) -> f64 {
        ratio(self.gt_agree, self.snv.tp + self.indel.tp)
    }
}

/// An empty denominator scores 0, so an empty call set cannot look perfect.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

pub fn score(truth: &[VcfRecord], calls: &[VcfRecord]) -> Score {
    let mut out = Score::default();
    for snv in [true, false] {
        let tol = if snv { SNV_TOLERANCE } else { INDEL_TOLERANCE };
        let t: Vec<&VcfRecord> = truth.iter().filter(|v| v.is_snv() == snv).collect();
        let c: Vec<&VcfRecord> = calls.iter().filter(|v| v.is_snv() == snv).collect();
        // Every candidate pair inside the tolerance, nearest first; ties
        // break on input order so the score is deterministic.
        let mut pairs: Vec<(u64, usize, usize)> = Vec::new();
        for (ti, tv) in t.iter().enumerate() {
            for (ci, cv) in c.iter().enumerate() {
                if tv.contig == cv.contig && tv.pos.abs_diff(cv.pos) <= tol {
                    pairs.push((tv.pos.abs_diff(cv.pos), ti, ci));
                }
            }
        }
        pairs.sort_unstable();
        let mut t_used = vec![false; t.len()];
        let mut c_used = vec![false; c.len()];
        let mut tp = 0;
        for (_, ti, ci) in pairs {
            if !t_used[ti] && !c_used[ci] {
                t_used[ti] = true;
                c_used[ci] = true;
                tp += 1;
                if t[ti].genotype == c[ci].genotype {
                    out.gt_agree += 1;
                }
            }
        }
        let class = ClassScore { tp, fp: c.len() as u64 - tp, fn_: t.len() as u64 - tp };
        if snv {
            out.snv = class;
        } else {
            out.indel = class;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpf_formats::vcf::Genotype;

    fn v(contig: u32, pos: u64, r: &str, a: &str, gt: Genotype) -> VcfRecord {
        VcfRecord {
            contig,
            pos,
            ref_allele: r.as_bytes().to_vec(),
            alt_allele: a.as_bytes().to_vec(),
            qual: 50.0,
            genotype: gt,
            depth: 10,
        }
    }

    #[test]
    fn hand_built_truth_and_calls() {
        use Genotype::{Het, HomAlt};
        let truth = vec![
            v(0, 100, "A", "G", Het),      // called one base off: match
            v(0, 200, "A", "G", HomAlt),   // called two bases off: miss
            v(0, 300, "AC", "A", Het),     // indel called 8 off: match, genotype differs
            v(0, 400, "A", "ACG", HomAlt), // indel called 9 off: miss
            v(0, 500, "A", "T", Het),      // only an indel call here: class mismatch
            v(1, 100, "C", "T", Het),      // the call is on another contig
        ];
        let calls = vec![
            v(0, 101, "A", "G", Het),
            v(0, 202, "A", "G", HomAlt),
            v(0, 308, "AC", "A", HomAlt),
            v(0, 409, "A", "ACG", HomAlt),
            v(0, 500, "A", "AT", Het),
            v(2, 100, "C", "T", Het),
        ];
        let s = score(&truth, &calls);
        assert_eq!(s.snv, ClassScore { tp: 1, fp: 2, fn_: 3 });
        assert_eq!(s.indel, ClassScore { tp: 1, fp: 2, fn_: 1 });
        assert_eq!(s.gt_agree, 1);
        assert_eq!(s.gt_concordance(), 0.5);
        assert_eq!(s.snv.precision(), 1.0 / 3.0);
        assert_eq!(s.snv.recall(), 0.25);
        assert_eq!(s.f1(), 4.0 / 12.0);
    }

    #[test]
    fn one_truth_variant_matches_one_call() {
        let truth = vec![v(0, 100, "A", "G", Genotype::Het)];
        let calls = vec![v(0, 101, "A", "G", Genotype::Het), v(0, 100, "A", "G", Genotype::Het)];
        let s = score(&truth, &calls);
        assert_eq!(s.snv, ClassScore { tp: 1, fp: 1, fn_: 0 });
    }

    #[test]
    fn empty_calls_score_zero_not_nan() {
        let truth = vec![v(0, 100, "A", "G", Genotype::Het)];
        let s = score(&truth, &[]);
        assert_eq!((s.f1(), s.snv.precision(), s.gt_concordance()), (0.0, 0.0, 0.0));
    }
}
