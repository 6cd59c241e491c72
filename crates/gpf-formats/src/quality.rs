//! Phred quality-score helpers (Phred+33 "Sanger" encoding).
//!
//! FASTQ/SAM quality strings store `q + 33` per base. The paper (§4.2,
//! footnote 1) notes the legal character range of a normal read is
//! `[33, 126]`, i.e. Phred scores `[0, 93]`. The compression layer reserves
//! quality *score* 0 (character `!`) as the escape marker for `N` bases.

/// ASCII offset of the Phred+33 encoding.
pub(crate) const PHRED_OFFSET: u8 = 33;

/// Highest legal Phred+33 character (`~`).
pub const MAX_QUAL_CHAR: u8 = 126;

/// Highest legal Phred score under Phred+33.
pub const MAX_PHRED: u8 = MAX_QUAL_CHAR - PHRED_OFFSET;

/// Convert a Phred score (0..=93) to its ASCII character.
#[inline]
pub fn phred_to_char(q: u8) -> u8 {
    debug_assert!(q <= MAX_PHRED);
    q + PHRED_OFFSET
}

/// Convert a Phred+33 ASCII character to its Phred score.
#[inline]
pub fn char_to_phred(c: u8) -> u8 {
    debug_assert!((PHRED_OFFSET..=MAX_QUAL_CHAR).contains(&c));
    c - PHRED_OFFSET
}

/// `true` if `c` is a legal Phred+33 quality character.
#[inline]
pub fn is_valid_qual_char(c: u8) -> bool {
    (PHRED_OFFSET..=MAX_QUAL_CHAR).contains(&c)
}

/// Error probability for a Phred score: `10^(-q/10)`.
#[inline]
pub fn phred_to_error_prob(q: u8) -> f64 {
    10f64.powf(-(q as f64) / 10.0)
}

/// Lazily-built 256-entry quality-character → error-probability table.
///
/// Indexed by the raw Phred+33 byte; entries are bit-identical to
/// `phred_to_error_prob(char_to_phred(c))` for legal characters, and
/// hostile bytes clamp to the nearest legal score (below `!` → Phred 0,
/// above `~` → Phred 93) instead of panicking — the pair-HMM kernels must
/// stay total over arbitrary input. One `powf` per table entry at first
/// use replaces one `powf` per read base forever after.
static CHAR_ERROR_PROB: std::sync::OnceLock<[f64; 256]> = std::sync::OnceLock::new();

/// Error probability for a raw Phred+33 quality byte, via the cached
/// table; total over all `u8` (out-of-range bytes clamp).
#[inline]
pub fn char_to_error_prob(c: u8) -> f64 {
    let table = CHAR_ERROR_PROB.get_or_init(|| {
        let mut t = [0.0f64; 256];
        for (i, slot) in t.iter_mut().enumerate() {
            let q = (i as u8).clamp(PHRED_OFFSET, MAX_QUAL_CHAR) - PHRED_OFFSET;
            *slot = phred_to_error_prob(q);
        }
        t
    });
    table[c as usize]
}

/// Sum of Phred scores of a quality string — the Picard criterion used by
/// MarkDuplicate to pick the representative read among duplicates. The
/// record invariant keeps every byte in Phred+33.
pub(crate) fn phred_sum(qual: &[u8]) -> u64 {
    qual.iter().map(|&c| char_to_phred(c) as u64).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn char_round_trip() {
        for q in 0..=MAX_PHRED {
            assert_eq!(char_to_phred(phred_to_char(q)), q);
        }
    }

    #[test]
    fn q30_is_one_in_thousand() {
        let p = phred_to_error_prob(30);
        assert!((p - 0.001).abs() < 1e-12);
    }

    #[test]
    fn phred_sum_counts_scores_not_chars() {
        // "II" = Q40 Q40.
        assert_eq!(phred_sum(b"II"), 80);
        assert_eq!(phred_sum(b"!"), 0);
        assert_eq!(phred_sum(b""), 0);
    }

    #[test]
    fn char_table_matches_powf_and_clamps() {
        for c in PHRED_OFFSET..=MAX_QUAL_CHAR {
            let direct = phred_to_error_prob(c - PHRED_OFFSET);
            assert_eq!(char_to_error_prob(c).to_bits(), direct.to_bits(), "char {c}");
        }
        // Hostile bytes clamp to the nearest legal Phred score.
        assert_eq!(char_to_error_prob(0), phred_to_error_prob(0));
        assert_eq!(char_to_error_prob(32), phred_to_error_prob(0));
        assert_eq!(char_to_error_prob(127), phred_to_error_prob(MAX_PHRED));
        assert_eq!(char_to_error_prob(255), phred_to_error_prob(MAX_PHRED));
    }

    #[test]
    fn validity_range() {
        assert!(is_valid_qual_char(b'!'));
        assert!(is_valid_qual_char(b'~'));
        assert!(!is_valid_qual_char(b' '));
        assert!(!is_valid_qual_char(127));
    }
}
