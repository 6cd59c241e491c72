//! Nucleotide base helpers.
//!
//! The 2-bit encoding (`A=00, G=01, C=10, T=11`) follows Figure 4 of the
//! paper exactly; [`gpf-compress`](../../gpf_compress/index.html) builds its
//! sequence-field compression on these primitives.

/// The four canonical bases in the paper's Figure 4 encoding order.
pub const BASES: [u8; 4] = [b'A', b'G', b'C', b'T'];

/// Returns `true` for the four canonical upper-case bases `A`, `C`, `G`, `T`.
#[inline]
pub(crate) fn is_canonical(b: u8) -> bool {
    matches!(b, b'A' | b'C' | b'G' | b'T')
}

/// Returns `true` for any IUPAC nucleotide code we accept in sequence fields
/// (canonical bases plus the ambiguity code `N`).
#[inline]
pub(crate) fn is_valid_seq_char(b: u8) -> bool {
    is_canonical(b) || b == b'N'
}

/// Encode a canonical base into its 2-bit code (Figure 4: `A:00 G:01 C:10 T:11`).
///
/// Returns `None` for non-canonical characters (including `N`, which the
/// compression layer escapes through the quality field instead).
#[inline]
pub fn encode2(b: u8) -> Option<u8> {
    match b {
        b'A' => Some(0b00),
        b'G' => Some(0b01),
        b'C' => Some(0b10),
        b'T' => Some(0b11),
        _ => None,
    }
}

/// Decode a 2-bit code back into its base character.
///
/// # Panics
/// Panics if `code > 3`; codes come from a 2-bit extractor so this indicates
/// an internal bug, not bad user input.
#[inline]
pub fn decode2(code: u8) -> u8 {
    BASES[code as usize]
}

/// Watson–Crick complement; `N` maps to `N`.
#[inline]
pub(crate) fn complement(b: u8) -> u8 {
    match b {
        b'A' => b'T',
        b'T' => b'A',
        b'C' => b'G',
        b'G' => b'C',
        other => other,
    }
}

/// Reverse-complement a sequence in place.
pub fn reverse_complement_in_place(seq: &mut [u8]) {
    seq.reverse();
    for b in seq.iter_mut() {
        *b = complement(*b);
    }
}

/// Reverse-complement into a new vector.
pub fn reverse_complement(seq: &[u8]) -> Vec<u8> {
    let mut v = seq.to_vec();
    reverse_complement_in_place(&mut v);
    v
}

/// Pack a base into the dense 0..=3 alphabet used by the aligner's BWT
/// (`A=0, C=1, G=2, T=3`; `N` and anything else collapse to `A`).
///
/// Note this is the *lexicographic* alphabet used for suffix sorting, which
/// intentionally differs from the compression encoding of [`encode2`].
#[inline]
pub fn rank4(b: u8) -> u8 {
    match b {
        b'A' => 0,
        b'C' => 1,
        b'G' => 2,
        b'T' => 3,
        _ => 0,
    }
}

/// Inverse of [`rank4`].
#[inline]
pub fn unrank4(r: u8) -> u8 {
    [b'A', b'C', b'G', b'T'][r as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_bit_round_trip() {
        for &b in &BASES {
            assert_eq!(decode2(encode2(b).unwrap()), b);
        }
    }

    #[test]
    fn figure4_encoding_values() {
        // Figure 4: A:00 G:01 C:10 T:11.
        assert_eq!(encode2(b'A'), Some(0));
        assert_eq!(encode2(b'G'), Some(1));
        assert_eq!(encode2(b'C'), Some(2));
        assert_eq!(encode2(b'T'), Some(3));
    }

    #[test]
    fn n_is_not_encodable() {
        assert_eq!(encode2(b'N'), None);
        assert!(is_valid_seq_char(b'N'));
        assert!(!is_canonical(b'N'));
    }

    #[test]
    fn reverse_complement_basic() {
        assert_eq!(reverse_complement(b"ACGTN"), b"NACGT".to_vec());
        // Involution on canonical sequences.
        let s = b"GGATTCCA";
        assert_eq!(reverse_complement(&reverse_complement(s)), s.to_vec());
    }

    #[test]
    fn rank4_round_trip_and_n_collapse() {
        for &b in b"ACGT" {
            assert_eq!(unrank4(rank4(b)), b);
        }
        assert_eq!(rank4(b'N'), 0);
    }
}
