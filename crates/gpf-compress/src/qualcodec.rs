//! Quality-field compression (Figures 5 and 6 of the paper).
//!
//! Adjacent quality scores are far more predictable than the scores
//! themselves (Figure 5): the vast majority of adjacent differences fall in
//! a narrow band around zero. GPF therefore converts the quality string into
//! a **delta sequence** (first value encoded as a delta from zero) and
//! Huffman-codes it with an explicit **EOF** symbol terminating each record
//! (Figure 6).
//!
//! Every serializer uses one table, [`QualityCodec::default_codec`]: a
//! static table shaped like a HiSeq delta distribution (sharply peaked at
//! 0), with every legal symbol given a nonzero floor frequency so *any*
//! valid quality string is encodable. No table is fitted per partition, so
//! none travels with one.

use crate::bitio::{BitReader, BitWriter};
use crate::error::CodecError;
use crate::huffman::HuffmanCodec;

/// Quality characters live in `[1, 126]`: Phred+33 chars `[33,126]` plus the
/// out-of-range escape marker `1` used by the sequence codec for `N` bases.
pub const MIN_QUAL_CHAR: u8 = 1;
/// Upper end of the legal quality character range.
pub const MAX_QUAL_CHAR: u8 = 126;

/// Deltas range over `[-(MAX-MIN), MAX-MIN]` = `[-125, 125]`.
const DELTA_OFFSET: i32 = 126;
/// Symbols `0..=252` are deltas; `253` is EOF.
const EOF_SYMBOL: u32 = 253;
/// Alphabet size including EOF.
const ALPHABET: usize = 254;

/// Delta + Huffman quality codec.
#[derive(Debug, Clone)]
pub struct QualityCodec {
    huff: HuffmanCodec,
}

#[inline]
fn delta_to_symbol(d: i32) -> u32 {
    (d + DELTA_OFFSET) as u32
}

#[inline]
fn symbol_to_delta(s: u32) -> i32 {
    s as i32 - DELTA_OFFSET
}

impl QualityCodec {
    /// Build from an explicit symbol frequency table (`ALPHABET` entries).
    pub fn from_frequencies(freqs: &[u64]) -> Self {
        assert_eq!(freqs.len(), ALPHABET);
        Self { huff: HuffmanCodec::from_frequencies(freqs) }
    }

    /// The static default table: geometric decay around delta 0 (the paper's
    /// Figure 5 shape — most adjacent differences within ±10), a secondary
    /// bump for first-character values (delta from zero lands near +33..+75),
    /// and a floor of 1 for every symbol so arbitrary input stays encodable.
    pub fn default_codec() -> Self {
        let mut freqs = vec![1u64; ALPHABET];
        for d in -125i32..=125 {
            let sym = delta_to_symbol(d) as usize;
            let mag = d.unsigned_abs();
            if mag <= 40 {
                // ~55% at 0, halving every step for |d| ≤ 10, then a long tail.
                let f = if mag <= 10 {
                    1_000_000u64 >> mag
                } else {
                    1_000 / (mag as u64)
                };
                freqs[sym] += f;
            }
        }
        // First character of each record: raw values ~ +33..+75 from zero.
        for v in 33i32..=75 {
            freqs[delta_to_symbol(v) as usize] += 2_000;
        }
        // Escape transitions (into/out of qual char 1) are rare but present.
        freqs[delta_to_symbol(-60) as usize] += 100;
        freqs[delta_to_symbol(60) as usize] += 100;
        // EOF occurs once per record (~once per 100 symbols).
        freqs[EOF_SYMBOL as usize] += 20_000;
        Self::from_frequencies(&freqs)
    }

    /// Encode one quality string as deltas + EOF.
    ///
    /// The `BitWriter` is the caller's scratch: per-record encoders keep one
    /// writer alive and [`BitWriter::clear`] it between records instead of
    /// allocating a stream per call.
    ///
    /// Returns an error if any character is outside `[MIN_QUAL_CHAR,
    /// MAX_QUAL_CHAR]`.
    pub fn encode(&self, qual: &[u8], w: &mut BitWriter) -> Result<(), CodecError> {
        let mut prev = 0i32;
        for &c in qual {
            if !(MIN_QUAL_CHAR..=MAX_QUAL_CHAR).contains(&c) {
                return Err(CodecError::SymbolOutOfRange { symbol: c as i32 });
            }
            let d = c as i32 - prev;
            self.huff.encode(delta_to_symbol(d), w)?;
            prev = c as i32;
        }
        self.huff.encode(EOF_SYMBOL, w)
    }

    /// Decode one quality string (terminated by EOF).
    pub fn decode(&self, r: &mut BitReader<'_>) -> Result<Vec<u8>, CodecError> {
        let mut out = Vec::new();
        self.decode_into(r, &mut out)?;
        Ok(out)
    }

    /// Decode one quality string (terminated by EOF), appending onto `out`.
    /// Callers decoding many records keep one buffer and `clear()` between
    /// records, so the decode loop never allocates.
    pub fn decode_into(&self, r: &mut BitReader<'_>, out: &mut Vec<u8>) -> Result<(), CodecError> {
        let mut prev = 0i32;
        loop {
            let sym = self.huff.decode(r)?;
            if sym == EOF_SYMBOL {
                return Ok(());
            }
            let v = prev + symbol_to_delta(sym);
            if !(MIN_QUAL_CHAR as i32..=MAX_QUAL_CHAR as i32).contains(&v) {
                return Err(CodecError::Corrupt(format!("decoded quality {v} out of range")));
            }
            out.push(v as u8);
            prev = v;
        }
    }

    /// Encode to a fresh byte buffer (convenience for tests and serializers).
    pub fn encode_to_bytes(&self, qual: &[u8]) -> Result<Vec<u8>, CodecError> {
        let mut w = BitWriter::new();
        self.encode(qual, &mut w)?;
        Ok(w.into_bytes())
    }

    /// Expected compressed bits per input character for a delta histogram.
    pub fn expected_bits(&self, freqs: &[u64]) -> f64 {
        self.huff.expected_bits(freqs)
    }

    /// Access the canonical code-length table (for table exchange).
    pub fn lengths(&self) -> &[u8] {
        self.huff.lengths()
    }
}

impl Default for QualityCodec {
    fn default() -> Self {
        Self::default_codec()
    }
}

/// Compute the delta histogram of a set of quality strings — the data behind
/// the paper's Figure 5(b).
pub fn delta_histogram<'a>(sample: impl IntoIterator<Item = &'a [u8]>) -> Vec<u64> {
    let mut freqs = vec![0u64; ALPHABET];
    for qual in sample {
        let mut prev: Option<i32> = None;
        for &c in qual {
            if let Some(p) = prev {
                freqs[delta_to_symbol(c as i32 - p) as usize] += 1;
            }
            prev = Some(c as i32);
        }
    }
    freqs
}

/// Map a histogram index back to its delta value (for reporting).
pub fn histogram_delta(index: usize) -> i32 {
    symbol_to_delta(index as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(codec: &QualityCodec, qual: &[u8]) {
        let bytes = codec.encode_to_bytes(qual).unwrap();
        let mut r = BitReader::new(&bytes);
        assert_eq!(codec.decode(&mut r).unwrap(), qual.to_vec());
    }

    #[test]
    fn figure6_example_round_trips() {
        // "CCCB(SOH)FFFF" — the paper's Figure 6 example with the escape char.
        let qual = [67u8, 67, 67, 66, 1, 70, 70, 70, 70];
        round_trip(&QualityCodec::default_codec(), &qual);
    }

    #[test]
    fn empty_and_single_round_trip() {
        let codec = QualityCodec::default_codec();
        round_trip(&codec, b"");
        round_trip(&codec, b"I");
        round_trip(&codec, b"!");
    }

    #[test]
    fn full_range_round_trips() {
        let codec = QualityCodec::default_codec();
        let qual: Vec<u8> = (MIN_QUAL_CHAR..=MAX_QUAL_CHAR).collect();
        round_trip(&codec, &qual);
        let rev: Vec<u8> = (MIN_QUAL_CHAR..=MAX_QUAL_CHAR).rev().collect();
        round_trip(&codec, &rev);
    }

    #[test]
    fn rejects_out_of_range_chars() {
        let codec = QualityCodec::default_codec();
        let mut w = BitWriter::new();
        assert!(codec.encode(&[0u8], &mut w).is_err());
        assert!(codec.encode(&[127u8], &mut w).is_err());
    }

    #[test]
    fn typical_hiseq_quals_compress_well() {
        // Flat high-quality string with small dips — like a real HiSeq read.
        let mut qual = vec![70u8; 100];
        qual[20] = 68;
        qual[21] = 69;
        qual[80] = 65;
        let codec = QualityCodec::default_codec();
        let bytes = codec.encode_to_bytes(&qual).unwrap();
        // 100 chars -> should take far fewer than 100 bytes; peaked deltas
        // give ~1-2 bits/char.
        assert!(bytes.len() < 40, "compressed to {} bytes", bytes.len());
        round_trip(&codec, &qual);
    }

    #[test]
    fn multiple_records_share_a_stream() {
        let codec = QualityCodec::default_codec();
        let quals: [&[u8]; 3] = [b"IIII", b"!!!!", b"ABCDEFG"];
        let mut w = BitWriter::new();
        for q in quals {
            codec.encode(q, &mut w).unwrap();
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for q in quals {
            assert_eq!(codec.decode(&mut r).unwrap(), q.to_vec());
        }
    }

    #[test]
    fn delta_histogram_shape() {
        let quals: [&[u8]; 2] = [&[70, 70, 69, 70], &[40, 40, 40]];
        let h = delta_histogram(quals.iter().copied());
        // deltas: 0, -1, +1 | 0, 0  -> histogram: 3 zeros, one -1, one +1.
        assert_eq!(h[delta_to_symbol(0) as usize], 3);
        assert_eq!(h[delta_to_symbol(-1) as usize], 1);
        assert_eq!(h[delta_to_symbol(1) as usize], 1);
        assert_eq!(histogram_delta(delta_to_symbol(-5) as usize), -5);
    }
}
