//! Sequence-field compression (Figure 4 of the paper).
//!
//! The stored base sequence uses the 2-bit encoding `A:00 G:01 C:10 T:11`.
//! Special characters (`N`) cannot be 2-bit coded, so following Deorowicz
//! they are escaped **through the quality field**: the base is rewritten to
//! `A` and its quality byte replaced by the out-of-range marker
//! [`ESCAPE_QUAL`]. At decompression time, an `A` whose quality equals the
//! marker is recognized as an escaped `N`.
//!
//! The paper's scheme discards the `N` base's original quality; this
//! implementation keeps the codec **lossless** by storing the displaced
//! quality bytes in a small side list (`n_quals`), restoring them on
//! decompression. `N` bases are rare (<1 % of bases), so the side list is
//! negligible, and losslessness lets every downstream component assume exact
//! round-trips.

use crate::bitio::{BitReader, BitWriter};
use crate::error::CodecError;
use crate::qualcodec::QualityCodec;
use crate::varint;
use gpf_formats::base::BASES;

/// Out-of-range quality byte marking an escaped `N` (ASCII SOH, as in the
/// paper's Figure 4 example `CCCB(SOH)FFFF`).
pub const ESCAPE_QUAL: u8 = 1;

/// Per-byte encode LUT value for `N` (escaped through the quality field).
const ENC_N: u8 = 0xFE;
/// Per-byte encode LUT value for characters with no 2-bit code.
const ENC_INVALID: u8 = 0xFF;

/// byte → 2-bit code (`A:00 G:01 C:10 T:11`), [`ENC_N`] for `N`,
/// [`ENC_INVALID`] otherwise. One load replaces the per-base match of
/// `gpf_formats::base::encode2` on the packing hot path (the mapping is
/// pinned equal to `encode2` by a unit test below).
static ENC_LUT: [u8; 256] = {
    let mut t = [ENC_INVALID; 256];
    t[b'A' as usize] = 0b00;
    t[b'G' as usize] = 0b01;
    t[b'C' as usize] = 0b10;
    t[b'T' as usize] = 0b11;
    t[b'N' as usize] = ENC_N;
    t
};

/// packed byte → 4 base characters (MSB-first 2-bit groups). Unpacking
/// becomes one load + 4-byte copy per packed byte instead of 4 bit-extract
/// iterations.
static DEC_LUT: [[u8; 4]; 256] = {
    let mut t = [[0u8; 4]; 256];
    let mut b = 0usize;
    while b < 256 {
        let mut i = 0usize;
        while i < 4 {
            t[b][i] = BASES[(b >> (6 - 2 * i)) & 3];
            i += 1;
        }
        b += 1;
    }
    t
};

/// The compressed form of a read's sequence + quality fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompressedRead {
    /// Number of bases before compression (the "length of sequence" byte in
    /// Figure 4, widened to a varint).
    pub len: u32,
    /// 2-bit packed bases, zero-padded to a byte boundary.
    pub packed_seq: Vec<u8>,
    /// Huffman-coded delta stream of the (escape-transformed) quality string,
    /// EOF-terminated.
    pub qual_stream: Vec<u8>,
    /// Original quality bytes displaced by the escape marker, in read order.
    pub n_quals: Vec<u8>,
}

impl CompressedRead {
    /// Total compressed payload size in bytes (what the engine charges to
    /// memory/shuffle when this read is stored serialized).
    pub fn payload_bytes(&self) -> usize {
        varint::u64_len(self.len as u64)
            + self.packed_seq.len()
            + varint::u64_len(self.qual_stream.len() as u64)
            + self.qual_stream.len()
            + varint::u64_len(self.n_quals.len() as u64)
            + self.n_quals.len()
    }
}

/// Reusable buffers for the per-record codec hot path. One instance per
/// encoding thread (or serializer) amortizes every allocation the codec
/// would otherwise make per record.
#[derive(Debug, Default)]
pub struct ReadCodecScratch {
    packed: Vec<u8>,
    tqual: Vec<u8>,
    n_quals: Vec<u8>,
    qual_writer: BitWriter,
}

/// Borrowed view of one compressed read inside a [`ReadCodecScratch`] —
/// the fields of [`CompressedRead`] without owning them. Valid until the
/// scratch is reused.
#[derive(Debug, Clone, Copy)]
pub struct CompressedParts<'a> {
    /// Number of bases before compression.
    pub len: u32,
    /// 2-bit packed bases, zero-padded to a byte boundary.
    pub packed_seq: &'a [u8],
    /// Huffman-coded delta stream of the quality string, EOF-terminated.
    pub qual_stream: &'a [u8],
    /// Original quality bytes displaced by the `N` escape, in read order.
    pub n_quals: &'a [u8],
}

/// Compress a read's sequence and quality fields together.
///
/// `seq` may contain `A C G T N`; anything else is an error. `qual` must be
/// the same length with characters in `[33, 126]`.
pub fn compress_read_fields(
    seq: &[u8],
    qual: &[u8],
    codec: &QualityCodec,
) -> Result<CompressedRead, CodecError> {
    let mut scratch = ReadCodecScratch::default();
    let len = compress_read_fields_into(seq, qual, codec, &mut scratch)?.len;
    // The scratch is local, so its buffers can be moved out instead of
    // copied; `finish()` already ran, so `into_bytes` is a plain move.
    let ReadCodecScratch { packed, n_quals, qual_writer, .. } = scratch;
    Ok(CompressedRead {
        len,
        packed_seq: packed,
        qual_stream: qual_writer.into_bytes(),
        n_quals,
    })
}

/// [`compress_read_fields`] into caller-owned scratch buffers: zero
/// allocations per record once the scratch has warmed up. The returned
/// [`CompressedParts`] borrows the scratch.
pub fn compress_read_fields_into<'s>(
    seq: &[u8],
    qual: &[u8],
    codec: &QualityCodec,
    scratch: &'s mut ReadCodecScratch,
) -> Result<CompressedParts<'s>, CodecError> {
    if seq.len() != qual.len() {
        return Err(CodecError::Corrupt(format!(
            "seq len {} != qual len {}",
            seq.len(),
            qual.len()
        )));
    }
    // Tracing-only base throughput; the enabled() gate keeps the registry
    // mutex off the untraced hot path.
    if gpf_trace::enabled() {
        gpf_trace::counter(gpf_trace::names::CODEC_BASES).add(seq.len() as u64);
    }
    scratch.packed.clear();
    scratch.packed.reserve(seq.len().div_ceil(4));
    scratch.tqual.clear();
    scratch.tqual.reserve(qual.len());
    scratch.n_quals.clear();
    // LUT pack: 2-bit groups accumulate MSB-first in a register and land in
    // memory once per 4 bases — byte-identical to the bit-writer stream.
    let mut acc = 0u8;
    let mut k = 0u8;
    for (&b, &q) in seq.iter().zip(qual) {
        let code = ENC_LUT[b as usize];
        if code < 4 {
            acc = (acc << 2) | code;
            scratch.tqual.push(q);
        } else if code == ENC_N {
            // Escape: store base as A (00), mark through the quality field.
            acc <<= 2;
            scratch.tqual.push(ESCAPE_QUAL);
            scratch.n_quals.push(q);
        } else {
            return Err(CodecError::UnencodableBase { base: b });
        }
        k += 1;
        if k == 4 {
            scratch.packed.push(acc);
            acc = 0;
            k = 0;
        }
    }
    if k > 0 {
        scratch.packed.push(acc << (2 * (4 - k)));
    }
    scratch.qual_writer.clear();
    codec.encode(&scratch.tqual, &mut scratch.qual_writer)?;
    Ok(CompressedParts {
        len: seq.len() as u32,
        packed_seq: &scratch.packed,
        qual_stream: scratch.qual_writer.finish(),
        n_quals: &scratch.n_quals,
    })
}

/// Decompress back to `(seq, qual)`.
pub fn decompress_read_fields(
    read: &CompressedRead,
    codec: &QualityCodec,
) -> Result<(Vec<u8>, Vec<u8>), CodecError> {
    let mut seq = Vec::new();
    let mut qual = Vec::new();
    decompress_read_fields_into(
        read.len,
        &read.packed_seq,
        &read.qual_stream,
        &read.n_quals,
        codec,
        &mut seq,
        &mut qual,
    )?;
    Ok((seq, qual))
}

/// [`decompress_read_fields`] from borrowed field slices into caller-owned
/// output buffers (cleared first). Lets deserializers decode straight out
/// of a batch buffer without materializing a [`CompressedRead`].
#[allow(clippy::too_many_arguments)]
pub fn decompress_read_fields_into(
    len: u32,
    packed_seq: &[u8],
    qual_stream: &[u8],
    n_quals: &[u8],
    codec: &QualityCodec,
    seq_out: &mut Vec<u8>,
    qual_out: &mut Vec<u8>,
) -> Result<(), CodecError> {
    let n = len as usize;
    if packed_seq.len() * 4 < n {
        // Same condition under which the bit reader would run dry.
        return Err(CodecError::UnexpectedEof);
    }
    // LUT unpack: one load + 4-byte append per packed byte, then trim the
    // zero-padding tail.
    seq_out.clear();
    seq_out.reserve(n + 3);
    for &byte in &packed_seq[..n.div_ceil(4)] {
        seq_out.extend_from_slice(&DEC_LUT[byte as usize]);
    }
    seq_out.truncate(n);
    qual_out.clear();
    let mut qr = BitReader::new(qual_stream);
    codec.decode_into(&mut qr, qual_out)?;
    if qual_out.len() != n {
        return Err(CodecError::Corrupt(format!(
            "quality stream decoded {} chars, expected {}",
            qual_out.len(),
            len
        )));
    }
    // Restore escaped Ns and their displaced qualities.
    let mut k = 0usize;
    for (b, q) in seq_out.iter_mut().zip(qual_out.iter_mut()) {
        if *q == ESCAPE_QUAL {
            if *b != b'A' {
                return Err(CodecError::Corrupt("escape marker on non-A base".into()));
            }
            *b = b'N';
            *q = *n_quals
                .get(k)
                .ok_or_else(|| CodecError::Corrupt("missing escaped quality".into()))?;
            k += 1;
        }
    }
    if k != n_quals.len() {
        return Err(CodecError::Corrupt("unused escaped qualities".into()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codec() -> QualityCodec {
        QualityCodec::default_codec()
    }

    #[test]
    fn figure4_example_round_trips() {
        // Figure 4: sequence GGTTNCCTA, quality CCCB#FFFF.
        let seq = b"GGTTNCCTA";
        let qual = b"CCCB#FFFF";
        let c = compress_read_fields(seq, qual, &codec()).unwrap();
        // 9 bases -> 3 packed bytes; the N was escaped.
        assert_eq!(c.packed_seq.len(), 3);
        assert_eq!(c.n_quals, vec![b'#']);
        // Packed bits match the figure: (00 -> A substituted for N).
        assert_eq!(c.packed_seq[0], 0b0101_1111);
        assert_eq!(c.packed_seq[1], 0b0010_1011);
        assert_eq!(c.packed_seq[2], 0b0000_0000);
        let (s2, q2) = decompress_read_fields(&c, &codec()).unwrap();
        assert_eq!(s2, seq.to_vec());
        assert_eq!(q2, qual.to_vec());
    }

    #[test]
    fn lossless_on_all_n_read() {
        let seq = b"NNNNN";
        let qual = b"#!#!#";
        let c = compress_read_fields(seq, qual, &codec()).unwrap();
        assert_eq!(c.n_quals.len(), 5);
        let (s2, q2) = decompress_read_fields(&c, &codec()).unwrap();
        assert_eq!(s2, seq.to_vec());
        assert_eq!(q2, qual.to_vec());
    }

    #[test]
    fn real_q0_base_is_not_confused_with_escape() {
        // '!' is Phred 0 but a legitimate quality; only the out-of-range
        // marker (1) flags an escape.
        let seq = b"ACGT";
        let qual = b"!!!!";
        let c = compress_read_fields(seq, qual, &codec()).unwrap();
        assert!(c.n_quals.is_empty());
        let (s2, q2) = decompress_read_fields(&c, &codec()).unwrap();
        assert_eq!(s2, seq.to_vec());
        assert_eq!(q2, qual.to_vec());
    }

    #[test]
    fn empty_read() {
        let c = compress_read_fields(b"", b"", &codec()).unwrap();
        assert_eq!(c.len, 0);
        let (s2, q2) = decompress_read_fields(&c, &codec()).unwrap();
        assert!(s2.is_empty());
        assert!(q2.is_empty());
    }

    #[test]
    fn rejects_bad_base_and_length_mismatch() {
        assert!(matches!(
            compress_read_fields(b"ACXT", b"IIII", &codec()),
            Err(CodecError::UnencodableBase { base: b'X' })
        ));
        assert!(compress_read_fields(b"ACGT", b"III", &codec()).is_err());
    }

    #[test]
    fn hundred_base_read_compresses_roughly_4x() {
        // A realistic 100bp read: canonical bases + smooth qualities.
        let seq: Vec<u8> = (0..100).map(|i| b"ACGT"[i % 4]).collect();
        let mut qual = vec![70u8; 100];
        qual[50] = 68;
        let c = compress_read_fields(&seq, &qual, &codec()).unwrap();
        // Sequence: 100 bases -> 25 bytes (4x). Quality: ~1-2 bits/char.
        assert_eq!(c.packed_seq.len(), 25);
        // (seq + qual bytes) / compressed payload bytes.
        let ratio = 200.0 / c.payload_bytes() as f64;
        assert!(ratio > 3.0, "ratio = {ratio}");
    }

    #[test]
    fn luts_agree_with_base_primitives() {
        use gpf_formats::base::{decode2, encode2};
        for b in 0..=255u8 {
            match encode2(b) {
                Some(code) => assert_eq!(ENC_LUT[b as usize], code, "byte {b}"),
                None if b == b'N' => assert_eq!(ENC_LUT[b as usize], ENC_N),
                None => assert_eq!(ENC_LUT[b as usize], ENC_INVALID, "byte {b}"),
            }
        }
        for byte in 0..=255u8 {
            for i in 0..4 {
                let code = (byte >> (6 - 2 * i)) & 3;
                assert_eq!(DEC_LUT[byte as usize][i as usize], decode2(code));
            }
        }
    }

    #[test]
    fn scratch_reuse_is_byte_identical_across_records() {
        let codec = codec();
        let reads: [(&[u8], &[u8]); 3] =
            [(b"GGTTNCCTA", b"CCCB#FFFF"), (b"ACGT", b"IIII"), (b"NNN", b"#!#")];
        let mut scratch = ReadCodecScratch::default();
        for (seq, qual) in reads {
            let fresh = compress_read_fields(seq, qual, &codec).unwrap();
            let parts = compress_read_fields_into(seq, qual, &codec, &mut scratch).unwrap();
            assert_eq!(parts.len, fresh.len);
            assert_eq!(parts.packed_seq, &fresh.packed_seq[..]);
            assert_eq!(parts.qual_stream, &fresh.qual_stream[..]);
            assert_eq!(parts.n_quals, &fresh.n_quals[..]);
        }
    }

    #[test]
    fn corrupt_stream_is_detected() {
        let c = compress_read_fields(b"ACGTN", b"IIII#", &codec()).unwrap();
        // Drop the displaced quality -> decode must error, not panic.
        let mut broken = c.clone();
        broken.n_quals.clear();
        assert!(decompress_read_fields(&broken, &codec()).is_err());
        // Truncate the packed sequence.
        let mut broken2 = c;
        broken2.packed_seq.truncate(1);
        assert!(decompress_read_fields(&broken2, &codec()).is_err());
    }
}
