//! The seed's bit-at-a-time codec, kept as the executable oracle.
//!
//! This is the read-field codec as it stood before the word-level bit I/O
//! and the table-driven Huffman decoder: one bit per loop iteration on both
//! sides, a 2-bit write per base, the canonical walk per symbol. It lives
//! under `tests/` only, so the library carries one codec and
//! `proptests.rs` pins that one to this — byte-identical streams, equal
//! bit positions, errors at the same place.
//!
//! It is written against the library's public surface and shares nothing
//! of the transform it checks: the Huffman table is rebuilt from the
//! codec's shipped code lengths (the table-exchange form), and the delta
//! offset, the EOF symbol, the quality range and the `N` escape below are
//! this file's own statement of the wire format (Figures 4–6), so a
//! constant drifting in the library fails the differential instead of
//! moving both sides. Keep it verbatim-slow.

use gpf_compress::sequence::CompressedRead;
use gpf_compress::{CodecError, HuffmanCodec, QualityCodec};
use gpf_formats::base::{decode2, encode2};

/// Quality characters live in `[1, 126]`: Phred+33 plus the escape marker.
const MIN_QUAL_CHAR: u8 = 1;
const MAX_QUAL_CHAR: u8 = 126;
/// A delta `d` in `[-125, 125]` is symbol `d + 126`.
const DELTA_OFFSET: i32 = 126;
/// Symbol terminating each record's quality stream.
const EOF_SYMBOL: u32 = 253;
/// Quality byte standing in for an `N` base (the base itself is sent as `A`).
const ESCAPE_QUAL: u8 = 1;

/// The seed `BitWriter`: appends one bit per loop iteration.
#[derive(Debug, Default)]
pub struct RefBitWriter {
    buf: Vec<u8>,
    /// Number of valid bits in the final partial byte (0 = byte-aligned).
    nbits: u8,
}

impl RefBitWriter {
    pub fn new() -> Self {
        Self::default()
    }

    /// Write the low `n` bits of `value` (MSB of the group first). `n ≤ 32`.
    pub fn write_bits(&mut self, value: u32, n: u8) {
        debug_assert!(n <= 32);
        for i in (0..n).rev() {
            let bit = ((value >> i) & 1) as u8;
            if self.nbits == 0 {
                self.buf.push(bit << 7);
            } else if let Some(last) = self.buf.last_mut() {
                *last |= bit << (7 - self.nbits);
            }
            self.nbits = (self.nbits + 1) % 8;
        }
    }

    pub fn write_bit(&mut self, bit: bool) {
        self.write_bits(bit as u32, 1);
    }

    /// Total bits written so far.
    pub fn bit_len(&self) -> usize {
        if self.nbits == 0 {
            self.buf.len() * 8
        } else {
            (self.buf.len() - 1) * 8 + self.nbits as usize
        }
    }

    /// Finish, zero-padding the final byte, and return the buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// The seed `BitReader`: extracts one bit per call through byte indexing.
#[derive(Debug)]
pub struct RefBitReader<'a> {
    buf: &'a [u8],
    /// Next bit index.
    pos: usize,
}

impl<'a> RefBitReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Read `n ≤ 32` bits, MSB-first.
    pub fn read_bits(&mut self, n: u8) -> Result<u32, CodecError> {
        debug_assert!(n <= 32);
        let mut v: u32 = 0;
        for _ in 0..n {
            v = (v << 1) | self.read_bit()? as u32;
        }
        Ok(v)
    }

    pub fn read_bit(&mut self) -> Result<bool, CodecError> {
        let byte = self.buf.get(self.pos / 8).ok_or(CodecError::UnexpectedEof)?;
        let bit = (byte >> (7 - (self.pos % 8))) & 1;
        self.pos += 1;
        Ok(bit == 1)
    }

    /// Bits consumed so far.
    pub fn bit_pos(&self) -> usize {
        self.pos
    }

    /// Remaining readable bits.
    pub fn remaining_bits(&self) -> usize {
        self.buf.len() * 8 - self.pos
    }
}

/// The codec's Huffman table, rebuilt from the code lengths it ships.
fn table(codec: &QualityCodec) -> HuffmanCodec {
    HuffmanCodec::from_lengths(codec.lengths().to_vec())
}

/// Seed quality encode: delta transform + canonical Huffman, one bit at a
/// time into a [`RefBitWriter`].
pub fn encode_quality_ref(
    codec: &QualityCodec,
    qual: &[u8],
    w: &mut RefBitWriter,
) -> Result<(), CodecError> {
    let huff = table(codec);
    let mut emit = |sym: u32| -> Result<(), CodecError> {
        let (code, len) =
            huff.code(sym).ok_or(CodecError::SymbolOutOfRange { symbol: sym as i32 })?;
        w.write_bits(code, len);
        Ok(())
    };
    let mut prev = 0i32;
    for &c in qual {
        if !(MIN_QUAL_CHAR..=MAX_QUAL_CHAR).contains(&c) {
            return Err(CodecError::SymbolOutOfRange { symbol: c as i32 });
        }
        emit((c as i32 - prev + DELTA_OFFSET) as u32)?;
        prev = c as i32;
    }
    emit(EOF_SYMBOL)
}

/// Seed quality decode: canonical-walk Huffman, one bit at a time from a
/// [`RefBitReader`], appending onto `out`.
pub fn decode_quality_ref(
    codec: &QualityCodec,
    r: &mut RefBitReader<'_>,
    out: &mut Vec<u8>,
) -> Result<(), CodecError> {
    let huff = table(codec);
    let mut prev = 0i32;
    loop {
        let sym = huff.decode_with(&mut || r.read_bit())?;
        if sym == EOF_SYMBOL {
            return Ok(());
        }
        let v = prev + sym as i32 - DELTA_OFFSET;
        if !(MIN_QUAL_CHAR as i32..=MAX_QUAL_CHAR as i32).contains(&v) {
            return Err(CodecError::Corrupt(format!("decoded quality {v} out of range")));
        }
        out.push(v as u8);
        prev = v;
    }
}

/// The seed `compress_read_fields`: per-base 2-bit writes through the
/// scalar bit writer, fresh allocations per record.
pub fn compress_read_fields_ref(
    seq: &[u8],
    qual: &[u8],
    codec: &QualityCodec,
) -> Result<CompressedRead, CodecError> {
    if seq.len() != qual.len() {
        return Err(CodecError::Corrupt(format!(
            "seq len {} != qual len {}",
            seq.len(),
            qual.len()
        )));
    }
    let mut packed = RefBitWriter::new();
    let mut tqual = Vec::with_capacity(qual.len());
    let mut n_quals = Vec::new();
    for (&b, &q) in seq.iter().zip(qual) {
        match encode2(b) {
            Some(code) => {
                packed.write_bits(code as u32, 2);
                tqual.push(q);
            }
            None if b == b'N' => {
                packed.write_bits(0, 2);
                tqual.push(ESCAPE_QUAL);
                n_quals.push(q);
            }
            None => return Err(CodecError::UnencodableBase { base: b }),
        }
    }
    let mut qw = RefBitWriter::new();
    encode_quality_ref(codec, &tqual, &mut qw)?;
    Ok(CompressedRead {
        len: seq.len() as u32,
        packed_seq: packed.into_bytes(),
        qual_stream: qw.into_bytes(),
        n_quals,
    })
}

/// The seed `decompress_read_fields`: 2 bits per base through the scalar
/// bit reader, canonical-walk quality decode.
pub fn decompress_read_fields_ref(
    read: &CompressedRead,
    codec: &QualityCodec,
) -> Result<(Vec<u8>, Vec<u8>), CodecError> {
    let mut seq = Vec::with_capacity(read.len as usize);
    let mut br = RefBitReader::new(&read.packed_seq);
    for _ in 0..read.len {
        let code = br.read_bits(2)? as u8;
        seq.push(decode2(code));
    }
    let mut qr = RefBitReader::new(&read.qual_stream);
    let mut qual = Vec::new();
    decode_quality_ref(codec, &mut qr, &mut qual)?;
    if qual.len() != read.len as usize {
        return Err(CodecError::Corrupt(format!(
            "quality stream decoded {} chars, expected {}",
            qual.len(),
            read.len
        )));
    }
    let mut k = 0usize;
    for (b, q) in seq.iter_mut().zip(qual.iter_mut()) {
        if *q == ESCAPE_QUAL {
            if *b != b'A' {
                return Err(CodecError::Corrupt("escape marker on non-A base".into()));
            }
            *b = b'N';
            *q = *read
                .n_quals
                .get(k)
                .ok_or_else(|| CodecError::Corrupt("missing escaped quality".into()))?;
            k += 1;
        }
    }
    if k != read.n_quals.len() {
        return Err(CodecError::Corrupt("unused escaped qualities".into()));
    }
    Ok((seq, qual))
}

// The oracle's own checks, and the fixed cases that pin the library to it.

#[test]
fn ref_bitio_round_trip() {
    let mut w = RefBitWriter::new();
    w.write_bits(0b101, 3);
    w.write_bits(0xFF, 8);
    w.write_bit(false);
    assert_eq!(w.bit_len(), 12);
    let bytes = w.into_bytes();
    let mut r = RefBitReader::new(&bytes);
    assert_eq!(r.read_bits(3).unwrap(), 0b101);
    assert_eq!(r.read_bits(8).unwrap(), 0xFF);
    assert!(!r.read_bit().unwrap());
    assert_eq!(r.bit_pos(), 12);
    assert_eq!(r.remaining_bits(), 4);
}

#[test]
fn ref_field_codec_matches_fast_path_on_figure4() {
    let codec = QualityCodec::default_codec();
    let seq = b"GGTTNCCTA";
    let qual = b"CCCB#FFFF";
    let slow = compress_read_fields_ref(seq, qual, &codec).unwrap();
    let fast = gpf_compress::compress_read_fields(seq, qual, &codec).unwrap();
    assert_eq!(slow, fast);
    let (s2, q2) = decompress_read_fields_ref(&slow, &codec).unwrap();
    assert_eq!(s2, seq.to_vec());
    assert_eq!(q2, qual.to_vec());
}

#[test]
fn gpf_wire_format_matches_reference_codec() {
    // The Gpf batch stream must stay byte-identical to the seed encoder:
    // the expected bytes are the oracle's field codec plus varint framing.
    use gpf_compress::serializer::{default_quality_codec, serialize_batch, SerializerKind};
    use gpf_compress::varint;
    let rec = gpf_formats::fastq::FastqRecord::new(
        "SRR622461.1/1",
        b"ACGTNACGTACGTACGTACG",
        b"IIII#IIIIIIIHHGGFFEE",
    )
    .unwrap();
    let buf = serialize_batch(SerializerKind::Gpf, std::slice::from_ref(&rec));
    let c = compress_read_fields_ref(&rec.seq, &rec.qual, default_quality_codec()).unwrap();
    let mut expect = Vec::new();
    varint::write_u64(&mut expect, 1); // batch count
    varint::write_u64(&mut expect, rec.name.len() as u64);
    expect.extend_from_slice(rec.name.as_bytes());
    varint::write_u64(&mut expect, c.len as u64);
    for field in [&c.packed_seq, &c.qual_stream, &c.n_quals] {
        varint::write_u64(&mut expect, field.len() as u64);
        expect.extend_from_slice(field);
    }
    assert_eq!(buf, expect);
}
