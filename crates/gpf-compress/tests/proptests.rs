//! Property-based round-trip tests for the compression layer, plus the
//! differential properties that hold the word-level/table-driven hot paths
//! byte-identical to the seed's scalar codec, kept test-side in
//! `codec_oracle/`.

mod codec_oracle;

use gpf_compress::bitio::{BitReader, BitWriter};
use gpf_compress::huffman::HuffmanCodec;
use gpf_compress::qualcodec::QualityCodec;
use codec_oracle::{
    compress_read_fields_ref, decompress_read_fields_ref, RefBitReader, RefBitWriter,
};
use gpf_compress::sequence::{compress_read_fields, decompress_read_fields, CompressedRead};
use gpf_compress::serializer::{deserialize_batch, serialize_batch, SerializerKind};
use gpf_formats::fastq::FastqRecord;
use gpf_formats::sam::{SamFlags, SamRecord};
use gpf_formats::Cigar;
use gpf_support::proptest::prelude::*;
use gpf_support::rng::SplitMix64;

fn seq_strategy(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
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

fn read_strategy(max_len: usize) -> impl Strategy<Value = (Vec<u8>, Vec<u8>)> {
    seq_strategy(max_len).prop_flat_map(|s| {
        let len = s.len();
        (Just(s), proptest::collection::vec(33u8..=126, len..=len))
    })
}

/// `(value, width)` pairs for bit-stream differentials; widths cover the
/// full 1..=32 range so accumulator splits at every word boundary are hit.
fn bit_runs(max_len: usize) -> impl Strategy<Value = Vec<(u32, u8)>> {
    proptest::collection::vec((any::<u32>(), 1u8..=32), 0..max_len)
}

/// Frequency tables for Huffman differentials: uniform-ish counts (short
/// codes, exercising the one-shot primary table) unioned with steep
/// Fibonacci-like skews whose max code length exceeds the table's 12 index
/// bits, forcing the chained fallback path.
fn freq_table(max_syms: usize) -> impl Strategy<Value = Vec<u64>> {
    let uniform = proptest::collection::vec(1u64..100, 2..max_syms);
    // A Fibonacci frequency ladder over n symbols yields a max code length
    // of about n-1 bits: n >= 14 guarantees codes longer than the 12-bit
    // primary table, n <= 30 stays under the codec's 32-bit length cap.
    let skewed = (14usize..31).prop_map(|n| {
        let mut freqs = vec![0u64; n];
        let (mut a, mut b) = (1u64, 1u64);
        for f in freqs.iter_mut() {
            *f = a;
            let next = a.saturating_add(b);
            a = b;
            b = next;
        }
        freqs
    });
    prop_oneof![uniform, skewed]
}

proptest! {
    #[test]
    fn word_bitio_matches_scalar_reference(runs in bit_runs(200)) {
        // Writers: the word-level accumulator must emit the byte stream the
        // bit-at-a-time seed implementation produced.
        let mut fast = BitWriter::new();
        let mut slow = RefBitWriter::new();
        for &(v, n) in &runs {
            fast.write_bits(v, n);
            slow.write_bits(v, n);
        }
        prop_assert_eq!(fast.bit_len(), slow.bit_len());
        let fast_bytes = fast.into_bytes();
        let slow_bytes = slow.into_bytes();
        prop_assert_eq!(&fast_bytes, &slow_bytes);

        // Readers: replaying the same widths yields the same values (the
        // writer masked each value to its width) and the same positions.
        let mut fr = BitReader::new(&fast_bytes);
        let mut sr = RefBitReader::new(&slow_bytes);
        for &(v, n) in &runs {
            let expect = if n == 32 { v } else { v & ((1u32 << n) - 1) };
            prop_assert_eq!(fr.read_bits(n).unwrap(), expect);
            prop_assert_eq!(sr.read_bits(n).unwrap(), expect);
            prop_assert_eq!(fr.bit_pos(), sr.bit_pos());
        }
        // Reading past the payload errs on both (padding bits allowing).
        prop_assert_eq!(fr.read_bits(32).is_err(), sr.read_bits(32).is_err());
    }

    #[test]
    fn table_huffman_decode_matches_canonical_walk(
        freqs in freq_table(64),
        picks in proptest::collection::vec(any::<u32>(), 0..300),
    ) {
        let codec = HuffmanCodec::from_frequencies(&freqs);
        // Draw symbols only from the coded alphabet.
        let coded: Vec<u32> = (0..freqs.len() as u32)
            .filter(|&s| codec.code_len(s) > 0)
            .collect();
        prop_assert!(!coded.is_empty(), "every generated frequency is positive");
        let symbols: Vec<u32> =
            picks.iter().map(|p| coded[(*p as usize) % coded.len()]).collect();

        let mut w = BitWriter::new();
        for &s in &symbols {
            codec.encode(s, &mut w).unwrap();
        }
        let bytes = w.into_bytes();

        // Three decoders, one answer: the one-shot table (with chained
        // fallback), the canonical walk over the word reader, and the seed
        // walk over the scalar reader.
        let mut table_r = BitReader::new(&bytes);
        let mut walk_r = BitReader::new(&bytes);
        let mut ref_r = RefBitReader::new(&bytes);
        for &s in &symbols {
            prop_assert_eq!(codec.decode(&mut table_r).unwrap(), s);
            prop_assert_eq!(codec.decode_canonical(&mut walk_r).unwrap(), s);
            let via_ref = codec.decode_with(&mut || ref_r.read_bit()).unwrap();
            prop_assert_eq!(via_ref, s);
        }
    }

    #[test]
    fn field_codec_matches_scalar_reference((seq, qual) in read_strategy(300)) {
        let codec = QualityCodec::default_codec();
        let fast = compress_read_fields(&seq, &qual, &codec).unwrap();
        let slow = compress_read_fields_ref(&seq, &qual, &codec).unwrap();
        prop_assert_eq!(fast.len, slow.len);
        prop_assert_eq!(&fast.packed_seq, &slow.packed_seq);
        prop_assert_eq!(&fast.qual_stream, &slow.qual_stream);
        prop_assert_eq!(&fast.n_quals, &slow.n_quals);
        // And each side's decoder inverts the other's output.
        let (s1, q1) = decompress_read_fields(&slow, &codec).unwrap();
        let (s2, q2) = decompress_read_fields_ref(&fast, &codec).unwrap();
        prop_assert_eq!(&s1, &seq);
        prop_assert_eq!(&q1, &qual);
        prop_assert_eq!(&s2, &seq);
        prop_assert_eq!(&q2, &qual);
    }

    #[test]
    fn field_compression_round_trips((seq, qual) in read_strategy(300)) {
        let codec = QualityCodec::default_codec();
        let c = compress_read_fields(&seq, &qual, &codec).unwrap();
        let (s2, q2) = decompress_read_fields(&c, &codec).unwrap();
        prop_assert_eq!(s2, seq);
        prop_assert_eq!(q2, qual);
    }

    #[test]
    fn packed_sequence_is_quarter_size((seq, qual) in read_strategy(300)) {
        let codec = QualityCodec::default_codec();
        let c = compress_read_fields(&seq, &qual, &codec).unwrap();
        prop_assert_eq!(c.packed_seq.len(), seq.len().div_ceil(4));
    }

    #[test]
    fn quality_codec_round_trips(qual in proptest::collection::vec(33u8..=126, 0..500)) {
        let codec = QualityCodec::default_codec();
        let bytes = codec.encode_to_bytes(&qual).unwrap();
        let mut r = gpf_compress::bitio::BitReader::new(&bytes);
        prop_assert_eq!(codec.decode(&mut r).unwrap(), qual);
    }

    #[test]
    fn fastq_batches_round_trip_under_all_serializers(
        reads in proptest::collection::vec(read_strategy(120), 0..20)
    ) {
        let records: Vec<FastqRecord> = reads
            .into_iter()
            .enumerate()
            .map(|(i, (seq, qual))| FastqRecord::new(format!("r{i}"), &seq, &qual).unwrap())
            .collect();
        for kind in [SerializerKind::JavaSim, SerializerKind::KryoSim, SerializerKind::Gpf] {
            let buf = serialize_batch(kind, &records);
            let out: Vec<FastqRecord> = deserialize_batch(kind, &buf).unwrap();
            prop_assert_eq!(&out, &records);
        }
    }

    #[test]
    fn sam_records_round_trip_under_all_serializers(
        (seq, qual) in read_strategy(150),
        flags in any::<u16>(),
        pos in 0u64..3_000_000_000,
        tlen in any::<i64>(),
    ) {
        let cigar = if seq.is_empty() {
            Cigar::unavailable()
        } else {
            Cigar::from_ops(vec![(seq.len() as u32, gpf_formats::CigarOp::Match)])
        };
        let rec = SamRecord {
            name: "prop".into(),
            flags: SamFlags(flags),
            contig: 2,
            pos,
            mapq: 37,
            cigar,
            mate_contig: u32::MAX,
            mate_pos: 0,
            tlen,
            seq,
            qual,
            read_group: 9,
            edit_distance: 5,
        };
        for kind in [SerializerKind::JavaSim, SerializerKind::KryoSim, SerializerKind::Gpf] {
            let buf = serialize_batch(kind, std::slice::from_ref(&rec));
            let out: Vec<SamRecord> = deserialize_batch(kind, &buf).unwrap();
            prop_assert_eq!(&out[0], &rec);
        }
    }

    #[test]
    fn gpf_never_larger_than_java(reads in proptest::collection::vec(read_strategy(150), 1..10)) {
        let records: Vec<FastqRecord> = reads
            .into_iter()
            .enumerate()
            .map(|(i, (seq, qual))| FastqRecord::new(format!("r{i}"), &seq, &qual).unwrap())
            .collect();
        let java = serialize_batch(SerializerKind::JavaSim, &records).len();
        let gpf = serialize_batch(SerializerKind::Gpf, &records).len();
        prop_assert!(gpf <= java, "gpf {gpf} > java {java}");
    }
}

/// Deterministic corpus of 256 encoded reads for the hostile-bytes
/// properties below: real compressor output, so every corruption lands
/// inside a structurally valid stream rather than random garbage.
fn encoded_corpus() -> Vec<CompressedRead> {
    let codec = QualityCodec::default_codec();
    let mut rng = SplitMix64::new(0xFA17_C0DE);
    (0..256)
        .map(|_| {
            let len = (rng.next_u64() % 180) as usize + 1;
            let seq: Vec<u8> = (0..len)
                .map(|_| {
                    let r = rng.next_u64();
                    if r.is_multiple_of(16) {
                        b'N'
                    } else {
                        b"ACGT"[(r % 4) as usize]
                    }
                })
                .collect();
            let qual: Vec<u8> = (0..len).map(|_| 33 + (rng.next_u64() % 94) as u8).collect();
            compress_read_fields(&seq, &qual, &codec).unwrap()
        })
        .collect()
}

/// Index the mutable byte fields of a read, skipping empty ones so a
/// corruption always has somewhere to land (`packed_seq` is non-empty for
/// every corpus read because `len >= 1`).
fn corruptible_fields(c: &mut CompressedRead) -> Vec<&mut Vec<u8>> {
    [&mut c.packed_seq, &mut c.qual_stream, &mut c.n_quals]
        .into_iter()
        .filter(|f| !f.is_empty())
        .collect()
}

/// A decode of hostile bytes may succeed (a flipped base bit is a valid
/// different read), but an `Ok` must be self-consistent: the advertised
/// read length, never a short or ragged pair.
fn assert_clean_decode(
    c: &CompressedRead,
    res: Result<(Vec<u8>, Vec<u8>), gpf_compress::CodecError>,
) -> Result<(), TestCaseError> {
    if let Ok((seq, qual)) = res {
        prop_assert_eq!(seq.len(), c.len as usize, "Ok decode with wrong seq length");
        prop_assert_eq!(qual.len(), c.len as usize, "Ok decode with wrong qual length");
    }
    Ok(())
}

proptest! {
    #[test]
    fn bit_flip_in_encoded_read_never_panics(pick in any::<u64>(), site in any::<u64>()) {
        let codec = QualityCodec::default_codec();
        let mut corpus = encoded_corpus();
        let c = &mut corpus[(pick % 256) as usize];
        {
            let mut fields = corruptible_fields(c);
            let fi = (site % fields.len() as u64) as usize;
            let field = &mut *fields[fi];
            let bit = (site >> 8) as usize % (field.len() * 8);
            field[bit / 8] ^= 1 << (bit % 8);
        }
        let res = decompress_read_fields(c, &codec);
        assert_clean_decode(c, res)?;
    }

    #[test]
    fn truncated_encoded_read_never_panics(pick in any::<u64>(), site in any::<u64>()) {
        let codec = QualityCodec::default_codec();
        let mut corpus = encoded_corpus();
        let c = &mut corpus[(pick % 256) as usize];
        {
            let mut fields = corruptible_fields(c);
            let fi = (site % fields.len() as u64) as usize;
            let field = &mut *fields[fi];
            let cut = (site >> 8) as usize % field.len();
            field.truncate(cut);
        }
        let res = decompress_read_fields(c, &codec);
        assert_clean_decode(c, res)?;
    }

    #[test]
    fn corrupted_length_field_is_rejected_cleanly(pick in any::<u64>(), delta in any::<u32>()) {
        // A hostile `len` must not drive an unchecked pre-size allocation:
        // the decoder bounds-checks against the packed payload before any
        // reserve, so even `len = u32::MAX` errs instead of OOMing.
        let codec = QualityCodec::default_codec();
        let mut corpus = encoded_corpus();
        let c = &mut corpus[(pick % 256) as usize];
        c.len ^= delta | 1;
        let res = decompress_read_fields(c, &codec);
        assert_clean_decode(c, res)?;
    }

    #[test]
    fn truncated_batch_buffer_errors_cleanly(
        records in proptest::collection::vec(
            (
                any::<u64>(),
                proptest::collection::vec(97u8..=122, 0..12)
                    .prop_map(|b| String::from_utf8(b).unwrap()),
            ),
            1..16,
        ),
        cut_sel in any::<u64>(),
    ) {
        for kind in [SerializerKind::JavaSim, SerializerKind::KryoSim, SerializerKind::Gpf] {
            let buf = serialize_batch(kind, &records);
            let cut = (cut_sel % buf.len() as u64) as usize;
            let res: Result<Vec<(u64, String)>, _> = deserialize_batch(kind, &buf[..cut]);
            prop_assert!(
                res.is_err(),
                "{kind:?}: truncation to {cut}/{} bytes decoded Ok",
                buf.len()
            );
        }
    }
}
