//! # gpf-compress
//!
//! The genomic data compression layer of GPF (§4.2 of the paper) and the
//! record serializers the execution engine shuffles with.
//!
//! The paper's observation: the `Sequence` and `Quality` fields account for
//! 80–90 % of a FASTQ record, so GPF keeps the record structure intact and
//! compresses exactly those two fields:
//!
//! * **Sequence field** ([`sequence`]) — 2-bit encoding `A:00 G:01 C:10 T:11`
//!   (Figure 4). Special characters (`N`) are escaped *through the quality
//!   field* following Deorowicz: the base is rewritten to `A` and its quality
//!   byte replaced by an out-of-range marker, so the decompressor can restore
//!   it. A length prefix precedes the packed bits.
//! * **Quality field** ([`qualcodec`]) — adjacent quality scores are highly
//!   correlated (Figure 5), so the string is converted to a delta sequence
//!   and Huffman-coded with an explicit `EOF` symbol (Figure 6).
//!
//! On top of the codecs, [`serializer`] defines the [`serializer::GpfSerialize`]
//! trait and three wire formats:
//!
//! | kind | models | behaviour |
//! |---|---|---|
//! | `JavaSim`  | Java serialization | verbose headers, fixed-width lengths |
//! | `KryoSim`  | Kryo | varint lengths, raw field bytes |
//! | `Gpf`      | GPF §4.2 | Kryo framing + sequence/quality compression |
//!
//! The engine's shuffle volume, memory footprint and GC-churn metrics are all
//! computed from the byte counts these serializers produce, which is how the
//! paper's Table 3 ("efficient compression of genomic data") and the
//! Kryo-vs-GPF comparisons are reproduced.

//! The codec hot paths (bit I/O, Huffman decode, field pack/unpack) are
//! word-level and table-driven. The seed's bit-at-a-time codec survives
//! only as the test-side oracle `tests/codec_oracle/`, which the
//! differential properties in `tests/proptests.rs` hold these paths
//! byte-identical to.

pub mod bitio;
pub mod error;
pub mod huffman;
pub mod qualcodec;
pub mod sequence;
pub mod serializer;
pub mod varint;

pub use error::CodecError;
pub use huffman::HuffmanCodec;
pub use qualcodec::QualityCodec;
pub use sequence::{
    compress_read_fields, compress_read_fields_into, decompress_read_fields,
    decompress_read_fields_into, CompressedParts, CompressedRead, ReadCodecScratch,
};
pub use serializer::{
    deserialize_batch_into, ByteReader, ByteWriter, GpfSerialize,
    SerializerKind,
};
