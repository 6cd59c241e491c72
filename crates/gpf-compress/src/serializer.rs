//! Record serializers for in-memory storage and shuffle.
//!
//! Spark offers Java serialization and Kryo; the paper (§4.2) adds GPF's own
//! genomic compression on top of a Kryo-like framing. This module models all
//! three as [`SerializerKind`]s sharing one [`GpfSerialize`] trait, so the
//! engine can persist / shuffle any record type under any serializer and the
//! byte counts honestly reflect each format's overheads:
//!
//! * **`JavaSim`** — fixed-width big-endian primitives, an object header per
//!   record and an 8-byte reference handle per variable-length field
//!   (modelling `java.io.ObjectOutputStream`'s verbosity).
//! * **`KryoSim`** — varint lengths and raw field bytes (modelling Kryo's
//!   compact registered-class encoding).
//! * **`Gpf`** — `KryoSim` framing, but sequence/quality fields go through
//!   [`crate::sequence`] / [`crate::qualcodec`] compression.

use crate::error::CodecError;
use crate::qualcodec::QualityCodec;
use crate::sequence::{
    compress_read_fields_into, decompress_read_fields_into, ReadCodecScratch,
};
use crate::varint;
use gpf_formats::cigar::{Cigar, CigarOp};
use gpf_formats::fastq::{FastqPair, FastqRecord};
use gpf_formats::genome::{GenomeInterval, GenomePosition};
use gpf_formats::sam::{SamFlags, SamRecord};
use gpf_formats::vcf::{Genotype, VcfRecord};
use std::sync::OnceLock;

/// The process-wide default quality codec (static Huffman table).
pub fn default_quality_codec() -> &'static QualityCodec {
    static QC: OnceLock<QualityCodec> = OnceLock::new();
    QC.get_or_init(QualityCodec::default_codec)
}

/// Which wire format to produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SerializerKind {
    /// Java-serialization-like: verbose, fixed-width.
    JavaSim,
    /// Kryo-like: compact varints, raw payloads.
    KryoSim,
    /// GPF: Kryo framing plus genomic sequence/quality compression (§4.2).
    Gpf,
}

/// Bytes of per-record object header charged by `JavaSim`.
const JAVA_OBJECT_HEADER: usize = 16;
/// Bytes of per-field reference handle charged by `JavaSim`.
const JAVA_FIELD_HANDLE: usize = 8;

/// Serialization sink.
pub struct ByteWriter {
    /// Output buffer.
    pub buf: Vec<u8>,
    kind: SerializerKind,
    /// Lazily-created codec scratch so Gpf-kind writers compress every
    /// record of a batch through the same buffers (see
    /// [`crate::sequence::ReadCodecScratch`]).
    codec_scratch: Option<Box<ReadCodecScratch>>,
}

impl ByteWriter {
    /// Create a writer for `kind`.
    pub fn new(kind: SerializerKind) -> Self {
        Self::appending(kind, Vec::new())
    }

    /// A writer that appends to `buf` (take the bytes back from
    /// [`ByteWriter::buf`]). A shuffle map task holds one over its pooled
    /// buffer for all of its segments, so the codec scratch is built once
    /// per task, not once per segment.
    pub fn appending(kind: SerializerKind, buf: Vec<u8>) -> Self {
        Self { buf, kind, codec_scratch: None }
    }

    /// Append one count-prefixed batch — the unit [`deserialize_batch_into`]
    /// reads back — of records taken by reference, from wherever they sit.
    /// Returns the number of bytes appended.
    pub fn write_batch<'a, T: GpfSerialize + 'a>(
        &mut self,
        items: impl ExactSizeIterator<Item = &'a T>,
    ) -> usize {
        let start = self.buf.len();
        let records = items.len();
        varint::write_u64(&mut self.buf, records as u64);
        for item in items {
            item.write(self);
        }
        let written = self.buf.len() - start;
        note_codec_throughput(
            gpf_trace::names::CODEC_SERIALIZE_BYTES,
            gpf_trace::names::CODEC_SERIALIZE_RECORDS,
            written,
            records,
        );
        written
    }

    /// The active serializer kind.
    pub fn kind(&self) -> SerializerKind {
        self.kind
    }

    /// Charge a per-record object header (JavaSim only).
    pub fn object_header(&mut self) {
        if self.kind == SerializerKind::JavaSim {
            self.buf.extend_from_slice(&[0xAC; JAVA_OBJECT_HEADER]);
        }
    }

    /// Write one raw byte.
    pub fn write_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a u16 (fixed for JavaSim, varint otherwise).
    pub fn write_u16(&mut self, v: u16) {
        match self.kind {
            SerializerKind::JavaSim => self.buf.extend_from_slice(&v.to_be_bytes()),
            _ => varint::write_u64(&mut self.buf, v as u64),
        }
    }

    /// Write a u32.
    pub fn write_u32(&mut self, v: u32) {
        match self.kind {
            SerializerKind::JavaSim => self.buf.extend_from_slice(&v.to_be_bytes()),
            _ => varint::write_u64(&mut self.buf, v as u64),
        }
    }

    /// Write a u64.
    pub fn write_u64(&mut self, v: u64) {
        match self.kind {
            SerializerKind::JavaSim => self.buf.extend_from_slice(&v.to_be_bytes()),
            _ => varint::write_u64(&mut self.buf, v),
        }
    }

    /// Write an i64 (zigzag varint for compact kinds).
    pub fn write_i64(&mut self, v: i64) {
        match self.kind {
            SerializerKind::JavaSim => self.buf.extend_from_slice(&v.to_be_bytes()),
            _ => varint::write_i64(&mut self.buf, v),
        }
    }

    /// Write an f64 (always 8 bytes).
    pub fn write_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_be_bytes());
    }

    /// Write a variable-length byte field.
    pub fn write_bytes(&mut self, b: &[u8]) {
        match self.kind {
            SerializerKind::JavaSim => {
                self.buf.extend_from_slice(&[0xDE; JAVA_FIELD_HANDLE]);
                self.buf.extend_from_slice(&(b.len() as u32).to_be_bytes());
                self.buf.extend_from_slice(b);
            }
            _ => {
                varint::write_u64(&mut self.buf, b.len() as u64);
                self.buf.extend_from_slice(b);
            }
        }
    }

    /// Write a string field.
    pub fn write_str(&mut self, s: &str) {
        self.write_bytes(s.as_bytes());
    }
}

/// Deserialization source.
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
    kind: SerializerKind,
}

impl<'a> ByteReader<'a> {
    /// Create a reader for `kind` over `buf`.
    pub fn new(kind: SerializerKind, buf: &'a [u8]) -> Self {
        Self { buf, pos: 0, kind }
    }

    /// The active serializer kind.
    pub fn kind(&self) -> SerializerKind {
        self.kind
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// `true` when fully consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn take8(&mut self) -> Result<[u8; 8], CodecError> {
        let mut b = [0u8; 8];
        b.copy_from_slice(self.take(8)?);
        Ok(b)
    }

    /// Skip the JavaSim object header (no-op for other kinds).
    pub fn object_header(&mut self) -> Result<(), CodecError> {
        if self.kind == SerializerKind::JavaSim {
            self.take(JAVA_OBJECT_HEADER)?;
        }
        Ok(())
    }

    /// Read one raw byte.
    pub fn read_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Read a u16.
    pub fn read_u16(&mut self) -> Result<u16, CodecError> {
        match self.kind {
            SerializerKind::JavaSim => {
                let b = self.take(2)?;
                Ok(u16::from_be_bytes([b[0], b[1]]))
            }
            _ => {
                let v = varint::read_u64(self.buf, &mut self.pos)?;
                u16::try_from(v).map_err(|_| CodecError::Corrupt("u16 overflow".into()))
            }
        }
    }

    /// Read a u32.
    pub fn read_u32(&mut self) -> Result<u32, CodecError> {
        match self.kind {
            SerializerKind::JavaSim => {
                let b = self.take(4)?;
                Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
            }
            _ => {
                let v = varint::read_u64(self.buf, &mut self.pos)?;
                u32::try_from(v).map_err(|_| CodecError::Corrupt("u32 overflow".into()))
            }
        }
    }

    /// Read a u64.
    pub fn read_u64(&mut self) -> Result<u64, CodecError> {
        match self.kind {
            SerializerKind::JavaSim => Ok(u64::from_be_bytes(self.take8()?)),
            _ => varint::read_u64(self.buf, &mut self.pos),
        }
    }

    /// Read an i64.
    pub fn read_i64(&mut self) -> Result<i64, CodecError> {
        match self.kind {
            SerializerKind::JavaSim => Ok(i64::from_be_bytes(self.take8()?)),
            _ => varint::read_i64(self.buf, &mut self.pos),
        }
    }

    /// Read an f64.
    pub fn read_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(u64::from_be_bytes(self.take8()?)))
    }

    /// Read a variable-length byte field.
    pub fn read_bytes(&mut self) -> Result<Vec<u8>, CodecError> {
        match self.kind {
            SerializerKind::JavaSim => {
                self.take(JAVA_FIELD_HANDLE)?;
                let len = {
                    let b = self.take(4)?;
                    u32::from_be_bytes([b[0], b[1], b[2], b[3]]) as usize
                };
                Ok(self.take(len)?.to_vec())
            }
            _ => {
                let len = varint::read_u64(self.buf, &mut self.pos)? as usize;
                Ok(self.take(len)?.to_vec())
            }
        }
    }

    /// Read a variable-length byte field as a borrowed slice of the input
    /// buffer — no allocation; the slice lives as long as the buffer.
    pub fn read_bytes_ref(&mut self) -> Result<&'a [u8], CodecError> {
        match self.kind {
            SerializerKind::JavaSim => {
                self.take(JAVA_FIELD_HANDLE)?;
                let len = {
                    let b = self.take(4)?;
                    u32::from_be_bytes([b[0], b[1], b[2], b[3]]) as usize
                };
                self.take(len)
            }
            _ => {
                let len = varint::read_u64(self.buf, &mut self.pos)? as usize;
                self.take(len)
            }
        }
    }

    /// Read a string field.
    pub fn read_str(&mut self) -> Result<String, CodecError> {
        String::from_utf8(self.read_bytes()?)
            .map_err(|_| CodecError::Corrupt("invalid UTF-8 string".into()))
    }
}

/// A type serializable under every [`SerializerKind`].
pub trait GpfSerialize: Sized {
    /// Append this value to the writer.
    fn write(&self, w: &mut ByteWriter);
    /// Read a value back.
    fn read(r: &mut ByteReader<'_>) -> Result<Self, CodecError>;
    /// Resident heap footprint of this value in bytes (inline size plus
    /// owned heap payloads), used by the engine's memory-budget accountant
    /// for exact partition accounting. Deliberately counts payload *length*
    /// rather than allocator capacity so the charge is deterministic across
    /// runs. The default covers heap-free types; containers override.
    fn resident_bytes(&self) -> usize {
        std::mem::size_of_val(self)
    }
}

/// Bump the `codec.*` throughput counters for one batch, but only while
/// tracing is on: the registry lookup takes a mutex, so untraced runs skip it
/// entirely.
fn note_codec_throughput(bytes_name: &'static str, records_name: &'static str, bytes: usize, records: usize) {
    if gpf_trace::enabled() {
        gpf_trace::counter(bytes_name).add(bytes as u64);
        gpf_trace::counter(records_name).add(records as u64);
    }
}

/// Serialize a batch of records (count-prefixed) under `kind`.
pub fn serialize_batch<T: GpfSerialize>(kind: SerializerKind, items: &[T]) -> Vec<u8> {
    // Heap attribution: batch-level codec work charges the serde tag.
    // `ByteWriter::write_batch` itself is left unscoped — a shuffle map task
    // holds one scope for all of its segments, keeping TLS pushes off the
    // per-segment hot path.
    let _scope = gpf_trace::alloc::scope(gpf_trace::alloc::AllocTag::Serde);
    let mut w = ByteWriter::new(kind);
    w.write_batch(items.iter());
    w.buf
}

/// Deserialize a batch written by [`serialize_batch`].
pub fn deserialize_batch<T: GpfSerialize>(
    kind: SerializerKind,
    buf: &[u8],
) -> Result<Vec<T>, CodecError> {
    // Heap attribution: see serialize_batch.
    let _scope = gpf_trace::alloc::scope(gpf_trace::alloc::AllocTag::Serde);
    let mut out = Vec::new();
    deserialize_batch_into(kind, buf, &mut out)?;
    Ok(out)
}

/// [`deserialize_batch`] appending onto a caller-owned vector (shuffle
/// reduce tasks pre-size one output and drain every map segment into it).
/// Returns the number of records appended.
pub fn deserialize_batch_into<T: GpfSerialize>(
    kind: SerializerKind,
    buf: &[u8],
    out: &mut Vec<T>,
) -> Result<usize, CodecError> {
    let mut r = ByteReader::new(kind, buf);
    let mut pos = 0usize;
    let n = varint::read_u64(buf, &mut pos)? as usize;
    r.pos = pos;
    out.reserve(n.min(1 << 20));
    for _ in 0..n {
        out.push(T::read(&mut r)?);
    }
    note_codec_throughput(
        gpf_trace::names::CODEC_DESERIALIZE_BYTES,
        gpf_trace::names::CODEC_DESERIALIZE_RECORDS,
        buf.len(),
        n,
    );
    Ok(n)
}

/// Serialized size of a batch without keeping the buffer.
pub fn serialized_size<T: GpfSerialize>(kind: SerializerKind, items: &[T]) -> usize {
    serialize_batch(kind, items).len()
}

// ---------------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------------

macro_rules! impl_prim {
    ($t:ty, $w:ident, $r:ident) => {
        impl GpfSerialize for $t {
            fn write(&self, w: &mut ByteWriter) {
                w.$w(*self as _);
            }
            fn read(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
                Ok(r.$r()? as $t)
            }
        }
    };
}

impl_prim!(u8, write_u8, read_u8);
impl_prim!(u16, write_u16, read_u16);
impl_prim!(u32, write_u32, read_u32);
impl_prim!(u64, write_u64, read_u64);
impl_prim!(i64, write_i64, read_i64);
impl_prim!(usize, write_u64, read_u64);

impl GpfSerialize for f64 {
    fn write(&self, w: &mut ByteWriter) {
        w.write_f64(*self);
    }
    fn read(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        r.read_f64()
    }
}

impl GpfSerialize for bool {
    fn write(&self, w: &mut ByteWriter) {
        w.write_u8(*self as u8);
    }
    fn read(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(r.read_u8()? != 0)
    }
}

impl GpfSerialize for String {
    fn write(&self, w: &mut ByteWriter) {
        w.write_str(self);
    }
    fn read(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        r.read_str()
    }
    fn resident_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.len()
    }
}

impl<T: GpfSerialize> GpfSerialize for Vec<T> {
    fn write(&self, w: &mut ByteWriter) {
        w.write_u64(self.len() as u64);
        for item in self {
            item.write(w);
        }
    }
    fn read(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let n = r.read_u64()? as usize;
        let mut out = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            out.push(T::read(r)?);
        }
        Ok(out)
    }
    fn resident_bytes(&self) -> usize {
        // Each element's inline size lives in this Vec's heap buffer, so
        // the elements' own resident_bytes already covers it.
        std::mem::size_of::<Self>() + self.iter().map(T::resident_bytes).sum::<usize>()
    }
}

impl<T: GpfSerialize> GpfSerialize for Option<T> {
    fn write(&self, w: &mut ByteWriter) {
        match self {
            None => w.write_u8(0),
            Some(v) => {
                w.write_u8(1);
                v.write(w);
            }
        }
    }
    fn read(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        match r.read_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::read(r)?)),
            t => Err(CodecError::Corrupt(format!("bad Option tag {t}"))),
        }
    }
    fn resident_bytes(&self) -> usize {
        // The inline T is part of Option's own layout; add only the heap
        // excess beyond it.
        std::mem::size_of::<Self>()
            + self
                .as_ref()
                .map(|v| v.resident_bytes().saturating_sub(std::mem::size_of::<T>()))
                .unwrap_or(0)
    }
}

impl<A: GpfSerialize, B: GpfSerialize> GpfSerialize for (A, B) {
    fn write(&self, w: &mut ByteWriter) {
        self.0.write(w);
        self.1.write(w);
    }
    fn read(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok((A::read(r)?, B::read(r)?))
    }
    fn resident_bytes(&self) -> usize {
        self.0.resident_bytes() + self.1.resident_bytes()
    }
}

impl<A: GpfSerialize, B: GpfSerialize, C: GpfSerialize> GpfSerialize for (A, B, C) {
    fn write(&self, w: &mut ByteWriter) {
        self.0.write(w);
        self.1.write(w);
        self.2.write(w);
    }
    fn read(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok((A::read(r)?, B::read(r)?, C::read(r)?))
    }
    fn resident_bytes(&self) -> usize {
        self.0.resident_bytes() + self.1.resident_bytes() + self.2.resident_bytes()
    }
}

// ---------------------------------------------------------------------------
// Genomic record impls
// ---------------------------------------------------------------------------

impl GpfSerialize for GenomePosition {
    fn write(&self, w: &mut ByteWriter) {
        w.write_u32(self.contig);
        w.write_u64(self.pos);
    }
    fn read(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(GenomePosition { contig: r.read_u32()?, pos: r.read_u64()? })
    }
}

impl GpfSerialize for GenomeInterval {
    fn write(&self, w: &mut ByteWriter) {
        w.write_u32(self.contig);
        w.write_u64(self.start);
        w.write_u64(self.end);
    }
    fn read(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let contig = r.read_u32()?;
        let start = r.read_u64()?;
        let end = r.read_u64()?;
        if start > end {
            return Err(CodecError::Corrupt("interval start > end".into()));
        }
        Ok(GenomeInterval { contig, start, end })
    }
}

/// Write sequence+quality under the active kind: raw fields for
/// JavaSim/KryoSim, compressed for Gpf.
fn write_seq_qual(w: &mut ByteWriter, seq: &[u8], qual: &[u8]) {
    match w.kind() {
        SerializerKind::Gpf => {
            // Split-borrow the writer: the codec scratch and the output
            // buffer are disjoint fields. Gpf always uses Kryo (varint)
            // framing, so the fields are framed inline below — byte-for-byte
            // what write_u32/write_bytes would have produced.
            let ByteWriter { buf, codec_scratch, .. } = w;
            let scratch = codec_scratch.get_or_insert_with(Default::default);
            let c = compress_read_fields_into(seq, qual, default_quality_codec(), scratch)
                // gpf-lint: allow(no-panic): SamRecord construction validates
                // seq/qual lengths match, which is the only failure mode of
                // compress_read_fields_into; a panic here means a SamRecord
                // invariant was broken upstream.
                .expect("record validated at construction");
            varint::write_u64(buf, c.len as u64);
            for field in [c.packed_seq, c.qual_stream, c.n_quals] {
                varint::write_u64(buf, field.len() as u64);
                buf.extend_from_slice(field);
            }
        }
        _ => {
            w.write_bytes(seq);
            w.write_bytes(qual);
        }
    }
}

/// Inverse of [`write_seq_qual`].
fn read_seq_qual(r: &mut ByteReader<'_>) -> Result<(Vec<u8>, Vec<u8>), CodecError> {
    match r.kind() {
        SerializerKind::Gpf => {
            let len = r.read_u32()?;
            // Borrow the three compressed fields straight out of the batch
            // buffer; only the decoded seq/qual (owned by the record being
            // built) are allocated.
            let packed_seq = r.read_bytes_ref()?;
            let qual_stream = r.read_bytes_ref()?;
            let n_quals = r.read_bytes_ref()?;
            let mut seq = Vec::new();
            let mut qual = Vec::new();
            decompress_read_fields_into(
                len,
                packed_seq,
                qual_stream,
                n_quals,
                default_quality_codec(),
                &mut seq,
                &mut qual,
            )?;
            Ok((seq, qual))
        }
        _ => {
            let seq = r.read_bytes()?;
            let qual = r.read_bytes()?;
            Ok((seq, qual))
        }
    }
}

impl GpfSerialize for FastqRecord {
    fn write(&self, w: &mut ByteWriter) {
        w.object_header();
        w.write_str(&self.name);
        write_seq_qual(w, &self.seq, &self.qual);
    }
    fn read(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        r.object_header()?;
        let name = r.read_str()?;
        let (seq, qual) = read_seq_qual(r)?;
        Ok(FastqRecord { name, seq, qual })
    }
    fn resident_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.name.len() + self.seq.len() + self.qual.len()
    }
}

impl GpfSerialize for FastqPair {
    fn write(&self, w: &mut ByteWriter) {
        self.r1.write(w);
        self.r2.write(w);
    }
    fn read(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(FastqPair { r1: FastqRecord::read(r)?, r2: FastqRecord::read(r)? })
    }
    fn resident_bytes(&self) -> usize {
        self.r1.resident_bytes() + self.r2.resident_bytes()
    }
}

fn cigar_op_code(op: CigarOp) -> u32 {
    match op {
        CigarOp::Match => 0,
        CigarOp::Ins => 1,
        CigarOp::Del => 2,
        CigarOp::RefSkip => 3,
        CigarOp::SoftClip => 4,
        CigarOp::HardClip => 5,
        CigarOp::Pad => 6,
        CigarOp::Equal => 7,
        CigarOp::Diff => 8,
    }
}

fn cigar_op_from_code(code: u32) -> Result<CigarOp, CodecError> {
    Ok(match code {
        0 => CigarOp::Match,
        1 => CigarOp::Ins,
        2 => CigarOp::Del,
        3 => CigarOp::RefSkip,
        4 => CigarOp::SoftClip,
        5 => CigarOp::HardClip,
        6 => CigarOp::Pad,
        7 => CigarOp::Equal,
        8 => CigarOp::Diff,
        c => return Err(CodecError::Corrupt(format!("bad CIGAR op code {c}"))),
    })
}

impl GpfSerialize for Cigar {
    fn write(&self, w: &mut ByteWriter) {
        w.write_u32(self.0.len() as u32);
        for &(len, op) in &self.0 {
            w.write_u32(len << 4 | cigar_op_code(op));
        }
    }
    fn read(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let n = r.read_u32()? as usize;
        let mut ops = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            let packed = r.read_u32()?;
            let len = packed >> 4;
            if len == 0 {
                return Err(CodecError::Corrupt("zero-length CIGAR op".into()));
            }
            ops.push((len, cigar_op_from_code(packed & 0xF)?));
        }
        Ok(Cigar(ops))
    }
    fn resident_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.0.len() * std::mem::size_of::<(u32, CigarOp)>()
    }
}

impl GpfSerialize for SamRecord {
    fn write(&self, w: &mut ByteWriter) {
        w.object_header();
        w.write_str(&self.name);
        w.write_u16(self.flags.0);
        w.write_u32(self.contig);
        w.write_u64(self.pos);
        w.write_u8(self.mapq);
        self.cigar.write(w);
        w.write_u32(self.mate_contig);
        w.write_u64(self.mate_pos);
        w.write_i64(self.tlen);
        write_seq_qual(w, &self.seq, &self.qual);
        w.write_u16(self.read_group);
        w.write_u16(self.edit_distance);
    }
    fn read(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        r.object_header()?;
        let name = r.read_str()?;
        let flags = SamFlags(r.read_u16()?);
        let contig = r.read_u32()?;
        let pos = r.read_u64()?;
        let mapq = r.read_u8()?;
        let cigar = Cigar::read(r)?;
        let mate_contig = r.read_u32()?;
        let mate_pos = r.read_u64()?;
        let tlen = r.read_i64()?;
        let (seq, qual) = read_seq_qual(r)?;
        let read_group = r.read_u16()?;
        let edit_distance = r.read_u16()?;
        Ok(SamRecord {
            name,
            flags,
            contig,
            pos,
            mapq,
            cigar,
            mate_contig,
            mate_pos,
            tlen,
            seq,
            qual,
            read_group,
            edit_distance,
        })
    }
    fn resident_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.name.len()
            + self.cigar.0.len() * std::mem::size_of::<(u32, CigarOp)>()
            + self.seq.len()
            + self.qual.len()
    }
}

impl GpfSerialize for VcfRecord {
    fn write(&self, w: &mut ByteWriter) {
        w.object_header();
        w.write_u32(self.contig);
        w.write_u64(self.pos);
        w.write_bytes(&self.ref_allele);
        w.write_bytes(&self.alt_allele);
        w.write_f64(self.qual);
        let gt = match self.genotype {
            Genotype::Het => 0u8,
            Genotype::HomAlt => 1,
            Genotype::HomRef => 2,
        };
        w.write_u8(gt);
        w.write_u32(self.depth);
    }
    fn read(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        r.object_header()?;
        let contig = r.read_u32()?;
        let pos = r.read_u64()?;
        let ref_allele = r.read_bytes()?;
        let alt_allele = r.read_bytes()?;
        let qual = r.read_f64()?;
        let genotype = match r.read_u8()? {
            0 => Genotype::Het,
            1 => Genotype::HomAlt,
            2 => Genotype::HomRef,
            t => return Err(CodecError::Corrupt(format!("bad genotype tag {t}"))),
        };
        let depth = r.read_u32()?;
        Ok(VcfRecord { contig, pos, ref_allele, alt_allele, qual, genotype, depth })
    }
    fn resident_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.ref_allele.len() + self.alt_allele.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KINDS: [SerializerKind; 3] =
        [SerializerKind::JavaSim, SerializerKind::KryoSim, SerializerKind::Gpf];

    fn fastq() -> FastqRecord {
        FastqRecord::new(
            "SRR622461.1/1",
            b"ACGTNACGTACGTACGTACG",
            b"IIII#IIIIIIIHHGGFFEE",
        )
        .unwrap()
    }

    fn sam() -> SamRecord {
        SamRecord {
            name: "SRR622461.1".into(),
            flags: SamFlags(SamFlags::PAIRED | SamFlags::PROPER_PAIR),
            contig: 3,
            pos: 12_345_677,
            mapq: 60,
            cigar: Cigar::parse("5S90M5S").unwrap(),
            mate_contig: 3,
            mate_pos: 12_345_977,
            tlen: -400,
            seq: (0..100).map(|i| b"ACGT"[i % 4]).collect(),
            qual: vec![b'F'; 100],
            read_group: 1,
            edit_distance: 3,
        }
    }

    #[test]
    fn fastq_round_trips_under_all_kinds() {
        for kind in KINDS {
            let buf = serialize_batch(kind, &[fastq()]);
            let out: Vec<FastqRecord> = deserialize_batch(kind, &buf).unwrap();
            assert_eq!(out, vec![fastq()], "kind {kind:?}");
        }
    }

    #[test]
    fn sam_round_trips_under_all_kinds() {
        for kind in KINDS {
            let buf = serialize_batch(kind, &[sam()]);
            let out: Vec<SamRecord> = deserialize_batch(kind, &buf).unwrap();
            assert_eq!(out, vec![sam()], "kind {kind:?}");
        }
    }

    #[test]
    fn vcf_round_trips_under_all_kinds() {
        let v = VcfRecord {
            contig: 0,
            pos: 999,
            ref_allele: b"AT".to_vec(),
            alt_allele: b"A".to_vec(),
            qual: 87.5,
            genotype: Genotype::HomAlt,
            depth: 42,
        };
        for kind in KINDS {
            let buf = serialize_batch(kind, std::slice::from_ref(&v));
            let out: Vec<VcfRecord> = deserialize_batch(kind, &buf).unwrap();
            assert_eq!(out, vec![v.clone()], "kind {kind:?}");
        }
    }

    #[test]
    fn pair_round_trips() {
        let pair = FastqPair::new(
            FastqRecord::new("f/1", b"ACGT", b"IIII").unwrap(),
            FastqRecord::new("f/2", b"TTTT", b"FFFF").unwrap(),
        )
        .unwrap();
        for kind in KINDS {
            let buf = serialize_batch(kind, std::slice::from_ref(&pair));
            let out: Vec<FastqPair> = deserialize_batch(kind, &buf).unwrap();
            assert_eq!(out, vec![pair.clone()]);
        }
    }

    #[test]
    fn size_ordering_java_gt_kryo_gt_gpf() {
        // A realistic batch: 100bp reads with smooth qualities.
        let records: Vec<SamRecord> = (0..64).map(|_| sam()).collect();
        let java = serialized_size(SerializerKind::JavaSim, &records);
        let kryo = serialized_size(SerializerKind::KryoSim, &records);
        let gpf = serialized_size(SerializerKind::Gpf, &records);
        assert!(java > kryo, "java {java} vs kryo {kryo}");
        assert!(kryo > gpf, "kryo {kryo} vs gpf {gpf}");
        // §4.2: GPF's sequence part compresses ~4x; whole record comfortably >1.5x.
        assert!(kryo as f64 / gpf as f64 > 1.5, "kryo/gpf = {}", kryo as f64 / gpf as f64);
    }

    #[test]
    fn primitives_and_containers_round_trip() {
        for kind in KINDS {
            let data: Vec<(u64, String)> =
                vec![(1, "a".into()), (u64::MAX, "bb".into()), (0, String::new())];
            let buf = serialize_batch(kind, &data);
            let out: Vec<(u64, String)> = deserialize_batch(kind, &buf).unwrap();
            assert_eq!(out, data);

            let opt: Vec<Option<u32>> = vec![None, Some(7), Some(u32::MAX)];
            let buf = serialize_batch(kind, &opt);
            let out: Vec<Option<u32>> = deserialize_batch(kind, &buf).unwrap();
            assert_eq!(out, opt);

            let nested: Vec<Vec<u8>> = vec![vec![], vec![1, 2, 3]];
            let buf = serialize_batch(kind, &nested);
            let out: Vec<Vec<u8>> = deserialize_batch(kind, &buf).unwrap();
            assert_eq!(out, nested);
        }
    }

    #[test]
    fn genome_types_round_trip() {
        for kind in KINDS {
            let pos = GenomePosition::new(4, 12_345_678);
            let buf = serialize_batch(kind, &[pos]);
            assert_eq!(deserialize_batch::<GenomePosition>(kind, &buf).unwrap(), vec![pos]);

            let iv = GenomeInterval::new(1, 100, 200);
            let buf = serialize_batch(kind, &[iv]);
            assert_eq!(deserialize_batch::<GenomeInterval>(kind, &buf).unwrap(), vec![iv]);
        }
    }

    #[test]
    fn truncated_buffer_errors_cleanly() {
        for kind in KINDS {
            let buf = serialize_batch(kind, &[sam()]);
            for cut in [1usize, buf.len() / 2, buf.len() - 1] {
                let r: Result<Vec<SamRecord>, _> = deserialize_batch(kind, &buf[..cut]);
                assert!(r.is_err(), "kind {kind:?} cut {cut} should fail");
            }
        }
    }

    #[test]
    fn negative_tlen_survives_all_kinds() {
        let mut r = sam();
        r.tlen = i64::MIN + 1;
        for kind in KINDS {
            let buf = serialize_batch(kind, std::slice::from_ref(&r));
            let out: Vec<SamRecord> = deserialize_batch(kind, &buf).unwrap();
            assert_eq!(out[0].tlen, r.tlen);
        }
    }

    #[test]
    fn batch_into_appends_and_matches_plain() {
        for kind in KINDS {
            let items = vec![sam(), sam()];
            let plain = serialize_batch(kind, &items);
            // One writer, two batches, the second gathered by reference out
            // of order: each is byte for byte what `serialize_batch` writes.
            let mut w = ByteWriter::appending(kind, vec![0xEE, 0xFF]);
            let n = w.write_batch(items.iter());
            let n_rev = w.write_batch([&items[1], &items[0]].into_iter());
            assert_eq!((n, n_rev), (plain.len(), plain.len()));
            assert_eq!(&w.buf[..2], &[0xEE, 0xFF], "prefix must survive");
            assert_eq!(&w.buf[2..2 + n], &plain[..], "appended bytes must match plain serialize");
            assert_eq!(&w.buf[2 + n..], &plain[..], "a second batch reuses the writer");

            let mut out: Vec<SamRecord> = vec![sam()];
            let n2 = deserialize_batch_into(kind, &plain, &mut out).unwrap();
            assert_eq!(n2, 2);
            assert_eq!(out.len(), 3, "deserialize_batch_into must append");
            assert_eq!(&out[1..], &items[..]);
        }
    }

    #[test]
    fn resident_bytes_counts_heap_payloads() {
        // Primitives: inline size only.
        assert_eq!(7u64.resident_bytes(), 8);
        // String: inline handle + payload length (not capacity — the charge
        // must be deterministic across allocator behaviors).
        let mut s = String::with_capacity(1024);
        s.push_str("abc");
        assert_eq!(s.resident_bytes(), std::mem::size_of::<String>() + 3);
        // Vec<u8>: handle + one byte per element.
        let v: Vec<u8> = vec![0; 100];
        assert_eq!(v.resident_bytes(), std::mem::size_of::<Vec<u8>>() + 100);
        // Records: strictly larger than their inline size once heap fields
        // are non-empty, and grow with payload.
        let r = sam();
        assert!(r.resident_bytes() > std::mem::size_of::<SamRecord>());
        let mut bigger = sam();
        bigger.seq.extend_from_slice(b"ACGT");
        bigger.qual.extend_from_slice(b"FFFF");
        assert_eq!(bigger.resident_bytes(), r.resident_bytes() + 8);
        // Vec of records sums element footprints.
        let batch = vec![sam(), sam()];
        assert_eq!(
            batch.resident_bytes(),
            std::mem::size_of::<Vec<SamRecord>>() + 2 * sam().resident_bytes()
        );
    }

    #[test]
    fn empty_batch() {
        for kind in KINDS {
            let buf = serialize_batch::<SamRecord>(kind, &[]);
            let out: Vec<SamRecord> = deserialize_batch(kind, &buf).unwrap();
            assert!(out.is_empty());
        }
    }
}
