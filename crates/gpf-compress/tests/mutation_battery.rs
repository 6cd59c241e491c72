//! Seeded mutation battery over every record entry point: the text parsers
//! (`parse_sam`, `parse_vcf`, the FASTQ pair parser, `parse_fasta`,
//! `Cigar::parse`) and `GpfSerialize::read` for `SamRecord`, `VcfRecord`
//! and `FastqRecord` under all three serializer kinds.
//!
//! Each case takes a valid input from a fixed corpus and mutates it — it
//! truncates it, flips one bit, splices it onto another input, or writes an
//! oversized value into a length field — then hands the mutant to the entry
//! point. The answer must be `Ok` or `Err`. A panic fails the case (the
//! harness catches it), and so does a heap peak above a fixed multiple of
//! the mutant's size, as the tracking allocator measures it on the calling
//! thread: a parser or decoder that sizes a buffer from a length it read,
//! rather than from the bytes it holds, fails. Every `SamRecord` and
//! `VcfRecord` that comes back `Ok` must keep the record invariant, restated
//! below as the oracle: all of it from a parser, the shape half from a
//! decoder.

use gpf_compress::serializer::{deserialize_batch, serialize_batch, GpfSerialize, SerializerKind};
use gpf_compress::varint;
use gpf_formats::fastq::{format_fastq, pair_up, parse_fastq, FastqRecord};
use gpf_formats::sam::{format_sam, parse_sam, SamFlags, SamHeaderInfo, SamRecord, NO_CONTIG};
use gpf_formats::vcf::{format_vcf, parse_vcf, Genotype, VcfHeaderInfo, VcfRecord};
use gpf_formats::{Cigar, CigarOp, ContigDict, ReferenceGenome};
use gpf_support::proptest::prelude::*;
use gpf_support::rng::SplitMix64;

/// `f`'s result and the peak growth of this thread's live heap while it
/// ran, as `gpf-trace`'s tracking allocator measures it.
fn peak_heap<R>(f: impl FnOnce() -> R) -> (R, u64) {
    gpf_trace::alloc::set_tracking(true);
    gpf_trace::set_enabled(true);
    let window = gpf_trace::alloc::window_begin();
    let out = f();
    (out, gpf_trace::alloc::window_end(window).peak_bytes)
}

/// The most heap a parse or decode of `len` bytes may hold at once: room
/// for its records, a few times over, and never a size read from the input.
fn heap_bound(len: usize) -> u64 {
    64 * 1024 + 256 * len as u64
}

/// The half of the `SamRecord` invariant a decoder re-establishes: `QUAL` as
/// long as `SEQ`, and a mapped record with a contig and a CIGAR that
/// consumes exactly its bases (of which it has some).
fn keeps_shape(r: &SamRecord) -> bool {
    r.qual.len() == r.seq.len()
        && (!r.flags.is_mapped()
            || (r.contig != NO_CONTIG
                && !r.seq.is_empty()
                && r.cigar.read_len() == r.seq.len() as u64))
}

/// The whole `SamRecord` invariant against the header's dictionary.
fn keeps_invariant(r: &SamRecord, dict: &ContigDict) -> bool {
    keeps_shape(r)
        && r.seq.iter().all(|b| b"ACGTN".contains(b))
        && r.qual.iter().all(|q| (b'!'..=b'~').contains(q))
        && (!r.flags.is_mapped()
            || r.pos.saturating_add(r.cigar.ref_span()) <= dict.length_of(r.contig))
}

const KINDS: [SerializerKind; 3] =
    [SerializerKind::JavaSim, SerializerKind::KryoSim, SerializerKind::Gpf];

fn dict() -> ContigDict {
    ContigDict::from_pairs([("chr1", 5_000u64), ("chr2", 3_000)])
}

fn bases(rng: &mut SplitMix64, n: usize) -> Vec<u8> {
    (0..n).map(|_| b"ACGTACGTACGTACGN"[(rng.next_u64() % 16) as usize]).collect()
}

fn quals(rng: &mut SplitMix64, n: usize) -> Vec<u8> {
    (0..n).map(|_| 33 + (rng.next_u64() % 94) as u8).collect()
}

/// A handful of records of every shape a pipeline writes: mapped pairs with
/// clips and indels, a mate on another contig, and unmapped reads with and
/// without bases. Reads are at least two bases, so no `QUAL` reads as `*`.
fn sam_records(seed: u64) -> Vec<SamRecord> {
    let mut rng = SplitMix64::new(seed);
    let d = dict();
    let mut out = Vec::new();
    for i in 0..6u64 {
        let contig = (rng.next_u64() % 2) as u32;
        let (clip, left, ins, del, right) = (
            rng.next_u64() % 6,
            2 + rng.next_u64() % 60,
            rng.next_u64() % 3,
            rng.next_u64() % 4,
            1 + rng.next_u64() % 30,
        );
        let mut ops = Vec::new();
        if clip > 0 {
            ops.push((clip as u32, CigarOp::SoftClip));
        }
        ops.push((left as u32, CigarOp::Match));
        if ins > 0 {
            ops.push((ins as u32, CigarOp::Ins));
        }
        if del > 0 {
            ops.push((del as u32, CigarOp::Del));
        }
        ops.push((right as u32, CigarOp::Match));
        let cigar = Cigar::from_ops(ops);
        let len = cigar.read_len() as usize;
        let clen = d.length_of(contig);
        let pos = rng.next_u64() % (clen - cigar.ref_span() + 1);
        let mate_contig = if i % 3 == 0 { 1 - contig } else { contig };
        out.push(SamRecord {
            name: format!("sim{seed}:{i}/1"),
            flags: SamFlags(SamFlags::PAIRED | SamFlags::FIRST_IN_PAIR | ((i as u16 % 2) * 16)),
            contig,
            pos,
            mapq: (rng.next_u64() % 61) as u8,
            cigar,
            mate_contig,
            mate_pos: rng.next_u64() % d.length_of(mate_contig),
            tlen: (rng.next_u64() % 900) as i64 - 450,
            seq: bases(&mut rng, len),
            qual: quals(&mut rng, len),
            read_group: 1,
            edit_distance: (rng.next_u64() % 5) as u16,
        });
    }
    let len = 2 + (rng.next_u64() % 50) as usize;
    out.push(SamRecord::unmapped(format!("u{seed}"), bases(&mut rng, len), quals(&mut rng, len)));
    out.push(SamRecord::unmapped(format!("e{seed}"), Vec::new(), Vec::new()));
    out
}

fn vcf_records(seed: u64) -> Vec<VcfRecord> {
    let mut rng = SplitMix64::new(seed);
    let d = dict();
    (0..8)
        .map(|i| {
            let contig = (rng.next_u64() % 2) as u32;
            let ref_len = 1 + (rng.next_u64() % 4) as usize;
            let alt_len = if ref_len > 1 { 1 } else { 1 + (rng.next_u64() % 3) as usize };
            VcfRecord {
                contig,
                pos: rng.next_u64() % (d.length_of(contig) - ref_len as u64 + 1),
                ref_allele: bases(&mut rng, ref_len),
                alt_allele: bases(&mut rng, alt_len),
                qual: (rng.next_u64() % 10_000) as f64 / 100.0,
                genotype: [Genotype::Het, Genotype::HomAlt, Genotype::HomRef][i % 3],
                depth: (rng.next_u64() % 200) as u32,
            }
        })
        .collect()
}

fn fastq_records(seed: u64, mate: u8) -> Vec<FastqRecord> {
    let mut rng = SplitMix64::new(seed);
    (0..5)
        .map(|i| {
            let len = 1 + (rng.next_u64() % 80) as usize;
            let (seq, qual) = (bases(&mut rng, len), quals(&mut rng, len));
            FastqRecord::new(format!("frag{seed}.{i}/{mate}"), &seq, &qual).unwrap()
        })
        .collect()
}

const SEEDS: [u64; 4] = [2018, 6054, 77, 0x5eed];

fn sam_texts() -> Vec<Vec<u8>> {
    let header = SamHeaderInfo::unsorted_header(dict());
    SEEDS.iter().map(|&s| format_sam(&header, &sam_records(s)).into_bytes()).collect()
}

fn vcf_texts() -> Vec<Vec<u8>> {
    let header = VcfHeaderInfo::new_header(dict(), vec!["s".into()]);
    SEEDS.iter().map(|&s| format_vcf(&header, &vcf_records(s)).into_bytes()).collect()
}

/// Mate-1 texts at even indices, their mate-2 texts at the odd ones after.
fn fastq_texts() -> Vec<Vec<u8>> {
    SEEDS
        .iter()
        .flat_map(|&s| [1, 2].map(|mate| format_fastq(&fastq_records(s, mate)).into_bytes()))
        .collect()
}

fn fasta_texts() -> Vec<Vec<u8>> {
    SEEDS
        .iter()
        .map(|&s| {
            let mut rng = SplitMix64::new(s);
            let contigs: Vec<(String, Vec<u8>)> = (0..1 + s % 3)
                .map(|c| {
                    let len = 1 + (rng.next_u64() % 200) as usize;
                    (format!("chr{c} description"), bases(&mut rng, len))
                })
                .collect();
            ReferenceGenome::from_contigs(contigs).to_fasta_string().into_bytes()
        })
        .collect()
}

fn cigar_texts() -> Vec<Vec<u8>> {
    ["100M", "5S90M5S", "3H2S10M2I5D20M1S", "10M5N10M", "4=1X4=", "1P2M", "*"]
        .iter()
        .map(|s| s.as_bytes().to_vec())
        .collect()
}

fn frames<T: GpfSerialize>(records: impl Fn(u64) -> Vec<T>) -> Vec<Vec<Vec<u8>>> {
    KINDS
        .iter()
        .map(|&kind| SEEDS.iter().map(|&s| serialize_batch(kind, &records(s))).collect())
        .collect()
}

/// Replace one decimal run — a length, position, count or CIGAR length —
/// with a value no field of its kind can hold.
fn oversize_text(input: &[u8], at: u64, with: u64) -> Vec<u8> {
    let mut runs = Vec::new();
    let mut i = 0;
    while i < input.len() {
        let start = i;
        while i < input.len() && input[i].is_ascii_digit() {
            i += 1;
        }
        if i > start {
            runs.push((start, i));
        }
        i += 1;
    }
    let Some(&(s, e)) = runs.get(at as usize % runs.len().max(1)) else {
        return input.to_vec();
    };
    let huge = ["4294967295", "4294967296", "18446744073709551615", "99999999999999999999999"];
    [&input[..s], huge[with as usize % huge.len()].as_bytes(), &input[e..]].concat()
}

/// Overwrite the bytes at one offset with a huge length as `kind` writes
/// one: a fixed-width all-ones field for `JavaSim`, a varint otherwise.
fn oversize_frame(kind: SerializerKind) -> impl Fn(&[u8], u64, u64) -> Vec<u8> {
    move |input, at, with| {
        let huge = [u32::MAX as u64, 1 << 40, u64::MAX][with as usize % 3];
        let field = match kind {
            SerializerKind::JavaSim => vec![0xFF; if huge == u64::MAX { 8 } else { 4 }],
            _ => {
                let mut v = Vec::new();
                varint::write_u64(&mut v, huge);
                v
            }
        };
        let at = at as usize % (input.len() + 1);
        let mut out = input.to_vec();
        out.resize(out.len().max(at + field.len()), 0);
        out[at..at + field.len()].copy_from_slice(&field);
        out
    }
}

/// Writes an oversized value into a length field: `(input, at, with)`.
type Oversize = dyn Fn(&[u8], u64, u64) -> Vec<u8>;

/// One mutant of a corpus input. `op` picks the input and the mutation,
/// `at` where it lands, and `with` the second input of a splice (and where
/// in it) or the value of an oversized field.
fn mutant(
    corpus: &[Vec<u8>],
    op: u64,
    at: u64,
    with: u64,
    oversize: &Oversize,
) -> Vec<u8> {
    let input = &corpus[(op / 4) as usize % corpus.len()];
    let cut = |bytes: &[u8], at: u64| (at % (bytes.len() as u64 + 1)) as usize;
    match op % 4 {
        0 => input[..cut(input, at)].to_vec(),
        1 => {
            let mut m = input.clone();
            if !m.is_empty() {
                let bit = (at % (m.len() as u64 * 8)) as usize;
                m[bit / 8] ^= 1 << (bit % 8);
            }
            m
        }
        2 => {
            let other = &corpus[with as usize % corpus.len()];
            [&input[..cut(input, at)], &other[cut(other, with >> 32)..]].concat()
        }
        _ => oversize(input, at, with),
    }
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

/// Parse or decode `len` bytes through `f` and hold its heap to
/// [`heap_bound`]; hand back the result.
fn bounded<R>(what: &str, len: usize, f: impl FnOnce() -> R) -> Result<R, TestCaseError> {
    let (out, peak) = peak_heap(f);
    prop_assert!(peak <= heap_bound(len), "{what}: a {len}-byte input took {peak} heap bytes");
    Ok(out)
}

proptest! {
    #[test]
    fn sam_text_mutants_parse_or_fail(op in any::<u64>(), at in any::<u64>(), with in any::<u64>()) {
        let input = text(&mutant(&sam_texts(), op, at, with, &oversize_text));
        if let Ok((header, records)) = bounded("parse_sam", input.len(), || parse_sam(&input))? {
            for r in &records {
                prop_assert!(keeps_invariant(r, &header.dict), "parse_sam kept {r:?}");
            }
        }
    }

    #[test]
    fn vcf_text_mutants_parse_or_fail(op in any::<u64>(), at in any::<u64>(), with in any::<u64>()) {
        let input = text(&mutant(&vcf_texts(), op, at, with, &oversize_text));
        if let Ok((header, records)) = bounded("parse_vcf", input.len(), || parse_vcf(&input))? {
            for v in &records {
                let end = v.pos.saturating_add(v.ref_allele.len() as u64);
                prop_assert!(end <= header.dict.length_of(v.contig), "parse_vcf kept {v:?}");
            }
        }
    }

    #[test]
    fn fastq_pair_mutants_parse_or_fail(op in any::<u64>(), at in any::<u64>(), with in any::<u64>()) {
        // Mutate one mate file of a pair and parse it with its partner as
        // written: `op` picks the pair as it picks any input, and the
        // lowest bit of `with` the mate.
        let corpus = fastq_texts();
        let mate = (with % 2) as usize;
        let same_mate: Vec<Vec<u8>> = corpus.iter().skip(mate).step_by(2).cloned().collect();
        let mutated = text(&mutant(&same_mate, op, at, with, &oversize_text));
        let partner = text(&corpus[2 * ((op / 4) as usize % same_mate.len()) + 1 - mate]);
        let (r1, r2) = if mate == 0 { (mutated, partner) } else { (partner, mutated) };
        let _ = bounded("FASTQ pair", r1.len() + r2.len(), || {
            parse_fastq(&r1).and_then(|a| parse_fastq(&r2).and_then(|b| pair_up(a, b)))
        })?;
    }

    #[test]
    fn fasta_mutants_parse_or_fail(op in any::<u64>(), at in any::<u64>(), with in any::<u64>()) {
        let input = text(&mutant(&fasta_texts(), op, at, with, &oversize_text));
        let _ = bounded("parse_fasta", input.len(), || ReferenceGenome::parse_fasta(&input))?;
    }

    #[test]
    fn cigar_mutants_parse_or_fail(op in any::<u64>(), at in any::<u64>(), with in any::<u64>()) {
        let input = text(&mutant(&cigar_texts(), op, at, with, &oversize_text));
        let _ = bounded("Cigar::parse", input.len(), || Cigar::parse(&input))?;
    }

    #[test]
    fn sam_frame_mutants_decode_or_fail(op in any::<u64>(), at in any::<u64>(), with in any::<u64>()) {
        for (kind, corpus) in KINDS.into_iter().zip(frames(sam_records)) {
            let input = mutant(&corpus, op, at, with, &oversize_frame(kind));
            let decoded = bounded("SamRecord::read", input.len(), || {
                deserialize_batch::<SamRecord>(kind, &input)
            })?;
            for r in decoded.iter().flatten() {
                prop_assert!(keeps_shape(r), "{kind:?} decoded {r:?}");
            }
        }
    }

    #[test]
    fn vcf_frame_mutants_decode_or_fail(op in any::<u64>(), at in any::<u64>(), with in any::<u64>()) {
        for (kind, corpus) in KINDS.into_iter().zip(frames(vcf_records)) {
            let input = mutant(&corpus, op, at, with, &oversize_frame(kind));
            let _ = bounded("VcfRecord::read", input.len(), || {
                deserialize_batch::<VcfRecord>(kind, &input)
            })?;
        }
    }

    #[test]
    fn fastq_frame_mutants_decode_or_fail(op in any::<u64>(), at in any::<u64>(), with in any::<u64>()) {
        for (kind, corpus) in KINDS.into_iter().zip(frames(|s| fastq_records(s, 1))) {
            let input = mutant(&corpus, op, at, with, &oversize_frame(kind));
            let decoded = bounded("FastqRecord::read", input.len(), || {
                deserialize_batch::<FastqRecord>(kind, &input)
            })?;
            for r in decoded.iter().flatten() {
                prop_assert!(r.seq.len() == r.qual.len(), "{kind:?} decoded {r:?}");
            }
        }
    }
}

#[test]
fn the_corpus_is_valid_input() {
    for t in sam_texts() {
        let (header, records) = parse_sam(&text(&t)).unwrap();
        assert_eq!(header.dict, dict());
        assert!(records.iter().any(|r| r.contig == NO_CONTIG));
        assert!(records.iter().any(|r| r.flags.is_mapped() && r.cigar.has_indel()));
    }
    for t in vcf_texts() {
        assert_eq!(parse_vcf(&text(&t)).unwrap().1.len(), 8);
    }
    for pair in fastq_texts().chunks(2) {
        let (a, b) = (parse_fastq(&text(&pair[0])), parse_fastq(&text(&pair[1])));
        assert_eq!(pair_up(a.unwrap(), b.unwrap()).unwrap().len(), 5);
    }
    for t in fasta_texts() {
        ReferenceGenome::parse_fasta(&text(&t)).unwrap();
    }
    for t in cigar_texts() {
        Cigar::parse(&text(&t)).unwrap();
    }
    for (kind, corpus) in KINDS.into_iter().zip(frames(sam_records)) {
        for (frame, &s) in corpus.iter().zip(&SEEDS) {
            assert_eq!(deserialize_batch::<SamRecord>(kind, frame).unwrap(), sam_records(s));
        }
    }
}
