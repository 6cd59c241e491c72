//! SAM text the parser accepts (and one record it no longer does, built in
//! code) but the caller's walks cannot index: every hostile record sits
//! between well-formed reads, whose calls must come out exactly as they do
//! without it.

use gpf_caller::HaplotypeCaller;
use gpf_formats::sam::{format_sam, parse_sam, SamFlags, SamHeaderInfo, SamRecord, NO_CONTIG};
use gpf_formats::{Cigar, ReferenceGenome};

const CONTIG_LEN: usize = 2000;

fn reference() -> ReferenceGenome {
    let mut state = 0x0bad_5a11u64;
    let seq: Vec<u8> = (0..CONTIG_LEN)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(29);
            b"ACGT"[(state >> 33) as usize % 4]
        })
        .collect();
    ReferenceGenome::from_contigs(vec![("chr1", seq)])
}

/// 80-base reads every 13 bases over `[900, 1100)`, all carrying a SNV at
/// reference position 1000.
fn good_reads(reference: &ReferenceGenome) -> Vec<SamRecord> {
    let mut donor = reference.contig_seq(0).to_vec();
    donor[1000] = if donor[1000] == b'A' { b'G' } else { b'A' };
    (0..20)
        .map(|i| {
            let pos = 900 + (i * 13) % 120;
            SamRecord {
                name: format!("g{i:02}"),
                flags: SamFlags::default(),
                contig: 0,
                pos: pos as u64,
                mapq: 60,
                cigar: Cigar::parse("80M").unwrap(),
                mate_contig: NO_CONTIG,
                mate_pos: 0,
                tlen: 0,
                seq: donor[pos..pos + 80].to_vec(),
                qual: vec![b'F'; 80],
                read_group: 1,
                edit_distance: 0,
            }
        })
        .collect()
}

#[test]
fn hostile_sam_records_are_skipped_not_indexed() {
    let r = reference();
    let header = SamHeaderInfo::unsorted_header(r.dict().clone());
    let clean_text = format_sam(&header, &good_reads(&r));
    let seq =
        |from: usize, len: usize| String::from_utf8(r.contig_seq(0)[from..from + len].to_vec());
    let seq50 = seq(940, 50).unwrap();
    let qual50 = "F".repeat(50);
    let mut hostile = vec![
        // CIGAR consumes 80 read bases, SEQ holds 50.
        format!("h1\t0\tchr1\t941\t60\t80M\t*\t0\t0\t{seq50}\t{qual50}\tRG:Z:rg1"),
        // SEQ `*` with a CIGAR.
        "h2\t0\tchr1\t941\t60\t50M\t*\t0\t0\t*\t*\tRG:Z:rg1".to_string(),
        // QUAL `*` on a mapped read.
        format!("h3\t0\tchr1\t941\t60\t50M\t*\t0\t0\t{seq50}\t*\tRG:Z:rg1"),
        // Mapped flag, no contig.
        format!("h4\t0\t*\t941\t60\t50M\t*\t0\t0\t{seq50}\t{qual50}\tRG:Z:rg1"),
    ];
    // Four reads hanging 80 bases over the contig end and opening a deletion
    // out there: deep enough and with evidence enough for a locus that is
    // more than the region pad off the contig.
    let tail = seq(CONTIG_LEN - 20, 20).unwrap() + &"A".repeat(90);
    for i in 0..4 {
        hostile.push(format!(
            "h{}\t0\tchr1\t{}\t60\t100M10D10M\t*\t0\t0\t{tail}\t{}\tRG:Z:rg1",
            6 + i,
            CONTIG_LEN - 19,
            "F".repeat(110)
        ));
    }
    // Header, then a hostile line after each of the first reads.
    let mut hostile_lines = hostile.iter();
    let mut mixed_text = String::new();
    for line in clean_text.lines() {
        mixed_text += line;
        mixed_text.push('\n');
        if !line.starts_with('@') {
            if let Some(h) = hostile_lines.next() {
                mixed_text += h;
                mixed_text.push('\n');
            }
        }
    }
    let (_, clean) = parse_sam(&clean_text).unwrap();
    let (_, mut mixed) = parse_sam(&mixed_text).unwrap();
    assert_eq!(mixed.len(), clean.len() + hostile.len());
    // A start beyond the contig's end is rejected by `parse_sam`, so the
    // caller can only meet it on a record built in code.
    mixed.insert(1, SamRecord { name: "h5".into(), pos: u64::MAX - 1, ..clean[0].clone() });

    let caller = HaplotypeCaller;
    let want = caller.call(&clean, &r);
    assert_eq!(want.iter().map(|v| v.pos).collect::<Vec<_>>(), vec![1000]);
    assert_eq!(caller.call(&mixed, &r), want);
}
