//! Differential battery: the shipped FM-index against the byte-scan oracle
//! in `fm_oracle/`. Whatever rank layout `gpf_align::fmindex` uses, every
//! pattern must come back with the same SA interval, the same count and the
//! same hits in the same order — and every `ACGT` pattern the same interval
//! again through `backward_search_ranks`, the form the aligner's seeds take.
//!
//! The texts are chosen around what a blocked rank structure can get wrong:
//! row counts one short of, exactly at and one past a 64-row block; the
//! sentinel row in the first, a middle and the last block; `A`-only and
//! `A`-heavy texts (the sentinel's placeholder is stored as an `A`, so its
//! correction only shows where `A`s are counted); and `occ` asked for all
//! rows, which every search does on its first step. The oracle builds its
//! suffix array with the test-side prefix-doubling sort, so the two
//! indexes agreeing also pins the library's suffix array.

// Verbatim means verbatim: keep rustfmt off it too.
#[rustfmt::skip]
mod fm_oracle;
#[rustfmt::skip]
mod sa_oracle;

use fm_oracle::OracleFmIndex;
use gpf_align::verify::OrientedRead;
use gpf_align::FmIndex;
use gpf_formats::base::rank4;
use gpf_support::rng::{Rng, SeedableRng, StdRng};

/// How a text's letters are drawn.
#[derive(Clone, Copy, Debug)]
enum Alphabet {
    Uniform,
    AllA,
    /// Nine bases in ten are `A`.
    AHeavy,
    /// `A` and `T` only: two of the four checkpoints stay zero.
    TwoLetter,
    /// Uniform with an `N` (indexed as `A`) every so often.
    WithN,
}

const ALPHABETS: [Alphabet; 5] =
    [Alphabet::Uniform, Alphabet::AllA, Alphabet::AHeavy, Alphabet::TwoLetter, Alphabet::WithN];

fn text(rng: &mut StdRng, len: usize, alphabet: Alphabet) -> Vec<u8> {
    (0..len)
        .map(|_| match alphabet {
            Alphabet::Uniform => b"ACGT"[rng.gen_range(0..4usize)],
            Alphabet::AllA => b'A',
            Alphabet::AHeavy => {
                if rng.gen_bool(0.9) {
                    b'A'
                } else {
                    b"CGT"[rng.gen_range(0..3usize)]
                }
            }
            Alphabet::TwoLetter => b"AT"[rng.gen_range(0..2usize)],
            Alphabet::WithN => {
                if rng.gen_bool(0.05) {
                    b'N'
                } else {
                    b"ACGT"[rng.gen_range(0..4usize)]
                }
            }
        })
        .collect()
}

fn build(raw: &[u8]) -> (FmIndex, OracleFmIndex) {
    let (offsets, lengths) = (vec![0u64], vec![raw.len() as u64]);
    (
        FmIndex::build_from_text(raw, offsets.clone(), lengths.clone()),
        OracleFmIndex::build_from_text(raw, offsets, lengths),
    )
}

/// One pattern, every public answer.
fn check(fm: &FmIndex, oracle: &OracleFmIndex, pattern: &[u8]) {
    let head = String::from_utf8_lossy(&pattern[..pattern.len().min(40)]);
    let shown = format!("{head} ({} bases)", pattern.len());
    let interval = oracle.backward_search(pattern);
    assert_eq!(fm.backward_search(pattern), interval, "interval of {shown:?}");
    if pattern.iter().all(|&b| is_acgt(b)) {
        let ranks: Vec<u8> = pattern.iter().map(|&b| rank4(b)).collect();
        assert_eq!(fm.backward_search_ranks(&ranks), interval, "interval of ranks of {shown:?}");
    }
    assert_eq!(fm.count(pattern), oracle.count(pattern), "count of {shown:?}");
    for max in [0usize, 1, 3, 16, usize::MAX] {
        assert_eq!(fm.find(pattern, max), oracle.find(pattern, max), "find({shown:?}, {max})");
        if let Some((lo, hi)) = interval {
            assert_eq!(
                fm.locate(lo, hi, max),
                oracle.locate(lo, hi, max),
                "locate({lo}, {hi}, {max})"
            );
        }
    }
}

fn is_acgt(b: u8) -> bool {
    matches!(b, b'A' | b'C' | b'G' | b'T')
}

/// Flip one base of `pattern` to a different letter.
fn mutate(rng: &mut StdRng, pattern: &mut [u8]) {
    if pattern.is_empty() {
        return;
    }
    let at = rng.gen_range(0..pattern.len());
    let old = pattern[at];
    pattern[at] = *b"ACGT".iter().find(|&&b| b != old).unwrap_or(&b'C');
    if rng.gen_bool(0.5) {
        pattern[at] = b"ACGT"[rng.gen_range(0..4usize)];
    }
}

/// The patterns every text is asked: the four single letters (`occ` over
/// every row), the empty pattern, one longer than the text, ones holding
/// `N`, a lower-case letter or a raw rank byte, and the whole text.
fn fixed_patterns(raw: &[u8]) -> Vec<Vec<u8>> {
    let clean: Vec<u8> = raw.iter().map(|&b| if b == b'N' { b'A' } else { b }).collect();
    let mut longer = clean.clone();
    longer.push(b'A');
    let mut out: Vec<Vec<u8>> = vec![
        b"A".to_vec(),
        b"C".to_vec(),
        b"G".to_vec(),
        b"T".to_vec(),
        Vec::new(),
        b"N".to_vec(),
        b"ANA".to_vec(),
        b"a".to_vec(),
        vec![0u8],
        clean.clone(),
        longer,
        [clean.as_slice(), clean.as_slice()].concat(),
    ];
    if clean.len() >= 3 {
        let mut with_n = clean[..3].to_vec();
        with_n[1] = b'N';
        out.push(with_n);
    }
    out
}

#[test]
fn block_boundary_texts_agree_on_every_substring() {
    let mut rng = StdRng::seed_from_u64(0xf0_0d);
    // n bases make n + 1 BWT rows, so both n and n + 1 straddle 64 and 128.
    for len in [1usize, 2, 3, 62, 63, 64, 65, 126, 127, 128, 129, 191, 192, 193] {
        for alphabet in ALPHABETS {
            let raw = text(&mut rng, len, alphabet);
            let (fm, oracle) = build(&raw);
            assert_eq!(fm.len(), oracle.len());
            for pattern in fixed_patterns(&raw) {
                check(&fm, &oracle, &pattern);
            }
            // Every substring (capped in length so the battery stays quick),
            // each also with one base changed.
            for start in 0..len {
                for plen in 1..=(len - start).min(24) {
                    let mut pattern: Vec<u8> = raw[start..start + plen]
                        .iter()
                        .map(|&b| if b == b'N' { b'A' } else { b })
                        .collect();
                    check(&fm, &oracle, &pattern);
                    mutate(&mut rng, &mut pattern);
                    check(&fm, &oracle, &pattern);
                }
            }
        }
    }
}

#[test]
fn sentinel_row_in_first_middle_and_last_block() {
    let mut rng = StdRng::seed_from_u64(0x5e17);
    let body = text(&mut rng, 3000, Alphabet::Uniform);
    // The sentinel sits in the row of the whole text's own suffix, so the
    // text's first bases decide the block: a run of `A` longer than any in
    // the body sorts first, a run of `T` last, and `G…` lands in between.
    let cases: [(&[u8], &str); 3] = [
        (b"AAAAAAAAAAAAAAAAAAAAC", "first"),
        (b"GA", "middle"),
        (b"TTTTTTTTTTTTTTTTTTTTG", "last"),
    ];
    for (prefix, which) in cases {
        let raw = [prefix, body.as_slice()].concat();
        let (fm, oracle) = build(&raw);
        let (rows, sentinel) = oracle.rows_and_sentinel();
        let (block, last_block) = (sentinel / 64, (rows - 1) / 64);
        match which {
            "first" => assert_eq!(block, 0, "sentinel row {sentinel}"),
            "last" => assert_eq!(block, last_block, "sentinel row {sentinel} of {rows}"),
            _ => assert!(block > 0 && block < last_block, "sentinel row {sentinel} of {rows}"),
        }
        for pattern in fixed_patterns(&raw) {
            check(&fm, &oracle, &pattern);
        }
        // Seeds that cross the start of the text (their interval borders
        // the sentinel row) and seeds from everywhere else.
        for start in (0..40).chain((40..raw.len() - 32).step_by(53)) {
            for plen in [1usize, 2, 5, 12, 19, 32] {
                let mut pattern = raw[start..start + plen].to_vec();
                check(&fm, &oracle, &pattern);
                mutate(&mut rng, &mut pattern);
                check(&fm, &oracle, &pattern);
            }
        }
    }
}

#[test]
fn skewed_and_uniform_texts_of_a_few_thousand_bases() {
    let mut rng = StdRng::seed_from_u64(0xa11a);
    for alphabet in ALPHABETS {
        for len in [1000usize, 4097, 6400 - 1] {
            let raw = text(&mut rng, len, alphabet);
            let (fm, oracle) = build(&raw);
            for pattern in fixed_patterns(&raw) {
                check(&fm, &oracle, &pattern);
            }
            for _ in 0..400 {
                let plen = [1usize, 3, 8, 19, 40, 101][rng.gen_range(0..6usize)].min(len);
                let start = rng.gen_range(0..=len - plen);
                let mut pattern: Vec<u8> = raw[start..start + plen]
                    .iter()
                    .map(|&b| if b == b'N' { b'A' } else { b })
                    .collect();
                check(&fm, &oracle, &pattern);
                mutate(&mut rng, &mut pattern);
                check(&fm, &oracle, &pattern);
                // A pattern with no tie to the text at all.
                let random = text(&mut rng, plen, Alphabet::Uniform);
                check(&fm, &oracle, &random);
            }
        }
    }
}

#[test]
fn patterns_holding_n_lowercase_or_junk_abort_alike() {
    // Seeds cut from the text with one byte that is not `ACGT` — `N`, the
    // lower-case twin of the base, or any other byte — at the first, a
    // middle or the last position: no interval, from either index, and the
    // clean seed beside it still found.
    let mut rng = StdRng::seed_from_u64(0xbad_5eed);
    let raw = text(&mut rng, 2500, Alphabet::Uniform);
    let (fm, oracle) = build(&raw);
    for start in (0..raw.len() - 40).step_by(29) {
        for plen in [1usize, 2, 19, 40] {
            let clean = &raw[start..start + plen];
            check(&fm, &oracle, clean);
            assert!(fm.backward_search(clean).is_some(), "a text substring is found");
            for at in [0, plen / 2, plen - 1] {
                let junk = loop {
                    let b = rng.next_u32() as u8;
                    if !is_acgt(b) {
                        break b;
                    }
                };
                for bad in [b'N', clean[at].to_ascii_lowercase(), junk] {
                    let mut pattern = clean.to_vec();
                    pattern[at] = bad;
                    check(&fm, &oracle, &pattern);
                    assert_eq!(fm.backward_search(&pattern), None, "{bad:#x} at {at} of {plen}");
                }
            }
        }
    }
}

#[test]
fn read_seeds_are_searched_on_ranks_exactly_when_their_bytes_are_acgt() {
    // Reads cut from the text, some bytes replaced by `N`, lower case or
    // junk, loaded both ways round: a seed's ranks are offered exactly when
    // every byte under it is `ACGT`, and then search to the interval the
    // ASCII seed does.
    let mut rng = StdRng::seed_from_u64(0x05ee_d1ab);
    let raw = text(&mut rng, 3000, Alphabet::Uniform);
    let fm = FmIndex::build_from_text(&raw, vec![0], vec![raw.len() as u64]);
    let mut read = OrientedRead::default();
    for round in 0..60 {
        let len = [1usize, 19, 63, 64, 65, 150][round % 6];
        let start = rng.gen_range(0..=raw.len() - len);
        let mut seq = raw[start..start + len].to_vec();
        for _ in 0..round % 4 {
            let at = rng.gen_range(0..len);
            let junk = rng.next_u32() as u8;
            seq[at] = [b'N', seq[at].to_ascii_lowercase(), junk][rng.gen_range(0..3usize)];
        }
        for reverse in [false, true] {
            read.load(&seq, reverse);
            for seed_len in [1usize, 7, 19] {
                for off in 0..=len.saturating_sub(seed_len) {
                    let ascii = &read.seq()[off..(off + seed_len).min(len)];
                    let clean = ascii.len() == seed_len && ascii.iter().all(|&b| is_acgt(b));
                    let seed = read.seed(off, seed_len);
                    assert_eq!(seed.is_some(), clean, "seed {off}+{seed_len} of {ascii:?}");
                    if let Some(ranks) = seed {
                        assert_eq!(fm.backward_search_ranks(ranks), fm.backward_search(ascii));
                    }
                }
            }
        }
    }
}

#[test]
fn multi_contig_hits_resolve_alike() {
    let mut rng = StdRng::seed_from_u64(0xc0_471);
    let lengths = [700u64, 64, 1, 1300];
    let mut offsets = Vec::new();
    let mut raw = Vec::new();
    for &len in &lengths {
        offsets.push(raw.len() as u64);
        raw.extend(text(&mut rng, len as usize, Alphabet::AHeavy));
    }
    let fm = FmIndex::build_from_text(&raw, offsets.clone(), lengths.to_vec());
    let oracle = OracleFmIndex::build_from_text(&raw, offsets.clone(), lengths.to_vec());
    assert_eq!(fm.num_contigs(), lengths.len());
    // Patterns from inside each contig and across each boundary.
    let mut starts: Vec<usize> = (0..raw.len() - 20).step_by(17).collect();
    starts.extend(offsets.iter().skip(1).map(|&o| o as usize - 5));
    for start in starts {
        for plen in [4usize, 11, 20] {
            let pattern = &raw[start..start + plen];
            check(&fm, &oracle, pattern);
            for hit in fm.find(pattern, usize::MAX) {
                assert_eq!(
                    fm.resolve(hit, plen),
                    oracle.resolve(hit, plen),
                    "hit {hit} len {plen}"
                );
            }
        }
    }
}
