//! Differential battery: the library's suffix array against the
//! prefix-doubling oracle in `sa_oracle/` and, where a quadratic sort is
//! affordable, the naive one. A text has exactly one suffix array, so every
//! construction must return the same permutation, and that permutation must
//! put the suffixes in strictly increasing order.
//!
//! The texts are the ones induced sorting can get wrong and prefix doubling
//! is slow on: the shortest texts and lengths around a 64-bit word, one- and
//! two-letter alphabets (every position the same type, or types
//! alternating), all 256 byte values, periodic texts (few LMS names, so the
//! reduced problem recurses), Fibonacci words (the deepest recursion of
//! all), a genome with a long `N` run (indexed as `A`) and a simulated
//! genome at the benchmark's scale.

#[rustfmt::skip]
mod sa_oracle;

use gpf_align::suffix::suffix_array;
use gpf_formats::base::rank4;
use gpf_support::rng::{Rng, SeedableRng, StdRng};
use gpf_workloads::refgen::ReferenceSpec;
use sa_oracle::{suffix_array_doubling, suffix_array_naive};

/// Texts up to this length are also checked against the naive sort.
const NAIVE_MAX: usize = 12_000;

/// The library's suffix array, checked against both oracles and on its
/// own terms.
fn check(text: &[u8], what: &str) {
    let sa = suffix_array(text);
    assert_eq!(sa.len(), text.len(), "{what}: length");
    let mut seen = vec![false; text.len()];
    for &i in &sa {
        let slot = seen.get_mut(i as usize).unwrap_or_else(|| panic!("{what}: {i} out of range"));
        assert!(!*slot, "{what}: suffix {i} appears twice");
        *slot = true;
    }
    for (rank, w) in sa.windows(2).enumerate() {
        assert!(
            text[w[0] as usize..] < text[w[1] as usize..],
            "{what}: suffixes {} and {} out of order at rank {rank}",
            w[0],
            w[1]
        );
    }
    assert!(sa == suffix_array_doubling(text), "{what}: differs from prefix doubling");
    if text.len() <= NAIVE_MAX {
        assert!(sa == suffix_array_naive(text), "{what}: differs from the naive sort");
    }
}

fn random_text(rng: &mut StdRng, len: usize, letters: &[u8]) -> Vec<u8> {
    (0..len).map(|_| letters[rng.gen_range(0..letters.len())]).collect()
}

/// All 256 byte values.
fn every_byte() -> Vec<u8> {
    (0..=255).collect()
}

/// The Fibonacci word of at least `len` letters over `a` and `b`, cut to
/// `len`: `w1 = b`, `w2 = a`, `wk = wk-1 · wk-2`.
fn fibonacci_word(len: usize, a: u8, b: u8) -> Vec<u8> {
    let (mut prev, mut cur) = (vec![b], vec![a]);
    while cur.len() < len {
        let next = [cur.as_slice(), prev.as_slice()].concat();
        prev = std::mem::replace(&mut cur, next);
    }
    cur.truncate(len);
    cur
}

/// Genome 6054's reference (`gpf-benchmark gen --seed 6054`: three contigs,
/// 126,000 bases) as the FM-index sees it, in 0..=3 ranks.
fn simulated_genome() -> Vec<u8> {
    let reference = ReferenceSpec {
        contig_lengths: vec![52_500, 42_000, 31_500],
        seed: 6054,
        ..Default::default()
    }
    .generate();
    reference.concatenated().0.iter().map(|&b| rank4(b)).collect()
}

#[test]
fn shortest_texts_and_lengths_around_a_word() {
    let mut rng = StdRng::seed_from_u64(0x005a_1e57);
    for len in [0usize, 1, 2, 3, 63, 64, 65] {
        for letters in [&b"A"[..], b"AC", b"ACGT", &[0, 1, 2, 3], &every_byte()] {
            for round in 0..8 {
                let text = random_text(&mut rng, len, letters);
                check(&text, &format!("random len {len} over {} letters #{round}", letters.len()));
            }
        }
    }
    // Every text of up to eight letters over two letters.
    for len in 0..=8usize {
        for bits in 0u32..1 << len {
            let text: Vec<u8> = (0..len).map(|i| b"AC"[(bits >> i & 1) as usize]).collect();
            check(&text, &format!("{:?}", String::from_utf8_lossy(&text)));
        }
    }
}

#[test]
fn random_texts_over_one_two_four_and_every_letter() {
    let mut rng = StdRng::seed_from_u64(0x00d1_ff5a);
    for len in [1000usize, 5000] {
        for letters in [&[0u8][..], &[0, 3], &[0, 1, 2, 3], b"ACGT", b"ACGTN", &every_byte()] {
            let text = random_text(&mut rng, len, letters);
            check(&text, &format!("random len {len} over {} letters", letters.len()));
        }
    }
}

#[test]
fn runs_of_one_base_and_periodic_texts() {
    for len in [1usize, 2, 3, 64, 1000, 5000] {
        for b in [0u8, 3, b'A', b'N', 255] {
            check(&vec![b; len], &format!("{b} x {len}"));
        }
    }
    for k in [1usize, 2, 16, 250, 1250] {
        check(&b"ACGT".repeat(k), &format!("(ACGT)^{k}"));
        check(&b"AC".repeat(k), &format!("(AC)^{k}"));
        check(&[0u8, 1, 2, 3].repeat(k), &format!("(0123)^{k}"));
        // The period broken once, near the end.
        let mut text = b"AC".repeat(k);
        text.push(b'A');
        check(&text, &format!("(AC)^{k}A"));
    }
}

#[test]
fn fibonacci_words() {
    for len in [1usize, 2, 3, 5, 8, 13, 64, 65, 1000, 4181, 6765, 10_946] {
        check(&fibonacci_word(len, b'A', b'C'), &format!("Fibonacci word of {len}"));
        check(&fibonacci_word(len, 1, 0), &format!("Fibonacci word of {len} in ranks"));
    }
}

#[test]
fn genome_with_a_long_n_run() {
    // A random genome with a 3,000-base `N` run in the middle and a short
    // one at each end, in ASCII and as the index sees it (`N` as `A`).
    let mut rng = StdRng::seed_from_u64(0x4e4e);
    let mut text = b"NNNN".to_vec();
    text.extend(random_text(&mut rng, 4000, b"ACGT"));
    text.extend(vec![b'N'; 3000]);
    text.extend(random_text(&mut rng, 4000, b"ACGT"));
    text.extend(b"NNN");
    check(&text, "genome with N runs, ASCII");
    let ranks: Vec<u8> = text.iter().map(|&b| rank4(b)).collect();
    check(&ranks, "genome with N runs, ranks");
}

#[test]
fn simulated_genome_at_the_benchmark_scale() {
    let genome = simulated_genome();
    assert_eq!(genome.len(), 126_000);
    check(&genome, "genome 6054");
    // The same genome with a 30,000-base `N` run (as `A`) written over its
    // middle: the sort's worst case before induced sorting.
    let mut with_run = genome;
    with_run[48_000..78_000].fill(0);
    check(&with_run, "genome 6054 with a 30 kb N run");
}
