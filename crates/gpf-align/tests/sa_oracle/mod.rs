//! The prefix-doubling suffix array, kept verbatim as the executable oracle,
//! and the naive suffix sort beside it.
//!
//! This is `gpf_align::suffix` as it stood before induced sorting: an
//! O(n log² n) sort that re-ranks suffixes by their first `2k` characters
//! until every rank is unique. It lives under `tests/` only: the library
//! carries one construction, `sa_differential.rs` pins that one to this,
//! and `fm_oracle/` builds its index from this one, so `fm_differential.rs`
//! compares two independent constructions.

/// Build the suffix array of `text` (no sentinel required; the empty suffix
/// is not included — ranks cover suffixes starting at `0..text.len()`).
///
/// Ties are resolved as if the text ended with a unique smallest sentinel.
pub fn suffix_array_doubling(text: &[u8]) -> Vec<u32> {
    let n = text.len();
    if n == 0 {
        return Vec::new();
    }
    // rank[i] = rank of suffix i by its first k characters.
    let mut rank: Vec<i64> = text.iter().map(|&b| b as i64).collect();
    let mut sa: Vec<u32> = (0..n as u32).collect();
    let mut tmp: Vec<i64> = vec![0; n];
    let mut k = 1usize;
    loop {
        // Sort by (rank[i], rank[i+k]) with -1 beyond the end (sentinel).
        let key = |i: u32| {
            let i = i as usize;
            let second = if i + k < n { rank[i + k] } else { -1 };
            (rank[i], second)
        };
        sa.sort_unstable_by_key(|&i| key(i));
        // Re-rank.
        tmp[sa[0] as usize] = 0;
        for w in 1..n {
            let prev = sa[w - 1];
            let cur = sa[w];
            tmp[cur as usize] =
                tmp[prev as usize] + if key(prev) == key(cur) { 0 } else { 1 };
        }
        rank.copy_from_slice(&tmp);
        if rank[sa[n - 1] as usize] == (n - 1) as i64 {
            break;
        }
        k *= 2;
    }
    sa
}

/// Naive O(n² log n) suffix array for testing.
#[allow(dead_code)]
pub fn suffix_array_naive(text: &[u8]) -> Vec<u32> {
    let mut sa: Vec<u32> = (0..text.len() as u32).collect();
    sa.sort_by(|&a, &b| text[a as usize..].cmp(&text[b as usize..]));
    sa
}
