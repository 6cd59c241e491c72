//! Suffix-array construction by induced sorting: SA-IS (Nong, Zhang & Chan,
//! "Linear suffix array construction by almost pure induced-sorting",
//! 2009), the family bwa's `is.c` builds its index with.
//!
//! A suffix is *S-type* when it is smaller than the suffix one position to
//! its right and *L-type* when it is larger. The implicit sentinel after the
//! last letter is the smallest suffix, so the last letter's suffix is L. An
//! S-suffix whose left neighbour is L is *LMS* (leftmost S). With the LMS
//! suffixes at the tails of their first letter's buckets, two sweeps sort
//! everything else: left to right, each placed suffix `j` puts `j - 1` at
//! the head of its bucket when that is L; right to left, at the tail when
//! it is S. That order is right once the LMS suffixes were placed in their
//! own sorted order. So SA-IS runs the sweeps twice:
//!
//! 1. From the LMS suffixes in text order. This sorts the LMS *substrings*
//!    (each LMS position up to the next one, both included). Naming each by
//!    its rank among the distinct ones gives a reduced text of at most n/2
//!    names whose suffix array is the order of the LMS suffixes. When the
//!    names are unique it is read off directly; otherwise SA-IS recurses
//!    on the reduced text.
//! 2. From the LMS suffixes in that order, which yields the suffix array.
//!
//! Each step is linear and the problem at least halves per level: O(n) in
//! all, where the prefix doubling it replaced (kept as the test oracle in
//! `tests/sa_oracle/`) was O(n log² n) and slowest on the runs and periodic
//! stretches genomes are full of.
//!
//! The output is *the* suffix array, whatever the algorithm: a text's
//! suffixes are distinct strings, so exactly one permutation lists them in
//! increasing order. A suffix that is a prefix of another sorts first, as
//! if the text ended with a unique smallest sentinel.
//!
//! Memory: the output (4 bytes per letter) is also the working array. The
//! reduced text and its suffix array share it, at its two ends, while the
//! recursion runs. Beside it live one type bit per letter per level and one
//! level's buckets at a time: 2 KiB at the top level, 8 bytes per name
//! below it. On a 126,000-base simulated genome the peak is 4.9 bytes per
//! base (at the second reduced level, 10,956 names); the bound, were all of
//! n/2 first-level LMS substrings distinct, is ~8.3. Prefix doubling held
//! 20: two `i64` rank arrays beside the array.

/// An unfilled slot of a suffix array under construction. It is also why a
/// text must be shorter than `u32::MAX`.
const EMPTY: u32 = u32::MAX;

/// Build the suffix array of `text` (no sentinel required; the empty suffix
/// is not included — ranks cover suffixes starting at `0..text.len()`).
///
/// Ties are resolved as if the text ended with a unique smallest sentinel.
///
/// # Panics
/// Panics when `text` holds `u32::MAX` bytes or more: suffix positions are
/// `u32`.
pub fn suffix_array(text: &[u8]) -> Vec<u32> {
    assert_addressable(text.len());
    let mut sa = vec![0; text.len()];
    sais(text, &mut sa, 256);
    sa
}

/// Fail, saying why, when a text of `len` letters has positions that do not
/// fit a `u32` below [`EMPTY`].
fn assert_addressable(len: usize) {
    assert!(
        len < EMPTY as usize,
        "cannot build the suffix array of a {len}-byte text: positions are 32-bit, so a text \
         must be shorter than {EMPTY} bytes"
    );
}

/// A letter of a text being sorted: a byte at the top level, the name of an
/// LMS substring below it.
trait Letter: Copy + Ord {
    fn index(self) -> usize;
}

impl Letter for u8 {
    #[inline]
    fn index(self) -> usize {
        usize::from(self)
    }
}

impl Letter for u32 {
    #[inline]
    fn index(self) -> usize {
        self as usize
    }
}

/// Sort the suffixes of `text`, whose letters are below `alphabet`, into
/// `sa` (as long as `text`; its contents on entry do not matter).
fn sais<L: Letter>(text: &[L], sa: &mut [u32], alphabet: usize) {
    let n = text.len();
    if n == 0 {
        return;
    }
    let types = Types::classify(text);
    let mut buckets = Buckets::new(text, alphabet);

    // Round 1: the LMS suffixes in text order, which sorts LMS substrings.
    sa.fill(EMPTY);
    buckets.tails();
    for i in types.lms_positions() {
        buckets.push_back(sa, text[i].index(), i);
    }
    induce(text, sa, &types, &mut buckets);
    // Rebuilt after the recursion: one level's buckets live at a time.
    drop(buckets);

    // The sorted LMS positions to the front; each one's name (its
    // substring's rank among the distinct ones) parked at `n1 + p / 2`,
    // which is free because LMS positions are at least two apart; then the
    // names, in text order, to the back: the reduced text.
    let mut n1 = 0;
    for k in 0..n {
        // Round 1 filled every slot. Each is written whether or not it is
        // kept (no branch to mispredict): `n1 <= k`, a slot already read.
        let p = sa[k];
        sa[n1] = p;
        n1 += usize::from(types.is_lms(p as usize));
    }
    sa[n1..].fill(EMPTY);
    let mut names = 0usize;
    for k in 0..n1 {
        let p = sa[k] as usize;
        if k == 0 || !lms_substrings_equal(text, &types, sa[k - 1] as usize, p) {
            names += 1;
        }
        sa[n1 + p / 2] = (names - 1) as u32;
    }
    let mut back = n;
    for k in (n1..n).rev() {
        // Unconditional again: `back - 1 >= k`, a slot already read.
        let name = sa[k];
        sa[back - 1] = name;
        back -= usize::from(name != EMPTY);
    }

    // The reduced text's suffix array into the front: read off directly
    // when every name is unique, else sorted by recursion.
    let (front, reduced) = sa.split_at_mut(n - n1);
    let reduced_sa = &mut front[..n1];
    if names < n1 {
        sais(&*reduced, reduced_sa, names);
    } else {
        for (i, &name) in reduced.iter().enumerate() {
            reduced_sa[name as usize] = i as u32;
        }
    }

    // Round 2: the LMS suffixes in sorted order. The back now lists the LMS
    // positions in text order, which turns reduced positions into text ones.
    for (slot, p) in reduced.iter_mut().zip(types.lms_positions()) {
        *slot = p as u32;
    }
    for k in 0..n1 {
        sa[k] = sa[n - n1 + sa[k] as usize];
    }
    sa[n1..].fill(EMPTY);
    let mut buckets = Buckets::new(text, alphabet);
    buckets.tails();
    // Largest first, so each bucket's LMS suffixes end up in order. Slot `k`
    // is emptied first: the largest may belong exactly there.
    for k in (0..n1).rev() {
        let p = std::mem::replace(&mut sa[k], EMPTY) as usize;
        buckets.push_back(sa, text[p].index(), p);
    }
    induce(text, sa, &types, &mut buckets);
}

/// The two sweeps, over `sa` holding LMS suffixes at their buckets' tails:
/// L-type suffixes left to right into bucket heads, then S-type suffixes
/// right to left into bucket tails.
fn induce<L: Letter>(text: &[L], sa: &mut [u32], types: &Types, buckets: &mut Buckets) {
    let n = text.len();
    buckets.heads();
    // The sentinel's suffix sorts before every slot, and its left neighbour,
    // the last letter's suffix, is L.
    buckets.push_front(sa, text[n - 1].index(), n - 1);
    for k in 0..n {
        let j = sa[k];
        if j != EMPTY && j != 0 && !types.is_s(j as usize - 1) {
            let p = j as usize - 1;
            buckets.push_front(sa, text[p].index(), p);
        }
    }
    buckets.tails();
    for k in (0..n).rev() {
        let j = sa[k];
        if j != EMPTY && j != 0 && types.is_s(j as usize - 1) {
            let p = j as usize - 1;
            buckets.push_back(sa, text[p].index(), p);
        }
    }
}

/// Whether the LMS substrings at `a` and `b` (each up to the next LMS
/// position, included) agree in letters and types. The one that runs into
/// the sentinel equals no other.
fn lms_substrings_equal<L: Letter>(text: &[L], types: &Types, a: usize, b: usize) -> bool {
    let n = text.len();
    let mut d = 0;
    loop {
        let (x, y) = (a + d, b + d);
        if x == n || y == n || text[x] != text[y] || types.is_s(x) != types.is_s(y) {
            return false;
        }
        // Types agree here and one letter back, so `y` is LMS exactly when
        // `x` is.
        if d > 0 && types.is_lms(x) {
            return true;
        }
        d += 1;
    }
}

/// One bit per position, set where the suffix is S-type.
struct Types(Vec<u64>);

impl Types {
    fn classify<L: Letter>(text: &[L]) -> Self {
        let n = text.len();
        let mut bits = vec![0u64; n.div_ceil(64)];
        // The last suffix is L (the sentinel after it is smaller); each one
        // before it is S when its letter is smaller than the next, or equal
        // to it and the next suffix is S. Computed without a branch (the
        // letters are about random), a word at a time in a register.
        let (mut s, mut word) = (false, 0u64);
        for i in (0..n.saturating_sub(1)).rev() {
            s = (text[i] < text[i + 1]) | ((text[i] == text[i + 1]) & s);
            word |= u64::from(s) << (i % 64);
            if i % 64 == 0 {
                bits[i / 64] = word;
                word = 0;
            }
        }
        Self(bits)
    }

    #[inline]
    fn is_s(&self, i: usize) -> bool {
        self.0[i / 64] >> (i % 64) & 1 == 1
    }

    /// The suffix at `i` is S-type and the one at `i - 1` L-type.
    #[inline]
    fn is_lms(&self, i: usize) -> bool {
        i > 0 && self.is_s(i) && !self.is_s(i - 1)
    }

    /// Every LMS position, in text order, a word of types at a time.
    fn lms_positions(&self) -> impl Iterator<Item = usize> + '_ {
        // Each bit's left neighbour: the bit below it, or the top bit of the
        // word before. Position 0 has none and is never LMS, as if an S-type
        // suffix sat left of it.
        let carries = std::iter::once(1).chain(self.0.iter().map(|&word| word >> 63));
        self.0.iter().zip(carries).enumerate().flat_map(|(w, (&word, carry))| {
            let mut lms = word & !(word << 1 | carry);
            std::iter::from_fn(move || {
                let bit = lms.trailing_zeros() as usize;
                lms &= lms.wrapping_sub(1);
                (bit < 64).then_some(w * 64 + bit)
            })
        })
    }
}

/// The bucket of each letter — the slots of the suffixes it starts — with a
/// cursor at one end.
struct Buckets {
    /// How many suffixes start with each letter.
    sizes: Vec<u32>,
    /// Per letter, the next free slot at the head, or one past the next free
    /// slot at the tail.
    cursor: Vec<u32>,
}

impl Buckets {
    fn new<L: Letter>(text: &[L], alphabet: usize) -> Self {
        let mut sizes = vec![0u32; alphabet];
        for &c in text {
            sizes[c.index()] += 1;
        }
        Self { cursor: vec![0; alphabet], sizes }
    }

    /// Every cursor at its bucket's first slot.
    fn heads(&mut self) {
        let mut start = 0;
        for (cursor, &size) in self.cursor.iter_mut().zip(&self.sizes) {
            *cursor = start;
            start += size;
        }
    }

    /// Every cursor one past its bucket's last slot.
    fn tails(&mut self) {
        let mut end = 0;
        for (cursor, &size) in self.cursor.iter_mut().zip(&self.sizes) {
            end += size;
            *cursor = end;
        }
    }

    #[inline]
    fn push_front(&mut self, sa: &mut [u32], letter: usize, pos: usize) {
        let cursor = &mut self.cursor[letter];
        sa[*cursor as usize] = pos as u32;
        *cursor += 1;
    }

    #[inline]
    fn push_back(&mut self, sa: &mut [u32], letter: usize, pos: usize) {
        let cursor = &mut self.cursor[letter];
        *cursor -= 1;
        sa[*cursor as usize] = pos as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every suffix sorted by comparison (the oracles proper, doubling
    /// included, are in `tests/sa_oracle/`).
    fn suffix_array_naive(text: &[u8]) -> Vec<u32> {
        let mut sa: Vec<u32> = (0..text.len() as u32).collect();
        sa.sort_by(|&a, &b| text[a as usize..].cmp(&text[b as usize..]));
        sa
    }

    #[test]
    fn banana() {
        // Sorted suffixes of "banana":
        // a(5) < ana(3) < anana(1) < banana(0) < na(4) < nana(2).
        assert_eq!(suffix_array(b"banana"), vec![5, 3, 1, 0, 4, 2]);
    }

    #[test]
    fn empty_and_single() {
        assert!(suffix_array(b"").is_empty());
        assert_eq!(suffix_array(b"A"), vec![0]);
    }

    #[test]
    #[should_panic(expected = "positions are 32-bit")]
    fn a_text_of_u32_max_bytes_is_refused() {
        assert_addressable(u32::MAX as usize - 1);
        assert_addressable(u32::MAX as usize);
    }

    #[test]
    fn all_same_character() {
        // "AAAA": shortest suffix sorts first.
        assert_eq!(suffix_array(b"AAAA"), vec![3, 2, 1, 0]);
    }

    #[test]
    fn matches_naive_on_genomic_strings() {
        let texts: [&[u8]; 4] = [
            b"ACGTACGTACGT",
            b"GGGGCCCCAAAATTTT",
            b"ACACACACACACACACAC",
            b"TGCATGCATGCAATCGGCTA",
        ];
        for t in texts {
            assert_eq!(suffix_array(t), suffix_array_naive(t), "text {:?}", std::str::from_utf8(t));
        }
    }

    #[test]
    fn matches_naive_on_pseudorandom() {
        // Deterministic pseudo-random genomic text.
        let mut state = 0x1234_5678u64;
        let text: Vec<u8> = (0..500)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                b"ACGT"[(state >> 33) as usize % 4]
            })
            .collect();
        assert_eq!(suffix_array(&text), suffix_array_naive(&text));
    }

    #[test]
    fn is_a_permutation() {
        let text = b"CTAGCTAGCATCGATCGTAGCTAGCTGATCGATC";
        let sa = suffix_array(text);
        let mut seen = vec![false; text.len()];
        for &i in &sa {
            assert!(!seen[i as usize]);
            seen[i as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn suffixes_are_sorted() {
        let text = b"GATTACAGATTACAGGGATTACA";
        let sa = suffix_array(text);
        for w in sa.windows(2) {
            assert!(text[w[0] as usize..] < text[w[1] as usize..]);
        }
    }
}
