//! Canonical Huffman coding over a small integer alphabet.
//!
//! Used by the quality codec (Figure 6 of the paper): quality-score delta
//! sequences are Huffman-coded with an explicit `EOF` symbol terminating each
//! record's stream. The codec is *canonical* so a table can be shipped as a
//! bare list of code lengths.

use crate::bitio::{BitReader, BitWriter};
use crate::error::CodecError;

/// Maximum code length we allow; with alphabets ≤ 512 and non-pathological
/// frequency tables this is never hit, and it bounds decoder state.
const MAX_CODE_LEN: u8 = 32;

/// Index width of the one-shot decode table: codes of length ≤ 12 bits
/// (every symbol that actually occurs in quality-delta streams) decode in a
/// single table load. 2^12 × 4 bytes = 16 KiB per codec — L1/L2-resident.
const PRIMARY_BITS: u8 = 12;

/// Primary-table entry marking a prefix whose full code is longer than
/// [`PRIMARY_BITS`]; the decoder falls back to the canonical walk.
const LONG_CODE: u32 = u32::MAX;

/// A canonical Huffman codec over symbols `0..alphabet_size`.
#[derive(Debug, Clone)]
pub struct HuffmanCodec {
    /// Code length per symbol (0 = symbol never occurs).
    lengths: Vec<u8>,
    /// Canonical code per symbol.
    codes: Vec<u32>,
    /// Decoding table: symbols sorted by (length, symbol), with per-length
    /// first-code offsets.
    sorted_symbols: Vec<u32>,
    first_code: [u32; MAX_CODE_LEN as usize + 1],
    first_index: [u32; MAX_CODE_LEN as usize + 1],
    /// One-shot decode table indexed by the next [`PRIMARY_BITS`] stream
    /// bits: `symbol << 8 | len` for codes of length ≤ `PRIMARY_BITS`,
    /// [`LONG_CODE`] for longer-code prefixes, 0 for invalid prefixes.
    primary: Vec<u32>,
}

impl HuffmanCodec {
    /// Build a codec from symbol frequencies. Zero-frequency symbols get no
    /// code. At least one symbol must have nonzero frequency.
    ///
    /// # Panics
    /// Panics if all frequencies are zero.
    pub fn from_frequencies(freqs: &[u64]) -> Self {
        assert!(freqs.iter().any(|&f| f > 0), "all Huffman frequencies are zero");
        let lengths = code_lengths(freqs);
        Self::from_lengths(lengths)
    }

    /// Build a codec from known canonical code lengths (table exchange form).
    pub fn from_lengths(lengths: Vec<u8>) -> Self {
        // Count codes per length.
        let mut count = [0u32; MAX_CODE_LEN as usize + 1];
        for &l in &lengths {
            assert!(l <= MAX_CODE_LEN, "code length {l} exceeds cap");
            if l > 0 {
                count[l as usize] += 1;
            }
        }
        // Canonical first code per length.
        let mut first_code = [0u32; MAX_CODE_LEN as usize + 1];
        let mut code = 0u32;
        for len in 1..=MAX_CODE_LEN as usize {
            code = (code + count[len - 1]) << 1;
            first_code[len] = code;
        }
        // Assign codes in (length, symbol) order.
        let mut sorted: Vec<u32> = (0..lengths.len() as u32).filter(|&s| lengths[s as usize] > 0).collect();
        sorted.sort_by_key(|&s| (lengths[s as usize], s));
        let mut codes = vec![0u32; lengths.len()];
        let mut next = first_code;
        for &s in &sorted {
            let l = lengths[s as usize] as usize;
            codes[s as usize] = next[l];
            next[l] += 1;
        }
        // Index of the first symbol of each length within `sorted`.
        let mut first_index = [0u32; MAX_CODE_LEN as usize + 1];
        let mut idx = 0u32;
        for len in 1..=MAX_CODE_LEN as usize {
            first_index[len] = idx;
            idx += count[len];
        }
        // One-shot decode table: every PRIMARY_BITS-wide window that starts
        // with symbol `s`'s code maps straight to (s, len). Prefix-freeness
        // guarantees short codes and long-code escape markers never collide.
        assert!(
            lengths.len() < (1usize << 24),
            "alphabet too large for packed primary-table entries"
        );
        let mut primary = vec![0u32; 1usize << PRIMARY_BITS];
        for &s in &sorted {
            let l = lengths[s as usize];
            if l <= PRIMARY_BITS {
                let pad = PRIMARY_BITS - l;
                let base = (codes[s as usize] as usize) << pad;
                let entry = (s << 8) | l as u32;
                for slot in &mut primary[base..base + (1usize << pad)] {
                    *slot = entry;
                }
            } else {
                let prefix = (codes[s as usize] >> (l - PRIMARY_BITS)) as usize;
                primary[prefix] = LONG_CODE;
            }
        }
        Self { lengths, codes, sorted_symbols: sorted, first_code, first_index, primary }
    }

    /// Number of symbols in the alphabet.
    pub fn alphabet_size(&self) -> usize {
        self.lengths.len()
    }

    /// Code length of `symbol` in bits (0 when the symbol has no code).
    pub fn code_len(&self, symbol: u32) -> u8 {
        self.lengths[symbol as usize]
    }

    /// The code-length table, for embedding in a stream.
    pub fn lengths(&self) -> &[u8] {
        &self.lengths
    }

    /// The canonical `(code, length)` pair for `symbol`, or `None` when the
    /// symbol has no code. For bit sinks other than [`BitWriter`], which
    /// cannot go through [`HuffmanCodec::encode`].
    pub fn code(&self, symbol: u32) -> Option<(u32, u8)> {
        let l = *self.lengths.get(symbol as usize)?;
        if l == 0 {
            return None;
        }
        Some((self.codes[symbol as usize], l))
    }

    /// Encode one symbol.
    pub fn encode(&self, symbol: u32, w: &mut BitWriter) -> Result<(), CodecError> {
        let l = *self
            .lengths
            .get(symbol as usize)
            .ok_or(CodecError::SymbolOutOfRange { symbol: symbol as i32 })?;
        if l == 0 {
            return Err(CodecError::SymbolOutOfRange { symbol: symbol as i32 });
        }
        w.write_bits(self.codes[symbol as usize], l);
        Ok(())
    }

    /// Decode one symbol: a single primary-table load for codes of length
    /// ≤ `PRIMARY_BITS` (the overwhelmingly common case), with the
    /// canonical walk as the chained fallback for longer codes — and for
    /// truncated/invalid streams, so error behavior is bit-for-bit the same
    /// as the walk-only decoder.
    #[inline]
    pub fn decode(&self, r: &mut BitReader<'_>) -> Result<u32, CodecError> {
        let (window, avail) = r.peek_bits(PRIMARY_BITS);
        let entry = self.primary[window as usize];
        if entry != 0 && entry != LONG_CODE {
            let len = entry & 0xFF;
            if len <= avail {
                r.consume(len);
                return Ok(entry >> 8);
            }
            // The zero-padded peek matched a code longer than what actually
            // remains; fall through so the walk reports EOF exactly where
            // a walk-only decoder would.
        }
        self.decode_canonical(r)
    }

    /// Decode one symbol by walking the canonical per-length tables one bit
    /// at a time: the slow path of [`HuffmanCodec::decode`] for codes longer
    /// than `PRIMARY_BITS` and for stream-end/error handling.
    pub fn decode_canonical(&self, r: &mut BitReader<'_>) -> Result<u32, CodecError> {
        self.decode_with(&mut || r.read_bit())
    }

    /// Canonical-walk decode over an arbitrary bit source (one call per
    /// bit), for bit sources other than [`BitReader`].
    pub fn decode_with<F>(&self, next_bit: &mut F) -> Result<u32, CodecError>
    where
        F: FnMut() -> Result<bool, CodecError>,
    {
        let mut code = 0u32;
        for len in 1..=MAX_CODE_LEN as usize {
            code = (code << 1) | next_bit()? as u32;
            let first = self.first_code[len];
            // Number of codes of this length:
            let n_at_len = if len < MAX_CODE_LEN as usize {
                self.first_index[len + 1] - self.first_index[len]
            } else {
                self.sorted_symbols.len() as u32 - self.first_index[len]
            };
            if n_at_len > 0 && code >= first && code < first + n_at_len {
                let idx = self.first_index[len] + (code - first);
                return Ok(self.sorted_symbols[idx as usize]);
            }
        }
        Err(CodecError::BadHuffmanCode)
    }

    /// Expected bits per symbol under the given frequency distribution.
    pub fn expected_bits(&self, freqs: &[u64]) -> f64 {
        let total: u64 = freqs.iter().sum();
        if total == 0 {
            return 0.0;
        }
        freqs
            .iter()
            .enumerate()
            .map(|(s, &f)| f as f64 * self.lengths[s] as f64)
            .sum::<f64>()
            / total as f64
    }
}

/// Compute Huffman code lengths from frequencies using the classic two-queue
/// O(n log n) construction over a sorted leaf list.
fn code_lengths(freqs: &[u64]) -> Vec<u8> {
    #[derive(Debug)]
    struct Node {
        weight: u64,
        kind: NodeKind,
    }
    #[derive(Debug)]
    enum NodeKind {
        Leaf(u32),
        Internal(usize, usize),
    }

    let mut nodes: Vec<Node> = Vec::new();
    let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<(u64, usize)>> =
        std::collections::BinaryHeap::new();
    for (s, &f) in freqs.iter().enumerate() {
        if f > 0 {
            nodes.push(Node { weight: f, kind: NodeKind::Leaf(s as u32) });
            heap.push(std::cmp::Reverse((f, nodes.len() - 1)));
        }
    }
    let mut lengths = vec![0u8; freqs.len()];
    if heap.len() == 1 {
        // Single-symbol alphabet still needs a 1-bit code.
        if let Some(std::cmp::Reverse((_, i))) = heap.pop() {
            if let NodeKind::Leaf(s) = nodes[i].kind {
                lengths[s as usize] = 1;
            }
        }
        return lengths;
    }
    while heap.len() > 1 {
        let (Some(std::cmp::Reverse((wa, a))), Some(std::cmp::Reverse((wb, b)))) =
            (heap.pop(), heap.pop())
        else {
            break;
        };
        nodes.push(Node { weight: wa + wb, kind: NodeKind::Internal(a, b) });
        heap.push(std::cmp::Reverse((wa + wb, nodes.len() - 1)));
    }
    // Depth-first walk assigning depths.
    let Some(std::cmp::Reverse((_, root))) = heap.pop() else {
        return lengths; // Empty alphabet: nothing to encode.
    };
    let mut stack = vec![(root, 0u8)];
    while let Some((i, depth)) = stack.pop() {
        match nodes[i].kind {
            NodeKind::Leaf(s) => lengths[s as usize] = depth.max(1),
            NodeKind::Internal(a, b) => {
                stack.push((a, depth + 1));
                stack.push((b, depth + 1));
            }
        }
    }
    let _ = nodes.last().map(|n| n.weight); // weights only needed during build
    lengths
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(freqs: &[u64], symbols: &[u32]) {
        let codec = HuffmanCodec::from_frequencies(freqs);
        let mut w = BitWriter::new();
        for &s in symbols {
            codec.encode(s, &mut w).unwrap();
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &s in symbols {
            assert_eq!(codec.decode(&mut r).unwrap(), s);
        }
    }

    #[test]
    fn simple_round_trip() {
        round_trip(&[10, 5, 2, 1], &[0, 1, 2, 3, 0, 0, 1, 2, 3, 3, 3]);
    }

    #[test]
    fn skewed_distribution_gets_short_codes() {
        let freqs = [1000, 10, 10, 10];
        let codec = HuffmanCodec::from_frequencies(&freqs);
        assert!(codec.code_len(0) < codec.code_len(3));
        assert_eq!(codec.code_len(0), 1);
    }

    #[test]
    fn uniform_distribution_is_balanced() {
        let freqs = [5u64; 8];
        let codec = HuffmanCodec::from_frequencies(&freqs);
        for s in 0..8 {
            assert_eq!(codec.code_len(s), 3);
        }
    }

    #[test]
    fn single_symbol_alphabet() {
        let freqs = [0u64, 42, 0];
        let codec = HuffmanCodec::from_frequencies(&freqs);
        assert_eq!(codec.code_len(1), 1);
        round_trip(&freqs, &[1, 1, 1]);
    }

    #[test]
    fn zero_frequency_symbol_rejected_at_encode() {
        let codec = HuffmanCodec::from_frequencies(&[10, 0, 5]);
        let mut w = BitWriter::new();
        assert!(matches!(
            codec.encode(1, &mut w),
            Err(CodecError::SymbolOutOfRange { symbol: 1 })
        ));
    }

    #[test]
    fn out_of_alphabet_symbol_rejected() {
        let codec = HuffmanCodec::from_frequencies(&[10, 5]);
        let mut w = BitWriter::new();
        assert!(codec.encode(99, &mut w).is_err());
    }

    #[test]
    fn lengths_table_round_trip() {
        let freqs = [100, 50, 20, 5, 5, 1];
        let a = HuffmanCodec::from_frequencies(&freqs);
        let b = HuffmanCodec::from_lengths(a.lengths().to_vec());
        let mut w = BitWriter::new();
        for s in [0u32, 5, 3, 2, 1, 0] {
            a.encode(s, &mut w).unwrap();
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for s in [0u32, 5, 3, 2, 1, 0] {
            assert_eq!(b.decode(&mut r).unwrap(), s);
        }
    }

    #[test]
    fn kraft_inequality_holds() {
        let freqs: Vec<u64> = (1..=50).map(|i| i * i).collect();
        let codec = HuffmanCodec::from_frequencies(&freqs);
        let kraft: f64 = (0..50).map(|s| 2f64.powi(-(codec.code_len(s) as i32))).sum();
        assert!(kraft <= 1.0 + 1e-9, "kraft = {kraft}");
    }

    #[test]
    fn expected_bits_close_to_entropy() {
        // Strongly-peaked distribution like quality deltas.
        let freqs = [1u64, 5, 60, 500, 6000, 500, 60, 5, 1];
        let codec = HuffmanCodec::from_frequencies(&freqs);
        let total: u64 = freqs.iter().sum();
        let entropy: f64 = freqs
            .iter()
            .filter(|&&f| f > 0)
            .map(|&f| {
                let p = f as f64 / total as f64;
                -p * p.log2()
            })
            .sum();
        let eb = codec.expected_bits(&freqs);
        assert!(eb >= entropy - 1e-9);
        assert!(eb <= entropy + 1.0, "within 1 bit of entropy: {eb} vs {entropy}");
    }

    /// Fibonacci-like weights force a maximally unbalanced tree, so some
    /// codes exceed PRIMARY_BITS and must take the chained fallback.
    fn long_code_freqs(n: usize) -> Vec<u64> {
        let mut freqs = vec![0u64; n];
        let (mut a, mut b) = (1u64, 1u64);
        for f in freqs.iter_mut() {
            *f = a;
            let next = a.saturating_add(b);
            a = b;
            b = next;
        }
        freqs
    }

    #[test]
    fn long_codes_take_fallback_and_round_trip() {
        let freqs = long_code_freqs(24);
        let codec = HuffmanCodec::from_frequencies(&freqs);
        let max_len = (0..24).map(|s| codec.code_len(s)).max().unwrap();
        assert!(max_len > PRIMARY_BITS, "workload must exercise the fallback, got {max_len}");
        let symbols: Vec<u32> = (0..24u32).chain((0..24).rev()).collect();
        round_trip(&freqs, &symbols);
    }

    #[test]
    fn table_decode_equals_canonical_walk() {
        let freqs = long_code_freqs(20);
        let codec = HuffmanCodec::from_frequencies(&freqs);
        let symbols: Vec<u32> = (0..20u32).cycle().take(100).collect();
        let mut w = BitWriter::new();
        for &s in &symbols {
            codec.encode(s, &mut w).unwrap();
        }
        let bytes = w.into_bytes();
        let mut fast = BitReader::new(&bytes);
        let mut walk = BitReader::new(&bytes);
        for &s in &symbols {
            assert_eq!(codec.decode(&mut fast).unwrap(), s);
            assert_eq!(codec.decode_canonical(&mut walk).unwrap(), s);
        }
        assert_eq!(fast.bit_pos(), walk.bit_pos());
    }

    #[test]
    fn garbage_bits_decode_to_error_or_symbol() {
        // A depleted reader must yield UnexpectedEof, never panic.
        let codec = HuffmanCodec::from_frequencies(&[3, 3, 3, 3]);
        let bytes = [0xFFu8];
        let mut r = BitReader::new(&bytes);
        let mut decoded = 0;
        loop {
            match codec.decode(&mut r) {
                Ok(_) => decoded += 1,
                Err(CodecError::UnexpectedEof) => break,
                Err(e) => panic!("unexpected error {e}"),
            }
            assert!(decoded < 16);
        }
    }
}
