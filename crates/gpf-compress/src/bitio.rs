//! Bit-level writer/reader over byte buffers.
//!
//! Bits are written MSB-first within each byte, which keeps the packed
//! 2-bit sequences readable in hex dumps in the same order as Figure 4's
//! `(00 00 10 01) ...` illustration.
//!
//! Both ends are **word-level**: a `u64` accumulator buffers up to 64
//! pending bits, and memory is touched once per 8-byte word instead of
//! once per bit (the seed implementation pushed a single bit per loop
//! iteration). The emitted byte stream is identical to that scalar
//! writer's, kept test-side in `tests/codec_oracle/` — property tests in
//! `tests/proptests.rs` hold the two equal on random streams.

use crate::error::CodecError;

/// Appends bits MSB-first to a `Vec<u8>` through a 64-bit accumulator.
#[derive(Debug, Default)]
pub struct BitWriter {
    buf: Vec<u8>,
    /// Pending bits, left-aligned: the first-written bit sits at bit 63.
    acc: u64,
    /// Number of valid bits in `acc` (`0..=63`; a full word is flushed
    /// immediately, so 64 is never observable between calls).
    nbits: u32,
}

impl BitWriter {
    /// Create an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Write the low `n` bits of `value` (MSB of the group first). `n ≤ 32`.
    #[inline]
    pub fn write_bits(&mut self, value: u32, n: u8) {
        debug_assert!(n <= 32);
        if n == 0 {
            return;
        }
        let n = n as u32;
        let v = (value as u64) & ((1u64 << n) - 1);
        let free = 64 - self.nbits;
        if n <= free {
            self.acc |= v << (free - n);
            self.nbits += n;
            if self.nbits == 64 {
                self.buf.extend_from_slice(&self.acc.to_be_bytes());
                self.acc = 0;
                self.nbits = 0;
            }
        } else {
            // Fill the accumulator, flush the word, start the next one with
            // the leftover low bits of `v`.
            let rem = n - free; // 1..=31
            self.acc |= v >> rem;
            self.buf.extend_from_slice(&self.acc.to_be_bytes());
            self.acc = v << (64 - rem);
            self.nbits = rem;
        }
    }

    /// Write a single bit.
    #[inline]
    pub fn write_bit(&mut self, bit: bool) {
        self.write_bits(bit as u32, 1);
    }

    /// Total bits written so far.
    pub fn bit_len(&self) -> usize {
        self.buf.len() * 8 + self.nbits as usize
    }

    /// Flush the partial accumulator (zero-padding the final byte) and
    /// return the full byte buffer. The writer is byte-aligned afterwards;
    /// call [`BitWriter::clear`] before reusing it for a fresh stream.
    pub fn finish(&mut self) -> &[u8] {
        if self.nbits > 0 {
            let nbytes = (self.nbits as usize).div_ceil(8);
            let bytes = self.acc.to_be_bytes();
            self.buf.extend_from_slice(&bytes[..nbytes]);
            self.acc = 0;
            self.nbits = 0;
        }
        &self.buf
    }

    /// Reset to an empty stream, keeping the allocated capacity (scratch
    /// reuse for per-record encoders).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.acc = 0;
        self.nbits = 0;
    }

    /// Finish, zero-padding the final byte, and return the buffer.
    pub fn into_bytes(mut self) -> Vec<u8> {
        self.finish();
        self.buf
    }
}

/// Reads bits MSB-first from a byte slice through a 64-bit accumulator.
#[derive(Debug)]
pub struct BitReader<'a> {
    buf: &'a [u8],
    /// Next byte to load into the accumulator.
    byte_pos: usize,
    /// Loaded-but-unconsumed bits, left-aligned; bits below `nbits` are 0.
    acc: u64,
    /// Valid bits in `acc`.
    nbits: u32,
}

impl<'a> BitReader<'a> {
    /// Create a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, byte_pos: 0, acc: 0, nbits: 0 }
    }

    /// Top up the accumulator from the buffer (whole word when aligned,
    /// byte-at-a-time otherwise).
    #[inline]
    fn refill(&mut self) {
        if self.nbits == 0 && self.byte_pos + 8 <= self.buf.len() {
            let mut w = [0u8; 8];
            w.copy_from_slice(&self.buf[self.byte_pos..self.byte_pos + 8]);
            self.acc = u64::from_be_bytes(w);
            self.nbits = 64;
            self.byte_pos += 8;
            return;
        }
        while self.nbits <= 56 && self.byte_pos < self.buf.len() {
            self.acc |= (self.buf[self.byte_pos] as u64) << (56 - self.nbits);
            self.byte_pos += 1;
            self.nbits += 8;
        }
    }

    /// Read `n ≤ 32` bits, MSB-first.
    #[inline]
    pub fn read_bits(&mut self, n: u8) -> Result<u32, CodecError> {
        debug_assert!(n <= 32);
        if n == 0 {
            return Ok(0);
        }
        let n = n as u32;
        if self.nbits < n {
            self.refill();
            if self.nbits < n {
                // As a bit-at-a-time reader would: the bits that do remain
                // are consumed before the EOF is reported.
                self.nbits = 0;
                self.acc = 0;
                self.byte_pos = self.buf.len();
                return Err(CodecError::UnexpectedEof);
            }
        }
        let v = (self.acc >> (64 - n)) as u32;
        self.acc <<= n;
        self.nbits -= n;
        Ok(v)
    }

    /// Read a single bit.
    #[inline]
    pub fn read_bit(&mut self) -> Result<bool, CodecError> {
        Ok(self.read_bits(1)? == 1)
    }

    /// Peek up to `n ≤ 32` bits without consuming them. Returns the bits
    /// left-padded into the low end of a `u32` exactly as [`read_bits`]
    /// would (missing bits past end-of-stream read as 0), plus the number
    /// of *real* bits available (`min(n, remaining)`).
    ///
    /// [`read_bits`]: BitReader::read_bits
    #[inline]
    pub fn peek_bits(&mut self, n: u8) -> (u32, u32) {
        debug_assert!(n <= 32);
        if n == 0 {
            return (0, 0);
        }
        let n = n as u32;
        if self.nbits < n {
            self.refill();
        }
        // Bits beyond `nbits` in `acc` are zero by invariant, so the peek
        // is implicitly zero-padded.
        ((self.acc >> (64 - n)) as u32, self.nbits.min(n))
    }

    /// Consume `n` bits previously surfaced by [`BitReader::peek_bits`]
    /// (`n` must not exceed the available count that call returned).
    #[inline]
    pub fn consume(&mut self, n: u32) {
        debug_assert!(n <= self.nbits);
        self.acc <<= n;
        self.nbits -= n;
    }

    /// Bits consumed so far.
    pub fn bit_pos(&self) -> usize {
        self.byte_pos * 8 - self.nbits as usize
    }

    /// Remaining readable bits.
    pub fn remaining_bits(&self) -> usize {
        (self.buf.len() - self.byte_pos) * 8 + self.nbits as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_mixed_widths() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(0xFF, 8);
        w.write_bits(0, 1);
        w.write_bits(0b11001, 5);
        let bit_len = w.bit_len();
        assert_eq!(bit_len, 17);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        assert_eq!(r.read_bits(8).unwrap(), 0xFF);
        assert_eq!(r.read_bits(1).unwrap(), 0);
        assert_eq!(r.read_bits(5).unwrap(), 0b11001);
    }

    #[test]
    fn msb_first_layout() {
        let mut w = BitWriter::new();
        w.write_bits(0b1, 1);
        w.write_bits(0b0, 1);
        w.write_bits(0b1, 1);
        // 101 padded with zeros -> 1010_0000.
        assert_eq!(w.into_bytes(), vec![0b1010_0000]);
    }

    #[test]
    fn two_bit_packing_matches_figure4() {
        // Figure 4: GGTTACCTA with A:00 G:01 C:10 T:11
        // -> 01 01 11 11 00 10 10 11 00, padded to 3 bytes.
        let codes = [1u32, 1, 3, 3, 0, 2, 2, 3, 0];
        let mut w = BitWriter::new();
        for c in codes {
            w.write_bits(c, 2);
        }
        let bytes = w.into_bytes();
        assert_eq!(bytes, vec![0b0101_1111, 0b0010_1011, 0b0000_0000]);
    }

    #[test]
    fn eof_detection() {
        let mut r = BitReader::new(&[0xAB]);
        assert_eq!(r.read_bits(8).unwrap(), 0xAB);
        assert_eq!(r.read_bit(), Err(CodecError::UnexpectedEof));
        assert_eq!(r.remaining_bits(), 0);
    }

    #[test]
    fn empty_writer() {
        let w = BitWriter::new();
        assert_eq!(w.bit_len(), 0);
        assert!(w.into_bytes().is_empty());
    }

    #[test]
    fn word_boundary_crossings() {
        // 3 bits then 8x32 bits crosses the accumulator boundary repeatedly.
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        for i in 0..8u32 {
            w.write_bits(0xDEAD_0000 | i, 32);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        for i in 0..8u32 {
            assert_eq!(r.read_bits(32).unwrap(), 0xDEAD_0000 | i);
        }
    }

    #[test]
    fn full_words_round_trip_exactly() {
        let mut w = BitWriter::new();
        for i in 0..64u32 {
            w.write_bits(i & 1, 1);
        }
        assert_eq!(w.bit_len(), 64);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 8);
        let mut r = BitReader::new(&bytes);
        for i in 0..64u32 {
            assert_eq!(r.read_bits(1).unwrap(), i & 1);
        }
        assert_eq!(r.remaining_bits(), 0);
    }

    #[test]
    fn peek_then_consume_equals_read() {
        let mut w = BitWriter::new();
        w.write_bits(0b1011_0110_1100, 12);
        w.write_bits(0b01, 2);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        let (bits, avail) = r.peek_bits(12);
        assert_eq!(avail, 12);
        assert_eq!(bits, 0b1011_0110_1100);
        r.consume(5);
        assert_eq!(r.bit_pos(), 5);
        assert_eq!(r.read_bits(7).unwrap(), 0b0110_1100 & 0x7F);
    }

    #[test]
    fn peek_past_end_zero_pads() {
        let mut w = BitWriter::new();
        w.write_bits(0b110, 3);
        let bytes = w.into_bytes(); // one byte: 1100_0000
        let mut r = BitReader::new(&bytes);
        let (bits, avail) = r.peek_bits(12);
        assert_eq!(avail, 8, "one padded byte available");
        assert_eq!(bits, 0b1100_0000_0000);
        r.consume(8);
        let (bits, avail) = r.peek_bits(12);
        assert_eq!((bits, avail), (0, 0));
    }

    #[test]
    fn clear_and_finish_reuse() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        assert_eq!(w.finish(), &[0b1010_0000]);
        w.clear();
        w.write_bits(0xFF, 8);
        assert_eq!(w.finish(), &[0xFF]);
        assert_eq!(w.bit_len(), 8);
    }
}
