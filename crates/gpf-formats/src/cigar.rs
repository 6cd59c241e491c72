//! CIGAR strings — compact descriptions of how a read aligns to the
//! reference.
//!
//! Supports the SAM operation set `M I D N S H P = X`. The helpers here
//! (reference span, unclipped start, per-base walking) are what the Cleaner
//! stage's MarkDuplicate and IndelRealignment implementations lean on.

use crate::error::FormatError;
use std::fmt;

/// One CIGAR operation kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CigarOp {
    /// `M` — alignment match (can be a sequence match or mismatch).
    Match,
    /// `I` — insertion to the reference.
    Ins,
    /// `D` — deletion from the reference.
    Del,
    /// `N` — skipped region from the reference.
    RefSkip,
    /// `S` — soft clipping (clipped sequence present in SEQ).
    SoftClip,
    /// `H` — hard clipping (clipped sequence absent from SEQ).
    HardClip,
    /// `P` — padding.
    Pad,
    /// `=` — sequence match.
    Equal,
    /// `X` — sequence mismatch.
    Diff,
}

impl CigarOp {
    /// The SAM character for this op.
    pub(crate) fn as_char(self) -> char {
        match self {
            CigarOp::Match => 'M',
            CigarOp::Ins => 'I',
            CigarOp::Del => 'D',
            CigarOp::RefSkip => 'N',
            CigarOp::SoftClip => 'S',
            CigarOp::HardClip => 'H',
            CigarOp::Pad => 'P',
            CigarOp::Equal => '=',
            CigarOp::Diff => 'X',
        }
    }

    /// Parse a SAM CIGAR op character.
    pub(crate) fn from_char(c: char) -> Option<Self> {
        Some(match c {
            'M' => CigarOp::Match,
            'I' => CigarOp::Ins,
            'D' => CigarOp::Del,
            'N' => CigarOp::RefSkip,
            'S' => CigarOp::SoftClip,
            'H' => CigarOp::HardClip,
            'P' => CigarOp::Pad,
            '=' => CigarOp::Equal,
            'X' => CigarOp::Diff,
            _ => return None,
        })
    }

    /// Does the op consume read (query) bases?
    pub fn consumes_read(self) -> bool {
        matches!(
            self,
            CigarOp::Match | CigarOp::Ins | CigarOp::SoftClip | CigarOp::Equal | CigarOp::Diff
        )
    }

    /// Does the op consume reference bases?
    pub fn consumes_ref(self) -> bool {
        matches!(
            self,
            CigarOp::Match | CigarOp::Del | CigarOp::RefSkip | CigarOp::Equal | CigarOp::Diff
        )
    }
}

/// A full CIGAR: a run-length encoded list of operations.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Cigar(pub Vec<(u32, CigarOp)>);

impl Cigar {
    /// The empty CIGAR (stringified as `*`, meaning "unavailable").
    pub fn unavailable() -> Self {
        Cigar(Vec::new())
    }

    /// Build from `(len, op)` pairs.
    ///
    /// # Panics
    /// Panics on zero-length operations.
    pub fn from_ops(ops: Vec<(u32, CigarOp)>) -> Self {
        assert!(ops.iter().all(|&(n, _)| n > 0), "zero-length CIGAR op");
        Cigar(ops)
    }

    /// Parse a SAM CIGAR string; `*` yields [`Cigar::unavailable`].
    pub fn parse(s: &str) -> Result<Self, FormatError> {
        if s == "*" {
            return Ok(Self::unavailable());
        }
        let mut ops = Vec::new();
        let mut num: u64 = 0;
        let mut saw_digit = false;
        for c in s.chars() {
            if let Some(d) = c.to_digit(10) {
                num = num * 10 + d as u64;
                saw_digit = true;
                if num > u32::MAX as u64 {
                    return Err(FormatError::Cigar {
                        token: s.to_string(),
                        msg: "operation length overflows u32".into(),
                    });
                }
            } else {
                let op = CigarOp::from_char(c).ok_or_else(|| FormatError::Cigar {
                    token: s.to_string(),
                    msg: format!("unknown op `{c}`"),
                })?;
                if !saw_digit || num == 0 {
                    return Err(FormatError::Cigar {
                        token: s.to_string(),
                        msg: format!("op `{c}` without positive length"),
                    });
                }
                ops.push((num as u32, op));
                num = 0;
                saw_digit = false;
            }
        }
        if saw_digit {
            return Err(FormatError::Cigar {
                token: s.to_string(),
                msg: "trailing number without op".into(),
            });
        }
        if ops.is_empty() {
            return Err(FormatError::Cigar { token: s.to_string(), msg: "empty CIGAR".into() });
        }
        Ok(Cigar(ops))
    }

    /// Number of read bases the CIGAR consumes (must equal `SEQ` length).
    pub fn read_len(&self) -> u64 {
        self.0
            .iter()
            .filter(|(_, op)| op.consumes_read())
            .map(|&(n, _)| n as u64)
            .sum()
    }

    /// Number of reference bases the CIGAR spans.
    pub fn ref_span(&self) -> u64 {
        self.0
            .iter()
            .filter(|(_, op)| op.consumes_ref())
            .map(|&(n, _)| n as u64)
            .sum()
    }

    /// Leading clip length (`S`/`H` ops before the first aligned base).
    pub(crate) fn leading_clip(&self) -> u64 {
        self.0
            .iter()
            .take_while(|(_, op)| matches!(op, CigarOp::SoftClip | CigarOp::HardClip))
            .map(|&(n, _)| n as u64)
            .sum()
    }

    /// Trailing clip length.
    pub(crate) fn trailing_clip(&self) -> u64 {
        self.0
            .iter()
            .rev()
            .take_while(|(_, op)| matches!(op, CigarOp::SoftClip | CigarOp::HardClip))
            .map(|&(n, _)| n as u64)
            .sum()
    }

    /// `true` if any op is an insertion or deletion — used by the Cleaner to
    /// pick realignment candidate intervals.
    pub fn has_indel(&self) -> bool {
        self.0.iter().any(|(_, op)| matches!(op, CigarOp::Ins | CigarOp::Del))
    }

    /// Iterate `(read_offset, ref_offset, op)` for every op block.
    pub fn walk(&self) -> CigarWalk<'_> {
        CigarWalk { ops: &self.0, idx: 0, read_off: 0, ref_off: 0 }
    }
}

/// Iterator over CIGAR blocks with running read/reference offsets.
pub struct CigarWalk<'a> {
    ops: &'a [(u32, CigarOp)],
    idx: usize,
    read_off: u64,
    ref_off: u64,
}

/// One block visited by [`Cigar::walk`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CigarBlock {
    /// Offset of the block's first read base (where it consumes read).
    pub read_off: u64,
    /// Offset of the block's first reference base relative to alignment start.
    pub ref_off: u64,
    /// Block length.
    pub len: u32,
    /// Operation.
    pub op: CigarOp,
}

impl<'a> Iterator for CigarWalk<'a> {
    type Item = CigarBlock;

    fn next(&mut self) -> Option<CigarBlock> {
        let &(len, op) = self.ops.get(self.idx)?;
        let block = CigarBlock { read_off: self.read_off, ref_off: self.ref_off, len, op };
        if op.consumes_read() {
            self.read_off += len as u64;
        }
        if op.consumes_ref() {
            self.ref_off += len as u64;
        }
        self.idx += 1;
        Some(block)
    }
}

impl fmt::Display for Cigar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_empty() {
            return write!(f, "*");
        }
        for &(n, op) in &self.0 {
            write!(f, "{n}{}", op.as_char())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_round_trip() {
        for s in ["10M", "5S90M5S", "3H2S10M2I5D20M1S", "76M", "10M5N10M", "4=1X4="] {
            let c = Cigar::parse(s).unwrap();
            assert_eq!(c.to_string(), s);
        }
    }

    #[test]
    fn unavailable_round_trip() {
        let c = Cigar::parse("*").unwrap();
        assert!(c.0.is_empty());
        assert_eq!(c.to_string(), "*");
    }

    #[test]
    fn rejects_malformed() {
        for s in ["", "M", "10", "10Z", "0M", "10M3"] {
            assert!(Cigar::parse(s).is_err(), "`{s}` should fail");
        }
    }

    #[test]
    fn read_and_ref_lengths() {
        let c = Cigar::parse("5S10M2I3D20M").unwrap();
        // read: 5 + 10 + 2 + 20 = 37; ref: 10 + 3 + 20 = 33.
        assert_eq!(c.read_len(), 37);
        assert_eq!(c.ref_span(), 33);
    }

    #[test]
    fn clips() {
        let c = Cigar::parse("3H2S10M4S").unwrap();
        assert_eq!(c.leading_clip(), 5);
        assert_eq!(c.trailing_clip(), 4);
        let c2 = Cigar::parse("10M").unwrap();
        assert_eq!(c2.leading_clip(), 0);
        assert_eq!(c2.trailing_clip(), 0);
    }

    #[test]
    fn has_indel_detects_i_and_d() {
        assert!(Cigar::parse("5M1I5M").unwrap().has_indel());
        assert!(Cigar::parse("5M2D5M").unwrap().has_indel());
        assert!(!Cigar::parse("5S10M").unwrap().has_indel());
    }

    #[test]
    fn walk_tracks_offsets() {
        let c = Cigar::parse("2S4M1I2D3M").unwrap();
        let blocks: Vec<_> = c.walk().collect();
        assert_eq!(blocks.len(), 5);
        // 2S: read 0, ref 0.
        assert_eq!((blocks[0].read_off, blocks[0].ref_off), (0, 0));
        // 4M: read 2, ref 0.
        assert_eq!((blocks[1].read_off, blocks[1].ref_off), (2, 0));
        // 1I: read 6, ref 4.
        assert_eq!((blocks[2].read_off, blocks[2].ref_off), (6, 4));
        // 2D: read 7, ref 4.
        assert_eq!((blocks[3].read_off, blocks[3].ref_off), (7, 4));
        // 3M: read 7, ref 6.
        assert_eq!((blocks[4].read_off, blocks[4].ref_off), (7, 6));
    }

    #[test]
    fn consume_flags_match_sam_spec() {
        use CigarOp::*;
        assert!(Match.consumes_read() && Match.consumes_ref());
        assert!(Ins.consumes_read() && !Ins.consumes_ref());
        assert!(!Del.consumes_read() && Del.consumes_ref());
        assert!(SoftClip.consumes_read() && !SoftClip.consumes_ref());
        assert!(!HardClip.consumes_read() && !HardClip.consumes_ref());
        assert!(!Pad.consumes_read() && !Pad.consumes_ref());
        assert!(RefSkip.consumes_ref() && !RefSkip.consumes_read());
    }

    #[test]
    #[should_panic(expected = "zero-length")]
    fn from_ops_rejects_zero_len() {
        Cigar::from_ops(vec![(0, CigarOp::Match)]);
    }
}
