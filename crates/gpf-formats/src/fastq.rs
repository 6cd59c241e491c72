//! FASTQ records — raw reads as they come off the sequencer.
//!
//! A FASTQ record is four lines:
//!
//! ```text
//! @name [description]
//! SEQUENCE
//! +
//! QUALITY
//! ```
//!
//! The paper (§4.2) observes that the sequence and quality fields account for
//! 80–90 % of a record's bytes, which is why GPF's compression targets those
//! two fields and leaves the rest of the structure intact.

use crate::base::is_valid_seq_char;
use crate::error::FormatError;
use crate::quality::is_valid_qual_char;

/// One FASTQ read.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FastqRecord {
    /// Read name, without the leading `@`.
    pub name: String,
    /// Base sequence over `{A,C,G,T,N}`.
    pub seq: Vec<u8>,
    /// Phred+33 quality string; same length as `seq`.
    pub qual: Vec<u8>,
}

impl FastqRecord {
    /// Construct a record, validating sequence/quality alphabet and lengths.
    pub fn new(name: impl Into<String>, seq: &[u8], qual: &[u8]) -> Result<Self, FormatError> {
        let name = name.into();
        if seq.len() != qual.len() {
            return Err(FormatError::Fastq {
                line: 0,
                msg: format!(
                    "sequence length {} != quality length {} for read `{name}`",
                    seq.len(),
                    qual.len()
                ),
            });
        }
        if let Some(&b) = seq.iter().find(|&&b| !is_valid_seq_char(b)) {
            return Err(FormatError::Fastq {
                line: 0,
                msg: format!("invalid sequence character `{}` in read `{name}`", b as char),
            });
        }
        if let Some(&c) = qual.iter().find(|&&c| !is_valid_qual_char(c)) {
            return Err(FormatError::QualityOutOfRange { value: c });
        }
        Ok(Self { name, seq: seq.to_vec(), qual: qual.to_vec() })
    }

    /// Read length in bases.
    pub fn len(&self) -> usize {
        self.seq.len()
    }

    /// `true` for a zero-length read.
    pub fn is_empty(&self) -> bool {
        self.seq.is_empty()
    }

    /// Format as the canonical four FASTQ lines (with trailing newline).
    pub fn to_fastq_string(&self) -> String {
        let mut s = String::with_capacity(self.name.len() + 2 * self.seq.len() + 8);
        s.push('@');
        s.push_str(&self.name);
        s.push('\n');
        s.push_str(&String::from_utf8_lossy(&self.seq));
        s.push_str("\n+\n");
        s.push_str(&String::from_utf8_lossy(&self.qual));
        s.push('\n');
        s
    }
}

/// A paired-end read: mate 1 and mate 2 of the same fragment.
///
/// This is the element type of the paper's `FASTQPairBundle`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FastqPair {
    /// First mate (from the `_1.fastq` file).
    pub r1: FastqRecord,
    /// Second mate (from the `_2.fastq` file).
    pub r2: FastqRecord,
}

impl FastqPair {
    /// Pair two records. Their names must match up to a `/1`/`/2` suffix.
    pub fn new(r1: FastqRecord, r2: FastqRecord) -> Result<Self, FormatError> {
        let base1 = r1.name.strip_suffix("/1").unwrap_or(&r1.name);
        let base2 = r2.name.strip_suffix("/2").unwrap_or(&r2.name);
        if base1 != base2 {
            return Err(FormatError::Fastq {
                line: 0,
                msg: format!("mate names `{}` and `{}` do not match", r1.name, r2.name),
            });
        }
        Ok(Self { r1, r2 })
    }

    /// Fragment name shared by the two mates (suffix stripped).
    pub fn fragment_name(&self) -> &str {
        self.r1.name.strip_suffix("/1").unwrap_or(&self.r1.name)
    }

    /// Total bases in the pair.
    pub fn total_bases(&self) -> usize {
        self.r1.len() + self.r2.len()
    }
}

/// Parse a full FASTQ text into records.
///
/// Strict: every record must have its four lines, the separator line must
/// start with `+`, and lengths must agree.
pub fn parse_fastq(text: &str) -> Result<Vec<FastqRecord>, FormatError> {
    let mut out = Vec::new();
    let mut lines = text.lines().enumerate().peekable();
    while let Some((lineno, header)) = lines.next() {
        if header.is_empty() {
            continue;
        }
        let name = header.strip_prefix('@').ok_or_else(|| FormatError::Fastq {
            line: lineno + 1,
            msg: format!("expected `@` header, found `{header}`"),
        })?;
        let (_, seq) = lines.next().ok_or(FormatError::Fastq {
            line: lineno + 2,
            msg: "truncated record: missing sequence line".into(),
        })?;
        let (sep_no, sep) = lines.next().ok_or(FormatError::Fastq {
            line: lineno + 3,
            msg: "truncated record: missing `+` line".into(),
        })?;
        if !sep.starts_with('+') {
            return Err(FormatError::Fastq {
                line: sep_no + 1,
                msg: format!("expected `+` separator, found `{sep}`"),
            });
        }
        let (qual_no, qual) = lines.next().ok_or(FormatError::Fastq {
            line: lineno + 4,
            msg: "truncated record: missing quality line".into(),
        })?;
        let rec = FastqRecord::new(name, seq.as_bytes(), qual.as_bytes()).map_err(|e| match e {
            FormatError::Fastq { msg, .. } => FormatError::Fastq { line: qual_no + 1, msg },
            other => other,
        })?;
        out.push(rec);
    }
    Ok(out)
}

/// Write records as FASTQ text.
pub fn format_fastq(records: &[FastqRecord]) -> String {
    let mut s = String::new();
    for r in records {
        s.push_str(&r.to_fastq_string());
    }
    s
}

/// Zip two equally long FASTQ files into pairs — the Rust analogue of the
/// paper's `FileLoader.loadFastqPairToRdd`.
pub fn pair_up(r1s: Vec<FastqRecord>, r2s: Vec<FastqRecord>) -> Result<Vec<FastqPair>, FormatError> {
    if r1s.len() != r2s.len() {
        return Err(FormatError::Fastq {
            line: 0,
            msg: format!("mate files have {} and {} records", r1s.len(), r2s.len()),
        });
    }
    r1s.into_iter().zip(r2s).map(|(a, b)| FastqPair::new(a, b)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &str, seq: &[u8], qual: &[u8]) -> FastqRecord {
        FastqRecord::new(name, seq, qual).unwrap()
    }

    #[test]
    fn round_trip() {
        let records = vec![
            rec("read1/1", b"ACGTN", b"IIII!"),
            rec("read2/1", b"GGGG", b"FFFF"),
        ];
        let text = format_fastq(&records);
        let parsed = parse_fastq(&text).unwrap();
        assert_eq!(parsed, records);
    }

    #[test]
    fn rejects_length_mismatch() {
        assert!(FastqRecord::new("r", b"ACGT", b"II").is_err());
    }

    #[test]
    fn rejects_bad_base_and_bad_quality() {
        assert!(FastqRecord::new("r", b"ACXT", b"IIII").is_err());
        assert!(matches!(
            FastqRecord::new("r", b"ACGT", &[b'I', b'I', 10, b'I']),
            Err(FormatError::QualityOutOfRange { value: 10 })
        ));
    }

    #[test]
    fn rejects_missing_at_sign() {
        let text = "read1\nACGT\n+\nIIII\n";
        assert!(parse_fastq(text).is_err());
    }

    #[test]
    fn rejects_truncated_record() {
        let text = "@read1\nACGT\n+\n";
        assert!(parse_fastq(text).is_err());
    }

    #[test]
    fn rejects_bad_separator() {
        let text = "@read1\nACGT\nIIII\nIIII\n";
        let err = parse_fastq(text).unwrap_err();
        assert!(err.to_string().contains('+'));
    }

    #[test]
    fn pairing_checks_names() {
        let a = rec("frag1/1", b"ACGT", b"IIII");
        let b = rec("frag1/2", b"TTTT", b"IIII");
        let p = FastqPair::new(a.clone(), b).unwrap();
        assert_eq!(p.fragment_name(), "frag1");
        assert_eq!(p.total_bases(), 8);

        let c = rec("frag2/2", b"TTTT", b"IIII");
        assert!(FastqPair::new(a, c).is_err());
    }

    #[test]
    fn pair_up_rejects_unequal_files() {
        let a = vec![rec("x/1", b"A", b"I")];
        assert!(pair_up(a, vec![]).is_err());
    }

    #[test]
    fn empty_input_parses_to_empty() {
        assert!(parse_fastq("").unwrap().is_empty());
        assert!(parse_fastq("\n\n").unwrap().is_empty());
    }
}
