//! FASTA parsing and the in-memory reference genome.
//!
//! The reference genome is loaded once, held in memory, and shared read-only
//! across all Processes — in the paper's engine the FASTA partition RDD is
//! one of the read-only inputs the DAG scheduler learns to build only once
//! (Figure 7).

use crate::error::FormatError;
use crate::genome::{ContigDict, GenomeInterval};

/// An in-memory reference genome: contig dictionary plus per-contig sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReferenceGenome {
    dict: ContigDict,
    seqs: Vec<Vec<u8>>,
}

impl ReferenceGenome {
    /// Build a reference from `(name, sequence)` pairs.
    pub fn from_contigs<S: Into<String>>(contigs: Vec<(S, Vec<u8>)>) -> Self {
        let mut dict = ContigDict::new();
        let mut seqs = Vec::with_capacity(contigs.len());
        for (name, seq) in contigs {
            dict.push(name.into(), seq.len() as u64);
            seqs.push(seq);
        }
        Self { dict, seqs }
    }

    /// Parse FASTA text into a reference genome.
    ///
    /// Sequences are upper-cased; any character outside `{A,C,G,T,N}` is an
    /// error (we do not accept extended IUPAC codes in the reference). So is
    /// a contig with no bases, reported at its header, and a file with no
    /// contig, reported one line past its end: there would be nothing to
    /// index or call against.
    pub fn parse_fasta(text: &str) -> Result<Self, FormatError> {
        let mut contigs: Vec<(String, Vec<u8>)> = Vec::new();
        let mut header_line = 0;
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim_end();
            if line.is_empty() {
                continue;
            }
            if let Some(header) = line.strip_prefix('>') {
                reject_empty_last_contig(&contigs, header_line)?;
                let name = header.split_whitespace().next().unwrap_or("").to_string();
                if name.is_empty() {
                    return Err(FormatError::Fasta {
                        line: lineno + 1,
                        msg: "empty contig name".into(),
                    });
                }
                if contigs.iter().any(|(n, _)| n == &name) {
                    return Err(FormatError::Fasta {
                        line: lineno + 1,
                        msg: format!("duplicate contig `{name}`"),
                    });
                }
                contigs.push((name, Vec::new()));
                header_line = lineno + 1;
            } else {
                let (_, seq) = contigs.last_mut().ok_or_else(|| FormatError::Fasta {
                    line: lineno + 1,
                    msg: "sequence data before any `>` header".into(),
                })?;
                for &b in line.as_bytes() {
                    let up = b.to_ascii_uppercase();
                    if !crate::base::is_valid_seq_char(up) {
                        return Err(FormatError::Fasta {
                            line: lineno + 1,
                            msg: format!("invalid reference character `{}`", b as char),
                        });
                    }
                    seq.push(up);
                }
            }
        }
        reject_empty_last_contig(&contigs, header_line)?;
        if contigs.is_empty() {
            return Err(FormatError::Fasta {
                line: text.lines().count() + 1,
                msg: "no contig: expected a `>` header followed by sequence".into(),
            });
        }
        Ok(Self::from_contigs(contigs))
    }

    /// Format as FASTA text with 70-column wrapping.
    pub fn to_fasta_string(&self) -> String {
        let mut s = String::new();
        for (id, seq) in self.seqs.iter().enumerate() {
            s.push('>');
            s.push_str(self.dict.name_of(id as u32));
            s.push('\n');
            for chunk in seq.chunks(70) {
                s.push_str(&String::from_utf8_lossy(chunk));
                s.push('\n');
            }
        }
        s
    }

    /// The contig dictionary.
    pub fn dict(&self) -> &ContigDict {
        &self.dict
    }

    /// Full sequence of contig `id`.
    ///
    /// # Panics
    /// Panics when `id` is out of range.
    pub fn contig_seq(&self, id: u32) -> &[u8] {
        &self.seqs[id as usize]
    }

    /// Sub-sequence for an interval.
    ///
    /// # Panics
    /// Panics when the interval falls outside the contig.
    pub fn slice(&self, iv: GenomeInterval) -> &[u8] {
        &self.seqs[iv.contig as usize][iv.start as usize..iv.end as usize]
    }

    /// Total genome length in bases.
    pub fn genome_length(&self) -> u64 {
        self.dict.genome_length()
    }

    /// Concatenate all contigs into one sequence, recording each contig's
    /// start offset — the layout the FM-index is built over.
    pub fn concatenated(&self) -> (Vec<u8>, Vec<u64>) {
        let total = self.genome_length() as usize;
        let mut cat = Vec::with_capacity(total);
        let mut offsets = Vec::with_capacity(self.seqs.len());
        for seq in &self.seqs {
            offsets.push(cat.len() as u64);
            cat.extend_from_slice(seq);
        }
        (cat, offsets)
    }
}

/// `Err` when the last contig parsed so far, whose header is on
/// `header_line`, has no bases.
fn reject_empty_last_contig(
    contigs: &[(String, Vec<u8>)],
    header_line: usize,
) -> Result<(), FormatError> {
    match contigs.last() {
        Some((name, seq)) if seq.is_empty() => Err(FormatError::Fasta {
            line: header_line,
            msg: format!("contig `{name}` has no sequence"),
        }),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = ">chr1 description text\nACGTACGT\nACGT\n>chr2\nTTTT\n";

    #[test]
    fn parse_basic() {
        let r = ReferenceGenome::parse_fasta(SAMPLE).unwrap();
        assert_eq!(r.dict().len(), 2);
        assert_eq!(r.contig_seq(0), b"ACGTACGTACGT");
        assert_eq!(r.contig_seq(1), b"TTTT");
        assert_eq!(r.dict().id_of("chr1"), Some(0));
        assert_eq!(r.genome_length(), 16);
    }

    #[test]
    fn header_keeps_first_token_only() {
        let r = ReferenceGenome::parse_fasta(SAMPLE).unwrap();
        assert_eq!(r.dict().name_of(0), "chr1");
    }

    #[test]
    fn round_trip() {
        let r = ReferenceGenome::parse_fasta(SAMPLE).unwrap();
        let text = r.to_fasta_string();
        let r2 = ReferenceGenome::parse_fasta(&text).unwrap();
        assert_eq!(r, r2);
    }

    #[test]
    fn lower_case_is_uppercased() {
        let r = ReferenceGenome::parse_fasta(">c\nacgtn\n").unwrap();
        assert_eq!(r.contig_seq(0), b"ACGTN");
    }

    #[test]
    fn rejects_body_before_header() {
        assert!(ReferenceGenome::parse_fasta("ACGT\n>c\n").is_err());
    }

    #[test]
    fn rejects_invalid_characters() {
        assert!(ReferenceGenome::parse_fasta(">c\nAC-GT\n").is_err());
    }

    #[test]
    fn rejects_duplicate_contig() {
        assert!(ReferenceGenome::parse_fasta(">c\nAC\n>c\nGT\n").is_err());
    }

    fn fasta_error_line(text: &str) -> usize {
        match ReferenceGenome::parse_fasta(text) {
            Err(FormatError::Fasta { line, .. }) => line,
            other => panic!("{text:?} parsed to {other:?}"),
        }
    }

    #[test]
    fn rejects_contig_without_sequence() {
        assert_eq!(fasta_error_line(">chr1\n"), 1);
        assert_eq!(fasta_error_line(">chr1"), 1);
        assert_eq!(fasta_error_line(">a\nAC\n>b\n>c\nGT\n"), 3, "an empty contig between two");
        assert_eq!(fasta_error_line(">a\nAC\n\n>b\n\n"), 4, "an empty last contig");
        let err = ReferenceGenome::parse_fasta(">a\nAC\n>b\n").unwrap_err();
        assert!(err.to_string().contains("`b` has no sequence"), "{err}");
    }

    #[test]
    fn rejects_file_without_contig() {
        assert_eq!(fasta_error_line(""), 1);
        assert_eq!(fasta_error_line("\n\n"), 3);
        let err = ReferenceGenome::parse_fasta("  \n").unwrap_err();
        assert!(err.to_string().contains("line 2: no contig"), "{err}");
    }

    #[test]
    fn slice_and_concat() {
        let r = ReferenceGenome::parse_fasta(SAMPLE).unwrap();
        assert_eq!(r.slice(GenomeInterval::new(0, 2, 6)), b"GTAC");
        let (cat, offs) = r.concatenated();
        assert_eq!(cat, b"ACGTACGTACGTTTTT".to_vec());
        assert_eq!(offs, vec![0, 12]);
    }
}
