//! SAM records — aligned reads.
//!
//! [`SamRecord`] mirrors the mandatory 11 SAM columns plus a small set of
//! optional tags. Positions are stored 0-based internally and converted
//! to/from SAM's 1-based text representation at the parse/format boundary.
//!
//! [`SamHeaderInfo`] is the analogue of the paper's `SamHeaderInfo` resource
//! metadata (`new SamHeaderInfo.unsortedHeader()` in Figure 3): it carries
//! the contig dictionary and a sort-order flag.

use crate::cigar::Cigar;
use crate::error::FormatError;
use crate::genome::{ContigDict, GenomePosition};
use crate::quality::phred_sum;
use std::fmt::Write as _;

/// SAM FLAG bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SamFlags(pub u16);

impl SamFlags {
    /// 0x1 template has multiple segments (paired).
    pub const PAIRED: u16 = 0x1;
    /// 0x2 each segment properly aligned.
    pub const PROPER_PAIR: u16 = 0x2;
    /// 0x4 segment unmapped.
    pub const UNMAPPED: u16 = 0x4;
    /// 0x8 next segment unmapped.
    pub const MATE_UNMAPPED: u16 = 0x8;
    /// 0x10 SEQ reverse complemented.
    pub const REVERSE: u16 = 0x10;
    /// 0x20 SEQ of next segment reverse complemented.
    pub const MATE_REVERSE: u16 = 0x20;
    /// 0x40 first segment in template.
    pub const FIRST_IN_PAIR: u16 = 0x40;
    /// 0x80 last segment in template.
    pub const SECOND_IN_PAIR: u16 = 0x80;
    /// 0x100 secondary alignment.
    pub const SECONDARY: u16 = 0x100;
    /// 0x200 not passing filters.
    pub const QC_FAIL: u16 = 0x200;
    /// 0x400 PCR or optical duplicate.
    pub const DUPLICATE: u16 = 0x400;
    /// 0x800 supplementary alignment.
    pub const SUPPLEMENTARY: u16 = 0x800;

    /// Test a flag bit.
    #[inline]
    pub fn has(self, bit: u16) -> bool {
        self.0 & bit != 0
    }

    /// Set a flag bit.
    #[inline]
    pub fn set(&mut self, bit: u16) {
        self.0 |= bit;
    }

    /// Clear a flag bit.
    #[inline]
    pub fn clear(&mut self, bit: u16) {
        self.0 &= !bit;
    }

    /// Is the read mapped?
    #[inline]
    pub fn is_mapped(self) -> bool {
        !self.has(Self::UNMAPPED)
    }

    /// Is the read on the reverse strand?
    #[inline]
    pub fn is_reverse(self) -> bool {
        self.has(Self::REVERSE)
    }

    /// Is the read marked as a duplicate?
    #[inline]
    pub fn is_duplicate(self) -> bool {
        self.has(Self::DUPLICATE)
    }

    /// Is this a primary alignment (neither secondary nor supplementary)?
    #[inline]
    pub fn is_primary(self) -> bool {
        !self.has(Self::SECONDARY) && !self.has(Self::SUPPLEMENTARY)
    }
}

/// Sort order recorded in a SAM header (`@HD SO:` field).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SortOrder {
    /// No ordering guaranteed.
    #[default]
    Unsorted,
    /// Sorted by read name.
    QueryName,
    /// Sorted by (contig id, position).
    Coordinate,
}

/// Header metadata accompanying a SAM record collection.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SamHeaderInfo {
    /// Contig dictionary (`@SQ` lines).
    pub dict: ContigDict,
    /// Sort order (`@HD SO:`).
    pub sort_order: SortOrder,
    /// Read group ids (`@RG` lines); BQSR covariates key on these.
    pub read_groups: Vec<String>,
}

impl SamHeaderInfo {
    /// An unsorted header over `dict` — the paper's
    /// `SamHeaderInfo.unsortedHeader()`.
    pub fn unsorted_header(dict: ContigDict) -> Self {
        Self { dict, sort_order: SortOrder::Unsorted, read_groups: vec!["rg1".to_string()] }
    }

    /// Render the header text (`@HD`, `@SQ`, `@RG` lines).
    pub(crate) fn to_sam_string(&self) -> String {
        let so = match self.sort_order {
            SortOrder::Unsorted => "unsorted",
            SortOrder::QueryName => "queryname",
            SortOrder::Coordinate => "coordinate",
        };
        let mut s = format!("@HD\tVN:1.6\tSO:{so}\n");
        for c in self.dict.iter() {
            let _ = writeln!(s, "@SQ\tSN:{}\tLN:{}", c.name, c.length);
        }
        for rg in &self.read_groups {
            let _ = writeln!(s, "@RG\tID:{rg}\tSM:sample");
        }
        s
    }
}

/// The sentinel "no reference" contig id (SAM `*` / TLEN 0 cases).
pub const NO_CONTIG: u32 = u32::MAX;

/// One aligned (or unaligned) read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SamRecord {
    /// QNAME.
    pub name: String,
    /// FLAG bits.
    pub flags: SamFlags,
    /// Contig id (RNAME resolved through the dictionary), or [`NO_CONTIG`].
    pub contig: u32,
    /// 0-based leftmost mapping position (POS − 1).
    pub pos: u64,
    /// MAPQ.
    pub mapq: u8,
    /// CIGAR.
    pub cigar: Cigar,
    /// Mate contig id, or [`NO_CONTIG`].
    pub mate_contig: u32,
    /// Mate 0-based position.
    pub mate_pos: u64,
    /// Signed observed template length (TLEN).
    pub tlen: i64,
    /// Read bases (SEQ).
    pub seq: Vec<u8>,
    /// Phred+33 qualities (QUAL).
    pub qual: Vec<u8>,
    /// Read group id (RG tag).
    pub read_group: u16,
    /// Alignment edit distance (NM tag analogue), filled by the aligner.
    pub edit_distance: u16,
}

impl SamRecord {
    /// An unmapped record for a read that found no alignment.
    pub fn unmapped(name: impl Into<String>, seq: Vec<u8>, qual: Vec<u8>) -> Self {
        Self {
            name: name.into(),
            flags: SamFlags(SamFlags::UNMAPPED),
            contig: NO_CONTIG,
            pos: 0,
            mapq: 0,
            cigar: Cigar::unavailable(),
            mate_contig: NO_CONTIG,
            mate_pos: 0,
            tlen: 0,
            seq,
            qual,
            read_group: 0,
            edit_distance: 0,
        }
    }

    /// Mapping position as a [`GenomePosition`], or `None` when unmapped.
    pub fn position(&self) -> Option<GenomePosition> {
        if self.flags.is_mapped() && self.contig != NO_CONTIG {
            Some(GenomePosition::new(self.contig, self.pos))
        } else {
            None
        }
    }

    /// Unclipped 5'-most alignment start — Picard's duplicate key coordinate.
    ///
    /// For forward reads this is `pos - leading_clip`; for reverse reads the
    /// unclipped *end* `pos + ref_span + trailing_clip - 1`.
    pub fn unclipped_5prime(&self) -> i64 {
        if self.flags.is_reverse() {
            self.pos as i64 + self.cigar.ref_span() as i64 + self.cigar.trailing_clip() as i64 - 1
        } else {
            self.pos as i64 - self.cigar.leading_clip() as i64
        }
    }

    /// Exclusive end of the alignment on the reference.
    pub fn ref_end(&self) -> u64 {
        self.pos + self.cigar.ref_span()
    }

    /// Sum of base qualities — the MarkDuplicate survivor criterion.
    pub fn quality_sum(&self) -> u64 {
        phred_sum(&self.qual)
    }

    /// Render as one SAM text line (no trailing newline).
    pub(crate) fn to_sam_line(&self, dict: &ContigDict) -> String {
        let rname = if self.contig == NO_CONTIG { "*" } else { dict.name_of(self.contig) };
        let rnext = if self.mate_contig == NO_CONTIG {
            "*".to_string()
        } else if self.mate_contig == self.contig {
            "=".to_string()
        } else {
            dict.name_of(self.mate_contig).to_string()
        };
        let pos1 = if self.contig == NO_CONTIG { 0 } else { self.pos + 1 };
        let mpos1 = if self.mate_contig == NO_CONTIG { 0 } else { self.mate_pos + 1 };
        let seq = if self.seq.is_empty() {
            "*".to_string()
        } else {
            String::from_utf8_lossy(&self.seq).into_owned()
        };
        let qual = if self.qual.is_empty() {
            "*".to_string()
        } else {
            String::from_utf8_lossy(&self.qual).into_owned()
        };
        format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\tNM:i:{}\tRG:Z:rg{}",
            self.name,
            self.flags.0,
            rname,
            pos1,
            self.mapq,
            self.cigar,
            rnext,
            mpos1,
            self.tlen,
            seq,
            qual,
            self.edit_distance,
            self.read_group,
        )
    }

    /// Parse one SAM text line (header lines must be filtered out upstream).
    pub(crate) fn parse_sam_line(line: &str, dict: &ContigDict, lineno: usize) -> Result<Self, FormatError> {
        let fields: Vec<&str> = line.split('\t').collect();
        if fields.len() < 11 {
            return Err(FormatError::Sam {
                line: lineno,
                msg: format!("expected ≥11 fields, found {}", fields.len()),
            });
        }
        let err = |msg: String| FormatError::Sam { line: lineno, msg };
        let flags = SamFlags(fields[1].parse::<u16>().map_err(|e| err(format!("bad FLAG: {e}")))?);
        let contig = if fields[2] == "*" { NO_CONTIG } else { dict.require_id(fields[2])? };
        let pos1: u64 = fields[3].parse().map_err(|e| err(format!("bad POS: {e}")))?;
        let mapq: u8 = fields[4].parse().map_err(|e| err(format!("bad MAPQ: {e}")))?;
        let cigar = Cigar::parse(fields[5])?;
        let mate_contig = match fields[6] {
            "*" => NO_CONTIG,
            "=" => contig,
            name => dict.require_id(name)?,
        };
        let mpos1: u64 = fields[7].parse().map_err(|e| err(format!("bad PNEXT: {e}")))?;
        // A record that exists has its coordinates on its contig: downstream
        // routing divides them into a partition table sized by contig length.
        for (field, id, at1) in [("POS", contig, pos1), ("PNEXT", mate_contig, mpos1)] {
            if id != NO_CONTIG && at1 > dict.length_of(id) {
                return Err(err(format!(
                    "{field} {at1} is beyond the end of {} ({} bases)",
                    dict.name_of(id),
                    dict.length_of(id)
                )));
            }
        }
        let tlen: i64 = fields[8].parse().map_err(|e| err(format!("bad TLEN: {e}")))?;
        let seq = if fields[9] == "*" { Vec::new() } else { fields[9].as_bytes().to_vec() };
        let qual = if fields[10] == "*" { Vec::new() } else { fields[10].as_bytes().to_vec() };
        if !seq.is_empty() && !qual.is_empty() && seq.len() != qual.len() {
            return Err(err(format!("SEQ length {} != QUAL length {}", seq.len(), qual.len())));
        }
        let mut edit_distance = 0;
        let mut read_group = 0;
        for tag in &fields[11..] {
            if let Some(v) = tag.strip_prefix("NM:i:") {
                edit_distance = v.parse().map_err(|e| err(format!("bad NM tag: {e}")))?;
            } else if let Some(v) = tag.strip_prefix("RG:Z:rg") {
                read_group = v.parse().unwrap_or(0);
            }
        }
        Ok(Self {
            name: fields[0].to_string(),
            flags,
            contig,
            pos: pos1.saturating_sub(1),
            mapq,
            cigar,
            mate_contig,
            mate_pos: mpos1.saturating_sub(1),
            tlen,
            seq,
            qual,
            read_group,
            edit_distance,
        })
    }
}

/// Render header + records as full SAM text.
pub fn format_sam(header: &SamHeaderInfo, records: &[SamRecord]) -> String {
    let mut s = header.to_sam_string();
    for r in records {
        s.push_str(&r.to_sam_line(&header.dict));
        s.push('\n');
    }
    s
}

/// Parse full SAM text (header + alignment lines).
pub fn parse_sam(text: &str) -> Result<(SamHeaderInfo, Vec<SamRecord>), FormatError> {
    let mut dict = ContigDict::new();
    let mut sort_order = SortOrder::Unsorted;
    let mut read_groups = Vec::new();
    let mut records = Vec::new();
    for (lineno0, line) in text.lines().enumerate() {
        let lineno = lineno0 + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('@') {
            let mut parts = rest.split('\t');
            match parts.next() {
                Some("SQ") => {
                    let mut name = None;
                    let mut len = None;
                    for p in parts {
                        if let Some(v) = p.strip_prefix("SN:") {
                            name = Some(v.to_string());
                        } else if let Some(v) = p.strip_prefix("LN:") {
                            len = v.parse::<u64>().ok();
                        }
                    }
                    match (name, len) {
                        (Some(n), Some(l)) => {
                            dict.push(n, l);
                        }
                        _ => {
                            return Err(FormatError::Sam {
                                line: lineno,
                                msg: "@SQ missing SN or LN".into(),
                            })
                        }
                    }
                }
                Some("HD") => {
                    for p in parts {
                        if let Some(v) = p.strip_prefix("SO:") {
                            sort_order = match v {
                                "coordinate" => SortOrder::Coordinate,
                                "queryname" => SortOrder::QueryName,
                                _ => SortOrder::Unsorted,
                            };
                        }
                    }
                }
                Some("RG") => {
                    for p in parts {
                        if let Some(v) = p.strip_prefix("ID:") {
                            read_groups.push(v.to_string());
                        }
                    }
                }
                _ => {}
            }
            continue;
        }
        records.push(SamRecord::parse_sam_line(line, &dict, lineno)?);
    }
    Ok((SamHeaderInfo { dict, sort_order, read_groups }, records))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dict() -> ContigDict {
        ContigDict::from_pairs([("chr1", 10_000u64), ("chr2", 5_000)])
    }

    fn sorted_header() -> SamHeaderInfo {
        SamHeaderInfo { sort_order: SortOrder::Coordinate, ..SamHeaderInfo::unsorted_header(dict()) }
    }

    fn record() -> SamRecord {
        SamRecord {
            name: "read1".into(),
            flags: SamFlags(SamFlags::PAIRED | SamFlags::FIRST_IN_PAIR),
            contig: 0,
            pos: 99,
            mapq: 60,
            cigar: Cigar::parse("5S10M").unwrap(),
            mate_contig: 0,
            mate_pos: 299,
            tlen: 215,
            seq: b"ACGTACGTACGTACG".to_vec(),
            qual: b"IIIIIIIIIIIIIII".to_vec(),
            read_group: 1,
            edit_distance: 2,
        }
    }

    #[test]
    fn sam_line_round_trip() {
        let d = dict();
        let r = record();
        let line = r.to_sam_line(&d);
        let r2 = SamRecord::parse_sam_line(&line, &d, 1).unwrap();
        assert_eq!(r, r2);
    }

    #[test]
    fn full_sam_round_trip_with_header() {
        let header = sorted_header();
        let records = vec![record()];
        let text = format_sam(&header, &records);
        let (h2, r2) = parse_sam(&text).unwrap();
        assert_eq!(h2.dict, header.dict);
        assert_eq!(h2.sort_order, SortOrder::Coordinate);
        assert_eq!(r2, records);
    }

    #[test]
    fn positions_are_zero_based_internally() {
        let d = dict();
        let line = "r\t0\tchr1\t100\t60\t10M\t*\t0\t0\tACGTACGTAC\tIIIIIIIIII";
        let r = SamRecord::parse_sam_line(line, &d, 1).unwrap();
        assert_eq!(r.pos, 99);
        assert!(r.to_sam_line(&d).contains("\t100\t"));
    }

    #[test]
    fn unmapped_record() {
        let r = SamRecord::unmapped("u1", b"ACGT".to_vec(), b"IIII".to_vec());
        assert!(r.position().is_none());
        assert!(!r.flags.is_mapped());
        let d = dict();
        let line = r.to_sam_line(&d);
        assert!(line.contains("\t*\t0\t"));
        let r2 = SamRecord::parse_sam_line(&line, &d, 1).unwrap();
        assert_eq!(r.contig, r2.contig);
    }

    #[test]
    fn unclipped_positions() {
        let mut r = record(); // 5S10M at pos 99, forward
        assert_eq!(r.unclipped_5prime(), 94);
        r.flags.set(SamFlags::REVERSE);
        // reverse: pos + ref_span + trailing_clip - 1 = 99 + 10 + 0 - 1.
        assert_eq!(r.unclipped_5prime(), 108);
        assert_eq!(r.ref_end(), 109);
    }

    #[test]
    fn flag_helpers() {
        let mut f = SamFlags::default();
        assert!(f.is_mapped());
        assert!(f.is_primary());
        f.set(SamFlags::DUPLICATE);
        assert!(f.is_duplicate());
        f.clear(SamFlags::DUPLICATE);
        assert!(!f.is_duplicate());
        f.set(SamFlags::SECONDARY);
        assert!(!f.is_primary());
    }

    #[test]
    fn parse_rejects_short_lines_and_unknown_contig() {
        let d = dict();
        assert!(SamRecord::parse_sam_line("a\tb\tc", &d, 3).is_err());
        let line = "r\t0\tchrZ\t100\t60\t4M\t*\t0\t0\tACGT\tIIII";
        assert!(matches!(
            SamRecord::parse_sam_line(line, &d, 1),
            Err(FormatError::UnknownContig { .. })
        ));
    }

    #[test]
    fn parse_rejects_seq_qual_mismatch() {
        let d = dict();
        let line = "r\t0\tchr1\t100\t60\t4M\t*\t0\t0\tACGT\tII";
        assert!(SamRecord::parse_sam_line(line, &d, 1).is_err());
    }

    #[test]
    fn parse_rejects_coordinates_beyond_the_contig_end() {
        let header = sorted_header().to_sam_string();
        let good = record().to_sam_line(&dict());
        // chr1 is 10,000 bases, chr2 5,000: its last base parses, one past
        // it does not — as POS, as PNEXT under `=`, and as PNEXT on a named
        // mate contig; `*` names no contig, so its coordinate is held to none.
        for (hostile, ok) in [
            ("h\t0\tchr1\t10000\t60\t4M\t=\t10000\t0\tACGT\tIIII", true),
            ("h\t0\tchr1\t1000000000\t60\t4M\t*\t0\t0\tACGT\tIIII", false),
            ("h\t0\tchr1\t100\t60\t4M\t=\t10001\t0\tACGT\tIIII", false),
            ("h\t4\t*\t0\t0\t*\tchr2\t5001\t0\tACGT\tIIII", false),
            ("h\t4\t*\t7000\t0\t*\t*\t7000\t0\tACGT\tIIII", true),
        ] {
            match parse_sam(&format!("{header}{good}\n{hostile}\n{good}\n")) {
                Ok((_, records)) => assert!(ok && records.len() == 3, "{hostile}"),
                // Four header lines (@HD, two @SQ, @RG), one record, then it.
                Err(e) => assert!(
                    !ok && matches!(e, FormatError::Sam { line: 6, .. }),
                    "{hostile}: {e}"
                ),
            }
        }
    }

    #[test]
    fn mate_same_contig_renders_equals() {
        let d = dict();
        let line = record().to_sam_line(&d);
        assert!(line.contains("\t=\t"));
    }

    #[test]
    fn header_renders_sq_lines() {
        let h = SamHeaderInfo::unsorted_header(dict());
        let s = h.to_sam_string();
        assert!(s.contains("@SQ\tSN:chr1\tLN:10000"));
        assert!(s.contains("SO:unsorted"));
    }
}
