//! SAM records — aligned reads.
//!
//! [`SamRecord`] mirrors the mandatory 11 SAM columns plus a small set of
//! optional tags. Positions are stored 0-based internally and converted
//! to/from SAM's 1-based text representation at the parse/format boundary.
//!
//! [`SamHeaderInfo`] is the analogue of the paper's `SamHeaderInfo` resource
//! metadata (`new SamHeaderInfo.unsortedHeader()` in Figure 3): it carries
//! the contig dictionary and a sort-order flag.

use crate::{base::is_valid_seq_char, cigar::Cigar};
use crate::error::FormatError;
use crate::genome::{ContigDict, GenomePosition};
use crate::quality::{is_valid_qual_char, phred_sum};
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
///
/// A record that came out of [`parse_sam`] keeps the record invariant
/// ([`SamRecord::check`]), a decoder re-checks its shape half, and every
/// reader downstream relies on it instead of checking again. The fields are
/// `pub`, so a record built in code must keep it too.
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
        self.flags.is_mapped().then(|| GenomePosition::new(self.contig, self.pos))
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

    /// The half of the record invariant a decoder can afford per record: no
    /// contig dictionary, O(1) plus the CIGAR's length. `QUAL` is as long as
    /// `SEQ` (so `QUAL` `*` goes only with `SEQ` `*`), and a mapped record
    /// names a contig and has bases that its CIGAR consumes exactly. A
    /// mapped record without bases is refused on purpose: every Process
    /// reads bases, and no producer here writes one.
    pub fn check_shape(&self) -> Result<(), String> {
        let (n, cigar) = (self.seq.len(), &self.cigar);
        if self.qual.len() != n {
            return Err(format!("SEQ length {n} != QUAL length {}", self.qual.len()));
        }
        let placed = self.contig != NO_CONTIG && n > 0 && cigar.read_len() == n as u64;
        if self.flags.is_mapped() && !placed {
            return Err(format!("a mapped record needs RNAME and SEQ, all under its CIGAR: {n} bases, {cigar}"));
        }
        Ok(())
    }

    /// The record invariant, which [`parse_sam`] holds every record to:
    /// [`SamRecord::check_shape`], `SEQ` over `{A,C,G,T,N}`, `QUAL` in
    /// Phred+33, and a mapped alignment that ends inside its contig of `dict`.
    pub fn check(&self, dict: &ContigDict) -> Result<(), String> {
        self.check_shape()?;
        // Branch-free folds vectorize; an early-exit `find` over the same
        // bytes ran about four times slower on the benchmark's reads.
        let bytes_ok = self.seq.iter().fold(true, |ok, &b| ok & is_valid_seq_char(b))
            & self.qual.iter().fold(true, |ok, &c| ok & is_valid_qual_char(c));
        if !bytes_ok {
            return Err("SEQ must be over A, C, G, T, N and QUAL in Phred+33".into());
        }
        let end = self.pos.saturating_add(self.cigar.ref_span());
        let past = self.contig as usize >= dict.len() || end > dict.length_of(self.contig);
        if self.flags.is_mapped() && past {
            return Err(format!("the alignment at {} spans past the end of its contig", self.pos + 1));
        }
        Ok(())
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
        let mut edit_distance = 0;
        let mut read_group = 0;
        for tag in &fields[11..] {
            if let Some(v) = tag.strip_prefix("NM:i:") {
                edit_distance = v.parse().map_err(|e| err(format!("bad NM tag: {e}")))?;
            } else if let Some(v) = tag.strip_prefix("RG:Z:rg") {
                read_group = v.parse().unwrap_or(0);
            }
        }
        let record = Self {
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
        };
        record.check(dict).map(|()| record).map_err(err)
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
                        (Some(n), Some(l)) if dict.id_of(&n).is_none() => {
                            dict.push(n, l);
                        }
                        _ => {
                            return Err(FormatError::Sam {
                                line: lineno,
                                msg: "@SQ missing SN or LN, or naming a contig twice".into(),
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
    fn a_second_sq_line_for_a_contig_is_an_error() {
        let text = "@SQ\tSN:chr1\tLN:100\n@SQ\tSN:chr2\tLN:50\n@SQ\tSN:chr1\tLN:100\n";
        assert!(matches!(parse_sam(text), Err(FormatError::Sam { line: 3, .. })));
    }

    #[test]
    fn parse_rejects_seq_qual_mismatch() {
        let d = dict();
        let line = "r\t0\tchr1\t100\t60\t4M\t*\t0\t0\tACGT\tII";
        assert!(SamRecord::parse_sam_line(line, &d, 1).is_err());
    }

    #[test]
    fn parse_rejects_coordinates_beyond_the_contig_end() {
        // The record invariant, one row per rule. chr1 is 10,000 bases and
        // chr2 5,000. Row `i` follows `i + 1` good records, so a refused row
        // is refused at its own line: four header lines (@HD, two @SQ, @RG),
        // the good records, then it.
        let header = sorted_header().to_sam_string();
        let good = record().to_sam_line(&dict());
        let seq = "ACGTN".repeat(10);
        let q = "E".repeat(50);
        let rows = [
            // A coordinate's last base parses, one past it does not — as
            // POS, as PNEXT under `=`, and as PNEXT on a named mate contig;
            // `*` names no contig, so its coordinate is held to none.
            ("h\t0\tchr1\t10000\t60\t1M\t=\t10000\t0\tA\tI".to_string(), true),
            ("h\t0\tchr1\t1000000000\t60\t4M\t*\t0\t0\tACGT\tIIII".into(), false),
            ("h\t0\tchr1\t100\t60\t4M\t=\t10001\t0\tACGT\tIIII".into(), false),
            ("h\t4\t*\t0\t0\t*\tchr2\t5001\t0\tACGT\tIIII".into(), false),
            ("h\t4\t*\t7000\t0\t*\t*\t7000\t0\tACGT\tIIII".into(), true),
            // A mapped alignment ends inside its contig: on chr2's last base,
            // one past it, and a deletion hanging 80 bases over the end.
            (format!("h\t0\tchr2\t4951\t60\t50M\t*\t0\t0\t{seq}\t{q}"), true),
            (format!("h\t0\tchr2\t4952\t60\t50M\t*\t0\t0\t{seq}\t{q}"), false),
            (format!("h\t0\tchr2\t4981\t60\t40M10D10M\t*\t0\t0\t{seq}\t{q}"), false),
            // `QUAL` is as long as `SEQ`: `*` on a mapped and on an unmapped
            // read, which is fine only with `SEQ` `*` too.
            (format!("h\t0\tchr1\t101\t60\t50M\t*\t0\t0\t{seq}\t*"), false),
            (format!("h\t4\t*\t0\t0\t*\t*\t0\t0\t{seq}\t*"), false),
            ("h\t4\t*\t0\t0\t*\t*\t0\t0\t*\t*".into(), true),
            // A mapped read has bases, a CIGAR, and a contig.
            ("h\t0\tchr1\t101\t60\t50M\t*\t0\t0\t*\t*".into(), false),
            (format!("h\t0\tchr1\t101\t60\t*\t*\t0\t0\t{seq}\t{q}"), false),
            (format!("h\t0\t*\t101\t60\t50M\t*\t0\t0\t{seq}\t{q}"), false),
            // Its CIGAR consumes exactly `SEQ`: 80 and 80 read bases against
            // 50, and 49.
            (format!("h\t0\tchr1\t101\t60\t80M\t*\t0\t0\t{seq}\t{q}"), false),
            (format!("h\t16\tchr1\t101\t60\t10S60M10I\t*\t0\t0\t{seq}\t{q}"), false),
            (format!("h\t0\tchr1\t101\t60\t49M\t*\t0\t0\t{seq}\t{q}"), false),
            // Quality bytes below `!` and above `~`, and a base outside
            // `{A,C,G,T,N}`.
            (format!("h\t0\tchr1\t101\t60\t50M\t*\t0\t0\t{seq}\t{}", " ".repeat(50)), false),
            (format!("h\t0\tchr1\t101\t60\t50M\t*\t0\t0\t{seq}\t{}\x7f", "E".repeat(49)), false),
            (format!("h\t4\t*\t0\t0\t*\t*\t0\t0\ta{}\t{q}", &seq[1..]), false),
        ];
        for (i, (row, ok)) in rows.iter().enumerate() {
            let goods = format!("{good}\n").repeat(i + 1);
            match parse_sam(&format!("{header}{goods}{row}\n{good}\n")) {
                Ok((_, records)) => assert!(*ok && records.len() == i + 3, "{row}"),
                Err(e) => assert!(
                    !ok && matches!(e, FormatError::Sam { line, .. } if line == 6 + i),
                    "{row}: {e}"
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
