//! VCF records — called variants (the Caller stage's output) and known-site
//! databases (dbSNP analogue consumed by BQSR and IndelRealignment).

use crate::error::FormatError;
use crate::genome::ContigDict;
use std::fmt::Write as _;

/// Diploid genotype call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Genotype {
    /// `0/1` — one ref allele, one alt allele.
    Het,
    /// `1/1` — two alt alleles.
    HomAlt,
    /// `0/0` — two ref alleles (normally not emitted, but appears in GVCF
    /// reference blocks).
    HomRef,
}

impl Genotype {
    /// VCF `GT` field text.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            Genotype::Het => "0/1",
            Genotype::HomAlt => "1/1",
            Genotype::HomRef => "0/0",
        }
    }

    /// Parse a `GT` field (accepts `|` or `/` separators).
    pub(crate) fn parse(s: &str) -> Option<Self> {
        match s.replace('|', "/").as_str() {
            "0/1" | "1/0" => Some(Genotype::Het),
            "1/1" => Some(Genotype::HomAlt),
            "0/0" => Some(Genotype::HomRef),
            _ => None,
        }
    }
}

/// One VCF data line.
#[derive(Debug, Clone, PartialEq)]
pub struct VcfRecord {
    /// Contig id resolved through the dictionary.
    pub contig: u32,
    /// 0-based position (VCF POS − 1).
    pub pos: u64,
    /// Reference allele.
    pub ref_allele: Vec<u8>,
    /// Alternate allele (single-alt records only in this reproduction).
    pub alt_allele: Vec<u8>,
    /// Variant quality (Phred-scaled).
    pub qual: f64,
    /// Genotype call.
    pub genotype: Genotype,
    /// Read depth at the site.
    pub depth: u32,
}

impl VcfRecord {
    /// `true` for single-nucleotide variants.
    pub fn is_snv(&self) -> bool {
        self.ref_allele.len() == 1 && self.alt_allele.len() == 1
    }

    /// Render as one VCF data line.
    pub(crate) fn to_vcf_line(&self, dict: &ContigDict) -> String {
        format!(
            "{}\t{}\t.\t{}\t{}\t{:.2}\tPASS\tDP={}\tGT\t{}",
            dict.name_of(self.contig),
            self.pos + 1,
            String::from_utf8_lossy(&self.ref_allele),
            String::from_utf8_lossy(&self.alt_allele),
            self.qual,
            self.depth,
            self.genotype.as_str(),
        )
    }

    /// Parse one VCF data line.
    pub(crate) fn parse_vcf_line(line: &str, dict: &ContigDict, lineno: usize) -> Result<Self, FormatError> {
        let fields: Vec<&str> = line.split('\t').collect();
        if fields.len() < 8 {
            return Err(FormatError::Vcf {
                line: lineno,
                msg: format!("expected ≥8 fields, found {}", fields.len()),
            });
        }
        let err = |msg: String| FormatError::Vcf { line: lineno, msg };
        let contig = dict.require_id(fields[0])?;
        let pos1: u64 = fields[1].parse().map_err(|e| err(format!("bad POS: {e}")))?;
        if pos1 == 0 {
            return Err(err("POS must be ≥ 1".into()));
        }
        let qual: f64 = if fields[5] == "." {
            0.0
        } else {
            fields[5].parse().map_err(|e| err(format!("bad QUAL: {e}")))?
        };
        let mut depth = 0;
        for kv in fields[7].split(';') {
            if let Some(v) = kv.strip_prefix("DP=") {
                depth = v.parse().map_err(|e| err(format!("bad DP: {e}")))?;
            }
        }
        let genotype = fields
            .get(9)
            .and_then(|gt| Genotype::parse(gt.split(':').next().unwrap_or("")))
            .unwrap_or(Genotype::Het);
        Ok(Self {
            contig,
            pos: pos1 - 1,
            ref_allele: fields[3].as_bytes().to_vec(),
            alt_allele: fields[4].as_bytes().to_vec(),
            qual,
            genotype,
            depth,
        })
    }
}

/// VCF header metadata — the paper's `VcfHeaderInfo`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct VcfHeaderInfo {
    /// Contig dictionary (`##contig` lines).
    pub dict: ContigDict,
    /// Sample names on the `#CHROM` line.
    pub samples: Vec<String>,
}

impl VcfHeaderInfo {
    /// Build a header — the paper's `VcfHeaderInfo.newHeader(refContigInfo, List())`.
    pub fn new_header(dict: ContigDict, samples: Vec<String>) -> Self {
        Self { dict, samples }
    }

    /// Render the header text.
    pub(crate) fn to_vcf_string(&self) -> String {
        let mut s = String::from("##fileformat=VCFv4.2\n");
        for c in self.dict.iter() {
            let _ = writeln!(s, "##contig=<ID={},length={}>", c.name, c.length);
        }
        s.push_str("##INFO=<ID=DP,Number=1,Type=Integer,Description=\"Total Depth\">\n");
        s.push_str("##FORMAT=<ID=GT,Number=1,Type=String,Description=\"Genotype\">\n");
        s.push_str("#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT");
        if self.samples.is_empty() {
            s.push_str("\tsample");
        } else {
            for sm in &self.samples {
                s.push('\t');
                s.push_str(sm);
            }
        }
        s.push('\n');
        s
    }
}

/// Render header + records as full VCF text.
pub fn format_vcf(header: &VcfHeaderInfo, records: &[VcfRecord]) -> String {
    let mut s = header.to_vcf_string();
    for r in records {
        s.push_str(&r.to_vcf_line(&header.dict));
        s.push('\n');
    }
    s
}

/// Parse full VCF text. The contig dictionary is taken from `##contig` lines.
pub fn parse_vcf(text: &str) -> Result<(VcfHeaderInfo, Vec<VcfRecord>), FormatError> {
    let mut dict = ContigDict::new();
    let mut samples = Vec::new();
    let mut records = Vec::new();
    for (lineno0, line) in text.lines().enumerate() {
        let lineno = lineno0 + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(meta) = line.strip_prefix("##") {
            if let Some(body) = meta.strip_prefix("contig=<") {
                let body = body.trim_end_matches('>');
                let mut id = None;
                let mut len = None;
                for kv in body.split(',') {
                    if let Some(v) = kv.strip_prefix("ID=") {
                        id = Some(v.to_string());
                    } else if let Some(v) = kv.strip_prefix("length=") {
                        len = v.parse::<u64>().ok();
                    }
                }
                if let (Some(n), Some(l)) = (id, len) {
                    dict.push(n, l);
                }
            }
            continue;
        }
        if let Some(hdr) = line.strip_prefix('#') {
            samples = hdr.split('\t').skip(9).map(|s| s.to_string()).collect();
            continue;
        }
        records.push(VcfRecord::parse_vcf_line(line, &dict, lineno)?);
    }
    Ok((VcfHeaderInfo { dict, samples }, records))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dict() -> ContigDict {
        ContigDict::from_pairs([("chr1", 10_000u64)])
    }

    fn snv() -> VcfRecord {
        VcfRecord {
            contig: 0,
            pos: 99,
            ref_allele: b"A".to_vec(),
            alt_allele: b"G".to_vec(),
            qual: 54.25,
            genotype: Genotype::Het,
            depth: 31,
        }
    }

    #[test]
    fn line_round_trip() {
        let d = dict();
        let r = snv();
        let line = r.to_vcf_line(&d);
        let r2 = VcfRecord::parse_vcf_line(&line, &d, 1).unwrap();
        assert_eq!(r, r2);
    }

    #[test]
    fn full_vcf_round_trip() {
        let header = VcfHeaderInfo::new_header(dict(), vec!["NA12878".into()]);
        let records = vec![
            snv(),
            VcfRecord {
                contig: 0,
                pos: 200,
                ref_allele: b"AT".to_vec(),
                alt_allele: b"A".to_vec(),
                qual: 99.0,
                genotype: Genotype::HomAlt,
                depth: 18,
            },
        ];
        let text = format_vcf(&header, &records);
        let (h2, r2) = parse_vcf(&text).unwrap();
        assert_eq!(h2.dict, header.dict);
        assert_eq!(h2.samples, vec!["NA12878".to_string()]);
        assert_eq!(r2, records);
    }

    #[test]
    fn snv_vs_indel_classification() {
        assert!(snv().is_snv());
        let del = VcfRecord { ref_allele: b"AT".to_vec(), ..snv() };
        assert!(!del.is_snv());
    }

    #[test]
    fn genotype_parse_variants() {
        assert_eq!(Genotype::parse("0/1"), Some(Genotype::Het));
        assert_eq!(Genotype::parse("1|0"), Some(Genotype::Het));
        assert_eq!(Genotype::parse("1/1"), Some(Genotype::HomAlt));
        assert_eq!(Genotype::parse("./."), None);
    }

    #[test]
    fn rejects_pos_zero_and_short_lines() {
        let d = dict();
        assert!(VcfRecord::parse_vcf_line("chr1\t0\t.\tA\tG\t50\tPASS\tDP=5", &d, 1).is_err());
        assert!(VcfRecord::parse_vcf_line("chr1\t5", &d, 1).is_err());
    }

    #[test]
    fn qual_dot_is_zero() {
        let d = dict();
        let r = VcfRecord::parse_vcf_line("chr1\t10\t.\tA\tG\t.\tPASS\tDP=5", &d, 1).unwrap();
        assert_eq!(r.qual, 0.0);
    }

    #[test]
    fn unknown_contig_rejected() {
        let d = dict();
        assert!(VcfRecord::parse_vcf_line("chrZ\t10\t.\tA\tG\t9\tPASS\tDP=5", &d, 1).is_err());
    }
}
