//! The seed whole-record MarkDuplicate, kept as the executable oracle.
//!
//! What `gpf_cleaner::mark_duplicates` was before MarkDuplicate learned to
//! exchange fragment signatures: one pass over a whole record slice that
//! groups records into fragments by name, fragments into duplicate sets by
//! the two unclipped 5' ends, keeps the best-quality fragment of each set
//! (ties by name) and sets or clears 0x400 on every participating record.
//! It lives under `tests/` only, so the library carries one decision
//! function and `markdup_battery.rs` holds it — called on a slice or spread
//! over an engine — to this.

use gpf_formats::sam::{SamFlags, SamRecord};
use std::collections::{HashMap, HashSet};

/// `(fragments, duplicate fragments, duplicate records)`.
pub type OracleStats = (usize, usize, usize);

type FragmentKey = (u32, i64, bool, u32, i64, bool);

fn fragment_key(r: &SamRecord) -> FragmentKey {
    let own = (r.contig, r.unclipped_5prime(), r.flags.is_reverse());
    let mate = (r.mate_contig, r.mate_pos as i64, r.flags.has(SamFlags::MATE_REVERSE));
    if own <= mate {
        (own.0, own.1, own.2, mate.0, mate.1, mate.2)
    } else {
        (mate.0, mate.1, mate.2, own.0, own.1, own.2)
    }
}

pub fn mark_duplicates_oracle(records: &mut [SamRecord]) -> OracleStats {
    let mut fragments: HashMap<&str, (FragmentKey, u64)> = HashMap::new();
    for r in records.iter() {
        if !r.flags.is_mapped() || !r.flags.is_primary() {
            continue;
        }
        let entry = fragments.entry(r.name.as_str()).or_insert_with(|| (fragment_key(r), 0));
        entry.1 += r.quality_sum();
    }

    let mut groups: HashMap<FragmentKey, Vec<(&str, u64)>> = HashMap::new();
    for (name, (key, qual)) in &fragments {
        groups.entry(*key).or_default().push((name, *qual));
    }
    let mut stats = (fragments.len(), 0, 0);
    let mut dup_names: HashSet<String> = HashSet::new();
    for (_, mut members) in groups {
        if members.len() < 2 {
            continue;
        }
        members.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        for (name, _) in &members[1..] {
            dup_names.insert((*name).to_string());
            stats.1 += 1;
        }
    }

    for r in records.iter_mut() {
        if !r.flags.is_mapped() || !r.flags.is_primary() {
            continue;
        }
        if dup_names.contains(&r.name) {
            r.flags.set(SamFlags::DUPLICATE);
            stats.2 += 1;
        } else {
            r.flags.clear(SamFlags::DUPLICATE);
        }
    }
    stats
}
