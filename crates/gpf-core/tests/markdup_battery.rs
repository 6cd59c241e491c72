//! MarkDuplicate battery: `MarkDuplicateProcess` spread over an engine, and
//! `mark_duplicates` called on a whole slice, against the seed whole-record
//! implementation in `markdup_oracle/`.
//!
//! Read sets are random: fragments with both mates, single-end fragments,
//! duplicate fragments (some at equal quality, so the name breaks the tie)
//! dealt across input partitions, cross-contig mates, unmapped reads,
//! secondary and supplementary copies of participating reads, and input
//! records that already carry 0x400. Every cell — 1 and many partitions ×
//! the three serializer kinds × faults off / a seeded plan × no budget / a
//! quarter of the input's footprint — must leave every record in the
//! partition and place it came in, with exactly the flags the oracle gives
//! it over the collected whole.
//!
//! Reads are generated where co-location is exact (the leftmost end of a
//! fragment is never soft-clipped and mates do not overlap), so "duplicates
//! share a partition" holds and the distributed answer is the whole-slice
//! one; DESIGN.md records what the co-location key approximates otherwise.

mod markdup_oracle;

use gpf_cleaner::mark_duplicates;
use gpf_compress::GpfSerialize;
use gpf_core::prelude::*;
use gpf_core::Process;
use gpf_engine::{Dataset, EngineConfig, EngineContext, FaultPlan};
use gpf_formats::sam::{SamFlags, SamHeaderInfo, SamRecord, NO_CONTIG};
use gpf_formats::{Cigar, ContigDict};
use gpf_support::rng::SplitMix64;
use markdup_oracle::mark_duplicates_oracle;
use std::sync::Arc;

const READ_LEN: usize = 24;

struct Gen {
    rng: SplitMix64,
    out: Vec<SamRecord>,
}

impl Gen {
    fn below(&mut self, n: u64) -> u64 {
        self.rng.next_u64() % n
    }

    /// One record; `tlen` is its serial number, which the oracle's verdict
    /// over the collected whole is looked up by.
    fn push(&mut self, name: &str, flags: u16, own: (u32, u64), mate: (u32, u64), cigar: &str, qual: u8) {
        let serial = self.out.len() as i64;
        self.out.push(SamRecord {
            name: name.to_string(),
            flags: SamFlags(flags),
            contig: own.0,
            pos: own.1,
            mapq: 60,
            cigar: Cigar::parse(cigar).expect("battery CIGARs are literals"),
            mate_contig: mate.0,
            mate_pos: mate.1,
            tlen: serial,
            seq: (0..READ_LEN).map(|i| b"ACGT"[(serial as usize + i) % 4]).collect(),
            qual: vec![qual; READ_LEN],
            read_group: 1,
            edit_distance: 0,
        });
    }

    /// Both mates of a forward/reverse fragment. The clips are the harmless
    /// ones: trailing on the forward mate, leading on the reverse mate —
    /// neither moves an unclipped 5' end.
    fn pair(&mut self, name: &str, left: (u32, u64), right: (u32, u64), qual: u8, pre_flagged: bool) {
        let dup = if pre_flagged { SamFlags::DUPLICATE } else { 0 };
        let fwd = SamFlags::PAIRED | SamFlags::MATE_REVERSE | SamFlags::FIRST_IN_PAIR | dup;
        let rev = SamFlags::PAIRED | SamFlags::REVERSE | SamFlags::SECOND_IN_PAIR | dup;
        let (fwd_cigar, rev_cigar) = match self.below(3) {
            0 => ("24M", "24M"),
            1 => ("20M4S", "24M"),
            _ => ("24M", "4S20M"),
        };
        self.push(name, fwd, left, right, fwd_cigar, qual);
        self.push(name, rev, right, left, rev_cigar, qual);
    }
}

/// A read set of `sites` duplicate sites, dealt into `nparts` partitions by
/// a seeded shuffle of the record order (so mates and duplicates of one
/// site sit in different input partitions).
fn read_set(seed: u64, sites: usize, nparts: usize) -> Vec<Vec<SamRecord>> {
    let mut g = Gen { rng: SplitMix64::new(seed), out: Vec::new() };
    for s in 0..sites {
        let contig = g.below(2) as u32;
        // Sites are 400 apart and a fragment spans under 300, so distinct
        // sites never share an end; mates are at least 3 reads apart.
        let left = (contig, 1000 + 400 * s as u64);
        let right = match g.below(8) {
            0 => (1 - contig, left.1 + 7),
            _ => (contig, left.1 + 3 * READ_LEN as u64 + g.below(200)),
        };
        let copies = 1 + g.below(4) as usize;
        // Two quality levels only: ties are common and the name decides.
        let quals: Vec<u8> = (0..copies).map(|_| b'5' + 10 * g.below(2) as u8).collect();
        match g.below(5) {
            // Single-end fragments: no mate.
            0 => {
                for (c, &q) in quals.iter().enumerate() {
                    let pre = if g.below(4) == 0 { SamFlags::DUPLICATE } else { 0 };
                    g.push(&format!("s{s}.{c}"), pre, left, (NO_CONTIG, 0), "24M", q);
                }
            }
            _ => {
                for (c, &q) in quals.iter().enumerate() {
                    let pre_flagged = g.below(4) == 0;
                    g.pair(&format!("f{s}.{c}"), left, right, q, pre_flagged);
                }
            }
        }
        // Records that never participate, some already flagged: a
        // secondary and a supplementary copy of the site's first read, an
        // unmapped read placed with its mate, a wholly unplaced one.
        match g.below(6) {
            0 => {
                let name = g.out.last().expect("a site pushed records").name.clone();
                g.push(&name, SamFlags::SECONDARY | SamFlags::DUPLICATE, left, right, "24M", b'I');
                g.push(&name, SamFlags::SUPPLEMENTARY, (contig, left.1 + 5), right, "12M12S", b'I');
            }
            1 => g.push(
                &format!("u{s}"),
                SamFlags::PAIRED | SamFlags::UNMAPPED | SamFlags::DUPLICATE,
                left,
                left,
                "*",
                b'#',
            ),
            2 => {
                let mut r = SamRecord::unmapped(format!("n{s}"), vec![b'A'; READ_LEN], vec![b'#'; READ_LEN]);
                r.tlen = g.out.len() as i64;
                g.out.push(r);
            }
            _ => {}
        }
    }
    // Fisher–Yates, then deal round-robin.
    let mut records = std::mem::take(&mut g.out);
    for i in (1..records.len()).rev() {
        records.swap(i, g.below(i as u64 + 1) as usize);
    }
    let mut parts: Vec<Vec<SamRecord>> = vec![Vec::new(); nparts];
    for (i, r) in records.into_iter().enumerate() {
        parts[i % nparts].push(r);
    }
    parts
}

fn serial(r: &SamRecord) -> usize {
    r.tlen as usize
}

/// The oracle's flags over the collected whole, indexed by serial number.
fn oracle_flags(input: &[Vec<SamRecord>]) -> Vec<SamFlags> {
    let mut whole: Vec<SamRecord> = input.concat();
    let stats = mark_duplicates_oracle(&mut whole);
    assert!(stats.1 > 0 && stats.1 < stats.0, "a read set must hold duplicates and survivors: {stats:?}");
    let mut flags = vec![SamFlags::default(); whole.len()];
    for r in &whole {
        flags[serial(r)] = r.flags;
    }
    flags
}

/// Run `MarkDuplicateProcess` over `input` on a fresh context and return its
/// output partitions.
fn run_process(cfg: EngineConfig, input: &[Vec<SamRecord>], cell: &str) -> Vec<Vec<SamRecord>> {
    let (budgeted, faulted) = (cfg.memory_budget.is_some(), cfg.faults.is_some());
    let ctx = EngineContext::new(cfg);
    let ds = Dataset::from_partitions(Arc::clone(&ctx), input.to_vec());
    let ds = if budgeted { ds.evictable() } else { ds };
    assert_eq!(ds.spilled_partitions() > 0, budgeted, "[{cell}] the quarter budget (and only it) must force spills");
    let header = SamHeaderInfo::unsorted_header(ContigDict::from_pairs([("chr1", 1 << 20), ("chr2", 1 << 20)]));
    let aligned = SamBundle::defined("alignedSam", header.clone(), ds);
    let deduped = SamBundle::undefined("dedupedSam", header);
    MarkDuplicateProcess::new("MarkDuplicate", aligned, Arc::clone(&deduped)).execute(&ctx);
    assert_eq!(ctx.take_failure(), None, "[{cell}] a feasible budget breached or in-budget faults did not recover");
    let (_, trace) = ctx.take_run_traced();
    let injected = trace.events.iter().any(|ev| &*ev.name == "fault.injected");
    // One input partition is a handful of tasks: too few for the plan to
    // be sure to hit one.
    assert!(injected == faulted || (faulted && input.len() == 1), "[{cell}] the seeded plan (and only it) must inject");
    let out = deduped.dataset();
    let all = out.collect_local();
    let mut at = 0usize;
    out.partition_sizes()
        .into_iter()
        .map(|n| {
            at += n;
            all[at - n..at].to_vec()
        })
        .collect()
}

/// Every record where it was — same partition, same place — and nothing
/// about it changed but 0x400, which is the oracle's.
fn assert_flags(cell: &str, got: &[Vec<SamRecord>], input: &[Vec<SamRecord>], want: &[SamFlags]) {
    assert_eq!(got.len(), input.len(), "[{cell}] partition count");
    for (p, (got, input)) in got.iter().zip(input).enumerate() {
        assert_eq!(got.len(), input.len(), "[{cell}] partition {p} gained or lost records");
        for (g, i) in got.iter().zip(input) {
            let mut expected = i.clone();
            expected.flags = want[serial(i)];
            assert!(*g == expected, "[{cell}] partition {p}: {g:?}, expected {expected:?}");
        }
    }
}

#[test]
fn whole_slice_mark_duplicates_is_the_oracle() {
    for seed in 0..8u64 {
        let input = read_set(seed, 60, 1);
        let mut got = input[0].clone();
        let mut want = input[0].clone();
        let stats = mark_duplicates(&mut got);
        let oracle = mark_duplicates_oracle(&mut want);
        assert_eq!((stats.fragments, stats.duplicate_fragments, stats.duplicate_records), oracle, "seed {seed}");
        assert!(got == want, "seed {seed}: flags diverged from the oracle");
    }
}

#[test]
fn the_process_flags_every_record_as_the_oracle_does_over_the_whole() {
    let configs = [EngineConfig::java(), EngineConfig::kryo(), EngineConfig::gpf()];
    for (nparts, sites) in [(1usize, 40usize), (12, 160)] {
        let input = read_set(0x2018 + nparts as u64, sites, nparts);
        let want = oracle_flags(&input);
        let footprint: u64 = input.iter().map(|p| p.resident_bytes() as u64).sum();
        for base in &configs {
            let kind = base.serializer;
            for plan in [None, Some(FaultPlan::seeded(0xd0b1e, 100))] {
                // One partition is one whole-partition restore: only the
                // many-partition geometry has a quarter budget that fits.
                let budgets: &[Option<u64>] = if nparts == 1 { &[None] } else { &[None, Some(footprint / 4)] };
                for &budget in budgets {
                    let cell = format!("{nparts} parts, {kind:?}, faults {}, budget {budget:?}", plan.is_some());
                    let mut cfg = base.clone().with_parallelism(nparts);
                    if let Some(plan) = &plan {
                        cfg = cfg.with_faults(plan.clone());
                    }
                    if let Some(bytes) = budget {
                        cfg = cfg.with_memory_budget(bytes);
                    }
                    let got = run_process(cfg, &input, &cell);
                    assert_flags(&cell, &got, &input, &want);
                }
            }
        }
    }
}
