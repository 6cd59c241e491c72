//! The layer walk — the traced run. Single-threaded calls into each
//! layer's public functions on `wgs-full`'s inputs, in pipeline order (so
//! every layer sees the data the layer before it produced), each wrapped
//! in a benchmark-side span. Kernel rates use workload-derived inputs and
//! pass inputs and results through `black_box`.

use crate::gen;
use crate::record::Record;
use crate::span::{self_time_ns, to_chrome_json, Recorder};
use crate::workload::{Workload, WORKLOADS};
use gpf_align::{myers, sw, AlignerOptions, BwaMemAligner};
use gpf_caller::pairhmm::{HmmParams, PairHmmBatch};
use gpf_caller::HaplotypeCaller;
use gpf_cleaner::bqsr::known_sites_mask;
use gpf_cleaner::{
    apply_recalibration, coordinate_sort, find_realign_intervals, mark_duplicates,
    realign_interval, RecalTable,
};
use gpf_compress::serializer::{deserialize_batch, serialize_batch, SerializerKind};
use gpf_compress::GpfSerialize;
use gpf_core::process::{build_bundles, route_record, RegionBundle};
use gpf_core::PartitionInfo;
use gpf_engine::{Dataset, EngineConfig, EngineContext};
use gpf_formats::base::rank4;
use gpf_formats::fastq::{pair_up, parse_fastq, FastqPair};
use gpf_formats::sam::{format_sam, parse_sam, SamHeaderInfo, SamRecord};
use gpf_formats::vcf::{format_vcf, parse_vcf, VcfHeaderInfo, VcfRecord};
use gpf_formats::{GenomeInterval, ReferenceGenome};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;

/// Reads sampled for each kernel loop: enough work for a steady rate,
/// little enough that the walk stays a few seconds.
const KERNEL_READS: usize = 4000;
const PAIRHMM_READS: usize = 1000;
/// Reference bases either side of a read's placement in the kernel
/// windows (`AlignerOptions::window_pad`'s default).
const WINDOW_PAD: u64 = 24;
/// Edit cutoff handed to the Myers kernel.
const MYERS_K: u32 = 8;

/// The spans whose sum is `walk.sum_s`: each pipeline stage's kernel, run
/// once, bare, on one thread.
const PIPELINE_SPANS: [&str; 8] = [
    "formats.fastq_parse",
    "align.pairs",
    "cleaner.markdup",
    "cleaner.realign",
    "cleaner.bqsr",
    "cleaner.sort",
    "caller.call",
    "formats.vcf_write",
];

fn mb(bytes: usize) -> f64 {
    bytes as f64 / (1u64 << 20) as f64
}

/// The first genome's files, read and parsed before the first span opens.
struct Inputs {
    reference: Arc<ReferenceGenome>,
    known: Vec<VcfRecord>,
    fq1: String,
    fq2: String,
    sam_text: String,
}

/// Run the walk on the inputs in `dir`; write the trace to `trace_path`.
pub fn run(dir: &Path, trace_path: &Path) -> Result<Record, String> {
    let read = |name: &str| {
        std::fs::read_to_string(dir.join(name))
            .map_err(|e| format!("{}: {e}", dir.join(name).display()))
    };
    let inputs = Inputs {
        reference: Arc::new(
            ReferenceGenome::parse_fasta(&read(gen::REFERENCE)?).map_err(|e| e.to_string())?,
        ),
        known: parse_vcf(&read(gen::KNOWN)?).map_err(|e| e.to_string())?.1,
        fq1: read(gen::READS_1)?,
        fq2: read(gen::READS_2)?,
        sam_text: read(gen::ALIGNED)?,
    };

    let mut rec = Recorder::new();
    let mut out = Record::default();
    rec.scope("walk", |rec| walk(rec, &mut out, &WORKLOADS[0], &inputs))?;

    let spans = rec.spans();
    let sum_s: f64 = PIPELINE_SPANS.iter().map(|name| rec.seconds(name)).sum();
    // Time inside the walk that no layer call covers: the self time of the
    // root and of each group span (input preparation between kernels).
    let unattributed_ns: u64 = (0..spans.len())
        .filter(|&id| spans.iter().any(|s| s.parent == Some(id)))
        .map(|id| self_time_ns(spans, id))
        .sum();
    out.num("walk.sum_s", sum_s);
    out.num("walk.unattributed_s", unattributed_ns as f64 * 1e-9);
    std::fs::write(trace_path, to_chrome_json(spans))
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    Ok(out)
}

/// `w` gives the partition geometry (`wgs-full`'s).
fn walk(rec: &mut Recorder, out: &mut Record, w: &Workload, inputs: &Inputs) -> Result<(), String> {
    let Inputs { reference, known, fq1, fq2, sam_text } = inputs;
    let dict = reference.dict().clone();
    let sam_header = SamHeaderInfo::unsorted_header(dict.clone());

    // ---- gpf-formats ------------------------------------------------
    let (pairs, from_sam) = rec.scope("formats", |rec| -> Result<_, String> {
        let pairs = rec.scope("formats.fastq_parse", |_| -> Result<Vec<FastqPair>, String> {
            let r1 = parse_fastq(black_box(fq1)).map_err(|e| e.to_string())?;
            let r2 = parse_fastq(black_box(fq2)).map_err(|e| e.to_string())?;
            pair_up(r1, r2).map_err(|e| e.to_string())
        })?;
        let (_, from_sam) = rec
            .scope("formats.sam_parse", |_| parse_sam(black_box(sam_text)))
            .map_err(|e| e.to_string())?;
        let written =
            rec.scope("formats.sam_write", |_| format_sam(&sam_header, black_box(&from_sam)));
        if written != *sam_text {
            return Err("format_sam(parse_sam(aligned.sam)) does not reproduce aligned.sam".into());
        }
        Ok((pairs, from_sam))
    })?;
    out.num(
        "formats.fastq_parse_mb_s",
        mb(fq1.len() + fq2.len()) / rec.seconds("formats.fastq_parse"),
    );
    out.num("formats.sam_parse_mb_s", mb(sam_text.len()) / rec.seconds("formats.sam_parse"));
    out.num("formats.sam_write_mb_s", mb(sam_text.len()) / rec.seconds("formats.sam_write"));

    // ---- gpf-align --------------------------------------------------
    let aligned: Vec<SamRecord> = rec.scope("align", |rec| {
        let aligner = rec.scope("align.index_build", |_| BwaMemAligner::new(black_box(reference)));
        let aligned: Vec<SamRecord> = rec.scope("align.pairs", |_| {
            pairs
                .iter()
                .flat_map(|p| {
                    let (a, b) = aligner.align_pair(black_box(p));
                    [a, b]
                })
                .collect()
        });

        // Kernel inputs: each sampled read against the reference window of
        // its own placement, as `BwaMemAligner::extend` builds it.
        let index = aligner.index();
        let sampled: Vec<(Vec<u8>, &[u8], usize)> = aligned
            .iter()
            .filter(|r| r.flags.is_mapped())
            .take(KERNEL_READS)
            .map(|r| {
                let start = r.pos.saturating_sub(WINDOW_PAD);
                let end = (r.pos + r.seq.len() as u64 + WINDOW_PAD).min(index.contig_len(r.contig));
                let window = index.contig_window(GenomeInterval::new(r.contig, start, end));
                (r.seq.iter().map(|&b| rank4(b)).collect(), window, (r.pos - start) as usize)
            })
            .collect();
        let seed_len = AlignerOptions::default().seed_len;
        let finds = rec.scope("align.fm_find", |_| {
            let mut finds = 0u64;
            for p in pairs.iter().take(KERNEL_READS / 2) {
                for seq in [&p.r1.seq, &p.r2.seq] {
                    for seed in seq.chunks_exact(seed_len) {
                        black_box(index.find(black_box(seed), 16));
                        finds += 1;
                    }
                }
            }
            finds
        });
        let cells = |read_len: usize, window_len: usize| (read_len * window_len) as f64 / 1e6;
        let myers_mcells = rec.scope("align.myers", |_| {
            sampled
                .iter()
                .map(|(read, window, _)| {
                    black_box(myers::fitting_distance(black_box(read), black_box(window), MYERS_K));
                    cells(read.len(), window.len())
                })
                .sum::<f64>()
        });
        let scoring = sw::Scoring::default();
        let sw_mcells = rec.scope("align.sw", |_| {
            sampled
                .iter()
                .map(|(read, window, diag)| {
                    black_box(sw::fit_align(black_box(read), black_box(window), *diag, &scoring));
                    // The band the kernel evaluates, not the full matrix.
                    cells(read.len() + 1, (2 * scoring.band + 1).min(window.len() + 1))
                })
                .sum::<f64>()
        });
        out.num("align.fm_find_per_s", finds as f64 / rec.seconds("align.fm_find"));
        out.num("align.myers_mcells_s", myers_mcells / rec.seconds("align.myers"));
        out.num("align.sw_mcells_s", sw_mcells / rec.seconds("align.sw"));
        aligned
    });
    out.num("align.index_build_s", rec.seconds("align.index_build"));
    out.num("align.busy_s", rec.seconds("align.pairs"));
    out.num("align.pairs_per_s", pairs.len() as f64 / rec.seconds("align.pairs"));
    let mapped = aligned.iter().filter(|r| r.flags.is_mapped()).count();
    out.num("align.mapped_fraction", mapped as f64 / aligned.len().max(1) as f64);
    if aligned != from_sam {
        return Err("the walk's alignments differ from aligned.sam".into());
    }
    drop(from_sam);

    // ---- gpf-compress -----------------------------------------------
    rec.scope("compress", |rec| -> Result<(), String> {
        codec_round_trip(rec, out, "sam", &aligned, sam_text.len())?;
        codec_round_trip(rec, out, "fastq", &pairs, fq1.len() + fq2.len())
    })?;
    drop(pairs);

    // ---- gpf-engine (on the pool) -------------------------------------
    let info = PartitionInfo::new(&dict.lengths(), w.region_len);
    let n_regions = info.num_partitions() as usize;
    let ctx = EngineContext::new(EngineConfig::gpf().with_parallelism(w.input_parts));
    rec.scope("engine", |rec| {
        let by_locus = Dataset::from_vec(Arc::clone(&ctx), aligned.clone(), w.input_parts);
        let keyed = by_locus.map(|r| ((r.contig as u64) << 40 | r.pos, r.clone()));
        let info_s = info.clone();
        let shuffled = rec.scope("engine.shuffle", |_| {
            by_locus.into_partition_by(n_regions, move |r| route_record(r, &info_s) as usize)
        });
        let sorted = rec.scope("engine.sort", |_| keyed.sort_by_key(n_regions));
        black_box((shuffled.len(), sorted.len()));
    });
    out.num("engine.shuffle_records_per_s", aligned.len() as f64 / rec.seconds("engine.shuffle"));
    out.num("engine.sort_records_per_s", aligned.len() as f64 / rec.seconds("engine.sort"));

    // ---- gpf-cleaner --------------------------------------------------
    let n_records = aligned.len();
    let bundles: Vec<RegionBundle> = rec.scope("cleaner", |rec| {
        let mut records = aligned;
        let stats = rec.scope("cleaner.markdup", |_| mark_duplicates(black_box(&mut records)));
        out.num("cleaner.dup_fraction", stats.duplicate_records as f64 / n_records.max(1) as f64);

        // Region bundles as the fused pipeline builds them (reads, known
        // sites and reference slice per region); not a cleaner kernel, so
        // its time lands in the group span's self time.
        let sams = Dataset::from_vec(Arc::clone(&ctx), records, w.input_parts);
        let known_ds = Dataset::from_vec(Arc::clone(&ctx), known.clone(), w.input_parts);
        let mut bundles =
            build_bundles(&ctx, reference, &info, &sams, Some(&known_ds)).collect_local();

        rec.scope("cleaner.realign", |_| {
            for b in &mut bundles {
                for iv in find_realign_intervals(&b.sams, &b.vcfs, reference) {
                    black_box(realign_interval(&mut b.sams, reference, &iv, &b.vcfs));
                }
            }
        });
        rec.scope("cleaner.bqsr", |_| {
            let mut table = RecalTable::default();
            for b in &bundles {
                let mask = known_sites_mask(&b.vcfs);
                let mut t = RecalTable::default();
                for r in &b.sams {
                    t.observe(r, reference, &mask);
                }
                table.merge(&t);
            }
            for b in &mut bundles {
                apply_recalibration(black_box(&mut b.sams), &table);
            }
        });
        rec.scope("cleaner.sort", |_| {
            for b in &mut bundles {
                coordinate_sort(black_box(&mut b.sams));
            }
        });
        bundles
    });
    out.num("cleaner.markdup_records_per_s", n_records as f64 / rec.seconds("cleaner.markdup"));
    out.num("cleaner.sort_records_per_s", n_records as f64 / rec.seconds("cleaner.sort"));
    out.num("cleaner.realign_s", rec.seconds("cleaner.realign"));
    out.num("cleaner.bqsr_s", rec.seconds("cleaner.bqsr"));

    // ---- gpf-caller ---------------------------------------------------
    let calls: Vec<VcfRecord> = rec.scope("caller", |rec| {
        let calls = rec.scope("caller.call", |_| {
            let caller = HaplotypeCaller::default();
            let mut calls = Vec::new();
            for b in &bundles {
                let mut region_calls = caller.call(black_box(&b.sams), reference);
                region_calls.retain(|v| {
                    v.contig == b.region.contig && v.pos >= b.region.start && v.pos < b.region.end
                });
                calls.extend(region_calls);
            }
            calls
        });

        // Pair-HMM inputs: each sampled read against the reference window
        // of its placement and that window with its middle base changed.
        let hmm_inputs: Vec<(&SamRecord, [Vec<u8>; 2])> = bundles
            .iter()
            .flat_map(|b| &b.sams)
            .filter(|r| r.flags.is_mapped())
            .take(PAIRHMM_READS)
            .map(|r| {
                let clen = dict.length_of(r.contig);
                let iv = GenomeInterval::new(r.contig, r.pos, r.ref_end().min(clen))
                    .padded(WINDOW_PAD, clen);
                let hap = reference.slice(iv).to_vec();
                let mut alt = hap.clone();
                let mid = alt.len() / 2;
                alt[mid] = if alt[mid] == b'A' { b'C' } else { b'A' };
                (r, [hap, alt])
            })
            .collect();
        let mcells = rec.scope("caller.pairhmm", |_| {
            let mut batch = PairHmmBatch::new(HmmParams::default());
            hmm_inputs
                .iter()
                .map(|(r, haps)| {
                    black_box(batch.likelihoods(&r.seq, &r.qual, haps.iter().map(Vec::as_slice)));
                    (r.seq.len() * (haps[0].len() + haps[1].len())) as f64 / 1e6
                })
                .sum::<f64>()
        });
        out.num("caller.pairhmm_mcells_s", mcells / rec.seconds("caller.pairhmm"));
        calls
    });
    out.num("caller.call_s", rec.seconds("caller.call"));

    let vcf_header = VcfHeaderInfo::new_header(dict, vec!["s".into()]);
    let vcf_text = rec.scope("formats.vcf_write", |_| format_vcf(&vcf_header, black_box(&calls)));
    // A call set is a few kilobytes: one write is microseconds, so the
    // rate comes from the span and is noisy by nature.
    out.num("formats.vcf_write_mb_s", mb(vcf_text.len()) / rec.seconds("formats.vcf_write"));
    Ok(())
}

/// `serialize_batch` / `deserialize_batch` under the GPF codec; `raw_bytes`
/// is the records' size as text (SAM or FASTQ), the form a user stores.
fn codec_round_trip<T: GpfSerialize + PartialEq>(
    rec: &mut Recorder,
    out: &mut Record,
    what: &str,
    items: &[T],
    raw_bytes: usize,
) -> Result<(), String> {
    let (enc, dec) = (format!("compress.{what}_encode"), format!("compress.{what}_decode"));
    let encoded = rec.scope(&enc, |_| serialize_batch(SerializerKind::Gpf, black_box(items)));
    let decoded: Vec<T> = rec
        .scope(&dec, |_| deserialize_batch(SerializerKind::Gpf, black_box(&encoded)))
        .map_err(|e| format!("{dec}: {e}"))?;
    if decoded != items {
        return Err(format!("{what} records do not survive the GPF codec"));
    }
    out.num(&format!("{enc}_mb_s"), mb(raw_bytes) / rec.seconds(&enc));
    out.num(&format!("{dec}_mb_s"), mb(raw_bytes) / rec.seconds(&dec));
    out.num(&format!("compress.{what}_ratio"), raw_bytes as f64 / encoded.len().max(1) as f64);
    Ok(())
}
