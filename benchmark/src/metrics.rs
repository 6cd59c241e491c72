//! The metric tables: every name the benchmark prints, with its unit,
//! direction, regression bound and source. `BENCHMARK.json` is these
//! tables as data; a unit test keeps the two identical.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system sees, per workload. `bound` is the share of
/// the parent commit's value by which it may worsen before a change counts
/// as a regression. The three timings carry the widest bound the contract
/// allows because the build host's speed drifts by 20-35% for minutes at a
/// time (README, "Host noise"); memory and accuracy repeat far better.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd { name: "wall_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "reads_per_s", unit: "1/s", better: Better::Higher, bound: 0.25 },
    EndToEnd { name: "cpu_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MiB", better: Better::Lower, bound: 0.10 },
    EndToEnd { name: "call_f1", unit: "ratio", better: Better::Higher, bound: 0.15 },
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
];

/// Where a per-layer metric is measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Each genome's median child, averaged over the genomes (`JobRun`,
    /// `Pipeline`, `counters_snapshot`; counts repeat exactly per genome).
    Child,
    /// Spread of the workload's children.
    Rounds,
    /// The `walk` process, on the first genome.
    Walk,
    /// One of the three diagnostic runs.
    Diagnostic,
}

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub source: Source,
}

const fn layer(name: &'static str, unit: &'static str, better: Better, source: Source) -> Layer {
    Layer { name, unit, better, source }
}

use Better::{Higher, Lower};
use Source::{Child, Diagnostic, Rounds, Walk};

pub const PER_LAYER: [Layer; 64] = [
    layer("align.phase_cpu_s", "s", Lower, Child),
    layer("cleaner.phase_cpu_s", "s", Lower, Child),
    layer("caller.phase_cpu_s", "s", Lower, Child),
    layer("engine.task_cpu_s", "s", Lower, Child),
    layer("engine.serde_s", "s", Lower, Child),
    layer("engine.shuffle_mb", "MiB", Lower, Child),
    layer("engine.stages", "count", Lower, Child),
    layer("engine.tasks", "count", Lower, Child),
    layer("engine.driver_cpu_s", "s", Lower, Child),
    layer("engine.pool_idle_s", "s", Lower, Child),
    layer("engine.spill_count", "count", Lower, Child),
    layer("engine.spill_mb", "MiB", Lower, Child),
    layer("engine.restore_count", "count", Lower, Child),
    layer("engine.ledger_peak_mb", "MiB", Lower, Child),
    layer("formats.load_s", "s", Lower, Child),
    layer("formats.vcf_write_s", "s", Lower, Child),
    layer("core.fused_chains", "count", Higher, Child),
    layer("caller.calls", "count", Higher, Child),
    layer("caller.snv_precision", "ratio", Higher, Child),
    layer("caller.snv_recall", "ratio", Higher, Child),
    layer("caller.indel_precision", "ratio", Higher, Child),
    layer("caller.indel_recall", "ratio", Higher, Child),
    layer("caller.gt_concordance", "ratio", Higher, Child),
    layer("run.wall_min_s", "s", Lower, Rounds),
    layer("run.wall_max_s", "s", Lower, Rounds),
    layer("run.rounds", "count", Higher, Rounds),
    layer("formats.fastq_parse_mb_s", "MiB/s", Higher, Walk),
    layer("formats.sam_parse_mb_s", "MiB/s", Higher, Walk),
    layer("formats.sam_write_mb_s", "MiB/s", Higher, Walk),
    layer("formats.vcf_write_mb_s", "MiB/s", Higher, Walk),
    layer("align.index_build_s", "s", Lower, Walk),
    layer("align.pairs_per_s", "1/s", Higher, Walk),
    layer("align.busy_s", "s", Lower, Walk),
    layer("align.mapped_fraction", "ratio", Higher, Walk),
    layer("align.fm_find_per_s", "1/s", Higher, Walk),
    layer("align.myers_mcells_s", "Mcells/s", Higher, Walk),
    layer("align.sw_mcells_s", "Mcells/s", Higher, Walk),
    layer("compress.sam_encode_mb_s", "MiB/s", Higher, Walk),
    layer("compress.sam_decode_mb_s", "MiB/s", Higher, Walk),
    layer("compress.sam_ratio", "ratio", Higher, Walk),
    layer("compress.fastq_encode_mb_s", "MiB/s", Higher, Walk),
    layer("compress.fastq_decode_mb_s", "MiB/s", Higher, Walk),
    layer("compress.fastq_ratio", "ratio", Higher, Walk),
    layer("engine.shuffle_records_per_s", "1/s", Higher, Walk),
    layer("engine.sort_records_per_s", "1/s", Higher, Walk),
    layer("cleaner.markdup_records_per_s", "1/s", Higher, Walk),
    layer("cleaner.sort_records_per_s", "1/s", Higher, Walk),
    layer("cleaner.realign_s", "s", Lower, Walk),
    layer("cleaner.bqsr_s", "s", Lower, Walk),
    layer("cleaner.dup_fraction", "ratio", Higher, Walk),
    layer("caller.call_s", "s", Lower, Walk),
    layer("caller.pairhmm_mcells_s", "Mcells/s", Higher, Walk),
    layer("walk.sum_s", "s", Lower, Walk),
    layer("walk.unattributed_s", "s", Lower, Walk),
    layer("walk.coverage", "ratio", Higher, Diagnostic),
    layer("align.prefilter_skip_ratio", "ratio", Higher, Diagnostic),
    layer("align.sw_cells", "count", Lower, Diagnostic),
    layer("caller.pairhmm_cells", "count", Lower, Diagnostic),
    layer("compress.serialize_mb", "MiB", Lower, Diagnostic),
    layer("trace.overhead_pct", "%", Lower, Diagnostic),
    layer("support.par_speedup", "ratio", Higher, Diagnostic),
    layer("support.threads", "count", Higher, Diagnostic),
    layer("core.stages_unfused", "count", Lower, Diagnostic),
    layer("core.shuffle_mb_unfused", "MiB", Lower, Diagnostic),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::quote;
    use crate::workload::WORKLOADS;

    /// `BENCHMARK.json` as the tables define it.
    fn manifest() -> String {
        let workloads: Vec<String> = WORKLOADS
            .iter()
            .map(|w| format!("    {{\"name\": {}, \"why\": {}}}", quote(w.name), quote(w.why)))
            .collect();
        let end_to_end: Vec<String> = END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                    quote(m.name),
                    quote(m.unit),
                    quote(m.better.as_str()),
                    m.bound
                )
            })
            .collect();
        let per_layer: Vec<String> = PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                    quote(m.name),
                    quote(m.unit),
                    quote(m.better.as_str())
                )
            })
            .collect();
        format!(
            "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
             \"run_seconds\": 15,\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
             \"per_layer\": [\n{}\n  ]\n}}\n",
            workloads.join(",\n"),
            end_to_end.join(",\n"),
            per_layer.join(",\n")
        )
    }

    #[test]
    fn benchmark_json_is_the_tables() {
        let on_disk = include_str!("../../BENCHMARK.json");
        let expected = manifest();
        assert!(on_disk == expected, "BENCHMARK.json is stale; it should read:\n{expected}");
    }

    #[test]
    fn names_units_and_bounds_are_inside_the_contract() {
        let ok_name = |n: &str| {
            !n.is_empty()
                && n.len() <= 64
                && n.as_bytes()[0].is_ascii_alphanumeric()
                && n.bytes().all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
        };
        let ok_unit = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.bytes().all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
        };
        let mut names: Vec<&str> = Vec::new();
        for w in &WORKLOADS {
            assert!(ok_name(w.name) && w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            names.push(w.name);
        }
        for m in &END_TO_END {
            assert!(
                ok_name(m.name) && ok_unit(m.unit) && m.bound > 0.0 && m.bound <= 0.25,
                "{}",
                m.name
            );
            names.push(m.name);
        }
        for m in &PER_LAYER {
            assert!(ok_name(m.name) && ok_unit(m.unit), "{}", m.name);
            names.push(m.name);
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
    }
}
