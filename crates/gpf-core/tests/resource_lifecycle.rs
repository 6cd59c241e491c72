//! Resource lifecycle battery: *consume ≡ borrow*.
//!
//! The WGS pipeline of Figure 3 is run twice per cell — once as a user
//! writes it, and once **held**: the test keeps a second handle to every
//! input dataset and a sink Process takes one to every intermediate, so
//! nothing on the path can be taken apart and every operator reads where
//! the records sit. Whatever the runtime decides about a Resource's
//! lifetime — hand it to its last consumer, move its records, release it —
//! the VCF text of the two runs is the same, byte for byte, in every cell
//! of {fused, unfused} × {faults off, a seeded `FaultPlan`} × {no budget, a
//! quarter of the footprint} × the three serializer kinds.
//!
//! Beside it, the lifecycle itself: after `run()` every Resource a step read
//! is Released and only what nothing reads — the result, and `partInfo`'s
//! driver-side table — is Defined; of two steps that read one Resource only
//! the later is handed it; a Process executed outside a pipeline leaves its
//! input Defined; reading a Released bundle panics naming the bundle and
//! the step that consumed it; a second `run()` is `PipelineError::Invalid`.

use gpf_core::prelude::*;
use gpf_core::{Process, ResourceAny, ResourceState};
use gpf_engine::{Dataset, EngineConfig, EngineContext, FaultPlan};
use gpf_formats::sam::SamRecord;
use gpf_formats::vcf::{format_vcf, VcfRecord};
use gpf_formats::{FastqPair, ReferenceGenome};
use gpf_trace::names as tn;
use gpf_workloads::readsim::{simulate_fastq_pairs, SimulatorConfig};
use gpf_workloads::refgen::ReferenceSpec;
use gpf_workloads::variants::{DonorGenome, VariantSpec};
use std::sync::{Arc, Mutex, OnceLock};

/// One pipeline at a time: the budget cells read the process-global spill
/// counter around a run.
static ONE_PIPELINE: Mutex<()> = Mutex::new(());

const INPUT_PARTS: usize = 6;
const REGION_LEN: u64 = 3_000;

struct Setup {
    reference: Arc<ReferenceGenome>,
    pairs: Vec<FastqPair>,
    known: Vec<VcfRecord>,
}

fn setup() -> &'static Setup {
    static SETUP: OnceLock<Setup> = OnceLock::new();
    SETUP.get_or_init(|| {
        let reference = Arc::new(
            ReferenceSpec {
                contig_lengths: vec![24_000, 12_000],
                seed: 2024,
                repeat_fraction: 0.05,
                ..Default::default()
            }
            .generate(),
        );
        let donor = DonorGenome::generate(
            &reference,
            &VariantSpec { snv_rate: 1e-3, indel_rate: 1e-4, seed: 24, ..Default::default() },
        );
        let pairs = simulate_fastq_pairs(
            &reference,
            &donor,
            SimulatorConfig {
                coverage: 20.0,
                duplicate_rate: 0.10,
                hotspot_count: 1,
                hotspot_multiplier: 20.0,
                ..Default::default()
            },
        );
        let known = donor.known_sites(&reference, 0.7, 10, 77);
        Setup { reference, pairs, known }
    })
}

/// Takes a handle to a SAM Resource and keeps it for the rest of the run.
struct Hold {
    name: String,
    input: Arc<SamBundle>,
    held: Mutex<Option<Dataset<SamRecord>>>,
}

impl Hold {
    fn of(input: &Arc<SamBundle>) -> Arc<Self> {
        Arc::new(Self {
            name: format!("hold:{}", input.name()),
            input: Arc::clone(input),
            held: Mutex::new(None),
        })
    }
}

impl Process for Hold {
    fn name(&self) -> &str {
        &self.name
    }
    fn input_resources(&self) -> Vec<Arc<dyn ResourceAny>> {
        vec![self.input.clone()]
    }
    fn output_resources(&self) -> Vec<Arc<dyn ResourceAny>> {
        Vec::new()
    }
    fn execute(&self, _ctx: &Arc<EngineContext>) {
        *self.held.lock().unwrap() = Some(self.input.dataset());
    }
}

/// Every Resource of one pipeline, for the caller to inspect after `run()`.
struct Wgs {
    pipeline: Pipeline,
    ctx: Arc<EngineContext>,
    fastq: Arc<FastqPairBundle>,
    dbsnp: Arc<VcfBundle>,
    aligned: Arc<SamBundle>,
    deduped: Arc<SamBundle>,
    pinfo: Arc<PartitionInfoBundle>,
    realigned: Arc<SamBundle>,
    recaled: Arc<SamBundle>,
    result: Arc<VcfBundle>,
    /// Second handles to the input datasets and the sink Processes (empty
    /// unless `held`).
    _kept: Option<(Dataset<FastqPair>, Dataset<VcfRecord>)>,
    _sinks: Vec<Arc<Hold>>,
}

/// Figure 3's program. `held` adds the second handles: kept clones of the
/// two input datasets and a [`Hold`] on every SAM intermediate a sink can
/// read without changing the plan (the chained `realignedSam` /
/// `recaledSam` only when nothing fuses — a second consumer would break
/// the chain).
fn wgs(cfg: EngineConfig, optimize: bool, held: bool) -> Wgs {
    let s = setup();
    let ctx = EngineContext::new(cfg.with_parallelism(INPUT_PARTS));
    let mut pipeline = Pipeline::new("wgs", Arc::clone(&ctx));
    pipeline.set_optimize(optimize);
    let dict = s.reference.dict().clone();
    let sam = |name: &str| SamBundle::undefined(name, SamHeaderInfo::unsorted_header(dict.clone()));

    let pairs = Dataset::from_vec(Arc::clone(&ctx), s.pairs.clone(), INPUT_PARTS).evictable();
    let known = Dataset::from_vec(Arc::clone(&ctx), s.known.clone(), INPUT_PARTS).evictable();
    let kept = held.then(|| (pairs.clone(), known.clone()));
    let fastq = FastqPairBundle::defined("fastqPair", pairs);
    let dbsnp = VcfBundle::defined("dbsnp", VcfHeaderInfo::new_header(dict.clone(), vec![]), known);

    let aligned = sam("alignedSam");
    pipeline.add_process(BwaMemProcess::pair_end(
        "BwaMapping",
        Arc::clone(&s.reference),
        Arc::clone(&fastq),
        Arc::clone(&aligned),
    ));
    let deduped = sam("dedupedSam");
    pipeline.add_process(MarkDuplicateProcess::new(
        "MarkDuplicate",
        Arc::clone(&aligned),
        Arc::clone(&deduped),
    ));
    let pinfo = PartitionInfoBundle::undefined("partInfo");
    pipeline.add_process(ReadRepartitioner::new(
        "Repartitioner",
        vec![Arc::clone(&deduped)],
        Arc::clone(&pinfo),
        dict.lengths(),
        REGION_LEN,
    ));
    let realigned = sam("realignedSam");
    pipeline.add_process(IndelRealignProcess::new(
        "IndelRealign",
        Arc::clone(&s.reference),
        Some(Arc::clone(&dbsnp)),
        Arc::clone(&pinfo),
        Arc::clone(&deduped),
        Arc::clone(&realigned),
    ));
    let recaled = sam("recaledSam");
    pipeline.add_process(BaseRecalibrationProcess::new(
        "BQSR",
        Arc::clone(&s.reference),
        Some(Arc::clone(&dbsnp)),
        Arc::clone(&pinfo),
        Arc::clone(&realigned),
        Arc::clone(&recaled),
    ));
    let result = VcfBundle::undefined("ResultVCF", VcfHeaderInfo::new_header(dict, vec!["s".into()]));
    pipeline.add_process(HaplotypeCallerProcess::new(
        "HaplotypeCaller",
        Arc::clone(&s.reference),
        Some(Arc::clone(&dbsnp)),
        Arc::clone(&pinfo),
        Arc::clone(&recaled),
        Arc::clone(&result),
        false,
    ));

    let mut sinks = Vec::new();
    if held {
        let mut targets = vec![&aligned, &deduped];
        if !optimize {
            targets.extend([&realigned, &recaled]);
        }
        for target in targets {
            let sink = Hold::of(target);
            pipeline.add_process(sink.clone());
            sinks.push(sink);
        }
    }
    Wgs {
        pipeline,
        ctx,
        fastq,
        dbsnp,
        aligned,
        deduped,
        pinfo,
        realigned,
        recaled,
        result,
        _kept: kept,
        _sinks: sinks,
    }
}

impl Wgs {
    /// Every Resource's state, in dataflow order.
    fn states(&self) -> Vec<(&str, ResourceState)> {
        let all: [&dyn ResourceAny; 8] = [
            &*self.fastq,
            &*self.dbsnp,
            &*self.aligned,
            &*self.deduped,
            &*self.pinfo,
            &*self.realigned,
            &*self.recaled,
            &*self.result,
        ];
        all.iter().map(|r| (r.name(), r.state())).collect()
    }
}

/// Run to completion and render the result as VCF text.
fn vcf_text(w: &mut Wgs, cell: &str) -> String {
    use ResourceState::{Defined, Released, Undefined};
    let before: Vec<ResourceState> = w.states().into_iter().map(|(_, state)| state).collect();
    assert_eq!(before, [Defined, Defined, Undefined, Undefined, Undefined, Undefined, Undefined, Undefined]);
    let fused = w.pipeline.check().fusion_chains().len();
    w.pipeline.run().unwrap_or_else(|e| panic!("[{cell}] {e}"));
    assert_eq!(w.pipeline.fused_chains().len(), fused, "[{cell}] run() follows the checked plan");
    // What a step read is gone — consumed or merely held, the plan released
    // it after its last reader; a fused chain never defined its links.
    let link = if fused == 1 { Undefined } else { Released };
    let after: Vec<ResourceState> = w.states().into_iter().map(|(_, state)| state).collect();
    assert_eq!(after, [Released, Released, Released, Released, Defined, link, link, Defined], "[{cell}]");
    let calls = w.result.dataset().collect_local();
    assert!(calls.len() >= 10, "[{cell}] the workload must call variants: {}", calls.len());
    format_vcf(&w.result.header, &calls)
}

fn spilled() -> u64 {
    gpf_trace::counter(tn::MEM_BUDGET_SPILLED).get()
}

#[test]
fn consuming_a_resource_is_borrowing_it_in_every_cell() {
    let _one = ONE_PIPELINE.lock().unwrap_or_else(|e| e.into_inner());
    // An accountant that never refuses measures the materialized footprint.
    let footprint = {
        let mut w = wgs(EngineConfig::gpf().with_memory_budget(u64::MAX), true, false);
        vcf_text(&mut w, "footprint");
        w.ctx.accountant().expect("a budget installs an accountant").peak()
    };
    assert!(footprint > 0, "the accountant recorded no footprint");

    let mut texts: Vec<String> = Vec::new();
    for optimize in [true, false] {
        for base in [EngineConfig::gpf(), EngineConfig::kryo(), EngineConfig::java()] {
            for plan in [None, Some(FaultPlan::seeded(0x2018, 25))] {
                for budget in [None, Some(footprint / 4)] {
                    let cell = format!(
                        "fused {optimize}, {:?}, faults {}, budget {budget:?}",
                        base.serializer,
                        plan.is_some()
                    );
                    let mut cfg = base.clone();
                    if let Some(plan) = &plan {
                        cfg = cfg.with_faults(plan.clone());
                    }
                    if let Some(bytes) = budget {
                        cfg = cfg.with_memory_budget(bytes);
                    }
                    let before = spilled();
                    let mut w = wgs(cfg.clone(), optimize, false);
                    let consumed = vcf_text(&mut w, &cell);
                    assert_eq!(spilled() > before, budget.is_some(), "[{cell}] the quarter budget (and only it) must spill");
                    let (_, trace) = w.ctx.take_run_traced();
                    let injected = trace.events.iter().any(|ev| &*ev.name == tn::FAULT_INJECTED);
                    assert_eq!(injected, plan.is_some(), "[{cell}] the seeded plan (and only it) must inject");
                    let held = vcf_text(&mut wgs(cfg, optimize, true), &format!("{cell}, held"));
                    assert!(consumed == held, "[{cell}] consume diverged from borrow:\n{consumed}\n--- held ---\n{held}");
                    texts.push(consumed);
                }
            }
        }
    }
    // And none of the axes is an input to the answer.
    assert!(texts.windows(2).all(|w| w[0] == w[1]), "a configuration axis moved the calls");
}

/// What `consume()` left of its bundle, as the consuming Process saw it.
struct Reader {
    name: &'static str,
    input: Arc<SamBundle>,
    output: Arc<SamBundle>,
    saw: Mutex<Option<ResourceState>>,
}

impl Process for Reader {
    fn name(&self) -> &str {
        self.name
    }
    fn input_resources(&self) -> Vec<Arc<dyn ResourceAny>> {
        vec![self.input.clone()]
    }
    fn output_resources(&self) -> Vec<Arc<dyn ResourceAny>> {
        vec![self.output.clone()]
    }
    fn execute(&self, _ctx: &Arc<EngineContext>) {
        let data = self.input.consume();
        *self.saw.lock().unwrap() = Some(self.input.state());
        self.output.define(data.into_map(|r| r));
    }
}

#[test]
fn of_two_readers_only_the_later_is_handed_the_resource() {
    let dict = setup().reference.dict().clone();
    let sam = |name: &str| SamBundle::undefined(name, SamHeaderInfo::unsorted_header(dict.clone()));
    let ctx = EngineContext::new(EngineConfig::default());
    let root = sam("root");
    root.define(Dataset::from_vec(Arc::clone(&ctx), vec![SamRecord::unmapped("r", b"ACGT".to_vec(), b"IIII".to_vec())], 1));
    let reader = |name, output| Arc::new(Reader { name, input: Arc::clone(&root), output, saw: Mutex::new(None) });
    let (left, right) = (reader("left", sam("l")), reader("right", sam("r")));
    let mut pipeline = Pipeline::new("diamond", Arc::clone(&ctx));
    pipeline.add_process(left.clone());
    pipeline.add_process(right.clone());
    pipeline.run().expect("a diamond is a valid plan");
    assert_eq!(pipeline.executed(), ["left", "right"]);
    assert_eq!(*left.saw.lock().unwrap(), Some(ResourceState::Defined), "the earlier reader got a second handle");
    assert_eq!(*right.saw.lock().unwrap(), Some(ResourceState::Released), "the later reader got the bundle's own");
    assert_eq!(root.state(), ResourceState::Released);
    // Both outputs are results: nothing reads them, so nothing released them.
    assert_eq!((left.output.dataset().len(), right.output.dataset().len()), (1, 1));

    // The same Process outside a pipeline: nobody handed it anything.
    root.define(Dataset::from_vec(Arc::clone(&ctx), Vec::new(), 1));
    right.execute(&ctx);
    assert_eq!(*right.saw.lock().unwrap(), Some(ResourceState::Defined));
    assert_eq!(root.state(), ResourceState::Defined, "a standalone execute leaves its input Defined");
}

#[test]
fn a_released_resource_says_who_consumed_it_and_a_second_run_is_invalid() {
    let _one = ONE_PIPELINE.lock().unwrap_or_else(|e| e.into_inner());
    let mut w = wgs(EngineConfig::gpf(), true, false);
    vcf_text(&mut w, "first run");

    let read = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| w.aligned.dataset()));
    let payload = read.err().expect("a Released bundle has nothing to read");
    let message = payload.downcast_ref::<String>().expect("a formatted panic message");
    assert!(message.contains("`alignedSam`") && message.contains("`MarkDuplicate`"), "{message}");
    let chain = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| w.deduped.consume()));
    let payload = chain.err().expect("consume() reads too");
    let message = payload.downcast_ref::<String>().expect("a formatted panic message");
    assert!(message.contains("`dedupedSam`") && message.contains("`IndelRealign+BQSR+HaplotypeCaller`"), "{message}");

    // The inputs are gone and nothing produces them: structured, not a panic.
    let err = w.pipeline.run().expect_err("the FASTQ pairs were consumed by the first run");
    let gpf_core::PipelineError::Invalid(diagnostics) = &err else { panic!("unexpected {err}") };
    let released: Vec<(&str, &str)> = diagnostics
        .iter()
        .filter_map(|d| match d.kind() {
            gpf_core::DiagnosticKind::ReleasedInput { process, resource } => Some((process.as_str(), resource.as_str())),
            _ => None,
        })
        .collect();
    assert!(released.contains(&("BwaMapping", "fastqPair")), "{err}");
    assert!(released.contains(&("HaplotypeCaller", "dbsnp")), "{err}");
    assert!(err.to_string().contains("an earlier run released"), "{err}");
}
