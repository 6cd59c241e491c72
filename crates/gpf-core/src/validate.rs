//! Static validation of the Process/Resource graph — the pre-run half of the
//! static-analysis layer.
//!
//! Algorithm 1 only discovers a broken dependency graph *at run time*: the
//! scheduler stalls mid-flight and aborts with the names of the stuck
//! Processes, after hours of cluster work may already be spent. The functions
//! here analyze the graph **before** any RDD is materialized and report *all*
//! defects at once:
//!
//! * **cycles**, reported as the actual cycle path
//!   (Process → Resource → Process → …);
//! * **undefined inputs** — a Process reads a Resource that no Process
//!   produces and no loader defined (or that an earlier run released);
//! * **duplicate producers** — two Processes claim the same output Resource;
//! * **aliased resources** — one name bound to several distinct Resource
//!   objects (the producer fills one object while the consumer waits on
//!   another, which would stall forever at run time). A Resource object has
//!   one bundle kind, so a name used as two kinds is aliased too;
//! * **dictionary mismatches** — a SAM or VCF bundle whose contig dictionary
//!   is not the reference's, so its contig ids would index the wrong
//!   contigs;
//! * **dead outputs** (warning) — a Process output no other Process consumes;
//! * **fusion eligibility** (info) — the §4.3 / Figure 7 report of which
//!   [`crate::process::BundleStage`] chains will fuse under `optimize`.
//!
//! The same analysis produces the execution **plan** (`Vec` of fused chains /
//! singleton steps) that [`crate::pipeline::Pipeline::run`] executes, so the
//! fusion report is by construction identical to what `run()` does.

use crate::process::{BundleStage, Process, StageOutput};
use crate::resource::{ResourceAny, ResourceState};
use gpf_formats::ContigDict;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

/// How bad a [`Diagnostic`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// The pipeline cannot execute correctly; `run()` refuses to start.
    Error,
    /// Suspicious but executable (e.g. an output nothing consumes).
    Warning,
    /// Informational (e.g. the fusion-eligibility report).
    Info,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Info => "info",
        })
    }
}

/// What a [`Diagnostic`] is about.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiagnosticKind {
    /// A dependency cycle. `path` alternates Process and Resource names,
    /// starting and ending with the same Process:
    /// `[P1, r1, P2, r2, P1]` means P1 —r1→ P2 —r2→ P1.
    Cycle {
        /// Alternating Process/Resource names; first equals last.
        path: Vec<String>,
    },
    /// `process` reads `resource`, but it is Undefined and no Process
    /// produces it.
    UndefinedInput {
        /// The blocked Process.
        process: String,
        /// The input Resource nobody defines.
        resource: String,
    },
    /// `process` reads `resource`, but an earlier `run()` handed it to its
    /// last consumer and released it, and no Process produces it again.
    ReleasedInput {
        /// The blocked Process.
        process: String,
        /// The input Resource that is gone.
        resource: String,
    },
    /// Two or more Processes claim the same output Resource.
    DuplicateProducer {
        /// The contested Resource name.
        resource: String,
        /// Every Process that outputs it.
        producers: Vec<String>,
    },
    /// One Resource name is bound to several distinct Resource objects, so a
    /// producer would fill one object while consumers wait on another.
    AliasedResource {
        /// The ambiguous Resource name.
        resource: String,
        /// Every Process referencing some object under this name.
        referrers: Vec<String>,
    },
    /// `resource`'s contig dictionary, as `process` uses it, is not the
    /// reference's: a bundle stage's own reference, and for any other
    /// Process the pipeline's (its first bundle stage's, else the first
    /// dictionary seen).
    DictionaryMismatch {
        /// The SAM or VCF bundle.
        resource: String,
        /// The Process that reads or defines it.
        process: String,
        /// The first contig at which the two dictionaries differ.
        contig: String,
    },
    /// `process` defines `resource`, but no Process consumes it. Legitimate
    /// for terminal outputs the driver reads after `run()` — hence a warning.
    DeadOutput {
        /// The producing Process.
        process: String,
        /// The unconsumed Resource.
        resource: String,
    },
    /// The Figure 7 report: these bundle stages will fuse under `optimize`.
    FusionEligible {
        /// Process names, in execution order.
        chain: Vec<String>,
    },
}

/// One validation finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    severity: Severity,
    kind: DiagnosticKind,
}

impl Diagnostic {
    fn new(severity: Severity, kind: DiagnosticKind) -> Self {
        Self { severity, kind }
    }

    /// Severity of the finding.
    pub fn severity(&self) -> Severity {
        self.severity
    }

    /// What the finding is about.
    pub fn kind(&self) -> &DiagnosticKind {
        &self.kind
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            DiagnosticKind::Cycle { path } => {
                // Compatibility with the pre-validator error text: still name
                // the stuck Processes, then show the precise cycle path.
                let mut procs: Vec<&str> = Vec::new();
                for (i, name) in path.iter().enumerate() {
                    if i % 2 == 0 && i + 1 < path.len() && !procs.contains(&name.as_str()) {
                        procs.push(name);
                    }
                }
                write!(f, "circular dependency among processes: {}", procs.join(", "))?;
                let mut pretty = String::new();
                for (i, name) in path.iter().enumerate() {
                    if i > 0 {
                        pretty.push_str(" -> ");
                    }
                    if i % 2 == 1 {
                        pretty.push('[');
                        pretty.push_str(name);
                        pretty.push(']');
                    } else {
                        pretty.push_str(name);
                    }
                }
                write!(f, " (cycle: {pretty})")
            }
            DiagnosticKind::UndefinedInput { process, resource } => write!(
                f,
                "process `{process}` reads resource `{resource}`, which no process produces \
                 and no loader defined"
            ),
            DiagnosticKind::ReleasedInput { process, resource } => write!(
                f,
                "process `{process}` reads resource `{resource}`, which an earlier run released \
                 after its last consumer and no process produces again"
            ),
            DiagnosticKind::DuplicateProducer { resource, producers } => write!(
                f,
                "resource `{resource}` is produced by multiple processes: {}",
                producers.join(", ")
            ),
            DiagnosticKind::AliasedResource { resource, referrers } => write!(
                f,
                "resource name `{resource}` refers to distinct resource objects \
                 (referenced by: {})",
                referrers.join(", ")
            ),
            DiagnosticKind::DictionaryMismatch { resource, process, contig } => write!(
                f,
                "resource `{resource}` of process `{process}` has a contig dictionary that is \
                 not the reference's (first difference: contig `{contig}`)"
            ),
            DiagnosticKind::DeadOutput { process, resource } => write!(
                f,
                "output `{resource}` of process `{process}` is never consumed by any process"
            ),
            DiagnosticKind::FusionEligible { chain } => {
                write!(f, "bundle stages fuse under optimize: {}", chain.join(" -> "))
            }
        }
    }
}

/// Everything [`crate::pipeline::Pipeline::check`] found, in one pass.
#[derive(Debug, Clone, Default)]
pub struct ValidationReport {
    diagnostics: Vec<Diagnostic>,
}

impl ValidationReport {
    pub(crate) fn new(diagnostics: Vec<Diagnostic>) -> Self {
        Self { diagnostics }
    }

    /// All findings, errors first, then warnings, then infos.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Error-severity findings — these make `run()` refuse to start.
    pub fn errors(&self) -> Vec<&Diagnostic> {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Error).collect()
    }

    /// Warning-severity findings.
    pub fn warnings(&self) -> Vec<&Diagnostic> {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Warning).collect()
    }

    /// `true` when the pipeline would execute (no errors; warnings allowed).
    pub fn is_ok(&self) -> bool {
        self.diagnostics.iter().all(|d| d.severity != Severity::Error)
    }

    /// The §4.3 fusion-eligibility report: each chain of bundle-stage
    /// Processes that will fuse when the pipeline runs with `optimize` on.
    pub fn fusion_chains(&self) -> Vec<Vec<String>> {
        self.diagnostics
            .iter()
            .filter_map(|d| match &d.kind {
                DiagnosticKind::FusionEligible { chain } => Some(chain.clone()),
                _ => None,
            })
            .collect()
    }
}

impl fmt::Display for ValidationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{}: {d}", d.severity)?;
        }
        Ok(())
    }
}

/// Full analysis result: diagnostics plus the execution plan (when valid).
pub(crate) struct Analysis {
    /// All diagnostics, errors first.
    pub diagnostics: Vec<Diagnostic>,
    /// Execution steps (each a fusion chain; singletons run alone), present
    /// exactly when there are no error diagnostics.
    pub plan: Option<Vec<Vec<usize>>>,
}

/// Analyze the Process graph: validate it and, when valid, compute the
/// execution plan [`crate::pipeline::Pipeline::run`] will follow.
pub(crate) fn analyze(processes: &[Arc<dyn Process>], optimize: bool) -> Analysis {
    let n = processes.len();
    let mut diagnostics: Vec<Diagnostic> = Vec::new();

    // Reference tables. A resource is identified by its *name* (the paper's
    // convention); object identity (the Arc data pointer) is tracked too so
    // aliasing — same name, different objects — is caught.
    struct ResUse {
        producers: Vec<usize>,
        consumers: Vec<usize>,
        objects: BTreeSet<usize>,
        defined: bool,
    }
    let mut uses: BTreeMap<String, ResUse> = BTreeMap::new();
    let mut record = |name: &str, who: usize, ptr: usize, defined: bool, output: bool| {
        let entry = uses.entry(name.to_string()).or_insert_with(|| ResUse {
            producers: Vec::new(),
            consumers: Vec::new(),
            objects: BTreeSet::new(),
            defined: false,
        });
        if output {
            entry.producers.push(who);
        } else {
            entry.consumers.push(who);
        }
        entry.objects.insert(ptr);
        entry.defined |= defined;
    };
    for (i, p) in processes.iter().enumerate() {
        for r in p.input_resources() {
            record(r.name(), i, Arc::as_ptr(&r) as *const u8 as usize, r.is_defined(), false);
        }
        for r in p.output_resources() {
            record(r.name(), i, Arc::as_ptr(&r) as *const u8 as usize, r.is_defined(), true);
        }
    }

    let pname = |i: usize| processes.get(i).map(|p| p.name().to_string()).unwrap_or_default();

    // 1. Duplicate producers.
    for (name, u) in &uses {
        let mut producers: Vec<usize> = u.producers.clone();
        producers.sort_unstable();
        producers.dedup();
        if producers.len() > 1 {
            diagnostics.push(Diagnostic::new(
                Severity::Error,
                DiagnosticKind::DuplicateProducer {
                    resource: name.clone(),
                    producers: producers.iter().map(|&i| pname(i)).collect(),
                },
            ));
        }
    }

    // 2. Aliasing: one name, several objects (of one kind or of several).
    for (name, u) in &uses {
        if u.objects.len() > 1 {
            let mut referrers: Vec<usize> = u.producers.iter().chain(&u.consumers).copied().collect();
            referrers.sort_unstable();
            referrers.dedup();
            diagnostics.push(Diagnostic::new(
                Severity::Error,
                DiagnosticKind::AliasedResource {
                    resource: name.clone(),
                    referrers: referrers.iter().map(|&i| pname(i)).collect(),
                },
            ));
        }
    }

    // 3. Contig dictionaries: a bundle's contig ids index the reference, so
    //    its dictionary must be the reference's.
    let mut pipeline_dict: Option<ContigDict> = processes
        .iter()
        .find_map(|p| p.as_bundle_stage())
        .map(|s| s.io().reference.dict().clone());
    for (i, p) in processes.iter().enumerate() {
        let own = p.as_bundle_stage().map(|s| s.io().reference.dict());
        for r in p.input_resources().into_iter().chain(p.output_resources()) {
            let Some(dict) = r.contig_dict() else {
                continue;
            };
            let reference = match own {
                Some(own) => own,
                None => pipeline_dict.get_or_insert_with(|| dict.clone()),
            };
            if let Some(contig) = first_difference(dict, reference) {
                diagnostics.push(Diagnostic::new(
                    Severity::Error,
                    DiagnosticKind::DictionaryMismatch {
                        resource: r.name().to_string(),
                        process: pname(i),
                        contig,
                    },
                ));
            }
        }
    }

    // 4. Undefined inputs: not Defined now and nobody produces them.
    for (i, p) in processes.iter().enumerate() {
        for r in p.input_resources() {
            if r.is_defined() {
                continue;
            }
            let produced = uses.get(r.name()).map(|u| !u.producers.is_empty()).unwrap_or(false);
            if !produced {
                let (process, resource) = (pname(i), r.name().to_string());
                let kind = match r.state() {
                    ResourceState::Released => DiagnosticKind::ReleasedInput { process, resource },
                    _ => DiagnosticKind::UndefinedInput { process, resource },
                };
                diagnostics.push(Diagnostic::new(Severity::Error, kind));
            }
        }
    }

    // 5. Cycles. Edges run producer → consumer through each resource that is
    //    not already Defined (a Defined resource never blocks scheduling).
    let mut adj: Vec<Vec<(usize, String)>> = vec![Vec::new(); n];
    for (name, u) in &uses {
        if u.defined || u.producers.is_empty() {
            continue;
        }
        for &p in &u.producers {
            for &c in &u.consumers {
                adj[p].push((c, name.clone()));
            }
        }
    }
    for cycle in find_cycles(&adj) {
        let mut path: Vec<String> = Vec::new();
        for (i, res) in &cycle {
            path.push(pname(*i));
            path.push(res.clone());
        }
        if let Some((first, _)) = cycle.first() {
            path.push(pname(*first));
        }
        diagnostics.push(Diagnostic::new(Severity::Error, DiagnosticKind::Cycle { path }));
    }

    // 6. Dead outputs (warnings): produced, never consumed.
    for (i, p) in processes.iter().enumerate() {
        for r in p.output_resources() {
            let consumed = uses.get(r.name()).map(|u| !u.consumers.is_empty()).unwrap_or(false);
            if !consumed {
                diagnostics.push(Diagnostic::new(
                    Severity::Warning,
                    DiagnosticKind::DeadOutput {
                        process: pname(i),
                        resource: r.name().to_string(),
                    },
                ));
            }
        }
    }

    let has_errors = diagnostics.iter().any(|d| d.severity == Severity::Error);
    if has_errors {
        diagnostics.sort_by_key(|d| d.severity);
        return Analysis { diagnostics, plan: None };
    }

    // 7. Plan (and with it the fusion report). With the graph validated,
    //    planning can only fail on a defect the checks above missed — keep a
    //    defensive error so run() never stalls silently.
    match build_plan(processes, optimize) {
        Some(plan) => {
            for chain in plan.iter().filter(|c| c.len() > 1) {
                diagnostics.push(Diagnostic::new(
                    Severity::Info,
                    DiagnosticKind::FusionEligible {
                        chain: chain.iter().map(|&i| pname(i)).collect(),
                    },
                ));
            }
            diagnostics.sort_by_key(|d| d.severity);
            Analysis { diagnostics, plan: Some(plan) }
        }
        None => {
            diagnostics.push(Diagnostic::new(
                Severity::Error,
                DiagnosticKind::Cycle { path: (0..n).map(pname).collect() },
            ));
            diagnostics.sort_by_key(|d| d.severity);
            Analysis { diagnostics, plan: None }
        }
    }
}

/// The first contig at which `dict` and `reference` differ in name or
/// length, or at which one of them ends first; named as `dict` has it where
/// it has one. `None` when they are the same dictionary.
fn first_difference(dict: &ContigDict, reference: &ContigDict) -> Option<String> {
    let shared = dict.len().min(reference.len()) as u32;
    let same = |id: u32| {
        dict.name_of(id) == reference.name_of(id) && dict.length_of(id) == reference.length_of(id)
    };
    let at = (0..shared).find(|&id| !same(id));
    let at = at.or((dict.len() != reference.len()).then_some(shared))?;
    let named = if (at as usize) < dict.len() { dict } else { reference };
    Some(named.name_of(at).to_string())
}

/// Find elementary cycles via DFS back-edge extraction, one per distinct
/// member set, in deterministic process-index order. Edges carry the
/// Resource name linking the two Processes.
fn find_cycles(adj: &[Vec<(usize, String)>]) -> Vec<Vec<(usize, String)>> {
    const WHITE: u8 = 0;
    const GREY: u8 = 1;
    const BLACK: u8 = 2;
    struct Dfs<'a> {
        adj: &'a [Vec<(usize, String)>],
        color: Vec<u8>,
        path: Vec<usize>,
        edge_res: Vec<String>,
        seen: BTreeSet<Vec<usize>>,
        cycles: Vec<Vec<(usize, String)>>,
    }
    impl Dfs<'_> {
        fn visit(&mut self, i: usize) {
            self.color[i] = GREY;
            self.path.push(i);
            for (j, res) in &self.adj[i].clone() {
                match self.color[*j] {
                    WHITE => {
                        self.edge_res.push(res.clone());
                        self.visit(*j);
                        self.edge_res.pop();
                    }
                    GREY => {
                        if let Some(start) = self.path.iter().position(|&p| p == *j) {
                            // Cycle: path[start..] closed by this back edge.
                            let mut cycle: Vec<(usize, String)> = Vec::new();
                            for k in start..self.path.len() {
                                let link = if k + 1 < self.path.len() {
                                    self.edge_res.get(k).cloned().unwrap_or_default()
                                } else {
                                    res.clone()
                                };
                                cycle.push((self.path[k], link));
                            }
                            let mut members: Vec<usize> =
                                cycle.iter().map(|(p, _)| *p).collect();
                            members.sort_unstable();
                            if self.seen.insert(members) {
                                self.cycles.push(cycle);
                            }
                        }
                    }
                    _ => {}
                }
            }
            self.path.pop();
            self.color[i] = BLACK;
        }
    }
    let mut dfs = Dfs {
        adj,
        color: vec![WHITE; adj.len()],
        path: Vec::new(),
        edge_res: Vec::new(),
        seen: BTreeSet::new(),
        cycles: Vec::new(),
    };
    for i in 0..adj.len() {
        if dfs.color[i] == WHITE {
            dfs.visit(i);
        }
    }
    dfs.cycles
}

/// Statically simulate Algorithm 1 plus the §4.3 fusion pass and return the
/// execution steps. Mirrors the former dynamic scheduler exactly, with "is
/// this resource Defined?" answered from the simulated pool instead of live
/// resource state. Returns `None` when the schedule stalls (cycle).
fn build_plan(processes: &[Arc<dyn Process>], optimize: bool) -> Option<Vec<Vec<usize>>> {
    let mut defined: BTreeSet<String> = BTreeSet::new();
    for p in processes {
        for r in p.input_resources().iter().chain(&p.output_resources()) {
            if r.is_defined() {
                defined.insert(r.name().to_string());
            }
        }
    }
    let mut unfinished: Vec<usize> = (0..processes.len()).collect();
    let mut steps: Vec<Vec<usize>> = Vec::new();
    while !unfinished.is_empty() {
        // Processes runnable at the top of this round.
        let runnable: Vec<usize> = unfinished
            .iter()
            .copied()
            .filter(|&i| {
                processes[i].input_resources().iter().all(|r| defined.contains(r.name()))
            })
            .collect();
        if runnable.is_empty() {
            return None;
        }
        let mut finished_this_round: Vec<usize> = Vec::new();
        for &i in &runnable {
            if finished_this_round.contains(&i) {
                continue;
            }
            let chain = if optimize {
                fusable_chain(processes, i, &unfinished, &defined)
            } else {
                vec![i]
            };
            for &j in &chain {
                finished_this_round.push(j);
                for o in processes[j].output_resources() {
                    defined.insert(o.name().to_string());
                }
            }
            steps.push(chain);
        }
        unfinished.retain(|i| !finished_this_round.contains(i));
    }
    Some(steps)
}

/// §4.3 pattern detection: starting from runnable process `start`, extend a
/// chain of bundle stages where each link's SAM output is consumed *only* by
/// the next link (out-degree 1 / in-degree 1 on the chained resource) and all
/// links share the same PartitionInfo and the same known sites (`None` only
/// with `None`): the chain's bundles are built once, from the head's.
fn fusable_chain(
    processes: &[Arc<dyn Process>],
    start: usize,
    unfinished: &[usize],
    defined: &BTreeSet<String>,
) -> Vec<usize> {
    let Some(stage) = processes[start].as_bundle_stage() else {
        return vec![start];
    };
    let rod = |s: &dyn BundleStage| s.io().rod.as_ref().map(|r| r.name().to_string());
    let mut chain = vec![start];
    let mut current = stage;
    loop {
        let StageOutput::Sam(out_sam) = current.output() else {
            break; // Caller stage terminates a chain.
        };
        // Who consumes this bundle?
        let consumers: Vec<usize> = (0..processes.len())
            .filter(|&j| {
                processes[j].input_resources().iter().any(|r| r.name() == out_sam.name())
            })
            .collect();
        if consumers.len() != 1 {
            break;
        }
        let Some(&next) = consumers.first() else {
            break;
        };
        if !unfinished.contains(&next) || chain.contains(&next) {
            break;
        }
        let Some(next_stage) = processes[next].as_bundle_stage() else {
            break;
        };
        // The next link must consume the chained SAM as its bundle input and
        // share the PartitionInfo and known-sites resources.
        if next_stage.io().input.name() != out_sam.name()
            || next_stage.io().partition_info.name() != current.io().partition_info.name()
            || rod(next_stage) != rod(current)
        {
            break;
        }
        // Its remaining inputs (rod, partition info) must already be
        // available, otherwise running the chain now would violate the
        // schedule.
        let ready_otherwise = processes[next]
            .input_resources()
            .iter()
            .filter(|r| r.name() != out_sam.name())
            .all(|r| defined.contains(r.name()));
        if !ready_otherwise {
            break;
        }
        chain.push(next);
        current = next_stage;
    }
    chain
}
