//! Resources — the data abstraction of the GPF programming model.
//!
//! A Resource (paper §3.1, Figure 2) is **Undefined** (empty) until a
//! Process or the user fills it, **Defined** while its content is
//! available, and **Released** once the last Process that reads it has
//! run. A Process can only run once all of its input Resources are Defined;
//! running it defines its outputs.
//!
//! Lifetimes are the plan's, not the user's: [`crate::Pipeline::run`] knows
//! the last step that lists each Resource among its inputs, hands the
//! Resource to that step while it runs — [`SamBundle::consume`] then
//! returns the bundle's own handle, so the operators downstream can move
//! its records instead of copying them — and releases it afterwards. One
//! copy of the reads is resident at a time, whatever the pipeline's
//! length. A Resource nothing reads (a result) stays Defined; a user who
//! wants an intermediate after the run adds a sink Process that reads it.
//!
//! The concrete resources are *bundles* wrapping engine datasets of the
//! three genomic record types (the suffix "Bundle" mirrors Table 2), plus
//! the driver-side [`PartitionInfoBundle`].

use crate::partition::PartitionInfo;
use gpf_engine::Dataset;
use gpf_formats::fastq::FastqPair;
use gpf_formats::sam::{SamHeaderInfo, SamRecord};
use gpf_formats::vcf::{VcfHeaderInfo, VcfRecord};
use gpf_support::sync::Mutex;
use std::sync::Arc;

/// The Resource states of Figure 2, and the one after them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResourceState {
    /// Content not yet filled.
    Undefined,
    /// Content available.
    Defined,
    /// Content handed to the Resource's last consumer and dropped.
    Released,
}

/// The bundle kind a Resource carries — used by [`crate::pipeline::Pipeline::check`]
/// to diagnose producer/consumer type mismatches before any dataset is
/// materialized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ResourceKind {
    /// Paired-end FASTQ reads ([`FastqPairBundle`]).
    FastqPair,
    /// Aligned reads ([`SamBundle`]).
    Sam,
    /// Variant records ([`VcfBundle`]).
    Vcf,
    /// Driver-side partition map ([`PartitionInfoBundle`]).
    PartitionInfo,
    /// Anything else (generic [`DataBundle`]s, user-defined resources).
    Generic,
}

impl std::fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ResourceKind::FastqPair => "FASTQ",
            ResourceKind::Sam => "SAM",
            ResourceKind::Vcf => "VCF",
            ResourceKind::PartitionInfo => "PartitionInfo",
            ResourceKind::Generic => "generic",
        };
        f.write_str(s)
    }
}

/// Type-erased view of a Resource, used by the DAG scheduler.
pub trait ResourceAny: Send + Sync {
    /// Resource name (unique within a pipeline by convention).
    fn name(&self) -> &str;
    /// Current state.
    fn state(&self) -> ResourceState;
    /// `true` when Defined.
    fn is_defined(&self) -> bool {
        self.state() == ResourceState::Defined
    }
    /// Bundle kind, for static producer/consumer compatibility checks.
    fn kind(&self) -> ResourceKind {
        ResourceKind::Generic
    }
    /// Records held, when Defined (what a trace reports as resident).
    fn held_records(&self) -> Option<u64> {
        None
    }
    /// [`crate::Pipeline::run`] calls this when `step` — the last step of
    /// its plan that reads this Resource — starts: until
    /// [`ResourceAny::release`], a `consume()` hands the content itself
    /// over. A Resource that ignores both calls is never released.
    fn hand_to(&self, _step: &str) {}
    /// `step` has run: drop whatever content is left. The Resource reads
    /// as [`ResourceState::Released`] from here on.
    fn release(&self, _step: &str) {}
}

/// What a [`DataBundle`] holds: `data` while Defined, `released_by` once
/// Released, neither while Undefined.
struct Slot<T> {
    data: Option<Dataset<T>>,
    /// The running pipeline step that is the last to read this bundle.
    last_reader: Option<Arc<str>>,
    /// The step the content was handed to and dropped after.
    released_by: Option<Arc<str>>,
}

/// A generic dataset-holding bundle.
pub struct DataBundle<T> {
    name: String,
    slot: Mutex<Slot<T>>,
}

impl<T: Send + Sync + 'static> DataBundle<T> {
    fn with(name: impl Into<String>, data: Option<Dataset<T>>) -> Self {
        let slot = Slot { data, last_reader: None, released_by: None };
        Self { name: name.into(), slot: Mutex::new(slot) }
    }

    /// An Undefined bundle to be filled by a Process.
    pub fn undefined(name: impl Into<String>) -> Arc<Self> {
        Arc::new(Self::with(name, None))
    }

    /// Fill the bundle (Figure 2's "Set by other Process" event).
    pub fn define(&self, data: Dataset<T>) {
        *self.slot.lock() = Slot { data: Some(data), last_reader: None, released_by: None };
    }

    /// Take a (cheap) clone of the dataset: a second handle, so nothing
    /// downstream of either can move the records.
    ///
    /// # Panics
    /// Panics when the bundle is not Defined, naming it (and, when
    /// Released, the step that consumed it) — the DAG scheduler guarantees
    /// Processes only read Defined inputs.
    pub fn dataset(&self) -> Dataset<T> {
        self.second_handle(&self.slot.lock())
    }

    /// Read the dataset for the last time this Process needs it. During
    /// the pipeline step that is the bundle's last reader this returns the
    /// bundle's own handle and leaves the bundle Released, so consuming
    /// operators (`into_map`, `into_partition_by`, …) move the records;
    /// anywhere else — an earlier reader, a Process executed outside a
    /// pipeline — it is [`DataBundle::dataset`].
    ///
    /// # Panics
    /// As [`DataBundle::dataset`].
    pub fn consume(&self) -> Dataset<T> {
        let mut slot = self.slot.lock();
        if let Some(step) = slot.last_reader.take() {
            if let Some(data) = slot.data.take() {
                slot.released_by = Some(step);
                return data;
            }
        }
        self.second_handle(&slot)
    }

    fn second_handle(&self, slot: &Slot<T>) -> Dataset<T> {
        match (&slot.data, &slot.released_by) {
            (Some(data), _) => data.clone(),
            (None, Some(by)) => {
                // gpf-lint: allow(no-panic): documented panic; Pipeline::run()
                // releases a Resource only after the last step that lists it
                // among its inputs has run.
                panic!("resource `{}` read after it was Released: step `{by}` consumed it", self.name)
            }
            // gpf-lint: allow(no-panic): documented panic; Pipeline::check()/run()
            // guarantee Processes only read Defined inputs.
            (None, None) => panic!("resource `{}` read while Undefined", self.name),
        }
    }
}

impl<T: Send + Sync + 'static> ResourceAny for DataBundle<T> {
    fn name(&self) -> &str {
        &self.name
    }
    fn state(&self) -> ResourceState {
        let slot = self.slot.lock();
        match (&slot.data, &slot.released_by) {
            (Some(_), _) => ResourceState::Defined,
            (None, Some(_)) => ResourceState::Released,
            (None, None) => ResourceState::Undefined,
        }
    }
    fn held_records(&self) -> Option<u64> {
        self.slot.lock().data.as_ref().map(|data| data.len() as u64)
    }
    fn hand_to(&self, step: &str) {
        let mut slot = self.slot.lock();
        if slot.data.is_some() {
            slot.last_reader = Some(Arc::from(step));
        }
    }
    fn release(&self, step: &str) {
        let mut slot = self.slot.lock();
        slot.last_reader = None;
        if slot.data.take().is_some() {
            slot.released_by = Some(Arc::from(step));
        }
    }
}

/// The typed bundles are a [`DataBundle`] plus a header: every
/// [`ResourceAny`] question but the kind is the inner bundle's.
macro_rules! typed_bundle_resource {
    ($bundle:ty, $kind:expr) => {
        impl ResourceAny for $bundle {
            fn name(&self) -> &str {
                self.inner.name()
            }
            fn state(&self) -> ResourceState {
                self.inner.state()
            }
            fn kind(&self) -> ResourceKind {
                $kind
            }
            fn held_records(&self) -> Option<u64> {
                self.inner.held_records()
            }
            fn hand_to(&self, step: &str) {
                self.inner.hand_to(step);
            }
            fn release(&self, step: &str) {
                self.inner.release(step);
            }
        }
    };
}

/// Paired-end FASTQ bundle (`FASTQPairBundle` in the paper).
pub struct FastqPairBundle {
    inner: DataBundle<FastqPair>,
}

impl FastqPairBundle {
    /// Defined bundle from a dataset (Figure 3's `FASTQPairBundle.defined`).
    pub fn defined(name: impl Into<String>, data: Dataset<FastqPair>) -> Arc<Self> {
        Arc::new(Self { inner: DataBundle::with(name, Some(data)) })
    }

    /// Read the pairs for the last time ([`DataBundle::consume`]).
    pub(crate) fn consume(&self) -> Dataset<FastqPair> {
        self.inner.consume()
    }
}

/// Aligned-read bundle (`SAMBundle`): dataset plus header metadata.
pub struct SamBundle {
    inner: DataBundle<SamRecord>,
    /// Header info (contig dictionary, sort order).
    pub header: SamHeaderInfo,
}

impl SamBundle {
    /// Defined bundle.
    pub fn defined(
        name: impl Into<String>,
        header: SamHeaderInfo,
        data: Dataset<SamRecord>,
    ) -> Arc<Self> {
        Arc::new(Self {
            inner: DataBundle::with(name, Some(data)),
            header,
        })
    }

    /// Undefined bundle — the paper's
    /// `SAMBundle.undefined("alignedSam", SamHeaderInfo.unsortedHeader())`.
    pub fn undefined(name: impl Into<String>, header: SamHeaderInfo) -> Arc<Self> {
        Arc::new(Self {
            inner: DataBundle::with(name, None),
            header,
        })
    }

    /// Fill the bundle.
    pub fn define(&self, data: Dataset<SamRecord>) {
        self.inner.define(data);
    }

    /// A second handle to the dataset ([`DataBundle::dataset`]; panics
    /// unless Defined).
    pub fn dataset(&self) -> Dataset<SamRecord> {
        self.inner.dataset()
    }

    /// Read the dataset for the last time: the bundle's own handle during
    /// the step that is its last reader ([`DataBundle::consume`]).
    pub fn consume(&self) -> Dataset<SamRecord> {
        self.inner.consume()
    }
}

/// Variant bundle (`VCFBundle`).
pub struct VcfBundle {
    inner: DataBundle<VcfRecord>,
    /// Header info (contig dictionary, samples).
    pub header: VcfHeaderInfo,
}

impl VcfBundle {
    /// Defined bundle.
    pub fn defined(
        name: impl Into<String>,
        header: VcfHeaderInfo,
        data: Dataset<VcfRecord>,
    ) -> Arc<Self> {
        Arc::new(Self {
            inner: DataBundle::with(name, Some(data)),
            header,
        })
    }

    /// Undefined bundle — Figure 3's `VCFBundle.undefined("ResultVCF", ...)`.
    pub fn undefined(name: impl Into<String>, header: VcfHeaderInfo) -> Arc<Self> {
        Arc::new(Self {
            inner: DataBundle::with(name, None),
            header,
        })
    }

    /// Fill the bundle.
    pub(crate) fn define(&self, data: Dataset<VcfRecord>) {
        self.inner.define(data);
    }

    /// A second handle to the dataset ([`DataBundle::dataset`]; panics
    /// unless Defined).
    pub fn dataset(&self) -> Dataset<VcfRecord> {
        self.inner.dataset()
    }

    /// Read the dataset for the last time ([`DataBundle::consume`]).
    pub fn consume(&self) -> Dataset<VcfRecord> {
        self.inner.consume()
    }
}

typed_bundle_resource!(FastqPairBundle, ResourceKind::FastqPair);
typed_bundle_resource!(SamBundle, ResourceKind::Sam);
typed_bundle_resource!(VcfBundle, ResourceKind::Vcf);

/// Driver-side partition map (`PartitionInfoBundle`). A small driver-side
/// table, not a dataset: it is never released.
pub struct PartitionInfoBundle {
    name: String,
    info: Mutex<Option<PartitionInfo>>,
}

impl PartitionInfoBundle {
    /// Undefined bundle to be produced by a `ReadRepartitioner`.
    pub fn undefined(name: impl Into<String>) -> Arc<Self> {
        Arc::new(Self { name: name.into(), info: Mutex::new(None) })
    }

    /// Fill the bundle.
    pub(crate) fn define(&self, info: PartitionInfo) {
        *self.info.lock() = Some(info);
    }

    /// Read the partition info (panics when Undefined).
    pub fn info(&self) -> PartitionInfo {
        // gpf-lint: allow(no-panic): documented panic; the DAG scheduler only
        // reads Defined inputs (enforced up front by Pipeline::check()).
        self.info.lock().as_ref().expect("PartitionInfo read while Undefined").clone()
    }
}

impl ResourceAny for PartitionInfoBundle {
    fn name(&self) -> &str {
        &self.name
    }
    fn state(&self) -> ResourceState {
        if self.info.lock().is_some() {
            ResourceState::Defined
        } else {
            ResourceState::Undefined
        }
    }
    fn kind(&self) -> ResourceKind {
        ResourceKind::PartitionInfo
    }
    fn held_records(&self) -> Option<u64> {
        self.info.lock().as_ref().map(|info| info.num_partitions() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpf_engine::{EngineConfig, EngineContext};

    #[test]
    fn state_machine_transitions() {
        let ctx = EngineContext::new(EngineConfig::default());
        let b: Arc<DataBundle<u64>> = DataBundle::undefined("x");
        assert_eq!(b.state(), ResourceState::Undefined);
        assert!(!b.is_defined());
        b.define(Dataset::from_vec(ctx, vec![1, 2, 3], 2));
        assert_eq!(b.state(), ResourceState::Defined);
        assert_eq!((b.dataset().len(), b.held_records()), (3, Some(3)));
        // Nobody handed it over: consume() is a second handle.
        assert_eq!(b.consume().len(), 3);
        assert_eq!(b.state(), ResourceState::Defined);
        // Handed to its last reader, consume() takes it.
        b.hand_to("last");
        assert_eq!(b.state(), ResourceState::Defined);
        assert_eq!(b.consume().len(), 3);
        assert_eq!((b.state(), b.held_records()), (ResourceState::Released, None));
        b.release("last");
        assert_eq!(b.state(), ResourceState::Released);
    }

    #[test]
    fn release_drops_what_the_last_reader_left_and_forgets_the_hand_over() {
        let ctx = EngineContext::new(EngineConfig::default());
        let b: Arc<DataBundle<u64>> = DataBundle::undefined("x");
        // Neither call defines anything.
        b.hand_to("early");
        b.release("early");
        assert_eq!(b.state(), ResourceState::Undefined);
        b.define(Dataset::from_vec(Arc::clone(&ctx), vec![1], 1));
        b.hand_to("reader");
        assert_eq!(b.dataset().len(), 1, "a step may also only borrow");
        b.release("reader");
        assert_eq!(b.state(), ResourceState::Released);
        // Defined again, the old hand-over does not carry over.
        b.define(Dataset::from_vec(ctx, vec![1, 2], 1));
        assert_eq!(b.consume().len(), 2);
        assert_eq!(b.state(), ResourceState::Defined);
    }

    #[test]
    #[should_panic(expected = "resource `x` read after it was Released: step `reader` consumed it")]
    fn reading_released_panics_naming_the_bundle_and_the_step() {
        let ctx = EngineContext::new(EngineConfig::default());
        let b: Arc<DataBundle<u64>> = DataBundle::undefined("x");
        b.define(Dataset::from_vec(ctx, vec![1], 1));
        b.release("reader");
        let _ = b.dataset();
    }

    #[test]
    #[should_panic(expected = "Undefined")]
    fn reading_undefined_panics() {
        let b: Arc<DataBundle<u64>> = DataBundle::undefined("x");
        let _ = b.dataset();
    }

    #[test]
    fn typed_bundles_expose_names() {
        let ctx = EngineContext::new(EngineConfig::default());
        let sam = SamBundle::undefined("alignedSam", SamHeaderInfo::default());
        assert_eq!(sam.name(), "alignedSam");
        assert!(!sam.is_defined());
        sam.define(Dataset::from_vec(ctx, vec![], 1));
        assert!(sam.is_defined());

        let pi = PartitionInfoBundle::undefined("partInfo");
        assert!(!pi.is_defined());
        pi.define(PartitionInfo::new(&[1000], 100));
        assert!(pi.is_defined());
        assert_eq!(pi.info().num_partitions(), 10);
    }
}
