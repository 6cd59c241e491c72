//! Resources — the data abstraction of the GPF programming model.
//!
//! A Resource (paper §3.1, Figure 2) is either **Undefined** (empty) or
//! **Defined** (its content has been filled by a Process or by the user).
//! A Process can only run once all of its input Resources are Defined;
//! running it defines its outputs.
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

/// The two Resource states of Figure 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResourceState {
    /// Content not yet filled.
    Undefined,
    /// Content available.
    Defined,
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
}

/// A generic dataset-holding bundle.
pub struct DataBundle<T> {
    name: String,
    data: Mutex<Option<Dataset<T>>>,
}

impl<T: Send + Sync + 'static> DataBundle<T> {
    /// An Undefined bundle to be filled by a Process.
    pub fn undefined(name: impl Into<String>) -> Arc<Self> {
        Arc::new(Self { name: name.into(), data: Mutex::new(None) })
    }

    /// Fill the bundle (transition Undefined → Defined, Figure 2's "Set by
    /// other Process" event).
    pub fn define(&self, data: Dataset<T>) {
        *self.data.lock() = Some(data);
    }

    /// Take a (cheap) clone of the dataset.
    ///
    /// # Panics
    /// Panics when the bundle is still Undefined — the DAG scheduler
    /// guarantees Processes only read Defined inputs.
    pub fn dataset(&self) -> Dataset<T> {
        // gpf-lint: allow(no-panic): documented panic; Pipeline::check()/run()
        // guarantee Processes only read Defined inputs.
        self.data.lock().as_ref().expect("resource read while Undefined").clone()
    }
}

impl<T: Send + Sync> ResourceAny for DataBundle<T> {
    fn name(&self) -> &str {
        &self.name
    }
    fn state(&self) -> ResourceState {
        if self.data.lock().is_some() {
            ResourceState::Defined
        } else {
            ResourceState::Undefined
        }
    }
}

/// Paired-end FASTQ bundle (`FASTQPairBundle` in the paper).
pub struct FastqPairBundle {
    inner: DataBundle<FastqPair>,
}

impl FastqPairBundle {
    /// Defined bundle from a dataset (Figure 3's `FASTQPairBundle.defined`).
    pub fn defined(name: impl Into<String>, data: Dataset<FastqPair>) -> Arc<Self> {
        Arc::new(Self { inner: DataBundle { name: name.into(), data: Mutex::new(Some(data)) } })
    }

    /// Read the dataset (panics when Undefined).
    pub(crate) fn dataset(&self) -> Dataset<FastqPair> {
        self.inner.dataset()
    }
}

impl ResourceAny for FastqPairBundle {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn state(&self) -> ResourceState {
        self.inner.state()
    }
    fn kind(&self) -> ResourceKind {
        ResourceKind::FastqPair
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
            inner: DataBundle { name: name.into(), data: Mutex::new(Some(data)) },
            header,
        })
    }

    /// Undefined bundle — the paper's
    /// `SAMBundle.undefined("alignedSam", SamHeaderInfo.unsortedHeader())`.
    pub fn undefined(name: impl Into<String>, header: SamHeaderInfo) -> Arc<Self> {
        Arc::new(Self {
            inner: DataBundle { name: name.into(), data: Mutex::new(None) },
            header,
        })
    }

    /// Fill the bundle.
    pub fn define(&self, data: Dataset<SamRecord>) {
        self.inner.define(data);
    }

    /// Read the dataset (panics when Undefined).
    pub fn dataset(&self) -> Dataset<SamRecord> {
        self.inner.dataset()
    }
}

impl ResourceAny for SamBundle {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn state(&self) -> ResourceState {
        self.inner.state()
    }
    fn kind(&self) -> ResourceKind {
        ResourceKind::Sam
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
            inner: DataBundle { name: name.into(), data: Mutex::new(Some(data)) },
            header,
        })
    }

    /// Undefined bundle — Figure 3's `VCFBundle.undefined("ResultVCF", ...)`.
    pub fn undefined(name: impl Into<String>, header: VcfHeaderInfo) -> Arc<Self> {
        Arc::new(Self {
            inner: DataBundle { name: name.into(), data: Mutex::new(None) },
            header,
        })
    }

    /// Fill the bundle.
    pub(crate) fn define(&self, data: Dataset<VcfRecord>) {
        self.inner.define(data);
    }

    /// Read the dataset (panics when Undefined).
    pub fn dataset(&self) -> Dataset<VcfRecord> {
        self.inner.dataset()
    }
}

impl ResourceAny for VcfBundle {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn state(&self) -> ResourceState {
        self.inner.state()
    }
    fn kind(&self) -> ResourceKind {
        ResourceKind::Vcf
    }
}

/// Driver-side partition map (`PartitionInfoBundle`).
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
        assert_eq!(b.dataset().len(), 3);
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
