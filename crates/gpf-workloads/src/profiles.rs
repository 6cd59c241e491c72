//! Bundled workload presets.
//!
//! The paper's §5.3.1 analyses three workload classes — WGS (whole genome),
//! WES (exome), GenePanel — which differ in genome footprint and coverage
//! depth. The experiments here run the WGS class, as a laptop-scale model
//! at any scale, plus a `tiny` profile for tests.

use crate::quality::QualityProfile;
use crate::readsim::SimulatorConfig;
use crate::refgen::ReferenceSpec;
use crate::variants::VariantSpec;

/// A complete workload description: reference + variants + read simulation.
#[derive(Debug, Clone)]
pub struct WorkloadProfile {
    /// Workload name ("WGS", "tiny").
    pub name: &'static str,
    /// Reference genome spec.
    pub reference: ReferenceSpec,
    /// Variant planting spec.
    pub variants: VariantSpec,
    /// Read-simulator config.
    pub reads: SimulatorConfig,
}

impl WorkloadProfile {
    /// Whole-genome sequencing: the full (scaled) genome at moderate
    /// coverage. `scale` multiplies the genome size (1.0 ≈ 1.5 Mb here).
    pub fn wgs(scale: f64, seed: u64) -> Self {
        let unit = 500_000.0 * scale;
        Self {
            name: "WGS",
            reference: ReferenceSpec {
                contig_lengths: vec![
                    (1.2 * unit) as u64,
                    (1.0 * unit) as u64,
                    (0.8 * unit) as u64,
                ],
                seed,
                ..Default::default()
            },
            variants: VariantSpec { seed: seed ^ 0x5a5a, ..Default::default() },
            reads: SimulatorConfig {
                coverage: 30.0,
                seed: seed ^ 0xc3c3,
                quality: QualityProfile::srr622461_like(),
                ..Default::default()
            },
        }
    }

    /// A tiny profile for fast unit/integration tests.
    pub fn tiny(seed: u64) -> Self {
        Self {
            name: "tiny",
            reference: ReferenceSpec { contig_lengths: vec![60_000, 30_000], seed, ..Default::default() },
            variants: VariantSpec { seed: seed ^ 1, ..Default::default() },
            reads: SimulatorConfig { coverage: 8.0, seed: seed ^ 2, ..Default::default() },
        }
    }

    /// Total reference bases in this profile.
    pub fn genome_bases(&self) -> u64 {
        self.reference.contig_lengths.iter().sum()
    }

    /// Approximate sequenced bases (genome × coverage).
    pub fn sequenced_bases(&self) -> u64 {
        (self.genome_bases() as f64 * self.reads.coverage) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_scale_sensibly() {
        let full = WorkloadProfile::wgs(1.0, 1);
        let tenth = WorkloadProfile::wgs(0.1, 1);
        assert!(full.genome_bases() > tenth.genome_bases());
        assert_eq!(full.reads.coverage, tenth.reads.coverage);
        assert!(full.sequenced_bases() > tenth.sequenced_bases());
    }

    #[test]
    fn tiny_profile_generates_end_to_end() {
        let p = WorkloadProfile::tiny(3);
        let r = p.reference.generate();
        let donor = crate::variants::DonorGenome::generate(&r, &p.variants);
        let pairs =
            crate::readsim::ReadSimulator::new(&r, &donor, p.reads.clone()).simulate();
        assert!(!pairs.is_empty());
        assert_eq!(r.dict().len(), 2);
    }
}
