//! # gpf-align
//!
//! Read-alignment substrates for the GPF reproduction.
//!
//! The paper's Aligner stage wraps **bwa-0.7.12** (BWA-MEM): a
//! Burrows–Wheeler-transform index over the reference plus seed-and-extend
//! alignment. This crate implements that algorithmic family from scratch:
//!
//! * [`suffix`] — suffix-array construction by induced sorting (SA-IS);
//! * [`fmindex`] — BWT + FM-index with backward search and O(1) locate;
//! * [`sw`] — banded fitting alignment (Smith–Waterman style) with CIGAR
//!   traceback, swept a row at a time over 16-bit band lanes, eight per
//!   SSE2 vector, on x86_64 (the scalar kernel,
//!   [`sw::reference::fit_align_ref`], runs every input outside the 16-bit
//!   envelope, and every input on other targets);
//! * [`myers`] — bit-parallel Myers edit distance, a sound prefilter that
//!   lets mate-rescue and realignment windows skip the affine DP entirely;
//! * [`verify`] — candidate verification shared by the two aligners: an
//!   exact-placement check, then a one-mismatch check, then the DP;
//! * [`bwamem`] — the BWA-MEM-like aligner: exact-match seeding through the
//!   FM-index, diagonal voting, banded extension, paired-end pairing with
//!   mate rescue, MAPQ from score margins;
//! * [`snap`] — a SNAP-like hash-table aligner (the Persona baseline of
//!   §5.2.3 integrates SNAP; Figure 11(d) compares against it).
//!
//! Like the paper's pipeline, the aligner is deliberately CPU-bound: seeding
//! and banded extension dominate, which is what makes the Aligner phase the
//! CPU-saturated segment of Figure 13.

pub mod bwamem;
pub mod fmindex;
pub mod myers;
pub mod snap;
pub mod suffix;
pub mod sw;
pub mod verify;

pub use bwamem::{AlignerOptions, BwaMemAligner};
pub use fmindex::FmIndex;
pub use snap::SnapAligner;
