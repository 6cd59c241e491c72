//! Input loaders — the Figure 3 `FileLoader` helpers.

use crate::pipeline::PipelineError;
use gpf_engine::{Dataset, EngineContext};
use gpf_formats::fastq::{pair_up, parse_fastq, FastqPair};
use std::sync::Arc;

/// Loaders turning on-disk (or in-memory) genomic text into engine datasets.
pub struct FileLoader;

impl FileLoader {
    /// Parse two FASTQ texts and pair them — the in-memory form of the
    /// paper's `FileLoader.loadFastqPairToRdd(sc, fastqPath1, fastqPath2)`.
    pub fn load_fastq_pair_to_rdd(
        ctx: &Arc<EngineContext>,
        fastq1: &str,
        fastq2: &str,
        parts: usize,
    ) -> Result<Dataset<FastqPair>, PipelineError> {
        let r1 = parse_fastq(fastq1).map_err(|e| PipelineError::Load(e.to_string()))?;
        let r2 = parse_fastq(fastq2).map_err(|e| PipelineError::Load(e.to_string()))?;
        let pairs = pair_up(r1, r2).map_err(|e| PipelineError::Load(e.to_string()))?;
        Ok(Dataset::from_vec(Arc::clone(ctx), pairs, parts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpf_engine::EngineConfig;

    #[test]
    fn loads_and_pairs_fastq_text() {
        let ctx = EngineContext::new(EngineConfig::default());
        let f1 = "@r1/1\nACGT\n+\nIIII\n@r2/1\nGGGG\n+\nFFFF\n";
        let f2 = "@r1/2\nTTTT\n+\nIIII\n@r2/2\nCCCC\n+\nFFFF\n";
        let ds = FileLoader::load_fastq_pair_to_rdd(&ctx, f1, f2, 2).unwrap();
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.num_partitions(), 2);
    }

    #[test]
    fn mismatched_files_error() {
        let ctx = EngineContext::new(EngineConfig::default());
        let f1 = "@r1/1\nACGT\n+\nIIII\n";
        match FileLoader::load_fastq_pair_to_rdd(&ctx, f1, "", 1) {
            Err(PipelineError::Load(_)) => {}
            Err(other) => panic!("unexpected error {other}"),
            Ok(_) => panic!("expected an error"),
        }
    }
}
