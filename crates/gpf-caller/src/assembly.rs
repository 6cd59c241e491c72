//! Local de-novo assembly: de Bruijn graph over region reads + reference,
//! yielding candidate haplotypes.
//!
//! The graph's nodes are k-mers; edges carry read support counts. Candidate
//! haplotypes are paths from the reference window's first k-mer to its last
//! k-mer, following edges with sufficient support (or reference edges).
//! Bounded DFS keeps repeat-induced cycles from exploding.

use std::collections::HashMap;

/// Assembly parameters.
#[derive(Debug, Clone)]
pub struct AssemblyOptions {
    /// k-mer size.
    pub k: usize,
    /// Minimum read support for a non-reference edge.
    pub min_edge_weight: u32,
    /// Maximum number of haplotypes returned.
    pub max_haplotypes: usize,
    /// Maximum haplotype length as a multiple of the window length.
    pub max_len_factor: f64,
}

impl Default for AssemblyOptions {
    fn default() -> Self {
        Self { k: 21, min_edge_weight: 2, max_haplotypes: 8, max_len_factor: 1.5 }
    }
}

/// Pack a k-mer into a u64 (requires k ≤ 31 and ACGT only).
fn pack(kmer: &[u8]) -> Option<u64> {
    let mut v = 1u64;
    for &b in kmer {
        let code = match b {
            b'A' => 0u64,
            b'C' => 1,
            b'G' => 2,
            b'T' => 3,
            _ => return None,
        };
        v = (v << 2) | code;
    }
    Some(v)
}

/// Append one base to a packed k-mer, dropping the oldest base.
fn roll(packed: u64, k: usize, base_code: u64) -> u64 {
    let mask = (1u64 << (2 * k)) - 1;
    let guard = 1u64 << (2 * k);
    (((packed << 2) | base_code) & mask) | guard
}

/// The de Bruijn assembler.
pub struct DeBruijnGraph {
    /// k-mer -> per-next-base (A,C,G,T) edge weights.
    edges: HashMap<u64, [u32; 4]>,
    /// Edges present in the reference path (always traversable).
    ref_edges: HashMap<u64, [bool; 4]>,
    k: usize,
}

impl DeBruijnGraph {
    /// Build a graph from the reference window and read sequences.
    pub fn build(ref_window: &[u8], reads: &[&[u8]], opts: &AssemblyOptions) -> Self {
        let k = opts.k;
        let mut g = Self { edges: HashMap::new(), ref_edges: HashMap::new(), k };
        g.add_sequence(ref_window, true);
        for read in reads {
            g.add_sequence(read, false);
        }
        g
    }

    fn add_sequence(&mut self, seq: &[u8], is_ref: bool) {
        let k = self.k;
        if seq.len() <= k {
            return;
        }
        let mut cur = match pack(&seq[..k]) {
            Some(p) => p,
            None => {
                // Skip ahead past invalid characters.
                return self.add_sequence_skipping(seq, is_ref);
            }
        };
        for &b in &seq[k..] {
            let code = match b {
                b'A' => 0u64,
                b'C' => 1,
                b'G' => 2,
                b'T' => 3,
                _ => return self.add_sequence_skipping(seq, is_ref),
            };
            let e = self.edges.entry(cur).or_insert([0; 4]);
            e[code as usize] = e[code as usize].saturating_add(1);
            if is_ref {
                self.ref_edges.entry(cur).or_insert([false; 4])[code as usize] = true;
            }
            cur = roll(cur, k, code);
        }
    }

    /// Slow path for sequences containing N: add each clean k+1 window.
    fn add_sequence_skipping(&mut self, seq: &[u8], is_ref: bool) {
        let k = self.k;
        for win in seq.windows(k + 1) {
            if let (Some(cur), Some(code)) = (pack(&win[..k]), match win[k] {
                b'A' => Some(0u64),
                b'C' => Some(1),
                b'G' => Some(2),
                b'T' => Some(3),
                _ => None,
            }) {
                let e = self.edges.entry(cur).or_insert([0; 4]);
                e[code as usize] = e[code as usize].saturating_add(1);
                if is_ref {
                    self.ref_edges.entry(cur).or_insert([false; 4])[code as usize] = true;
                }
            }
        }
    }

    /// Enumerate haplotypes: paths from the window's first k-mer to its last
    /// k-mer. The reference haplotype (if traversable) is always first.
    pub fn haplotypes(&self, ref_window: &[u8], opts: &AssemblyOptions) -> Vec<Vec<u8>> {
        let k = self.k;
        if ref_window.len() <= k {
            return vec![ref_window.to_vec()];
        }
        let Some(start) = pack(&ref_window[..k]) else {
            return vec![ref_window.to_vec()];
        };
        let Some(end) = pack(&ref_window[ref_window.len() - k..]) else {
            return vec![ref_window.to_vec()];
        };
        let max_len = (ref_window.len() as f64 * opts.max_len_factor) as usize;

        let mut out: Vec<Vec<u8>> = Vec::new();
        // Bounded DFS: stack of (node, sequence-so-far).
        let mut stack: Vec<(u64, Vec<u8>)> = vec![(start, ref_window[..k].to_vec())];
        // Expansion budget: a clean window needs ~window_len expansions; the
        // cap only binds in cyclic repeat tangles, where unbounded DFS would
        // burn tens of milliseconds per region cloning partial paths.
        let budget = (ref_window.len() * 6).max(2_000);
        let mut expansions = 0usize;
        while let Some((node, seq)) = stack.pop() {
            expansions += 1;
            if expansions > budget || out.len() >= opts.max_haplotypes {
                break;
            }
            if node == end && seq.len() > k {
                out.push(seq.clone());
                // Keep exploring: longer paths through `end` are rare and
                // usually cyclic; stop this branch here.
                continue;
            }
            if seq.len() >= max_len {
                continue;
            }
            let weights = self.edges.get(&node).copied().unwrap_or([0; 4]);
            let refs = self.ref_edges.get(&node).copied().unwrap_or([false; 4]);
            for code in 0..4u64 {
                let supported = weights[code as usize] >= opts.min_edge_weight
                    || refs[code as usize];
                if supported {
                    let mut next_seq = seq.clone();
                    next_seq.push(b"ACGT"[code as usize]);
                    stack.push((roll(node, k, code), next_seq));
                }
            }
        }
        // Ensure the reference window itself is present and first.
        let ref_vec = ref_window.to_vec();
        out.retain(|h| h != &ref_vec);
        out.sort();
        out.dedup();
        out.truncate(opts.max_haplotypes.saturating_sub(1));
        let mut result = vec![ref_vec];
        result.extend(out);
        result
    }
}

/// Convenience: assemble haplotypes for a region.
pub fn assemble(ref_window: &[u8], reads: &[&[u8]], opts: &AssemblyOptions) -> Vec<Vec<u8>> {
    DeBruijnGraph::build(ref_window, reads, opts).haplotypes(ref_window, opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window() -> Vec<u8> {
        let mut state = 0x2468u64;
        (0..160)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(11);
                b"ACGT"[(state >> 33) as usize % 4]
            })
            .collect()
    }

    fn reads_from(hap: &[u8], n: usize, read_len: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| {
                let start = (i * 7) % (hap.len().saturating_sub(read_len).max(1));
                hap[start..(start + read_len).min(hap.len())].to_vec()
            })
            .collect()
    }

    #[test]
    fn ref_only_reads_give_ref_haplotype() {
        let w = window();
        let reads = reads_from(&w, 12, 60);
        let read_refs: Vec<&[u8]> = reads.iter().map(|r| r.as_slice()).collect();
        let haps = assemble(&w, &read_refs, &AssemblyOptions::default());
        assert_eq!(haps[0], w);
        assert_eq!(haps.len(), 1, "no spurious haplotypes: {}", haps.len());
    }

    #[test]
    fn snv_haplotype_is_discovered() {
        let w = window();
        let mut alt = w.clone();
        alt[80] = if alt[80] == b'A' { b'C' } else { b'A' };
        let mut reads = reads_from(&w, 10, 60);
        reads.extend(reads_from(&alt, 10, 60));
        let read_refs: Vec<&[u8]> = reads.iter().map(|r| r.as_slice()).collect();
        let haps = assemble(&w, &read_refs, &AssemblyOptions::default());
        assert!(haps.contains(&alt), "alt haplotype found ({} haps)", haps.len());
        assert_eq!(haps[0], w, "reference is first");
    }

    #[test]
    fn deletion_haplotype_is_discovered() {
        let w = window();
        let mut alt = w[..70].to_vec();
        alt.extend_from_slice(&w[76..]); // 6bp deletion
        let mut reads = reads_from(&w, 8, 60);
        reads.extend(reads_from(&alt, 8, 60));
        let read_refs: Vec<&[u8]> = reads.iter().map(|r| r.as_slice()).collect();
        let haps = assemble(&w, &read_refs, &AssemblyOptions::default());
        assert!(haps.contains(&alt), "deletion haplotype found");
    }

    #[test]
    fn insertion_haplotype_is_discovered() {
        let w = window();
        let mut alt = w[..70].to_vec();
        alt.extend_from_slice(b"TTAGC");
        alt.extend_from_slice(&w[70..]);
        let mut reads = reads_from(&w, 8, 60);
        reads.extend(reads_from(&alt, 8, 60));
        let read_refs: Vec<&[u8]> = reads.iter().map(|r| r.as_slice()).collect();
        let haps = assemble(&w, &read_refs, &AssemblyOptions::default());
        assert!(haps.contains(&alt), "insertion haplotype found");
    }

    #[test]
    fn singleton_errors_are_pruned() {
        let w = window();
        let mut noisy = w.clone();
        noisy[40] = if noisy[40] == b'G' { b'T' } else { b'G' };
        // Only ONE read supports the error (min_edge_weight = 2).
        let mut reads = reads_from(&w, 10, 60);
        reads.push(noisy[20..80].to_vec());
        let read_refs: Vec<&[u8]> = reads.iter().map(|r| r.as_slice()).collect();
        let haps = assemble(&w, &read_refs, &AssemblyOptions::default());
        assert_eq!(haps.len(), 1, "error path pruned");
    }

    #[test]
    fn haplotype_cap_is_respected() {
        let w = window();
        let mut reads = reads_from(&w, 6, 60);
        // Create many alt haplotypes.
        for i in 0..12 {
            let mut alt = w.clone();
            let p = 30 + i * 9;
            alt[p] = if alt[p] == b'A' { b'C' } else { b'A' };
            reads.extend(reads_from(&alt, 3, 60));
        }
        let read_refs: Vec<&[u8]> = reads.iter().map(|r| r.as_slice()).collect();
        let opts = AssemblyOptions { max_haplotypes: 5, ..Default::default() };
        let haps = assemble(&w, &read_refs, &opts);
        assert!(haps.len() <= 5);
        assert_eq!(haps[0], w);
    }

    #[test]
    fn reads_with_n_are_handled() {
        let w = window();
        let mut read = w[10..70].to_vec();
        read[30] = b'N';
        let binding = [read.as_slice()];
        let haps = assemble(&w, &binding, &AssemblyOptions::default());
        assert_eq!(haps[0], w);
    }

    #[test]
    fn tiny_window_returns_ref() {
        let w = b"ACGTACGT".to_vec();
        let haps = assemble(&w, &[], &AssemblyOptions::default());
        assert_eq!(haps, vec![w]);
    }
}
