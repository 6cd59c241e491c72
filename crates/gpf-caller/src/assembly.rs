//! Local de-novo assembly: de Bruijn graph over region reads + reference,
//! yielding candidate haplotypes.
//!
//! The graph's nodes are k-mers; edges carry read support counts. Candidate
//! haplotypes are paths from the reference window's first k-mer to its last
//! k-mer, following edges with sufficient support (or reference edges).
//! Bounded DFS keeps repeat-induced cycles from exploding.

use std::collections::HashMap;

/// k-mer size.
const K: usize = 21;
/// Minimum read support for a non-reference edge.
const MIN_EDGE_WEIGHT: u32 = 2;
/// Maximum number of haplotypes returned, the reference included.
const MAX_HAPLOTYPES: usize = 8;
/// Maximum haplotype length as a multiple of the window length.
const MAX_LEN_FACTOR: f64 = 1.5;

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

/// Append one base to a packed [`K`]-mer, dropping the oldest base.
fn roll(packed: u64, base_code: u64) -> u64 {
    let mask = (1u64 << (2 * K)) - 1;
    let guard = 1u64 << (2 * K);
    (((packed << 2) | base_code) & mask) | guard
}

/// The de Bruijn assembler.
pub struct DeBruijnGraph {
    /// k-mer -> per-next-base (A,C,G,T) edge weights.
    edges: HashMap<u64, [u32; 4]>,
    /// Edges present in the reference path (always traversable).
    ref_edges: HashMap<u64, [bool; 4]>,
}

impl DeBruijnGraph {
    /// Build a graph from the reference window and read sequences.
    pub fn build(ref_window: &[u8], reads: &[&[u8]]) -> Self {
        let mut g = Self { edges: HashMap::new(), ref_edges: HashMap::new() };
        g.add_sequence(ref_window, true);
        for read in reads {
            g.add_sequence(read, false);
        }
        g
    }

    fn add_sequence(&mut self, seq: &[u8], is_ref: bool) {
        if seq.len() <= K {
            return;
        }
        let mut cur = match pack(&seq[..K]) {
            Some(p) => p,
            None => {
                // Skip ahead past invalid characters.
                return self.add_sequence_skipping(seq, is_ref);
            }
        };
        for &b in &seq[K..] {
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
            cur = roll(cur, code);
        }
    }

    /// Slow path for sequences containing N: add each clean k+1 window.
    fn add_sequence_skipping(&mut self, seq: &[u8], is_ref: bool) {
        for win in seq.windows(K + 1) {
            if let (Some(cur), Some(code)) = (pack(&win[..K]), match win[K] {
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
    pub fn haplotypes(&self, ref_window: &[u8]) -> Vec<Vec<u8>> {
        if ref_window.len() <= K {
            return vec![ref_window.to_vec()];
        }
        let Some(start) = pack(&ref_window[..K]) else {
            return vec![ref_window.to_vec()];
        };
        let Some(end) = pack(&ref_window[ref_window.len() - K..]) else {
            return vec![ref_window.to_vec()];
        };
        let max_len = (ref_window.len() as f64 * MAX_LEN_FACTOR) as usize;

        let mut out: Vec<Vec<u8>> = Vec::new();
        // Bounded DFS: stack of (node, sequence-so-far).
        let mut stack: Vec<(u64, Vec<u8>)> = vec![(start, ref_window[..K].to_vec())];
        // Expansion budget: a clean window needs ~window_len expansions; the
        // cap only binds in cyclic repeat tangles, where unbounded DFS would
        // burn tens of milliseconds per region cloning partial paths.
        let budget = (ref_window.len() * 6).max(2_000);
        let mut expansions = 0usize;
        while let Some((node, seq)) = stack.pop() {
            expansions += 1;
            if expansions > budget || out.len() >= MAX_HAPLOTYPES {
                break;
            }
            if node == end && seq.len() > K {
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
                let supported = weights[code as usize] >= MIN_EDGE_WEIGHT || refs[code as usize];
                if supported {
                    let mut next_seq = seq.clone();
                    next_seq.push(b"ACGT"[code as usize]);
                    stack.push((roll(node, code), next_seq));
                }
            }
        }
        // Ensure the reference window itself is present and first.
        let ref_vec = ref_window.to_vec();
        out.retain(|h| h != &ref_vec);
        out.sort();
        out.dedup();
        out.truncate(MAX_HAPLOTYPES - 1);
        let mut result = vec![ref_vec];
        result.extend(out);
        result
    }
}

/// Convenience: assemble haplotypes for a region.
pub fn assemble(ref_window: &[u8], reads: &[&[u8]]) -> Vec<Vec<u8>> {
    DeBruijnGraph::build(ref_window, reads).haplotypes(ref_window)
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
        let haps = assemble(&w, &read_refs);
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
        let haps = assemble(&w, &read_refs);
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
        let haps = assemble(&w, &read_refs);
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
        let haps = assemble(&w, &read_refs);
        assert!(haps.contains(&alt), "insertion haplotype found");
    }

    #[test]
    fn singleton_errors_are_pruned() {
        let w = window();
        let mut noisy = w.clone();
        noisy[40] = if noisy[40] == b'G' { b'T' } else { b'G' };
        // Only ONE read supports the error (`MIN_EDGE_WEIGHT` is 2).
        let mut reads = reads_from(&w, 10, 60);
        reads.push(noisy[20..80].to_vec());
        let read_refs: Vec<&[u8]> = reads.iter().map(|r| r.as_slice()).collect();
        let haps = assemble(&w, &read_refs);
        assert_eq!(haps.len(), 1, "error path pruned");
    }

    #[test]
    fn haplotype_cap_is_respected() {
        let w = window();
        let mut reads = reads_from(&w, 6, 60);
        // Five SNVs more than `K` apart, each carried by two reads: every
        // subset of them spells a supported path, 32 in all. Each alt base
        // is a `T` over a reference base that is not, and the search tries
        // the highest base first, so the reference path is not among the
        // first `MAX_HAPLOTYPES` found: the cap holds its place.
        for start in [25usize, 50, 75, 100, 125] {
            let p = (start..).find(|&p| w[p] != b'T').unwrap();
            let mut alt = w.clone();
            alt[p] = b'T';
            reads.extend([alt[p - 25..p + 25].to_vec(), alt[p - 24..p + 26].to_vec()]);
        }
        let read_refs: Vec<&[u8]> = reads.iter().map(|r| r.as_slice()).collect();
        let haps = assemble(&w, &read_refs);
        assert_eq!(haps.len(), MAX_HAPLOTYPES);
        assert_eq!(haps[0], w);
        let mut distinct = haps.clone();
        distinct.sort();
        distinct.dedup();
        assert_eq!(distinct.len(), MAX_HAPLOTYPES);
    }

    #[test]
    fn reads_with_n_are_handled() {
        let w = window();
        let mut read = w[10..70].to_vec();
        read[30] = b'N';
        let binding = [read.as_slice()];
        let haps = assemble(&w, &binding);
        assert_eq!(haps[0], w);
    }

    #[test]
    fn tiny_window_returns_ref() {
        let w = b"ACGTACGT".to_vec();
        let haps = assemble(&w, &[]);
        assert_eq!(haps, vec![w]);
    }
}
