//! Compression tour: the §4.2 genomic codecs, field by field.
//!
//! Demonstrates 2-bit sequence packing with the N-escape (Figure 4), quality
//! delta + Huffman coding (Figures 5–6), and the serializer family the
//! engine shuffles with — reproducing the Table 3 measurement on a simulated
//! read batch.
//!
//! ```sh
//! cargo run --release --example compression_tour
//! ```

use gpf::compress::qualcodec::{delta_histogram, histogram_delta, QualityCodec};
use gpf::compress::sequence::compress_read_fields;
use gpf::compress::serializer::{serialize_batch, SerializerKind};
use gpf::workloads::quality::QualityProfile;
use gpf_formats::fastq::FastqRecord;
use gpf_support::rng::StdRng;
use gpf_support::rng::{Rng, SeedableRng};

fn main() {
    // --- Figure 4: one read through the sequence codec. ------------------
    let seq = b"GGTTNCCTA";
    let qual = b"CCCB#FFFF";
    let codec = QualityCodec::default_codec();
    let c = compress_read_fields(seq, qual, &codec).expect("valid read");
    println!("Figure 4 example:");
    println!("  sequence GGTTNCCTA + quality CCCB#FFFF");
    println!(
        "  packed bits: {:08b} {:08b} {:08b}  (2-bit codes, N escaped through quality)",
        c.packed_seq[0], c.packed_seq[1], c.packed_seq[2]
    );
    println!(
        "  9 bases + 9 quality chars = 18 bytes -> {} payload bytes",
        c.payload_bytes()
    );

    // --- Figure 5: delta concentration on simulated quality strings. -----
    let mut rng = StdRng::seed_from_u64(42);
    let profile = QualityProfile::srr622461_like();
    let quals: Vec<Vec<u8>> = (0..2000).map(|_| profile.sample(100, &mut rng)).collect();
    let refs: Vec<&[u8]> = quals.iter().map(|q| q.as_slice()).collect();
    let hist = delta_histogram(refs.iter().copied());
    let total: u64 = hist.iter().sum();
    println!("\nFigure 5(b) adjacent-delta histogram ({} transitions):", total);
    for (i, &count) in hist.iter().enumerate() {
        let d = histogram_delta(i);
        if (-3..=3).contains(&d) {
            let pct = 100.0 * count as f64 / total as f64;
            println!("  delta {d:>3}: {pct:5.1}%  {}", "#".repeat((pct / 2.0) as usize));
        }
    }

    // --- Quality codec on the batch. --------------------------------------
    let encoded: usize = refs.iter().map(|q| codec.encode_to_bytes(q).unwrap().len()).sum();
    let raw: usize = refs.iter().map(|q| q.len()).sum();
    println!(
        "\nquality codec: {raw} raw bytes -> {encoded} encoded ({:.2} bits/char)",
        8.0 * encoded as f64 / raw as f64
    );

    // --- Table 3: serializer family on realistic reads. -------------------
    let records: Vec<FastqRecord> = quals
        .iter()
        .enumerate()
        .take(1000)
        .map(|(i, q)| {
            let seq: Vec<u8> = (0..q.len())
                .map(|_| if rng.gen_bool(0.002) { b'N' } else { b"ACGT"[rng.gen_range(0..4)] })
                .collect();
            let mut q = q.clone();
            for (qc, s) in q.iter_mut().zip(&seq) {
                if *s == b'N' {
                    *qc = 33;
                }
            }
            FastqRecord::new(format!("SRR622461.{i}"), &seq, &q).expect("valid read")
        })
        .collect();
    println!("\nserializer family over {} 100bp reads (Table 3 mechanism):", records.len());
    let gpf_size = serialize_batch(SerializerKind::Gpf, &records).len();
    for kind in [SerializerKind::JavaSim, SerializerKind::KryoSim, SerializerKind::Gpf] {
        let size = serialize_batch(kind, &records).len();
        println!(
            "  {kind:?}: {size:>8} bytes ({:.1} B/read, {:.2}x vs GPF)",
            size as f64 / records.len() as f64,
            size as f64 / gpf_size as f64
        );
    }
    println!("\npaper Table 3 reports 20.0->11.1 GB on the FASTQ-loading stage: same shape.");
}
