//! `cargo bench --bench paper_tables` regenerates EVERY table and figure of
//! the paper's evaluation at a bench-friendly scale and prints them.
//!
//! This is the harness deliverable: one command, all rows/series. Scale is
//! controlled by `GPF_SCALE` (default 0.35 here to keep bench runs brisk;
//! use the `experiments` binary at `--scale 1.0` for fuller runs).

fn main() {
    let scale = gpf_bench::env_scale(0.35).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    println!("# GPF paper evaluation — full regeneration (scale {scale})\n");
    let t0 = std::time::Instant::now();
    for report in gpf_bench::experiments::all(scale) {
        report.print();
    }
    println!("# total wall time: {:.1}s", t0.elapsed().as_secs_f64());
}
