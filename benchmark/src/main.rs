//! `gpf-benchmark`: the repo benchmark. `run.sh` builds this binary and
//! hands it the command line; see `README.md` for what each mode measures.
//!
//! ```text
//! gpf-benchmark run --out DIR [--seed S]                  full report
//! gpf-benchmark run --out DIR [--seed S] --selfcheck      two sets, A/B
//! gpf-benchmark run --out DIR --workload W --seed S --seconds T --trace 0|1
//! gpf-benchmark gen | child | walk ...                    (spawned by `run`)
//! ```

mod child;
mod driver;
mod gen;
mod metrics;
mod record;
mod score;
mod span;
mod walk;
mod workload;

use std::path::PathBuf;
use std::str::FromStr;
use std::time::Instant;

fn main() {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match run(&args, started) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("gpf-benchmark: {e}");
            2
        }
    };
    std::process::exit(code);
}

/// Value of `--name`, parsed; `None` when the flag is absent.
fn flag<T: FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .map(Some)
            .ok_or(format!("{name} needs a value")),
    }
}

fn required<T: FromStr>(args: &[String], name: &str) -> Result<T, String> {
    flag(args, name)?.ok_or(format!("{name} is required"))
}

fn workload_arg(args: &[String]) -> Result<Option<&'static workload::Workload>, String> {
    flag::<String>(args, "--workload")?
        .map(|name| workload::by_name(&name).ok_or(format!("unknown workload `{name}`")))
        .transpose()
}

fn run(args: &[String], started: Instant) -> Result<i32, String> {
    let has = |name: &str| args.iter().any(|a| a == name);
    match args.first().map(String::as_str) {
        Some("run") => {
            let out: PathBuf = required(args, "--out")?;
            let seed = flag(args, "--seed")?.unwrap_or(driver::DEFAULT_SEED);
            match workload_arg(args)? {
                Some(w) => {
                    let seconds: f64 = required(args, "--seconds")?;
                    let trace = required::<u8>(args, "--trace")? != 0;
                    driver::contract(out, w, seed, seconds, trace)
                }
                None if has("--selfcheck") => driver::selfcheck(out, seed),
                None => driver::report(out, seed),
            }
        }
        Some("gen") => {
            let dir: PathBuf = required(args, "--dir")?;
            gen::generate(required(args, "--seed")?, workload::SCALE, &dir)
                .map_err(|e| format!("gen into {}: {e}", dir.display()))?;
            Ok(0)
        }
        Some("child") => {
            let w = workload_arg(args)?.ok_or("--workload is required")?;
            let dir: PathBuf = required(args, "--dir")?;
            let opts = child::ChildOpts {
                optimize: !has("--no-optimize"),
                trace: has("--trace-kernels"),
            };
            println!("{}", child::run(w, &dir, opts, started)?.to_json());
            Ok(0)
        }
        Some("walk") => {
            let dir: PathBuf = required(args, "--dir")?;
            let trace: PathBuf = required(args, "--trace-out")?;
            println!("{}", walk::run(&dir, &trace)?.to_json());
            Ok(0)
        }
        _ => Err("usage: gpf-benchmark run --out DIR [--seed S] [--selfcheck | --workload W --seconds T --trace 0|1]".into()),
    }
}
