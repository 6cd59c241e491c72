//! Per-rule fixture tests: every rule has a positive fixture (must be
//! flagged) and a negative fixture (must pass clean).

use gpf_lint::{lint_manifest, lint_source, Rule};

fn rules_hit(findings: &[gpf_lint::Finding]) -> Vec<Rule> {
    let mut rules: Vec<Rule> = findings.iter().map(|f| f.rule).collect();
    rules.sort();
    rules.dedup();
    rules
}

#[test]
fn no_panic_positive() {
    let f = lint_source(
        "crates/x/src/lib.rs",
        include_str!("../fixtures/no_panic_bad.rs"),
    );
    assert_eq!(rules_hit(&f), vec![Rule::NoPanic]);
    // One finding per banned token: unwrap, expect, panic!, todo!,
    // unimplemented!, unreachable!.
    assert_eq!(f.len(), 6, "{f:?}");
    let lines: Vec<usize> = f.iter().map(|x| x.line).collect();
    assert_eq!(lines, vec![3, 4, 6, 9, 10, 11]);
}

#[test]
fn no_panic_negative() {
    let f = lint_source(
        "crates/x/src/lib.rs",
        include_str!("../fixtures/no_panic_ok.rs"),
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn safety_comment_positive() {
    let f = lint_source(
        "crates/x/src/lib.rs",
        include_str!("../fixtures/safety_bad.rs"),
    );
    assert_eq!(rules_hit(&f), vec![Rule::SafetyComment]);
    assert_eq!(f.len(), 1);
    assert_eq!(f[0].line, 3);
}

#[test]
fn safety_comment_negative() {
    let f = lint_source(
        "crates/x/src/lib.rs",
        include_str!("../fixtures/safety_ok.rs"),
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn relaxed_ordering_positive() {
    // Outside the sanctioned zones a Relaxed is flagged even if justified.
    for bad in [
        include_str!("../fixtures/relaxed_bad.rs"),
        include_str!("../fixtures/relaxed_justified.rs"),
    ] {
        let f = lint_source("crates/gpf-engine/src/context.rs", bad);
        assert_eq!(rules_hit(&f), vec![Rule::RelaxedOrdering]);
        assert_eq!(f.len(), 1, "{f:?}");
    }
    // Inside a zone, a Relaxed without a `// ordering:` comment is flagged.
    let in_zone = lint_source(
        "crates/gpf-support/src/par.rs",
        include_str!("../fixtures/relaxed_bad.rs"),
    );
    assert_eq!(rules_hit(&in_zone), vec![Rule::RelaxedOrdering]);
    assert_eq!(in_zone.len(), 1, "{in_zone:?}");
    assert_eq!(in_zone[0].line, 5);
    assert!(in_zone[0].message.contains("ordering:"), "{in_zone:?}");
}

#[test]
fn relaxed_ordering_negative() {
    let f = lint_source(
        "crates/gpf-engine/src/context.rs",
        include_str!("../fixtures/relaxed_ok.rs"),
    );
    assert!(f.is_empty(), "{f:?}");
    // A justified Relaxed is legal in both sanctioned zones.
    for zone in ["crates/gpf-support/src/par.rs", "crates/gpf-trace/src/counters.rs"] {
        let in_zone = lint_source(zone, include_str!("../fixtures/relaxed_justified.rs"));
        assert!(in_zone.is_empty(), "{zone}: {in_zone:?}");
    }
    // The checker crate implements the memory model and is exempt.
    let in_check = lint_source(
        "crates/gpf-check/src/rt/mod.rs",
        include_str!("../fixtures/relaxed_bad.rs"),
    );
    assert!(in_check.is_empty(), "{in_check:?}");
}

#[test]
fn thread_spawn_positive() {
    let f = lint_source(
        "crates/gpf-engine/src/dataset.rs",
        include_str!("../fixtures/spawn_bad.rs"),
    );
    assert_eq!(rules_hit(&f), vec![Rule::ThreadSpawn]);
    assert_eq!(f.len(), 1);
    assert_eq!(f[0].line, 5);
}

#[test]
fn thread_spawn_negative() {
    let f = lint_source(
        "crates/gpf-engine/src/dataset.rs",
        include_str!("../fixtures/spawn_ok.rs"),
    );
    assert!(f.is_empty(), "{f:?}");
    // gpf-support and the checker crate itself may spawn.
    for exempt in ["crates/gpf-support/src/sync.rs", "crates/gpf-check/src/shim/thread.rs"] {
        let f = lint_source(exempt, include_str!("../fixtures/spawn_bad.rs"));
        assert!(f.is_empty(), "{exempt}: {f:?}");
    }
}

#[test]
fn concurrency_boundary_positive() {
    let f = lint_source(
        "crates/gpf-core/src/process.rs",
        include_str!("../fixtures/concurrency_boundary_bad.rs"),
    );
    assert_eq!(rules_hit(&f), vec![Rule::ConcurrencyBoundary]);
    // One finding per raw import: std::sync::atomic, std::sync::{Condvar, Mutex}.
    assert_eq!(f.len(), 2, "{f:?}");
    let lines: Vec<usize> = f.iter().map(|x| x.line).collect();
    assert_eq!(lines, vec![2, 3]);
}

#[test]
fn concurrency_boundary_negative() {
    let f = lint_source(
        "crates/gpf-core/src/process.rs",
        include_str!("../fixtures/concurrency_boundary_ok.rs"),
    );
    assert!(f.is_empty(), "{f:?}");
    // The checker crate owns the raw primitives.
    let in_check = lint_source(
        "crates/gpf-check/src/rt/mod.rs",
        include_str!("../fixtures/concurrency_boundary_bad.rs"),
    );
    assert!(in_check.is_empty(), "{in_check:?}");
}

#[test]
fn no_raw_print_positive() {
    let f = lint_source(
        "crates/x/src/lib.rs",
        include_str!("../fixtures/no_raw_print_bad.rs"),
    );
    assert_eq!(rules_hit(&f), vec![Rule::NoRawPrint]);
    // One finding per macro: println!, eprintln!, print!, eprint!.
    assert_eq!(f.len(), 4, "{f:?}");
    let lines: Vec<usize> = f.iter().map(|x| x.line).collect();
    assert_eq!(lines, vec![3, 4, 5, 6]);
}

#[test]
fn no_raw_print_negative() {
    let f = lint_source(
        "crates/x/src/lib.rs",
        include_str!("../fixtures/no_raw_print_ok.rs"),
    );
    assert!(f.is_empty(), "{f:?}");
    // Binaries and the sink module itself may print freely.
    for exempt in [
        "crates/x/src/main.rs",
        "crates/x/src/bin/tool.rs",
        "crates/gpf-trace/src/sink.rs",
    ] {
        let f = lint_source(exempt, include_str!("../fixtures/no_raw_print_bad.rs"));
        assert!(f.is_empty(), "{exempt}: {f:?}");
    }
}

#[test]
fn swallowed_error_positive() {
    let f = lint_source(
        "crates/gpf-engine/src/dataset.rs",
        include_str!("../fixtures/swallowed_error_bad.rs"),
    );
    assert_eq!(rules_hit(&f), vec![Rule::SwallowedError]);
    // One finding per discard: `let _ =`, `.ok()`.
    assert_eq!(f.len(), 2, "{f:?}");
    let lines: Vec<usize> = f.iter().map(|x| x.line).collect();
    assert_eq!(lines, vec![3, 4]);
}

#[test]
fn swallowed_error_negative() {
    let f = lint_source(
        "crates/gpf-core/src/pipeline.rs",
        include_str!("../fixtures/swallowed_error_ok.rs"),
    );
    assert!(f.is_empty(), "{f:?}");
    // The rule is scoped to the engine/core crates: the same discards are
    // legal (if still ugly) elsewhere in the workspace.
    let outside = lint_source(
        "crates/gpf-bench/src/workload.rs",
        include_str!("../fixtures/swallowed_error_bad.rs"),
    );
    assert!(outside.is_empty(), "{outside:?}");
}

#[test]
fn counter_name_registry_positive() {
    let f = lint_source(
        "crates/x/src/lib.rs",
        include_str!("../fixtures/counter_name_bad.rs"),
    );
    assert_eq!(rules_hit(&f), vec![Rule::CounterNameRegistry]);
    // One finding per typo'd registration: counter, histogram.
    assert_eq!(f.len(), 2, "{f:?}");
    let lines: Vec<usize> = f.iter().map(|x| x.line).collect();
    assert_eq!(lines, vec![4, 5]);
    assert!(f[0].message.contains("task.retires"), "{f:?}");
    assert!(f[1].message.contains("shuffle.bucket.byte"), "{f:?}");
}

#[test]
fn counter_name_registry_negative() {
    let f = lint_source(
        "crates/x/src/lib.rs",
        include_str!("../fixtures/counter_name_ok.rs"),
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn hermetic_deps_positive() {
    let f = lint_manifest(
        "crates/x/Cargo.toml",
        include_str!("../fixtures/manifest_bad.toml"),
    );
    assert_eq!(rules_hit(&f), vec![Rule::HermeticDeps]);
    // serde, rand, proptest, and the [dependencies.tokio] subtable.
    assert_eq!(f.len(), 4, "{f:?}");
    let lines: Vec<usize> = f.iter().map(|x| x.line).collect();
    assert_eq!(lines, vec![8, 9, 13, 15]);
    assert!(f.iter().any(|x| x.message.contains("tokio")), "{f:?}");
}

#[test]
fn hermetic_deps_negative() {
    let f = lint_manifest(
        "crates/x/Cargo.toml",
        include_str!("../fixtures/manifest_ok.toml"),
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn findings_render_file_line_rule() {
    let f = lint_source(
        "crates/x/src/lib.rs",
        include_str!("../fixtures/safety_bad.rs"),
    );
    let text = f[0].to_string();
    assert!(text.starts_with("crates/x/src/lib.rs:3: [safety-comment]"), "{text}");
    let json = f[0].to_json();
    assert!(json.contains("\"rule\":\"safety-comment\""), "{json}");
    assert!(json.contains("\"line\":3"), "{json}");
}

#[test]
fn spill_read_checksum_positive() {
    let f = lint_source(
        "crates/gpf-engine/src/budget.rs",
        include_str!("../fixtures/spill_checksum_bad.rs"),
    );
    assert_eq!(rules_hit(&f), vec![Rule::SpillFrameChecksum]);
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].line, 3);
    assert!(f[0].message.contains("verify_decode"), "{f:?}");
}

#[test]
fn spill_read_checksum_negative() {
    // The frame reader's shape — the stored bytes straight into
    // `verify_decode` — passes clean.
    let f = lint_source(
        "crates/gpf-engine/src/budget.rs",
        include_str!("../fixtures/spill_checksum_ok.rs"),
    );
    assert!(f.is_empty(), "{f:?}");
}
