//! # gpf-lint
//!
//! Mechanical enforcement of the workspace invariants PR 1 established —
//! the checks a reviewer would otherwise have to re-verify on every change.
//! Its one dependency is `gpf-trace`, a workspace path crate, for the
//! metric-name registry the `counter-name-registry` rule reads; the linter
//! itself must build with `--offline` from a clean checkout.
//!
//! ## Rules
//!
//! | rule | invariant |
//! |------|-----------|
//! | `no-panic` | no `.unwrap()` / `.expect(` / `panic!` / `unreachable!` / `todo!` / `unimplemented!` in non-test library code |
//! | `safety-comment` | every `unsafe` is preceded by (or shares a line with) a `// SAFETY:` comment |
//! | `relaxed-ordering` | `Ordering::Relaxed` only inside `gpf-support/src/par.rs` or `gpf-trace/src`, and only with an adjacent `// ordering:` justification comment |
//! | `thread-spawn` | `thread::spawn` only inside `gpf-support` and `gpf-check` (everyone else uses `gpf_support::par`) |
//! | `concurrency-boundary` | raw `std::sync::atomic`, `std::thread::spawn`, and `std::sync::{Mutex,RwLock,Condvar}` only inside `gpf-check` (the shim home) — everyone else uses the shim-backed re-exports (`gpf_support::chk`, `gpf_support::sync`), so the model checker sees every primitive |
//! | `hermetic-deps` | every manifest dependency is a workspace/path dep — nothing from crates.io |
//! | `no-raw-print` | no `println!`/`eprintln!` in non-test library code — route output through `gpf_trace::sink` (binaries and the sink module itself are exempt) |
//! | `swallowed-error` | no `let _ = ...` / `.ok()` discards in non-test `gpf-engine`/`gpf-core` code — the fault-tolerance layer relies on every error reaching `EngineContext::fail` |
//! | `counter-name-registry` | every literal `counter("...")` / `histogram("...")` registration uses a name declared in `gpf_trace::names` — a typo'd name would silently accumulate into a metric nobody reads |
//!
//! `assert!` / `debug_assert!` are deliberately *not* banned: stating an
//! invariant is encouraged; what the `no-panic` rule bans is using a panic
//! as an error path.
//!
//! ## Allowlisting
//!
//! A violation is suppressed by an annotation on the same line or in the
//! comment block immediately above, **with a mandatory justification**:
//!
//! ```text
//! // gpf-lint: allow(no-panic): scheduler guarantees inputs are Defined.
//! ```
//!
//! An annotation without a justification does not suppress anything.
//!
//! ## Scanning model
//!
//! Rust sources are masked by a small char-level lexer that blanks string
//! literals and comments out of the *code* view (so `"panic!"` in a message
//! string is not a finding) and keeps a parallel *comment* view (where
//! `SAFETY:` and `gpf-lint: allow(...)` annotations live). `#[cfg(test)]`
//! regions are excluded by bracket/brace matching — test code may unwrap
//! freely.

use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

/// The enforced invariants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// No panicking calls in non-test library code.
    NoPanic,
    /// `unsafe` requires an adjacent `// SAFETY:` comment.
    SafetyComment,
    /// `Ordering::Relaxed` is confined to `gpf-support/src/par.rs` and
    /// `gpf-trace/src`, and every use needs an adjacent `// ordering:`
    /// justification comment.
    RelaxedOrdering,
    /// `thread::spawn` is confined to `gpf-support` and `gpf-check`.
    ThreadSpawn,
    /// Raw `std::sync` concurrency primitives (atomics, `Mutex`, `RwLock`,
    /// `Condvar`) and `std::thread::spawn` are confined to `gpf-check`:
    /// everything else must use the shim-backed re-exports so the model
    /// checker can explore schedules over the real code.
    ConcurrencyBoundary,
    /// Manifest dependencies must be workspace/path deps.
    HermeticDeps,
    /// No raw `println!`/`eprintln!` in library code; console output goes
    /// through `gpf_trace::sink` so one layer owns the terminal.
    NoRawPrint,
    /// No silently discarded results (`let _ = ...`, `.ok()`) in the
    /// engine/core crates: recovery decisions need every error surfaced.
    SwallowedError,
    /// Literal `counter("...")` / `histogram("...")` registrations must use
    /// a name from the `gpf_trace::names` registry; unregistered names
    /// accumulate into metrics no report reads.
    CounterNameRegistry,
    /// Every `.payload_unverified()` spill-frame read must reach
    /// `verify_decode` — the engine's one checksum compare — within ±10
    /// lines: spilled partitions are the
    /// one place engine data leaves tracked memory, and an unverified
    /// decode would let read-back corruption flow silently into results.
    SpillReadChecksum,
}

impl Rule {
    /// Stable kebab-case rule name (used in `allow(...)` annotations and
    /// `--json` output).
    pub fn name(self) -> &'static str {
        match self {
            Rule::NoPanic => "no-panic",
            Rule::SafetyComment => "safety-comment",
            Rule::RelaxedOrdering => "relaxed-ordering",
            Rule::ThreadSpawn => "thread-spawn",
            Rule::ConcurrencyBoundary => "concurrency-boundary",
            Rule::HermeticDeps => "hermetic-deps",
            Rule::NoRawPrint => "no-raw-print",
            Rule::SwallowedError => "swallowed-error",
            Rule::CounterNameRegistry => "counter-name-registry",
            Rule::SpillReadChecksum => "spill-read-checksum",
        }
    }

    /// Every rule, in reporting order.
    pub fn all() -> [Rule; 10] {
        [
            Rule::NoPanic,
            Rule::SafetyComment,
            Rule::RelaxedOrdering,
            Rule::ThreadSpawn,
            Rule::ConcurrencyBoundary,
            Rule::HermeticDeps,
            Rule::NoRawPrint,
            Rule::SwallowedError,
            Rule::CounterNameRegistry,
            Rule::SpillReadChecksum,
        ]
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One rule violation at a file:line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Violated rule.
    pub rule: Rule,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

impl Finding {
    /// Render as a JSON object (std-only serializer).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\"}}",
            self.rule,
            json_escape(&self.file),
            self.line,
            json_escape(&self.message)
        )
    }
}

/// Escape a string for embedding in JSON output.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Source masking
// ---------------------------------------------------------------------------

/// A Rust source split into parallel per-line views: `code` with string
/// literals and comments blanked, `comments` with only comment text kept.
pub struct MaskedSource {
    /// Per-line code text (strings/comments replaced by spaces).
    pub code: Vec<String>,
    /// Per-line comment text (everything else replaced by spaces).
    pub comments: Vec<String>,
    /// Per-line flag: inside a `#[cfg(test)]` region.
    pub is_test: Vec<bool>,
}

enum LexState {
    Code,
    LineComment,
    BlockComment(u32),
    Str { escaped: bool },
    RawStr { hashes: usize },
    CharLit { escaped: bool },
}

/// Does a raw-string literal start at `chars[i]`? Returns `(hashes,
/// consumed)` covering the optional `b`, the `r`, the hashes, and the
/// opening quote.
fn raw_string_start(chars: &[char], i: usize) -> Option<(usize, usize)> {
    // `r` / `br` must not be the tail of an identifier (`var`, `attr`, ...).
    if i > 0 {
        let prev = chars[i - 1];
        if prev.is_alphanumeric() || prev == '_' {
            return None;
        }
    }
    let mut j = i;
    if chars.get(j) == Some(&'b') {
        j += 1;
    }
    if chars.get(j) != Some(&'r') {
        return None;
    }
    j += 1;
    let mut hashes = 0;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    if chars.get(j) == Some(&'"') {
        Some((hashes, j + 1 - i))
    } else {
        None
    }
}

/// Mask a Rust source into code/comment line views and mark test regions.
pub fn mask(source: &str) -> MaskedSource {
    let chars: Vec<char> = source.chars().collect();
    let mut code_lines: Vec<String> = Vec::new();
    let mut comment_lines: Vec<String> = Vec::new();
    let mut code = String::new();
    let mut comment = String::new();
    let mut st = LexState::Code;
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if matches!(st, LexState::LineComment) {
                st = LexState::Code;
            }
            code_lines.push(std::mem::take(&mut code));
            comment_lines.push(std::mem::take(&mut comment));
            i += 1;
            continue;
        }
        match st {
            LexState::Code => {
                if c == '/' && chars.get(i + 1) == Some(&'/') {
                    st = LexState::LineComment;
                    code.push_str("  ");
                    comment.push_str("//");
                    i += 2;
                } else if c == '/' && chars.get(i + 1) == Some(&'*') {
                    st = LexState::BlockComment(1);
                    code.push_str("  ");
                    comment.push_str("/*");
                    i += 2;
                } else if let Some((hashes, consumed)) = raw_string_start(&chars, i) {
                    st = LexState::RawStr { hashes };
                    for _ in 0..consumed {
                        code.push(' ');
                        comment.push(' ');
                    }
                    i += consumed;
                } else if c == '"' {
                    st = LexState::Str { escaped: false };
                    code.push(' ');
                    comment.push(' ');
                    i += 1;
                } else if c == '\'' {
                    // Lifetime/label (`'a`, `'static`) vs char literal
                    // (`'a'`, `'\n'`): an identifier char NOT followed by a
                    // closing quote means lifetime.
                    let is_lifetime = chars
                        .get(i + 1)
                        .map(|c1| (c1.is_alphanumeric() || *c1 == '_') && chars.get(i + 2) != Some(&'\''))
                        .unwrap_or(false);
                    if is_lifetime {
                        code.push('\'');
                        comment.push(' ');
                        i += 1;
                    } else {
                        st = LexState::CharLit { escaped: false };
                        code.push(' ');
                        comment.push(' ');
                        i += 1;
                    }
                } else {
                    code.push(c);
                    comment.push(' ');
                    i += 1;
                }
            }
            LexState::LineComment => {
                code.push(' ');
                comment.push(c);
                i += 1;
            }
            LexState::BlockComment(depth) => {
                if c == '*' && chars.get(i + 1) == Some(&'/') {
                    code.push_str("  ");
                    comment.push_str("*/");
                    i += 2;
                    if depth == 1 {
                        st = LexState::Code;
                    } else {
                        st = LexState::BlockComment(depth - 1);
                    }
                } else if c == '/' && chars.get(i + 1) == Some(&'*') {
                    code.push_str("  ");
                    comment.push_str("/*");
                    i += 2;
                    st = LexState::BlockComment(depth + 1);
                } else {
                    code.push(' ');
                    comment.push(c);
                    i += 1;
                }
            }
            LexState::Str { escaped } => {
                code.push(' ');
                comment.push(' ');
                if escaped {
                    st = LexState::Str { escaped: false };
                } else if c == '\\' {
                    st = LexState::Str { escaped: true };
                } else if c == '"' {
                    st = LexState::Code;
                }
                i += 1;
            }
            LexState::RawStr { hashes } => {
                if c == '"' {
                    let closes = (0..hashes).all(|k| chars.get(i + 1 + k) == Some(&'#'));
                    if closes {
                        for _ in 0..=hashes {
                            code.push(' ');
                            comment.push(' ');
                        }
                        i += 1 + hashes;
                        st = LexState::Code;
                        continue;
                    }
                }
                code.push(' ');
                comment.push(' ');
                i += 1;
            }
            LexState::CharLit { escaped } => {
                code.push(' ');
                comment.push(' ');
                if escaped {
                    st = LexState::CharLit { escaped: false };
                } else if c == '\\' {
                    st = LexState::CharLit { escaped: true };
                } else if c == '\'' {
                    st = LexState::Code;
                }
                i += 1;
            }
        }
    }
    if !code.is_empty() || !comment.is_empty() {
        code_lines.push(code);
        comment_lines.push(comment);
    }
    let is_test = mark_test_regions(&code_lines);
    MaskedSource { code: code_lines, comments: comment_lines, is_test }
}

/// Mark lines belonging to `#[cfg(test)]` items by matching the attribute's
/// brackets and then the item's braces.
fn mark_test_regions(code_lines: &[String]) -> Vec<bool> {
    let mut is_test = vec![false; code_lines.len()];
    for (start, line) in code_lines.iter().enumerate() {
        if !line.contains("cfg(test)") || !line.contains("#[") {
            continue;
        }
        // From the attribute onward, find the item's opening `{` (a `;`
        // first means a braceless item — nothing more to mark).
        let mut depth: i64 = 0;
        let mut opened = false;
        let mut end = start;
        'scan: for (li, l) in code_lines.iter().enumerate().skip(start) {
            for ch in l.chars() {
                match ch {
                    '{' => {
                        opened = true;
                        depth += 1;
                    }
                    '}' => {
                        depth -= 1;
                        if opened && depth <= 0 {
                            end = li;
                            break 'scan;
                        }
                    }
                    ';' if !opened && depth == 0 => {
                        end = li;
                        break 'scan;
                    }
                    _ => {}
                }
            }
            end = li;
        }
        for flag in is_test.iter_mut().take(end + 1).skip(start) {
            *flag = true;
        }
    }
    is_test
}

// ---------------------------------------------------------------------------
// Rule checks
// ---------------------------------------------------------------------------

/// Is an `allow(rule)` annotation (with a justification) attached to
/// `line` — on the same line or in the comment block directly above?
fn is_allowed(masked: &MaskedSource, line: usize, rule: Rule) -> bool {
    let pat = format!("gpf-lint: allow({})", rule.name());
    let annotated = |l: usize| -> bool {
        let Some(c) = masked.comments.get(l) else {
            return false;
        };
        let Some(pos) = c.find(&pat) else {
            return false;
        };
        // Mandatory justification: `allow(rule): <nonempty reason>`.
        let rest = c[pos + pat.len()..].trim_start();
        matches!(rest.strip_prefix(':').map(str::trim), Some(reason) if !reason.is_empty())
    };
    if annotated(line) {
        return true;
    }
    // Walk up through the contiguous comment-only/blank block above.
    let mut l = line;
    while l > 0 {
        l -= 1;
        let code_blank = masked.code.get(l).map(|c| c.trim().is_empty()).unwrap_or(true);
        if !code_blank {
            return false;
        }
        if annotated(l) {
            return true;
        }
    }
    false
}

/// Does `line` (or the contiguous comment/blank block directly above it)
/// carry `marker` in a comment? Used for `// SAFETY:` adjacency.
fn has_adjacent_marker(masked: &MaskedSource, line: usize, marker: &str) -> bool {
    let has = |l: usize| masked.comments.get(l).map(|c| c.contains(marker)).unwrap_or(false);
    if has(line) {
        return true;
    }
    let mut l = line;
    while l > 0 {
        l -= 1;
        if has(l) {
            return true;
        }
        let code_blank = masked.code.get(l).map(|c| c.trim().is_empty()).unwrap_or(true);
        if !code_blank {
            return false;
        }
    }
    false
}

/// Is `needle` present in `hay` as a token (no identifier char on either
/// side)? Returns every match position.
fn token_positions(hay: &str, needle: &str) -> Vec<usize> {
    let hb = hay.as_bytes();
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(rel) = hay.get(from..).and_then(|s| s.find(needle)) {
        let pos = from + rel;
        let before_ok = pos == 0 || {
            let b = hb[pos - 1] as char;
            !(b.is_alphanumeric() || b == '_')
        };
        let after = pos + needle.len();
        let after_ok = after >= hb.len() || {
            let a = hb[after] as char;
            !(a.is_alphanumeric() || a == '_')
        };
        if before_ok && after_ok {
            out.push(pos);
        }
        from = pos + needle.len();
    }
    out
}

/// `(token, what to say)` pairs for the `no-panic` rule. Tokens starting
/// with `.` are matched verbatim (the dot prevents `unwrap_or` matches);
/// the rest are token-matched.
const PANIC_TOKENS: [(&str, &str); 6] = [
    (".unwrap()", "`.unwrap()`"),
    (".expect(", "`.expect()`"),
    ("panic!", "`panic!`"),
    ("unreachable!", "`unreachable!`"),
    ("todo!", "`todo!`"),
    ("unimplemented!", "`unimplemented!`"),
];

/// Banned console macros for the `no-raw-print` rule (token-matched, so
/// `print!` does not also fire inside `println!` or `eprint!`).
const PRINT_TOKENS: [&str; 4] = ["println!", "eprintln!", "print!", "eprint!"];

/// Whether `name` is registered for the `counter-name-registry` rule: the
/// rule reads the registry itself, `gpf_trace::names::ALL_COUNTERS` and
/// `ALL_HISTOGRAMS`.
fn is_registered_metric(name: &str) -> bool {
    use gpf_trace::names::{ALL_COUNTERS, ALL_HISTOGRAMS};
    ALL_COUNTERS.iter().chain(ALL_HISTOGRAMS).any(|&known| known == name)
}

/// Literal first arguments of `counter("...")` / `histogram("...")`
/// registration calls on one line. `code` is the masked view (comments and
/// string contents blanked, char-aligned with the source); `raw` is the
/// original line, used to recover the blanked literal. Method calls
/// (`ev.counter(...)` reads a per-event key, not the registry) and
/// declarations (`fn counter(`) are not registrations; non-literal
/// arguments (const names) are checked at their declaration site instead.
fn metric_literal_args(code: &str, raw: &str, fn_name: &str) -> Vec<String> {
    let code_c: Vec<char> = code.chars().collect();
    let raw_c: Vec<char> = raw.chars().collect();
    let mut out = Vec::new();
    for pos in token_positions(code, fn_name) {
        // token_positions reports byte offsets; the views align by char.
        let start = code[..pos].chars().count();
        let prefix: String = code_c[..start].iter().collect();
        let t = prefix.trim_end();
        if t.ends_with('.') || t.ends_with("fn") {
            continue;
        }
        let mut j = start + fn_name.chars().count();
        while j < code_c.len() && code_c[j].is_whitespace() {
            j += 1;
        }
        if code_c.get(j) != Some(&'(') {
            continue;
        }
        // The literal itself is blanked in the code view — read it from
        // the raw line at the same char positions.
        let mut k = j + 1;
        while k < raw_c.len() && raw_c[k].is_whitespace() {
            k += 1;
        }
        if raw_c.get(k) != Some(&'"') {
            continue;
        }
        k += 1;
        let mut lit = String::new();
        while k < raw_c.len() && raw_c[k] != '"' && raw_c[k] != '\\' {
            lit.push(raw_c[k]);
            k += 1;
        }
        if raw_c.get(k) == Some(&'"') {
            out.push(lit);
        }
    }
    out
}

/// Lint one Rust source. `file` is the workspace-relative path used both
/// for reporting and for the location-scoped rules (`relaxed-ordering`,
/// `thread-spawn`, `no-raw-print`).
pub fn lint_source(file: &str, source: &str) -> Vec<Finding> {
    let masked = mask(source);
    let raw_lines: Vec<&str> = source.lines().collect();
    let mut findings = Vec::new();
    let in_par = file.ends_with("gpf-support/src/par.rs");
    let in_support = file.contains("gpf-support/");
    // gpf-check IS the shim / model-checker home: it implements the memory
    // model, so it legitimately holds raw std primitives and Relaxed loads.
    let in_check = file.contains("gpf-check/");
    // Files where `Relaxed` is admissible at all — and then only with an
    // adjacent `// ordering:` justification comment.
    let relaxed_zone = in_par || file.contains("gpf-trace/src/");
    // The crates where a dropped `Result` can hide a lost task or a corrupt
    // shuffle segment from the recovery machinery.
    let error_strict = file.contains("gpf-engine/") || file.contains("gpf-core/");
    // Binaries own their terminal; the sink module is where library output
    // funnels to. Everything else must go through the sink.
    let may_print = file.ends_with("/main.rs")
        || file.contains("/bin/")
        || file.ends_with("gpf-trace/src/sink.rs");
    for (idx, code) in masked.code.iter().enumerate() {
        if masked.is_test.get(idx).copied().unwrap_or(false) {
            continue;
        }
        let lineno = idx + 1;
        for (tok, what) in PANIC_TOKENS {
            let hit = if let Some(stripped) = tok.strip_prefix('.') {
                // `.unwrap()` / `.expect(`: the leading dot is its own
                // boundary; just require the verbatim sequence.
                let _ = stripped;
                code.contains(tok)
            } else {
                !token_positions(code, tok).is_empty()
            };
            if hit && !is_allowed(&masked, idx, Rule::NoPanic) {
                findings.push(Finding {
                    rule: Rule::NoPanic,
                    file: file.to_string(),
                    line: lineno,
                    message: format!(
                        "{what} in library code; propagate an error or annotate \
                         `// gpf-lint: allow(no-panic): <why it cannot fire>`"
                    ),
                });
            }
        }
        if !token_positions(code, "unsafe").is_empty() {
            let has_safety = has_adjacent_marker(&masked, idx, "SAFETY:");
            if !has_safety && !is_allowed(&masked, idx, Rule::SafetyComment) {
                findings.push(Finding {
                    rule: Rule::SafetyComment,
                    file: file.to_string(),
                    line: lineno,
                    message: "`unsafe` without an adjacent `// SAFETY:` comment".to_string(),
                });
            }
        }
        if !in_check
            && !token_positions(code, "Relaxed").is_empty()
            && !is_allowed(&masked, idx, Rule::RelaxedOrdering)
        {
            if !relaxed_zone {
                findings.push(Finding {
                    rule: Rule::RelaxedOrdering,
                    file: file.to_string(),
                    line: lineno,
                    message: "`Ordering::Relaxed` outside gpf-support/src/par.rs and \
                              gpf-trace/src; use the gpf_support primitives instead of \
                              raw atomics"
                        .to_string(),
                });
            } else if !has_adjacent_marker(&masked, idx, "ordering:") {
                findings.push(Finding {
                    rule: Rule::RelaxedOrdering,
                    file: file.to_string(),
                    line: lineno,
                    message: "`Ordering::Relaxed` without an adjacent `// ordering:` \
                              comment justifying why relaxed is sufficient here"
                        .to_string(),
                });
            }
        }
        if !in_support
            && !in_check
            && code.contains("thread::spawn")
            && !is_allowed(&masked, idx, Rule::ThreadSpawn)
        {
            findings.push(Finding {
                rule: Rule::ThreadSpawn,
                file: file.to_string(),
                line: lineno,
                message: "`thread::spawn` outside gpf-support; use gpf_support::par for \
                          scoped parallelism"
                    .to_string(),
            });
        }
        if !in_check && !is_allowed(&masked, idx, Rule::ConcurrencyBoundary) {
            let raw_hit = if code.contains("std::sync::atomic") {
                Some("raw `std::sync::atomic`")
            } else if code.contains("std::thread::spawn") {
                Some("raw `std::thread::spawn`")
            } else if code.contains("std::sync::")
                && ["Mutex", "RwLock", "Condvar"]
                    .iter()
                    .any(|t| !token_positions(code, t).is_empty())
            {
                Some("raw `std::sync` lock primitive")
            } else {
                None
            };
            if let Some(what) = raw_hit {
                findings.push(Finding {
                    rule: Rule::ConcurrencyBoundary,
                    file: file.to_string(),
                    line: lineno,
                    message: format!(
                        "{what} outside gpf-check; use the shim-backed re-exports \
                         (gpf_support::chk / gpf_support::sync) so the model checker \
                         can explore this code's schedules"
                    ),
                });
            }
        }
        if error_strict {
            let discards_binding = code.contains("let _ =")
                || code.contains("let _=")
                || code.contains("let _:")
                || code.contains("let _ :");
            let drops_result = code.contains(".ok()");
            if (discards_binding || drops_result)
                && !is_allowed(&masked, idx, Rule::SwallowedError)
            {
                let what = if discards_binding { "`let _ = ...`" } else { "`.ok()`" };
                findings.push(Finding {
                    rule: Rule::SwallowedError,
                    file: file.to_string(),
                    line: lineno,
                    message: format!(
                        "{what} silently discards a result in engine/core code; handle \
                         the error, route it through EngineContext::fail, or annotate \
                         `// gpf-lint: allow(swallowed-error): <why the drop is safe>`"
                    ),
                });
            }
        }
        if !may_print {
            for tok in PRINT_TOKENS {
                if !token_positions(code, tok).is_empty()
                    && !is_allowed(&masked, idx, Rule::NoRawPrint)
                {
                    findings.push(Finding {
                        rule: Rule::NoRawPrint,
                        file: file.to_string(),
                        line: lineno,
                        message: format!(
                            "`{tok}` in library code; route output through \
                             gpf_trace::sink::console_out/console_err (or annotate \
                             `// gpf-lint: allow(no-raw-print): <why>`)"
                        ),
                    });
                }
            }
        }
        // Call sites only (`.payload_unverified`): the declaration itself
        // carries no payload to verify.
        if code.contains(".payload_unverified")
            && !is_allowed(&masked, idx, Rule::SpillReadChecksum)
        {
            let lo = idx.saturating_sub(10);
            let hi = (idx + 11).min(masked.code.len());
            let verified =
                (lo..hi).any(|l| !token_positions(&masked.code[l], "verify_decode").is_empty());
            if !verified {
                findings.push(Finding {
                    rule: Rule::SpillReadChecksum,
                    file: file.to_string(),
                    line: lineno,
                    message: "`.payload_unverified()` without a `verify_decode` call \
                              within 10 lines; spill read-backs must verify every frame \
                              before decoding (or annotate \
                              `// gpf-lint: allow(spill-read-checksum): <why>`)"
                        .to_string(),
                });
            }
        }
        let raw = raw_lines.get(idx).copied().unwrap_or("");
        for fn_name in ["counter", "histogram"] {
            for lit in metric_literal_args(code, raw, fn_name) {
                if !is_registered_metric(&lit)
                    && !is_allowed(&masked, idx, Rule::CounterNameRegistry)
                {
                    findings.push(Finding {
                        rule: Rule::CounterNameRegistry,
                        file: file.to_string(),
                        line: lineno,
                        message: format!(
                            "`{fn_name}(\"{lit}\")` registers a metric name missing \
                             from gpf_trace::names; declare it there (and in \
                             ALL_COUNTERS / ALL_HISTOGRAMS) and use the const"
                        ),
                    });
                }
            }
        }
    }
    findings
}

// ---------------------------------------------------------------------------
// Manifest lint
// ---------------------------------------------------------------------------

/// Lint one `Cargo.toml` for the hermetic-build invariant: every dependency
/// entry resolves inside the workspace (`workspace = true` or `path = ...`);
/// `[workspace.dependencies]` entries must be `path` deps.
pub fn lint_manifest(file: &str, source: &str) -> Vec<Finding> {
    #[derive(PartialEq)]
    enum Section {
        DepTable,
        WorkspaceDeps,
        /// `[dependencies.foo]`-style subtable: valid iff some key inside
        /// is `path` or `workspace`.
        DepSubtable { header_line: usize, name: String, seen_local: bool },
        Other,
    }
    let mut findings = Vec::new();
    let mut section = Section::Other;
    let close_subtable = |findings: &mut Vec<Finding>, section: &Section| {
        if let Section::DepSubtable { header_line, name, seen_local } = section {
            if !seen_local {
                findings.push(Finding {
                    rule: Rule::HermeticDeps,
                    file: file.to_string(),
                    line: header_line + 1,
                    message: format!(
                        "dependency `{name}` is not a workspace/path dependency; the \
                         workspace builds offline only"
                    ),
                });
            }
        }
    };
    for (idx, raw) in source.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            close_subtable(&mut findings, &section);
            let name = line.trim_matches(|c| c == '[' || c == ']').trim();
            section = if name == "workspace.dependencies" {
                Section::WorkspaceDeps
            } else if name == "dependencies"
                || name == "dev-dependencies"
                || name == "build-dependencies"
                || name.ends_with(".dependencies")
            {
                Section::DepTable
            } else if let Some(dep) = name
                .strip_prefix("dependencies.")
                .or_else(|| name.strip_prefix("dev-dependencies."))
                .or_else(|| name.strip_prefix("build-dependencies."))
            {
                Section::DepSubtable {
                    header_line: idx,
                    name: dep.to_string(),
                    seen_local: false,
                }
            } else {
                Section::Other
            };
            continue;
        }
        let local = line.contains("workspace = true") || line.contains("path =");
        match &mut section {
            Section::DepTable => {
                if !local {
                    let dep = line.split('=').next().unwrap_or(line).trim().trim_matches('"');
                    findings.push(Finding {
                        rule: Rule::HermeticDeps,
                        file: file.to_string(),
                        line: idx + 1,
                        message: format!(
                            "dependency `{dep}` is not a workspace/path dependency; the \
                             workspace builds offline only"
                        ),
                    });
                }
            }
            Section::WorkspaceDeps => {
                if !line.contains("path =") {
                    let dep = line.split('=').next().unwrap_or(line).trim().trim_matches('"');
                    findings.push(Finding {
                        rule: Rule::HermeticDeps,
                        file: file.to_string(),
                        line: idx + 1,
                        message: format!(
                            "[workspace.dependencies] entry `{dep}` must be a `path` \
                             dependency (hermetic build)"
                        ),
                    });
                }
            }
            Section::DepSubtable { seen_local, .. } => {
                if local || line.starts_with("path") || line.starts_with("workspace") {
                    *seen_local = true;
                }
            }
            Section::Other => {}
        }
    }
    close_subtable(&mut findings, &section);
    findings
}

// ---------------------------------------------------------------------------
// Tree walking
// ---------------------------------------------------------------------------

/// Recursively collect `.rs` files under `dir`, sorted for deterministic
/// output.
fn rust_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.path());
    for entry in entries {
        let path = entry.path();
        if path.is_dir() {
            rust_files(&path, out)?;
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Workspace-relative label with forward slashes.
fn rel_label(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// Lint the whole workspace rooted at `root`: every `crates/*/src/**/*.rs`
/// plus the root and per-crate manifests.
pub fn lint_tree(root: &Path) -> io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    let root_manifest = root.join("Cargo.toml");
    if root_manifest.is_file() {
        let text = fs::read_to_string(&root_manifest)?;
        findings.extend(lint_manifest(&rel_label(root, &root_manifest), &text));
    }
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<_> = fs::read_dir(&crates_dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for crate_dir in crate_dirs {
        let manifest = crate_dir.join("Cargo.toml");
        if manifest.is_file() {
            let text = fs::read_to_string(&manifest)?;
            findings.extend(lint_manifest(&rel_label(root, &manifest), &text));
        }
        let src = crate_dir.join("src");
        if src.is_dir() {
            let mut files = Vec::new();
            rust_files(&src, &mut files)?;
            for file in files {
                let text = fs::read_to_string(&file)?;
                findings.extend(lint_source(&rel_label(root, &file), &text));
            }
        }
    }
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masking_blanks_strings_and_comments() {
        let src = "let x = \"panic!\"; // panic! here\nlet y = 1;\n";
        let m = mask(src);
        assert!(!m.code[0].contains("panic!"));
        assert!(m.comments[0].contains("panic! here"));
        assert!(m.code[1].contains("let y = 1;"));
    }

    #[test]
    fn masking_handles_raw_strings_and_lifetimes() {
        let src = "fn f<'a>(s: &'a str) { let r = r#\"unsafe // \"#; let c = '\"'; }\n";
        let m = mask(src);
        assert!(!m.code[0].contains("unsafe"));
        assert!(m.code[0].contains("fn f<'a>"));
        assert!(m.comments[0].trim().is_empty());
    }

    #[test]
    fn cfg_test_regions_are_skipped() {
        let src = "fn a() { x.unwrap() }\n#[cfg(test)]\nmod tests {\n    fn b() { y.unwrap(); }\n}\n";
        let f = lint_source("crates/x/src/lib.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn allow_annotation_requires_reason() {
        let with_reason =
            "// gpf-lint: allow(no-panic): provably infallible.\nlet v = o.unwrap();\n";
        assert!(lint_source("crates/x/src/lib.rs", with_reason).is_empty());
        let without_reason = "// gpf-lint: allow(no-panic):\nlet v = o.unwrap();\n";
        assert_eq!(lint_source("crates/x/src/lib.rs", without_reason).len(), 1);
    }

    #[test]
    fn unwrap_or_is_not_a_violation() {
        let src = "let v = o.unwrap_or(0); let w = o.unwrap_or_default();\n";
        assert!(lint_source("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn relaxed_needs_zone_and_justification() {
        let bare = "let c = x.fetch_add(1, Ordering::Relaxed);\n";
        let justified =
            "// ordering: Relaxed — pure accumulator.\nlet c = x.fetch_add(1, Ordering::Relaxed);\n";
        // In-zone without a justification comment: flagged.
        assert_eq!(lint_source("crates/gpf-support/src/par.rs", bare).len(), 1);
        // In-zone with an adjacent `// ordering:` comment: clean.
        assert!(lint_source("crates/gpf-support/src/par.rs", justified).is_empty());
        assert!(lint_source("crates/gpf-trace/src/counters.rs", justified).is_empty());
        // Outside the zones: flagged even when justified.
        assert_eq!(lint_source("crates/gpf-engine/src/context.rs", justified).len(), 1);
        // The checker crate implements the memory model and is exempt.
        assert!(lint_source("crates/gpf-check/src/rt/mod.rs", bare).is_empty());
    }

    #[test]
    fn concurrency_boundary_confines_raw_primitives() {
        let atomic = "use std::sync::atomic::AtomicUsize;\n";
        let spawn = "let h = std::thread::spawn(|| {});\n";
        let lock = "use std::sync::Mutex;\n";
        for src in [atomic, spawn, lock] {
            let f = lint_source("crates/gpf-core/src/process.rs", src);
            assert!(
                f.iter().any(|f| f.rule == Rule::ConcurrencyBoundary),
                "expected concurrency-boundary for {src:?}, got {f:?}"
            );
            assert!(lint_source("crates/gpf-check/src/shim/thread.rs", src).is_empty());
        }
        // `Arc` / `OnceLock` are not schedule-relevant and stay allowed.
        let arc = "use std::sync::Arc;\nuse std::sync::OnceLock;\n";
        assert!(lint_source("crates/gpf-core/src/process.rs", arc).is_empty());
    }

    #[test]
    fn manifest_flags_external_deps() {
        let bad = "[dependencies]\nserde = \"1\"\ngpf-support.workspace = true\n";
        let f = lint_manifest("crates/x/Cargo.toml", bad);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("serde"));
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn json_escapes_quotes() {
        let f = Finding {
            rule: Rule::NoPanic,
            file: "a.rs".into(),
            line: 3,
            message: "say \"hi\"".into(),
        };
        assert!(f.to_json().contains("\\\"hi\\\""));
    }
}
