#!/usr/bin/env bash
# Line census of the workspace's library code: non-blank, non-comment lines
# above each file's `#[cfg(test)] mod` in every `.rs` file under
# `crates/*/src`, per crate and in total.
#
#   scripts/census.sh          # the work tree
#   scripts/census.sh REV      # a commit, read through `git show`
#
# A comment line is one whose first non-blank characters are `//` (`///`
# and `//!` included). A file with no `#[cfg(test)] mod` counts whole.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"
rev="${1:-}"

if [ -n "$rev" ]; then
    files=$(git ls-tree -r --name-only "$rev" -- crates)
    show() { git show "$rev:$1"; }
else
    files=$(find crates -path 'crates/*/src/*' -name '*.rs' -type f)
    show() { cat "$1"; }
fi

# Count one file's lines from stdin. A `#[cfg(test)]` line is held until the
# next line that is neither blank nor a comment: a `mod` there ends the
# count, anything else counts the held line too. It reads to the end, so
# `git show` never writes into a closed pipe.
count='
    stop || /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
    held && /^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?mod[[:space:]]/ { stop = 1; next }
    held { n++; held = 0 }
    /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { held = 1; next }
    /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?mod[[:space:]]/ { stop = 1; next }
    { n++ }
    END { print n + 0 }
'

total=0
for crate in $(printf '%s\n' "$files" | grep -E '^crates/[^/]+/src/.*\.rs$' | cut -d/ -f2 | sort -u); do
    lines=0
    for f in $(printf '%s\n' "$files" | grep -E "^crates/$crate/src/.*\\.rs\$"); do
        lines=$((lines + $(show "$f" | awk "$count")))
    done
    printf '%-16s %7d\n' "$crate" "$lines"
    total=$((total + lines))
done
printf '%-16s %7d\n' total "$total"
