#!/bin/sh
# Non-test Rust lines per crate, one method anyone can rerun.
#
#   scripts/loc.sh                        # per crate
#   scripts/loc.sh crates/core/src/*.rs   # per file
#
# A `src` file counts up to its `#[cfg(test)]` line that opens `mod tests`;
# a `#[cfg(test)]` on any other item (a test-only helper) does not end it.
# Every line before that point counts, blank and comment lines included.
# `tests/` and `benches/` are counted in columns of their own; `vendor/`
# and `benchmark/` are not counted at all.
set -eu

# Lines of the files given, each cut at its `#[cfg(test)] mod tests`.
non_test() {
    [ $# -eq 0 ] && { echo 0; return; }
    awk '
        FNR == 1 { cut = 0; held = 0 }
        cut { next }
        held && /^[[:space:]]*(pub(\([a-z]+\))? )?mod tests/ { cut = 1; held = 0; next }
        held { n++; held = 0 }
        /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { held = 1; next }
        { n++ }
        END { print n + 0 }
    ' "$@"
}

# All lines of the files given.
all_lines() {
    [ $# -eq 0 ] && { echo 0; return; }
    cat "$@" | wc -l | tr -d ' '
}

if [ $# -gt 0 ]; then
    for f in "$@"; do
        printf '%8d %s\n' "$(non_test "$f")" "$f"
    done
    exit 0
fi
cd "$(dirname "$0")/.."

rs_files() {
    [ -d "$1" ] && find "$1" -name '*.rs' | sort
}

printf '%-22s %8s %8s %8s\n' crate src tests benches
total_src=0 total_tests=0 total_benches=0
for dir in . crates/*; do
    [ -f "$dir/Cargo.toml" ] || continue
    name=$(basename "$dir")
    [ "$dir" = . ] && name="moara (root)"
    # The root package's `src` is its own; its examples count as source.
    src=$(non_test $(rs_files "$dir/src") $([ "$dir" = . ] && rs_files examples))
    tests=$(all_lines $(rs_files "$dir/tests"))
    benches=$(all_lines $(rs_files "$dir/benches"))
    printf '%-22s %8d %8d %8d\n' "$name" "$src" "$tests" "$benches"
    total_src=$((total_src + src))
    total_tests=$((total_tests + tests))
    total_benches=$((total_benches + benches))
done
printf '%-22s %8d %8d %8d\n' total "$total_src" "$total_tests" "$total_benches"
