#!/bin/sh
# Code bytes of a release binary by crate, one method anyone can rerun.
#
#   scripts/textsize.sh                           # target/release/moarad
#   scripts/textsize.sh path/to/other/moarad      # e.g. a parent build
#
# Every sized text symbol (`nm -C -S -t d`, types t/T/w/W) counts toward
# the crate its demangled path starts with. A trait impl `<T as Tr>::f`
# and an inherent impl `<T>::f` count toward T's path, so a std generic
# instantiated for a crate's type (`core::ptr::drop_in_place<moara_…>`)
# counts as `core`; methods of primitive types (`<str>::…`, `<[u8]>::…`)
# count as `core` too. C symbols without a path (libc's, the
# allocator's) are `(no path)`. The first line is the symbols' sum; the
# next two are the `.text` section and `size`'s text, the segment that
# also holds read-only data and unwind tables. Last come the shared
# objects the binary needs (`readelf -d`'s NEEDED entries): each one is
# mapped, and partly resident, in every process that runs it.
set -eu

if [ $# -eq 0 ]; then
    cd "$(dirname "$0")/.."
    set -- target/release/moarad
fi
bin=$1
[ -f "$bin" ] || { echo "no binary at $bin (run: cargo build --release)" >&2; exit 1; }

nm -C -S -t d "$bin" | awk '
    NF >= 4 && $3 ~ /^[tTwW]$/ {
        size = $2 + 0
        name = $0
        sub(/^[^ ]+ [^ ]+ [^ ]+ /, "", name)
        # Peel `<`, `&`, `mut `, `*const `, `*mut `, `dyn `, `[`, `(`
        # off the front until a path starts.
        while (match(name, /^(<|&|mut |\*const |\*mut |dyn |\[|\()/))
            name = substr(name, RLENGTH + 1)
        crate = "(no path)"
        if (match(name, /^[A-Za-z_][A-Za-z0-9_]*::/))
            crate = substr(name, 1, RLENGTH - 2)
        else if (match(name, /^(str|bool|char|[iuf](8|16|32|64|128|size))[]>;]/))
            crate = "core"
        bytes[crate] += size
        total += size
    }
    END {
        for (c in bytes) printf "%10d %s\n", bytes[c], c
        printf "%10d %s\n", total, "(symbols, total)"
    }
' | sort -rn
size -A -d "$bin" | awk '$1 == ".text" { printf "%10d %s\n", $2, "(.text section, size -A)" }'
size "$bin" | awk 'NR == 2 { printf "%10d %s\n", $1, "(text, size)" }'
readelf -d "$bin" | awk '$2 == "(NEEDED)" { gsub(/[][]/, "", $5); printf "%10s %s\n", "NEEDED", $5 }'
