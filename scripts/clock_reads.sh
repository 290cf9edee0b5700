#!/bin/sh
# Lines that read a clock, per file, one method anyone can rerun.
#
#   scripts/clock_reads.sh                          # the daemon, gateway and transport
#   scripts/clock_reads.sh crates/gateway/src/*.rs  # per file given
#
# A line counts when it matches
# `Instant::now|\.elapsed\(\)|now_unix_ms\(\)|SystemTime::now`, once
# however many reads it holds. Each file is cut at its first
# `#[cfg(test)]`, so test helpers and tests do not count. A directory
# given prints one total for its `.rs` files.
set -eu

PATTERN='Instant::now|\.elapsed\(\)|now_unix_ms\(\)|SystemTime::now'

# Clock-reading lines of the files given, each cut at its first `#[cfg(test)]`.
reads() {
    [ $# -eq 0 ] && { echo 0; return; }
    awk -v pat="$PATTERN" '
        FNR == 1 { cut = 0 }
        cut { next }
        /^[[:space:]]*#\[cfg\(test\)\]/ { cut = 1; next }
        $0 ~ pat { n++ }
        END { print n + 0 }
    ' "$@"
}

if [ $# -eq 0 ]; then
    cd "$(dirname "$0")/.."
    set -- crates/daemon/src crates/gateway/src crates/transport/src \
        crates/gateway/src/reactor.rs crates/transport/src/epoll.rs crates/transport/src/tcp.rs
fi
for f in "$@"; do
    if [ -d "$f" ]; then
        printf '%6d %s\n' "$(reads $(find "$f" -name '*.rs' | sort))" "$f"
    else
        printf '%6d %s\n' "$(reads "$f")" "$f"
    fi
done
