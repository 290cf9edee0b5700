#!/bin/sh
# What the benchmark's daemons cost, read from /proc while a workload runs:
# their CPU split into user and system time, the TCP segments sent split
# into those that carried data and the rest (bare ACKs, SYN, FIN), per
# request; and what each daemon holds resident by mapping (`smaps`). It
# starts the command it is given and only reads counters.
#
#   scripts/daemon_cost.sh cargo run --release --offline \
#       --manifest-path benchmark/Cargo.toml -- \
#       --workload walk --seed 7 --seconds 10 --trace 0
#
# The window opens 1 s after the first `moarad` appears and lasts the
# command's `--seconds` less 2. CPU is `utime` + `stime` of
# /proc/<pid>/stat, summed over every `moarad`. Segments are `Tcp:
# OutSegs` (/proc/net/snmp) and `TcpExt: TCPDelivered` (/proc/net/netstat,
# data segments acknowledged); on loopback each data segment is sent and
# delivered in the same namespace, so OutSegs less TCPDelivered is the
# segments that carried none. Both cover the whole network namespace: run
# nothing else meanwhile. A request is one the command's `qps` line
# counts: per request = the window's delta / (qps × window). The mapping
# rows are each daemon's Rss at the window's end, averaged over the
# daemons: one row per shared object (`moarad` and libc split by
# permissions), and the stack and the kernel's [vdso] and [vvar] pages
# apart from the files.
# Beside them, from /proc/<pid>/status at the same moment: RssAnon and
# RssFile averaged, and VmHWM (the peak resident set) averaged and
# summed; the benchmark's `rss_mb` is that sum.
set -eu

[ $# -gt 0 ] || { sed -n '2,/^set/p' "$0" | sed '$d'; exit 2; }
secs=20
prev=
for a in "$@"; do
    [ "$prev" = --seconds ] && secs=$a
    prev=$a
done
window=$((secs - 2))
[ "$window" -ge 1 ] || { echo "--seconds must be at least 3" >&2; exit 2; }

out=$(mktemp)
trap 'rm -f "$out"' EXIT
"$@" >"$out" &
run=$!

daemons() { pgrep -x moarad || true; }

# Sum of utime and stime (ticks) over the daemons: "user system".
cpu() {
    for pid in $(daemons); do
        cat "/proc/$pid/stat" 2>/dev/null || true
    done | awk '{ u += $14; s += $15 } END { printf "%d %d\n", u, s }'
}

# "OutSegs TCPDelivered" for the namespace.
segs() {
    out_segs=$(awk '$1 == "Tcp:" { if (!h) { for (i = 1; i <= NF; i++) if ($i == "OutSegs") c = i; h = 1 } else print $c }' /proc/net/snmp)
    delivered=$(awk '$1 == "TcpExt:" { if (!h) { for (i = 1; i <= NF; i++) if ($i == "TCPDelivered") c = i; h = 1 } else print $c }' /proc/net/netstat)
    echo "$out_segs $delivered"
}

while [ -z "$(daemons)" ]; do
    kill -0 "$run" 2>/dev/null || { cat "$out"; echo "no moarad appeared" >&2; exit 1; }
    sleep 0.05
done
sleep 1
set -- $(cpu) $(segs)
u0=$1 s0=$2 o0=$3 d0=$4
t0=$(date +%s%N)
sleep "$window"
set -- $(cpu) $(segs)
u1=$1 s1=$2 o1=$3 d1=$4
t1=$(date +%s%N)
n=$(daemons | wc -l)
maps=$(for pid in $(daemons); do cat "/proc/$pid/smaps" 2>/dev/null || true; done | awk '
    /^[0-9a-f]+-[0-9a-f]+ / {
        key = "anon"
        if ($6 ~ /\/moarad$/) key = "moarad " $2
        else if ($6 ~ /\/libc[.-]/) key = "libc " $2
        else if ($6 ~ /\/libm[.-]/) key = "libm"
        else if ($6 ~ /\/libgcc_s[.-]/) key = "libgcc_s"
        else if ($6 ~ /\/ld-linux/) key = "ld.so"
        else if ($6 == "[heap]" || $6 == "[stack]") key = $6
        else if ($6 ~ /^\[/) key = "[vdso], [vvar]"
        else if ($6 != "") key = "other files"
        next
    }
    $1 == "Rss:" { kb[key] += $2; total += $2 }
    END { for (k in kb) printf "%s\t%d\n", k, kb[k]; printf "all\t%d\n", total }
')
status=$(for pid in $(daemons); do cat "/proc/$pid/status" 2>/dev/null || true; done | awk '
    $1 == "VmHWM:" { hwm += $2 }
    $1 == "RssAnon:" { anon += $2 }
    $1 == "RssFile:" { file += $2 }
    END { printf "%d %d %d\n", hwm, anon, file }
')
wait "$run" || { cat "$out"; echo "the command failed" >&2; exit 1; }

qps=$(awk '$1 == "qps" { print $2; exit }' "$out")
[ -n "$qps" ] || { cat "$out"; echo "the command printed no qps" >&2; exit 1; }
hz=$(getconf CLK_TCK)
awk -v u="$((u1 - u0))" -v s="$((s1 - s0))" -v o="$((o1 - o0))" -v d="$((d1 - d0))" \
    -v ns="$((t1 - t0))" -v qps="$qps" -v hz="$hz" -v n="$n" 'BEGIN {
    w = ns / 1e9; req = qps * w
    printf "window %.2f s, %d daemons, qps %.1f, %.0f requests\n", w, n, qps, req
    printf "daemon user CPU        %8.2f us/req (%.0f %%)\n", u / hz * 1e6 / req, 100 * u / (u + s)
    printf "daemon system CPU      %8.2f us/req (%.0f %%)\n", s / hz * 1e6 / req, 100 * s / (u + s)
    printf "TCP segments out       %8.2f /req\n", o / req
    printf "  carrying data        %8.2f /req\n", d / req
    printf "  carrying none        %8.2f /req\n", (o - d) / req
}'
echo "resident per daemon (KiB, smaps Rss at the window end):"
echo "$maps" | sort | awk -F '\t' -v n="$n" '
    $1 == "all" { all = $2; next }
    { printf "  %-16s %8.0f\n", $1, $2 / n }
    END { printf "  %-16s %8.0f\n", "all", all / n }
'
echo "per daemon (KiB, /proc/<pid>/status at the window end):"
set -- $status
awk -v hwm="$1" -v anon="$2" -v file="$3" -v n="$n" 'BEGIN {
    printf "  %-16s %8.0f\n", "RssAnon", anon / n
    printf "  %-16s %8.0f\n", "RssFile", file / n
    printf "  %-16s %8.0f (summed: %.2f MB, as rss_mb counts)\n", "VmHWM", hwm / n, hwm * 1024 / 1e6
}'
