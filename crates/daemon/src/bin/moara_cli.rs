//! `moara-cli` — thin client for a `moarad` daemon's control plane.
//!
//! ```text
//! moara-cli --connect 127.0.0.1:7102 query "SELECT count(*) WHERE ServiceX = true"
//! moara-cli --connect 127.0.0.1:7102 set ServiceX=true
//! moara-cli --connect 127.0.0.1:7102 status [--json]
//! moara-cli --connect 127.0.0.1:7102 watch "SELECT avg(CPU-Util) WHERE ServiceX = true" \
//!           [--period SECS | --threshold X] [--lease-ms N] [--updates N] [--json]
//! moara-cli --connect 127.0.0.1:7102 traces [--limit N]
//! moara-cli --connect 127.0.0.1:7102 trace 0xID
//! moara-cli --connect 127.0.0.1:7102 top [--once] [--interval-ms N]
//! moara-cli --connect 127.0.0.1:7102 events [--kind K] [--limit N] [--json]
//! moara-cli postmortem /var/crash/moarad-n2.blackbox.jsonl
//! ```
//!
//! `watch` installs a standing query (the continuous-query subscription
//! plane, see `docs/continuous-queries.md`) and streams one line per
//! update until interrupted (or `--updates N` lines arrived). The default
//! delivery is on-change; `--period SECS` switches to periodic snapshots
//! and `--threshold X` to threshold-crossing alerts.
//!
//! `traces` lists the most recent sampled traces known to the daemon;
//! `trace ID` gathers the span tree for one trace from the whole cluster
//! and renders it as a text waterfall (unreachable nodes are flagged, so
//! a partition shows up as a marked-lost subtree instead of a hang).
//!
//! `top` renders a live cluster health dashboard (plain ANSI, no
//! dependencies): one row per member of the answering daemon's member
//! table, with a column for each key of the health sample every member
//! was asked for just now (event-loop tick p99, stalls, connections,
//! streams, watches, cache hit ratio, RSS, fds, uptime, …, and how many
//! alerts it has firing), plus a per-member tick p99 sparkline from the
//! flight recorder's history rings and the alerts the answering daemon
//! has firing. The screen refreshes every
//! `--interval-ms` (default 2000); `--once` prints a single frame
//! without clearing, for scripts. `top --once` and `events` exit
//! non-zero with a clear message when the daemon is unreachable.
//!
//! `events` prints the newest entries of the daemon's structured event
//! journal (SWIM transitions, subscription churn, cache promotions,
//! alert transitions, slow queries, …); `--kind` filters one event
//! kind, `--json` emits one JSON object per line.
//!
//! `postmortem FILE` renders a crash dump written by `moarad
//! --crash-dump-dir` (blackbox, crash-panic, or crash-stall): the meta
//! header, each metric's final window as a sparkline, the journal
//! tail, and the peer/alert/exemplar context. Needs no daemon.
//!
//! `--json` makes `status` and `watch` output machine-readable (one JSON
//! object per line); `status --json` includes a `metrics` snapshot of
//! the daemon's headline counters and the latency-bucket trace
//! `exemplars`. Prints results on stdout; exits non-zero on errors and
//! on incomplete query answers.

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use moara_core::DeliveryPolicy;
use moara_daemon::{ctrl_roundtrip, parse_value, CtrlReply, CtrlRequest};
use moara_gateway::json;
use moara_simnet::SimDuration;
use moara_wire::{read_frame, write_msg, Wire};

const USAGE: &str = "usage: moara-cli --connect IP:PORT \
                     (query TEXT | set k=v | status | watch TEXT | \
                     traces | trace ID | top | events) \
                     [--period SECS] [--threshold X] [--lease-ms N] \
                     [--updates N] [--limit N] [--kind KIND] [--json] \
                     [--timeout SECS] [--once] [--interval-ms N]\n\
                     \x20      moara-cli postmortem DUMP_FILE";

fn fail(msg: &str) -> ! {
    eprintln!("moara-cli: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

enum Command {
    Simple(CtrlRequest),
    Watch { text: String },
    Traces,
    Top,
    Events,
    Postmortem { file: String },
}

fn main() {
    let mut connect = None;
    let mut timeout = Duration::from_secs(120);
    let mut command: Option<Command> = None;
    let mut json = false;
    let mut period: Option<u64> = None;
    let mut threshold: Option<f64> = None;
    let mut lease_ms: u64 = 30_000;
    let mut max_updates: Option<u64> = None;
    let mut limit: u32 = 50;
    let mut once = false;
    let mut interval_ms: u64 = 2_000;
    let mut kind: Option<String> = None;
    // Remembered across the request/reply hop so the waterfall header can
    // name the trace even when the gather came back empty.
    let mut trace_id: u64 = 0;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut val = |name: &str| {
            args.next()
                .unwrap_or_else(|| fail(&format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--connect" => connect = Some(val("--connect")),
            "--timeout" => {
                timeout = Duration::from_secs(
                    val("--timeout")
                        .parse()
                        .unwrap_or_else(|_| fail("--timeout needs whole seconds")),
                );
            }
            "--json" => json = true,
            "--period" => {
                let secs: u64 = val("--period")
                    .parse()
                    .unwrap_or_else(|_| fail("--period needs whole seconds"));
                if secs == 0 {
                    fail("--period must be positive");
                }
                period = Some(secs);
            }
            "--threshold" => {
                threshold = Some(
                    val("--threshold")
                        .parse()
                        .unwrap_or_else(|_| fail("--threshold needs a number")),
                );
            }
            "--lease-ms" => {
                lease_ms = val("--lease-ms")
                    .parse()
                    .unwrap_or_else(|_| fail("--lease-ms needs milliseconds"));
            }
            "--updates" => {
                max_updates = Some(
                    val("--updates")
                        .parse()
                        .unwrap_or_else(|_| fail("--updates needs a count")),
                );
            }
            "query" => command = Some(Command::Simple(CtrlRequest::Query { text: val("query") })),
            "set" => {
                let kv = val("set");
                let Some((k, v)) = kv.split_once('=') else {
                    fail(&format!("`{kv}` is not k=v"));
                };
                command = Some(Command::Simple(CtrlRequest::SetAttr {
                    attr: k.to_owned(),
                    value: parse_value(v),
                }));
            }
            "status" => command = Some(Command::Simple(CtrlRequest::Status)),
            "watch" => command = Some(Command::Watch { text: val("watch") }),
            "--limit" => {
                limit = val("--limit")
                    .parse()
                    .unwrap_or_else(|_| fail("--limit needs a count"));
            }
            "traces" => command = Some(Command::Traces),
            "top" => command = Some(Command::Top),
            "events" => command = Some(Command::Events),
            "postmortem" => {
                command = Some(Command::Postmortem {
                    file: val("postmortem"),
                });
            }
            "--kind" => kind = Some(val("--kind")),
            "--once" => once = true,
            "--interval-ms" => {
                interval_ms = val("--interval-ms")
                    .parse()
                    .unwrap_or_else(|_| fail("--interval-ms needs milliseconds"));
                if interval_ms == 0 {
                    fail("--interval-ms must be positive");
                }
            }
            "trace" => {
                let id = val("trace");
                trace_id = moara_trace::parse_trace_id(&id)
                    .unwrap_or_else(|| fail(&format!("`{id}` is not a trace id")));
                command = Some(Command::Simple(CtrlRequest::TraceGet { trace_id }));
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => fail(&format!("unknown argument {other}")),
        }
    }
    let command = command.unwrap_or_else(|| fail("a command is required"));
    if let Command::Postmortem { file } = &command {
        run_postmortem(file);
        return;
    }
    let connect = connect.unwrap_or_else(|| fail("--connect is required"));

    let request = match command {
        Command::Watch { text } => {
            let policy = match (period, threshold) {
                (Some(_), Some(_)) => fail("--period and --threshold are mutually exclusive"),
                (Some(s), None) => DeliveryPolicy::Periodic(SimDuration::from_secs(s)),
                (None, Some(v)) => DeliveryPolicy::Threshold { value: v },
                (None, None) => DeliveryPolicy::OnChange,
            };
            run_watch(&connect, text, policy, lease_ms, max_updates, json);
            return;
        }
        Command::Traces => CtrlRequest::TraceList { limit },
        Command::Top => {
            run_top(&connect, interval_ms, once, timeout);
            return;
        }
        Command::Events => CtrlRequest::EventsFetch { kind, limit },
        Command::Postmortem { .. } => unreachable!("handled above"),
        Command::Simple(req) => req,
    };

    match ctrl_roundtrip(&connect, &request, timeout) {
        Ok(CtrlReply::Answer { result, complete }) => {
            println!("{result}");
            if !complete {
                eprintln!("moara-cli: warning: answer incomplete (branch timeout or failure)");
                std::process::exit(3);
            }
        }
        Ok(CtrlReply::Ok) => println!("ok"),
        Ok(CtrlReply::Status {
            node,
            members,
            alive,
            dead,
            watches,
            sub_entries,
            metrics,
            exemplars,
        }) => {
            if json {
                let dead_json = dead
                    .iter()
                    .map(|n| n.to_string())
                    .collect::<Vec<_>>()
                    .join(",");
                // Headline counters as a flat object; names come from the
                // daemon so new metrics appear here without a CLI change.
                let metrics_json = metrics
                    .iter()
                    .map(|(name, value)| format!("{}:{value}", json::escape(name)))
                    .collect::<Vec<_>>()
                    .join(",");
                // Slow-bucket trace ids: "<hist>/le/<bound>" -> trace id,
                // the bridge from a latency histogram into `trace ID`.
                let exemplars_json = exemplars
                    .iter()
                    .map(|(k, v)| format!("{}:{}", json::escape(k), json::escape(v)))
                    .collect::<Vec<_>>()
                    .join(",");
                println!(
                    "{{\"node\":{node},\"members\":{members},\"alive\":{alive},\
                     \"dead\":[{dead_json}],\"watches\":{watches},\
                     \"sub_entries\":{sub_entries},\
                     \"metrics\":{{{metrics_json}}},\
                     \"exemplars\":{{{exemplars_json}}}}}"
                );
                return;
            }
            // Confirmed-dead peers keep their slot in the member list
            // (dense id space) but are pruned from the overlay; surface
            // them so operators see what the failure detector concluded.
            let dead = if dead.is_empty() {
                "-".to_owned()
            } else {
                dead.iter()
                    .map(|n| format!("n{n}"))
                    .collect::<Vec<_>>()
                    .join(",")
            };
            println!(
                "node=n{node} members={members} alive={alive} dead={dead} \
                 watches={watches} subs={sub_entries}"
            );
        }
        Ok(CtrlReply::Trace { spans, missing }) => {
            print!(
                "{}",
                moara_trace::render_waterfall(trace_id, &spans, &missing)
            );
            if !missing.is_empty() {
                // Partial trace (a peer was unreachable): succeed so the
                // waterfall is usable, but flag it for scripts.
                std::process::exit(3);
            }
        }
        Ok(CtrlReply::Traces(list)) => {
            if list.is_empty() {
                eprintln!("moara-cli: no traces recorded (is tracing enabled?)");
                return;
            }
            for t in list {
                println!(
                    "{} phase={} node=n{} start_us={} duration_us={} spans={}",
                    moara_trace::format_trace_id(t.trace_id),
                    t.phase.as_str(),
                    t.node,
                    t.start_us,
                    t.duration_us,
                    t.spans,
                );
            }
        }
        Ok(CtrlReply::Spans(_)) => {
            // TraceFetch is daemon-to-daemon; the CLI never sends it.
            eprintln!("moara-cli: unexpected raw span reply");
            std::process::exit(1);
        }
        Ok(CtrlReply::Joined { .. }) => {
            // Only daemons send Join; a human shouldn't end up here.
            println!("joined");
        }
        Ok(CtrlReply::Update { .. }) => {
            eprintln!("moara-cli: unexpected streaming update outside watch");
            std::process::exit(1);
        }
        Ok(CtrlReply::Events(events)) => {
            if events.is_empty() {
                eprintln!("moara-cli: no events recorded (yet)");
                return;
            }
            for e in events {
                if json {
                    println!(
                        "{{\"seq\":{},\"ts_ms\":{},\"node\":{},\"kind\":{},\"detail\":{}}}",
                        e.seq,
                        e.ts_ms,
                        e.node,
                        json::escape(&e.kind),
                        json::escape(&e.detail),
                    );
                } else {
                    println!("{} n{} {:<14} {}", e.ts_ms, e.node, e.kind, e.detail);
                }
            }
        }
        Ok(
            CtrlReply::ClusterHealth { .. }
            | CtrlReply::Health { .. }
            | CtrlReply::MetricsText(_)
            | CtrlReply::History { .. }
            | CtrlReply::ClusterHistory { .. },
        ) => {
            // These answer ClusterHealth and the leaf reads, which `top`
            // and the gateway's federation paths send — not this match.
            eprintln!("moara-cli: unexpected health-plane reply");
            std::process::exit(1);
        }
        Ok(CtrlReply::Error(e)) => {
            eprintln!("moara-cli: daemon error: {e}");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("moara-cli: cannot reach daemon at {connect}: {e}");
            std::process::exit(1);
        }
    }
}

/// The `top` loop: poll the daemon's merged health table and repaint.
/// One plain-ANSI clear per frame (`ESC[2J ESC[H`) — no terminal
/// library, no raw mode; ^C exits like any CLI. `--once` prints a
/// single frame with no clearing so scripts and tests can capture it.
fn run_top(connect: &str, interval_ms: u64, once: bool, timeout: Duration) {
    loop {
        match ctrl_roundtrip(connect, &CtrlRequest::ClusterHealth, timeout) {
            Ok(CtrlReply::ClusterHealth { node, rows, alerts }) => {
                let sparks = fetch_sparklines(connect, timeout);
                let frame = render_top(node, &rows, &alerts, &sparks);
                if once {
                    print!("{frame}");
                    return;
                }
                print!("\x1b[2J\x1b[H{frame}");
                let _ = std::io::stdout().flush();
            }
            Ok(CtrlReply::Error(e)) => {
                eprintln!("moara-cli: daemon error: {e}");
                std::process::exit(1);
            }
            Ok(other) => {
                eprintln!("moara-cli: unexpected reply {other:?}");
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("moara-cli: cannot reach daemon at {connect}: {e}");
                std::process::exit(1);
            }
        }
        std::thread::sleep(Duration::from_millis(interval_ms));
    }
}

/// Per-member tick-p99 sparklines from the cluster history federation.
/// Best-effort: a daemon predating the flight recorder (or a gather
/// that failed) just leaves rows sparkline-less rather than killing the
/// dashboard.
fn fetch_sparklines(connect: &str, timeout: Duration) -> std::collections::HashMap<u32, String> {
    let mut out = std::collections::HashMap::new();
    let req = CtrlRequest::ClusterHistory {
        metric: "tick_p99_us".to_owned(),
        range_s: 60,
    };
    if let Ok(CtrlReply::ClusterHistory { series, .. }) = ctrl_roundtrip(connect, &req, timeout) {
        for (node, points) in series {
            let values: Vec<f64> = points.iter().map(|&(_, v)| v).collect();
            out.insert(node, moara_daemon::recorder::sparkline(&values));
        }
    }
    out
}

/// One `top` frame: a header, the member table — a column for each key
/// of the members' health answers, in the order they list them — and any
/// firing alerts.
fn render_top(
    node: u32,
    rows: &[moara_daemon::health::PeerHealthRow],
    alerts: &[moara_daemon::health::AlertWire],
    sparks: &std::collections::HashMap<u32, String>,
) -> String {
    use std::fmt::Write as _;
    let alive = rows
        .iter()
        .filter(|r| r.status != moara_daemon::health::HealthStatus::Dead)
        .count();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "moara top — via n{node} · {alive}/{} members · {} alert(s) firing",
        rows.len(),
        alerts.len(),
    );
    let answered = rows.iter().find_map(|r| r.summary.as_deref());
    let keys: Vec<&str> = answered.map_or(Vec::new(), |s| s.iter().map(|(k, _)| &**k).collect());
    let head = ["node", "status", "incarnation"]
        .into_iter()
        .chain(keys.iter().copied());
    let mut table: Vec<Vec<String>> = vec![head.map(str::to_uppercase).collect()];
    for r in rows {
        let mut cells = vec![
            format!("n{}", r.node),
            r.status.as_str().to_owned(),
            r.incarnation.to_string(),
        ];
        for key in &keys {
            let answer = r.summary.iter().flatten().find(|(k, _)| k == key);
            cells.push(answer.map_or("-".to_owned(), |&(_, v)| fmt_cell(key, v)));
        }
        table.push(cells);
    }
    let widths: Vec<usize> = (0..table[0].len())
        .map(|c| {
            table
                .iter()
                .map(|cells| cells[c].chars().count())
                .max()
                .unwrap_or(0)
        })
        .collect();
    let trends = std::iter::once("TICK-TREND").chain(
        rows.iter()
            .map(|r| sparks.get(&r.node).map_or("", |s| s.as_str())),
    );
    for (cells, trend) in table.iter().zip(trends) {
        for (cell, width) in cells.iter().zip(&widths) {
            let _ = write!(out, "{cell:>width$} ");
        }
        let _ = writeln!(out, "{trend}");
    }
    for a in alerts {
        let _ = writeln!(
            out,
            "ALERT {}: {} = {} (threshold {}, {}s)",
            a.rule, a.metric, a.value, a.threshold, a.since_s,
        );
    }
    out
}

/// One health value as `top` shows it: `n/a` for an unknown ratio (no
/// cache traffic, which is not 0 % hits), bytes and seconds by their key's
/// unit suffix, whole numbers without a fraction.
fn fmt_cell(key: &str, v: f64) -> String {
    if v.is_nan() {
        "n/a".to_owned()
    } else if key.ends_with("_bytes") {
        fmt_bytes(v as u64)
    } else if key.ends_with("_s") {
        fmt_secs(v as u64)
    } else if v.fract() == 0.0 {
        format!("{v}")
    } else {
        format!("{v:.1}")
    }
}

/// `1.5G`-style byte rendering, `-` for the zero a daemon that cannot
/// read `/proc` reports.
fn fmt_bytes(b: u64) -> String {
    if b == 0 {
        return "-".to_owned();
    }
    if b >= 1 << 30 {
        format!("{:.1}G", b as f64 / f64::from(1u32 << 30))
    } else if b >= 1 << 20 {
        format!("{}M", b >> 20)
    } else if b >= 1 << 10 {
        format!("{}K", b >> 10)
    } else {
        format!("{b}B")
    }
}

/// Compact uptime: seconds, minutes, or hours.
fn fmt_secs(s: u64) -> String {
    if s >= 3_600 {
        format!("{}h{}m", s / 3_600, (s % 3_600) / 60)
    } else if s >= 60 {
        format!("{}m{}s", s / 60, s % 60)
    } else {
        format!("{s}s")
    }
}

/// Opens a dedicated control connection, installs the watch, and prints
/// one line per streamed update.
fn run_watch(
    connect: &str,
    text: String,
    policy: DeliveryPolicy,
    lease_ms: u64,
    max_updates: Option<u64>,
    json: bool,
) {
    use std::net::ToSocketAddrs;
    let addr = connect
        .to_socket_addrs()
        .ok()
        .and_then(|mut a| a.next())
        .unwrap_or_else(|| fail(&format!("bad address {connect}")));
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(10))
        .unwrap_or_else(|e| fail(&format!("connect {connect}: {e}")));
    let _ = stream.set_nodelay(true);
    let req = CtrlRequest::Watch {
        text,
        policy,
        lease_us: lease_ms.saturating_mul(1_000),
    };
    if write_msg(&mut stream, &req).is_err() || stream.flush().is_err() {
        eprintln!("moara-cli: failed to send watch request");
        std::process::exit(1);
    }
    let mut seen = 0u64;
    loop {
        let payload = match read_frame(&mut stream) {
            Ok(Some(p)) => p,
            Ok(None) => return, // daemon closed the stream
            Err(e) => {
                eprintln!("moara-cli: stream error: {e}");
                std::process::exit(1);
            }
        };
        match CtrlReply::from_bytes(&payload) {
            Ok(CtrlReply::Update {
                result,
                initial,
                complete,
            }) => {
                if json {
                    println!(
                        "{{\"result\":{},\"initial\":{initial},\"complete\":{complete}}}",
                        json::escape(&result)
                    );
                } else {
                    let mark = if initial { "=" } else { ">" };
                    let note = if complete { "" } else { " (incomplete)" };
                    println!("{mark} {result}{note}");
                }
                let _ = std::io::stdout().flush();
                seen += 1;
                if max_updates.is_some_and(|m| seen >= m) {
                    return;
                }
            }
            Ok(CtrlReply::Error(e)) => {
                eprintln!("moara-cli: daemon error: {e}");
                std::process::exit(1);
            }
            Ok(other) => {
                eprintln!("moara-cli: unexpected reply {other:?}");
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("moara-cli: bad frame: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// Renders a crash dump written by `moarad --crash-dump-dir` — works
/// entirely offline, so forensics never depend on the daemon that just
/// died. Unknown line types are skipped, not fatal: a newer daemon's
/// dump should still mostly render on an older CLI.
fn run_postmortem(file: &str) {
    use json::{parse_flat_json, JsonScalar};
    use moara_daemon::recorder::{parse_points, sparkline};

    let body = std::fs::read_to_string(file).unwrap_or_else(|e| {
        eprintln!("moara-cli: cannot read dump {file}: {e}");
        std::process::exit(1);
    });

    let field = |fields: &[(String, JsonScalar)], key: &str| -> Option<JsonScalar> {
        fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
    };
    let num = |fields: &[(String, JsonScalar)], key: &str| -> f64 {
        field(fields, key).and_then(|v| v.as_num()).unwrap_or(0.0)
    };
    let text = |fields: &[(String, JsonScalar)], key: &str| -> String {
        field(fields, key)
            .and_then(|v| v.as_str().map(str::to_owned))
            .unwrap_or_else(|| "?".to_owned())
    };

    let mut series: Vec<String> = Vec::new();
    let mut events: Vec<String> = Vec::new();
    let mut peers: Vec<String> = Vec::new();
    let mut alerts: Vec<String> = Vec::new();
    let mut exemplars: Vec<String> = Vec::new();
    let mut parsed_any = false;

    for line in body.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let Some(fields) = parse_flat_json(line) else {
            eprintln!("moara-cli: skipping unparseable dump line: {line}");
            continue;
        };
        parsed_any = true;
        match text(&fields, "t").as_str() {
            "meta" => {
                println!(
                    "crash dump: n{} · reason {} · written ts_ms={} · moarad v{}",
                    num(&fields, "node"),
                    text(&fields, "reason"),
                    num(&fields, "ts_ms"),
                    text(&fields, "version"),
                );
                println!(
                    "journal: {} events recorded, {} dropped",
                    num(&fields, "events_recorded"),
                    num(&fields, "events_dropped"),
                );
            }
            "series" => {
                let points = parse_points(&text(&fields, "points"));
                let values: Vec<f64> = points.iter().map(|&(_, v)| v).collect();
                let last = values
                    .iter()
                    .rev()
                    .find(|v| !v.is_nan())
                    .map_or("-".to_owned(), |v| format!("{v}"));
                series.push(format!(
                    "  {:<18} {}  last={last} (res {}s, {} samples)",
                    text(&fields, "metric"),
                    sparkline(&values),
                    num(&fields, "res_s"),
                    points.len(),
                ));
            }
            "event" => {
                events.push(format!(
                    "  {} n{} {:<14} {}",
                    num(&fields, "ts_ms"),
                    num(&fields, "node"),
                    text(&fields, "kind"),
                    text(&fields, "detail"),
                ));
            }
            "peer" => {
                peers.push(format!(
                    "  n{} {:<5} incarnation={}",
                    num(&fields, "node"),
                    text(&fields, "status"),
                    num(&fields, "incarnation"),
                ));
            }
            "alert" => {
                alerts.push(format!(
                    "  {}: {} = {} (threshold {}, firing {}s)",
                    text(&fields, "rule"),
                    text(&fields, "metric"),
                    num(&fields, "value"),
                    num(&fields, "threshold"),
                    num(&fields, "since_s"),
                ));
            }
            "exemplar" => {
                exemplars.push(format!(
                    "  {} -> {}",
                    text(&fields, "key"),
                    text(&fields, "trace_id"),
                ));
            }
            other => eprintln!("moara-cli: skipping unknown dump line type `{other}`"),
        }
    }

    if !parsed_any {
        eprintln!("moara-cli: {file} holds no parseable dump lines");
        std::process::exit(1);
    }
    for (title, lines) in [
        ("metrics (final window)", &series),
        ("journal tail", &events),
        ("peers at dump time", &peers),
        ("alerts firing", &alerts),
        ("exemplars", &exemplars),
    ] {
        if lines.is_empty() {
            continue;
        }
        println!("\n{title}:");
        for l in lines {
            println!("{l}");
        }
    }
}
