//! `moarad`'s flags: every flag is one row of `FLAGS`, and parsing,
//! the usage line, `moarad --help` and the docs check are loops over that
//! table. [`parse`] starts from [`DaemonOpts::new`], the only place a
//! default is written; `--help` prints each default through the row's
//! `show`. Flag order never matters: flags that contradict each other,
//! or that tune a gateway `--http` did not open, are refused after the
//! pass (`CONFLICTS`, `GATEWAY`).

use std::fmt::Display;
use std::net::{Ipv4Addr, SocketAddr, ToSocketAddrs};
use std::str::FromStr;

use moara_core::ProbeCachePolicy::{Cache, Off};
use moara_simnet::SimDuration;

use crate::{alerts, parse_attrs, DaemonOpts};

/// One row of the table.
struct Flag {
    /// The flag as typed.
    name: &'static str,
    /// What its value looks like; `None` for a switch.
    arg: Option<&'static str>,
    help: &'static str,
    /// The value `opts` holds, spelled as the flag takes it; `None` when
    /// unset or not kept in that spelling.
    show: fn(&DaemonOpts) -> Option<String>,
    /// Validates a value (empty for a switch) and writes it into `opts`.
    set: fn(&mut DaemonOpts, &str) -> Result<(), String>,
}

/// The one flag without a default.
const REQUIRED: &str = "--listen";

/// Every flag, in usage order, one row per line: spelling, argument,
/// help, how its value is shown and how it is set.
#[rustfmt::skip]
static FLAGS: &[Flag] = &[
    Flag { name: "--listen", arg: Some("IP:PORT"), help: "control-plane address: clients and joiners dial it", show: |o| some(o.listen), set: |o, v| addr(v).map(|a| o.listen = a) },
    Flag { name: "--join", arg: Some("IP:PORT"), help: "a cluster member's control address; without it this daemon seeds a new cluster", show: |o| o.join.clone(), set: |o, v| { o.join = Some(v.to_owned()); Ok(()) } },
    Flag { name: "--http", arg: Some("IP:PORT"), help: "open the HTTP gateway there (docs/gateway.md)", show: |o| o.http.map(|a| a.to_string()), set: |o, v| addr(v).map(|a| o.http = Some(a)) },
    Flag { name: "--rejoin-as", arg: Some("N"), help: "crash recovery: reclaim node id N from the seed (needs --join)", show: |o| o.rejoin.map(|n| n.to_string()), set: |o, v| int(v).map(|n| o.rejoin = Some(n)) },
    Flag { name: "--attrs", arg: Some("k=v,..."), help: "initial attributes: true/false, integers, floats, else strings", show: unset, set: |o, v| parse_attrs(v).map(|a| o.attrs = a) },
    Flag { name: "--seed", arg: Some("N"), help: "randomness of ring ids, jitter and probe order", show: |o| some(o.seed), set: |o, v| int(v).map(|n| o.seed = n) },
    Flag { name: "--swim-period-ms", arg: Some("N"), help: "failure-detector protocol period; the direct-probe window is 3/10 of it", show: |o| some(o.swim.period.as_millis()), set: |o, v| positive(v).map(|ms| o.swim.set_period(SimDuration::from_millis(ms))) },
    Flag { name: "--swim-suspect-periods", arg: Some("N"), help: "periods a suspicion may go unrefuted before the failure is confirmed", show: |o| some(o.swim.suspect_periods), set: |o, v| positive(v).map(|n| o.swim.suspect_periods = n) },
    Flag { name: "--no-probe-cache", arg: None, help: "probe group sizes on every composite query (the paper's behaviour)", show: unset, set: |o, _| { o.cfg.probe_cache = Off; Ok(()) } },
    Flag { name: "--probe-cache-ttl-ms", arg: Some("N"), help: "how long a cached probe cost may be served", show: |o| match o.cfg.probe_cache { Cache { ttl, .. } => some(ttl.as_millis()), Off => None }, set: |o, v| positive(v).map(|ms| if let Cache { ttl, .. } = &mut o.cfg.probe_cache { *ttl = SimDuration::from_millis(ms) }) },
    Flag { name: "--probe-cache-cap", arg: Some("N"), help: "most cached predicates per front-end", show: |o| match o.cfg.probe_cache { Cache { capacity, .. } => some(capacity), Off => None }, set: |o, v| positive(v).map(|n| if let Cache { capacity, .. } = &mut o.cfg.probe_cache { *capacity = n }) },
    Flag { name: "--no-size-probes", arg: None, help: "plan composite covers structurally, with no size probes", show: unset, set: |o, _| { o.cfg.use_size_probes = false; Ok(()) } },
    Flag { name: "--trace-sample", arg: Some("N"), help: "trace every Nth root query; 0 disables tracing", show: |o| some(o.trace_sample), set: |o, v| int(v).map(|n| o.trace_sample = n) },
    Flag { name: "--slow-query-ms", arg: Some("N"), help: "log a JSON line to stderr for each query slower than N ms", show: |o| o.slow_query_ms.map(|n| n.to_string()), set: |o, v| int(v).map(|n| o.slow_query_ms = Some(n)) },
    Flag { name: "--access-log", arg: None, help: "log a JSON line to stderr for each gateway request", show: unset, set: |o, _| { o.access_log = true; Ok(()) } },
    Flag { name: "--gw-rate-limit", arg: Some("N"), help: "requests a second one peer IP may make before 429; 0 is off", show: |o| some(o.gw_rate_limit), set: |o, v| rate(v).map(|r| o.gw_rate_limit = r) },
    Flag { name: "--gw-request-timeout-ms", arg: Some("N"), help: "a request the daemon has not answered by then gets 408", show: |o| some(o.gw_request_timeout_ms), set: |o, v| positive(v).map(|ms| o.gw_request_timeout_ms = ms) },
    Flag { name: "--gw-idle-timeout-ms", arg: Some("N"), help: "close a keep-alive connection idle this long; SSE streams are exempt", show: |o| some(o.gw_idle_timeout_ms), set: |o, v| positive(v).map(|ms| o.gw_idle_timeout_ms = ms) },
    Flag { name: "--cache-promote-after", arg: Some("N"), help: "hits within the window that promote a query text to a standing subscription", show: |o| o.query_cache.as_ref().map(|c| c.promote_after.to_string()), set: |o, v| positive(v).map(|n| if let Some(c) = &mut o.query_cache { c.promote_after = n }) },
    Flag { name: "--cache-max-entries", arg: Some("N"), help: "most query texts the result cache tracks, LRU-evicted beyond", show: |o| o.query_cache.as_ref().map(|c| c.max_entries.to_string()), set: |o, v| positive(v).map(|n| if let Some(c) = &mut o.query_cache { c.max_entries = n }) },
    Flag { name: "--no-query-cache", arg: None, help: "no result cache and no request coalescing: every query walks the tree", show: unset, set: |o, _| { o.query_cache = None; Ok(()) } },
    Flag { name: "--stall-threshold-ms", arg: Some("N"), help: "event-loop ticks whose work takes longer count as stalls", show: |o| some(o.stall_threshold_ms), set: |o, v| positive(v).map(|ms| o.stall_threshold_ms = ms) },
    Flag { name: "--alert-rules", arg: Some("FILE"), help: "alert rules merged over the built-ins (docs/observability.md)", show: unset, set: |o, v| rules(v).map(|r| o.alert_rules = r) },
    Flag { name: "--history-retention", arg: Some("SECONDS"), help: "down-sampled metrics history kept in the coarse 10 s ring", show: |o| some(o.history_retention_s), set: |o, v| positive(v).map(|s| o.history_retention_s = s) },
    Flag { name: "--crash-dump-dir", arg: Some("DIR"), help: "write a blackbox dump there every second, and crash dumps", show: |o| o.crash_dump_dir.as_ref().map(|d| d.display().to_string()), set: |o, v| { o.crash_dump_dir = Some(v.into()); Ok(()) } },
];

/// Switches that turn off what the flags with the prefix tune.
const CONFLICTS: &[(&str, &str)] = &[
    ("--no-query-cache", "--cache-"),
    ("--no-probe-cache", "--probe-cache-"),
];

/// Prefixes of the flags that only tune the HTTP gateway.
const GATEWAY: &[&str] = &["--cache-", "--no-query-cache", "--gw-", "--access-log"];

/// Builds the options `args` (argv after the program name) ask for;
/// `Ok(None)` when they ask for `--help`.
///
/// # Errors
///
/// An unknown flag, a missing or bad value, a missing `--listen`, or a
/// refused combination, naming the flags.
pub fn parse(args: &[String]) -> Result<Option<DaemonOpts>, String> {
    let mut opts = defaults();
    let mut seen = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if arg == "--help" || arg == "-h" {
            return Ok(None);
        }
        let flag = FLAGS.iter().find(|f| f.name == arg);
        let flag = flag.ok_or_else(|| format!("unknown flag {arg}"))?;
        let value = match flag.arg {
            Some(_) => args.next().ok_or_else(|| format!("{arg} needs a value"))?,
            None => "",
        };
        (flag.set)(&mut opts, value).map_err(|e| format!("{arg} {value}: {e}"))?;
        seen.push(flag.name);
    }
    let given = |prefix: &str| seen.iter().find(|f| f.starts_with(prefix));
    if given(REQUIRED).is_none() {
        return Err(format!("{REQUIRED} is required"));
    }
    for (off, tuning) in CONFLICTS {
        if let (Some(a), Some(b)) = (given(off), given(tuning)) {
            return Err(format!("{a} contradicts {b}"));
        }
    }
    match GATEWAY.iter().find_map(|p| given(p)) {
        Some(f) if given("--http").is_none() => Err(format!("{f} needs --http")),
        _ => Ok(Some(opts)),
    }
}

/// `--listen IP:PORT`, `--no-probe-cache`, …
fn spelled(f: &Flag) -> String {
    match f.arg {
        Some(arg) => format!("{} {arg}", f.name),
        None => f.name.to_owned(),
    }
}

/// The usage line: every flag, the optional ones bracketed.
pub fn usage() -> String {
    let mut line = String::from("usage: moarad");
    for f in FLAGS {
        match f.name {
            REQUIRED => line += &format!(" {}", spelled(f)),
            _ => line += &format!(" [{}]", spelled(f)),
        }
    }
    line
}

/// `moarad --help`: the usage line, then each flag with its help and
/// default.
pub fn help() -> String {
    let defaults = defaults();
    let width = FLAGS.iter().map(|f| spelled(f).len()).max().unwrap_or(0);
    let mut text = usage() + "\n\n";
    for f in FLAGS {
        let default = match (f.show)(&defaults) {
            _ if f.name == REQUIRED => " (required)".to_owned(),
            Some(v) => format!(" (default {v})"),
            None => String::new(),
        };
        text += &format!("  {:width$}  {}{default}\n", spelled(f), f.help);
    }
    text
}

/// Every default, with `--listen` still to be given.
fn defaults() -> DaemonOpts {
    DaemonOpts::new((Ipv4Addr::UNSPECIFIED, 0).into())
}

fn unset(_: &DaemonOpts) -> Option<String> {
    None
}

fn some(v: impl Display) -> Option<String> {
    Some(v.to_string())
}

fn addr(v: &str) -> Result<SocketAddr, String> {
    let mut addrs = v.to_socket_addrs().map_err(|e| e.to_string())?;
    addrs
        .next()
        .ok_or_else(|| "resolves to no address".to_owned())
}

fn int<T: FromStr>(v: &str) -> Result<T, String> {
    v.parse().map_err(|_| "not an integer".to_owned())
}

fn positive<T: FromStr + PartialEq + From<u8>>(v: &str) -> Result<T, String> {
    let n = int(v)?;
    if n == T::from(0) {
        return Err("must be positive".into());
    }
    Ok(n)
}

fn rate(v: &str) -> Result<f64, String> {
    match v.parse::<f64>() {
        Ok(r) if r.is_finite() && r >= 0.0 => Ok(r),
        _ => Err("not a non-negative number".into()),
    }
}

fn rules(path: &str) -> Result<Vec<alerts::AlertRule>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    alerts::parse_rules(&text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|&a| a.to_owned()).collect()
    }

    fn refusal(list: &[&str]) -> String {
        let mut all = args(&["--listen", "127.0.0.1:7101"]);
        all.extend(args(list));
        parse(&all).expect_err("a refused combination")
    }

    /// Giving a flag the default `--help` prints for it changes nothing.
    #[test]
    fn every_default_parses_back_to_the_defaults() {
        let (listen, http) = ("127.0.0.1:7101", "127.0.0.1:8101");
        let base = ["--listen", listen, "--http", http];
        let defaults = DaemonOpts::new(listen.parse().unwrap());
        let want = DaemonOpts {
            http: Some(http.parse().unwrap()),
            ..defaults.clone()
        };
        let want = format!("{want:?}");
        for f in FLAGS.iter().filter(|f| f.arg.is_some()) {
            let Some(default) = (f.show)(&defaults) else {
                continue;
            };
            let mut all = args(&base);
            all.extend(args(&[f.name, &default]));
            let got = parse(&all).unwrap().expect("options");
            assert_eq!(format!("{got:?}"), want, "{} {default}", f.name);
        }
    }

    #[test]
    fn no_query_cache_refuses_the_cache_flags() {
        for tuning in ["--cache-promote-after", "--cache-max-entries"] {
            let e = refusal(&["--http", "127.0.0.1:0", tuning, "2", "--no-query-cache"]);
            assert_eq!(e, format!("--no-query-cache contradicts {tuning}"));
        }
    }

    #[test]
    fn no_probe_cache_refuses_the_probe_cache_flags() {
        for tuning in ["--probe-cache-ttl-ms", "--probe-cache-cap"] {
            let e = refusal(&[tuning, "2", "--no-probe-cache"]);
            assert_eq!(e, format!("--no-probe-cache contradicts {tuning}"));
        }
    }

    #[test]
    fn gateway_flags_need_http() {
        for list in [
            &["--cache-promote-after", "2"][..],
            &["--cache-max-entries", "2"],
            &["--no-query-cache"],
            &["--gw-rate-limit", "5"],
            &["--gw-request-timeout-ms", "100"],
            &["--gw-idle-timeout-ms", "100"],
            &["--access-log"],
        ] {
            assert_eq!(refusal(list), format!("{} needs --http", list[0]));
        }
    }

    /// Joiners take `--seed` too: the benchmark passes it to every daemon.
    #[test]
    fn seed_with_join_is_accepted() {
        let list = [
            "--listen",
            "127.0.0.1:7102",
            "--join",
            "127.0.0.1:7101",
            "--seed",
            "1",
        ];
        let opts = parse(&args(&list)).unwrap().expect("options");
        assert_eq!(
            (opts.seed, opts.join.as_deref()),
            (1, Some("127.0.0.1:7101"))
        );
    }

    #[test]
    fn bad_values_name_the_flag() {
        assert_eq!(
            refusal(&["--swim-period-ms", "0"]),
            "--swim-period-ms 0: must be positive"
        );
        assert_eq!(refusal(&["--seed", "x"]), "--seed x: not an integer");
        assert_eq!(
            refusal(&["--gw-rate-limit", "inf"]),
            "--gw-rate-limit inf: not a non-negative number"
        );
        assert_eq!(refusal(&["--seed"]), "--seed needs a value");
        assert_eq!(refusal(&["--bogus"]), "unknown flag --bogus");
        assert_eq!(
            parse(&args(&["--seed", "1"])).unwrap_err(),
            "--listen is required"
        );
    }

    /// Every flag is named, backticked, in the documents: `--flag` or
    /// `--flag ARG` opens a code span in `docs/*.md` or `README.md`.
    #[test]
    fn documents_name_every_flag() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let docs = std::fs::read_dir(root.join("docs")).unwrap();
        let mut paths: Vec<_> = docs.map(|e| e.unwrap().path()).collect();
        paths.retain(|p| p.extension().is_some_and(|x| x == "md"));
        paths.push(root.join("README.md"));
        let texts: Vec<String> = paths
            .iter()
            .map(|p| std::fs::read_to_string(p).unwrap())
            .collect();
        let spans: Vec<&str> = texts
            .iter()
            .flat_map(|t| t.split('`').skip(1).step_by(2))
            .collect();
        for f in FLAGS {
            let named = spans
                .iter()
                .any(|s| s.split_whitespace().next() == Some(f.name));
            assert!(named, "{} is in no document", f.name);
        }
    }
}
