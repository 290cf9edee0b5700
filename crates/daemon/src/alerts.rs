//! Alert rules: the "react" layer of the health plane.
//!
//! A rule is a named threshold over one key of the daemon's health
//! sample (`<name>: <metric> <op> <value>`), optionally windowed:
//!
//! * `rate(<metric>, <window>)` evaluates the metric's per-second rate
//!   of change over `<window>`, read from the flight recorder's history
//!   rings — so counters (queries, rate-limit rejections) can alert on
//!   throughput rather than absolute totals.
//! * a trailing `for <duration>` is a hold-down: the condition must
//!   hold *continuously* for that long before the alert fires, so a
//!   single-tick blip (one slow maintenance pass, one GC-ish hiccup)
//!   no longer pages anyone.
//!
//! The engine evaluates all rules on the maintenance tick, tracks
//! firing state across evaluations, and reports transitions so the
//! daemon can journal them and log them as JSON lines next to the
//! slow-query log. For every raw sample key the engine also derives
//! `<key>_delta` — the change since the previous evaluation — so rules
//! can watch growth rates (watch leaks, rate-limit spikes) without the
//! engine hard-coding any particular metric.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use moara_gateway::json::JsonLine;

use crate::health::AlertWire;
use crate::recorder::MetricsHistory;

/// Comparison operator of a rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlertOp {
    Gt,
    Ge,
    Lt,
    Le,
}

impl AlertOp {
    fn as_str(self) -> &'static str {
        match self {
            AlertOp::Gt => ">",
            AlertOp::Ge => ">=",
            AlertOp::Lt => "<",
            AlertOp::Le => "<=",
        }
    }
    fn holds(self, value: f64, threshold: f64) -> bool {
        match self {
            AlertOp::Gt => value > threshold,
            AlertOp::Ge => value >= threshold,
            AlertOp::Lt => value < threshold,
            AlertOp::Le => value <= threshold,
        }
    }
}

/// The left-hand side of a rule: a raw sample key, or a windowed rate
/// over the history rings.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricExpr {
    /// A key of the health sample (including derived `_delta` keys).
    Raw(String),
    /// `rate(metric, window)`: per-second change of `metric` over the
    /// trailing `window`, from the flight recorder. Unknown (no
    /// recorder, unknown metric, or history not yet spanning the
    /// window) until enough history exists — a half-seen window never
    /// fires.
    Rate { metric: String, window_ms: u64 },
}

impl MetricExpr {
    /// The canonical source form (`tick_p99_us`, `rate(queries, 30s)`).
    pub fn display(&self) -> String {
        match self {
            MetricExpr::Raw(key) => key.clone(),
            MetricExpr::Rate { metric, window_ms } => {
                format!("rate({metric}, {})", fmt_window(*window_ms))
            }
        }
    }
}

fn fmt_window(ms: u64) -> String {
    if ms >= 60_000 && ms.is_multiple_of(60_000) {
        format!("{}m", ms / 60_000)
    } else if ms >= 1000 && ms.is_multiple_of(1000) {
        format!("{}s", ms / 1000)
    } else {
        format!("{ms}ms")
    }
}

/// One alert rule: fire `name` once `expr op threshold` has held for
/// `hold_ms` (0 = immediately).
#[derive(Clone, Debug, PartialEq)]
pub struct AlertRule {
    pub name: String,
    pub expr: MetricExpr,
    pub op: AlertOp,
    pub threshold: f64,
    pub hold_ms: u64,
}

impl AlertRule {
    fn new(name: &str, metric: &str, op: AlertOp, threshold: f64) -> AlertRule {
        AlertRule {
            name: name.to_string(),
            expr: MetricExpr::Raw(metric.to_string()),
            op,
            threshold,
            hold_ms: 0,
        }
    }

    fn held_for(mut self, hold_ms: u64) -> AlertRule {
        self.hold_ms = hold_ms;
        self
    }
}

/// The rules every daemon ships with. A `--alert-rules` file may
/// override any of these by reusing the rule name.
pub fn builtin_rules() -> Vec<AlertRule> {
    vec![
        // Event loop spent >250ms of work inside a tick. Held for 3s so
        // one slow tick (a blip) stays off the pager; a sustained stall
        // keeps the delta positive across evaluations and fires.
        AlertRule::new("event_loop_stall", "stalled_ticks_delta", AlertOp::Gt, 0.0).held_for(3000),
        // SWIM confirmed at least one member dead.
        AlertRule::new("dead_members", "dead_members", AlertOp::Gt, 0.0),
        // Watch count grew by >256 between evaluations: a client is
        // opening watches faster than it closes them.
        AlertRule::new("watch_leak", "watches_delta", AlertOp::Gt, 256.0),
        // >100 requests rejected by the rate limiter since the last
        // evaluation.
        AlertRule::new("rate_limit_spike", "rate_limited_delta", AlertOp::Gt, 100.0),
        // Descriptor / memory ceilings: trouble before the kernel says so.
        AlertRule::new("fd_ceiling", "open_fds", AlertOp::Gt, 8192.0),
        AlertRule::new("rss_ceiling", "rss_bytes", AlertOp::Gt, 2e9),
    ]
}

/// Parse a `<window>` / `<duration>` token: integer + `ms`/`s`/`m`,
/// strictly positive.
fn parse_window(s: &str) -> Result<u64, &'static str> {
    let (digits, unit_ms) = if let Some(d) = s.strip_suffix("ms") {
        (d, 1)
    } else if let Some(d) = s.strip_suffix('s') {
        (d, 1000)
    } else if let Some(d) = s.strip_suffix('m') {
        (d, 60_000)
    } else {
        return Err("duration needs a unit (ms, s, m)");
    };
    let n: u64 = digits
        .parse()
        .map_err(|_| "duration is not '<integer><unit>'")?;
    if n == 0 {
        return Err("duration must be positive");
    }
    Ok(n.saturating_mul(unit_ms))
}

fn parse_expr(s: &str) -> Result<MetricExpr, String> {
    if let Some(inner) = s.strip_prefix("rate(").and_then(|r| r.strip_suffix(')')) {
        let (metric, window) = inner
            .split_once(',')
            .ok_or("rate() takes two arguments: rate(metric, window)")?;
        let metric = metric.trim();
        if metric.is_empty()
            || !metric
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_')
        {
            return Err("rate() metric must be [A-Za-z0-9_]+".into());
        }
        let window_ms = parse_window(window.trim()).map_err(|e| format!("rate() window: {e}"))?;
        Ok(MetricExpr::Rate {
            metric: metric.to_string(),
            window_ms,
        })
    } else if !s.is_empty() && !s.contains(char::is_whitespace) {
        Ok(MetricExpr::Raw(s.to_string()))
    } else {
        Err(format!("bad metric expression {s:?}"))
    }
}

/// Parse an `--alert-rules` file.
///
/// Grammar, one rule per line:
///
/// ```text
/// name: <expr> <op> <value> [for <duration>]
/// <expr>     := metric | rate(metric, <duration>)
/// <op>       := > | >= | < | <=
/// <duration> := <integer>(ms|s|m)
/// ```
///
/// Blank lines and `#` comments are ignored.
pub fn parse_rules(text: &str) -> Result<Vec<AlertRule>, String> {
    let mut rules = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let err =
            |what: &str| format!("alert rules line {}: {} in {:?}", idx + 1, what, raw.trim());
        let (name, expr) = line.split_once(':').ok_or_else(|| err("missing ':'"))?;
        let name = name.trim();
        if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return Err(err("rule name must be [A-Za-z0-9_]+"));
        }
        let parts: Vec<&str> = expr.split_whitespace().collect();
        // The expression may contain spaces (`rate(x, 30s)`), so locate
        // the operator token and join everything before it.
        let op_idx = parts
            .iter()
            .position(|t| matches!(*t, ">" | ">=" | "<" | "<="))
            .ok_or_else(|| err("expected 'metric op value', op one of > >= < <="))?;
        let op = match parts[op_idx] {
            ">" => AlertOp::Gt,
            ">=" => AlertOp::Ge,
            "<" => AlertOp::Lt,
            "<=" => AlertOp::Le,
            _ => unreachable!(),
        };
        let expr = parse_expr(&parts[..op_idx].join(" ")).map_err(|e| err(&e))?;
        let value = *parts
            .get(op_idx + 1)
            .ok_or_else(|| err("missing threshold"))?;
        let threshold: f64 = value
            .parse()
            .map_err(|_| err("threshold is not a number"))?;
        // `str::parse::<f64>` accepts `inf`, `infinity` and `NaN`; JSON,
        // which every alert surface speaks, has no such numbers.
        if !threshold.is_finite() {
            return Err(err("threshold must be finite"));
        }
        let hold_ms = match &parts[op_idx + 2..] {
            [] => 0,
            ["for", dur] => parse_window(dur).map_err(|e| err(&format!("'for' {e}")))?,
            _ => {
                return Err(err(
                    "trailing tokens (expected nothing or 'for <duration>')",
                ))
            }
        };
        rules.push(AlertRule {
            name: name.to_string(),
            expr,
            op,
            threshold,
            hold_ms,
        });
    }
    Ok(rules)
}

/// Merge user rules over the built-ins: same name replaces, new name appends.
pub fn merge_rules(user: Vec<AlertRule>) -> Vec<AlertRule> {
    let mut rules = builtin_rules();
    for r in user {
        match rules.iter_mut().find(|b| b.name == r.name) {
            Some(slot) => *slot = r,
            None => rules.push(r),
        }
    }
    rules
}

/// Rejects a rule over a metric the health sample (`keys`) does not
/// have, which the engine would accept and never fire: a raw key, the
/// base of a derived `<key>_delta` and `rate()`'s argument must each be
/// one of `keys`.
///
/// # Errors
///
/// Names the first such rule and lists the keys.
pub fn check_metrics(rules: &[AlertRule], keys: &[&str]) -> Result<(), String> {
    let known = |key: &str| keys.contains(&key);
    let reads_a_key = |rule: &&AlertRule| match &rule.expr {
        MetricExpr::Raw(key) => known(key) || key.strip_suffix("_delta").is_some_and(known),
        MetricExpr::Rate { metric, .. } => known(metric),
    };
    match rules.iter().find(|rule| !reads_a_key(rule)) {
        None => Ok(()),
        Some(AlertRule { name, expr, .. }) => Err(format!(
            "alert rule `{name}`: no metric `{}` (the metrics are: {})",
            expr.display(),
            keys.join(", ")
        )),
    }
}

/// A firing-state transition, reported once per edge for logging.
#[derive(Clone, Debug, PartialEq)]
pub enum AlertEvent {
    Fired {
        rule: String,
        metric: String,
        value: f64,
        threshold: f64,
    },
    Resolved {
        rule: String,
    },
}

struct Firing {
    value: f64,
    since: Instant,
}

/// Evaluates rules against successive health samples (plus, for `rate()`
/// rules, the flight recorder's history rings).
pub struct AlertEngine {
    rules: Vec<AlertRule>,
    prev: HashMap<String, f64>,
    firing: HashMap<String, Firing>,
    /// Rules whose condition currently holds but whose `for` hold-down
    /// has not yet elapsed: rule name → when the condition started.
    pending: HashMap<String, Instant>,
}

impl AlertEngine {
    pub fn new(rules: Vec<AlertRule>) -> AlertEngine {
        AlertEngine {
            rules,
            prev: HashMap::new(),
            firing: HashMap::new(),
            pending: HashMap::new(),
        }
    }

    pub fn rules(&self) -> &[AlertRule] {
        &self.rules
    }

    /// Evaluate every rule against `sample`, updating firing state and
    /// returning the transitions. `<key>_delta` keys are derived from
    /// the previous call's sample (first call: no deltas, so delta rules
    /// cannot fire spuriously at boot). `history`/`now_ms` back `rate()`
    /// expressions; pass `None` and rate rules simply never fire.
    pub fn evaluate(
        &mut self,
        sample: &[(&'static str, f64)],
        history: Option<&MetricsHistory>,
        now: Instant,
        now_ms: u64,
    ) -> Vec<AlertEvent> {
        let mut ctx: HashMap<String, f64> =
            sample.iter().map(|&(k, v)| (k.to_string(), v)).collect();
        for &(k, v) in sample {
            if let Some(prev) = self.prev.get(k) {
                ctx.insert(format!("{k}_delta"), v - prev);
            }
        }
        self.prev = sample.iter().map(|&(k, v)| (k.to_string(), v)).collect();

        let value_of = |expr: &MetricExpr| -> Option<f64> {
            match expr {
                MetricExpr::Raw(key) => ctx.get(key).copied(),
                MetricExpr::Rate { metric, window_ms } => {
                    let h = history?;
                    let (t1, v1) = h.latest(metric)?;
                    let (t0, v0) = h.at_or_before(metric, now_ms.saturating_sub(*window_ms))?;
                    // Silent until the recorded span covers the whole
                    // window: a partial window would report a rate over
                    // less data than the rule asked for.
                    if t1 <= t0 || t1 - t0 < *window_ms {
                        return None;
                    }
                    Some((v1 - v0) / ((t1 - t0) as f64 / 1000.0))
                }
            }
        };

        let mut events = Vec::new();
        for rule in &self.rules {
            // An unknown value (a delta on the first round, a rate whose
            // window history can't span yet) simply never fires. NaN
            // (e.g. cache ratio with no traffic) compares false against
            // everything, so it never fires either.
            let value = value_of(&rule.expr);
            let holds = value.is_some_and(|v| rule.op.holds(v, rule.threshold));
            let value = value.filter(|v| !v.is_nan()).unwrap_or(0.0);
            match (holds, self.firing.contains_key(&rule.name)) {
                (true, false) => {
                    let since = *self.pending.entry(rule.name.clone()).or_insert(now);
                    if now.saturating_duration_since(since) >= Duration::from_millis(rule.hold_ms) {
                        self.pending.remove(&rule.name);
                        self.firing
                            .insert(rule.name.clone(), Firing { value, since });
                        events.push(AlertEvent::Fired {
                            rule: rule.name.clone(),
                            metric: rule.expr.display(),
                            value,
                            threshold: rule.threshold,
                        });
                    }
                }
                (true, true) => {
                    if let Some(f) = self.firing.get_mut(&rule.name) {
                        f.value = value;
                    }
                }
                (false, true) => {
                    self.firing.remove(&rule.name);
                    events.push(AlertEvent::Resolved {
                        rule: rule.name.clone(),
                    });
                }
                (false, false) => {
                    // A blip shorter than the hold-down: forget it.
                    self.pending.remove(&rule.name);
                }
            }
        }
        events
    }

    /// Currently-firing alerts, in rule order, for `/v1/alerts` and the
    /// control plane.
    pub fn firing(&self, now: Instant) -> Vec<AlertWire> {
        self.rules
            .iter()
            .filter_map(|rule| {
                self.firing.get(&rule.name).map(|f| AlertWire {
                    rule: rule.name.clone(),
                    metric: rule.expr.display(),
                    value: f.value,
                    threshold: rule.threshold,
                    since_s: now.saturating_duration_since(f.since).as_secs(),
                })
            })
            .collect()
    }

    /// One JSON line per transition, matching the slow-query log shape.
    /// `ts_ms` is unix milliseconds, for correlation with the journal
    /// and the access log.
    pub fn event_line(node: u32, event: &AlertEvent, ts_ms: u64) -> String {
        match event {
            AlertEvent::Fired {
                rule,
                metric,
                value,
                threshold,
            } => JsonLine::new()
                .str("alert", "firing")
                .u64("ts_ms", ts_ms)
                .u64("node", u64::from(node))
                .str("rule", rule)
                .str("metric", metric)
                .f64("value", *value)
                .f64("threshold", *threshold)
                .finish(),
            AlertEvent::Resolved { rule } => JsonLine::new()
                .str("alert", "resolved")
                .u64("ts_ms", ts_ms)
                .u64("node", u64::from(node))
                .str("rule", rule)
                .finish(),
        }
    }
}

impl std::fmt::Display for AlertRule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} {} {}",
            self.name,
            self.expr.display(),
            self.op.as_str(),
            self.threshold
        )?;
        if self.hold_ms > 0 {
            write!(f, " for {}", fmt_window(self.hold_ms))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_rules_and_rejects_garbage() {
        let rules = parse_rules(
            "# watch the loop\n\
             stall: tick_p99_us > 250000\n\
             \n\
             cold_cache: cache_hit_pct < 10  # inline comment\n",
        )
        .unwrap();
        assert_eq!(rules.len(), 2);
        assert_eq!(
            rules[0],
            AlertRule::new("stall", "tick_p99_us", AlertOp::Gt, 250000.0)
        );
        assert_eq!(
            rules[1],
            AlertRule::new("cold_cache", "cache_hit_pct", AlertOp::Lt, 10.0)
        );

        for bad in [
            "no colon here",
            "name: onlymetric >",
            "name: metric == 3",         // unknown operator
            "name: metric > notanumber", // non-numeric threshold
            "name: metric < inf",        // numeric to `parse`, not to JSON
            "name: metric < -Infinity",
            "name: metric > NaN",
            "bad name!: metric > 1",
            "name: metric > 1 trailing junk",
        ] {
            assert!(parse_rules(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn comment_only_file_parses_to_no_rules() {
        let rules = parse_rules("# nothing here\n\n   # still nothing\n").unwrap();
        assert!(rules.is_empty());
    }

    #[test]
    fn parses_for_and_rate_grammar() {
        let rules = parse_rules(
            "stall: tick_p99_us > 250000 for 3s\n\
             busy: rate(queries_inflight, 30s) >= 5\n\
             both: rate(rate_limited, 2m) > 1.5 for 500ms\n",
        )
        .unwrap();
        assert_eq!(rules[0].hold_ms, 3000);
        assert_eq!(rules[0].expr, MetricExpr::Raw("tick_p99_us".into()));
        assert_eq!(
            rules[1].expr,
            MetricExpr::Rate {
                metric: "queries_inflight".into(),
                window_ms: 30_000
            }
        );
        assert_eq!(rules[1].hold_ms, 0);
        assert_eq!(
            rules[2].expr,
            MetricExpr::Rate {
                metric: "rate_limited".into(),
                window_ms: 120_000
            }
        );
        assert_eq!(rules[2].hold_ms, 500);
        // Display round-trips the source shape.
        assert_eq!(rules[0].to_string(), "stall: tick_p99_us > 250000 for 3s");
        assert_eq!(
            rules[1].to_string(),
            "busy: rate(queries_inflight, 30s) >= 5"
        );

        for bad in [
            "r: rate(x) > 1",            // missing window
            "r: rate(x, 0s) > 1",        // zero window
            "r: rate(x, bogus) > 1",     // bad window
            "r: rate(x, 5) > 1",         // missing unit
            "r: rate(bad name, 5s) > 1", // bad metric
            "r: metric > 1 for 0s",      // zero hold
            "r: metric > 1 for xyz",     // bad hold
            "r: metric > 1 hold 3s",     // unknown keyword
        ] {
            assert!(parse_rules(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn user_rules_override_builtins_by_name() {
        let rules =
            merge_rules(parse_rules("fd_ceiling: open_fds > 10\nmine: watches > 5").unwrap());
        let fd = rules.iter().find(|r| r.name == "fd_ceiling").unwrap();
        assert_eq!(fd.threshold, 10.0);
        assert!(rules.iter().any(|r| r.name == "mine"));
        assert_eq!(rules.len(), builtin_rules().len() + 1);
        // Within one file the later duplicate wins, same as user-over-builtin.
        let rules = merge_rules(parse_rules("mine: watches > 5\nmine: watches > 9").unwrap());
        let mine = rules.iter().find(|r| r.name == "mine").unwrap();
        assert_eq!(mine.threshold, 9.0);
        assert_eq!(rules.len(), builtin_rules().len() + 1);
    }

    /// A rule over a metric the health sample lacks is refused at boot
    /// rather than accepted and never fired; every form over a real key
    /// passes, the built-ins included.
    #[test]
    fn rules_must_read_metrics_the_daemon_samples() {
        let keys: Vec<&str> = crate::metrics::sample_keys().collect();
        let good = "a: tick_p99_us > 1\nb: watches_delta > 1\nc: rate(rate_limited, 30s) > 1";
        let good = merge_rules(parse_rules(good).unwrap());
        assert_eq!(good.len(), builtin_rules().len() + 3);
        assert_eq!(check_metrics(&good, &keys), Ok(()));
        for bad in [
            "tick_p99us > 250000",
            "watch_delta > 1",
            "rate(queries, 30s) > 1",
        ] {
            let rules = parse_rules(&format!("stall: {bad}")).unwrap();
            let err = check_metrics(&rules, &keys).unwrap_err();
            assert!(
                err.contains("`stall`") && err.contains("tick_p99_us"),
                "{err}"
            );
            let mut opts = crate::DaemonOpts::new("127.0.0.1:0".parse().unwrap());
            opts.alert_rules = rules;
            assert_eq!(crate::Daemon::start(opts).err(), Some(err));
        }
    }

    fn eval(eng: &mut AlertEngine, sample: &[(&'static str, f64)], t: Instant) -> Vec<AlertEvent> {
        eng.evaluate(sample, None, t, 0)
    }

    #[test]
    fn engine_fires_resolves_and_reports_edges_once() {
        let mut eng = AlertEngine::new(parse_rules("hot: load > 10").unwrap());
        let t = Instant::now();
        assert!(eval(&mut eng, &[("load", 5.0)], t).is_empty());
        let events = eval(&mut eng, &[("load", 12.0)], t);
        assert_eq!(events.len(), 1);
        assert!(
            matches!(&events[0], AlertEvent::Fired { rule, value, .. } if rule == "hot" && *value == 12.0)
        );
        // Still firing: no new edge, but the reported value tracks.
        assert!(eval(&mut eng, &[("load", 20.0)], t).is_empty());
        let firing = eng.firing(t);
        assert_eq!(firing.len(), 1);
        assert_eq!(firing[0].value, 20.0);
        let events = eval(&mut eng, &[("load", 1.0)], t);
        assert!(matches!(&events[0], AlertEvent::Resolved { rule } if rule == "hot"));
        assert!(eng.firing(t).is_empty());
    }

    #[test]
    fn delta_rules_need_two_samples_and_diff_consecutive_ones() {
        let mut eng = AlertEngine::new(parse_rules("leak: watches_delta > 100").unwrap());
        let t = Instant::now();
        // First sample: no previous value, the delta key does not exist.
        assert!(eval(&mut eng, &[("watches", 5000.0)], t).is_empty());
        assert!(eval(&mut eng, &[("watches", 5050.0)], t).is_empty());
        let events = eval(&mut eng, &[("watches", 5200.0)], t);
        assert!(matches!(&events[0], AlertEvent::Fired { value, .. } if *value == 150.0));
    }

    #[test]
    fn hold_down_suppresses_blips_but_fires_on_sustained_breach() {
        let mut eng = AlertEngine::new(parse_rules("stall: load > 10 for 3s").unwrap());
        let t0 = Instant::now();
        let at = |s: u64| t0 + Duration::from_secs(s);
        // A one-evaluation blip: pending, then forgotten.
        assert!(eval(&mut eng, &[("load", 99.0)], at(0)).is_empty());
        assert!(eval(&mut eng, &[("load", 1.0)], at(1)).is_empty());
        assert!(eng.firing(at(1)).is_empty());
        // Breach again: the hold-down clock restarts from zero.
        assert!(eval(&mut eng, &[("load", 50.0)], at(2)).is_empty());
        assert!(eval(&mut eng, &[("load", 50.0)], at(3)).is_empty());
        assert!(eval(&mut eng, &[("load", 50.0)], at(4)).is_empty());
        // 3s after the breach started: fires, and `since` reflects the
        // breach start, not the fire edge.
        let events = eval(&mut eng, &[("load", 50.0)], at(5));
        assert!(matches!(&events[0], AlertEvent::Fired { rule, .. } if rule == "stall"));
        assert_eq!(eng.firing(at(5))[0].since_s, 3);
        // Resolves on one clear evaluation, no hold on the way down.
        let events = eval(&mut eng, &[("load", 1.0)], at(6));
        assert!(matches!(&events[0], AlertEvent::Resolved { .. }));
    }

    #[test]
    fn rate_rules_read_history_and_wait_for_a_full_window() {
        let mut eng = AlertEngine::new(parse_rules("surge: rate(reqs, 10s) > 5").unwrap());
        let mut h = MetricsHistory::new(vec!["reqs"], 600);
        let t = Instant::now();
        // Counter climbing 10/s from t=0: rate is 10 once the window is
        // spanned, but with only 5s of history the rule stays silent.
        for i in 0..=5u64 {
            h.record(i * 1000, &[("reqs", (i * 10) as f64)]);
        }
        assert!(eng.evaluate(&[("x", 0.0)], Some(&h), t, 5_000).is_empty());
        for i in 6..=20u64 {
            h.record(i * 1000, &[("reqs", (i * 10) as f64)]);
        }
        let events = eng.evaluate(&[("x", 0.0)], Some(&h), t, 20_000);
        assert!(
            matches!(&events[0], AlertEvent::Fired { metric, value, .. }
                if metric == "rate(reqs, 10s)" && (*value - 10.0).abs() < 0.5),
            "{events:?}"
        );
        // A flat counter resolves the alert.
        for i in 21..=40u64 {
            h.record(i * 1000, &[("reqs", 200.0)]);
        }
        let events = eng.evaluate(&[("x", 0.0)], Some(&h), t, 40_000);
        assert!(matches!(&events[0], AlertEvent::Resolved { .. }));
        // No history at all: rate rules never fire.
        let mut cold = AlertEngine::new(parse_rules("surge: rate(reqs, 10s) > 5").unwrap());
        assert!(cold.evaluate(&[("x", 9.0)], None, t, 0).is_empty());
    }

    #[test]
    fn nan_samples_never_fire() {
        let mut eng = AlertEngine::new(parse_rules("cold: cache_hit_pct < 10").unwrap());
        let t = Instant::now();
        assert!(eval(&mut eng, &[("cache_hit_pct", f64::NAN)], t).is_empty());
        assert!(eval(&mut eng, &[("cache_hit_pct", f64::NAN)], t).is_empty());
        assert!(eng.firing(t).is_empty());
    }

    #[test]
    fn event_lines_are_json_shaped() {
        let fired = AlertEngine::event_line(
            2,
            &AlertEvent::Fired {
                rule: "dead_members".into(),
                metric: "dead_members".into(),
                value: 1.0,
                threshold: 0.0,
            },
            1_700_000_000_123,
        );
        assert_eq!(
            fired,
            "{\"alert\":\"firing\",\"ts_ms\":1700000000123,\"node\":2,\"rule\":\"dead_members\",\"metric\":\"dead_members\",\"value\":1,\"threshold\":0}"
        );
        let resolved = AlertEngine::event_line(
            2,
            &AlertEvent::Resolved { rule: "x".into() },
            1_700_000_000_124,
        );
        assert_eq!(
            resolved,
            "{\"alert\":\"resolved\",\"ts_ms\":1700000000124,\"node\":2,\"rule\":\"x\"}"
        );
    }
}

/// The rule grammar under generated input: every rule the daemon can
/// hold is written by `Display` in a form `parse_rules` reads back as
/// the same rule, and no input at all makes the parser panic.
#[cfg(test)]
mod props {
    use proptest::collection::vec;
    use proptest::prelude::*;

    use super::*;

    const NAME_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_";

    /// Bytes a mangled rule is spliced with: the grammar's own tokens,
    /// blanks, and a multi-byte character.
    const NOISE: &[&str] = &[
        ":", "(", ")", ",", ">", ">=", "<", "<=", "=", "#", " ", "\t", "\n", "-", ".", "0", "7",
        "e", "ms", "s", "m", "for", "rate", "rate(", "inf", "NaN", "_delta", "é",
    ];

    fn name() -> impl Strategy<Value = String> {
        let chars = vec(0..NAME_CHARS.len(), 1..16);
        chars.prop_map(|ix| ix.into_iter().map(|i| char::from(NAME_CHARS[i])).collect())
    }

    /// A health-sample key or its derived `_delta` form.
    fn metric() -> impl Strategy<Value = String> {
        let keys: Vec<&str> = crate::metrics::sample_keys().collect();
        let suffix = prop_oneof![Just(""), Just("_delta")];
        (0..keys.len(), suffix).prop_map(move |(i, suffix)| format!("{}{suffix}", keys[i]))
    }

    /// Whole seconds, up to a day.
    fn seconds() -> impl Strategy<Value = u64> {
        (1u64..=86_400).prop_map(|s| s * 1_000)
    }

    fn op() -> impl Strategy<Value = AlertOp> {
        prop_oneof![
            Just(AlertOp::Gt),
            Just(AlertOp::Ge),
            Just(AlertOp::Lt),
            Just(AlertOp::Le)
        ]
    }

    /// Small integers, ratios, and any finite bit pattern at all.
    fn threshold() -> impl Strategy<Value = f64> {
        prop_oneof![
            (-1_000_000i64..1_000_000).prop_map(|i| i as f64),
            (any::<i64>(), 1u32..1_000_000).prop_map(|(n, d)| n as f64 / f64::from(d)),
            any::<u64>().prop_map(|bits| Some(f64::from_bits(bits))
                .filter(|f| f.is_finite())
                .unwrap_or(0.5)),
        ]
    }

    fn rule() -> impl Strategy<Value = AlertRule> {
        let window = prop_oneof![Just(0u64), seconds()];
        let expr = (metric(), window).prop_map(|(metric, window_ms)| match window_ms {
            0 => MetricExpr::Raw(metric),
            _ => MetricExpr::Rate { metric, window_ms },
        });
        let hold = prop_oneof![Just(0u64), seconds()];
        (name(), expr, op(), threshold(), hold).prop_map(|(name, expr, op, threshold, hold_ms)| {
            AlertRule {
                name,
                expr,
                op,
                threshold,
                hold_ms,
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn a_written_rule_file_parses_back_to_its_rules(rules in vec(rule(), 1..6)) {
            let text: Vec<String> = rules.iter().map(AlertRule::to_string).collect();
            prop_assert_eq!(parse_rules(&text.join("\n")), Ok(rules));
        }

        #[test]
        fn mangled_rule_text_is_an_answer_never_a_panic(
            rule in rule(),
            cut in any::<u16>(),
            noise in vec(0..NOISE.len(), 0..12),
        ) {
            let text = rule.to_string();
            let mut at = usize::from(cut) % (text.len() + 1);
            while !text.is_char_boundary(at) {
                at -= 1;
            }
            let noise: String = noise.into_iter().map(|i| NOISE[i]).collect();
            let _ = parse_rules(&format!("{}{noise}{}", &text[..at], &text[at..]));
            let _ = parse_rules(&format!("{}{noise}", &text[..at]));
        }

        #[test]
        fn arbitrary_bytes_are_an_answer_never_a_panic(bytes in vec(any::<u8>(), 0..96)) {
            let _ = parse_rules(&String::from_utf8_lossy(&bytes));
        }
    }
}
