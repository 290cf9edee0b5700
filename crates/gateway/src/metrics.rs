//! Prometheus text exposition for the counters the cluster already keeps.
//!
//! The subsystems (transport, query scheduler, membership, subscriptions)
//! all count things — into `Stats` named counters, detector peer states,
//! node-level gauges — but until now those numbers were only reachable
//! from Rust. [`MetricsRegistry`] is the rendezvous point: the daemon
//! snapshots every layer into one registry per `/metrics` scrape and
//! renders it in the Prometheus text format (version 0.0.4), so any
//! standard scraper can watch a live cluster.
//!
//! The registry is a plain value, not a global: it holds one scrape's
//! samples, insertion-ordered, grouped into families (`# HELP`/`# TYPE`
//! emitted once per family even when samples carry different labels).

use std::fmt::Write as _;

/// Prometheus metric kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing count.
    Counter,
    /// Point-in-time value.
    Gauge,
    /// Cumulative bucket distribution (`_bucket`/`_sum`/`_count` series).
    Histogram,
}

impl MetricKind {
    fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

struct Sample {
    labels: Vec<(String, String)>,
    value: f64,
}

struct HistSample {
    labels: Vec<(String, String)>,
    /// Finite upper bounds, ascending; the `+Inf` bucket is implicit.
    bounds: Vec<u64>,
    /// Cumulative counts, one per finite bound plus the `+Inf` total.
    cumulative: Vec<u64>,
    sum: u64,
    count: u64,
}

struct Family {
    name: String,
    help: &'static str,
    kind: MetricKind,
    samples: Vec<Sample>,
    hists: Vec<HistSample>,
}

/// One scrape's worth of metrics, renderable as Prometheus text.
#[derive(Default)]
pub struct MetricsRegistry {
    families: Vec<Family>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Records a counter sample.
    pub fn counter(&mut self, name: &str, help: &'static str, value: u64) {
        self.sample(name, help, MetricKind::Counter, &[], value as f64);
    }

    /// Records a gauge sample.
    pub fn gauge(&mut self, name: &str, help: &'static str, value: f64) {
        self.sample(name, help, MetricKind::Gauge, &[], value);
    }

    /// Records a labelled counter sample (same name may be recorded many
    /// times with different labels; they join one family).
    pub fn counter_with(
        &mut self,
        name: &str,
        help: &'static str,
        labels: &[(&str, &str)],
        value: u64,
    ) {
        self.sample(name, help, MetricKind::Counter, labels, value as f64);
    }

    /// Records a labelled gauge sample.
    pub fn gauge_with(
        &mut self,
        name: &str,
        help: &'static str,
        labels: &[(&str, &str)],
        value: f64,
    ) {
        self.sample(name, help, MetricKind::Gauge, labels, value);
    }

    fn sample(
        &mut self,
        name: &str,
        help: &'static str,
        kind: MetricKind,
        labels: &[(&str, &str)],
        value: f64,
    ) {
        let labels = owned(labels);
        self.family(name, help, kind)
            .samples
            .push(Sample { labels, value });
    }

    /// The family called `name`, appended (with `help` and `kind`) if it
    /// is new: samples of one name share one family header.
    fn family(&mut self, name: &str, help: &'static str, kind: MetricKind) -> &mut Family {
        let at = self.families.iter().position(|f| f.name == name);
        let at = at.unwrap_or_else(|| {
            let name = name.to_owned();
            let (samples, hists) = (Vec::new(), Vec::new());
            (self.families).push(Family {
                name,
                help,
                kind,
                samples,
                hists,
            });
            self.families.len() - 1
        });
        &mut self.families[at]
    }

    /// Records a histogram series from pre-aggregated data: ascending
    /// finite `bounds` and `cumulative` counts (one per bound, plus the
    /// final `+Inf` total, which must equal `count`). Deliberately takes
    /// raw slices — this crate stays dependency-free, and any histogram
    /// implementation (the trace store's, the gateway's atomic buckets)
    /// can feed it.
    pub fn histogram(
        &mut self,
        name: &str,
        help: &'static str,
        bounds: &[u64],
        cumulative: &[u64],
        sum: u64,
        count: u64,
    ) {
        self.histogram_with(name, help, &[], bounds, cumulative, sum, count);
    }

    /// Records a labelled histogram series (same name, different labels
    /// join one family — e.g. one series per query phase).
    #[allow(clippy::too_many_arguments)]
    pub fn histogram_with(
        &mut self,
        name: &str,
        help: &'static str,
        labels: &[(&str, &str)],
        bounds: &[u64],
        cumulative: &[u64],
        sum: u64,
        count: u64,
    ) {
        debug_assert_eq!(cumulative.len(), bounds.len() + 1, "need a +Inf bucket");
        let hist = HistSample {
            labels: owned(labels),
            bounds: bounds.to_vec(),
            cumulative: cumulative.to_vec(),
            sum,
            count,
        };
        self.family(name, help, MetricKind::Histogram)
            .hists
            .push(hist);
    }

    /// How many samples the registry holds (tests, sanity gates).
    pub fn sample_count(&self) -> usize {
        self.families.iter().map(|f| f.samples.len()).sum()
    }

    /// Renders the Prometheus text format.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.families {
            let _ = writeln!(out, "# HELP {} {}", f.name, f.help);
            let _ = writeln!(out, "# TYPE {} {}", f.name, f.kind.as_str());
            for s in &f.samples {
                out.push_str(&f.name);
                write_labels(&mut out, &s.labels, None);
                // Prometheus accepts integer or float renderings; keep
                // integers exact (counters are u64-sourced).
                if s.value.fract() == 0.0 && s.value.abs() < 9e15 {
                    let _ = writeln!(out, " {}", s.value as i64);
                } else {
                    let _ = writeln!(out, " {}", s.value);
                }
            }
            for h in &f.hists {
                let mut series = |suffix: &str, le: Option<&str>, value: u64| {
                    let _ = write!(out, "{}{suffix}", f.name);
                    write_labels(&mut out, &h.labels, le);
                    let _ = writeln!(out, " {value}");
                };
                for (b, n) in h.bounds.iter().zip(&h.cumulative) {
                    series("_bucket", Some(&b.to_string()), *n);
                }
                series("_bucket", Some("+Inf"), h.cumulative[h.bounds.len()]);
                series("_sum", None, h.sum);
                series("_count", None, h.count);
            }
        }
        out
    }
}

/// Conformance check for a full text-format scrape: family headers appear
/// exactly once and before their samples, every sample line parses, every
/// sample belongs to a declared family, and histogram series are
/// internally consistent (cumulative buckets, `+Inf` equals `_count`).
/// Returns the first violation found.
pub fn lint_exposition(text: &str) -> Result<(), String> {
    use std::collections::HashMap;
    let mut kinds: HashMap<String, String> = HashMap::new();
    let mut helped: HashMap<String, usize> = HashMap::new();
    let mut sampled: HashMap<String, bool> = HashMap::new();
    // Histogram bookkeeping: family -> labels -> (last le, last cum, inf, count)
    #[derive(Default)]
    struct HistCheck {
        last_le: Option<f64>,
        last_cum: Option<f64>,
        inf: Option<f64>,
        count: Option<f64>,
    }
    let mut hists: HashMap<(String, String), HistCheck> = HashMap::new();
    for (ln, line) in text.lines().enumerate() {
        let ln = ln + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split(' ').next().unwrap_or_default().to_owned();
            if name.is_empty() {
                return Err(format!("line {ln}: HELP without a metric name"));
            }
            *helped.entry(name.clone()).or_default() += 1;
            if helped[&name] > 1 {
                return Err(format!("line {ln}: duplicate HELP for {name}"));
            }
            if sampled.contains_key(&name) {
                return Err(format!("line {ln}: HELP for {name} after its samples"));
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split(' ');
            let name = it.next().unwrap_or_default().to_owned();
            let kind = it.next().unwrap_or_default().to_owned();
            if !matches!(
                kind.as_str(),
                "counter" | "gauge" | "histogram" | "summary" | "untyped"
            ) {
                return Err(format!("line {ln}: unknown TYPE {kind} for {name}"));
            }
            if kinds.insert(name.clone(), kind).is_some() {
                return Err(format!("line {ln}: duplicate TYPE for {name}"));
            }
            if sampled.contains_key(&name) {
                return Err(format!("line {ln}: TYPE for {name} after its samples"));
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // free-form comment
        }
        // Sample line: name[{labels}] value
        let (series, value) = parse_sample_line(line)
            .ok_or_else(|| format!("line {ln}: unparseable sample line: {line:?}"))?;
        let (name, labels) = series;
        let base = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suf| {
                let stripped = name.strip_suffix(suf)?;
                if kinds.get(stripped).map(String::as_str) == Some("histogram") {
                    Some(stripped.to_owned())
                } else {
                    None
                }
            })
            .unwrap_or_else(|| name.clone());
        if !kinds.contains_key(&base) {
            return Err(format!("line {ln}: sample for undeclared family {name}"));
        }
        sampled.insert(base.clone(), true);
        if kinds[&base] == "histogram" {
            // Strip the le label for the series key so one histogram's
            // buckets group together.
            let series_labels: Vec<&(String, String)> =
                labels.iter().filter(|(k, _)| k != "le").collect();
            let lkey = series_labels
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(",");
            let check = hists.entry((base.clone(), lkey)).or_default();
            if name.ends_with("_bucket") {
                let le = labels
                    .iter()
                    .find(|(k, _)| k == "le")
                    .map(|(_, v)| v.as_str())
                    .ok_or_else(|| format!("line {ln}: _bucket without le label"))?;
                let le_v = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse::<f64>()
                        .map_err(|_| format!("line {ln}: bad le value {le:?}"))?
                };
                if let Some(prev) = check.last_le {
                    if le_v <= prev {
                        return Err(format!("line {ln}: le values not ascending"));
                    }
                }
                if let Some(prev) = check.last_cum {
                    if value < prev {
                        return Err(format!("line {ln}: bucket counts not cumulative"));
                    }
                }
                check.last_le = Some(le_v);
                check.last_cum = Some(value);
                if le_v.is_infinite() {
                    check.inf = Some(value);
                }
            } else if name.ends_with("_count") {
                check.count = Some(value);
            }
        }
    }
    for ((fam, labels), check) in &hists {
        match (check.inf, check.count) {
            (Some(i), Some(c)) if i != c => {
                return Err(format!(
                    "histogram {fam}{{{labels}}}: +Inf bucket {i} != count {c}"
                ));
            }
            (None, _) => return Err(format!("histogram {fam}{{{labels}}}: no +Inf bucket")),
            (_, None) => return Err(format!("histogram {fam}{{{labels}}}: no _count series")),
            _ => {}
        }
    }
    Ok(())
}

/// Merges per-daemon Prometheus expositions into one cluster-wide
/// scrape: every sample line gains an `instance` label (first position),
/// family headers are emitted once in first-seen order, and peers whose
/// scrape failed surface as `moara_federation_missing{instance=…} 1`
/// instead of silently vanishing.
///
/// Each element of `parts` is `(instance, exposition)`; `None` marks a
/// peer that did not answer. Sample values are spliced through verbatim
/// (no float round-trip). A family whose `# TYPE` disagrees with the
/// first part that declared it is dropped from the conflicting part —
/// mixing kinds under one name would corrupt the merged scrape. Lines
/// that do not parse as samples are dropped.
pub fn federate_expositions(parts: &[(String, Option<String>)]) -> String {
    use std::collections::HashMap;

    struct MergedFamily {
        help: String,
        kind: String,
        lines: String,
    }
    let mut order: Vec<String> = Vec::new();
    let mut families: HashMap<String, MergedFamily> = HashMap::new();
    let mut missing: Vec<&str> = Vec::new();

    for (instance, text) in parts {
        let Some(text) = text else {
            missing.push(instance);
            continue;
        };
        // This part's own declarations (TYPE precedes samples in any
        // well-formed exposition, ours included).
        let mut local_kinds: HashMap<String, String> = HashMap::new();
        let mut local_help: HashMap<String, String> = HashMap::new();
        let mut dropped: HashMap<String, bool> = HashMap::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                if let Some((name, help)) = rest.split_once(' ') {
                    local_help.insert(name.to_owned(), help.to_owned());
                }
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                if let Some((name, kind)) = rest.split_once(' ') {
                    local_kinds.insert(name.to_owned(), kind.to_owned());
                }
                continue;
            }
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            let Some(((name, _), _)) = parse_sample_line(line) else {
                continue;
            };
            // Histogram series (`x_bucket` etc.) belong to family `x`.
            let base = ["_bucket", "_sum", "_count"]
                .iter()
                .find_map(|suf| {
                    let stripped = name.strip_suffix(suf)?;
                    if local_kinds.get(stripped).map(String::as_str) == Some("histogram") {
                        Some(stripped.to_owned())
                    } else {
                        None
                    }
                })
                .unwrap_or_else(|| name.clone());
            let kind = local_kinds
                .get(&base)
                .cloned()
                .unwrap_or_else(|| "untyped".to_owned());
            if let Some(&d) = dropped.get(&base) {
                if d {
                    continue;
                }
            } else {
                let keep = families.get(&base).is_none_or(|f| f.kind == kind);
                dropped.insert(base.clone(), !keep);
                if !keep {
                    continue;
                }
            }
            let fam = families.entry(base.clone()).or_insert_with(|| {
                order.push(base.clone());
                MergedFamily {
                    help: local_help.get(&base).cloned().unwrap_or_default(),
                    kind,
                    lines: String::new(),
                }
            });
            // Splice `instance` in as the first label, value untouched.
            let Some((series, value)) = line.rsplit_once(' ') else {
                continue;
            };
            let inst = escape_label(instance);
            match series.find('{') {
                Some(open) => {
                    let _ = writeln!(
                        fam.lines,
                        "{}{{instance=\"{inst}\",{} {value}",
                        &series[..open],
                        &series[open + 1..],
                    );
                }
                None => {
                    let _ = writeln!(fam.lines, "{series}{{instance=\"{inst}\"}} {value}");
                }
            }
        }
    }

    let mut out = String::new();
    for name in &order {
        let f = &families[name];
        if !f.help.is_empty() {
            let _ = writeln!(out, "# HELP {name} {}", f.help);
        }
        let _ = writeln!(out, "# TYPE {name} {}", f.kind);
        out.push_str(&f.lines);
    }
    if !missing.is_empty() {
        let _ = writeln!(
            out,
            "# HELP moara_federation_missing Peers whose scrape failed during federation."
        );
        let _ = writeln!(out, "# TYPE moara_federation_missing gauge");
        for inst in missing {
            let _ = writeln!(
                out,
                "moara_federation_missing{{instance=\"{}\"}} 1",
                escape_label(inst)
            );
        }
    }
    out
}

/// Parses `name{k="v",...} value` (or `name value`); returns
/// ((name, labels), value). Label values must be well-formed quoted
/// strings with valid escapes.
#[allow(clippy::type_complexity)]
fn parse_sample_line(line: &str) -> Option<((String, Vec<(String, String)>), f64)> {
    let (series, value) = line.rsplit_once(' ')?;
    let value: f64 = value.parse().ok()?;
    let (name, labels) = match series.find('{') {
        None => (series.to_owned(), Vec::new()),
        Some(open) => {
            let name = series[..open].to_owned();
            let body = series[open + 1..].strip_suffix('}')?;
            let mut labels = Vec::new();
            let mut rest = body;
            while !rest.is_empty() {
                let eq = rest.find("=\"")?;
                let key = rest[..eq].to_owned();
                rest = &rest[eq + 2..];
                // Scan the quoted value honouring escapes.
                let mut val = String::new();
                let mut chars = rest.char_indices();
                let mut end = None;
                while let Some((i, c)) = chars.next() {
                    match c {
                        '\\' => {
                            let (_, esc) = chars.next()?;
                            match esc {
                                '\\' => val.push('\\'),
                                '"' => val.push('"'),
                                'n' => val.push('\n'),
                                _ => return None,
                            }
                        }
                        '"' => {
                            end = Some(i);
                            break;
                        }
                        '\n' => return None,
                        c => val.push(c),
                    }
                }
                let end = end?;
                labels.push((key, val));
                rest = &rest[end + 1..];
                rest = rest.strip_prefix(',').unwrap_or(rest);
            }
            (name, labels)
        }
    };
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        || name.chars().next().is_some_and(|c| c.is_ascii_digit())
    {
        return None;
    }
    Some(((name, labels), value))
}

/// Labels as a registry keeps them.
fn owned(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    labels
        .iter()
        .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
        .collect()
}

/// Writes a series' label set, `{k="v",…}`, with a histogram bucket's
/// `le` last; nothing when there is neither.
fn write_labels(out: &mut String, labels: &[(String, String)], le: Option<&str>) {
    let pairs = labels.iter().map(|(k, v)| (k.as_str(), v.as_str()));
    for (i, (k, v)) in pairs.chain(le.map(|le| ("le", le))).enumerate() {
        out.push(if i == 0 { '{' } else { ',' });
        let _ = write!(out, "{k}=\"{}\"", escape_label(v));
    }
    if !labels.is_empty() || le.is_some() {
        out.push('}');
    }
}

/// Label-value escaping per the exposition format: backslash, quote,
/// newline.
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_help_type_and_samples() {
        let mut reg = MetricsRegistry::new();
        reg.counter("moara_messages_sent_total", "Messages sent.", 42);
        reg.gauge("moara_members_alive", "Members believed alive.", 3.0);
        let text = reg.render();
        assert!(text.contains("# HELP moara_messages_sent_total Messages sent.\n"));
        assert!(text.contains("# TYPE moara_messages_sent_total counter\n"));
        assert!(text.contains("moara_messages_sent_total 42\n"));
        assert!(text.contains("# TYPE moara_members_alive gauge\n"));
        assert!(text.contains("moara_members_alive 3\n"));
    }

    #[test]
    fn labelled_samples_share_one_family_header() {
        let mut reg = MetricsRegistry::new();
        reg.counter_with(
            "moara_http_requests_total",
            "Requests.",
            &[("endpoint", "query")],
            7,
        );
        reg.counter_with(
            "moara_http_requests_total",
            "Requests.",
            &[("endpoint", "watch")],
            2,
        );
        let text = reg.render();
        assert_eq!(text.matches("# TYPE moara_http_requests_total").count(), 1);
        assert!(text.contains("moara_http_requests_total{endpoint=\"query\"} 7\n"));
        assert!(text.contains("moara_http_requests_total{endpoint=\"watch\"} 2\n"));
    }

    #[test]
    fn label_values_escape() {
        let mut reg = MetricsRegistry::new();
        reg.gauge_with("g", "G.", &[("q", "a\"b\\c\nd")], 1.0);
        assert!(reg.render().contains("g{q=\"a\\\"b\\\\c\\nd\"} 1\n"));
    }

    #[test]
    fn floats_render_as_floats() {
        let mut reg = MetricsRegistry::new();
        reg.gauge("g", "G.", 0.5);
        assert!(reg.render().contains("g 0.5\n"));
    }

    #[test]
    fn histograms_render_buckets_sum_count() {
        let mut reg = MetricsRegistry::new();
        reg.histogram("h_us", "H.", &[10, 100], &[1, 3, 4], 321, 4);
        let text = reg.render();
        assert!(text.contains("# TYPE h_us histogram\n"));
        assert!(text.contains("h_us_bucket{le=\"10\"} 1\n"));
        assert!(text.contains("h_us_bucket{le=\"100\"} 3\n"));
        assert!(text.contains("h_us_bucket{le=\"+Inf\"} 4\n"));
        assert!(text.contains("h_us_sum 321\n"));
        assert!(text.contains("h_us_count 4\n"));
        assert_eq!(text.matches("# HELP h_us ").count(), 1);
        lint_exposition(&text).unwrap();
    }

    #[test]
    fn labelled_histograms_share_one_family() {
        let mut reg = MetricsRegistry::new();
        reg.histogram_with("h", "H.", &[("phase", "fold")], &[10], &[2, 2], 9, 2);
        reg.histogram_with("h", "H.", &[("phase", "plan")], &[10], &[1, 1], 3, 1);
        let text = reg.render();
        assert_eq!(text.matches("# TYPE h histogram").count(), 1);
        assert!(text.contains("h_bucket{phase=\"fold\",le=\"10\"} 2\n"));
        assert!(text.contains("h_bucket{phase=\"plan\",le=\"10\"} 1\n"));
        assert!(text.contains("h_count{phase=\"plan\"} 1\n"));
        lint_exposition(&text).unwrap();
    }

    #[test]
    fn federation_labels_merges_and_reports_missing() {
        let render = |ups: f64, hist: bool| {
            let mut reg = MetricsRegistry::new();
            reg.gauge("moara_up", "Up.", ups);
            reg.counter("moara_messages_sent_total", "Sent.", 5);
            if hist {
                reg.histogram("h_us", "H.", &[10, 100], &[1, 3, 4], 321, 4);
            }
            reg.render()
        };
        let parts = vec![
            ("n0".to_owned(), Some(render(1.0, true))),
            ("n1".to_owned(), Some(render(1.0, false))),
            ("n2".to_owned(), None),
        ];
        let text = federate_expositions(&parts);
        lint_exposition(&text).unwrap();
        // One header per family, instance-labeled samples from both peers.
        assert_eq!(text.matches("# TYPE moara_up gauge").count(), 1);
        assert!(text.contains("moara_up{instance=\"n0\"} 1\n"));
        assert!(text.contains("moara_up{instance=\"n1\"} 1\n"));
        assert!(text.contains("moara_messages_sent_total{instance=\"n1\"} 5\n"));
        // Histogram series keep their shape under the injected label.
        assert!(text.contains("h_us_bucket{instance=\"n0\",le=\"10\"} 1\n"));
        assert!(text.contains("h_us_bucket{instance=\"n0\",le=\"+Inf\"} 4\n"));
        assert!(text.contains("h_us_count{instance=\"n0\"} 4\n"));
        // The dead peer is a series, not an absence.
        assert!(text.contains("moara_federation_missing{instance=\"n2\"} 1\n"));
    }

    #[test]
    fn federation_drops_families_with_conflicting_types() {
        let a = "# HELP x X.\n# TYPE x counter\nx 1\n".to_owned();
        let b = "# HELP x X.\n# TYPE x gauge\nx 2\n".to_owned();
        let text = federate_expositions(&[("n0".to_owned(), Some(a)), ("n1".to_owned(), Some(b))]);
        lint_exposition(&text).unwrap();
        assert!(text.contains("x{instance=\"n0\"} 1\n"));
        assert!(!text.contains("instance=\"n1\""));
    }

    #[test]
    fn federation_escapes_instance_labels_and_skips_garbage() {
        let part = "# TYPE g gauge\ng 1\nthis is not a sample\n".to_owned();
        let text = federate_expositions(&[("n\"0".to_owned(), Some(part))]);
        lint_exposition(&text).unwrap();
        assert!(text.contains("g{instance=\"n\\\"0\"} 1\n"));
        assert!(!text.contains("not a sample"));
    }

    #[test]
    fn lint_accepts_mixed_scrape_and_rejects_violations() {
        let mut reg = MetricsRegistry::new();
        reg.counter("c_total", "C.", 1);
        reg.gauge_with("g", "G.", &[("q", "a\"b\\c\nd")], 1.5);
        reg.histogram("h", "H.", &[5], &[0, 2], 11, 2);
        lint_exposition(&reg.render()).unwrap();

        // Duplicate TYPE.
        let bad = "# TYPE x counter\n# TYPE x counter\nx 1\n";
        assert!(lint_exposition(bad).unwrap_err().contains("duplicate TYPE"));
        // Sample before its family header.
        let bad = "x 1\n# TYPE x counter\n";
        assert!(lint_exposition(bad).unwrap_err().contains("undeclared"));
        // Non-cumulative buckets.
        let bad = "# HELP h H.\n# TYPE h histogram\nh_bucket{le=\"1\"} 5\n\
                   h_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n";
        assert!(lint_exposition(bad).unwrap_err().contains("not cumulative"));
        // +Inf bucket disagreeing with _count.
        let bad = "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 4\n";
        assert!(lint_exposition(bad).unwrap_err().contains("!= count"));
        // Unparseable garbage.
        assert!(lint_exposition("1bad{ 3\n").is_err());
    }
}
