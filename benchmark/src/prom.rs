//! Reader for the Prometheus text exposition `GET /metrics` answers:
//! counter deltas between two scrapes, and histogram means and
//! quantiles from `_sum` / `_count` / `_bucket` series.

use std::collections::BTreeMap;

/// One scrape: series (`name{labels}` exactly as exposed) → value.
#[derive(Clone, Debug, Default)]
pub struct Scrape {
    series: BTreeMap<String, f64>,
}

impl Scrape {
    /// Parses exposition text; comment and malformed lines are skipped.
    pub fn parse(text: &str) -> Scrape {
        let series = text
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| {
                let (key, value) = l.trim().rsplit_once(' ')?;
                Some((key.to_owned(), value.parse().ok()?))
            })
            .collect();
        Scrape { series }
    }

    /// Sum of every series of family `name` (all label sets; 0 if none).
    pub fn total(&self, name: &str) -> f64 {
        self.family(name).map(|(_, v)| v).sum()
    }

    /// Series of family `name` whose label set contains `label`
    /// (e.g. `phase="plan"`), summed.
    pub fn labelled(&self, name: &str, label: &str) -> f64 {
        self.family(name)
            .filter(|(k, _)| k.contains(label))
            .map(|(_, v)| v)
            .sum()
    }

    fn family<'a>(&'a self, name: &'a str) -> impl Iterator<Item = (&'a str, f64)> + 'a {
        self.series
            .range(name.to_owned()..)
            .take_while(move |(k, _)| k.starts_with(name))
            .filter(move |(k, _)| matches!(k.as_bytes().get(name.len()), None | Some(b'{')))
            .map(|(k, v)| (k.as_str(), *v))
    }

    /// `self − earlier`, series by series (a series absent earlier counts
    /// from 0): what happened between two scrapes.
    pub fn since(&self, earlier: &Scrape) -> Scrape {
        Scrape {
            series: self
                .series
                .iter()
                .map(|(k, v)| (k.clone(), v - earlier.series.get(k).copied().unwrap_or(0.0)))
                .collect(),
        }
    }

    /// Adds another daemon's scrape into this one, series by series.
    pub fn absorb(&mut self, other: &Scrape) {
        for (k, v) in &other.series {
            *self.series.entry(k.clone()).or_insert(0.0) += v;
        }
    }

    /// Mean observation of histogram `name` (restricted to `label` when
    /// non-empty): `_sum / _count`, 0 when nothing was observed.
    pub fn hist_mean(&self, name: &str, label: &str) -> f64 {
        let count = self.labelled(&format!("{name}_count"), label);
        if count <= 0.0 {
            return 0.0;
        }
        self.labelled(&format!("{name}_sum"), label) / count
    }

    /// The `q`-quantile of histogram `name` as the upper bound of the
    /// first bucket whose cumulative count reaches `q × count` — as fine
    /// as the exposition's buckets allow. 0 when nothing was observed;
    /// the largest finite bound when the quantile lies in `+Inf`.
    pub fn hist_quantile(&self, name: &str, label: &str, q: f64) -> f64 {
        let mut buckets: Vec<(f64, f64)> = self
            .family(&format!("{name}_bucket"))
            .filter(|(k, _)| k.contains(label))
            .filter_map(|(k, v)| {
                let le = k.split("le=\"").nth(1)?.split('"').next()?;
                let bound = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse().ok()?
                };
                Some((bound, v))
            })
            .collect();
        // Several label sets (or daemons) may share a bound: pool them.
        buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut pooled: Vec<(f64, f64)> = Vec::new();
        for (bound, v) in buckets {
            match pooled.last_mut() {
                Some(last) if last.0 == bound => last.1 += v,
                _ => pooled.push((bound, v)),
            }
        }
        let Some(&(_, total)) = pooled.last() else {
            return 0.0;
        };
        if total <= 0.0 {
            return 0.0;
        }
        let finite_max = pooled
            .iter()
            .rev()
            .map(|b| b.0)
            .find(|b| b.is_finite())
            .unwrap_or(0.0);
        pooled
            .iter()
            .find(|(_, cum)| *cum >= q * total)
            .map(|(bound, _)| {
                if bound.is_finite() {
                    *bound
                } else {
                    finite_max
                }
            })
            .unwrap_or(finite_max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BEFORE: &str = "\
# HELP moara_transport_messages_sent_total Peer-plane messages sent.
# TYPE moara_transport_messages_sent_total counter
moara_transport_messages_sent_total 6
moara_transport_messages_sent_totally_unrelated 1000
moara_lat_us_bucket{phase=\"plan\",le=\"50\"} 1
moara_lat_us_bucket{phase=\"plan\",le=\"100\"} 1
moara_lat_us_bucket{phase=\"plan\",le=\"+Inf\"} 1
moara_lat_us_sum{phase=\"plan\"} 40
moara_lat_us_count{phase=\"plan\"} 1
moara_lat_us_sum{phase=\"fold\"} 7
moara_lat_us_count{phase=\"fold\"} 1
";
    const AFTER: &str = "\
moara_transport_messages_sent_total 106
moara_lat_us_bucket{phase=\"plan\",le=\"50\"} 3
moara_lat_us_bucket{phase=\"plan\",le=\"100\"} 10
moara_lat_us_bucket{phase=\"plan\",le=\"+Inf\"} 11
moara_lat_us_sum{phase=\"plan\"} 840
moara_lat_us_count{phase=\"plan\"} 11
moara_lat_us_sum{phase=\"fold\"} 7
moara_lat_us_count{phase=\"fold\"} 1
garbage line without a number
";

    #[test]
    fn counter_delta_and_family_matching() {
        let (a, b) = (Scrape::parse(BEFORE), Scrape::parse(AFTER));
        assert_eq!(a.total("moara_transport_messages_sent_total"), 6.0);
        let d = b.since(&a);
        assert_eq!(d.total("moara_transport_messages_sent_total"), 100.0);
        assert_eq!(d.total("moara_absent"), 0.0);
    }

    #[test]
    fn histogram_mean_and_quantile_from_bucket_deltas() {
        let d = Scrape::parse(AFTER).since(&Scrape::parse(BEFORE));
        // 10 new observations summing to 800.
        assert_eq!(d.hist_mean("moara_lat_us", "phase=\"plan\""), 80.0);
        assert_eq!(
            d.hist_mean("moara_lat_us", "phase=\"fold\""),
            0.0,
            "no new samples"
        );
        // Deltas: le50 → 2, le100 → 9, +Inf → 10.
        assert_eq!(
            d.hist_quantile("moara_lat_us", "phase=\"plan\"", 0.5),
            100.0
        );
        assert_eq!(d.hist_quantile("moara_lat_us", "phase=\"plan\"", 0.2), 50.0);
        assert_eq!(
            d.hist_quantile("moara_lat_us", "phase=\"plan\"", 0.99),
            100.0,
            "+Inf clamps"
        );
        assert_eq!(d.hist_quantile("moara_lat_us", "phase=\"none\"", 0.5), 0.0);
        // Two daemons pool bucket by bucket.
        let mut both = d.clone();
        both.absorb(&d);
        assert_eq!(both.total("moara_lat_us_count"), 20.0);
        assert_eq!(
            both.hist_quantile("moara_lat_us", "phase=\"plan\"", 0.5),
            100.0
        );
    }
}
