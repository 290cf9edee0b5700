//! `benchmark compare A.json B.json`: per workload × end-to-end metric,
//! the relative difference of B's median against A's, judged against the
//! bound the catalogue fixes. One row each; `unresolved` when either
//! set's own spread is wider than the bound; non-zero exit when a row is
//! outside its bound.
//!
//! Both files are result files as the benchmark writes them (a JSON
//! array of runs, several runs per workload welcome).

use std::collections::BTreeMap;

use crate::json::Json;
use crate::metrics::{median_f64, quartiles, Better, END_TO_END, FAILED_SHARE, WORKLOADS};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Within,
    Better,
    Worse,
    Unresolved,
}

/// `(workload, metric)` → every value the set's runs reported.
type Samples = BTreeMap<(String, String), Vec<f64>>;

fn samples(doc: &Json) -> Samples {
    let mut out = Samples::new();
    for run in doc.as_arr() {
        let Some(workload) = run.get("workload").and_then(Json::as_str) else {
            continue;
        };
        let Some(Json::Obj(metrics)) = run.get("metrics") else {
            continue;
        };
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                out.entry((workload.to_owned(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    out
}

/// Interquartile range over the median; with fewer than four runs, the
/// full range over the median; a single run has no spread to show.
fn spread(xs: &[f64]) -> f64 {
    let mut xs = xs.to_vec();
    let med = median_f64(&mut xs).abs();
    if med == 0.0 || xs.len() < 2 {
        return 0.0;
    }
    let (lo, hi) = if xs.len() >= 4 {
        quartiles(&mut xs).expect("four values have quartiles")
    } else {
        (xs[0], xs[xs.len() - 1])
    };
    (hi - lo) / med
}

/// How much worse (positive) or better (negative) `b` is than `a`, as a
/// share of `a`, in the metric's own direction.
fn worsening(a: f64, b: f64, better: Better) -> f64 {
    if a == 0.0 {
        return if b == 0.0 { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> (f64, Verdict) {
    let (ma, mb) = (median_f64(&mut a.to_vec()), median_f64(&mut b.to_vec()));
    let w = worsening(ma, mb, better);
    let verdict = if spread(a) > bound || spread(b) > bound {
        Verdict::Unresolved
    } else if w > bound {
        Verdict::Worse
    } else if w < -bound {
        Verdict::Better
    } else {
        Verdict::Within
    };
    (w, verdict)
}

/// Prints the table; returns true when every row is within its bound (or
/// better, or unresolved — an unresolved row is reported, not failed).
pub fn run(a: &Json, b: &Json) -> bool {
    let (sa, sb) = (samples(a), samples(b));
    let mut ok = true;
    println!(
        "{:<11} {:<22} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "worse by", "bound"
    );
    for workload in WORKLOADS {
        for m in END_TO_END
            .iter()
            .filter(|m| m.workloads.contains(&workload))
        {
            let key = (workload.to_owned(), m.name.to_owned());
            let (Some(va), Some(vb)) = (sa.get(&key), sb.get(&key)) else {
                continue;
            };
            let (w, verdict) = if m.name == FAILED_SHARE {
                // Baseline 0: any rise is a regression, no bound applies.
                let (ma, mb) = (median_f64(&mut va.clone()), median_f64(&mut vb.clone()));
                (
                    mb - ma,
                    if mb > ma {
                        Verdict::Worse
                    } else {
                        Verdict::Within
                    },
                )
            } else {
                judge(va, vb, m.better, m.bound)
            };
            ok &= verdict != Verdict::Worse;
            println!(
                "{:<11} {:<22} {:>14.6} {:>14.6} {:>+8.2}% {:>6.1}%  {}",
                workload,
                m.name,
                median_f64(&mut va.clone()),
                median_f64(&mut vb.clone()),
                100.0 * w,
                100.0 * m.bound,
                match verdict {
                    Verdict::Within => "within",
                    Verdict::Better => "better",
                    Verdict::Worse => "WORSE",
                    Verdict::Unresolved => "unresolved (spread wider than bound)",
                }
            );
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let steady = [100.0, 101.0, 99.0, 100.5, 100.0];
        // Lower is better: +20 % is worse, −20 % better, +5 % within 10 %.
        assert_eq!(
            judge(&steady, &[120.0; 5], Better::Lower, 0.1).1,
            Verdict::Worse
        );
        assert_eq!(
            judge(&steady, &[80.0; 5], Better::Lower, 0.1).1,
            Verdict::Better
        );
        assert_eq!(
            judge(&steady, &[105.0; 5], Better::Lower, 0.1).1,
            Verdict::Within
        );
        // Higher is better flips the sign.
        let (w, v) = judge(&steady, &[80.0; 5], Better::Higher, 0.1);
        assert_eq!(v, Verdict::Worse);
        assert!((w - 0.2).abs() < 1e-9);
        // A set noisier than the bound cannot resolve a difference.
        let noisy = [80.0, 120.0, 100.0, 90.0, 115.0];
        assert_eq!(
            judge(&noisy, &[120.0; 5], Better::Lower, 0.1).1,
            Verdict::Unresolved
        );
        // Exact metrics: bit-identical is within, any change beyond the bound is not.
        assert_eq!(
            judge(&[896.657], &[896.657], Better::Lower, 0.005),
            (0.0, Verdict::Within)
        );
        assert_eq!(
            judge(&[896.657], &[910.0], Better::Lower, 0.005).1,
            Verdict::Worse
        );
    }

    #[test]
    fn result_files_group_values_by_workload_and_metric() {
        let doc = Json::parse(
            r#"[{"workload":"walk","metrics":{"qps":{"value":360,"unit":"1/s"}}},
                {"workload":"walk","metrics":{"qps":{"value":362,"unit":"1/s"}}},
                {"workload":"sim-scale","metrics":{"qps":{"value":400,"unit":"1/s"}}}]"#,
        )
        .unwrap();
        let s = samples(&doc);
        assert_eq!(s[&("walk".to_owned(), "qps".to_owned())], [360.0, 362.0]);
        assert_eq!(s.len(), 2);
        assert!(run(&doc, &doc));
    }
}
