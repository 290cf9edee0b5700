//! The cluster health table: what `GET /v1/cluster/health` and
//! `moara-cli top` show, read live from each member.
//!
//! A daemon's health is its 1 Hz sample (the metrics catalogue's
//! `sample` rows) plus the alert rules it has firing; the
//! `HealthFetch` leaf read answers with both. `ClusterHealth` is a
//! gather of that read over the peer plane, like `ClusterHistory`, and
//! `cluster_health` folds the answers into one row per member of the
//! serving daemon's member table. Nothing moves until someone asks.
//!
//! This module also holds the two `/proc` samplers behind the
//! `rss_bytes` and `open_fds` rows.

use moara_wire::{wire_struct, Sink, Wire, WireError};

use crate::{CtrlReply, Member};

/// How a member's row came to be, as served in the health table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum HealthStatus {
    /// The member answered this read.
    Ok = 0,
    /// SWIM believes the member alive, but its answer did not come: it
    /// was undeliverable, or not in by the gather deadline (stopped,
    /// partitioned, or crashed and not yet confirmed).
    Stale = 1,
    /// The member's failure was confirmed by SWIM.
    Dead = 2,
}

impl HealthStatus {
    /// Stable lowercase name (JSON, `moara-cli top`).
    pub fn as_str(self) -> &'static str {
        match self {
            HealthStatus::Ok => "ok",
            HealthStatus::Stale => "stale",
            HealthStatus::Dead => "dead",
        }
    }
}

impl Wire for HealthStatus {
    fn encode(&self, out: &mut impl Sink) {
        (*self as u8).encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(match u8::decode(buf)? {
            0 => HealthStatus::Ok,
            1 => HealthStatus::Stale,
            2 => HealthStatus::Dead,
            _ => return Err(WireError::Invalid("health status tag")),
        })
    }
}

/// One row of the cluster health table: a member as the serving
/// daemon's member table has it, and what the member said about itself.
#[derive(Clone, Debug, PartialEq)]
pub struct PeerHealthRow {
    /// The member.
    pub node: u32,
    /// Whether it answered, and if not, whether SWIM holds it dead.
    pub status: HealthStatus,
    /// Its incarnation, from the member table.
    pub incarnation: u64,
    /// Its health sample, in catalogue order, then `alerts_firing`;
    /// `None` unless it answered.
    pub summary: Option<Vec<(String, f64)>>,
}

wire_struct!(PeerHealthRow: node, status, incarnation, summary);

/// One firing alert, as carried on the control plane (`moara-cli top`)
/// and rendered at `GET /v1/alerts`.
#[derive(Clone, Debug, PartialEq)]
pub struct AlertWire {
    /// The rule that fired.
    pub rule: String,
    /// The metric key the rule watches.
    pub metric: String,
    /// The observed value that crossed the threshold.
    pub value: f64,
    /// The rule's threshold.
    pub threshold: f64,
    /// Seconds the alert has been firing.
    pub since_s: u64,
}

wire_struct!(AlertWire: rule, metric, value, threshold, since_s);

/// The `ClusterHealth` fold: the serving daemon `me`'s member table
/// (snapshotted when the gather started) joined with the `HealthFetch`
/// answers it got, by member. A member that answered is `ok`; one that
/// did not is `dead` if SWIM confirmed it, `stale` otherwise. The alerts
/// are the serving daemon's own.
pub(crate) fn cluster_health(
    me: u32,
    members: &[Member],
    answers: Vec<(u32, CtrlReply)>,
) -> CtrlReply {
    let mut alerts = Vec::new();
    let mut summaries = Vec::with_capacity(answers.len());
    for (node, answer) in answers {
        let CtrlReply::Health { mut sample, firing } = answer else {
            continue;
        };
        sample.push(("alerts_firing".to_owned(), firing.len() as f64));
        summaries.push((node, sample));
        if node == me {
            alerts = firing;
        }
    }
    let mut rows: Vec<PeerHealthRow> = members
        .iter()
        .map(|m| {
            let at = summaries.iter().position(|(n, _)| *n == m.node);
            let summary = at.map(|i| summaries.swap_remove(i).1);
            let status = match (&summary, m.alive) {
                (Some(_), _) => HealthStatus::Ok,
                (None, true) => HealthStatus::Stale,
                (None, false) => HealthStatus::Dead,
            };
            PeerHealthRow {
                node: m.node,
                status,
                incarnation: m.incarnation,
                summary,
            }
        })
        .collect();
    rows.sort_by_key(|r| r.node);
    CtrlReply::ClusterHealth {
        node: me,
        rows,
        alerts,
    }
}

/// Resident set size in bytes: `VmRSS` from `/proc/self/status`, which
/// the kernel reports in kB whatever the page size (0 where unreadable
/// — non-Linux hosts, locked-down containers).
pub fn rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    let line = status.lines().find_map(|l| l.strip_prefix("VmRSS:"));
    let kb = line.and_then(|l| l.split_whitespace().next()?.parse::<u64>().ok());
    kb.map_or(0, |kb| kb * 1024)
}

/// Open file descriptors, from `/proc/self/fd` (0 where unreadable).
/// Reading the directory takes a descriptor of its own, which the
/// listing shows; it is not counted.
pub fn open_fds() -> u32 {
    let listed = std::fs::read_dir("/proc/self/fd").map_or(0, |dir| dir.count() as u32);
    listed.saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn member(node: u32, incarnation: u64, alive: bool) -> Member {
        Member {
            node,
            ring_id: u64::from(node) * 7,
            addr: String::new(),
            incarnation,
            alive,
        }
    }

    fn alert(rule: &str) -> AlertWire {
        AlertWire {
            rule: rule.into(),
            metric: rule.into(),
            value: 1.0,
            threshold: 0.0,
            since_s: 3,
        }
    }

    fn answer(watches: f64, firing: Vec<AlertWire>) -> CtrlReply {
        CtrlReply::Health {
            sample: vec![
                ("watches".into(), watches),
                ("cache_hit_pct".into(), f64::NAN),
            ],
            firing,
        }
    }

    #[test]
    fn health_rows_and_alerts_roundtrip() {
        let rows = vec![
            PeerHealthRow {
                node: 0,
                status: HealthStatus::Ok,
                incarnation: 1,
                summary: Some(vec![("watches".into(), 9.0), ("alerts_firing".into(), 1.0)]),
            },
            PeerHealthRow {
                node: 1,
                status: HealthStatus::Stale,
                incarnation: 4,
                summary: None,
            },
            PeerHealthRow {
                node: 2,
                status: HealthStatus::Dead,
                incarnation: 2,
                summary: None,
            },
        ];
        for r in &rows {
            assert_eq!(PeerHealthRow::from_bytes(&r.to_bytes()).unwrap(), *r);
        }
        let a = alert("dead_members");
        assert_eq!(AlertWire::from_bytes(&a.to_bytes()).unwrap(), a);
    }

    /// Serving daemon n1 of four: n0 answered, n2 is alive but silent, n3
    /// is confirmed dead. Rows come in node order with the member table's
    /// incarnations; the alerts are n1's own, not n0's.
    #[test]
    fn the_fold_marks_answered_silent_and_dead_members() {
        let members = [
            member(2, 5, true),
            member(0, 0, true),
            member(1, 3, true),
            member(3, 1, false),
        ];
        let answers = vec![
            (1, answer(2.0, vec![alert("dead_members")])),
            (
                0,
                answer(7.0, vec![alert("watch_leak"), alert("fd_ceiling")]),
            ),
        ];
        let CtrlReply::ClusterHealth { node, rows, alerts } = cluster_health(1, &members, answers)
        else {
            panic!("the fold answers ClusterHealth");
        };
        assert_eq!(node, 1);
        assert_eq!(alerts, vec![alert("dead_members")]);
        let shape: Vec<_> = rows
            .iter()
            .map(|r| (r.node, r.status, r.incarnation))
            .collect();
        assert_eq!(
            shape,
            [
                (0, HealthStatus::Ok, 0),
                (1, HealthStatus::Ok, 3),
                (2, HealthStatus::Stale, 5),
                (3, HealthStatus::Dead, 1),
            ]
        );
        // The self row is this daemon's own answer, `alerts_firing` last.
        let summary = rows[1].summary.as_ref().expect("self answered");
        let keys: Vec<&str> = summary.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["watches", "cache_hit_pct", "alerts_firing"]);
        assert_eq!((summary[0].1, summary[2].1), (2.0, 1.0));
        assert!(summary[1].1.is_nan());
        let theirs = rows[0].summary.as_ref().expect("n0 answered");
        assert_eq!((theirs[0].1, theirs[2].1), (7.0, 2.0));
        assert!(rows[2].summary.is_none() && rows[3].summary.is_none());
    }

    #[test]
    fn proc_samplers_read_this_process() {
        // This test process certainly holds open fds and resident pages.
        assert!(open_fds() > 0);
        assert!(rss_bytes() > 0);
    }

    /// `open_fds` counts what `/proc/self/fd` lists except the listing
    /// directory itself. Other tests open and close descriptors in
    /// parallel, so a reading counts only when the listing is the same
    /// just before and just after it.
    #[test]
    fn open_fds_does_not_count_its_own_listing() {
        let listing = std::path::PathBuf::from(format!("/proc/{}/fd", std::process::id()));
        let held = || {
            let dir = std::fs::read_dir("/proc/self/fd").expect("procfs is mounted");
            let links = dir.filter_map(|e| std::fs::read_link(e.ok()?.path()).ok());
            links.filter(|link| *link != listing).count() as u32
        };
        let matched = (0..1_000).any(|_| {
            let before = held();
            let counted = open_fds();
            before == held() && counted == before
        });
        assert!(matched, "open_fds() never matched the listing");
    }
}
