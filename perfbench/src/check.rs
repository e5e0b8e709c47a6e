//! Correctness checks: no acknowledged write is lost, and the per-call
//! spans of every committed transaction add up to its response time.

use crate::gen::{decode_value, Outcome, Span, TxnRec, Written};
use crate::spec::row_key;
use std::collections::BTreeMap;

/// What the history says about one transaction's writes.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum WriteFate {
    /// Commit acknowledged at this commit timestamp.
    Acked(u64),
    /// Commit sent, outcome never learned (a crashed client's in-flight
    /// commit): the write may or may not exist.
    Unknown,
    /// Refused, or never sent: the write must not exist.
    Absent,
}

/// The fate of a transaction's writes, from its record.
fn fate(t: &TxnRec) -> WriteFate {
    match t.outcome {
        Outcome::Committed(ts) => WriteFate::Acked(ts.0),
        Outcome::Pending if t.commit_sent => WriteFate::Unknown,
        _ => WriteFate::Absent,
    }
}

/// Per row, every transaction that put it and that write's fate.
pub type History = BTreeMap<u64, Vec<(u64, WriteFate)>>;

/// Builds the write history of `txns`.
pub fn history(txns: &[TxnRec]) -> History {
    let mut h = History::new();
    for t in txns {
        let f = fate(t);
        for &row in &t.writes {
            let writers = h.entry(row).or_default();
            if writers.last().map(|w| w.0) != Some(t.id) {
                writers.push((t.id, f));
            }
        }
    }
    h
}

/// One row whose final value the history cannot explain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// The row key.
    pub key: String,
    /// The newest acknowledged writer, if the row has one.
    pub expected_txn: Option<u64>,
    /// What the row holds instead.
    pub found: String,
}

impl Violation {
    /// Whether an acknowledged write is missing (rather than, say, an
    /// aborted write showing).
    pub fn is_acked_lost(&self) -> bool {
        self.expected_txn.is_some()
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.expected_txn {
            Some(t) => write!(
                f,
                "{}: acknowledged write of txn {t} lost, found {}",
                self.key, self.found
            ),
            None => write!(
                f,
                "{}: no acknowledged write, found {}",
                self.key, self.found
            ),
        }
    }
}

/// Checks every written row's final value (`None` = the row read as
/// missing) against its history: it must hold its newest acknowledged
/// write, or a write whose outcome is unknown (which may be newer), or —
/// with no acknowledged write — the initial value.
pub fn lost_writes(history: &History, finals: &BTreeMap<u64, Option<Vec<u8>>>) -> Vec<Violation> {
    let mut out = Vec::new();
    for (&row, writers) in history {
        let newest = writers
            .iter()
            .filter_map(|&(id, f)| match f {
                WriteFate::Acked(ts) => Some((ts, id)),
                _ => None,
            })
            .max()
            .map(|(_, id)| id);
        let found = finals.get(&row).cloned().flatten();
        let written = found.as_deref().map(decode_value);
        let ok = match written {
            Some(Written::Initial) => newest.is_none(),
            Some(Written::By { txn, row: r }) => {
                r == row && (newest == Some(txn) || writers.contains(&(txn, WriteFate::Unknown)))
            }
            Some(Written::Garbage) | None => false,
        };
        if !ok {
            let found = match written {
                None => "nothing".to_owned(),
                Some(Written::Initial) => "the initial value".to_owned(),
                Some(Written::By { txn, row: r }) => format!("txn {txn}'s write for row {r}"),
                Some(Written::Garbage) => "unreadable bytes".to_owned(),
            };
            out.push(Violation {
                key: row_key(row),
                expected_txn: newest,
                found,
            });
        }
    }
    out
}

/// Committed transactions whose spans do not add up, in simulated
/// nanoseconds, to their response time (due time to commit ack):
/// `(txn, response, sum of spans)`. Only transactions in `committed` are
/// checked.
pub fn identity_violations(committed: &[&TxnRec], spans: &[Span]) -> Vec<(u64, u64, u64)> {
    let mut sums: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        *sums.entry(s.txn).or_default() += s.end - s.start;
    }
    committed
        .iter()
        .filter_map(|t| {
            let response = t.end - t.due;
            let sum = sums.get(&t.id).copied().unwrap_or(0);
            (sum != response).then_some((t.id, response, sum))
        })
        .collect()
}
