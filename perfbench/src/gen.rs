//! The load generator: simulated client threads as callback chains on the
//! deterministic kernel, calling `TransactionalClient::begin` and
//! `Transaction::{get,scan,put,commit}` directly so each call into the
//! transactional client can be timed from outside.
//!
//! Every value written names its writer (`txn=<id> row=<row>`), so the
//! end-of-run check can tell whose write a cell holds.

use crate::rng::Rng;
use crate::spec::{row_key, Arrival, Spec, COLUMN, VALUE_LEN};
use bytes::Bytes;
use cumulo_core::{Cluster, Timestamp, Transaction, TransactionalClient, TxnError};
use cumulo_sim::{Sim, SimDuration, SimTime};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

/// The layer boundary a span was recorded at.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// Open loop: from the due time until a thread was free to begin.
    Wait,
    /// `TransactionalClient::begin` to its callback.
    Begin,
    /// `Transaction::get` to its callback.
    Get,
    /// `Transaction::scan` to its callback.
    Scan,
    /// `Transaction::commit` to its callback.
    Commit,
}

impl Layer {
    /// The span name written to the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Wait => "generator.wait",
            Layer::Begin => "txn_client.begin",
            Layer::Get => "txn_client.get",
            Layer::Scan => "txn_client.scan",
            Layer::Commit => "txn_client.commit",
        }
    }
}

/// One timed call, in simulated nanoseconds.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// The generator's id of the transaction the call belongs to.
    pub txn: u64,
    /// The layer boundary.
    pub layer: Layer,
    /// Call instant.
    pub start: u64,
    /// Callback instant.
    pub end: u64,
}

/// How a transaction ended.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Not ended: still running, waiting for a thread, or lost with a
    /// crashed client.
    Pending,
    /// Commit acknowledged at this commit timestamp.
    Committed(Timestamp),
    /// The transaction manager refused the commit (conflict, or it no
    /// longer knew the transaction).
    Aborted,
    /// An operation before the commit failed.
    Errored,
}

/// One transaction the generator attempted.
#[derive(Clone, Debug)]
pub struct TxnRec {
    /// Generator id (also written into every value it puts).
    pub id: u64,
    /// When it fell due (closed loop: when it began), sim ns.
    pub due: u64,
    /// When its outcome arrived, sim ns (meaningless while pending).
    pub end: u64,
    /// How it ended.
    pub outcome: Outcome,
    /// Whether the commit request was sent: a pending transaction that
    /// sent it may or may not have committed.
    pub commit_sent: bool,
    /// Rows it put.
    pub writes: Vec<u64>,
}

/// The value transaction `txn` writes to row `row`: 100 bytes that name
/// both.
pub fn encode_value(txn: u64, row: u64) -> Bytes {
    let mut v = format!("txn={txn:016x} row={row:012}").into_bytes();
    v.resize(VALUE_LEN, b'.');
    Bytes::from(v)
}

/// What a cell's bytes say about who wrote them.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Written {
    /// The bulk-loaded initial value.
    Initial,
    /// Written by generator transaction `txn`, for row `row`.
    By { txn: u64, row: u64 },
    /// Neither: corrupt or foreign bytes.
    Garbage,
}

/// Decodes a value written by [`encode_value`] or the bulk load.
pub fn decode_value(v: &[u8]) -> Written {
    if v.len() != VALUE_LEN {
        return Written::Garbage;
    }
    if v.iter().all(|&b| b == 0x61) {
        return Written::Initial;
    }
    let parse = || -> Option<Written> {
        let s = std::str::from_utf8(&v[..37]).ok()?;
        let txn = u64::from_str_radix(s.strip_prefix("txn=")?.get(..16)?, 16).ok()?;
        let row = s.get(25..)?.parse().ok()?;
        (s.get(20..25)? == " row=").then_some(Written::By { txn, row })
    };
    parse().unwrap_or(Written::Garbage)
}

struct Inner {
    sim: Sim,
    spec: Spec,
    clients: Vec<TransactionalClient>,
    rng: RefCell<Rng>,
    window_end: u64,
    traced: bool,
    txns: RefCell<Vec<TxnRec>>,
    spans: RefCell<Vec<Span>>,
    bad_reads: Cell<u64>,
    backlog: RefCell<VecDeque<usize>>,
    idle: RefCell<VecDeque<usize>>,
}

/// A running generator. Threads start on [`Gen::start`] and stop
/// beginning new transactions at the window end; in open loop, arrivals
/// stop there too but the backlog keeps draining.
pub struct Gen {
    inner: Rc<Inner>,
}

impl Gen {
    /// A generator over `cluster`'s clients, drawing from `seed`; no new
    /// transaction falls due at or after `window_end`.
    pub fn new(
        cluster: &Cluster,
        spec: &Spec,
        seed: u64,
        window_end: SimTime,
        traced: bool,
    ) -> Gen {
        Gen {
            inner: Rc::new(Inner {
                sim: cluster.sim.clone(),
                spec: spec.clone(),
                clients: cluster.clients.clone(),
                rng: RefCell::new(Rng::new(seed)),
                window_end: window_end.nanos(),
                traced,
                txns: RefCell::new(Vec::new()),
                spans: RefCell::new(Vec::new()),
                bad_reads: Cell::new(0),
                backlog: RefCell::new(VecDeque::new()),
                idle: RefCell::new(VecDeque::new()),
            }),
        }
    }

    /// Starts the threads (closed loop, staggered over the first
    /// millisecond) or the arrival clock (open loop).
    pub fn start(&self) {
        let g = &self.inner;
        match g.spec.arrival {
            Arrival::Closed => {
                for t in 0..g.spec.threads {
                    let inner = Rc::clone(g);
                    let stagger = g.rng.borrow_mut().below(1_000_000);
                    g.sim
                        .schedule_in(SimDuration::from_nanos(stagger), move || {
                            next_closed(inner, t)
                        });
                }
            }
            Arrival::Open(rate) => {
                g.idle.borrow_mut().extend(0..g.spec.threads);
                let interval = (1e9 / rate) as u64;
                let first = g.sim.now().nanos();
                arrive(Rc::clone(g), first, 0, interval);
            }
        }
    }

    /// Every transaction attempted so far, in due order.
    pub fn txns(&self) -> std::cell::Ref<'_, Vec<TxnRec>> {
        self.inner.txns.borrow()
    }

    /// Every span recorded so far (empty unless traced).
    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *self.inner.spans.borrow_mut())
    }

    /// Reads whose result could not be right: a missing row, a value for
    /// another row, malformed bytes, or a scan that skipped rows.
    pub fn bad_reads(&self) -> u64 {
        self.inner.bad_reads.get()
    }
}

fn span(g: &Inner, txn: u64, layer: Layer, start: u64) {
    if g.traced {
        g.spans.borrow_mut().push(Span {
            txn,
            layer,
            start,
            end: g.sim.now().nanos(),
        });
    }
}

fn new_txn(g: &Inner, due: u64) -> usize {
    let mut txns = g.txns.borrow_mut();
    let id = txns.len() as u64;
    txns.push(TxnRec {
        id,
        due,
        end: 0,
        outcome: Outcome::Pending,
        commit_sent: false,
        writes: Vec::new(),
    });
    id as usize
}

/// Open loop: transaction `k` falls due at `first + k * interval`.
fn arrive(g: Rc<Inner>, first: u64, k: u64, interval: u64) {
    let due = first + k * interval;
    if due >= g.window_end {
        return;
    }
    let at = SimTime::from_nanos(due);
    let g2 = Rc::clone(&g);
    g.sim.schedule_at(at, move || {
        let idx = new_txn(&g2, due);
        g2.backlog.borrow_mut().push_back(idx);
        dispatch(&g2);
        arrive(g2, first, k + 1, interval);
    });
}

/// Open loop: hands due transactions to free threads, oldest first.
/// Threads whose client process died are retired.
fn dispatch(g: &Rc<Inner>) {
    loop {
        if g.backlog.borrow().is_empty() {
            return;
        }
        let Some(t) = g.idle.borrow_mut().pop_front() else {
            return;
        };
        if !g.clients[t % g.clients.len()].is_alive() {
            continue;
        }
        let idx = g
            .backlog
            .borrow_mut()
            .pop_front()
            .expect("checked non-empty");
        begin(Rc::clone(g), t, idx);
    }
}

/// Closed loop: the thread begins its next transaction now, unless the
/// window has closed or its client process died.
fn next_closed(g: Rc<Inner>, t: usize) {
    let now = g.sim.now().nanos();
    if now >= g.window_end || !g.clients[t % g.clients.len()].is_alive() {
        return;
    }
    let idx = new_txn(&g, now);
    begin(g, t, idx);
}

fn thread_free(g: Rc<Inner>, t: usize) {
    match g.spec.arrival {
        Arrival::Closed => next_closed(g, t),
        Arrival::Open(_) => {
            g.idle.borrow_mut().push_back(t);
            dispatch(&g);
        }
    }
}

fn finish(g: Rc<Inner>, t: usize, idx: usize, outcome: Outcome) {
    {
        let mut txns = g.txns.borrow_mut();
        txns[idx].end = g.sim.now().nanos();
        txns[idx].outcome = outcome;
    }
    thread_free(g, t);
}

fn begin(g: Rc<Inner>, t: usize, idx: usize) {
    let now = g.sim.now().nanos();
    let due = g.txns.borrow()[idx].due;
    if due < now {
        span(&g, idx as u64, Layer::Wait, due);
    }
    let client = g.clients[t % g.clients.len()].clone();
    client.begin(move |r| {
        span(&g, idx as u64, Layer::Begin, now);
        match r {
            Ok(txn) => op(g, t, idx, txn, 0),
            Err(_) => finish(g, t, idx, Outcome::Errored),
        }
    });
}

/// Issues operation `k` of transaction `idx` (or its commit once all
/// operations are done).
fn op(g: Rc<Inner>, t: usize, idx: usize, txn: Transaction, k: usize) {
    let now = g.sim.now().nanos();
    if k == g.spec.ops {
        g.txns.borrow_mut()[idx].commit_sent = true;
        let g2 = Rc::clone(&g);
        txn.commit(move |r| {
            span(&g2, idx as u64, Layer::Commit, now);
            let outcome = match r {
                Ok(ts) => Outcome::Committed(ts),
                Err(TxnError::Conflict) | Err(TxnError::UnknownTxn) => Outcome::Aborted,
                Err(_) => Outcome::Errored,
            };
            finish(g2, t, idx, outcome);
        });
        return;
    }
    let (is_read, is_scan, row) = {
        let mut rng = g.rng.borrow_mut();
        let is_read = rng.unit() < g.spec.read_frac;
        let is_scan = is_read && g.spec.scan_frac > 0.0 && rng.unit() < g.spec.scan_frac;
        let span_rows = if is_scan { g.spec.scan_len } else { 1 };
        (is_read, is_scan, rng.below(g.spec.rows - span_rows + 1))
    };
    if !is_read {
        if txn
            .put(row_key(row), COLUMN, encode_value(idx as u64, row))
            .is_err()
        {
            finish(g, t, idx, Outcome::Errored);
            return;
        }
        g.txns.borrow_mut()[idx].writes.push(row);
        op(g, t, idx, txn, k + 1);
        return;
    }
    let txn2 = txn.clone();
    if is_scan {
        let len = g.spec.scan_len;
        let end = Bytes::from(row_key(row + len));
        txn.scan(row_key(row), Some(end), len as usize, move |r| {
            span(&g, idx as u64, Layer::Scan, now);
            match r {
                Ok(cells) => {
                    let ok = cells.len() as u64 == len
                        && cells.iter().enumerate().all(|(i, (r, _, v))| {
                            let want = row + i as u64;
                            r.as_ref() == row_key(want).as_bytes() && value_fits(v, want)
                        });
                    if !ok {
                        g.bad_reads.set(g.bad_reads.get() + 1);
                    }
                    op(g, t, idx, txn2, k + 1);
                }
                Err(_) => finish(g, t, idx, Outcome::Errored),
            }
        });
    } else {
        txn.get(row_key(row), COLUMN, move |r| {
            span(&g, idx as u64, Layer::Get, now);
            match r {
                Ok(v) => {
                    if !v.is_some_and(|v| value_fits(&v, row)) {
                        g.bad_reads.set(g.bad_reads.get() + 1);
                    }
                    op(g, t, idx, txn2, k + 1);
                }
                Err(_) => finish(g, t, idx, Outcome::Errored),
            }
        });
    }
}

/// Whether `v` is a value row `row` may hold.
fn value_fits(v: &[u8], row: u64) -> bool {
    match decode_value(v) {
        Written::Initial => true,
        Written::By { row: r, .. } => r == row,
        Written::Garbage => false,
    }
}
