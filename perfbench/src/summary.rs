//! What one trial hands to the run that pooled it: every figure the
//! reported metrics are computed from, as text lines.
//!
//! Each trial runs in a process of its own, because a cluster's
//! components hold one another through reference cycles and are never
//! freed: trials sharing a process would add up their memory, and
//! `peak_rss_mb` would measure the number of trials rather than one
//! cluster.

use crate::gen::Layer;
use crate::trial::{Counters, Episode};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One trial's results.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Summary {
    /// Measured window, sim ns.
    pub window_ns: u64,
    /// Transactions due inside the window.
    pub attempted: u64,
    /// Of those, committed.
    pub committed: u64,
    /// Value bytes the committed ones wrote.
    pub user_bytes: u64,
    /// Response times of the committed ones (due time to commit ack),
    /// sim ns, in due order.
    pub response_ns: Vec<u64>,
    /// Window counter differences.
    pub counters: Counters,
    /// Crash-episode timings, if the workload crashes anything.
    pub episode: Option<Episode>,
    /// Sampled handler-queue lengths (traced only).
    pub queue_len: Vec<u64>,
    /// Largest total of outstanding flushes over clients (traced only).
    pub flush_backlog_max: u64,
    /// Largest number of open transactions at the manager (traced only).
    pub tm_active_max: u64,
    /// Largest recovery-log length (traced only).
    pub log_len_max: u64,
    /// Block-cache hit rate of the live servers at the window end.
    pub cache_hit_rate: f64,
    /// Largest per-region store-file count at the window end.
    pub read_amplification: u64,
    /// Handler slots per server times servers.
    pub handler_slots: u64,
    /// Span durations per layer of the transactions due in the window,
    /// sim ns (traced only).
    pub span_ns: BTreeMap<Layer, Vec<u64>>,
    /// Rows read back by the end-of-run check.
    pub rows_checked: u64,
    /// Rows whose acknowledged write was missing.
    pub acked_lost: u64,
    /// Correctness failures of any kind (lost or phantom writes, wrong
    /// reads, write-sets that never flushed, spans that do not add up).
    pub failed: u64,
    /// Descriptions of the first failures.
    pub failures: Vec<String>,
    /// FNV-1a digest of every transaction's due time, outcome, end and
    /// writes: equal digests mean the same simulated history.
    pub digest: u64,
    /// Host ns for `Cluster::build` + `load_rows` with cache warm-up.
    pub setup_host_ns: u64,
    /// Host ns spent simulating the window.
    pub window_host_ns: u64,
    /// Host ns of the speed reference units run during the window.
    pub reference_ns: u64,
    /// How many reference units ran.
    pub reference_units: u64,
    /// The trial process's peak resident set, MiB.
    pub peak_rss_mb: f64,
}

const LAYERS: [Layer; 5] = [
    Layer::Wait,
    Layer::Begin,
    Layer::Get,
    Layer::Scan,
    Layer::Commit,
];

fn join(v: &[u64]) -> String {
    let mut s = String::new();
    for x in v {
        let _ = write!(s, " {x}");
    }
    s
}

impl Summary {
    /// Host ns spent simulating the window, at the nominal host speed:
    /// the measured time scaled by how much slower or faster than nominal
    /// the reference units ran alongside it.
    pub fn window_nominal_ns(&self) -> f64 {
        if self.reference_ns == 0 {
            return self.window_host_ns as f64;
        }
        let nominal = self.reference_units as f64 * crate::timing::REFERENCE_NOMINAL_NS;
        self.window_host_ns as f64 * nominal / self.reference_ns as f64
    }

    /// Renders the summary as `key values...` lines.
    pub fn encode(&self) -> String {
        let c = &self.counters;
        let mut s = String::new();
        let mut line = |k: &str, v: String| {
            let _ = writeln!(s, "{k}{v}");
        };
        line(
            "scalars",
            join(&[
                self.window_ns,
                self.attempted,
                self.committed,
                self.user_bytes,
                self.flush_backlog_max,
                self.tm_active_max,
                self.log_len_max,
                self.read_amplification,
                self.handler_slots,
                self.rows_checked,
                self.acked_lost,
                self.failed,
                self.digest,
                self.setup_host_ns,
                self.window_host_ns,
                self.reference_ns,
                self.reference_units,
            ]),
        );
        line(
            "floats",
            format!(" {:?} {:?}", self.cache_hit_rate, self.peak_rss_mb),
        );
        line("counters", join(&c.to_vec()));
        line("response", join(&self.response_ns));
        line("queue", join(&self.queue_len));
        if let Some(e) = &self.episode {
            let o = |x: Option<u64>| x.map_or(u64::MAX, |v| v);
            line(
                "episode",
                join(&[
                    o(e.detect_ns),
                    o(e.recovery_ns),
                    o(e.restore_ns),
                    o(e.client_recovery_ns),
                ]),
            );
        }
        for (layer, v) in &self.span_ns {
            line(&format!("span {}", *layer as u8), join(v));
        }
        for f in &self.failures {
            line("failure ", f.replace('\n', " "));
        }
        s
    }

    /// Parses [`Summary::encode`]'s output.
    pub fn decode(text: &str) -> Result<Summary, String> {
        let mut out = Summary::default();
        for l in text.lines() {
            let (key, rest) = l.split_once(' ').unwrap_or((l, ""));
            if key == "failure" {
                out.failures.push(rest.to_owned());
                continue;
            }
            let nums = || -> Result<Vec<u64>, String> {
                rest.split_whitespace()
                    .map(|x| x.parse().map_err(|_| format!("bad number {x:?} in {key}")))
                    .collect()
            };
            match key {
                "scalars" => {
                    let v = nums()?;
                    let [window_ns, attempted, committed, user_bytes, fb, ta, ll, ra, hs, rc, al, failed, digest, sh, wh, rn, ru] =
                        v[..]
                    else {
                        return Err(format!("scalars: expected 17 values, got {}", v.len()));
                    };
                    out.window_ns = window_ns;
                    out.attempted = attempted;
                    out.committed = committed;
                    out.user_bytes = user_bytes;
                    out.flush_backlog_max = fb;
                    out.tm_active_max = ta;
                    out.log_len_max = ll;
                    out.read_amplification = ra;
                    out.handler_slots = hs;
                    out.rows_checked = rc;
                    out.acked_lost = al;
                    out.failed = failed;
                    out.digest = digest;
                    out.setup_host_ns = sh;
                    out.window_host_ns = wh;
                    out.reference_ns = rn;
                    out.reference_units = ru;
                }
                "floats" => {
                    let v: Vec<f64> = rest
                        .split_whitespace()
                        .map(|x| x.parse().map_err(|_| format!("bad float {x:?}")))
                        .collect::<Result<_, String>>()?;
                    let [hit, rss] = v[..] else {
                        return Err("floats: expected 2 values".to_owned());
                    };
                    out.cache_hit_rate = hit;
                    out.peak_rss_mb = rss;
                }
                "counters" => out.counters = Counters::from_vec(&nums()?)?,
                "response" => out.response_ns = nums()?,
                "queue" => out.queue_len = nums()?,
                "episode" => {
                    let v = nums()?;
                    let o = |x: u64| (x != u64::MAX).then_some(x);
                    let [d, r, s, c] = v[..] else {
                        return Err("episode: expected 4 values".to_owned());
                    };
                    out.episode = Some(Episode {
                        detect_ns: o(d),
                        recovery_ns: o(r),
                        restore_ns: o(s),
                        client_recovery_ns: o(c),
                    });
                }
                "span" => {
                    let (id, rest) = rest.split_once(' ').unwrap_or((rest, ""));
                    let layer = id
                        .parse::<usize>()
                        .ok()
                        .and_then(|i| LAYERS.get(i).copied())
                        .ok_or(format!("bad layer {id:?}"))?;
                    let v = rest
                        .split_whitespace()
                        .map(|x| x.parse().map_err(|_| format!("bad span {x:?}")))
                        .collect::<Result<Vec<u64>, String>>()?;
                    out.span_ns.insert(layer, v);
                }
                _ => return Err(format!("unknown summary line {key:?}")),
            }
        }
        Ok(out)
    }
}

/// 64-bit FNV-1a over a stream of words.
#[derive(Clone, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mixes `x` in.
    pub fn add(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn get(&self) -> u64 {
        self.0
    }
}
