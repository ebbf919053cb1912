//! The measured window: per-function latency samples, op and payload
//! counts, and node-counter deltas, split into equal sub-windows whose
//! medians become the end-to-end metrics.

use std::sync::Arc;

use hat_rdma_sim::{now_ns, Node, NodeStatsSnapshot};

use crate::recorder::{median, Recorder};

/// The functions the workloads call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Func {
    Get,
    Put,
    MultiGet,
    MultiPut,
    Fast,
    Bulk,
}

impl Func {
    pub const ALL: [Func; 6] =
        [Func::Get, Func::Put, Func::MultiGet, Func::MultiPut, Func::Fast, Func::Bulk];

    pub fn name(self) -> &'static str {
        match self {
            Func::Get => "get",
            Func::Put => "put",
            Func::MultiGet => "multiget",
            Func::MultiPut => "multiput",
            Func::Fast => "fast",
            Func::Bulk => "bulk",
        }
    }

    fn idx(self) -> usize {
        self as usize
    }
}

/// Sub-windows per measured phase: the end-to-end metrics are medians
/// over these, so one stall on a shared host moves one window, not the
/// result.
pub const WINDOWS: usize = 5;

#[derive(Default)]
struct Window {
    ops: u64,
    payload_bytes: u64,
    lat: [Recorder; 6],
    dur_ns: u64,
    cpu_ns: u64,
}

/// Accumulates one measured phase. `read` and `write` are the workload's
/// two reported call classes (see `perfbench/README.md`).
pub struct Meter {
    nodes: Vec<Arc<Node>>,
    start_stats: Vec<NodeStatsSnapshot>,
    end_stats: Vec<NodeStatsSnapshot>,
    /// Raw counters at the end of the last pooled phase (for gauges).
    gauges: Vec<NodeStatsSnapshot>,
    window_ns: u64,
    windows: Vec<Window>,
    cur: Window,
    cur_start: u64,
    cur_cpu: u64,
    read: Func,
    write: Func,
}

fn cpu_ns(nodes: &[Arc<Node>]) -> u64 {
    nodes.iter().map(|n| n.stats_snapshot().cpu_busy_ns).sum()
}

impl Meter {
    pub fn start(nodes: Vec<Arc<Node>>, seconds: f64, read: Func, write: Func) -> Meter {
        let start_stats = nodes.iter().map(|n| n.stats_snapshot()).collect();
        let now = now_ns();
        let cur_cpu = cpu_ns(&nodes);
        Meter {
            nodes,
            start_stats,
            end_stats: Vec::new(),
            gauges: Vec::new(),
            window_ns: (seconds * 1e9 / WINDOWS as f64) as u64,
            windows: Vec::with_capacity(WINDOWS),
            cur: Window::default(),
            cur_start: now,
            cur_cpu,
            read,
            write,
        }
    }

    /// Count one completed op of `f` that took `lat_ns` and carried
    /// `payload` user bytes, finishing at `now`. Returns true once the
    /// last window has closed.
    pub fn done(&mut self, f: Func, lat_ns: u64, payload: u64, now: u64) -> bool {
        self.cur.ops += 1;
        self.cur.payload_bytes += payload;
        self.cur.lat[f.idx()].record(lat_ns);
        if now >= self.cur_start + self.window_ns {
            let cpu = cpu_ns(&self.nodes);
            let mut w = std::mem::take(&mut self.cur);
            w.dur_ns = now - self.cur_start;
            w.cpu_ns = cpu - self.cur_cpu;
            self.windows.push(w);
            self.cur_start = now;
            self.cur_cpu = cpu;
            if self.windows.len() == WINDOWS {
                self.end_stats = self.nodes.iter().map(|n| n.stats_snapshot()).collect();
                self.gauges = self.end_stats.clone();
                return true;
            }
        }
        false
    }

    /// Pool `next`'s windows into `into` (which may still be empty).
    /// When both phases ran on the same nodes the counter deltas add up,
    /// skipping whatever ran between them; gauges read from `next`.
    pub fn pool(into: &mut Option<Meter>, next: Meter) {
        let Some(m) = into.as_mut() else {
            *into = Some(next);
            return;
        };
        m.windows.extend(next.windows);
        for (i, end) in m.end_stats.iter_mut().enumerate() {
            let gap = next.start_stats[i] - *end;
            *end = next.end_stats[i] - gap;
        }
        m.gauges = next.gauges;
    }

    pub fn is_done(&self) -> bool {
        self.windows.len() >= WINDOWS
    }

    /// Completed ops over the whole phase.
    pub fn ops(&self) -> u64 {
        self.windows.iter().map(|w| w.ops).sum()
    }

    /// Node-counter change over the phase, in the order the nodes were
    /// given.
    pub fn node_deltas(&self) -> Vec<NodeStatsSnapshot> {
        self.end_stats.iter().zip(&self.start_stats).map(|(a, b)| *a - *b).collect()
    }

    /// Node counters at the end of the phase, raw (for gauges).
    pub fn gauges(&self) -> &[NodeStatsSnapshot] {
        &self.gauges
    }

    /// Median over windows of a per-window figure.
    fn per_window(&self, f: impl Fn(&Window) -> f64) -> f64 {
        median(&self.windows.iter().map(f).collect::<Vec<_>>())
    }

    pub fn ops_per_s(&self) -> f64 {
        self.per_window(|w| w.ops as f64 / (w.dur_ns as f64 / 1e9))
    }

    /// The end-to-end metrics this phase measured (all but `setup_s` and
    /// `pinned_mb_peak`), as `(name, value)`.
    pub fn end_to_end(&self) -> Vec<(&'static str, f64)> {
        let pct = |w: &Window, f: Func, p: f64| {
            let mut r = w.lat[f.idx()].clone();
            r.percentile(p).map_or(f64::NAN, |ns| ns as f64 / 1e3)
        };
        let (read, write) = (self.read, self.write);
        vec![
            ("ops_per_s", self.ops_per_s()),
            ("read_p50_us", self.per_window(|w| pct(w, read, 50.0))),
            ("read_p99_us", self.per_window(|w| pct(w, read, 99.0))),
            ("write_p50_us", self.per_window(|w| pct(w, write, 50.0))),
            (
                "payload_mb_per_s",
                self.per_window(|w| w.payload_bytes as f64 / 1e6 / (w.dur_ns as f64 / 1e9)),
            ),
            ("cpu_us_per_op", self.per_window(|w| w.cpu_ns as f64 / 1e3 / w.ops.max(1) as f64)),
        ]
    }

    /// Per function: samples over the phase and how many lie beyond the
    /// phase-wide p99 (for the run record).
    pub fn sample_counts(&self) -> Vec<(Func, usize, usize)> {
        Func::ALL
            .iter()
            .filter_map(|&f| {
                let mut all = Recorder::default();
                self.windows.iter().for_each(|w| all.merge(&w.lat[f.idx()]));
                (all.count() > 0).then(|| (f, all.count(), all.beyond(99.0)))
            })
            .collect()
    }
}
