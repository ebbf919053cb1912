//! Per-layer metrics of the traced run: span statistics, the node
//! counters that already exist, server dispatch timed without storage,
//! and a standalone protocol echo under each function's selection.

use std::collections::BTreeMap;
use std::sync::Arc;

use hat_protocols::{accept_server, connect_client, ProtocolConfig};
use hat_rdma_sim::{now_ns, Fabric, Node, SimConfig};
use hatrpc_core::Selection;

use crate::meter::{Func, Meter};
use crate::recorder::Recorder;
use crate::trace::{Layer, Name, Tracer};
use crate::Outcome;

/// Median of a recorder in µs (0 when empty).
pub fn p50_us(r: &mut Recorder) -> f64 {
    r.percentile(50.0).map_or(0.0, |ns| ns as f64 / 1e3)
}

/// Registered (pinned) memory peak summed over nodes, MB.
pub fn pinned_mb(nodes: &[Arc<Node>]) -> f64 {
    nodes.iter().map(|n| n.stats_snapshot().registered_bytes_peak).sum::<u64>() as f64 / 1e6
}

/// Requests sent per function, kept for server-side replay.
#[derive(Default)]
pub struct Samples {
    requests: BTreeMap<&'static str, Vec<Vec<u8>>>,
}

/// Requests kept per function.
const KEEP: usize = 1000;

/// What replaying one function's requests through the server's
/// dispatch measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct Dispatch {
    pub p50_us: f64,
    pub request_len: usize,
    pub reply_len: usize,
}

impl Samples {
    pub fn keep(&mut self, f: Func, request: &[u8]) {
        let v = self.requests.entry(f.name()).or_default();
        if v.len() < KEEP {
            v.push(request.to_vec());
        }
    }

    pub fn has(&self, f: Func) -> bool {
        self.requests.contains_key(f.name())
    }

    /// Time `handle` on every kept request, per function.
    pub fn time_handler(
        &self,
        mut handle: impl FnMut(&[u8]) -> Vec<u8>,
    ) -> BTreeMap<&'static str, Dispatch> {
        let mut out = BTreeMap::new();
        for (name, reqs) in &self.requests {
            let mut r = Recorder::default();
            let mut reply_len = 0;
            for req in reqs {
                let t0 = now_ns();
                let reply = handle(req);
                r.record(now_ns() - t0);
                reply_len = reply.len();
                std::hint::black_box(reply);
            }
            let request_len = reqs.last().map_or(0, Vec::len);
            out.insert(*name, Dispatch { p50_us: p50_us(&mut r), request_len, reply_len });
        }
        out
    }
}

/// Median round trip of a bare echo over `sel`'s protocol and polling
/// mode, at the given request and reply sizes, in a fresh fabric.
pub fn rtt_us(sel: Selection, request_len: usize, reply_len: usize) -> Result<f64, String> {
    const WARM: usize = 50;
    const ITERS: usize = 1000;
    let fabric = Fabric::new(SimConfig::default());
    let snode = fabric.add_node("echo-server");
    let cnode = fabric.add_node("echo-client");
    let (cep, sep) = fabric.connect(&cnode, &snode).map_err(|e| e.to_string())?;
    let cfg = ProtocolConfig {
        poll: sel.poll,
        max_msg: (request_len.max(reply_len) + 256).next_power_of_two(),
        ..Default::default()
    };
    let scfg = cfg.clone();
    let kind = sel.protocol;
    // Server-bypass protocols (RFP) leave the last reply in server memory
    // for the client to READ, so the server outlives the client's loop.
    let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
    let server = std::thread::spawn(move || -> Result<(), String> {
        let mut server = accept_server(kind, sep, scfg).map_err(|e| e.to_string())?;
        let reply = vec![0x5A; reply_len];
        for _ in 0..WARM + ITERS {
            if !server.serve_one(&mut |_| reply.clone()).map_err(|e| e.to_string())? {
                break;
            }
        }
        let _ = done_rx.recv();
        Ok(())
    });
    let timed = (|| -> Result<f64, String> {
        let mut client = connect_client(kind, cep, cfg).map_err(|e| e.to_string())?;
        let request = vec![0xA5; request_len];
        let mut r = Recorder::default();
        for i in 0..WARM + ITERS {
            let t0 = now_ns();
            let reply = client.call(&request).map_err(|e| e.to_string())?;
            if i >= WARM {
                r.record(now_ns() - t0);
            }
            if reply.len() != reply_len {
                return Err(format!("echo returned {} bytes, not {reply_len}", reply.len()));
            }
        }
        Ok(p50_us(&mut r))
    })();
    drop(done_tx);
    let served = server.join().map_err(|_| "echo server panicked".to_string())?;
    let rtt = timed.map_err(|e| format!("client: {e}"))?;
    served.map_err(|e| format!("server: {e}"))?;
    Ok(rtt)
}

/// Per-layer metrics from the node counters of the untraced segments.
/// Nodes are `[client, server]`; `bulk_calls` are the calls the reactor
/// served.
pub fn counter_metrics(out: &mut Outcome, meter: &Meter, bulk_calls: u64) {
    let d = meter.node_deltas();
    let end = meter.gauges();
    let (c, s) = (&d[0], &d[1]);
    let ops = meter.ops().max(1) as f64;
    let sum = |f: fn(&hat_rdma_sim::NodeStatsSnapshot) -> u64| d.iter().map(f).sum::<u64>() as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    out.put("core.calls_retried", c.calls_retried as f64);
    out.put("core.calls_failed", (c.calls_failed + c.calls_timed_out) as f64);
    out.put(
        "core.reactor_resumes_per_wakeup",
        ratio(s.reactor_resumes as f64, s.reactor_wakeups as f64),
    );
    out.put("core.reactor_wakeups_per_call", ratio(s.reactor_wakeups as f64, bulk_calls as f64));
    let attempts = (c.onesided_gets + c.onesided_fallbacks) as f64;
    out.put("protocols.onesided_hit_ratio", ratio(c.onesided_gets as f64, attempts));
    out.put("protocols.onesided_conflicts", c.onesided_conflicts as f64);
    out.put(
        "protocols.pipeline_doorbells_per_call",
        ratio(sum(|n| n.pipeline_doorbells), sum(|n| n.pipelined_calls)),
    );
    out.put("protocols.inflight_hwm", end.iter().map(|n| n.inflight_hwm).max().unwrap_or(0) as f64);
    out.put("rdma-sim.wrs_per_op", sum(|n| n.wrs_posted) / ops);
    out.put("rdma-sim.doorbells_per_op", sum(|n| n.doorbells) / ops);
    out.put("rdma-sim.completions_per_op", sum(|n| n.completions) / ops);
    out.put("rdma-sim.bytes_tx_per_op", sum(|n| n.bytes_tx) / ops);
    out.put("rdma-sim.memcpys_per_op", sum(|n| n.memcpys) / ops);
    // Summed over both nodes every outbound op is someone's inbound op;
    // the server's split shows which side a protocol makes work.
    out.put("rdma-sim.outbound_rdma_per_op", s.outbound_rdma as f64 / ops);
    out.put("rdma-sim.inbound_rdma_per_op", s.inbound_rdma as f64 / ops);
    out.put("rdma-sim.rnr_stalls", sum(|n| n.rnr_stalls));
    out.put("rdma-sim.cpu_busy_us_per_op.client", c.cpu_busy_ns as f64 / 1e3 / ops);
    out.put("rdma-sim.cpu_busy_us_per_op.server", s.cpu_busy_ns as f64 / 1e3 / ops);
}

/// Per-layer metrics from the traced segments' spans. `funcs` are the
/// workload's functions with their selections; `dispatch` holds the
/// server-side replay; `kvdb_us` the storage time per function.
pub fn span_metrics(
    out: &mut Outcome,
    tr: &Tracer,
    ops: u64,
    funcs: &[(Func, Selection)],
    dispatch: &BTreeMap<&'static str, Dispatch>,
    kvdb_us: impl Fn(Func) -> f64,
) -> Result<(), String> {
    for &(f, sel) in funcs {
        let n = f.name();
        let p50 = |span: Name| p50_us(&mut tr.durations(span, f));
        out.put(&format!("core.encode_us.{n}"), p50(Name::Encode));
        out.put(&format!("core.decode_us.{n}"), p50(Name::Decode));
        let call = p50(Name::Call);
        out.put(&format!("core.call_us.{n}"), call);
        let Some(disp) = dispatch.get(n) else { continue };
        out.put(&format!("core.handler_us.{n}"), disp.p50_us);
        let rtt = rtt_us(sel, disp.request_len, disp.reply_len)
            .map_err(|e| format!("{n} echo over {}: {e}", sel.protocol))?;
        out.put(&format!("protocols.rtt_us.{n}"), rtt);
        // A pipelined call overlaps the wire and the server with the
        // rest of the window, so its engine time is its submit and its
        // wait, with nothing to subtract.
        let engine_self = if f == Func::Bulk {
            p50(Name::Submit) + p50(Name::Wait)
        } else if call > 0.0 {
            call - rtt - disp.p50_us - kvdb_us(f)
        } else {
            0.0
        };
        out.put(&format!("core.engine_self_us.{n}"), engine_self);
        if matches!(f, Func::Get | Func::MultiGet) {
            out.put(&format!("protocols.onesided_us.{n}"), p50(Name::OneSided));
        }
        if f == Func::Bulk {
            out.put("core.submit_us.bulk", p50(Name::Submit));
            out.put("core.wait_us.bulk", p50(Name::Wait));
        }
    }
    let self_ns = tr.self_ns_by_layer();
    for layer in [Layer::Bench, Layer::Core, Layer::Protocols] {
        let ns = self_ns.get(&layer).copied().unwrap_or(0);
        out.put(&format!("{}.self_us_per_op", layer.label()), ns as f64 / 1e3 / ops.max(1) as f64);
    }
    Ok(())
}
