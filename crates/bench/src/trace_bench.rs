//! Trace capture harness: run a small hint-driven workload with
//! `hat-trace` recording on, and export the timeline + latency
//! histograms. Backs `repro trace` / `repro stats --json` and the
//! trace-schema integration test.

use std::sync::Arc;

use hat_rdma_sim::{Fabric, SimConfig};
use hatrpc_core::engine::{HatClient, HatServer, ServerPolicy};
use hatrpc_core::service::ServiceSchema;
use serde_json::{Map, Value};

/// Two-function micro service: a plain latency-hinted echo (eager
/// protocol, one span per call) and a `queue_depth = 8` pipelined
/// function (one flush per window, spans interleaved in flight).
const MICRO_IDL: &str = r#"
    service Micro {
        binary echo(1: binary p) [ hint: perf_goal = latency, payload_size = 512; ]
        binary piped(1: binary p) [ hint: perf_goal = latency, payload_size = 512, queue_depth = 8; ]
    }
"#;

/// A fresh fast-test fabric serving the micro service (echo handlers)
/// on its `server` node.
pub(crate) fn serve_micro() -> (Fabric, ServiceSchema, HatServer) {
    let fabric = Fabric::new(SimConfig::fast_test());
    let snode = fabric.add_node("server");
    let schema = ServiceSchema::parse(MICRO_IDL, "Micro").expect("micro IDL parses");
    let server = HatServer::serve(
        &fabric,
        &snode,
        "micro",
        schema.clone(),
        ServerPolicy::Threaded,
        Arc::new(|| Box::new(|req: &[u8]| req.to_vec())),
    );
    (fabric, schema, server)
}

/// Result of a traced micro run.
pub struct MicroTrace {
    /// Chrome trace-event JSON (load in `ui.perfetto.dev`).
    pub json: String,
    /// Events captured in the ring.
    pub events: usize,
    /// Per protocol × fn_scope × size-class latency digests.
    pub latency: Vec<hat_trace::hist::LatencyRow>,
    /// The fabric the workload ran on, for counter inspection.
    pub fabric: Fabric,
}

/// Run the micro workload under tracing and export the timeline.
///
/// Captures 4 sequential `echo` calls plus one depth-8 pipelined
/// window of 16 `piped` calls, then disables tracing before export so
/// the exporter's own work never lands in the ring. The trace global
/// state is reset first: concurrent captures in one process would
/// interleave, so callers (tests, `repro`) run this alone.
pub fn capture_micro_trace() -> MicroTrace {
    hat_trace::reset();
    hat_trace::set_enabled(true);
    let (fabric, schema, server) = serve_micro();
    let cnode = fabric.add_node("client");
    let mut client = HatClient::new(&fabric, &cnode, "micro", &schema);
    for i in 0..4u8 {
        let resp = client.call("echo", &vec![i; 256]).expect("echo call");
        assert_eq!(resp.len(), 256);
    }
    let requests: Vec<Vec<u8>> = (0..16u8).map(|i| vec![i; 128]).collect();
    let responses = client.call_many("piped", &requests).expect("pipelined window");
    assert_eq!(responses.len(), requests.len());
    drop(client);
    server.shutdown();
    hat_trace::set_enabled(false);
    MicroTrace {
        json: hat_trace::export::chrome_trace_json(),
        events: hat_trace::events_recorded(),
        latency: hat_trace::hist::latency_rows(),
        fabric,
    }
}

/// Latency-histogram rows as a JSON array.
pub fn latency_json(rows: &[hat_trace::hist::LatencyRow]) -> Value {
    let hists: Vec<Value> = rows
        .iter()
        .map(|row| {
            let mut h = Map::new();
            h.insert("protocol".into(), Value::String(row.protocol.to_string()));
            h.insert("fn_scope".into(), Value::String(row.fn_scope.clone()));
            h.insert("size_class".into(), Value::String(row.size_label.to_string()));
            h.insert("count".into(), row.snapshot.count.into());
            h.insert("min_ns".into(), row.snapshot.min.into());
            h.insert("max_ns".into(), row.snapshot.max.into());
            h.insert("mean_ns".into(), row.snapshot.mean.into());
            h.insert("p50_ns".into(), row.snapshot.p50.into());
            h.insert("p90_ns".into(), row.snapshot.p90.into());
            h.insert("p99_ns".into(), row.snapshot.p99.into());
            Value::Object(h)
        })
        .collect();
    Value::Array(hists)
}

/// Every per-node simulator counter plus the latency histograms, as a
/// machine-readable JSON document (`repro stats --json`).
pub fn stats_json(fabric: &Fabric, latency: &[hat_trace::hist::LatencyRow]) -> String {
    let stats = fabric.stats();
    let mut nodes = Map::new();
    for (name, snap) in &stats.nodes {
        let mut counters = Map::new();
        for (key, value) in snap.fields() {
            counters.insert(key.to_string(), value.into());
        }
        nodes.insert(name.clone(), Value::Object(counters));
    }
    let mut root = Map::new();
    root.insert("nodes".into(), Value::Object(nodes));
    root.insert("latency_histograms".into(), latency_json(latency));
    Value::Object(root).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_json_covers_every_counter() {
        let fabric = Fabric::new(SimConfig::fast_test());
        let node = fabric.add_node("n0");
        let json = stats_json(&fabric, &[]);
        let doc: Value = serde_json::from_str(&json).unwrap();
        let counters = doc["nodes"]["n0"].as_object().expect("node entry");
        assert_eq!(counters.len(), node.stats_snapshot().fields().len());
        assert!(counters.contains_key("doorbells"));
        assert!(counters.contains_key("pipeline_doorbells"));
        assert!(doc["latency_histograms"].as_array().unwrap().is_empty());
    }
}
