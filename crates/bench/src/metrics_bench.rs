//! Metrics capture harness: run a live micro workload with the
//! hat-metrics sampler attached through the engine's own lifecycle hook
//! (`HatServer::serve` attaches, `shutdown` stops and returns it), and
//! export the Prometheus exposition, the timeline JSON, and `repro top`
//! frames. Backs `repro metrics` / `repro top` and the metrics-schema
//! integration test.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hat_metrics::{SamplerConfig, SloSpec};
use hatrpc_core::engine::{HatClient, HatServer};

/// Result of a sampled micro run.
pub struct MicroMetrics {
    /// Prometheus text exposition of the final sampler state.
    pub prometheus: String,
    /// `hat-metrics-timeline-v1` JSON (the `METRICS_*.json` shape).
    pub timeline: String,
    /// One rendered `repro top` frame of the final state.
    pub top: String,
    /// Sampling ticks the run took.
    pub ticks: u64,
    /// Ops the load loop completed (for reconciling against the
    /// exposition's `calls_ok` totals).
    pub ops: u64,
}

/// A served micro deployment with a background load loop, sampled by the
/// server-owned sampler.
struct LiveMicro {
    server: HatServer,
    stop: Arc<AtomicBool>,
    worker: std::thread::JoinHandle<u64>,
}

/// Start the deployment. The sampler config is installed globally and
/// the global enable flag raised just for the `serve` call — exactly the
/// operator flow (`configure`, `set_enabled`, start servers).
fn start_live(cfg: SamplerConfig) -> LiveMicro {
    hat_trace::hist::reset();
    hat_metrics::configure(cfg);
    hat_metrics::set_enabled(true);
    // The same two-function micro service the trace capture drives.
    let (fabric, schema, server) = crate::trace_bench::serve_micro();
    // Attached at serve time; lower the flag so nothing else in this
    // process accidentally starts sampling.
    hat_metrics::set_enabled(false);
    assert!(server.metrics().is_some(), "serve() attaches the sampler when enabled");
    let stop = Arc::new(AtomicBool::new(false));
    let worker = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            let cnode = fabric.add_node("client");
            let mut client = HatClient::new(&fabric, &cnode, "micro", &schema);
            let piped: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i; 128]).collect();
            let mut ops = 0u64;
            while !stop.load(Ordering::Relaxed) {
                for i in 0..4u8 {
                    if client.call("echo", &vec![i; 256]).is_ok() {
                        ops += 1;
                    }
                }
                if let Ok(responses) = client.call_many("piped", &piped) {
                    ops += responses.len() as u64;
                }
            }
            ops
        })
    };
    LiveMicro { server, stop, worker }
}

/// The micro capture's sampler configuration: a fast interval so even a
/// short run yields a real timeline, and two SLOs — a loose echo target
/// that should hold, and a deliberately impossible 1 ns target on the
/// pipelined function so the capture always exercises the breach path.
fn micro_config() -> SamplerConfig {
    SamplerConfig {
        interval_ns: 500_000,
        slos: vec![
            SloSpec::p99("echo", 50_000_000),
            SloSpec {
                fn_scope: "piped".into(),
                p99_target_ns: 1,
                window_samples: 8,
                bad_fraction_budget: 0.01,
            },
        ],
        ..Default::default()
    }
}

/// Run the micro workload under sampling and export everything.
///
/// Global state (the histogram registry, the metrics configuration) is
/// reset/installed up front: concurrent captures in one process would
/// interleave, so callers (tests, `repro`) run this alone.
pub fn capture_micro_metrics() -> MicroMetrics {
    let live = start_live(micro_config());
    // Let the load loop span enough intervals for trends and the SLO
    // window; bounded so a loaded host can't hang the capture.
    let deadline = Instant::now() + Duration::from_secs(5);
    while live.server.metrics().map_or(0, |s| s.ticks()) < 24 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    live.stop.store(true, Ordering::Relaxed);
    let ops = live.worker.join().expect("load thread");
    let sampler = live.server.shutdown().expect("sampler rides the server lifecycle");
    MicroMetrics {
        prometheus: sampler.prometheus_text(),
        timeline: sampler.timeline_json(),
        top: sampler.render_top(),
        ticks: sampler.ticks(),
        ops,
    }
}

/// Serve the micro workload and render `frames` dashboard frames,
/// `interval` apart, from the live sampler. Returns the frames.
pub fn top_frames(frames: usize, interval: Duration) -> Vec<String> {
    let live = start_live(micro_config());
    let mut out = Vec::with_capacity(frames);
    for _ in 0..frames {
        std::thread::sleep(interval);
        let frame = live
            .server
            .metrics()
            .map(|s| s.render_top())
            .unwrap_or_else(|| "no sampler attached".to_string());
        out.push(frame);
    }
    live.stop.store(true, Ordering::Relaxed);
    let _ = live.worker.join();
    live.server.shutdown();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_frames_render_live_rows() {
        let frames = top_frames(2, Duration::from_millis(20));
        assert_eq!(frames.len(), 2);
        let last = &frames[1];
        assert!(last.contains("NODE"), "header row present: {last}");
        assert!(last.contains("server"), "server node row present: {last}");
    }
}
