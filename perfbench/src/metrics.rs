//! The metric catalogue: every name the benchmark prints, with its unit.
//! `BENCHMARK.json` lists the same names (a test keeps them in step).

use crate::meter::Func;

/// End-to-end metrics, printed by every `--trace 0` run.
pub fn end_to_end() -> Vec<(String, &'static str)> {
    [
        ("setup_s", "s"),
        ("ops_per_s", "1/s"),
        ("read_p50_us", "us"),
        ("read_p99_us", "us"),
        ("write_p50_us", "us"),
        ("payload_mb_per_s", "MB/s"),
        ("cpu_us_per_op", "us"),
        ("pinned_mb_peak", "MB"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect()
}

/// Per-layer metrics, printed by every `--trace 1` run. A function or
/// layer a workload does not reach reads 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    for prefix in [
        "core.encode_us",
        "core.decode_us",
        "core.call_us",
        "core.handler_us",
        "core.engine_self_us",
        "protocols.rtt_us",
    ] {
        for f in Func::ALL {
            out.push((format!("{prefix}.{}", f.name()), "us"));
        }
    }
    let fixed: [(&str, &'static str); 33] = [
        ("core.submit_us.bulk", "us"),
        ("core.wait_us.bulk", "us"),
        ("core.calls_retried", "count"),
        ("core.calls_failed", "count"),
        ("core.reactor_resumes_per_wakeup", "ratio"),
        ("core.reactor_wakeups_per_call", "ratio"),
        ("core.self_us_per_op", "us"),
        ("protocols.onesided_us.get", "us"),
        ("protocols.onesided_us.multiget", "us"),
        ("protocols.onesided_hit_ratio", "ratio"),
        ("protocols.onesided_conflicts", "count"),
        ("protocols.pipeline_doorbells_per_call", "ratio"),
        ("protocols.inflight_hwm", "count"),
        ("protocols.self_us_per_op", "us"),
        ("rdma-sim.wrs_per_op", "count"),
        ("rdma-sim.doorbells_per_op", "count"),
        ("rdma-sim.completions_per_op", "count"),
        ("rdma-sim.bytes_tx_per_op", "B"),
        ("rdma-sim.memcpys_per_op", "count"),
        ("rdma-sim.outbound_rdma_per_op", "count"),
        ("rdma-sim.inbound_rdma_per_op", "count"),
        ("rdma-sim.rnr_stalls", "count"),
        ("rdma-sim.cpu_busy_us_per_op.client", "us"),
        ("rdma-sim.cpu_busy_us_per_op.server", "us"),
        ("kvdb.get_us", "us"),
        ("kvdb.put_us", "us"),
        ("kvdb.multi_get_us", "us"),
        ("kvdb.multi_put_us", "us"),
        ("kvdb.commits_per_write", "ratio"),
        ("kvdb.writer_wait_us", "us"),
        ("kvdb.bytes_per_user_byte", "ratio"),
        ("bench.self_us_per_op", "us"),
        ("bench.traced_slowdown_pct", "%"),
    ];
    out.extend(fixed.iter().map(|(n, u)| (n.to_string(), *u)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(n: &str) -> bool {
        let first = n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric());
        first && n.len() <= 64 && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    fn listed(section: &str) -> Vec<(String, String)> {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        doc[section]
            .as_array()
            .expect("metric list")
            .iter()
            .map(|m| {
                let name = m["name"].as_str().expect("name").to_string();
                (name, m["unit"].as_str().expect("unit").to_string())
            })
            .collect()
    }

    #[test]
    fn printed_metrics_are_the_listed_ones_and_fit_the_grammar() {
        for (section, printed) in [("end_to_end", end_to_end()), ("per_layer", per_layer())] {
            let printed: Vec<(String, String)> =
                printed.into_iter().map(|(n, u)| (n, u.to_string())).collect();
            assert_eq!(printed, listed(section), "{section} differs from BENCHMARK.json");
            let mut names: Vec<_> = printed.iter().map(|(n, _)| n.clone()).collect();
            names.sort();
            names.dedup();
            assert_eq!(names.len(), printed.len(), "{section} names are unique");
            for (n, u) in &printed {
                assert!(valid_name(n), "bad metric name {n}");
                assert!(valid_unit(u), "bad unit {u} of {n}");
            }
        }
    }

    #[test]
    fn workloads_are_the_listed_ones() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed: Vec<&str> = doc["workloads"]
            .as_array()
            .unwrap()
            .iter()
            .map(|w| w["name"].as_str().unwrap())
            .collect();
        let ours: Vec<&str> = crate::Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(listed, ours);
        assert!(ours.iter().all(|n| valid_name(n)));
    }
}
