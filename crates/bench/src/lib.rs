//! # hat-bench — the figure-regeneration harness
//!
//! One runner per figure of the paper's evaluation (§5), shared between
//! the `repro` binary (paper-style tables on stdout) and the Criterion
//! benches. Default parameters are scaled for a laptop-class simulator
//! run; `Scale::Full` grows client counts and data sizes toward the
//! paper's (still bounded — a 512-client sweep on one machine is slow,
//! not impossible).
//!
//! | Runner | Paper figure |
//! |---|---|
//! | [`fig04_protocol_latency`] | Fig. 4 — 9 protocols × payload × polling, latency |
//! | [`fig05_protocol_throughput`] | Fig. 5 — protocols × clients, throughput |
//! | [`fig11_atb_latency`] | Fig. 11 — service-level hints, latency |
//! | [`fig12_atb_throughput`] | Fig. 12 — service-level hints, throughput |
//! | [`fig13_mix`]/[`fig14_mix`] | Figs. 13/14 — function-level hints, mixed RPCs |
//! | [`fig15_ycsb`]/[`fig16_ycsb`] | Figs. 15/16 — HatKV vs comparators on YCSB |
//! | [`fig17_tpch`] | Fig. 17 — TPC-H over three transports |
//! | [`micro_section3`] | §3.2 claims — CPU and in/out-bound asymmetry |

pub mod metrics_bench;
pub mod protocol_bench;
pub mod sweep;
pub mod table;
pub mod trace_bench;
pub mod ycsb_bench;

use hat_atb::{LatencyConfig, Mode, ThroughputConfig};
use hat_protocols::ProtocolKind;
use hat_rdma_sim::{Fabric, PollMode, SimConfig};
use hat_tpch::{ClusterConfig, TpchCluster, TransportMode};

pub use metrics_bench::{capture_micro_metrics, top_frames, MicroMetrics};
pub use protocol_bench::{
    raw_latency, raw_latency_in_fabric, raw_throughput, RawLatencyPoint, RawThroughputPoint,
};
pub use table::Table;
pub use trace_bench::{capture_micro_trace, latency_json, stats_json, MicroTrace};
pub use ycsb_bench::{run_ycsb, run_ycsb_sampled, KvSystem, KvWorkload, YcsbConfig, YcsbPoint};

/// Sweep size preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Minutes-scale defaults.
    Quick,
    /// Larger sweeps approaching the paper's axes.
    Full,
}

/// The nine protocols of Figure 3/4 (HERD and the hybrid are §5-only).
pub fn figure4_protocols() -> Vec<ProtocolKind> {
    vec![
        ProtocolKind::EagerSendRecv,
        ProtocolKind::DirectWriteSend,
        ProtocolKind::ChainedWriteSend,
        ProtocolKind::WriteRndv,
        ProtocolKind::ReadRndv,
        ProtocolKind::DirectWriteImm,
        ProtocolKind::Pilaf,
        ProtocolKind::Farm,
        ProtocolKind::Rfp,
    ]
}

/// Fig. 4: protocol latency across payload sizes and polling modes.
pub fn fig04_protocol_latency(scale: Scale) -> Table {
    let (sizes, iters) = match scale {
        Scale::Quick => (vec![16, 512, 4096, 65536], 20),
        Scale::Full => (vec![4, 64, 512, 4096, 32768, 131072, 524288], 50),
    };
    let mut table = Table::new(
        "Figure 4 — RPC-like latency of RDMA protocols (us)",
        &["protocol", "polling", "size(B)", "mean(us)", "p99(us)"],
    );
    for kind in figure4_protocols() {
        for poll in [PollMode::Busy, PollMode::Event] {
            for &size in &sizes {
                let p = raw_latency(kind, poll, size, iters);
                table.row(vec![
                    kind.label().to_string(),
                    format!("{poll:?}"),
                    size.to_string(),
                    format!("{:.2}", p.mean_ns as f64 / 1000.0),
                    format!("{:.2}", p.p99_ns as f64 / 1000.0),
                ]);
            }
        }
    }
    table
}

/// Fig. 5: protocol throughput across client counts.
pub fn fig05_protocol_throughput(scale: Scale) -> Table {
    let (clients, iters) = match scale {
        Scale::Quick => (vec![1, 4, 16, 32], 10),
        Scale::Full => (vec![1, 4, 16, 32, 64, 128], 24),
    };
    let sizes = [512usize, 131072];
    // The head-to-head subset the paper's Figure 5 highlights.
    let protocols = [
        ProtocolKind::EagerSendRecv,
        ProtocolKind::DirectWriteSend,
        ProtocolKind::DirectWriteImm,
        ProtocolKind::WriteRndv,
        ProtocolKind::Rfp,
    ];
    let mut table = Table::new(
        "Figure 5 — aggregated throughput of RDMA protocols (Kops/s)",
        &["protocol", "polling", "size(B)", "clients", "kops/s"],
    );
    for kind in protocols {
        for poll in [PollMode::Busy, PollMode::Event] {
            for &size in &sizes {
                for &n in &clients {
                    let p = raw_throughput(kind, poll, size, n, iters);
                    table.row(vec![
                        kind.label().to_string(),
                        format!("{poll:?}"),
                        size.to_string(),
                        n.to_string(),
                        format!("{:.2}", p.ops_per_sec / 1000.0),
                    ]);
                }
            }
        }
    }
    table
}

/// HatRPC and the four baselines Figures 11–14 plot against it.
fn atb_modes() -> Vec<Mode> {
    vec![
        Mode::HatRpc,
        Mode::Fixed(ProtocolKind::HybridEagerRndv, PollMode::Busy),
        Mode::Fixed(ProtocolKind::DirectWriteSend, PollMode::Busy),
        Mode::Fixed(ProtocolKind::DirectWriteImm, PollMode::Busy),
        Mode::Fixed(ProtocolKind::Rfp, PollMode::Busy),
    ]
}

/// Fig. 11: ATB latency — HatRPC (service-level hints) vs baselines.
pub fn fig11_atb_latency(scale: Scale) -> Table {
    let (sizes, iters) = match scale {
        Scale::Quick => (vec![64, 512, 4096, 65536], 20),
        Scale::Full => (vec![4, 64, 512, 4096, 32768, 131072, 524288], 50),
    };
    let mut table = Table::new(
        "Figure 11 — ATB latency with service-level hints (us)",
        &["stack", "size(B)", "mean(us)", "p99(us)"],
    );
    for mode in atb_modes() {
        for &size in &sizes {
            let fabric = Fabric::new(SimConfig::default());
            let r = hat_atb::run_latency(
                &fabric,
                &LatencyConfig { mode, payload: size, warmup: 4, iters },
            )
            .expect("latency run");
            table.row(vec![
                r.label,
                size.to_string(),
                format!("{:.2}", r.mean_ns as f64 / 1000.0),
                format!("{:.2}", r.p99_ns as f64 / 1000.0),
            ]);
        }
    }
    table
}

/// Fig. 12: ATB throughput — HatRPC vs baselines across client counts.
pub fn fig12_atb_throughput(scale: Scale) -> Table {
    let (clients, iters) = match scale {
        Scale::Quick => (vec![1, 8, 24], 10),
        Scale::Full => (vec![1, 4, 16, 32, 64], 24),
    };
    let mut table = Table::new(
        "Figure 12 — ATB throughput with service-level hints (Kops/s)",
        &["stack", "size(B)", "clients", "kops/s"],
    );
    for mode in atb_modes() {
        for size in [512usize, 131072] {
            for &n in &clients {
                let fabric = Fabric::new(SimConfig::default());
                let r = hat_atb::run_throughput(
                    &fabric,
                    &ThroughputConfig {
                        mode,
                        payload: size,
                        clients: n,
                        client_nodes: n.clamp(1, 4),
                        iters,
                        depth: 1,
                    },
                )
                .expect("throughput run");
                table.row(vec![
                    r.label,
                    size.to_string(),
                    n.to_string(),
                    format!("{:.2}", r.ops_per_sec / 1000.0),
                ]);
            }
        }
    }
    table
}

fn fig_mix(scale: Scale, payload: usize, title: &str) -> Table {
    let (clients, iters) = match scale {
        Scale::Quick => (vec![2, 8], 16),
        Scale::Full => (vec![2, 8, 16, 32], 32),
    };
    let mut table =
        Table::new(title, &["stack", "clients", "fast mean(us)", "fast p99(us)", "bulk kops/s"]);
    for mode in atb_modes() {
        for &n in &clients {
            let fabric = Fabric::new(SimConfig::default());
            let r = hat_atb::run_mix(
                &fabric,
                &hat_atb::MixConfig {
                    mode,
                    payload,
                    clients: n,
                    client_nodes: n.clamp(1, 4),
                    iters,
                    fast_ratio: 0.5,
                },
            )
            .expect("mix run");
            table.row(vec![
                r.label,
                n.to_string(),
                format!("{:.2}", r.fast_mean_ns as f64 / 1000.0),
                format!("{:.2}", r.fast_p99_ns as f64 / 1000.0),
                format!("{:.2}", r.bulk_ops_per_sec / 1000.0),
            ]);
        }
    }
    table
}

/// Fig. 13: mixed-function benchmark at 512 B.
pub fn fig13_mix(scale: Scale) -> Table {
    fig_mix(scale, 512, "Figure 13 — mix benchmark, 512 B payloads (function-level hints)")
}

/// Fig. 14: mixed-function benchmark at 128 KB.
pub fn fig14_mix(scale: Scale) -> Table {
    fig_mix(scale, 131072, "Figure 14 — mix benchmark, 128 KB payloads (function-level hints)")
}

fn fig_ycsb(scale: Scale, workload: KvWorkload, title: &str) -> Table {
    let (clients, records, ops) = match scale {
        Scale::Quick => (8, 2_000, 40),
        Scale::Full => (32, 20_000, 150),
    };
    let mut table =
        Table::new(title, &["system", "kops/s", "Get us", "Put us", "MGet us", "MPut us"]);
    for system in KvSystem::ALL {
        let r = run_ycsb(&YcsbConfig {
            system,
            workload,
            clients,
            records,
            ops_per_client: ops,
            shards: 4,
            commit_cost_ns: None,
            onesided: true,
        });
        table.row(vec![
            system.label().to_string(),
            format!("{:.2}", r.throughput_ops_s / 1000.0),
            format!("{:.1}", r.mean_us[0]),
            format!("{:.1}", r.mean_us[1]),
            format!("{:.1}", r.mean_us[2]),
            format!("{:.1}", r.mean_us[3]),
        ]);
    }
    table
}

/// Fig. 15: YCSB workload A' (25/25/25/25) across the six systems.
pub fn fig15_ycsb(scale: Scale) -> Table {
    fig_ycsb(scale, KvWorkload::MixA, "Figure 15 — HatKV vs comparators, YCSB-A (25/25/25/25)")
}

/// Fig. 16: YCSB workload B' (47.5/2.5/47.5/2.5) across the six systems.
pub fn fig16_ycsb(scale: Scale) -> Table {
    fig_ycsb(
        scale,
        KvWorkload::MixB,
        "Figure 16 — HatKV vs comparators, YCSB-B (47.5/2.5/47.5/2.5)",
    )
}

/// Fig. 17: the 22 TPC-H queries over the three transports.
pub fn fig17_tpch(scale: Scale) -> Table {
    let cfg = match scale {
        Scale::Quick => ClusterConfig { sf: 0.004, workers: 3, seed: 7 },
        Scale::Full => ClusterConfig { sf: 0.02, workers: 6, seed: 7 },
    };
    let mut table = Table::new(
        "Figure 17 — TPC-H query times (ms) by transport",
        &["query", "Thrift/IPoIB", "HatRPC-Service", "HatRPC-Function", "F-speedup"],
    );
    let mut all: Vec<Vec<u64>> = Vec::new();
    for mode in [TransportMode::Ipoib, TransportMode::HatRpcService, TransportMode::HatRpcFunction]
    {
        let fabric = Fabric::new(SimConfig::default());
        let mut cluster = TpchCluster::start(&fabric, &cfg, mode);
        let rows = cluster.run_all().expect("tpch run");
        all.push(rows.iter().map(|(_, _, ns)| *ns).collect());
        cluster.shutdown();
    }
    let mut totals = [0u64; 3];
    for q in 0..22 {
        for (t, col) in totals.iter_mut().zip(&all) {
            *t += col[q];
        }
        table.row(vec![
            format!("Q{}", q + 1),
            format!("{:.2}", all[0][q] as f64 / 1e6),
            format!("{:.2}", all[1][q] as f64 / 1e6),
            format!("{:.2}", all[2][q] as f64 / 1e6),
            format!("{:.2}x", all[0][q] as f64 / all[2][q].max(1) as f64),
        ]);
    }
    table.row(vec![
        "TOTAL".to_string(),
        format!("{:.2}", totals[0] as f64 / 1e6),
        format!("{:.2}", totals[1] as f64 / 1e6),
        format!("{:.2}", totals[2] as f64 / 1e6),
        format!("{:.2}x", totals[0] as f64 / totals[2].max(1) as f64),
    ]);
    table
}

/// §3.2 micro-claims: polling CPU cost and the in-bound/out-bound RDMA
/// asymmetry, read off the simulator's counters.
pub fn micro_section3() -> Table {
    let mut table =
        Table::new("Section 3.2 micro-measurements", &["measurement", "busy", "event", "note"]);
    // CPU burned for a fixed number of echoes, busy vs event polling.
    let cpu_for = |poll: PollMode| {
        let fabric = Fabric::new(SimConfig::default());
        let r = hat_atb::run_latency(
            &fabric,
            &LatencyConfig {
                mode: Mode::Fixed(ProtocolKind::EagerSendRecv, poll),
                payload: 4096,
                warmup: 2,
                iters: 24,
            },
        )
        .expect("latency run");
        let cpu: u64 = fabric.stats().total_cpu_busy_ns();
        (r.mean_ns, cpu)
    };
    let (lat_busy, cpu_busy) = cpu_for(PollMode::Busy);
    let (lat_event, cpu_event) = cpu_for(PollMode::Event);
    table.row(vec![
        "echo latency (us)".to_string(),
        format!("{:.2}", lat_busy as f64 / 1000.0),
        format!("{:.2}", lat_event as f64 / 1000.0),
        "event polling trades latency...".to_string(),
    ]);
    table.row(vec![
        "CPU busy (us total)".to_string(),
        format!("{:.2}", cpu_busy as f64 / 1000.0),
        format!("{:.2}", cpu_event as f64 / 1000.0),
        "...for far less CPU".to_string(),
    ]);

    // In-bound vs out-bound RDMA: server-bypass READ polling puts the
    // work on the initiator.
    let fabric = Fabric::new(SimConfig::default());
    let _ = raw_latency_in_fabric(&fabric, ProtocolKind::Rfp, PollMode::Busy, 512, 16);
    let stats = fabric.stats();
    let (mut inbound, mut outbound) = (0, 0);
    for (name, s) in &stats.nodes {
        if name.contains("server") {
            inbound += s.inbound_rdma;
            outbound += s.outbound_rdma;
        }
    }
    table.row(vec![
        "RFP server in/out-bound RDMA".to_string(),
        inbound.to_string(),
        outbound.to_string(),
        "server serves in-bound ops only".to_string(),
    ]);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_fig04_subset_runs() {
        // One protocol, one point — the full table is exercised by repro.
        let p = raw_latency(ProtocolKind::DirectWriteImm, PollMode::Busy, 512, 8);
        assert!(p.mean_ns > 0);
    }

    #[test]
    fn micro_table_has_rows() {
        let t = micro_section3();
        assert_eq!(t.rows().len(), 3);
    }
}
