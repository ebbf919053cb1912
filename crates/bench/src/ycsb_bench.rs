//! The Figures 15/16 runner: YCSB over HatKV and the four emulated
//! comparators, all sharing the same backend (paper §5.4).

use std::sync::Arc;

use hat_hatkv::comparators::{Comparator, ComparatorServer, RawKvClient};
use hat_hatkv::server::{service_only_schema, HatKvServer};
use hat_hatkv::{hat_k_v_schema, HatKVClient};
use hat_idl::hints::Hint;
use hat_kvdb::{DbConfig, DbStatsSnapshot, ShardedDb, SyncMode};
use hat_protocols::ProtocolConfig;
use hat_rdma_sim::{now_ns, Fabric, PollMode, SimConfig};
use hat_ycsb::measure::RunMeasurement;
use hat_ycsb::{Op, OpGenerator, OpType, WorkloadSpec};
use hatrpc_core::engine::HatClient;
use hatrpc_core::service::ServiceSchema;

/// The six systems of Figures 15/16.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvSystem {
    /// HatRPC with full function-level hints.
    HatRpcFunction,
    /// HatRPC with service-level hints only.
    HatRpcService,
    /// AR-gRPC emulation.
    ArGrpc,
    /// HERD emulation.
    Herd,
    /// Pilaf emulation.
    Pilaf,
    /// RFP emulation.
    Rfp,
}

impl KvSystem {
    /// All systems in reporting order (HatRPC variants first, as the
    /// paper's figures do).
    pub const ALL: [KvSystem; 6] = [
        KvSystem::HatRpcFunction,
        KvSystem::HatRpcService,
        KvSystem::ArGrpc,
        KvSystem::Herd,
        KvSystem::Pilaf,
        KvSystem::Rfp,
    ];

    /// Figure label.
    pub fn label(&self) -> &'static str {
        match self {
            KvSystem::HatRpcFunction => "HatRPC-Function",
            KvSystem::HatRpcService => "HatRPC-Service",
            KvSystem::ArGrpc => "AR-gRPC",
            KvSystem::Herd => "HERD",
            KvSystem::Pilaf => "Pilaf",
            KvSystem::Rfp => "RFP",
        }
    }

    fn comparator(&self) -> Option<Comparator> {
        match self {
            KvSystem::ArGrpc => Some(Comparator::ArGrpc),
            KvSystem::Herd => Some(Comparator::Herd),
            KvSystem::Pilaf => Some(Comparator::Pilaf),
            KvSystem::Rfp => Some(Comparator::Rfp),
            _ => None,
        }
    }
}

/// Which operation mix a YCSB run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvWorkload {
    /// The paper's workload A' (25/25/25/25, Zipfian).
    MixA,
    /// The paper's workload B' (47.5/2.5/47.5/2.5, Zipfian) — read-heavy.
    MixB,
    /// Classic YCSB-A (50% GET / 50% PUT, uniform keys, no batching) —
    /// the write-serialization stress mix for the shard sweep.
    WriteHeavy,
    /// Classic YCSB-C (100% GET, Zipfian) — the pure-read mix where the
    /// one-sided GET bypass shows its full effect.
    ReadOnly,
}

impl KvWorkload {
    /// The workload spec at `records` preloaded records.
    pub fn spec(&self, records: usize) -> WorkloadSpec {
        match self {
            KvWorkload::MixA => WorkloadSpec::workload_a(records),
            KvWorkload::MixB => WorkloadSpec::workload_b(records),
            KvWorkload::WriteHeavy => WorkloadSpec::write_heavy(records),
            KvWorkload::ReadOnly => WorkloadSpec::read_only(records),
        }
    }

    /// Stable label for report rows and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            KvWorkload::MixA => "ycsb-a",
            KvWorkload::MixB => "ycsb-b",
            KvWorkload::WriteHeavy => "write-heavy",
            KvWorkload::ReadOnly => "ycsb-c",
        }
    }
}

/// YCSB run parameters.
#[derive(Debug, Clone)]
pub struct YcsbConfig {
    /// System under test.
    pub system: KvSystem,
    /// Operation mix.
    pub workload: KvWorkload,
    /// Concurrent client threads (paper: 128 over 4 nodes).
    pub clients: usize,
    /// Records preloaded.
    pub records: usize,
    /// Operations per client.
    pub ops_per_client: usize,
    /// Backend shard count, injected into the schema's server-side
    /// `shards` hint (the server builds its partitioning from the hint).
    pub shards: u32,
    /// Override for the modeled per-commit stall (`None` = the sync
    /// mode's default). The shard sweep raises this so writer-lock
    /// serialization, not CPU, dominates — see `sweep::shards`.
    pub commit_cost_ns: Option<u64>,
    /// Keep the IDL's `onesided_get` hints (true) or strip them so every
    /// GET takes the RPC path (false). Only meaningful for
    /// [`KvSystem::HatRpcFunction`]; the Service variant and the
    /// comparators never see function hints anyway.
    pub onesided: bool,
}

/// One measured YCSB point.
#[derive(Debug, Clone)]
pub struct YcsbPoint {
    /// Aggregate throughput, ops/s.
    pub throughput_ops_s: f64,
    /// Mean latency (µs) per op type: [Get, Put, MultiGet, MultiPut].
    pub mean_us: [f64; 4],
    /// The raw measurement.
    pub measurement: RunMeasurement,
    /// Per-shard backend counters at the end of the run, in shard order
    /// (writer-lock wait, txns, bytes — the sharding observability).
    pub shard_stats: Vec<DbStatsSnapshot>,
}

/// Comparator wire configuration: buffers sized for MultiGet responses,
/// busy-polling clients, event-polling servers (the scalable choice at
/// the paper's 128-client scale).
fn comparator_cfg(poll: PollMode) -> ProtocolConfig {
    ProtocolConfig { poll, max_msg: 32 * 1024, ..Default::default() }
}

/// The generated schema with its service-level `concurrency` hint set to
/// the *actual* deployment size. The checked-in IDL says 128 (the
/// paper's deployment); when the harness runs a different client count,
/// an operator would hint the real number — a deliberately wrong
/// concurrency hint mis-selects polling exactly as the paper's model
/// predicts.
fn schema_for(clients: usize, service_only: bool, shards: u32, onesided: bool) -> ServiceSchema {
    let mut schema = if service_only { service_only_schema() } else { hat_k_v_schema() };
    if !onesided {
        // Ablation switch: drop the `onesided_get` hints so the same
        // deployment serves every GET over plain RPC.
        for (_, hints) in &mut schema.functions {
            hints.shared.retain(|h| h.key != "onesided_get");
            hints.client.retain(|h| h.key != "onesided_get");
        }
    }
    set_hint(&mut schema.service_hints.shared, "concurrency", clients);
    // The shard count under test rides the server-side `shards` hint, the
    // same way an operator would retune the checked-in IDL's default.
    set_hint(&mut schema.service_hints.server, "shards", shards);
    schema
}

/// Give every `key` hint in `hints` the value `value`, adding one if
/// there is none.
fn set_hint(hints: &mut Vec<Hint>, key: &str, value: impl ToString) {
    let value = value.to_string();
    let mut found = false;
    for hint in hints.iter_mut().filter(|h| h.key == key) {
        hint.value = value.clone();
        found = true;
    }
    if !found {
        hints.push(Hint { key: key.into(), value });
    }
}

enum AnyKv {
    Hat(Box<HatKVClient>),
    Raw(RawKvClient),
}

impl AnyKv {
    fn run_op(&mut self, op: Op) -> hatrpc_core::Result<()> {
        match (self, op) {
            (AnyKv::Hat(c), Op::Get { key }) => c.get(key).map(drop),
            (AnyKv::Hat(c), Op::Put { key, value }) => c.put(key, value),
            (AnyKv::Hat(c), Op::MultiGet { keys }) => c.multiget(keys).map(drop),
            (AnyKv::Hat(c), Op::MultiPut { keys, values }) => c.multiput(keys, values),
            (AnyKv::Raw(c), Op::Get { key }) => c.get(&key).map(drop),
            (AnyKv::Raw(c), Op::Put { key, value }) => c.put(&key, &value),
            (AnyKv::Raw(c), Op::MultiGet { keys }) => c.multiget(&keys).map(drop),
            (AnyKv::Raw(c), Op::MultiPut { keys, values }) => c.multiput(&keys, &values),
        }
    }
}

/// Run one YCSB point: preload, fan out clients, measure.
pub fn run_ycsb(cfg: &YcsbConfig) -> YcsbPoint {
    run_ycsb_sampled(cfg, None).0
}

/// [`run_ycsb`] with a live hat-metrics sampler attached to the point's
/// fabric for the run. `sample_interval_ns` is the tick interval; the
/// sampler comes back stopped (final tail tick taken) so sweeps can
/// write `METRICS_*.json` timelines next to their `BENCH_*.json`.
pub fn run_ycsb_sampled(
    cfg: &YcsbConfig,
    sample_interval_ns: Option<u64>,
) -> (YcsbPoint, Option<hat_metrics::Sampler>) {
    let fabric = Fabric::new(SimConfig::default());
    let snode = fabric.add_node("kv-server");
    let db_config = DbConfig {
        sync_mode: SyncMode::NoSync,
        max_readers: 512,
        commit_cost_ns: cfg.commit_cost_ns,
    };

    let spec = cfg.workload.spec(cfg.records);

    let (shutdown, db): (Box<dyn FnOnce()>, ShardedDb) = match cfg.system.comparator() {
        None => {
            // The HatRPC deployments build their backend from the
            // negotiated `shards` hint; the bench only writes the schema.
            let service_only = cfg.system == KvSystem::HatRpcService;
            let schema = schema_for(cfg.clients, service_only, cfg.shards, cfg.onesided);
            let server = HatKvServer::start_with_schema(&fabric, &snode, "kv", schema, db_config);
            let db = server.db().clone();
            (Box::new(move || server.shutdown()), db)
        }
        Some(c) => {
            // Comparators have no hint machinery: the backend is built
            // directly at the same shard count for a fair comparison.
            let db = ShardedDb::new(db_config, cfg.shards);
            let server = ComparatorServer::start(
                &fabric,
                &snode,
                "kv",
                c.protocol(),
                comparator_cfg(PollMode::Event),
                db.clone(),
            );
            (Box::new(move || server.shutdown()), db)
        }
    };

    // Load phase (direct, as YCSB's load phase is not what's measured —
    // after server start so the hint-constructed backend is the one
    // preloaded; one batched txn per shard).
    db.multi_put(OpGenerator::load_phase(&spec));

    // Clients over 4 client nodes, as in the paper's YCSB deployment.
    let client_nodes: Vec<_> =
        (0..4.min(cfg.clients.max(1))).map(|i| fabric.add_node(&format!("kv-client{i}"))).collect();

    // Attach the sampler after every node exists, so the baseline tick
    // covers them all from zero. Loose-by-design GET/PUT p99 objectives
    // ride along so sweeps exercise the SLO engine on real traffic.
    let mut sampler = sample_interval_ns.map(|interval_ns| {
        hat_metrics::Sampler::attach(
            &fabric,
            hat_metrics::SamplerConfig {
                interval_ns,
                ring_capacity: 512,
                slos: vec![
                    hat_metrics::SloSpec::p99("get", 20_000_000),
                    hat_metrics::SloSpec::p99("put", 50_000_000),
                ],
            },
        )
    });
    let barrier = Arc::new(std::sync::Barrier::new(cfg.clients + 1));
    let mut handles = Vec::new();
    for c in 0..cfg.clients {
        let fabric = fabric.clone();
        let node = client_nodes[c % client_nodes.len()].clone();
        let barrier = barrier.clone();
        let spec = spec.clone();
        let cfg = cfg.clone();
        handles.push(std::thread::spawn(move || -> RunMeasurement {
            // NOTE: setup panics here would strand the main thread at the
            // barrier; keep every fallible step before the barrier
            // infallible or .expect() only on genuinely impossible paths.
            let mut client = match cfg.system.comparator() {
                None => {
                    let service_only = cfg.system == KvSystem::HatRpcService;
                    let schema = schema_for(cfg.clients, service_only, cfg.shards, cfg.onesided);
                    AnyKv::Hat(Box::new(HatKVClient::new(HatClient::new(
                        &fabric, &node, "kv", &schema,
                    ))))
                }
                Some(comp) => AnyKv::Raw(
                    RawKvClient::connect(
                        &fabric,
                        &node,
                        "kv",
                        comp.protocol(),
                        comparator_cfg(PollMode::Busy),
                    )
                    .expect("comparator connect"),
                ),
            };
            let mut generator = OpGenerator::new(spec, c as u64 + 1);
            // Warm all channels outside the measured window.
            for warm in [
                Op::Get { key: generator.spec().key(0) },
                Op::MultiGet { keys: vec![generator.spec().key(0)] },
            ] {
                let _ = client.run_op(warm);
            }
            barrier.wait();
            let mut m = RunMeasurement::new();
            let t0 = now_ns();
            for _ in 0..cfg.ops_per_client {
                let op = generator.next_op();
                let ty = op.op_type();
                let t = now_ns();
                client.run_op(op).expect("kv op");
                m.record(ty, now_ns() - t);
            }
            m.elapsed_ns = now_ns() - t0;
            m
        }));
    }
    barrier.wait();
    let t0 = now_ns();
    let mut aggregate = RunMeasurement::new();
    for h in handles {
        aggregate.merge(&h.join().expect("client thread"));
    }
    aggregate.elapsed_ns = now_ns() - t0;
    // Stop the sampler first: its tail tick runs while every counter the
    // clients bumped is final and the server is still alive.
    if let Some(s) = sampler.as_mut() {
        s.stop();
    }
    let shard_stats = db.shard_stats();
    shutdown();

    let mean_us = [OpType::Get, OpType::Put, OpType::MultiGet, OpType::MultiPut]
        .map(|t| aggregate.histogram(t).map_or(0.0, |h| h.mean_ns() as f64 / 1000.0));
    let point = YcsbPoint {
        throughput_ops_s: aggregate.throughput_ops_s(),
        mean_us,
        measurement: aggregate,
        shard_stats,
    };
    (point, sampler)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hatkv_function_point_runs() {
        let p = run_ycsb(&YcsbConfig {
            system: KvSystem::HatRpcFunction,
            workload: KvWorkload::MixA,
            clients: 2,
            records: 300,
            ops_per_client: 10,
            shards: 4,
            commit_cost_ns: None,
            onesided: true,
        });
        assert!(p.throughput_ops_s > 0.0);
        assert_eq!(p.measurement.total_ops(), 20);
        assert_eq!(p.shard_stats.len(), 4, "hint-built backend has the requested shards");
        assert!(p.shard_stats.iter().map(|s| s.puts).sum::<u64>() >= 300, "preload reached shards");
    }

    #[test]
    fn comparator_point_runs() {
        let p = run_ycsb(&YcsbConfig {
            system: KvSystem::Rfp,
            workload: KvWorkload::MixB,
            clients: 2,
            records: 300,
            ops_per_client: 10,
            shards: 2,
            commit_cost_ns: None,
            onesided: true,
        });
        assert!(p.throughput_ops_s > 0.0);
        assert_eq!(p.shard_stats.len(), 2);
    }

    #[test]
    fn write_heavy_point_runs_unsharded() {
        let p = run_ycsb(&YcsbConfig {
            system: KvSystem::HatRpcFunction,
            workload: KvWorkload::WriteHeavy,
            clients: 2,
            records: 300,
            ops_per_client: 10,
            shards: 1,
            commit_cost_ns: None,
            onesided: false,
        });
        assert!(p.throughput_ops_s > 0.0);
        assert_eq!(p.shard_stats.len(), 1);
    }

    #[test]
    fn labels_are_stable() {
        let labels: Vec<_> = KvSystem::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(
            labels,
            vec!["HatRPC-Function", "HatRPC-Service", "AR-gRPC", "HERD", "Pilaf", "RFP"]
        );
        assert_eq!(KvWorkload::ReadOnly.label(), "ycsb-c");
    }

    /// The ablation switch: the same deployment runs YCSB-C with and
    /// without the `onesided_get` hints, and the stripped schema really
    /// has none left.
    #[test]
    fn read_only_point_runs_with_and_without_onesided() {
        for onesided in [true, false] {
            let p = run_ycsb(&YcsbConfig {
                system: KvSystem::HatRpcFunction,
                workload: KvWorkload::ReadOnly,
                clients: 2,
                records: 300,
                ops_per_client: 10,
                shards: 4,
                commit_cost_ns: None,
                onesided,
            });
            assert!(p.throughput_ops_s > 0.0, "onesided={onesided}");
            assert_eq!(p.measurement.total_ops(), 20);
        }
        let stripped = schema_for(2, false, 4, false);
        for (f, hints) in &stripped.functions {
            assert!(
                hints.shared.iter().chain(&hints.client).all(|h| h.key != "onesided_get"),
                "{f} still hinted"
            );
        }
    }
}
