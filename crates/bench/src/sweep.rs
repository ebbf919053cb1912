//! The sweep benches behind `repro bench <name>`: one table, one record
//! schema, gates as data.
//!
//! Each [`Bench`] runs one sweep and returns a [`Record`]: the constants
//! it ran with (`params`), one object per measured point (`rows`) and the
//! derived figures its gates read (`summary`). [`Record::write`] stamps
//! it with the bench name, the commit, the host's core count and the
//! clock its figures were measured on, into `BENCH_<name>.json`; the four
//! sampled benches also write each row's `hat-metrics-timeline-v1`
//! document to `METRICS_<name>.json`. `repro bench <name> --check` fails
//! when any of the bench's [`Gate`]s in [`BENCHES`] fails.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use hat_atb::{run_throughput, Mode, ThroughputConfig};
use hat_hatkv::{hat_k_v_schema, HatKVClient, HatKvServer};
use hat_kvdb::DbConfig;
use hat_metrics::{Sampler, SamplerConfig};
use hat_protocols::ProtocolKind;
use hat_rdma_sim::{now_ns, Fabric, PollMode, SimConfig};
use hatrpc_core::engine::{AsyncCall, CallPolicy, HatClient, HatServer, ServerPolicy};
use hatrpc_core::service::ServiceSchema;
use serde_json::{Map, Value};

use crate::{run_ycsb_sampled, KvSystem, KvWorkload, Scale, YcsbConfig};

/// Which side of its bound a gated value must lie on.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    /// `value >= bound`.
    AtLeast,
    /// `value <= bound`.
    AtMost,
}

/// One gate: `summary[key]` must lie on the `op` side of `bound`.
#[derive(Debug, Clone, Copy)]
pub struct Gate {
    /// The summary key read.
    pub key: &'static str,
    /// Floor or ceiling.
    pub op: Op,
    /// The bound.
    pub bound: f64,
}

impl Gate {
    /// Why the gate fails on `summary`, if it does (a missing or
    /// non-numeric key fails).
    pub fn check(&self, summary: &Map<String, Value>) -> Result<(), String> {
        let Some(value) = summary.get(self.key).and_then(Value::as_f64) else {
            return Err(format!("{} is missing from the summary", self.key));
        };
        match self.op {
            Op::AtLeast if value >= self.bound => Ok(()),
            Op::AtMost if value <= self.bound => Ok(()),
            Op::AtLeast => Err(format!("{} = {value} is below {}", self.key, self.bound)),
            Op::AtMost => Err(format!("{} = {value} is above {}", self.key, self.bound)),
        }
    }
}

const fn at_least(key: &'static str, bound: f64) -> Gate {
    Gate { key, op: Op::AtLeast, bound }
}

/// One sweep bench.
pub struct Bench {
    /// `repro bench <name>`, recorded in `BENCH_<name>.json`.
    pub name: &'static str,
    /// Runs the sweep; [`Scale`] sets only the pipeline bench's iterations.
    pub run: fn(Scale) -> Record,
    /// What `--check` enforces.
    pub gates: &'static [Gate],
}

impl Bench {
    /// Where the record is written.
    pub fn record_path(&self) -> String {
        format!("BENCH_{}.json", self.name)
    }

    /// Where the per-row timelines are written.
    pub fn metrics_path(&self) -> String {
        format!("METRICS_{}.json", self.name)
    }

    /// Every gate failure of `summary`; empty when the bench passes.
    pub fn failures(&self, summary: &Map<String, Value>) -> Vec<String> {
        self.gates.iter().filter_map(|g| g.check(summary).err()).collect()
    }
}

/// The bench table.
pub static BENCHES: &[Bench] = &[
    Bench {
        name: "pipeline",
        run: pipeline,
        gates: &[at_least("eager_speedup_depth8_over_depth1", 2.0)],
    },
    Bench {
        name: "shards",
        run: shards,
        gates: &[at_least("write_heavy_speedup_shards8_over_shards1", 2.0)],
    },
    Bench {
        name: "onesided",
        run: onesided,
        gates: &[at_least("read_only_speedup_onesided_over_rpc", 1.5)],
    },
    Bench {
        name: "connections",
        run: connections,
        gates: &[
            at_least("top_speedup", 2.0),
            // Every connection of the top point rides the one driver.
            at_least("top_reactor_parked_hwm", CONN_TOP as f64),
            Gate { key: "sampled_calls_ok_max_error", op: Op::AtMost, bound: 0.05 },
        ],
    },
    Bench { name: "txn", run: txn, gates: &[at_least("txn_over_plain_throughput", 0.25)] },
];

/// The bench called `name`.
pub fn bench(name: &str) -> Option<&'static Bench> {
    BENCHES.iter().find(|b| b.name == name)
}

/// What one bench run measured.
#[derive(Debug, Default)]
pub struct Record {
    /// The constants the run used.
    pub params: Map<String, Value>,
    /// One object per measured point.
    pub rows: Vec<Value>,
    /// Derived figures; the gates read these.
    pub summary: Map<String, Value>,
    /// `rows[i]`'s sampled timeline; empty for a bench that samples
    /// nothing.
    pub timelines: Vec<Value>,
}

impl Record {
    /// Add one measured point, echoing it to stderr as it lands.
    fn push(&mut self, row: Value) {
        self.rows.push(progress(row));
    }

    /// The `BENCH_<name>.json` document.
    pub fn to_json(&self, bench: &str) -> Value {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        obj([
            ("bench", bench.into()),
            ("commit", commit().into()),
            ("host", obj([("nproc", nproc.into())])),
            // Every figure is host wall-clock time.
            ("clock", "wall".into()),
            ("params", self.params.clone().into()),
            ("rows", self.rows.clone().into()),
            ("summary", self.summary.clone().into()),
        ])
    }

    /// Write `BENCH_<name>.json` and, for a sampled bench,
    /// `METRICS_<name>.json` (each row plus its `timeline`); returns the
    /// paths written.
    pub fn write(&self, bench: &Bench) -> std::io::Result<Vec<String>> {
        std::fs::write(bench.record_path(), self.to_json(bench.name).to_string() + "\n")?;
        if self.timelines.is_empty() {
            return Ok(vec![bench.record_path()]);
        }
        let points: Vec<Value> = (self.rows.iter().zip(&self.timelines))
            .map(|(row, timeline)| {
                let mut point = row.as_object().cloned().unwrap_or_default();
                point.insert("timeline".into(), timeline.clone());
                point.into()
            })
            .collect();
        let metrics = obj([
            ("bench", bench.name.into()),
            ("sample_interval_ns", self.params["sample_interval_ns"].clone()),
            ("points", points.into()),
        ]);
        std::fs::write(bench.metrics_path(), metrics.to_string() + "\n")?;
        Ok(vec![bench.record_path(), bench.metrics_path()])
    }
}

/// `git rev-parse HEAD`, suffixed `-dirty` when tracked files other than
/// the `BENCH_*.json` records differ from it; `"unknown"` outside a git
/// checkout.
fn commit() -> String {
    let git = |args: &[&str]| {
        let out = std::process::Command::new("git").args(args).output().ok()?;
        out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    let Some(sha) = git(&["rev-parse", "HEAD"]).filter(|sha| !sha.is_empty()) else {
        return "unknown".to_string();
    };
    // The records are what a run writes, not code it ran, so rewriting
    // one does not dirty the next.
    let status =
        ["status", "--porcelain", "--untracked-files=no", "--", ":(top,exclude)BENCH_*.json"];
    match git(&status) {
        Some(changes) if changes.is_empty() => sha,
        _ => format!("{sha}-dirty"),
    }
}

/// `row`, after printing it as one progress line on stderr.
fn progress(row: Value) -> Value {
    eprintln!("  {row}");
    row
}

fn map<const N: usize>(fields: [(&str, Value); N]) -> Map<String, Value> {
    fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
}

fn obj<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Object(map(fields))
}

/// `field` of the first row matching every `(key, value)` pair; 0 when
/// no row matches.
fn lookup(rows: &[Value], want: &[(&str, Value)], field: &str) -> f64 {
    rows.iter()
        .find(|r| want.iter().all(|(k, v)| &r[*k] == v))
        .and_then(|r| r[field].as_f64())
        .unwrap_or(0.0)
}

/// `ops_per_sec` of the `top` row over the `base` row.
fn speedup(rows: &[Value], top: &[(&str, Value)], base: &[(&str, Value)]) -> Value {
    (lookup(rows, top, "ops_per_sec") / lookup(rows, base, "ops_per_sec").max(1.0)).into()
}

/// The sampler's `hat-metrics-timeline-v1` document as a JSON tree.
fn timeline(sampler: &Sampler) -> Value {
    serde_json::from_str(&sampler.timeline_json()).expect("timeline JSON parses")
}

/// hat-metrics sampling interval for the pipeline and YCSB points.
const SAMPLE_INTERVAL_NS: u64 = 2_000_000;

/// Open-loop pipeline depth sweep: a 512 B echo from 8 clients at
/// in-flight windows 1, 2, 4, 8 and 16 over two stacks:
///
/// * `eager` — Eager-SendRecv with event polling, pinned via fixed mode
///   (the gated configuration: depth 8 must reach ≥ 2x the ops/s of
///   depth 1),
/// * `hatrpc` — the hint-driven engine, window negotiated end to end
///   from the schema's `queue_depth` hint.
fn pipeline(scale: Scale) -> Record {
    const PAYLOAD: usize = 512;
    const CLIENTS: usize = 8;
    const CLIENT_NODES: usize = 4;
    const TIME_SCALE: f64 = 48.0;
    // Quick is the CI gate's size; full is the recorded run's.
    let iters = if scale == Scale::Full { 128 } else { 48 };
    let mut rec = Record {
        params: map([
            ("payload", PAYLOAD.into()),
            ("clients", CLIENTS.into()),
            ("client_nodes", CLIENT_NODES.into()),
            ("iters", iters.into()),
            ("time_scale", TIME_SCALE.into()),
            ("sample_interval_ns", SAMPLE_INTERVAL_NS.into()),
        ]),
        ..Record::default()
    };
    // Event polling on the fixed stack: the per-wakeup cost that depth
    // amortizes is exactly what event polling pays per call, so this is
    // where pipelining's win lives (and 8 clients + 8 server threads
    // busy-spinning would oversubscribe small CI runners anyway).
    let stacks = [
        ("eager", Mode::Fixed(ProtocolKind::EagerSendRecv, PollMode::Event)),
        ("hatrpc", Mode::HatRpc),
    ];
    for (stack, mode) in stacks {
        for depth in [1, 2, 4, 8, 16] {
            // A fresh fabric per run: depth sweeps must not share warmed
            // channels or node CPU accounting. The sweep runs with
            // simulated costs scaled UP (48x): on small CI hosts the
            // cluster's 16+ threads time-share a core or two, and at 1x
            // the modelled per-op costs (~7 us round trip) are the same
            // order as the host scheduler's rotation latency, burying the
            // depth-sweep signal in noise. Scaling makes the cost model —
            // whose doorbell and wakeup terms are exactly what pipelining
            // amortizes — dominate the measurement; ratios between depths
            // are what the sweep reports, and the common factor cancels
            // out of them.
            let fabric = Fabric::new(SimConfig { time_scale: TIME_SCALE, ..SimConfig::default() });
            let sampling =
                SamplerConfig { interval_ns: SAMPLE_INTERVAL_NS, ring_capacity: 512, slos: vec![] };
            let mut sampler = Sampler::attach(&fabric, sampling);
            let (payload, clients, client_nodes) = (PAYLOAD, CLIENTS, CLIENT_NODES);
            let cfg = ThroughputConfig { mode, payload, clients, client_nodes, iters, depth };
            let result = run_throughput(&fabric, &cfg).expect("benchmark run");
            sampler.stop();
            rec.push(obj([
                ("stack", stack.into()),
                ("label", result.label.into()),
                ("depth", depth.into()),
                ("ops_per_sec", result.ops_per_sec.into()),
                ("mb_per_sec", result.mb_per_sec.into()),
                ("mean_latency_ns", result.mean_latency_ns.into()),
            ]));
            rec.timelines.push(timeline(&sampler));
        }
    }
    for stack in ["eager", "hatrpc"] {
        let at = |depth: usize| [("stack", Value::from(stack)), ("depth", depth.into())];
        let key = format!("{stack}_speedup_depth8_over_depth1");
        rec.summary.insert(key, speedup(&rec.rows, &at(8), &at(1)));
    }
    rec
}

/// The two YCSB benches' deployment: HatRPC-Function, 8 clients, 1000
/// records.
fn ycsb_record(ops_per_client: usize, commit_cost_ns: Option<u64>) -> (YcsbConfig, Record) {
    let cfg = YcsbConfig {
        system: KvSystem::HatRpcFunction,
        workload: KvWorkload::MixB,
        clients: 8,
        records: 1000,
        ops_per_client,
        shards: 4,
        commit_cost_ns,
        onesided: false,
    };
    let params = map([
        ("clients", cfg.clients.into()),
        ("records", cfg.records.into()),
        ("ops_per_client", ops_per_client.into()),
        ("commit_cost_ns", commit_cost_ns.map_or(Value::Null, Value::from)),
        ("sample_interval_ns", SAMPLE_INTERVAL_NS.into()),
    ]);
    (cfg, Record { params, ..Record::default() })
}

/// Run one sampled YCSB point into `rec`.
fn ycsb_point(rec: &mut Record, cfg: &YcsbConfig) {
    let (point, sampler) = run_ycsb_sampled(cfg, Some(SAMPLE_INTERVAL_NS));
    let path = if cfg.onesided { "onesided" } else { "rpc" };
    let shard_stats: Vec<Value> = (point.shard_stats.iter())
        .map(|s| {
            obj([
                ("txns", s.commits.into()),
                ("writer_wait_ns", s.writer_wait_ns.into()),
                ("bytes_written", s.bytes_written.into()),
            ])
        })
        .collect();
    rec.push(obj([
        ("workload", cfg.workload.label().into()),
        ("shards", cfg.shards.into()),
        ("path", path.into()),
        ("ops_per_sec", point.throughput_ops_s.into()),
        ("get_mean_us", point.mean_us[0].into()),
        ("put_mean_us", point.mean_us[1].into()),
        ("multiget_mean_us", point.mean_us[2].into()),
        ("shard_stats", shard_stats.into()),
    ]));
    rec.timelines.push(timeline(&sampler.expect("sampling requested")));
}

/// Backend shard-count sweep: the server-side `shards` hint at 1, 2, 4
/// and 8, GETs on the RPC path so read load still hits the server, over
/// two mixes:
///
/// * `write-heavy` — classic YCSB-A (50% GET / 50% PUT, uniform keys):
///   every PUT takes a writer lock, so shards=1 serializes all clients on
///   one lock while shards=8 lets their commit stalls overlap. This is
///   the gated mix: shards=8 must reach ≥ 2x the ops/s of shards=1.
/// * `ycsb-b` — the paper's workload B' (47.5/2.5/47.5/2.5): reads never
///   take the writer lock, so sharding should be roughly neutral — the
///   control that shows the speedup is writer-lock relief, not a side
///   effect.
///
/// The modeled per-commit stall is raised to 2 ms so writer-lock
/// serialization, not host CPU, dominates: the sweep runs on one-core CI
/// machines where real parallel speedups are impossible, but overlapping
/// *modeled* commit waits on independent shard locks is not — concurrent
/// stalls on different shards overlap in wall time; one shard serializes
/// them, which is exactly the phenomenon sharding removes.
fn shards(_: Scale) -> Record {
    let (base, mut rec) = ycsb_record(40, Some(2_000_000));
    for (workload, key) in [
        (KvWorkload::WriteHeavy, "write_heavy_speedup_shards8_over_shards1"),
        (KvWorkload::MixB, "read_heavy_speedup_shards8_over_shards1"),
    ] {
        for shards in [1, 2, 4, 8] {
            ycsb_point(&mut rec, &YcsbConfig { workload, shards, ..base.clone() });
        }
        let at =
            |shards: u32| [("workload", Value::from(workload.label())), ("shards", shards.into())];
        rec.summary.insert(key.into(), speedup(&rec.rows, &at(8), &at(1)));
    }
    rec
}

/// One-sided GET bypass vs plain RPC GETs, 4 shards, over two read-side
/// mixes, once with the IDL's `onesided_get` hints stripped (every GET is
/// an RPC the server CPU must serve) and once with them in play (clients
/// resolve GETs with RDMA READs against the server-published index,
/// falling back to RPC on miss or seqlock conflict):
///
/// * `ycsb-c` — classic YCSB-C (100% GET, Zipfian): the pure-read mix
///   where bypassing the server shows its full effect. This is the gated
///   mix: the hinted run must reach ≥ 1.5x the ops/s of the stripped run.
/// * `ycsb-b` — the paper's workload B' (47.5/2.5/47.5/2.5): writes keep
///   the index churning under seqlock, so fallbacks and conflicts are in
///   play.
///
/// The win is mechanical: an RPC GET costs a request the server must
/// dequeue, decode, execute, and answer — its CPU serializes all
/// clients — while a one-sided GET costs two READs the NIC serves with
/// no server code at all, so client READs overlap freely.
fn onesided(_: Scale) -> Record {
    let (base, mut rec) = ycsb_record(60, None);
    for (workload, key) in [
        (KvWorkload::ReadOnly, "read_only_speedup_onesided_over_rpc"),
        (KvWorkload::MixB, "mix_b_speedup_onesided_over_rpc"),
    ] {
        for onesided in [false, true] {
            ycsb_point(&mut rec, &YcsbConfig { workload, onesided, ..base.clone() });
        }
        let at = |path: &str| [("workload", Value::from(workload.label())), ("path", path.into())];
        rec.summary.insert(key.into(), speedup(&rec.rows, &at("onesided"), &at("rpc")));
    }
    rec
}

const CONN_IDL: &str = r#"
    service Conn {
        binary echo(1: binary p) [ hint: perf_goal = res_util, payload_size = 64, concurrency = 256, queue_depth = 2, polling = event; ]
    }
"#;
const CONN_TOP: usize = 10_000;
const CONN_POINTS: [usize; 3] = [100, 1000, CONN_TOP];
const CONN_WINDOW: Duration = Duration::from_millis(3000);
const CONN_PAYLOAD: usize = 64;
/// One load-generator thread: the sweep legitimately runs on single-core
/// CI hosts, where extra busy client threads starve the one driver
/// thread under test and measure the host scheduler instead.
const CONN_CLIENT_THREADS: usize = 1;
const CONN_TIME_SCALE: f64 = 1.0;
/// Interval sized so the measured window spans well under the ring
/// capacity (1024 samples): plenty of timeline resolution, no wrap.
const CONN_SAMPLE_INTERVAL_NS: u64 = CONN_WINDOW.as_nanos() as u64 / 160;

struct ClientSlot {
    client: HatClient,
    call: Option<AsyncCall>,
    ops: u64,
    dead: bool,
}

/// Connection-scaling sweep for the completion-driven reactor server.
///
/// For each point N, N clients each keep one async call in flight on a
/// depth-2 pipelined channel (64 B echo, Eager-SendRecv + event polling
/// from a `perf_goal = res_util` hint) against the same service under
/// two threading policies at the same core budget:
///
/// * `reactor` — [`ServerPolicy::Reactor`]: one driver thread
///   multiplexes every connection's completion state machine,
/// * `pool-1` — [`ServerPolicy::ThreadPool(1)`]: the classic
///   thread-per-connection model squeezed to the same single serving
///   thread (the worker pins one connection until it disconnects — what
///   thread-per-connection degrades to when threads are capped).
///
/// Clients are multiplexed over a few OS threads via
/// `call_async`/`poll_async`, so the sweep itself never spawns N
/// threads; the scaling wall being measured is the *server's*.
///
/// The gates: at the largest point the reactor serves every connection
/// from its one driver (`reactor_parked_hwm == N`) at ≥ 2x the pool's
/// completed ops, and at every point the sampled `calls_ok` deltas summed
/// over the window agree with the bench's own completed-op count within
/// 5%.
fn connections(_: Scale) -> Record {
    let mut rec = Record {
        params: map([
            ("points", CONN_POINTS.to_vec().into()),
            ("window_ms", (CONN_WINDOW.as_millis() as u64).into()),
            ("payload", CONN_PAYLOAD.into()),
            ("client_threads", CONN_CLIENT_THREADS.into()),
            ("time_scale", CONN_TIME_SCALE.into()),
            ("sample_interval_ns", CONN_SAMPLE_INTERVAL_NS.into()),
        ]),
        ..Record::default()
    };
    for conns in CONN_POINTS {
        for (policy, name) in
            [(ServerPolicy::Reactor, "reactor"), (ServerPolicy::ThreadPool(1), "pool-1")]
        {
            conn_point(&mut rec, policy, name, conns);
        }
    }

    let at = |policy: &str, conns: usize| [("policy", policy.into()), ("conns", conns.into())];
    let ops = |policy: &str, conns: usize| lookup(&rec.rows, &at(policy, conns), "ops");
    let speedup_at = |conns: usize| ops("reactor", conns) / ops("pool-1", conns).max(1.0);
    for conns in CONN_POINTS {
        rec.summary.insert(format!("speedup_at_{conns}"), speedup_at(conns).into());
    }
    let top = CONN_TOP;
    let parked = lookup(&rec.rows, &at("reactor", top), "reactor_parked_hwm");
    let max_error = (rec.rows.iter())
        .filter_map(|r| {
            let (sampled, measured) = (r["metrics_window_ops"].as_f64()?, r["ops"].as_f64()?);
            (measured > 0.0).then(|| (sampled - measured).abs() / measured)
        })
        .fold(0.0, f64::max);
    rec.summary.insert("top_point".into(), top.into());
    rec.summary.insert("top_reactor_parked_hwm".into(), (parked as u64).into());
    rec.summary.insert("top_speedup".into(), speedup_at(top).into());
    rec.summary.insert("sampled_calls_ok_max_error".into(), max_error.into());
    rec
}

/// Run one connection-sweep point into `rec`.
fn conn_point(rec: &mut Record, policy: ServerPolicy, policy_name: &str, conns: usize) {
    let fabric = Fabric::new(SimConfig { time_scale: CONN_TIME_SCALE, ..SimConfig::default() });
    let snode = fabric.add_node("server");
    let schema = ServiceSchema::parse(CONN_IDL, "Conn").unwrap();
    let server = HatServer::serve(
        &fabric,
        &snode,
        "conn",
        schema.clone(),
        policy,
        Arc::new(|| Box::new(|req: &[u8]| req.to_vec())),
    );

    // The sampler rides the whole point — client setup included, so the
    // measured window always sits inside the retained ring (sized to
    // cover setup plus window at this interval).
    let mut sampler = Sampler::attach(
        &fabric,
        SamplerConfig {
            interval_ns: CONN_SAMPLE_INTERVAL_NS,
            ring_capacity: 1024,
            slos: vec![hat_metrics::SloSpec::p99("echo", 100_000_000)],
        },
    );

    // One node per client thread (a "client machine" holding a batch of
    // connections), so host threads and simulated CPUs line up. Main
    // joins the barrier too: ops start only after the sampler has had
    // setup time to discover every client node at `calls_ok == 0`.
    let threads = CONN_CLIENT_THREADS.max(1).min(conns.max(1));
    let barrier = Arc::new(Barrier::new(threads + 1));
    let mut handles = Vec::new();
    for t in 0..threads {
        let fabric = fabric.clone();
        let schema = schema.clone();
        let barrier = barrier.clone();
        let share = conns / threads + usize::from(t < conns % threads);
        handles.push(std::thread::spawn(move || {
            let cnode = fabric.add_node(&format!("clients-{t}"));
            // A long deadline: under the capped pool most connections are
            // intentionally starved, and a mid-window timeout would
            // poison their channels and turn starvation into reconnect
            // churn — the sweep measures served ops, not error volume.
            let policy = CallPolicy {
                deadline: Duration::from_secs(600),
                retries: 0,
                backoff: Duration::ZERO,
            };
            let mut slots: Vec<ClientSlot> = (0..share)
                .map(|_| {
                    let mut client =
                        HatClient::new(&fabric, &cnode, "conn", &schema).with_policy(policy);
                    let dead = client.warm_all().is_err();
                    ClientSlot { client, call: None, ops: 0, dead }
                })
                .collect();
            let req = vec![0x5au8; CONN_PAYLOAD];
            barrier.wait();
            let deadline = Instant::now() + CONN_WINDOW;
            while Instant::now() < deadline {
                let mut progressed = false;
                for slot in slots.iter_mut() {
                    if slot.dead {
                        continue;
                    }
                    match &mut slot.call {
                        None => match slot.client.call_async("echo", &req) {
                            Ok(call) => slot.call = Some(call),
                            Err(_) => slot.dead = true,
                        },
                        Some(call) => match slot.client.poll_async(call) {
                            Ok(Some(_)) => {
                                slot.ops += 1;
                                slot.call = None;
                                progressed = true;
                            }
                            Ok(None) => {}
                            Err(_) => {
                                slot.call = None;
                                slot.dead = true;
                            }
                        },
                    }
                }
                if !progressed {
                    std::thread::yield_now();
                }
            }
            let ops: u64 = slots.iter().map(|s| s.ops).sum();
            let served = slots.iter().filter(|s| s.ops > 0).count();
            (ops, served)
        }));
    }
    barrier.wait();
    let mut ops = 0u64;
    let mut clients_served = 0usize;
    for h in handles {
        let (o, s) = h.join().unwrap();
        ops += o;
        clients_served += s;
    }
    // Tail tick before teardown: the newest samples hold the final
    // counter values every client thread left behind.
    sampler.stop();
    // `calls_ok` summed as per-interval deltas over the sampler's
    // retained window (what the 5% agreement gate compares to `ops`),
    // and its newest cumulative values summed (exact regardless of ring
    // wrap or late node discovery).
    let calls_ok = hat_metrics::field_index("calls_ok").expect("calls_ok is a NodeStats field");
    let (mut metrics_window_ops, mut metrics_total_ops) = (0u64, 0u64);
    for tl in sampler.node_timelines() {
        if let (Some(first), Some(last)) = (tl.samples.first(), tl.samples.last()) {
            metrics_window_ops += last.values[calls_ok].saturating_sub(first.values[calls_ok]);
            metrics_total_ops += last.values[calls_ok];
        }
    }
    let stats = snode.stats_snapshot();
    server.shutdown();
    let ops_per_sec = ops as f64 / CONN_WINDOW.as_secs_f64();
    rec.push(obj([
        ("policy", policy_name.into()),
        ("conns", conns.into()),
        ("ops", ops.into()),
        ("ops_per_sec", ops_per_sec.into()),
        ("clients_served", clients_served.into()),
        ("reactor_wakeups", stats.reactor_wakeups.into()),
        ("reactor_resumes", stats.reactor_resumes.into()),
        ("reactor_parked_hwm", stats.reactor_parked_hwm.into()),
        ("metrics_window_ops", metrics_window_ops.into()),
        ("metrics_total_ops", metrics_total_ops.into()),
        ("metrics_ticks", sampler.ticks().into()),
    ]));
    rec.timelines.push(timeline(&sampler));
}

const TXN_CLIENTS: usize = 4;
const TXN_ROUNDS: usize = 30;
const TXN_BATCH: usize = 16;
const TXN_COMMIT_COST_NS: u64 = 200_000;

/// Cost of the `txn` hint: cross-shard 2PC multiput vs the plain
/// per-shard multiput.
///
/// Both modes run the identical workload — 4 clients, each committing 30
/// rounds of a 16-key batch over real HatRPC channels against the
/// hint-sharded HatKV deployment — differing only in the RPC they call:
/// `multiput` (per-shard atomicity, one WAL commit per shard touched) or
/// `multiput_txn` (cross-shard atomicity: per-key locks, a prepare
/// record on every touched shard, then decide-and-apply). Each client
/// owns a disjoint key set, so the sweep prices the protocol itself —
/// the extra WAL records and lock traffic — not lock contention.
///
/// The gate: the txn path keeps a quarter of the plain path's
/// throughput. 2PC doubles the WAL records per shard but must stay in
/// the same regime; a collapse means the fast path regressed or the txn
/// path gained an accidental stall.
fn txn(_: Scale) -> Record {
    let params = map([
        ("clients", TXN_CLIENTS.into()),
        ("rounds", TXN_ROUNDS.into()),
        ("batch", TXN_BATCH.into()),
        ("commit_cost_ns", TXN_COMMIT_COST_NS.into()),
    ]);
    let rows = vec![txn_mode("multiput", false), txn_mode("multiput_txn", true)];
    let count = |row: usize, field: &str| rows[row][field].as_u64();
    let expected_txns = (TXN_CLIENTS * TXN_ROUNDS) as u64;
    assert_eq!(count(1, "txn_commits"), Some(expected_txns), "every txn round committed once");
    assert_eq!(count(1, "txn_aborts"), Some(0), "disjoint key sets must never abort");
    assert_eq!(count(0, "txn_commits"), Some(0), "the plain path must never enter 2PC");
    let ratio = speedup(&rows, &[("mode", "multiput_txn".into())], &[("mode", "multiput".into())]);
    let summary = map([("txn_over_plain_throughput", ratio)]);
    Record { params, rows, summary, timelines: vec![] }
}

/// One txn-sweep mode's row.
fn txn_mode(label: &str, txn: bool) -> Value {
    let fabric = Fabric::new(SimConfig::default());
    let snode = fabric.add_node("kv-server");
    let server = HatKvServer::start_with_schema(
        &fabric,
        &snode,
        "kv",
        hat_k_v_schema(),
        DbConfig { commit_cost_ns: Some(TXN_COMMIT_COST_NS), ..Default::default() },
    );

    let barrier = Arc::new(Barrier::new(TXN_CLIENTS + 1));
    let mut handles = Vec::new();
    for c in 0..TXN_CLIENTS {
        let fabric = fabric.clone();
        let schema = server.schema().clone();
        let barrier = barrier.clone();
        handles.push(std::thread::spawn(move || -> (u64, usize) {
            let node = fabric.add_node(&format!("txn-bench-{c}"));
            let mut client = HatKVClient::new(HatClient::new(&fabric, &node, "kv", &schema));
            // Disjoint per-client key sets: the sweep prices the 2PC
            // protocol, not inter-client lock contention.
            let keys: Vec<Vec<u8>> =
                (0..TXN_BATCH).map(|i| format!("c{c:02}-k{i:03}").into_bytes()).collect();
            // Warm the channel outside the measured window.
            let _ = client.get(keys[0].clone());
            barrier.wait();
            let mut busy_ns = 0u64;
            for round in 0..TXN_ROUNDS {
                let values: Vec<Vec<u8>> = keys.iter().map(|_| vec![round as u8; 100]).collect();
                let t = now_ns();
                if txn {
                    client.multiput_txn(keys.clone(), values).expect("txn multiput");
                } else {
                    client.multiput(keys.clone(), values).expect("plain multiput");
                }
                busy_ns += now_ns() - t;
            }
            (busy_ns, TXN_ROUNDS * TXN_BATCH)
        }));
    }
    barrier.wait();
    let t0 = now_ns();
    let mut busy_ns = 0u64;
    let mut ops = 0usize;
    for h in handles {
        let (b, o) = h.join().expect("bench client");
        busy_ns += b;
        ops += o;
    }
    let elapsed_ns = (now_ns() - t0).max(1);
    let calls = (TXN_CLIENTS * TXN_ROUNDS) as f64;
    let txn_stats = server.db().txn_stats();
    let wal_commits: u64 = server.db().shard_stats().iter().map(|s| s.commits).sum();
    server.shutdown();
    let ops_per_sec = ops as f64 * 1e9 / elapsed_ns as f64;
    let call_mean_us = busy_ns as f64 / calls / 1000.0;
    progress(obj([
        ("mode", label.into()),
        ("ops_per_sec", ops_per_sec.into()),
        ("call_mean_us", call_mean_us.into()),
        ("txn_commits", txn_stats.commits.into()),
        ("txn_aborts", txn_stats.aborts.into()),
        ("wal_commits", wal_commits.into()),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(key: &str, value: f64) -> Map<String, Value> {
        map([(key, value.into())])
    }

    #[test]
    fn a_value_below_its_floor_fails() {
        let gate = at_least("speedup", 2.0);
        assert!(gate.check(&summary("speedup", 1.99)).is_err());
    }

    #[test]
    fn a_value_exactly_at_its_floor_passes() {
        let gate = at_least("speedup", 2.0);
        assert_eq!(gate.check(&summary("speedup", 2.0)), Ok(()));
    }

    #[test]
    fn an_at_most_gate_above_its_bound_fails() {
        let gate = Gate { key: "error", op: Op::AtMost, bound: 0.05 };
        assert!(gate.check(&summary("error", 0.051)).is_err());
        assert_eq!(gate.check(&summary("error", 0.05)), Ok(()));
    }

    #[test]
    fn a_summary_without_the_gated_key_fails() {
        let gate = at_least("speedup", 2.0);
        let err = gate.check(&summary("other", 10.0)).unwrap_err();
        assert!(err.contains("missing"), "{err}");
        // A non-numeric value is as good as missing.
        assert!(gate.check(&map([("speedup", "fast".into())])).is_err());
    }

    #[test]
    fn bench_failures_list_every_failing_gate() {
        let conns = bench("connections").unwrap();
        let passing = map([
            ("top_speedup", 600.0.into()),
            ("top_reactor_parked_hwm", 10_000u64.into()),
            ("sampled_calls_ok_max_error", 0.01.into()),
        ]);
        assert!(conns.failures(&passing).is_empty());
        let mut failing = passing.clone();
        failing.insert("top_reactor_parked_hwm".into(), 5_000u64.into());
        failing.remove("sampled_calls_ok_max_error");
        assert_eq!(conns.failures(&failing).len(), 2);
        // Just short of a bound is short: the gates read unrounded values.
        let mut close = passing.clone();
        close.insert("top_reactor_parked_hwm".into(), 9_996u64.into());
        close.insert("sampled_calls_ok_max_error".into(), 0.05004.into());
        assert_eq!(conns.failures(&close).len(), 2);
    }

    #[test]
    fn bench_names_are_unique_and_name_their_records() {
        let mut names: Vec<&str> = BENCHES.iter().map(|b| b.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), BENCHES.len(), "duplicate bench name");
        for b in BENCHES {
            assert_eq!(b.record_path(), format!("BENCH_{}.json", b.name));
            assert_eq!(b.metrics_path(), format!("METRICS_{}.json", b.name));
            assert!(bench(b.name).is_some_and(|found| std::ptr::eq(found, b)));
            assert!(!b.gates.is_empty(), "{} has no gate", b.name);
        }
        assert!(bench("nope").is_none());
    }

    /// Every committed `BENCH_<name>.json` carries the full schema, and
    /// its own summary passes the bench's gates.
    #[test]
    fn committed_records_follow_the_schema() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        for b in BENCHES {
            let path = format!("{root}/{}", b.record_path());
            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
            let doc: Value = serde_json::from_str(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
            assert_eq!(doc["bench"].as_str(), Some(b.name), "{path}");
            assert!(doc["commit"].as_str().is_some_and(|c| !c.is_empty()), "{path}: commit");
            assert!(doc["host"]["nproc"].as_u64().is_some_and(|n| n > 0), "{path}: host.nproc");
            assert_eq!(doc["clock"].as_str(), Some("wall"), "{path}");
            assert!(doc["params"].is_object(), "{path}: params");
            assert!(doc["rows"].as_array().is_some_and(|r| !r.is_empty()), "{path}: rows");
            let summary = doc["summary"].as_object().expect("summary object");
            assert_eq!(b.failures(summary), Vec::<String>::new(), "{path}");
        }
    }

    #[test]
    fn a_record_carries_commit_host_and_clock() {
        let rec = Record {
            params: map([("clients", 8usize.into())]),
            rows: vec![obj([("ops_per_sec", 1.5.into())])],
            summary: summary("speedup", 2.5),
            timelines: Vec::new(),
        };
        let doc = rec.to_json("pipeline");
        let text = doc.to_string();
        let back: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(back, doc);
        assert_eq!(back["bench"].as_str(), Some("pipeline"));
        assert!(back["commit"].as_str().is_some_and(|c| !c.is_empty()));
        assert!(back["host"]["nproc"].as_u64().is_some_and(|n| n > 0));
        assert_eq!(back["clock"].as_str(), Some("wall"));
        assert_eq!(back["params"]["clients"].as_u64(), Some(8));
        assert_eq!(back["summary"]["speedup"].as_f64(), Some(2.5));
    }

    #[test]
    fn speedups_divide_matching_rows() {
        let rows = vec![
            obj([
                ("stack", "eager".into()),
                ("depth", 1usize.into()),
                ("ops_per_sec", 100.0.into()),
            ]),
            obj([
                ("stack", "eager".into()),
                ("depth", 8usize.into()),
                ("ops_per_sec", 250.0.into()),
            ]),
        ];
        let at = |depth: usize| [("stack", Value::from("eager")), ("depth", depth.into())];
        assert_eq!(speedup(&rows, &at(8), &at(1)).as_f64(), Some(2.5));
        // A missing base row divides by the 1 op/s floor, not by zero.
        assert_eq!(speedup(&rows, &at(8), &at(2)).as_f64(), Some(250.0));
        // The ratio is not rounded, so 1.9996x stays below a 2x floor.
        let close = [
            obj([("depth", 1usize.into()), ("ops_per_sec", 10_000.0.into())]),
            obj([("depth", 8usize.into()), ("ops_per_sec", 19_996.0.into())]),
        ];
        let ratio = speedup(&close, &[("depth", 8usize.into())], &[("depth", 1usize.into())]);
        assert!(at_least("speedup", 2.0).check(&map([("speedup", ratio)])).is_err());
    }
}
