//! The HatKV workloads, `kv-read` and `kv-batch`.
//!
//! HatKV is deployed exactly as shipped: the generated `hat_k_v_schema()`
//! (concurrency 128, throughput goal, 4 shards, one-sided GET and
//! MultiGET). One client thread drives a closed loop through the
//! generated stub and checks every reply against the shadow model.

use std::sync::Arc;

use hat_hatkv::server::{HatKvServer, KvVariant};
use hat_hatkv::{HatKVClient, HatKVProcessor};
use hat_kvdb::{DbConfig, DbStatsSnapshot, ShardedDb, SyncMode};
use hat_rdma_sim::{now_ns, Fabric, Node, SimConfig};
use hatrpc_core::protocol::TType;
use hatrpc_core::{HatClient, Result};

use crate::layers::{self, Samples};
use crate::meter::{Func, Meter};
use crate::recorder::{median, Recorder};
use crate::stub::{self, Arg, CannedKv, Ret};
use crate::trace::{Layer, Name, Tracer, NO_PARENT};
use crate::workload::{key, KvGen, KvMix, KvOp, Shadow, BATCH, LOAD_BYTE, VALUE_LEN};
use crate::{Args, Outcome, Tally};

/// One HatKV workload: its op mix and its reported read and write calls.
pub struct KvSpec {
    pub mix: KvMix,
    pub read: Func,
    pub write: Func,
}

/// 95% GET / 5% PUT over 40,000 records: 2.4x the one-sided index's
/// 16,384 slots, so about a third of GETs miss and take the RPC path.
pub const KV_READ: KvSpec = KvSpec {
    mix: KvMix { shares: [0.95, 0.05, 0.0, 0.0], records: 40_000 },
    read: Func::Get,
    write: Func::Put,
};

/// The paper's workload A′ (25% each of GET, PUT, MultiGET, MultiPUT)
/// over 10,000 records, which fit the index. Its reported reads are the
/// MultiGETs: about 2% of GETs miss the index, which would put the GET
/// p99 on the edge between the one-sided and the RPC mode, while a
/// batch falls back whole on any miss (about 1 in 6), so the MultiGET
/// p50 sits in the one-sided mode and its p99 in the RPC mode.
pub const KV_BATCH: KvSpec = KvSpec {
    mix: KvMix { shares: [0.25, 0.25, 0.25, 0.25], records: 10_000 },
    read: Func::MultiGet,
    write: Func::MultiPut,
};

const SERVICE: &str = "hatkv";
const FUNCS: [Func; 4] = [Func::Get, Func::Put, Func::MultiGet, Func::MultiPut];

struct Deployment {
    server: HatKvServer,
    client: HatKVClient,
    /// `[client, server]`.
    nodes: Vec<Arc<Node>>,
}

fn loaded() -> Vec<u8> {
    vec![LOAD_BYTE; VALUE_LEN]
}

/// Start the server, load every record, connect the client and make the
/// first call on the channel of every function the mix uses (the
/// one-sided dial included; a channel the mix never uses would only add
/// an idle polling server thread). Every warm-up call leaves the store
/// as loaded.
fn deploy(spec: &KvSpec, keys: &[Vec<u8>]) -> std::result::Result<Deployment, String> {
    let fabric = Fabric::new(SimConfig::default());
    let snode = fabric.add_node("kv-server");
    let config = DbConfig { sync_mode: SyncMode::NoSync, ..Default::default() };
    let server = HatKvServer::start(&fabric, &snode, SERVICE, KvVariant::FunctionHints, config);
    server.db().multi_put(keys.iter().map(|k| (k.clone(), loaded())));
    let cnode = fabric.add_node("kv-client");
    let mut client = HatKVClient::connect(&fabric, &cnode, SERVICE);
    let absent = b"warm-up:absent".to_vec();
    let [get, put, multiget, multiput] = spec.mix.shares.map(|share| share > 0.0);
    let warm = (|| -> Result<bool> {
        // A hit dials the one-sided side-channel; a miss opens the RPC
        // channel behind it.
        let mut ok = true;
        if get {
            ok &= client.get(keys[0].clone())? == loaded();
            ok &= client.get(absent.clone())?.is_empty();
        }
        if multiget {
            ok &= client.multiget(vec![keys[0].clone()])? == vec![loaded()];
            ok &= client.multiget(vec![absent.clone()])? == vec![Vec::<u8>::new()];
        }
        if put {
            client.put(keys[0].clone(), loaded())?;
        }
        if multiput {
            client.multiput(vec![keys[0].clone()], vec![loaded()])?;
        }
        Ok(ok)
    })();
    match warm {
        Ok(true) => Ok(Deployment { server, client, nodes: vec![cnode, snode] }),
        Ok(false) => Err("warm-up read returned a wrong value".into()),
        Err(e) => Err(format!("warm-up call failed: {e}")),
    }
}

/// Payload bytes an op moves: values written plus values read.
fn payload(f: Func) -> u64 {
    match f {
        Func::Get | Func::Put => VALUE_LEN as u64,
        _ => (VALUE_LEN * BATCH) as u64,
    }
}

/// Write counts of a phase, for the kvdb ratios.
#[derive(Default)]
struct Writes {
    ops: u64,
    user_bytes: u64,
}

impl Writes {
    fn note(&mut self, op: &KvOp) {
        match op {
            KvOp::Put(..) => {
                self.ops += 1;
                self.user_bytes += (24 + VALUE_LEN) as u64;
            }
            KvOp::MultiPut(k, _) => {
                self.ops += 1;
                self.user_bytes += (k.len() * (24 + VALUE_LEN)) as u64;
            }
            _ => {}
        }
    }
}

fn func_of(op: &KvOp) -> Func {
    match op {
        KvOp::Get(_) => Func::Get,
        KvOp::Put(..) => Func::Put,
        KvOp::MultiGet(_) => Func::MultiGet,
        KvOp::MultiPut(..) => Func::MultiPut,
    }
}

/// Settle an op's result against the shadow model. Reads are checked;
/// writes update the model (or mark it unsettled when the call failed).
fn settle(op: &KvOp, result: Result<Vec<Vec<u8>>>, shadow: &mut Shadow, tally: &mut Tally) -> bool {
    tally.attempted += 1;
    let values = match result {
        Ok(values) => values,
        Err(e) => {
            match op {
                KvOp::Put(k, b) => shadow.maybe_wrote(*k, *b),
                KvOp::MultiPut(ks, bs) => {
                    ks.iter().zip(bs).for_each(|(k, b)| shadow.maybe_wrote(*k, *b))
                }
                _ => {}
            }
            tally.fail(format!("{op:?} failed: {e}"));
            return false;
        }
    };
    let ok = match op {
        KvOp::Get(k) => values.len() == 1 && shadow.check(*k, &values[0]),
        KvOp::MultiGet(ks) => {
            values.len() == ks.len() && ks.iter().zip(&values).all(|(k, v)| shadow.check(*k, v))
        }
        KvOp::Put(k, b) => {
            shadow.wrote(*k, *b);
            true
        }
        KvOp::MultiPut(ks, bs) => {
            ks.iter().zip(bs).for_each(|(k, b)| shadow.wrote(*k, *b));
            true
        }
    };
    if !ok {
        tally.mismatch(format!("reply to {op:?} does not match the shadow model"));
    }
    ok
}

/// Arguments of an op as the program receives them.
struct OpArgs {
    keys: Vec<Vec<u8>>,
    values: Vec<Vec<u8>>,
}

fn build(op: &KvOp, keys: &[Vec<u8>]) -> OpArgs {
    let ks = |idx: &[u32]| idx.iter().map(|&i| keys[i as usize].clone()).collect();
    match op {
        KvOp::Get(k) => OpArgs { keys: vec![keys[*k as usize].clone()], values: vec![] },
        KvOp::Put(k, b) => {
            OpArgs { keys: vec![keys[*k as usize].clone()], values: vec![vec![*b; VALUE_LEN]] }
        }
        KvOp::MultiGet(idx) => OpArgs { keys: ks(idx), values: vec![] },
        KvOp::MultiPut(idx, bs) => {
            OpArgs { keys: ks(idx), values: bs.iter().map(|&b| vec![b; VALUE_LEN]).collect() }
        }
    }
}

/// Issue an op through the generated stub.
fn call_stub(client: &mut HatKVClient, op: &KvOp, a: OpArgs) -> Result<Vec<Vec<u8>>> {
    let OpArgs { mut keys, values } = a;
    match op {
        KvOp::Get(_) => client.get(keys.pop().expect("one key")).map(|v| vec![v]),
        KvOp::Put(..) => {
            let value = values.into_iter().next().expect("one value");
            client.put(keys.pop().expect("one key"), value).map(|()| vec![])
        }
        KvOp::MultiGet(_) => client.multiget(keys),
        KvOp::MultiPut(..) => client.multiput(keys, values).map(|()| vec![]),
    }
}

/// Encode an op's request as the generated stub does.
fn encode_op(op: &KvOp, a: &OpArgs, seq: i32) -> Vec<u8> {
    let name = func_of(op).name();
    match op {
        KvOp::Get(_) => stub::encode(name, seq, &[Arg::Bin(&a.keys[0])]),
        KvOp::Put(..) => stub::encode(name, seq, &[Arg::Bin(&a.keys[0]), Arg::Bin(&a.values[0])]),
        KvOp::MultiGet(_) => stub::encode(name, seq, &[Arg::List(&a.keys)]),
        KvOp::MultiPut(..) => stub::encode(name, seq, &[Arg::List(&a.keys), Arg::List(&a.values)]),
    }
}

/// Issue an op as the generated stub does, one span per layer call.
fn call_traced(
    engine: &mut HatClient,
    t: &mut Traced,
    op: &KvOp,
    a: OpArgs,
) -> Result<Vec<Vec<u8>>> {
    let Traced { tr, samples, seq, .. } = t;
    let f = func_of(op);
    let name = f.name();
    let op_id = tr.new_op();
    let root = tr.open(op_id, NO_PARENT, Layer::Bench, Name::Op, f);
    let onesided = match op {
        KvOp::Get(_) | KvOp::MultiGet(_) => {
            let span = tr.open(op_id, root, Layer::Protocols, Name::OneSided, f);
            let hit = match op {
                KvOp::Get(_) => engine.try_onesided_get(name, &a.keys[0]).map(|v| vec![v]),
                _ => engine.try_onesided_multiget(name, &a.keys),
            };
            tr.close(span);
            if hit.is_none() {
                tr.rename(span, Name::OneSidedMiss);
            }
            hit
        }
        _ => None,
    };
    let result = match onesided {
        Some(values) => Ok(values),
        None => {
            *seq += 1;
            let s = *seq;
            let request = tr.time(root, Layer::Core, Name::Encode, f, || encode_op(op, &a, s));
            let ret_ty = match op {
                KvOp::Get(_) => TType::String,
                KvOp::MultiGet(_) => TType::List,
                _ => TType::Stop,
            };
            samples.keep(f, &request);
            let reply = tr.time(root, Layer::Core, Name::Call, f, || engine.call(name, &request));
            reply
                .and_then(|r| {
                    tr.time(root, Layer::Core, Name::Decode, f, || stub::decode(&r, s, ret_ty))
                })
                .map(|ret| match ret {
                    Ret::Void => vec![],
                    Ret::Bin(v) => vec![v],
                    Ret::List(vs) => vs,
                })
        }
    };
    tr.close(root);
    result
}

/// The state one op stream runs against.
struct Ctx<'a> {
    keys: &'a [Vec<u8>],
    gen: &'a mut KvGen,
    shadow: &'a mut Shadow,
    tally: &'a mut Tally,
}

/// What the traced segments collect.
#[derive(Default)]
struct Traced {
    tr: Tracer,
    samples: Samples,
    /// The first traced ops, for the kvdb replay.
    replay: Vec<KvOp>,
    seq: i32,
}

impl Ctx<'_> {
    /// Drive the stream for `seconds` of measured windows: through the
    /// generated stub, or through the split stub with spans when traced.
    fn phase(
        &mut self,
        d: &mut Deployment,
        seconds: f64,
        spec: &KvSpec,
        mut traced: Option<&mut Traced>,
    ) -> (Meter, Writes) {
        let mut meter = Meter::start(d.nodes.clone(), seconds, spec.read, spec.write);
        let mut writes = Writes::default();
        let hard_stop = now_ns() + ((seconds * 3.0 + 30.0) * 1e9) as u64;
        while !meter.is_done() && now_ns() < hard_stop {
            let op = self.gen.next_op();
            let a = build(&op, self.keys);
            let t0 = now_ns();
            let result = match traced.as_deref_mut() {
                None => call_stub(&mut d.client, &op, a),
                Some(t) => call_traced(d.client.engine(), t, &op, a),
            };
            let t1 = now_ns();
            if settle(&op, result, self.shadow, self.tally) {
                writes.note(&op);
                let f = func_of(&op);
                meter.done(f, t1 - t0, payload(f), t1);
            }
            if let Some(t) = traced.as_deref_mut() {
                if t.replay.len() < REPLAY_OPS {
                    t.replay.push(op);
                }
            }
        }
        if !meter.is_done() {
            self.tally.fail("a measured window never completed".into());
        }
        (meter, writes)
    }
}

/// Traced ops kept for the kvdb replay.
const REPLAY_OPS: usize = 20_000;

fn db_delta(after: DbStatsSnapshot, before: DbStatsSnapshot) -> DbStatsSnapshot {
    DbStatsSnapshot {
        commits: after.commits - before.commits,
        aborts: after.aborts - before.aborts,
        gets: after.gets - before.gets,
        puts: after.puts - before.puts,
        dels: after.dels - before.dels,
        sync_ns: after.sync_ns - before.sync_ns,
        writer_wait_ns: after.writer_wait_ns - before.writer_wait_ns,
        bytes_written: after.bytes_written - before.bytes_written,
    }
}

pub fn run(spec: &KvSpec, args: &Args) -> std::result::Result<Outcome, String> {
    let keys: Vec<Vec<u8>> = (0..spec.mix.records).map(key).collect();
    let mut gen = KvGen::new(spec.mix, args.seed);
    if args.trace {
        traced(spec, args, &keys, &mut gen)
    } else {
        end_to_end(spec, args, &keys, &mut gen)
    }
}

/// `--trace 0`: the run is split into rounds, each on a fresh deployment
/// (so one unlucky thread placement moves one round), and every metric
/// is the median over all rounds' windows.
fn end_to_end(
    spec: &KvSpec,
    args: &Args,
    keys: &[Vec<u8>],
    gen: &mut KvGen,
) -> std::result::Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut tally = Tally::default();
    let round_s = args.seconds / crate::ROUNDS as f64;
    let (mut setup_s, mut pinned, mut all) = (Vec::new(), Vec::new(), None::<Meter>);
    for round in 0..crate::ROUNDS {
        let t0 = now_ns();
        let mut d = deploy(spec, keys)?;
        setup_s.push((now_ns() - t0) as f64 / 1e9);
        if round == 0 {
            out.record_selection(d.client.engine(), &hat_hatkv::hat_k_v_schema(), &FUNCS);
        }
        // Each round starts from a freshly loaded store.
        let mut shadow = Shadow::new(spec.mix.records);
        let mut ctx = Ctx { keys, gen: &mut *gen, shadow: &mut shadow, tally: &mut tally };
        ctx.phase(&mut d, crate::warmup_s(round_s), spec, None);
        let (meter, _) = ctx.phase(&mut d, round_s, spec, None);
        pinned.push(layers::pinned_mb(&d.nodes));
        d.server.shutdown();
        Meter::pool(&mut all, meter);
    }
    let all = all.expect("at least one round");
    out.samples(&all);
    out.put("setup_s", median(&setup_s));
    for (name, v) in all.end_to_end() {
        out.put(name, v);
    }
    out.put("pinned_mb_peak", median(&pinned));
    out.tally = tally;
    Ok(out)
}

/// `--trace 1`: untraced segments (the slowdown baseline and the counter
/// deltas) alternate with traced ones on one deployment; then the
/// standalone measurements.
fn traced(
    spec: &KvSpec,
    args: &Args,
    keys: &[Vec<u8>],
    gen: &mut KvGen,
) -> std::result::Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut tally = Tally::default();
    let mut shadow = Shadow::new(spec.mix.records);
    let mut d = deploy(spec, keys)?;
    out.record_selection(d.client.engine(), &hat_hatkv::hat_k_v_schema(), &FUNCS);
    let mut ctx = Ctx { keys, gen, shadow: &mut shadow, tally: &mut tally };
    let (plain_s, traced_s) = crate::trace_segments(args.seconds);
    ctx.phase(&mut d, crate::warmup_s(args.seconds), spec, None);

    // Alternating, drift over the run (the one-sided hit ratio climbs as
    // PUTs index hot keys) hits both kinds of segment alike.
    let mut t = Traced::default();
    t.tr.set_recording(true);
    let (mut plain, mut traced, mut writes) = (None::<Meter>, None::<Meter>, Writes::default());
    let mut db = DbStatsSnapshot::default();
    for _ in 0..crate::TRACE_SEGMENTS {
        let db_before = d.server.db().stats();
        let (meter, w) = ctx.phase(&mut d, plain_s, spec, None);
        db = db + db_delta(d.server.db().stats(), db_before);
        writes.ops += w.ops;
        writes.user_bytes += w.user_bytes;
        Meter::pool(&mut plain, meter);
        Meter::pool(&mut traced, ctx.phase(&mut d, traced_s, spec, Some(&mut t)).0);
    }
    let (plain, traced) = (plain.expect("segments ran"), traced.expect("segments ran"));
    out.samples(&plain);
    layers::counter_metrics(&mut out, &plain, 0);
    out.put("kvdb.commits_per_write", db.commits as f64 / writes.ops.max(1) as f64);
    out.put("kvdb.writer_wait_us", db.writer_wait_ns as f64 / 1e3 / writes.ops.max(1) as f64);
    out.put("kvdb.bytes_per_user_byte", db.bytes_written as f64 / writes.user_bytes.max(1) as f64);
    out.put("bench.traced_slowdown_pct", (1.0 - traced.ops_per_s() / plain.ops_per_s()) * 100.0);
    let db_config = d.server.db().config();
    let shards = d.server.db().shard_count() as u32;
    let used: Vec<Func> =
        FUNCS.iter().zip(spec.mix.shares).filter(|(_, s)| *s > 0.0).map(|(f, _)| *f).collect();
    let selections: Vec<_> =
        used.iter().map(|f| (*f, d.client.engine().selection_for(f.name()))).collect();
    d.server.shutdown();
    drop(d.client);

    // A function whose every call was served one-sided still gets its
    // RPC-path figures, from one request of the workload's shape.
    let Traced { tr, mut samples, replay, .. } = t;
    for &f in &used {
        if !samples.has(f) {
            let op = match f {
                Func::Get => KvOp::Get(0),
                Func::Put => KvOp::Put(0, LOAD_BYTE),
                Func::MultiGet => KvOp::MultiGet(vec![0; BATCH]),
                _ => KvOp::MultiPut(vec![0; BATCH], vec![LOAD_BYTE; BATCH]),
            };
            samples.keep(f, &encode_op(&op, &build(&op, keys), 1));
        }
    }

    // Server-side dispatch without storage, on the requests the traced
    // phase sent.
    let mut processor = HatKVProcessor::new(CannedKv);
    let handler = samples.time_handler(|req| processor.handle(req));

    let kvdb = replay_kvdb(db_config, shards, keys, &replay);
    for (name, us) in ["kvdb.get_us", "kvdb.put_us", "kvdb.multi_get_us", "kvdb.multi_put_us"]
        .into_iter()
        .zip(kvdb)
    {
        out.put(name, us);
    }
    let kvdb_us = |f: Func| FUNCS.iter().position(|&g| g == f).map_or(0.0, |i| kvdb[i]);
    layers::span_metrics(&mut out, &tr, traced.ops(), &selections, &handler, kvdb_us)?;
    crate::write_spans(args, &tr);
    out.tally = tally;
    Ok(out)
}

/// Replay the traced segments' storage ops on a fresh `ShardedDb` built
/// like the server's, loaded the same way; median µs per op kind, in
/// `FUNCS` order.
fn replay_kvdb(config: DbConfig, shards: u32, keys: &[Vec<u8>], ops: &[KvOp]) -> [f64; 4] {
    let db = ShardedDb::new(config, shards);
    db.multi_put(keys.iter().map(|k| (k.clone(), loaded())));
    let mut rec: [Recorder; 4] = Default::default();
    for op in ops {
        let a = build(op, keys);
        let (slot, t0) = match op {
            KvOp::Get(_) => {
                let t0 = now_ns();
                std::hint::black_box(db.get(&a.keys[0]));
                (0, t0)
            }
            KvOp::Put(..) => {
                let t0 = now_ns();
                db.put(&a.keys[0], &a.values[0]);
                (1, t0)
            }
            KvOp::MultiGet(_) => {
                let t0 = now_ns();
                std::hint::black_box(db.multi_get(&a.keys).ok());
                (2, t0)
            }
            KvOp::MultiPut(..) => {
                let pairs: Vec<_> = a.keys.into_iter().zip(a.values).collect();
                let t0 = now_ns();
                db.multi_put(pairs);
                (3, t0)
            }
        };
        rec[slot].record(now_ns() - t0);
    }
    rec.map(|mut r| layers::p50_us(&mut r))
}
