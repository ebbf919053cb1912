//! The Mix Comm workload, `rpc-mix` (paper §5.3), on the bare engine.
//!
//! One service, two functions: `fast` (latency goal, 512 B) and `bulk`
//! (throughput goal, 16 KB, queue depth 8). A `HatServer` under the
//! reactor policy answers with the ATB echo router. The single client
//! keeps 8 `bulk` calls in flight, takes completions oldest-first (the
//! order `call_many` uses), and makes one synchronous `fast` call per
//! `bulk` completion. Every echo is checked byte for byte.

use std::collections::VecDeque;
use std::sync::Arc;

use hat_atb::support::{atb_router, decode_echo, encode_echo};
use hat_rdma_sim::{now_ns, Fabric, Node, SimConfig};
use hatrpc_core::engine::ServerPolicy;
use hatrpc_core::service::ServiceSchema;
use hatrpc_core::{AsyncCall, HatClient, HatServer};

use crate::layers::{self, Samples};
use crate::meter::{Func, Meter};
use crate::recorder::median;
use crate::trace::{Layer, Name, Tracer, NO_PARENT};
use crate::workload::MixGen;
use crate::{Args, Outcome, Tally};

const FAST_LEN: usize = 512;
const BULK_LEN: usize = 16 * 1024;
const DEPTH: usize = 8;
const SERVICE: &str = "mixcomm";

/// The Mix Comm schema, parsed at set-up like any deployment's IDL.
const IDL: &str = "
service MixComm {
    hint: concurrency = 2;
    binary fast(1: binary payload) [ hint: perf_goal = latency, payload_size = 512; ]
    binary bulk(1: binary payload) [ hint: perf_goal = throughput, payload_size = 16K, queue_depth = 8; ]
}
";

struct Deployment {
    server: HatServer,
    client: HatClient,
    schema: ServiceSchema,
    /// `[client, server]`.
    nodes: Vec<Arc<Node>>,
}

fn deploy(gen: &MixGen) -> Result<Deployment, String> {
    let schema = ServiceSchema::parse(IDL, "MixComm").ok_or("the Mix Comm IDL does not parse")?;
    let fabric = Fabric::new(SimConfig::default());
    let snode = fabric.add_node("mix-server");
    let server = HatServer::serve(
        &fabric,
        &snode,
        SERVICE,
        schema.clone(),
        ServerPolicy::Reactor,
        Arc::new(|| {
            let mut router = atb_router();
            Box::new(move |req: &[u8]| router.handle(req))
        }),
    );
    let cnode = fabric.add_node("mix-client");
    let mut client = HatClient::new(&fabric, &cnode, SERVICE, &schema);
    let warm = (|| -> hatrpc_core::Result<bool> {
        let fast = decode_echo(&client.call("fast", &encode_echo("fast", 1, &gen.fast[0]))?, 1)?;
        let mut call = client.call_async("bulk", &encode_echo("bulk", 2, &gen.bulk[0]))?;
        let bulk = decode_echo(&client.wait_async(&mut call)?, 2)?;
        Ok(fast == gen.fast[0] && bulk == gen.bulk[0])
    })();
    match warm {
        Ok(true) => Ok(Deployment { server, client, schema, nodes: vec![cnode, snode] }),
        Ok(false) => Err("warm-up echo came back changed".into()),
        Err(e) => Err(format!("warm-up call failed: {e}")),
    }
}

struct Pending {
    call: AsyncCall,
    idx: usize,
    seq: i32,
    t0: u64,
    root: u32,
    span: u32,
}

/// Drives the closed loop; spans are recorded when the tracer is on.
struct Driver<'a> {
    client: &'a mut HatClient,
    gen: &'a mut MixGen,
    tally: &'a mut Tally,
    tr: Tracer,
    samples: Samples,
    seq: i32,
}

impl<'a> Driver<'a> {
    fn new(client: &'a mut HatClient, gen: &'a mut MixGen, tally: &'a mut Tally) -> Driver<'a> {
        Driver { client, gen, tally, tr: Tracer::default(), samples: Samples::default(), seq: 0 }
    }

    fn submit_bulk(&mut self) -> Option<Pending> {
        let idx = self.gen.next_index();
        self.seq += 1;
        let seq = self.seq;
        let t0 = now_ns();
        let op = self.tr.new_op();
        let root = self.tr.open(op, NO_PARENT, Layer::Inflight, Name::Op, Func::Bulk);
        let payload = &self.gen.bulk[idx];
        let request = self.tr.time(root, Layer::Core, Name::Encode, Func::Bulk, || {
            encode_echo("bulk", seq, payload)
        });
        if self.tr.recording() {
            self.samples.keep(Func::Bulk, &request);
        }
        let span = self.tr.open(op, root, Layer::Inflight, Name::Call, Func::Bulk);
        let client = &mut *self.client;
        match self.tr.time(span, Layer::Core, Name::Submit, Func::Bulk, || {
            client.call_async("bulk", &request)
        }) {
            Ok(call) => Some(Pending { call, idx, seq, t0, root, span }),
            Err(e) => {
                self.tally.attempted += 1;
                self.tally.fail(format!("bulk submit failed: {e}"));
                None
            }
        }
    }

    /// Take one bulk completion; its latency when the echo is right.
    fn complete_bulk(&mut self, mut p: Pending) -> Option<u64> {
        let client = &mut *self.client;
        let reply = self
            .tr
            .time(p.span, Layer::Core, Name::Wait, Func::Bulk, || client.wait_async(&mut p.call));
        self.tr.close(p.span);
        let echoed = reply.and_then(|r| {
            self.tr.time(p.root, Layer::Core, Name::Decode, Func::Bulk, || decode_echo(&r, p.seq))
        });
        self.tr.close(p.root);
        let t1 = now_ns();
        self.check(echoed, Func::Bulk, p.idx).then(|| t1 - p.t0)
    }

    fn fast(&mut self) -> Option<u64> {
        let idx = self.gen.next_index();
        self.seq += 1;
        let seq = self.seq;
        let t0 = now_ns();
        let op = self.tr.new_op();
        let root = self.tr.open(op, NO_PARENT, Layer::Bench, Name::Op, Func::Fast);
        let payload = &self.gen.fast[idx];
        let request = self.tr.time(root, Layer::Core, Name::Encode, Func::Fast, || {
            encode_echo("fast", seq, payload)
        });
        if self.tr.recording() {
            self.samples.keep(Func::Fast, &request);
        }
        let client = &mut *self.client;
        let reply = self
            .tr
            .time(root, Layer::Core, Name::Call, Func::Fast, || client.call("fast", &request));
        let echoed = reply.and_then(|r| {
            self.tr.time(root, Layer::Core, Name::Decode, Func::Fast, || decode_echo(&r, seq))
        });
        self.tr.close(root);
        let t1 = now_ns();
        self.check(echoed, Func::Fast, idx).then(|| t1 - t0)
    }

    fn check(&mut self, echoed: hatrpc_core::Result<Vec<u8>>, f: Func, idx: usize) -> bool {
        self.tally.attempted += 1;
        let sent = if f == Func::Fast { &self.gen.fast[idx] } else { &self.gen.bulk[idx] };
        match echoed {
            Ok(back) if back == *sent => true,
            Ok(_) => {
                self.tally.mismatch(format!("{} echo came back changed", f.name()));
                false
            }
            Err(e) => {
                self.tally.fail(format!("{} call failed: {e}", f.name()));
                false
            }
        }
    }

    /// One measured phase of `seconds`.
    fn phase(&mut self, nodes: &[Arc<Node>], seconds: f64) -> Meter {
        let mut meter = Meter::start(nodes.to_vec(), seconds, Func::Fast, Func::Bulk);
        let mut inflight: VecDeque<Pending> = VecDeque::with_capacity(DEPTH);
        let hard_stop = now_ns() + ((seconds * 3.0 + 30.0) * 1e9) as u64;
        while !meter.is_done() && now_ns() < hard_stop {
            while inflight.len() < DEPTH {
                match self.submit_bulk() {
                    Some(p) => inflight.push_back(p),
                    None => break,
                }
            }
            if let Some(p) = inflight.pop_front() {
                if let Some(lat) = self.complete_bulk(p) {
                    meter.done(Func::Bulk, lat, BULK_LEN as u64, now_ns());
                }
            }
            if let Some(lat) = self.fast() {
                meter.done(Func::Fast, lat, FAST_LEN as u64, now_ns());
            }
        }
        if !meter.is_done() {
            self.tally.fail("the measured window never completed".into());
        }
        // Calls still in flight complete (and are checked) outside the
        // measured window.
        while let Some(p) = inflight.pop_front() {
            self.complete_bulk(p);
        }
        meter
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut gen = MixGen::new(FAST_LEN, BULK_LEN, args.seed);
    let mut out = Outcome::default();
    let mut tally = Tally::default();

    if !args.trace {
        // Rounds on fresh deployments, as for the HatKV workloads.
        let round_s = args.seconds / crate::ROUNDS as f64;
        let (mut setup_s, mut pinned, mut all) = (Vec::new(), Vec::new(), None::<Meter>);
        for round in 0..crate::ROUNDS {
            let t0 = now_ns();
            let mut d = deploy(&gen)?;
            setup_s.push((now_ns() - t0) as f64 / 1e9);
            if round == 0 {
                out.record_selection(&d.client, &d.schema, &[Func::Fast, Func::Bulk]);
            }
            let nodes = d.nodes.clone();
            let mut drv = Driver::new(&mut d.client, &mut gen, &mut tally);
            drv.phase(&nodes, crate::warmup_s(round_s));
            let meter = drv.phase(&nodes, round_s);
            pinned.push(layers::pinned_mb(&nodes));
            drop(d.client);
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
        return Ok(out);
    }

    // Traced run: untraced segments (the slowdown baseline and the
    // counter deltas) alternate with traced ones on one deployment.
    let mut d = deploy(&gen)?;
    out.record_selection(&d.client, &d.schema, &[Func::Fast, Func::Bulk]);
    let nodes = d.nodes.clone();
    let (plain_s, traced_s) = crate::trace_segments(args.seconds);
    let mut driver = Driver::new(&mut d.client, &mut gen, &mut tally);
    driver.phase(&nodes, crate::warmup_s(args.seconds));
    let (mut plain, mut traced) = (None::<Meter>, None::<Meter>);
    for _ in 0..crate::TRACE_SEGMENTS {
        Meter::pool(&mut plain, driver.phase(&nodes, plain_s));
        driver.tr.set_recording(true);
        Meter::pool(&mut traced, driver.phase(&nodes, traced_s));
        driver.tr.set_recording(false);
    }
    let (plain, traced) = (plain.expect("segments ran"), traced.expect("segments ran"));
    out.samples(&plain);
    let bulk_calls = plain.sample_counts().iter().find(|c| c.0 == Func::Bulk).map_or(0, |c| c.1);
    layers::counter_metrics(&mut out, &plain, bulk_calls as u64);
    out.put("bench.traced_slowdown_pct", (1.0 - traced.ops_per_s() / plain.ops_per_s()) * 100.0);
    let Driver { tr, samples, .. } = driver;
    let funcs: Vec<_> =
        [Func::Fast, Func::Bulk].iter().map(|&f| (f, d.client.selection_for(f.name()))).collect();
    drop(d.client);
    d.server.shutdown();

    let mut router = atb_router();
    let dispatch = samples.time_handler(|req| router.handle(req));
    layers::span_metrics(&mut out, &tr, traced.ops(), &funcs, &dispatch, |_| 0.0)?;
    crate::write_spans(args, &tr);
    out.tally = tally;
    Ok(out)
}
