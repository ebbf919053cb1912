//! Ablation (DESIGN.md #2): the Hybrid-EagerRNDV switch threshold. The
//! paper fixes it at 4 KB; sweeping it shows the eager-copy vs
//! rendezvous-round-trip crossover.

mod common;

use criterion::{BenchmarkId, Criterion};
use hat_protocols::{accept_server, connect_client, ProtocolConfig, ProtocolKind};
use hat_rdma_sim::{Fabric, PollMode, SimConfig};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_eager_threshold");
    const PAYLOAD: usize = 8 * 1024;
    for threshold in [1024usize, 4096, 16384] {
        let fabric = Fabric::new(SimConfig::default());
        let cn = fabric.add_node("c");
        let sn = fabric.add_node("s");
        let (cep, sep) = fabric.connect(&cn, &sn).expect("connect");
        let cfg = ProtocolConfig {
            poll: PollMode::Busy,
            max_msg: 64 * 1024,
            eager_threshold: threshold,
            ..Default::default()
        };
        let scfg = cfg.clone();
        let server = std::thread::spawn(move || {
            let Ok(mut s) = accept_server(ProtocolKind::HybridEagerRndv, sep, scfg) else {
                return;
            };
            let _ = s.serve_loop(&mut |r| r.to_vec());
        });
        let mut client = connect_client(ProtocolKind::HybridEagerRndv, cep, cfg).expect("client");
        let payload = vec![9u8; PAYLOAD];
        client.call(&payload).expect("warmup");
        group.bench_with_input(
            BenchmarkId::new("hybrid_8K_payload", threshold),
            &threshold,
            |b, _| b.iter(|| client.call(&payload).expect("echo")),
        );
        drop(client);
        let _ = server.join();
    }
    group.finish();
}

fn main() {
    let mut c = common::criterion();
    bench(&mut c);
    c.final_summary();
}
