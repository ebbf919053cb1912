//! Depth-1 mechanism counts per protocol: the WRs, doorbells, receives,
//! completions, bytes, one-sided ops and copies behind the paper's Figure
//! 4 ranking.
//!
//! Each row runs one echo connection at a window of 1 (the default) in a
//! fault-free simulator, warms it with one call, then takes the per-call
//! deltas of eight calls on each side. An echo is symmetric, so both
//! sides must show the same counts. Counting only: nothing here reads a
//! clock, so the table is exact on any host.

use hat_protocols::{accept_server, connect_client, ProtocolConfig, ProtocolKind};
use hat_rdma_sim::stats::NodeStatsSnapshot;
use hat_rdma_sim::{Fabric, PollMode, SimConfig};

/// Per-call counts on one side of an echo call.
#[derive(Debug, PartialEq, Eq)]
struct PerCall {
    wrs: u64,
    doorbells: u64,
    recvs: u64,
    completions: u64,
    bytes_tx: u64,
    memcpys: u64,
    inbound_rdma: u64,
    outbound_rdma: u64,
}

const CALLS: u64 = 8;

impl PerCall {
    fn from_delta(d: &NodeStatsSnapshot) -> PerCall {
        for total in [
            d.wrs_posted,
            d.doorbells,
            d.recvs_posted,
            d.completions,
            d.bytes_tx,
            d.memcpys,
            d.inbound_rdma,
            d.outbound_rdma,
        ] {
            assert_eq!(total % CALLS, 0, "counts must be identical on every call: {d:?}");
        }
        PerCall {
            wrs: d.wrs_posted / CALLS,
            doorbells: d.doorbells / CALLS,
            recvs: d.recvs_posted / CALLS,
            completions: d.completions / CALLS,
            bytes_tx: d.bytes_tx / CALLS,
            memcpys: d.memcpys / CALLS,
            inbound_rdma: d.inbound_rdma / CALLS,
            outbound_rdma: d.outbound_rdma / CALLS,
        }
    }
}

/// Run `CALLS` echo calls of `payload` bytes over `kind` after one warm-up
/// call; returns the (client, server) per-call counts.
fn measure(kind: ProtocolKind, payload: usize) -> (PerCall, PerCall) {
    let fabric = Fabric::new(SimConfig::fast_test());
    let cnode = fabric.add_node("client");
    let snode = fabric.add_node("server");
    let (cep, sep) = fabric.connect(&cnode, &snode).unwrap();
    let cfg = ProtocolConfig { poll: PollMode::Busy, max_msg: 8192, ..Default::default() };
    let scfg = cfg.clone();
    let (ready_tx, ready_rx) = std::sync::mpsc::channel::<()>();
    let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
    let server = std::thread::spawn(move || {
        let mut server = accept_server(kind, sep, scfg).unwrap();
        for _ in 0..=CALLS {
            assert!(server.serve_one(&mut |req| req.to_vec()).unwrap());
        }
        ready_tx.send(()).unwrap();
        // Stay alive until the client has taken the last reply: some
        // kinds leave it in server memory for the client to READ.
        let _ = done_rx.recv();
    });
    let mut client = connect_client(kind, cep, cfg).unwrap();
    let request = vec![0x5Au8; payload];
    assert_eq!(client.call(&request).unwrap(), request, "{kind} warm-up");
    let (c0, s0) = (cnode.stats_snapshot(), snode.stats_snapshot());
    for _ in 0..CALLS {
        assert_eq!(client.call(&request).unwrap(), request, "{kind}");
    }
    ready_rx.recv().unwrap();
    let (c1, s1) = (cnode.stats_snapshot(), snode.stats_snapshot());
    done_tx.send(()).unwrap();
    server.join().unwrap();
    (PerCall::from_delta(&(c1 - c0)), PerCall::from_delta(&(s1 - s0)))
}

#[allow(clippy::too_many_arguments)]
const fn row(
    wrs: u64,
    doorbells: u64,
    recvs: u64,
    completions: u64,
    bytes_tx: u64,
    memcpys: u64,
    inbound_rdma: u64,
    outbound_rdma: u64,
) -> PerCall {
    PerCall { wrs, doorbells, recvs, completions, bytes_tx, memcpys, inbound_rdma, outbound_rdma }
}

/// The committed table. Every message carries an 8-byte header (length +
/// window slot); Hybrid frames add a 1-byte tag. A rendezvous message is
/// the RTS SEND plus the peer's READ of the payload — there is no FIN.
#[test]
fn depth_one_mechanism_counts_match_the_table() {
    let table: [(ProtocolKind, usize, PerCall); 6] = [
        // wrs, doorbells, recvs, completions, bytes_tx, memcpys, in, out
        (ProtocolKind::EagerSendRecv, 512, row(1, 1, 1, 1, 520, 2, 0, 0)),
        (ProtocolKind::DirectWriteSend, 512, row(2, 2, 1, 1, 520, 1, 1, 1)),
        (ProtocolKind::ChainedWriteSend, 512, row(2, 1, 1, 1, 520, 1, 1, 1)),
        (ProtocolKind::DirectWriteImm, 512, row(1, 1, 1, 1, 520, 0, 1, 1)),
        (ProtocolKind::HybridEagerRndv, 512, row(1, 1, 1, 1, 521, 2, 0, 0)),
        (ProtocolKind::HybridEagerRndv, 6000, row(2, 2, 1, 2, 6073, 0, 1, 1)),
    ];
    let mut mismatches = Vec::new();
    for (kind, payload, expected) in table {
        let (client, server) = measure(kind, payload);
        for (side, got) in [("client", client), ("server", server)] {
            if got != expected {
                mismatches
                    .push(format!("{kind} {payload} B {side}: got {got:?}, expected {expected:?}"));
            }
        }
    }
    assert!(mismatches.is_empty(), "mechanism counts drifted:\n{}", mismatches.join("\n"));
}
