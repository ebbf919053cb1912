//! Property-based tests across every RDMA protocol: arbitrary payload
//! sequences echo byte-exactly, whatever the protocol, polling mode, or
//! payload size mix.

use hat_protocols::{accept_server, connect_client, ProtocolConfig, ProtocolKind};
use hat_rdma_sim::{Fabric, PollMode, SimConfig};
use proptest::prelude::*;

fn echo_sequence(kind: ProtocolKind, poll: PollMode, payloads: &[Vec<u8>]) {
    let fabric = Fabric::new(SimConfig::fast_test());
    let c = fabric.add_node("c");
    let s = fabric.add_node("s");
    let (cep, sep) = fabric.connect(&c, &s).unwrap();
    let max = payloads.iter().map(Vec::len).max().unwrap_or(1).max(64);
    let cfg = ProtocolConfig { poll, max_msg: max, ..Default::default() };
    let scfg = cfg.clone();
    let n = payloads.len();
    let server = std::thread::spawn(move || {
        let mut server = accept_server(kind, sep, scfg).expect("server");
        for _ in 0..n {
            assert!(server
                .serve_one(&mut |req| {
                    let mut r = req.to_vec();
                    let rot = r.len().min(1);
                    r.rotate_left(rot);
                    r
                })
                .expect("serve"));
        }
        server
    });
    let mut client = connect_client(kind, cep, cfg).expect("client");
    for payload in payloads {
        let mut expected = payload.clone();
        let rot = expected.len().min(1);
        expected.rotate_left(rot);
        let got = client.call(payload).expect("call");
        assert_eq!(got, expected, "{kind} mangled a {}-byte payload", payload.len());
    }
    drop(client);
    drop(server.join().unwrap());
}

fn payloads() -> impl Strategy<Value = Vec<Vec<u8>>> {
    prop::collection::vec(
        prop_oneof![
            prop::collection::vec(any::<u8>(), 1..64),
            prop::collection::vec(any::<u8>(), 64..2048),
            prop::collection::vec(any::<u8>(), 4000..9000), // straddles the 4 KB threshold
        ],
        1..5,
    )
}

proptest! {
    // Each case spins up a fabric and threads: keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn eager_echoes_arbitrary_payloads(p in payloads()) {
        echo_sequence(ProtocolKind::EagerSendRecv, PollMode::Busy, &p);
    }

    #[test]
    fn direct_write_imm_echoes_arbitrary_payloads(p in payloads()) {
        echo_sequence(ProtocolKind::DirectWriteImm, PollMode::Busy, &p);
    }

    #[test]
    fn chained_write_send_echoes_arbitrary_payloads(p in payloads()) {
        echo_sequence(ProtocolKind::ChainedWriteSend, PollMode::Busy, &p);
    }

    #[test]
    fn write_rndv_echoes_arbitrary_payloads(p in payloads()) {
        echo_sequence(ProtocolKind::WriteRndv, PollMode::Busy, &p);
    }

    #[test]
    fn read_rndv_echoes_arbitrary_payloads(p in payloads()) {
        echo_sequence(ProtocolKind::ReadRndv, PollMode::Busy, &p);
    }

    #[test]
    fn hybrid_echoes_across_its_threshold(p in payloads()) {
        echo_sequence(ProtocolKind::HybridEagerRndv, PollMode::Busy, &p);
    }

    #[test]
    fn rfp_echoes_arbitrary_payloads(p in payloads()) {
        echo_sequence(ProtocolKind::Rfp, PollMode::Busy, &p);
    }

    #[test]
    fn pilaf_echoes_arbitrary_payloads(p in payloads()) {
        echo_sequence(ProtocolKind::Pilaf, PollMode::Busy, &p);
    }

    #[test]
    fn farm_echoes_arbitrary_payloads(p in payloads()) {
        echo_sequence(ProtocolKind::Farm, PollMode::Busy, &p);
    }

    #[test]
    fn rfp_event_polling_echoes_including_second_read(
        p in payloads(),
        big in prop::collection::vec(any::<u8>(), 1025..9000),
    ) {
        // A response above RFP's 1 KB first READ needs the follow-up READ.
        let mut p = p;
        p.push(big);
        echo_sequence(ProtocolKind::Rfp, PollMode::Event, &p);
    }

    #[test]
    fn herd_echoes_arbitrary_payloads(p in payloads()) {
        echo_sequence(ProtocolKind::Herd, PollMode::Busy, &p);
    }

    #[test]
    fn event_polling_echoes_too(p in payloads()) {
        for kind in [
            ProtocolKind::EagerSendRecv,
            ProtocolKind::DirectWriteImm,
            ProtocolKind::Pilaf,
            ProtocolKind::Farm,
        ] {
            echo_sequence(kind, PollMode::Event, &p);
        }
    }
}
