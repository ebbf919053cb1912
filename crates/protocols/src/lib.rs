//! # hat-protocols — the nine RDMA RPC protocols of HatRPC's Figure 3
//!
//! Each module implements one of the state-of-the-art RDMA communication
//! protocols the paper analyzes in §3, over the simulated verbs layer
//! ([`hat_rdma_sim`]), behind a uniform [`RpcClient`]/[`RpcServer`] API:
//!
//! | Protocol | Figure | Implementing type | Request path | Response path |
//! |---|---|---|---|---|
//! | Eager-SendRecv | 3a | [`EagerSendRecv`] | copy + SEND into pre-posted ring | copy + SEND |
//! | Direct-Write-Send | 3b | [`ChainedWriteSend`] (separate doorbells) | WRITE to pre-known buf + SEND notify (2 doorbells) | same |
//! | Chained-Write-Send | 3c | [`ChainedWriteSend`] | WRITE+SEND chained (1 doorbell) | same |
//! | Write-RNDV | 3d | [`rndv::WriteRndv`] | RTS → CTS → WRITE + FIN | same |
//! | Read-RNDV | 3e | [`rndv::ReadRndv`] | RTS(with rkey) → server READs | RTS → client READs → FIN |
//! | Direct-WriteIMM | 3f | [`DirectWriteImm`] | WRITE_WITH_IMM (1 WR) | WRITE_WITH_IMM |
//! | Pilaf | 3g | [`read_based::Pilaf`] | SEND | client: 2 READs metadata + 1 READ payload |
//! | FaRM | 3h | [`read_based::Farm`] | SEND | client: 1 READ metadata + 1 READ payload |
//! | RFP | 3i | [`read_based::Rfp`] | WRITE into server buf (server polls memory) | client READ-polls server buf |
//! | Hybrid-EagerRNDV | §4.3 | [`HybridEagerRndv`] | eager ≤ 4 KB else RTS + peer READ | same |
//! | HERD | §5.4 | [`herd::Herd`] | WRITE into server buf + SEND notify | copy + SEND |
//!
//! The HatRPC engine (`hatrpc-core`) selects among these per service or
//! function based on user hints; benchmarks compare them head-to-head to
//! regenerate the paper's Figures 4 and 5.
//!
//! The rows backed by [`pipeline::Windowed`] have one implementation each:
//! a window of [`ProtocolConfig::ring_slots`] in-flight requests, with
//! doorbell-batched posting and pooled zero-alloc response delivery
//! ([`pipeline::PipelinedClient`]). A depth-1 channel is a window of 1 —
//! see the [`pipeline`] module docs.

pub mod common;
pub mod herd;
pub mod onesided;
pub mod pipeline;
pub mod read_based;
pub mod rndv;

pub use common::{
    accept_server, connect_client, exchange_blobs, exchange_blobs_deadline, ProtocolConfig,
    ProtocolKind, RpcClient, RpcServer,
};
pub use herd::Herd;
pub use onesided::{
    onesided_service, FallbackReason, IndexBatch, OneSidedAdvert, OneSidedHost, OneSidedIndex,
    OneSidedReader,
};
pub use pipeline::{
    accept_server_reactor, ChainedWriteSend, DirectWriteImm, EagerSendRecv, HybridEagerRndv,
    PipelinedClient, ReactorServe, Token, Windowed, PIPELINED_KINDS,
};
pub use read_based::{Farm, Pilaf, Rfp};
pub use rndv::{ReadRndv, WriteRndv};
