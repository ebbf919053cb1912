//! Windowed RPC channels: the one implementation of Eager-SendRecv, the
//! Direct-Write family and Hybrid-EagerRNDV.
//!
//! A [`Windowed`] connection keeps up to `window` requests in flight (the
//! window is [`crate::ProtocolConfig::ring_slots`], which the engine sets
//! from the `queue_depth` hint). A depth-1 channel is the same code with a
//! window of 1: [`RpcClient::call`] is a submit, a flush and a wait.
//!
//! * [`PipelinedClient::submit`] stages a request and returns a [`Token`]
//!   immediately — **no doorbell is rung yet**. Consecutive submits
//!   accumulate into one work-request chain.
//! * [`PipelinedClient::flush`] posts every staged work request under a
//!   **single doorbell** (implicitly called by `try_complete`/`wait`, so a
//!   submit burst followed by a completion wait pays one MMIO total).
//! * [`PipelinedClient::try_complete`] / [`PipelinedClient::wait`] deliver
//!   responses as pooled [`PoolBuf`]s — after warmup the per-call hot path
//!   performs **zero heap allocations** (eager path; verified by the
//!   `zero_alloc` integration test).
//!
//! **One slot rule.** A submit claims *any* free window slot, and every
//! message carries that slot in-band (frame header, notify or immediate),
//! so both ends address their per-slot stripes by it and completions map
//! back to the right request even when fault injection reorders CQ
//! entries. The window is full only when `in_flight == window`: a response
//! that arrived but is not yet taken never blocks an unrelated submit. A
//! slot is recycled only once its response has been *taken* by the
//! caller, which doubles as flow control for the per-slot remote buffers —
//! no FIN or credit messages are needed.
//!
//! Both ends of a connection are the same [`Windowed`] type; the kinds
//! differ only in their [`Wire`]:
//!
//! | kind | message path | slot carried in | doorbells per flushed batch |
//! |------|--------------|-----------------|------------------------------|
//! | Eager-SendRecv | copy + SEND into the peer's receive ring | frame header | 1 |
//! | Direct-Write-Send | WRITE to a per-slot stripe, then SEND notify | notify | 1 per WR |
//! | Chained-Write-Send | WRITE + SEND notify, chained | notify | 1 |
//! | Direct-WriteIMM | WRITE_WITH_IMM into a per-slot stripe | immediate | 1 |
//! | Hybrid-EagerRNDV | eager frame, or RTS + peer READ above the threshold | frame header | 1 |
//!
//! The batching counters (`pipelined_calls`, `pipeline_doorbells`,
//! `inflight_hwm`) and the trace's `Flush`/`Burst` events describe
//! pipelining, so they fire only when the window is larger than 1.

use hat_rdma_sim::stats::NodeStats;
use hat_rdma_sim::{
    Completion, CompletionQueue, Endpoint, MemoryRegion, PoolBuf, RdmaError, RecvWr, RemoteBuf,
    Result, SendWr,
};

use crate::common::{
    charge_memcpy, poll_recv, CtrlRing, ProtocolConfig, ProtocolKind, RpcClient, RpcServer,
};

/// Identifies one submitted request. Tokens are sequential per channel,
/// starting at 0.
pub type Token = u64;

/// Client side of a pipelined RPC channel. See the module docs for the
/// submit/flush/complete protocol.
pub trait PipelinedClient: Send {
    /// Stage one request and return its token. Fails with
    /// [`RdmaError::WindowFull`] when every slot is taken — the caller must
    /// take a completed response (via [`Self::try_complete`] or
    /// [`Self::wait`]) before submitting more. No doorbell is rung until
    /// [`Self::flush`].
    fn submit(&mut self, request: &[u8]) -> Result<Token>;

    /// Post all staged work requests under a single doorbell. A no-op when
    /// nothing is staged. Called implicitly by the completion methods.
    fn flush(&mut self) -> Result<()>;

    /// Deliver one completed response if any is ready, lowest token first.
    /// Non-blocking: `Ok(None)` means nothing has completed yet.
    fn try_complete(&mut self) -> Result<Option<(Token, PoolBuf)>>;

    /// Block until the response for `token` arrives and return it. Errors
    /// on unknown/already-taken tokens and on channel failure.
    fn wait(&mut self, token: Token) -> Result<PoolBuf>;

    /// Non-blocking variant of [`Self::wait`]: flush staged work, drain
    /// whatever the CQ has ready, and take `token`'s response if it has
    /// arrived. `Ok(None)` means the response is still in flight — the
    /// substrate for async callers (a reactor or [`Future`]-style poll
    /// loop) that must never park a thread inside the channel. Errors on
    /// unknown/already-taken tokens and on channel failure, like `wait`.
    fn try_wait(&mut self, token: Token) -> Result<Option<PoolBuf>>;

    /// The window size: the maximum number of in-flight requests.
    fn window(&self) -> usize;

    /// Requests submitted but not yet taken by the caller.
    fn in_flight(&self) -> usize;

    /// Which protocol this channel speaks.
    fn kind(&self) -> ProtocolKind;
}

// ---------------------------------------------------------------------------
// Window bookkeeping.
// ---------------------------------------------------------------------------

enum Slot {
    /// No outstanding request maps here.
    Free,
    /// A request was submitted; its response has not arrived.
    Waiting(Token),
    /// The response arrived but the caller has not taken it yet.
    Ready(Token, PoolBuf),
}

/// Sliding-window state: token assignment, per-slot occupancy, and
/// out-of-order completion buffering.
struct Window {
    slots: Vec<Slot>,
    next_token: Token,
    in_flight: usize,
}

impl Window {
    fn new(window: usize) -> Window {
        Window { slots: (0..window).map(|_| Slot::Free).collect(), next_token: 0, in_flight: 0 }
    }

    fn len(&self) -> usize {
        self.slots.len()
    }

    /// Claim the next token and any free slot — the one slot-claim rule.
    /// Fails only when the window is genuinely full (`in_flight == len`).
    fn begin_any(&mut self) -> Result<(Token, usize)> {
        let Some(slot) = self.slots.iter().position(|s| matches!(s, Slot::Free)) else {
            return Err(RdmaError::WindowFull { in_flight: self.in_flight, window: self.len() });
        };
        let token = self.next_token;
        self.slots[slot] = Slot::Waiting(token);
        self.next_token += 1;
        self.in_flight += 1;
        Ok((token, slot))
    }

    /// Record the arrived response for the request holding `slot`.
    fn complete(&mut self, slot: usize, response: PoolBuf) -> Result<()> {
        match self.slots.get(slot) {
            Some(&Slot::Waiting(token)) => {
                self.slots[slot] = Slot::Ready(token, response);
                Ok(())
            }
            _ => Err(RdmaError::InvalidWorkRequest(format!(
                "response for slot {slot} does not match any in-flight request"
            ))),
        }
    }

    /// Take the lowest-token ready response, if any.
    fn take_any(&mut self) -> Option<(Token, PoolBuf)> {
        let i = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| match s {
                Slot::Ready(t, _) => Some((*t, i)),
                _ => None,
            })
            .min()?
            .1;
        match std::mem::replace(&mut self.slots[i], Slot::Free) {
            Slot::Ready(t, buf) => {
                self.in_flight -= 1;
                Some((t, buf))
            }
            _ => unreachable!("slot was just observed Ready"),
        }
    }

    /// Take the response for `token` if it arrived; `Ok(None)` while it is
    /// still in flight; an error if the token is unknown (never submitted
    /// or already taken).
    fn try_take(&mut self, token: Token) -> Result<Option<PoolBuf>> {
        for slot in 0..self.slots.len() {
            match &self.slots[slot] {
                Slot::Waiting(t) if *t == token => return Ok(None),
                Slot::Ready(t, _) if *t == token => {
                    match std::mem::replace(&mut self.slots[slot], Slot::Free) {
                        Slot::Ready(_, buf) => {
                            self.in_flight -= 1;
                            return Ok(Some(buf));
                        }
                        _ => unreachable!("slot was just observed Ready"),
                    }
                }
                _ => {}
            }
        }
        Err(RdmaError::InvalidWorkRequest(format!(
            "token {token} is not in flight on this channel"
        )))
    }
}

/// Charge one batched post of `batch` staged WRs to the pipeline
/// statistics, and mark the flush boundary on the trace timeline.
fn note_doorbell(ep: &Endpoint, batch: usize) {
    NodeStats::add(&ep.node().stats().pipeline_doorbells, 1);
    if hat_trace::enabled() {
        hat_trace::event(
            hat_trace::Phase::Flush,
            ep.node().id(),
            hat_trace::current_call(),
            batch as u64,
            hat_rdma_sim::now_ns(),
        );
    }
}

/// Mark a server-side burst drain of `n` requests on the trace timeline
/// (bursts serve many interleaved calls, so no single call id applies).
fn note_burst(ep: &Endpoint, n: usize) {
    if hat_trace::enabled() {
        hat_trace::event(
            hat_trace::Phase::Burst,
            ep.node().id(),
            0,
            n as u64,
            hat_rdma_sim::now_ns(),
        );
    }
}

/// Charge one submitted call and refresh the in-flight high-water mark.
fn note_submit(ep: &Endpoint, in_flight: usize) {
    let stats = ep.node().stats();
    NodeStats::add(&stats.pipelined_calls, 1);
    stats.note_inflight(in_flight as u64);
}

/// Reject payloads that exceed the per-slot capacity.
fn check_len(len: usize, max_msg: usize) -> Result<()> {
    if len > max_msg {
        return Err(RdmaError::InvalidWorkRequest(format!(
            "payload of {len} bytes exceeds the channel's {max_msg}-byte slot"
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The in-band header and the per-kind wires.
// ---------------------------------------------------------------------------

/// The in-band header every message carries: 4-byte length + 4-byte
/// window slot, little endian.
const HDR: usize = 8;

fn encode_hdr(len: usize, slot: usize) -> [u8; HDR] {
    let mut hdr = [0u8; HDR];
    hdr[..4].copy_from_slice(&(len as u32).to_le_bytes());
    hdr[4..].copy_from_slice(&(slot as u32).to_le_bytes());
    hdr
}

/// Decode a peer's header, bounding its length by `max_msg` before anyone
/// allocates for it.
fn decode_hdr(hdr: &[u8; HDR], max_msg: usize) -> Result<(usize, usize)> {
    let len = u32::from_le_bytes(hdr[..4].try_into().expect("4B")) as usize;
    let slot = u32::from_le_bytes(hdr[4..].try_into().expect("4B")) as usize;
    check_len(len, max_msg)?;
    Ok((len, slot))
}

/// What one windowed kind puts on the wire. Both ends of a connection
/// hold the same wire; [`Windowed`] drives it as client or server.
pub trait Wire: Send {
    /// Which protocol this wire speaks.
    fn kind(&self) -> ProtocolKind;

    /// Stage `payload` as the message for window `slot`, pushing the work
    /// requests that carry it onto `staged` (posted later, batched).
    fn stage(
        &mut self,
        ep: &Endpoint,
        slot: usize,
        payload: &[u8],
        staged: &mut Vec<SendWr>,
    ) -> Result<()>;

    /// Read the message behind one successful receive completion and
    /// recycle its receive; returns the message's window slot and payload.
    fn absorb(&mut self, ep: &Endpoint, comp: Completion) -> Result<(usize, PoolBuf)>;

    /// Post staged work requests: one chain under one doorbell, unless the
    /// kind's defining trait is a doorbell per work request.
    fn post(&self, ep: &Endpoint, staged: &[SendWr]) -> Result<()> {
        ep.post_send(staged)
    }
}

/// Eager-SendRecv (Figure 3a): each message is *copied* into a registered
/// send-ring slot and shipped with one SEND into the peer's pre-posted
/// receive ring. The copy on both ends is the cost — cheap for small
/// messages, prohibitive for large ones.
pub struct EagerWire {
    recv_ring: MemoryRegion,
    send_ring: MemoryRegion,
    slot_size: usize,
    window: usize,
}

impl EagerWire {
    fn open(ep: &Endpoint, cfg: &ProtocolConfig) -> Result<EagerWire> {
        let window = cfg.ring_slots;
        let slot_size = HDR + cfg.max_msg;
        let recv_ring = ep.pd().register(window * slot_size)?;
        for i in 0..window {
            ep.post_recv(RecvWr::new(i as u64, recv_ring.clone(), i * slot_size, slot_size))?;
        }
        let send_ring = ep.pd().register(window * slot_size)?;
        Ok(EagerWire { recv_ring, send_ring, slot_size, window })
    }
}

impl Wire for EagerWire {
    fn kind(&self) -> ProtocolKind {
        ProtocolKind::EagerSendRecv
    }

    fn stage(
        &mut self,
        ep: &Endpoint,
        slot: usize,
        payload: &[u8],
        staged: &mut Vec<SendWr>,
    ) -> Result<()> {
        let base = slot * self.slot_size;
        charge_memcpy(ep, payload.len());
        self.send_ring.write(base, &encode_hdr(payload.len(), slot))?;
        self.send_ring.write(base + HDR, payload)?;
        staged.push(SendWr::send(slot as u64, self.send_ring.slice(base, HDR + payload.len())));
        Ok(())
    }

    fn absorb(&mut self, ep: &Endpoint, comp: Completion) -> Result<(usize, PoolBuf)> {
        let base = (comp.wr_id as usize % self.window) * self.slot_size;
        let mut hdr = [0u8; HDR];
        self.recv_ring.read(base, &mut hdr)?;
        let (len, slot) = decode_hdr(&hdr, self.slot_size - HDR)?;
        // The receiver copies the payload out of the ring slot before
        // recycling it — the second half of Eager's copy cost.
        charge_memcpy(ep, len);
        let mut buf = PoolBuf::for_overwrite(len);
        self.recv_ring.read(base + HDR, buf.as_mut_slice())?;
        ep.post_recv(RecvWr::new(comp.wr_id, self.recv_ring.clone(), base, self.slot_size))?;
        Ok((slot, buf))
    }
}

/// Register the per-slot landing and staging stripes of a direct-write
/// wire and swap landing-stripe advertisements with the peer. Runs before
/// any receive is posted: receive queues are FIFO, so the handshake blob
/// must not race with ring receives.
fn direct_write_setup(
    ep: &Endpoint,
    stripes: usize,
) -> Result<(MemoryRegion, MemoryRegion, RemoteBuf)> {
    let in_ring = ep.pd().register(stripes)?;
    let out_stage = ep.pd().register(stripes)?;
    let peer_blob = crate::common::exchange_blobs(ep, &in_ring.remote_buf(0, stripes).encode())?;
    Ok((in_ring, out_stage, RemoteBuf::decode(&peer_blob)?))
}

/// The WRITE-plus-SEND-notify members of the direct-write family. Each
/// window slot owns a stripe of the peer's *pre-known, pre-registered*
/// buffer; a message is a zero-copy WRITE into that stripe plus an inline
/// SEND notify carrying the header.
///
/// * Chained-Write-Send (Figure 3c) posts the WRITE and the SEND as one
///   chain: **one doorbell**, saving a PCIe MMIO (HERD's trick).
/// * Direct-Write-Send (Figure 3b) posts them separately: **two
///   doorbells** per message.
///
/// The shared drawback (paper §4.3): the pre-known buffer is pinned per
/// connection and sized for the largest message, which is exactly what
/// the `res_util` hint steers away from.
pub struct ChainedWriteWire {
    in_ring: MemoryRegion,
    out_stage: MemoryRegion,
    peer_ring: RemoteBuf,
    notify: CtrlRing,
    max_msg: usize,
    separate_doorbells: bool,
}

impl ChainedWriteWire {
    fn open(
        ep: &Endpoint,
        cfg: &ProtocolConfig,
        separate_doorbells: bool,
    ) -> Result<ChainedWriteWire> {
        let (in_ring, out_stage, peer_ring) = direct_write_setup(ep, cfg.ring_slots * cfg.max_msg)?;
        let notify = CtrlRing::new(ep, cfg.ring_slots, HDR, cfg.op_timeout_ns)?;
        Ok(ChainedWriteWire {
            in_ring,
            out_stage,
            peer_ring,
            notify,
            max_msg: cfg.max_msg,
            separate_doorbells,
        })
    }
}

impl Wire for ChainedWriteWire {
    fn kind(&self) -> ProtocolKind {
        if self.separate_doorbells {
            ProtocolKind::DirectWriteSend
        } else {
            ProtocolKind::ChainedWriteSend
        }
    }

    fn stage(
        &mut self,
        _ep: &Endpoint,
        slot: usize,
        payload: &[u8],
        staged: &mut Vec<SendWr>,
    ) -> Result<()> {
        let base = slot * self.max_msg;
        // Serialize straight into the registered stripe: no memcpy is
        // charged, unlike Eager.
        self.out_stage.write(base, payload)?;
        let dst = self.peer_ring.sub(base as u64, payload.len() as u64);
        staged.push(SendWr::write(slot as u64, self.out_stage.slice(base, payload.len()), dst));
        staged.push(SendWr::send_inline(slot as u64, &encode_hdr(payload.len(), slot)));
        Ok(())
    }

    fn absorb(&mut self, _ep: &Endpoint, comp: Completion) -> Result<(usize, PoolBuf)> {
        let mut hdr = [0u8; HDR];
        self.notify.read_exact(comp, &mut hdr)?;
        let (len, slot) = decode_hdr(&hdr, self.max_msg)?;
        let mut buf = PoolBuf::for_overwrite(len);
        self.in_ring.read(slot * self.max_msg, buf.as_mut_slice())?;
        Ok((slot, buf))
    }

    fn post(&self, ep: &Endpoint, staged: &[SendWr]) -> Result<()> {
        if !self.separate_doorbells {
            return ep.post_send(staged);
        }
        for wr in staged {
            ep.post_send(std::slice::from_ref(wr))?;
        }
        Ok(())
    }
}

/// Direct-WriteIMM (Figure 3f): one WRITE_WITH_IMM per message into the
/// peer's per-slot stripe, the immediate naming the slot and an in-stripe
/// header giving the length — **one work request**, the fastest
/// small-message path in the paper's Figure 4.
pub struct WriteImmWire {
    in_ring: MemoryRegion,
    out_stage: MemoryRegion,
    peer_ring: RemoteBuf,
    /// Zero-length receive backing for WRITE_WITH_IMM completions.
    imm_recv: MemoryRegion,
    slot_size: usize,
}

impl WriteImmWire {
    fn open(ep: &Endpoint, cfg: &ProtocolConfig) -> Result<WriteImmWire> {
        let slot_size = HDR + cfg.max_msg;
        let (in_ring, out_stage, peer_ring) = direct_write_setup(ep, cfg.ring_slots * slot_size)?;
        let imm_recv = ep.pd().register(1)?;
        for i in 0..cfg.ring_slots {
            ep.post_recv(RecvWr::new(i as u64, imm_recv.clone(), 0, 0))?;
        }
        Ok(WriteImmWire { in_ring, out_stage, peer_ring, imm_recv, slot_size })
    }
}

impl Wire for WriteImmWire {
    fn kind(&self) -> ProtocolKind {
        ProtocolKind::DirectWriteImm
    }

    fn stage(
        &mut self,
        _ep: &Endpoint,
        slot: usize,
        payload: &[u8],
        staged: &mut Vec<SendWr>,
    ) -> Result<()> {
        let base = slot * self.slot_size;
        self.out_stage.write(base, &encode_hdr(payload.len(), slot))?;
        self.out_stage.write(base + HDR, payload)?;
        let total = HDR + payload.len();
        staged.push(SendWr::write_imm(
            slot as u64,
            self.out_stage.slice(base, total),
            self.peer_ring.sub(base as u64, total as u64),
            slot as u32,
        ));
        Ok(())
    }

    fn absorb(&mut self, ep: &Endpoint, comp: Completion) -> Result<(usize, PoolBuf)> {
        let slot = comp.imm.ok_or_else(|| {
            RdmaError::InvalidWorkRequest("WRITE_WITH_IMM completion carries no slot".into())
        })? as usize;
        let base = slot * self.slot_size;
        let mut hdr = [0u8; HDR];
        self.in_ring.read(base, &mut hdr)?;
        let (len, _) = decode_hdr(&hdr, self.slot_size - HDR)?;
        let mut buf = PoolBuf::for_overwrite(len);
        self.in_ring.read(base + HDR, buf.as_mut_slice())?;
        ep.post_recv(RecvWr::new(comp.wr_id, self.imm_recv.clone(), 0, 0))?;
        Ok((slot, buf))
    }
}

/// Hybrid frame header: 1-byte tag + the common header.
const HY_HDR: usize = 1 + HDR;
const HY_EAGER: u8 = 0;
const HY_RTS: u8 = 1;

/// Hybrid-EagerRNDV (§4.3, the design AR-gRPC ships and the baseline of
/// the paper's Figures 11–14): payloads at or below the threshold ride
/// eager frames; larger ones are staged in a per-slot rendezvous stripe
/// and advertised with an RTS carrying the stripe's rkey, which the peer
/// READs. Payloads just above the switch point pay the extra round trip —
/// visible in the Figure 11 reproduction right after 4 KB. The READ
/// completing is what releases the stripe, so no FIN is sent.
pub struct HybridWire {
    ring: MemoryRegion,
    eager_stage: MemoryRegion,
    rndv_stage: MemoryRegion,
    landing: MemoryRegion,
    slot_size: usize,
    cfg: ProtocolConfig,
}

impl HybridWire {
    fn open(ep: &Endpoint, cfg: &ProtocolConfig) -> Result<HybridWire> {
        let window = cfg.ring_slots;
        let slot_size = HY_HDR + cfg.eager_threshold.max(RemoteBuf::WIRE_SIZE);
        let ring = ep.pd().register(window * slot_size)?;
        for i in 0..window {
            ep.post_recv(RecvWr::new(i as u64, ring.clone(), i * slot_size, slot_size))?;
        }
        let eager_stage = ep.pd().register(window * slot_size)?;
        let rndv_stage = ep.pd().register(window * cfg.max_msg)?;
        let landing = ep.pd().register(window * cfg.max_msg)?;
        Ok(HybridWire { ring, eager_stage, rndv_stage, landing, slot_size, cfg: cfg.clone() })
    }

    fn write_frame(&self, base: usize, tag: u8, len: usize, slot: usize) -> Result<()> {
        self.eager_stage.write(base, &[tag])?;
        self.eager_stage.write(base + 1, &encode_hdr(len, slot))
    }
}

impl Wire for HybridWire {
    fn kind(&self) -> ProtocolKind {
        ProtocolKind::HybridEagerRndv
    }

    fn stage(
        &mut self,
        ep: &Endpoint,
        slot: usize,
        payload: &[u8],
        staged: &mut Vec<SendWr>,
    ) -> Result<()> {
        let fbase = slot * self.slot_size;
        let frame_len = if payload.len() <= self.cfg.eager_threshold {
            charge_memcpy(ep, payload.len());
            self.write_frame(fbase, HY_EAGER, payload.len(), slot)?;
            self.eager_stage.write(fbase + HY_HDR, payload)?;
            payload.len()
        } else {
            // Stage zero-copy in this slot's rendezvous stripe; the peer
            // READs it before the slot can possibly be reused.
            let sbase = slot * self.cfg.max_msg;
            self.rndv_stage.write(sbase, payload)?;
            let rb = self.rndv_stage.remote_buf(sbase, payload.len());
            self.write_frame(fbase, HY_RTS, payload.len(), slot)?;
            self.eager_stage.write(fbase + HY_HDR, &rb.encode())?;
            RemoteBuf::WIRE_SIZE
        };
        staged.push(SendWr::send(slot as u64, self.eager_stage.slice(fbase, HY_HDR + frame_len)));
        Ok(())
    }

    fn absorb(&mut self, ep: &Endpoint, comp: Completion) -> Result<(usize, PoolBuf)> {
        let base = (comp.wr_id as usize % self.cfg.ring_slots) * self.slot_size;
        let mut frame = [0u8; HY_HDR];
        self.ring.read(base, &mut frame)?;
        let (len, slot) = decode_hdr(frame[1..].try_into().expect("HDR bytes"), self.cfg.max_msg)?;
        let recycle = RecvWr::new(comp.wr_id, self.ring.clone(), base, self.slot_size);
        match frame[0] {
            HY_EAGER => {
                charge_memcpy(ep, len);
                let mut buf = PoolBuf::for_overwrite(len);
                self.ring.read(base + HY_HDR, buf.as_mut_slice())?;
                ep.post_recv(recycle)?;
                Ok((slot, buf))
            }
            HY_RTS => {
                let mut enc = [0u8; RemoteBuf::WIRE_SIZE];
                self.ring.read(base + HY_HDR, &mut enc)?;
                ep.post_recv(recycle)?;
                let src = RemoteBuf::decode(&enc)?;
                // READ the advertised payload into this slot's landing
                // stripe. Bounded by the op timeout, so a reactor drain
                // is slow here but never parks unboundedly.
                let dbase = slot * self.cfg.max_msg;
                ep.post_send(&[SendWr::read(
                    slot as u64,
                    self.landing.slice(dbase, len),
                    src.sub(0, len as u64),
                )
                .signaled()])?;
                ep.send_cq().poll_timeout(self.cfg.poll, self.cfg.op_timeout_ns)?.ok()?;
                let mut buf = PoolBuf::for_overwrite(len);
                self.landing.read(dbase, buf.as_mut_slice())?;
                Ok((slot, buf))
            }
            other => {
                Err(RdmaError::InvalidWorkRequest(format!("unexpected hybrid frame tag {other}")))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The windowed connection: one type for client, server and reactor.
// ---------------------------------------------------------------------------

/// A windowed connection over one [`Wire`]. The same type serves as
/// [`RpcClient`] + [`PipelinedClient`] on the dialing end and as
/// [`RpcServer`] + [`ReactorServe`] on the accepting end; a server echoes
/// each request's slot with its response.
pub struct Windowed<W> {
    ep: Endpoint,
    cfg: ProtocolConfig,
    wire: W,
    win: Window,
    staged: Vec<SendWr>,
}

/// Eager-SendRecv (Figure 3a).
pub type EagerSendRecv = Windowed<EagerWire>;
/// Direct-Write-Send (Figure 3b) and Chained-Write-Send (Figure 3c): one
/// type, differing only in doorbells per message.
pub type ChainedWriteSend = Windowed<ChainedWriteWire>;
/// Direct-WriteIMM (Figure 3f).
pub type DirectWriteImm = Windowed<WriteImmWire>;
/// Hybrid-EagerRNDV (§4.3).
pub type HybridEagerRndv = Windowed<HybridWire>;

impl<W: Wire> Windowed<W> {
    fn open(
        ep: Endpoint,
        cfg: ProtocolConfig,
        wire: impl FnOnce(&Endpoint, &ProtocolConfig) -> Result<W>,
    ) -> Result<Windowed<W>> {
        let wire = wire(&ep, &cfg)?;
        let window = cfg.ring_slots;
        Ok(Windowed {
            ep,
            cfg,
            wire,
            win: Window::new(window),
            staged: Vec::with_capacity(2 * window),
        })
    }

    /// Whether this connection pipelines at all: the batching counters
    /// and trace events describe windows larger than 1 only.
    fn pipelining(&self) -> bool {
        self.win.len() > 1
    }

    /// Post everything staged under the wire's doorbell rule.
    fn post_staged(&mut self) -> Result<()> {
        if self.staged.is_empty() {
            return Ok(());
        }
        self.wire.post(&self.ep, &self.staged)?;
        if self.pipelining() {
            note_doorbell(&self.ep, self.staged.len());
        }
        self.staged.clear();
        Ok(())
    }

    /// Read one arrived response into its window slot.
    fn absorb(&mut self, comp: Completion) -> Result<()> {
        let (slot, buf) = self.wire.absorb(&self.ep, comp.ok()?)?;
        self.win.complete(slot, buf)
    }

    /// Drain every response the CQ has ready, without blocking.
    fn pump(&mut self) -> Result<()> {
        while let Some(comp) = self.ep.recv_cq().try_poll() {
            self.absorb(comp)?;
        }
        Ok(())
    }

    /// Serve the request behind one receive completion, staging (not
    /// posting) its response for the same slot.
    fn respond(
        &mut self,
        comp: Completion,
        handler: &mut dyn FnMut(&[u8]) -> Vec<u8>,
    ) -> Result<()> {
        let (slot, request) = self.wire.absorb(&self.ep, comp.ok()?)?;
        let response = handler(request.as_slice());
        check_len(response.len(), self.cfg.max_msg)?;
        self.wire.stage(&self.ep, slot, &response, &mut self.staged)
    }

    /// Serve `first` plus the requests already queued behind it (up to a
    /// window's worth), and post the whole burst's responses together.
    fn serve_burst(
        &mut self,
        first: Completion,
        handler: &mut dyn FnMut(&[u8]) -> Vec<u8>,
    ) -> Result<usize> {
        self.respond(first, handler)?;
        let mut served = 1;
        while served < self.win.len() {
            let Some(comp) = self.ep.recv_cq().try_poll() else { break };
            self.respond(comp, handler)?;
            served += 1;
        }
        if self.pipelining() {
            note_burst(&self.ep, served);
        }
        self.post_staged()?;
        Ok(served)
    }
}

impl<W: Wire> PipelinedClient for Windowed<W> {
    fn submit(&mut self, request: &[u8]) -> Result<Token> {
        check_len(request.len(), self.cfg.max_msg)?;
        let (token, slot) = self.win.begin_any()?;
        self.wire.stage(&self.ep, slot, request, &mut self.staged)?;
        if self.pipelining() {
            note_submit(&self.ep, self.win.in_flight);
        }
        Ok(token)
    }

    fn flush(&mut self) -> Result<()> {
        self.post_staged()
    }

    fn try_complete(&mut self) -> Result<Option<(Token, PoolBuf)>> {
        self.flush()?;
        if let Some(done) = self.win.take_any() {
            return Ok(Some(done));
        }
        self.pump()?;
        Ok(self.win.take_any())
    }

    fn wait(&mut self, token: Token) -> Result<PoolBuf> {
        self.flush()?;
        loop {
            // Drain the whole ready batch before (possibly) blocking: the
            // peer posts response bursts under one doorbell, and absorbing
            // them together frees a burst of slots for the caller to refill
            // under one doorbell of its own.
            self.pump()?;
            if let Some(buf) = self.win.try_take(token)? {
                return Ok(buf);
            }
            let comp = poll_recv(&self.ep, self.cfg.poll, self.cfg.op_timeout_ns)?
                .ok_or(RdmaError::Disconnected)?;
            self.absorb(comp)?;
        }
    }

    fn try_wait(&mut self, token: Token) -> Result<Option<PoolBuf>> {
        self.flush()?;
        self.pump()?;
        self.win.try_take(token)
    }

    fn window(&self) -> usize {
        self.win.len()
    }

    fn in_flight(&self) -> usize {
        self.win.in_flight
    }

    fn kind(&self) -> ProtocolKind {
        self.wire.kind()
    }
}

impl<W: Wire> RpcClient for Windowed<W> {
    fn call(&mut self, request: &[u8]) -> Result<Vec<u8>> {
        let token = self.submit(request)?;
        Ok(self.wait(token)?.to_vec())
    }

    fn kind(&self) -> ProtocolKind {
        self.wire.kind()
    }

    fn pipelined(&mut self) -> Option<&mut dyn PipelinedClient> {
        Some(self)
    }
}

impl<W: Wire> RpcServer for Windowed<W> {
    fn serve_one(&mut self, handler: &mut dyn FnMut(&[u8]) -> Vec<u8>) -> Result<bool> {
        let Some(comp) = poll_recv(&self.ep, self.cfg.poll, self.cfg.op_timeout_ns)? else {
            return Ok(false);
        };
        self.respond(comp, handler)?;
        self.post_staged()?;
        Ok(true)
    }

    fn serve_loop(&mut self, handler: &mut dyn FnMut(&[u8]) -> Vec<u8>) -> Result<()> {
        // Block for the head of a burst, then drain the rest without
        // blocking; the burst's responses ride one doorbell.
        while let Some(first) = poll_recv(&self.ep, self.cfg.poll, self.cfg.op_timeout_ns)? {
            self.serve_burst(first, handler)?;
        }
        Ok(())
    }

    fn kind(&self) -> ProtocolKind {
        self.wire.kind()
    }
}

// ---------------------------------------------------------------------------
// Reactor-driven serving.
// ---------------------------------------------------------------------------

/// Server side of a windowed channel driven by an external reactor
/// instead of a dedicated blocking thread.
///
/// [`RpcServer::serve_loop`] owns its thread and parks it inside
/// `poll_recv` whenever the connection goes quiet; a reactor driver can
/// afford neither. `ReactorServe` inverts the control flow: the reactor
/// watches the connection's receive CQ (via [`Self::cq`] +
/// [`hat_rdma_sim::CqWaker`] registration), and calls [`Self::drain`] when
/// completions may be ready. `drain` serves every request whose completion
/// is ready *now* and returns without ever parking, so one driver thread
/// can resume thousands of connections.
pub trait ReactorServe: Send {
    /// Serve every ready request, posting responses doorbell-batched.
    /// Returns how many requests were served; `Ok(0)` means the CQ had
    /// nothing ready. An error poisons the connection — the reactor
    /// retires it.
    fn drain(&mut self, handler: &mut dyn FnMut(&[u8]) -> Vec<u8>) -> Result<usize>;

    /// The CQ this connection's request completions arrive on — the
    /// reactor registers its waker here and uses queue depth /
    /// `next_ready_at` to bound its park and gate shutdown drains.
    fn cq(&self) -> &CompletionQueue;

    /// False once the peer disconnected or a node died; the reactor
    /// retires the connection after a final drain.
    fn is_open(&self) -> bool;

    /// Which protocol this connection speaks.
    fn kind(&self) -> ProtocolKind;
}

impl<W: Wire> ReactorServe for Windowed<W> {
    fn drain(&mut self, handler: &mut dyn FnMut(&[u8]) -> Vec<u8>) -> Result<usize> {
        let mut served = 0;
        while let Some(first) = self.ep.recv_cq().try_poll() {
            served += self.serve_burst(first, handler)?;
        }
        Ok(served)
    }

    fn cq(&self) -> &CompletionQueue {
        self.ep.recv_cq()
    }

    fn is_open(&self) -> bool {
        self.ep.is_alive()
    }

    fn kind(&self) -> ProtocolKind {
        self.wire.kind()
    }
}

// ---------------------------------------------------------------------------
// Factories.
// ---------------------------------------------------------------------------

/// One windowed connection, usable as client, server or reactor state
/// machine.
pub(crate) trait WindowedConn: RpcClient + RpcServer + ReactorServe {}

impl<W: Wire> WindowedConn for Windowed<W> {}

/// Open the windowed implementation of `kind` over a connected endpoint —
/// the same call on both ends. The window is `cfg.ring_slots`. Errors for
/// kinds without a windowed implementation.
pub(crate) fn open_windowed(
    kind: ProtocolKind,
    ep: Endpoint,
    cfg: ProtocolConfig,
) -> Result<Box<dyn WindowedConn>> {
    if cfg.ring_slots == 0 {
        return Err(RdmaError::InvalidWorkRequest("a window needs at least one slot".into()));
    }
    Ok(match kind {
        ProtocolKind::EagerSendRecv => Box::new(Windowed::open(ep, cfg, EagerWire::open)?),
        ProtocolKind::DirectWriteSend => {
            Box::new(Windowed::open(ep, cfg, |ep, cfg| ChainedWriteWire::open(ep, cfg, true))?)
        }
        ProtocolKind::ChainedWriteSend => {
            Box::new(Windowed::open(ep, cfg, |ep, cfg| ChainedWriteWire::open(ep, cfg, false))?)
        }
        ProtocolKind::DirectWriteImm => Box::new(Windowed::open(ep, cfg, WriteImmWire::open)?),
        ProtocolKind::HybridEagerRndv => Box::new(Windowed::open(ep, cfg, HybridWire::open)?),
        other => {
            return Err(RdmaError::InvalidWorkRequest(format!(
                "{other} has no windowed implementation"
            )))
        }
    })
}

/// Construct the reactor-driven server end of a windowed channel of
/// `kind`. Wire-compatible with [`crate::connect_client`] clients — the
/// client cannot tell whether a thread or a reactor serves it.
pub fn accept_server_reactor(
    kind: ProtocolKind,
    ep: Endpoint,
    cfg: ProtocolConfig,
) -> Result<Box<dyn ReactorServe>> {
    Ok(open_windowed(kind, ep, cfg)?)
}

/// The protocols whose `queue_depth` hint opens a window larger than 1
/// (Direct-Write-Send stays at depth 1: two doorbells per message is its
/// defining trait).
pub const PIPELINED_KINDS: [ProtocolKind; 4] = [
    ProtocolKind::EagerSendRecv,
    ProtocolKind::ChainedWriteSend,
    ProtocolKind::DirectWriteImm,
    ProtocolKind::HybridEagerRndv,
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::tests_support::{echo_pair, run_echo_calls};
    use crate::{accept_server, connect_client};
    use hat_rdma_sim::{Fabric, Node, SimConfig};
    use std::sync::Arc;

    struct PipePair {
        client: Box<dyn RpcClient>,
        cnode: Arc<Node>,
        server: std::thread::JoinHandle<()>,
        _fabric: Fabric,
    }

    impl PipePair {
        fn pipe(&mut self) -> &mut dyn PipelinedClient {
            self.client.pipelined().expect("windowed kinds expose their window")
        }
    }

    /// Connected windowed client plus a server thread echoing `reverse`d
    /// payloads until disconnect.
    fn echo_pipe(kind: ProtocolKind, cfg: ProtocolConfig) -> PipePair {
        echo_pipe_on(Fabric::new(SimConfig::fast_test()), kind, cfg)
    }

    fn echo_pipe_on(fabric: Fabric, kind: ProtocolKind, cfg: ProtocolConfig) -> PipePair {
        let cnode = fabric.add_node("client");
        let snode = fabric.add_node("server");
        let (cep, sep) = fabric.connect(&cnode, &snode).unwrap();
        let scfg = cfg.clone();
        let server = std::thread::spawn(move || {
            let mut s = accept_server(kind, sep, scfg).unwrap();
            s.serve_loop(&mut |req| {
                let mut r = req.to_vec();
                r.reverse();
                r
            })
            .unwrap();
        });
        let client = connect_client(kind, cep, cfg).unwrap();
        PipePair { client, cnode, server, _fabric: fabric }
    }

    fn patterned(i: usize, size: usize) -> Vec<u8> {
        (0..size).map(|j| ((i * 31 + j) % 251) as u8).collect()
    }

    fn reversed(i: usize, size: usize) -> Vec<u8> {
        let mut v = patterned(i, size);
        v.reverse();
        v
    }

    #[test]
    fn eager_roundtrips_small_and_medium_messages() {
        run_echo_calls(ProtocolKind::EagerSendRecv, &[4, 512, 4096]);
    }

    #[test]
    fn direct_write_family_roundtrips() {
        for kind in [
            ProtocolKind::DirectWriteSend,
            ProtocolKind::ChainedWriteSend,
            ProtocolKind::DirectWriteImm,
        ] {
            run_echo_calls(kind, &[4, 512, 4096, 65536]);
        }
    }

    #[test]
    fn hybrid_roundtrips_across_the_threshold() {
        // 4096 rides eager; 4097 and up take the rendezvous path.
        run_echo_calls(ProtocolKind::HybridEagerRndv, &[16, 4096, 4097, 131072]);
    }

    #[test]
    fn eager_charges_copies_on_both_sides() {
        let (mut client, mut server) =
            echo_pair(ProtocolKind::EagerSendRecv, ProtocolConfig::small());
        let h = std::thread::spawn(move || {
            server.serve_one(&mut |req| req.to_vec()).unwrap();
            server
        });
        let before = client.node_memcpys();
        client.call(&[7u8; 1024]).unwrap();
        let server = h.join().unwrap();
        assert!(client.node_memcpys() > before, "client must pay the eager copy");
        assert!(server.node_memcpys() > 0, "server must pay the eager copy");
    }

    /// The microarchitectural claim behind Figure 3c: chaining saves one
    /// doorbell per message relative to Direct-Write-Send.
    #[test]
    fn chained_rings_fewer_doorbells_than_separate() {
        let count_doorbells = |kind| {
            let (mut client, mut server) =
                echo_pair(kind, ProtocolConfig { max_msg: 1024, ..Default::default() });
            let h = std::thread::spawn(move || {
                for _ in 0..8 {
                    server.serve_one(&mut |r| r.to_vec()).unwrap();
                }
                server
            });
            let before = client.node().stats_snapshot().doorbells;
            for _ in 0..8 {
                client.call(&[1u8; 128]).unwrap();
            }
            let after = client.node().stats_snapshot().doorbells;
            h.join().unwrap();
            after - before
        };
        let separate = count_doorbells(ProtocolKind::DirectWriteSend);
        let chained = count_doorbells(ProtocolKind::ChainedWriteSend);
        assert_eq!(separate, 16, "8 calls x (WRITE + SEND) doorbells");
        assert_eq!(chained, 8, "8 calls x 1 chained doorbell");
    }

    #[test]
    fn imm_uses_single_work_request_per_message() {
        let (mut client, mut server) = echo_pair(
            ProtocolKind::DirectWriteImm,
            ProtocolConfig { max_msg: 1024, ..Default::default() },
        );
        let h = std::thread::spawn(move || {
            server.serve_one(&mut |r| r.to_vec()).unwrap();
            server
        });
        let before = client.node().stats_snapshot().wrs_posted;
        client.call(&[1u8; 64]).unwrap();
        let after = client.node().stats_snapshot().wrs_posted;
        h.join().unwrap();
        assert_eq!(after - before, 1, "one WRITE_WITH_IMM per request");
    }

    #[test]
    fn hybrid_small_messages_use_eager_copies_large_do_not() {
        let (mut client, mut server) =
            echo_pair(ProtocolKind::HybridEagerRndv, ProtocolConfig::default());
        // The server outlives the calls: with no FIN, its last rendezvous
        // reply stays staged in its memory until the client READs it.
        let h = std::thread::spawn(move || {
            for _ in 0..2 {
                server.serve_one(&mut |r| r.to_vec()).unwrap();
            }
            server
        });
        let m0 = client.node_memcpys();
        client.call(&[1u8; 128]).unwrap();
        let m1 = client.node_memcpys();
        assert!(m1 > m0, "small payload pays the eager copy");
        client.call(&[2u8; 64 * 1024]).unwrap();
        // The 64 KB payload moves zero-copy in both directions, and no
        // FIN control message is sent.
        assert_eq!(client.node_memcpys(), m1, "rendezvous path must not copy");
        h.join().unwrap();
    }

    #[test]
    fn server_sees_disconnect() {
        for kind in [
            ProtocolKind::EagerSendRecv,
            ProtocolKind::DirectWriteSend,
            ProtocolKind::ChainedWriteSend,
            ProtocolKind::DirectWriteImm,
            ProtocolKind::HybridEagerRndv,
        ] {
            let (client, mut server) =
                echo_pair(kind, ProtocolConfig { max_msg: 256, ..Default::default() });
            drop(client);
            assert!(!server.serve_one(&mut |r| r.to_vec()).unwrap(), "{kind}");
        }
    }

    #[test]
    fn full_window_roundtrips_for_every_pipelined_kind() {
        for kind in PIPELINED_KINDS {
            let cfg = ProtocolConfig { max_msg: 1024, ring_slots: 8, ..Default::default() };
            let mut pair = echo_pipe(kind, cfg);
            // Two window laps to prove slot recycling.
            for lap in 0..2 {
                let tokens: Vec<Token> = (0..8)
                    .map(|i| pair.pipe().submit(&patterned(lap * 8 + i, 64 + i)).unwrap())
                    .collect();
                assert_eq!(pair.pipe().in_flight(), 8, "{kind}");
                for (i, &t) in tokens.iter().enumerate() {
                    let resp = pair.pipe().wait(t).unwrap();
                    assert_eq!(resp.as_slice(), &reversed(lap * 8 + i, 64 + i)[..], "{kind} {t}");
                }
                assert_eq!(pair.pipe().in_flight(), 0, "{kind}");
            }
            drop(pair.client);
            pair.server.join().unwrap();
        }
    }

    /// Responses can be taken in any order, and a taken slot is free at
    /// once: after taking only the newest response of a full window, one
    /// more submit must succeed even though every older response is still
    /// waiting (arrived or not) in its slot.
    #[test]
    fn responses_can_be_taken_out_of_submission_order() {
        for kind in PIPELINED_KINDS {
            let cfg = ProtocolConfig { max_msg: 512, ring_slots: 4, ..Default::default() };
            let mut pair = echo_pipe(kind, cfg);
            let tokens: Vec<Token> =
                (0..4).map(|i| pair.pipe().submit(&patterned(i, 32)).unwrap()).collect();
            let newest = tokens[3];
            let resp = pair.pipe().wait(newest).unwrap();
            assert_eq!(resp.as_slice(), &reversed(3, 32)[..], "{kind} token {newest}");
            let extra = pair.pipe().submit(&patterned(4, 32)).unwrap_or_else(|e| {
                panic!("{kind}: a taken slot must be reusable at once, got {e}")
            });
            // Take the rest newest-first; earlier responses buffer.
            for &t in tokens[..3].iter().rev().chain([&extra]) {
                let resp = pair.pipe().wait(t).unwrap();
                assert_eq!(resp.as_slice(), &reversed(t as usize, 32)[..], "{kind} token {t}");
            }
            drop(pair.client);
            pair.server.join().unwrap();
        }
    }

    #[test]
    fn try_complete_delivers_lowest_token_first() {
        let cfg = ProtocolConfig { max_msg: 256, ring_slots: 4, ..Default::default() };
        let mut pair = echo_pipe(ProtocolKind::EagerSendRecv, cfg);
        let tokens: Vec<Token> =
            (0..4).map(|i| pair.pipe().submit(&patterned(i, 16)).unwrap()).collect();
        let mut got = Vec::new();
        while got.len() < 4 {
            if let Some((t, _)) = pair.pipe().try_complete().unwrap() {
                got.push(t);
            }
        }
        assert_eq!(got, tokens, "lowest-token-first delivery");
        drop(pair.client);
        pair.server.join().unwrap();
    }

    #[test]
    fn window_full_is_reported_not_silently_dropped() {
        let cfg = ProtocolConfig { max_msg: 256, ring_slots: 2, ..Default::default() };
        let mut pair = echo_pipe(ProtocolKind::EagerSendRecv, cfg);
        let t0 = pair.pipe().submit(&[1u8; 8]).unwrap();
        let _t1 = pair.pipe().submit(&[2u8; 8]).unwrap();
        let err = pair.pipe().submit(&[3u8; 8]).unwrap_err();
        assert_eq!(err, RdmaError::WindowFull { in_flight: 2, window: 2 });
        // Taking one response frees a slot.
        pair.pipe().wait(t0).unwrap();
        let t2 = pair.pipe().submit(&[3u8; 8]).unwrap();
        pair.pipe().wait(t2).unwrap();
        drop(pair.client);
        pair.server.join().unwrap();
    }

    /// The doorbell-batching claim: a burst of submits followed by one
    /// flush rings exactly one doorbell, for every pipelined protocol.
    #[test]
    fn submit_burst_flushes_under_one_doorbell() {
        for kind in PIPELINED_KINDS {
            let cfg = ProtocolConfig { max_msg: 512, ring_slots: 8, ..Default::default() };
            let mut pair = echo_pipe(kind, cfg);
            // Warm up (handshake traffic also rings doorbells).
            let t = pair.pipe().submit(&[9u8; 16]).unwrap();
            pair.pipe().wait(t).unwrap();
            let before = pair.cnode.stats_snapshot();
            let tokens: Vec<Token> =
                (0..8).map(|i| pair.pipe().submit(&patterned(i, 64)).unwrap()).collect();
            pair.pipe().flush().unwrap();
            let delta = pair.cnode.stats_snapshot() - before;
            assert_eq!(delta.doorbells, 1, "{kind}: 8 staged submits must post under one doorbell");
            assert_eq!(delta.pipeline_doorbells, 1, "{kind}");
            assert_eq!(delta.pipelined_calls, 8, "{kind}");
            let after = pair.cnode.stats_snapshot();
            assert!(after.inflight_hwm >= 8, "{kind}: high-water mark saw the full window");
            for &t in &tokens {
                pair.pipe().wait(t).unwrap();
            }
            drop(pair.client);
            pair.server.join().unwrap();
        }
    }

    /// A window of 1 is a plain channel: calls ride it, but nothing is
    /// counted as pipelining.
    #[test]
    fn depth_one_calls_leave_the_pipeline_counters_alone() {
        for kind in PIPELINED_KINDS {
            let mut pair = echo_pipe(kind, ProtocolConfig { max_msg: 512, ..Default::default() });
            for i in 0..4 {
                assert_eq!(pair.client.call(&patterned(i, 64)).unwrap(), reversed(i, 64));
            }
            let stats = pair.cnode.stats_snapshot();
            assert_eq!(stats.pipelined_calls, 0, "{kind}");
            assert_eq!(stats.pipeline_doorbells, 0, "{kind}");
            assert_eq!(stats.inflight_hwm, 0, "{kind}");
            drop(pair.client);
            pair.server.join().unwrap();
        }
    }

    #[test]
    fn hybrid_pipelines_across_the_threshold() {
        let cfg = ProtocolConfig {
            max_msg: 128 * 1024,
            ring_slots: 4,
            eager_threshold: 4096,
            ..Default::default()
        };
        let mut pair = echo_pipe(ProtocolKind::HybridEagerRndv, cfg);
        // Mix small (eager) and large (rendezvous) in the same window.
        let sizes = [64usize, 100_000, 4096, 70_000];
        let tokens: Vec<Token> = sizes
            .iter()
            .enumerate()
            .map(|(i, &s)| pair.pipe().submit(&patterned(i, s)).unwrap())
            .collect();
        for (i, &t) in tokens.iter().enumerate() {
            let resp = pair.pipe().wait(t).unwrap();
            assert_eq!(resp.as_slice(), &reversed(i, sizes[i])[..], "size {}", sizes[i]);
        }
        drop(pair.client);
        pair.server.join().unwrap();
    }

    /// Fault injection: delayed completions may reorder arrival at the CQ;
    /// slots ride the frames, so every response still lands on the right
    /// request.
    #[test]
    fn delayed_completions_still_map_to_the_right_tokens() {
        let plan = hat_rdma_sim::FaultPlan::new(0xFEED).delay_completions(
            hat_rdma_sim::FaultScope::AllNodes,
            hat_rdma_sim::DelayDistribution::Uniform { min_ns: 0, max_ns: 2_000_000 },
        );
        let fabric = Fabric::new(SimConfig::fast_test().with_fault_plan(plan));
        let cfg = ProtocolConfig { max_msg: 512, ring_slots: 8, ..Default::default() };
        let mut pair = echo_pipe_on(fabric, ProtocolKind::EagerSendRecv, cfg);
        for lap in 0..4 {
            let tokens: Vec<Token> =
                (0..8).map(|i| pair.pipe().submit(&patterned(lap * 8 + i, 48)).unwrap()).collect();
            for (i, &t) in tokens.iter().enumerate() {
                let resp = pair.pipe().wait(t).unwrap();
                assert_eq!(resp.as_slice(), &reversed(lap * 8 + i, 48)[..], "token {t}");
            }
        }
        drop(pair.client);
        pair.server.join().unwrap();
    }

    #[test]
    fn oversized_header_lengths_are_rejected_before_allocating() {
        assert_eq!(decode_hdr(&encode_hdr(512, 3), 512).unwrap(), (512, 3));
        assert!(decode_hdr(&encode_hdr(u32::MAX as usize, 0), 512).is_err());
    }

    #[test]
    fn kinds_without_a_window_are_rejected() {
        let fabric = Fabric::new(SimConfig::fast_test());
        let a = fabric.add_node("a");
        let b = fabric.add_node("b");
        let (ea, _eb) = fabric.connect(&a, &b).unwrap();
        match accept_server_reactor(ProtocolKind::Pilaf, ea, ProtocolConfig::default()) {
            Err(err) => assert!(err.to_string().contains("no windowed implementation")),
            Ok(_) => panic!("Pilaf must not have a windowed implementation"),
        }
    }
}
