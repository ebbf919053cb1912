//! Rendezvous protocols (paper Figures 3d, 3e).
//!
//! Rendezvous trades round trips for memory efficiency: instead of pinning
//! a max-sized buffer per connection, the two sides exchange payload
//! metadata first and move the data zero-copy afterwards. MPI stacks have
//! shipped both flavours for decades:
//!
//! * [`WriteRndv`] — the initiator announces (RTS), the target allocates
//!   and advertises a landing buffer (CTS), the initiator RDMA-WRITEs the
//!   payload and finishes with a FIN. Three control messages + one data
//!   transfer per direction.
//! * [`ReadRndv`] — the initiator's RTS *carries* the rkey of its staged
//!   payload; the target RDMA-READs it directly. One control message +
//!   one data transfer (the READ) per direction, plus a FIN so the
//!   initiator can reuse its staging buffer.
//!
//! Both keep server memory proportional to *active* transfers (a pooled
//! buffer) rather than to connection count — why Figure 6 maps the
//! `res_util` hint to RNDV for large messages.

use hat_rdma_sim::{Endpoint, MemoryRegion, RemoteBuf, Result, SendWr};

use crate::common::{CtrlRing, ProtocolConfig, ProtocolKind, RpcClient, RpcServer};

/// Control-message tags shared by both rendezvous flavours.
mod tag {
    pub const RTS: u8 = 1;
    pub const CTS: u8 = 2;
    pub const FIN: u8 = 3;
}

/// Encode a control message: tag byte + optional u64 len + optional RemoteBuf.
fn ctrl_msg(tag: u8, len: usize, buf: Option<&RemoteBuf>) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + 8 + RemoteBuf::WIRE_SIZE);
    out.push(tag);
    out.extend_from_slice(&(len as u64).to_le_bytes());
    if let Some(b) = buf {
        out.extend_from_slice(&b.encode());
    }
    out
}

/// Decode a control message produced by [`ctrl_msg`].
fn parse_ctrl(msg: &[u8]) -> Result<(u8, usize, Option<RemoteBuf>)> {
    if msg.len() < 9 {
        return Err(hat_rdma_sim::RdmaError::InvalidWorkRequest(format!(
            "short rendezvous control message ({} bytes)",
            msg.len()
        )));
    }
    let tag = msg[0];
    let len = u64::from_le_bytes(msg[1..9].try_into().expect("8 bytes")) as usize;
    let buf = if msg.len() >= 9 + RemoteBuf::WIRE_SIZE {
        Some(RemoteBuf::decode(&msg[9..])?)
    } else {
        None
    };
    Ok((tag, len, buf))
}

/// Shared state for both rendezvous flavours: a control ring plus a pooled
/// data buffer (allocated lazily, reused across transfers).
struct Rndv {
    ep: Endpoint,
    cfg: ProtocolConfig,
    ctrl: CtrlRing,
    /// Pooled staging/landing buffer (the paper's pre-registered buffer
    /// pool, reduced to one slot because calls are synchronous).
    pool: MemoryRegion,
}

/// Control slot size: tag + len + RemoteBuf.
/// Control-ring depth. Fixed: these kinds serve one call at a time, so
/// [`ProtocolConfig::ring_slots`] (the window of the windowed kinds) does
/// not apply.
const RING_SLOTS: usize = 16;
const CTRL_SLOT: usize = 1 + 8 + RemoteBuf::WIRE_SIZE;

impl Rndv {
    fn new(ep: Endpoint, cfg: ProtocolConfig) -> Result<Rndv> {
        let ctrl = CtrlRing::new(&ep, RING_SLOTS, CTRL_SLOT, cfg.op_timeout_ns)?;
        let pool = ep.pd().register(cfg.max_msg)?;
        Ok(Rndv { ep, cfg, ctrl, pool })
    }

    /// Receive a control message of the expected tag (or disconnect).
    fn expect_ctrl(&self, want: u8) -> Result<Option<(usize, Option<RemoteBuf>)>> {
        let Some(msg) = self.ctrl.recv(self.cfg.poll)? else { return Ok(None) };
        let (tag, len, buf) = parse_ctrl(&msg)?;
        if tag != want {
            return Err(hat_rdma_sim::RdmaError::InvalidWorkRequest(format!(
                "rendezvous expected tag {want}, got {tag}"
            )));
        }
        Ok(Some((len, buf)))
    }
}

/// WRITE-based rendezvous (Figure 3d). See module docs.
pub struct WriteRndv {
    inner: Rndv,
}

impl WriteRndv {
    /// Build the client side.
    pub fn client(ep: Endpoint, cfg: ProtocolConfig) -> Result<WriteRndv> {
        Ok(WriteRndv { inner: Rndv::new(ep, cfg)? })
    }

    /// Build the server side.
    pub fn server(ep: Endpoint, cfg: ProtocolConfig) -> Result<WriteRndv> {
        Ok(WriteRndv { inner: Rndv::new(ep, cfg)? })
    }

    /// Initiator side of one WRITE-rendezvous transfer.
    fn send_msg(&self, data: &[u8]) -> Result<()> {
        let r = &self.inner;
        if data.len() > r.cfg.max_msg {
            return Err(hat_rdma_sim::RdmaError::InvalidWorkRequest(format!(
                "payload of {} bytes exceeds the rendezvous pool ({} bytes)",
                data.len(),
                r.cfg.max_msg
            )));
        }
        // RTS: announce length.
        r.ctrl.send(0, &ctrl_msg(tag::RTS, data.len(), None))?;
        // CTS: the target's landing buffer.
        let Some((_, Some(dst))) = r.expect_ctrl(tag::CTS)? else {
            return Err(hat_rdma_sim::RdmaError::Disconnected);
        };
        // Stage and WRITE the payload, then FIN.
        r.pool.write(0, data)?;
        r.ep.post_send(&[
            SendWr::write(1, r.pool.slice(0, data.len()), dst.sub(0, data.len() as u64)),
            SendWr::send_inline(2, &ctrl_msg(tag::FIN, data.len(), None)),
        ])?;
        Ok(())
    }

    /// Target side of one WRITE-rendezvous transfer.
    fn recv_msg(&self) -> Result<Option<Vec<u8>>> {
        let r = &self.inner;
        let Some((len, _)) = r.expect_ctrl(tag::RTS)? else { return Ok(None) };
        // Advertise the pooled landing buffer.
        let rb = r.pool.remote_buf(0, len);
        r.ctrl.send(0, &ctrl_msg(tag::CTS, len, Some(&rb)))?;
        // FIN means the WRITE has fully landed (RC ordering).
        let Some(_) = r.expect_ctrl(tag::FIN)? else { return Ok(None) };
        Ok(Some(r.pool.read_vec(0, len)?))
    }
}

impl RpcClient for WriteRndv {
    fn call(&mut self, request: &[u8]) -> Result<Vec<u8>> {
        self.send_msg(request)?;
        self.recv_msg()?.ok_or(hat_rdma_sim::RdmaError::Disconnected)
    }

    fn kind(&self) -> ProtocolKind {
        ProtocolKind::WriteRndv
    }
}

impl RpcServer for WriteRndv {
    fn serve_one(&mut self, handler: &mut dyn FnMut(&[u8]) -> Vec<u8>) -> Result<bool> {
        let Some(request) = self.recv_msg()? else { return Ok(false) };
        let response = handler(&request);
        self.send_msg(&response)?;
        Ok(true)
    }

    fn kind(&self) -> ProtocolKind {
        ProtocolKind::WriteRndv
    }
}

/// READ-based rendezvous (Figure 3e). See module docs.
pub struct ReadRndv {
    inner: Rndv,
    /// Landing buffer for inbound READs we issue.
    landing: MemoryRegion,
}

impl ReadRndv {
    /// Build the client side.
    pub fn client(ep: Endpoint, cfg: ProtocolConfig) -> Result<ReadRndv> {
        let landing = ep.pd().register(cfg.max_msg)?;
        Ok(ReadRndv { inner: Rndv::new(ep, cfg)?, landing })
    }

    /// Build the server side.
    pub fn server(ep: Endpoint, cfg: ProtocolConfig) -> Result<ReadRndv> {
        let landing = ep.pd().register(cfg.max_msg)?;
        Ok(ReadRndv { inner: Rndv::new(ep, cfg)?, landing })
    }

    /// Initiator: stage the payload, advertise it, wait for the peer's FIN.
    fn send_msg(&self, data: &[u8]) -> Result<()> {
        let r = &self.inner;
        if data.len() > r.cfg.max_msg {
            return Err(hat_rdma_sim::RdmaError::InvalidWorkRequest(format!(
                "payload of {} bytes exceeds the rendezvous pool ({} bytes)",
                data.len(),
                r.cfg.max_msg
            )));
        }
        r.pool.write(0, data)?;
        let rb = r.pool.remote_buf(0, data.len());
        r.ctrl.send(0, &ctrl_msg(tag::RTS, data.len(), Some(&rb)))?;
        // FIN: peer finished its READ; the pool slot is reusable.
        let Some(_) = r.expect_ctrl(tag::FIN)? else {
            return Err(hat_rdma_sim::RdmaError::Disconnected);
        };
        Ok(())
    }

    /// Target: READ the advertised payload, then release it with FIN.
    fn recv_msg(&self) -> Result<Option<Vec<u8>>> {
        let r = &self.inner;
        let Some((len, Some(src))) = r.expect_ctrl(tag::RTS)? else { return Ok(None) };
        r.ep.post_send(&[SendWr::read(1, self.landing.slice(0, len), src).signaled()])?;
        r.ep.send_cq().poll_timeout(r.cfg.poll, r.cfg.op_timeout_ns)?.ok()?;
        r.ctrl.send(0, &ctrl_msg(tag::FIN, len, None))?;
        Ok(Some(self.landing.read_vec(0, len)?))
    }
}

impl RpcClient for ReadRndv {
    fn call(&mut self, request: &[u8]) -> Result<Vec<u8>> {
        self.send_msg(request)?;
        self.recv_msg()?.ok_or(hat_rdma_sim::RdmaError::Disconnected)
    }

    fn kind(&self) -> ProtocolKind {
        ProtocolKind::ReadRndv
    }
}

impl RpcServer for ReadRndv {
    fn serve_one(&mut self, handler: &mut dyn FnMut(&[u8]) -> Vec<u8>) -> Result<bool> {
        let Some(request) = self.recv_msg()? else { return Ok(false) };
        let response = handler(&request);
        self.send_msg(&response)?;
        Ok(true)
    }

    fn kind(&self) -> ProtocolKind {
        ProtocolKind::ReadRndv
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::tests_support::{echo_pair, run_echo_calls};

    #[test]
    fn write_rndv_roundtrips() {
        run_echo_calls(ProtocolKind::WriteRndv, &[16, 4096, 131072]);
    }

    #[test]
    fn read_rndv_roundtrips() {
        run_echo_calls(ProtocolKind::ReadRndv, &[16, 4096, 131072]);
    }

    #[test]
    fn ctrl_msg_roundtrip() {
        let rb = RemoteBuf { node_id: 1, rkey: 2, offset: 3, len: 4 };
        let m = ctrl_msg(tag::CTS, 77, Some(&rb));
        let (t, l, b) = parse_ctrl(&m).unwrap();
        assert_eq!((t, l, b), (tag::CTS, 77, Some(rb)));
        let (t2, l2, b2) = parse_ctrl(&ctrl_msg(tag::FIN, 0, None)).unwrap();
        assert_eq!((t2, l2, b2), (tag::FIN, 0, None));
        assert!(parse_ctrl(&[1, 2]).is_err());
    }

    /// Rendezvous pins less memory than direct-write for the same max_msg:
    /// the paper's reason to map `res_util` → RNDV for large payloads.
    #[test]
    fn rndv_server_footprint_below_direct_write() {
        let cfg = ProtocolConfig { max_msg: 256 * 1024, ..Default::default() };
        let (_c1, s1) = echo_pair(ProtocolKind::WriteRndv, cfg.clone());
        let rndv_bytes = s1.node().stats_snapshot().registered_bytes;
        let (_c2, s2) = echo_pair(ProtocolKind::DirectWriteSend, cfg);
        let dw_bytes = s2.node().stats_snapshot().registered_bytes;
        // Direct-write pins in_region + out_stage (2 x max_msg); rendezvous
        // pins one pooled slot (+ small ring).
        assert!(
            rndv_bytes < dw_bytes,
            "rendezvous ({rndv_bytes}B) should pin less than direct-write ({dw_bytes}B)"
        );
    }

    #[test]
    fn servers_see_disconnect() {
        for kind in [ProtocolKind::WriteRndv, ProtocolKind::ReadRndv] {
            let (client, mut server) =
                echo_pair(kind, ProtocolConfig { max_msg: 1024, ..Default::default() });
            drop(client);
            assert!(!server.serve_one(&mut |r| r.to_vec()).unwrap(), "{kind}");
        }
    }
}
