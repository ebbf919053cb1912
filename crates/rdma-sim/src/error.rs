//! Error types for the simulated verbs layer.

use std::fmt;

/// Errors returned by the simulated verbs API.
///
/// These mirror the failure classes of real `ibv_*` calls that the HatRPC
/// engine has to handle: invalid memory access (bad lkey/rkey or
/// out-of-bounds), queue overflow, disconnected peers, and protection-domain
/// mismatches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RdmaError {
    /// Access outside the bounds of a registered memory region.
    OutOfBounds {
        /// Offset that was requested.
        offset: usize,
        /// Length of the requested access.
        len: usize,
        /// Capacity of the region.
        capacity: usize,
    },
    /// A remote key did not resolve to a registered region on the target node.
    InvalidRKey(u64),
    /// The memory region has been deregistered.
    Deregistered,
    /// The peer endpoint has been dropped/disconnected.
    Disconnected,
    /// A send queue, receive queue, or completion queue is full.
    QueueFull(&'static str),
    /// The work-request chain was empty or malformed.
    InvalidWorkRequest(String),
    /// Every slot of a request window is in flight: take a completed
    /// response before submitting more.
    WindowFull {
        /// Requests submitted but not yet taken.
        in_flight: usize,
        /// The window size.
        window: usize,
    },
    /// No listener is registered under the requested service id.
    NoSuchService(String),
    /// Node name not present in the fabric.
    NoSuchNode(String),
    /// Inline data exceeded the QP's `max_inline` limit.
    InlineTooLarge { len: usize, max: usize },
    /// The operation timed out (event polling with a deadline).
    Timeout,
    /// The queue pair is in the error state (fault-injected flush, a dead
    /// node, or a peer whose node died mid-flight).
    QpError(String),
}

impl fmt::Display for RdmaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RdmaError::OutOfBounds { offset, len, capacity } => write!(
                f,
                "memory access out of bounds: offset {offset} + len {len} > capacity {capacity}"
            ),
            RdmaError::InvalidRKey(k) => write!(f, "invalid remote key {k:#x}"),
            RdmaError::Deregistered => write!(f, "memory region deregistered"),
            RdmaError::Disconnected => write!(f, "peer disconnected"),
            RdmaError::QueueFull(q) => write!(f, "{q} queue full"),
            RdmaError::InvalidWorkRequest(msg) => write!(f, "invalid work request: {msg}"),
            RdmaError::WindowFull { in_flight, window } => write!(
                f,
                "window full ({in_flight} of {window} in flight): take a completed response \
                 before submitting more"
            ),
            RdmaError::NoSuchService(s) => write!(f, "no listener for service '{s}'"),
            RdmaError::NoSuchNode(n) => write!(f, "no node named '{n}' in fabric"),
            RdmaError::InlineTooLarge { len, max } => {
                write!(f, "inline data of {len} bytes exceeds max_inline {max}")
            }
            RdmaError::Timeout => write!(f, "operation timed out"),
            RdmaError::QpError(msg) => write!(f, "queue pair in error state: {msg}"),
        }
    }
}

impl std::error::Error for RdmaError {}

/// Convenience alias used throughout the simulator.
pub type Result<T> = std::result::Result<T, RdmaError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = RdmaError::OutOfBounds { offset: 10, len: 20, capacity: 16 };
        assert!(e.to_string().contains("out of bounds"));
        assert!(RdmaError::InvalidRKey(0xdead).to_string().contains("dead"));
        assert!(RdmaError::Timeout.to_string().contains("timed out"));
        assert!(RdmaError::NoSuchService("x".into()).to_string().contains("'x'"));
        assert!(RdmaError::QpError("flushed".into()).to_string().contains("flushed"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(RdmaError::Disconnected, RdmaError::Disconnected);
        assert_ne!(RdmaError::Disconnected, RdmaError::Timeout);
    }
}
