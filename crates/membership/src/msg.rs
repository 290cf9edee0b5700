//! The failure detector's gossip frames.
//!
//! Three message kinds (classic SWIM):
//!
//! * [`SwimMsg::Ping`] — direct liveness probe; the receiver answers
//!   [`SwimMsg::Ack`] to `reply_to` (which differs from the sender when
//!   the ping was relayed for an indirect probe).
//! * [`SwimMsg::PingReq`] — indirect probe: "ping `target` for me". The
//!   relay pings the target with the *origin* as `reply_to`, so the ack
//!   travels back in one hop and the relay keeps no state.
//! * [`SwimMsg::Ack`] — liveness proof for the ping's `seq`.
//!
//! Every message piggybacks a bounded list of membership [`Update`]s —
//! the dissemination component: alive/suspect/dead claims, each stamped
//! with the subject's incarnation number so stale claims lose to fresh
//! refutations deterministically (see `detector.rs` for the precedence
//! rules).

use moara_simnet::{Message, NodeId};
use moara_wire::{Sink, Wire, WireError};

/// Liveness claim states carried by gossip.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PeerState {
    /// The subject is believed alive.
    Alive,
    /// The subject failed a probe round and is awaiting refutation.
    Suspect,
    /// The subject's failure was confirmed (suspicion expired).
    Dead,
}

impl Wire for PeerState {
    fn encode(&self, out: &mut impl Sink) {
        out.push(match self {
            PeerState::Alive => 0,
            PeerState::Suspect => 1,
            PeerState::Dead => 2,
        });
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(match u8::decode(buf)? {
            0 => PeerState::Alive,
            1 => PeerState::Suspect,
            2 => PeerState::Dead,
            _ => return Err(WireError::Invalid("PeerState tag")),
        })
    }
}

/// One piggybacked membership claim: `node` is in `state` as of
/// incarnation `incarnation`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Update {
    /// The subject of the claim.
    pub node: NodeId,
    /// The subject's incarnation number the claim refers to. Only the
    /// subject itself ever increments it (to refute suspicion or to
    /// rejoin after a confirmed death).
    pub incarnation: u64,
    /// The claimed liveness state.
    pub state: PeerState,
}

impl Wire for Update {
    fn encode(&self, out: &mut impl Sink) {
        self.node.encode(out);
        self.incarnation.encode(out);
        self.state.encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(Update {
            node: Wire::decode(buf)?,
            incarnation: Wire::decode(buf)?,
            state: Wire::decode(buf)?,
        })
    }
}

/// A failure-detector wire message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SwimMsg {
    /// Direct probe; answer an [`SwimMsg::Ack`] with the same `seq` to
    /// `reply_to`.
    Ping {
        /// Probe sequence number (scoped to the probing node).
        seq: u64,
        /// Where the ack must go — the probe's *origin*, which is not the
        /// ping's sender when a relay forwarded it for a ping-req.
        reply_to: NodeId,
        /// Piggybacked membership gossip.
        updates: Vec<Update>,
    },
    /// Liveness proof for the probe `seq`.
    Ack {
        /// Echo of the ping's sequence number.
        seq: u64,
        /// Piggybacked membership gossip.
        updates: Vec<Update>,
    },
    /// Indirect-probe request: the receiver pings `target` with the
    /// requester as `reply_to`.
    PingReq {
        /// The origin's probe sequence number, passed through.
        seq: u64,
        /// Whom to probe on the origin's behalf.
        target: NodeId,
        /// Piggybacked membership gossip.
        updates: Vec<Update>,
    },
}

impl Wire for SwimMsg {
    fn encode(&self, out: &mut impl Sink) {
        match self {
            SwimMsg::Ping {
                seq,
                reply_to,
                updates,
            } => {
                out.push(0);
                seq.encode(out);
                reply_to.encode(out);
                updates.encode(out);
            }
            SwimMsg::Ack { seq, updates } => {
                out.push(1);
                seq.encode(out);
                updates.encode(out);
            }
            SwimMsg::PingReq {
                seq,
                target,
                updates,
            } => {
                out.push(2);
                seq.encode(out);
                target.encode(out);
                updates.encode(out);
            }
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(match u8::decode(buf)? {
            0 => SwimMsg::Ping {
                seq: Wire::decode(buf)?,
                reply_to: Wire::decode(buf)?,
                updates: Wire::decode(buf)?,
            },
            1 => SwimMsg::Ack {
                seq: Wire::decode(buf)?,
                updates: Wire::decode(buf)?,
            },
            2 => SwimMsg::PingReq {
                seq: Wire::decode(buf)?,
                target: Wire::decode(buf)?,
                updates: Wire::decode(buf)?,
            },
            _ => return Err(WireError::Invalid("SwimMsg tag")),
        })
    }
}

impl SwimMsg {
    /// The piggybacked gossip, whatever the message kind.
    pub fn updates(&self) -> &[Update] {
        match self {
            SwimMsg::Ping { updates, .. }
            | SwimMsg::Ack { updates, .. }
            | SwimMsg::PingReq { updates, .. } => updates,
        }
    }
}

impl Message for SwimMsg {
    /// Exact framed size when traveling alone on a stream transport
    /// (embedding envelopes like `DaemonMsg` add their own tag byte).
    fn size_bytes(&self) -> usize {
        moara_wire::peer_framed_len(self)
    }
    // Detector traffic belongs to no query: `query_tag` stays `None`.
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn swim_messages_roundtrip() {
        let updates = vec![
            Update {
                node: NodeId(1),
                incarnation: 0,
                state: PeerState::Alive,
            },
            Update {
                node: NodeId(2),
                incarnation: 7,
                state: PeerState::Suspect,
            },
            Update {
                node: NodeId(3),
                incarnation: 2,
                state: PeerState::Dead,
            },
        ];
        let msgs = vec![
            SwimMsg::Ping {
                seq: 9,
                reply_to: NodeId(4),
                updates: updates.clone(),
            },
            SwimMsg::Ack {
                seq: 9,
                updates: vec![],
            },
            SwimMsg::PingReq {
                seq: 10,
                target: NodeId(5),
                updates,
            },
        ];
        for m in msgs {
            let bytes = m.to_bytes();
            assert_eq!(bytes.len(), m.encoded_len());
            assert_eq!(SwimMsg::from_bytes(&bytes).unwrap(), m);
        }
    }

    #[test]
    fn garbage_tags_are_rejected() {
        assert!(SwimMsg::from_bytes(&[9]).is_err());
        assert!(PeerState::decode(&mut &[7u8][..]).is_err());
        assert!(SwimMsg::from_bytes(&[]).is_err());
    }
}
