//! Wire messages of the Spines overlay protocol.
//!
//! Daemon-to-daemon frames are authenticated with a per-link HMAC (see
//! [`crate::daemon`]); link-state advertisements are additionally signed by
//! their origin so a daemon cannot forge another daemon's adjacency.

use crate::topology::OverlayId;
use bytes::Bytes;
use spire_crypto::hmac::hmac_sha256;
use spire_sim::{WireError, WireReader, WireWriter};

/// How a data message is disseminated through the overlay.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Dissemination {
    /// Single copy along the shortest path.
    Shortest,
    /// One copy along each of up to `k` edge-disjoint paths (source routed).
    DisjointPaths(u8),
    /// Constrained flooding: resilient to any set of failures that leaves
    /// the graph connected; subject to per-source fair rate limits.
    Flood,
}

impl Dissemination {
    fn encode(self) -> (u8, u8) {
        match self {
            Dissemination::Shortest => (0, 0),
            Dissemination::DisjointPaths(k) => (1, k),
            Dissemination::Flood => (2, 0),
        }
    }

    fn decode(tag: u8, arg: u8) -> Result<Dissemination, WireError> {
        match tag {
            0 => Ok(Dissemination::Shortest),
            1 => Ok(Dissemination::DisjointPaths(arg)),
            2 => Ok(Dissemination::Flood),
            other => Err(WireError::BadTag(other)),
        }
    }
}

/// An application payload travelling through the overlay.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DataMsg {
    /// Originating daemon.
    pub src: OverlayId,
    /// Originating client port on that daemon.
    pub src_port: u16,
    /// Destination daemon.
    pub dst: OverlayId,
    /// Destination client port.
    pub dst_port: u16,
    /// Per-(src, src_port) sequence number for end-to-end deduplication.
    pub seq: u64,
    /// Dissemination mode.
    pub mode: Dissemination,
    /// Remaining hop budget.
    pub ttl: u8,
    /// Source route for [`Dissemination::DisjointPaths`] (empty otherwise).
    pub route: Vec<OverlayId>,
    /// Position of the *next* hop within `route`.
    pub route_idx: u8,
    /// Whether hop-by-hop reliability (ack + retransmit) is requested.
    pub reliable: bool,
    /// Application bytes.
    pub payload: Bytes,
}

/// A daemon-to-daemon or client-to-daemon protocol message.
#[derive(Clone, Debug, PartialEq)]
pub enum OverlayMsg {
    /// Link liveness probe.
    Hello {
        /// Sender.
        from: OverlayId,
        /// Monotone sequence.
        seq: u64,
    },
    /// Signed link-state advertisement.
    Lsa {
        /// The daemon whose adjacency this describes.
        origin: OverlayId,
        /// Monotone LSA sequence for `origin`.
        seq: u64,
        /// `origin`'s live neighbors and link weights.
        neighbors: Vec<(OverlayId, u32)>,
        /// Ed25519 signature by `origin` over (origin, seq, neighbors).
        sig: [u8; 64],
    },
    /// Hop-scoped data frame carrying an application payload.
    Data {
        /// Hop-unique frame id (for the reliable link protocol).
        frame_id: u64,
        /// The payload and its end-to-end headers.
        msg: DataMsg,
    },
    /// Acknowledgement of a reliable data frame on a link.
    HopAck {
        /// The frame being acknowledged.
        frame_id: u64,
    },
    /// Client -> daemon: bind a local port.
    ClientAttach {
        /// Port to bind.
        port: u16,
    },
    /// Client -> daemon: send a payload through the overlay.
    ClientSend {
        /// Destination daemon.
        dst: OverlayId,
        /// Destination port.
        dst_port: u16,
        /// Dissemination mode.
        mode: Dissemination,
        /// Request hop-by-hop reliability.
        reliable: bool,
        /// Application bytes.
        payload: Bytes,
    },
    /// Daemon -> client: deliver a payload.
    ClientDeliver {
        /// Originating daemon.
        src: OverlayId,
        /// Originating port.
        src_port: u16,
        /// Application bytes.
        payload: Bytes,
    },
    /// Cumulative acknowledgement of several reliable data frames on a link.
    HopAckMulti {
        /// The frames being acknowledged.
        frame_ids: Vec<u64>,
    },
    /// A hop-level batch: several encoded messages for the same neighbor,
    /// authenticated by a single link HMAC. Batches do not nest.
    Batch {
        /// Each element is one encoded non-`Batch` [`OverlayMsg`].
        frames: Vec<Bytes>,
    },
}

impl OverlayMsg {
    /// Canonical byte encoding, written into a buffer of exactly
    /// [`OverlayMsg::encoded_len`] bytes.
    pub fn encode(&self) -> Bytes {
        let mut w = WireWriter::with_capacity(self.encoded_len());
        self.write(&mut w);
        w.finish()
    }

    /// Length of [`OverlayMsg::encode`]'s output.
    pub fn encoded_len(&self) -> usize {
        match self {
            OverlayMsg::Hello { .. } => 11,
            OverlayMsg::Lsa { neighbors, .. } => 13 + 6 * neighbors.len() + 64,
            OverlayMsg::Data { msg, .. } => data_frame_len(msg),
            OverlayMsg::HopAck { .. } => 9,
            OverlayMsg::ClientAttach { .. } => 3,
            OverlayMsg::ClientSend { payload, .. } => 12 + payload.len(),
            OverlayMsg::ClientDeliver { payload, .. } => 9 + payload.len(),
            OverlayMsg::HopAckMulti { frame_ids } => 3 + 8 * frame_ids.len(),
            OverlayMsg::Batch { frames } => {
                BATCH_HEADER + frames.iter().map(|f| LEN_PREFIX + f.len()).sum::<usize>()
            }
        }
    }

    fn write(&self, w: &mut WireWriter) {
        match self {
            OverlayMsg::Hello { from, seq } => {
                w.u8(1).u16(from.0).u64(*seq);
            }
            OverlayMsg::Lsa {
                origin,
                seq,
                neighbors,
                sig,
            } => {
                w.u8(2).u16(origin.0).u64(*seq).u16(neighbors.len() as u16);
                for (n, weight) in neighbors {
                    w.u16(n.0).u32(*weight);
                }
                w.raw(sig);
            }
            OverlayMsg::Data { frame_id, msg } => write_data_frame(w, *frame_id, msg),
            OverlayMsg::HopAck { frame_id } => {
                w.u8(4).u64(*frame_id);
            }
            OverlayMsg::ClientAttach { port } => {
                w.u8(5).u16(*port);
            }
            OverlayMsg::ClientSend {
                dst,
                dst_port,
                mode,
                reliable,
                payload,
            } => {
                let (mode_tag, mode_arg) = mode.encode();
                w.u8(6)
                    .u16(dst.0)
                    .u16(*dst_port)
                    .u8(mode_tag)
                    .u8(mode_arg)
                    .bool(*reliable)
                    .bytes(payload);
            }
            OverlayMsg::ClientDeliver {
                src,
                src_port,
                payload,
            } => {
                w.u8(7).u16(src.0).u16(*src_port).bytes(payload);
            }
            OverlayMsg::HopAckMulti { frame_ids } => {
                w.u8(8).u16(frame_ids.len() as u16);
                for id in frame_ids {
                    w.u64(*id);
                }
            }
            OverlayMsg::Batch { frames } => {
                w.u8(BATCH_TAG).u16(frames.len() as u16);
                for frame in frames {
                    w.bytes(frame);
                }
            }
        }
    }

    /// Decodes a message, verifying the buffer is fully consumed.
    pub fn decode(bytes: &[u8]) -> Result<OverlayMsg, WireError> {
        let mut r = WireReader::new(bytes);
        let msg = match r.u8()? {
            1 => OverlayMsg::Hello {
                from: OverlayId(r.u16()?),
                seq: r.u64()?,
            },
            2 => {
                let origin = OverlayId(r.u16()?);
                let seq = r.u64()?;
                let n = r.u16()? as usize;
                let mut neighbors = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    neighbors.push((OverlayId(r.u16()?), r.u32()?));
                }
                let sig: [u8; 64] = r.array()?;
                OverlayMsg::Lsa {
                    origin,
                    seq,
                    neighbors,
                    sig,
                }
            }
            3 => {
                let frame_id = r.u64()?;
                let src = OverlayId(r.u16()?);
                let src_port = r.u16()?;
                let dst = OverlayId(r.u16()?);
                let dst_port = r.u16()?;
                let seq = r.u64()?;
                let mode_tag = r.u8()?;
                let mode_arg = r.u8()?;
                let ttl = r.u8()?;
                let route_len = r.u8()? as usize;
                let mut route = Vec::with_capacity(route_len);
                for _ in 0..route_len {
                    route.push(OverlayId(r.u16()?));
                }
                let route_idx = r.u8()?;
                let reliable = r.bool()?;
                let payload = Bytes::copy_from_slice(r.bytes()?);
                OverlayMsg::Data {
                    frame_id,
                    msg: DataMsg {
                        src,
                        src_port,
                        dst,
                        dst_port,
                        seq,
                        mode: Dissemination::decode(mode_tag, mode_arg)?,
                        ttl,
                        route,
                        route_idx,
                        reliable,
                        payload,
                    },
                }
            }
            4 => OverlayMsg::HopAck { frame_id: r.u64()? },
            5 => OverlayMsg::ClientAttach { port: r.u16()? },
            6 => {
                let dst = OverlayId(r.u16()?);
                let dst_port = r.u16()?;
                let mode_tag = r.u8()?;
                let mode_arg = r.u8()?;
                let reliable = r.bool()?;
                let payload = Bytes::copy_from_slice(r.bytes()?);
                OverlayMsg::ClientSend {
                    dst,
                    dst_port,
                    mode: Dissemination::decode(mode_tag, mode_arg)?,
                    reliable,
                    payload,
                }
            }
            7 => {
                let src = OverlayId(r.u16()?);
                let src_port = r.u16()?;
                let payload = Bytes::copy_from_slice(r.bytes()?);
                OverlayMsg::ClientDeliver {
                    src,
                    src_port,
                    payload,
                }
            }
            8 => {
                let n = r.u16()? as usize;
                let mut frame_ids = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    frame_ids.push(r.u64()?);
                }
                OverlayMsg::HopAckMulti { frame_ids }
            }
            9 => {
                let n = r.u16()? as usize;
                let mut frames = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    frames.push(Bytes::copy_from_slice(r.bytes()?));
                }
                OverlayMsg::Batch { frames }
            }
            other => return Err(WireError::BadTag(other)),
        };
        r.expect_end()?;
        Ok(msg)
    }
}

/// Tag byte of an encoded [`OverlayMsg::Batch`].
const BATCH_TAG: u8 = 9;
/// Tag byte and frame count that open an encoded [`OverlayMsg::Batch`].
const BATCH_HEADER: usize = 3;
/// Length prefix of each frame inside a batch.
const LEN_PREFIX: usize = 4;
/// Where the frame id sits in an encoded [`OverlayMsg::Data`].
const DATA_FRAME_ID: std::ops::Range<usize> = 1..9;

fn data_frame_len(msg: &DataMsg) -> usize {
    35 + 2 * msg.route.len() + msg.payload.len()
}

fn write_data_frame(w: &mut WireWriter, frame_id: u64, msg: &DataMsg) {
    let (mode_tag, mode_arg) = msg.mode.encode();
    w.u8(3)
        .u64(frame_id)
        .u16(msg.src.0)
        .u16(msg.src_port)
        .u16(msg.dst.0)
        .u16(msg.dst_port)
        .u64(msg.seq)
        .u8(mode_tag)
        .u8(mode_arg)
        .u8(msg.ttl)
        .u8(msg.route.len() as u8);
    for hop in &msg.route {
        w.u16(hop.0);
    }
    w.u8(msg.route_idx).bool(msg.reliable).bytes(&msg.payload);
}

/// Encodes `msg` as an [`OverlayMsg::Data`] with frame id 0, for a daemon
/// that sends one copy per neighbour and sets each copy's id with
/// [`set_frame_id`].
pub(crate) fn encode_data_frame(msg: &DataMsg) -> Vec<u8> {
    let mut w = WireWriter::with_capacity(data_frame_len(msg));
    write_data_frame(&mut w, 0, msg);
    w.into_vec()
}

/// Sets the frame id of an encoded [`OverlayMsg::Data`].
pub(crate) fn set_frame_id(frame: &mut [u8], frame_id: u64) {
    frame[DATA_FRAME_ID].copy_from_slice(&frame_id.to_le_bytes());
}

/// Frames staged for one neighbour, laid out as the body of an encoded
/// [`OverlayMsg::Batch`] as they arrive, so that a flush seals the buffer
/// in place instead of re-encoding every frame.
#[derive(Debug, Default)]
pub(crate) struct LinkBatch {
    /// Batch header (count not yet filled in), then each frame
    /// length-prefixed.
    buf: Vec<u8>,
    frames: usize,
}

impl LinkBatch {
    /// Frames staged.
    pub fn len(&self) -> usize {
        self.frames
    }

    /// Stages one encoded frame and returns its bytes inside the batch.
    pub fn push(&mut self, frame: &[u8]) -> &mut [u8] {
        if self.buf.is_empty() {
            self.buf.extend_from_slice(&[BATCH_TAG, 0, 0]);
        }
        self.buf
            .extend_from_slice(&(frame.len() as u32).to_le_bytes());
        let start = self.buf.len();
        self.buf.extend_from_slice(frame);
        self.frames += 1;
        &mut self.buf[start..]
    }

    /// Empties the stage into one wire frame sealed with `key`'s HMAC: the
    /// encoded `first` (if any) ahead of the staged frames, as a batch, or
    /// on its own when it is the only frame. `None` if there is nothing to
    /// send.
    pub fn seal(&mut self, first: Option<&[u8]>, key: &[u8; 32]) -> Option<Bytes> {
        let body = match (self.frames, first) {
            (0, None) => return None,
            (0, Some(lone)) => {
                self.buf.extend_from_slice(lone);
                0
            }
            (1, None) => BATCH_HEADER + LEN_PREFIX,
            (frames, first) => {
                if let Some(first) = first {
                    let shift = LEN_PREFIX + first.len();
                    let end = self.buf.len();
                    self.buf.resize(end + shift, 0);
                    self.buf
                        .copy_within(BATCH_HEADER..end, BATCH_HEADER + shift);
                    self.buf[BATCH_HEADER..BATCH_HEADER + LEN_PREFIX]
                        .copy_from_slice(&(first.len() as u32).to_le_bytes());
                    self.buf[BATCH_HEADER + LEN_PREFIX..BATCH_HEADER + shift]
                        .copy_from_slice(first);
                }
                let count = (frames + first.is_some() as usize) as u16;
                self.buf[1..BATCH_HEADER].copy_from_slice(&count.to_le_bytes());
                0
            }
        };
        let tag = hmac_sha256(key, &self.buf[body..]);
        self.buf.extend_from_slice(&tag);
        let wire = Bytes::copy_from_slice(&self.buf[body..]);
        self.buf.clear();
        self.frames = 0;
        Some(wire)
    }
}

/// The canonical bytes signed in an LSA (everything except the signature).
pub fn lsa_signing_bytes(origin: OverlayId, seq: u64, neighbors: &[(OverlayId, u32)]) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.raw(b"spines-lsa").u16(origin.0).u64(seq);
    for (n, weight) in neighbors {
        w.u16(n.0).u32(*weight);
    }
    w.finish().to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: OverlayMsg) {
        let bytes = msg.encode();
        let decoded = OverlayMsg::decode(&bytes).expect("decode");
        assert_eq!(decoded, msg);
    }

    #[test]
    fn roundtrip_all_variants() {
        roundtrip(OverlayMsg::Hello {
            from: OverlayId(3),
            seq: 99,
        });
        roundtrip(OverlayMsg::Lsa {
            origin: OverlayId(1),
            seq: 5,
            neighbors: vec![(OverlayId(2), 10), (OverlayId(3), 20)],
            sig: [7u8; 64],
        });
        roundtrip(OverlayMsg::Data {
            frame_id: 42,
            msg: DataMsg {
                src: OverlayId(0),
                src_port: 10,
                dst: OverlayId(5),
                dst_port: 20,
                seq: 1234,
                mode: Dissemination::DisjointPaths(3),
                ttl: 16,
                route: vec![OverlayId(0), OverlayId(2), OverlayId(5)],
                route_idx: 1,
                reliable: true,
                payload: Bytes::from_static(b"payload"),
            },
        });
        roundtrip(OverlayMsg::HopAck { frame_id: 7 });
        roundtrip(OverlayMsg::ClientAttach { port: 80 });
        roundtrip(OverlayMsg::ClientSend {
            dst: OverlayId(9),
            dst_port: 443,
            mode: Dissemination::Flood,
            reliable: false,
            payload: Bytes::from_static(b"x"),
        });
        roundtrip(OverlayMsg::ClientDeliver {
            src: OverlayId(2),
            src_port: 7,
            payload: Bytes::new(),
        });
        roundtrip(OverlayMsg::HopAckMulti {
            frame_ids: vec![1, 99, u64::MAX],
        });
        roundtrip(OverlayMsg::Batch {
            frames: vec![
                OverlayMsg::HopAck { frame_id: 7 }.encode(),
                OverlayMsg::Hello {
                    from: OverlayId(3),
                    seq: 99,
                }
                .encode(),
            ],
        });
    }

    fn data(seq: u64, payload: &'static [u8]) -> DataMsg {
        DataMsg {
            src: OverlayId(1),
            src_port: 2,
            dst: OverlayId(3),
            dst_port: 4,
            seq,
            mode: Dissemination::Flood,
            ttl: 9,
            route: Vec::new(),
            route_idx: 0,
            reliable: true,
            payload: Bytes::from_static(payload),
        }
    }

    #[test]
    fn data_frame_id_is_patched_in_place() {
        let msg = data(77, b"abc");
        let mut frame = encode_data_frame(&msg);
        set_frame_id(&mut frame, 0xdead_beef_0042);
        let expected = OverlayMsg::Data {
            frame_id: 0xdead_beef_0042,
            msg,
        }
        .encode();
        assert_eq!(frame, expected.to_vec());
    }

    /// What a flush sends, built the long way: every frame encoded on its
    /// own, then batched (unless alone), then sealed.
    fn reference_seal(first: Option<&[u8]>, frames: &[Bytes], key: &[u8; 32]) -> Option<Vec<u8>> {
        let mut all: Vec<Bytes> = first.map(Bytes::copy_from_slice).into_iter().collect();
        all.extend(frames.iter().cloned());
        let body = match all.len() {
            0 => return None,
            1 => all[0].to_vec(),
            _ => OverlayMsg::Batch { frames: all }.encode().to_vec(),
        };
        let mut wire = body.clone();
        wire.extend_from_slice(&hmac_sha256(key, &body));
        Some(wire)
    }

    #[test]
    fn link_batch_matches_batch_encoding() {
        let key = [5u8; 32];
        let frames: Vec<Bytes> = (0..4u64)
            .map(|i| {
                OverlayMsg::Data {
                    frame_id: i,
                    msg: data(i, &b"payload"[..i as usize]),
                }
                .encode()
            })
            .collect();
        let acks = [
            None,
            Some(OverlayMsg::HopAck { frame_id: 9 }.encode()),
            Some(
                OverlayMsg::HopAckMulti {
                    frame_ids: vec![1, 2, 3],
                }
                .encode(),
            ),
        ];
        let mut batch = LinkBatch::default();
        for ack in &acks {
            for n in 0..=frames.len() {
                for f in &frames[..n] {
                    batch.push(f);
                }
                assert_eq!(batch.len(), n);
                let got = batch.seal(ack.as_deref(), &key).map(|b| b.to_vec());
                assert_eq!(
                    got,
                    reference_seal(ack.as_deref(), &frames[..n], &key),
                    "{n} frames, ack {ack:?}"
                );
                assert_eq!(batch.len(), 0);
            }
        }
    }

    #[test]
    fn decode_rejects_bad_tag() {
        assert_eq!(OverlayMsg::decode(&[99]), Err(WireError::BadTag(99)));
    }

    #[test]
    fn decode_rejects_trailing() {
        let mut bytes = OverlayMsg::Hello {
            from: OverlayId(0),
            seq: 0,
        }
        .encode()
        .to_vec();
        bytes.push(0);
        assert_eq!(OverlayMsg::decode(&bytes), Err(WireError::TrailingBytes));
    }

    #[test]
    fn decode_rejects_truncated() {
        let bytes = OverlayMsg::Hello {
            from: OverlayId(0),
            seq: 0,
        }
        .encode();
        assert_eq!(
            OverlayMsg::decode(&bytes[..bytes.len() - 1]),
            Err(WireError::Truncated)
        );
    }

    #[test]
    fn lsa_signing_bytes_depend_on_content() {
        let a = lsa_signing_bytes(OverlayId(1), 1, &[(OverlayId(2), 3)]);
        let b = lsa_signing_bytes(OverlayId(1), 2, &[(OverlayId(2), 3)]);
        let c = lsa_signing_bytes(OverlayId(1), 1, &[(OverlayId(2), 4)]);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }
}
