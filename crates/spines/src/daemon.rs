//! The Spines overlay daemon.
//!
//! Each daemon maintains authenticated links to its overlay neighbors,
//! floods signed link-state advertisements, and forwards application
//! traffic under three dissemination modes (shortest path, k edge-disjoint
//! paths, constrained flooding). Two mechanisms provide the paper's
//! *network-attack resilience*:
//!
//! 1. **Authentication** — every daemon-to-daemon frame carries an HMAC
//!    keyed per link, and every LSA is signed by its origin; injected or
//!    corrupted traffic is dropped at the first hop.
//! 2. **Per-source fairness** — flooded traffic is rate-limited per source
//!    with a token bucket, so a single compromised client or daemon cannot
//!    starve other sources (Spines' fair resource allocation).
//!
//! Hop-by-hop reliability (ack + retransmit) recovers from lossy links.
//! Data frames and hop acks bound for the same neighbor coalesce into
//! link-level batches sealed by one HMAC per flush window (see
//! [`DaemonConfig::batch_window`]) — constrained flooding otherwise
//! amplifies every application message into one authenticated frame and
//! one ack per overlay edge.
//!
//! Per hop, the daemon does as little as the wire allows:
//!
//! * **Encode once.** A forwarded message is encoded once per forwarding
//!   decision. Each neighbor's copy, with its own frame id, is written
//!   straight into that neighbor's staged batch, which is already laid out
//!   as an encoded [`OverlayMsg::Batch`]; a flush puts any hop acks first,
//!   appends the link HMAC in place, and sends a lone frame unbatched. The
//!   retransmission table shares the one encoding among all copies.
//! * **Windowed dedup.** Flooded messages are recognised per claimed
//!   `(source, port)` and retransmitted frames per authenticated neighbor
//!   link, each in a `SeqWindow` that is exact for as long as a copy can
//!   still be retransmitted (the retransmission horizon, derived from
//!   [`DaemonConfig::retransmit_timeout`], [`DaemonConfig::max_retries`] and
//!   the 2 s backoff cap) and counts everything older as seen. Memory
//!   follows the traffic of one horizon, not the length of the run.

use crate::msg::{
    encode_data_frame, lsa_signing_bytes, set_frame_id, DataMsg, Dissemination, LinkBatch,
    OverlayMsg,
};
use crate::topology::{OverlayId, Topology};
use crate::window::{Limits, SeqWindow, Sight};
use bytes::Bytes;
use spire_crypto::ed25519::Signature;
use spire_crypto::hmac::{hmac_sha256, verify_hmac_sha256};
use spire_crypto::{KeyStore, NodeId, SigningKey};
use spire_sim::{Context, Process, ProcessId, Span, Time, TraceKind};
use std::collections::{btree_map, BTreeMap};
use std::sync::Arc;

const TIMER_HELLO: u64 = 1;
const TIMER_LSA: u64 = 2;
const TIMER_RETX: u64 = 3;
const TIMER_FLUSH: u64 = 4;

/// Length of the link HMAC that ends every daemon-to-daemon frame.
const TAG_LEN: usize = 32;
/// Retransmission timeouts double per retry up to this cap.
const MAX_RTO: Span = Span(2_000_000);

/// Tuning knobs for a daemon.
#[derive(Clone, Copy, Debug)]
pub struct DaemonConfig {
    /// Interval between hello probes.
    pub hello_interval: Span,
    /// A neighbor is declared dead if silent for this long.
    pub dead_after: Span,
    /// Interval between periodic LSA refreshes.
    pub lsa_interval: Span,
    /// Link-state advertisements older than this are aged out of the
    /// database (a crashed daemon's stale adjacency must not linger).
    pub lsa_max_age: Span,
    /// Retransmission scan interval for reliable frames.
    pub retransmit_interval: Span,
    /// Retransmission timeout for a reliable frame.
    pub retransmit_timeout: Span,
    /// Give up after this many retransmissions.
    pub max_retries: u32,
    /// Initial TTL for data messages.
    pub default_ttl: u8,
    /// Sustained flood forwarding rate allowed per source (messages/sec).
    pub flood_rate_per_source: f64,
    /// Burst allowance per source (messages).
    pub flood_burst: f64,
    /// Hop-level link batching: data frames and hop acks bound for the same
    /// neighbor are staged for up to this window and flushed as one
    /// [`OverlayMsg::Batch`] under a single link HMAC. Real Spines packs
    /// messages into link-level packets the same way; without it, flooding
    /// amplifies every application message into one authenticated frame per
    /// overlay edge *plus* one ack per frame. `Span::ZERO` disables
    /// batching (every message is framed and acked individually).
    pub batch_window: Span,
    /// Flush a neighbor's stage early once this many frames are queued,
    /// bounding batch size and staging memory under load.
    pub batch_max_frames: usize,
}

impl DaemonConfig {
    /// How long after its first transmission a reliable frame can still be
    /// sent: every timeout of the backoff schedule up to the give-up, each
    /// plus the retransmission scan interval that may delay it.
    fn retransmission_horizon(&self) -> Span {
        let attempts = self.max_retries as u64 + 1;
        let mut horizon = Span::ZERO;
        let mut rto = self.retransmit_timeout;
        for sent in 0..attempts {
            if sent > 0 && rto.0 >= MAX_RTO.0 {
                // The rest of the schedule is flat at the cap.
                return horizon + (MAX_RTO + self.retransmit_interval).times(attempts - sent);
            }
            horizon = horizon + rto + self.retransmit_interval;
            rto = Span(rto.0.saturating_mul(2).min(MAX_RTO.0));
        }
        horizon
    }

    /// Dedup windows remember numbers for the retransmission horizon and
    /// refuse a number more than one per microsecond of the horizon ahead
    /// of their floor.
    fn dedup_limits(&self) -> Limits {
        let horizon = self.retransmission_horizon();
        Limits {
            horizon,
            span: horizon.0.max(1),
        }
    }
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            hello_interval: Span::millis(500),
            dead_after: Span::millis(1_800),
            lsa_interval: Span::secs(5),
            lsa_max_age: Span::secs(16),
            retransmit_interval: Span::millis(20),
            retransmit_timeout: Span::millis(60),
            // With exponential backoff (60 ms doubling, 2 s cap) twelve
            // retries span roughly ten seconds: enough for liveness
            // detection to update routes and the re-route path to kick in.
            max_retries: 12,
            default_ttl: 32,
            flood_rate_per_source: 5_000.0,
            flood_burst: 500.0,
            batch_window: Span::millis(1),
            batch_max_frames: 32,
        }
    }
}

/// Fault model of a daemon, for attack-injection experiments.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum DaemonBehavior {
    /// Follows the protocol.
    #[default]
    Honest,
    /// Forwards control traffic but silently drops all data (blackhole).
    Blackhole,
    /// Flips a byte in every forwarded data payload (detected end-to-end by
    /// the application's signatures, and at the hop by HMAC only if the
    /// corruption happens before authentication — a compromised daemon
    /// re-MACs, so end-to-end protection is what catches it).
    Corrupting,
}

struct NeighborState {
    pid: ProcessId,
    link_key: [u8; 32],
    weight: u32,
    last_heard: Time,
    alive: bool,
    /// Ids of the reliable frames this neighbor has delivered, keyed on the
    /// link its HMAC authenticated: a frame id's sender bits are only what
    /// the sender claims.
    frames_seen: SeqWindow,
    /// Frames awaiting the next batch flush to this neighbor.
    batch: LinkBatch,
    /// Reliable frames from this neighbor awaiting a (cumulative) hop ack
    /// on the next flush.
    acks: Vec<u64>,
}

struct LsaEntry {
    seq: u64,
    neighbors: Vec<(OverlayId, u32)>,
    /// When this advertisement was accepted (for aging).
    received_at: Time,
}

struct PendingFrame {
    to: OverlayId,
    /// The message's dissemination mode and destination, for re-routing.
    mode: Dissemination,
    dst: OverlayId,
    /// The encoded `Data` frame with frame id 0 and no link HMAC, shared by
    /// every copy of one forward. The first transmission rides a batch (one
    /// HMAC per batch), so retransmissions — the rare path — set the id and
    /// re-seal individually from this, and a re-route decodes the message
    /// from it.
    body: Bytes,
    retries: u32,
    next_at: Time,
    /// Current retransmission timeout (doubles per retry, capped).
    rto: Span,
}

struct TokenBucket {
    tokens: f64,
    last: Time,
}

/// A Spines overlay daemon (a [`Process`] in the simulation).
pub struct Daemon {
    me: OverlayId,
    cfg: DaemonConfig,
    behavior: DaemonBehavior,
    signing: SigningKey,
    keystore: Arc<KeyStore>,
    /// crypto NodeId of overlay node i is `key_base + i`.
    key_base: u32,
    neighbors: BTreeMap<OverlayId, NeighborState>,
    pid_to_overlay: BTreeMap<ProcessId, OverlayId>,
    clients: BTreeMap<u16, ProcessId>,
    lsa_db: BTreeMap<OverlayId, LsaEntry>,
    my_lsa_seq: u64,
    routes: Option<Topology>,
    /// Flooded messages seen, per claimed `(source, port)`, over `seq`.
    flood_seen: BTreeMap<(u16, u16), SeqWindow>,
    /// Horizon and span of every dedup window.
    dedup: Limits,
    pending: BTreeMap<u64, PendingFrame>,
    next_frame: u64,
    send_seq: BTreeMap<u16, u64>,
    buckets: BTreeMap<OverlayId, TokenBucket>,
    hello_seq: u64,
    /// Whether some neighbor has hop acks staged.
    acks_staged: bool,
    /// Whether a TIMER_FLUSH is already pending.
    flush_scheduled: bool,
}

impl Daemon {
    /// Creates a daemon.
    ///
    /// `neighbors` maps each overlay neighbor to its simulation process and
    /// link weight; `link_keys` carries the shared per-link HMAC keys.
    /// `key_base` maps overlay ids into the [`KeyStore`] id space.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        me: OverlayId,
        cfg: DaemonConfig,
        behavior: DaemonBehavior,
        signing: SigningKey,
        keystore: Arc<KeyStore>,
        key_base: u32,
        neighbors: Vec<(OverlayId, ProcessId, u32, [u8; 32])>,
    ) -> Daemon {
        let mut neighbor_map = BTreeMap::new();
        let mut pid_to_overlay = BTreeMap::new();
        for (id, pid, weight, link_key) in neighbors {
            pid_to_overlay.insert(pid, id);
            neighbor_map.insert(
                id,
                NeighborState {
                    pid,
                    link_key,
                    weight,
                    last_heard: Time::ZERO,
                    alive: true,
                    frames_seen: SeqWindow::default(),
                    batch: LinkBatch::default(),
                    acks: Vec::new(),
                },
            );
        }
        Daemon {
            me,
            cfg,
            behavior,
            signing,
            keystore,
            key_base,
            neighbors: neighbor_map,
            pid_to_overlay,
            clients: BTreeMap::new(),
            lsa_db: BTreeMap::new(),
            my_lsa_seq: 0,
            routes: None,
            flood_seen: BTreeMap::new(),
            dedup: cfg.dedup_limits(),
            pending: BTreeMap::new(),
            next_frame: 0,
            send_seq: BTreeMap::new(),
            buckets: BTreeMap::new(),
            hello_seq: 0,
            acks_staged: false,
            flush_scheduled: false,
        }
    }

    fn crypto_id(&self, overlay: OverlayId) -> NodeId {
        NodeId(self.key_base + overlay.0 as u32)
    }

    /// Seals an encoded body with the neighbor's link HMAC and sends it.
    fn seal_to(&self, ctx: &mut Context<'_>, neighbor: OverlayId, body: &[u8]) {
        if let Some(link) = self.neighbors.get(&neighbor) {
            seal(ctx, link, body);
        }
    }

    fn frame_to(&self, ctx: &mut Context<'_>, neighbor: OverlayId, msg: &OverlayMsg) {
        self.seal_to(ctx, neighbor, &msg.encode());
    }

    fn batching(&self) -> bool {
        self.cfg.batch_window.0 > 0
    }

    fn schedule_flush(&mut self, ctx: &mut Context<'_>) {
        if !self.flush_scheduled {
            self.flush_scheduled = true;
            ctx.set_timer(self.cfg.batch_window, TIMER_FLUSH);
        }
    }

    /// Flushes every neighbor with staged frames or acks, in id order.
    fn flush_links(&mut self, ctx: &mut Context<'_>) {
        for link in self.neighbors.values_mut() {
            flush_link(ctx, link);
        }
        self.acks_staged = false;
    }

    /// Flushes the neighbors with staged acks (and whatever frames they
    /// have staged), in id order.
    fn flush_acks(&mut self, ctx: &mut Context<'_>) {
        if !std::mem::take(&mut self.acks_staged) {
            return;
        }
        for link in self.neighbors.values_mut() {
            if !link.acks.is_empty() {
                flush_link(ctx, link);
            }
        }
    }

    /// Acknowledges a reliable frame from `neighbor`: with batching, in the
    /// cumulative ack of the next flush to it (all reliable frames of one
    /// batch or window in a single `HopAckMulti`), else at once.
    fn ack(&mut self, ctx: &mut Context<'_>, neighbor: OverlayId, frame_id: u64) {
        if !self.batching() {
            self.frame_to(ctx, neighbor, &OverlayMsg::HopAck { frame_id });
            return;
        }
        if let Some(link) = self.neighbors.get_mut(&neighbor) {
            link.acks.push(frame_id);
            self.acks_staged = true;
            self.schedule_flush(ctx);
        }
    }

    /// Retires a pending frame acknowledged by `neighbor`, if that is the
    /// neighbor it was sent to: frame ids are easy to guess, so another
    /// neighbor's ack must not cancel its retransmission.
    fn acked(&mut self, neighbor: OverlayId, frame_id: u64) {
        if let btree_map::Entry::Occupied(entry) = self.pending.entry(frame_id) {
            if entry.get().to == neighbor {
                entry.remove();
            }
        }
    }

    /// Sends one copy of `msg` to each of `targets`, each under a fresh
    /// frame id, registering reliable copies for retransmission. The frame
    /// is encoded once; each copy is written straight into its neighbor's
    /// staged batch (or sealed on its own when batching is off).
    fn send_data(&mut self, ctx: &mut Context<'_>, mut msg: DataMsg, targets: &[OverlayId]) {
        if self.behavior == DaemonBehavior::Blackhole && msg.src != self.me {
            ctx.count("spines.blackholed", targets.len() as u64);
            return;
        }
        if self.behavior == DaemonBehavior::Corrupting && !msg.payload.is_empty() {
            let mut corrupted = msg.payload.to_vec();
            corrupted[0] ^= 0xff;
            msg.payload = Bytes::from(corrupted);
            ctx.count("spines.corrupted", targets.len() as u64);
        }
        let mut frame = encode_data_frame(&msg);
        let shared = msg.reliable.then(|| Bytes::copy_from_slice(&frame));
        let batching = self.batching();
        for &neighbor in targets {
            if ctx.tracing_enabled() {
                ctx.trace(TraceKind::OverlayHop {
                    daemon: ctx.id().0,
                    src: msg.src.0,
                    dst: msg.dst.0,
                    ttl: msg.ttl,
                });
            }
            let frame_id = ((self.me.0 as u64) << 40) | self.next_frame;
            self.next_frame += 1;
            let Some(link) = self.neighbors.get_mut(&neighbor) else {
                continue;
            };
            if let Some(body) = &shared {
                self.pending.insert(
                    frame_id,
                    PendingFrame {
                        to: neighbor,
                        mode: msg.mode,
                        dst: msg.dst,
                        body: body.clone(),
                        retries: 0,
                        next_at: ctx.now() + self.cfg.retransmit_timeout,
                        rto: self.cfg.retransmit_timeout,
                    },
                );
            }
            if !batching {
                set_frame_id(&mut frame, frame_id);
                seal(ctx, link, &frame);
                continue;
            }
            set_frame_id(link.batch.push(&frame), frame_id);
            if link.batch.len() >= self.cfg.batch_max_frames {
                flush_link(ctx, link);
            } else {
                self.schedule_flush(ctx);
            }
        }
    }

    fn regenerate_lsa(&mut self, ctx: &mut Context<'_>) {
        self.my_lsa_seq += 1;
        let neighbors: Vec<(OverlayId, u32)> = self
            .neighbors
            .iter()
            .filter(|(_, s)| s.alive)
            .map(|(id, s)| (*id, s.weight))
            .collect();
        let bytes = lsa_signing_bytes(self.me, self.my_lsa_seq, &neighbors);
        let sig = self.signing.sign(&bytes);
        let lsa = OverlayMsg::Lsa {
            origin: self.me,
            seq: self.my_lsa_seq,
            neighbors: neighbors.clone(),
            sig: sig.to_bytes(),
        };
        self.lsa_db.insert(
            self.me,
            LsaEntry {
                seq: self.my_lsa_seq,
                neighbors,
                received_at: ctx.now(),
            },
        );
        self.routes = None;
        let body = lsa.encode();
        for n in self.alive_neighbors() {
            self.seal_to(ctx, n, &body);
        }
    }

    fn alive_neighbors(&self) -> Vec<OverlayId> {
        self.neighbors
            .iter()
            .filter(|(_, s)| s.alive)
            .map(|(id, _)| *id)
            .collect()
    }

    /// Builds the routing topology from the LSA database. An edge is used
    /// only if *both* endpoints advertise it, so a single lying daemon
    /// cannot fabricate adjacencies to attract traffic.
    fn topology(&mut self) -> &Topology {
        if self.routes.is_none() {
            let mut t = Topology::new();
            t.add_node(self.me);
            for origin in self.lsa_db.keys() {
                t.add_node(*origin);
            }
            let claims: Vec<(OverlayId, OverlayId, u32)> = self
                .lsa_db
                .iter()
                .flat_map(|(origin, entry)| {
                    entry.neighbors.iter().map(move |(n, w)| (*origin, *n, *w))
                })
                .collect();
            for (a, b, w) in &claims {
                if a < b {
                    let reverse = self
                        .lsa_db
                        .get(b)
                        .map(|e| e.neighbors.iter().any(|(n, _)| n == a))
                        .unwrap_or(false);
                    if reverse {
                        t.add_edge(*a, *b, *w);
                    }
                }
            }
            self.routes = Some(t);
        }
        self.routes.as_ref().unwrap()
    }

    /// Records a flooded or delivered message's `(source, port, seq)`;
    /// false if it was seen before or runs too far ahead to record.
    fn first_sight(&mut self, ctx: &mut Context<'_>, msg: &DataMsg) -> bool {
        let window = self
            .flood_seen
            .entry((msg.src.0, msg.src_port))
            .or_default();
        match window.observe(msg.seq, ctx.now(), self.dedup) {
            Sight::New => true,
            Sight::Seen => false,
            Sight::Ahead => {
                ctx.count("spines.seq_ahead_drop", 1);
                false
            }
        }
    }

    /// Ages every dedup window, drops the flood windows left empty, and
    /// records the retransmission table and dedup memory as gauges.
    fn expire_dedup(&mut self, ctx: &mut Context<'_>) {
        let now = ctx.now();
        let horizon = self.dedup.horizon;
        self.flood_seen.retain(|_, window| {
            window.expire(now, horizon);
            !window.is_empty()
        });
        let mut bytes: usize = self
            .flood_seen
            .values()
            .map(SeqWindow::retained_bytes)
            .sum();
        for link in self.neighbors.values_mut() {
            link.frames_seen.expire(now, horizon);
            bytes += link.frames_seen.retained_bytes();
        }
        ctx.record("spines.pending_frames", self.pending.len() as f64);
        ctx.record("spines.dedup_bytes", bytes as f64);
    }

    fn take_flood_token(&mut self, now: Time, source: OverlayId) -> bool {
        let bucket = self.buckets.entry(source).or_insert(TokenBucket {
            tokens: self.cfg.flood_burst,
            last: now,
        });
        let dt = now.since(bucket.last).as_secs_f64();
        bucket.last = now;
        bucket.tokens =
            (bucket.tokens + dt * self.cfg.flood_rate_per_source).min(self.cfg.flood_burst);
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    fn deliver_local(&mut self, ctx: &mut Context<'_>, msg: &DataMsg) {
        let Some(client) = self.clients.get(&msg.dst_port).copied() else {
            ctx.count("spines.no_client_drop", 1);
            return;
        };
        let deliver = OverlayMsg::ClientDeliver {
            src: msg.src,
            src_port: msg.src_port,
            payload: msg.payload.clone(),
        };
        ctx.send(client, deliver.encode());
        ctx.count("spines.delivered", 1);
    }

    /// Core forwarding logic shared by locally originated and transit data.
    fn route_data(&mut self, ctx: &mut Context<'_>, mut msg: DataMsg, from_hop: Option<OverlayId>) {
        match msg.mode {
            Dissemination::Flood => {
                if !self.first_sight(ctx, &msg) {
                    return;
                }
                if msg.dst == self.me {
                    self.deliver_local(ctx, &msg);
                    return;
                }
                // Per-source fairness: a flooding source cannot consume more
                // than its token rate at this daemon.
                if !self.take_flood_token(ctx.now(), msg.src) {
                    ctx.count("spines.flood_rate_limited", 1);
                    return;
                }
                if msg.ttl == 0 {
                    ctx.count("spines.ttl_drop", 1);
                    return;
                }
                msg.ttl -= 1;
                let mut targets = self.alive_neighbors();
                targets.retain(|n| Some(*n) != from_hop);
                self.send_data(ctx, msg, &targets);
            }
            Dissemination::Shortest => {
                if msg.dst == self.me {
                    if self.first_sight(ctx, &msg) {
                        self.deliver_local(ctx, &msg);
                    }
                    return;
                }
                if msg.ttl == 0 {
                    ctx.count("spines.ttl_drop", 1);
                    return;
                }
                msg.ttl -= 1;
                let me = self.me;
                let dst = msg.dst;
                let next = self.topology().next_hop(me, dst);
                match next {
                    Some(n) => self.send_data(ctx, msg, &[n]),
                    None => ctx.count("spines.no_route_drop", 1),
                }
            }
            Dissemination::DisjointPaths(_) => {
                if msg.dst == self.me {
                    if self.first_sight(ctx, &msg) {
                        self.deliver_local(ctx, &msg);
                    }
                    return;
                }
                if msg.ttl == 0 {
                    ctx.count("spines.ttl_drop", 1);
                    return;
                }
                msg.ttl -= 1;
                let idx = msg.route_idx as usize;
                if idx < msg.route.len() {
                    let next = msg.route[idx];
                    msg.route_idx += 1;
                    self.send_data(ctx, msg, &[next]);
                } else {
                    ctx.count("spines.bad_route_drop", 1);
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn originate(
        &mut self,
        ctx: &mut Context<'_>,
        src_port: u16,
        dst: OverlayId,
        dst_port: u16,
        mode: Dissemination,
        reliable: bool,
        payload: Bytes,
    ) {
        let seq = {
            let counter = self.send_seq.entry(src_port).or_insert(0);
            *counter += 1;
            *counter
        };
        let base = DataMsg {
            src: self.me,
            src_port,
            dst,
            dst_port,
            seq,
            mode,
            ttl: self.cfg.default_ttl,
            route: Vec::new(),
            route_idx: 0,
            reliable,
            payload,
        };
        match mode {
            Dissemination::DisjointPaths(k) => {
                if dst == self.me {
                    let mut msg = base;
                    msg.mode = Dissemination::Shortest;
                    self.route_data(ctx, msg, None);
                    return;
                }
                let me = self.me;
                let paths = self.topology().disjoint_paths(me, dst, k.max(1) as usize);
                if paths.is_empty() {
                    ctx.count("spines.no_route_drop", 1);
                    return;
                }
                for path in paths {
                    let mut msg = base.clone();
                    msg.route = path;
                    msg.route_idx = 1; // position of the hop after us
                    let next = msg.route[1];
                    msg.route_idx = 2;
                    msg.ttl = self.cfg.default_ttl;
                    self.send_data(ctx, msg, &[next]);
                }
            }
            _ => self.route_data(ctx, base, None),
        }
    }

    fn on_neighbor_msg(&mut self, ctx: &mut Context<'_>, from: OverlayId, msg: OverlayMsg) {
        match msg {
            OverlayMsg::Hello {
                from: h_from,
                seq: _,
            } => {
                if h_from != from {
                    ctx.count("spines.hello_spoof_drop", 1);
                    return;
                }
                let hello_interval = self.cfg.hello_interval;
                let newly_alive = {
                    let Some(state) = self.neighbors.get_mut(&from) else {
                        return;
                    };
                    let previous = state.last_heard;
                    state.last_heard = ctx.now();
                    if state.alive {
                        false
                    } else {
                        // Damping: a congested link leaking the occasional
                        // hello must not flap alive; require two hellos in
                        // quick succession before reviving.
                        let stable = ctx.now().since(previous) <= hello_interval.times(2);
                        if stable {
                            state.alive = true;
                        }
                        stable
                    }
                };
                if newly_alive {
                    self.regenerate_lsa(ctx);
                }
            }
            OverlayMsg::Lsa {
                origin,
                seq,
                neighbors,
                sig,
            } => {
                if origin == self.me {
                    return;
                }
                let known = self.lsa_db.get(&origin).map(|e| e.seq).unwrap_or(0);
                if seq <= known {
                    return;
                }
                let bytes = lsa_signing_bytes(origin, seq, &neighbors);
                let signature = Signature::from_bytes(sig);
                if !self
                    .keystore
                    .verify(self.crypto_id(origin), &bytes, &signature)
                {
                    ctx.count("spines.lsa_bad_sig", 1);
                    return;
                }
                self.lsa_db.insert(
                    origin,
                    LsaEntry {
                        seq,
                        neighbors,
                        received_at: ctx.now(),
                    },
                );
                self.routes = None;
                // Flood onward.
                let lsa = OverlayMsg::Lsa {
                    origin,
                    seq,
                    neighbors: self.lsa_db[&origin].neighbors.clone(),
                    sig,
                };
                for n in self.alive_neighbors() {
                    if n != from {
                        self.frame_to(ctx, n, &lsa);
                    }
                }
            }
            OverlayMsg::Data { frame_id, msg } => {
                if msg.reliable {
                    self.ack(ctx, from, frame_id);
                    let now = ctx.now();
                    let Some(link) = self.neighbors.get_mut(&from) else {
                        return;
                    };
                    match link.frames_seen.observe(frame_id, now, self.dedup) {
                        Sight::New => {}
                        Sight::Seen => return, // duplicate retransmission
                        Sight::Ahead => {
                            ctx.count("spines.frame_ahead_drop", 1);
                            return;
                        }
                    }
                }
                self.route_data(ctx, msg, Some(from));
            }
            OverlayMsg::HopAck { frame_id } => self.acked(from, frame_id),
            OverlayMsg::HopAckMulti { frame_ids } => {
                for frame_id in frame_ids {
                    self.acked(from, frame_id);
                }
            }
            OverlayMsg::Batch { frames } => {
                for body in frames {
                    match OverlayMsg::decode(&body) {
                        // Refuse nesting: a forwarded batch-of-batches could
                        // otherwise recurse unboundedly.
                        Ok(OverlayMsg::Batch { .. }) => {
                            ctx.count("spines.nested_batch_drop", 1);
                        }
                        Ok(sub) => self.on_neighbor_msg(ctx, from, sub),
                        Err(_) => ctx.count("spines.decode_fail", 1),
                    }
                }
            }
            _ => ctx.count("spines.unexpected_neighbor_msg", 1),
        }
    }

    fn on_client_msg(&mut self, ctx: &mut Context<'_>, from: ProcessId, msg: OverlayMsg) {
        match msg {
            OverlayMsg::ClientAttach { port } => {
                self.clients.insert(port, from);
            }
            OverlayMsg::ClientSend {
                dst,
                dst_port,
                mode,
                reliable,
                payload,
            } => {
                // Identify the sending client's port (must be attached).
                let Some(src_port) = self
                    .clients
                    .iter()
                    .find(|(_, pid)| **pid == from)
                    .map(|(port, _)| *port)
                else {
                    ctx.count("spines.unattached_client_drop", 1);
                    return;
                };
                self.originate(ctx, src_port, dst, dst_port, mode, reliable, payload);
            }
            _ => ctx.count("spines.unexpected_client_msg", 1),
        }
    }
}

/// Seals an encoded body with the link's HMAC and sends it.
fn seal(ctx: &mut Context<'_>, link: &NeighborState, body: &[u8]) {
    let mut framed = Vec::with_capacity(body.len() + TAG_LEN);
    framed.extend_from_slice(body);
    framed.extend_from_slice(&hmac_sha256(&link.link_key, body));
    ctx.send(link.pid, Bytes::from(framed));
}

/// Flushes one neighbor's staged acks + frames as a single sealed frame.
/// Acks go first so the sender's retransmission table drains promptly.
fn flush_link(ctx: &mut Context<'_>, link: &mut NeighborState) {
    let ack = match link.acks.len() {
        0 => None,
        1 => Some(
            OverlayMsg::HopAck {
                frame_id: link.acks[0],
            }
            .encode(),
        ),
        _ => Some(
            OverlayMsg::HopAckMulti {
                frame_ids: std::mem::take(&mut link.acks),
            }
            .encode(),
        ),
    };
    link.acks.clear();
    let frames = link.batch.len() + ack.is_some() as usize;
    if frames > 1 {
        ctx.count("spines.link_batches", 1);
        ctx.count("spines.link_batched_frames", frames as u64);
    }
    if let Some(wire) = link.batch.seal(ack.as_deref(), &link.link_key) {
        ctx.send(link.pid, wire);
    }
}

impl Process for Daemon {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for (_, state) in self.neighbors.iter_mut() {
            state.last_heard = ctx.now();
        }
        ctx.set_timer(self.cfg.hello_interval, TIMER_HELLO);
        ctx.set_timer(self.cfg.lsa_interval, TIMER_LSA);
        ctx.set_timer(self.cfg.retransmit_interval, TIMER_RETX);
        self.regenerate_lsa(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, from: ProcessId, bytes: &Bytes) {
        if let Some(overlay_from) = self.pid_to_overlay.get(&from).copied() {
            // Neighbor daemon: verify the link HMAC.
            if bytes.len() < 32 {
                ctx.count("spines.short_frame_drop", 1);
                return;
            }
            let (body, tag_bytes) = bytes.split_at(bytes.len() - 32);
            let tag: [u8; 32] = tag_bytes.try_into().unwrap();
            let key = self.neighbors[&overlay_from].link_key;
            if !verify_hmac_sha256(&key, body, &tag) {
                ctx.count("spines.hmac_fail", 1);
                return;
            }
            match OverlayMsg::decode(body) {
                Ok(msg) => self.on_neighbor_msg(ctx, overlay_from, msg),
                Err(_) => ctx.count("spines.decode_fail", 1),
            }
            // Acks are latency-critical — a delayed ack fires the sender's
            // retransmission timer and multiplies traffic — so they flush at
            // the end of the activation that received the data (one
            // cumulative ack per incoming batch), while forwarded data keeps
            // riding the coalescing window.
            self.flush_acks(ctx);
        } else {
            // Local client.
            match OverlayMsg::decode(bytes) {
                Ok(msg) => self.on_client_msg(ctx, from, msg),
                Err(_) => ctx.count("spines.client_decode_fail", 1),
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
        match tag {
            TIMER_HELLO => {
                self.hello_seq += 1;
                let hello = OverlayMsg::Hello {
                    from: self.me,
                    seq: self.hello_seq,
                };
                let body = hello.encode();
                for n in self.neighbors.keys() {
                    self.seal_to(ctx, *n, &body);
                }
                // Death detection.
                let now = ctx.now();
                let dead_after = self.cfg.dead_after;
                let mut changed = false;
                for (_, state) in self.neighbors.iter_mut() {
                    if state.alive && now.since(state.last_heard) > dead_after {
                        state.alive = false;
                        changed = true;
                    }
                }
                if changed {
                    self.regenerate_lsa(ctx);
                }
                self.expire_dedup(ctx);
                ctx.set_timer(self.cfg.hello_interval, TIMER_HELLO);
            }
            TIMER_LSA => {
                // Age out stale advertisements (their origin stopped
                // refreshing: crashed, partitioned, or compromised-and-
                // silenced). Our own entry is refreshed just below.
                let now = ctx.now();
                let max_age = self.cfg.lsa_max_age;
                let me = self.me;
                let before = self.lsa_db.len();
                self.lsa_db
                    .retain(|origin, e| *origin == me || now.since(e.received_at) <= max_age);
                if self.lsa_db.len() != before {
                    self.routes = None;
                    ctx.count("spines.lsa_aged_out", 1);
                }
                self.regenerate_lsa(ctx);
                ctx.set_timer(self.cfg.lsa_interval, TIMER_LSA);
            }
            TIMER_RETX => {
                let now = ctx.now();
                let mut to_resend: Vec<u64> = Vec::new();
                let mut to_drop: Vec<u64> = Vec::new();
                let mut to_reroute: Vec<u64> = Vec::new();
                let expired: Vec<u64> = self
                    .pending
                    .iter()
                    .filter(|(_, f)| f.next_at <= now)
                    .map(|(id, _)| *id)
                    .collect();
                for id in expired {
                    let (mode, dst, to_overlay, retries) = {
                        let f = &self.pending[&id];
                        (f.mode, f.dst, f.to, f.retries)
                    };
                    // If routing has moved away from the pending next hop
                    // (e.g. the neighbor was declared dead), re-route the
                    // payload along the new path instead of retrying a dead
                    // link forever.
                    if mode == Dissemination::Shortest {
                        let me = self.me;
                        let current = self.topology().next_hop(me, dst);
                        if current.is_some() && current != Some(to_overlay) {
                            to_reroute.push(id);
                            continue;
                        }
                    }
                    // Frames bound for a dead neighbor are dropped: flooded
                    // and disjoint-path traffic has redundant copies, and
                    // retransmitting into a black hole only feeds congestion
                    // collapse under DoS.
                    let neighbor_dead = self
                        .neighbors
                        .get(&to_overlay)
                        .map(|s| !s.alive)
                        .unwrap_or(true);
                    if neighbor_dead && mode != Dissemination::Shortest {
                        to_drop.push(id);
                        continue;
                    }
                    if retries >= self.cfg.max_retries {
                        to_drop.push(id);
                    } else {
                        to_resend.push(id);
                    }
                }
                for id in to_drop {
                    self.pending.remove(&id);
                    ctx.count("spines.retx_give_up", 1);
                }
                for id in to_reroute {
                    if let Some(frame) = self.pending.remove(&id) {
                        ctx.count("spines.rerouted", 1);
                        if let Ok(OverlayMsg::Data { msg, .. }) = OverlayMsg::decode(&frame.body) {
                            self.route_data(ctx, msg, None);
                        }
                    }
                }
                for id in to_resend {
                    if let Some(frame) = self.pending.get_mut(&id) {
                        frame.retries += 1;
                        // Exponential backoff, capped: persistent loss must
                        // not multiply traffic.
                        frame.rto = Span(frame.rto.0.saturating_mul(2).min(MAX_RTO.0));
                        frame.next_at = now + frame.rto;
                        // Retransmissions bypass the batch stage and are
                        // sealed individually: the rare path pays the
                        // per-frame HMAC so the common path doesn't.
                        let Some(link) = self.neighbors.get(&frame.to) else {
                            continue;
                        };
                        let mut body = frame.body.to_vec();
                        set_frame_id(&mut body, id);
                        seal(ctx, link, &body);
                        ctx.count("spines.retx", 1);
                    }
                }
                ctx.set_timer(self.cfg.retransmit_interval, TIMER_RETX);
            }
            TIMER_FLUSH => {
                self.flush_scheduled = false;
                self.flush_links(ctx);
            }
            _ => {}
        }
    }
}

impl std::fmt::Debug for Daemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Daemon")
            .field("me", &self.me)
            .field("neighbors", &self.neighbors.len())
            .field("clients", &self.clients.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn horizon_follows_the_backoff_schedule() {
        // 60, 120, 240, 480, 960 and 1,920 ms, then the 2 s cap seven
        // times, each plus a 20 ms retransmission scan.
        let cfg = DaemonConfig::default();
        assert_eq!(cfg.retransmission_horizon(), Span::millis(18_040));
        assert_eq!(cfg.dedup_limits().span, 18_040_000);
        let once = DaemonConfig {
            max_retries: 0,
            ..cfg
        };
        assert_eq!(once.retransmission_horizon(), Span::millis(80));
        // A first timeout above the cap is kept; later ones are capped.
        let slow = DaemonConfig {
            retransmit_timeout: Span::secs(5),
            max_retries: 2,
            ..cfg
        };
        assert_eq!(
            slow.retransmission_horizon(),
            Span::millis(5_020 + 2 * 2_020)
        );
    }
}
