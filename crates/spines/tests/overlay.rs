//! End-to-end tests of the Spines overlay inside the simulator: delivery
//! under each dissemination mode, resilience to node/link failures, link
//! authentication, and per-source flooding fairness.

use bytes::Bytes;
use spire_crypto::hmac::hmac_sha256;
use spire_crypto::{KeyMaterial, KeyStore, NodeId};
use spire_sim::{Context, LinkConfig, Process, ProcessId, Span, Time, World};
use spire_spines::{
    DaemonBehavior, DaemonConfig, DataMsg, Dissemination, OverlayAddr, OverlayId, OverlayMsg,
    OverlayNetwork, SpinesPort, Topology,
};
use std::sync::Arc;

const APP_PORT: u16 = 100;

/// A client that sends `count` messages to `dst` at a fixed interval and
/// records deliveries it receives.
struct App {
    port: SpinesPort,
    dst: Option<OverlayAddr>,
    mode: Dissemination,
    reliable: bool,
    count: u32,
    interval: Span,
    sent: u32,
    label: String,
}

impl App {
    fn sender(
        port: SpinesPort,
        dst: OverlayAddr,
        mode: Dissemination,
        reliable: bool,
        count: u32,
        interval: Span,
        label: &str,
    ) -> App {
        App {
            port,
            dst: Some(dst),
            mode,
            reliable,
            count,
            interval,
            sent: 0,
            label: label.to_string(),
        }
    }

    fn receiver(port: SpinesPort, label: &str) -> App {
        App {
            port,
            dst: None,
            mode: Dissemination::Shortest,
            reliable: false,
            count: 0,
            interval: Span::millis(100),
            sent: 0,
            label: label.to_string(),
        }
    }
}

impl Process for App {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.port.attach(ctx);
        if self.dst.is_some() && self.count > 0 {
            ctx.set_timer(Span::millis(100), 1);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, _from: ProcessId, bytes: &Bytes) {
        if let Some((_, payload)) = SpinesPort::decode_deliver(bytes) {
            ctx.count(&format!("{}.rx", self.label), 1);
            // Record latency embedded as the send timestamp.
            if payload.len() >= 8 {
                let sent_us = u64::from_le_bytes(payload[..8].try_into().unwrap());
                let latency_ms = (ctx.now().0.saturating_sub(sent_us)) as f64 / 1000.0;
                ctx.record(&format!("{}.latency_ms", self.label), latency_ms);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, _tag: u64) {
        if self.sent < self.count {
            let dst = self.dst.unwrap();
            let mut payload = ctx.now().0.to_le_bytes().to_vec();
            payload.extend_from_slice(&[0u8; 56]); // pad to a realistic size
            self.port
                .send(ctx, dst, self.mode, self.reliable, Bytes::from(payload));
            self.sent += 1;
            ctx.count("app.sent", 1);
            ctx.set_timer(self.interval, 1);
        }
    }
}

struct Harness {
    world: World,
    net: OverlayNetwork,
}

/// Builds a 6-node ring-with-chords overlay (two disjoint paths between any
/// pair) with 10 ms WAN links.
fn build(seed: u64, behavior_of: impl Fn(OverlayId) -> DaemonBehavior) -> Harness {
    let mut topology = Topology::ring(6, 10);
    topology.add_edge(OverlayId(0), OverlayId(3), 10);
    let mut world = World::new(seed);
    let material = KeyMaterial::new([9u8; 32]);
    let keystore = Arc::new(KeyStore::for_nodes(&material, 64));
    let net = OverlayNetwork::build(
        &mut world,
        &topology,
        DaemonConfig::default(),
        &material,
        &keystore,
        0,
        |_, _| LinkConfig::wan(10),
        behavior_of,
    );
    Harness { world, net }
}

fn add_app(h: &mut Harness, overlay: OverlayId, app: impl FnOnce(SpinesPort) -> App) -> ProcessId {
    let daemon_pid = h.net.daemon_pid(overlay);
    let port = SpinesPort::new(
        daemon_pid,
        OverlayAddr {
            node: overlay,
            port: APP_PORT,
        },
    );
    let app = app(port);
    let label = app.label.clone();
    let pid = h.world.add_process(&label, Box::new(app));
    h.net.wire_client(&mut h.world, overlay, pid);
    pid
}

fn dst_addr(node: u16) -> OverlayAddr {
    OverlayAddr {
        node: OverlayId(node),
        port: APP_PORT,
    }
}

#[test]
fn shortest_path_delivery() {
    let mut h = build(1, |_| DaemonBehavior::Honest);
    add_app(&mut h, OverlayId(5), |p| App::receiver(p, "rx"));
    add_app(&mut h, OverlayId(2), |p| {
        App::sender(
            p,
            dst_addr(5),
            Dissemination::Shortest,
            false,
            20,
            Span::millis(50),
            "tx",
        )
    });
    h.world.run_for(Span::secs(10));
    assert_eq!(h.world.metrics().counter("rx.rx"), 20);
    // 2 -> 5 is 3 hops of 10 ms plus jitter; well under 60 ms.
    let lats = h.world.metrics().values("rx.latency_ms");
    assert!(lats.iter().all(|l| *l < 60.0), "latencies: {lats:?}");
}

#[test]
fn flood_delivers_exactly_once() {
    let mut h = build(2, |_| DaemonBehavior::Honest);
    add_app(&mut h, OverlayId(4), |p| App::receiver(p, "rx"));
    add_app(&mut h, OverlayId(0), |p| {
        App::sender(
            p,
            dst_addr(4),
            Dissemination::Flood,
            false,
            25,
            Span::millis(40),
            "tx",
        )
    });
    h.world.run_for(Span::secs(10));
    // Flooding produces many copies in the network but exactly one delivery
    // per message at the destination.
    assert_eq!(h.world.metrics().counter("rx.rx"), 25);
}

#[test]
fn disjoint_paths_survive_single_node_failure() {
    let mut h = build(3, |_| DaemonBehavior::Honest);
    add_app(&mut h, OverlayId(3), |p| App::receiver(p, "rx"));
    add_app(&mut h, OverlayId(0), |p| {
        App::sender(
            p,
            dst_addr(3),
            Dissemination::DisjointPaths(3),
            false,
            50,
            Span::millis(100),
            "tx",
        )
    });
    // Kill overlay node 1 (on one of the paths) after 1 s, before most
    // messages are sent.
    let victim = h.net.daemon_pid(OverlayId(1));
    h.world
        .schedule_control(spire_sim::Time(1_000_000), move |w| w.crash(victim));
    h.world.run_for(Span::secs(10));
    // Every message still arrives via the surviving disjoint path(s).
    assert_eq!(h.world.metrics().counter("rx.rx"), 50);
}

#[test]
fn flood_survives_any_single_failure_and_reroutes() {
    let mut h = build(4, |_| DaemonBehavior::Honest);
    add_app(&mut h, OverlayId(3), |p| App::receiver(p, "rx"));
    add_app(&mut h, OverlayId(0), |p| {
        App::sender(
            p,
            dst_addr(3),
            Dissemination::Flood,
            false,
            50,
            Span::millis(100),
            "tx",
        )
    });
    let victim = h.net.daemon_pid(OverlayId(4));
    h.world
        .schedule_control(spire_sim::Time(500_000), move |w| w.crash(victim));
    h.world.run_for(Span::secs(10));
    assert_eq!(h.world.metrics().counter("rx.rx"), 50);
}

#[test]
fn shortest_path_reroutes_after_link_failure() {
    let mut h = build(5, |_| DaemonBehavior::Honest);
    add_app(&mut h, OverlayId(2), |p| App::receiver(p, "rx"));
    add_app(&mut h, OverlayId(0), |p| {
        App::sender(
            p,
            dst_addr(2),
            Dissemination::Shortest,
            true,
            60,
            Span::millis(100),
            "tx",
        )
    });
    // Cut the 0-1 link at t=2 s: routing must fail over to the other side
    // of the ring once liveness detection fires.
    let net_a = h.net.daemon_pid(OverlayId(0));
    let net_b = h.net.daemon_pid(OverlayId(1));
    h.world
        .schedule_control(spire_sim::Time(2_000_000), move |w| {
            w.set_link_up(net_a, net_b, false)
        });
    h.world.run_for(Span::secs(15));
    let delivered = h.world.metrics().counter("rx.rx");
    // A brief outage window is allowed while the failure is detected; the
    // vast majority of messages must be delivered.
    assert!(delivered >= 50, "delivered={delivered}");
}

#[test]
fn forged_frames_are_dropped_by_hmac() {
    let mut h = build(6, |_| DaemonBehavior::Honest);
    add_app(&mut h, OverlayId(1), |p| App::receiver(p, "rx"));
    // Inject garbage "from" daemon 0's pid to daemon 1: since it is not
    // HMAC'd with the link key, daemon 1 must drop it.
    let d0 = h.net.daemon_pid(OverlayId(0));
    let d1 = h.net.daemon_pid(OverlayId(1));
    let forged = Bytes::from(vec![3u8; 200]);
    h.world
        .inject_message(spire_sim::Time(1_000_000), d0, d1, forged);
    h.world.run_for(Span::secs(3));
    assert_eq!(h.world.metrics().counter("spines.hmac_fail"), 1);
    assert_eq!(h.world.metrics().counter("rx.rx"), 0);
}

#[test]
fn blackhole_on_shortest_path_defeated_by_flooding() {
    // Daemon 1 is compromised and blackholes data. Shortest-path traffic
    // 0 -> 2 crossing node 1 is lost, but flooding still delivers.
    let behavior = |id: OverlayId| {
        if id == OverlayId(1) {
            DaemonBehavior::Blackhole
        } else {
            DaemonBehavior::Honest
        }
    };
    let mut h = build(7, behavior);
    add_app(&mut h, OverlayId(2), |p| App::receiver(p, "rx_short"));
    add_app(&mut h, OverlayId(0), |p| {
        App::sender(
            p,
            OverlayAddr {
                node: OverlayId(2),
                port: APP_PORT,
            },
            Dissemination::Shortest,
            false,
            20,
            Span::millis(50),
            "tx1",
        )
    });
    h.world.run_for(Span::secs(5));
    let via_shortest = h.world.metrics().counter("rx_short.rx");
    assert_eq!(
        via_shortest, 0,
        "blackhole should eat shortest-path traffic"
    );

    let mut h = build(8, behavior);
    add_app(&mut h, OverlayId(2), |p| App::receiver(p, "rx_flood"));
    add_app(&mut h, OverlayId(0), |p| {
        App::sender(
            p,
            OverlayAddr {
                node: OverlayId(2),
                port: APP_PORT,
            },
            Dissemination::Flood,
            false,
            20,
            Span::millis(50),
            "tx2",
        )
    });
    h.world.run_for(Span::secs(5));
    assert_eq!(h.world.metrics().counter("rx_flood.rx"), 20);
}

#[test]
fn flooding_attacker_cannot_starve_other_sources() {
    // Node 5 floods aggressively; a legitimate sender at node 0 must still
    // get its traffic through thanks to per-source fair rate limiting.
    let mut h = build(9, |_| DaemonBehavior::Honest);
    add_app(&mut h, OverlayId(3), |p| App::receiver(p, "rx"));
    add_app(&mut h, OverlayId(0), |p| {
        App::sender(
            p,
            dst_addr(3),
            Dissemination::Flood,
            false,
            30,
            Span::millis(100),
            "legit",
        )
    });
    // Attacker: 5000 msgs at 0.5 ms intervals (2000/s sustained).
    add_app(&mut h, OverlayId(5), |p| {
        App::sender(
            p,
            OverlayAddr {
                node: OverlayId(2),
                port: APP_PORT,
            },
            Dissemination::Flood,
            false,
            5_000,
            Span::micros(500),
            "attacker",
        )
    });
    h.world.run_for(Span::secs(10));
    assert_eq!(
        h.world.metrics().counter("rx.rx"),
        30,
        "legitimate traffic starved; rate-limited drops: {}",
        h.world.metrics().counter("spines.flood_rate_limited")
    );
}

#[test]
fn reliable_mode_survives_heavy_loss() {
    // 20% loss on every link; hop-by-hop retransmission must recover.
    let mut topology = Topology::ring(4, 10);
    topology.add_edge(OverlayId(0), OverlayId(2), 10);
    let mut world = World::new(11);
    let material = KeyMaterial::new([9u8; 32]);
    let keystore = Arc::new(KeyStore::for_nodes(&material, 64));
    let net = OverlayNetwork::build(
        &mut world,
        &topology,
        DaemonConfig::default(),
        &material,
        &keystore,
        0,
        |_, _| LinkConfig::wan(5).with_loss(0.2),
        |_| DaemonBehavior::Honest,
    );
    let mut h = Harness { world, net };
    add_app(&mut h, OverlayId(2), |p| App::receiver(p, "rx"));
    add_app(&mut h, OverlayId(0), |p| {
        App::sender(
            p,
            dst_addr(2),
            Dissemination::Shortest,
            true,
            100,
            Span::millis(50),
            "tx",
        )
    });
    h.world.run_for(Span::secs(20));
    let delivered = h.world.metrics().counter("rx.rx");
    assert!(
        delivered >= 97,
        "delivered={delivered}, retx={}",
        h.world.metrics().counter("spines.retx")
    );
    assert!(h.world.metrics().counter("spines.retx") > 0);
}

#[test]
fn corrupted_frames_are_detected_and_recovered_by_retransmission() {
    // 10% of frames get a flipped byte in transit: the HMAC check drops
    // them at the receiving hop and hop-by-hop reliability retransmits.
    let mut topology = Topology::ring(4, 10);
    topology.add_edge(OverlayId(0), OverlayId(2), 10);
    let mut world = World::new(77);
    let material = KeyMaterial::new([9u8; 32]);
    let keystore = Arc::new(KeyStore::for_nodes(&material, 64));
    let net = OverlayNetwork::build(
        &mut world,
        &topology,
        DaemonConfig::default(),
        &material,
        &keystore,
        0,
        |_, _| LinkConfig::wan(5).with_corruption(0.1),
        |_| DaemonBehavior::Honest,
    );
    let mut h = Harness { world, net };
    add_app(&mut h, OverlayId(2), |p| App::receiver(p, "rx"));
    add_app(&mut h, OverlayId(0), |p| {
        App::sender(
            p,
            dst_addr(2),
            Dissemination::Shortest,
            true,
            80,
            Span::millis(50),
            "tx",
        )
    });
    h.world.run_for(Span::secs(20));
    let delivered = h.world.metrics().counter("rx.rx");
    let hmac_fail = h.world.metrics().counter("spines.hmac_fail");
    assert!(hmac_fail > 0, "corruption never hit a frame");
    assert!(
        delivered >= 78,
        "delivered={delivered} despite reliability (hmac_fail={hmac_fail})"
    );
}

#[test]
fn unattached_client_sends_are_dropped() {
    struct Rogue {
        port: SpinesPort,
    }
    impl Process for Rogue {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            // Deliberately no attach: the daemon must not route for us.
            self.port.send(
                ctx,
                OverlayAddr {
                    node: OverlayId(1),
                    port: APP_PORT,
                },
                Dissemination::Shortest,
                false,
                Bytes::from_static(b"spoof"),
            );
        }
        fn on_message(&mut self, _: &mut Context<'_>, _: ProcessId, _: &Bytes) {}
    }
    let mut h = build(31, |_| DaemonBehavior::Honest);
    add_app(&mut h, OverlayId(1), |p| App::receiver(p, "rx"));
    let daemon = h.net.daemon_pid(OverlayId(0));
    let port = SpinesPort::new(
        daemon,
        OverlayAddr {
            node: OverlayId(0),
            port: 999,
        },
    );
    let rogue = h.world.add_process("rogue", Box::new(Rogue { port }));
    h.net.wire_client(&mut h.world, OverlayId(0), rogue);
    h.world.run_for(Span::secs(3));
    assert_eq!(
        h.world.metrics().counter("spines.unattached_client_drop"),
        1
    );
    assert_eq!(h.world.metrics().counter("rx.rx"), 0);
}

#[test]
fn ttl_bounds_forwarding() {
    // A TTL smaller than the path length must prevent delivery (and the
    // drop is accounted), while flooding in a connected graph with ample
    // TTL always arrives.
    let mut topology = Topology::new();
    for i in 0..5 {
        topology.add_node(OverlayId(i));
    }
    for i in 0..4 {
        topology.add_edge(OverlayId(i), OverlayId(i + 1), 10);
    }
    let mut world = World::new(41);
    let material = KeyMaterial::new([9u8; 32]);
    let keystore = Arc::new(KeyStore::for_nodes(&material, 64));
    let cfg = DaemonConfig {
        default_ttl: 2, // path 0 -> 4 needs 4 hops
        ..DaemonConfig::default()
    };
    let net = OverlayNetwork::build(
        &mut world,
        &topology,
        cfg,
        &material,
        &keystore,
        0,
        |_, _| LinkConfig::wan(5),
        |_| DaemonBehavior::Honest,
    );
    let mut h = Harness { world, net };
    add_app(&mut h, OverlayId(4), |p| App::receiver(p, "rx"));
    add_app(&mut h, OverlayId(0), |p| {
        App::sender(
            p,
            dst_addr(4),
            Dissemination::Shortest,
            false,
            5,
            Span::millis(50),
            "tx",
        )
    });
    h.world.run_for(Span::secs(5));
    assert_eq!(h.world.metrics().counter("rx.rx"), 0);
    assert!(h.world.metrics().counter("spines.ttl_drop") >= 5);
}

#[test]
fn stale_lsas_age_out_after_daemon_death() {
    // Kill a daemon and verify the rest of the overlay eventually ages its
    // advertisement out of their link-state databases (observable as an
    // aging metric plus continued correct routing).
    let mut h = build(51, |_| DaemonBehavior::Honest);
    add_app(&mut h, OverlayId(3), |p| App::receiver(p, "rx"));
    add_app(&mut h, OverlayId(0), |p| {
        App::sender(
            p,
            dst_addr(3),
            Dissemination::Shortest,
            true,
            90,
            Span::millis(500),
            "tx",
        )
    });
    let victim = h.net.daemon_pid(OverlayId(1));
    h.world
        .schedule_control(spire_sim::Time(5_000_000), move |w| w.crash(victim));
    h.world.run_for(Span::secs(50));
    assert!(
        h.world.metrics().counter("spines.lsa_aged_out") > 0,
        "dead daemon's LSA never aged out"
    );
    // Routing kept working around the death.
    let delivered = h.world.metrics().counter("rx.rx");
    assert!(delivered >= 85, "delivered={delivered}");
}

/// Seals `msg` as daemon `from` would on its link to daemon `to` (the
/// harness provisions key base 0 from `[9; 32]`): what a compromised
/// neighbor holding that link key can put on the wire.
fn sealed_by_neighbor(from: u16, to: u16, msg: &OverlayMsg) -> Bytes {
    let key = KeyMaterial::new([9u8; 32]).link_key(NodeId(from as u32), NodeId(to as u32));
    let mut wire = msg.encode().to_vec();
    let tag = hmac_sha256(&key, &wire);
    wire.extend_from_slice(&tag);
    Bytes::from(wire)
}

fn forged_data(
    frame_id: u64,
    src: u16,
    src_port: u16,
    seq: u64,
    dst: u16,
    dst_port: u16,
) -> OverlayMsg {
    OverlayMsg::Data {
        frame_id,
        msg: DataMsg {
            src: OverlayId(src),
            src_port,
            dst: OverlayId(dst),
            dst_port,
            seq,
            mode: Dissemination::Flood,
            ttl: 32,
            route: Vec::new(),
            route_idx: 0,
            reliable: true,
            payload: Bytes::from(vec![0u8; 64]),
        },
    }
}

#[test]
fn neighbor_cannot_preempt_another_links_frame_ids() {
    // Daemon 2, compromised, sends daemon 1 authenticated frames carrying
    // the ids daemon 0 is about to use (daemon 0 numbers its data frames
    // from `0 << 40`). Frame dedup is per authenticated link, so daemon
    // 0's real frames with those ids are still new on their own link.
    let mut h = build(61, |_| DaemonBehavior::Honest);
    add_app(&mut h, OverlayId(1), |p| App::receiver(p, "rx"));
    add_app(&mut h, OverlayId(0), |p| {
        App::sender(
            p,
            dst_addr(1),
            Dissemination::Shortest,
            true,
            40,
            Span::millis(50),
            "tx",
        )
    });
    let d1 = h.net.daemon_pid(OverlayId(1));
    let d2 = h.net.daemon_pid(OverlayId(2));
    for frame_id in 0..200 {
        // A message for an unbound port of daemon 1: dropped there.
        let forged = forged_data(frame_id, 2, 999, frame_id + 1, 1, 999);
        h.world
            .inject_message(Time(50_000), d2, d1, sealed_by_neighbor(2, 1, &forged));
    }
    h.world.run_for(Span::secs(5));
    assert_eq!(h.world.metrics().counter("spines.hmac_fail"), 0);
    assert_eq!(h.world.metrics().counter("spines.no_client_drop"), 200);
    assert_eq!(h.world.metrics().counter("rx.rx"), 40);
}

#[test]
fn forged_far_ahead_seq_is_dropped_not_followed() {
    // Daemon 2, compromised, floods one message claiming daemon 0's
    // client port with a sequence number far beyond anything sent. Daemon
    // 3 refuses it rather than moving its window for that source past the
    // source's in-flight traffic, which keeps arriving exactly once.
    let mut h = build(62, |_| DaemonBehavior::Honest);
    add_app(&mut h, OverlayId(4), |p| App::receiver(p, "rx"));
    add_app(&mut h, OverlayId(0), |p| {
        App::sender(
            p,
            dst_addr(4),
            Dissemination::Flood,
            true,
            50,
            Span::millis(40),
            "tx",
        )
    });
    let d2 = h.net.daemon_pid(OverlayId(2));
    let d3 = h.net.daemon_pid(OverlayId(3));
    let forged = forged_data(1 << 41, 0, APP_PORT, u64::MAX / 2, 4, APP_PORT);
    h.world
        .inject_message(Time(1_000_000), d2, d3, sealed_by_neighbor(2, 3, &forged));
    h.world.run_for(Span::secs(6));
    assert_eq!(h.world.metrics().counter("spines.seq_ahead_drop"), 1);
    assert_eq!(h.world.metrics().counter("rx.rx"), 50);
}

/// Mean of a series' samples (every daemon's) recorded in `(after, upto]`
/// seconds.
fn mean_in(h: &Harness, series: &str, after: u64, upto: u64) -> f64 {
    let samples =
        h.world
            .metrics()
            .series_window(series, Time(after * 1_000_000), Time(upto * 1_000_000));
    samples.iter().map(|(_, v)| *v).sum::<f64>() / samples.len().max(1) as f64
}

#[test]
fn retained_state_plateaus_over_a_long_wide_area_run() {
    // Two reliable flooding sources for 130 sim-seconds over 10 ms WAN
    // links with 10% loss, so frames wait for retransmission. The
    // retransmission table and the dedup windows follow the traffic of one
    // retransmission horizon (about 18 s), not the length of the run.
    let mut topology = Topology::ring(6, 10);
    topology.add_edge(OverlayId(0), OverlayId(3), 10);
    let mut world = World::new(63);
    let material = KeyMaterial::new([9u8; 32]);
    let keystore = Arc::new(KeyStore::for_nodes(&material, 64));
    let net = OverlayNetwork::build(
        &mut world,
        &topology,
        DaemonConfig::default(),
        &material,
        &keystore,
        0,
        |_, _| LinkConfig::wan(10).with_loss(0.1),
        |_| DaemonBehavior::Honest,
    );
    let mut h = Harness { world, net };
    add_app(&mut h, OverlayId(3), |p| App::receiver(p, "rx3"));
    add_app(&mut h, OverlayId(5), |p| App::receiver(p, "rx5"));
    for (src, dst) in [(0, 3), (2, 5)] {
        add_app(&mut h, OverlayId(src), |p| {
            App::sender(
                p,
                dst_addr(dst),
                Dissemination::Flood,
                true,
                2_600,
                Span::millis(50),
                "tx",
            )
        });
    }
    h.world.run_for(Span::secs(130));
    assert!(h.world.metrics().counter("rx3.rx") >= 2_590);
    assert!(h.world.metrics().counter("rx5.rx") >= 2_590);
    for series in ["spines.pending_frames", "spines.dedup_bytes"] {
        let early = mean_in(&h, series, 30, 80);
        let late = mean_in(&h, series, 80, 130);
        assert!(early > 0.0, "{series} never recorded");
        assert!(
            late <= early * 1.2,
            "{series} still growing: mean {early} over 30-80 s, {late} over 80-130 s"
        );
    }
}

#[test]
fn neighbor_cannot_ack_frames_sent_to_another_link() {
    // Link 0-1 is down for the first second, so daemon 0's reliable
    // frames to daemon 1 wait for retransmission. Daemon 5, compromised,
    // acks their (easily guessed) ids to daemon 0 in the meantime. Only
    // the neighbor a frame was sent to may retire it, so every message
    // still arrives once the link is back.
    let mut h = build(64, |_| DaemonBehavior::Honest);
    add_app(&mut h, OverlayId(1), |p| App::receiver(p, "rx"));
    add_app(&mut h, OverlayId(0), |p| {
        App::sender(
            p,
            dst_addr(1),
            Dissemination::Shortest,
            true,
            10,
            Span::millis(50),
            "tx",
        )
    });
    h.net
        .set_overlay_link_up(&mut h.world, OverlayId(0), OverlayId(1), false);
    let d0 = h.net.daemon_pid(OverlayId(0));
    let d5 = h.net.daemon_pid(OverlayId(5));
    let forged_ack = OverlayMsg::HopAckMulti {
        frame_ids: (0..100).collect(),
    };
    h.world
        .inject_message(Time(700_000), d5, d0, sealed_by_neighbor(5, 0, &forged_ack));
    h.world.run_for(Span::secs(1));
    h.net
        .set_overlay_link_up(&mut h.world, OverlayId(0), OverlayId(1), true);
    h.world.run_for(Span::secs(5));
    assert_eq!(h.world.metrics().counter("rx.rx"), 10);
}
