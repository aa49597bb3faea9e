//! Property-based tests of the overlay: codec roundtrips and routing
//! invariants over randomly generated topologies.

use proptest::prelude::*;
use spire_spines::{DataMsg, Dissemination, OverlayId, OverlayMsg, Topology};

fn arb_dissemination() -> impl Strategy<Value = Dissemination> {
    prop_oneof![
        Just(Dissemination::Shortest),
        (1u8..5).prop_map(Dissemination::DisjointPaths),
        Just(Dissemination::Flood),
    ]
}

fn arb_data_msg() -> impl Strategy<Value = DataMsg> {
    (
        any::<u16>(),
        any::<u16>(),
        any::<u16>(),
        any::<u16>(),
        any::<u64>(),
        arb_dissemination(),
        any::<u8>(),
        proptest::collection::vec(any::<u16>(), 0..8),
        any::<bool>(),
        proptest::collection::vec(any::<u8>(), 0..128),
    )
        .prop_map(
            |(src, sp, dst, dp, seq, mode, ttl, route, reliable, payload)| DataMsg {
                src: OverlayId(src),
                src_port: sp,
                dst: OverlayId(dst),
                dst_port: dp,
                seq,
                mode,
                ttl,
                route: route.into_iter().map(OverlayId).collect(),
                route_idx: 0,
                reliable,
                payload: bytes::Bytes::from(payload),
            },
        )
}

fn arb_payload() -> impl Strategy<Value = bytes::Bytes> {
    proptest::collection::vec(any::<u8>(), 0..128).prop_map(bytes::Bytes::from)
}

/// Every [`OverlayMsg`] variant, with random field values.
fn arb_overlay_msg() -> impl Strategy<Value = OverlayMsg> {
    prop_oneof![
        (any::<u16>(), any::<u64>()).prop_map(|(from, seq)| OverlayMsg::Hello {
            from: OverlayId(from),
            seq,
        }),
        (
            any::<u16>(),
            any::<u64>(),
            proptest::collection::vec((any::<u16>(), any::<u32>()), 0..16),
            any::<u8>(),
        )
            .prop_map(|(origin, seq, neighbors, sig)| OverlayMsg::Lsa {
                origin: OverlayId(origin),
                seq,
                neighbors: neighbors
                    .into_iter()
                    .map(|(n, w)| (OverlayId(n), w))
                    .collect(),
                sig: [sig; 64],
            }),
        (any::<u64>(), arb_data_msg())
            .prop_map(|(frame_id, msg)| OverlayMsg::Data { frame_id, msg }),
        any::<u64>().prop_map(|frame_id| OverlayMsg::HopAck { frame_id }),
        any::<u16>().prop_map(|port| OverlayMsg::ClientAttach { port }),
        (
            any::<u16>(),
            any::<u16>(),
            arb_dissemination(),
            any::<bool>(),
            arb_payload(),
        )
            .prop_map(
                |(dst, dst_port, mode, reliable, payload)| OverlayMsg::ClientSend {
                    dst: OverlayId(dst),
                    dst_port,
                    mode,
                    reliable,
                    payload,
                }
            ),
        (any::<u16>(), any::<u16>(), arb_payload()).prop_map(|(src, src_port, payload)| {
            OverlayMsg::ClientDeliver {
                src: OverlayId(src),
                src_port,
                payload,
            }
        }),
        proptest::collection::vec(any::<u64>(), 0..40)
            .prop_map(|frame_ids| OverlayMsg::HopAckMulti { frame_ids }),
        proptest::collection::vec(arb_payload(), 0..8)
            .prop_map(|frames| OverlayMsg::Batch { frames }),
    ]
}

/// Random connected topology: a spanning tree plus random extra edges.
fn arb_topology() -> impl Strategy<Value = Topology> {
    (
        2u16..12,
        proptest::collection::vec((any::<u16>(), any::<u16>(), 1u32..20), 0..20),
    )
        .prop_map(|(n, extras)| {
            let mut t = Topology::new();
            for i in 0..n {
                t.add_node(OverlayId(i));
            }
            for i in 1..n {
                // Deterministic spanning tree: parent = i / 2.
                t.add_edge(OverlayId(i), OverlayId(i / 2), 1 + (i as u32 % 7));
            }
            for (a, b, w) in extras {
                let a = a % n;
                let b = b % n;
                if a != b {
                    t.add_edge(OverlayId(a), OverlayId(b), w);
                }
            }
            t
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Encoders size their buffers from `encoded_len`; it must never drift
    /// from what `encode` writes.
    #[test]
    fn encoded_len_matches_encode(msg in arb_overlay_msg()) {
        prop_assert_eq!(msg.encode().len(), msg.encoded_len());
    }

    #[test]
    fn overlay_msg_roundtrip(msg in arb_overlay_msg()) {
        let bytes = msg.encode();
        prop_assert_eq!(OverlayMsg::decode(&bytes).expect("decode"), msg);
    }

    #[test]
    fn data_msg_roundtrip(msg in arb_data_msg()) {
        let wire = OverlayMsg::Data { frame_id: 42, msg };
        let decoded = OverlayMsg::decode(&wire.encode()).unwrap();
        prop_assert_eq!(decoded, wire);
    }

    #[test]
    fn decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = OverlayMsg::decode(&bytes);
    }

    #[test]
    fn shortest_paths_are_valid_walks(t in arb_topology(), a in any::<u16>(), b in any::<u16>()) {
        let n = t.node_count() as u16;
        let (a, b) = (OverlayId(a % n), OverlayId(b % n));
        if let Some(path) = t.shortest_path(a, b) {
            prop_assert_eq!(path.first(), Some(&a));
            prop_assert_eq!(path.last(), Some(&b));
            for w in path.windows(2) {
                prop_assert!(t.has_edge(w[0], w[1]), "non-edge in path");
            }
            // No repeated nodes (it is a simple path).
            let unique: std::collections::BTreeSet<_> = path.iter().collect();
            prop_assert_eq!(unique.len(), path.len());
        }
    }

    #[test]
    fn spanning_tree_construction_is_connected(t in arb_topology()) {
        prop_assert!(t.is_connected());
    }

    #[test]
    fn disjoint_paths_share_no_edges(t in arb_topology(), a in any::<u16>(), b in any::<u16>(), k in 1usize..4) {
        let n = t.node_count() as u16;
        let (a, b) = (OverlayId(a % n), OverlayId(b % n));
        prop_assume!(a != b);
        let paths = t.disjoint_paths(a, b, k);
        let mut used = std::collections::BTreeSet::new();
        for path in &paths {
            prop_assert_eq!(path.first(), Some(&a));
            prop_assert_eq!(path.last(), Some(&b));
            for w in path.windows(2) {
                let e = if w[0] < w[1] { (w[0], w[1]) } else { (w[1], w[0]) };
                prop_assert!(used.insert(e), "edge shared between disjoint paths");
            }
        }
    }

    #[test]
    fn removing_a_path_still_leaves_shortest_if_disjoint_exists(
        t in arb_topology(), a in any::<u16>(), b in any::<u16>()) {
        let n = t.node_count() as u16;
        let (a, b) = (OverlayId(a % n), OverlayId(b % n));
        prop_assume!(a != b);
        let paths = t.disjoint_paths(a, b, 2);
        if paths.len() == 2 {
            // Remove every edge of the first path; the second must remain.
            let mut t2 = t.clone();
            for w in paths[0].windows(2) {
                t2.remove_edge(w[0], w[1]);
            }
            prop_assert!(t2.shortest_path(a, b).is_some());
        }
    }
}
