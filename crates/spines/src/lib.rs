//! Spines: the intrusion-tolerant overlay network of the Spire system,
//! reproduced from scratch.
//!
//! Spire (Babay et al., DSN 2018) routes all SCADA traffic over the Spines
//! overlay-messaging system so that the *network itself* tolerates attacks:
//! links are authenticated, routing survives node and link failures, and
//! resource allocation is fair per source so flooding denial-of-service
//! cannot starve legitimate traffic. This crate reproduces those mechanisms
//! as simulation processes:
//!
//! * [`topology`] — the overlay graph and path computation (shortest paths,
//!   k edge-disjoint paths).
//! * [`msg`] — the overlay wire protocol.
//! * [`daemon`] — the overlay daemon: authenticated links (HMAC), signed
//!   link-state routing, three dissemination modes, hop-by-hop reliability,
//!   and per-source fair rate limiting.
//! * [`client`] — the client library applications use to reach their local
//!   daemon.
//! * [`network`] — a builder that deploys a whole overlay into a
//!   [`spire_sim::World`].
//! * `window` — the daemon's bounded duplicate suppression over sequence
//!   numbers and frame ids.
//!
//! Two separate overlay instances are used by a Spire deployment, exactly as
//! in the paper: an *internal* network connecting SCADA-master replicas
//! across control centers and data centers, and an *external* network
//! connecting substation proxies and HMIs to the control centers.

pub mod client;
pub mod daemon;
pub mod msg;
pub mod network;
pub mod topology;
mod window;

pub use client::{OverlayAddr, SpinesPort};
pub use daemon::{Daemon, DaemonBehavior, DaemonConfig};
pub use msg::{DataMsg, Dissemination, OverlayMsg};
pub use network::OverlayNetwork;
pub use topology::{OverlayId, Topology};
