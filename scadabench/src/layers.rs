//! Per-layer attribution from outside the program. The traced run drives
//! the simulator one event at a time with `World::step`, times each step,
//! and charges it to the layer of the process named by the step's first
//! trace event (`MsgRecv.to`, `TimerFire.pid`, ...). Steps that record no
//! event are kernel-only work (cancelled timers, drops to down processes),
//! charged to `sim`, unless the online invariant checker ran in them,
//! which is `core`.

use crate::cpu::process_cpu_s;
use crate::run::{self, Outcome, Probe};
use crate::workload::Workload;
use spire::deployment::Deployment;
use spire_sim::{Span, Time, TraceKind};
use std::time::Instant;

/// The workspace layers a simulated process or step belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// RTU device emulators (`scada`).
    Rtu,
    /// RTU proxies (`scada`).
    Proxy,
    /// HMI consoles (`scada`).
    Hmi,
    /// Prime replicas, with the SCADA master inside (`prime`).
    Prime,
    /// Internal (replica) overlay daemons (`spines`).
    SpinesInt,
    /// External (field) overlay daemons (`spines`).
    SpinesExt,
    /// Fault injection and the invariant checker (`core`).
    Core,
    /// The event kernel itself (`sim`).
    Sim,
}

/// Every layer, in report order.
pub const LAYERS: [Layer; 8] = [
    Layer::Rtu,
    Layer::Proxy,
    Layer::Hmi,
    Layer::Prime,
    Layer::SpinesInt,
    Layer::SpinesExt,
    Layer::Core,
    Layer::Sim,
];

/// Process id -> layer for one deployment.
#[derive(Clone, Debug)]
pub struct LayerMap {
    of_pid: Vec<Option<Layer>>,
}

impl LayerMap {
    /// Maps every process of `d` through its role lists and overlays.
    pub fn of(d: &Deployment) -> LayerMap {
        let mut of_pid = vec![None; d.world.process_count()];
        let mut set = |pid: spire_sim::ProcessId, layer| {
            if let Some(slot) = of_pid.get_mut(pid.0 as usize) {
                *slot = Some(layer);
            }
        };
        for &pid in &d.replica_pids {
            set(pid, Layer::Prime);
        }
        for &pid in &d.proxy_pids {
            set(pid, Layer::Proxy);
        }
        for &pid in &d.device_pids {
            set(pid, Layer::Rtu);
        }
        for &pid in &d.hmi_pids {
            set(pid, Layer::Hmi);
        }
        for node in d.internal.topology.nodes() {
            set(d.internal.daemon_pid(node), Layer::SpinesInt);
        }
        for node in d.external.topology.nodes() {
            set(d.external.daemon_pid(node), Layer::SpinesExt);
        }
        LayerMap { of_pid }
    }

    /// The layer of process `pid`, if the map knows it.
    pub fn layer(&self, pid: u32) -> Option<Layer> {
        self.of_pid.get(pid as usize).copied().flatten()
    }

    /// Processes the map does not place in any layer.
    #[cfg(test)]
    pub fn unmapped(&self) -> Vec<u32> {
        (0..self.of_pid.len() as u32)
            .filter(|&pid| self.of_pid[pid as usize].is_none())
            .collect()
    }

    /// The layer a step belongs to, from the first event it recorded.
    fn charge(&self, first: &TraceKind) -> Layer {
        match *first {
            TraceKind::MsgRecv { to: pid, .. }
            | TraceKind::TimerFire { pid, .. }
            | TraceKind::MsgSend { from: pid, .. }
            | TraceKind::PhaseMark { pid, .. }
            | TraceKind::Mark { pid, .. }
            | TraceKind::OverlayHop { daemon: pid, .. } => self.layer(pid).unwrap_or(Layer::Sim),
            TraceKind::Crash { .. } | TraceKind::Restart { .. } => Layer::Core,
            TraceKind::ViewChange { .. }
            | TraceKind::SuspectLeader { .. }
            | TraceKind::RecoveryStart { .. }
            | TraceKind::RecoveryDone { .. }
            | TraceKind::Checkpoint { .. } => Layer::Prime,
        }
    }
}

/// What the traced run measured.
pub struct Traced {
    /// The run's metrics, report and CPU, as an untraced run has them.
    pub outcome: Outcome,
    /// The fault schedule's probe (for the correctness gate).
    pub probe: Probe,
    /// Wall µs charged to each layer, in [`LAYERS`] order.
    pub busy_us: [f64; LAYERS.len()],
    /// Steps charged to each layer, in [`LAYERS`] order.
    pub dispatches: [u64; LAYERS.len()],
    /// Overlay hop-forwards recorded.
    pub hops: u64,
    /// Frames put on simulated links.
    pub frames: u64,
    /// Bytes put on simulated links.
    pub bytes: u64,
    /// Median frame size, bytes.
    pub median_frame: usize,
}

impl Traced {
    /// Wall µs charged to `layer`.
    pub fn busy(&self, layer: Layer) -> f64 {
        self.busy_us[index(layer)]
    }

    /// Steps charged to `layer`.
    pub fn steps(&self, layer: Layer) -> u64 {
        self.dispatches[index(layer)]
    }

    /// Share of the traced loop's wall time charged to a named layer.
    pub fn attributed_frac(&self) -> f64 {
        self.busy_us.iter().sum::<f64>() / (self.outcome.wall_s * 1e6)
    }
}

fn index(layer: Layer) -> usize {
    LAYERS
        .iter()
        .position(|&l| l == layer)
        .expect("listed layer")
}

/// Runs `w` on the simulator with tracing on for `load` plus the drain,
/// one timed step at a time.
pub fn traced(w: Workload, seed: u64, load: Span) -> Traced {
    let (mut d, probe) = run::build(w, seed, load, true);
    let map = LayerMap::of(&d);
    let end = Time((load + w.drain()).0);
    let mut busy_us = [0.0; LAYERS.len()];
    let mut dispatches = [0u64; LAYERS.len()];
    let (mut hops, mut frames, mut bytes) = (0u64, 0u64, 0u64);
    let mut lens: Vec<u32> = Vec::new();
    let recorded = |d: &Deployment| {
        let rec = d.world.tracer().recorder();
        rec.len() as u64 + rec.dropped()
    };
    let mut seen = recorded(&d);
    let mut checks = d.world.metrics().counter("invariant.checks");
    let (cpu0, t0) = (process_cpu_s(), Instant::now());
    while d.world.now() < end {
        let step0 = Instant::now();
        if !d.world.step() {
            break;
        }
        let took = step0.elapsed().as_secs_f64() * 1e6;
        let total = recorded(&d);
        let fresh = (total - seen) as usize;
        seen = total;
        let layer = if fresh == 0 {
            let now = d.world.metrics().counter("invariant.checks");
            let ticked = now != checks;
            checks = now;
            if ticked {
                Layer::Core
            } else {
                Layer::Sim
            }
        } else {
            let mut events = d.world.tracer().recorder().tail(fresh);
            let first = events.next().expect("fresh events are held");
            for ev in std::iter::once(first).chain(events) {
                match ev.kind {
                    TraceKind::OverlayHop { .. } => hops += 1,
                    TraceKind::MsgSend { len, .. } => {
                        frames += 1;
                        bytes += len as u64;
                        lens.push(len);
                    }
                    _ => {}
                }
            }
            map.charge(&first.kind)
        };
        busy_us[index(layer)] += took;
        dispatches[index(layer)] += 1;
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;
    let median_frame = if lens.is_empty() {
        0
    } else {
        let mid = lens.len() / 2;
        *lens.select_nth_unstable(mid).1 as usize
    };
    Traced {
        outcome: Outcome {
            metrics: d.world.metrics().clone(),
            report: d.report(),
            cpu_s,
            cpu: Default::default(),
            wall_s,
        },
        probe,
        busy_us,
        dispatches,
        hops,
        frames,
        bytes,
        median_frame,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::ALL;

    #[test]
    fn layer_map_covers_every_process_the_build_creates() {
        for w in ALL {
            let d = Deployment::build(w.config(3, false));
            let map = LayerMap::of(&d);
            assert!(d.world.process_count() > 0);
            assert_eq!(map.unmapped(), Vec::<u32>::new(), "{}", w.name());
        }
    }
}
