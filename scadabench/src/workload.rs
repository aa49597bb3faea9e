//! The workloads: one wide-area deployment (f=1, k=1, six replicas
//! over two control centres and two data centres, default `WanModel`),
//! one HMI mix, and an open-loop field load that differs per workload.

use spire::deployment::{Deployment, DeploymentConfig, RollingRecoveryConfig};
use spire_prime::ByzBehavior;
use spire_sim::{ControlOp, Span, Time};
use std::fmt;

/// RTUs reporting in every workload.
pub const RTUS: u32 = 10;
/// HMI consoles in every workload.
pub const HMIS: u32 = 2;
/// Each HMI issues an ordered read this often (200 ms).
pub const POLL_INTERVAL: Span = Span(200_000);
/// Each HMI issues a field-bound write this often (2 s).
pub const COMMAND_INTERVAL: Span = Span(2_000_000);
/// rt worker threads (the benchmark host has two cores).
pub const RT_WORKERS: usize = 2;

/// Which substrate hosts a workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Substrate {
    /// Deterministic simulator, virtual time.
    Sim,
    /// Real-clock runtime, wall time.
    Rt,
}

impl fmt::Display for Substrate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Substrate::Sim => write!(f, "sim"),
            Substrate::Rt => write!(f, "rt:{RT_WORKERS}"),
        }
    }
}

/// A named benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Normal operation on the simulator: Spines forwarding and Prime
    /// ordering do the work; signatures, recovery and the runtime do none.
    WanSteady,
    /// Real ed25519 on the real-clock runtime: the only workload with
    /// signature crypto on the critical path. Its metrics do not repeat
    /// across seeds, so `BENCHMARK.json` does not gate on it.
    RtRealSigs,
    /// Mock signatures on the real-clock runtime at a low rate, far below
    /// the two-core knee: the runtime's queues, timer wheel and thread
    /// hand-offs on the critical path without signature cost. Wall-clock
    /// latency moves with the host's other work, so `BENCHMARK.json` does
    /// not gate on it either.
    RtMockSigs,
    /// `WanSteady`'s load under a leader attack and rolling proactive
    /// recovery: drives suspect-leader detection, view change and
    /// erasure-coded state transfer, all idle in `WanSteady`.
    LeaderRecovery,
    /// `LeaderRecovery` plus a 60%-loss DoS on control centre 0: adds
    /// Spines retransmission. Its tail metrics are bimodal across seeds at
    /// the parent commit, so `BENCHMARK.json` does not gate on it.
    UnderAttack,
}

/// Every workload; `BENCHMARK.json` gates on `wan_steady` and
/// `leader_recovery`, the two whose metrics repeat across seeds.
pub const ALL: [Workload; 5] = [
    Workload::WanSteady,
    Workload::LeaderRecovery,
    Workload::RtMockSigs,
    Workload::RtRealSigs,
    Workload::UnderAttack,
];

/// One scheduled proactive-recovery window `(replica, start, end)`.
pub type Window = (u32, Time, Time);

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WanSteady => "wan_steady",
            Workload::LeaderRecovery => "leader_recovery",
            Workload::RtRealSigs => "rt_real_sigs",
            Workload::RtMockSigs => "rt_mock_sigs",
            Workload::UnderAttack => "under_attack",
        }
    }

    /// The hosting substrate.
    pub fn substrate(self) -> Substrate {
        match self {
            Workload::RtRealSigs | Workload::RtMockSigs => Substrate::Rt,
            _ => Substrate::Sim,
        }
    }

    /// Interval between one RTU's reports: 10/s on sim, 1/s on rt with
    /// real signatures, 5/s on rt with mock ones. With real
    /// signatures (about 40 ms of CPU per ordered operation) rt at 4/s ran
    /// the two cores 75–97% busy and one run in five collapsed.
    pub fn update_interval(self) -> Span {
        match self {
            Workload::RtRealSigs => Span::millis(1000),
            Workload::RtMockSigs => Span::millis(200),
            _ => Span::millis(100),
        }
    }

    /// Whether every operation due before the cut-off must confirm by the
    /// end of the drain. `rt_real_sigs` and `under_attack` lose a few at
    /// the parent commit (see the README's known defects).
    pub fn loses_nothing(self) -> bool {
        !matches!(self, Workload::RtRealSigs | Workload::UnderAttack)
    }

    /// Time after the load stops during which in-flight operations may
    /// still confirm. Operations due before the cut-off that have not
    /// confirmed by the end of the drain count as failed.
    pub fn drain(self) -> Span {
        match self {
            Workload::LeaderRecovery | Workload::UnderAttack => Span::secs(5),
            Workload::WanSteady | Workload::RtRealSigs | Workload::RtMockSigs => Span::secs(2),
        }
    }

    /// Whether signatures are mocked (all but `RtRealSigs`).
    pub fn mock_sigs(self) -> bool {
        self != Workload::RtRealSigs
    }

    /// The deployment configuration, seeded from the benchmark seed.
    pub fn config(self, seed: u64, trace: bool) -> DeploymentConfig {
        let mut cfg = DeploymentConfig::wide_area(seed);
        cfg.workload.rtus = RTUS;
        cfg.workload.update_interval = self.update_interval();
        cfg.workload.hmis = HMIS;
        cfg.workload.poll_interval = POLL_INTERVAL;
        cfg.workload.command_interval = COMMAND_INTERVAL;
        cfg.mock_sigs = self.mock_sigs();
        // Pin what `wide_area` would otherwise read from the environment.
        cfg.trace = trace;
        cfg.pipelining = true;
        cfg
    }

    /// Schedules the workload's faults on a freshly built deployment and
    /// returns the recovery windows the benchmark must see close. `load`
    /// is the span the field devices report for.
    ///
    /// Replica 0, the first leader, is compromised with an 800 ms leader
    /// delay at 5 s; rolling recovery takes one replica every 10 s from
    /// 10 s on, each with a 10 s window that closes within the load (the
    /// first recovery rebuilds replica 0 honest). `UnderAttack` adds a
    /// 60%-loss DoS on control centre 0 for the 10 s around the middle of
    /// the load.
    pub fn schedule_faults(self, d: &mut Deployment, load: Span) -> Vec<Window> {
        if !matches!(self, Workload::LeaderRecovery | Workload::UnderAttack) {
            return Vec::new();
        }
        d.schedule_compromise(0, ByzBehavior::LeaderDelay(Span::millis(800)), secs(5));
        let rcfg = RollingRecoveryConfig {
            period: Span::secs(10),
            concurrent: 1,
            ..RollingRecoveryConfig::default()
        };
        let windows = match load.0.checked_sub(rcfg.window.0) {
            Some(last) if last >= Span::secs(10).0 => {
                d.schedule_rolling_recovery(secs(10), Time(last), rcfg)
            }
            _ => Vec::new(),
        };
        if self == Workload::UnderAttack {
            let mid = load.0 / 2;
            let from = Time(mid.saturating_sub(Span::secs(5).0));
            d.schedule_site_dos(0, from, Time(mid + Span::secs(5).0), 0.6);
        }
        windows
    }

    /// Stops every RTU at `load`, so the field load is open-loop up to the
    /// cut-off and then drains. HMIs keep running so their replies still
    /// arrive; only their operations due before the cut-off are counted.
    /// RTUs report in lockstep, as `Deployment::build` starts them: the
    /// bursts are what Prime's and Spines' batching amortize.
    pub fn stop_load(self, d: &mut Deployment, load: Span) {
        let stop = d
            .device_pids
            .iter()
            .map(|&pid| ControlOp::Crash(pid))
            .collect();
        d.schedule_ops(Time(load.0), stop);
    }
}

fn secs(s: u64) -> Time {
    Time(Span::secs(s).0)
}

/// Operations due strictly before the cut-off, from the devices' and
/// HMIs' own schedules: each RTU reports, and each HMI polls and
/// commands, at `k * interval` for `k >= 1`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Due {
    /// RTU status updates.
    pub updates: u64,
    /// HMI ordered reads.
    pub polls: u64,
    /// HMI field-bound writes.
    pub commands: u64,
}

/// How many `k >= 1` have `k * interval < load`.
fn ticks_before(interval: Span, load: Span) -> u64 {
    load.0.saturating_sub(1) / interval.0
}

impl Due {
    /// Operations due in `load` for `w`.
    pub fn of(w: Workload, load: Span) -> Due {
        let per = |interval: Span, n: u32| ticks_before(interval, load) * n as u64;
        Due {
            updates: per(w.update_interval(), RTUS),
            polls: per(POLL_INTERVAL, HMIS),
            commands: per(COMMAND_INTERVAL, HMIS),
        }
    }

    /// All operations due.
    pub fn total(&self) -> u64 {
        self.updates + self.polls + self.commands
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn due_counts_follow_the_schedules() {
        // Strictly before the cut-off: the reports at exactly 20 s are not due.
        let due = Due::of(Workload::WanSteady, Span::secs(20));
        assert_eq!(due.updates, 1_990);
        assert_eq!(due.polls, 198);
        assert_eq!(due.commands, 18);
        let rt = Workload::RtRealSigs;
        assert_eq!(
            Due::of(rt, Span::secs(20)).updates,
            10 * (20_000 / rt.update_interval().as_millis_f64() as u64 - 1)
        );
    }

    #[test]
    fn attack_schedule_windows_close_within_the_load() {
        for (w, load, n) in [
            (Workload::LeaderRecovery, 20, 1),
            (Workload::UnderAttack, 30, 2),
            (Workload::WanSteady, 30, 0),
        ] {
            let load = Span::secs(load);
            let mut d = Deployment::build(w.config(1, false));
            let windows = w.schedule_faults(&mut d, load);
            assert_eq!(windows.len(), n, "{}", w.name());
            assert!(windows.iter().all(|&(_, _, end)| end.0 <= load.0));
        }
    }
}
