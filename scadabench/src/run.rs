//! Untraced runs: set-up, the open-loop run with its drain, the
//! end-to-end metrics, and the correctness gate.

use crate::cpu::{process_cpu_s, thread_cpu_s};
use crate::stats::Pct;
use crate::workload::{Due, Substrate, Window, Workload, RT_WORKERS};
use spire::deployment::{Deployment, RtDeployment};
use spire::report::{Report, SLA_MS};
use spire_sim::{Metrics, Span, Time};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// How far (in executed matrices) a recovered replica may trail the
/// furthest replica at the end of the run and still count as caught up.
pub const CATCHUP_SLACK: u64 = 64;

/// A recovering replica as its announced window closed, and at the end of
/// the run.
#[derive(Clone, Copy, Debug)]
pub struct Catchup {
    /// Replica id.
    pub replica: u32,
    /// Window end.
    pub at: Time,
    /// Still in state transfer when the window closed.
    pub recovering: bool,
    /// Executed matrices behind the furthest replica at the end of the
    /// run (`None` until the end-of-run probe fires).
    pub final_lag: Option<u64>,
}

impl Catchup {
    /// Whether the replica finished recovery inside its window and caught
    /// up with the others by the end of the run.
    pub fn ok(&self) -> bool {
        !self.recovering && self.final_lag.is_some_and(|lag| lag <= CATCHUP_SLACK)
    }
}

/// What the benchmark scheduled on a deployment and observes about it.
#[derive(Default)]
pub struct Probe {
    /// Recovery windows the fault schedule announced.
    pub windows: Vec<Window>,
    /// Each scheduled recovery's outcome (sim only; no rt workload
    /// schedules recoveries).
    pub catchup: Arc<Mutex<Vec<Catchup>>>,
}

/// Builds `w`'s deployment with its fault schedule and load stop; on the
/// simulator also the online invariant checker and a catch-up probe at
/// every recovery window's end. (On rt the checker runs by itself.)
pub fn build(w: Workload, seed: u64, load: Span, trace: bool) -> (Deployment, Probe) {
    let mut d = Deployment::build(w.config(seed, trace));
    let probe = Probe {
        windows: w.schedule_faults(&mut d, load),
        ..Probe::default()
    };
    w.stop_load(&mut d, load);
    if w.substrate() == Substrate::Sim {
        d.install_invariant_checker(Span::secs(1), Time((load + w.drain()).0));
        for &(replica, _, at) in &probe.windows {
            let inspection = d.inspection.clone();
            let out = Arc::clone(&probe.catchup);
            d.world.schedule_control(at, move |_| {
                let recovering = inspection
                    .records()
                    .get(&replica)
                    .is_some_and(|r| r.recovering);
                out.lock().expect("catch-up log poisoned").push(Catchup {
                    replica,
                    at,
                    recovering,
                    final_lag: None,
                });
            });
        }
        // The last instant of the drain: how far each recovered replica
        // trails the furthest one.
        let inspection = d.inspection.clone();
        let out = Arc::clone(&probe.catchup);
        let last = Time((load + w.drain()).0 - 1);
        d.world.schedule_control(last, move |_| {
            let records = inspection.records();
            let furthest = records.values().map(|r| r.last_executed).max().unwrap_or(0);
            for c in out.lock().expect("catch-up log poisoned").iter_mut() {
                let executed = records.get(&c.replica).map_or(0, |r| r.last_executed);
                c.final_lag = Some(furthest.saturating_sub(executed));
            }
        });
    }
    (d, probe)
}

/// A system set up on its substrate.
pub enum System {
    /// Simulator (runs when driven).
    Sim(Box<Deployment>),
    /// Real-clock runtime (running since `into_rt`).
    Rt(Box<RtDeployment>),
}

impl System {
    /// Stops a set-up system without running it.
    pub fn discard(self) {
        if let System::Rt(rt) = self {
            rt.runtime.shutdown();
        }
    }
}

/// The CPU one set-up took, with the calibration runs around it.
#[derive(Clone, Copy, Debug)]
pub struct SetupCpu {
    /// Thread CPU seconds of `Deployment::build` (plus `into_rt` on rt).
    pub cpu_s: f64,
    /// CPU seconds of the [`calibrate`] runs right before and after it.
    pub calibrations: [f64; 2],
}

impl SetupCpu {
    /// The set-up's CPU in units of the calibration loop at that moment.
    pub fn ratio(&self) -> f64 {
        self.cpu_s * 2.0 / (self.calibrations[0] + self.calibrations[1])
    }
}

/// Sets `w` up once: the system, its probe, and the set-up's CPU. Set-up
/// (`Deployment::build`, plus `into_rt` on rt) is single-threaded CPU
/// work, so it is timed as the calling thread's CPU, between two
/// [`calibrate`] runs: the same correction for host contention as
/// `cpu_ms_per_update` (see [`calibration_floor`]).
pub fn setup(w: Workload, seed: u64, load: Span) -> (System, Probe, SetupCpu) {
    let before = calibrate();
    let t0 = thread_cpu_s();
    let (d, probe) = build(w, seed, load, false);
    let system = match w.substrate() {
        Substrate::Sim => System::Sim(Box::new(d)),
        Substrate::Rt => System::Rt(Box::new(d.into_rt(RT_WORKERS))),
    };
    let cpu_s = thread_cpu_s() - t0;
    let calibrations = [before, calibrate()];
    (
        system,
        probe,
        SetupCpu {
            cpu_s,
            calibrations,
        },
    )
}

/// CPU is sampled once per segment of the run (load and drain).
pub const SEGMENT: Span = Span(500_000);

/// A fixed piece of work built only from code inside the benchmark, so
/// that no change to the program speeds it up or slows it down. Run after
/// every segment, it measures how fast the host is running this thread at
/// that moment; returns its CPU seconds. On a host whose cores are shared
/// with other work, contention comes in episodes lasting seconds and
/// inflates the CPU time of the same work by up to 2.4x; dividing each
/// piece of work by the calibration next to it removes about half of that.
///
/// The work is throughput-bound like the program's own: a SHA-256-shaped
/// add-rotate-xor compression over a 4 KiB frame (like hashing and MACs),
/// rows of 64x64->128-bit multiplies (like elliptic-curve field
/// arithmetic), and ordered-map churn. A dependent multiply chain, which is
/// latency-bound, read the same under contention that slowed set-up 2.4x.
pub fn calibrate() -> f64 {
    let t0 = thread_cpu_s();
    let mut frame = [0u32; 1024];
    let mut state = [
        0x6a09_e667u32,
        0xbb67_ae85,
        0x3c6e_f372,
        0xa54f_f53a,
        0x510e_527f,
        0x9b05_688c,
        0x1f83_d9ab,
        0x5be0_cd19,
    ];
    let (mut a, b) = ([3u64, 5, 7, 11, 13], [17u64, 19, 23, 29, 31]);
    let mut map = std::collections::BTreeMap::new();
    for i in 0u64..200 {
        frame[i as usize] = i as u32;
        for block in std::hint::black_box(&frame).chunks_exact(16) {
            compress(&mut state, block);
        }
        for _ in 0..300 {
            let mut row = [0u128; 5];
            for (x, &ax) in a.iter().enumerate() {
                for (y, &by) in std::hint::black_box(&b).iter().enumerate() {
                    row[(x + y) % 5] += ax as u128 * by as u128;
                }
            }
            for (ax, r) in a.iter_mut().zip(row) {
                *ax = (r as u64 & ((1 << 51) - 1)) ^ (r >> 51) as u64;
            }
        }
        map.insert(u64::from(state[0]) % 1021, vec![i; 8]);
        if i % 3 == 0 {
            map.remove(&(i % 1021));
        }
    }
    std::hint::black_box((state, a, map));
    thread_cpu_s() - t0
}

/// One SHA-256-shaped compression of a 16-word block into `state` (round
/// constants replaced by a multiple of the round index).
fn compress(state: &mut [u32; 8], block: &[u32]) {
    let mut w = [0u32; 64];
    w[..16].copy_from_slice(block);
    for t in 16..64 {
        let s0 = w[t - 15].rotate_right(7) ^ w[t - 15].rotate_right(18) ^ (w[t - 15] >> 3);
        let s1 = w[t - 2].rotate_right(17) ^ w[t - 2].rotate_right(19) ^ (w[t - 2] >> 10);
        w[t] = w[t - 16]
            .wrapping_add(s0)
            .wrapping_add(w[t - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for (t, wt) in w.iter().enumerate() {
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25))
            .wrapping_add(ch)
            .wrapping_add((t as u32).wrapping_mul(0x9e37_79b9))
            .wrapping_add(*wt);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = (a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22)).wrapping_add(maj);
        (h, g, f, e, d, c, b) = (g, f, e, d.wrapping_add(t1), c, b, a);
        a = t1.wrapping_add(t2);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// Per-segment CPU samples of a run.
#[derive(Clone, Debug, Default)]
pub struct CpuSamples {
    /// Process CPU seconds of each [`SEGMENT`] (calibration excluded).
    pub segments: Vec<f64>,
    /// CPU seconds of the [`calibrate`] run after each segment.
    pub calibrations: Vec<f64>,
}

impl CpuSamples {
    /// Takes one segment's sample ending now, then calibrates; returns the
    /// CPU clock to measure the next segment from.
    fn sample(&mut self, since: f64) -> f64 {
        self.segments.push(process_cpu_s() - since);
        self.calibrations.push(calibrate());
        process_cpu_s()
    }

    /// The run's CPU in units of the calibration loop: every segment over
    /// the calibration after it, summed, so each segment's work counts.
    pub fn ratio(&self) -> f64 {
        self.segments
            .iter()
            .zip(&self.calibrations)
            .map(|(s, c)| s / c)
            .sum()
    }
}

/// The fastest of `calibrations`, CPU seconds: the loop's cost on an
/// uncontended core of this host. Work measured in calibration loops (each
/// piece divided by a [`calibrate`] run taken next to it) times this floor
/// is the CPU this host would have spent without contention.
pub fn calibration_floor<'a>(calibrations: impl IntoIterator<Item = &'a f64>) -> f64 {
    calibrations
        .into_iter()
        .copied()
        .fold(f64::INFINITY, f64::min)
}

/// A finished run's raw results.
pub struct Outcome {
    /// Every metric the run recorded (merged across rt workers).
    pub metrics: Metrics,
    /// The repository's report over those metrics, with its safety check.
    pub report: Report,
    /// Process CPU seconds spent in the whole run phase.
    pub cpu_s: f64,
    /// The run's CPU, segment by segment (empty for the traced run).
    pub cpu: CpuSamples,
    /// Wall seconds of the run phase.
    pub wall_s: f64,
}

/// Runs a set-up system for `load` plus `drain`, sampling process CPU at
/// every [`SEGMENT`] (virtual time on sim, wall time on rt).
pub fn run(system: System, load: Span, drain: Span) -> Outcome {
    let total = load + drain;
    let segments = (total.0 / SEGMENT.0) as usize;
    let (cpu0, t0) = (process_cpu_s(), Instant::now());
    let (metrics, report, samples) = match system {
        System::Sim(mut d) => {
            let mut cpu = CpuSamples::default();
            let mut since = cpu0;
            for _ in 0..segments {
                d.run_for(SEGMENT);
                since = cpu.sample(since);
            }
            d.run_for(total - Span(SEGMENT.0 * segments as u64));
            (d.world.metrics().clone(), d.report(), cpu)
        }
        System::Rt(rt) => std::thread::scope(|scope| {
            let sampler = scope.spawn(move || {
                let mut cpu = CpuSamples::default();
                let mut since = cpu0;
                for k in 1..=segments as u32 {
                    let due = t0 + std::time::Duration::from_micros(SEGMENT.0) * k;
                    std::thread::sleep(due.saturating_duration_since(Instant::now()));
                    since = cpu.sample(since);
                }
                cpu
            });
            // Worker CPU spent while the sampler calibrates (about 1% of
            // the run) falls between segments and is not counted.
            let out = rt.run_for(total);
            let cpu = sampler.join().expect("cpu sampler panicked");
            (out.run.metrics, out.report, cpu)
        }),
    };
    Outcome {
        metrics,
        report,
        cpu_s: process_cpu_s() - cpu0,
        cpu: samples,
        wall_s: t0.elapsed().as_secs_f64(),
    }
}

/// The end-to-end metrics of one run.
#[derive(Clone, Debug)]
pub struct EndToEnd {
    /// Submit to f+1 confirm, median.
    pub update_p50: Pct,
    /// Submit to f+1 confirm, 99th percentile.
    pub update_p99: Pct,
    /// Share of updates due that confirmed within the SLA.
    pub update_sla_met: f64,
    /// HMI ordered read, median.
    pub poll_p50: Pct,
    /// HMI ordered read, 90th percentile.
    pub poll_p90: Pct,
    /// HMI issue to field actuation, median.
    pub command_p50: Pct,
    /// Share of operations due that confirmed (`1 - failed_frac`).
    pub confirmed_frac: f64,
    /// Longest span with no update confirmed, ms.
    pub service_gap_ms: f64,
    /// Process CPU of the run (load and drain) per confirmed update due,
    /// in uncontended milliseconds of this host (see [`calibration_floor`]).
    pub cpu_ms_per_update: f64,
    /// Plain process CPU of the whole run over updates confirmed, ms (for
    /// provenance; contention on the host moves it).
    pub raw_cpu_ms_per_update: f64,
    /// Operations due before the cut-off.
    pub due: Due,
    /// Of those, the ones that confirmed by the end of the drain.
    pub done: Due,
    /// Updates the proxies submitted before the RTUs stopped.
    pub updates_sent: u64,
    /// Updates confirmed by the end of the drain, whenever they were due.
    pub updates_confirmed: u64,
}

impl EndToEnd {
    /// Computes the metrics from a run of `w` whose load lasted `load`.
    /// A latency with no samples reads as the whole run: no operation of
    /// that kind confirmed within it, and the gate fails the run.
    pub fn of(w: Workload, load: Span, out: &Outcome, floor_s: f64) -> EndToEnd {
        let m = &out.metrics;
        // Latency series are recorded at confirm time; subtracting the
        // latency gives the issue time. Every schedule is on whole
        // milliseconds, so half a millisecond absorbs float rounding.
        let cutoff = load.0 as f64 / 1000.0 - 0.5;
        let due_before_cutoff = |name: &str| -> Vec<(f64, f64)> {
            m.series(name)
                .iter()
                .map(|&(t, ms)| (t.0 as f64 / 1000.0, ms))
                .filter(|&(t, ms)| t - ms < cutoff)
                .collect()
        };
        let updates = due_before_cutoff("scada.update_latency_ms");
        let polls = due_before_cutoff("hmi.poll_latency_ms");
        let commands = due_before_cutoff("scada.command_latency_ms");
        let due = Due::of(w, load);
        let done = Due {
            updates: (updates.len() as u64).min(due.updates),
            polls: (polls.len() as u64).min(due.polls),
            commands: (commands.len() as u64).min(due.commands),
        };
        let lat = |v: &[(f64, f64)]| v.iter().map(|&(_, ms)| ms).collect::<Vec<f64>>();
        let (ulat, plat, clat) = (lat(&updates), lat(&polls), lat(&commands));
        let within = ulat.iter().filter(|&&ms| ms <= SLA_MS).count() as f64;
        let end_ms = (load + w.drain()).0 as f64 / 1000.0;
        let (updates_sent, updates_confirmed) = (
            m.counter("scada.updates_sent"),
            m.counter("scada.updates_confirmed"),
        );
        let pct = |v: &[f64], p: f64| {
            let mut pct = Pct::of(v, p);
            if pct.n == 0 {
                pct.value = end_ms;
            }
            pct
        };
        EndToEnd {
            update_p50: pct(&ulat, 50.0),
            update_p99: pct(&ulat, 99.0),
            update_sla_met: within / due.updates.max(1) as f64,
            poll_p50: pct(&plat, 50.0),
            poll_p90: pct(&plat, 90.0),
            command_p50: pct(&clat, 50.0),
            confirmed_frac: done.total() as f64 / due.total().max(1) as f64,
            service_gap_ms: service_gap_ms(
                w.update_interval().0 as f64 / 1000.0,
                updates.iter().map(|&(t, _)| t).collect(),
                updates_confirmed >= updates_sent,
                end_ms,
            ),
            cpu_ms_per_update: out.cpu.ratio() * floor_s * 1000.0 / done.updates.max(1) as f64,
            raw_cpu_ms_per_update: out.cpu_s * 1000.0 / updates_confirmed.max(1) as f64,
            due,
            done,
            updates_sent,
            updates_confirmed,
        }
    }

    /// Updates due but never sent, over updates due: how far the open-loop
    /// generator fell behind its own schedule.
    pub fn generator_lag_frac(&self) -> f64 {
        self.due.updates.saturating_sub(self.updates_sent) as f64 / self.due.updates.max(1) as f64
    }
}

/// The longest interval without a confirmed update, from the first report
/// due (`start`) to the last confirm — or to the end of the run (`end`)
/// when some update submitted never confirmed. (On rt the RTUs' timers
/// re-arm when they fire, so the generator falls behind its schedule and
/// the last reports due may never be sent; that is generator lag, not
/// time without service.)
pub fn service_gap_ms(start: f64, mut confirms: Vec<f64>, all_done: bool, end: f64) -> f64 {
    confirms.sort_by(f64::total_cmp);
    let mut points = vec![start];
    points.extend(confirms.iter().copied().filter(|&t| t >= start));
    if !all_done {
        points.push(end);
    }
    points.windows(2).map(|p| p[1] - p[0]).fold(0.0, f64::max)
}

/// The output gate: every kind of operation (updates, polls, commands)
/// must have confirmed at least once, and on a workload that must lose
/// nothing, every operation due before the cut-off must have confirmed
/// (sim) or every update submitted must have confirmed (rt, whose
/// generator lags its schedule; see [`service_gap_ms`]).
pub fn gate_outputs(w: Workload, e: &EndToEnd) -> Vec<String> {
    let kinds = [
        ("update", e.due.updates, e.done.updates),
        ("poll", e.due.polls, e.done.polls),
        ("command", e.due.commands, e.done.commands),
    ];
    let mut failures = Vec::new();
    for (kind, due, done) in kinds {
        if done == 0 {
            failures.push(format!("no {kind} confirmed ({due} due)"));
        } else if w.loses_nothing() && w.substrate() == Substrate::Sim && done < due {
            failures.push(format!(
                "{} of {due} {kind}s due never confirmed",
                due - done
            ));
        }
    }
    if w.loses_nothing() && e.updates_confirmed < e.updates_sent {
        failures.push(format!(
            "{} of {} updates submitted never confirmed",
            e.updates_sent - e.updates_confirmed,
            e.updates_sent
        ));
    }
    failures
}

/// The correctness gate on the system: every reason its state is wrong.
pub fn gate(out: &Outcome, probe: &Probe) -> Vec<String> {
    let m = &out.metrics;
    let mut failures = Vec::new();
    if !out.report.safety_ok {
        failures.push("safety check failed: correct replicas diverged".to_string());
    }
    if m.counter("invariant.checks") == 0 {
        failures.push("the invariant checker never ran".to_string());
    }
    let violations = m.counter("invariant.violations");
    if violations > 0 {
        failures.push(format!("{violations} invariant violations"));
    }
    let conflicts = m.counter("scada.conflicting_accept");
    if conflicts > 0 {
        failures.push(format!("{conflicts} conflicting client accepts"));
    }
    let seen = probe.catchup.lock().expect("catch-up log poisoned").clone();
    for &(replica, _, end) in &probe.windows {
        match seen.iter().find(|c| c.replica == replica && c.at == end) {
            Some(c) if c.ok() => {}
            Some(c) => failures.push(format!(
                "replica {replica} not caught up after its recovery window closing at {:.1}s \
                 (recovering at close: {}; matrices behind at the end: {:?})",
                end.as_secs_f64(),
                c.recovering,
                c.final_lag
            )),
            None => failures.push(format!(
                "recovery window of replica {replica} ending {:.1}s never closed",
                end.as_secs_f64()
            )),
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{HMIS, RTUS};

    #[test]
    fn service_gap_counts_the_open_tail_only_when_updates_were_lost() {
        let confirms = vec![0.15, 0.2, 1.2, 1.3];
        assert!((service_gap_ms(0.1, confirms.clone(), true, 5.0) - 1.0).abs() < 1e-9);
        assert!((service_gap_ms(0.1, confirms, false, 5.0) - 3.7).abs() < 1e-9);
    }

    /// Confirms every update and poll due in a 4 s `wan_steady` load at
    /// 50 ms each, and `commands` of the commands; the proxies submitted
    /// `lost` more updates than confirmed.
    fn outcome(commands: u64, lost: u64) -> Outcome {
        let mut m = Metrics::new();
        let mut confirm = |series: &str, interval: u64, n: u64, every: u64| {
            for k in 1..=every {
                for _ in 0..n {
                    m.record(series, Time((k * interval + 50) * 1000), 50.0);
                }
            }
        };
        confirm("scada.update_latency_ms", 100, RTUS as u64, 39);
        confirm("hmi.poll_latency_ms", 200, HMIS as u64, 19);
        confirm("scada.command_latency_ms", 2000, commands, 1);
        m.count("scada.updates_confirmed", 390);
        m.count("scada.updates_sent", 390 + lost);
        m.sort_series();
        Outcome {
            report: Report::from_metrics(&m, true),
            metrics: m,
            cpu_s: 0.1,
            cpu: CpuSamples {
                segments: vec![0.05, 0.05],
                calibrations: vec![0.01, 0.02],
            },
            wall_s: 1.0,
        }
    }

    #[test]
    fn a_kind_with_nothing_confirmed_fails_the_gate_and_reads_as_the_whole_run() {
        let w = Workload::WanSteady;
        let load = Span::secs(4);
        let floor_s = 0.01;
        let all = EndToEnd::of(w, load, &outcome(HMIS as u64, 0), floor_s);
        assert_eq!(all.done, all.due);
        assert_eq!(gate_outputs(w, &all), Vec::<String>::new());
        assert_eq!(all.command_p50.value, 50.0);
        // 0.05 / 0.01 + 0.05 / 0.02 calibrations of 10 ms over 390 updates.
        assert!((all.cpu_ms_per_update - 75.0 / 390.0).abs() < 1e-9);

        let none = EndToEnd::of(w, load, &outcome(0, 0), floor_s);
        assert_eq!(none.command_p50.value, 6_000.0, "load + drain, not 0");
        assert_eq!(
            gate_outputs(w, &none),
            vec!["no command confirmed (2 due)".to_string()]
        );

        let some = EndToEnd::of(w, load, &outcome(1, 0), floor_s);
        assert_eq!(
            gate_outputs(w, &some),
            vec!["1 of 2 commands due never confirmed".to_string()]
        );
        assert!(gate_outputs(Workload::UnderAttack, &some).is_empty());

        // On rt a command due but never issued is generator lag; an update
        // submitted but never confirmed is a loss.
        let rt = Workload::RtMockSigs;
        assert!(gate_outputs(rt, &some).is_empty());
        let lost = EndToEnd::of(w, load, &outcome(HMIS as u64, 3), floor_s);
        assert_eq!(
            gate_outputs(rt, &lost),
            vec!["3 of 393 updates submitted never confirmed".to_string()]
        );
    }
}
