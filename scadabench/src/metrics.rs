//! One measured run: the metric tables, crypto micro-timings, provenance
//! and the result line.

use crate::layers::{self, Layer, Traced};
use crate::run::{self, calibration_floor, EndToEnd, Outcome, SetupCpu};
use crate::stats::{highest_supported, json_num, median, Pct};
use crate::workload::{Substrate, Workload, RT_WORKERS};
use spire_crypto::hmac::hmac_sha256;
use spire_crypto::keys::{verify64, Signer};
use spire_crypto::{KeyMaterial, KeyStore, NodeId};
use spire_sim::{Metrics, Span};
use std::time::Instant;

/// Set-ups per `--trace 0` run before the run (the last one runs) and
/// after it; their median is `setup_s`. Taking some after the run samples
/// the host at two moments about `--seconds` apart.
pub const SETUP_REPS: (usize, usize) = (4, 3);

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 10] = [
    ("update_p50_ms", "ms"),
    ("update_p99_ms", "ms"),
    ("update_sla_met", "frac"),
    ("poll_p50_ms", "ms"),
    ("poll_p90_ms", "ms"),
    ("command_p50_ms", "ms"),
    ("confirmed_frac", "frac"),
    ("service_gap_ms", "ms"),
    ("cpu_ms_per_update", "ms"),
    ("setup_s", "s"),
];

/// Per-layer metrics: `(name, unit, end-to-end metrics it should move,
/// workload it should move them on)`.
#[rustfmt::skip]
pub const PER_LAYER: [(&str, &str, &str, &str); 51] = [
    ("spines.int.busy_us_per_update", "us", "cpu_ms_per_update update_p50_ms", "wan_steady"),
    ("spines.ext.busy_us_per_update", "us", "cpu_ms_per_update update_p50_ms", "wan_steady"),
    ("spines.int.dispatches_per_update", "count", "cpu_ms_per_update update_p50_ms", "wan_steady"),
    ("spines.ext.dispatches_per_update", "count", "cpu_ms_per_update update_p50_ms", "wan_steady"),
    ("spines.hops_per_update", "count", "cpu_ms_per_update update_p50_ms", "wan_steady"),
    ("spines.frames_per_link_batch", "count", "cpu_ms_per_update update_p50_ms", "wan_steady"),
    ("spines.hop_p50_ms", "ms", "cpu_ms_per_update update_p50_ms", "wan_steady"),
    ("spines.retx_per_update", "count", "update_p99_ms service_gap_ms update_sla_met", "under_attack"),
    ("spines.retx_give_up", "count", "update_p99_ms service_gap_ms update_sla_met", "under_attack"),
    ("spines.drops", "count", "update_p99_ms service_gap_ms update_sla_met", "under_attack"),
    ("prime.busy_us_per_update", "us", "cpu_ms_per_update update_p50_ms", "rt_real_sigs"),
    ("prime.dispatches_per_update", "count", "cpu_ms_per_update update_p50_ms", "rt_real_sigs"),
    ("prime.signs_per_update", "count", "cpu_ms_per_update update_p50_ms", "rt_real_sigs"),
    ("prime.verifies_per_update", "count", "cpu_ms_per_update update_p50_ms", "rt_real_sigs"),
    ("prime.verify_cache_hit_ratio", "frac", "cpu_ms_per_update update_p50_ms", "rt_real_sigs"),
    ("prime.macs_per_update", "count", "cpu_ms_per_update update_p50_ms", "rt_real_sigs"),
    ("prime.msgs_per_flush", "count", "cpu_ms_per_update update_p50_ms", "rt_real_sigs"),
    ("prime.frames_per_link_batch", "count", "cpu_ms_per_update update_p50_ms", "rt_real_sigs"),
    ("prime.submit_recv_p50_ms", "ms", "update_p50_ms poll_p50_ms command_p50_ms", "wan_steady"),
    ("prime.preorder_p50_ms", "ms", "update_p50_ms poll_p50_ms command_p50_ms", "wan_steady"),
    ("prime.order_p50_ms", "ms", "update_p50_ms poll_p50_ms command_p50_ms", "wan_steady"),
    ("prime.reply_p50_ms", "ms", "update_p50_ms poll_p50_ms command_p50_ms", "wan_steady"),
    ("prime.preprepares_per_update", "count", "update_p50_ms poll_p50_ms command_p50_ms", "wan_steady"),
    ("prime.view_changes", "count", "service_gap_ms update_p99_ms", "leader_recovery under_attack"),
    ("prime.po_retries_per_update", "count", "service_gap_ms update_p99_ms", "leader_recovery under_attack"),
    ("prime.po_gap_recon", "count", "service_gap_ms update_p99_ms", "leader_recovery under_attack"),
    ("prime.recovery_p99_ms", "ms", "service_gap_ms update_p99_ms", "leader_recovery under_attack"),
    ("prime.recovery_chunks", "count", "service_gap_ms update_p99_ms", "leader_recovery under_attack"),
    ("prime.chunk_retries", "count", "service_gap_ms update_p99_ms", "leader_recovery under_attack"),
    ("scada.proxy.busy_us_per_update", "us", "cpu_ms_per_update", "rt_real_sigs"),
    ("scada.hmi.busy_us_per_update", "us", "none: load validity check", "all"),
    ("scada.rtu.busy_us_per_update", "us", "none: load validity check", "all"),
    ("scada.generator_lag_frac", "frac", "none: load validity check", "all"),
    ("crypto.sign_us", "us", "cpu_ms_per_update (x signs_per_update)", "rt_real_sigs"),
    ("crypto.verify_us", "us", "cpu_ms_per_update (x verifies_per_update)", "rt_real_sigs"),
    ("crypto.hmac_us", "us", "cpu_ms_per_update (x macs_per_update)", "rt_real_sigs"),
    ("crypto.ed25519_sign_us", "us", "cpu_ms_per_update (x signs_per_update)", "rt_real_sigs"),
    ("crypto.ed25519_verify_us", "us", "cpu_ms_per_update (x verifies_per_update)", "rt_real_sigs"),
    ("crypto.keystore_build_s", "s", "setup_s", "all"),
    ("sim.frames_per_update", "count", "cpu_ms_per_update", "wan_steady under_attack"),
    ("sim.bytes_per_update", "B", "cpu_ms_per_update", "wan_steady under_attack"),
    ("sim.kernel_us_per_update", "us", "cpu_ms_per_update", "wan_steady under_attack"),
    ("sim.attributed_frac", "frac", "none: attribution coverage", "wan_steady under_attack"),
    ("core.busy_us_per_update", "us", "cpu_ms_per_update", "wan_steady under_attack"),
    ("trace.overhead_ratio", "ratio", "none: traced / untraced cpu_ms_per_update", "wan_steady under_attack"),
    ("rt.busy_frac", "frac", "update_p99_ms cpu_ms_per_update", "rt_mock_sigs rt_real_sigs"),
    ("rt.frames_per_update", "count", "update_p99_ms cpu_ms_per_update", "rt_mock_sigs rt_real_sigs"),
    ("rt.coalesced_per_envelope", "count", "update_p99_ms cpu_ms_per_update", "rt_mock_sigs rt_real_sigs"),
    ("rt.mailbox_retries", "count", "update_p99_ms cpu_ms_per_update", "rt_mock_sigs rt_real_sigs"),
    ("rt.mailbox_drops", "count", "update_p99_ms cpu_ms_per_update", "rt_mock_sigs rt_real_sigs"),
    ("scada.updates_confirmed", "count", "none: the per-update base", "all"),
];

/// A measured run, ready to print.
pub struct Measured {
    /// Human-readable lines (metrics with units, provenance).
    pub lines: Vec<String>,
    /// Every correctness-gate failure (empty when the outputs are right).
    pub failures: Vec<String>,
    /// Operations due before the cut-off.
    pub attempted: u64,
    /// Of those, the ones that never confirmed.
    pub failed: u64,
    /// `(name, unit, value)` for the result line.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
}

impl Measured {
    /// The result line: `{correct, attempted, failed, metrics}`.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, v)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(*v)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Measures `w` for `seconds` of load (virtual on sim, wall on rt) plus
/// the workload's drain.
pub fn measure(w: Workload, seed: u64, seconds: u64, trace: bool) -> Measured {
    let load = Span::secs(seconds);
    let (before, after) = if trace { (1, 0) } else { SETUP_REPS };
    let mut setups = Vec::new();
    let mut set_up = || {
        let (system, probe, cpu) = run::setup(w, seed, load);
        setups.push(cpu);
        (system, probe)
    };
    for _ in 1..before {
        set_up().0.discard();
    }
    let (system, probe) = set_up();
    let out = run::run(system, load, w.drain());
    for _ in 0..after {
        set_up().0.discard();
    }
    let floor_s = calibration_floor(
        setups
            .iter()
            .flat_map(|s| &s.calibrations)
            .chain(&out.cpu.calibrations),
    );
    let ratios: Vec<f64> = setups.iter().map(SetupCpu::ratio).collect();
    let setup_s = median(&ratios) * floor_s;
    let e2e = EndToEnd::of(w, load, &out, floor_s);
    let mut failures = run::gate(&out, &probe);
    failures.extend(run::gate_outputs(w, &e2e));
    let mut lines = vec![provenance(w, seed, seconds, trace, &e2e, floor_s)];
    let metrics = if trace {
        let traced = (w.substrate() == Substrate::Sim).then(|| layers::traced(w, seed, load));
        if let Some(t) = &traced {
            failures.extend(
                run::gate(&t.outcome, &t.probe)
                    .into_iter()
                    .map(|f| format!("traced run: {f}")),
            );
        }
        per_layer(w, &out, &e2e, traced.as_ref())
    } else {
        end_to_end(&e2e, setup_s)
    };
    for &(name, unit, v) in &metrics {
        let note = PER_LAYER
            .iter()
            .find(|p| p.0 == name)
            .map(|p| format!("  -> moves {} on {}", p.2, p.3))
            .unwrap_or_default();
        lines.push(format!("{name:<34} {:>14.4} {unit:<5}{note}", v));
    }
    for f in &failures {
        lines.push(format!("GATE FAILED (seed {seed}): {f}"));
    }
    Measured {
        lines,
        failures,
        attempted: e2e.due.total(),
        failed: e2e.due.total() - e2e.done.total(),
        metrics,
    }
}

fn end_to_end(e: &EndToEnd, setup_s: f64) -> Vec<(&'static str, &'static str, f64)> {
    let values = [
        e.update_p50.value,
        e.update_p99.value,
        e.update_sla_met,
        e.poll_p50.value,
        e.poll_p90.value,
        e.command_p50.value,
        e.confirmed_frac,
        e.service_gap_ms,
        e.cpu_ms_per_update,
        setup_s,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, unit, v))
        .collect()
}

/// `num / den`, 0 when there is nothing to divide by.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn per_layer(
    w: Workload,
    untraced: &Outcome,
    e2e: &EndToEnd,
    traced: Option<&Traced>,
) -> Vec<(&'static str, &'static str, f64)> {
    // Counts come from the traced run where there is one (sim: the same
    // virtual run), else from the untraced run (rt: counters only).
    let out = traced.map_or(untraced, |t| &t.outcome);
    let m: &Metrics = &out.metrics;
    let c = |name: &str| m.counter(name) as f64;
    let updates = c("scada.updates_confirmed");
    let per = |v: f64| ratio(v, updates);
    let busy = |layer: Layer| traced.map_or(0.0, |t| per(t.busy(layer)));
    let steps = |layer: Layer| traced.map_or(0.0, |t| per(t.steps(layer) as f64));
    let phase = |metric: &str| {
        out.report
            .phase_breakdown
            .iter()
            .find(|p| p.metric == metric)
            .map_or(0.0, |p| p.p50_ms)
    };
    let auth = &out.report.auth;
    let spines_drops: u64 = m
        .counters()
        .filter(|(n, _)| n.starts_with("spines.") && n.ends_with("_drop"))
        .map(|(_, v)| v)
        .sum();
    let hop_p50 = m
        .histogram("overlay.hop_us")
        .filter(|h| h.count() > 0)
        .map_or(0.0, |h| h.percentile(50.0) / 1000.0);
    let rt_busy = c("rt.busy_us");
    let frame = traced.map_or(256, |t| t.median_frame.max(1));
    let (sign_us, verify_us, hmac_us) = crypto_us(frame, w.mock_sigs());
    // Real signature cost on every workload, so that it is measured even
    // where the workload mocks signatures.
    let (ed_sign_us, ed_verify_us, _) = crypto_us(frame, false);
    let overhead = traced.map_or(0.0, |t| {
        ratio(
            t.outcome.cpu_s / updates,
            untraced.cpu_s / untraced.metrics.counter("scada.updates_confirmed").max(1) as f64,
        )
    });
    let values = [
        busy(Layer::SpinesInt),
        busy(Layer::SpinesExt),
        steps(Layer::SpinesInt),
        steps(Layer::SpinesExt),
        traced.map_or(0.0, |t| per(t.hops as f64)),
        ratio(c("spines.link_batched_frames"), c("spines.link_batches")),
        hop_p50,
        per(c("spines.retx")),
        c("spines.retx_give_up"),
        spines_drops as f64,
        busy(Layer::Prime),
        steps(Layer::Prime),
        per(auth.sign_ops as f64),
        per(auth.verify_ops as f64),
        ratio(
            auth.verify_cache_hits as f64,
            (auth.verify_cache_hits + auth.verify_ops) as f64,
        ),
        per(auth.mac_ops as f64),
        ratio(auth.batched_msgs as f64, auth.batch_flushes as f64),
        ratio(c("prime.link_batched_frames"), c("prime.link_batches")),
        phase("span.overlay_in_us"),
        phase("span.preorder_us"),
        phase("span.order_us"),
        phase("span.confirm_us"),
        per(c("prime.preprepares_sent")),
        c("prime.view_changes"),
        per(c("prime.po_retries")),
        c("prime.po_gap_recon"),
        out.report.recovery.duration_p99_ms,
        out.report.recovery.chunks as f64,
        out.report.recovery.chunk_retries as f64,
        busy(Layer::Proxy),
        busy(Layer::Hmi),
        busy(Layer::Rtu),
        e2e.generator_lag_frac(),
        sign_us,
        verify_us,
        hmac_us,
        ed_sign_us,
        ed_verify_us,
        keystore_build_s(),
        traced.map_or(0.0, |t| per(t.frames as f64)),
        traced.map_or(0.0, |t| per(t.bytes as f64)),
        busy(Layer::Sim),
        traced.map_or(0.0, Traced::attributed_frac),
        busy(Layer::Core),
        overhead,
        ratio(rt_busy, rt_busy + c("rt.idle_us")),
        per(c("rt.sent")),
        ratio(c("rt.coalesced_frames"), c("rt.envelopes")),
        c("rt.mailbox_retry"),
        c("rt.mailbox_full_drop"),
        updates,
    ];
    // NaN means "nothing to measure" (e.g. no recovery completed): 0.
    PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit, _, _), v)| (name, unit, if v.is_finite() { v } else { 0.0 }))
        .collect()
}

/// Median µs per call of `f` over five batches of at least 20 ms each.
fn time_us(mut f: impl FnMut()) -> f64 {
    let mut per_call = Vec::new();
    for _ in 0..5 {
        let (t0, mut calls) = (Instant::now(), 0u32);
        while t0.elapsed().as_millis() < 20 {
            f();
            calls += 1;
        }
        per_call.push(t0.elapsed().as_secs_f64() * 1e6 / calls as f64);
    }
    median(&per_call)
}

/// Sign, verify and link-MAC cost on a `frame`-byte message through
/// `spire_crypto`'s public functions, with the workload's signature mode.
fn crypto_us(frame: usize, mock: bool) -> (f64, f64, f64) {
    let material = KeyMaterial::new([0x55u8; 32]);
    let node = NodeId(1000);
    let signer = Signer::new(material.signing_key(node), mock);
    let mut store = KeyStore::new();
    store.insert(node, signer.verifying_key());
    let msg = vec![0xA5u8; frame];
    let sig = signer.sign64(&msg);
    assert!(
        verify64(&store, node, &msg, &sig, mock),
        "self-check signature must verify"
    );
    let key = material.link_key(node, NodeId(1001));
    (
        time_us(|| {
            std::hint::black_box(signer.sign64(std::hint::black_box(&msg)));
        }),
        time_us(|| {
            std::hint::black_box(verify64(
                &store,
                node,
                std::hint::black_box(&msg),
                &sig,
                mock,
            ));
        }),
        time_us(|| {
            std::hint::black_box(hmac_sha256(&key, std::hint::black_box(&msg)));
        }),
    )
}

/// `KeyStore::for_nodes(.., 4096)` alone, as `Deployment::build` calls it
/// (median of three).
fn keystore_build_s() -> f64 {
    let material = KeyMaterial::new([0x55u8; 32]);
    let times: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(KeyStore::for_nodes(&material, 4096));
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// The checkout's git revision; `unknown` when the working directory is
/// not the root of a git checkout (git is not asked to search parents).
fn git_rev() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Provenance of a run: host, substrate, seed, and the sample count and
/// highest supported percentile behind every latency metric.
fn provenance(
    w: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    e: &EndToEnd,
    calibration_floor_s: f64,
) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = match w.substrate() {
        Substrate::Sim => 1,
        Substrate::Rt => RT_WORKERS,
    };
    let pcts: [(&str, &Pct); 5] = [
        ("update_p50_ms", &e.update_p50),
        ("update_p99_ms", &e.update_p99),
        ("poll_p50_ms", &e.poll_p50),
        ("poll_p90_ms", &e.poll_p90),
        ("command_p50_ms", &e.command_p50),
    ];
    let samples: Vec<String> = pcts
        .iter()
        .map(|(name, p)| {
            let top = highest_supported(p.n).map_or("none".to_string(), |h| format!("p{h}"));
            format!(
                "\"{name}\": {{\"samples\": {}, \"highest_supported\": \"{top}\", \"flagged\": {}}}",
                p.n,
                p.flagged()
            )
        })
        .collect();
    format!(
        "provenance {{\"workload\": \"{}\", \"seed\": {seed}, \"substrate\": \"{}\", \
         \"cores\": {cores}, \"workers\": {workers}, \"git_rev\": \"{}\", \"load_s\": {seconds}, \
         \"drain_s\": {}, \"trace\": {trace}, \"raw_cpu_ms_per_update\": {}, \"calibration_floor_ms\": {}, \"updates_sent\": {}, \"due\": {{\"updates\": {}, \"polls\": {}, \
         \"commands\": {}}}, \"confirmed\": {{\"updates\": {}, \"polls\": {}, \"commands\": {}}}, \
         \"percentiles\": {{{}}}}}",
        w.name(),
        w.substrate(),
        git_rev(),
        w.drain().as_secs_f64(),
        json_num(e.raw_cpu_ms_per_update),
        json_num(calibration_floor_s * 1000.0),
        e.updates_sent,
        e.due.updates,
        e.due.polls,
        e.due.commands,
        e.done.updates,
        e.done.polls,
        e.done.commands,
        samples.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::ALL;

    /// `BENCHMARK.json` beside the benchmark's directory.
    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json next to scadabench/")
    }

    #[test]
    fn benchmark_json_lists_every_metric_with_its_unit() {
        let json = benchmark_json();
        let listed = |name: &str, unit: &str| {
            json.contains(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\""))
        };
        for (name, unit) in END_TO_END {
            assert!(
                listed(name, unit),
                "{name} ({unit}) missing from end_to_end"
            );
        }
        for (name, unit, _, _) in PER_LAYER {
            assert!(listed(name, unit), "{name} ({unit}) missing from per_layer");
        }
        let entries = json.matches("{\"name\": ").count();
        let workloads = json.matches("\"why\": ").count();
        assert_eq!(entries - workloads, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn result_line_names_every_metric_with_its_unit() {
        let m = Measured {
            lines: Vec::new(),
            failures: Vec::new(),
            attempted: 3,
            failed: 0,
            metrics: END_TO_END.iter().map(|&(n, u)| (n, u, 1.5)).collect(),
        };
        let line = m.result_json();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, "));
        for (name, unit) in END_TO_END {
            assert!(line.contains(&format!(
                "\"{name}\": {{\"value\": 1.5, \"unit\": \"{unit}\"}}"
            )));
        }
    }

    /// The tiny-duration smoke mode: every workload, untraced and traced,
    /// passes its correctness gate and prints every metric of its mode.
    #[test]
    fn smoke_every_workload_and_the_traced_run() {
        for w in ALL {
            for trace in [false, true] {
                let m = measure(w, 5, 3, trace);
                assert!(
                    m.failures.is_empty(),
                    "{} trace={trace}: {:?}",
                    w.name(),
                    m.failures
                );
                assert!(m.attempted > 0);
                let want: Vec<&str> = if trace {
                    PER_LAYER.iter().map(|p| p.0).collect()
                } else {
                    END_TO_END.iter().map(|p| p.0).collect()
                };
                let got: Vec<&str> = m.metrics.iter().map(|p| p.0).collect();
                assert_eq!(got, want, "{} trace={trace}", w.name());
                assert!(m.metrics.iter().all(|p| p.2.is_finite()));
            }
        }
    }
}
