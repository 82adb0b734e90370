//! The JOSHUA benchmark: runs one named workload against the real
//! replication stack (`JoshuaServer` heads, PBS moms, jsub-style users on
//! the simulated testbed), checks the outcome, and prints every metric by
//! name with its unit. The last line of standard output is one JSON
//! object: end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`. See README.md for the workloads and metrics.
//!
//! Usage: `joshua-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`

mod calib;
mod cpu;
mod harness;
mod heap;
mod layers;
mod trace;
mod workloads;

use harness::LIMIT;
use joshua_core::{workload, Cluster, ClusterConfig, HaMode, Payload};
use jrs_sim::metrics::DurationHistogram;
use jrs_sim::{ProcId, SimDuration};
use jrs_store::Codec;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};
use trace::{Recorder, Role};
use workloads::{StepRun, Workload};

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

/// Set-ups timed in each pass of a run; the median of all is reported.
const SETUPS_PER_PASS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&val).ok_or_else(|| format!("unknown workload {val:?}"))?)
            }
            "--seed" => seed = Some(val.parse().map_err(|_| format!("bad seed {val:?}"))?),
            "--seconds" => seconds = Some(val.parse().map_err(|_| format!("bad seconds {val:?}"))?),
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {val:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

pub fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn ms(d: SimDuration) -> f64 {
    d.as_millis_f64()
}

/// Peak resident set size of this process, MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0
            .push((name, if value.is_finite() { value } else { 0.0 }, unit));
    }

    fn json(&self, attempted: usize, failed: usize) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            body.join(", ")
        )
    }
}

/// The Fig-10 anchor: a 100-command burst on 4 heads at seed 2006 through
/// this harness must reproduce the committed 4-head row exactly.
fn fig10_cross_check() -> Result<(), String> {
    let mut cfg = ClusterConfig::new(HaMode::Joshua { heads: 4 });
    cfg.seed = 2006;
    let mut b = harness::Bench::build(cfg, None);
    b.spawn_closed_loop(workload::burst(100));
    b.run(&[]);
    let mut h = DurationHistogram::new();
    for l in b.records().iter().filter_map(harness::CmdRec::latency) {
        h.record(l);
    }
    let s = h.summary();
    let got = format!(
        "{:.2}/{:.2}/{:.2}/{}",
        ms(s.mean),
        ms(s.p50),
        ms(s.p99),
        s.count
    );
    let want = "324.75/290.05/456.86/100";
    if got != want {
        return Err(format!(
            "Fig-10 4-head row: mean/p50/p99/count {got}, expected {want}"
        ));
    }
    println!("fig10 cross-check: 4 heads, seed 2006, 100 qsubs: {got} ms (matches)");
    Ok(())
}

fn print_steps(w: Workload, runs: &[StepRun]) {
    for r in runs {
        let mut h = r.latencies();
        let retries: u32 = r.recs.iter().map(|c| c.attempts.saturating_sub(1)).sum();
        println!(
            "{} {}: stop={} attempted={} answered={} p50_ms={:.2} p99_ms={:.2} max_gap_ms={:.2} \
             retries={} view_changes={} sim_s={:.1} host_s={:.3}",
            w.name(),
            r.rate.map_or("run".to_string(), |x| format!("step {x}/s")),
            r.stop.name(),
            r.attempted(),
            r.answered(),
            h.quantile(0.5).map_or(0.0, ms),
            h.quantile(0.99).map_or(0.0, ms),
            ms(r.max_gap()),
            retries,
            r.totals.view_changes,
            r.end.since(r.start).as_secs_f64(),
            r.host.as_secs_f64(),
        );
    }
}

fn run_untraced(a: &Args) -> Result<(), String> {
    let w = a.workload;
    let deadline = Instant::now() + Duration::from_secs(a.seconds);
    // Set-ups and the measured execution of every pass are each timed
    // between two speed probes, and their host times are scaled by the
    // probes' mean, so a host slowed by its neighbours reads the same as a
    // quiet one (see calib.rs).
    let mut probes = calib::Probes::start();
    let mut setups = Vec::new();
    let mut rates = Vec::new();
    let mut rss_mb = 0.0;
    // Peak live heap of each trial above what earlier trials left behind.
    // A stall's growth varies widely from trial to trial, so the median is
    // reported rather than the maximum.
    let mut heaps = Vec::new();
    // First execution of every trial.
    let mut trials: Vec<Vec<StepRun>> = Vec::new();
    for n in 0.. {
        if n == w.trials() {
            // Memory high-water mark of the trials proper, before repeats
            // whose number depends on host speed.
            rss_mb = peak_rss_mb();
        }
        if n >= w.trials() && Instant::now() >= deadline {
            break;
        }
        let k = n % w.trials();
        // Set-up samples: generate the trial's inputs, build and warm up
        // its clusters. The execution below builds them again.
        let ((setup, plans), scale) = probes.bracket(|| {
            let mut setup = Vec::with_capacity(SETUPS_PER_PASS);
            let mut plans = Vec::new();
            for _ in 0..SETUPS_PER_PASS {
                let c = cpu::now();
                plans = workloads::plan(w, workloads::trial_seed(a.seed, k));
                for p in &plans {
                    drop(workloads::prepare(p, None));
                }
                setup.push(cpu::since(c));
            }
            (setup, plans)
        });
        setups.extend(setup.iter().map(|d| d.as_secs_f64() * scale));
        let r = workloads::reference_index(&plans);
        let (answered, host, scale) = if trials.len() == k {
            // The heap is metered per execution, so that the probes between
            // them do not count.
            let base = heap::reset_peak();
            let mut peak = base;
            let mut metered = |p: &workloads::StepPlan| {
                heap::reset_peak();
                let run = workloads::execute(p, None, true);
                peak = peak.max(heap::peak());
                run
            };
            let mut runs = Vec::with_capacity(plans.len());
            let mut scale = 1.0;
            for (i, p) in plans.iter().enumerate() {
                if i != r {
                    runs.push(metered(p)?);
                    continue;
                }
                if i > 0 {
                    probes.refresh();
                }
                let (run, s) = probes.bracket(|| metered(p));
                runs.push(run?);
                scale = s;
            }
            if r + 1 < plans.len() {
                probes.refresh();
            }
            heaps.push((peak - base) as f64 / (1024.0 * 1024.0));
            let measured = (runs[r].answered(), runs[r].host, scale);
            trials.push(runs);
            measured
        } else {
            // Repeats run the reference step only: more host samples per
            // second of run, each checked against the trial's first run.
            let (run, scale) = probes.bracket(|| workloads::execute(&plans[r], None, false));
            let run = run?;
            if run.digest() != trials[k][r].digest() {
                return Err(format!(
                    "trial {k} diverged when repeated: the simulation is not deterministic"
                ));
            }
            (run.answered(), run.host, scale)
        };
        rates.push(ratio(answered as f64, host.as_secs_f64() * scale));
    }
    print_steps(w, &trials[0]);

    let all: Vec<&StepRun> = trials.iter().flatten().collect();
    let attempted: usize = all.iter().map(|r| r.attempted()).sum();
    let answered: usize = all.iter().map(|r| r.answered()).sum();
    let within: usize = all
        .iter()
        .map(|r| {
            r.recs
                .iter()
                .filter(|c| c.latency().is_some_and(|l| l <= LIMIT))
                .count()
        })
        .sum();
    let mut h = DurationHistogram::new();
    let mut gaps = Vec::new();
    for runs in &trials {
        let reference = workloads::reference(runs);
        for l in reference.recs.iter().filter_map(harness::CmdRec::latency) {
            h.record(l);
        }
        gaps.push(ms(reference.max_gap()));
    }
    let mut m = Metrics(Vec::new());
    m.put("cmd_per_host_s", median(&mut rates), "cmd/s");
    m.put("setup_s", median(&mut setups), "s");
    m.put("peak_heap_mb", median(&mut heaps), "MB");
    m.put("cmd_p50_ms", h.quantile(0.5).map_or(0.0, ms), "ms");
    m.put("cmd_p99_ms", h.quantile(0.99).map_or(0.0, ms), "ms");
    m.put(
        "answered_frac",
        ratio(answered as f64, attempted as f64),
        "ratio",
    );
    m.put(
        "slo_met_frac",
        ratio(within as f64, attempted as f64),
        "ratio",
    );
    m.put("max_gap_ms", median(&mut gaps), "ms");
    // Complements and ladder figures, printed for people; the JSON keeps
    // the forms that are never zero.
    println!("metric peak_rss_mb {rss_mb} MB");
    println!(
        "metric failed_frac {} ratio",
        1.0 - ratio(answered as f64, attempted as f64)
    );
    println!(
        "metric slo_miss_frac {} ratio",
        1.0 - ratio(within as f64, attempted as f64)
    );
    if w == Workload::OpenRamp {
        let ok: Vec<u32> = trials
            .iter()
            .map(|runs| workloads::max_rate_ok(runs))
            .collect();
        println!(
            "metric max_rate_ok {} cmd/s (per trial: {ok:?})",
            ok.iter().min().unwrap_or(&0)
        );
    }
    let mut stops = std::collections::BTreeMap::new();
    for r in &all {
        *stops.entry(r.stop.name()).or_insert(0) += 1;
    }
    println!("stop rules over all trials and steps: {stops:?}");
    println!(
        "{} trials, {} executions, {} set-ups; {} reference latency samples",
        trials.len(),
        rates.len(),
        setups.len(),
        h.len()
    );
    for (n, v, u) in &m.0 {
        println!("metric {n} {v} {u}");
    }
    println!("{}", m.json(attempted, attempted - answered));
    Ok(())
}

/// p50 latency of `jobs` closed-loop qsubs on a `Cluster` of `mode`.
fn p50_ms(mode: HaMode, jobs: usize, seed: u64) -> Result<f64, String> {
    let mut cfg = ClusterConfig::new(mode);
    cfg.seed = seed;
    let mut c = Cluster::build(cfg);
    c.spawn_client(workload::burst(jobs));
    let cap = c.world.now() + SimDuration::from_secs(jobs as u64 * 5);
    while c.take_dones().is_empty() {
        if c.world.now() >= cap {
            return Err(format!(
                "{}: {jobs}-qsub burst did not finish",
                mode.label()
            ));
        }
        c.run_for(SimDuration::from_millis(100));
    }
    let mut h = DurationHistogram::new();
    for r in c.take_records() {
        h.record(r.latency);
    }
    Ok(h.quantile(0.5).map_or(0.0, ms))
}

/// The payloads a workload ordered: the durable WAL when there is one,
/// else the reference step's commands as jsub submits them.
fn ordered_payloads(plans: &[workloads::StepPlan], runs: &[StepRun]) -> Vec<(u64, Vec<u8>)> {
    let r = workloads::reference_index(plans);
    if !runs[r].wal_records.is_empty() {
        return runs[r].wal_records.clone();
    }
    plans[r]
        .load
        .commands()
        .into_iter()
        .zip(1u64..)
        .map(|(cmd, i)| {
            let client = ProcId(1000);
            (
                i,
                Payload::Client {
                    client,
                    req_id: i,
                    cmd,
                }
                .to_bytes(),
            )
        })
        .collect()
}

fn run_traced(a: &Args) -> Result<(), String> {
    let w = a.workload;
    // Every trial runs untraced, then traced; the traced run must
    // reproduce the untraced one exactly.
    let rec = Rc::new(RefCell::new(Recorder::default()));
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut first_plans = Vec::new();
    for k in 0..w.trials() {
        let plans = workloads::plan(w, workloads::trial_seed(a.seed, k));
        for p in &plans {
            let u = workloads::execute(p, None, true)?;
            let t = workloads::execute(p, Some(rec.clone()), false)?;
            if u.digest() != t.digest() {
                return Err(format!(
                    "trial {k}: traced run differs from untraced run \
                     (events {} vs {}, frames {} vs {})",
                    t.events, u.events, t.frames, u.frames
                ));
            }
            untraced.push(u);
            traced.push(t);
        }
        if k == 0 {
            first_plans = plans;
        }
    }
    println!("traced runs reproduce the untraced runs exactly (latencies, events, frames)");
    let first = &traced[..first_plans.len()];
    print_steps(w, first);
    let rec = rec.borrow();

    let attempted: usize = traced.iter().map(StepRun::attempted).sum();
    let answered: usize = traced.iter().map(StepRun::answered).sum();
    let cmds = attempted as f64;
    let sum = |f: &dyn Fn(&StepRun) -> f64| traced.iter().map(f).sum::<f64>();
    let events = sum(&|r| r.events as f64);
    // The spans are wall-clock, so the traced figures are too.
    let host_ns = sum(&|r| r.wall.as_nanos() as f64);
    let untraced_host = untraced
        .iter()
        .map(|r| r.wall.as_nanos() as f64)
        .sum::<f64>();
    let sim_s = sum(&|r| r.end.since(r.start).as_secs_f64());
    let spans = rec.sum(None, |_| true);
    let head = |k: &dyn Fn(&str) -> bool| rec.sum(Some(Role::Head), k);
    let count = |kind: &str| head(&|k| k == kind).count as f64;
    let mut t = harness::HeadTotals::default();
    for r in &traced {
        t += r.totals;
    }
    let retries: u32 = traced
        .iter()
        .flat_map(|r| &r.recs)
        .map(|c| c.attempts.saturating_sub(1))
        .sum();
    let mut lag = DurationHistogram::new();
    for c in traced.iter().flat_map(|r| &r.recs) {
        if let Some(s) = c.sent {
            lag.record(s.since(c.due));
        }
    }
    let qstat_rows: Vec<usize> = traced
        .iter()
        .flat_map(|r| &r.recs)
        .filter_map(|c| match c.reply {
            Some(harness::Reply::Rows(rows)) => Some(rows),
            _ => None,
        })
        .collect();

    // Latency attribution on this seed's paper-burst inputs.
    let torque = p50_ms(HaMode::SingleHead, 200, a.seed)?;
    let j1 = p50_ms(HaMode::Joshua { heads: 1 }, 200, a.seed)?;
    let j4 = p50_ms(HaMode::Joshua { heads: 4 }, 200, a.seed)?;

    // Replay drivers on this workload's own ordered stream.
    let records = ordered_payloads(&first_plans, first);
    let payloads: Vec<Payload> = records
        .iter()
        .map(|(_, b)| Payload::from_bytes(b).map_err(|e| format!("{e:?}")))
        .collect::<Result<_, _>>()?;
    let cfg = &first_plans[0].cfg;
    let pbs = layers::pbs_replay(&layers::pbs_inputs(&payloads), cfg);
    let store = layers::store_replay(&records)?;
    let heads = u32::try_from(cfg.mode.head_count()).expect("small");
    let engine_us = layers::engine_replay(&payloads, heads)?;

    let mut m = Metrics(Vec::new());
    m.put("sim.events_per_cmd", ratio(events, cmds), "count");
    m.put(
        "sim.host_ns_per_event",
        ratio(host_ns - spans.ns as f64, events),
        "ns",
    );
    let mut idle: Vec<f64> = traced.iter().map(|r| r.idle_events_per_s).collect();
    m.put("sim.idle_events_per_s", median(&mut idle), "1/s");
    m.put(
        "sim.net.frames_per_cmd",
        ratio(sum(&|r| r.frames as f64), cmds),
        "count",
    );
    m.put(
        "sim.net.bytes_per_cmd",
        ratio(sum(&|r| r.bytes as f64), cmds),
        "B",
    );
    m.put(
        "gcs.link.retransmit_frac",
        ratio(rec.duplicate_data as f64, rec.data_frames as f64),
        "ratio",
    );
    m.put(
        "gcs.link.ack_frames_per_cmd",
        ratio(count("link_ack"), cmds),
        "count",
    );
    m.put(
        "gcs.engine.broadcasts_per_cmd",
        ratio(t.broadcasts as f64, cmds),
        "count",
    );
    m.put(
        "gcs.engine.frames_per_cmd.request",
        ratio(count("engine.request"), cmds),
        "count",
    );
    m.put(
        "gcs.engine.frames_per_cmd.ordered",
        ratio(count("engine.ordered"), cmds),
        "count",
    );
    m.put(
        "gcs.engine.frames_per_cmd.stable",
        ratio(count("engine.stable"), cmds),
        "count",
    );
    m.put(
        "gcs.engine.frames_per_cmd.ack",
        ratio(count("engine.ack"), cmds),
        "count",
    );
    m.put("gcs.engine.host_us_per_broadcast", engine_us, "us");
    m.put("gcs.group.view_changes", t.view_changes as f64, "count");
    m.put("gcs.group.flush_attempts", t.flush_attempts as f64, "count");
    m.put("gcs.group.ejections", t.ejections as f64, "count");
    m.put(
        "gcs.group.heartbeat_frames_per_s",
        ratio(count("raw.heartbeat"), sim_s),
        "1/s",
    );
    let wire = head(&|k| {
        k.starts_with("engine.")
            || k.starts_with("raw.")
            || k.starts_with("data.")
            || k == "link_ack"
    });
    m.put(
        "core.server.host_us_per_cmd.wire",
        ratio(wire.ns as f64 / 1e3, cmds),
        "us",
    );
    m.put(
        "core.server.host_us_per_cmd.intercept",
        ratio(head(&|k| k == "client_request").ns as f64 / 1e3, cmds),
        "us",
    );
    m.put(
        "core.server.host_us_per_cmd.timer",
        ratio(head(&|k| k == "timer").ns as f64 / 1e3, cmds),
        "us",
    );
    m.put(
        "core.server.payloads_per_cmd",
        ratio(t.payloads_applied as f64, cmds),
        "count",
    );
    m.put(
        "core.jmutex.denied_frac",
        ratio(
            t.jmutex_denied as f64,
            (t.jmutex_granted + t.jmutex_denied) as f64,
        ),
        "ratio",
    );
    m.put("core.server.intercept_ms", j1 - torque, "sim_ms");
    m.put("core.server.replication_ms", j4 - j1, "sim_ms");
    m.put("pbs.server.apply_us_per_cmd", pbs.apply_us_per_cmd, "us");
    m.put("pbs.server.apply_growth", pbs.apply_growth, "ratio");
    m.put(
        "pbs.server.queue_depth_max",
        traced.iter().map(|r| r.queue_depth_max).max().unwrap_or(0) as f64,
        "count",
    );
    m.put(
        "pbs.server.qstat_rows_mean",
        ratio(
            qstat_rows.iter().sum::<usize>() as f64,
            qstat_rows.len() as f64,
        ),
        "count",
    );
    let wal_max = traced.iter().map(|r| r.wal_max).max().unwrap_or(0) as f64;
    m.put(
        "store.wal_bytes_per_cmd",
        ratio(sum(&|r| r.wal_max as f64), cmds),
        "B",
    );
    m.put("store.wal_bytes_max", wal_max, "B");
    m.put(
        "store.snapshots_written",
        t.snapshots_written as f64,
        "count",
    );
    m.put("store.wal_append_ns", store.wal_append_ns, "ns");
    m.put(
        "store.wal_replay_ns_per_record",
        store.wal_replay_ns_per_record,
        "ns",
    );
    m.put("store.codec.encode_ns", store.encode_ns, "ns");
    m.put("store.codec.decode_ns", store.decode_ns, "ns");
    let mut rejoin: Vec<f64> = traced.iter().map(|r| r.rejoin_s).collect();
    m.put("core.persist.rejoin_s", median(&mut rejoin), "sim_s");
    m.put("core.persist.wal_replayed", t.wal_replayed as f64, "count");
    m.put(
        "client.retries_per_cmd",
        ratio(f64::from(retries), cmds),
        "count",
    );
    m.put(
        "client.generator_lag_p99_ms",
        lag.quantile(0.99).map_or(0.0, ms),
        "sim_ms",
    );
    m.put(
        "trace.overhead_frac",
        ratio(host_ns, untraced_host) - 1.0,
        "ratio",
    );

    let dir = std::path::PathBuf::from(
        std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into()),
    )
    .join("perfbench-trace");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-seed{}.tsv", a.workload.name(), a.seed));
    std::fs::write(&path, rec.table()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("span table: {}", path.display());
    for (n, v, u) in &m.0 {
        println!("metric {n} {v} {u}");
    }
    println!("{}", m.json(attempted, attempted - answered));
    Ok(())
}

fn main() {
    let result = parse_args().and_then(|a| {
        fig10_cross_check()?;
        if a.trace {
            run_traced(&a)
        } else {
            run_untraced(&a)
        }
    });
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
