//! The three workloads: their inputs (generated from the seed), their
//! clusters, and one measured execution with its correctness checks.

use crate::harness::{Bench, CmdRec, Fault, HeadTotals, Reply, Stop, LIMIT};
use crate::trace::Recorder;
use joshua_core::{workload, ClusterConfig, HaMode, PersistConfig, PolicyKind};
use jrs_pbs::{JobSpec, JobState, ServerCmd};
use jrs_sim::metrics::DurationHistogram;
use jrs_sim::{SimDuration, SimTime};
use jrs_store::Wal;
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Closed-loop submissions per `paper-burst` run.
pub const BURST: usize = 2000;
/// `open-ramp` offered rates, cmd per simulated second. Every step runs.
pub const LADDER: [u32; 6] = [2, 4, 6, 8, 10, 12];
/// The ladder step whose latencies are the workload's headline figures.
pub const REFERENCE_RATE: u32 = 4;
/// Simulated seconds of arrivals per ladder step.
const STEP_SECS: f64 = 300.0;
/// Simulated users per open-loop cluster (each has at most one command
/// outstanding; arrivals wait for a free one).
const USERS: usize = 32;
/// `durable-faults` arrival rate and span.
const DURABLE_RATE: f64 = 2.0;
const DURABLE_SECS: f64 = 80.0;
/// Runtime of `durable-faults` jobs: long enough that faults land while
/// jobs execute.
const DURABLE_JOB: SimDuration = SimDuration::from_secs(4);
/// Idle period after the initial view is installed (background rate).
const IDLE: SimDuration = SimDuration::from_secs(2);
/// Longest settle period granted before the replica checks.
const DRAIN: SimDuration = SimDuration::from_secs(60);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PaperBurst,
    OpenRamp,
    DurableFaults,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PaperBurst,
        Workload::OpenRamp,
        Workload::DurableFaults,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperBurst => "paper-burst",
            Workload::OpenRamp => "open-ramp",
            Workload::DurableFaults => "durable-faults",
        }
    }

    /// Independent trials per run, each on its own seed derived from the
    /// run's seed. Simulated metrics pool them: one trial's tail latency
    /// or service gap depends too much on its particular seed.
    pub fn trials(self) -> usize {
        match self {
            Workload::PaperBurst => 5,
            Workload::OpenRamp => 8,
            Workload::DurableFaults => 240,
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// SplitMix64's output function: a bijective 64-bit mixer.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed of trial `k` of a run; trial 0 runs on the run's seed itself.
/// Mixed, so that neither the trials of one run nor the runs of nearby
/// seeds share generator streams.
pub fn trial_seed(seed: u64, k: usize) -> u64 {
    match k {
        0 => seed,
        _ => mix(mix(seed).wrapping_add(k as u64)),
    }
}

/// SplitMix64: the benchmark's own seeded generator for arrival times.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in (0, 1].
    fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// Poisson arrivals of `workload::mixed` verbs at `rate` per simulated
/// second over `secs` seconds.
fn open_arrivals(seed: u64, rate: f64, secs: f64) -> Vec<(SimDuration, ServerCmd)> {
    let mut rng = Rng(seed);
    let mut at = Vec::new();
    let mut t = 0.0;
    loop {
        t += -rng.unit().ln() / rate;
        if t >= secs {
            break;
        }
        at.push(SimDuration::from_secs_f64(t));
    }
    let cmds = workload::mixed(at.len(), rng.next_u64());
    at.into_iter().zip(cmds).collect()
}

pub enum LoadPlan {
    Closed(Vec<ServerCmd>),
    Open(Vec<(SimDuration, ServerCmd)>),
}

impl LoadPlan {
    pub fn commands(&self) -> Vec<ServerCmd> {
        match self {
            LoadPlan::Closed(s) => s.clone(),
            LoadPlan::Open(a) => a.iter().map(|(_, c)| c.clone()).collect(),
        }
    }
}

/// One cluster's worth of work: a ladder step, or a whole run.
pub struct StepPlan {
    /// Offered rate of an open-ramp step.
    pub rate: Option<u32>,
    pub cfg: ClusterConfig,
    pub load: LoadPlan,
    pub faults: Vec<(SimDuration, Fault)>,
}

fn cluster(heads: usize, seed: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::new(HaMode::Joshua { heads });
    cfg.seed = seed;
    cfg
}

/// Generate a workload's inputs from the seed.
pub fn plan(w: Workload, seed: u64) -> Vec<StepPlan> {
    match w {
        Workload::PaperBurst => vec![StepPlan {
            rate: None,
            cfg: cluster(4, seed),
            load: LoadPlan::Closed(workload::burst(BURST)),
            faults: Vec::new(),
        }],
        Workload::OpenRamp => LADDER
            .iter()
            .map(|&rate| {
                let step_seed = mix(seed ^ mix(u64::from(rate)));
                StepPlan {
                    rate: Some(rate),
                    cfg: cluster(4, step_seed),
                    load: LoadPlan::Open(open_arrivals(step_seed, f64::from(rate), STEP_SECS)),
                    faults: Vec::new(),
                }
            })
            .collect(),
        Workload::DurableFaults => {
            let mut cfg = cluster(3, seed);
            cfg.persist = PersistConfig::durable();
            cfg.policy = PolicyKind::FifoShared;
            cfg.compute_nodes = 4;
            let arrivals = open_arrivals(seed, DURABLE_RATE, DURABLE_SECS)
                .into_iter()
                .map(|(at, cmd)| match cmd {
                    ServerCmd::Qsub(spec) => (
                        at,
                        ServerCmd::Qsub(JobSpec::with_runtime(spec.name, DURABLE_JOB)),
                    ),
                    other => (at, other),
                })
                .collect();
            let s = SimDuration::from_secs;
            vec![StepPlan {
                rate: None,
                cfg,
                load: LoadPlan::Open(arrivals),
                // Follower crash + restart (WAL recovery, delta catch-up),
                // voluntary leave + replacement join (full snapshot), then
                // the sequencer's crash + restart. Head 2 is the one that
                // leaves, so a user failing over from the crashed sequencer
                // reaches a live head after one timeout.
                faults: vec![
                    (s(10), Fault::Crash(1)),
                    (s(15), Fault::Restart(1)),
                    (s(30), Fault::Leave(2)),
                    (s(35), Fault::Join),
                    (s(55), Fault::Crash(0)),
                    (s(60), Fault::Restart(0)),
                ],
            }]
        }
    }
}

/// Build the step's cluster, warm it up and install its load.
pub fn prepare(p: &StepPlan, tracer: Option<Rc<RefCell<Recorder>>>) -> Bench {
    let mut b = Bench::build(p.cfg.clone(), tracer);
    b.warm_up(IDLE);
    match &p.load {
        LoadPlan::Closed(script) => b.spawn_closed_loop(script.clone()),
        LoadPlan::Open(arrivals) => b.spawn_open_loop(USERS, arrivals.clone()),
    }
    b
}

/// What one executed step measured.
pub struct StepRun {
    pub rate: Option<u32>,
    pub stop: Stop,
    pub recs: Vec<CmdRec>,
    /// Host CPU time of the measured phase.
    pub host: Duration,
    /// Wall-clock time of the measured phase.
    pub wall: Duration,
    pub start: SimTime,
    pub end: SimTime,
    pub events: u64,
    pub frames: u64,
    pub bytes: u64,
    pub idle_events_per_s: f64,
    pub totals: HeadTotals,
    pub wal_max: usize,
    /// Records of the longest head WAL at the end of the run.
    pub wal_records: Vec<(u64, Vec<u8>)>,
    /// Longest restart-to-established time (censored at the end of the
    /// measured phase), simulated seconds.
    pub rejoin_s: f64,
    pub queue_depth_max: usize,
}

impl StepRun {
    pub fn attempted(&self) -> usize {
        self.recs.len()
    }

    pub fn answered(&self) -> usize {
        self.recs.iter().filter(|r| r.done.is_some()).count()
    }

    pub fn latencies(&self) -> DurationHistogram {
        let mut h = DurationHistogram::new();
        for l in self.recs.iter().filter_map(CmdRec::latency) {
            h.record(l);
        }
        h
    }

    /// Meets the SLO: p99 within the limit and nothing unanswered.
    pub fn passes(&self) -> bool {
        let p99 = self.latencies().quantile(0.99).unwrap_or(SimDuration::ZERO);
        self.answered() == self.attempted() && p99 <= LIMIT
    }

    /// Longest interval with a command outstanding and no reply arriving.
    pub fn max_gap(&self) -> SimDuration {
        let mut evs: Vec<(SimTime, bool)> = Vec::with_capacity(2 * self.recs.len());
        for r in &self.recs {
            evs.push((r.due, false));
            if let Some(d) = r.done {
                evs.push((d, true));
            }
        }
        evs.sort();
        let (mut open, mut since, mut gap) = (0usize, self.start, SimDuration::ZERO);
        for (t, reply) in evs {
            if reply {
                gap = gap.max(t.since(since));
                open -= 1;
                since = t;
            } else {
                if open == 0 {
                    since = t;
                }
                open += 1;
            }
        }
        if open > 0 {
            gap = gap.max(self.end.since(since));
        }
        gap
    }

    /// Deterministic outputs: everything a traced run must reproduce.
    pub fn digest(&self) -> u64 {
        let recs: Vec<(SimTime, Option<SimTime>, u32)> = self
            .recs
            .iter()
            .map(|r| (r.due, r.done, r.attempts))
            .collect();
        jrs_sim::fingerprint(&(recs, self.events, self.frames, self.bytes, self.end))
    }
}

/// Set up and execute one step. With `check`, drain afterwards and verify
/// the replicas; a failed check is an error, never a metric.
pub fn execute(
    p: &StepPlan,
    tracer: Option<Rc<RefCell<Recorder>>>,
    check: bool,
) -> Result<StepRun, String> {
    let mut b = prepare(p, tracer.clone());
    b.sample_queue = tracer.is_some();
    let net = b.world.network();
    let (e0, f0, by0) = (b.world.events_processed(), net.sent, net.bytes_sent);
    if let Some(r) = &tracer {
        r.borrow_mut().active = true;
    }
    let (t, c) = (Instant::now(), crate::cpu::now());
    let stop = b.run(&p.faults);
    let (host, wall) = (crate::cpu::since(c), t.elapsed());
    if let Some(r) = &tracer {
        r.borrow_mut().active = false;
    }
    let end = b.world.now();
    let recs = b.records();
    let net = b.world.network();
    let (events, frames, bytes) = (
        b.world.events_processed() - e0,
        net.sent - f0,
        net.bytes_sent - by0,
    );
    let rejoin_s = b
        .restarts
        .iter()
        .map(|(_, at, est)| est.unwrap_or(end).since(*at).as_secs_f64())
        .fold(0.0, f64::max);
    if check {
        // A stalled cluster may never quiesce (that is the defect the stop
        // rule caught): it gets only the checks that hold at any moment.
        // Every other run must drain to a common applied index.
        let quiescent = stop != Stop::Stalled;
        if quiescent {
            b.drain(DRAIN);
        }
        verify(&b, &recs, quiescent).map_err(|e| match p.rate {
            Some(rate) => format!("step {rate}/s: {e}"),
            None => e,
        })?;
    }
    let wal_records = if p.cfg.persist.enabled {
        let wal = Wal::new("joshua.wal");
        b.head_disks()
            .map(|d| wal.replay(d).map(|r| r.entries))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("a head WAL does not replay: {e}"))?
            .into_iter()
            .max_by_key(Vec::len)
            .unwrap_or_default()
    } else {
        Vec::new()
    };
    Ok(StepRun {
        rate: p.rate,
        stop,
        recs,
        host,
        wall,
        start: b.t0,
        end,
        events,
        frames,
        bytes,
        idle_events_per_s: b.idle_events_per_s,
        totals: b.head_totals(),
        wal_max: b
            .head_disks()
            .map(|d| d.durable_len("joshua.wal"))
            .max()
            .unwrap_or(0),
        wal_records,
        rejoin_s,
        queue_depth_max: b.queue_depth_max,
    })
}

/// The replica checks, run after the drain. Heads that applied the same
/// prefix of the total order must hold the same state; with `quiescent`,
/// every established head must have applied the same prefix.
fn verify(b: &Bench, recs: &[CmdRec], quiescent: bool) -> Result<(), String> {
    let mut est = b.established();
    est.sort_by_key(|j| std::cmp::Reverse(j.applied_index()));
    let Some(first) = est.first() else {
        return Err("no established head left to check".into());
    };
    for w in est.windows(2) {
        let (a, z) = (w[0], w[1]);
        if a.applied_index() != z.applied_index() {
            if quiescent {
                return Err(format!(
                    "replicas did not quiesce: applied index {} vs {}",
                    a.applied_index(),
                    z.applied_index()
                ));
            }
        } else if a.state_fingerprint() != z.state_fingerprint()
            || !a.pbs().snapshot().consistent_with(&z.pbs().snapshot())
        {
            return Err(format!(
                "replica divergence at applied index {}",
                a.applied_index()
            ));
        }
    }
    // Every job ran at most once: no more real executions than jobs that
    // ever left the queue.
    let left_queue = first
        .pbs()
        .jobs_in_order()
        .filter(|j| {
            matches!(
                j.state,
                JobState::Running | JobState::Exiting | JobState::Complete
            )
        })
        .count() as u64;
    let runs = b.total_real_runs();
    if runs > left_queue {
        return Err(format!(
            "{runs} real job executions for {left_queue} dispatched jobs"
        ));
    }
    // Every answered qsub got a distinct job id that the replicas hold
    // (all of them once quiescent, the most advanced one otherwise).
    let holders = if quiescent { &est[..] } else { &est[..1] };
    let mut ids = BTreeSet::new();
    for r in recs {
        if let Some(Reply::Submitted(id)) = r.reply {
            if !ids.insert(id) {
                return Err(format!("job id {id} answered twice"));
            }
            if let Some(j) = holders.iter().find(|j| j.pbs().job(id).is_none()) {
                return Err(format!(
                    "answered job {id} missing on a replica at {}",
                    j.applied_index()
                ));
            }
        }
    }
    Ok(())
}

/// Index of the step whose latencies are reported: the reference ladder
/// step, or the only step.
pub fn reference_index(plans: &[StepPlan]) -> usize {
    plans
        .iter()
        .position(|p| p.rate == Some(REFERENCE_RATE))
        .unwrap_or(0)
}

/// The reported step of an executed trial.
pub fn reference(runs: &[StepRun]) -> &StepRun {
    runs.iter()
        .find(|r| r.rate == Some(REFERENCE_RATE))
        .unwrap_or(&runs[0])
}

/// Highest ladder rate at which that step and every lower one pass.
pub fn max_rate_ok(runs: &[StepRun]) -> u32 {
    runs.iter()
        .take_while(|r| r.passes())
        .filter_map(|r| r.rate)
        .last()
        .unwrap_or(0)
}
