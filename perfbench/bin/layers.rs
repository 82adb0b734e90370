//! Replay drivers: each times calls into one layer's public functions on
//! the inputs a workload generated, with nothing of the simulation around
//! them. A driver whose outputs are wrong is a failed check.

use joshua_core::{ClusterConfig, Payload};
use jrs_gcs::{GcsEvent, GroupConfig, GroupMember, Wire};
use jrs_pbs::server::{MomReport, PbsServerCore};
use jrs_pbs::{JobId, ServerCmd};
use jrs_sim::{ProcId, SimDisk, SimDuration, SimTime};
use jrs_store::{Codec, Wal};
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Every driver repeats its pass until at least this much host time has
/// been measured (and at least three passes), then reports the median.
const MIN_MEASURED: Duration = Duration::from_millis(60);

fn passes(mut pass: impl FnMut() -> f64) -> f64 {
    let t = Instant::now();
    let mut vals = Vec::new();
    while vals.len() < 3 || t.elapsed() < MIN_MEASURED {
        vals.push(pass());
    }
    crate::median(&mut vals)
}

fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// What the PBS server sees of the ordered stream.
pub enum PbsInput {
    Cmd(ServerCmd),
    Finished(JobId, i32),
}

/// The payloads a workload ordered, as the PBS server consumes them.
pub fn pbs_inputs(payloads: &[Payload]) -> Vec<PbsInput> {
    payloads
        .iter()
        .filter_map(|p| match p {
            Payload::Client { cmd, .. } => Some(PbsInput::Cmd(cmd.clone())),
            Payload::MomFinished { job, exit, .. } => Some(PbsInput::Finished(*job, *exit)),
            _ => None,
        })
        .collect()
}

pub struct PbsReplay {
    pub apply_us_per_cmd: f64,
    /// Mean apply time of the last tenth of the stream over the first.
    pub apply_growth: f64,
}

/// Replay the stream through `PbsServerCore::apply`/`on_report` on a
/// fresh server configured like the workload's heads.
pub fn pbs_replay(inputs: &[PbsInput], cfg: &ClusterConfig) -> PbsReplay {
    let n = inputs.len().max(1);
    let mut per_cmd = vec![0.0f64; n];
    let mut total = Vec::new();
    let t = Instant::now();
    while total.len() < 3 || t.elapsed() < MIN_MEASURED {
        let names: Vec<String> = (0..cfg.compute_nodes).map(|i| format!("c{i:02}")).collect();
        let mut core = PbsServerCore::new("replay", names.iter().cloned(), cfg.policy.make());
        for (i, name) in names.iter().enumerate() {
            core.register_mom(name, ProcId(1000 + u32::try_from(i).expect("small")));
        }
        let mut sum = 0.0;
        for (i, input) in inputs.iter().enumerate() {
            let t0 = Instant::now();
            match input {
                PbsInput::Cmd(cmd) => {
                    black_box(core.apply(SimTime::ZERO, cmd));
                }
                PbsInput::Finished(job, exit) => {
                    let report = MomReport::Finished {
                        job: *job,
                        exit: *exit,
                    };
                    black_box(core.on_report(SimTime::ZERO, &report));
                }
            }
            let d = ns(t0.elapsed());
            per_cmd[i] += d;
            sum += d;
        }
        total.push(sum / n as f64);
    }
    let tenth = (n / 10).max(1);
    let first: f64 = per_cmd[..tenth].iter().sum();
    let last: f64 = per_cmd[n - tenth..].iter().sum();
    PbsReplay {
        apply_us_per_cmd: crate::median(&mut total) / 1e3,
        apply_growth: if first > 0.0 { last / first } else { 0.0 },
    }
}

pub struct StoreReplay {
    pub wal_append_ns: f64,
    pub wal_replay_ns_per_record: f64,
    pub encode_ns: f64,
    pub decode_ns: f64,
}

/// Time the codec and the WAL on `records` (`(index, encoded payload)`).
pub fn store_replay(records: &[(u64, Vec<u8>)]) -> Result<StoreReplay, String> {
    let n = records.len().max(1) as f64;
    let payloads: Vec<Payload> = records
        .iter()
        .map(|(_, b)| Payload::from_bytes(b))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("WAL record does not decode: {e:?}"))?;
    for ((_, blob), p) in records.iter().zip(&payloads) {
        if &p.to_bytes() != blob {
            return Err("payload codec does not round-trip a WAL record".into());
        }
    }
    let decode_ns = passes(|| {
        let t = Instant::now();
        for (_, b) in records {
            black_box(Payload::from_bytes(b).ok());
        }
        ns(t.elapsed()) / n
    });
    let encode_ns = passes(|| {
        let t = Instant::now();
        for p in &payloads {
            black_box(p.to_bytes());
        }
        ns(t.elapsed()) / n
    });
    let wal = Wal::new("replay.wal");
    let mut disk = SimDisk::new();
    let wal_append_ns = passes(|| {
        disk = SimDisk::new();
        let t = Instant::now();
        for (idx, b) in records {
            wal.append(&mut disk, *idx, b);
        }
        ns(t.elapsed()) / n
    });
    disk.fsync(wal.path(), SimTime::ZERO);
    let replay = wal
        .replay(&disk)
        .map_err(|e| format!("replayed WAL is damaged: {e}"))?;
    if replay.entries != records {
        return Err("WAL replay does not return what was appended".into());
    }
    let wal_replay_ns_per_record = passes(|| {
        let t = Instant::now();
        black_box(wal.replay(&disk).ok());
        ns(t.elapsed()) / n
    });
    Ok(StoreReplay {
        wal_append_ns,
        wal_replay_ns_per_record,
        encode_ns,
        decode_ns,
    })
}

/// Order `payloads` through `members` group members wired back to back:
/// frames are handed over instantly and in FIFO order, members are ticked
/// every `tick_every` of simulated time, one broadcast per millisecond,
/// round-robin over the members. Returns host microseconds per broadcast.
pub fn engine_replay(payloads: &[Payload], members: u32) -> Result<f64, String> {
    let cfg = GroupConfig::default();
    let ids: Vec<ProcId> = (0..members).map(ProcId).collect();
    let mut bad = None;
    let us = passes(|| {
        let mut group: Vec<GroupMember<Payload>> = ids
            .iter()
            .map(|&me| GroupMember::new(me, cfg.clone(), ids.clone()))
            .collect();
        let mut delivered: Vec<Vec<(u64, ProcId)>> = vec![Vec::new(); group.len()];
        let mut wire: VecDeque<(ProcId, ProcId, Wire<Payload>)> = VecDeque::new();
        let t = Instant::now();
        let mut now = SimTime::ZERO;
        let mut next_tick = now;
        let absorb = |from: ProcId,
                      out: jrs_gcs::Output<Payload>,
                      wire: &mut VecDeque<_>,
                      delivered: &mut Vec<Vec<(u64, ProcId)>>| {
            for (to, frame, _) in out.wire {
                wire.push_back((from, to, frame));
            }
            for ev in out.events {
                if let GcsEvent::Deliver { seq, origin, .. } = ev {
                    delivered[from.index()].push((seq, origin));
                }
            }
        };
        for (i, m) in group.iter_mut().enumerate() {
            let out = m.start(now);
            absorb(ids[i], out, &mut wire, &mut delivered);
        }
        let ms = SimDuration::from_millis(1);
        let total = payloads.len() + 200;
        for k in 0..total {
            if let Some(p) = payloads.get(k) {
                let from = k % group.len();
                let out = group[from].broadcast(now, p.clone());
                absorb(ids[from], out, &mut wire, &mut delivered);
            }
            if now >= next_tick {
                for (i, m) in group.iter_mut().enumerate() {
                    let out = m.tick(now);
                    absorb(ids[i], out, &mut wire, &mut delivered);
                }
                next_tick = now + cfg.tick_every;
            }
            while let Some((from, to, frame)) = wire.pop_front() {
                if let Some(m) = group.get_mut(to.index()) {
                    let out = m.on_wire(now, from, frame);
                    absorb(to, out, &mut wire, &mut delivered);
                }
            }
            now += ms;
        }
        let elapsed = t.elapsed();
        if delivered
            .iter()
            .any(|d| d.len() != payloads.len() || d != &delivered[0])
        {
            bad = Some(format!(
                "engine replay: members delivered {:?} of {} payloads, or in different orders",
                delivered.iter().map(Vec::len).collect::<Vec<_>>(),
                payloads.len()
            ));
        }
        ns(elapsed) / 1e3 / payloads.len().max(1) as f64
    });
    match bad {
        Some(e) => Err(e),
        None => Ok(us),
    }
}
