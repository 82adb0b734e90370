//! Golden equivalence gate for the PBS server state machine.
//!
//! Every JOSHUA head re-executes the same ordered command stream on its
//! own `PbsServerCore`, so a change to how the server finds or schedules
//! jobs must not change a single decision. This test drives one seeded
//! ~5000-step script per scheduling policy (qsub/qdel/qhold/qrls/qstat,
//! mom obituaries, node failures and recoveries, one failover requeue and
//! one snapshot → restore onto a fresh replica mid-run) and pins an FNV
//! digest of every reply and action plus the final `state_hash()`.
//!
//! The constants were recorded from the scan-based server that preceded
//! the queued-job index; they change only if scheduling behaviour does.

use jrs_pbs::job::exit;
use jrs_pbs::server::MomReport;
use jrs_pbs::{
    Backfill, CmdReply, FifoExclusive, FifoShared, JobId, JobSpec, PbsServerCore, Policy,
    ServerAction, ServerCmd,
};
use jrs_sim::{Fnv64, ProcId, SimDuration, SimTime};
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};

const STEPS: usize = 5000;
const NODES: usize = 6;
const REQUEUE_AT: usize = 2000;
const RESTORE_AT: usize = 3500;

/// SplitMix64: a self-contained generator so the script never depends on
/// another crate's stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn node_name(i: usize) -> String {
    format!("c{i:02}")
}

fn fresh_server(policy: &dyn Policy) -> PbsServerCore {
    let mut s = PbsServerCore::new("golden", (0..NODES).map(node_name), policy.clone_box());
    for i in 0..NODES {
        s.register_mom(&node_name(i), ProcId(100 + i as u32));
    }
    s
}

/// Outcome of one scripted run.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    digest: u64,
    state_hash: u64,
    starts: u64,
}

fn run_script(policy: &dyn Policy, seed: u64) -> Golden {
    let mut rng = Rng(seed);
    let mut s = fresh_server(policy);
    let mut h = Fnv64::new();
    let mut now = SimTime::ZERO;
    let mut submitted = 0u64;
    let mut starts = 0u64;
    // Jobs dispatched to a mom that has not reported yet.
    let mut dispatched: BTreeSet<JobId> = BTreeSet::new();
    let mut offline: BTreeSet<usize> = BTreeSet::new();

    let absorb = |actions: &[ServerAction],
                  h: &mut Fnv64,
                  dispatched: &mut BTreeSet<JobId>,
                  starts: &mut u64| {
        for a in actions {
            a.hash(h);
            if let ServerAction::Start { job, .. } = a {
                dispatched.insert(*job);
                *starts += 1;
            }
        }
    };

    for step in 0..STEPS {
        now += SimDuration::from_millis(rng.below(5000));
        if step == REQUEUE_AT {
            let (requeued, actions) = s.requeue_all_running(now);
            requeued.hash(&mut h);
            absorb(&actions, &mut h, &mut dispatched, &mut starts);
            continue;
        }
        if step == RESTORE_AT {
            let snap = s.snapshot();
            let mut joiner = fresh_server(policy);
            joiner.restore(&snap);
            assert!(joiner.snapshot().consistent_with(&snap));
            assert_eq!(joiner.state_hash(), s.state_hash());
            s = joiner;
            continue;
        }
        // An id in 1..=submitted+1: mostly real jobs, sometimes unknown.
        let pick_id = |rng: &mut Rng| JobId(1 + rng.below(submitted + 1));
        // Alternate submission bursts (the queue deepens) with drains.
        let qsub_share = if (step / 500) % 2 == 0 { 45 } else { 15 };
        let roll = rng.below(100);
        let roll = if roll < qsub_share {
            0
        } else {
            25 + (roll - qsub_share) * 75 / (100 - qsub_share)
        };
        let (reply, actions): (Option<CmdReply>, Vec<ServerAction>) = match roll {
            0..=24 => {
                submitted += 1;
                let mut spec = JobSpec::with_runtime(
                    format!("g{submitted}"),
                    SimDuration::from_secs(1 + rng.below(300)),
                );
                spec.nodes = 1 + rng.below(4) as u32;
                spec.walltime = SimDuration::from_secs(1 + rng.below(900));
                let (r, a) = s.apply(now, &ServerCmd::Qsub(spec));
                (Some(r), a)
            }
            25..=34 => {
                let (r, a) = s.apply(now, &ServerCmd::Qdel(pick_id(&mut rng)));
                (Some(r), a)
            }
            35..=42 => {
                let (r, a) = s.apply(now, &ServerCmd::Qhold(pick_id(&mut rng)));
                (Some(r), a)
            }
            43..=50 => {
                let (r, a) = s.apply(now, &ServerCmd::Qrls(pick_id(&mut rng)));
                (Some(r), a)
            }
            51..=55 => {
                let (r, a) = s.apply(now, &ServerCmd::Qstat(None));
                (Some(r), a)
            }
            56..=88 => {
                if dispatched.is_empty() {
                    continue;
                }
                let k = rng.below(dispatched.len() as u64) as usize;
                let job = *dispatched.iter().nth(k).expect("k < len");
                dispatched.remove(&job);
                let code = match rng.below(4) {
                    0 => exit::CANCELLED,
                    1 => exit::WALLTIME,
                    _ => exit::OK,
                };
                (
                    None,
                    s.on_report(now, &MomReport::Finished { job, exit: code }),
                )
            }
            89..=91 => {
                // Stale or duplicate obituary for any job.
                let job = pick_id(&mut rng);
                (
                    None,
                    s.on_report(
                        now,
                        &MomReport::Finished {
                            job,
                            exit: exit::OK,
                        },
                    ),
                )
            }
            _ => {
                // Failed nodes mostly come back before the next one fails.
                let back = offline.iter().next().copied().filter(|_| rng.below(4) != 0);
                let (node, online) = match back {
                    Some(node) => (node, true),
                    None => (rng.below(NODES as u64) as usize, false),
                };
                if online {
                    offline.remove(&node);
                } else {
                    offline.insert(node);
                }
                (None, s.set_node_online(now, &node_name(node), online))
            }
        };
        step.hash(&mut h);
        reply.hash(&mut h);
        absorb(&actions, &mut h, &mut dispatched, &mut starts);
    }
    Golden {
        digest: h.finish(),
        state_hash: s.state_hash(),
        starts,
    }
}

fn check(policy: &dyn Policy, seed: u64, want: Golden) {
    let got = run_script(policy, seed);
    assert_eq!(
        got,
        want,
        "policy {} drifted from the recorded golden run",
        policy.name()
    );
}

#[test]
fn fifo_exclusive_matches_golden() {
    check(
        &FifoExclusive,
        0x10B5,
        Golden {
            digest: 8761763617395574982,
            state_hash: 16420615531554681095,
            starts: 1362,
        },
    );
}

#[test]
fn fifo_shared_matches_golden() {
    check(
        &FifoShared,
        0x5AED,
        Golden {
            digest: 5527466208042148442,
            state_hash: 8244846740840883814,
            starts: 1412,
        },
    );
}

#[test]
fn backfill_matches_golden() {
    check(
        &Backfill,
        0xBAC4,
        Golden {
            digest: 16942462062471033166,
            state_hash: 12721193543046422502,
            starts: 1429,
        },
    );
}
