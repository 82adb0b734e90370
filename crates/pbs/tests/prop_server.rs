//! Property-based tests of the PBS server core — the determinism and
//! safety properties JOSHUA's replication scheme depends on.

use jrs_pbs::server::MomReport;
use jrs_pbs::{
    Allocation, FifoExclusive, FifoShared, Job, JobId, JobSpec, JobState, PbsServerCore, Policy,
    ServerAction, ServerCmd,
};
use jrs_sim::{SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// A randomized input to the server: a command or a mom report.
#[derive(Clone, Debug)]
enum Input {
    Qsub { nodes: u8, runtime_s: u16 },
    Qdel(u8),
    Qhold(u8),
    Qrls(u8),
    Qstat,
    Finish(u8),
}

fn input_strategy() -> impl Strategy<Value = Input> {
    prop_oneof![
        4 => (1u8..4, 1u16..100).prop_map(|(nodes, runtime_s)| Input::Qsub { nodes, runtime_s }),
        2 => any::<u8>().prop_map(Input::Qdel),
        1 => any::<u8>().prop_map(Input::Qhold),
        1 => any::<u8>().prop_map(Input::Qrls),
        1 => Just(Input::Qstat),
        3 => any::<u8>().prop_map(Input::Finish),
    ]
}

fn mk_server(shared: bool, nodes: usize) -> PbsServerCore {
    let policy: Box<dyn Policy> =
        if shared { Box::new(FifoShared) } else { Box::new(FifoExclusive) };
    PbsServerCore::new("prop", (0..nodes).map(|i| format!("c{i:02}")), policy)
}

/// Replays inputs against a server, tracking the submitted ids and the
/// start-dispatched jobs so Qdel/Qhold/Qrls and Finish target real jobs.
#[derive(Clone, Debug, Default)]
struct Driver {
    submitted: u64,
    running: BTreeSet<JobId>,
}

impl Driver {
    /// Apply one input; returns every action it triggered, including those
    /// of the moms' immediate cancel confirmations.
    fn step(&mut self, server: &mut PbsServerCore, inp: &Input, now: SimTime) -> Vec<ServerAction> {
        let target = |k: &u8| JobId(1 + (*k as u64 % self.submitted));
        let actions = match inp {
            Input::Qsub { nodes, runtime_s } => {
                self.submitted += 1;
                let mut spec = JobSpec::with_runtime(
                    format!("p{}", self.submitted),
                    SimDuration::from_secs(*runtime_s as u64),
                );
                spec.nodes = *nodes as u32;
                server.apply(now, &ServerCmd::Qsub(spec)).1
            }
            Input::Qdel(k) if self.submitted > 0 => {
                server.apply(now, &ServerCmd::Qdel(target(k))).1
            }
            Input::Qhold(k) if self.submitted > 0 => {
                server.apply(now, &ServerCmd::Qhold(target(k))).1
            }
            Input::Qrls(k) if self.submitted > 0 => {
                server.apply(now, &ServerCmd::Qrls(target(k))).1
            }
            Input::Qstat => server.apply(now, &ServerCmd::Qstat(None)).1,
            Input::Finish(k) if !self.running.is_empty() => {
                let id = *self.running.iter().nth(*k as usize % self.running.len()).unwrap();
                self.running.remove(&id);
                server.on_report(now, &MomReport::Finished { job: id, exit: 0 })
            }
            _ => return Vec::new(),
        };
        for a in &actions {
            if let ServerAction::Start { job, .. } = a {
                self.running.insert(*job);
            }
            if let ServerAction::Cancel { job, .. } = a {
                // Simulate the mom confirming the cancel immediately.
                self.running.remove(job);
            }
        }
        // Feed cancel confirmations back (moms are immediate here).
        let mut all = actions.clone();
        for a in &actions {
            if let ServerAction::Cancel { job, .. } = a {
                let more = server.on_report(
                    now,
                    &MomReport::Finished { job: *job, exit: jrs_pbs::job::exit::CANCELLED },
                );
                for m in &more {
                    if let ServerAction::Start { job, .. } = m {
                        self.running.insert(*job);
                    }
                }
                all.extend(more);
            }
        }
        all
    }
}

/// Drive a server with the inputs; returns the action count per input
/// (for replica comparison).
fn drive(server: &mut PbsServerCore, inputs: &[Input], now: SimTime) -> Vec<usize> {
    let mut d = Driver::default();
    inputs.iter().map(|inp| d.step(server, inp, now).len()).collect()
}

/// Check the queued-job index against a brute-force scan of the whole
/// history: the queued count, and that the next job the server would
/// start is the one the policy admits from the scanned queue.
fn assert_index_matches_scan(
    s: &PbsServerCore,
    policy: &dyn Policy,
    now: SimTime,
) -> Result<(), TestCaseError> {
    let scanned: Vec<&Job> = s.jobs_in_order().filter(|j| j.state == JobState::Queued).collect();
    prop_assert_eq!(s.count_state(JobState::Queued), scanned.len());
    let running: Vec<(&Job, SimTime)> = s
        .jobs_in_order()
        .filter(|j| matches!(j.state, JobState::Running | JobState::Exiting))
        .map(|j| (j, now))
        .collect();
    let admitted = policy.select(now, &mut scanned.iter().copied(), s.pool(), &running);
    let next_start = s.clone().kick_schedule(now).into_iter().find_map(|a| match a {
        ServerAction::Start { job, nodes, .. } => Some(Allocation { job, nodes }),
        ServerAction::Cancel { .. } => None,
    });
    if let Some(alloc) = &next_start {
        // FIFO never overtakes: what starts next is the scanned head.
        prop_assert_eq!(Some(alloc.job), scanned.first().map(|j| j.id));
    }
    prop_assert_eq!(next_start, admitted);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Replication safety: two replicas fed the same input sequence at
    /// different local times end in consistent state with identical
    /// action streams.
    #[test]
    fn replicas_deterministic(
        inputs in prop::collection::vec(input_strategy(), 1..60),
        shared in any::<bool>(),
    ) {
        let mut a = mk_server(shared, 4);
        let mut b = mk_server(shared, 4);
        let ca = drive(&mut a, &inputs, SimTime::ZERO);
        let cb = drive(&mut b, &inputs, SimTime::ZERO + SimDuration::from_secs(1234));
        prop_assert_eq!(ca, cb, "replicas took different actions");
        prop_assert!(a.snapshot().consistent_with(&b.snapshot()));
    }

    /// Resource safety: at no point are more nodes allocated than exist,
    /// and no node is double-allocated.
    #[test]
    fn no_overallocation(
        inputs in prop::collection::vec(input_strategy(), 1..60),
        shared in any::<bool>(),
    ) {
        let mut s = mk_server(shared, 4);
        // drive() checks internally via NodePool debug asserts; externally:
        let _ = drive(&mut s, &inputs, SimTime::ZERO);
        let allocated: Vec<String> = s
            .jobs_in_order()
            .filter(|j| j.state == JobState::Running)
            .flat_map(|j| j.allocated.clone())
            .collect();
        let unique: BTreeSet<&String> = allocated.iter().collect();
        prop_assert_eq!(unique.len(), allocated.len(), "node double-allocated");
        prop_assert!(allocated.len() <= 4);
    }

    /// Queue discipline: under FIFO-exclusive at most one job runs, and a
    /// queued job with a lower id than the running one must have been
    /// held at some point (holding legitimately forfeits the position
    /// while successors start).
    #[test]
    fn fifo_exclusive_never_overtakes(
        inputs in prop::collection::vec(input_strategy(), 1..60),
    ) {
        let mut s = mk_server(false, 4);
        let _ = drive(&mut s, &inputs, SimTime::ZERO);
        // Replay the driver's id resolution to find ever-held jobs.
        let mut submitted = 0u64;
        let mut ever_held: std::collections::BTreeSet<JobId> = Default::default();
        for inp in &inputs {
            match inp {
                Input::Qsub { .. } => submitted += 1,
                Input::Qhold(k) if submitted > 0 => {
                    ever_held.insert(JobId(1 + (*k as u64 % submitted)));
                }
                _ => {}
            }
        }
        let running: Vec<JobId> = s
            .jobs_in_order()
            .filter(|j| matches!(j.state, JobState::Running | JobState::Exiting))
            .map(|j| j.id)
            .collect();
        prop_assert!(running.len() <= 1, "exclusive policy ran {} jobs", running.len());
        if let Some(r) = running.first() {
            for j in s.jobs_in_order() {
                if j.state == JobState::Queued && !ever_held.contains(&j.id) {
                    prop_assert!(j.id > *r, "queued job {} overtaken by {}", j.id, r);
                }
            }
        }
    }

    /// Snapshot/restore is lossless at any point in a random history.
    #[test]
    fn snapshot_roundtrip_anywhere(
        inputs in prop::collection::vec(input_strategy(), 1..40),
        cut in 0usize..40,
    ) {
        let mut s = mk_server(true, 4);
        let cut = cut.min(inputs.len());
        let _ = drive(&mut s, &inputs[..cut], SimTime::ZERO);
        let snap = s.snapshot();
        let mut restored = mk_server(true, 4);
        restored.restore(&snap);
        prop_assert!(restored.snapshot().consistent_with(&snap));
        // Both continue identically on the remaining inputs.
        let ca = drive(&mut s, &inputs[cut..], SimTime::ZERO);
        let cb = drive(&mut restored, &inputs[cut..], SimTime::ZERO);
        prop_assert_eq!(ca, cb);
        prop_assert!(s.snapshot().consistent_with(&restored.snapshot()));
    }

    /// The queued-job index never drifts from the history it summarises:
    /// after every input the queued count and the next start agree with a
    /// brute-force scan, and a replica restored from a mid-sequence
    /// snapshot rebuilds the index and continues with identical actions.
    #[test]
    fn queued_index_matches_history_scan(
        inputs in prop::collection::vec(input_strategy(), 1..80),
        cut in 0usize..80,
        shared in any::<bool>(),
    ) {
        let policy: Box<dyn Policy> =
            if shared { Box::new(FifoShared) } else { Box::new(FifoExclusive) };
        let now = SimTime::ZERO;
        let cut = cut.min(inputs.len());
        let mut s = mk_server(shared, 4);
        let mut d = Driver::default();
        for inp in &inputs[..cut] {
            let _ = d.step(&mut s, inp, now);
            assert_index_matches_scan(&s, policy.as_ref(), now)?;
        }
        let mut restored = mk_server(shared, 4);
        restored.restore(&s.snapshot());
        assert_index_matches_scan(&restored, policy.as_ref(), now)?;
        let mut rd = d.clone();
        for inp in &inputs[cut..] {
            let a = d.step(&mut s, inp, now);
            let b = rd.step(&mut restored, inp, now);
            prop_assert_eq!(a, b, "restored replica diverged");
            assert_index_matches_scan(&s, policy.as_ref(), now)?;
            assert_index_matches_scan(&restored, policy.as_ref(), now)?;
        }
        prop_assert_eq!(s.state_hash(), restored.state_hash());
    }

    /// Terminal-state hygiene: complete jobs always carry an exit status,
    /// and no job is ever lost (every submitted id is present).
    #[test]
    fn job_accounting(
        inputs in prop::collection::vec(input_strategy(), 1..60),
    ) {
        let mut s = mk_server(true, 4);
        let _ = drive(&mut s, &inputs, SimTime::ZERO);
        let submitted = inputs
            .iter()
            .filter(|i| matches!(i, Input::Qsub { .. }))
            .count();
        prop_assert_eq!(s.jobs_in_order().count(), submitted);
        for j in s.jobs_in_order() {
            if j.state == JobState::Complete {
                prop_assert!(j.exit_status.is_some(), "complete job without exit status");
            } else {
                prop_assert!(j.exit_status.is_none());
            }
        }
    }
}
