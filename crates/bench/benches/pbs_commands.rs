//! Criterion bench: PBS server command application throughput — the
//! deterministic state machine every replica drives.

use criterion::{criterion_group, criterion_main, Criterion};
use jrs_pbs::{FifoExclusive, FifoShared, JobSpec, PbsServerCore, ServerCmd};
use jrs_sim::SimTime;
use std::hint::black_box;

fn server(policy_shared: bool) -> PbsServerCore {
    let policy: Box<dyn jrs_pbs::Policy> =
        if policy_shared { Box::new(FifoShared) } else { Box::new(FifoExclusive) };
    PbsServerCore::new("bench", (0..16).map(|i| format!("c{i:02}")), policy)
}

fn bench_qsub(c: &mut Criterion) {
    c.bench_function("pbs_qsub_1000", |b| {
        b.iter_batched(
            || server(false),
            |mut s| {
                for i in 0..1000 {
                    let (_r, a) =
                        s.apply(SimTime::ZERO, &ServerCmd::Qsub(JobSpec::trivial(format!("j{i}"))));
                    black_box(a.len());
                }
                black_box(s.count_state(jrs_pbs::JobState::Queued))
            },
            criterion::BatchSize::SmallInput,
        )
    });
}

/// One qsub plus one obituary on a server already holding 4000 queued
/// jobs. The queue depth stays at 4000 across iterations (one job joins,
/// the finished job's successor leaves), so this is the per-command cost a
/// replica pays deep into a long history, beside `pbs_qsub_1000`.
fn bench_qsub_at_depth(c: &mut Criterion) {
    use jrs_pbs::server::MomReport;
    c.bench_function("pbs_qsub_at_depth_4000", |b| {
        let mut s = server(false);
        let start = |actions: Vec<jrs_pbs::ServerAction>| {
            actions.into_iter().find_map(|a| match a {
                jrs_pbs::ServerAction::Start { job, .. } => Some(job),
                jrs_pbs::ServerAction::Cancel { .. } => None,
            })
        };
        let (_r, a) = s.apply(SimTime::ZERO, &ServerCmd::Qsub(JobSpec::trivial("head")));
        let mut running = start(a).expect("idle cluster starts the first job");
        for i in 0..4000 {
            let _ = s.apply(SimTime::ZERO, &ServerCmd::Qsub(JobSpec::trivial(format!("q{i}"))));
        }
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let spec = JobSpec::trivial(format!("n{i}"));
            let (_r, a) = s.apply(SimTime::ZERO, &ServerCmd::Qsub(spec));
            black_box(a.len());
            let next = s.on_report(SimTime::ZERO, &MomReport::Finished { job: running, exit: 0 });
            running = start(next).expect("the queue head starts");
        });
        assert_eq!(s.count_state(jrs_pbs::JobState::Queued), 4000);
    });
}

fn bench_full_lifecycle(c: &mut Criterion) {
    c.bench_function("pbs_lifecycle_200_jobs", |b| {
        b.iter_batched(
            || server(true),
            |mut s| {
                use jrs_pbs::server::MomReport;
                let mut done = 0u64;
                for i in 0..200 {
                    let (_r, starts) =
                        s.apply(SimTime::ZERO, &ServerCmd::Qsub(JobSpec::trivial(format!("j{i}"))));
                    for a in starts {
                        if let jrs_pbs::ServerAction::Start { job, .. } = a {
                            let more = s.on_report(
                                SimTime::ZERO,
                                &MomReport::Finished { job, exit: 0 },
                            );
                            done += 1 + more.len() as u64;
                        }
                    }
                }
                black_box(done)
            },
            criterion::BatchSize::SmallInput,
        )
    });
}

fn bench_snapshot(c: &mut Criterion) {
    c.bench_function("pbs_snapshot_restore_500_jobs", |b| {
        let mut s = server(false);
        for i in 0..500 {
            let _ = s.apply(SimTime::ZERO, &ServerCmd::Qsub(JobSpec::trivial(format!("j{i}"))));
        }
        let snap = s.snapshot();
        b.iter(|| {
            let mut fresh = server(false);
            fresh.restore(black_box(&snap));
            black_box(fresh.jobs_in_order().count())
        })
    });
}

criterion_group!(benches, bench_qsub, bench_qsub_at_depth, bench_full_lifecycle, bench_snapshot);
criterion_main!(benches);
