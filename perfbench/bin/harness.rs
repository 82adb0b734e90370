//! The benchmark's cluster and load generator.
//!
//! [`Bench`] assembles exactly the JOSHUA-mode topology that
//! `joshua_core::Cluster::build` does — same nodes, same processes, same
//! order, so the same seed yields the same simulation (the Fig-10
//! cross-check pins this) — but routes every process through one spawn
//! point so a traced run can wrap it. Load comes from simulated users on
//! the login node: either the paper's closed-loop `PbsClientProcess` or a
//! pool of open-loop [`User`]s fed from a seeded arrival schedule.

use crate::trace::{Recorder, Role, Traced};
use joshua_core::{ClusterConfig, HaMode, JoshuaConfig, JoshuaServer, LeaveCmd};
use jrs_pbs::proc::{ClientReply, ClientRequest, PbsClientProcess, PbsMomProcess};
use jrs_pbs::{ClientDone, CmdReply, JobId, PbsMomCore, ServerCmd, SubmitRecord};
use jrs_sim::{Ctx, Msg, NodeId, ProcId, Process, SimDuration, SimTime, TimerId, World};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// The client-visible latency limit: jsub's failover timeout. A reply
/// later than this makes the client resend to the next head.
pub const LIMIT: SimDuration = SimDuration::from_millis(1500);

/// Stop rule: a run (or ladder step) ends once its oldest unanswered
/// command has waited this long — four failover timeouts, enough for a
/// client to try every head of a three-head group and then some.
pub const STALL: SimDuration = SimDuration::from_millis(4 * 1500);

/// Granularity at which the harness inspects the run (stop rule, fault
/// schedule, rejoin detection).
const TICK: SimDuration = SimDuration::from_millis(10);

/// One attempted command, from the moment it was due.
#[derive(Clone, Debug)]
pub struct CmdRec {
    /// When the command was due: its arrival (open loop) or its send
    /// (closed loop).
    pub due: SimTime,
    /// First transmission.
    pub sent: Option<SimTime>,
    /// Reply arrival.
    pub done: Option<SimTime>,
    /// Sends needed (1 = no retry).
    pub attempts: u32,
    pub reply: Option<Reply>,
}

/// What the benchmark keeps of a reply: enough for the checks and the
/// read-size figure, without holding every status listing.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Reply {
    Submitted(JobId),
    Rows(usize),
    Other,
}

impl Reply {
    fn of(r: &CmdReply) -> Reply {
        match r {
            CmdReply::Submitted(id) => Reply::Submitted(*id),
            CmdReply::Status(rows) => Reply::Rows(rows.len()),
            _ => Reply::Other,
        }
    }
}

impl CmdRec {
    fn new(due: SimTime) -> CmdRec {
        CmdRec {
            due,
            sent: None,
            done: None,
            attempts: 0,
            reply: None,
        }
    }

    pub fn latency(&self) -> Option<SimDuration> {
        self.done.map(|d| d.since(self.due))
    }
}

/// Open-loop load shared by the arrival events and the user pool.
pub struct Load {
    cmds: Vec<ServerCmd>,
    pub recs: Vec<CmdRec>,
    backlog: VecDeque<usize>,
    idle: VecDeque<ProcId>,
    /// Set when a stop rule ends the run: later arrivals are not issued
    /// and users stop retrying.
    stopped: bool,
}

/// Harness → user: an arrival is waiting in the backlog.
pub struct Kick;

/// A simulated user: one command outstanding at most, with jsub's retry
/// semantics (on timeout, rotate to the next head and resend the same
/// request id — exactly `PbsClientProcess`'s failover).
pub struct User {
    targets: Vec<ProcId>,
    current: usize,
    timeout: SimDuration,
    load: Rc<RefCell<Load>>,
    next_req: u64,
    out: Option<(usize, u64)>,
    timer: Option<TimerId>,
}

impl User {
    fn send(&mut self, ctx: &mut Ctx<'_>, idx: usize, req_id: u64) {
        let cmd = self.load.borrow().cmds[idx].clone();
        let target = self.targets[self.current];
        ctx.send(
            target,
            ClientRequest {
                client: ctx.me(),
                req_id,
                cmd,
            },
        );
        self.timer = Some(ctx.set_timer(self.timeout, 1));
        let now = ctx.now();
        let mut load = self.load.borrow_mut();
        let rec = &mut load.recs[idx];
        rec.sent.get_or_insert(now);
        rec.attempts += 1;
    }

    /// Take the next waiting arrival, or go idle.
    fn pull(&mut self, ctx: &mut Ctx<'_>) {
        let next = {
            let mut load = self.load.borrow_mut();
            let next = load.backlog.pop_front();
            if next.is_none() {
                load.idle.push_back(ctx.me());
            }
            next
        };
        if let Some(idx) = next {
            let req_id = self.next_req;
            self.next_req += 1;
            self.out = Some((idx, req_id));
            self.send(ctx, idx, req_id);
        }
    }
}

impl Process for User {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: ProcId, msg: Msg) {
        if msg.is::<Kick>() {
            if self.out.is_none() {
                self.pull(ctx);
            }
            return;
        }
        let Ok(reply) = msg.downcast::<ClientReply>() else {
            return;
        };
        let Some((idx, req_id)) = self.out else {
            return;
        };
        if reply.req_id != req_id {
            return; // stale duplicate of an earlier request
        }
        if let Some(t) = self.timer.take() {
            ctx.cancel_timer(t);
        }
        {
            let mut load = self.load.borrow_mut();
            let rec = &mut load.recs[idx];
            rec.done = Some(ctx.now());
            rec.reply = Some(Reply::of(&reply.reply));
        }
        self.out = None;
        self.pull(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _timer: TimerId, _tag: u64) {
        let Some((idx, req_id)) = self.out else {
            return;
        };
        if self.load.borrow().stopped {
            // The run is over: give up instead of retrying, so the heads
            // can drain before the replica checks.
            self.out = None;
            return;
        }
        self.current = (self.current + 1) % self.targets.len();
        self.send(ctx, idx, req_id);
    }
}

/// Counters of one head process, summed over every process that ever
/// held a head slot (a restart replaces the process and its counters).
#[derive(Clone, Copy, Debug, Default)]
pub struct HeadTotals {
    pub broadcasts: u64,
    pub view_changes: u64,
    pub flush_attempts: u64,
    pub ejections: u64,
    pub payloads_applied: u64,
    pub jmutex_granted: u64,
    pub jmutex_denied: u64,
    pub snapshots_written: u64,
    pub wal_replayed: u64,
}

impl HeadTotals {
    fn of(j: &JoshuaServer) -> HeadTotals {
        let g = j.group_stats();
        let s = j.stats();
        HeadTotals {
            broadcasts: g.broadcasts,
            view_changes: g.view_changes,
            flush_attempts: g.flush_attempts,
            ejections: g.ejections,
            payloads_applied: s.payloads_applied,
            jmutex_granted: s.jmutex_granted,
            jmutex_denied: s.jmutex_denied,
            snapshots_written: s.snapshots_written,
            wal_replayed: j.recovery_report().map_or(0, |r| r.wal_replayed as u64),
        }
    }
}

impl std::ops::AddAssign for HeadTotals {
    fn add_assign(&mut self, o: HeadTotals) {
        self.broadcasts += o.broadcasts;
        self.view_changes += o.view_changes;
        self.flush_attempts += o.flush_attempts;
        self.ejections += o.ejections;
        self.payloads_applied += o.payloads_applied;
        self.jmutex_granted += o.jmutex_granted;
        self.jmutex_denied += o.jmutex_denied;
        self.snapshots_written += o.snapshots_written;
        self.wal_replayed += o.wal_replayed;
    }
}

/// Scheduled head faults.
#[derive(Clone, Copy, Debug)]
pub enum Fault {
    Crash(usize),
    Restart(usize),
    Leave(usize),
    Join,
}

/// Which rule ended a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stop {
    /// The closed-loop client finished its script.
    ClientDone,
    /// Every arrival came due and was answered.
    Drained,
    /// The oldest unanswered command waited longer than [`STALL`].
    Stalled,
}

impl Stop {
    pub fn name(self) -> &'static str {
        match self {
            Stop::ClientDone => "client-done",
            Stop::Drained => "drained",
            Stop::Stalled => "stalled",
        }
    }
}

/// A cluster plus its load, built and warmed up.
pub struct Bench {
    pub world: World,
    pub cfg: ClusterConfig,
    pub heads: Vec<ProcId>,
    head_nodes: Vec<NodeId>,
    pub moms: Vec<ProcId>,
    login: NodeId,
    procs: u32,
    tracer: Option<Rc<RefCell<Recorder>>>,
    retired: HeadTotals,
    /// Head restarts: `(head index, restart time, established time)`.
    pub restarts: Vec<(usize, SimTime, Option<SimTime>)>,
    pub load: Option<Rc<RefCell<Load>>>,
    closed: Vec<CmdRec>,
    client_done: bool,
    /// Events per simulated second while the warmed-up cluster idles.
    pub idle_events_per_s: f64,
    /// Start of the measured phase.
    pub t0: SimTime,
    /// Sample the queue depth once per simulated second (traced runs).
    pub sample_queue: bool,
    pub queue_depth_max: usize,
}

impl Bench {
    /// Build a JOSHUA cluster of `cfg.mode`'s head count.
    pub fn build(cfg: ClusterConfig, tracer: Option<Rc<RefCell<Recorder>>>) -> Bench {
        let HaMode::Joshua { heads: h } = cfg.mode else {
            panic!("the benchmark drives JOSHUA clusters only");
        };
        let c = cfg.compute_nodes;
        let mut world = World::with_network(cfg.seed, cfg.net.clone());
        let head_nodes: Vec<NodeId> = (0..h)
            .map(|i| world.add_node(format!("head-{i}")))
            .collect();
        let mom_nodes: Vec<NodeId> = (0..c).map(|i| world.add_node(format!("c{i:02}"))).collect();
        let login = world.add_node("login");
        let to_id = |i: usize| ProcId(u32::try_from(i).expect("process count fits u32"));
        let heads: Vec<ProcId> = (0..h).map(to_id).collect();
        let moms: Vec<ProcId> = (h..h + c).map(to_id).collect();
        let mut b = Bench {
            world,
            cfg,
            heads: heads.clone(),
            head_nodes,
            moms,
            login,
            procs: 0,
            tracer,
            retired: HeadTotals::default(),
            restarts: Vec::new(),
            load: None,
            closed: Vec::new(),
            client_done: false,
            idle_events_per_s: 0.0,
            t0: SimTime::ZERO,
            sample_queue: false,
            queue_depth_max: 0,
        };
        for (i, &me) in heads.iter().enumerate() {
            let server = JoshuaServer::new(me, b.joshua_config(), heads.clone());
            let p = b.spawn(b.head_nodes[i], Role::Head, Box::new(server));
            assert_eq!(p, me, "head process ids must be predictable");
        }
        for (i, node) in mom_nodes.into_iter().enumerate() {
            let mom = PbsMomProcess::new(PbsMomCore::new(format!("c{i:02}")));
            let p = b.spawn(node, Role::Mom, Box::new(mom));
            assert_eq!(p, b.moms[i], "mom process ids must be predictable");
        }
        b
    }

    fn joshua_config(&self) -> JoshuaConfig {
        JoshuaConfig {
            nodes: self
                .moms
                .iter()
                .enumerate()
                .map(|(i, m)| (format!("c{i:02}"), *m))
                .collect(),
            policy: self.cfg.policy,
            group: self.cfg.group.clone(),
            cost: self.cfg.cost,
            persist: self.cfg.persist,
        }
    }

    fn wrap(&self, role: Role, p: Box<dyn Process>) -> Box<dyn Process> {
        match &self.tracer {
            Some(rec) => Box::new(Traced::new(p, role, rec.clone())),
            None => p,
        }
    }

    fn spawn(&mut self, node: NodeId, role: Role, p: Box<dyn Process>) -> ProcId {
        let p = self.wrap(role, p);
        self.procs += 1;
        self.world.add_boxed_process(node, p)
    }

    /// A process as its concrete type, looking through a tracing wrapper.
    pub fn proc_ref<T: Process>(&self, p: ProcId) -> Option<&T> {
        self.world.proc_ref::<T>(p).or_else(|| {
            self.world
                .proc_ref::<Traced>(p)?
                .inner()
                .downcast_ref::<T>()
        })
    }

    pub fn head(&self, i: usize) -> Option<&JoshuaServer> {
        self.proc_ref::<JoshuaServer>(self.heads[i])
    }

    /// Live, fully established heads.
    pub fn established(&self) -> Vec<&JoshuaServer> {
        (0..self.heads.len())
            .filter(|&i| self.world.is_proc_alive(self.heads[i]))
            .filter_map(|i| self.head(i))
            .filter(|j| j.is_established())
            .collect()
    }

    /// Real job executions over every mom (the exactly-once check).
    pub fn total_real_runs(&self) -> u64 {
        self.moms
            .iter()
            .map(|m| {
                let mom = self
                    .proc_ref::<PbsMomProcess>(*m)
                    .expect("every mom slot holds a mom");
                mom.core().real_runs
            })
            .sum()
    }

    /// Counters summed over every head process this cluster ever ran.
    pub fn head_totals(&self) -> HeadTotals {
        let mut t = self.retired;
        for i in 0..self.heads.len() {
            if let Some(j) = self.head(i) {
                t += HeadTotals::of(j);
            }
        }
        t
    }

    /// The head node disks, for reading back their WALs.
    pub fn head_disks(&self) -> impl Iterator<Item = &jrs_sim::SimDisk> + '_ {
        self.head_nodes.iter().map(|n| self.world.disk(*n))
    }

    pub fn apply(&mut self, fault: Fault) {
        match fault {
            Fault::Crash(i) => self.world.crash_node(self.head_nodes[i]),
            Fault::Leave(i) => self.world.inject(self.heads[i], LeaveCmd),
            Fault::Restart(i) => {
                // Same recipe as `Cluster::restart_joshua_head`: revive the
                // node (its disk survived) and boot a fresh daemon under the
                // old process id, joining through the other heads.
                if let Some(old) = self.head(i).map(HeadTotals::of) {
                    self.retired += old;
                }
                let node = self.head_nodes[i];
                if !self.world.is_node_alive(node) {
                    self.world.revive_node(node);
                }
                let me = self.heads[i];
                let contacts: Vec<ProcId> =
                    self.heads.iter().copied().filter(|p| *p != me).collect();
                let server = JoshuaServer::new(me, self.joshua_config(), contacts);
                let p = self.wrap(Role::Head, Box::new(server));
                self.world.restart_proc(me, p);
                self.restarts.push((i, self.world.now(), None));
            }
            Fault::Join => {
                let node = self
                    .world
                    .add_node(format!("head-{}", self.head_nodes.len()));
                let me = ProcId(self.procs);
                let server = JoshuaServer::new(me, self.joshua_config(), self.heads.clone());
                let p = self.spawn(node, Role::Head, Box::new(server));
                assert_eq!(p, me, "replacement head id must be predictable");
                self.head_nodes.push(node);
                self.heads.push(p);
            }
        }
    }

    /// Run until every head is established, then idle for `idle` to
    /// measure the background event rate of the quiet cluster.
    pub fn warm_up(&mut self, idle: SimDuration) {
        let deadline = self.world.now() + SimDuration::from_secs(30);
        while self.established().len() < self.heads.len() {
            assert!(
                self.world.now() < deadline,
                "cluster never established its initial view"
            );
            self.world.run_for(TICK);
        }
        let e0 = self.world.events_processed();
        self.world.run_for(idle);
        let events = self.world.events_processed() - e0;
        self.idle_events_per_s = events as f64 / idle.as_secs_f64();
        self.t0 = self.world.now();
    }

    /// The paper's closed-loop client: back-to-back commands from now on.
    pub fn spawn_closed_loop(&mut self, script: Vec<ServerCmd>) {
        let client =
            PbsClientProcess::new(self.heads.clone(), script).with_timeout(self.cfg.client_timeout);
        self.spawn(self.login, Role::User, Box::new(client));
    }

    /// An open-loop user pool; `arrivals` are offsets from now. User `u`
    /// starts at head `u % heads`.
    pub fn spawn_open_loop(&mut self, users: usize, arrivals: Vec<(SimDuration, ServerCmd)>) {
        let now = self.world.now();
        let (dues, cmds): (Vec<SimTime>, Vec<ServerCmd>) =
            arrivals.into_iter().map(|(off, c)| (now + off, c)).unzip();
        let load = Rc::new(RefCell::new(Load {
            cmds,
            recs: dues.iter().map(|d| CmdRec::new(*d)).collect(),
            backlog: VecDeque::new(),
            idle: VecDeque::new(),
            stopped: false,
        }));
        let n = self.heads.len();
        for u in 0..users {
            let user = User {
                targets: self.heads.clone(),
                current: u % n,
                timeout: self.cfg.client_timeout,
                load: load.clone(),
                next_req: 1,
                out: None,
                timer: None,
            };
            let p = self.spawn(self.login, Role::User, Box::new(user));
            load.borrow_mut().idle.push_back(p);
        }
        for (idx, due) in dues.into_iter().enumerate() {
            let load = load.clone();
            self.world.schedule_at(due, move |w| {
                let user = {
                    let mut l = load.borrow_mut();
                    if l.stopped {
                        return;
                    }
                    l.backlog.push_back(idx);
                    l.idle.pop_front()
                };
                if let Some(u) = user {
                    w.inject(u, Kick);
                }
            });
        }
        self.load = Some(load);
    }

    fn collect_closed_loop(&mut self) {
        for e in self.world.drain_emitted() {
            if let Some(r) = e.value.downcast_ref::<SubmitRecord>() {
                let due = e.at - r.latency;
                self.closed.push(CmdRec {
                    due,
                    sent: Some(due),
                    done: Some(e.at),
                    attempts: r.attempts,
                    reply: Some(Reply::of(&r.reply)),
                });
            } else if e.value.is::<ClientDone>() {
                self.client_done = true;
            }
        }
    }

    /// Commands attempted so far (due by now), answered or not. For the
    /// closed loop, an outstanding command is due when the last one was
    /// answered.
    pub fn records(&self) -> Vec<CmdRec> {
        match &self.load {
            Some(load) => {
                let now = self.world.now();
                load.borrow()
                    .recs
                    .iter()
                    .filter(|r| r.due <= now)
                    .cloned()
                    .collect()
            }
            None => {
                let mut recs = self.closed.clone();
                if !self.client_done {
                    let due = recs.last().and_then(|r| r.done).unwrap_or(self.t0);
                    recs.push(CmdRec {
                        sent: Some(due),
                        attempts: 1,
                        ..CmdRec::new(due)
                    });
                }
                recs
            }
        }
    }

    /// Due time of the oldest unanswered command, if any.
    fn oldest_open(&self, cursor: &mut usize) -> Option<SimTime> {
        match &self.load {
            Some(load) => {
                let load = load.borrow();
                while *cursor < load.recs.len() && load.recs[*cursor].done.is_some() {
                    *cursor += 1;
                }
                let rec = load.recs.get(*cursor)?;
                (rec.due <= self.world.now()).then_some(rec.due)
            }
            None if self.client_done => None,
            None => Some(self.closed.last().and_then(|r| r.done).unwrap_or(self.t0)),
        }
    }

    fn all_due_answered(&self, cursor: usize) -> bool {
        self.load
            .as_ref()
            .is_some_and(|l| cursor >= l.borrow().recs.len())
    }

    /// Run the measured phase, applying `faults` (offsets from the phase
    /// start) on schedule, until a stop rule fires.
    pub fn run(&mut self, faults: &[(SimDuration, Fault)]) -> Stop {
        let stop = self.run_to_stop(faults);
        if let Some(load) = &self.load {
            load.borrow_mut().stopped = true;
        }
        stop
    }

    fn run_to_stop(&mut self, faults: &[(SimDuration, Fault)]) -> Stop {
        let mut cursor = 0;
        let mut ticks = 0u64;
        let t0 = self.t0;
        let mut pending = faults.iter().map(|(off, f)| (t0 + *off, *f)).peekable();
        loop {
            let mut next = self.world.now() + TICK;
            if let Some((at, _)) = pending.peek() {
                next = next.min(*at);
            }
            self.world.run_until(next);
            while let Some((_, f)) = pending.next_if(|(at, _)| *at <= self.world.now()) {
                self.apply(f);
            }
            self.note_rejoins();
            ticks += 1;
            if self.sample_queue && ticks.is_multiple_of(100) {
                let depth = self
                    .established()
                    .first()
                    .map_or(0, |j| j.pbs().count_state(jrs_pbs::JobState::Queued));
                self.queue_depth_max = self.queue_depth_max.max(depth);
            }
            if self.load.is_none() {
                self.collect_closed_loop();
                if self.client_done {
                    return Stop::ClientDone;
                }
            }
            match self.oldest_open(&mut cursor) {
                Some(due) if self.world.now().since(due) > STALL => return Stop::Stalled,
                None if self.all_due_answered(cursor) => return Stop::Drained,
                _ => {}
            }
        }
    }

    fn note_rejoins(&mut self) {
        let now = self.world.now();
        for k in 0..self.restarts.len() {
            let (i, _, est) = self.restarts[k];
            if est.is_none() && self.head(i).is_some_and(|j| j.is_established()) {
                self.restarts[k].2 = Some(now);
            }
        }
    }

    /// After the measured phase: let in-flight work settle until every
    /// established head has applied the same prefix of the total order
    /// (or `budget` runs out), so replica state can be compared.
    pub fn drain(&mut self, budget: SimDuration) {
        let deadline = self.world.now() + budget;
        // First let the last replies' output releases and the obituaries of
        // jobs that just ended reach every head.
        self.world.run_for(SimDuration::from_secs(2));
        while self.world.now() < deadline {
            let idx: Vec<u64> = self
                .established()
                .iter()
                .map(|j| j.applied_index())
                .collect();
            if idx.windows(2).all(|w| w[0] == w[1]) {
                break;
            }
            self.world.run_for(TICK);
        }
    }
}
