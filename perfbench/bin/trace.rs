//! Host-time tracing from outside the program: every head, mom and user
//! process is wrapped in [`Traced`], which times each handler call and
//! classifies what triggered it. The wrapper only observes — it passes the
//! same `Ctx` and message through untouched — so a traced run must produce
//! exactly the same simulation as an untraced one (the benchmark checks).

use joshua_core::{LeaveCmd, Payload};
use jrs_gcs::{EngineMsg, GcsMsg, Wire};
use jrs_pbs::proc::{ArbiterRelease, ArbiterRequest, ClientReply, ClientRequest};
use jrs_pbs::{MomInbound, MomReport};
use jrs_sim::{Ctx, Msg, ProcId, Process, TimerId};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use std::time::Instant;

/// What kind of process a span ran in.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Role {
    /// A JOSHUA head daemon.
    Head,
    /// A compute-node mom.
    Mom,
    /// A simulated user (load generator).
    User,
}

impl Role {
    pub fn name(self) -> &'static str {
        match self {
            Role::Head => "head",
            Role::Mom => "mom",
            Role::User => "user",
        }
    }
}

/// Aggregate of the spans of one `(role, kind)` pair.
#[derive(Clone, Copy, Debug, Default)]
pub struct Agg {
    pub count: u64,
    pub ns: u64,
    pub max_ns: u64,
}

/// In-memory span store shared by every wrapper of one run.
#[derive(Default)]
pub struct Recorder {
    /// Spans are recorded only while the measured phase runs.
    pub active: bool,
    pub spans: BTreeMap<(Role, &'static str), Agg>,
    /// Reliable-link data frames seen by receivers.
    pub data_frames: u64,
    /// Data frames whose link sequence number the receiver had already
    /// seen: retransmissions that reached their target.
    pub duplicate_data: u64,
    links: BTreeMap<(ProcId, ProcId), BTreeSet<u64>>,
}

impl Recorder {
    fn record(&mut self, role: Role, kind: &'static str, ns: u64) {
        let a = self.spans.entry((role, kind)).or_default();
        a.count += 1;
        a.ns += ns;
        a.max_ns = a.max_ns.max(ns);
    }

    fn data_seq(&mut self, from: ProcId, to: ProcId, seq: u64) {
        self.data_frames += 1;
        let seen = self.links.entry((from, to)).or_default();
        // A restarted sender opens a fresh link that counts from 1 again.
        if seq == 1 && seen.len() > 1 {
            seen.clear();
        }
        if !seen.insert(seq) {
            self.duplicate_data += 1;
        }
    }

    /// Sum over spans whose role and kind match.
    pub fn sum(&self, role: Option<Role>, kind: impl Fn(&str) -> bool) -> Agg {
        let mut out = Agg::default();
        for ((r, k), a) in &self.spans {
            if role.is_none_or(|want| want == *r) && kind(k) {
                out.count += a.count;
                out.ns += a.ns;
                out.max_ns = out.max_ns.max(a.max_ns);
            }
        }
        out
    }

    /// Tab-separated span table, one row per `(role, kind)`.
    pub fn table(&self) -> String {
        let mut s = String::from("role\tkind\tcount\ttotal_ns\tmax_ns\n");
        for ((r, k), a) in &self.spans {
            s.push_str(&format!(
                "{}\t{k}\t{}\t{}\t{}\n",
                r.name(),
                a.count,
                a.ns,
                a.max_ns
            ));
        }
        s
    }
}

/// Classify an inbound message by type, looking inside group frames.
fn classify(msg: &Msg) -> (&'static str, Option<u64>) {
    if let Some(w) = msg.downcast_ref::<Wire<Payload>>() {
        return match w {
            Wire::Ack { .. } => ("link_ack", None),
            Wire::Raw(m) => (gcs_kind("raw", m), None),
            Wire::Data { seq, msg } => (gcs_kind("data", msg), Some(*seq)),
        };
    }
    let kind = if msg.is::<ClientRequest>() {
        "client_request"
    } else if msg.is::<ClientReply>() {
        "client_reply"
    } else if msg.is::<MomReport>() {
        "mom_report"
    } else if msg.is::<ArbiterRequest>() || msg.is::<ArbiterRelease>() {
        "arbiter"
    } else if msg.is::<MomInbound>() {
        "mom_inbound"
    } else if msg.is::<LeaveCmd>() {
        "leave"
    } else if msg.is::<crate::harness::Kick>() {
        "kick"
    } else {
        "other"
    };
    (kind, None)
}

fn gcs_kind(link: &'static str, m: &GcsMsg<Payload>) -> &'static str {
    match (link, m) {
        (_, GcsMsg::Engine { msg, .. }) => match msg {
            EngineMsg::Request { .. } => "engine.request",
            EngineMsg::Ordered(_) => "engine.ordered",
            EngineMsg::Ack { .. } => "engine.ack",
            EngineMsg::Stable { .. } => "engine.stable",
            EngineMsg::Token { .. } => "engine.token",
        },
        ("raw", GcsMsg::Heartbeat { .. }) => "raw.heartbeat",
        ("raw", _) => "raw.membership",
        (_, GcsMsg::Heartbeat { .. }) => "data.heartbeat",
        (_, _) => "data.membership",
    }
}

/// A process wrapped for tracing.
pub struct Traced {
    inner: Box<dyn Process>,
    role: Role,
    rec: Rc<RefCell<Recorder>>,
}

impl Traced {
    pub fn new(inner: Box<dyn Process>, role: Role, rec: Rc<RefCell<Recorder>>) -> Traced {
        Traced { inner, role, rec }
    }

    pub fn inner(&self) -> &dyn Process {
        self.inner.as_ref()
    }

    fn span(&self, kind: &'static str, t0: Instant) {
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let mut rec = self.rec.borrow_mut();
        if rec.active {
            rec.record(self.role, kind, ns);
        }
    }
}

impl Process for Traced {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let t0 = Instant::now();
        self.inner.on_start(ctx);
        self.span("start", t0);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: ProcId, msg: Msg) {
        let (kind, seq) = classify(&msg);
        if let Some(seq) = seq {
            let mut rec = self.rec.borrow_mut();
            if rec.active {
                rec.data_seq(from, ctx.me(), seq);
            }
        }
        let t0 = Instant::now();
        self.inner.on_message(ctx, from, msg);
        self.span(kind, t0);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: TimerId, tag: u64) {
        let t0 = Instant::now();
        self.inner.on_timer(ctx, timer, tag);
        self.span("timer", t0);
    }
}
