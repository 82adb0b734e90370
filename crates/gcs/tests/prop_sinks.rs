//! Property-based test of the caller-owned output sinks: driving a group
//! through `broadcast_into` / `tick_into` / `on_wire_into` with one
//! reused [`Output`] must be indistinguishable from driving an identical
//! group through the by-value `broadcast` / `tick` / `on_wire`.
//!
//! Two copies of the same group run the same random script of
//! broadcasts, frame deliveries, frame drops, ticks, crashes and joins.
//! After every step both copies must have emitted the same frames (source,
//! destination, wire size and content), the same upcalls, and every
//! member must have the same protocol state fingerprint.
//!
//! The reused sink is emptied only between steps, so within a step every
//! call finds earlier calls' output still in it: the `*_into` calls must
//! append and never read, reorder or clear what is already there.

use jrs_gcs::{EngineKind, GroupConfig, GroupMember, Output, Wire};
use jrs_sim::{ProcId, SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug)]
enum Step {
    /// Member (index into the live set) broadcasts the next payload.
    Broadcast(u8),
    /// Deliver the in-flight frame at this index (modulo the count).
    Deliver(u8),
    /// Deliver every frame in flight, oldest first, including the ones
    /// those deliveries produce (bounded).
    DeliverAll,
    /// Lose the in-flight frame at this index.
    Drop(u8),
    /// Advance time by this many ticks, ticking every member each time.
    Tick(u8),
    /// Crash the member with this index (if more than one remains).
    Crash(u8),
    /// Start a fresh joiner.
    Join,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        4 => any::<u8>().prop_map(Step::Broadcast),
        6 => any::<u8>().prop_map(Step::Deliver),
        2 => Just(Step::DeliverAll),
        1 => any::<u8>().prop_map(Step::Drop),
        3 => (1u8..40).prop_map(Step::Tick),
        1 => any::<u8>().prop_map(Step::Crash),
        1 => Just(Step::Join),
    ]
}

/// One copy of the group. `sink` is `None` for the copy driven through the
/// by-value API, and the one reused buffer for the copy driven through the
/// `*_into` API (which takes copies of what each call appended).
struct Side {
    members: BTreeMap<ProcId, GroupMember<u32>>,
    flight: Vec<(ProcId, ProcId, Wire<u32>)>,
    sink: Option<Output<u32>>,
    now: SimTime,
    /// Everything emitted during the current step, rendered.
    log: Vec<String>,
}

impl Side {
    fn new(n: u32, config: &GroupConfig, reuse_sink: bool) -> Side {
        let ids: Vec<ProcId> = (0..n).map(ProcId).collect();
        let mut side = Side {
            members: BTreeMap::new(),
            flight: Vec::new(),
            sink: reuse_sink.then(Output::default),
            now: SimTime::ZERO,
            log: Vec::new(),
        };
        for &id in &ids {
            side.add(id, config, ids.clone());
        }
        side
    }

    fn add(&mut self, id: ProcId, config: &GroupConfig, initial: Vec<ProcId>) {
        let mut m = GroupMember::new(id, config.clone(), initial);
        let out = m.start(self.now);
        self.members.insert(id, m);
        self.record(id, out);
    }

    /// Render and enqueue one by-value output.
    fn record(&mut self, from: ProcId, out: Output<u32>) {
        for (to, frame, bytes) in out.wire {
            self.log.push(format!("{from:?}->{to:?} {bytes}B {frame:?}"));
            self.flight.push((from, to, frame));
        }
        for ev in out.events {
            self.log.push(format!("{from:?} {ev:?}"));
        }
    }

    /// Render and enqueue copies of what one `*_into` call appended to the
    /// sink past `mark` (its lengths before the call).
    fn record_appended(&mut self, from: ProcId, sink: &Output<u32>, mark: (usize, usize)) {
        for (to, frame, bytes) in &sink.wire[mark.0..] {
            self.log.push(format!("{from:?}->{to:?} {bytes}B {frame:?}"));
            self.flight.push((from, *to, frame.clone()));
        }
        for ev in &sink.events[mark.1..] {
            self.log.push(format!("{from:?} {ev:?}"));
        }
    }

    fn broadcast(&mut self, who: ProcId, payload: u32) {
        let now = self.now;
        let Some(m) = self.members.get_mut(&who) else { return };
        match self.sink.take() {
            None => {
                let out = m.broadcast(now, payload);
                self.record(who, out);
            }
            Some(mut sink) => {
                let mark = (sink.wire.len(), sink.events.len());
                m.broadcast_into(now, payload, &mut sink);
                self.record_appended(who, &sink, mark);
                self.sink = Some(sink);
            }
        }
    }

    fn tick_all(&mut self) {
        let now = self.now;
        let ids: Vec<ProcId> = self.members.keys().copied().collect();
        for id in ids {
            let Some(m) = self.members.get_mut(&id) else { continue };
            match self.sink.take() {
                None => {
                    let out = m.tick(now);
                    self.record(id, out);
                }
                Some(mut sink) => {
                    let mark = (sink.wire.len(), sink.events.len());
                    m.tick_into(now, &mut sink);
                    self.record_appended(id, &sink, mark);
                    self.sink = Some(sink);
                }
            }
        }
    }

    fn deliver(&mut self, index: usize) {
        if self.flight.is_empty() {
            return;
        }
        let (from, to, frame) = self.flight.remove(index % self.flight.len());
        let now = self.now;
        let Some(m) = self.members.get_mut(&to) else { return };
        match self.sink.take() {
            None => {
                let out = m.on_wire(now, from, frame);
                self.record(to, out);
            }
            Some(mut sink) => {
                let mark = (sink.wire.len(), sink.events.len());
                m.on_wire_into(now, from, frame, &mut sink);
                self.record_appended(to, &sink, mark);
                self.sink = Some(sink);
            }
        }
    }

    fn apply(&mut self, step: Step, config: &GroupConfig, next_joiner: &mut u32) {
        self.log.clear();
        if let Some(sink) = &mut self.sink {
            sink.wire.clear();
            sink.events.clear();
        }
        match step {
            Step::Broadcast(sel) => {
                let ids: Vec<ProcId> = self.members.keys().copied().collect();
                if let Some(&who) = ids.get(usize::from(sel) % ids.len().max(1)) {
                    let payload = u32::try_from(self.members.len()).unwrap_or(0) * 1000
                        + u32::from(sel);
                    self.broadcast(who, payload);
                }
            }
            Step::Deliver(i) => self.deliver(usize::from(i)),
            Step::DeliverAll => {
                for _ in 0..400 {
                    if self.flight.is_empty() {
                        break;
                    }
                    self.deliver(0);
                }
            }
            Step::Drop(i) => {
                if !self.flight.is_empty() {
                    let n = self.flight.len();
                    self.flight.remove(usize::from(i) % n);
                }
            }
            Step::Tick(k) => {
                for _ in 0..k {
                    self.now += config.tick_every;
                    self.tick_all();
                }
            }
            Step::Crash(sel) => {
                if self.members.len() > 1 {
                    let ids: Vec<ProcId> = self.members.keys().copied().collect();
                    let who = ids[usize::from(sel) % ids.len()];
                    self.members.remove(&who);
                    self.flight.retain(|&(_, to, _)| to != who);
                }
            }
            Step::Join => {
                let contacts: Vec<ProcId> = self.members.keys().copied().collect();
                let id = ProcId(*next_joiner);
                *next_joiner += 1;
                self.add(id, config, contacts);
            }
        }
    }

    fn fingerprints(&self) -> Vec<(ProcId, u64)> {
        self.members.iter().map(|(&id, m)| (id, m.state_hash())).collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn into_api_with_one_reused_sink_matches_by_value_api(
        n in 2u32..5,
        token in any::<bool>(),
        steps in prop::collection::vec(step_strategy(), 1..80),
    ) {
        let engine = if token { EngineKind::Token } else { EngineKind::Sequencer };
        let config = GroupConfig {
            // Short enough that crashes lead to view changes within a run.
            fail_after: SimDuration::from_millis(100),
            flush_timeout: SimDuration::from_millis(150),
            ..GroupConfig::with_engine(engine)
        };
        let mut by_value = Side::new(n, &config, false);
        let mut into = Side::new(n, &config, true);
        prop_assert_eq!(&by_value.log, &into.log);
        let (mut joiner_a, mut joiner_b) = (100u32, 100u32);
        for (i, &step) in steps.iter().enumerate() {
            by_value.apply(step, &config, &mut joiner_a);
            into.apply(step, &config, &mut joiner_b);
            prop_assert_eq!(&by_value.log, &into.log, "step {} {:?}: emitted output differs", i, step);
            prop_assert_eq!(
                by_value.fingerprints(),
                into.fingerprints(),
                "step {} {:?}: member state differs",
                i,
                step
            );
        }
    }
}
