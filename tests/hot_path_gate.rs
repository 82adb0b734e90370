//! Hot-path gate: heap allocations per command on the paper's closed-loop
//! burst, plus the exact simulated footprint of that run.
//!
//! A 4-head JOSHUA cluster (seed 2006) runs a 200-qsub closed-loop burst.
//! After a 2 s warm-up (bootstrap view, first heartbeats, buffers reaching
//! their working capacity) the test counts every heap allocation its own
//! thread makes until 68 s of virtual time, by which point the burst has
//! finished.
//!
//! Two kinds of assertion, kept apart on purpose:
//!
//! * **Simulated behaviour is pinned exactly.** Events processed, frames
//!   and bytes handed to the network, and a digest of every command's
//!   latency are deterministic per seed. A host-side optimisation of the
//!   group-communication path must leave all of them bit-identical; any
//!   change here means the protocol itself changed.
//! * **Allocations per command have a ceiling, not an exact value.** The
//!   count depends on the toolchain (inlining, `Vec` growth strategy, how
//!   the standard collections size their nodes), and CI builds with an
//!   unpinned stable toolchain in both debug and release. The ceiling sits
//!   about 14% above the measured 456.5, so it catches a return of
//!   per-frame buffer churn (1109.5 per command before the group layer
//!   wrote into caller-owned sinks) without flaking on a toolchain update.

use joshua_repro::core::cluster::{Cluster, ClusterConfig, HaMode};
use joshua_repro::core::workload;
use joshua_repro::sim::{SimDuration, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts allocations made by threads that switched counting on. The test
/// harness runs tests on several threads at once; a per-thread switch keeps
/// their allocations out of this test's count.
struct ThreadCounting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    // `try_with`: the allocator also runs while thread-locals are being
    // torn down, when `with` would panic.
    let on = COUNTING.try_with(Cell::get).unwrap_or(false);
    if on {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every call is forwarded to `System` with its arguments unchanged,
// so `System` upholds the allocator contract. The thread-locals are
// const-initialised `Cell`s without destructors, so touching them never
// allocates or re-enters the allocator.
unsafe impl GlobalAlloc for ThreadCounting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: ThreadCounting = ThreadCounting;

/// Allocations this thread makes while running `f`.
fn count_allocations(f: impl FnOnce()) -> u64 {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCATIONS.with(Cell::get)
}

const COMMANDS: usize = 200;

/// Upper bound on heap allocations per command over the measured window
/// (see the module docs for why this is a ceiling). About three quarters
/// of what remains is the simulation kernel's one boxed message per sent
/// frame.
const MAX_ALLOCATIONS_PER_COMMAND: f64 = 520.0;

fn at(s: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(s)
}

/// FNV-1a over the command latencies in nanoseconds, in record order.
fn latency_digest(latencies_ns: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for ns in latencies_ns {
        for b in ns.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn paper_burst_hot_path_allocations_and_footprint() {
    let mut cfg = ClusterConfig::new(HaMode::Joshua { heads: 4 });
    cfg.seed = 2006;
    let mut c = Cluster::build(cfg);
    c.spawn_client(workload::burst(COMMANDS));
    c.run_until(at(2));

    let events_before = c.world.events_processed();
    let frames_before = c.world.network().sent;
    let bytes_before = c.world.network().bytes_sent;
    let allocations = count_allocations(|| c.run_until(at(68)));
    let events = c.world.events_processed() - events_before;
    let frames = c.world.network().sent - frames_before;
    let bytes = c.world.network().bytes_sent - bytes_before;

    let records = c.take_records();
    let digest = latency_digest(records.iter().map(|r| r.latency.as_nanos()));
    let per_command = allocations as f64 / COMMANDS as f64;
    println!(
        "events {events}, frames {frames}, bytes {bytes}, records {}, digest {digest:#018x}, \
         allocations {allocations} ({per_command:.1} per command)",
        records.len()
    );

    assert_eq!(records.len(), COMMANDS, "every command answered");
    assert_eq!(events, EXPECTED_EVENTS, "simulated events moved");
    assert_eq!(frames, EXPECTED_FRAMES, "frames handed to the network moved");
    assert_eq!(bytes, EXPECTED_BYTES, "bytes handed to the network moved");
    assert_eq!(digest, EXPECTED_LATENCY_DIGEST, "command latencies moved");
    assert!(
        per_command <= MAX_ALLOCATIONS_PER_COMMAND,
        "{per_command:.1} heap allocations per command, ceiling {MAX_ALLOCATIONS_PER_COMMAND}"
    );
}

// Recorded on the code before the allocation-free frame path landed: that
// change, like any later host-side one, must reproduce them exactly.
const EXPECTED_EVENTS: u64 = 124_065;
const EXPECTED_FRAMES: u64 = 70_557;
const EXPECTED_BYTES: u64 = 7_838_528;
const EXPECTED_LATENCY_DIGEST: u64 = 0x438a_3a9f_e336_49f4;
