//! A fixed probe of host speed, independent of the program under test.
//!
//! On a shared host the same deterministic execution can take a third
//! longer when neighbours load the caches, memory bus or sibling
//! hyperthreads, and that slowdown lasts seconds to minutes: longer than
//! one benchmark run. It slows this probe by about the same factor. The
//! benchmark times its work between two probes and scales the host time by
//! `PROBE_NOMINAL` ÷ their mean, so its host metrics read in seconds of a
//! host as fast as the nominal one. The probe uses
//! nothing from the repository, so a change to the program moves the
//! scaled figures exactly as it moves the raw ones.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Duration;

/// The probe's CPU time on an otherwise idle core of the machine the
/// benchmark was tuned on (2-vCPU KVM guest on a Xeon Sapphire Rapids).
const PROBE_NOMINAL: f64 = 0.010;

/// CPU time of one pass of a fixed, allocation-heavy ordered-map workload,
/// the kind of work the simulation does.
fn probe() -> Duration {
    let c = crate::cpu::now();
    let mut z: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut m: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut sum = 0u64;
    for i in 0..40_000u64 {
        z = z
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let k = z >> 40;
        m.insert(k, vec![i as u8; 16 + (z & 63) as usize]);
        if i % 3 == 0 {
            if let Some((&k, _)) = m.range(k / 2..).next() {
                sum = sum.wrapping_add(m.remove(&k).map_or(0, |v| v.len() as u64));
            }
        }
    }
    sum = sum.wrapping_add(m.values().map(|v| v.len() as u64).sum::<u64>());
    black_box(sum);
    crate::cpu::since(c)
}

/// Factor that converts host time measured between the probes `before`
/// and `after` into nominal host time.
fn scale(before: Duration, after: Duration) -> f64 {
    2.0 * PROBE_NOMINAL / (before + after).as_secs_f64()
}

/// The latest probe of a run: the one before whatever is timed next.
pub struct Probes(Duration);

impl Probes {
    pub fn start() -> Probes {
        Probes(probe())
    }

    /// Probe again, so that the work timed next starts right after a probe.
    pub fn refresh(&mut self) {
        self.0 = probe();
    }

    /// Run `f` and probe again. Returns `f`'s result and the factor that
    /// scales host time measured inside `f` to nominal host time.
    pub fn bracket<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let out = f();
        let after = probe();
        let s = scale(self.0, after);
        self.0 = after;
        (out, s)
    }
}
