//! Deterministic, seed-driven fault injection.
//!
//! Every failure mode the service must survive — handler panics, slow
//! handlers blowing deadlines, queue pressure — is hard to reproduce by
//! timing luck and easy to reproduce by injection.  A [`FaultPlan`] maps
//! *named sites* (plain strings such as `"pool.execute"` or
//! `"handler.matrix"`) to fault behaviours, and production code calls
//! [`FaultPlan::fire`] at those sites.  A site with no behaviour costs a
//! mutex lock and a hash lookup, and only when a plan is installed at all
//! (the scheduler's fast path is a `None` check).
//!
//! Determinism is the point: script-driven sites replay an exact fault
//! sequence, periodic sites fire on exact hit counts, and probabilistic
//! sites draw from an xorshift generator seeded by `plan seed ⊕ site
//! hash` — the same plan produces the same faults on every run, so every
//! integration test in `tests/serve.rs` is reproducible under its fixed
//! seed.
//!
//! Three behaviours compose the failure model:
//!
//! * [`Fault::Panic`] — `panic!` at the site (exercises `catch_unwind`
//!   isolation and the guard that completes a dead job's ticket),
//! * [`Fault::Delay`] — sleep at the site (exercises deadlines and queue
//!   pressure),
//! * [`Fault::Fail`] — return a [`ServeError`] from the site (exercises
//!   structured error propagation).

use crate::proto::ServeError;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// One injected fault.
#[derive(Debug, Clone)]
pub enum Fault {
    /// Panic at the site with this message.
    Panic(String),
    /// Sleep this long at the site, then continue normally.
    Delay(Duration),
    /// Return this error from the site.
    Fail(ServeError),
}

/// A deterministic xorshift64* generator — also used for retry jitter in
/// [`crate::client::RetryPolicy`], so backoff schedules are reproducible.
#[derive(Debug, Clone)]
pub(crate) struct XorShift(u64);

impl XorShift {
    pub(crate) fn new(seed: u64) -> XorShift {
        // Scramble the seed with an odd-constant multiply (bijective, so
        // distinct seeds stay distinct) and displace zero, which is a
        // fixed point of xorshift.
        let x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(0x2545_f491_4f6c_dd1d);
        XorShift(if x == 0 { 0x9e37_79b9_7f4a_7c15 } else { x })
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in `[0, 1)`.
    pub(crate) fn next_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn fnv64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[derive(Default)]
struct SiteState {
    /// Faults consumed one per hit, in order, before any other mode.
    script: VecDeque<Fault>,
    /// Fire on every `period`-th hit (1-based: period 1 is every hit).
    every: Option<(u64, Fault)>,
    /// Fire with probability `p` per hit, drawn from the seeded generator.
    prob: Option<(f64, Fault, XorShift)>,
    hits: u64,
    fired: u64,
}

/// A named-site fault plan.  Cheap to share (`Arc`) between the server
/// config, test handlers, and assertions.
pub struct FaultPlan {
    seed: u64,
    sites: Mutex<HashMap<String, SiteState>>,
}

impl FaultPlan {
    /// An empty plan: every site passes until behaviours are added.
    pub fn new(seed: u64) -> Arc<FaultPlan> {
        Arc::new(FaultPlan { seed, sites: Mutex::new(HashMap::new()) })
    }

    /// The seed the plan (and its per-site generators) was built from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<String, SiteState>> {
        // A panic fault unwinding through a caller must not wedge the
        // plan itself: tolerate poisoning.
        self.sites.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Append `faults` to the site's script; each hit consumes one entry
    /// until the script is exhausted.
    pub fn script(&self, site: &str, faults: impl IntoIterator<Item = Fault>) {
        let mut sites = self.lock();
        sites.entry(site.to_string()).or_default().script.extend(faults);
    }

    /// Fire `fault` on every `period`-th hit of the site (period 1 = every
    /// hit).  Replaces any previous periodic behaviour at the site.
    pub fn every(&self, site: &str, period: u64, fault: Fault) {
        assert!(period > 0, "period must be at least 1");
        let mut sites = self.lock();
        sites.entry(site.to_string()).or_default().every = Some((period, fault));
    }

    /// Fire `fault` with probability `p` per hit, deterministically drawn
    /// from an xorshift stream seeded by `seed ⊕ fnv(site)`.
    pub fn with_probability(&self, site: &str, p: f64, fault: Fault) {
        let rng = XorShift::new(self.seed ^ fnv64(site));
        let mut sites = self.lock();
        sites.entry(site.to_string()).or_default().prob = Some((p, fault, rng));
    }

    /// How many times the site has been evaluated.
    pub fn hits(&self, site: &str) -> u64 {
        self.lock().get(site).map_or(0, |s| s.hits)
    }

    /// How many times the site actually injected a fault.
    pub fn fired(&self, site: &str) -> u64 {
        self.lock().get(site).map_or(0, |s| s.fired)
    }

    /// Evaluate the site: sleep on [`Fault::Delay`], `panic!` on
    /// [`Fault::Panic`], return the error on [`Fault::Fail`], and pass
    /// (`Ok`) when no fault is due.  The plan lock is released before the
    /// fault acts, so a panicking or sleeping site never blocks others.
    pub fn fire(&self, site: &str) -> Result<(), ServeError> {
        let fault = {
            let mut sites = self.lock();
            let Some(state) = sites.get_mut(site) else { return Ok(()) };
            state.hits += 1;
            let due = if let Some(f) = state.script.pop_front() {
                Some(f)
            } else if let Some((period, f)) = &state.every {
                (state.hits % *period == 0).then(|| f.clone())
            } else if let Some((p, f, rng)) = &mut state.prob {
                (rng.next_unit() < *p).then(|| f.clone())
            } else {
                None
            };
            if due.is_some() {
                state.fired += 1;
            }
            due
        };
        match fault {
            None => Ok(()),
            Some(Fault::Delay(d)) => {
                std::thread::sleep(d);
                Ok(())
            }
            Some(Fault::Fail(e)) => Err(e),
            Some(Fault::Panic(msg)) => panic!("injected fault at '{site}': {msg}"),
        }
    }
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let sites = self.lock();
        let mut names: Vec<&String> = sites.keys().collect();
        names.sort();
        f.debug_struct("FaultPlan").field("seed", &self.seed).field("sites", &names).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_passes_and_counts_nothing() {
        let plan = FaultPlan::new(1);
        assert!(plan.fire("anywhere").is_ok());
        assert_eq!(plan.hits("anywhere"), 0, "unconfigured sites are not tracked");
        assert_eq!(plan.fired("anywhere"), 0);
    }

    #[test]
    fn script_faults_fire_in_order_then_exhaust() {
        let plan = FaultPlan::new(2);
        plan.script(
            "s",
            [Fault::Fail(ServeError::internal("first")), Fault::Delay(Duration::from_millis(1))],
        );
        assert_eq!(plan.fire("s").unwrap_err().message, "first");
        assert!(plan.fire("s").is_ok(), "delay fault passes after sleeping");
        assert!(plan.fire("s").is_ok(), "script exhausted");
        assert_eq!(plan.hits("s"), 3);
        assert_eq!(plan.fired("s"), 2);
    }

    #[test]
    fn periodic_faults_fire_on_exact_hit_counts() {
        let plan = FaultPlan::new(3);
        plan.every("p", 3, Fault::Fail(ServeError::internal("third")));
        let outcomes: Vec<bool> = (0..9).map(|_| plan.fire("p").is_err()).collect();
        assert_eq!(outcomes, [false, false, true, false, false, true, false, false, true]);
    }

    #[test]
    fn probabilistic_faults_are_deterministic_per_seed() {
        let run = |seed| {
            let plan = FaultPlan::new(seed);
            plan.with_probability("q", 0.5, Fault::Fail(ServeError::internal("maybe")));
            (0..64).map(|_| plan.fire("q").is_err()).collect::<Vec<bool>>()
        };
        assert_eq!(run(7), run(7), "same seed, same fault sequence");
        assert_ne!(run(7), run(8), "different seed, different sequence");
        let fired = run(7).iter().filter(|&&f| f).count();
        assert!((16..=48).contains(&fired), "p=0.5 fired {fired}/64 times");
    }

    #[test]
    fn panic_fault_panics_with_the_site_name() {
        let plan = FaultPlan::new(4);
        plan.script("boom", [Fault::Panic("kaput".into())]);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = plan.fire("boom");
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("boom") && msg.contains("kaput"), "{msg}");
        // The plan survives its own panic (no poisoned-lock wedge).
        assert!(plan.fire("boom").is_ok());
        assert_eq!(plan.fired("boom"), 1);
    }
}
