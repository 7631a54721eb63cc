//! Process-wide shared program store.
//!
//! Building a benchmark's synthetic CFG ([`crate::builder::build_program`])
//! allocates a multi-megabyte [`Program`], and a reproduction campaign
//! runs thousands of simulations over a handful of programs. The store
//! hands out `Arc<Program>` clones, so concurrent simulation jobs on one
//! profile share one immutable CFG instead of each rebuilding it.
//!
//! The store owns no program. It keeps one `Weak<Program>` per profile,
//! so a program lives exactly as long as some caller holds its `Arc`: a
//! request while one is alive returns it, and a request after the last
//! holder dropped it builds it again. Memory therefore follows the
//! programs in use, not every profile the process ever touched; callers
//! that run many jobs on one profile hold its `Arc` across them (the
//! pool's workers pin the program of their last job).
//!
//! Programs are keyed by a stable hash of the full [`Profile`] (shape and
//! seed), so two profiles that differ in any generation knob never share
//! a program. Each key has its own lock, held across a build: concurrent
//! requests for one profile wait for the first caller's build and share
//! it, while requests for *different* profiles build concurrently,
//! because the map's lock is held only to find the key's slot.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, Weak};

use crate::builder::build_program;
use crate::profiles::Profile;
use crate::program::Program;

/// FNV-1a 64-bit over the profile's `Debug` rendering: tiny, dependency
/// free, and stable across runs for a deterministic `Debug` impl.
fn profile_key(profile: &Profile) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in format!("{profile:?}").bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// One profile's program, if some caller still holds it.
type Slot = Arc<Mutex<Weak<Program>>>;

/// The program map: profile key → its slot.
fn slots() -> &'static Mutex<HashMap<u64, Slot>> {
    static SLOTS: OnceLock<Mutex<HashMap<u64, Slot>>> = OnceLock::new();
    SLOTS.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Programs built since the process started.
static BUILDS: AtomicU64 = AtomicU64::new(0);

/// Locks a store mutex. A build that panicked leaves its slot empty (or
/// holding the previous program), both valid, so a poisoned lock is
/// adopted.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Returns the shared program for `profile`: the live one if some caller
/// holds it, otherwise a fresh build. Identical in content to
/// [`Profile::build`].
pub fn shared_program(profile: &Profile) -> Arc<Program> {
    let key = profile_key(profile);
    let slot = lock(slots()).entry(key).or_default().clone();
    // Build under the slot's lock only: a slow build for one benchmark
    // must not block lookups (or builds) for any other, and two requests
    // for the same profile still coalesce on one build.
    let mut weak = lock(&slot);
    if let Some(program) = weak.upgrade() {
        return program;
    }
    let program = Arc::new(build_program(&profile.shape));
    BUILDS.fetch_add(1, Ordering::Relaxed);
    *weak = Arc::downgrade(&program);
    program
}

/// Programs alive now: those some caller still holds.
pub fn live_programs() -> usize {
    let slots: Vec<Slot> = lock(slots()).values().cloned().collect();
    slots.iter().filter(|s| lock(s).strong_count() > 0).count()
}

/// Programs [`shared_program`] has built since the process started.
pub fn programs_built() -> u64 {
    BUILDS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_profile_shares_one_program() {
        let p = Profile::by_name("xapian").unwrap();
        let a = shared_program(&p);
        let b = shared_program(&p);
        assert!(Arc::ptr_eq(&a, &b), "a held program must be shared");
    }

    #[test]
    fn the_store_keeps_no_program_alive() {
        let p = Profile::by_name("web-search").unwrap();
        let weak = Arc::downgrade(&shared_program(&p));
        assert!(weak.upgrade().is_none(), "dropped program still alive");
    }

    #[test]
    fn shared_program_matches_a_fresh_build() {
        let p = Profile::by_name("xapian").unwrap();
        let shared = shared_program(&p);
        let fresh = p.build();
        assert_eq!(*shared, fresh, "stored program diverged from build()");
    }

    #[test]
    fn distinct_profiles_get_distinct_programs() {
        let a = Profile::by_name("xapian").unwrap();
        let mut b = a.clone();
        b.shape.code_kb += 1;
        assert_ne!(profile_key(&a), profile_key(&b));
        assert!(!Arc::ptr_eq(&shared_program(&a), &shared_program(&b)));
    }

    #[test]
    fn concurrent_fetches_converge_on_one_program() {
        let p = Profile::by_name("tpcc").unwrap();
        let programs: Vec<Arc<Program>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let p = p.clone();
                    s.spawn(move || shared_program(&p))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for prog in &programs[1..] {
            assert!(Arc::ptr_eq(&programs[0], prog));
        }
    }
}
