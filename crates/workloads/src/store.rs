//! Process-wide shared program store.
//!
//! Building a benchmark's synthetic CFG ([`crate::builder::build_program`])
//! allocates a multi-megabyte [`Program`], and a reproduction campaign
//! runs thousands of simulations over the *same thirteen* programs. The
//! store builds each program at most once per process and hands out
//! `Arc<Program>` clones, so concurrent simulation jobs share one
//! immutable CFG instead of each rebuilding it.
//!
//! Programs are keyed by a stable hash of the full [`Profile`] (shape and
//! seed), so two profiles that differ in any generation knob never share
//! a program. Construction is memoized per key through a per-profile
//! `OnceLock`: the first caller builds while later callers for the same
//! key wait on that build, and callers for *different* keys build
//! concurrently, because the map's one lock is held only to find the
//! cell, never across a build.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

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

type Cell = Arc<OnceLock<Arc<Program>>>;

/// The program map: profile key → its build cell.
fn cells() -> &'static Mutex<HashMap<u64, Cell>> {
    static CELLS: OnceLock<Mutex<HashMap<u64, Cell>>> = OnceLock::new();
    CELLS.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Returns the shared program for `profile`, building it on first use.
/// Identical in content to [`Profile::build`].
pub fn shared_program(profile: &Profile) -> Arc<Program> {
    let key = profile_key(profile);
    let cell: Cell = {
        let mut map = cells().lock().expect("program store poisoned");
        map.entry(key).or_default().clone()
    };
    // Build outside the map lock: a slow build for one benchmark must
    // not block lookups (or builds) for any other, and two builds of the
    // same profile still coalesce on the cell's `OnceLock`.
    cell.get_or_init(|| Arc::new(build_program(&profile.shape)))
        .clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_profile_shares_one_program() {
        let p = Profile::by_name("xapian").unwrap();
        let a = shared_program(&p);
        let b = shared_program(&p);
        assert!(Arc::ptr_eq(&a, &b), "second fetch must hit the cache");
    }

    #[test]
    fn shared_program_matches_a_fresh_build() {
        let p = Profile::by_name("xapian").unwrap();
        let shared = shared_program(&p);
        let fresh = p.build();
        assert_eq!(*shared, fresh, "cached program diverged from build()");
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
