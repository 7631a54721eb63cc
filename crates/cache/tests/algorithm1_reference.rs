//! An independent reference for the paper's Algorithm 1 (§4.2), and a
//! tripwire that keeps every replacement policy statically dispatched.
//!
//! The reference is written straight from the pseudocode, sharing no code
//! with `EmissaryPolicy`: each set keeps one global recency list (LRU
//! first), and the victim is the first valid way in that list whose
//! priority class Algorithm 1 picks. Over true LRU the two must agree on
//! every victim of any fill, hit, priority-change, reset and invalidate
//! stream.

use std::path::{Path, PathBuf};

use proptest::prelude::*;

use emissary_cache::line::{LineKind, LineState};
use emissary_cache::policy::{AccessInfo, EmissaryPolicy, RecencyBase, ReplacementPolicy};

const SETS: usize = 2;
const WAYS: usize = 8;

/// Algorithm 1 over explicit per-set recency lists.
struct Reference {
    n_protect: usize,
    /// Per set: every way, least recently touched first.
    order: Vec<Vec<usize>>,
}

impl Reference {
    fn new(n_protect: usize) -> Self {
        Self {
            n_protect,
            order: vec![(0..WAYS).collect(); SETS],
        }
    }

    fn touch(&mut self, set: usize, way: usize) {
        let order = &mut self.order[set];
        order.retain(|&w| w != way);
        order.push(way);
    }

    /// "if number of high-priority (P = 1) lines <= N then evict the LRU
    /// among the low-priority (P = 0) lines else evict the LRU among
    /// high-priority lines", falling back to the other class when the
    /// chosen one is empty.
    fn victim(&self, set: usize, lines: &[LineState]) -> usize {
        let high_lines = lines.iter().filter(|l| l.valid && l.priority).count();
        let evict_high = high_lines > self.n_protect;
        let lru_of = |high: bool| {
            self.order[set]
                .iter()
                .copied()
                .find(|&w| lines[w].valid && lines[w].priority == high)
        };
        lru_of(evict_high)
            .or_else(|| lru_of(!evict_high))
            .expect("a full set has a valid line")
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// Access a new line in `set`: fill a free way, or evict one.
    Fill { set: usize, tag: u64, high: bool },
    /// Hit the line in `way`, if valid.
    Hit { set: usize, way: usize },
    /// Set or clear the line's P bit, telling the policy (the L1I
    /// communicating `P` on eviction, or the cache's own reset loop).
    Priority { set: usize, way: usize, high: bool },
    /// §6 reset: clear every P bit without telling the policy, so its
    /// classes must come from the line states, not from its own memory.
    Reset,
    /// Back-invalidate the line in `way`.
    Invalidate { set: usize, way: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (0..SETS, 0u64..1 << 20, any::<bool>())
            .prop_map(|(set, tag, high)| Op::Fill { set, tag, high }),
        4 => (0..SETS, 0..WAYS).prop_map(|(set, way)| Op::Hit { set, way }),
        3 => (0..SETS, 0..WAYS, any::<bool>())
            .prop_map(|(set, way, high)| Op::Priority { set, way, high }),
        1 => Just(Op::Reset),
        1 => (0..SETS, 0..WAYS).prop_map(|(set, way)| Op::Invalidate { set, way }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `EmissaryPolicy` over true LRU makes the reference's victim choice
    /// on every eviction, for every `N` the associativity allows.
    #[test]
    fn true_lru_victims_match_the_reference(
        n_protect in 0usize..WAYS,
        ops in proptest::collection::vec(op_strategy(), 1..600),
    ) {
        let mut policy = EmissaryPolicy::new(n_protect, RecencyBase::TrueLru, SETS, WAYS, "P(ref)");
        let mut reference = Reference::new(n_protect);
        let mut lines = vec![LineState::invalid(); SETS * WAYS];
        let info = AccessInfo::demand(LineKind::Instruction);
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for op in &ops {
            match *op {
                Op::Fill { set, tag, high } => {
                    let set_lines = &lines[set * WAYS..(set + 1) * WAYS];
                    let way = match set_lines.iter().position(|l| !l.valid) {
                        Some(free) => free,
                        None => {
                            let victim = policy.victim(set, set_lines, &info);
                            got.push(victim);
                            want.push(reference.victim(set, set_lines));
                            prop_assert_eq!(&got, &want, "victim diverged after {:?}", op);
                            victim
                        }
                    };
                    lines[set * WAYS + way] = LineState {
                        tag,
                        valid: true,
                        kind: LineKind::Instruction,
                        priority: high,
                        ..LineState::invalid()
                    };
                    policy.on_fill(set, way, &lines[set * WAYS..(set + 1) * WAYS], &info);
                    reference.touch(set, way);
                }
                Op::Hit { set, way } => {
                    if lines[set * WAYS + way].valid {
                        policy.on_hit(set, way, &lines[set * WAYS..(set + 1) * WAYS], &info);
                        reference.touch(set, way);
                    }
                }
                Op::Priority { set, way, high } => {
                    let line = &mut lines[set * WAYS + way];
                    if line.valid && line.priority != high {
                        line.priority = high;
                        policy.on_priority_change(set, way, &lines[set * WAYS..(set + 1) * WAYS]);
                        reference.touch(set, way);
                    }
                }
                Op::Reset => lines.iter_mut().for_each(|l| l.priority = false),
                Op::Invalidate { set, way } => {
                    if lines[set * WAYS + way].valid {
                        lines[set * WAYS + way].valid = false;
                        policy.on_invalidate(set, way);
                    }
                }
            }
        }
    }
}

/// The reference itself follows the pseudocode on a hand-worked set.
#[test]
fn reference_follows_the_pseudocode() {
    let mut lines = vec![LineState::invalid(); SETS * WAYS];
    for (w, line) in lines.iter_mut().take(WAYS).enumerate() {
        line.valid = true;
        line.priority = w < 3; // ways 0..3 high, touched first
    }
    let mut r = Reference::new(3);
    for w in 0..WAYS {
        r.touch(0, w);
    }
    // 3 high <= N = 3: the LRU low-priority line, way 3.
    assert_eq!(r.victim(0, &lines[..WAYS]), 3);
    r.touch(0, 3);
    assert_eq!(r.victim(0, &lines[..WAYS]), 4);
    // 3 high > N = 2: the LRU high-priority line, way 0.
    assert_eq!(Reference::new(2).victim(0, &lines[..WAYS]), 0);
}

fn crate_sources() -> Vec<PathBuf> {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("crates/cache sits under crates/")
        .to_path_buf();
    let mut files = Vec::new();
    let mut stack = vec![crates];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).into_iter().flatten().flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    assert!(files.len() > 10, "source scan found almost nothing");
    files
}

/// Every policy is a [`emissary_cache::policy::PolicyImpl`] variant: the
/// trait is implemented only beside that enum, and nothing under
/// `crates/*/src` reaches a policy through a trait object.
#[test]
fn policies_are_statically_dispatched() {
    let policy_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/policy");
    // Split so this file does not match its own needles.
    let dyn_needle = concat!("dyn ", "ReplacementPolicy");
    let impl_needle = concat!("ReplacementPolicy", " for ");
    let mut offenders = Vec::new();
    for path in crate_sources() {
        let src = std::fs::read_to_string(&path).expect("readable source");
        let in_src = path.components().any(|c| c.as_os_str() == "src");
        if in_src && src.contains(dyn_needle) {
            offenders.push(format!("{}: {dyn_needle}", path.display()));
        }
        let implements = src.lines().any(|l| {
            l.split(impl_needle)
                .next()
                .is_some_and(|head| head.len() < l.len() && head.contains("impl"))
        });
        if implements && !path.starts_with(&policy_dir) {
            offenders.push(format!("{}: impl {impl_needle}", path.display()));
        }
    }
    assert!(
        offenders.is_empty(),
        "add a PolicyImpl variant instead: {offenders:?}"
    );
}
