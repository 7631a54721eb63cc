//! An independent reference for the paper's Algorithm 1 (§4.2), and a
//! tripwire that keeps every replacement policy statically dispatched.
//!
//! The references are written straight from the paper, sharing no code
//! with `EmissaryPolicy`, one per recency base:
//!
//! * true LRU: each set keeps one global recency list (LRU first), and the
//!   victim is the first valid way in that list whose priority class
//!   Algorithm 1 picks;
//! * tree PLRU: each set keeps "separate PLRU's for low- and high-priority
//!   lines", an access updates only the tree of the line's class, and the
//!   victim walk follows the picked class's tree, "skipping any lines that
//!   do not match the priority criteria".
//!
//! Over either base, the policy and its reference must agree on every
//! victim of any fill, hit, priority-change, reset and invalidate stream.

use std::path::{Path, PathBuf};

use proptest::prelude::*;

use emissary_cache::line::{LineKind, LineState};
use emissary_cache::policy::{AccessInfo, EmissaryPolicy, RecencyBase, ReplacementPolicy};

const SETS: usize = 2;
const WAYS: usize = 8;

/// Algorithm 1's victim rule: "if number of high-priority (P = 1) lines
/// <= N then evict the LRU among the low-priority (P = 0) lines else evict
/// the LRU among high-priority lines", falling back to the other class
/// when the chosen one is empty. `lru_of(high)` finds a class's LRU line.
fn algorithm1(
    n_protect: usize,
    lines: &[LineState],
    lru_of: impl Fn(bool) -> Option<usize>,
) -> usize {
    let high_lines = lines.iter().filter(|l| l.valid && l.priority).count();
    let evict_high = high_lines > n_protect;
    lru_of(evict_high)
        .or_else(|| lru_of(!evict_high))
        .expect("a full set has a valid line")
}

/// A reference model of `P(N)` over one recency base.
trait Model {
    /// Records an access to `way`, a line of class `high`.
    fn touch(&mut self, set: usize, way: usize, high: bool);
    /// The way Algorithm 1 evicts from the full `set`.
    fn victim(&self, set: usize, lines: &[LineState]) -> usize;
}

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
}

impl Model for Reference {
    /// One global order: the line's class does not matter.
    fn touch(&mut self, set: usize, way: usize, _high: bool) {
        let order = &mut self.order[set];
        order.retain(|&w| w != way);
        order.push(way);
    }

    fn victim(&self, set: usize, lines: &[LineState]) -> usize {
        algorithm1(self.n_protect, lines, |high| {
            self.order[set]
                .iter()
                .copied()
                .find(|&w| lines[w].valid && lines[w].priority == high)
        })
    }
}

/// Algorithm 1 over two explicit binary trees per set, one per class.
struct TreeReference {
    n_protect: usize,
    /// Per set, the `[low, high]` trees: `WAYS - 1` nodes each, node `k`'s
    /// children at `2k + 1` (left, lower ways) and `2k + 2` (right); a node
    /// holds `true` when its colder side is the right one.
    trees: Vec<[Vec<bool>; 2]>,
}

impl TreeReference {
    fn new(n_protect: usize) -> Self {
        Self {
            n_protect,
            trees: vec![[vec![false; WAYS - 1], vec![false; WAYS - 1]]; SETS],
        }
    }

    /// The walk from the root of class `high`'s tree toward its colder
    /// side, passing over any subtree without a valid line of that class.
    fn walk(&self, set: usize, lines: &[LineState], high: bool) -> Option<usize> {
        let matches = |w: usize| lines[w].valid && lines[w].priority == high;
        if !(0..WAYS).any(matches) {
            return None;
        }
        let tree = &self.trees[set][usize::from(high)];
        let (mut node, mut lo, mut width) = (0, 0, WAYS);
        while width > 1 {
            let half = width / 2;
            let left = (lo..lo + half).any(matches);
            let right = (lo + half..lo + width).any(matches);
            let go_right = right && (tree[node] || !left);
            if go_right {
                lo += half;
            }
            node = 2 * node + 1 + usize::from(go_right);
            width = half;
        }
        Some(lo)
    }
}

impl Model for TreeReference {
    /// "When a high-priority line is accessed, only the high-priority tree
    /// is updated. Likewise for a low-priority line and tree." Every node
    /// on the way's path turns its colder side away from it.
    fn touch(&mut self, set: usize, way: usize, high: bool) {
        let tree = &mut self.trees[set][usize::from(high)];
        let (mut node, mut lo, mut width) = (0, 0, WAYS);
        while width > 1 {
            let half = width / 2;
            let right = way >= lo + half;
            tree[node] = !right;
            if right {
                lo += half;
            }
            node = 2 * node + 1 + usize::from(right);
            width = half;
        }
    }

    fn victim(&self, set: usize, lines: &[LineState]) -> usize {
        algorithm1(self.n_protect, lines, |high| self.walk(set, lines, high))
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

/// Runs `ops` through `EmissaryPolicy` over `base` and through `model`,
/// failing at the first victim on which they differ.
fn check_victims(
    base: RecencyBase,
    n_protect: usize,
    mut model: impl Model,
    ops: &[Op],
) -> Result<(), TestCaseError> {
    let mut policy = EmissaryPolicy::new(n_protect, base, SETS, WAYS, "P(ref)");
    let mut lines = vec![LineState::invalid(); SETS * WAYS];
    let info = AccessInfo::demand(LineKind::Instruction);
    let (mut got, mut want) = (Vec::new(), Vec::new());
    for op in ops {
        match *op {
            Op::Fill { set, tag, high } => {
                let set_lines = &lines[set * WAYS..(set + 1) * WAYS];
                let way = match set_lines.iter().position(|l| !l.valid) {
                    Some(free) => free,
                    None => {
                        let victim = policy.victim(set, set_lines, &info);
                        got.push(victim);
                        want.push(model.victim(set, set_lines));
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
                model.touch(set, way, high);
            }
            Op::Hit { set, way } => {
                let line = lines[set * WAYS + way];
                if line.valid {
                    policy.on_hit(set, way, &lines[set * WAYS..(set + 1) * WAYS], &info);
                    model.touch(set, way, line.priority);
                }
            }
            Op::Priority { set, way, high } => {
                let line = &mut lines[set * WAYS + way];
                if line.valid && line.priority != high {
                    line.priority = high;
                    policy.on_priority_change(set, way, &lines[set * WAYS..(set + 1) * WAYS]);
                    model.touch(set, way, high);
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
    Ok(())
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
        check_victims(RecencyBase::TrueLru, n_protect, Reference::new(n_protect), &ops)?;
    }

    /// `EmissaryPolicy` over tree PLRU makes the tree reference's victim
    /// choice on every eviction, over the same streams.
    #[test]
    fn tree_plru_victims_match_the_reference(
        n_protect in 0usize..WAYS,
        ops in proptest::collection::vec(op_strategy(), 1..600),
    ) {
        check_victims(RecencyBase::TreePlru, n_protect, TreeReference::new(n_protect), &ops)?;
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
        r.touch(0, w, w < 3);
    }
    // 3 high <= N = 3: the LRU low-priority line, way 3.
    assert_eq!(r.victim(0, &lines[..WAYS]), 3);
    r.touch(0, 3, false);
    assert_eq!(r.victim(0, &lines[..WAYS]), 4);
    // 3 high > N = 2: the LRU high-priority line, way 0.
    assert_eq!(Reference::new(2).victim(0, &lines[..WAYS]), 0);
}

/// The tree reference walks its class's tree on a hand-worked set.
#[test]
fn tree_reference_walks_the_class_tree() {
    let mut lines = vec![LineState::invalid(); WAYS];
    for line in &mut lines {
        line.valid = true;
    }
    let mut r = TreeReference::new(2);
    // Touching 4, 6 then 0 points every node on way 5's path at it.
    for w in [4, 6, 0] {
        r.touch(0, w, false);
    }
    assert_eq!(r.victim(0, &lines), 5);
    // With way 5 high, the low walk passes over it to its sibling.
    lines[5].priority = true;
    assert_eq!(r.victim(0, &lines), 4);
    // High-class touches leave the low tree alone.
    r.touch(0, 4, true);
    assert_eq!(r.victim(0, &lines), 4);
    // Three high lines > N = 2: the high tree, untouched but for way 4,
    // walks left of it to the high line in the lower half, way 1.
    lines[1].priority = true;
    lines[7].priority = true;
    assert_eq!(r.victim(0, &lines), 1);
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
