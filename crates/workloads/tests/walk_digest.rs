//! Pins the committed-path stream and the start-address index of three
//! profiles to FNV-1a digests, so a change to the program layout or the
//! walker that alters a single emitted field fails here, before the
//! whole-simulator golden reports do.
//!
//! Run it in release for speed:
//! `cargo test --release -p emissary-workloads --test walk_digest`.

use emissary_workloads::program::{CODE_BASE, INSTR_BYTES};
use emissary_workloads::walker::{DynOp, Walker};
use emissary_workloads::Profile;

/// Blocks walked per profile.
const BLOCKS: usize = 200_000;

/// `(profile, digest of the walk, digest of block_at)`.
const PINNED: [(&str, u64, u64); 3] = [
    ("tomcat", 0x0068_1d32_ff3d_fb38, 0xd500_8f51_7abe_1ad3),
    ("kafka", 0x7bdc_d168_2a6c_0ae8, 0x3e68_0fc6_c4f2_066f),
    ("xapian", 0x5d92_c09a_d82b_845a, 0xcb32_6668_9446_2493),
];

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Every field of every `DynBlock` and `DynInstr` of the first [`BLOCKS`]
/// blocks the walker emits.
fn walk_digest(profile: &Profile) -> u64 {
    let program = profile.build();
    let mut walker = Walker::new(&program, profile.seed);
    let mut buf = Vec::new();
    let mut h = Fnv::new();
    for _ in 0..BLOCKS {
        buf.clear();
        let b = walker.emit_block(&mut buf);
        h.u64(u64::from(b.id));
        h.u64(b.start);
        h.u64(u64::from(b.num_instrs));
        h.u64(b.class as u64);
        h.u64(u64::from(b.taken));
        h.u64(b.taken_target);
        h.u64(b.next_start);
        for i in &buf {
            h.u64(i.pc);
            match i.op {
                DynOp::Alu => h.u64(0),
                DynOp::Load(a) => {
                    h.u64(1);
                    h.u64(a);
                }
                DynOp::Store(a) => {
                    h.u64(2);
                    h.u64(a);
                }
            }
            h.u64(u64::from(i.dep1));
            h.u64(u64::from(i.dep2));
            h.u64(u64::from(i.is_terminator));
        }
    }
    h.0
}

/// `block_at` over every block start, the slot after it, a misaligned
/// address inside it, and addresses around and past the code region.
fn index_digest(profile: &Profile) -> u64 {
    let program = profile.build();
    let mut h = Fnv::new();
    let mut probe = |addr: u64| {
        h.u64(addr);
        match program.block_at(addr) {
            Some(b) => {
                h.u64(b.start());
                h.u64(b.end());
            }
            None => h.u64(u64::MAX),
        }
    };
    let mut code_end = CODE_BASE;
    for id in 0..program.blocks.len() as u32 {
        let b = program.block(id);
        assert_eq!(
            program.block_at(b.start()).map(|f| f.start()),
            Some(b.start())
        );
        probe(b.start());
        probe(b.start() + INSTR_BYTES);
        probe(b.start() + 1);
        code_end = code_end.max(b.end());
    }
    for addr in [0, 4, CODE_BASE - INSTR_BYTES, CODE_BASE - 1, code_end] {
        probe(addr);
    }
    for k in 0..64 {
        probe(code_end + k * 60);
        probe(u64::MAX - k);
    }
    h.0
}

#[test]
fn walker_stream_and_start_index_match_pinned_digests() {
    let got: Vec<(&str, u64, u64)> = PINNED
        .iter()
        .map(|&(name, _, _)| {
            let profile = Profile::by_name(name).unwrap();
            let (walk, index) = (walk_digest(&profile), index_digest(&profile));
            println!("(\"{name}\", {walk:#018x}, {index:#018x}),");
            (name, walk, index)
        })
        .collect();
    assert_eq!(got, PINNED, "the walk or the start index diverged");
}
