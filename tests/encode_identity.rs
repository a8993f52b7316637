//! Byte identity of the BPTR v3 encoder.
//!
//! The encoder is a hot path with more than one way in: per-record
//! [`TraceWriter::push`], the block-at-a-time [`TraceWriter::push_slice`],
//! and [`Trace::write_to`]. All three must emit exactly the bytes of the
//! per-record, `HashMap`-keyed encoder the constants below were recorded
//! from: same dictionary order and indices, same bitstreams, same
//! per-block FNV-1a trailers. A faster encoder that changes a single byte
//! fails here, before any cached trace on disk goes stale.

use branch_lab::trace::{
    BranchInfo, BranchKind, InstClass, Reg, RetiredInst, Trace, TraceMeta, TraceWriter,
    BLOCK_RECORDS,
};
use branch_lab::workloads::{lcf_suite, specint_suite};

/// Records per suite trace: two full blocks and a partial third.
const SUITE_LEN: usize = 150_000;

/// FNV-1a 64 digest and byte length of `write_to` output for every suite
/// workload at input 0 and [`SUITE_LEN`] records, in suite order.
const SUITE_PINS: [(&str, u64, usize); 15] = [
    ("600.perlbench_s", 0x38e6_9c30_bc15_aaca, 740_013),
    ("605.mcf_s", 0x8acf_3ebf_1f9d_9405, 768_448),
    ("620.omnetpp_s", 0xa635_ac07_6f2d_aff2, 765_503),
    ("623.xalancbmk_s", 0xed60_03aa_acf2_53b7, 743_184),
    ("625.x264_s", 0xa582_d97c_f288_a92e, 819_936),
    ("631.deepsjeng_s", 0x8a6d_c400_2653_fb8d, 784_204),
    ("641.leela_s", 0x3f2a_3a50_32d3_250c, 779_764),
    ("648.exchange2_s", 0x2210_dcc7_8c09_0f5a, 743_044),
    ("657.xz_s", 0xbf3d_5a73_5837_1c71, 801_829),
    ("602.gcc_s", 0x24d9_b9e6_0a40_0b3b, 1_256_666),
    ("game", 0x8cce_246c_98e4_f72f, 1_525_778),
    ("rdbms", 0x8fc6_3c58_d26d_8996, 1_234_277),
    ("nosql", 0x3509_be61_334a_39bb, 1_162_491),
    ("rt-analytics", 0x76e3_5a58_3f7b_c3c3, 1_225_347),
    ("streaming", 0x0f30_c74d_9df1_4806, 1_157_873),
];

/// FNV-1a 64 over the `write_to` output of every seeded property case, in
/// case order.
const CASES_PIN: u64 = 0x6bee_f782_52c1_6a2e;

/// Seeded property cases.
const CASES: u64 = 12;

fn fnv1a64(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn digest(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    fnv1a64(&mut h, bytes);
    h
}

fn write_to(trace: &Trace) -> Vec<u8> {
    let mut out = Vec::new();
    trace.write_to(&mut out).expect("write_to");
    out
}

#[test]
fn suite_traces_encode_to_pinned_bytes() {
    let suite: Vec<_> = specint_suite().into_iter().chain(lcf_suite()).collect();
    let mut mismatches = Vec::new();
    assert_eq!(suite.len(), SUITE_PINS.len());
    for (spec, &pin) in suite.iter().zip(&SUITE_PINS) {
        let bytes = write_to(&spec.trace(0, SUITE_LEN));
        let got = (spec.name.as_str(), digest(&bytes), bytes.len());
        if got != pin {
            mismatches.push(format!("(\"{}\", {:#018x}, {}),", got.0, got.1, got.2));
        }
    }
    assert!(
        mismatches.is_empty(),
        "encoder output changed:\n{}",
        mismatches.join("\n")
    );
}

/// Deterministic case generator (SplitMix64).
struct Gen(u64);

impl Gen {
    fn u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.u64() % n
    }

    fn reg(&mut self) -> Option<Reg> {
        (self.below(4) != 0).then(|| Reg::new(self.below(32) as u8))
    }

    /// Zero half the time, else a small value or an extreme one.
    fn value(&mut self) -> u64 {
        match self.below(6) {
            0..=2 => 0,
            3 => 1 + self.below(300),
            4 => u64::MAX - self.below(3),
            _ => self.u64() | 1,
        }
    }
}

/// The field corners of the codec's `hostile_field_values_roundtrip_exactly`:
/// maximal deltas, a branch-classed non-branch, and a branch on a
/// non-branch class.
fn hostile_records() -> [RetiredInst; 3] {
    [
        RetiredInst {
            ip: u64::MAX,
            dst_value: u64::MAX,
            mem_addr: u64::MAX,
            class: InstClass::Store,
            src1: Some(Reg::new(31)),
            src2: None,
            dst: None,
            branch: None,
        },
        RetiredInst {
            ip: 0,
            dst_value: 1,
            mem_addr: 1,
            class: InstClass::Branch,
            src1: None,
            src2: Some(Reg::new(0)),
            dst: Some(Reg::new(7)),
            branch: None,
        },
        RetiredInst {
            ip: 0x7fff_ffff_ffff_ffff,
            dst_value: 0,
            mem_addr: 0,
            class: InstClass::Nop,
            src1: None,
            src2: None,
            dst: None,
            branch: Some(BranchInfo {
                kind: BranchKind::Return,
                taken: true,
                target: 0,
            }),
        },
    ]
}

/// A random record at `ip`. Its static descriptor (class, registers,
/// branch kind and target) is a function of `ip`, as in a real program,
/// so a loop over a few ips revisits a few dictionary entries; its
/// dynamic payload (direction, zero and extreme values) comes from `g`.
fn record(g: &mut Gen, ip: u64) -> RetiredInst {
    const CLASSES: [InstClass; 6] = [
        InstClass::Alu,
        InstClass::Mul,
        InstClass::Load,
        InstClass::Store,
        InstClass::Branch,
        InstClass::Nop,
    ];
    const KINDS: [BranchKind; 5] = [
        BranchKind::Conditional,
        BranchKind::DirectJump,
        BranchKind::IndirectJump,
        BranchKind::Call,
        BranchKind::Return,
    ];
    let mut s = Gen(ip);
    let class = CLASSES[s.below(6) as usize];
    let branch = (class == InstClass::Branch).then(|| {
        let kind = KINDS[s.below(5) as usize];
        let target = if s.below(2) == 0 {
            ip.wrapping_add(4 * s.below(64))
        } else {
            s.u64()
        };
        BranchInfo {
            kind,
            taken: kind != BranchKind::Conditional || g.below(2) == 0,
            target,
        }
    });
    RetiredInst {
        ip,
        dst_value: g.value(),
        mem_addr: if class.is_memory() { g.value() } else { 0 },
        class,
        src1: s.reg(),
        src2: s.reg(),
        dst: s.reg(),
        branch,
    }
}

/// Case `seed`'s trace. Shapes rotate through dictionary-heavy blocks
/// (a fresh ip almost every record), loops over a small static footprint
/// (mostly predicted indices, with the wrap at the dictionary's end),
/// one-record traces and one-record final blocks, and streams salted with
/// the hostile records; lengths land on and around block boundaries.
fn case(seed: u64) -> Trace {
    let mut g = Gen(seed);
    let len = match seed % 4 {
        0 => 1,
        1 => BLOCK_RECORDS + 1,
        2 => BLOCK_RECORDS,
        _ => 1 + g.below(2 * BLOCK_RECORDS as u64 + 100) as usize,
    };
    let shape = (seed / 4) % 3;
    let footprint = 1 + g.below(200);
    let hostile = hostile_records();
    let mut t = Trace::new(TraceMeta::new(format!("case-{seed}"), seed as u32));
    for i in 0..len as u64 {
        let inst = match shape {
            // Dictionary-heavy: n_dict close to n_records.
            0 => {
                let ip = if g.below(50) == 0 { 0x40 } else { g.u64() };
                record(&mut g, ip)
            }
            // Loop with occasional jumps to another static instruction.
            1 => {
                let slot = if g.below(20) == 0 {
                    g.below(footprint)
                } else {
                    i % footprint
                };
                record(&mut g, 0x1000 + 4 * slot)
            }
            // Hostile corners salted into a loop.
            _ if g.below(8) == 0 => hostile[g.below(3) as usize],
            _ => record(&mut g, 0x2000 + 4 * (i % footprint)),
        };
        t.push(inst);
    }
    t
}

fn push_each(trace: &Trace) -> Vec<u8> {
    let mut w =
        TraceWriter::new(Vec::new(), trace.meta(), Some(trace.len() as u64)).expect("header");
    for &inst in trace {
        w.push(inst).expect("push");
    }
    w.finish().expect("finish")
}

/// Streams `trace` through `push_slice` in seeded chunks: empty, tiny,
/// and up to three blocks long, so full blocks go straight from the
/// slice, alone and in pairs, and through a partly filled block buffer.
fn push_chunks(trace: &Trace, seed: u64) -> Vec<u8> {
    let mut g = Gen(seed ^ 0xc0ff_ee00);
    let mut w = TraceWriter::new(Vec::new(), trace.meta(), None).expect("header");
    let mut rest = trace.insts();
    while !rest.is_empty() {
        let n = match g.below(4) {
            0 => 0,
            1 => g.below(10) as usize,
            2 => g.below(BLOCK_RECORDS as u64) as usize,
            _ => BLOCK_RECORDS + g.below(2 * BLOCK_RECORDS as u64) as usize,
        }
        .min(rest.len());
        let (head, tail) = rest.split_at(n);
        w.push_slice(head).expect("push_slice");
        rest = tail;
    }
    let mut bytes = w.finish().expect("finish");
    // An unknown-count stream differs from `write_to` only in the header's
    // count field; patch it so the whole file compares.
    let count_off = 4 + 2 + 2 + trace.meta().name.len() + 4;
    bytes[count_off..count_off + 8].copy_from_slice(&(trace.len() as u64).to_le_bytes());
    bytes
}

#[test]
fn push_push_slice_and_write_to_emit_identical_bytes() {
    let mut all = 0xcbf2_9ce4_8422_2325;
    for seed in 0..CASES {
        let trace = case(seed);
        let reference = write_to(&trace);
        assert_eq!(
            push_each(&trace),
            reference,
            "case {seed}: push differs from write_to"
        );
        assert_eq!(
            push_chunks(&trace, seed),
            reference,
            "case {seed}: push_slice differs"
        );
        let back = Trace::read_from(reference.as_slice()).expect("decode");
        assert_eq!(back.insts(), trace.insts(), "case {seed}: round trip");
        fnv1a64(&mut all, &reference);
    }
    assert_eq!(
        all, CASES_PIN,
        "encoder output changed on the property cases: {all:#018x}"
    );
}
