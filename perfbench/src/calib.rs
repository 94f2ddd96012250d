//! Host-speed calibration for the timed metrics.
//!
//! The benchmark runs on shared hosts whose speed drifts by tens of
//! percent over minutes as other tenants load the machine, and the
//! drift is common to every core of the guest. A fixed kernel, owned by
//! the benchmark and independent of the simulator, is timed right before
//! the first and right after every timed repetition; each repetition's
//! host seconds are multiplied by `REFERENCE_S` over the mean of the two
//! kernel times around it (`calc::host_factor`). On a host running at the
//! reference speed the factor is 1 and the metric reads plain host
//! seconds; when the whole machine slows down, kernel and repetition slow
//! down together and the factor cancels most of it. A change to the
//! simulator does not touch the kernel, so it shows in full.
//!
//! The kernel has three parts. Four independent xorshift streams are
//! bound by the core's execution ports. A bytecode interpreter, a
//! dispatch on every op and many data-dependent branches, loads the front
//! end and the branch predictors the way the simulator's event loops do.
//! Ordered lookups in a B-tree larger than a core's L1 chase pointers
//! through the cache hierarchy the way the simulator's maps and queues
//! do. On the shared reference host this mix tracked the slow periods of
//! both single-cell workloads more closely than any one part, or than
//! pointer chases and hash-map lookups.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's time on the reference host (a KVM guest with 2 vCPUs of
/// an Intel Xeon at 2.1 GHz), in seconds.
pub const REFERENCE_S: f64 = 0.100;

/// Iterations of the integer loop per kernel run.
const INT_ITERS: u32 = 10_000_000;
/// Ops in the interpreter's program.
const PROGRAM_LEN: usize = 4096;
/// Times a kernel run executes the program.
const PROGRAM_PASSES: u32 = 400;
/// Entries in the B-tree (about 2 MiB).
const TREE_ENTRIES: u64 = 100_000;
/// B-tree lookups per kernel run.
const TREE_LOOKUPS: u32 = 300_000;

/// The calibration kernel and its state: the interpreter's fixed program,
/// and the B-tree with the generator of lookup keys. The tree lives as
/// long as the calibrator, so every run does the same work on warm
/// memory.
pub struct Calibrator {
    program: Vec<u8>,
    tree: BTreeMap<u64, u64>,
    x: u64,
}

impl Calibrator {
    /// Generates the program and runs the kernel once, untimed.
    pub fn new() -> Calibrator {
        let mut x = 7u64;
        let program = (0..PROGRAM_LEN)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % 32) as u8
            })
            .collect();
        let tree = (0..TREE_ENTRIES)
            .map(|k| (k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 8, k))
            .collect();
        let mut cal = Calibrator { program, tree, x: 1 };
        cal.measure();
        cal
    }

    /// Runs the kernel once; returns its host seconds.
    pub fn measure(&mut self) -> f64 {
        let t = Instant::now();
        let (mut p, mut q, mut r, mut s) = (1u64, 2u64, 3u64, 4u64);
        for _ in 0..INT_ITERS {
            p ^= p << 13;
            p ^= p >> 7;
            q ^= q << 13;
            q ^= q >> 7;
            r = r.wrapping_add(q) ^ p;
            s = s.rotate_left(5).wrapping_add(r);
        }
        black_box((p, q, r, s));
        black_box(interpret(black_box(&self.program), PROGRAM_PASSES));
        let mut acc = 0u64;
        for _ in 0..TREE_LOOKUPS {
            self.x ^= self.x << 13;
            self.x ^= self.x >> 7;
            self.x ^= self.x << 17;
            if let Some((_, v)) = self.tree.range(self.x >> 8..).next() {
                acc = acc.wrapping_add(*v);
            }
        }
        black_box(acc);
        t.elapsed().as_secs_f64()
    }
}

/// Runs `program` `passes` times over eight registers. Each op picks its
/// registers from its own bits; what it does is arbitrary but fixed.
fn interpret(program: &[u8], passes: u32) -> [u64; 8] {
    let mut r = [1u64; 8];
    for _ in 0..passes {
        for &op in program {
            let a = usize::from(op & 7);
            let b = usize::from((op >> 1) & 7);
            match op {
                0 => r[a] = r[a].wrapping_add(r[b]),
                1 => r[a] ^= r[b] << 3,
                2 => r[a] = r[a].rotate_left(7),
                3 => {
                    if r[a] & 1 == 0 {
                        r[b] = r[b].wrapping_add(1)
                    } else {
                        r[a] = r[a].wrapping_sub(1)
                    }
                }
                4 => r[a] = r[a].wrapping_mul(r[b] | 1),
                5 => r[b] ^= r[a] >> 5,
                6 => {
                    if r[a] > r[b] {
                        r[a] = r[b]
                    }
                }
                7 => r[a] = !r[a],
                8 => r[a] = r[a].wrapping_sub(3),
                9 => r[b] = r[b].wrapping_add(r[a] & 0xff),
                10 => {
                    if r[a] % 3 == 0 {
                        r[a] >>= 1
                    }
                }
                11 => r[a] |= 1 << (r[b] & 31),
                12 => r[a] = u64::from(r[a].count_ones()).wrapping_add(r[b]),
                13 => r[b] = r[b].swap_bytes(),
                14 => {
                    if r[b] & 4 != 0 {
                        r[a] ^= 0x55
                    } else {
                        r[a] ^= 0xaa
                    }
                }
                15 => r[a] = r[a].wrapping_add(15),
                16 => r[a] = u64::from(r[a].leading_zeros()) ^ r[b],
                17 => r[b] = r[b].wrapping_mul(3),
                18 => {
                    if r[a] < 100 {
                        r[a] += r[b] & 7
                    }
                }
                19 => r[a] = r[a].wrapping_shl((r[b] & 7) as u32),
                20 => r[b] ^= r[a],
                21 => r[a] = r[a].reverse_bits(),
                22 => {
                    if (r[a] ^ r[b]) & 2 == 0 {
                        r[a] = r[a].wrapping_add(2)
                    }
                }
                23 => r[a] /= (r[b] & 15) + 1,
                24 => r[b] = r[b].rotate_right(3),
                25 => r[a] = u64::from(r[a].trailing_zeros()) + 1,
                26 => {
                    if r[b] > 1000 {
                        r[b] -= 1000
                    }
                }
                27 => r[a] %= 1_000_003,
                28 => r[a] = r[a].wrapping_add(r[a] >> 9),
                29 => r[b] ^= 0xdead,
                30 => {
                    if r[a] & 0x10 == 0 {
                        r[b] = r[b].wrapping_add(r[a])
                    }
                }
                _ => r[a] = r[a].wrapping_add(1),
            }
        }
    }
    r
}
