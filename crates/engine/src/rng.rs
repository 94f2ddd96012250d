//! Seeded random-number streams.
//!
//! Every stochastic element of the reproduction — trace generation,
//! disturbance draws, wear sampling — derives its stream from a single
//! experiment seed plus a component label. Labels isolate the streams:
//! adding a new consumer of randomness (say, another injected fault site)
//! does not shift the draws observed by existing components, which keeps
//! experiments comparable across code revisions.
//!
//! The generator is a self-contained Philox4x32-10 (Salmon et al.,
//! SC'11 "Parallel random numbers: as easy as 1, 2, 3") — a
//! counter-based PRF: `draw = philox(key, counter)`. Unlike the
//! sequential xoshiro generator this replaced, a draw is a pure
//! function of `(stream identity, draw index)`, so draws are
//! *order-free*: any thread can compute draw `i` of any stream without
//! having observed draws `0..i`. That is what lets WD sampling and the
//! controller's bank lanes run in any order while staying bit-identical.
//!
//! Two access patterns share one generator:
//!
//! * [`SimRng`] — the historical sequential facade (a stream plus a
//!   cursor). All distribution helpers live here.
//! * [`RngStream`] — an immutable stream identity with random access:
//!   [`RngStream::at`] returns draw `i`, [`RngStream::keyed`] /
//!   [`RngStream::labeled`] derive independent substreams without
//!   consuming draws, in any order, from shared references.
//!
//! Batches ([`SimRng::fill`]) go through one bulk kernel,
//! `RngStream::fill_at`, which on x86-64 CPUs with AVX2 computes
//! [`FILL_PASS`] consecutive counters per vector pass; every draw is the
//! same value on that path and on the scalar one.
//!
//! No external crates, fully deterministic across platforms.

/// Philox4x32 round multipliers and Weyl key increments (Random123).
const PHILOX_M0: u32 = 0xD251_1F53;
const PHILOX_M1: u32 = 0xCD9E_8D57;
const PHILOX_W0: u32 = 0x9E37_79B9;
const PHILOX_W1: u32 = 0xBB67_AE85;

/// One Philox4x32-10 block: encrypt a 128-bit counter under a 64-bit key.
#[inline]
#[must_use]
pub fn philox4x32_10(mut ctr: [u32; 4], mut key: [u32; 2]) -> [u32; 4] {
    for _ in 0..10 {
        let p0 = u64::from(ctr[0]) * u64::from(PHILOX_M0);
        let p1 = u64::from(ctr[2]) * u64::from(PHILOX_M1);
        ctr = [
            ((p1 >> 32) as u32) ^ ctr[1] ^ key[0],
            p1 as u32,
            ((p0 >> 32) as u32) ^ ctr[3] ^ key[1],
            p0 as u32,
        ];
        key[0] = key[0].wrapping_add(PHILOX_W0);
        key[1] = key[1].wrapping_add(PHILOX_W1);
    }
    ctr
}

/// SplitMix64 finalizer — used to spread seeds/sub-keys over the full
/// 64-bit space before they become Philox key/counter material.
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// An immutable random-stream identity with order-free access.
///
/// A stream is `(key, space)`: the 64-bit Philox key plus a 64-bit
/// subspace id that occupies the high half of the 128-bit counter.
/// Draw `i` is `philox(key, [space, i])` — a pure function, so any
/// draw of any stream can be computed at any time, in any order, from
/// a shared reference.
///
/// # Examples
///
/// ```
/// use sdpcm_engine::RngStream;
///
/// let s = RngStream::from_seed_label(42, "disturb");
/// let forward: Vec<u64> = (0..4).map(|i| s.at(i)).collect();
/// let backward: Vec<u64> = (0..4).rev().map(|i| s.at(i)).collect();
/// assert_eq!(forward, backward.into_iter().rev().collect::<Vec<_>>());
///
/// // Substreams derive without consuming draws:
/// let line_a = s.keyed(0xA);
/// let line_b = s.keyed(0xB);
/// assert_ne!(line_a.at(0), line_b.at(0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RngStream {
    key: [u32; 2],
    space: u64,
}

impl RngStream {
    /// Creates a stream from a raw 64-bit seed.
    #[must_use]
    pub fn from_seed(seed: u64) -> RngStream {
        let k = splitmix64(seed);
        RngStream {
            key: [k as u32, (k >> 32) as u32],
            space: splitmix64(k),
        }
    }

    /// Creates a stream from an experiment seed and a component label.
    #[must_use]
    pub fn from_seed_label(seed: u64, label: &str) -> RngStream {
        RngStream::from_seed(fold_label(seed, label))
    }

    /// Derives an independent substream for numeric key `k` (e.g. a line
    /// address or an injection epoch). Chains freely:
    /// `s.keyed(line).keyed(epoch)`. Consumes no draws and needs no
    /// mutable access, so derivation is itself order-free.
    #[must_use]
    #[inline]
    pub fn keyed(&self, k: u64) -> RngStream {
        RngStream {
            key: self.key,
            space: splitmix64(self.space ^ k.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
        }
    }

    /// Derives an independent substream for a string label.
    #[must_use]
    pub fn labeled(&self, label: &str) -> RngStream {
        RngStream {
            key: self.key,
            space: splitmix64(fold_label(self.space, label)),
        }
    }

    /// Draw `i` of this stream — a pure function of `(self, i)`.
    #[must_use]
    #[inline]
    pub fn at(&self, i: u64) -> u64 {
        let ctr = [
            self.space as u32,
            (self.space >> 32) as u32,
            i as u32,
            (i >> 32) as u32,
        ];
        let x = philox4x32_10(ctr, self.key);
        u64::from(x[0]) | (u64::from(x[1]) << 32)
    }

    /// Writes draws `start..start + out.len()` into `out`:
    /// `out[j] == self.at(start.wrapping_add(j))`, the draw index
    /// wrapping at `u64::MAX` like the 64-bit counter half it fills.
    ///
    /// This is the bulk kernel. Every counter of the run is known before
    /// the first block starts, so on x86-64 CPUs with AVX2 whole passes
    /// of [`FILL_PASS`] consecutive draws run side by side in vector
    /// lanes; a tail shorter than a pass, and every draw on other CPUs
    /// and targets, takes the scalar [`philox4x32_10`] loop. Both paths
    /// compute the same Philox blocks, so the values do not depend on
    /// which one ran.
    #[inline]
    pub(crate) fn fill_at(&self, start: u64, out: &mut [u64]) {
        // `is_x86_feature_detected!` queries CPUID once per process and
        // then reads a cached bit.
        #[cfg(target_arch = "x86_64")]
        if out.len() >= FILL_PASS && std::arch::is_x86_feature_detected!("avx2") {
            let whole = out.len() - out.len() % FILL_PASS;
            let (passes, tail) = out.split_at_mut(whole);
            // SAFETY: `philox_avx2::fill` is safe code compiled with AVX2
            // enabled; its one requirement is a CPU that executes AVX2
            // instructions, which the runtime check above established.
            unsafe { philox_avx2::fill(self.key, self.space, start, passes) };
            self.fill_scalar(start.wrapping_add(whole as u64), tail);
            return;
        }
        self.fill_scalar(start, out);
    }

    /// [`RngStream::fill_at`] one block at a time: the portable path and
    /// the test oracle of the vector one.
    fn fill_scalar(&self, start: u64, out: &mut [u64]) {
        for (j, o) in (0u64..).zip(out) {
            *o = self.at(start.wrapping_add(j));
        }
    }

    /// A sequential cursor over this stream, starting at draw 0.
    #[must_use]
    pub fn sequence(&self) -> SimRng {
        SimRng {
            stream: *self,
            ctr: 0,
        }
    }
}

/// A deterministic random stream tied to `(seed, label)` — the
/// sequential facade over [`RngStream`] (a stream plus a draw cursor).
///
/// # Examples
///
/// ```
/// use sdpcm_engine::SimRng;
///
/// let mut a = SimRng::from_seed_label(42, "disturb");
/// let mut b = SimRng::from_seed_label(42, "disturb");
/// assert_eq!(a.next_u64(), b.next_u64()); // same stream
///
/// let mut c = SimRng::from_seed_label(42, "trace");
/// assert_ne!(SimRng::from_seed_label(42, "disturb").next_u64(), c.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    stream: RngStream,
    ctr: u64,
}

impl SimRng {
    /// Creates a stream from a raw 64-bit seed.
    #[must_use]
    pub fn from_seed(seed: u64) -> SimRng {
        RngStream::from_seed(seed).sequence()
    }

    /// Creates a stream from an experiment seed and a component label.
    ///
    /// The label is folded into the seed with FNV-1a so distinct labels
    /// yield statistically independent streams.
    #[must_use]
    pub fn from_seed_label(seed: u64, label: &str) -> SimRng {
        RngStream::from_seed_label(seed, label).sequence()
    }

    /// Derives a child stream; children with distinct labels are
    /// independent of each other and of the parent's future output.
    /// Consumes one draw, so successive derivations with the same label
    /// also differ.
    #[must_use]
    pub fn derive(&mut self, label: &str) -> SimRng {
        let base = self.next_u64();
        SimRng::from_seed(fold_label(base, label))
    }

    /// Derives an order-free [`RngStream`] the same way [`SimRng::derive`]
    /// derives a child cursor (consumes one draw).
    #[must_use]
    pub fn derive_stream(&mut self, label: &str) -> RngStream {
        let base = self.next_u64();
        RngStream::from_seed(fold_label(base, label))
    }

    /// The underlying order-free stream at the current cursor position's
    /// identity (ignores the cursor).
    #[must_use]
    pub fn stream(&self) -> RngStream {
        self.stream
    }

    /// Next raw 64-bit value: draw `ctr` of the stream, then advance.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let v = self.stream.at(self.ctr);
        self.ctr += 1;
        v
    }

    /// Fills `out` with the next `out.len()` draws — exactly what as many
    /// [`SimRng::next_u64`] calls would return — and moves the cursor
    /// past them.
    ///
    /// A draw's counter, not the previous draw's value, fixes the next
    /// draw, so every counter is known before the first block runs. The
    /// batch goes to the bulk kernel `RngStream::fill_at`, which computes
    /// whole passes of [`FILL_PASS`] blocks side by side in SIMD lanes on
    /// x86-64 CPUs with AVX2, and the rest, or all of it elsewhere, one
    /// block at a time; every draw is the same value on both paths.
    /// Callers that batch ([`SimRng::poisson`], payload toggles in trace
    /// capture) get the most from batches that are multiples of
    /// [`FILL_PASS`].
    #[inline]
    pub fn fill(&mut self, out: &mut [u64]) {
        self.stream.fill_at(self.ctr, out);
        self.ctr += out.len() as u64;
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below() requires a positive bound");
        // Lemire's multiply-shift reduction with rejection: unbiased.
        loop {
            let x = self.next_u64();
            let m = u128::from(x) * u128::from(bound);
            let low = m as u64;
            if low >= bound || low >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform `usize` index in `[0, len)`.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn index(&mut self, len: usize) -> usize {
        assert!(len > 0, "index() requires a non-empty range");
        self.below(len as u64) as usize
    }

    /// Bernoulli trial: `true` with probability `p` (clamped to `[0,1]`).
    ///
    /// Decision-identical to the historical `unit() < p` form (see
    /// [`ChanceGate`] for why), but per-call it builds the integer
    /// threshold from scratch; hot loops with a fixed `p` should build
    /// the gate once and use [`SimRng::chance_gate`].
    pub fn chance(&mut self, p: f64) -> bool {
        self.chance_gate(ChanceGate::new(p))
    }

    /// Bernoulli trial against a precomputed [`ChanceGate`]. Consumes
    /// exactly the draws [`SimRng::chance`] would for the same `p`: one
    /// `next_u64` for `p` in `(0, 1)`, none at the clamped extremes.
    #[inline]
    pub fn chance_gate(&mut self, gate: ChanceGate) -> bool {
        match gate.threshold {
            ChanceGate::NEVER => false,
            ChanceGate::ALWAYS => true,
            t => (self.next_u64() >> 11) < t,
        }
    }

    /// Bernoulli trials skipped before the next success, read off a
    /// precomputed [`SkipGate`] and capped at `limit`: a return of
    /// `limit` means none of the next `limit` trials succeeds. Consumes
    /// one draw for a probability in `(0, 1)` and none at the sentinels
    /// (`limit` at `p ≤ 0`, `0` at `p ≥ 1`).
    ///
    /// # Panics
    ///
    /// Panics if `limit` exceeds the gate's `max_run`.
    #[inline]
    pub fn skip(&mut self, gate: &SkipGate, limit: usize) -> usize {
        match &gate.0 {
            Skip::Never => limit,
            Skip::Always => 0,
            Skip::Survival(t) => gate_gap(t, self.next_u64(), limit),
        }
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        unit_of(self.next_u64())
    }

    /// A draw from the geometric distribution: number of failures before
    /// the first success with success probability `p`.
    ///
    /// Used for sparse event processes (e.g. skipping ahead to the next
    /// disturbed cell instead of rolling every cell).
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `(0, 1]`.
    pub fn geometric(&mut self, p: f64) -> u64 {
        assert!(p > 0.0 && p <= 1.0, "geometric() requires p in (0,1]");
        if p >= 1.0 {
            return 0;
        }
        let u = self.unit().max(f64::MIN_POSITIVE);
        (u.ln() / (1.0 - p).ln()).floor() as u64
    }

    /// A Poisson draw with mean `lambda`.
    ///
    /// Means up to [`POISSON_INVERSION_MAX`] use inversion, which
    /// multiplies uniforms until the product drops to `exp(-lambda)`,
    /// about `lambda + 1` of them. They are drawn eight at a time, one
    /// vector pass, with [`SimRng::fill`] (the first chunk sized to the
    /// expected count when that is smaller), so their Philox blocks run
    /// side by side; the cursor then
    /// moves back to just past the draws the one-at-a-time loop would
    /// have consumed, and the draws computed beyond them are discarded.
    /// Value and cursor are those of the sequential form, which survives
    /// as the test oracle.
    ///
    /// Past about 745, `exp(-lambda)` underflows to 0.0 and inversion
    /// could only stop on an underflowed product, capping every draw near
    /// 745. A larger mean is therefore split into the fewest equal parts
    /// no larger than [`POISSON_INVERSION_MAX`], and the draw is the sum
    /// of one inversion per part: a sum of independent Poisson variables
    /// is Poisson with the summed mean, so the result is exact. A draw
    /// costs about `lambda` uniforms either way.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is negative, not finite, or above
    /// [`POISSON_MEAN_MAX`].
    pub fn poisson(&mut self, lambda: f64) -> u64 {
        assert!(
            lambda.is_finite() && (0.0..=POISSON_MEAN_MAX).contains(&lambda),
            "poisson() requires a finite mean in [0, {POISSON_MEAN_MAX:e}]"
        );
        if lambda <= POISSON_INVERSION_MAX {
            return self.poisson_inversion(lambda);
        }
        let parts = (lambda / POISSON_INVERSION_MAX).ceil();
        let part = lambda / parts;
        (0..parts as u64)
            .map(|_| self.poisson_inversion(part))
            .sum()
    }

    /// [`SimRng::poisson`] by batched inversion, for `lambda` up to
    /// [`POISSON_INVERSION_MAX`].
    fn poisson_inversion(&mut self, lambda: f64) -> u64 {
        if lambda == 0.0 {
            return 0;
        }
        let limit = (-lambda).exp();
        let base = self.ctr;
        let mut buf = [0u64; POISSON_CHUNK];
        let mut chunk = (lambda as usize).saturating_add(1).min(POISSON_CHUNK);
        // `prod` starts at 1.0, so folding in draw 0 leaves it exactly
        // `unit(draw 0)`, the sequential loop's starting product.
        let mut prod = 1.0;
        let mut k = 0u64;
        loop {
            self.fill(&mut buf[..chunk]);
            for &x in &buf[..chunk] {
                prod *= unit_of(x);
                // `k > 10_000` is the numeric safety valve; unreachable
                // for sane lambda.
                if prod <= limit || k > 10_000 {
                    self.ctr = base + k + 1;
                    return k;
                }
                k += 1;
            }
            chunk = POISSON_CHUNK;
        }
    }
}

/// Largest mean [`SimRng::poisson`] draws by one inversion; larger means
/// are split into parts no larger than this. `exp(-500)` is about
/// 7e-218, far from the 745 where it underflows to zero.
pub const POISSON_INVERSION_MAX: f64 = 500.0;

/// Largest mean [`SimRng::poisson`] accepts. A draw consumes about
/// `lambda` uniforms, so a larger mean is far more likely a unit error
/// than a request for a draw costing more than a million of them.
pub const POISSON_MEAN_MAX: f64 = 1e6;

/// Draws [`SimRng::poisson`] computes per batch: one vector pass. At the
/// means capture asks for, batches of 16 or 24 measured slower at 12 and
/// 80 and no faster at 40 and 96: they discard more draws.
const POISSON_CHUNK: usize = FILL_PASS;

/// Consecutive draws one vector pass of [`SimRng::fill`] computes: two
/// interleaved chains of four 64-bit lanes each on AVX2.
pub const FILL_PASS: usize = 8;

/// The AVX2 pass of [`RngStream::fill_at`].
///
/// Each 64-bit lane carries one Philox block, with each of its four
/// 32-bit words in the low half of a lane of its own vector; the high
/// halves hold junk that nothing reads. `_mm256_mul_epu32` multiplies
/// exactly those low halves into full 64-bit products, so a round is
/// two multiplies, two shifts and four XORs per vector, with no shuffle,
/// and the 64-bit counter is a plain lane add that carries into its high
/// word. A pass runs two four-lane chains (draws 0–3 and 4–7 of the
/// pass) side by side, so one chain's multiplies issue while the
/// other's are still in flight.
#[cfg(target_arch = "x86_64")]
mod philox_avx2 {
    use super::{FILL_PASS, PHILOX_M0, PHILOX_M1, PHILOX_W0, PHILOX_W1};
    use std::arch::x86_64::{
        __m256i, _mm256_add_epi32, _mm256_add_epi64, _mm256_blend_epi32, _mm256_extract_epi64,
        _mm256_mul_epu32, _mm256_set1_epi32, _mm256_set1_epi64x, _mm256_set_epi64x,
        _mm256_slli_epi64, _mm256_srli_epi64, _mm256_xor_si256,
    };

    /// One chain of four blocks: counter words 0–3, one vector each.
    struct Chain([__m256i; 4]);

    impl Chain {
        /// The counters of draws `first..first + 4` in subspace `space`.
        #[inline]
        #[target_feature(enable = "avx2")]
        fn new(space: u64, first: u64) -> Chain {
            let idx = _mm256_add_epi64(
                _mm256_set1_epi64x(first as i64),
                _mm256_set_epi64x(3, 2, 1, 0),
            );
            Chain([
                _mm256_set1_epi64x(space as i64),
                _mm256_set1_epi64x((space >> 32) as i64),
                idx,
                _mm256_srli_epi64::<32>(idx),
            ])
        }

        /// One Philox round under round keys `k0`, `k1`.
        #[inline]
        #[target_feature(enable = "avx2")]
        fn round(&mut self, m0: __m256i, m1: __m256i, k0: __m256i, k1: __m256i) {
            let [c0, c1, c2, c3] = self.0;
            let p0 = _mm256_mul_epu32(c0, m0);
            let p1 = _mm256_mul_epu32(c2, m1);
            self.0 = [
                _mm256_xor_si256(_mm256_srli_epi64::<32>(p1), _mm256_xor_si256(c1, k0)),
                p1,
                _mm256_xor_si256(_mm256_srli_epi64::<32>(p0), _mm256_xor_si256(c3, k1)),
                p0,
            ];
        }

        /// Writes each block's draw, `word0 | word1 << 32`, to `out`.
        #[inline]
        #[target_feature(enable = "avx2")]
        fn store(&self, out: &mut [u64]) {
            let [c0, c1, ..] = self.0;
            let v = _mm256_blend_epi32::<0b1010_1010>(c0, _mm256_slli_epi64::<32>(c1));
            out[0] = _mm256_extract_epi64::<0>(v) as u64;
            out[1] = _mm256_extract_epi64::<1>(v) as u64;
            out[2] = _mm256_extract_epi64::<2>(v) as u64;
            out[3] = _mm256_extract_epi64::<3>(v) as u64;
        }
    }

    /// Writes draws `start..start + out.len()` of stream `(key, space)`
    /// into `out`, whose length is a multiple of [`FILL_PASS`].
    #[target_feature(enable = "avx2")]
    pub(super) fn fill(key: [u32; 2], space: u64, start: u64, out: &mut [u64]) {
        debug_assert_eq!(out.len() % FILL_PASS, 0);
        let m0 = _mm256_set1_epi64x(i64::from(PHILOX_M0));
        let m1 = _mm256_set1_epi64x(i64::from(PHILOX_M1));
        let w0 = _mm256_set1_epi32(PHILOX_W0 as i32);
        let w1 = _mm256_set1_epi32(PHILOX_W1 as i32);
        for (pass, out) in out.chunks_exact_mut(FILL_PASS).enumerate() {
            let first = start.wrapping_add((pass * FILL_PASS) as u64);
            let mut a = Chain::new(space, first);
            let mut b = Chain::new(space, first.wrapping_add(4));
            let mut k0 = _mm256_set1_epi32(key[0] as i32);
            let mut k1 = _mm256_set1_epi32(key[1] as i32);
            for _ in 0..10 {
                a.round(m0, m1, k0, k1);
                b.round(m0, m1, k0, k1);
                k0 = _mm256_add_epi32(k0, w0);
                k1 = _mm256_add_epi32(k1, w1);
            }
            let (lo, hi) = out.split_at_mut(4);
            a.store(lo);
            b.store(hi);
        }
    }
}

/// The canonical `[0, 1)` double of a raw draw: its 53 high bits.
#[inline]
fn unit_of(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A precomputed Bernoulli threshold for a fixed probability.
///
/// The historical draw is `unit() < p` with `unit() = (x >> 11) as f64 ·
/// 2⁻⁵³` — a u64→f64 convert, multiply, and compare per draw. Both sides
/// of that comparison are exact: `k = x >> 11 < 2⁵³` is exactly
/// representable, scaling by the power of two 2⁻⁵³ is exact, and so is
/// `p · 2⁵³` (an exponent shift, even from subnormal `p`). Therefore
///
/// ```text
/// k·2⁻⁵³ < p  ⟺  k < p·2⁵³  ⟺  k < ceil(p·2⁵³)
/// ```
///
/// (the last step because `k` is an integer), which turns every draw
/// into a shift and an integer compare — decision-identical to the f64
/// reference by construction, bit for bit. Pinned by the property test
/// in `tests/properties.rs` and the sweep below.
///
/// `p ≤ 0` and `p ≥ 1` are resolved without consuming a draw, exactly
/// like [`SimRng::chance`] always has.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChanceGate {
    threshold: u64,
}

impl ChanceGate {
    /// Sentinel: `false` without drawing (p ≤ 0).
    const NEVER: u64 = 0;
    /// Sentinel: `true` without drawing (p ≥ 1). Distinct from every
    /// real threshold, which is at most 2⁵³.
    const ALWAYS: u64 = u64::MAX;

    /// Builds the gate for probability `p` (clamped to `[0, 1]`).
    #[must_use]
    pub fn new(p: f64) -> ChanceGate {
        let threshold = if p <= 0.0 {
            ChanceGate::NEVER
        } else if p >= 1.0 {
            ChanceGate::ALWAYS
        } else {
            // Exact product (power-of-two scale), then an exact ceil and
            // cast: the result is in [1, 2^53].
            (p * 9_007_199_254_740_992.0).ceil() as u64
        };
        ChanceGate { threshold }
    }

    /// Whether the gate can never fire (p ≤ 0) — callers skip whole
    /// draw loops on this.
    #[must_use]
    pub fn is_never(self) -> bool {
        self.threshold == ChanceGate::NEVER
    }

    /// Decides the trial against raw draw `x` (as produced by
    /// [`RngStream::at`]) without a cursor. `None` means the gate needs
    /// no draw (sentinel probabilities).
    #[must_use]
    #[inline]
    pub fn decide(self, x: u64) -> bool {
        match self.threshold {
            ChanceGate::NEVER => false,
            ChanceGate::ALWAYS => true,
            t => (x >> 11) < t,
        }
    }
}

/// Skip sampling for a fixed probability: how many Bernoulli trials
/// fail before the next success, from one draw instead of one per
/// trial.
///
/// With failure probability `q = 1 − p`, a run of at least `k` failures
/// has probability `q^k`. The gate holds the survival thresholds
///
/// ```text
/// T_k = ceil(q^k · 2⁵³),   k = 1, …, max_run
/// ```
///
/// and a draw with 53 high bits `u` skips `G = #{k : u < T_k}` trials,
/// so `P(G ≥ k) = T_k · 2⁻⁵³`: the geometric law up to the rounding of
/// `q^k`. `q^k` is built by repeated `f64` multiplication, whose every
/// step IEEE 754 rounds exactly one way, so the table, and with it
/// every gap, is the same on every platform; no `ln` or other libm
/// call sits on the draw path. Rounding is monotone, so the thresholds
/// never increase and `G` is a binary search over the first `limit` of
/// them. Each product rounds by at most half an ulp, so the computed
/// `q^k` is within a relative `k·2⁻⁵³` of the true one, and the ceil
/// adds less than `2⁻⁵³` to each probability.
///
/// `p ≤ 0` and `p ≥ 1` keep [`ChanceGate`]'s no-draw sentinels: every
/// trial fails, or every trial succeeds.
///
/// This is not [`SimRng::geometric`], which computes `ln` per draw and
/// sets trace capture's gaps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkipGate(Skip);

#[derive(Debug, Clone, PartialEq, Eq)]
enum Skip {
    Never,
    Always,
    /// `T_1, …, T_max_run`, non-increasing.
    Survival(Box<[u64]>),
}

impl SkipGate {
    /// Builds the gate for success probability `p` (clamped to
    /// `[0, 1]`), for runs of up to `max_run` trials.
    #[must_use]
    pub fn new(p: f64, max_run: usize) -> SkipGate {
        if p <= 0.0 {
            return SkipGate(Skip::Never);
        }
        if p >= 1.0 {
            return SkipGate(Skip::Always);
        }
        let q = 1.0 - p;
        let mut survive = 1.0_f64;
        let table = (0..max_run)
            .map(|_| {
                survive *= q;
                // As in `ChanceGate::new`: an exact power-of-two scale,
                // then an exact ceil and cast, into [0, 2^53].
                (survive * 9_007_199_254_740_992.0).ceil() as u64
            })
            .collect();
        SkipGate(Skip::Survival(table))
    }

    /// Whether no trial can succeed (p ≤ 0): callers skip whole draw
    /// loops on this.
    #[must_use]
    pub fn is_never(&self) -> bool {
        matches!(self.0, Skip::Never)
    }

    /// Whether every trial succeeds (p ≥ 1).
    #[must_use]
    pub fn is_always(&self) -> bool {
        matches!(self.0, Skip::Always)
    }
}

/// Failures before the next success under survival thresholds `t`, for
/// raw draw `x`, capped at `limit`.
#[inline]
fn gate_gap(t: &[u64], x: u64, limit: usize) -> usize {
    let u = x >> 11;
    t[..limit].partition_point(|&t| t > u)
}

fn fold_label(seed: u64, label: &str) -> u64 {
    // FNV-1a over the seed bytes then the label bytes.
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for b in seed.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    for b in label.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Published Random123 known-answer vectors for philox4x32-10
    /// (from the Random123 distribution's `kat_vectors` file).
    #[test]
    fn philox4x32_10_known_answers() {
        assert_eq!(
            philox4x32_10([0, 0, 0, 0], [0, 0]),
            [0x6627_e8d5, 0xe169_c58d, 0xbc57_ac4c, 0x9b00_dbd8]
        );
        assert_eq!(
            philox4x32_10([0xffff_ffff; 4], [0xffff_ffff, 0xffff_ffff]),
            [0x408f_276d, 0x41c8_3b0e, 0xa20b_c7c6, 0x6d54_51fd]
        );
        assert_eq!(
            philox4x32_10(
                [0x243f_6a88, 0x85a3_08d3, 0x1319_8a2e, 0x0370_7344],
                [0xa409_3822, 0x299f_31d0]
            ),
            [0xd16c_fe09, 0x94fd_cceb, 0x5001_e420, 0x2412_6ea1]
        );
    }

    #[test]
    fn reproducible_streams() {
        let mut a = SimRng::from_seed_label(7, "x");
        let mut b = SimRng::from_seed_label(7, "x");
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn labels_separate_streams() {
        let mut a = SimRng::from_seed_label(7, "x");
        let mut b = SimRng::from_seed_label(7, "y");
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn stream_access_is_order_free() {
        let s = RngStream::from_seed_label(123, "order");
        let forward: Vec<u64> = (0..64).map(|i| s.at(i)).collect();
        let backward: Vec<u64> = (0..64).rev().map(|i| s.at(i)).collect();
        assert_eq!(
            forward,
            backward.into_iter().rev().collect::<Vec<_>>(),
            "draw i must not depend on draw order"
        );
        // And the sequential facade sees exactly the same values.
        let mut seq = s.sequence();
        for (i, &v) in forward.iter().enumerate() {
            assert_eq!(seq.next_u64(), v, "cursor draw {i}");
        }
    }

    #[test]
    fn stream_access_is_thread_interleaving_free() {
        // Eight threads draw overlapping windows of the same shared
        // stream in different orders; all must agree with the serial
        // reference. This is the order freedom the controller's bank
        // lanes rely on.
        let s = RngStream::from_seed_label(7, "threads");
        let reference: Vec<u64> = (0..256).map(|i| s.at(i)).collect();
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let reference = &reference;
                let s = &s;
                scope.spawn(move || {
                    // Each thread walks the window in a different stride
                    // order.
                    for k in 0..256u64 {
                        let i = (k.wrapping_mul(2 * t + 1) + t * 37) % 256;
                        assert_eq!(s.at(i), reference[i as usize]);
                    }
                });
            }
        });
    }

    #[test]
    fn keyed_substreams_are_independent_and_stable() {
        let s = RngStream::from_seed(99);
        let a = s.keyed(1);
        let b = s.keyed(2);
        assert_ne!(a, b);
        assert_ne!(a.at(0), b.at(0));
        // Derivation is pure: same key, same substream, regardless of
        // what else was derived in between.
        let _ = s.keyed(77).keyed(3).at(5);
        assert_eq!(s.keyed(1), a);
        // Chained keys differ from single keys.
        assert_ne!(s.keyed(1).keyed(2), s.keyed(2).keyed(1));
        // Labeled substreams too.
        assert_ne!(s.labeled("wl"), s.labeled("bl"));
        assert_eq!(s.labeled("wl"), s.labeled("wl"));
    }

    #[test]
    fn gate_decide_matches_cursor_gate() {
        let s = RngStream::from_seed(4242);
        for &p in &[0.0, 0.099, 0.115, 0.5, 0.999, 1.0] {
            let gate = ChanceGate::new(p);
            let mut seq = s.sequence();
            for i in 0..512 {
                // decide(at(i)) must agree with the cursor walking the
                // same stream — gates never consume draws at extremes.
                let raw = s.at(i);
                let want = if p <= 0.0 {
                    false
                } else if p >= 1.0 {
                    true
                } else {
                    seq.chance_gate(gate)
                };
                assert_eq!(gate.decide(raw), want, "p={p} i={i}");
            }
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::from_seed(1);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-3.0));
        assert!(r.chance(2.0));
    }

    #[test]
    fn gate_matches_f64_reference_across_sweep() {
        // Probability sweep from the issue: 0, subnormal-adjacent,
        // calibrated WD rates, 0.5, 1−ε, 1, plus out-of-range clamps.
        let ps = [
            0.0,
            -1.0,
            f64::MIN_POSITIVE, // smallest normal
            5e-324,            // smallest subnormal
            1e-300,
            1e-12,
            0.099,
            0.115,
            0.3,
            0.5,
            0.9,
            1.0 - f64::EPSILON,
            1.0,
            1.5,
        ];
        for &p in &ps {
            let mut reference = SimRng::from_seed_label(11, "gate-sweep");
            let mut gated = SimRng::from_seed_label(11, "gate-sweep");
            let gate = ChanceGate::new(p);
            for i in 0..4096 {
                // The historical decision procedure, verbatim.
                let expect = if p <= 0.0 {
                    false
                } else if p >= 1.0 {
                    true
                } else {
                    reference.unit() < p
                };
                assert_eq!(gated.chance_gate(gate), expect, "p={p} draw={i}");
            }
            // Draw consumption must match too, or streams desynchronize.
            assert_eq!(reference.next_u64(), gated.next_u64(), "p={p}");
        }
    }

    #[test]
    fn gate_extremes_consume_no_draws() {
        let mut r = SimRng::from_seed(17);
        let before = r.clone().next_u64();
        assert!(!r.chance_gate(ChanceGate::new(0.0)));
        assert!(r.chance_gate(ChanceGate::new(1.0)));
        assert!(ChanceGate::new(0.0).is_never());
        assert!(!ChanceGate::new(0.5).is_never());
        assert_eq!(r.next_u64(), before, "extremes must not advance the stream");
    }

    #[test]
    fn skip_gate_sentinels_consume_no_draws() {
        let mut r = SimRng::from_seed(19);
        let before = r.clone().next_u64();
        let never = SkipGate::new(0.0, 64);
        let always = SkipGate::new(1.0, 64);
        assert!(never.is_never() && !never.is_always());
        assert!(always.is_always() && !always.is_never());
        assert_eq!(SkipGate::new(-2.0, 64), never);
        assert_eq!(SkipGate::new(3.0, 64), always);
        assert_eq!(r.skip(&never, 40), 40);
        assert_eq!(r.skip(&always, 40), 0);
        assert_eq!(
            r.next_u64(),
            before,
            "sentinels must not advance the stream"
        );
    }

    #[test]
    fn skip_gate_counts_the_thresholds_above_the_draw() {
        // The gap is the number of survival thresholds T_1..T_limit
        // above the draw's 53 high bits, for draws of every magnitude,
        // and the cursor form consumes exactly one draw.
        let s = RngStream::from_seed(23);
        for p in [1e-300, 1e-9, 0.01, 0.099, 0.115, 0.5, 0.9, 1.0 - 1e-9] {
            let gate = SkipGate::new(p, 512);
            let Skip::Survival(t) = &gate.0 else {
                panic!("p={p} is not a sentinel");
            };
            assert!(t.windows(2).all(|w| w[0] >= w[1]), "p={p}: non-increasing");
            assert_eq!(t[0], ((1.0 - p) * 9_007_199_254_740_992.0).ceil() as u64);
            let linear = |x: u64, limit: usize| t[..limit].iter().filter(|&&t| t > x >> 11).count();
            let mut seq = s.sequence();
            for i in 0..4096 {
                let limit = 1 + (i as usize * 7) % 512;
                let x = s.at(i);
                assert_eq!(seq.skip(&gate, limit), linear(x, limit), "p={p} draw {i}");
                // Small draws, down to a few bits, and the extremes.
                let small = x >> (i % 64);
                assert_eq!(
                    gate_gap(t, small, limit),
                    linear(small, limit),
                    "p={p} x={small}"
                );
            }
            for x in [0, 1 << 11, u64::MAX] {
                assert_eq!(gate_gap(t, x, 512), linear(x, 512), "p={p} x={x}");
            }
        }
    }

    #[test]
    fn skip_gaps_follow_the_geometric_law() {
        // P(G >= k) = q^k: check the mean of the capped gap and the
        // chance of running past the cap, each within five standard
        // errors.
        let n = 100_000;
        for (p, cap) in [(0.2, 64usize), (0.115, 512), (0.9, 4)] {
            let gate = SkipGate::new(p, cap);
            let mut r = SimRng::from_seed_label(29, "skip-law");
            let gaps: Vec<usize> = (0..n).map(|_| r.skip(&gate, cap)).collect();
            let q: f64 = 1.0 - p;
            // E[min(G, cap)] = sum over k = 1..=cap of q^k.
            let mean: f64 = (1..=cap).map(|k| q.powi(k as i32)).sum();
            let second: f64 = (1..=cap)
                .map(|k| (2 * k - 1) as f64 * q.powi(k as i32))
                .sum();
            let sd = (second - mean * mean).sqrt();
            let got = gaps.iter().sum::<usize>() as f64 / n as f64;
            assert!(
                (got - mean).abs() < 5.0 * sd / (n as f64).sqrt(),
                "p={p}: mean gap {got}, law {mean}"
            );
            let past = q.powi(cap as i32);
            let hits = gaps.iter().filter(|&&g| g == cap).count() as f64 / n as f64;
            assert!(
                (hits - past).abs() < 5.0 * (past * (1.0 - past) / n as f64).sqrt() + 1e-12,
                "p={p}: ran past the cap at rate {hits}, law {past}"
            );
        }
    }

    #[test]
    fn chance_rate_is_close() {
        let mut r = SimRng::from_seed(2);
        let n = 200_000;
        let hits = (0..n).filter(|_| r.chance(0.115)).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.115).abs() < 0.005, "rate={rate}");
    }

    #[test]
    fn geometric_mean_is_close() {
        let mut r = SimRng::from_seed(3);
        let p = 0.2;
        let n = 100_000;
        let total: u64 = (0..n).map(|_| r.geometric(p)).sum();
        let mean = total as f64 / n as f64;
        let expect = (1.0 - p) / p; // failures before success
        assert!((mean - expect).abs() < 0.1, "mean={mean} expect={expect}");
    }

    #[test]
    fn poisson_mean_is_close() {
        let mut r = SimRng::from_seed(4);
        let lambda = 2.5;
        let n = 100_000;
        let total: u64 = (0..n).map(|_| r.poisson(lambda)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - lambda).abs() < 0.05, "mean={mean}");
        assert_eq!(r.poisson(0.0), 0);
    }

    /// The historical one-draw-at-a-time inversion, verbatim: the oracle
    /// the batched [`SimRng::poisson`] must match in value and cursor. On
    /// a CPU with AVX2 the batched side's full chunks take the vector
    /// passes of [`RngStream::fill_at`].
    fn poisson_sequential(r: &mut SimRng, lambda: f64) -> u64 {
        if lambda == 0.0 {
            return 0;
        }
        let limit = (-lambda).exp();
        let mut k = 0u64;
        let mut prod = r.unit();
        while prod > limit {
            k += 1;
            prod *= r.unit();
            if k > 10_000 {
                break;
            }
        }
        k
    }

    /// Means the inversion serves: zero, a near-zero mean whose first
    /// draw almost always stops, the wear model's range, the write-size
    /// means, and the largest mean one inversion takes.
    const POISSON_LAMBDAS: [f64; 8] = [0.0, 1e-9, 0.5, 2.0, 12.0, 80.0, 96.0, 500.0];

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        #[test]
        fn batched_poisson_matches_sequential_oracle(
            seed in proptest::prelude::any::<u64>(),
            skip in 0u64..20,
            li in 0usize..8,
        ) {
            let lambda = POISSON_LAMBDAS[li];
            let mut batched = SimRng::from_seed(seed);
            batched.ctr = skip;
            let mut oracle = batched.clone();
            for call in 0..24 {
                let want = poisson_sequential(&mut oracle, lambda);
                let got = batched.poisson(lambda);
                proptest::prop_assert_eq!(got, want, "lambda={} call={}", lambda, call);
                proptest::prop_assert_eq!(batched.ctr, oracle.ctr, "cursor, lambda={}", lambda);
            }
        }

        #[test]
        fn fill_matches_repeated_next_u64(
            seed in proptest::prelude::any::<u64>(),
            skip in 0u64..100,
            n in 0usize..70,
        ) {
            let mut filled = SimRng::from_seed(seed);
            filled.ctr = skip;
            let mut one_by_one = filled.clone();
            let mut buf = vec![0u64; n];
            filled.fill(&mut buf);
            let want: Vec<u64> = (0..n).map(|_| one_by_one.next_u64()).collect();
            proptest::prop_assert_eq!(buf, want);
            // The cursor sits just past the batch, where `n` calls of
            // `next_u64` leave it.
            proptest::prop_assert_eq!(filled.ctr, skip + n as u64);
            proptest::prop_assert_eq!(filled.next_u64(), one_by_one.next_u64());
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(24))]

        #[test]
        fn fill_at_matches_the_scalar_path_at_every_length(
            seed in proptest::prelude::any::<u64>(),
            label in proptest::prelude::any::<u32>(),
            r in proptest::prelude::any::<u64>(),
        ) {
            let s = RngStream::from_seed_label(seed, &format!("fill-{label:x}"));
            for start in fill_starts(r) {
                for len in 0..=64 {
                    let want: Vec<u64> =
                        (0..len).map(|j| s.at(start.wrapping_add(j))).collect();
                    let mut bulk = vec![0u64; want.len()];
                    s.fill_at(start, &mut bulk);
                    proptest::prop_assert_eq!(&bulk, &want, "start={} len={}", start, len);
                    let mut scalar = vec![0u64; want.len()];
                    s.fill_scalar(start, &mut scalar);
                    proptest::prop_assert_eq!(&scalar, &want, "start={} len={}", start, len);
                }
            }
        }
    }

    /// Starts of bulk runs: the first draw, a random one, runs across the
    /// carry from the counter's low word into its high word at 2^32, and
    /// runs that wrap past `u64::MAX` to draw 0.
    fn fill_starts(r: u64) -> [u64; 6] {
        let back = r % 72;
        [
            0,
            r,
            (1 << 32) - back,
            (1 << 32) - 5,
            u64::MAX - back,
            u64::MAX - 4,
        ]
    }

    /// [`RngStream::fill_at`] against [`philox4x32_10`] itself over more
    /// than ten million draws that take the vector passes where the CPU
    /// has them: random streams, run lengths and starts, a third of them
    /// across 2^32 and a third wrapping at `u64::MAX`.
    #[test]
    #[ignore = "release soak; run with --ignored"]
    fn fill_at_soak_against_philox() {
        let mut pick = SimRng::from_seed_label(2026, "fill-soak");
        let mut buf = [0u64; 4 * FILL_PASS * FILL_PASS + 7];
        let mut in_passes = 0u64;
        while in_passes < 10_000_000 {
            let s = RngStream::from_seed(pick.next_u64());
            let len = pick.index(buf.len() + 1);
            let start = match pick.below(3) {
                0 => pick.next_u64(),
                1 => (1 << 32) - pick.below(buf.len() as u64),
                _ => u64::MAX - pick.below(buf.len() as u64),
            };
            s.fill_at(start, &mut buf[..len]);
            for (j, &got) in (0u64..).zip(&buf[..len]) {
                let i = start.wrapping_add(j);
                let x = philox4x32_10(
                    [
                        s.space as u32,
                        (s.space >> 32) as u32,
                        i as u32,
                        (i >> 32) as u32,
                    ],
                    s.key,
                );
                let want = u64::from(x[0]) | (u64::from(x[1]) << 32);
                assert_eq!(
                    got, want,
                    "stream {s:?} draw {i} (start {start}, len {len})"
                );
            }
            in_passes += (len - len % FILL_PASS) as u64;
        }
    }

    #[test]
    fn poisson_past_the_inversion_limit_keeps_mean_and_variance() {
        // Inversion alone capped these near 745. Poisson variance equals
        // the mean; both sample moments must land within five standard
        // errors (the variance's relative standard error is √(2/n)).
        for (lambda, n) in [
            (745.0_f64, 2_000),
            (800.0, 2_000),
            (2_000.0, 1_000),
            (1e4, 400),
        ] {
            let mut r = SimRng::from_seed(12);
            let draws: Vec<f64> = (0..n).map(|_| r.poisson(lambda) as f64).collect();
            let nf = f64::from(n);
            let mean = draws.iter().sum::<f64>() / nf;
            let var = draws.iter().map(|d| (d - mean).powi(2)).sum::<f64>() / (nf - 1.0);
            assert!(
                (mean - lambda).abs() < 5.0 * (lambda / nf).sqrt(),
                "lambda={lambda} mean={mean}"
            );
            assert!(
                (var / lambda - 1.0).abs() < 5.0 * (2.0 / nf).sqrt(),
                "lambda={lambda} var={var}"
            );
        }
    }

    #[test]
    fn poisson_rejects_means_outside_its_range() {
        for lambda in [-1.0, f64::NAN, f64::INFINITY, POISSON_MEAN_MAX * 1.5, 1e300] {
            let r = std::panic::catch_unwind(|| SimRng::from_seed(3).poisson(lambda));
            assert!(r.is_err(), "lambda={lambda} must panic");
        }
        assert!(SimRng::from_seed(3).poisson(POISSON_MEAN_MAX) > 0);
    }

    #[test]
    fn below_and_index_bounds() {
        let mut r = SimRng::from_seed(5);
        for _ in 0..1000 {
            assert!(r.below(10) < 10);
            assert!(r.index(3) < 3);
        }
    }

    #[test]
    fn below_covers_the_range() {
        let mut r = SimRng::from_seed(8);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            seen[r.below(10) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues reachable");
    }

    #[test]
    fn unit_is_half_open() {
        let mut r = SimRng::from_seed(9);
        for _ in 0..10_000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn derive_produces_independent_children() {
        let mut parent = SimRng::from_seed(6);
        let mut c1 = parent.derive("a");
        let mut c2 = parent.derive("a"); // different parent position
        assert_ne!(c1.next_u64(), c2.next_u64());
        let s1 = parent.derive_stream("b");
        let s2 = parent.derive_stream("b");
        assert_ne!(s1.at(0), s2.at(0));
    }
}
