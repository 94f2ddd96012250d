//! Capture-once/replay-many reference traces.
//!
//! Every figure in the paper compares 5–7 schemes on the *same*
//! workload: the post-cache reference stream — per-core order of line
//! addresses, read/write kinds, instruction gaps and write payloads —
//! depends only on `(workload, seed, refs_per_core)`, never on the PCM
//! scheme, which only affects *timing*. A [`RefTrace`] is the compact,
//! immutable record of that stream, captured once and shared (via
//! `Arc`) across every scheme cell of a sweep.
//!
//! # Why the stream is scheme-independent
//!
//! Three properties carry the determinism contract:
//!
//! * Per-core RNG streams. Addresses, kinds, gaps and payload toggles
//!   are drawn from RNGs derived per core; a core's draw order is its
//!   program order, which no scheme can perturb (schemes change *when*
//!   a reference issues, never *whether* or *in what per-core order*).
//! * Virtual addressing. Records hold `(vpage, slot)`; the physical
//!   address depends on the scheme's allocation ratio and is translated
//!   at replay time, per cell.
//! * Payloads as toggle masks. A write's payload is "the line's newest
//!   architectural value XOR a recorded toggle mask". The architectural
//!   value evolves in per-core program order (cores own disjoint
//!   address spaces), so every replay of a capture computes
//!   bit-identical payloads at issue time without recording any
//!   scheme-dependent device state.
//!
//! # One path
//!
//! [`RefTrace::capture`] is the only place references are generated,
//! and the full-system simulator always replays a capture. A
//! [`RefCursor`] is the only decoder of a core's stream, for the
//! simulator's cores and for [`RefTrace::refs`] alike.
//!
//! # Capture and storage
//!
//! * Parallel capture. The per-core streams are derived serially from
//!   the capture's root RNG; after that each core draws only from its
//!   own counter-based streams, so [`RefTrace::capture`] drains them on
//!   several threads and the bytes cannot depend on the thread count or
//!   schedule.
//! * Batched draws. Poisson write sizes ([`SimRng::poisson`]) and
//!   toggle positions ([`toggle_mask`]) take their uniforms in batches
//!   from [`SimRng::fill`], whose bulk kernel computes eight consecutive
//!   Philox blocks per SIMD pass on CPUs with AVX2, and consume exactly
//!   the draws of the one-at-a-time loops. Every draw is the same value
//!   on the vector and the scalar path, so trace bytes do not depend on
//!   the CPU.
//! * Compact records. A core's references are one var-int byte stream,
//!   in memory and on disk alike (layout under
//!   [`TRACE_SCHEMA_VERSION`]), decoded record by record on replay.

use std::fmt;
use std::ops::Deref;

use sdpcm_engine::par::parallel_map;
use sdpcm_engine::rng::FILL_PASS;
use sdpcm_engine::SimRng;

use crate::gen::TraceGenerator;
use crate::wire::{get_varint, put_varint, Reader, WireError, Writer};
use crate::workload::Workload;

/// Schema version of the on-disk trace format. Bump on any change to
/// the record layout *or* to the generator/payload draw semantics —
/// a stale file must never replay under new semantics.
///
/// * v1 — fixed-width records: `u64` gap, `u64` vpage, `u8` slot,
///   `u8` kind, then the eight mask words for writes.
/// * v2 — each core's records are one byte stream, the same bytes the
///   in-memory [`RefTrace`] holds: `varint(gap)`, `varint(vpage)`, one
///   byte `slot | is_write << 7`, then the 64-byte mask (eight
///   little-endian words) for writes only. The stream is framed by its
///   record count and byte length. Draw semantics are unchanged from
///   v1; a v1 file is rejected as [`WireError::WrongSchema`] and
///   recaptured.
pub const TRACE_SCHEMA_VERSION: u32 = 2;

/// Words in a 512-bit line toggle mask.
pub const MASK_WORDS: usize = 8;

/// XOR toggle mask over one 64 B line.
pub type ToggleMask = [u64; MASK_WORDS];

/// One recorded post-cache reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRef {
    /// Instructions since the core's previous reference.
    pub gap: u64,
    /// Virtual page within the core's address space.
    pub vpage: u64,
    /// 64 B line slot within the page.
    pub slot: u8,
    /// `true` for a write-back to PCM.
    pub is_write: bool,
    /// For writes: payload = newest architectural value XOR this mask
    /// (all-zero for reads).
    pub mask: ToggleMask,
}

/// Identity of a captured trace — the capture inputs that fully
/// determine its contents.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TraceMeta {
    /// Workload display name (eight copies of one benchmark, or a mix).
    pub workload: String,
    /// Master seed.
    pub seed: u64,
    /// References captured per core.
    pub refs_per_core: u64,
}

impl TraceMeta {
    /// The identity of `workload`'s capture at `seed` and `refs_per_core`.
    #[must_use]
    pub fn of(workload: &Workload, seed: u64, refs_per_core: u64) -> TraceMeta {
        TraceMeta {
            workload: workload.name().to_owned(),
            seed,
            refs_per_core,
        }
    }

    /// Content hash of `(workload, seed, refs_per_core, schema)` — the
    /// on-disk cache key. Stable across runs and platforms.
    #[must_use]
    pub fn content_key(&self) -> u64 {
        let mut w = Writer::new();
        w.put_u32(TRACE_SCHEMA_VERSION);
        w.put_str(&self.workload);
        w.put_u64(self.seed);
        w.put_u64(self.refs_per_core);
        crate::wire::fnv1a(&w.finish())
    }
}

/// `workload/seed/refs_per_core`.
impl fmt::Display for TraceMeta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}/{}", self.workload, self.seed, self.refs_per_core)
    }
}

/// An immutable captured reference stream (one encoded byte stream per
/// core), shared across sweep cells behind an `Arc`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefTrace {
    /// Capture identity.
    pub meta: TraceMeta,
    /// Per-core record streams, in program order.
    cores: Vec<CoreStream>,
}

/// One core's references, encoded back to back in the v2 record layout
/// (see [`TRACE_SCHEMA_VERSION`]). A record is 3–21 bytes for a read and
/// 64 more for a write, against 88 for a decoded [`TraceRef`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct CoreStream {
    /// Records in `bytes`.
    refs: u64,
    /// The encoded records.
    bytes: Vec<u8>,
}

/// Bit of the record's flag byte marking a write; the low six bits hold
/// the slot, and bit 6 is always clear.
const WRITE_FLAG: u8 = 0x80;

impl CoreStream {
    /// Appends one record.
    fn push(&mut self, r: &TraceRef) {
        debug_assert!(r.slot < 64, "slot {} outside its page", r.slot);
        put_varint(&mut self.bytes, r.gap);
        put_varint(&mut self.bytes, r.vpage);
        if r.is_write {
            self.bytes.push(r.slot | WRITE_FLAG);
            for word in r.mask {
                self.bytes.extend_from_slice(&word.to_le_bytes());
            }
        } else {
            self.bytes.push(r.slot);
        }
        self.refs += 1;
    }

    /// Adopts a stream read from a file once it checks out: every record
    /// decodes (varints canonical and in range, slot < 64, masks
    /// complete), the records fill `bytes` exactly, and there are `refs`
    /// of them. Nothing is allocated for a stream that fails.
    fn validated(refs: u64, bytes: &[u8]) -> Result<CoreStream, WireError> {
        let mut pos = 0;
        let mut n = 0u64;
        while pos < bytes.len() {
            pos = decode_ref(bytes, pos)?.1;
            n += 1;
        }
        if n != refs {
            return Err(WireError::Malformed);
        }
        Ok(CoreStream {
            refs,
            bytes: bytes.to_vec(),
        })
    }
}

/// Decodes the record at byte `pos`, returning it and the offset of the
/// record after it.
#[inline]
fn decode_ref(bytes: &[u8], mut pos: usize) -> Result<(TraceRef, usize), WireError> {
    let gap = get_varint(bytes, &mut pos)?;
    let vpage = get_varint(bytes, &mut pos)?;
    let flags = *bytes.get(pos).ok_or(WireError::Truncated)?;
    pos += 1;
    let slot = flags & !WRITE_FLAG;
    if slot >= 64 {
        return Err(WireError::Malformed);
    }
    let is_write = flags & WRITE_FLAG != 0;
    let mut mask = [0u64; MASK_WORDS];
    if is_write {
        let raw = bytes
            .get(pos..pos + 8 * MASK_WORDS)
            .ok_or(WireError::Truncated)?;
        for (word, b) in mask.iter_mut().zip(raw.chunks_exact(8)) {
            *word = u64::from_le_bytes(b.try_into().expect("8-byte chunk"));
        }
        pos += 8 * MASK_WORDS;
    }
    let r = TraceRef {
        gap,
        vpage,
        slot,
        is_write,
        mask,
    };
    Ok((r, pos))
}

impl RefTrace {
    /// Captures the post-cache stream of `workload` by draining the
    /// per-core generators and payload-toggle streams — the PCM backend
    /// is never built.
    ///
    /// The per-core streams are derived serially; each then draws only
    /// from its own counter-based streams, so draining them on
    /// `min(cores, available_parallelism)` workers yields the same bytes
    /// as draining them one after another. A capture that runs on a
    /// sweep worker drains them on that worker (see
    /// [`sdpcm_engine::par`]).
    #[must_use]
    pub fn capture(workload: &Workload, seed: u64, refs_per_core: u64) -> RefTrace {
        let host = std::thread::available_parallelism().map_or(1, |n| n.get());
        RefTrace::capture_on(workload, seed, refs_per_core, host)
    }

    /// [`RefTrace::capture`] on at most `workers` threads; the output
    /// does not depend on `workers`.
    fn capture_on(workload: &Workload, seed: u64, refs_per_core: u64, workers: usize) -> RefTrace {
        // The `"system"` root, the skipped `"ctrl"` draw and the
        // `"traces"`/`"payloads"` children are kept only so that no pinned
        // golden moves. No other module derives from this chain, so it is
        // no longer a contract between two modules.
        let mut rng = SimRng::from_seed_label(seed, "system");
        let _ = rng.derive("ctrl");
        let gens = workload.generators(rng.derive("traces"));
        let mut payload_root = rng.derive("payloads");
        let sources: Vec<(TraceGenerator, SimRng)> = gens
            .into_iter()
            .enumerate()
            .map(|(core, gen)| (gen, payload_root.derive(&format!("core{core}"))))
            .collect();
        let cores = parallel_map(&sources, workers.min(sources.len()), |(gen, toggles)| {
            let (mut gen, mut toggles) = (gen.clone(), toggles.clone());
            let mut core = CoreStream::default();
            for _ in 0..refs_per_core {
                let r = gen.next_ref();
                let mask = if r.is_write {
                    toggle_mask(&mut toggles, usize::from(r.flip_bits))
                } else {
                    [0u64; MASK_WORDS]
                };
                core.push(&TraceRef {
                    gap: r.gap,
                    vpage: r.vpage,
                    slot: r.slot,
                    is_write: r.is_write,
                    mask,
                });
            }
            core.bytes.shrink_to_fit();
            core
        });
        RefTrace {
            meta: TraceMeta::of(workload, seed, refs_per_core),
            cores,
        }
    }

    /// Number of per-core sequences.
    #[must_use]
    pub fn cores(&self) -> usize {
        self.cores.len()
    }

    /// Core `core`'s references, decoded in program order.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[must_use]
    pub fn refs(&self, core: usize) -> RefCursor<&RefTrace> {
        RefCursor::new(self, core)
    }

    /// Total references across all cores.
    #[must_use]
    pub fn total_refs(&self) -> u64 {
        self.cores.iter().map(|c| c.refs).sum()
    }

    /// Serializes to the versioned on-disk format (magic, schema,
    /// meta, per-core record streams, trailing FNV-1a digest).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u32(u32::from_le_bytes(*b"SDPT"));
        w.put_u32(TRACE_SCHEMA_VERSION);
        w.put_str(&self.meta.workload);
        w.put_u64(self.meta.seed);
        w.put_u64(self.meta.refs_per_core);
        w.put_u32(self.cores.len() as u32);
        for core in &self.cores {
            w.put_u64(core.refs);
            w.put_u64(core.bytes.len() as u64);
            w.put_bytes(&core.bytes);
        }
        w.finish()
    }

    /// Deserializes a trace file, rejecting corruption (bad digest,
    /// truncation, trailing garbage), schema mismatches, and any record
    /// replay could not use. Nothing is allocated beyond the bytes the
    /// file holds, and every record is validated (canonical varints,
    /// slot < 64, complete masks, `refs_per_core` records per core)
    /// before the trace is returned.
    pub fn from_bytes(bytes: &[u8]) -> Result<RefTrace, WireError> {
        let mut r = Reader::checked(bytes)?;
        if r.get_u32()? != u32::from_le_bytes(*b"SDPT") {
            return Err(WireError::WrongSchema);
        }
        if r.get_u32()? != TRACE_SCHEMA_VERSION {
            return Err(WireError::WrongSchema);
        }
        let workload = r.get_str()?;
        let seed = r.get_u64()?;
        let refs_per_core = r.get_u64()?;
        let n_cores = r.get_u32()? as usize;
        if n_cores > 1024 {
            return Err(WireError::Malformed);
        }
        let mut cores = Vec::with_capacity(n_cores);
        for _ in 0..n_cores {
            let refs = r.get_u64()?;
            if refs != refs_per_core {
                return Err(WireError::Malformed);
            }
            let len = usize::try_from(r.get_u64()?).map_err(|_| WireError::Malformed)?;
            cores.push(CoreStream::validated(refs, r.get_bytes(len)?)?);
        }
        if !r.at_end() {
            return Err(WireError::Malformed);
        }
        Ok(RefTrace {
            meta: TraceMeta {
                workload,
                seed,
                refs_per_core,
            },
            cores,
        })
    }
}

/// Draws `flips` payload toggle positions from `rng` into a fresh mask;
/// duplicate positions cancel, exactly like repeated in-place bit flips.
///
/// Each position is `rng.index(512)`. Lemire's reduction never rejects a
/// power-of-two bound, so that is the draw's top nine bits,
/// `next_u64() >> 55`, one draw per position; the draws come from
/// [`SimRng::fill`] in batches of 64, a whole number of its vector
/// passes, so their Philox blocks run side by side. Consumes exactly the
/// draws the one-at-a-time `index(512)` loop would.
#[must_use]
pub fn toggle_mask(rng: &mut SimRng, flips: usize) -> ToggleMask {
    const BATCH: usize = 8 * FILL_PASS;
    let mut mask = [0u64; MASK_WORDS];
    let mut buf = [0u64; BATCH];
    let mut left = flips;
    while left > 0 {
        let n = left.min(BATCH);
        rng.fill(&mut buf[..n]);
        for &x in &buf[..n] {
            let bit = x >> 55;
            mask[(bit / 64) as usize] ^= 1u64 << (bit % 64);
        }
        left -= n;
    }
    mask
}

/// A replay cursor: walks one core's record stream in program order,
/// decoding each record as it is reached. It is the only walker of a
/// trace's streams. `T` holds the trace: `&RefTrace` for
/// [`RefTrace::refs`], `Arc<RefTrace>` for a simulator core that shares
/// one capture with other cells.
#[derive(Debug, Clone)]
pub struct RefCursor<T> {
    trace: T,
    core: usize,
    /// Byte offset of the next record in the core's stream.
    pos: usize,
}

impl<T: Deref<Target = RefTrace>> RefCursor<T> {
    /// A cursor at the first reference of `core`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn new(trace: T, core: usize) -> RefCursor<T> {
        assert!(core < trace.cores(), "core {core} is out of range");
        RefCursor {
            trace,
            core,
            pos: 0,
        }
    }
}

impl<T: Deref<Target = RefTrace>> Iterator for RefCursor<T> {
    type Item = TraceRef;

    #[inline]
    fn next(&mut self) -> Option<TraceRef> {
        let bytes = &self.trace.cores[self.core].bytes;
        if self.pos >= bytes.len() {
            return None;
        }
        let (r, next) = decode_ref(bytes, self.pos).expect("trace streams are well-formed");
        self.pos = next;
        Some(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::BenchKind;

    fn capture_small() -> RefTrace {
        RefTrace::capture(&Workload::homogeneous(BenchKind::Mcf), 0x5d9c, 200)
    }

    #[test]
    fn capture_is_deterministic_and_seed_sensitive() {
        let a = capture_small();
        let b = capture_small();
        assert_eq!(a, b);
        let c = RefTrace::capture(&Workload::homogeneous(BenchKind::Mcf), 0x5d9d, 200);
        assert_ne!(a, c);
        assert_ne!(a.meta.content_key(), c.meta.content_key());
    }

    #[test]
    fn masks_zero_for_reads_nonzero_for_typical_writes() {
        let t = capture_small();
        let mut writes = 0u64;
        for r in (0..t.cores()).flat_map(|c| t.refs(c)) {
            if r.is_write {
                writes += 1;
                assert!(
                    r.mask.iter().any(|&w| w != 0),
                    "a multi-bit store should toggle at least one bit"
                );
            } else {
                assert_eq!(r.mask, [0u64; MASK_WORDS]);
            }
        }
        assert!(writes > 0);
    }

    #[test]
    fn serialization_round_trips() {
        let t = capture_small();
        let bytes = t.to_bytes();
        let back = RefTrace::from_bytes(&bytes).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn corruption_and_schema_drift_are_rejected() {
        let t = capture_small();
        let mut bytes = t.to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(matches!(
            RefTrace::from_bytes(&bytes),
            Err(WireError::DigestMismatch)
        ));
        // A stale schema version re-digested to pass the integrity check
        // must still be rejected.
        let mut stale = t.to_bytes();
        stale.truncate(stale.len() - 8);
        stale[4..8].copy_from_slice(&(TRACE_SCHEMA_VERSION + 1).to_le_bytes());
        let digest = crate::wire::fnv1a(&stale);
        stale.extend_from_slice(&digest.to_le_bytes());
        assert!(matches!(
            RefTrace::from_bytes(&stale),
            Err(WireError::WrongSchema)
        ));
    }

    /// The pre-batching capture, kept as the oracle: walk the capture's
    /// derivation chain, then drain each core's generator one after
    /// another, drawing toggles one `index(512)` at a time, into decoded
    /// records.
    fn serial_oracle(workload: &Workload, seed: u64, refs_per_core: u64) -> Vec<Vec<TraceRef>> {
        let mut rng = SimRng::from_seed_label(seed, "system");
        let _ = rng.derive("ctrl");
        let gens = workload.generators(rng.derive("traces"));
        let mut payload_root = rng.derive("payloads");
        gens.into_iter()
            .enumerate()
            .map(|(core, mut gen)| {
                let mut mask_rng = payload_root.derive(&format!("core{core}"));
                (0..refs_per_core)
                    .map(|_| {
                        let r = gen.next_ref();
                        let mut mask = [0u64; MASK_WORDS];
                        if r.is_write {
                            for _ in 0..r.flip_bits {
                                let bit = mask_rng.index(512);
                                mask[bit / 64] ^= 1u64 << (bit % 64);
                            }
                        }
                        TraceRef {
                            gap: r.gap,
                            vpage: r.vpage,
                            slot: r.slot,
                            is_write: r.is_write,
                            mask,
                        }
                    })
                    .collect()
            })
            .collect()
    }

    fn decoded(t: &RefTrace) -> Vec<Vec<TraceRef>> {
        (0..t.cores()).map(|c| t.refs(c).collect()).collect()
    }

    /// A trace holding exactly `cores` (for wire tests).
    fn trace_of(cores: &[Vec<TraceRef>]) -> RefTrace {
        let refs_per_core = cores.first().map_or(0, |c| c.len() as u64);
        RefTrace {
            meta: TraceMeta {
                workload: "crafted".to_owned(),
                seed: 3,
                refs_per_core,
            },
            cores: cores
                .iter()
                .map(|refs| {
                    let mut core = CoreStream::default();
                    refs.iter().for_each(|r| core.push(r));
                    core
                })
                .collect(),
        }
    }

    fn mixed_workload() -> Workload {
        let profiles = [
            BenchKind::Mcf,
            BenchKind::Lbm,
            BenchKind::Wrf,
            BenchKind::Xalan,
            BenchKind::Stream,
            BenchKind::Bwaves,
            BenchKind::Zeusmp,
            BenchKind::GemsFdtd,
        ]
        .map(BenchKind::profile)
        .to_vec();
        Workload::mixed("mix-capture", profiles)
    }

    #[test]
    fn toggle_mask_matches_the_index_loop() {
        // Counts below, at and past one vector pass and one batch: on a
        // CPU with AVX2 the batches take the vector passes of
        // `SimRng::fill`, with scalar tails.
        for n in [0usize, 1, 7, 8, 9, 63, 64, 65, 130, 512] {
            for seed in 0..4 {
                let mut batched = SimRng::from_seed_label(seed, "toggles");
                let _ = batched.next_u64(); // start mid-stream
                let mut oracle = batched.clone();
                let mut want = [0u64; MASK_WORDS];
                for _ in 0..n {
                    let bit = oracle.index(512);
                    want[bit / 64] ^= 1u64 << (bit % 64);
                }
                assert_eq!(toggle_mask(&mut batched, n), want, "n={n} seed={seed}");
                assert_eq!(batched.next_u64(), oracle.next_u64(), "cursor, n={n}");
            }
        }
    }

    #[test]
    fn capture_matches_the_serial_oracle_at_any_worker_count() {
        let mut workloads: Vec<Workload> = BenchKind::all()
            .into_iter()
            .map(Workload::homogeneous)
            .collect();
        workloads.push(mixed_workload());
        for workload in &workloads {
            let want = serial_oracle(workload, 17, 150);
            for workers in [1, 2, 3, 8] {
                let got = RefTrace::capture_on(workload, 17, 150, workers);
                assert_eq!(
                    decoded(&got),
                    want,
                    "{} at {workers} workers",
                    workload.name()
                );
                assert_eq!(got.total_refs(), 8 * 150);
            }
            assert_eq!(
                RefTrace::capture(workload, 17, 150),
                RefTrace::capture_on(workload, 17, 150, 1)
            );
        }
    }

    /// Capture soak: nine benchmarks × 20 seeds × {1, 2, 8} workers, each
    /// against the serial oracle and through a file round trip.
    #[test]
    #[ignore = "release soak; run with --ignored"]
    fn capture_soak_across_seeds_and_workers() {
        for bench in BenchKind::all() {
            let workload = Workload::homogeneous(bench);
            for seed in 0..20 {
                let want = serial_oracle(&workload, seed, 1_000);
                for workers in [1, 2, 8] {
                    let got = RefTrace::capture_on(&workload, seed, 1_000, workers);
                    assert_eq!(decoded(&got), want, "{bench:?} seed {seed} at {workers}");
                    let back = RefTrace::from_bytes(&got.to_bytes()).unwrap();
                    assert_eq!(back, got, "{bench:?} seed {seed} round trip");
                }
            }
        }
    }

    #[test]
    fn v2_round_trips_extreme_records() {
        let mut mask = [0u64; MASK_WORDS];
        mask[0] = 1;
        mask[7] = u64::MAX;
        let read = |gap, vpage, slot| TraceRef {
            gap,
            vpage,
            slot,
            is_write: false,
            mask: [0; MASK_WORDS],
        };
        let write = |gap, vpage, slot| TraceRef {
            is_write: true,
            mask,
            ..read(gap, vpage, slot)
        };
        let extremes = vec![
            read(u64::MAX, u64::MAX, 63),
            write(u64::MAX, u64::MAX, 63),
            read(0, 0, 0),
            write(0, 0, 0),
            read(0x80, 0x3fff, 1),
            write(1 << 63, (1 << 63) - 1, 62),
        ];
        let reads: Vec<TraceRef> = (0..40)
            .map(|i| read(i * 977, i << 40, (i % 64) as u8))
            .collect();
        let writes: Vec<TraceRef> = (0..40)
            .map(|i| write(u64::MAX - i, i, (63 - i % 64) as u8))
            .collect();
        for cores in [
            vec![extremes.clone(), extremes.iter().rev().copied().collect()],
            vec![reads.clone(), reads],
            vec![writes.clone(), writes],
            vec![Vec::new(); 8],
            Vec::new(),
        ] {
            let t = trace_of(&cores);
            assert_eq!(decoded(&t), cores);
            let back = RefTrace::from_bytes(&t.to_bytes()).unwrap();
            assert_eq!(back, t);
            assert_eq!(decoded(&back), cores);
        }
        // A read of small fields is three bytes; a write adds its mask.
        let t = trace_of(&[vec![read(4, 9, 5), write(4, 9, 5)]]);
        assert_eq!(t.cores[0].bytes.len(), 3 + 3 + 64);
    }

    /// File bytes with a valid digest: header for `cores`, then the
    /// caller's per-core `(refs, declared length, stream)` frames, then
    /// `tail`.
    fn crafted(refs_per_core: u64, frames: &[(u64, u64, &[u8])], tail: &[u8]) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u32(u32::from_le_bytes(*b"SDPT"));
        w.put_u32(TRACE_SCHEMA_VERSION);
        w.put_str("crafted");
        w.put_u64(3);
        w.put_u64(refs_per_core);
        w.put_u32(frames.len() as u32);
        for &(refs, len, stream) in frames {
            w.put_u64(refs);
            w.put_u64(len);
            w.put_bytes(stream);
        }
        w.put_bytes(tail);
        w.finish()
    }

    #[test]
    fn crafted_files_with_valid_digests_are_rejected() {
        use WireError::{Malformed, Truncated};
        // One good read record: gap 4, vpage 9, slot 5.
        let good: &[u8] = &[4, 9, 5];
        let ok = crafted(1, &[(1, 3, good)], &[]);
        assert_eq!(
            decoded(&RefTrace::from_bytes(&ok).unwrap()),
            vec![vec![TraceRef {
                gap: 4,
                vpage: 9,
                slot: 5,
                is_write: false,
                mask: [0; MASK_WORDS],
            }]]
        );
        let mut write_mask_cut = vec![4, 9, 5 | WRITE_FLAG];
        write_mask_cut.extend([0xaa; 63]);
        let cases: Vec<(&str, Vec<u8>, WireError)> = vec![
            // Counts and lengths that would once have sized allocations.
            (
                "2^32 refs",
                crafted(1 << 32, &[(1 << 32, 3, good)], &[]),
                Malformed,
            ),
            (
                "huge length",
                crafted(1, &[(1, u64::MAX, good)], &[]),
                Truncated,
            ),
            (
                "length past the file",
                crafted(1, &[(1, 4, good)], &[]),
                Truncated,
            ),
            // Record contents.
            (
                "slot 64",
                crafted(1, &[(1, 3, &[4, 9, 64])], &[]),
                Malformed,
            ),
            (
                "slot 127 write",
                crafted(1, &[(1, 3, &[4, 9, 0xff])], &[]),
                Malformed,
            ),
            (
                "overlong gap",
                crafted(
                    1,
                    &[(
                        1,
                        13,
                        &[
                            0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02, 9, 5, 0,
                        ],
                    )],
                    &[],
                ),
                Malformed,
            ),
            (
                "non-canonical vpage",
                crafted(1, &[(1, 4, &[4, 0x89, 0x00, 5])], &[]),
                Malformed,
            ),
            (
                "varint cut by the frame",
                crafted(1, &[(1, 2, &[4, 0x89])], &[5]),
                Truncated,
            ),
            (
                "flag byte missing",
                crafted(1, &[(1, 2, &[4, 9])], &[]),
                Truncated,
            ),
            (
                "mask cut short",
                crafted(1, &[(1, 66, &write_mask_cut)], &[]),
                Truncated,
            ),
            // Framing.
            (
                "fewer records than counted",
                crafted(2, &[(2, 3, good)], &[]),
                Malformed,
            ),
            (
                "more records than counted",
                crafted(1, &[(1, 6, &[4, 9, 5, 4, 9, 5])], &[]),
                Malformed,
            ),
            (
                "count differs from quota",
                crafted(2, &[(1, 3, good)], &[]),
                Malformed,
            ),
            (
                "trailing bytes",
                crafted(1, &[(1, 3, good)], &[0]),
                Malformed,
            ),
        ];
        for (what, bytes, want) in cases {
            assert_eq!(RefTrace::from_bytes(&bytes), Err(want), "{what}");
        }
    }

    #[test]
    fn shared_cursor_walks_exactly_the_recorded_stream() {
        let trace = std::sync::Arc::new(RefTrace::capture(
            &Workload::homogeneous(BenchKind::Wrf),
            7,
            5,
        ));
        for core in 0..trace.cores() {
            let mut shared = RefCursor::new(std::sync::Arc::clone(&trace), core);
            let walked: Vec<TraceRef> = shared.by_ref().take(5).collect();
            assert_eq!(walked, trace.refs(core).collect::<Vec<_>>());
            assert_eq!(shared.next(), None, "core {core} ends after its quota");
        }
        let r = std::panic::catch_unwind(|| RefCursor::new(&*trace, trace.cores()));
        assert!(r.is_err(), "a cursor past the last core must not exist");
    }
}
