#![warn(missing_docs)]

//! Synthetic workload generation for the SD-PCM reproduction.
//!
//! The paper drives its simulator with PIN-captured main-memory reference
//! traces of SPEC2006 and STREAM programs (10 M post-cache references per
//! workload, Table 3 lists each program's RPKI/WPKI). Those traces are
//! not redistributable, so this crate substitutes *statistical trace
//! generators* calibrated to the published per-benchmark read/write
//! intensities, with documented locality and bit-change knobs:
//!
//! * [`profiles`] — one [`profiles::BenchmarkProfile`]
//!   per program with the exact Table 3 RPKI/WPKI, an access pattern, a
//!   (scaled) working-set size, and the mean number of bits a write
//!   flips (gemsFDTD, for example, "changes less bits per write", §6.4).
//! * [`addr`] — address-stream generators: sequential, strided, uniform
//!   random and hot/cold mixtures over a per-core virtual page range.
//! * [`gen`] — the reference generator: an iterator of
//!   [`gen::MemRef`]s with geometric inter-arrival gaps matching
//!   `1000 / (RPKI + WPKI)` instructions between references.
//! * [`workload`] — multi-programmed workloads: eight cores each running
//!   one copy of a program in its own address space, as in §5.2.
//! * [`reftrace`] — capture-once/replay-many: a [`reftrace::RefTrace`]
//!   is the workload's post-cache reference stream recorded per core
//!   (kind, virtual line, instruction gap, payload toggle mask). Capture
//!   is the only place the generators run; the full-system simulator
//!   always replays a capture, shared by every scheme cell of a sweep,
//!   and a [`reftrace::RefCursor`] is the only decoder of its streams.
//! * [`wire`] — the hand-rolled little-endian serialization behind the
//!   on-disk trace cache: length-prefixed fields, a schema version, and
//!   a trailing FNV-1a digest that rejects corrupt or stale files.
//!
//! What the substitution preserves: relative read/write intensity, bank
//! pressure, spatial locality class, and differential-write sizes — the
//! properties the evaluated schemes are sensitive to. Absolute IPC is not
//! comparable to the paper's (see `EXPERIMENTS.md`).

pub mod addr;
pub mod gen;
pub mod profiles;
pub mod reftrace;
pub mod stream;
pub mod wire;
pub mod workload;

pub use addr::{AccessPattern, AddressStream};
pub use gen::{MemRef, TraceGenerator};
pub use profiles::{BenchKind, BenchmarkProfile};
pub use reftrace::{
    toggle_mask, RefCursor, RefTrace, ToggleMask, TraceMeta, TraceRef, TRACE_SCHEMA_VERSION,
};
pub use stream::StreamKernels;
pub use workload::Workload;
