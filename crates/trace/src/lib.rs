//! Sampled address-trace capture and trace-driven cache replay.
//!
//! The paper's §VI regression trains on PMU counters; this crate closes
//! the loop between the kernel implementations and those counters:
//!
//! ```text
//! kernel hot loop ──hooks──▶ Trace ──replay──▶ TraceCounters ──bridge──▶ PmuCounters
//! ```
//!
//! * [`capture`] — near-zero-cost instrumentation hooks the kernel
//!   crates call from their chunked hot loops, scoped to the call tree
//!   of the thread that started the capture; a deterministic
//!   splitmix64 chunk sampler; per-chunk bounded event rings merged
//!   into a [`capture::Trace`] in width-invariant order; a compact
//!   delta/varint wire format,
//! * [`event`] — block-descriptor events (base/stride/count over
//!   *logical* addresses) and the varint/zigzag primitives,
//! * [`replay`] — drives a trace through the `hpceval-machine`
//!   write-back hierarchy (victim cache and way prediction optional)
//!   and bridges the resulting counters back into locality profiles
//!   and the paper's X1..X6 vector,
//! * [`ring`] — the bounded ring the per-chunk logs use.
//!
//! This crate sits *below* `hpceval-kernels` in the dependency graph
//! (kernels call the hooks), which is why it cannot reuse the telemetry
//! crate's ring buffer: telemetry depends on kernels.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod capture;
pub mod event;
pub mod replay;
pub mod ring;

pub use capture::{
    hooks, splitmix64, CaptureConfig, CaptureGuard, ChunkTrace, DecodeError, Region, Trace,
    TraceMode,
};
pub use event::{AccessKind, TraceEvent};
pub use replay::{replay, ReplayOptions, TraceCounters};
pub use ring::TraceRing;
