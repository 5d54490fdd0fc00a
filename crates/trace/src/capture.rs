//! Deterministic sampled trace capture.
//!
//! ## Why chunk-keyed logs
//!
//! The kernels run their hot loops over *fixed-size chunks* whose
//! decomposition never depends on the worker count (that invariant is
//! what makes their floating-point results bitwise identical at any
//! `HPCEVAL_THREADS`). Capture rides the same invariant: each recorded
//! event carries the width-invariant id of the chunk that produced it,
//! events land in a per-chunk log owned by exactly one worker at a time,
//! and [`CaptureGuard::finish`] merges the logs in ascending chunk-id
//! order. The resulting byte stream is independent of thread count and
//! scheduling.
//!
//! ## Why chunk-granular sampling
//!
//! Sampling whole chunks (rather than individual accesses) keeps the
//! hot-loop cost to one hash per chunk when tracing is enabled and one
//! branch when it is not. The decision is the pure function
//! `splitmix64(seed ⊕ region ⊕ chunk) mod k == 0`, so the same chunks
//! are kept on every run, at every width, on every machine.
//!
//! ## Why call-tree scope
//!
//! A session belongs to the thread that started it: [`CaptureGuard`]
//! installs it in a thread-local scope, and a kernel reads that scope
//! once at its entry ([`hooks::current`]) and hands the resulting
//! [`hooks::Tracer`] to its parallel closures. So exactly the kernels
//! called under the guard are recorded — an uncaptured kernel on
//! another thread cannot write into a live trace, and sessions on
//! different threads run side by side. This is the rule the pool width
//! and the SIMD mode follow too: the explicit scope on the calling
//! thread wins, and kernels carry what they read at entry into their
//! workers.
//!
//! ## Bounded memory
//!
//! Each chunk log is a fixed-capacity ring (the PR-1 telemetry
//! discipline): a chunk that overflows its ring drops its *oldest*
//! events and counts them, so a runaway kernel degrades the trace
//! instead of eating the heap.

use std::cell::RefCell;
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::event::{
    get_uvarint, put_uvarint, zigzag_decode, zigzag_encode, AccessKind, TraceEvent,
};
use crate::ring::TraceRing;

/// Capture intensity, normally read from `HPCEVAL_TRACE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceMode {
    /// No capture; hooks cost one branch per chunk.
    #[default]
    Off,
    /// Record a deterministic 1-in-k subset of chunks.
    Sampled,
    /// Record every chunk.
    Full,
}

impl TraceMode {
    /// Parse `off`/`sampled`/`full` (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "0" | "" => Some(TraceMode::Off),
            "sampled" | "sample" => Some(TraceMode::Sampled),
            "full" => Some(TraceMode::Full),
            _ => None,
        }
    }

    /// Read `HPCEVAL_TRACE` (unset or unparsable ⇒ `Off`).
    pub fn from_env() -> Self {
        std::env::var("HPCEVAL_TRACE")
            .ok()
            .and_then(|v| Self::parse(&v))
            .unwrap_or_default()
    }

    /// Wire tag.
    pub fn tag(self) -> u8 {
        match self {
            TraceMode::Off => 0,
            TraceMode::Sampled => 1,
            TraceMode::Full => 2,
        }
    }

    /// Inverse of [`TraceMode::tag`].
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(TraceMode::Off),
            1 => Some(TraceMode::Sampled),
            2 => Some(TraceMode::Full),
            _ => None,
        }
    }

    /// Lower-case name (the `HPCEVAL_TRACE` vocabulary).
    pub fn name(self) -> &'static str {
        match self {
            TraceMode::Off => "off",
            TraceMode::Sampled => "sampled",
            TraceMode::Full => "full",
        }
    }
}

/// The instrumented kernel a capture session targets. Hooks from other
/// regions are ignored while the session runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Region {
    /// HPCC DGEMM (blocked matrix multiply).
    Dgemm,
    /// HPCC STREAM (copy/scale/add/triad).
    Stream,
    /// NPB CG (sparse matrix-vector conjugate gradient).
    Cg,
    /// NPB MG (multigrid V-cycles).
    Mg,
    /// NPB IS (integer bucket sort).
    Is,
    /// HPCC RandomAccess (GUPS table updates).
    RandomAccess,
    /// NPB FT (3-D FFT dimension passes).
    Ft,
    /// HPL blocked LU factorization (panel / U-row / trailing update).
    Hpl,
    /// NPB EP (Marsaglia polar Gaussian pairs).
    Ep,
    /// NPB SP (scalar-pentadiagonal ADI line solves).
    Sp,
    /// NPB BT (block-tridiagonal ADI line solves).
    Bt,
    /// NPB LU (SSOR lower/upper triangular sweeps).
    Lu,
}

impl Region {
    /// All instrumented regions, in wire-tag order.
    pub const ALL: [Region; 12] = [
        Region::Dgemm,
        Region::Stream,
        Region::Cg,
        Region::Mg,
        Region::Is,
        Region::RandomAccess,
        Region::Ft,
        Region::Hpl,
        Region::Ep,
        Region::Sp,
        Region::Bt,
        Region::Lu,
    ];

    /// Wire tag (stable across versions).
    pub fn tag(self) -> u8 {
        match self {
            Region::Dgemm => 1,
            Region::Stream => 2,
            Region::Cg => 3,
            Region::Mg => 4,
            Region::Is => 5,
            Region::RandomAccess => 6,
            Region::Ft => 7,
            Region::Hpl => 8,
            Region::Ep => 9,
            Region::Sp => 10,
            Region::Bt => 11,
            Region::Lu => 12,
        }
    }

    /// Inverse of [`Region::tag`].
    pub fn from_tag(tag: u8) -> Option<Self> {
        Region::ALL.into_iter().find(|r| r.tag() == tag)
    }

    /// Kernel id as the CLI and benchmark suite spell it.
    pub fn name(self) -> &'static str {
        match self {
            Region::Dgemm => "dgemm",
            Region::Stream => "stream",
            Region::Cg => "cg",
            Region::Mg => "mg",
            Region::Is => "is",
            Region::RandomAccess => "randomaccess",
            Region::Ft => "ft",
            Region::Hpl => "hpl",
            Region::Ep => "ep",
            Region::Sp => "sp",
            Region::Bt => "bt",
            Region::Lu => "lu",
        }
    }

    /// Parse a kernel id (the [`Region::name`] vocabulary).
    pub fn parse(s: &str) -> Option<Self> {
        let s = s.trim().to_ascii_lowercase();
        Region::ALL.into_iter().find(|r| r.name() == s)
    }
}

/// splitmix64: the sampling hash. Pure, so the kept-chunk set is a
/// function of (seed, region, chunk) only — never of threads or timing.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Default seed for capture sessions (any fixed value works; changing
/// it selects a different deterministic chunk subset).
pub const DEFAULT_SEED: u64 = 0x4850_4345_5641_4c31; // "HPCEVAL1"

/// Default 1-in-k chunk sampling rate for [`TraceMode::Sampled`].
pub const DEFAULT_SAMPLE_ONE_IN: u32 = 8;

/// Default per-chunk event-ring capacity.
pub const DEFAULT_CHUNK_CAPACITY: usize = 4096;

const SHARDS: usize = 64;

/// Capture-session parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CaptureConfig {
    /// Sampling intensity ([`TraceMode::Off`] yields no session).
    pub mode: TraceMode,
    /// Sampling seed; the kept-chunk subset is a pure function of it.
    pub seed: u64,
    /// Keep 1 chunk in this many under [`TraceMode::Sampled`].
    pub sample_one_in: u32,
    /// Event-ring capacity per chunk (oldest events drop beyond it).
    pub chunk_capacity: usize,
}

impl Default for CaptureConfig {
    fn default() -> Self {
        Self {
            mode: TraceMode::Sampled,
            seed: DEFAULT_SEED,
            sample_one_in: DEFAULT_SAMPLE_ONE_IN,
            chunk_capacity: DEFAULT_CHUNK_CAPACITY,
        }
    }
}

impl CaptureConfig {
    /// The default configuration with the mode taken from
    /// `HPCEVAL_TRACE`.
    pub fn from_env() -> Self {
        Self { mode: TraceMode::from_env(), ..Self::default() }
    }
}

/// Bit position of the epoch counter inside a stored chunk id. Kernel
/// chunk ids must stay below `1 << EPOCH_SHIFT`; the largest in the
/// tree today is MG's `(edge << 32) | plane` (≈ 2^38).
const EPOCH_SHIFT: u32 = 44;

/// The state of one live session, shared by the guard and the
/// [`hooks::Tracer`]s taken under it.
#[derive(Debug)]
struct ActiveCapture {
    region: Region,
    mode: TraceMode,
    seed: u64,
    sample_one_in: u32,
    chunk_capacity: usize,
    /// Pass counter ([`hooks::Tracer::begin_epoch`]): kernels that run their
    /// traced loop more than once per capture (CG's per-iteration
    /// matvec, STREAM's repeated ops, MG's V-cycles) bump this at each
    /// serial entry so every pass gets distinct chunk ids. Without it,
    /// all passes of a chunk would share one ring and replay as a
    /// single burst — fabricating temporal locality the execution
    /// never had.
    epoch: AtomicU64,
    shards: Vec<Mutex<HashMap<u64, TraceRing<TraceEvent>>>>,
}

impl ActiveCapture {
    /// The stored chunk id: epoch in the high bits, so ascending-id
    /// replay is execution order across passes.
    fn full_id(&self, chunk: u64) -> u64 {
        (self.epoch.load(Ordering::Relaxed) << EPOCH_SHIFT) | chunk
    }

    fn samples(&self, full_id: u64) -> bool {
        match self.mode {
            TraceMode::Off => false,
            TraceMode::Full => true,
            TraceMode::Sampled => {
                let key = self.seed ^ (u64::from(self.region.tag()) << 56) ^ full_id;
                splitmix64(key).is_multiple_of(u64::from(self.sample_one_in.max(1)))
            }
        }
    }

    fn push(&self, full_id: u64, event: TraceEvent) {
        let shard = &self.shards[(full_id % SHARDS as u64) as usize];
        let mut map = shard.lock();
        map.entry(full_id)
            .or_insert_with(|| TraceRing::new(self.chunk_capacity))
            .push(event);
    }
}

thread_local! {
    /// The innermost live session started on this thread: the capture
    /// scope of every kernel this thread enters while it is set.
    static SCOPE: RefCell<Option<Arc<ActiveCapture>>> = const { RefCell::new(None) };
}

/// Instrumentation hooks the kernel crates call. A kernel takes one
/// [`Tracer`] at its public entry, on the caller's thread, and shares
/// it with its parallel closures; everything is a no-op unless a
/// [`CaptureGuard`] for the kernel's region is live on that thread.
pub mod hooks {
    use super::*;

    /// The capture scope for `region` on the calling thread. Call once
    /// per kernel entry, outside any parallel section: worker threads
    /// never consult the scope, so a capture covers exactly the call
    /// tree that started it.
    pub fn current(region: Region) -> Tracer {
        Tracer(SCOPE.with(|s| s.borrow().as_ref().filter(|c| c.region == region).cloned()))
    }

    /// One kernel call's view of the capture scope (empty when nothing
    /// is captured, which costs one branch per chunk).
    #[derive(Debug)]
    pub struct Tracer(Option<Arc<ActiveCapture>>);

    impl Tracer {
        /// Mark a serial point between traced passes (kernel entry, outer
        /// iteration boundary). Must be called outside any parallel
        /// section, so the epoch sequence is deterministic regardless of
        /// worker count. Kernels that run their traced loop once per
        /// capture may skip it.
        pub fn begin_epoch(&self) {
            if let Some(c) = &self.0 {
                c.epoch.fetch_add(1, Ordering::Relaxed);
            }
        }

        /// The recorder for `chunk`, when a session is live and its
        /// sampler keeps the chunk. Call once per chunk, then emit the
        /// chunk's events through it.
        #[inline]
        pub fn chunk(&self, chunk: u64) -> Option<ChunkRecorder<'_>> {
            let capture = self.0.as_deref()?;
            let id = capture.full_id(chunk);
            capture.samples(id).then_some(ChunkRecorder { capture, id })
        }
    }

    /// The event sink of one sampled chunk.
    #[derive(Debug)]
    pub struct ChunkRecorder<'a> {
        capture: &'a ActiveCapture,
        id: u64,
    }

    impl ChunkRecorder<'_> {
        /// Record one access burst.
        pub fn record(&self, kind: AccessKind, base: u64, stride: u32, count: u32) {
            if count > 0 {
                self.capture.push(self.id, TraceEvent { kind, base, stride, count });
            }
        }
    }
}

/// A live capture session. Created by [`CaptureGuard::start`]; run the
/// kernel on the same thread while it is alive, then call
/// [`CaptureGuard::finish`] to get the merged [`Trace`]. Dropping
/// without finishing discards the data. The guard is tied to its
/// thread (`!Send`); guards on one thread nest and must end in reverse
/// order of their starts.
///
/// ```compile_fail
/// use hpceval_trace::{CaptureConfig, CaptureGuard, Region};
/// fn send<T: Send>(_: T) {}
/// send(CaptureGuard::start(Region::Cg, CaptureConfig::default()));
/// ```
pub struct CaptureGuard {
    capture: Arc<ActiveCapture>,
    /// The session this one shadows, restored on finish or drop.
    outer: Option<Arc<ActiveCapture>>,
    _thread_bound: PhantomData<*const ()>,
}

impl CaptureGuard {
    /// Begin capturing `region` with `config` for kernels entered on
    /// the calling thread. Returns `None` when the mode is
    /// [`TraceMode::Off`]. Sessions on other threads run independently;
    /// a session started while another is live on this thread shadows
    /// it until it ends.
    pub fn start(region: Region, config: CaptureConfig) -> Option<Self> {
        if config.mode == TraceMode::Off {
            return None;
        }
        let capture = Arc::new(ActiveCapture {
            region,
            mode: config.mode,
            seed: config.seed,
            sample_one_in: config.sample_one_in.max(1),
            chunk_capacity: config.chunk_capacity.max(1),
            epoch: AtomicU64::new(0),
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
        });
        let outer = SCOPE.with(|s| s.replace(Some(Arc::clone(&capture))));
        Some(Self { capture, outer, _thread_bound: PhantomData })
    }

    /// Stop capturing and merge the per-chunk logs (ascending chunk id)
    /// into a [`Trace`].
    pub fn finish(self) -> Trace {
        let capture = Arc::clone(&self.capture);
        drop(self);
        // The kernels that recorded have returned; drain the shards.
        let mut chunks: Vec<ChunkTrace> = Vec::new();
        let mut dropped = 0u64;
        for shard in &capture.shards {
            let mut map = shard.lock();
            for (id, ring) in map.drain() {
                dropped += ring.evicted();
                chunks.push(ChunkTrace { id, events: ring.into_vec() });
            }
        }
        chunks.sort_unstable_by_key(|c| c.id);
        Trace {
            region: capture.region,
            mode: capture.mode,
            seed: capture.seed,
            sample_one_in: capture.sample_one_in,
            chunks,
            dropped,
        }
    }
}

impl Drop for CaptureGuard {
    fn drop(&mut self) {
        let outer = self.outer.take();
        // A guard dropped during thread teardown has no scope left to
        // restore.
        let _ = SCOPE.try_with(|s| *s.borrow_mut() = outer);
    }
}

/// The events one chunk produced, in emission order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkTrace {
    /// Width-invariant chunk id.
    pub id: u64,
    /// Recorded bursts, oldest first.
    pub events: Vec<TraceEvent>,
}

/// A finished, merged capture: the unit the replay driver, the CLI and
/// the wire format all operate on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// The instrumented kernel.
    pub region: Region,
    /// The sampling intensity the capture ran at.
    pub mode: TraceMode,
    /// The sampling seed.
    pub seed: u64,
    /// The 1-in-k rate ([`TraceMode::Sampled`] only; 1 under `Full`).
    pub sample_one_in: u32,
    /// Per-chunk logs in ascending chunk-id order.
    pub chunks: Vec<ChunkTrace>,
    /// Events lost to per-chunk ring overflow.
    pub dropped: u64,
}

const MAGIC: &[u8; 4] = b"HPTR";
const VERSION: u8 = 1;

/// Why a byte stream failed to decode as a [`Trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Too few bytes for the structure declared so far.
    Truncated,
    /// The stream does not start with `HPTR`.
    BadMagic,
    /// A newer (or corrupt) format version.
    BadVersion(u8),
    /// An unknown region, mode or kind tag.
    BadTag(u8),
    /// Trailing bytes after the declared structure.
    TrailingBytes,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "trace truncated"),
            DecodeError::BadMagic => write!(f, "not a trace (bad magic)"),
            DecodeError::BadVersion(v) => write!(f, "unsupported trace version {v}"),
            DecodeError::BadTag(t) => write!(f, "unknown tag {t}"),
            DecodeError::TrailingBytes => write!(f, "trailing bytes after trace"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl Trace {
    /// Number of recorded bursts.
    pub fn total_events(&self) -> u64 {
        self.chunks.iter().map(|c| c.events.len() as u64).sum()
    }

    /// Number of individual addresses the bursts expand to.
    pub fn total_accesses(&self) -> u64 {
        self.chunks.iter().flat_map(|c| &c.events).map(TraceEvent::len).sum()
    }

    /// `(read_accesses, write_accesses)` after expansion.
    pub fn access_split(&self) -> (u64, u64) {
        let mut reads = 0;
        let mut writes = 0;
        for e in self.chunks.iter().flat_map(|c| &c.events) {
            match e.kind {
                AccessKind::Read => reads += e.len(),
                AccessKind::Write => writes += e.len(),
            }
        }
        (reads, writes)
    }

    /// Serialize to the compact wire format: header, then per chunk a
    /// varint id delta and its events as (kind byte, zigzag base delta,
    /// stride, count) varints. Base deltas reset at chunk boundaries.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 + self.chunks.len() * 16);
        out.extend_from_slice(MAGIC);
        out.push(VERSION);
        out.push(self.region.tag());
        out.push(self.mode.tag());
        out.extend_from_slice(&self.seed.to_le_bytes());
        put_uvarint(&mut out, u64::from(self.sample_one_in));
        put_uvarint(&mut out, self.dropped);
        put_uvarint(&mut out, self.chunks.len() as u64);
        let mut prev_id = 0u64;
        for chunk in &self.chunks {
            // Chunk ids ascend, so the delta is non-negative — but the
            // first one is absolute, and zigzag keeps it general.
            put_uvarint(&mut out, zigzag_encode(chunk.id.wrapping_sub(prev_id) as i64));
            prev_id = chunk.id;
            put_uvarint(&mut out, chunk.events.len() as u64);
            let mut prev_base = 0u64;
            for e in &chunk.events {
                out.push(e.kind.tag());
                put_uvarint(&mut out, zigzag_encode(e.base.wrapping_sub(prev_base) as i64));
                prev_base = e.base;
                put_uvarint(&mut out, u64::from(e.stride));
                put_uvarint(&mut out, u64::from(e.count));
            }
        }
        out
    }

    /// Inverse of [`Trace::encode`].
    pub fn decode(buf: &[u8]) -> Result<Self, DecodeError> {
        use DecodeError::*;
        if buf.len() < 4 {
            return Err(Truncated);
        }
        if &buf[..4] != MAGIC {
            return Err(BadMagic);
        }
        let mut pos = 4usize;
        let byte = |pos: &mut usize| -> Result<u8, DecodeError> {
            let b = *buf.get(*pos).ok_or(Truncated)?;
            *pos += 1;
            Ok(b)
        };
        let version = byte(&mut pos)?;
        if version != VERSION {
            return Err(BadVersion(version));
        }
        let rtag = byte(&mut pos)?;
        let region = Region::from_tag(rtag).ok_or(BadTag(rtag))?;
        let mtag = byte(&mut pos)?;
        let mode = TraceMode::from_tag(mtag).ok_or(BadTag(mtag))?;
        if pos + 8 > buf.len() {
            return Err(Truncated);
        }
        let seed = u64::from_le_bytes(buf[pos..pos + 8].try_into().expect("8 bytes"));
        pos += 8;
        let varint = |pos: &mut usize| get_uvarint(buf, pos).ok_or(Truncated);
        let sample_one_in = u32::try_from(varint(&mut pos)?).map_err(|_| Truncated)?;
        let dropped = varint(&mut pos)?;
        let chunk_count = varint(&mut pos)?;
        let mut chunks = Vec::new();
        let mut prev_id = 0u64;
        for _ in 0..chunk_count {
            let id = prev_id.wrapping_add(zigzag_decode(varint(&mut pos)?) as u64);
            prev_id = id;
            let event_count = varint(&mut pos)?;
            let mut events = Vec::with_capacity(event_count.min(4096) as usize);
            let mut prev_base = 0u64;
            for _ in 0..event_count {
                let ktag = byte(&mut pos)?;
                let kind = AccessKind::from_tag(ktag).ok_or(BadTag(ktag))?;
                let base = prev_base.wrapping_add(zigzag_decode(varint(&mut pos)?) as u64);
                prev_base = base;
                let stride = u32::try_from(varint(&mut pos)?).map_err(|_| Truncated)?;
                let count = u32::try_from(varint(&mut pos)?).map_err(|_| Truncated)?;
                events.push(TraceEvent { kind, base, stride, count });
            }
            chunks.push(ChunkTrace { id, events });
        }
        if pos != buf.len() {
            return Err(TrailingBytes);
        }
        Ok(Trace { region, mode, seed, sample_one_in, chunks, dropped })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn capture_two_chunks(mode: TraceMode) -> Trace {
        let guard = CaptureGuard::start(
            Region::Stream,
            CaptureConfig { mode, seed: 7, sample_one_in: 2, chunk_capacity: 16 },
        )
        .expect("mode is not Off");
        let tracer = hooks::current(Region::Stream);
        for chunk in 0..8u64 {
            if let Some(tr) = tracer.chunk(chunk) {
                tr.record(AccessKind::Read, chunk * 4096, 8, 64);
                tr.record(AccessKind::Write, chunk * 4096 + 1024, 8, 64);
            }
        }
        guard.finish()
    }

    #[test]
    fn off_mode_yields_no_session() {
        assert!(CaptureGuard::start(
            Region::Dgemm,
            CaptureConfig { mode: TraceMode::Off, ..CaptureConfig::default() }
        )
        .is_none());
        assert!(hooks::current(Region::Dgemm).chunk(0).is_none());
    }

    #[test]
    fn full_mode_keeps_every_chunk() {
        let t = capture_two_chunks(TraceMode::Full);
        assert_eq!(t.chunks.len(), 8);
        assert_eq!(t.total_events(), 16);
        assert_eq!(t.total_accesses(), 16 * 64);
        let ids: Vec<u64> = t.chunks.iter().map(|c| c.id).collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "chunks sorted: {ids:?}");
    }

    #[test]
    fn sampled_mode_keeps_a_deterministic_subset() {
        let a = capture_two_chunks(TraceMode::Sampled);
        let b = capture_two_chunks(TraceMode::Sampled);
        assert_eq!(a, b, "same seed, same subset, same bytes");
        assert!(a.chunks.len() < 8, "1-in-2 sampling must drop chunks");
        assert!(!a.chunks.is_empty(), "and keep some");
        // Every kept chunk is one the sampler selects.
        for c in &a.chunks {
            let key = 7u64 ^ (u64::from(Region::Stream.tag()) << 56) ^ c.id;
            assert_eq!(splitmix64(key) % 2, 0, "chunk {} not sampler-selected", c.id);
        }
    }

    #[test]
    fn hooks_ignore_other_regions() {
        let guard = CaptureGuard::start(
            Region::Cg,
            CaptureConfig { mode: TraceMode::Full, ..Default::default() },
        )
        .unwrap();
        assert!(hooks::current(Region::Mg).chunk(0).is_none());
        assert!(hooks::current(Region::Cg).chunk(0).is_some());
        let t = guard.finish();
        assert_eq!(t.total_events(), 0);
    }

    fn live(region: Region) -> bool {
        hooks::current(region).chunk(0).is_some()
    }

    fn full() -> CaptureConfig {
        CaptureConfig { mode: TraceMode::Full, ..Default::default() }
    }

    #[test]
    fn hooks_disabled_after_finish_and_after_drop() {
        let g = CaptureGuard::start(Region::Is, full()).unwrap();
        assert!(live(Region::Is));
        let _ = g.finish();
        assert!(!live(Region::Is));

        let g = CaptureGuard::start(Region::Is, full()).unwrap();
        assert!(live(Region::Is));
        drop(g); // early drop, no finish
        assert!(!live(Region::Is));
    }

    #[test]
    fn scope_is_the_starting_thread() {
        let g = CaptureGuard::start(Region::Is, full()).unwrap();
        let tracer = hooks::current(Region::Is);
        std::thread::scope(|s| {
            s.spawn(|| {
                // Another thread sees no session, but a handle taken
                // on the capturing thread records from anywhere.
                assert!(!live(Region::Is));
                tracer.chunk(3).unwrap().record(AccessKind::Read, 0, 8, 4);
            });
        });
        let t = g.finish();
        assert_eq!(t.chunks.len(), 1);
        assert_eq!(t.chunks[0].id, 3);
    }

    #[test]
    fn nested_sessions_shadow_and_restore() {
        let outer = CaptureGuard::start(Region::Cg, full()).unwrap();
        hooks::current(Region::Cg).chunk(1).unwrap().record(AccessKind::Read, 0, 8, 1);
        let inner = CaptureGuard::start(Region::Cg, full()).unwrap();
        hooks::current(Region::Cg).chunk(2).unwrap().record(AccessKind::Read, 0, 8, 1);
        let inner = inner.finish();
        hooks::current(Region::Cg).chunk(3).unwrap().record(AccessKind::Read, 0, 8, 1);
        let outer = outer.finish();
        let ids = |t: &Trace| t.chunks.iter().map(|c| c.id).collect::<Vec<_>>();
        assert_eq!(ids(&inner), [2]);
        assert_eq!(ids(&outer), [1, 3]);
        assert!(!live(Region::Cg));
    }

    #[test]
    fn chunk_ring_drops_oldest_and_counts() {
        let guard = CaptureGuard::start(
            Region::RandomAccess,
            CaptureConfig { mode: TraceMode::Full, chunk_capacity: 4, ..Default::default() },
        )
        .unwrap();
        let tracer = hooks::current(Region::RandomAccess);
        let tr = tracer.chunk(0).unwrap();
        for i in 0..10u32 {
            tr.record(AccessKind::Read, u64::from(i) * 64, 0, 1);
        }
        let t = guard.finish();
        assert_eq!(t.dropped, 6);
        assert_eq!(t.chunks[0].events.len(), 4);
        // The newest events survive.
        assert_eq!(t.chunks[0].events[0].base, 6 * 64);
    }

    #[test]
    fn encode_decode_round_trips() {
        let t = capture_two_chunks(TraceMode::Full);
        let bytes = t.encode();
        let back = Trace::decode(&bytes).expect("round trip");
        assert_eq!(t, back);
        // Compactness: two 17-byte descriptors per chunk shrink well.
        assert!(bytes.len() < 16 * 12 + 32, "{} bytes for 16 events is not compact", bytes.len());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(Trace::decode(b"HP"), Err(DecodeError::Truncated));
        assert_eq!(Trace::decode(b"NOPE\x01\x01\x01"), Err(DecodeError::BadMagic));
        let t = capture_two_chunks(TraceMode::Full);
        let mut bytes = t.encode();
        bytes[4] = 9; // version
        assert_eq!(Trace::decode(&bytes), Err(DecodeError::BadVersion(9)));
        let mut bytes = t.encode();
        bytes.truncate(bytes.len() - 1);
        assert_eq!(Trace::decode(&bytes), Err(DecodeError::Truncated));
        let mut bytes = t.encode();
        bytes.push(0);
        assert_eq!(Trace::decode(&bytes), Err(DecodeError::TrailingBytes));
    }

    #[test]
    fn mode_and_region_parse() {
        assert_eq!(TraceMode::parse("SAMPLED"), Some(TraceMode::Sampled));
        assert_eq!(TraceMode::parse("off"), Some(TraceMode::Off));
        assert_eq!(TraceMode::parse("full"), Some(TraceMode::Full));
        assert_eq!(TraceMode::parse("banana"), None);
        for r in Region::ALL {
            assert_eq!(Region::parse(r.name()), Some(r));
            assert_eq!(Region::from_tag(r.tag()), Some(r));
        }
        assert_eq!(Region::parse("ua"), None, "uninstrumented kernels stay unparseable");
    }
}
