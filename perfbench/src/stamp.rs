//! The execution context every result is stamped with. Two runs are
//! comparable only when their stamps are equal: a different executor
//! width, SIMD tier, tile plan, trace mode or WAL filesystem changes
//! the numbers without any code change.

use std::path::Path;

use hpceval_kernels::simd;
use hpceval_kernels::tile::TilePlan;
use serde::Value;

/// The run's context.
#[derive(Debug, Clone, PartialEq)]
pub struct Stamp {
    /// Hardware threads the process may use.
    pub nproc: usize,
    /// Width of the vendored rayon executor.
    pub width: usize,
    /// Resolved SIMD tier.
    pub simd: &'static str,
    /// Active DGEMM tile plan as `mc/kc/nc`.
    pub tile: String,
    /// `HPCEVAL_TRACE` as set in the environment, or `unset`.
    pub hpceval_trace: String,
    /// Filesystem type under the WAL directory.
    pub wal_fs: String,
}

impl Stamp {
    pub fn capture(wal_dir: &Path) -> Stamp {
        let plan = TilePlan::active();
        Stamp {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            width: rayon::current_num_threads(),
            simd: simd::mode().label(),
            tile: format!("{}/{}/{}", plan.mc, plan.kc, plan.nc),
            hpceval_trace: std::env::var("HPCEVAL_TRACE").unwrap_or_else(|_| "unset".into()),
            wal_fs: fs_type(wal_dir).unwrap_or_else(|| "unknown".into()),
        }
    }

    pub fn to_value(&self) -> Value {
        Value::Map(vec![
            ("nproc".into(), Value::UInt(self.nproc as u64)),
            ("width".into(), Value::UInt(self.width as u64)),
            ("simd".into(), Value::Str(self.simd.into())),
            ("tile".into(), Value::Str(self.tile.clone())),
            ("hpceval_trace".into(), Value::Str(self.hpceval_trace.clone())),
            ("wal_fs".into(), Value::Str(self.wal_fs.clone())),
        ])
    }
}

/// The filesystem type of the mount holding `path`: the longest mount
/// point in this process's mount table that is a prefix of it.
fn fs_type(path: &Path) -> Option<String> {
    let path = path.canonicalize().ok()?;
    let table = std::fs::read_to_string("/proc/self/mountinfo").ok()?;
    table
        .lines()
        .filter_map(|line| {
            let (left, right) = line.split_once(" - ")?;
            let mount = left.split(' ').nth(4)?;
            let fs = right.split(' ').next()?;
            path.starts_with(mount).then(|| (mount.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs)| fs)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Reset the peak resident set size to the current one, so that a later
/// `peak_rss_mb` sees only what came after. Linux only.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("resetting the peak RSS: /proc/self/clear_refs: {e}"))
}
