//! Small measurement helpers: quantiles, memory high-water marks and the
//! filesystem a path lives on.

use std::path::Path;

/// Linear-interpolated quantile of `samples` (`q` in 0..=1); 0 when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

/// Samples strictly above `value`.
pub fn beyond(samples: &[f64], value: f64) -> usize {
    samples.iter().filter(|&&s| s > value).count()
}

/// `VmHWM` (peak resident set, KiB) of `pid`, or of this process.
pub fn vm_hwm_kb(pid: Option<u32>) -> Option<u64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    /// glibc: returns free memory at the top of every malloc arena to the
    /// kernel.
    fn malloc_trim(pad: usize) -> i32;
}

/// Hands freed heap memory back to the kernel, then resets this
/// process's `VmHWM` to its resident set, so the next reading is the
/// peak of what ran since rather than of the allocator's leftovers.
pub fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: `malloc_trim` takes no pointers from the caller and walks
    // glibc's own arenas under their locks; any thread may call it.
    unsafe {
        malloc_trim(0);
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/self/mountinfo`).
pub fn filesystem_of(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else { return "unknown".into() };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let Some(sep) = fields.iter().position(|f| *f == "-") else { continue };
        let (Some(mount), Some(fstype)) = (fields.get(4), fields.get(sep + 1)) else { continue };
        if path.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), (*fstype).to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, fstype)| fstype)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let samples: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(median(&samples), 3.0);
        assert_eq!(quantile(&samples, 0.25), 2.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(beyond(&samples, 3.0), 2);
        assert!(vm_hwm_kb(None).is_some_and(|kb| kb > 0));
        let grown: Vec<u8> = vec![1; 64 << 20];
        let peak = vm_hwm_kb(None).expect("VmHWM");
        drop(std::hint::black_box(grown));
        reset_peak_rss();
        assert!(vm_hwm_kb(None).expect("VmHWM") < peak);
    }
}
