//! Resident set of this process, from procfs.

extern "C" {
    /// glibc's `malloc_trim`: hands the allocator's free pages back to
    /// the kernel.
    fn malloc_trim(pad: usize) -> std::ffi::c_int;
}

/// Returns the C allocator's free memory to the kernel, so the resident
/// set holds only memory in use, not what earlier work freed. The global
/// allocator forwards to `System`, which is that allocator.
pub fn trim() {
    // SAFETY: `malloc_trim` takes a plain integer and releases only
    // pages that no live allocation occupies.
    unsafe {
        malloc_trim(0);
    }
}

/// Trims the allocator, then resets the kernel's peak-RSS mark to the
/// current RSS, so the next [`peak_mb`] covers only what follows. An
/// error means the kernel refused, and the peak would cover the whole
/// process lifetime.
pub fn reset_peak() -> std::io::Result<()> {
    trim();
    // Writes procfs state of this process only.
    std::fs::write("/proc/self/clear_refs", "5")
}

/// Peak resident set (`VmHWM`), MB.
pub fn peak_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Current resident set (`VmRSS`), MB.
pub fn current_mb() -> f64 {
    status_mb("VmRSS:")
}

fn status_mb(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
