//! Host fingerprint and process resource readings.
//!
//! Every result is printed next to the host it was measured on, so that
//! numbers from different machines (core count, SIMD tier, memory
//! bandwidth) are never compared as if they were one series.

use std::time::Instant;

/// `nproc`: the parallelism the OS grants this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// STREAM-style triad `a = b + s·c` over three 16 MiB arrays; best of
/// five passes, in GB/s (24 bytes of traffic per element, the STREAM
/// convention).
fn triad_gbps() -> f64 {
    const N: usize = 2 << 20;
    let b = vec![1.5f64; N];
    let c = vec![2.5f64; N];
    let mut a = vec![0.0f64; N];
    let mut best = f64::INFINITY;
    for pass in 0..5 {
        let s = 0.5 + pass as f64;
        let t = Instant::now();
        for ((x, y), z) in a.iter_mut().zip(&b).zip(&c) {
            *x = y + s * z;
        }
        std::hint::black_box(&mut a);
        best = best.min(t.elapsed().as_secs_f64());
    }
    (24 * N) as f64 / best / 1e9
}

/// One-line JSON fingerprint of this host and build.
pub fn fingerprint() -> String {
    format!(
        "{{\"nproc\":{},\"svpar_threads\":{},\"kernel\":\"{}\",\"cpu\":\"{}\",\"triad_gbps\":{:.2}}}",
        nproc(),
        svpar::num_threads(),
        svdist::active_kernel_name(),
        cpu_model().replace('"', "'"),
        triad_gbps()
    )
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// User + system CPU time this process has used, in seconds.
pub fn cpu_seconds() -> f64 {
    // /proc/self/stat: fields 14 and 15 (1-based) are utime and stime in
    // clock ticks; the command name (field 2) may contain spaces, so
    // count from the closing parenthesis.
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else { return 0.0 };
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else { return 0.0 };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    // rest starts at field 3, so utime (14) is index 11, stime (15) index 12.
    (ticks(11) + ticks(12)) / 100.0
}
