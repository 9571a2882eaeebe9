//! What the benchmark reads from the host: peak memory, core count,
//! CPU model, cache size, and a fixed ALU calibration loop, so rows
//! from different hosts are never compared blindly.

use std::time::Instant;

/// Peak resident set of this process (`VmHWM`), bytes; 0 where `/proc`
/// is unavailable.
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

/// Cores the OS will schedule this process on.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// CPU model string from `/proc/cpuinfo`, or `unknown`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Size of cpu0's largest cache as sysfs reports it, bytes; 0 when
/// unknown. Under a hypervisor this is the *host's* last-level cache,
/// usually shared with other guests.
pub fn llc_bytes() -> u64 {
    (0..8)
        .filter_map(|i| {
            let size = std::fs::read_to_string(format!(
                "/sys/devices/system/cpu/cpu0/cache/index{i}/size"
            ))
            .ok()?;
            let size = size.trim();
            let (digits, mult) = match size.as_bytes().last()? {
                b'K' => (&size[..size.len() - 1], 1 << 10),
                b'M' => (&size[..size.len() - 1], 1 << 20),
                b'G' => (&size[..size.len() - 1], 1 << 30),
                _ => (size, 1),
            };
            digits.parse::<u64>().ok().map(|n| n * mult)
        })
        .max()
        .unwrap_or(0)
}

/// Rounds of the calibration loop.
pub const CALIBRATION_ROUNDS: u64 = 50_000_000;

/// Milliseconds this host takes for [`CALIBRATION_ROUNDS`] dependent
/// integer multiply/rotate/add steps — a machine-speed unit that does
/// not touch memory.
pub fn calibration_spin_ms() -> f64 {
    let t0 = Instant::now();
    let mut acc = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..CALIBRATION_ROUNDS {
        acc = acc
            .wrapping_mul(0x2545_F491_4F6C_DD1D)
            .rotate_left(23)
            .wrapping_add(i);
    }
    std::hint::black_box(acc);
    t0.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_probes_return_plausible_values() {
        assert!(cores() >= 1);
        assert!(!cpu_model().is_empty());
        if cfg!(target_os = "linux") {
            assert!(peak_rss_bytes() > 0);
        }
    }
}
