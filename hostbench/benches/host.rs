//! What the benchmark reads about the host and the process: CPU time,
//! peak memory, the CPU model, the core count and the code revision.

use std::time::Duration;

/// `struct rusage` of LP64 Linux: two `timeval`s, then fourteen `long`s
/// of which the first is `ru_maxrss` (KiB).
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kib: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

fn rusage() -> RUsage {
    let mut u = RUsage::default();
    // SAFETY: `u` is a live, writable `struct rusage` of the platform
    // layout above, and RUSAGE_SELF is a valid `who`; the call writes only
    // into `u`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut u) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail on a valid buffer"
    );
    u
}

/// User plus system CPU time of the whole process, every thread included.
pub fn cpu_time() -> Duration {
    let u = rusage();
    let tv = |t: [i64; 2]| Duration::from_secs(t[0] as u64) + Duration::from_micros(t[1] as u64);
    tv(u.utime) + tv(u.stime)
}

/// Peak resident set size of the process so far, in MiB: `VmHWM` from
/// `/proc/self/status`. `ru_maxrss` survives `execve`, so in a process
/// started by a larger parent it reports the parent's size at the fork;
/// it is only the fallback where `/proc` is missing.
pub fn peak_rss_mib() -> f64 {
    let hwm_kib = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        });
    hwm_kib.unwrap_or(rusage().maxrss_kib as f64) / 1024.0
}

/// Hardware threads the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU's brand string, from CPUID leaves 0x8000_0002..=4.
#[cfg(target_arch = "x86_64")]
pub fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    #[allow(unused_unsafe)]
    // SAFETY: CPUID exists on every x86-64 processor, and the extended
    // leaves are read only after leaf 0x8000_0000 reports them.
    let bytes: Vec<u8> = unsafe {
        if __cpuid(0x8000_0000).eax < 0x8000_0004 {
            return "unknown".to_string();
        }
        (0x8000_0002u32..=0x8000_0004)
            .flat_map(|leaf| {
                let r = __cpuid(leaf);
                [r.eax, r.ebx, r.ecx, r.edx]
            })
            .flat_map(u32::to_le_bytes)
            .collect()
    };
    let s = String::from_utf8_lossy(&bytes);
    s.trim_matches(|c: char| c == '\0' || c.is_whitespace())
        .to_string()
}

#[cfg(not(target_arch = "x86_64"))]
pub fn cpu_model() -> String {
    "unknown".to_string()
}

/// The commit checked out in the current directory, read from `.git`
/// at run time; `"unknown"` outside a git checkout.
pub fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}
