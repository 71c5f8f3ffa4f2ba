//! What the host says about itself: the result header's fields and the
//! process's peak resident set.

use std::time::{SystemTime, UNIX_EPOCH};

fn proc_field(file: &str, key: &str) -> Option<String> {
    std::fs::read_to_string(file).ok()?.lines().find_map(|l| {
        let (k, v) = l.split_once(':')?;
        (k.trim() == key).then(|| v.trim().to_string())
    })
}

pub fn cpu_model() -> String {
    proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn affinity() -> String {
    proc_field("/proc/self/status", "Cpus_allowed_list").unwrap_or_else(|| "unknown".into())
}

// glibc's wrappers of the two affinity system calls; std links libc.
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pin this process, and every thread it starts from now on, to one of
/// the CPUs it may run on (the highest-numbered: device interrupts land
/// on CPU 0). Returns the CPU, or `None` if the host refused.
///
/// The reference box is a 2-vCPU guest. Waking a thread on the other
/// vCPU goes through the hypervisor and took 40-50 us per channel round
/// trip against 3 us on one vCPU, and moved by half with the host's
/// placement of the vCPUs from one minute to the next: with callers and
/// shard workers spread over both vCPUs the service workloads measured
/// the host's scheduler. On one CPU a hop is a context switch.
pub fn pin_to_one_cpu() -> Option<usize> {
    const WORDS: usize = 16; // cpu_set_t: 1024 bits
    let mut allowed = [0u64; WORDS];
    // SAFETY: the mask is WORDS * 8 bytes long, as passed; pid 0 is the
    // calling thread.
    if unsafe { sched_getaffinity(0, WORDS * 8, allowed.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..WORDS * 64)
        .rev()
        .find(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above; the kernel only reads the mask.
    (unsafe { sched_setaffinity(0, WORDS * 8, one.as_ptr()) } == 0).then_some(cpu)
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let v = proc_field("/proc/self/status", "VmHWM")?;
    let kb: f64 = v.split_whitespace().next()?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The vector extensions this binary was compiled to use: what
/// `-C target-cpu=native` (root `.cargo/config.toml`) resolved to.
pub fn target_features() -> String {
    let mut f = Vec::new();
    if cfg!(target_feature = "sse4.2") {
        f.push("sse4.2");
    }
    if cfg!(target_feature = "avx2") {
        f.push("avx2");
    }
    if cfg!(target_feature = "bmi2") {
        f.push("bmi2");
    }
    if cfg!(target_feature = "avx512f") {
        f.push("avx512f");
    }
    if f.is_empty() {
        "baseline".into()
    } else {
        f.join(",")
    }
}

/// The glibc heap settings in effect (`run.sh` exports them; see there).
pub fn malloc_settings() -> String {
    let var = |k: &str| {
        std::env::var_os(k).map_or("default".into(), |v| v.to_string_lossy().into_owned())
    };
    format!(
        "mmap_threshold={} trim_threshold={} arena_max={}",
        var("MALLOC_MMAP_THRESHOLD_"),
        var("MALLOC_TRIM_THRESHOLD_"),
        var("MALLOC_ARENA_MAX")
    )
}

/// Today's UTC date and time as `YYYY-MM-DD hh:mm:ss`.
pub fn utc_now() -> String {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs() as i64);
    let (days, rem) = (secs.div_euclid(86_400), secs.rem_euclid(86_400));
    // Civil date from days since 1970-01-01 (Howard Hinnant's algorithm).
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!(
        "{year:04}-{month:02}-{day:02} {:02}:{:02}:{:02}",
        rem / 3_600,
        rem % 3_600 / 60,
        rem % 60
    )
}
