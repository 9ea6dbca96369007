//! The host record: what the machine was doing while the benchmark ran,
//! read from `/proc`. None of these numbers is a result; they explain a
//! run that drifts (a busy neighbour shows as run-queue wait, a slower
//! host as the same CPU seconds taking longer wall time).
//!
//! Each parser takes the file's text so it can be tested on fixed input.

use std::collections::BTreeMap;
use std::sync::Mutex;

/// Clock ticks per second of the `utime`/`stime` fields in
/// `/proc/<pid>/stat` (`USER_HZ`, fixed at 100 by the Linux ABI).
const USER_HZ: f64 = 100.0;

/// `VmHWM` (peak resident set) from `/proc/self/status`, in MiB.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let kb: f64 = parts.next()?.parse().ok()?;
    (parts.next()? == "kB").then_some(kb / 1024.0)
}

/// User plus system CPU seconds of every thread, live or exited, from
/// `/proc/self/stat`. The command name in parentheses may contain
/// spaces, so fields are counted after its closing parenthesis.
pub fn parse_stat_cpu_s(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the name: state is field 3 of the full line, utime 14, stime 15.
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// `(on-CPU seconds, run-queue wait seconds)` from a task's
/// `schedstat`.
pub fn parse_schedstat(text: &str) -> Option<(f64, f64)> {
    let mut parts = text.split_whitespace();
    let run: f64 = parts.next()?.parse().ok()?;
    let wait: f64 = parts.next()?.parse().ok()?;
    Some((run * 1e-9, wait * 1e-9))
}

/// Seconds the hypervisor ran other guests while this machine's CPUs
/// wanted to run (`steal`, the eighth value of the `cpu` line of
/// `/proc/stat`, summed over all CPUs).
pub fn parse_steal_s(stat: &str) -> Option<f64> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let steal: f64 = line.split_whitespace().nth(8)?.parse().ok()?;
    Some(steal / USER_HZ)
}

/// One-minute load average from `/proc/loadavg`.
pub fn parse_loadavg(text: &str) -> Option<f64> {
    text.split_whitespace().next()?.parse().ok()
}

/// The first `model name` in `/proc/cpuinfo`.
pub fn parse_cpu_model(cpuinfo: &str) -> Option<String> {
    cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

/// Latest `schedstat` reading of each thread that called
/// [`note_thread`], keyed by the kernel's thread id. A thread's reading
/// is cumulative, so the last one stands for the whole thread even after
/// it exits and its `/proc` entry disappears.
static THREADS: Mutex<BTreeMap<String, (f64, f64)>> = Mutex::new(BTreeMap::new());

/// Machine-wide steal time when the process started reading it.
static STEAL_AT_START: Mutex<Option<f64>> = Mutex::new(None);

fn steal_now() -> f64 {
    read("/proc/stat").as_deref().and_then(parse_steal_s).unwrap_or(0.0)
}

/// Marks the start of the run for [`HostRecord::read`]'s steal time.
pub fn start() {
    *STEAL_AT_START.lock().expect("steal record poisoned") = Some(steal_now());
}

/// Records the calling thread's scheduler statistics. Worker threads
/// call it after each piece of work; the main thread when the run ends.
pub fn note_thread() {
    let Ok(link) = std::fs::read_link("/proc/thread-self") else { return };
    let tid = link.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
    if let Some(v) = read("/proc/thread-self/schedstat").as_deref().and_then(parse_schedstat) {
        THREADS.lock().expect("thread record poisoned by a panicking worker").insert(tid, v);
    }
}

/// The host record of a whole run.
#[derive(Clone, Debug)]
pub struct HostRecord {
    /// CPU seconds of every thread (`/proc/self/stat`).
    pub cpu_s: f64,
    /// Seconds runnable threads of this process waited for a CPU.
    pub runq_wait_s: f64,
    /// Threads the process may run in parallel.
    pub nproc: usize,
    /// CPU time stolen by the hypervisor from the whole machine while
    /// the process ran.
    pub steal_s: f64,
    /// One-minute load average when the run ended.
    pub loadavg: f64,
    /// Peak resident set (`VmHWM`), MiB.
    pub peak_rss_mb: f64,
    /// CPU model name.
    pub cpu_model: String,
}

impl HostRecord {
    /// Reads the record; fields whose source is unreadable read as 0 or
    /// "unknown" (a missing host record never fails a run).
    pub fn read() -> Self {
        note_thread();
        let runq_wait_s = THREADS
            .lock()
            .expect("thread record poisoned by a panicking worker")
            .values()
            .map(|&(_, wait)| wait)
            .sum();
        Self {
            cpu_s: read("/proc/self/stat").as_deref().and_then(parse_stat_cpu_s).unwrap_or(0.0),
            runq_wait_s,
            steal_s: STEAL_AT_START
                .lock()
                .expect("steal record poisoned")
                .map_or(0.0, |start| (steal_now() - start).max(0.0)),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            loadavg: read("/proc/loadavg").as_deref().and_then(parse_loadavg).unwrap_or(0.0),
            peak_rss_mb: read("/proc/self/status")
                .as_deref()
                .and_then(parse_vm_hwm_mb)
                .unwrap_or(0.0),
            cpu_model: read("/proc/cpuinfo")
                .as_deref()
                .and_then(parse_cpu_model)
                .unwrap_or_else(|| "unknown".to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_in_mib() {
        let status = "Name:\tperfbench\nVmPeak:\t  300000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(50.0));
        assert_eq!(parse_vm_hwm_mb("VmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\t 1 MB\n"), None);
    }

    #[test]
    fn stat_cpu_skips_a_name_with_spaces_and_parens() {
        let stat = "4242 (perf (bench) x) R 1 4242 4242 0 -1 4194304 \
                    100 0 0 0 250 50 0 0 20 0 3 0 12345 0 0";
        assert_eq!(parse_stat_cpu_s(stat), Some(3.0));
        assert_eq!(parse_stat_cpu_s("4242 (x) R 1"), None);
        assert_eq!(parse_stat_cpu_s("no parenthesis"), None);
    }

    #[test]
    fn schedstat_is_nanoseconds() {
        assert_eq!(parse_schedstat("1500000000 250000000 42\n"), Some((1.5, 0.25)));
        assert_eq!(parse_schedstat("12"), None);
    }

    #[test]
    fn steal_is_the_eighth_cpu_value() {
        let stat = "cpu  2796098 0 28374 2690528 739 0 2158 35244 0 0\ncpu0 1 0 0 0 0 0 0 7 0 0\n";
        assert_eq!(parse_steal_s(stat), Some(352.44));
        assert_eq!(parse_steal_s("cpu0 1 2 3\n"), None);
        assert_eq!(parse_steal_s("cpu  1 2 3\n"), None);
    }

    #[test]
    fn loadavg_first_field() {
        assert_eq!(parse_loadavg("0.52 0.58 0.59 1/389 12345\n"), Some(0.52));
        assert_eq!(parse_loadavg(""), None);
    }

    #[test]
    fn cpu_model_first_match() {
        let info = "processor\t: 0\nvendor_id\t: X\nmodel name\t: Example CPU @ 2.00GHz\n\
                    processor\t: 1\nmodel name\t: Other\n";
        assert_eq!(parse_cpu_model(info).as_deref(), Some("Example CPU @ 2.00GHz"));
        assert_eq!(parse_cpu_model("processor\t: 0\n"), None);
    }

    #[test]
    fn live_record_is_readable() {
        let rec = HostRecord::read();
        assert!(rec.nproc >= 1);
        assert!(rec.peak_rss_mb > 0.0);
        assert!(rec.cpu_s >= 0.0 && rec.runq_wait_s >= 0.0);
    }
}
