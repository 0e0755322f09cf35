//! CPU time and peak memory read from `/proc`, the host-side cost an
//! estimator imposes on the database process.

use std::fs;

/// Kernel clock ticks per second in `/proc/*/stat` (`USER_HZ`). Linux
/// fixes it at 100 on every architecture this benchmark builds for.
const TICKS_PER_SECOND: f64 = 100.0;

/// `utime + stime` in clock ticks, from the text of a `/proc/*/stat` file.
///
/// The command name (field 2) may itself contain spaces and parentheses,
/// so fields are counted from the *last* `)`: what follows starts at
/// field 3 (`state`), putting `utime` (field 14) at offset 11.
pub fn parse_stat_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// The command name (field 2) of a `/proc/*/stat` text.
pub fn parse_stat_comm(stat: &str) -> Option<&str> {
    let open = stat.find('(')?;
    let close = stat.rfind(')')?;
    (open < close).then(|| &stat[open + 1..close])
}

/// Nanoseconds a thread has run on a CPU, the first field of a
/// `/proc/*/task/*/schedstat` text: the same clock `utime + stime` derive
/// from, without their 10 ms tick granularity.
pub fn parse_schedstat_ns(schedstat: &str) -> Option<u64> {
    schedstat.split_whitespace().next()?.parse().ok()
}

/// Machine-wide CPU time stolen by the hypervisor, in ticks: the eighth
/// value of the `cpu` line of a `/proc/stat` text.
pub fn parse_steal_ticks(stat: &str) -> Option<u64> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// Peak resident set size (`VmHWM`) in KiB, from a `/proc/*/status` text.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let value = parts.next()?.parse().ok()?;
    (parts.next() == Some("kB")).then_some(value)
}

fn read(path: &str) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

/// User+system CPU seconds of the whole process, exited threads included
/// (10 ms resolution).
pub fn process_cpu_seconds() -> f64 {
    let ticks = parse_stat_ticks(&read("/proc/self/stat")).expect("malformed /proc/self/stat");
    ticks as f64 / TICKS_PER_SECOND
}

/// CPU seconds the hypervisor has stolen from the machine, all CPUs
/// together.
pub fn steal_seconds() -> f64 {
    let ticks = parse_steal_ticks(&read("/proc/stat")).expect("malformed /proc/stat");
    ticks as f64 / TICKS_PER_SECOND
}

fn schedstat_seconds(path: &str) -> f64 {
    let ns = parse_schedstat_ns(&read(path)).unwrap_or_else(|| panic!("malformed {path}"));
    ns as f64 * 1e-9
}

/// CPU seconds of the calling thread.
pub fn current_thread_cpu_seconds() -> f64 {
    schedstat_seconds("/proc/thread-self/schedstat")
}

/// CPU seconds of thread `tid` of this process.
pub fn thread_cpu_seconds(tid: u32) -> f64 {
    schedstat_seconds(&format!("/proc/self/task/{tid}/schedstat"))
}

/// The state letter (field 3) of a `/proc/*/stat` text.
pub fn parse_stat_state(stat: &str) -> Option<char> {
    stat[stat.rfind(')')? + 1..]
        .split_whitespace()
        .next()?
        .chars()
        .next()
}

/// Live thread IDs of this process whose command name starts with
/// `prefix` (the kernel truncates names to 15 bytes), in ascending order.
/// Threads already exiting (state `Z` or `X`) are left out.
pub fn threads_named(prefix: &str) -> Vec<u32> {
    let mut tids: Vec<u32> = fs::read_dir("/proc/self/task")
        .expect("listing /proc/self/task")
        .filter_map(|entry| {
            let entry = entry.ok()?;
            let tid: u32 = entry.file_name().to_str()?.parse().ok()?;
            let stat = fs::read_to_string(entry.path().join("stat")).ok()?;
            let live = !matches!(parse_stat_state(&stat)?, 'Z' | 'X');
            (live && parse_stat_comm(&stat)?.starts_with(prefix)).then_some(tid)
        })
        .collect();
    tids.sort_unstable();
    tids
}

/// Peak resident set size of this process so far, in MiB.
pub fn vm_hwm_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    parse_vm_hwm_kib(&status).expect("VmHWM in /proc/self/status") as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_ticks_sum_utime_and_stime() {
        let stat = "4242 (perfbench) S 1 4242 4242 0 -1 4194304 2155 0 0 0 \
                    731 52 0 0 20 0 3 0 123456 1234567 890 18446744073709551615";
        assert_eq!(parse_stat_ticks(stat), Some(783));
        assert_eq!(parse_stat_comm(stat), Some("perfbench"));
        assert_eq!(parse_stat_state(stat), Some('S'));
    }

    #[test]
    fn stat_parsing_survives_hostile_command_names() {
        // Thread names may hold spaces and parentheses; only the last
        // `)` delimits the command field.
        let stat = "77 (kdesel-serve:a) (b) R 1 2 3 0 -1 0 0 0 0 0 5 7 0 0 20 0 1 0 9 0 0";
        assert_eq!(parse_stat_ticks(stat), Some(12));
        assert_eq!(parse_stat_comm(stat), Some("kdesel-serve:a) (b"));
        assert_eq!(parse_stat_state(stat), Some('R'));
        assert_eq!(parse_stat_ticks("77 (truncated) R 1 2"), None);
        assert_eq!(parse_stat_ticks("no parens at all"), None);
    }

    #[test]
    fn schedstat_reads_the_run_time_field() {
        assert_eq!(parse_schedstat_ns("73815 120 2\n"), Some(73_815));
        assert_eq!(parse_schedstat_ns(""), None);
        assert_eq!(parse_schedstat_ns("x 1 2"), None);
    }

    #[test]
    fn steal_is_the_eighth_cpu_value() {
        let stat = "cpu  113717 0 10038 555731 381 0 1361 25287 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
        assert_eq!(parse_steal_ticks(stat), Some(25_287));
        assert_eq!(parse_steal_ticks("cpu0 1 2 3\n"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  204800 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 40960 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(51_200));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t12 MB\n"), None);
    }

    #[test]
    fn live_proc_files_parse() {
        assert!(process_cpu_seconds() >= 0.0);
        assert!(current_thread_cpu_seconds() >= 0.0);
        assert!(vm_hwm_mib() > 0.0);
        assert!(steal_seconds() >= 0.0);
        let named = std::thread::Builder::new()
            .name("perfbench-probe".to_string())
            .spawn(|| {
                let own = threads_named("perfbench-probe");
                assert_eq!(own.len(), 1);
                thread_cpu_seconds(own[0])
            })
            .unwrap()
            .join()
            .unwrap();
        assert!(named >= 0.0);
    }
}
