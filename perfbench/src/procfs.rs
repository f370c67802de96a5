//! Readers for the Linux `/proc` counters the benchmark takes from a
//! process: `io` (bytes and write calls), `stat` (CPU time) and `status`
//! (peak resident set), and the host's hypervisor steal from `/proc/stat`.
//! Parsers take the file text so they can be tested on fixed samples.

use std::io;
use std::time::Instant;

/// Kernel clock ticks per second for `/proc/<pid>/stat` CPU fields
/// (`USER_HZ`, fixed at 100 on Linux for user-space ABI stability).
const USER_HZ: f64 = 100.0;

/// The `/proc/<pid>/io` counters the benchmark uses. `wchar` counts the
/// bytes passed to `write`-family calls and `syscw` those calls; socket
/// `send`/`recv` (what std's `TcpStream` uses) are not counted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoCounters {
    pub wchar: u64,
    pub syscw: u64,
}

impl IoCounters {
    /// Counter growth since `earlier`.
    pub fn since(self, earlier: IoCounters) -> IoCounters {
        IoCounters {
            wchar: self.wchar - earlier.wchar,
            syscw: self.syscw - earlier.syscw,
        }
    }
}

/// Parses the text of `/proc/<pid>/io`.
pub fn parse_io(text: &str) -> Option<IoCounters> {
    let field = |key: &str| {
        text.lines().find_map(|l| {
            let (k, v) = l.split_once(':')?;
            (k.trim() == key).then(|| v.trim().parse::<u64>().ok())?
        })
    };
    Some(IoCounters {
        wchar: field("wchar")?,
        syscw: field("syscw")?,
    })
}

/// User plus system CPU seconds from the text of `/proc/<pid>/stat`,
/// covering every thread of the process, live or exited. The command
/// name may contain spaces and parentheses, so fields are counted from
/// the last `)`.
pub fn parse_stat_cpu_s(text: &str) -> Option<f64> {
    let rest = &text[text.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the command: state(3) ppid … utime(14) stime(15), 1-based.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// Hypervisor steal so far, in seconds per vCPU, from the text of
/// `/proc/stat`: the `steal` column of the aggregate `cpu` line divided
/// by the number of `cpuN` lines.
pub fn parse_steal_s(text: &str) -> Option<f64> {
    let total = text.lines().find_map(|l| l.strip_prefix("cpu "))?;
    // user nice system idle iowait irq softirq steal ...
    let steal: u64 = total.split_whitespace().nth(7)?.parse().ok()?;
    let cpus = text
        .lines()
        .filter(|l| {
            l.strip_prefix("cpu")
                .is_some_and(|r| r.starts_with(|c: char| c.is_ascii_digit()))
        })
        .count();
    (cpus > 0).then(|| steal as f64 / USER_HZ / cpus as f64)
}

/// A `kB` field of `/proc/<pid>/status` (e.g. `VmHWM`), in KiB.
pub fn parse_status_kib(text: &str, key: &str) -> Option<u64> {
    text.lines().find_map(|l| {
        let (k, v) = l.split_once(':')?;
        if k != key {
            return None;
        }
        v.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

/// The filesystem type of the mount holding `path` (absolute), from the
/// text of `/proc/self/mounts`: the entry with the longest matching
/// mount point.
pub fn fs_type_for(path: &str, mounts: &str) -> Option<String> {
    mounts
        .lines()
        .filter_map(|l| {
            let mut it = l.split_whitespace();
            let (_dev, point, fstype) = (it.next()?, it.next()?, it.next()?);
            let inside = point == "/"
                || path == point
                || path
                    .strip_prefix(point)
                    .is_some_and(|rest| rest.starts_with('/'));
            inside.then(|| (point.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fstype)| fstype)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_getcpuclockid(pid: i32, clock_id: *mut i32) -> i32;
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds used so far by every thread of `pid` (`None`: this
/// process), from the kernel's nanosecond process CPU clock — finer than
/// the 10 ms ticks of `/proc/<pid>/stat`, so per-round values are exact
/// enough to take medians of.
pub fn cpu_clock_s(pid: Option<u32>) -> io::Result<f64> {
    let mut clock = CLOCK_PROCESS_CPUTIME_ID;
    if let Some(pid) = pid {
        let pid = i32::try_from(pid).map_err(|_| io::Error::other("pid out of range"))?;
        // SAFETY: `clock` is a valid, writable i32 for the call's duration;
        // the function only writes a clock id through it.
        let rc = unsafe { clock_getcpuclockid(pid, &mut clock) };
        if rc != 0 {
            return Err(io::Error::from_raw_os_error(rc));
        }
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on x86-64 Linux) for the call's duration.
    if unsafe { clock_gettime(clock, &mut ts) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
}

fn read(pid: Option<u32>, file: &str) -> io::Result<String> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/{file}"),
        None => format!("/proc/self/{file}"),
    };
    std::fs::read_to_string(path)
}

fn malformed(file: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("unparsable /proc {file}"),
    )
}

/// I/O counters of `pid` (`None`: this process).
pub fn io(pid: Option<u32>) -> io::Result<IoCounters> {
    parse_io(&read(pid, "io")?).ok_or_else(|| malformed("io"))
}

/// CPU seconds used so far by `pid` (`None`: this process), in the
/// 10 ms ticks of `/proc/<pid>/stat`.
pub fn cpu_ticks_s(pid: Option<u32>) -> io::Result<f64> {
    parse_stat_cpu_s(&read(pid, "stat")?).ok_or_else(|| malformed("stat"))
}

/// An instant together with the hypervisor steal up to it. On a shared
/// host the hypervisor can withhold the vCPUs for minutes at a time; an
/// interval measured between two stamps leaves that time out, so it is
/// what the same work takes on a host that runs only this guest.
#[derive(Debug, Clone, Copy)]
pub struct Stamp {
    pub at: Instant,
    pub steal_s: f64,
}

impl Stamp {
    pub fn now() -> io::Result<Stamp> {
        let steal_s = parse_steal_s(&std::fs::read_to_string("/proc/stat")?)
            .ok_or_else(|| malformed("stat"))?;
        Ok(Stamp {
            at: Instant::now(),
            steal_s,
        })
    }

    /// Wall seconds since `earlier`, less the steal between the two.
    pub fn net_since(self, earlier: Stamp) -> f64 {
        ((self.at - earlier.at).as_secs_f64() - self.steal_since(earlier)).max(0.0)
    }

    /// Steal seconds per vCPU since `earlier`.
    pub fn steal_since(self, earlier: Stamp) -> f64 {
        self.steal_s - earlier.steal_s
    }
}

/// Both CPU readings of one process at one moment.
#[derive(Debug, Clone, Copy)]
pub struct CpuMark {
    pub clock_s: f64,
    pub ticks_s: f64,
}

pub fn cpu_mark(pid: Option<u32>) -> io::Result<CpuMark> {
    Ok(CpuMark {
        clock_s: cpu_clock_s(pid)?,
        ticks_s: cpu_ticks_s(pid)?,
    })
}

/// Whether the nanosecond clock and the `/proc/<pid>/stat` ticks agree
/// on the CPU used between two marks, to within tick resolution: the
/// check that the clock reads the process it is meant to.
pub fn cpu_agrees(a: CpuMark, b: CpuMark) -> bool {
    let (clock, ticks) = (b.clock_s - a.clock_s, b.ticks_s - a.ticks_s);
    (clock - ticks).abs() <= 0.05 + 0.01 * clock
}

/// Peak resident set (`VmHWM`) of `pid` in MiB (`None`: this process).
pub fn peak_rss_mib(pid: Option<u32>) -> io::Result<f64> {
    parse_status_kib(&read(pid, "status")?, "VmHWM")
        .map(|kib| kib as f64 / 1024.0)
        .ok_or_else(|| malformed("status"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_io_counters() {
        let text = "rchar: 1200\nwchar: 3456789\nsyscr: 12\nsyscw: 41\n\
                    read_bytes: 0\nwrite_bytes: 4096\ncancelled_write_bytes: 0\n";
        let io = parse_io(text).unwrap();
        assert_eq!(
            io,
            IoCounters {
                wchar: 3_456_789,
                syscw: 41
            }
        );
        let later = IoCounters {
            wchar: 3_456_800,
            syscw: 42,
        };
        assert_eq!(later.since(io).wchar, 11);
        assert_eq!(later.since(io).syscw, 1);
        assert_eq!(parse_io("rchar: 1\nwchar: 2\n"), None);
    }

    #[test]
    fn parses_stat_cpu_with_awkward_command_names() {
        let text = "4242 (fab flip) cli)) S 1 4242 4242 0 -1 4194560 900 0 0 0 \
                    250 37 0 0 20 0 4 0 12345 1000000 500 18446744073709551615";
        assert_eq!(parse_stat_cpu_s(text), Some(2.87));
        assert_eq!(parse_stat_cpu_s("7 (x) S 1"), None);
    }

    #[test]
    fn parses_steal_per_vcpu() {
        let text = "cpu  594085 0 19742 2758142 7039 0 2632 10660 0 0\n\
                    cpu0 270708 0 7654 1410952 382 0 2040 6121 0 0\n\
                    cpu1 324920 0 12091 1347623 6657 0 599 4539 0 0\n\
                    intr 3704117 0 0\nctxt 1234\n";
        assert_eq!(parse_steal_s(text), Some(53.3));
        assert_eq!(
            parse_steal_s("cpu  1 2 3 4 5 6 7\ncpu0 1 2 3 4 5 6 7\n"),
            None
        );
        assert_eq!(parse_steal_s("intr 1\n"), None);
        assert!(Stamp::now().is_ok());
    }

    #[test]
    fn stamps_leave_steal_out_of_intervals() {
        let t = std::time::Instant::now();
        let a = Stamp {
            at: t,
            steal_s: 10.0,
        };
        let b = Stamp {
            at: t + std::time::Duration::from_millis(1500),
            steal_s: 10.5,
        };
        assert!((b.net_since(a) - 1.0).abs() < 1e-9);
        assert!((b.steal_since(a) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn parses_status_kib_fields() {
        let text = "Name:\tfabflip-cli\nVmPeak:\t  900000 kB\nVmHWM:\t   81920 kB\n\
                    VmRSS:\t   40960 kB\nThreads:\t4\n";
        assert_eq!(parse_status_kib(text, "VmHWM"), Some(81_920));
        assert_eq!(parse_status_kib(text, "VmRSS"), Some(40_960));
        assert_eq!(parse_status_kib(text, "Threads"), None, "not a kB field");
        assert_eq!(parse_status_kib(text, "VmSwap"), None);
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let a = cpu_clock_s(None).unwrap();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        let b = cpu_clock_s(Some(std::process::id())).unwrap();
        assert!(b > a, "{a} -> {b}");
    }

    #[test]
    fn finds_the_longest_matching_mount() {
        let mounts = "/dev/vda / ext4 rw 0 0\ntmpfs /dev/shm tmpfs rw 0 0\n\
                      tmpfs /data/fast tmpfs rw 0 0\n";
        assert_eq!(
            fs_type_for("/dev/shm/wal", mounts).as_deref(),
            Some("tmpfs")
        );
        assert_eq!(fs_type_for("/data/fast", mounts).as_deref(), Some("tmpfs"));
        assert_eq!(
            fs_type_for("/data/fastest/x", mounts).as_deref(),
            Some("ext4")
        );
        assert_eq!(fs_type_for("/home/u", mounts).as_deref(), Some("ext4"));
    }
}
