//! What the benchmark reads about its own process from the kernel: CPU
//! clocks, per-thread counters under `/proc/self/task`, and the UDP drop
//! counters of its sockets in `/proc/net/udp`. Linux only.

use std::collections::BTreeMap;
use std::fs;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Words of the CPU mask passed to the affinity calls (1024 CPUs).
const MASK_WORDS: usize = 16;

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time of the whole process, all threads, user plus system, in ns.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, exclusively borrowed `struct timespec`
    // (two 64-bit fields on the 64-bit Linux targets this crate builds for).
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Restricts the calling thread — and every thread it spawns from now
/// on — to the first CPU it is allowed to run on. Returns that CPU.
pub fn pin_to_one_cpu() -> std::io::Result<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed; pid
    // 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } < 0 {
        return Err(std::io::Error::last_os_error());
    }
    let cpu = (0..MASK_WORDS * 64)
        .find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
        .ok_or_else(|| std::io::Error::other("empty CPU affinity mask"))?;
    let mut one = [0u64; MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed; pid
    // 0 names the calling thread.
    if unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) } < 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(cpu)
}

/// User and system CPU time of the whole process, in clock ticks
/// (`/proc/self/stat` fields 14 and 15).
pub fn process_user_sys_ticks() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    stat_user_sys(&stat)
}

/// Fields after the parenthesised command name, which may hold spaces.
fn stat_user_sys(stat: &str) -> (u64, u64) {
    let rest = &stat[stat.rfind(')').expect("stat has a comm field") + 2..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state): utime is field 14, stime 15.
    (f[11].parse().expect("utime"), f[12].parse().expect("stime"))
}

/// The calling thread's id.
pub fn gettid() -> u64 {
    let link = fs::read_link("/proc/thread-self").expect("read /proc/thread-self");
    link.file_name()
        .and_then(|n| n.to_str())
        .and_then(|n| n.parse().ok())
        .expect("/proc/thread-self names a tid")
}

/// One thread's counters at one instant.
#[derive(Clone, Debug)]
pub struct ThreadSample {
    /// The thread's name (`comm`, at most 15 bytes).
    pub name: String,
    /// CPU time on the processor, ns (`schedstat` field 1).
    pub cpu_ns: u64,
    /// Voluntary context switches: the times the thread blocked.
    pub voluntary: u64,
}

/// Every live thread of the process, by tid.
pub fn threads() -> BTreeMap<u64, ThreadSample> {
    let mut out = BTreeMap::new();
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let path = entry.path();
        // A thread may exit between the listing and the reads.
        let (Ok(comm), Ok(sched), Ok(status)) = (
            fs::read_to_string(path.join("comm")),
            fs::read_to_string(path.join("schedstat")),
            fs::read_to_string(path.join("status")),
        ) else {
            continue;
        };
        let cpu_ns = sched
            .split_whitespace()
            .next()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        let voluntary = status
            .lines()
            .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0);
        out.insert(
            tid,
            ThreadSample {
                name: comm.trim().to_string(),
                cpu_ns,
                voluntary,
            },
        );
    }
    out
}

/// Sum of the receive-queue drop counters of the IPv4 UDP sockets bound
/// to any of `ports` on loopback (`/proc/net/udp`, last column).
pub fn udp_drops(ports: &[u16]) -> u64 {
    let table = fs::read_to_string("/proc/net/udp").expect("read /proc/net/udp");
    udp_drops_in(&table, ports)
}

/// The host's UDP counters (`Udp:` values line of `/proc/net/snmp`).
pub fn udp_snmp() -> String {
    let snmp = fs::read_to_string("/proc/net/snmp").unwrap_or_default();
    snmp.lines()
        .filter(|l| l.starts_with("Udp:"))
        .nth(1)
        .unwrap_or("")
        .to_string()
}

fn udp_drops_in(table: &str, ports: &[u16]) -> u64 {
    table
        .lines()
        .skip(1)
        .filter_map(|line| {
            let cols: Vec<&str> = line.split_whitespace().collect();
            let (_, port) = cols.get(1)?.split_once(':')?;
            let port = u16::from_str_radix(port, 16).ok()?;
            if !ports.contains(&port) {
                return None;
            }
            cols.last()?.parse::<u64>().ok()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_survive_spaces_in_comm() {
        let stat = "42 (a b) S 1 2 3 4 5 6 7 8 9 10 111 222 13 14";
        assert_eq!(stat_user_sys(stat), (111, 222));
    }

    #[test]
    fn udp_drops_sum_only_named_ports() {
        let table = "  sl  local_address rem_address   st tx_queue rx_queue tr tm->when retrnsmt   uid  timeout inode ref pointer drops\n\
   1: 0100007F:1F90 00000000:0000 07 00000000:00000000 00:00000000 00000000     0        0 1 2 0000000000000000 3\n\
   2: 0100007F:1F91 00000000:0000 07 00000000:00000000 00:00000000 00000000     0        0 1 2 0000000000000000 5\n";
        assert_eq!(udp_drops_in(table, &[0x1F90]), 3);
        assert_eq!(udp_drops_in(table, &[0x1F90, 0x1F91]), 8);
        assert_eq!(udp_drops_in(table, &[1]), 0);
    }

    #[test]
    fn process_cpu_clock_advances() {
        let a = process_cpu_ns();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(process_cpu_ns() > a);
        assert!(gettid() > 0);
    }
}
