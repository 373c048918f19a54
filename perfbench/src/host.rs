//! Process counters read from `/proc/self`: peak resident set size and
//! CPU time consumed by every thread of the process. Also the marks of the
//! host's state the benchmark takes around every repetition: a speed probe
//! and the machine's stolen CPU time from `/proc/stat`.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. Linux
/// fixes `USER_HZ` at 100 on every architecture it exposes to user space.
const USER_HZ: f64 = 100.0;

/// Parses the `VmHWM` line (peak resident set, kB) of `/proc/<pid>/status`
/// into mebibytes.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kb: f64 = fields.next()?.parse().ok()?;
    match fields.next() {
        Some("kB") => Some(kb / 1024.0),
        _ => None,
    }
}

/// Parses user + system CPU time of the whole process from the text of
/// `/proc/<pid>/stat`. The command name (field 2) is parenthesized and
/// may itself contain spaces or parentheses, so fields are counted from
/// the last `)`.
pub fn parse_stat_cpu(stat: &str) -> Option<Duration> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // After the name: state is field 3, utime field 14, stime field 15.
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(Duration::from_secs_f64((utime + stime) as f64 / USER_HZ))
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vm_hwm_mb(&status).expect("VmHWM in /proc/self/status")
}

/// CPU time (user + system, all threads) this process has consumed.
pub fn cpu_time() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_stat_cpu(&stat).expect("utime/stime in /proc/self/stat")
}

/// Jiffies counted in `/proc/stat`.
#[derive(Clone, Debug, PartialEq)]
pub struct StatJiffies {
    /// Busy time of the whole machine: user + nice + system + irq +
    /// softirq.
    pub busy: u64,
    /// Stolen time of each virtual CPU: time it wanted to run while the
    /// hypervisor ran another.
    pub steal: Vec<u64>,
}

/// Parses the `cpu` line and the per-CPU `cpuN` lines of `/proc/stat`.
pub fn parse_stat_jiffies(stat: &str) -> Option<StatJiffies> {
    // Fields after the name: user nice system idle iowait irq softirq steal ...
    let fields = |line: &str| -> Option<Vec<u64>> {
        let f: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .map(str::parse)
            .collect::<Result<_, _>>()
            .ok()?;
        (f.len() >= 8).then_some(f)
    };
    let total = fields(stat.lines().find(|l| l.starts_with("cpu "))?)?;
    let steal = stat
        .lines()
        .filter(|l| l.starts_with("cpu") && l.as_bytes().get(3).is_some_and(u8::is_ascii_digit))
        .map(|l| fields(l).map(|f| f[7]))
        .collect::<Option<Vec<u64>>>()?;
    if steal.is_empty() {
        return None;
    }
    Some(StatJiffies {
        busy: total[0] + total[1] + total[2] + total[5] + total[6],
        steal,
    })
}

/// The host's state at one instant: what the speed probe took then, and
/// the machine's busy and stolen CPU time so far.
#[derive(Clone, Debug)]
pub struct HostMark {
    probe_ms: f64,
    jiffies: StatJiffies,
    at: Instant,
}

impl HostMark {
    /// Runs the speed probe, then reads `/proc/stat`.
    pub fn take() -> HostMark {
        let probe_ms = speed_probe_ms();
        let stat = std::fs::read_to_string("/proc/stat").expect("read /proc/stat");
        let at = Instant::now();
        let jiffies = parse_stat_jiffies(&stat).expect("cpu lines in /proc/stat");
        HostMark {
            probe_ms,
            jiffies,
            at,
        }
    }
}

/// How disturbed the host was over an interval between two marks.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HostLoad {
    /// The slower of the two speed probes, milliseconds.
    pub probe_ms: f64,
    /// Share of the CPU time the machine wanted in the interval that the
    /// hypervisor stole.
    pub steal_share: f64,
    /// The product over the virtual CPUs of the share of the interval's
    /// wall time in which each was not stolen: the share of time work that
    /// needs every CPU could run. An idle CPU accrues no steal, so work on
    /// one CPU sees only its own.
    pub unstolen_share: f64,
}

impl HostLoad {
    /// The load between `a` and a later mark `b`.
    pub fn between(a: &HostMark, b: &HostMark) -> HostLoad {
        let (ja, jb) = (&a.jiffies, &b.jiffies);
        let stolen: Vec<u64> = ja
            .steal
            .iter()
            .zip(&jb.steal)
            .map(|(x, y)| y.saturating_sub(*x))
            .collect();
        let steal: u64 = stolen.iter().sum();
        let busy = jb.busy.saturating_sub(ja.busy);
        let wall_s = (b.at - a.at).as_secs_f64();
        let unstolen_share = if wall_s > 0.0 {
            stolen
                .iter()
                .map(|&s| 1.0 - (s as f64 / USER_HZ / wall_s).min(1.0))
                .product()
        } else {
            1.0
        };
        HostLoad {
            probe_ms: a.probe_ms.max(b.probe_ms),
            steal_share: steal as f64 / (busy + steal).max(1) as f64,
            unstolen_share,
        }
    }

    /// Ranking key, lower is quieter: the probe's time stretched by the
    /// share of wanted CPU time the host gave.
    pub fn key(&self) -> f64 {
        self.probe_ms / (1.0 - self.steal_share).max(0.01)
    }
}

/// Side of the square matrices the host-speed probe multiplies.
const PROBE_N: usize = 64;
/// Products per timed trial of the probe.
const PROBE_GEMMS: usize = 16;
/// Timed trials per probe; the probe reports their median.
const PROBE_TRIALS: usize = 5;

/// Milliseconds a fixed serial workload takes on this host right now:
/// [`PROBE_GEMMS`] products of two [`PROBE_N`]-square f32 matrices, in a
/// loop written here, so that no change to the program under test can
/// move it. The median of [`PROBE_TRIALS`] trials ignores a single
/// preemption; a slowdown that lasts, such as other tenants of the host
/// loading its cores, raises it.
pub fn speed_probe_ms() -> f64 {
    let n = PROBE_N;
    let a: Vec<f32> = (0..n * n).map(|i| (i % 7) as f32 - 3.0).collect();
    let b: Vec<f32> = (0..n * n).map(|i| (i % 5) as f32 * 0.5).collect();
    let mut c = vec![0.0f32; n * n];
    let mut trials = Vec::with_capacity(PROBE_TRIALS);
    for _ in 0..PROBE_TRIALS {
        let t = Instant::now();
        for _ in 0..PROBE_GEMMS {
            let (a, b) = (black_box(&a), black_box(&b));
            c.fill(0.0);
            for i in 0..n {
                for k in 0..n {
                    let aik = a[i * n + k];
                    let (row, brow) = (&mut c[i * n..(i + 1) * n], &b[k * n..(k + 1) * n]);
                    for (x, y) in row.iter_mut().zip(brow) {
                        *x += aik * y;
                    }
                }
            }
            black_box(&c);
        }
        trials.push(t.elapsed().as_secs_f64() * 1e3);
    }
    crate::stats::median(&trials)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vm_hwm() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  200000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 40000 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(50.0));
        assert_eq!(parse_vm_hwm_mb("VmRSS:\t1 kB\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\t12 MB\n"), None);
    }

    #[test]
    fn parses_stat_times_past_a_hostile_command_name() {
        // utime = 250 ticks, stime = 50 ticks -> 3 s at USER_HZ = 100.
        let stat = "4242 (a) b (c) S 1 4242 4242 0 -1 4194560 100 0 0 0 250 50 0 0 20 0 3 0 1 2 3";
        assert_eq!(parse_stat_cpu(stat), Some(Duration::from_secs(3)));
        assert_eq!(parse_stat_cpu("4242 (x) S 1 2"), None);
        assert_eq!(parse_stat_cpu("no parens at all"), None);
    }

    #[test]
    fn parses_busy_and_per_cpu_steal_from_proc_stat() {
        let stat = "cpu  100 5 20 9000 7 3 2 40 0 0\n\
                    cpu0 50 2 10 4500 3 1 1 25 0 0\n\
                    cpu1 50 3 10 4500 4 2 1 15 0 0\n\
                    intr 1\n";
        assert_eq!(
            parse_stat_jiffies(stat),
            Some(StatJiffies {
                busy: 130,
                steal: vec![25, 15]
            })
        );
        assert_eq!(parse_stat_jiffies("cpu  1 2 3\ncpu0 1 2 3\n"), None);
        assert_eq!(parse_stat_jiffies("cpu0 1 2 3 4 5 6 7 8\n"), None);
        assert_eq!(parse_stat_jiffies("cpu  1 2 3 4 5 6 7 8\n"), None);
    }

    #[test]
    fn host_load_stretches_the_probe_by_the_stolen_share() {
        let t = Instant::now();
        let mark = |probe_ms, busy, steal: [u64; 2], secs| HostMark {
            probe_ms,
            jiffies: StatJiffies {
                busy,
                steal: steal.to_vec(),
            },
            at: t + Duration::from_secs(secs),
        };
        let a = mark(1.0, 100, [5, 5], 0);
        let b = mark(2.0, 175, [25, 10], 1);
        let load = HostLoad::between(&a, &b);
        assert_eq!(load.probe_ms, 2.0);
        assert_eq!(load.steal_share, 0.25);
        assert_eq!(load.key(), 2.0 / 0.75);
        // 20 and 5 jiffies at USER_HZ = 100 in one second.
        assert!((load.unstolen_share - 0.8 * 0.95).abs() < 1e-12);
        // A CPU stolen for longer than the interval leaves no time.
        assert_eq!(
            HostLoad::between(&a, &mark(1.0, 100, [205, 5], 1)).unstolen_share,
            0.0
        );
        // No time passed: nothing was stolen.
        let none = HostLoad::between(&a, &a);
        assert_eq!((none.steal_share, none.unstolen_share), (0.0, 1.0));
    }

    #[test]
    fn speed_probe_times_a_fixed_workload() {
        let ms = speed_probe_ms();
        assert!(ms > 0.0 && ms < 1e3, "probe took {ms} ms");
    }

    #[test]
    fn live_counters_are_readable() {
        assert!(peak_rss_mb() > 0.0);
        let _ = cpu_time();
        let _ = HostMark::take();
    }
}
