//! Measurement helpers shared by every workload: order statistics, the
//! `/proc` readings, seed mixing, the length-prefixed blob codec used
//! between the benchmark's processes, and child-process plumbing.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// The `q`-quantile of `sorted` by linear interpolation between the
/// closest ranks (0 for an empty slice).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = (sorted.len() - 1) as f64 * q;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Sorts `v` and returns its median.
pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// SplitMix64: derives well-spread sub-seeds from the workload seed, so
/// neighbouring seeds do not share generator streams.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps `f` over `0..n` on two threads and returns the results in index
/// order.
pub fn par_map<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let f = &f;
    let halves: Vec<Vec<T>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|t| s.spawn(move || (t..n).step_by(2).map(f).collect::<Vec<T>>()))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a par_map thread panicked"))
            .collect()
    });
    let mut halves: Vec<_> = halves.into_iter().map(Vec::into_iter).collect();
    (0..n)
        .map(|i| halves[i % 2].next().expect("every index is mapped once"))
        .collect()
}

/// A field of `/proc/<pid>/status` in kB (`VmHWM`, `VmRSS`, …).
fn proc_status_kb(pid: u32, field: &str) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// Peak resident set (`VmHWM`) of `pid` in MB.
pub fn peak_rss_mb(pid: u32) -> f64 {
    proc_status_kb(pid, "VmHWM").unwrap_or(0) as f64 / 1024.0
}

/// CPU time (user + system) this process has used, from
/// `/proc/self/stat`, assuming the usual 100 ticks per second.
pub fn process_cpu() -> Duration {
    let text = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may hold spaces; fields resume after its `)`.
    let rest = text.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|s| s.parse::<u64>().ok()).unwrap_or(0);
    // After `)`: state is field 0, utime field 11, stime field 12.
    Duration::from_millis((ticks(11) + ticks(12)) * 10)
}

/// Writes one length-prefixed byte string.
pub fn put(w: &mut impl Write, bytes: &[u8]) -> io::Result<()> {
    w.write_all(&(bytes.len() as u64).to_le_bytes())?;
    w.write_all(bytes)
}

/// Reads one length-prefixed byte string.
pub fn get(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut len = [0u8; 8];
    r.read_exact(&mut len)?;
    let len = usize::try_from(u64::from_le_bytes(len))
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "blob length overflows"))?;
    if len > 1 << 30 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "blob over 1 GiB",
        ));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

/// Reads one length-prefixed UTF-8 string.
pub fn get_str(r: &mut impl Read) -> io::Result<String> {
    String::from_utf8(get(r)?).map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "not UTF-8"))
}

/// Writes a `u64` as a length-prefixed decimal string.
pub fn put_u64(w: &mut impl Write, n: u64) -> io::Result<()> {
    put(w, n.to_string().as_bytes())
}

/// Reads a `u64` written by [`put_u64`].
pub fn get_u64(r: &mut impl Read) -> io::Result<u64> {
    get_str(r)?
        .parse()
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "not a number"))
}

/// A child process running this same binary in another role, with piped
/// stdin and stdout. Dropping it kills the process if it still runs and
/// always waits for it, so no child outlives the benchmark.
pub struct Worker {
    child: Child,
    /// The child's standard input (`None` once closed).
    pub stdin: Option<ChildStdin>,
    /// The child's standard output, buffered.
    pub stdout: BufReader<ChildStdout>,
}

impl Worker {
    /// Starts `current_exe() args…`; the child inherits stderr.
    pub fn spawn(args: &[String]) -> io::Result<Worker> {
        let exe = std::env::current_exe()?;
        let mut child = Command::new(exe)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(Worker {
            child,
            stdin,
            stdout,
        })
    }

    /// The child's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Reads one line of the child's output, without the newline.
    pub fn line(&mut self) -> io::Result<String> {
        let mut s = String::new();
        if self.stdout.read_line(&mut s)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "worker process exited early",
            ));
        }
        Ok(s.trim_end().to_owned())
    }

    /// Closes stdin and waits up to `grace` for a clean exit, then kills.
    /// Returns whether the child exited successfully on its own.
    pub fn finish(mut self, grace: Duration) -> bool {
        drop(self.stdin.take());
        let deadline = Instant::now() + grace;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => return status.success(),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                _ => return false,
            }
        }
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        drop(self.stdin.take());
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn blobs_round_trip() {
        let mut buf = Vec::new();
        put(&mut buf, b"abc").unwrap();
        put_u64(&mut buf, 42).unwrap();
        let mut r = &buf[..];
        assert_eq!(get(&mut r).unwrap(), b"abc");
        assert_eq!(get_u64(&mut r).unwrap(), 42);
    }

    #[test]
    fn par_map_keeps_the_order() {
        assert_eq!(par_map(5, |i| i * 10), vec![0, 10, 20, 30, 40]);
        assert!(par_map(0, |i| i).is_empty());
    }

    #[test]
    fn mixing_separates_neighbouring_seeds() {
        assert_ne!(mix(1, 0), mix(2, 0));
        assert_ne!(mix(1, 0), mix(1, 1));
        assert_eq!(mix(7, 3), mix(7, 3));
    }
}
