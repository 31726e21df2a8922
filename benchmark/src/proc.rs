//! Child processes: the shipped `softhw-serve` and `softhw-cli`
//! binaries, spawned with their documented flags only. Every server is
//! bound to `127.0.0.1:0` and is killed and reaped when its handle
//! drops, so a panicking benchmark leaves nothing behind.

use crate::refkernel;
use std::io::{self, BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs, of
/// which only `ru_maxrss` (KiB) is read.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Pins this process — and, by inheritance, every server and solver it
/// spawns — to one CPU: the highest-numbered one it is allowed on.
///
/// On the reference box (a 2-vCPU VM) a lockstep exchange costs 13-16 µs
/// when client and server share a core and 55-69 µs when they do not
/// (the price of waking a halted vCPU), and which of the two a run gets
/// is the scheduler's choice: unpinned `serve_warm` runs measured p50 at
/// 32 µs or at 185 µs with nothing else changed. A benchmark that is to
/// resolve a 10 % change cannot leave that to chance, and the same-core
/// figure is the one that tracks the program's own work. Returns the CPU.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; 16];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable buffer of exactly `bytes` bytes;
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let (word, bits) = mask.iter().enumerate().rev().find(|(_, w)| **w != 0)?;
    let bit = 63 - bits.leading_zeros() as usize;
    let mut one = [0u64; 16];
    one[word] = 1 << bit;
    // SAFETY: `one` is a live buffer of `bytes` bytes holding a subset
    // of the mask the kernel just reported as allowed.
    (unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } == 0).then_some(word * 64 + bit)
}

const SIGTERM: i32 = 15;
const SIGCONT: i32 = 18;
const SIGSTOP: i32 = 19;
const WNOHANG: i32 = 1;

/// Directory holding `softhw-serve` and `softhw-cli`: the directory of
/// this executable (`run.sh` builds all three into one target directory).
pub fn bin_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("target/release"))
}

/// The benchmark's scratch directory (`benchmark/out/`, next to this
/// package's manifest), created on first use. Everything the benchmark
/// writes lands here.
pub fn out_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    // A failure to create it surfaces at the first write.
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// A file under [`out_dir`] that is removed when the guard drops.
pub struct TempFile(pub PathBuf);

impl TempFile {
    pub fn new(stem: &str, ext: &str) -> TempFile {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path = out_dir().join(format!("tmp-{}-{n}-{stem}.{ext}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        TempFile(path)
    }

    pub fn path_str(&self) -> String {
        self.0.to_string_lossy().into_owned()
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// A running `softhw-serve`.
pub struct ServerProc {
    child: Option<Child>,
    /// Kept open so the server never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
    pub pid: u32,
}

impl ServerProc {
    /// Spawns `softhw-serve --addr 127.0.0.1:0 --workers 1 <extra…>` and
    /// waits for its `listening on <addr>` readiness line. Returns the
    /// handle and the spawn-to-ready time.
    pub fn spawn(extra: &[&str]) -> io::Result<(ServerProc, Duration)> {
        let mut cmd = Command::new(bin_dir().join("softhw-serve"));
        cmd.args(["--addr", "127.0.0.1:0", "--workers", "1"])
            .args(extra);
        ServerProc::spawn_command(cmd)
    }

    fn spawn_command(mut cmd: Command) -> io::Result<(ServerProc, Duration)> {
        let started = Instant::now();
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let pid = child.id();
        let mut reader = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(n) if n > 0 => {
                    if let Some(addr) = line.trim().strip_prefix("listening on ") {
                        break addr.to_string();
                    }
                }
                other => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(other.err().unwrap_or_else(|| {
                        io::Error::other("server exited before announcing readiness")
                    }));
                }
            }
        };
        let server = ServerProc {
            child: Some(child),
            _stdout: reader,
            addr,
            pid,
        };
        Ok((server, started.elapsed()))
    }

    /// The server's resident-set high-water mark in MiB (`VmHWM`).
    pub fn vm_hwm_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid)).ok()?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))?
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .ok()?;
        Some(kb / 1024.0)
    }

    /// SIGTERM, then waits for the graceful drain to finish (the store
    /// is fsynced past this point). Kills after 30 s.
    pub fn terminate(mut self) -> io::Result<bool> {
        let Some(mut child) = self.child.take() else {
            return Ok(false);
        };
        // SAFETY: `kill` takes plain integers; the pid is this handle's
        // own un-reaped child, so it cannot have been recycled.
        unsafe {
            kill(self.pid as i32, SIGTERM);
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Some(status) = child.try_wait()? {
                return Ok(status.success());
            }
            if Instant::now() > deadline {
                child.kill()?;
                child.wait()?;
                return Ok(false);
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// What one `softhw-cli` child run produced.
pub struct CliRun {
    pub exit_code: Option<i32>,
    pub stdout: String,
    /// Spawn to exit, without the pauses taken to probe the box.
    pub wall_s: f64,
    /// The same with every slice divided by the box's slowness around
    /// it (see [`crate::refkernel`]).
    pub corrected_s: f64,
    /// Exact peak resident set of the child (`ru_maxrss`), MiB.
    pub maxrss_mb: f64,
}

/// How long the child runs between two probes of the box's speed. The
/// box changes speed on a scale of seconds, so a solve of several
/// seconds cannot be corrected by probing only before and after it.
const SLICE: Duration = Duration::from_millis(250);

/// Runs `softhw-cli <args…>` to completion, timing spawn → exit and
/// reading the child's own `ru_maxrss` through `wait4`. Every [`SLICE`]
/// the child is stopped (`SIGSTOP`), the reference kernel probes the box,
/// and the child continues; the pauses are not on the clock.
pub fn run_cli(args: &[&str]) -> io::Result<CliRun> {
    let mut before = refkernel::probe();
    let mut child = Command::new(bin_dir().join("softhw-cli"))
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()?;
    let pid = child.id() as i32;
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    let (mut wall_s, mut corrected_s) = (0.0, 0.0);
    let mut slice_started = Instant::now();
    loop {
        std::thread::sleep(Duration::from_millis(2));
        // SAFETY: `status` and `usage` are live, properly aligned and
        // sized for the 64-bit Linux ABI declared above; `pid` is this
        // function's own child, which nothing else waits on
        // (`child.wait` is never called), so `wait4` reaps exactly it.
        let reaped = unsafe { wait4(pid, &mut status, WNOHANG, &mut usage) };
        let ran = slice_started.elapsed();
        if reaped == 0 && ran < SLICE {
            continue;
        }
        if reaped == 0 {
            // SAFETY: plain integers; the pid is un-reaped, so it still
            // names this child.
            unsafe { kill(pid, SIGSTOP) };
        }
        let after = refkernel::probe();
        wall_s += ran.as_secs_f64();
        corrected_s += ran.as_secs_f64() / refkernel::slowness(before, after);
        before = after;
        if reaped == pid {
            break;
        }
        if reaped < 0 {
            let e = io::Error::last_os_error();
            let _ = child.kill();
            return Err(e);
        }
        slice_started = Instant::now();
        // SAFETY: as for SIGSTOP above.
        unsafe { kill(pid, SIGCONT) };
    }
    let mut stdout = String::new();
    if let Some(mut out) = child.stdout.take() {
        out.read_to_string(&mut stdout)?;
    }
    let exit_code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok(CliRun {
        exit_code,
        stdout,
        wall_s,
        corrected_s,
        maxrss_mb: usage.maxrss as f64 / 1024.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn servers_are_reaped_even_when_the_owner_panics() {
        let (tx, rx) = std::sync::mpsc::channel();
        let owner = std::thread::spawn(move || {
            let mut cmd = Command::new("sh");
            cmd.args(["-c", "echo listening on 127.0.0.1:0; exec sleep 60"]);
            let (server, _) = ServerProc::spawn_command(cmd).expect("spawn stand-in server");
            assert_eq!(server.addr, "127.0.0.1:0");
            tx.send(server.pid).expect("report pid");
            panic!("owner dies while the server is up");
        });
        let pid = rx.recv().expect("pid");
        assert!(owner.join().is_err());
        // Reaped, not merely signalled: the pid no longer names a process.
        assert!(!Path::new(&format!("/proc/{pid}")).exists());
    }

    #[test]
    fn temp_files_live_under_out_and_are_removed() {
        let path = {
            let t = TempFile::new("unit", "store");
            std::fs::write(&t.0, b"x").expect("write temp file");
            assert!(t.0.starts_with(out_dir()));
            assert!(t.0.exists());
            t.0.clone()
        };
        assert!(!path.exists());
    }
}
