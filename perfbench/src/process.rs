//! Running `fenceplace`: one-shot CLI processes with their kernel
//! resource usage, and a daemon with a private socket that is always
//! stopped and cleaned up.
//!
//! Linux only: CPU time and peak RSS come from `wait4(2)` for one-shot
//! processes and from `/proc/<pid>` for the daemon.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// The `struct timeval` of the x86-64 and aarch64 Linux ABIs.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// The `struct rusage` of the x86-64 and aarch64 Linux ABIs: two
/// timevals, then fourteen `long` counters, the first of which is
/// `ru_maxrss` in KiB.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGKILL: i32 = 9;
/// A one-shot run that takes longer than this is killed and reported
/// as failed; every workload finishes in a few seconds.
const RUN_TIMEOUT: Duration = Duration::from_secs(60);

/// How one `fenceplace` process ended and what it cost.
#[derive(Clone, Copy, Debug)]
pub struct Exit {
    /// Exit code; -1 when a signal ended the process.
    pub code: i32,
    /// Spawn to exit.
    pub wall_s: f64,
    /// User plus system CPU.
    pub cpu_s: f64,
    /// The kernel's peak resident set.
    pub peak_rss_mb: f64,
}

/// Runs `bin args` to completion with stdout discarded and stderr in
/// `stderr_to`.
pub fn run(bin: &Path, args: &[String], stderr_to: &Path) -> Result<Exit, String> {
    let err = std::fs::File::create(stderr_to)
        .map_err(|e| format!("cannot create {}: {e}", stderr_to.display()))?;
    let t0 = Instant::now();
    let child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(err)
        .spawn()
        .map_err(|e| format!("cannot run {}: {e}", bin.display()))?;
    let pid = child.id() as i32;
    // A watchdog kills a hung process; it stands down once the process
    // is reaped.
    let (done, stand_down) = mpsc::channel::<()>();
    let watchdog = std::thread::spawn(move || {
        if stand_down.recv_timeout(RUN_TIMEOUT).is_err() {
            // SAFETY: kill(2) takes plain integers; the pid is our
            // unreaped child, so it cannot name another process.
            unsafe { kill(pid, SIGKILL) };
        }
    });
    let mut status = 0i32;
    let mut usage = Rusage::default();
    // SAFETY: `status` and `usage` are live, writable and laid out as
    // the kernel ABI expects; `pid` is our child, which std never reaps
    // on its own (we never call `Child::wait`).
    let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
    let wall_s = t0.elapsed().as_secs_f64();
    let _ = done.send(());
    watchdog
        .join()
        .map_err(|_| "watchdog thread panicked".to_string())?;
    drop(child);
    if rc != pid {
        return Err(format!("wait4 failed for pid {pid}"));
    }
    let code = if status & 0x7f == 0 {
        (status >> 8) & 0xff
    } else {
        -1
    };
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    Ok(Exit {
        code,
        wall_s,
        cpu_s: secs(&usage.utime) + secs(&usage.stime),
        peak_rss_mb: usage.maxrss as f64 / 1024.0,
    })
}

/// Linux reports per-process CPU in clock ticks of `USER_HZ`, which the
/// kernel ABI fixes at 100 per second.
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds of a live process.
pub fn proc_cpu_s(pid: u32) -> Result<f64, String> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("cannot read /proc/{pid}/stat: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 overall, 12 and 13 after it.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok());
    match (tick(11), tick(12)) {
        (Some(u), Some(s)) => Ok((u + s) / USER_HZ),
        _ => Err(format!("malformed /proc/{pid}/stat")),
    }
}

/// Peak resident set (`VmHWM`) of a live process, in MiB.
pub fn proc_peak_rss_mb(pid: u32) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("cannot read /proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM in /proc/{pid}/status"))
}

/// One client connection to the daemon, past its `hello`.
pub struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    next_id: u64,
}

impl Conn {
    pub fn open(socket: &Path) -> Result<Conn, String> {
        let stream = UnixStream::connect(socket)
            .map_err(|e| format!("cannot connect to {}: {e}", socket.display()))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        let mut conn = Conn {
            reader,
            writer: stream,
            next_id: 1,
        };
        let (hello, _) = conn.call("\"type\":\"hello\",\"version\":1")?;
        if !hello.contains("\"type\":\"hello\"") {
            return Err(format!("bad hello reply: {hello}"));
        }
        Ok(conn)
    }

    /// Sends one request (its fields after the id) and returns the reply
    /// line without its newline, and the time from sending the request
    /// to receiving the whole reply.
    pub fn call(&mut self, fields: &str) -> Result<(String, Duration), String> {
        let id = self.next_id;
        self.next_id += 1;
        let mut line = format!("{{\"id\":{id},{fields}}}\n");
        let t0 = Instant::now();
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send failed: {e}"))?;
        line.clear();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("daemon closed the connection".into()),
            Ok(_) => {
                let dt = t0.elapsed();
                line.truncate(line.trim_end().len());
                Ok((line, dt))
            }
            Err(e) => Err(format!("no reply: {e}")),
        }
    }
}

/// How long the daemon gets to bind its socket, and to exit after a
/// `shutdown` before it is killed.
const START_TIMEOUT: Duration = Duration::from_secs(20);
const STOP_TIMEOUT: Duration = Duration::from_secs(10);

/// A `fenceplace serve --socket` daemon on a private socket. Dropping it
/// kills the process and removes the socket file, so a benchmark that
/// fails half-way leaves nothing behind; [`Daemon::stop`] is the orderly
/// path.
pub struct Daemon {
    child: Option<Child>,
    socket: PathBuf,
}

impl Daemon {
    pub fn start(bin: &Path, socket: &Path, args: &[String], log: &Path) -> Result<Daemon, String> {
        // A socket file left by a crashed run would make the bind fail.
        let _ = std::fs::remove_file(socket);
        let err = std::fs::File::create(log)
            .map_err(|e| format!("cannot create {}: {e}", log.display()))?;
        let child = Command::new(bin)
            .arg("serve")
            .arg("--socket")
            .arg(socket)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(err)
            .spawn()
            .map_err(|e| format!("cannot start daemon: {e}"))?;
        let mut daemon = Daemon {
            child: Some(child),
            socket: socket.to_path_buf(),
        };
        let t0 = Instant::now();
        while UnixStream::connect(socket).is_err() {
            let exited = daemon
                .child
                .as_mut()
                .and_then(|c| c.try_wait().ok().flatten());
            if exited.is_some() || t0.elapsed() > START_TIMEOUT {
                return Err(format!("daemon did not come up on {}", socket.display()));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(daemon)
    }

    pub fn socket(&self) -> &Path {
        &self.socket
    }

    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// Asks for a `shutdown`, waits for the exit, kills the daemon if it
    /// does not go, and removes the socket file. Every client connection
    /// must be closed first: the daemon joins them before exiting.
    pub fn stop(mut self) -> Result<(), String> {
        let asked = Conn::open(&self.socket)
            .and_then(|mut c| c.call("\"type\":\"shutdown\"").map(|(reply, _)| reply));
        let mut child = self.child.take().expect("a running daemon");
        let t0 = Instant::now();
        let exited = loop {
            match child.try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) if t0.elapsed() < STOP_TIMEOUT => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                _ => break None,
            }
        };
        if exited.is_none() {
            let _ = child.kill();
            let _ = child.wait();
        }
        let _ = std::fs::remove_file(&self.socket);
        match (asked, exited) {
            (Ok(reply), Some(status)) if reply.contains("\"type\":\"bye\"") && status.success() => {
                Ok(())
            }
            (Ok(reply), _) => Err(format!("daemon did not shut down cleanly: {reply}")),
            (Err(e), _) => Err(e),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}
