//! Spawning, watching and reaping the release daemons.
//!
//! Every daemon listens on an ephemeral loopback port (read back from its
//! startup banner) and is killed and waited for when its [`Daemon`] is
//! dropped — on success, on error and while unwinding from a panic. On
//! Linux each child also asks the kernel to kill it if the benchmark
//! itself dies, so no daemon outlives a killed run.

use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::thread::JoinHandle;

/// The directories the daemon binaries were built into.
#[derive(Debug, Clone)]
pub struct Bins {
    pub dir: PathBuf,
}

impl Bins {
    pub fn server(&self) -> PathBuf {
        self.dir.join("ksjq-serverd")
    }

    pub fn router(&self) -> PathBuf {
        self.dir.join("ksjq-routerd")
    }
}

/// One running daemon process.
#[derive(Debug)]
pub struct Daemon {
    name: String,
    child: Child,
    addr: String,
    drain: Option<JoinHandle<()>>,
}

#[cfg(target_os = "linux")]
fn kill_with_parent(cmd: &mut Command) {
    use std::os::unix::process::CommandExt;
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
    }
    const PR_SET_PDEATHSIG: i32 = 1;
    const SIGKILL: u64 = 9;
    // SAFETY: `prctl(PR_SET_PDEATHSIG, sig)` only sets a flag on the
    // calling (child) process; it is async-signal-safe, allocates nothing
    // and touches no memory of the parent, as `pre_exec` requires.
    unsafe {
        cmd.pre_exec(|| {
            prctl(PR_SET_PDEATHSIG, SIGKILL);
            Ok(())
        });
    }
}

#[cfg(not(target_os = "linux"))]
fn kill_with_parent(_cmd: &mut Command) {}

impl Daemon {
    /// Start `bin` with `args` (which must bind `127.0.0.1:0`) and wait
    /// for its `listening on <addr>` banner.
    ///
    /// Daemons must be spawned from the main thread: the parent-death
    /// signal fires when the *spawning thread* exits.
    pub fn spawn(name: &str, bin: &Path, args: &[String]) -> Result<Daemon, String> {
        let mut cmd = Command::new(bin);
        cmd.args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        kill_with_parent(&mut cmd);
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {name} ({}): {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut daemon = Daemon {
            name: name.to_owned(),
            child,
            addr: String::new(),
            drain: None,
        };
        let mut reader = BufReader::new(stdout);
        daemon.addr = read_banner(&mut reader).map_err(|e| format!("{name}: {e}"))?;
        // Keep draining stdout so a chatty daemon never blocks on a full
        // pipe; the thread ends when the daemon closes its stdout.
        daemon.drain = Some(std::thread::spawn(move || {
            let _ = std::io::copy(&mut reader, &mut std::io::sink());
        }));
        Ok(daemon)
    }

    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Fail if the process has exited: a daemon that dies fails the run.
    pub fn ensure_alive(&mut self) -> Result<(), String> {
        match self.child.try_wait() {
            Ok(None) => Ok(()),
            Ok(Some(status)) => Err(format!("{} exited during the run: {status}", self.name)),
            Err(e) => Err(format!("cannot poll {}: {e}", self.name)),
        }
    }

    /// A `/proc/<pid>/status` field in kB (`VmHWM`, `VmRSS`).
    pub fn status_kb(&self, field: &str) -> Result<u64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        text.lines()
            .find_map(|line| {
                line.strip_prefix(field)?
                    .strip_prefix(':')?
                    .split_whitespace()
                    .next()?
                    .parse()
                    .ok()
            })
            .ok_or_else(|| format!("{path} has no {field}"))
    }

    /// Kill and reap the daemon, reporting whether it was still alive.
    pub fn stop(mut self) -> Result<(), String> {
        let alive = self.ensure_alive();
        self.reap();
        alive
    }

    fn reap(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.reap();
    }
}

fn read_banner(reader: &mut BufReader<ChildStdout>) -> Result<String, String> {
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader
            .by_ref()
            .read_line(&mut line)
            .map_err(|e| format!("reading the startup banner: {e}"))?;
        if n == 0 {
            return Err("exited before it started listening".into());
        }
        if let Some(rest) = line.split("listening on ").nth(1) {
            let addr = rest.split_whitespace().next().unwrap_or_default();
            if !addr.is_empty() {
                return Ok(addr.to_owned());
            }
        }
    }
}

/// A scratch directory inside the benchmark's output directory, removed
/// (with its contents) on drop.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    pub fn new(root: &Path, label: &str) -> Result<TempDir, String> {
        let path = root.join(format!("{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(TempDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}
