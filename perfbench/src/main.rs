//! `ksjq-perfbench`: the end-to-end KSJQ serving benchmark.
//!
//! ```sh
//! python3 perfbench/run.py --workload fresh-anticorr --seed 1 --seconds 15 --trace 0
//! ```
//!
//! `run.py` builds the release daemons and this binary, then runs it with
//! `--bin-dir` pointing at the daemons. One run starts the daemons a
//! workload needs, drives it closed-loop over the v2 wire protocol for
//! `--seconds`, checks every answer and prints two lines: a `report`
//! object (seed, host, sizes, percentile definitions, sample counts) and
//! the result object `{"correct", "attempted", "failed", "metrics"}`.
//! With `--trace 1` the metrics are the per-layer ones of a traced run;
//! spans go to `.bench_out/`.

mod daemon;
mod inputs;
mod report;
mod trace;
mod wire;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use daemon::Bins;
use report::Json;
use trace::Tracer;
use workloads::{Ctx, Size, Workload};

/// Where scratch data directories and span files go, relative to the
/// directory the benchmark runs from.
const OUT_DIR: &str = ".bench_out";

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: ksjq-perfbench --workload <{}> --seed N --seconds S --trace 0|1 \
         --bin-dir DIR [--size full|tiny] [--corrupt]",
        names.join("|")
    )
}

fn parse_args() -> Result<(Workload, Ctx), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut bin_dir = None;
    let mut size = Size::Full;
    let mut corrupt = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
                })
            }
            "--bin-dir" => bin_dir = Some(PathBuf::from(value()?)),
            "--size" => {
                size = match value()?.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    other => return Err(format!("--size must be full or tiny, not {other:?}")),
                }
            }
            "--corrupt" => corrupt = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let missing = |what: &str| format!("missing {what}");
    let bins = Bins {
        dir: bin_dir.ok_or_else(|| missing("--bin-dir"))?,
    };
    for bin in [bins.server(), bins.router()] {
        if !bin.is_file() {
            return Err(format!("daemon binary {} not found", bin.display()));
        }
    }
    let out = std::env::current_dir()
        .map_err(|e| format!("current directory: {e}"))?
        .join(OUT_DIR);
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    Ok((
        workload.ok_or_else(|| missing("--workload"))?,
        Ctx {
            bins,
            out,
            seed: seed.ok_or_else(|| missing("--seed"))?,
            seconds: seconds.ok_or_else(|| missing("--seconds"))?,
            size,
            trace: trace.ok_or_else(|| missing("--trace"))?,
            corrupt,
        },
    ))
}

/// `git rev-parse HEAD` when run from the root of a git checkout.
fn commit() -> String {
    if !Path::new(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over the sorted paths and bytes of every file under `crates/`:
/// identifies the measured source where no git metadata exists.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for file in files {
        let bytes = std::fs::read(&file).unwrap_or_default();
        for b in file.to_string_lossy().bytes().chain(bytes) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }
    format!("{hash:016x}")
}

fn main() -> ExitCode {
    let (workload, ctx) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("ksjq-perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let mut tracer = Tracer::new(ctx.trace);
    let run = match workloads::run(workload, &ctx, &mut tracer) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("ksjq-perfbench: {} failed: {e}", workload.name());
            return ExitCode::FAILURE;
        }
    };
    let e2e = match run.end_to_end() {
        Ok(m) => m,
        Err(e) => {
            eprintln!("ksjq-perfbench: {}: {e}", workload.name());
            return ExitCode::FAILURE;
        }
    };
    let metrics = if ctx.trace { &run.layers } else { &e2e };

    let mut report = vec![
        ("seed".to_owned(), Json::Int(ctx.seed)),
        ("seconds".to_owned(), Json::Num(ctx.seconds)),
        ("trace".to_owned(), Json::Bool(ctx.trace)),
        (
            "size".to_owned(),
            Json::str(if ctx.size == Size::Full {
                "full"
            } else {
                "tiny"
            }),
        ),
        (
            "host_cpus".to_owned(),
            Json::Int(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
        ),
        ("commit".to_owned(), Json::str(commit())),
        (
            "source_digest".to_owned(),
            Json::str(source_digest(&std::env::current_dir().unwrap_or_default())),
        ),
        (
            "percentiles".to_owned(),
            Json::str(
                "linear interpolation between closest ranks; query_*/ttfr_* over timed QUERYs \
                 (cached reads on live-append); append_p50 over all timed APPENDs; appends_per_s \
                 median over append rounds; setup_s median of 5 set-ups",
            ),
        ),
        ("samples".to_owned(), run.samples()),
        ("tails".to_owned(), run.tails()),
        (
            "fail_ratio".to_owned(),
            Json::Num(run.tally.failed as f64 / run.tally.attempted.max(1) as f64),
        ),
        (
            "failures".to_owned(),
            Json::obj([
                ("refused", Json::Int(run.tally.refused)),
                ("timeouts", Json::Int(run.tally.timeouts)),
                ("dropped", Json::Int(run.tally.dropped)),
                ("protocol", Json::Int(run.tally.protocol)),
                (
                    "examples",
                    Json::Arr(run.tally.examples.iter().map(Json::str).collect()),
                ),
            ]),
        ),
        (
            "mismatches".to_owned(),
            Json::Arr(run.tally.mismatches.iter().map(Json::str).collect()),
        ),
        ("end_to_end".to_owned(), e2e.to_json()),
    ];
    report.extend(run.notes.iter().cloned());
    if ctx.trace {
        let path = ctx
            .out
            .join(format!("trace-{}-{}.jsonl", workload.name(), ctx.seed));
        if let Err(e) = tracer.write(&path) {
            eprintln!("ksjq-perfbench: {e}");
            return ExitCode::FAILURE;
        }
        report.push(("spans".to_owned(), Json::str(path.display().to_string())));
    }
    println!("{}", Json::obj([("report", Json::Obj(report))]));

    let correct = run.tally.mismatches.is_empty();
    for m in &run.tally.mismatches {
        eprintln!("ksjq-perfbench: WRONG ANSWER: {m}");
    }
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Int(run.tally.attempted)),
            ("failed", Json::Int(run.tally.failed)),
            ("metrics", metrics.to_json()),
        ])
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
