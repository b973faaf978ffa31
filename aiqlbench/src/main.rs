//! AIQL benchmark: one command, three workloads, end-to-end metrics
//! untraced and per-layer metrics traced.
//!
//! ```text
//! cargo run --release --manifest-path aiqlbench/Cargo.toml -- \
//!     --workload investigate|hunt|ingest --seed N --seconds S --trace 0|1
//! ```
//!
//! Inputs are generated from `--seed`. Every answer is checked (outside the
//! timed region). Earlier stdout lines carry a full report with
//! provenance; the last line is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. See `README.md` beside this crate.

mod adhoc;
mod alloc;
mod check;
mod hunt;
mod ingest;
mod investigate;
mod layers;
mod mix;
mod report;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use check::Ledger;
use layers::LoadStats;
use report::{Metric, J};
use trace::Tracer;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// What one invocation was asked to do.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Ctx {
    /// A seed for one purpose, derived from the workload seed.
    pub fn derive(&self, salt: u64) -> u64 {
        let mut x = self.seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// Measured seconds of each pass: the whole run untraced; in a traced
    /// run, half for an untraced pass and the same work again traced.
    pub fn pass_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

/// When a measured pass ends. Passes end between operations (investigate:
/// blocks, hunt: rounds, ingest: cycles), never inside one.
#[derive(Clone, Copy)]
pub enum Stop {
    /// Once this many seconds have been measured.
    Elapsed(f64),
    /// After exactly this many blocks, rounds or cycles.
    After(usize),
}

/// What a workload hands back.
pub struct Outcome {
    /// Timed operations.
    pub ledger: Ledger,
    /// Set-up answer checks and post-run checks.
    pub checks: Ledger,
    /// The metrics of the final line: end-to-end (untraced) or per-layer
    /// (traced).
    pub metrics: Vec<Metric>,
    /// Workload-specific report fields.
    pub report: Vec<(String, J)>,
    pub tracers: Vec<Tracer>,
}

/// A workload's set-up, built [`SETUP_REPS`] times.
pub struct Setup<T> {
    /// What the last repetition built.
    pub data: T,
    /// Seconds of every repetition.
    pub secs: Vec<f64>,
    /// Bulk loads of the untraced repetitions.
    pub load: LoadStats,
    /// Bulk loads of the traced repetition (traced runs only).
    pub traced_load: LoadStats,
    pub tracer: Tracer,
}

/// Runs `build` [`SETUP_REPS`] times, dropping each result before the next
/// is built. In a traced run the last repetition's bulk loads are traced.
pub fn setup<T>(
    ctx: &Ctx,
    mut build: impl FnMut(&mut LoadStats, Option<&mut Tracer>) -> T,
) -> Setup<T> {
    let mut data = None;
    let mut secs = Vec::new();
    let mut load = LoadStats::default();
    let mut traced_load = LoadStats::default();
    let mut tracer = Tracer::new();
    for rep in 0..SETUP_REPS {
        drop(data.take());
        let traced = ctx.trace && rep + 1 == SETUP_REPS;
        let mut this = LoadStats::default();
        let t0 = std::time::Instant::now();
        data = Some(build(&mut this, traced.then_some(&mut tracer)));
        secs.push(t0.elapsed().as_secs_f64());
        if traced {
            traced_load = this;
        } else {
            load.absorb(this);
        }
    }
    Setup {
        data: data.expect("at least one set-up"),
        secs,
        load,
        traced_load,
        tracer,
    }
}

fn parse_args(args: &[String]) -> Result<Ctx, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["investigate", "hunt", "ingest"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Ctx {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Directory for span dumps and the ingest WAL (inside this crate).
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// The commit the repository is at, read from `.git` without running git;
/// "unknown" outside a git checkout.
fn commit_hash() -> String {
    let git = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: PathBuf| std::fs::read_to_string(p).ok();
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown (not a git checkout)".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(hash) = read(git.join(reference)) {
        return hash.trim().to_string();
    }
    read(git.join("packed-refs"))
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ctx = match parse_args(&args) {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("aiqlbench: {e}");
            eprintln!(
                "usage: aiqlbench --workload investigate|hunt|ingest --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let started = std::time::Instant::now();
    let outcome = match ctx.workload.as_str() {
        "investigate" => investigate::run(&ctx),
        "hunt" => hunt::run(&ctx),
        _ => ingest::run(&ctx),
    };

    if ctx.trace {
        let path = out_dir().join(format!("spans-{}.jsonl", ctx.workload));
        let mut all = Tracer::new();
        for t in &outcome.tracers {
            all.extend(t);
        }
        if let Err(e) = all.write_jsonl(&path) {
            eprintln!("aiqlbench: could not write {}: {e}", path.display());
        }
    }

    let Outcome {
        ledger,
        checks,
        metrics,
        report,
        ..
    } = outcome;
    let correct = ledger.failed == 0 && checks.failed == 0;
    for m in ledger.messages.iter().chain(&checks.messages) {
        eprintln!("aiqlbench: seed {}: {m}", ctx.seed);
    }
    let mut fields = vec![
        ("workload".to_string(), J::str(&ctx.workload)),
        ("seed".into(), J::Uint(ctx.seed)),
        ("seconds".into(), J::Num(ctx.seconds)),
        ("trace".into(), J::Bool(ctx.trace)),
        (
            "host_cores".into(),
            J::Int(std::thread::available_parallelism().map_or(1, |n| n.get()) as i64),
        ),
        ("commit".into(), J::str(commit_hash())),
        (
            "error_ratio".into(),
            J::Num(stats::ratio(ledger.failed as f64, ledger.attempted as f64)),
        ),
        ("panics".into(), J::Int(ledger.panics as i64)),
        (
            "failures".into(),
            J::Arr(
                ledger
                    .messages
                    .iter()
                    .chain(&checks.messages)
                    .map(|m| J::str(format!("seed {}: {m}", ctx.seed)))
                    .collect(),
            ),
        ),
        (
            "checks".into(),
            J::obj([
                ("attempted", J::Int(checks.attempted as i64)),
                ("failed", J::Int(checks.failed as i64)),
            ]),
        ),
    ];
    fields.extend(report);
    fields.push(("wall_s".into(), J::Num(started.elapsed().as_secs_f64())));
    println!("{}", J::obj([("report", J::Obj(fields))]));
    println!(
        "{}",
        J::obj([
            ("correct", J::Bool(correct)),
            ("attempted", J::Int(ledger.attempted.max(1) as i64)),
            ("failed", J::Int(ledger.failed as i64)),
            ("metrics", report::metrics_json(&metrics)),
        ])
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let c = parse_args(&args("--workload hunt --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (c.workload.as_str(), c.seed, c.seconds, c.trace),
            ("hunt", 7, 10.0, true)
        );
        assert_eq!(c.pass_seconds(), 5.0);
        assert!(parse_args(&args("--workload nope --seed 1")).is_err());
        assert!(parse_args(&args("--workload hunt")).is_err());
        assert!(parse_args(&args("--workload hunt --seed 1 --trace 2")).is_err());
    }

    #[test]
    fn derived_seeds_differ_by_purpose_and_seed() {
        let c = |seed| Ctx {
            workload: "hunt".into(),
            seed,
            seconds: 1.0,
            trace: false,
        };
        assert_ne!(c(1).derive(1), c(1).derive(2));
        assert_ne!(c(1).derive(1), c(2).derive(1));
        assert_eq!(c(3).derive(4), c(3).derive(4));
    }
}
