//! The benchmark of record: four workloads over real `moarad` processes
//! and the paper-scale simulator. See `README.md` next to this package
//! for the metric tables, the predictions and how to read a run.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one pass; last line is the result JSON
//! benchmark [--seed N] [--seconds S] [--repeat K] [--out F] every workload, both passes, results to F
//! benchmark --check                                         ≤ 20 s schema-and-correctness pass
//! benchmark compare A.json B.json                           per workload × metric, against the bounds
//! benchmark list                                            the metric catalogue with its predictions
//! ```

mod compare;
mod fleet;
mod json;
mod layers;
mod live;
mod load;
mod metrics;
mod prom;
mod replay;
mod sim;
mod sys;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use json::{obj, Json};
use metrics::{Values, PER_LAYER, SIM_SCALE, WORKLOADS};

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

/// What one pass of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub values: Values,
    /// Operations sent: queries, writes, set-up checks.
    pub attempted: u64,
    /// Transport errors, non-200s, refusals, wrong or incoherent answers.
    pub failed: u64,
    /// The first few failures, for the report.
    pub failures: Vec<String>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(what);
        }
    }
}

const USAGE: &str = "usage: benchmark [--workload walk|hot-read|write-read|sim-scale] [--seed N] \
                     [--seconds S] [--trace 0|1] [--repeat K] [--out FILE] | --check | compare A.json B.json | list";

/// Window length when `--seconds` is not given: `run_seconds` of
/// `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;
/// Fleets set up per end-to-end run; `setup_s` is the median.
const SETUPS: usize = 3;
/// Warm-up under load before the window opens, as a share of it.
const WARMUP_SHARE: f64 = 0.1;

struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    repeat: usize,
    out: Option<PathBuf>,
    check: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: None,
        repeat: 1,
        out: None,
        check: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let known = WORKLOADS
                    .iter()
                    .find(|w| **w == name.as_str())
                    .ok_or_else(|| format!("unknown workload {name}"))?;
                args.workloads.push(known);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be within (0, 60]".into());
                }
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--repeat" => args.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?,
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--check" => args.check = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workloads.is_empty() {
        args.workloads = WORKLOADS.to_vec();
    }
    Ok(args)
}

/// The repository checkout this package was built in.
fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the package sits in a directory of the repository")
}

/// Builds `moarad` from the checkout's sources (a no-op when fresh) and
/// returns the binary's path. Cargo runs from the repository root, so a
/// relative `CARGO_TARGET_DIR` means there what it meant to the caller.
fn build_moarad() -> Result<PathBuf, String> {
    let root = repo_root();
    let status = Command::new(std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into()))
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["-p", "moara-daemon", "--bin", "moarad"])
        .current_dir(root)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building moarad failed: {status}"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let moarad = root.join(target).join("release").join("moarad");
    if !moarad.is_file() {
        return Err(format!("{} was not built", moarad.display()));
    }
    Ok(moarad)
}

/// One pass of one workload, with `failed_share` filled in.
fn run_pass(
    workload: &'static str,
    traced: bool,
    args: &Args,
    moarad: Option<&Path>,
    out_dir: &Path,
) -> Result<Outcome, String> {
    let mut out = measure_pass(workload, traced, args, moarad, out_dir)?;
    out.values.set(
        metrics::FAILED_SHARE,
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    Ok(out)
}

fn measure_pass(
    workload: &'static str,
    traced: bool,
    args: &Args,
    moarad: Option<&Path>,
    out_dir: &Path,
) -> Result<Outcome, String> {
    // A per-layer pass runs two windows (untraced, then traced at half
    // the length) plus probes and replays: its first window is half of
    // `--seconds`, so the pass takes about as long as an end-to-end one.
    let window = Duration::from_secs_f64(if traced {
        args.seconds / 2.0
    } else {
        args.seconds
    });
    let warmup = window.mul_f64(WARMUP_SHARE);
    // `--check` shrinks everything: a small simulation, one set-up,
    // short probes and a tenth of the replay calls.
    let quick = args.check;
    let sim_size = if quick {
        sim::SimSize::CHECK
    } else {
        sim::SimSize::FULL
    };
    let ctx = layers::Context {
        // `sim-scale` starts no daemon and never reads the path.
        moarad: moarad.unwrap_or(Path::new("")),
        out_dir,
        seed: args.seed,
        warmup,
        window,
        quick,
    };
    if workload == SIM_SCALE {
        return Ok(if traced {
            layers::sim_scale(sim_size, &ctx)
        } else {
            sim::run(args.seed, window, sim_size, None)
        });
    }
    let moarad = moarad.expect("live workloads build moarad first");
    let plan = live::plan(workload, args.seed);
    if traced {
        return layers::live(&plan, &ctx);
    }
    let mut out = Outcome::default();
    let hosting = live::Hosting::Processes { moarad, out_dir };
    let setups = if quick { 1 } else { SETUPS };
    let mut fleet = live::set_up_repeatedly(&plan, &hosting, setups, &mut out)?;
    let measured = live::measure(&fleet, &plan, warmup, window);
    live::report(&measured, &mut out);
    if out.failed > 0 {
        fleet.keep_logs();
        out.notes
            .push(format!("daemon stderr kept under {}", out_dir.display()));
    }
    Ok(out)
}

fn print_report(workload: &str, traced: bool, seed: u64, out: &Outcome) {
    println!(
        "== {workload}  seed {seed}  {}  attempted {}  failed {} ==",
        if traced {
            "per-layer pass"
        } else {
            "end-to-end pass"
        },
        out.attempted,
        out.failed
    );
    for (name, value) in out.values.iter() {
        println!("  {name:<34} {value:>18.6} {}", metrics::unit_of(name));
    }
    for note in &out.notes {
        println!("  # {note}");
    }
    for failure in &out.failures {
        println!("  ! {failure}");
    }
}

/// The record of one pass, as result files and the driver's last line
/// carry it.
fn result_json(workload: &str, traced: bool, seed: u64, out: &Outcome) -> Json {
    let metrics = if traced {
        out.values
            .to_json(metrics::driver_per_layer().iter().map(|(n, _, _)| *n))
    } else {
        out.values
            .to_json(metrics::driver_end_to_end().map(|m| m.name))
    };
    obj([
        ("correct", Json::Bool(out.failed == 0)),
        ("attempted", Json::Num(out.attempted.max(1) as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("metrics", metrics),
        ("workload", Json::Str(workload.to_owned())),
        ("seed", Json::Num(seed as f64)),
        ("trace", Json::Num(f64::from(u8::from(traced)))),
    ])
}

/// The driver's contract for the last line: exactly these four keys.
fn driver_line(record: &Json) -> String {
    let keep = ["correct", "attempted", "failed", "metrics"];
    let Json::Obj(m) = record else {
        unreachable!("records are objects")
    };
    Json::Obj(
        m.iter()
            .filter(|(k, _)| keep.contains(&k.as_str()))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect(),
    )
    .render()
}

/// `--check`: every workload's per-layer pass (which also measures every
/// end-to-end metric) on 1 s windows and a 128-node simulation, then the
/// schema: every declared metric present, the never-zero ones non-zero,
/// no operation failed.
fn check(out_dir: &Path) -> Result<(), String> {
    let moarad = build_moarad()?;
    let args = Args {
        workloads: WORKLOADS.to_vec(),
        seed: 1,
        seconds: 1.0,
        trace: Some(true),
        repeat: 1,
        out: None,
        check: true,
    };
    let mut problems = Vec::new();
    for workload in WORKLOADS {
        let out = run_pass(workload, true, &args, Some(&moarad), out_dir)?;
        print_report(workload, true, args.seed, &out);
        if out.failed > 0 {
            problems.push(format!(
                "{workload}: {} of {} operations failed",
                out.failed, out.attempted
            ));
        }
        for m in metrics::END_TO_END
            .iter()
            .filter(|m| m.workloads.contains(&workload))
        {
            match out.values.get(m.name) {
                None => problems.push(format!("{workload}: {} missing", m.name)),
                Some(v) if m.name == metrics::FAILED_SHARE && v == 0.0 => {}
                Some(v) if !(v.is_finite() && v > 0.0) => {
                    problems.push(format!("{workload}: {} = {v}", m.name));
                }
                Some(_) => {}
            }
        }
        for m in PER_LAYER.iter().filter(|m| m.workloads.contains(&workload)) {
            match out.values.get(m.name) {
                Some(v) if v.is_finite() => {}
                other => problems.push(format!("{workload}: {} = {other:?}", m.name)),
            }
        }
        for (name, _) in out.values.iter() {
            if !metrics::valid_name(name) {
                problems.push(format!("{workload}: bad metric name {name:?}"));
            }
        }
    }
    if problems.is_empty() {
        println!("check passed: 4 workloads, every declared metric reported, no operation failed");
        Ok(())
    } else {
        Err(problems.join("\n"))
    }
}

/// `list`: every metric by name with unit, direction, bound, the
/// workloads that report it, and — for layers — the prediction of what it
/// should move.
fn list() {
    println!("end-to-end metrics");
    for m in metrics::END_TO_END {
        println!(
            "  {:<22} {:<6} {:<6} bound {:>5.1} %  {:<9} on {}",
            m.name,
            m.unit,
            m.better.as_str(),
            100.0 * m.bound,
            if m.gated { "gated" } else { "not gated" },
            m.workloads.join(", ")
        );
    }
    println!("per-layer metrics (layer.metric, and what it should move)");
    for m in PER_LAYER {
        println!(
            "  {:<34} {:<6} {:<6} on {:<40} -> {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.workloads.join(", "),
            m.moves
        );
    }
}

fn real_main() -> Result<ExitCode, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    if argv.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = argv.as_slice() else {
            return Err(USAGE.into());
        };
        let read = |p: &String| -> Result<Json, String> {
            Json::parse(&std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?)
                .map_err(|e| format!("{p}: {e}"))
        };
        let within = compare::run(&read(a)?, &read(b)?);
        return Ok(if within {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }
    if argv.first().map(String::as_str) == Some("list") {
        list();
        return Ok(ExitCode::SUCCESS);
    }
    let args = parse_args(&argv).map_err(|e| format!("{e}\n{USAGE}"))?;
    if args.check {
        check(&out_dir)?;
        return Ok(ExitCode::SUCCESS);
    }
    let moarad = if args.workloads.iter().any(|w| *w != SIM_SCALE) {
        Some(build_moarad()?)
    } else {
        None
    };
    let passes: Vec<bool> = args.trace.map_or(vec![false, true], |t| vec![t]);
    let mut records = Vec::new();
    let mut failed = 0;
    for _ in 0..args.repeat.max(1) {
        for &workload in &args.workloads {
            for &traced in &passes {
                let out = run_pass(workload, traced, &args, moarad.as_deref(), &out_dir)?;
                print_report(workload, traced, args.seed, &out);
                failed += out.failed;
                records.push(result_json(workload, traced, args.seed, &out));
            }
        }
    }
    let one_pass = records.len() == 1;
    let last_line = driver_line(&records[0]);
    let path = args.out.unwrap_or_else(|| out_dir.join("results.json"));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, Json::Arr(records).render() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("results written to {}", path.display());
    if one_pass {
        // The driver's contract: the last line is the result, exit 0;
        // `correct` and `failed` carry any failed operation.
        println!("{last_line}");
        return Ok(ExitCode::SUCCESS);
    }
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
