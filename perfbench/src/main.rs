//! `ddp-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! [--trace-dir DIR] [--plant FAULT]`
//!
//! Prints the host block, defense outcomes, checks and metrics, and as its
//! last line one JSON object: `correct`, `attempted`, `failed`, and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
//! `--plant` injects a fault that one of the checks must report.

use ddp_metrics::CountingAlloc;
use ddp_perfbench::host;
use ddp_perfbench::report::{END_TO_END, PER_LAYER};
use ddp_perfbench::sim::{self, Plant, SimParams};
use ddp_perfbench::wire::{self, WireParams};
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    trace_dir: Option<PathBuf>,
    plant: Option<Plant>,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    let (mut trace_dir, mut plant) = (None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds {value} outside (0, 120]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                })
            }
            "--trace-dir" => trace_dir = Some(PathBuf::from(value)),
            "--plant" => plant = Some(Plant::parse(&value)?),
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
        trace_dir,
        plant,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ddp-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(p) = args.plant.filter(|p| p.workload() != args.workload) {
        eprintln!("ddp-perfbench: --plant {p:?} applies to {} only", p.workload());
        return ExitCode::from(2);
    }
    println!("{}", host::host_line(args.seed));
    ALLOC.reset();
    let alloc = Some(&ALLOC);
    let (seed, seconds, traced, plant) = (args.seed, args.seconds, args.traced, args.plant);
    let mut report = match args.workload.as_str() {
        "attack-100k" => sim::attack(SimParams::ATTACK_100K, seed, seconds, traced, plant, alloc),
        "churn-sketch-20k" => sim::churn(SimParams::CHURN_20K, seed, seconds, traced, plant, alloc),
        "wire-flood-60" => wire::flood(WireParams::FLOOD_60, seed, seconds, traced, plant),
        other => {
            eprintln!("ddp-perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    report.metric("peak_heap_mb", ALLOC.peak_bytes() as f64 / 1e6);
    if let (Some(dir), Some(spans)) = (&args.trace_dir, &report.spans) {
        let path = dir.join(format!("{}-seed{seed}.tsv", args.workload));
        match spans.write_tsv(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("ddp-perfbench: writing {}: {e}", path.display()),
        }
    }
    report.print(if traced { PER_LAYER } else { END_TO_END });
    ExitCode::SUCCESS
}
