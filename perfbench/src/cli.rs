//! Command line shared by the two binaries:
//!
//! ```text
//! perfbench       --workload <name> --seed <n> --seconds <n> --trace 0
//! perfbench-trace --workload <name> --seed <n> --seconds <n> --trace 1
//! ```
//!
//! `--workload all` runs every workload in turn, each in a process of
//! its own, and stops at the first that fails. The result object is the
//! last line of standard output. An oracle violation prints the seed and
//! exits 3 without a result; any other failure exits 2 or 4.

use std::fs;
use std::process::{Command, ExitCode};

use crate::gen::{workload, WORKLOADS};
use crate::report::{host_json, print_result};
use crate::rig::{out_dir, Failure};
use crate::{alloc, e2e, ladder};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Runs this binary once per workload, with the same flags.
fn run_all() -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: cannot find this binary: {e}");
            return ExitCode::from(4);
        }
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    for w in &WORKLOADS {
        let args = argv.chunks(2).flat_map(|pair| match pair {
            [flag, _] if flag == "--workload" => [flag.as_str(), w.name],
            [flag, value] => [flag.as_str(), value.as_str()],
            _ => unreachable!("flags were parsed in pairs"),
        });
        match Command::new(&exe).args(args).status() {
            Ok(s) if s.success() => {}
            Ok(s) => return ExitCode::from(s.code().map_or(4, |c| c as u8)),
            Err(e) => {
                eprintln!("perfbench: {}: {e}", exe.display());
                return ExitCode::from(4);
            }
        }
    }
    ExitCode::SUCCESS
}

/// Runs one workload; `traced` says which binary is calling.
pub fn main(traced: bool) -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all();
    }
    let Some(w) = workload(&args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "perfbench: unknown workload {:?}; one of {}, all",
            args.workload,
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    if args.trace != traced {
        eprintln!("perfbench: --trace 1 runs in perfbench-trace, --trace 0 in perfbench");
        return ExitCode::from(2);
    }
    if traced && !alloc::installed() {
        eprintln!("perfbench: the traced binary lacks its counting allocator");
        return ExitCode::from(2);
    }
    let dir = out_dir().join(format!("{}-{}", w.name, std::process::id()));
    if let Err(e) = fs::create_dir_all(&dir) {
        eprintln!("perfbench: {}: {e}", dir.display());
        return ExitCode::from(4);
    }
    let result = if traced {
        ladder::run(w, args.seed, args.seconds, &dir).and_then(|o| {
            let path = out_dir().join(format!("spans-{}-seed{}.tsv", w.name, args.seed));
            ladder::write_spans(&path, &host_json(), &o.spans)
                .map_err(|e| Failure::Infra(format!("{}: {e}", path.display())))?;
            eprintln!(
                "perfbench: {} spans written to {}",
                o.spans.len(),
                path.display()
            );
            Ok((o.metrics, o.extra, o.attempted, o.failed))
        })
    } else {
        e2e::run(w, args.seed, args.seconds, &dir)
            .map(|o| (o.metrics, o.extra, o.attempted, o.failed))
    };
    let _ = fs::remove_dir_all(&dir);
    match result {
        Ok((metrics, extra, attempted, failed)) => {
            print_result(w.name, failed == 0, attempted, failed, &metrics, &extra);
            ExitCode::SUCCESS
        }
        Err(Failure::Violation(msg)) => {
            eprintln!(
                "perfbench: oracle violation in workload {} with --seed {}: {msg}",
                w.name, args.seed
            );
            ExitCode::from(3)
        }
        Err(Failure::Infra(msg)) => {
            eprintln!(
                "perfbench: workload {} with --seed {} failed: {msg}",
                w.name, args.seed
            );
            ExitCode::from(4)
        }
    }
}
