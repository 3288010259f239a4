//! The allocator probe: fits the detect-hospital model and runs its
//! scoring loop on the System allocator, then prints one line:
//! `us_per_cell <median over passes> checksum <hex> passes <n>`.
//!
//! Usage: `holobench-probe --seed <world seed> --passes <n>`

#[path = "../../src/hospital.rs"]
mod hospital;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let num = |flag: &str| {
        let i = args.iter().position(|a| a == flag)?;
        args.get(i + 1)?.parse::<u64>().ok()
    };
    let (Some(seed), Some(passes)) = (num("--seed"), num("--passes").filter(|&p| p > 0)) else {
        eprintln!("usage: holobench-probe --seed <world seed> --passes <n>");
        return ExitCode::FAILURE;
    };
    let w = hospital::world(seed);
    let model = hospital::fit(&w, seed);
    let mut us_per_cell = Vec::new();
    let mut sum = None;
    for _ in 0..passes {
        let pass = hospital::score_pass(&model, &w);
        if pass.failed_calls > 0 {
            eprintln!(
                "holobench-probe: {} of {} score_batch calls failed",
                pass.failed_calls,
                pass.call_ms.len()
            );
            return ExitCode::FAILURE;
        }
        let c = hospital::checksum(&pass.scores);
        if sum.is_some_and(|s| s != c) {
            eprintln!("holobench-probe: scores differ between passes");
            return ExitCode::FAILURE;
        }
        sum = Some(c);
        us_per_cell.push(pass.secs * 1e6 / pass.scores.len() as f64);
    }
    us_per_cell.sort_by(f64::total_cmp);
    println!(
        "us_per_cell {} checksum {:016x} passes {passes}",
        us_per_cell[us_per_cell.len() / 2],
        sum.unwrap_or(0)
    );
    ExitCode::SUCCESS
}
