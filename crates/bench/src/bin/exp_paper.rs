//! The paper's artifacts and the sweeps, by name: `exp_paper [NAME...]
//! [FLAGS]`.
//!
//! Leading positional arguments pick artifacts (`exp_paper fig4 hetero
//! --quick`) and run in the order given; none runs all of [`ARTIFACTS`]
//! in order. The flags are the shared [`ExpOptions`] ones. An unknown
//! name exits non-zero listing the valid ones. `exp_paper --worker …` is
//! one worker process of the `net` artifact ([`run_worker_process`]).

use feddrl_bench::paper::{artifact, Artifact, ARTIFACTS};
use feddrl_bench::sweeps::net::run_worker_process;
use feddrl_bench::ExpOptions;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--worker") {
        run_worker_process(&args[1..]);
    }
    let n_names = args
        .iter()
        .position(|a| a.starts_with("--"))
        .unwrap_or(args.len());
    let (names, flags) = args.split_at(n_names);
    let mut selected: Vec<Artifact> = Vec::new();
    for name in names {
        match artifact(name) {
            Some(run) => selected.push(run),
            None => {
                let valid: Vec<&str> = ARTIFACTS.iter().map(|(n, _)| *n).collect();
                eprintln!("unknown artifact: {name} (valid: {})", valid.join(" "));
                std::process::exit(2);
            }
        }
    }
    if selected.is_empty() {
        selected.extend(ARTIFACTS.iter().map(|&(_, run)| run));
    }
    let opts = ExpOptions::parse(flags.iter().cloned());
    for run in selected {
        run(&opts);
    }
}
