//! The experiment harness: regenerates the E13-E18 tables in
//! EXPERIMENTS.md (E1-E12 are `tests/paper_claims.rs`).
//!
//! ```text
//! cargo run --release -p bench --bin experiments            # all, full scale
//! cargo run --release -p bench --bin experiments -- --quick # CI sizes
//! cargo run --release -p bench --bin experiments -- --exp e15
//! ```

use bench::experiments::{ids, run_all, run_one, Scale};

fn main() {
    // E14's connection-scaling arm re-execs this binary as an idle-socket
    // holder so client and server halves split the per-process fd limit.
    if bench::experiments::e14_wire::idle_helper_main() {
        return;
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Full;
    let mut exp: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => scale = Scale::Quick,
            "--full" => scale = Scale::Full,
            "--exp" => {
                i += 1;
                exp = args.get(i).cloned();
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: experiments [--quick|--full] [--exp ID]   ids: {}",
                    ids()
                );
                return;
            }
            other => {
                eprintln!("unknown argument `{other}` (try --help)");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    println!(
        "MetaComm experiment harness — scale: {:?}\n(see EXPERIMENTS.md for the recorded results and DESIGN.md §3 for the\nclaim-to-experiment mapping)\n",
        scale
    );
    let reports = match exp {
        Some(id) => match run_one(&id, scale) {
            Some(r) => vec![r],
            None => {
                eprintln!("no experiment `{id}` (known: {})", ids());
                std::process::exit(2);
            }
        },
        None => run_all(scale),
    };
    for r in &reports {
        r.print();
    }
    // An experiment that checks its own claim fails the run when it does
    // not hold — CI gates on this exit status.
    let mut failed = false;
    for r in &reports {
        if let Some(why) = &r.failed {
            eprintln!("{}: claim did not hold: {why}", r.id);
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
