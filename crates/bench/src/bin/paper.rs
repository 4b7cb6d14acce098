//! `paper` — prints the paper's figures and deterministic claims
//! ([`colock_bench::paper::PAPER`]): `paper <name>` prints one text,
//! `paper all` prints every text in table order. An unknown or missing name
//! prints the list of names and exits 2.
//!
//! ```text
//! cargo run --release -p colock-bench --bin paper -- fig7_locks
//! cargo run --release -p colock-bench --bin paper -- all
//! ```

use colock_bench::paper::PAPER;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_default();
    if name == "all" {
        for (_, render) in PAPER {
            print!("{}", render());
        }
    } else if let Some((_, render)) = PAPER.iter().find(|(n, _)| *n == name) {
        print!("{}", render());
    } else {
        eprintln!("usage: paper <name>|all, where <name> is one of:");
        for (n, _) in PAPER {
            eprintln!("  {n}");
        }
        std::process::exit(2);
    }
}
