//! Write a golden suspended-query directory (see `tests/golden/mod.rs`):
//! generated tables and the `AllDump` suspends of a query, committed
//! mid-query — by default the layout of `suspend-v3/` (a merge join of a
//! hash aggregate with a sort over a hash join, two delta-chained
//! suspends), with `--v2` that of `suspend-v2/` (a merge join of two
//! sorts, one full suspend).
//!
//! ```sh
//! cargo run --offline --example golden_suspend -- [--v2] <empty-dir>
//! ```

#[path = "../tests/golden/mod.rs"]
mod golden;

fn main() {
    let mut args: Vec<_> = std::env::args_os().skip(1).collect();
    let v2 = args.first().is_some_and(|a| a == "--v2");
    if v2 {
        args.remove(0);
    }
    let [dir] = &args[..] else {
        panic!("usage: golden_suspend [--v2] <empty-dir>");
    };
    let dir = std::path::PathBuf::from(dir);
    std::fs::create_dir_all(&dir).unwrap();
    assert!(
        std::fs::read_dir(&dir).unwrap().next().is_none(),
        "{} must be empty",
        dir.display()
    );
    if v2 {
        golden::write_suspend_v2(&dir).unwrap();
    } else {
        golden::write_suspend(&dir).unwrap();
    }
    println!("suspended query written to {}", dir.display());
}
