//! Write a golden suspended-query directory (see `tests/golden/mod.rs`):
//! generated tables and the `AllDump` suspends of a query, committed
//! mid-query — by default the layout of `suspend-v3/` (a merge join of a
//! hash aggregate with a sort over a hash join, two delta-chained
//! suspends), with `--v2` that of `suspend-v2/` (a merge join of two
//! sorts, one full suspend), with `--fnv` that of `suspend-fnv/` (a merge
//! join of two hash joins in their join phases, one full suspend), with
//! `--rows` that of `suspend-rows/` (a block NLJ, a merge join, a sort and
//! a hybrid hash join all holding rows, two delta-chained suspends).
//!
//! ```sh
//! cargo run --offline --example golden_suspend -- [--v2 | --fnv | --rows] <empty-dir>
//! ```

#[path = "../tests/golden/mod.rs"]
mod golden;

fn main() {
    let args: Vec<_> = std::env::args_os().skip(1).collect();
    let (write, dir): (fn(&std::path::Path) -> qsr::storage::Result<()>, _) = match &args[..] {
        [dir] => (golden::write_suspend, dir),
        [era, dir] if era == "--v2" => (golden::write_suspend_v2, dir),
        [era, dir] if era == "--fnv" => (golden::write_suspend_fnv, dir),
        [era, dir] if era == "--rows" => (golden::write_suspend_rows, dir),
        _ => panic!("usage: golden_suspend [--v2 | --fnv | --rows] <empty-dir>"),
    };
    let dir = std::path::PathBuf::from(dir);
    std::fs::create_dir_all(&dir).unwrap();
    assert!(
        std::fs::read_dir(&dir).unwrap().next().is_none(),
        "{} must be empty",
        dir.display()
    );
    write(&dir).unwrap();
    println!("suspended query written to {}", dir.display());
}
