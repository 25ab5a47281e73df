//! Write a golden suspended-query directory (see `tests/golden/mod.rs`):
//! two generated tables and an `AllDump` suspend of a sort over a hybrid
//! hash join over a hash aggregate, committed mid-query.
//!
//! ```sh
//! cargo run --offline --example golden_suspend -- <empty-dir>
//! ```

#[path = "../tests/golden/mod.rs"]
mod golden;

fn main() {
    let dir = std::env::args_os()
        .nth(1)
        .map(std::path::PathBuf::from)
        .expect("usage: golden_suspend <empty-dir>");
    std::fs::create_dir_all(&dir).unwrap();
    assert!(
        std::fs::read_dir(&dir).unwrap().next().is_none(),
        "{} must be empty",
        dir.display()
    );
    golden::write_suspend(&dir).unwrap();
    println!("suspended query written to {}", dir.display());
}
