//! Table generators.

use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use qsr_storage::{
    Column, DataType, Database, HeapFile, IndexBuilder, Result, Schema, TableInfo, Tuple, ValueRef,
};
use std::sync::Arc;

/// Fraction of the skewed table (Figure 12) generated in the low-pass
/// regime; `0.6437 * 0.1 + 0.3563 * 0.9 = 0.385`, the paper's effective
/// selectivity.
pub const SKEW_SWITCH_FRACTION: f64 = 0.6437;
/// Selectivity of the fixed filter over the first regime.
pub const SKEW_SEL_LOW: f64 = 0.1;
/// Selectivity of the fixed filter over the second regime.
pub const SKEW_SEL_HIGH: f64 = 0.9;

/// Key distribution of a generated table. The non-uniform variants are
/// adversarial inputs for the memory-budgeted operators: skew defeats
/// one-level hash partitioning, duplicates never split no matter how deep
/// the recursion, and reversed order is the worst case for run formation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KeyDist {
    /// A (possibly sorted) permutation of `0..rows` — the paper's "random
    /// unique integer key values".
    #[default]
    Unique,
    /// Zipf-like skew: keys drawn log-uniformly from `0..rows`, so a few
    /// small keys carry most of the mass.
    Zipf,
    /// Duplicate-heavy: ~80% of rows share key 0; the rest are drawn
    /// uniformly. Recursive re-partitioning cannot split the hot key.
    DupHeavy,
    /// Keys `rows-1..0` strictly descending (presorted-reversed input).
    Reversed,
}

/// Specification of a synthetic table.
#[derive(Debug, Clone)]
pub struct TableSpec {
    /// Table name registered in the catalog.
    pub name: String,
    /// Number of rows.
    pub rows: u64,
    /// Payload string width in bytes (the paper uses 200-byte tuples; with
    /// the key and selectivity columns, a payload of ~180 lands there).
    pub payload_bytes: usize,
    /// If true, keys are `0..rows` in order (a presorted table, Example 10);
    /// otherwise keys are a random permutation of `0..rows` (the paper's
    /// "random unique integer key values"). Only meaningful for
    /// [`KeyDist::Unique`].
    pub sorted_key: bool,
    /// Key distribution (default [`KeyDist::Unique`]).
    pub key_dist: KeyDist,
    /// RNG seed (generators are fully deterministic).
    pub seed: u64,
}

impl TableSpec {
    /// A conventional spec: random unique keys, 180-byte payload.
    pub fn new(name: impl Into<String>, rows: u64) -> Self {
        Self {
            name: name.into(),
            rows,
            payload_bytes: 180,
            sorted_key: false,
            key_dist: KeyDist::Unique,
            seed: 0x5eed,
        }
    }

    /// Builder-style: presorted keys.
    pub fn sorted(mut self) -> Self {
        self.sorted_key = true;
        self
    }

    /// Builder-style: payload width.
    pub fn payload(mut self, bytes: usize) -> Self {
        self.payload_bytes = bytes;
        self
    }

    /// Builder-style: key distribution.
    pub fn dist(mut self, dist: KeyDist) -> Self {
        self.key_dist = dist;
        self
    }

    /// Builder-style: RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// The standard experiment schema: `(key INT, sel INT, payload STR)`.
pub fn experiment_schema(table: &str) -> Schema {
    Schema::new(vec![
        Column::new(format!("{table}.key"), DataType::Int),
        Column::new(format!("{table}.sel"), DataType::Int),
        Column::new(format!("{table}.payload"), DataType::Str),
    ])
}

fn payload_for(key: i64, width: usize) -> String {
    // Deterministic, compressible-but-nonconstant filler.
    let mut s = format!("row-{key}-");
    while s.len() < width {
        s.push((b'a' + ((key as u64).wrapping_mul(31).wrapping_add(s.len() as u64) % 26) as u8) as char);
    }
    s.truncate(width);
    s
}

/// Draw the key column according to the spec's [`KeyDist`] (deterministic
/// for a given seed).
fn generate_keys(rng: &mut rand::rngs::StdRng, spec: &TableSpec) -> Vec<i64> {
    let n = spec.rows as i64;
    match spec.key_dist {
        KeyDist::Unique => {
            let mut keys: Vec<i64> = (0..n).collect();
            if !spec.sorted_key {
                keys.shuffle(rng);
            }
            keys
        }
        KeyDist::Zipf => (0..n)
            .map(|_| {
                // Log-uniform over [1, rows] → heavy mass on small keys.
                let u: f64 = rng.gen_range(0.0..1.0);
                (((n as f64).powf(u)) as i64 - 1).clamp(0, n - 1)
            })
            .collect(),
        KeyDist::DupHeavy => (0..n)
            .map(|_| {
                if rng.gen_bool(0.8) {
                    0
                } else {
                    rng.gen_range(0..n.max(1))
                }
            })
            .collect(),
        KeyDist::Reversed => (0..n).rev().collect(),
    }
}

/// Generate a table: keys follow the spec's distribution (by default a
/// possibly-sorted permutation of `0..rows`); `sel` is uniform in
/// `0..1000`.
pub fn generate_table(db: &Arc<Database>, spec: &TableSpec) -> Result<TableInfo> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(spec.seed);
    let keys = generate_keys(&mut rng, spec);
    let schema = experiment_schema(&spec.name);
    let mut heap = HeapFile::create(db.pool().clone())?;
    for &key in &keys {
        let sel = rng.gen_range(0..1000i64);
        heap.append(&Tuple::from_fields([
            ValueRef::Int(key),
            ValueRef::Int(sel),
            ValueRef::Str(&payload_for(key, spec.payload_bytes)),
        ]))?;
    }
    heap.finish()?;
    let info = TableInfo {
        name: spec.name.clone(),
        file: heap.file_id(),
        schema,
        tuple_count: heap.tuple_count(),
        indexes: vec![],
        sorted_on: if spec.sorted_key && spec.key_dist == KeyDist::Unique {
            Some(0)
        } else {
            None
        },
    };
    db.with_catalog_mut(|c| c.create_table(info.clone()))?;
    Ok(info)
}

/// Generate the Figure 12 skewed table: over the first
/// [`SKEW_SWITCH_FRACTION`] of rows the `sel` column passes a `sel < 500`
/// filter with probability [`SKEW_SEL_LOW`]; over the remainder with
/// probability [`SKEW_SEL_HIGH`].
pub fn generate_skewed_table(db: &Arc<Database>, spec: &TableSpec) -> Result<TableInfo> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(spec.seed);
    let mut keys: Vec<i64> = (0..spec.rows as i64).collect();
    if !spec.sorted_key {
        keys.shuffle(&mut rng);
    }
    let schema = experiment_schema(&spec.name);
    let switch = (spec.rows as f64 * SKEW_SWITCH_FRACTION) as u64;
    let mut heap = HeapFile::create(db.pool().clone())?;
    for (i, &key) in keys.iter().enumerate() {
        let p_pass = if (i as u64) < switch {
            SKEW_SEL_LOW
        } else {
            SKEW_SEL_HIGH
        };
        // `sel < 500` passes with probability p_pass.
        let sel = if rng.gen_bool(p_pass) {
            rng.gen_range(0..500i64)
        } else {
            rng.gen_range(500..1000i64)
        };
        heap.append(&Tuple::from_fields([
            ValueRef::Int(key),
            ValueRef::Int(sel),
            ValueRef::Str(&payload_for(key, spec.payload_bytes)),
        ]))?;
    }
    heap.finish()?;
    let info = TableInfo {
        name: spec.name.clone(),
        file: heap.file_id(),
        schema,
        tuple_count: heap.tuple_count(),
        indexes: vec![],
        sorted_on: None,
    };
    db.with_catalog_mut(|c| c.create_table(info.clone()))?;
    Ok(info)
}

/// Build a sorted index on integer column `column` of `table` and register
/// it in the catalog.
pub fn build_index(db: &Arc<Database>, table: &str, column: usize) -> Result<()> {
    let info = db.table(table)?;
    let heap = db.open_table_heap(table)?;
    let mut builder = IndexBuilder::new(db.pool().clone());
    let mut cursor = heap.cursor();
    while let Some((addr, t)) = cursor.next_with_addr()? {
        builder.add(t.get(column).as_int()?, addr);
    }
    let meta = builder.finish()?;
    let mut updated = info;
    updated.indexes.push((column, meta));
    db.with_catalog_mut(|c| c.update_table(updated))
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TempDir(std::path::PathBuf);
    impl TempDir {
        fn new() -> Self {
            static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
            let p = std::env::temp_dir().join(format!(
                "qsr-workload-test-{}-{}",
                std::process::id(),
                N.fetch_add(1, std::sync::atomic::Ordering::SeqCst)
            ));
            std::fs::create_dir_all(&p).unwrap();
            TempDir(p)
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn scan_all(db: &Arc<Database>, name: &str) -> Vec<Tuple> {
        let heap = db.open_table_heap(name).unwrap();
        let mut c = heap.cursor();
        let mut out = Vec::new();
        while let Some(t) = c.next().unwrap() {
            out.push(t);
        }
        out
    }

    #[test]
    fn uniform_table_has_unique_keys_and_uniform_sel() {
        let d = TempDir::new();
        let db = Database::open_default(&d.0).unwrap();
        let info = generate_table(&db, &TableSpec::new("r", 5000).payload(40)).unwrap();
        assert_eq!(info.tuple_count, 5000);
        let rows = scan_all(&db, "r");
        let mut keys: Vec<i64> = rows.iter().map(|t| t.get(0).as_int().unwrap()).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 5000, "keys must be unique");
        // sel < 500 should pass roughly half.
        let pass = rows
            .iter()
            .filter(|t| t.get(1).as_int().unwrap() < 500)
            .count();
        assert!((2000..3000).contains(&pass), "sel not uniform: {pass}/5000");
    }

    #[test]
    fn generation_is_deterministic() {
        let d1 = TempDir::new();
        let d2 = TempDir::new();
        let db1 = Database::open_default(&d1.0).unwrap();
        let db2 = Database::open_default(&d2.0).unwrap();
        generate_table(&db1, &TableSpec::new("r", 500).payload(32).seed(7)).unwrap();
        generate_table(&db2, &TableSpec::new("r", 500).payload(32).seed(7)).unwrap();
        assert_eq!(scan_all(&db1, "r"), scan_all(&db2, "r"));
    }

    #[test]
    fn sorted_spec_produces_ordered_keys() {
        let d = TempDir::new();
        let db = Database::open_default(&d.0).unwrap();
        let info = generate_table(&db, &TableSpec::new("s", 300).sorted().payload(16)).unwrap();
        assert_eq!(info.sorted_on, Some(0));
        let rows = scan_all(&db, "s");
        let keys: Vec<i64> = rows.iter().map(|t| t.get(0).as_int().unwrap()).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn skewed_table_matches_two_regime_selectivities() {
        let d = TempDir::new();
        let db = Database::open_default(&d.0).unwrap();
        generate_skewed_table(&db, &TableSpec::new("rk", 20_000).payload(8).seed(3)).unwrap();
        let rows = scan_all(&db, "rk");
        let switch = (20_000.0 * SKEW_SWITCH_FRACTION) as usize;
        let pass_low = rows[..switch]
            .iter()
            .filter(|t| t.get(1).as_int().unwrap() < 500)
            .count() as f64
            / switch as f64;
        let pass_high = rows[switch..]
            .iter()
            .filter(|t| t.get(1).as_int().unwrap() < 500)
            .count() as f64
            / (rows.len() - switch) as f64;
        assert!((pass_low - SKEW_SEL_LOW).abs() < 0.02, "low regime {pass_low}");
        assert!((pass_high - SKEW_SEL_HIGH).abs() < 0.02, "high regime {pass_high}");
        // Effective selectivity ≈ 0.385 (the paper's number).
        let eff = rows
            .iter()
            .filter(|t| t.get(1).as_int().unwrap() < 500)
            .count() as f64
            / rows.len() as f64;
        assert!((eff - 0.385).abs() < 0.02, "effective {eff}");
    }

    #[test]
    fn index_probe_finds_rows() {
        let d = TempDir::new();
        let db = Database::open_default(&d.0).unwrap();
        generate_table(&db, &TableSpec::new("t", 2000).payload(16)).unwrap();
        build_index(&db, "t", 0).unwrap();
        let idx = db.open_table_index("t", 0).unwrap();
        let heap = db.open_table_heap("t").unwrap();
        for key in [0i64, 777, 1999] {
            let hits = idx.lookup(key).unwrap();
            assert_eq!(hits.len(), 1, "key {key}");
            let t = heap.fetch(hits[0]).unwrap();
            assert_eq!(t.get(0).as_int().unwrap(), key);
        }
        assert!(idx.lookup(2000).unwrap().is_empty());
    }

    #[test]
    fn zipf_keys_are_skewed_and_deterministic() {
        let d1 = TempDir::new();
        let d2 = TempDir::new();
        let db1 = Database::open_default(&d1.0).unwrap();
        let db2 = Database::open_default(&d2.0).unwrap();
        let spec = TableSpec::new("z", 2000).payload(8).dist(KeyDist::Zipf).seed(9);
        generate_table(&db1, &spec).unwrap();
        generate_table(&db2, &spec).unwrap();
        let rows = scan_all(&db1, "z");
        assert_eq!(rows, scan_all(&db2, "z"));
        // Log-uniform mass: well over half the keys land in the bottom
        // tenth of the range.
        let small = rows
            .iter()
            .filter(|t| t.get(0).as_int().unwrap() < 200)
            .count();
        assert!(small > 1000, "zipf not skewed: {small}/2000 below 200");
    }

    #[test]
    fn dup_heavy_concentrates_on_the_hot_key() {
        let d = TempDir::new();
        let db = Database::open_default(&d.0).unwrap();
        generate_table(
            &db,
            &TableSpec::new("dh", 1000).payload(8).dist(KeyDist::DupHeavy).seed(4),
        )
        .unwrap();
        let rows = scan_all(&db, "dh");
        let hot = rows
            .iter()
            .filter(|t| t.get(0).as_int().unwrap() == 0)
            .count();
        assert!((700..900).contains(&hot), "hot key share off: {hot}/1000");
    }

    #[test]
    fn reversed_keys_descend_and_are_not_marked_sorted() {
        let d = TempDir::new();
        let db = Database::open_default(&d.0).unwrap();
        let info = generate_table(
            &db,
            &TableSpec::new("rv", 100).payload(8).dist(KeyDist::Reversed),
        )
        .unwrap();
        assert_eq!(info.sorted_on, None);
        let keys: Vec<i64> = scan_all(&db, "rv")
            .iter()
            .map(|t| t.get(0).as_int().unwrap())
            .collect();
        assert!(keys.windows(2).all(|w| w[0] > w[1]));
        assert_eq!(keys[0], 99);
    }

    #[test]
    fn payload_width_is_respected() {
        let d = TempDir::new();
        let db = Database::open_default(&d.0).unwrap();
        generate_table(&db, &TableSpec::new("w", 10).payload(180)).unwrap();
        for t in scan_all(&db, "w") {
            assert_eq!(t.get(2).as_str().unwrap().len(), 180);
        }
    }
}
