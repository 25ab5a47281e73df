//! Physical plan specification.
//!
//! `PlanSpec` is a declarative, serializable description of a physical
//! operator tree (the paper lets the user specify the physical plan to
//! execute; so do we). It travels inside `SuspendedQuery`, so a resumed
//! query re-instantiates exactly the same plan (paper assumption 1).
//!
//! `build` assigns pre-order `OpId`s, validates the plan (block-NLJ inner
//! subtrees must be rescannable/positional chains), and produces both the
//! operator tree and the [`PlanTopology`] consumed by the contract graph
//! and the suspend-plan optimizer.

use crate::operator::Operator;
use crate::ops::{
    AggFn, BlockNlj, Filter, HashJoin, IndexNlj, MergeJoin, Predicate, Project, TableScan,
};
use crate::ops::agg::{Distinct, StreamAgg};
use qsr_core::{OpId, PlanTopology, TopoNode};
use qsr_storage::{Database, Decode, Decoder, Encode, Encoder, Result, Schema, StorageError};

/// Declarative physical plan.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanSpec {
    /// Sequential scan of a catalog table.
    TableScan {
        /// Table name.
        table: String,
    },
    /// Filter.
    Filter {
        /// Input plan.
        input: Box<PlanSpec>,
        /// Predicate.
        predicate: Predicate,
    },
    /// Projection.
    Project {
        /// Input plan.
        input: Box<PlanSpec>,
        /// Output column indices.
        columns: Vec<usize>,
    },
    /// Block nested-loop join (outer buffered, inner rescanned).
    BlockNlj {
        /// Outer (buffered, rebuild) input.
        outer: Box<PlanSpec>,
        /// Inner (rescanned, positional) input — must be a scan / filter /
        /// project chain.
        inner: Box<PlanSpec>,
        /// Join column in the outer schema.
        outer_key: usize,
        /// Join column in the inner schema.
        inner_key: usize,
        /// Outer buffer capacity in tuples.
        buffer_tuples: usize,
    },
    /// Tuple NLJ with an index on the inner table.
    IndexNlj {
        /// Outer input.
        outer: Box<PlanSpec>,
        /// Inner (indexed) table name.
        inner_table: String,
        /// Join column in the outer schema.
        outer_key: usize,
        /// Indexed column of the inner table.
        inner_key: usize,
    },
    /// Two-phase merge sort.
    Sort {
        /// Input plan.
        input: Box<PlanSpec>,
        /// Sort key column.
        key: usize,
        /// Sort buffer capacity in tuples.
        buffer_tuples: usize,
    },
    /// Merge join of sorted inputs (value packets).
    MergeJoin {
        /// Left sorted input.
        left: Box<PlanSpec>,
        /// Right sorted input.
        right: Box<PlanSpec>,
        /// Join column in the left schema.
        left_key: usize,
        /// Join column in the right schema.
        right_key: usize,
    },
    /// Partitioned hash join (simple/Grace or hybrid).
    HashJoin {
        /// Build input.
        build: Box<PlanSpec>,
        /// Probe input.
        probe: Box<PlanSpec>,
        /// Join column in the build schema.
        build_key: usize,
        /// Join column in the probe schema.
        probe_key: usize,
        /// Number of partitions.
        partitions: usize,
        /// Keep build partition 0 in memory (hybrid hash join).
        hybrid: bool,
    },
    /// Streaming group-by aggregate (input sorted on the group column).
    StreamAgg {
        /// Input plan.
        input: Box<PlanSpec>,
        /// Group column (`None` = global aggregate).
        group_col: Option<usize>,
        /// Aggregated column.
        agg_col: usize,
        /// Aggregate function.
        func: AggFn,
    },
    /// Duplicate elimination over sorted input.
    Distinct {
        /// Input plan.
        input: Box<PlanSpec>,
    },
    /// Hash-partitioned group-by aggregate (paper §4's hash-based
    /// grouping; no sorted-input requirement).
    HashAgg {
        /// Input plan.
        input: Box<PlanSpec>,
        /// Group column.
        group_col: usize,
        /// Aggregated column.
        agg_col: usize,
        /// Aggregate function.
        func: AggFn,
        /// Number of disk partitions.
        partitions: usize,
    },
    /// Execution-memory envelope. Allocates no operator of its own: the
    /// builder threads the knobs down to every memory-bound operator in
    /// the subtree (hash joins get a per-partition build budget in tuples
    /// and spill recursively past it; sorts get a merge fan-in cap and
    /// run intermediate merge passes past it). Zero values leave the
    /// wrapped operators in their unbounded single-level behavior. The
    /// envelope travels inside `SuspendedQuery` like any other node, so a
    /// resumed query reconstructs identical spill/merge shapes.
    MemoryBudget {
        /// Wrapped subtree.
        input: Box<PlanSpec>,
        /// Hash-join build-partition budget in tuples (0 = unlimited).
        mem_budget: usize,
        /// Sort merge fan-in cap (0 = unlimited, single-pass merge).
        merge_fanin: usize,
    },
}

const T_SCAN: u8 = 0;
const T_FILTER: u8 = 1;
const T_PROJECT: u8 = 2;
const T_BLOCK_NLJ: u8 = 3;
const T_INDEX_NLJ: u8 = 4;
const T_SORT: u8 = 5;
const T_MERGE_JOIN: u8 = 6;
const T_HASH_JOIN: u8 = 7;
const T_STREAM_AGG: u8 = 8;
const T_DISTINCT: u8 = 9;
const T_HASH_AGG: u8 = 10;
const T_MEMORY_BUDGET: u8 = 11;

impl Encode for PlanSpec {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            PlanSpec::TableScan { table } => {
                enc.put_u8(T_SCAN);
                enc.put_str(table);
            }
            PlanSpec::Filter { input, predicate } => {
                enc.put_u8(T_FILTER);
                input.encode(enc);
                predicate.encode(enc);
            }
            PlanSpec::Project { input, columns } => {
                enc.put_u8(T_PROJECT);
                input.encode(enc);
                enc.put_u32(columns.len() as u32);
                for c in columns {
                    enc.put_usize(*c);
                }
            }
            PlanSpec::BlockNlj {
                outer,
                inner,
                outer_key,
                inner_key,
                buffer_tuples,
            } => {
                enc.put_u8(T_BLOCK_NLJ);
                outer.encode(enc);
                inner.encode(enc);
                enc.put_usize(*outer_key);
                enc.put_usize(*inner_key);
                enc.put_usize(*buffer_tuples);
            }
            PlanSpec::IndexNlj {
                outer,
                inner_table,
                outer_key,
                inner_key,
            } => {
                enc.put_u8(T_INDEX_NLJ);
                outer.encode(enc);
                enc.put_str(inner_table);
                enc.put_usize(*outer_key);
                enc.put_usize(*inner_key);
            }
            PlanSpec::Sort {
                input,
                key,
                buffer_tuples,
            } => {
                enc.put_u8(T_SORT);
                input.encode(enc);
                enc.put_usize(*key);
                enc.put_usize(*buffer_tuples);
            }
            PlanSpec::MergeJoin {
                left,
                right,
                left_key,
                right_key,
            } => {
                enc.put_u8(T_MERGE_JOIN);
                left.encode(enc);
                right.encode(enc);
                enc.put_usize(*left_key);
                enc.put_usize(*right_key);
            }
            PlanSpec::HashJoin {
                build,
                probe,
                build_key,
                probe_key,
                partitions,
                hybrid,
            } => {
                enc.put_u8(T_HASH_JOIN);
                build.encode(enc);
                probe.encode(enc);
                enc.put_usize(*build_key);
                enc.put_usize(*probe_key);
                enc.put_usize(*partitions);
                enc.put_bool(*hybrid);
            }
            PlanSpec::StreamAgg {
                input,
                group_col,
                agg_col,
                func,
            } => {
                enc.put_u8(T_STREAM_AGG);
                input.encode(enc);
                match group_col {
                    Some(g) => {
                        enc.put_bool(true);
                        enc.put_usize(*g);
                    }
                    None => enc.put_bool(false),
                }
                enc.put_usize(*agg_col);
                func.encode(enc);
            }
            PlanSpec::Distinct { input } => {
                enc.put_u8(T_DISTINCT);
                input.encode(enc);
            }
            PlanSpec::HashAgg {
                input,
                group_col,
                agg_col,
                func,
                partitions,
            } => {
                enc.put_u8(T_HASH_AGG);
                input.encode(enc);
                enc.put_usize(*group_col);
                enc.put_usize(*agg_col);
                func.encode(enc);
                enc.put_usize(*partitions);
            }
            PlanSpec::MemoryBudget {
                input,
                mem_budget,
                merge_fanin,
            } => {
                enc.put_u8(T_MEMORY_BUDGET);
                input.encode(enc);
                enc.put_usize(*mem_budget);
                enc.put_usize(*merge_fanin);
            }
        }
    }
}

impl Decode for PlanSpec {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(match dec.get_u8()? {
            T_SCAN => PlanSpec::TableScan {
                table: dec.get_str()?,
            },
            T_FILTER => PlanSpec::Filter {
                input: Box::new(PlanSpec::decode(dec)?),
                predicate: Predicate::decode(dec)?,
            },
            T_PROJECT => {
                let input = Box::new(PlanSpec::decode(dec)?);
                let n = dec.get_u32()? as usize;
                let mut columns = Vec::with_capacity(n);
                for _ in 0..n {
                    columns.push(dec.get_usize()?);
                }
                PlanSpec::Project { input, columns }
            }
            T_BLOCK_NLJ => PlanSpec::BlockNlj {
                outer: Box::new(PlanSpec::decode(dec)?),
                inner: Box::new(PlanSpec::decode(dec)?),
                outer_key: dec.get_usize()?,
                inner_key: dec.get_usize()?,
                buffer_tuples: dec.get_usize()?,
            },
            T_INDEX_NLJ => PlanSpec::IndexNlj {
                outer: Box::new(PlanSpec::decode(dec)?),
                inner_table: dec.get_str()?,
                outer_key: dec.get_usize()?,
                inner_key: dec.get_usize()?,
            },
            T_SORT => PlanSpec::Sort {
                input: Box::new(PlanSpec::decode(dec)?),
                key: dec.get_usize()?,
                buffer_tuples: dec.get_usize()?,
            },
            T_MERGE_JOIN => PlanSpec::MergeJoin {
                left: Box::new(PlanSpec::decode(dec)?),
                right: Box::new(PlanSpec::decode(dec)?),
                left_key: dec.get_usize()?,
                right_key: dec.get_usize()?,
            },
            T_HASH_JOIN => PlanSpec::HashJoin {
                build: Box::new(PlanSpec::decode(dec)?),
                probe: Box::new(PlanSpec::decode(dec)?),
                build_key: dec.get_usize()?,
                probe_key: dec.get_usize()?,
                partitions: dec.get_usize()?,
                hybrid: dec.get_bool()?,
            },
            T_STREAM_AGG => {
                let input = Box::new(PlanSpec::decode(dec)?);
                let group_col = if dec.get_bool()? {
                    Some(dec.get_usize()?)
                } else {
                    None
                };
                PlanSpec::StreamAgg {
                    input,
                    group_col,
                    agg_col: dec.get_usize()?,
                    func: AggFn::decode(dec)?,
                }
            }
            T_DISTINCT => PlanSpec::Distinct {
                input: Box::new(PlanSpec::decode(dec)?),
            },
            T_HASH_AGG => PlanSpec::HashAgg {
                input: Box::new(PlanSpec::decode(dec)?),
                group_col: dec.get_usize()?,
                agg_col: dec.get_usize()?,
                func: AggFn::decode(dec)?,
                partitions: dec.get_usize()?,
            },
            T_MEMORY_BUDGET => PlanSpec::MemoryBudget {
                input: Box::new(PlanSpec::decode(dec)?),
                mem_budget: dec.get_usize()?,
                merge_fanin: dec.get_usize()?,
            },
            t => return Err(StorageError::corrupt(format!("bad plan tag {t}"))),
        })
    }
}

impl PlanSpec {
    /// True if this subtree is a rescannable positional chain (valid as a
    /// block-NLJ inner input).
    fn is_rescannable(&self) -> bool {
        match self {
            PlanSpec::TableScan { .. } => true,
            PlanSpec::Filter { input, .. }
            | PlanSpec::Project { input, .. }
            | PlanSpec::MemoryBudget { input, .. } => input.is_rescannable(),
            _ => false,
        }
    }

    /// Coarse estimate of the peak in-memory footprint this plan pins, in
    /// tuples — the admission controller's demand signal. Buffering
    /// operators contribute their declared capacities (block-NLJ outer
    /// buffers, sort buffers) plus a nominal per-partition build allowance
    /// for hash operators whose input cardinality the spec cannot know.
    /// This is a planning signal, not an accounting truth: it only needs
    /// to rank plans sensibly against a memory budget measured in the same
    /// units.
    pub fn estimated_mem_tuples(&self) -> u64 {
        /// Nominal per-partition in-memory build allowance for hash
        /// operators (cardinality is unknown at admission time).
        const HASH_PARTITION_TUPLES: u64 = 256;
        match self {
            PlanSpec::TableScan { .. } => 1,
            PlanSpec::Filter { input, .. }
            | PlanSpec::Project { input, .. }
            | PlanSpec::Distinct { input }
            | PlanSpec::StreamAgg { input, .. } => 1 + input.estimated_mem_tuples(),
            PlanSpec::IndexNlj { outer, .. } => 1 + outer.estimated_mem_tuples(),
            PlanSpec::BlockNlj {
                outer,
                inner,
                buffer_tuples,
                ..
            } => {
                *buffer_tuples as u64
                    + outer.estimated_mem_tuples()
                    + inner.estimated_mem_tuples()
            }
            PlanSpec::Sort {
                input,
                buffer_tuples,
                ..
            } => *buffer_tuples as u64 + input.estimated_mem_tuples(),
            PlanSpec::MergeJoin { left, right, .. } => {
                2 + left.estimated_mem_tuples() + right.estimated_mem_tuples()
            }
            PlanSpec::HashJoin {
                build,
                probe,
                partitions,
                ..
            } => {
                HASH_PARTITION_TUPLES * (*partitions).max(1) as u64
                    + build.estimated_mem_tuples()
                    + probe.estimated_mem_tuples()
            }
            PlanSpec::HashAgg {
                input, partitions, ..
            } => {
                HASH_PARTITION_TUPLES * (*partitions).max(1) as u64
                    + input.estimated_mem_tuples()
            }
            PlanSpec::MemoryBudget {
                input, mem_budget, ..
            } => {
                // The envelope caps hash-side residency; it cannot shrink
                // declared scan/sort buffers, so cap only below the
                // unconstrained estimate.
                let inner = input.estimated_mem_tuples();
                match *mem_budget {
                    0 => inner,
                    b => inner.min((b as u64).max(1)),
                }
            }
        }
    }

    /// Every catalog table this plan reads, in traversal order. Resume
    /// validation checks each against the catalog before rebuilding the
    /// plan, so a `SuspendedQuery` shipped to the wrong database fails
    /// with a structured error instead of a mid-rebuild surprise.
    pub fn tables(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_tables(&mut out);
        out
    }

    fn collect_tables<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            PlanSpec::TableScan { table } => out.push(table),
            PlanSpec::Filter { input, .. }
            | PlanSpec::Project { input, .. }
            | PlanSpec::Sort { input, .. }
            | PlanSpec::StreamAgg { input, .. }
            | PlanSpec::HashAgg { input, .. }
            | PlanSpec::MemoryBudget { input, .. }
            | PlanSpec::Distinct { input } => input.collect_tables(out),
            PlanSpec::IndexNlj {
                outer, inner_table, ..
            } => {
                outer.collect_tables(out);
                out.push(inner_table);
            }
            PlanSpec::BlockNlj { outer, inner, .. } => {
                outer.collect_tables(out);
                inner.collect_tables(out);
            }
            PlanSpec::MergeJoin { left, right, .. } => {
                left.collect_tables(out);
                right.collect_tables(out);
            }
            PlanSpec::HashJoin { build, probe, .. } => {
                build.collect_tables(out);
                probe.collect_tables(out);
            }
        }
    }

    /// Number of operators in the plan. The `MemoryBudget` envelope
    /// allocates no operator, so it contributes zero.
    pub fn num_operators(&self) -> usize {
        if let PlanSpec::MemoryBudget { input, .. } = self {
            return input.num_operators();
        }
        let mut n = 1;
        match self {
            PlanSpec::TableScan { .. } => {}
            PlanSpec::Filter { input, .. }
            | PlanSpec::Project { input, .. }
            | PlanSpec::Sort { input, .. }
            | PlanSpec::StreamAgg { input, .. }
            | PlanSpec::HashAgg { input, .. }
            | PlanSpec::Distinct { input } => n += input.num_operators(),
            PlanSpec::IndexNlj { outer, .. } => n += outer.num_operators(),
            PlanSpec::BlockNlj { outer, inner, .. } => {
                n += outer.num_operators() + inner.num_operators()
            }
            PlanSpec::MergeJoin { left, right, .. } => {
                n += left.num_operators() + right.num_operators()
            }
            PlanSpec::HashJoin { build, probe, .. } => {
                n += build.num_operators() + probe.num_operators()
            }
            PlanSpec::MemoryBudget { .. } => unreachable!("handled above"),
        }
        n
    }
}

/// Options controlling operator construction (ablation toggles).
#[derive(Debug, Clone)]
pub struct BuildOptions {
    /// Enable contract migration (§3.4). Production default: on.
    pub contract_migration: bool,
}

impl Default for BuildOptions {
    fn default() -> Self {
        Self {
            contract_migration: true,
        }
    }
}

/// A built plan: the operator tree plus its topology.
pub struct BuiltPlan {
    /// Root operator.
    pub root: Box<dyn Operator>,
    /// Plan shape for the contract graph and optimizer.
    pub topology: PlanTopology,
}

struct Builder<'a> {
    db: &'a Database,
    nodes: Vec<TopoNode>,
    options: BuildOptions,
    /// Hash-join build-partition budget in tuples (0 = unlimited) of the
    /// innermost enclosing `PlanSpec::MemoryBudget` envelope.
    mem_budget: usize,
    /// Sort merge fan-in cap (0 = unlimited) of that envelope.
    merge_fanin: usize,
}

impl<'a> Builder<'a> {
    fn alloc(&mut self, parent: Option<OpId>, stateful: bool, label: &str) -> OpId {
        let op = OpId(self.nodes.len() as u32);
        self.nodes.push(TopoNode {
            op,
            parent,
            children: Vec::new(),
            rebuild_children: Vec::new(),
            stateful,
            label: label.to_string(),
        });
        op
    }

    fn link(&mut self, parent: OpId, child: OpId, rebuild: bool) {
        let node = &mut self.nodes[parent.0 as usize];
        node.children.push(child);
        if rebuild {
            node.rebuild_children.push(child);
        }
    }

    fn build(&mut self, spec: &PlanSpec, parent: Option<OpId>) -> Result<Box<dyn Operator>> {
        match spec {
            PlanSpec::TableScan { table } => {
                let info = self.db.table(table)?;
                let op = self.alloc(parent, false, &format!("Scan({table})"));
                Ok(Box::new(TableScan::new(op, table.clone(), info.schema)))
            }
            PlanSpec::Filter { input, predicate } => {
                let op = self.alloc(parent, false, "Filter");
                let child = self.build(input, Some(op))?;
                self.link(op, child.op_id(), true);
                let f = Filter::new(op, predicate.clone(), child);
                Ok(Box::new(if self.options.contract_migration {
                    f
                } else {
                    f.without_migration()
                }))
            }
            PlanSpec::Project { input, columns } => {
                let op = self.alloc(parent, false, "Project");
                let child = self.build(input, Some(op))?;
                self.link(op, child.op_id(), true);
                Ok(Box::new(Project::new(op, columns.clone(), child)))
            }
            PlanSpec::BlockNlj {
                outer,
                inner,
                outer_key,
                inner_key,
                buffer_tuples,
            } => {
                if !inner.is_rescannable() {
                    return Err(StorageError::invalid(
                        "block NLJ inner input must be a rescannable scan/filter/project chain",
                    ));
                }
                let op = self.alloc(parent, true, "BlockNLJ");
                let outer_op = self.build(outer, Some(op))?;
                let inner_op = self.build(inner, Some(op))?;
                self.link(op, outer_op.op_id(), true);
                self.link(op, inner_op.op_id(), false);
                let j = BlockNlj::new(
                    op,
                    outer_op,
                    inner_op,
                    *outer_key,
                    *inner_key,
                    *buffer_tuples,
                );
                Ok(Box::new(if self.options.contract_migration {
                    j
                } else {
                    j.without_migration()
                }))
            }
            PlanSpec::IndexNlj {
                outer,
                inner_table,
                outer_key,
                inner_key,
            } => {
                let info = self.db.table(inner_table)?;
                if !info.indexes.iter().any(|(c, _)| c == inner_key) {
                    return Err(StorageError::invalid(format!(
                        "no index on column {inner_key} of '{inner_table}'"
                    )));
                }
                let op = self.alloc(parent, false, "IndexNLJ");
                let outer_op = self.build(outer, Some(op))?;
                self.link(op, outer_op.op_id(), true);
                Ok(Box::new(IndexNlj::new(
                    op,
                    outer_op,
                    inner_table.clone(),
                    &info.schema,
                    *outer_key,
                    *inner_key,
                )))
            }
            PlanSpec::Sort {
                input,
                key,
                buffer_tuples,
            } => {
                let op = self.alloc(parent, true, "Sort");
                let child = self.build(input, Some(op))?;
                self.link(op, child.op_id(), true);
                let srt = ExternalSortAlias::new(op, child, *key, *buffer_tuples)
                    .with_merge_fanin(self.merge_fanin);
                Ok(Box::new(if self.options.contract_migration {
                    srt
                } else {
                    srt.without_migration()
                }))
            }
            PlanSpec::MergeJoin {
                left,
                right,
                left_key,
                right_key,
            } => {
                let op = self.alloc(parent, true, "MergeJoin");
                let l = self.build(left, Some(op))?;
                let r = self.build(right, Some(op))?;
                self.link(op, l.op_id(), true);
                self.link(op, r.op_id(), true);
                let mj = MergeJoin::new(op, l, r, *left_key, *right_key);
                Ok(Box::new(if self.options.contract_migration {
                    mj
                } else {
                    mj.without_migration()
                }))
            }
            PlanSpec::HashJoin {
                build,
                probe,
                build_key,
                probe_key,
                partitions,
                hybrid,
            } => {
                let label = if *hybrid { "HybridHashJoin" } else { "HashJoin" };
                let op = self.alloc(parent, true, label);
                let b = self.build(build, Some(op))?;
                let p = self.build(probe, Some(op))?;
                self.link(op, b.op_id(), true);
                self.link(op, p.op_id(), true);
                let hj = HashJoin::new(
                    op,
                    b,
                    p,
                    *build_key,
                    *probe_key,
                    *partitions,
                    *hybrid,
                )
                .with_memory_budget(self.mem_budget);
                Ok(Box::new(if self.options.contract_migration {
                    hj
                } else {
                    hj.without_migration()
                }))
            }
            PlanSpec::StreamAgg {
                input,
                group_col,
                agg_col,
                func,
            } => {
                let op = self.alloc(parent, false, "StreamAgg");
                let child = self.build(input, Some(op))?;
                self.link(op, child.op_id(), true);
                Ok(Box::new(StreamAgg::new(
                    op, child, *group_col, *agg_col, *func,
                )))
            }
            PlanSpec::Distinct { input } => {
                let op = self.alloc(parent, false, "Distinct");
                let child = self.build(input, Some(op))?;
                self.link(op, child.op_id(), true);
                Ok(Box::new(Distinct::new(op, child)))
            }
            PlanSpec::HashAgg {
                input,
                group_col,
                agg_col,
                func,
                partitions,
            } => {
                let op = self.alloc(parent, true, "HashAgg");
                let child = self.build(input, Some(op))?;
                self.link(op, child.op_id(), true);
                let ha = crate::ops::HashAgg::new(
                    op, child, *group_col, *agg_col, *func, *partitions,
                );
                Ok(Box::new(if self.options.contract_migration {
                    ha
                } else {
                    ha.without_migration()
                }))
            }
            PlanSpec::MemoryBudget {
                input,
                mem_budget,
                merge_fanin,
            } => {
                // Scoped envelope: knobs apply to the wrapped subtree only
                // and no operator (or OpId) is allocated for the wrapper,
                // so wrapping a plan never renumbers its operators.
                let saved = (self.mem_budget, self.merge_fanin);
                (self.mem_budget, self.merge_fanin) = (*mem_budget, *merge_fanin);
                let built = self.build(input, parent);
                (self.mem_budget, self.merge_fanin) = saved;
                built
            }
        }
    }
}

// `ExternalSort` lives in ops::sort; alias for a tidy import above.
use crate::ops::sort::ExternalSort as ExternalSortAlias;

/// Build an operator tree (and topology) for `spec` against `db`.
pub fn build_plan(db: &Database, spec: &PlanSpec) -> Result<BuiltPlan> {
    build_plan_with(db, spec, BuildOptions::default())
}

/// [`build_plan`] with explicit [`BuildOptions`].
pub fn build_plan_with(db: &Database, spec: &PlanSpec, options: BuildOptions) -> Result<BuiltPlan> {
    let mut b = Builder {
        db,
        nodes: Vec::new(),
        options,
        mem_budget: 0,
        merge_fanin: 0,
    };
    let root = b.build(spec, None)?;
    let topology = PlanTopology::new(b.nodes)?;
    Ok(BuiltPlan { root, topology })
}

/// Output schema of a plan (without building operators). Convenience for
/// planners and tests.
pub fn plan_schema(db: &Database, spec: &PlanSpec) -> Result<Schema> {
    let built = build_plan(db, spec)?;
    Ok(built.root.schema().clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Predicate;

    fn sample_specs() -> Vec<PlanSpec> {
        let scan = |t: &str| PlanSpec::TableScan { table: t.into() };
        vec![
            scan("r"),
            PlanSpec::Filter {
                input: Box::new(scan("r")),
                predicate: Predicate::IntLt { col: 1, value: 42 },
            },
            PlanSpec::Project {
                input: Box::new(scan("r")),
                columns: vec![2, 0],
            },
            PlanSpec::BlockNlj {
                outer: Box::new(scan("r")),
                inner: Box::new(scan("t")),
                outer_key: 0,
                inner_key: 0,
                buffer_tuples: 128,
            },
            PlanSpec::IndexNlj {
                outer: Box::new(scan("r")),
                inner_table: "t".into(),
                outer_key: 0,
                inner_key: 0,
            },
            PlanSpec::Sort {
                input: Box::new(scan("r")),
                key: 1,
                buffer_tuples: 99,
            },
            PlanSpec::MergeJoin {
                left: Box::new(scan("r")),
                right: Box::new(scan("s")),
                left_key: 0,
                right_key: 0,
            },
            PlanSpec::HashJoin {
                build: Box::new(scan("s")),
                probe: Box::new(scan("r")),
                build_key: 0,
                probe_key: 0,
                partitions: 7,
                hybrid: true,
            },
            PlanSpec::StreamAgg {
                input: Box::new(scan("r")),
                group_col: Some(1),
                agg_col: 0,
                func: AggFn::Max,
            },
            PlanSpec::StreamAgg {
                input: Box::new(scan("r")),
                group_col: None,
                agg_col: 0,
                func: AggFn::Count,
            },
            PlanSpec::Distinct {
                input: Box::new(scan("r")),
            },
            PlanSpec::HashAgg {
                input: Box::new(scan("r")),
                group_col: 1,
                agg_col: 0,
                func: AggFn::Sum,
                partitions: 3,
            },
            PlanSpec::MemoryBudget {
                input: Box::new(PlanSpec::Sort {
                    input: Box::new(scan("r")),
                    key: 0,
                    buffer_tuples: 12,
                }),
                mem_budget: 4,
                merge_fanin: 2,
            },
        ]
    }

    #[test]
    fn every_variant_roundtrips_through_codec() {
        for spec in sample_specs() {
            let back = PlanSpec::decode_from_slice(&spec.encode_to_vec()).unwrap();
            assert_eq!(back, spec);
        }
        // And a deep nesting of all of them.
        let mut nested = PlanSpec::TableScan { table: "r".into() };
        for spec in sample_specs() {
            nested = PlanSpec::BlockNlj {
                outer: Box::new(nested),
                inner: Box::new(PlanSpec::TableScan { table: "t".into() }),
                outer_key: 0,
                inner_key: 0,
                buffer_tuples: 5,
            };
            let _ = spec;
        }
        let back = PlanSpec::decode_from_slice(&nested.encode_to_vec()).unwrap();
        assert_eq!(back, nested);
    }

    #[test]
    fn num_operators_counts_every_node() {
        let spec = PlanSpec::BlockNlj {
            outer: Box::new(PlanSpec::Filter {
                input: Box::new(PlanSpec::TableScan { table: "r".into() }),
                predicate: Predicate::True,
            }),
            inner: Box::new(PlanSpec::TableScan { table: "t".into() }),
            outer_key: 0,
            inner_key: 0,
            buffer_tuples: 10,
        };
        assert_eq!(spec.num_operators(), 4);
        assert_eq!(
            PlanSpec::TableScan { table: "x".into() }.num_operators(),
            1
        );
    }

    #[test]
    fn memory_budget_envelope_is_operator_transparent() {
        let wrapped = PlanSpec::MemoryBudget {
            input: Box::new(PlanSpec::HashJoin {
                build: Box::new(PlanSpec::TableScan { table: "s".into() }),
                probe: Box::new(PlanSpec::TableScan { table: "r".into() }),
                build_key: 0,
                probe_key: 0,
                partitions: 3,
                hybrid: false,
            }),
            mem_budget: 8,
            merge_fanin: 0,
        };
        assert_eq!(wrapped.num_operators(), 3);
        assert_eq!(wrapped.tables(), vec!["s", "r"]);
        let back = PlanSpec::decode_from_slice(&wrapped.encode_to_vec()).unwrap();
        assert_eq!(back, wrapped);
    }

    #[test]
    fn rescannable_validation() {
        assert!(PlanSpec::TableScan { table: "t".into() }.is_rescannable());
        assert!(PlanSpec::Filter {
            input: Box::new(PlanSpec::TableScan { table: "t".into() }),
            predicate: Predicate::True,
        }
        .is_rescannable());
        assert!(!PlanSpec::Sort {
            input: Box::new(PlanSpec::TableScan { table: "t".into() }),
            key: 0,
            buffer_tuples: 10,
        }
        .is_rescannable());
    }

    #[test]
    fn corrupt_plan_bytes_rejected() {
        let spec = PlanSpec::TableScan { table: "r".into() };
        let mut bytes = spec.encode_to_vec();
        bytes[0] = 200; // bad tag
        assert!(PlanSpec::decode_from_slice(&bytes).is_err());
    }
}
