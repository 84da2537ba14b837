//! Differential property tests: the **parallel** morsel-driven executor
//! (`Executor::execute_parallel`) and the **vectorized** chunk executor (`Executor::execute`)
//! must both produce exactly the same relations as the naive materializing **reference**
//! evaluator on arbitrary plans — plain and provenance-rewritten, optimized and unoptimized.
//!
//! Random plans cover the operator space the provenance rewriter emits: selections,
//! column-shuffling projections, DISTINCT, inner/outer/cross joins, bag/set set-operations and
//! grouped aggregation, nested to depth 3. Deterministic tests cover the chunk-boundary /
//! morsel-boundary edge cases (empty input, one row, exactly one full chunk, one row past a
//! chunk boundary, at worker counts 1 and 8), integer-overflow error behaviour, NaN sort keys
//! and cross-type (Int/Date) hash-key consistency.

use proptest::prelude::*;

use perm::prelude::*;
use perm_algebra::{
    AggregateExpr, AggregateFunction, BinaryOperator, JoinKind, ScalarExpr, Schema, SetOpKind,
    SetSemantics,
};
use perm_exec::{execute_reference, Executor, Optimizer, WorkerPool};

/// Worker pool shared by every differential case (4-way parallelism; the deterministic edge
/// cases below additionally exercise dedicated 1- and 8-worker pools).
fn shared_pool() -> &'static WorkerPool {
    static POOL: std::sync::OnceLock<WorkerPool> = std::sync::OnceLock::new();
    POOL.get_or_init(|| WorkerPool::new(4))
}

/// A recipe for a random plan over two union-compatible tables `r` and `s` (both `(k, v)`
/// integer relations). Every node produces a two-column output so specs compose freely.
#[derive(Debug, Clone)]
enum Spec {
    Scan {
        use_s: bool,
    },
    Filter {
        input: Box<Spec>,
        below: i64,
    },
    /// Swap the two columns (checks column remapping through pruning).
    Swap {
        input: Box<Spec>,
    },
    Distinct {
        input: Box<Spec>,
    },
    /// Join on `left.k = right.k`, then project back to `(left.k, right.v)`.
    Join {
        left: Box<Spec>,
        right: Box<Spec>,
        kind: u8,
    },
    SetOp {
        left: Box<Spec>,
        right: Box<Spec>,
        kind: u8,
        bag: bool,
    },
    /// `SELECT k, sum(v) GROUP BY k`.
    Aggregate {
        input: Box<Spec>,
    },
}

/// Decode a bounded-depth spec from a random byte genome (the vendored proptest shim has no
/// `prop_recursive`; shrinking the genome shrinks the plan).
fn decode(genome: &mut std::slice::Iter<'_, u8>, depth: usize) -> Spec {
    let byte = |g: &mut std::slice::Iter<'_, u8>| g.next().copied().unwrap_or(0);
    let b = byte(genome);
    if depth == 0 {
        return Spec::Scan { use_s: b & 1 == 1 };
    }
    match b % 8 {
        0 | 1 => Spec::Scan { use_s: b & 16 == 16 },
        2 => Spec::Filter {
            input: Box::new(decode(genome, depth - 1)),
            below: i64::from(byte(genome) % 6),
        },
        3 => Spec::Swap { input: Box::new(decode(genome, depth - 1)) },
        4 => Spec::Distinct { input: Box::new(decode(genome, depth - 1)) },
        5 => Spec::Join {
            left: Box::new(decode(genome, depth - 1)),
            right: Box::new(decode(genome, depth - 1)),
            kind: byte(genome) % 5,
        },
        6 => Spec::SetOp {
            left: Box::new(decode(genome, depth - 1)),
            right: Box::new(decode(genome, depth - 1)),
            kind: byte(genome) % 3,
            bag: b & 16 == 16,
        },
        _ => Spec::Aggregate { input: Box::new(decode(genome, depth - 1)) },
    }
}

fn spec_strategy() -> impl Strategy<Value = Spec> {
    proptest::collection::vec(0u8..=255, 1..32).prop_map(|genome| decode(&mut genome.iter(), 3))
}

fn build(spec: &Spec, catalog: &Catalog, next_ref: &mut usize) -> perm_algebra::PlanBuilder {
    match spec {
        Spec::Scan { use_s } => {
            let name = if *use_s { "s" } else { "r" };
            let ref_id = *next_ref;
            *next_ref += 1;
            perm_algebra::PlanBuilder::scan(name, catalog.table_schema(name).unwrap(), ref_id)
        }
        Spec::Filter { input, below } => {
            let b = build(input, catalog, next_ref);
            b.filter(ScalarExpr::binary(
                BinaryOperator::Lt,
                ScalarExpr::column(0, "k"),
                ScalarExpr::literal(*below),
            ))
        }
        Spec::Swap { input } => {
            let b = build(input, catalog, next_ref);
            b.project(vec![
                (ScalarExpr::column(1, "v"), "k".into()),
                (ScalarExpr::column(0, "k"), "v".into()),
            ])
        }
        Spec::Distinct { input } => {
            let b = build(input, catalog, next_ref);
            b.project_distinct(vec![
                (ScalarExpr::column(0, "k"), "k".into()),
                (ScalarExpr::column(1, "v"), "v".into()),
            ])
        }
        Spec::Join { left, right, kind } => {
            let l = build(left, catalog, next_ref);
            let r = build(right, catalog, next_ref);
            let kind = match kind {
                0 => JoinKind::Inner,
                1 => JoinKind::LeftOuter,
                2 => JoinKind::RightOuter,
                3 => JoinKind::FullOuter,
                _ => JoinKind::Cross,
            };
            let condition = (kind != JoinKind::Cross)
                .then(|| ScalarExpr::column(0, "k").eq(ScalarExpr::column(2, "k")));
            l.join(r, kind, condition).project(vec![
                (ScalarExpr::column(0, "k"), "k".into()),
                (ScalarExpr::column(3, "v"), "v".into()),
            ])
        }
        Spec::SetOp { left, right, kind, bag } => {
            let l = build(left, catalog, next_ref);
            let r = build(right, catalog, next_ref);
            let kind = match kind {
                0 => SetOpKind::Union,
                1 => SetOpKind::Intersect,
                _ => SetOpKind::Difference,
            };
            let semantics = if *bag { SetSemantics::Bag } else { SetSemantics::Set };
            l.set_op(r, kind, semantics)
        }
        Spec::Aggregate { input } => {
            let b = build(input, catalog, next_ref);
            b.aggregate(
                vec![(ScalarExpr::column(0, "k"), "k".into())],
                vec![(
                    AggregateExpr::new(AggregateFunction::Sum, ScalarExpr::column(1, "v")),
                    "v".into(),
                )],
            )
        }
    }
}

fn catalog_with(r: &[(i64, i64)], s: &[(i64, i64)]) -> Catalog {
    let catalog = Catalog::new();
    let schema = Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)]);
    for (name, rows) in [("r", r), ("s", s)] {
        let tuples =
            rows.iter().map(|(k, v)| Tuple::new(vec![Value::Int(*k), Value::Int(*v)])).collect();
        catalog.create_table_with_data(name, Relation::from_parts(schema.clone(), tuples)).unwrap();
    }
    catalog
}

fn rows_strategy() -> impl Strategy<Value = Vec<(i64, i64)>> {
    proptest::collection::vec((0i64..5, 0i64..4), 0..8)
}

/// Run one plan through all three execution paths and check the two fast paths against the
/// oracle.
fn assert_three_way(catalog: &Catalog, plan: &perm_algebra::LogicalPlan, context: &str) {
    let executor = Executor::new(catalog.clone());
    let reference = execute_reference(catalog, plan).unwrap();
    let vectorized = executor.execute(plan).unwrap();
    let parallel = executor.execute_parallel(plan, shared_pool()).unwrap();
    assert!(vectorized.bag_eq(&reference), "vectorized != reference on {context}\n{plan}");
    assert!(parallel.bag_eq(&reference), "parallel != reference on {context}\n{plan}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Vectorized, parallel and reference execution agree on arbitrary plans, with and
    /// without the optimizer (predicate pushdown, projection merging and column pruning
    /// included).
    #[test]
    fn vectorized_and_streaming_equal_reference(
        spec in spec_strategy(),
        r in rows_strategy(),
        s in rows_strategy(),
    ) {
        let catalog = catalog_with(&r, &s);
        let mut next_ref = 0;
        let plan = build(&spec, &catalog, &mut next_ref).build();
        plan.validate().unwrap();
        plan.verify().unwrap();

        let executor = Executor::new(catalog.clone());
        let reference = execute_reference(&catalog, &plan).unwrap();
        let vectorized = executor.execute(&plan).unwrap();
        let parallel = executor.execute_parallel(&plan, shared_pool()).unwrap();
        prop_assert!(
            vectorized.bag_eq(&reference),
            "vectorized != reference on raw plan\n{plan}"
        );
        prop_assert!(
            parallel.bag_eq(&reference),
            "parallel != reference on raw plan\n{plan}"
        );

        let optimized = Optimizer::new().optimize(&plan).unwrap();
        optimized.validate().unwrap();
        optimized.verify().unwrap();
        let vectorized_opt = executor.execute(&optimized).unwrap();
        let parallel_opt = executor.execute_parallel(&optimized, shared_pool()).unwrap();
        prop_assert!(
            vectorized_opt.bag_eq(&reference),
            "optimized vectorized != reference\nraw:\n{plan}\noptimized:\n{optimized}"
        );
        prop_assert!(
            parallel_opt.bag_eq(&reference),
            "optimized parallel != reference\nraw:\n{plan}\noptimized:\n{optimized}"
        );
    }

    /// The same differential check on *provenance-rewritten* plans: rules R1–R9
    /// produce wide joins and duplicated sub-plans, exactly the shapes the chunked join
    /// gathers and the column-pruning pass must not corrupt.
    #[test]
    fn vectorized_and_streaming_equal_reference_on_rewritten_plans(
        spec in spec_strategy(),
        r in rows_strategy(),
        s in rows_strategy(),
    ) {
        let catalog = catalog_with(&r, &s);
        let mut next_ref = 0;
        let plan = build(&spec, &catalog, &mut next_ref).build();
        let rewritten = ProvenanceRewriter::new().rewrite(&plan).unwrap();
        rewritten.validate().unwrap();
        rewritten.verify().unwrap();

        let executor = Executor::new(catalog.clone());
        let reference = execute_reference(&catalog, &rewritten).unwrap();
        let vectorized = executor.execute(&rewritten).unwrap();
        let parallel = executor.execute_parallel(&rewritten, shared_pool()).unwrap();
        prop_assert!(
            vectorized.bag_eq(&reference),
            "vectorized != reference on rewritten plan\n{rewritten}"
        );
        prop_assert!(
            parallel.bag_eq(&reference),
            "parallel != reference on rewritten plan\n{rewritten}"
        );

        let optimized = Optimizer::new().optimize(&rewritten).unwrap();
        optimized.validate().unwrap();
        optimized.verify().unwrap();
        let vectorized_opt = executor.execute(&optimized).unwrap();
        let parallel_opt = executor.execute_parallel(&optimized, shared_pool()).unwrap();
        prop_assert!(
            vectorized_opt.bag_eq(&reference),
            "optimized vectorized != reference on rewritten plan\n{rewritten}"
        );
        prop_assert!(
            parallel_opt.bag_eq(&reference),
            "optimized parallel != reference on rewritten plan\n{rewritten}"
        );
    }

    /// A streaming/chunk-sliced LIMIT must agree with the reference (which materializes
    /// everything first) on deterministically ordered inputs.
    #[test]
    fn limit_agrees_with_reference_after_sort(
        r in rows_strategy(),
        limit in 0usize..10,
        offset in 0usize..4,
    ) {
        let catalog = catalog_with(&r, &[]);
        let scan = perm_algebra::PlanBuilder::scan("r", catalog.table_schema("r").unwrap(), 0);
        let plan = scan
            .sort(vec![
                perm_algebra::SortKey::asc(ScalarExpr::column(0, "k")),
                perm_algebra::SortKey::asc(ScalarExpr::column(1, "v")),
            ])
            .limit(Some(limit), offset)
            .build();
        let executor = Executor::new(catalog.clone());
        let reference = execute_reference(&catalog, &plan).unwrap();
        let vectorized = executor.execute(&plan).unwrap();
        let parallel = executor.execute_parallel(&plan, shared_pool()).unwrap();
        prop_assert_eq!(vectorized.tuples(), reference.tuples());
        prop_assert_eq!(parallel.tuples(), reference.tuples());
    }
}

/// Chunk/morsel-boundary edge cases: relations of exactly 0, 1, `DEFAULT_CHUNK_SIZE - 1`,
/// `DEFAULT_CHUNK_SIZE` and `DEFAULT_CHUNK_SIZE + 1` rows flowing through scans, filters,
/// projections, joins, DISTINCT, aggregation and provenance rewriting. Every count is chosen
/// so correctness depends on the chunked operators handling empty batches, single-row morsels
/// and batch-boundary splits exactly.
#[test]
fn chunk_boundary_row_counts_agree_across_all_paths() {
    use perm_algebra::{PlanBuilder, DEFAULT_CHUNK_SIZE};

    for rows in [0usize, 1, DEFAULT_CHUNK_SIZE - 1, DEFAULT_CHUNK_SIZE, DEFAULT_CHUNK_SIZE + 1] {
        let r: Vec<(i64, i64)> = (0..rows as i64).map(|i| (i % 7, i % 3)).collect();
        let s: Vec<(i64, i64)> = (0..(rows / 2) as i64).map(|i| (i % 7, i % 5)).collect();
        let catalog = catalog_with(&r, &s);
        let scan = |name: &str, ref_id: usize| {
            PlanBuilder::scan(name, catalog.table_schema(name).unwrap(), ref_id)
        };

        // Plain scan.
        let plan = scan("r", 0).build();
        assert_three_way(&catalog, &plan, &format!("scan of {rows} rows"));

        // Filter that keeps roughly 1/7 of the rows (and nothing of an empty relation).
        let filtered =
            scan("r", 0).filter(ScalarExpr::column(0, "k").eq(ScalarExpr::literal(1i64))).build();
        assert_three_way(&catalog, &filtered, &format!("filtered scan of {rows} rows"));

        // Computed projection with DISTINCT.
        let projected = scan("r", 0)
            .project_distinct(vec![(
                ScalarExpr::binary(
                    BinaryOperator::Add,
                    ScalarExpr::column(0, "k"),
                    ScalarExpr::column(1, "v"),
                ),
                "kv".into(),
            )])
            .build();
        assert_three_way(&catalog, &projected, &format!("distinct projection of {rows} rows"));

        // Hash join whose probe side spans a chunk boundary.
        let joined = scan("r", 0)
            .join(
                scan("s", 1),
                JoinKind::Inner,
                Some(ScalarExpr::column(0, "k").eq(ScalarExpr::column(2, "k"))),
            )
            .build();
        assert_three_way(&catalog, &joined, &format!("hash join of {rows} rows"));

        // Left outer join: NULL padding interleaves with matches inside batches.
        let outer = scan("r", 0)
            .join(
                scan("s", 1),
                JoinKind::LeftOuter,
                Some(ScalarExpr::column(1, "v").eq(ScalarExpr::column(3, "v"))),
            )
            .build();
        assert_three_way(&catalog, &outer, &format!("left outer join of {rows} rows"));

        // Aggregation with group keys.
        let aggregated = scan("r", 0)
            .aggregate(
                vec![(ScalarExpr::column(0, "k"), "k".into())],
                vec![(
                    AggregateExpr::new(AggregateFunction::Sum, ScalarExpr::column(1, "v")),
                    "sum_v".into(),
                )],
            )
            .build();
        assert_three_way(&catalog, &aggregated, &format!("aggregation of {rows} rows"));

        // Bag difference (chunked set-operation path).
        let diff =
            scan("r", 0).set_op(scan("s", 1), SetOpKind::Difference, SetSemantics::Bag).build();
        assert_three_way(&catalog, &diff, &format!("bag difference of {rows} rows"));

        // A provenance-rewritten join (the paper's wide self-join shapes) at the boundary.
        let rewritten = ProvenanceRewriter::new().rewrite(&joined).unwrap();
        assert_three_way(&catalog, &rewritten, &format!("rewritten join of {rows} rows"));

        // Limit slicing exactly at and one past the chunk boundary.
        for limit in [DEFAULT_CHUNK_SIZE, DEFAULT_CHUNK_SIZE + 1] {
            let limited = scan("r", 0).limit(Some(limit), 1).build();
            let executor = Executor::new(catalog.clone());
            let reference = execute_reference(&catalog, &limited).unwrap();
            let vectorized = executor.execute(&limited).unwrap();
            let parallel = executor.execute_parallel(&limited, shared_pool()).unwrap();
            assert_eq!(vectorized.tuples(), reference.tuples(), "limit {limit} over {rows} rows");
            assert_eq!(
                parallel.tuples(),
                vectorized.tuples(),
                "parallel limit {limit} over {rows} rows"
            );
        }

        // The same boundary counts through dedicated 1- and 8-worker pools: worker count must
        // never change any result (a 1-worker pool runs the full morsel machinery on the
        // session thread; 8 workers race morsel claims).
        for workers in [1usize, 8] {
            let pool = WorkerPool::new(workers);
            let executor = Executor::new(catalog.clone());
            for (plan, what) in [(&plan, "scan"), (&joined, "join"), (&aggregated, "agg")] {
                let reference = execute_reference(&catalog, plan).unwrap();
                let parallel = executor.execute_parallel(plan, &pool).unwrap();
                assert!(
                    parallel.bag_eq(&reference),
                    "{what} of {rows} rows diverges at {workers} workers"
                );
            }
        }
    }
}

/// Integer overflow raises the identical `ExecError::ArithmeticOverflow` from the vectorized
/// and parallel pipelines (never a silent wrap, never a pipeline-dependent value).
#[test]
fn overflow_error_identical_across_pipelines() {
    use perm_algebra::{BinaryOperator as Op, PlanBuilder};
    use perm_exec::ExecError;

    let catalog = Catalog::new();
    let schema = Schema::from_pairs(&[("x", DataType::Int)]);
    // The poisoned row sits past the first chunk boundary so the parallel pipeline has to
    // surface an error from a later morsel.
    let rows: Vec<Tuple> = (0..1500i64)
        .map(|i| Tuple::new(vec![Value::Int(if i == 1300 { i64::MAX } else { i })]))
        .collect();
    catalog.create_table_with_data("t", Relation::from_parts(schema, rows)).unwrap();

    for (op, operation) in
        [(Op::Add, "addition"), (Op::Sub, "subtraction"), (Op::Mul, "multiplication")]
    {
        let scan = PlanBuilder::scan("t", catalog.table_schema("t").unwrap(), 0);
        let expr = ScalarExpr::binary(
            op,
            ScalarExpr::column(0, "x"),
            ScalarExpr::literal(if op == Op::Sub { i64::MIN + 1 } else { 2i64 }),
        );
        let plan = scan.project(vec![(expr, "y".into())]).build();
        let expected = ExecError::ArithmeticOverflow { operation: operation.into() };
        let executor = Executor::new(catalog.clone());
        assert_eq!(executor.execute(&plan).unwrap_err(), expected, "vectorized {operation}");
        assert_eq!(
            executor.execute_parallel(&plan, shared_pool()).unwrap_err(),
            expected,
            "parallel {operation}"
        );
    }
}

/// NaN sort keys: ORDER BY places NaN last, deterministically, on every pipeline — while a
/// comparison *predicate* against NaN stays NULL-like false everywhere.
#[test]
fn nan_sort_keys_and_predicates_agree_across_pipelines() {
    use perm_algebra::{PlanBuilder, SortKey};

    let catalog = Catalog::new();
    let schema = Schema::from_pairs(&[("f", DataType::Float), ("tag", DataType::Int)]);
    let rows = vec![
        Tuple::new(vec![Value::Float(2.5), Value::Int(0)]),
        Tuple::new(vec![Value::Float(f64::NAN), Value::Int(1)]),
        Tuple::new(vec![Value::Float(-1.0), Value::Int(2)]),
        Tuple::new(vec![Value::Float(f64::NAN), Value::Int(3)]),
        Tuple::new(vec![Value::Null, Value::Int(4)]),
        Tuple::new(vec![Value::Float(0.0), Value::Int(5)]),
    ];
    catalog.create_table_with_data("t", Relation::from_parts(schema, rows)).unwrap();
    let scan = || PlanBuilder::scan("t", catalog.table_schema("t").unwrap(), 0);

    // Sort ascending by f, tie-broken by tag so the expected sequence is unique: NULL first,
    // then -1.0, 0.0, 2.5, then both NaNs (in tag order).
    let plan = scan()
        .sort(vec![
            SortKey::asc(ScalarExpr::column(0, "f")),
            SortKey::asc(ScalarExpr::column(1, "tag")),
        ])
        .project(vec![(ScalarExpr::column(1, "tag"), "tag".into())])
        .build();
    let expected: Vec<i64> = vec![4, 2, 5, 0, 1, 3];
    let executor = Executor::new(catalog.clone());
    for (name, result) in [
        ("vectorized", executor.execute(&plan).unwrap()),
        ("parallel", executor.execute_parallel(&plan, shared_pool()).unwrap()),
    ] {
        let tags: Vec<i64> = result
            .tuples()
            .iter()
            .map(|t| match &t[0] {
                Value::Int(i) => *i,
                other => panic!("unexpected tag {other:?}"),
            })
            .collect();
        assert_eq!(tags, expected, "{name} NaN sort order");
    }

    // Predicates on NaN evaluate to NULL-like false: `f < NaN` and `f = NaN` keep no rows.
    for op in [perm_algebra::BinaryOperator::Lt, perm_algebra::BinaryOperator::Eq] {
        let plan = scan()
            .filter(ScalarExpr::binary(
                op,
                ScalarExpr::column(0, "f"),
                ScalarExpr::literal(f64::NAN),
            ))
            .build();
        assert_three_way(&catalog, &plan, "NaN comparison predicate");
        assert_eq!(
            Executor::new(catalog.clone()).execute(&plan).unwrap().num_rows(),
            0,
            "NaN predicates keep no rows"
        );
    }
}

/// Cross-type hash-key consistency: an Int column equi-joined against a Date column matches
/// numerically (a date is its day count, per `sql_cmp`), identically through the hash-based
/// pipelines and the nested-loop reference — and NaN float keys never match under plain `=`
/// but do match themselves under null-safe equality.
#[test]
fn cross_type_hash_keys_agree_with_nested_loop_semantics() {
    use perm_algebra::PlanBuilder;

    let catalog = Catalog::new();
    let ints = Schema::from_pairs(&[("i", DataType::Int)]);
    let dates = Schema::from_pairs(&[("d", DataType::Date)]);
    catalog
        .create_table_with_data(
            "ints",
            Relation::from_parts(
                ints,
                vec![
                    Tuple::new(vec![Value::Int(5)]),
                    Tuple::new(vec![Value::Int(9)]),
                    Tuple::new(vec![Value::Null]),
                ],
            ),
        )
        .unwrap();
    catalog
        .create_table_with_data(
            "dates",
            Relation::from_parts(
                dates,
                vec![
                    Tuple::new(vec![Value::Date(5)]),
                    Tuple::new(vec![Value::Date(7)]),
                    Tuple::new(vec![Value::Null]),
                ],
            ),
        )
        .unwrap();
    let cond = ScalarExpr::column(0, "i").eq(ScalarExpr::column(1, "d"));
    let plan = PlanBuilder::scan("ints", catalog.table_schema("ints").unwrap(), 0)
        .join(
            PlanBuilder::scan("dates", catalog.table_schema("dates").unwrap(), 1),
            JoinKind::Inner,
            Some(cond),
        )
        .build();
    assert_three_way(&catalog, &plan, "Int = Date equi-join");
    // The hash join must find exactly the numeric match (5 = day 5), like the nested loop.
    assert_eq!(Executor::new(catalog.clone()).execute(&plan).unwrap().num_rows(), 1);

    // NaN keys: no match under `=`, self-match under IS NOT DISTINCT FROM — identical on
    // every pipeline (hash tables would otherwise match NaN to NaN via grouping equality).
    let floats = Schema::from_pairs(&[("f", DataType::Float)]);
    let rows = vec![Tuple::new(vec![Value::Float(f64::NAN)]), Tuple::new(vec![Value::Float(1.0)])];
    catalog
        .create_table_with_data("fa", Relation::from_parts(floats.clone(), rows.clone()))
        .unwrap();
    catalog.create_table_with_data("fb", Relation::from_parts(floats, rows)).unwrap();
    for (null_safe, expected_rows) in [(false, 1usize), (true, 2)] {
        let a = PlanBuilder::scan("fa", catalog.table_schema("fa").unwrap(), 0);
        let b = PlanBuilder::scan("fb", catalog.table_schema("fb").unwrap(), 1);
        let cond = if null_safe {
            ScalarExpr::column(0, "f").null_safe_eq(ScalarExpr::column(1, "f"))
        } else {
            ScalarExpr::column(0, "f").eq(ScalarExpr::column(1, "f"))
        };
        let plan = a.join(b, JoinKind::Inner, Some(cond)).build();
        assert_three_way(&catalog, &plan, "NaN equi-join key");
        assert_eq!(
            Executor::new(catalog.clone()).execute(&plan).unwrap().num_rows(),
            expected_rows,
            "null_safe={null_safe}"
        );
    }
}

/// Catalog of `sizes.len()` join-graph tables `t0..tN` with deliberately different sizes, so
/// the cost-based reordering pass has real cardinality differences to exploit. Keys land in a
/// small shared domain (join results stay non-trivial), values are unique per table.
fn join_graph_catalog(sizes: &[usize]) -> Catalog {
    let catalog = Catalog::new();
    let schema = Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)]);
    for (i, &size) in sizes.iter().enumerate() {
        let tuples = (0..size)
            .map(|j| Tuple::new(vec![Value::Int((j % 6) as i64), Value::Int((i * 100 + j) as i64)]))
            .collect();
        catalog
            .create_table_with_data(&format!("t{i}"), Relation::from_parts(schema.clone(), tuples))
            .unwrap();
    }
    catalog
}

/// Left-deep join chain over `t0..t{n-1}`: table `i` joins on `k` against the `k` column of a
/// genome-chosen *earlier* table (chains, stars and mixtures). At most two joins are outer —
/// enough to exercise the reorder barriers without the provenance rewrite's outer-join
/// expansion blowing up the plan.
fn join_graph_plan(
    catalog: &Catalog,
    n: usize,
    kinds: &[u8],
    anchors: &[u8],
) -> perm_algebra::LogicalPlan {
    let scan = |i: usize| {
        let name = format!("t{i}");
        perm_algebra::PlanBuilder::scan(&name, catalog.table_schema(&name).unwrap(), i)
    };
    let mut builder = scan(0);
    let mut arity = 2;
    let mut outer_budget = 2u8;
    for i in 1..n {
        let mut kind = match kinds[i - 1] % 8 {
            0..=4 => JoinKind::Inner,
            5 => JoinKind::LeftOuter,
            6 => JoinKind::RightOuter,
            _ => JoinKind::FullOuter,
        };
        if kind != JoinKind::Inner {
            if outer_budget == 0 {
                kind = JoinKind::Inner;
            } else {
                outer_budget -= 1;
            }
        }
        // Join the new table's key against the key of a random already-joined table.
        let anchor = (anchors[i - 1] as usize) % i;
        let condition = ScalarExpr::column(2 * anchor, "k").eq(ScalarExpr::column(arity, "k"));
        builder = builder.join(scan(i), kind, Some(condition));
        arity += 2;
    }
    builder.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Randomized join graphs over 3–8 differently-sized relations: the statistics-driven
    /// join reordering and build-side swap must preserve bag semantics exactly — on the plain
    /// plan and on the provenance-rewritten one — across all three execution paths.
    #[test]
    fn reordered_join_graphs_agree_across_all_paths(
        n in 3usize..9,
        sizes in proptest::collection::vec(0usize..13, 8..9),
        kinds in proptest::collection::vec(0u8..8, 7..8),
        anchors in proptest::collection::vec(0u8..8, 7..8),
    ) {
        let catalog = join_graph_catalog(&sizes[..n]);
        let plan = join_graph_plan(&catalog, n, &kinds, &anchors);
        plan.validate().unwrap();
        plan.verify().unwrap();
        let stats = perm_exec::TableStatsView::from_snapshot(&catalog.snapshot());
        // Aggressive thresholds: the generated tables hold 0–12 rows, far below the
        // engine-default policy's floors, and the point here is to maximize plan churn.
        let optimizer =
            Optimizer::new().with_reorder_policy(perm_exec::ReorderPolicy::aggressive());

        let (optimized, _report) = optimizer.optimize_with_stats(&plan, &stats).unwrap();
        optimized.validate().unwrap();
        optimized.verify().unwrap();
        assert_three_way(&catalog, &plan, "raw join graph");
        assert_three_way(&catalog, &optimized, "reordered join graph");
        let reference = execute_reference(&catalog, &plan).unwrap();
        let reordered = execute_reference(&catalog, &optimized).unwrap();
        prop_assert!(
            reordered.bag_eq(&reference),
            "reordering changed the result\nraw:\n{plan}\noptimized:\n{optimized}"
        );

        let rewritten = ProvenanceRewriter::new().rewrite(&plan).unwrap();
        rewritten.validate().unwrap();
        rewritten.verify().unwrap();
        let (rewritten_opt, _) = optimizer.optimize_with_stats(&rewritten, &stats).unwrap();
        rewritten_opt.validate().unwrap();
        rewritten_opt.verify().unwrap();
        assert_three_way(&catalog, &rewritten, "rewritten join graph");
        assert_three_way(&catalog, &rewritten_opt, "rewritten+reordered join graph");
        let prov_reference = execute_reference(&catalog, &rewritten).unwrap();
        let prov_reordered = execute_reference(&catalog, &rewritten_opt).unwrap();
        prop_assert!(
            prov_reordered.bag_eq(&prov_reference),
            "reordering changed provenance results\nraw:\n{rewritten}\noptimized:\n{rewritten_opt}"
        );
    }
}

/// Uncorrelated sublinks run on the chunk pipeline: EXISTS stops at its first non-empty batch,
/// a scalar sublink fails on a second row whether it shares a batch with the first or arrives
/// in a later one, and IN collects a whole multi-batch column. The vectorized, parallel and
/// reference paths agree on every case, errors included.
#[test]
fn sublinks_agree_across_pipelines_at_chunk_boundaries() {
    use perm_algebra::{PlanBuilder, SublinkKind, DEFAULT_CHUNK_SIZE};
    use perm_exec::ExecError;
    use std::sync::Arc;

    // n(x) holds 1..=1025, so x = 1024 ends the first stored chunk and x = 1025 starts the
    // second; m(x) holds 1..=1024 followed by a NULL; the outer table o(x) holds 1, 1024, 2000.
    let last = DEFAULT_CHUNK_SIZE as i64 + 1;
    let ints = |values: Vec<Value>| -> Vec<Tuple> {
        values.into_iter().map(|v| Tuple::new(vec![v])).collect()
    };
    let catalog = Catalog::new();
    let schema = Schema::from_pairs(&[("x", DataType::Int)]);
    for (name, values) in [
        ("n", (1..=last).map(Value::Int).collect::<Vec<_>>()),
        ("m", (1..last).map(Value::Int).chain([Value::Null]).collect()),
        ("o", vec![Value::Int(1), Value::Int(1024), Value::Int(2000)]),
    ] {
        let relation = Relation::from_parts(schema.clone(), ints(values));
        catalog.create_table_with_data(name, relation).unwrap();
    }
    let scan = |name: &str| PlanBuilder::scan(name, catalog.table_schema(name).unwrap(), 1);
    let x = || ScalarExpr::column(0, "x");
    let int = |i: i64| ScalarExpr::literal(i);
    let n_where = |predicate: ScalarExpr| Arc::new(scan("n").filter(predicate).build());
    let sublink = |kind, negated, plan: Arc<perm_algebra::LogicalPlan>| ScalarExpr::Sublink {
        kind,
        operand: (kind == SublinkKind::InSubquery).then(|| Box::new(x())),
        negated,
        plan,
    };
    // Every row of o next to the sublink's value, sorted by o.x.
    let outer = |expr: ScalarExpr| {
        PlanBuilder::scan("o", catalog.table_schema("o").unwrap(), 0)
            .project(vec![(x(), "y".into()), (expr, "s".into())])
            .build()
    };
    let executor = Executor::new(catalog.clone());
    let run = |plan: &perm_algebra::LogicalPlan| {
        [
            ("reference", execute_reference(&catalog, plan)),
            ("vectorized", executor.execute(plan)),
            ("parallel", executor.execute_parallel(plan, shared_pool())),
        ]
    };
    let values_of = |expr: ScalarExpr, what: &str| -> Vec<Value> {
        let plan = outer(expr);
        let results = run(&plan).map(|(name, result)| {
            (name, result.unwrap_or_else(|e| panic!("{what}: {name} failed: {e}")))
        });
        let (_, reference) = &results[0];
        for (name, result) in &results[1..] {
            assert!(result.bag_eq(reference), "{what}: {name} != reference");
        }
        reference.sorted().tuples().iter().map(|t| t[1].clone()).collect()
    };
    let fails = |expr: ScalarExpr, what: &str, expected: fn(&ExecError) -> bool| {
        for (name, result) in run(&outer(expr)) {
            match result {
                Err(e) if expected(&e) => {}
                Err(e) => panic!("{what}: {name} raised the wrong error: {e}"),
                Ok(r) => panic!("{what}: {name} returned {} rows instead of failing", r.num_rows()),
            }
        }
    };
    let too_many = |e: &ExecError| matches!(e, ExecError::ScalarSubqueryTooManyRows);
    let null = Value::Null;

    // Scalar: 0 rows is NULL, 1 row is its value, a second row fails in the same batch or the
    // next one.
    let empty = n_where(x().eq(int(0)));
    let scalar = |plan| sublink(SublinkKind::Scalar, false, plan);
    assert_eq!(values_of(scalar(empty.clone()), "empty scalar"), vec![null.clone(); 3]);
    assert_eq!(
        values_of(scalar(n_where(x().eq(int(5)))), "one-row scalar"),
        vec![Value::Int(5); 3]
    );
    let in_one_chunk = n_where(ScalarExpr::binary(BinaryOperator::LtEq, x(), int(2)));
    fails(scalar(in_one_chunk), "two rows in one chunk", too_many);
    let straddling = n_where(x().eq(int(last - 1)).or(x().eq(int(last))));
    fails(scalar(straddling), "two rows straddling a chunk boundary", too_many);

    // EXISTS / NOT EXISTS whose only match is the first row of the second chunk.
    let row_1025 = n_where(x().eq(int(last)));
    for negated in [false, true] {
        let exists = sublink(SublinkKind::Exists, negated, row_1025.clone());
        assert_eq!(values_of(exists, "EXISTS row 1025"), vec![Value::Bool(!negated); 3]);
        let exists = sublink(SublinkKind::Exists, negated, empty.clone());
        assert_eq!(values_of(exists, "EXISTS empty"), vec![Value::Bool(negated); 3]);
    }

    // IN / NOT IN over 1025 rows whose last one is NULL: a miss is NULL, not FALSE.
    let with_null = Arc::new(scan("m").build());
    let in_m = values_of(sublink(SublinkKind::InSubquery, false, with_null.clone()), "IN");
    assert_eq!(in_m, vec![Value::Bool(true), Value::Bool(true), null.clone()]);
    let not_in_m = values_of(sublink(SublinkKind::InSubquery, true, with_null), "NOT IN");
    assert_eq!(not_in_m, vec![Value::Bool(false), Value::Bool(false), null]);

    // A hand-built two-column scalar sub-plan is malformed: an error, never a panic.
    let two_columns =
        Arc::new(scan("n").project(vec![(x(), "a".into()), (x(), "b".into())]).build());
    fails(scalar(two_columns), "two-column scalar sub-plan", |e| {
        matches!(e, ExecError::Internal(_))
    });
}
