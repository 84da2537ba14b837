//! Prepared-statement edge cases (re-bind, wrong arity, NULL parameters) and plan-cache
//! behaviour (hit on repetition, survival across small inserts, invalidation on DDL and on
//! inserts that drop a table's statistics).

use std::sync::Arc;

use perm_algebra::Value;
use perm_core::ProvenanceRewriter;
use perm_service::{Engine, ServiceError};

fn shop_engine() -> Arc<Engine> {
    let engine = Arc::new(Engine::new().with_rewriter(Arc::new(ProvenanceRewriter::new())));
    let session = engine.session();
    session
        .execute_script(
            "CREATE TABLE shop (name TEXT, numEmpl INT);\n\
             CREATE TABLE sales (sName TEXT, itemId INT);\n\
             CREATE TABLE items (id INT, price INT);\n\
             INSERT INTO shop VALUES ('Merdies', 3), ('Joba', 14);\n\
             INSERT INTO sales VALUES ('Merdies', 1), ('Merdies', 2), ('Merdies', 2), ('Joba', 3), ('Joba', 3);\n\
             INSERT INTO items VALUES (1, 100), (2, 10), (3, 25);",
        )
        .unwrap();
    engine
}

#[test]
fn prepare_bind_execute_many() {
    let engine = shop_engine();
    let mut session = engine.session();
    let params =
        session.prepare("pricey", "SELECT id FROM items WHERE price > $1 ORDER BY id").unwrap();
    assert_eq!(params, 1);

    // Re-binding the same plan with different values.
    let r = session.execute_prepared("pricey", vec![Value::Int(20)]).unwrap();
    assert_eq!(r.num_rows(), 2);
    let r = session.execute_prepared("pricey", vec![Value::Int(99)]).unwrap();
    assert_eq!(r.num_rows(), 1);

    // NULL parameters follow SQL three-valued logic: the comparison is UNKNOWN everywhere.
    let r = session.execute_prepared("pricey", vec![Value::Null]).unwrap();
    assert_eq!(r.num_rows(), 0);

    // Wrong arity is a typed error, in both directions.
    let err = session.execute_prepared("pricey", vec![]).unwrap_err();
    assert!(matches!(err, ServiceError::ParameterCount { expected: 1, got: 0, .. }));
    let err = session.execute_prepared("pricey", vec![Value::Int(1), Value::Int(2)]).unwrap_err();
    assert!(matches!(err, ServiceError::ParameterCount { expected: 1, got: 2, .. }));

    // Unknown names and deallocation.
    assert!(matches!(
        session.execute_prepared("nope", vec![]).unwrap_err(),
        ServiceError::UnknownPrepared(_)
    ));
    assert!(session.deallocate("pricey"));
    assert!(!session.deallocate("pricey"));
    assert!(matches!(
        session.execute_prepared("pricey", vec![Value::Int(1)]).unwrap_err(),
        ServiceError::UnknownPrepared(_)
    ));
}

#[test]
fn prepared_provenance_query_with_parameters() {
    let engine = shop_engine();
    let mut session = engine.session();
    session
        .prepare(
            "prov",
            "SELECT PROVENANCE name FROM shop, sales WHERE name = sName AND itemId = $1",
        )
        .unwrap();
    // Item 2 was sold twice by Merdies.
    let r = session.execute_prepared("prov", vec![Value::Int(2)]).unwrap();
    assert_eq!(r.num_rows(), 2);
    assert!(r.schema().attribute_names().iter().any(|n| n.starts_with("prov_sales")));
    // Item 3 was sold twice by Joba; same plan, new binding.
    let r = session.execute_prepared("prov", vec![Value::Int(3)]).unwrap();
    assert_eq!(r.num_rows(), 2);
}

#[test]
fn preparing_non_queries_and_direct_parameterized_queries_are_rejected() {
    let engine = shop_engine();
    let mut session = engine.session();
    assert!(matches!(
        session.prepare("ddl", "DROP TABLE shop").unwrap_err(),
        ServiceError::Unsupported(_)
    ));
    assert!(matches!(
        session.execute("SELECT id FROM items WHERE price > $1").unwrap_err(),
        ServiceError::Unsupported(_)
    ));
    // Parameters never appear in INSERT ... VALUES.
    assert!(session.execute("INSERT INTO items VALUES ($1, 1)").is_err());
}

#[test]
fn plan_cache_hits_and_is_invalidated_by_commits() {
    let engine = shop_engine();
    let session = engine.session();
    let sql = "SELECT PROVENANCE name, sum(price) AS total FROM shop, sales, items \
               WHERE name = sName AND itemId = id GROUP BY name";

    let before = engine.cache_stats();
    session.execute(sql).unwrap();
    let after_first = engine.cache_stats();
    assert_eq!(after_first.misses, before.misses + 1, "cold run misses");

    // Trivial reformatting still hits: keys are normalized.
    session
        .execute(
            "SELECT   PROVENANCE name,\n\tsum(price) AS total FROM shop, sales, items \
             WHERE name = sName AND itemId = id GROUP BY name;",
        )
        .unwrap();
    let after_second = engine.cache_stats();
    assert_eq!(after_second.hits, after_first.hits + 1, "warm run hits");

    // Another session shares the cache.
    engine.session().execute(sql).unwrap();
    assert_eq!(engine.cache_stats().hits, after_second.hits + 1);

    // A DML commit invalidates; the next run re-plans, then caches again.
    session.execute("INSERT INTO items VALUES (4, 500)").unwrap();
    session.execute(sql).unwrap();
    let after_dml = engine.cache_stats();
    assert_eq!(after_dml.invalidations, after_second.invalidations + 1);
    session.execute(sql).unwrap();
    assert_eq!(engine.cache_stats().hits, after_dml.hits + 1, "cache warm again after re-plan");

    // A DDL commit invalidates too.
    session.execute("CREATE TABLE scratch (x INT)").unwrap();
    session.execute(sql).unwrap();
    assert!(engine.cache_stats().invalidations > after_dml.invalidations);

    // And the results are still correct after all of that (new item 4 never joins).
    let result = session.execute(sql).unwrap();
    assert_eq!(result.num_rows(), 5);
}

#[test]
fn cached_provenance_plans_survive_small_inserts() {
    let engine = Arc::new(Engine::new().with_rewriter(Arc::new(ProvenanceRewriter::new())));
    let session = engine.session();
    let items: Vec<String> = (1..=20).map(|i| format!("({i}, {})", i * 10)).collect();
    let sales: Vec<String> = (1..=20).map(|i| format!("('s{i}', {i})")).collect();
    session
        .execute_script(&format!(
            "CREATE TABLE items (id INT, price INT);\n\
             CREATE TABLE sales (sName TEXT, itemId INT);\n\
             INSERT INTO items VALUES {};\n\
             INSERT INTO sales VALUES {};",
            items.join(", "),
            sales.join(", ")
        ))
        .unwrap();
    let sql = "SELECT PROVENANCE sName, sum(price) AS total FROM sales, items \
               WHERE itemId = id GROUP BY sName";
    assert_eq!(session.execute(sql).unwrap().num_rows(), 20);
    let planned = engine.cache_stats();

    // One row is 5 % of `sales`: the cached plan serves the next run, which still sees the
    // new row (execution reads a fresh snapshot) together with its witness tuples.
    session.execute("INSERT INTO sales VALUES ('zed', 3)").unwrap();
    let result = session.execute(sql).unwrap();
    let after_small = engine.cache_stats();
    assert_eq!(after_small.hits, planned.hits + 1, "small insert keeps the plan");
    assert_eq!(after_small.misses, planned.misses);
    assert_eq!(after_small.invalidations, planned.invalidations);
    assert_eq!(result.num_rows(), 21);
    let zed = (0..result.num_rows())
        .find(|&row| result.value_at(row, "sname").unwrap() == &Value::text("zed"))
        .expect("the inserted sale forms its own group");
    for (column, expected) in [
        ("total", Value::Int(30)),
        ("prov_sales_sname", Value::text("zed")),
        ("prov_sales_itemid", Value::Int(3)),
        ("prov_items_id", Value::Int(3)),
        ("prov_items_price", Value::Int(30)),
    ] {
        assert_eq!(result.value_at(zed, column).unwrap(), &expected, "{column}");
    }

    // Two more rows put `sales` 15 % past its statistics: one invalidation, one re-plan.
    session.execute("INSERT INTO sales VALUES ('s1', 1), ('s2', 2)").unwrap();
    // Groups s1 and s2 now have two witnesses each: one provenance row per witness.
    assert_eq!(session.execute(sql).unwrap().num_rows(), 23);
    let after_large = engine.cache_stats();
    assert_eq!(after_large.invalidations, after_small.invalidations + 1);
    assert_eq!(after_large.misses, after_small.misses + 1, "re-planned");
    session.execute(sql).unwrap();
    assert_eq!(engine.cache_stats().hits, after_large.hits + 1, "cache warm again");

    // DDL still invalidates.
    session.execute("CREATE TABLE scratch (x INT)").unwrap();
    session.execute(sql).unwrap();
    assert_eq!(engine.cache_stats().invalidations, after_large.invalidations + 1);
}

#[test]
fn leading_comments_still_route_queries_through_the_query_path() {
    let engine = shop_engine();
    let session = engine.session();
    // Query-shaped despite the leading comment: must hit the plan cache...
    let sql = "-- the paper's example\nSELECT id FROM items WHERE price > 20";
    let before = engine.cache_stats();
    assert_eq!(session.execute(sql).unwrap().num_rows(), 2);
    session.execute(sql).unwrap();
    assert_eq!(engine.cache_stats().hits, before.hits + 1);
    // ...and a parameterized direct query must hit the prepare/execute guard, not a confusing
    // unbound-parameter execution error.
    let err =
        session.execute("-- needs a binding\nSELECT id FROM items WHERE price > $1").unwrap_err();
    assert!(matches!(err, ServiceError::Unsupported(_)), "got {err:?}");
}

#[test]
fn sessions_have_independent_settings() {
    let engine = shop_engine();
    let mut bounded = engine.session();
    bounded.set_row_budget(Some(3));
    let unbounded = engine.session();
    let sql = "SELECT PROVENANCE name, sum(price) AS total FROM shop, sales, items \
               WHERE name = sName AND itemId = id GROUP BY name";
    assert!(matches!(
        bounded.execute(sql).unwrap_err(),
        ServiceError::Exec(perm_exec::ExecError::RowBudgetExceeded { .. })
    ));
    assert_eq!(unbounded.execute(sql).unwrap().num_rows(), 5);
}
