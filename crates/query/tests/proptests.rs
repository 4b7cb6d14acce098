//! Property-based tests: the lexer/parser never panic, keywords match in
//! any case and any whitespace, valid shapes round-trip, condition
//! evaluation is logically consistent, and the executor's conjunct
//! placement returns the rows of naive filtering.

use colock_nf2::Value;
use colock_query::ast::{Comparison, Condition, Operand, Statement};
use colock_query::lexer::{tokenize, Token};
use colock_query::parse;
use colock_testkit::prop::{alpha_string, any_i64, any_string, string_of};
use colock_testkit::{ensure, ensure_eq, forall, Rng};

#[test]
fn lexer_never_panics() {
    forall!(cases: 256, |rng| any_string(rng, 0..121), |input: &String| {
        let _ = tokenize(input);
        Ok(())
    });
}

#[test]
fn parser_never_panics() {
    forall!(cases: 256, |rng| any_string(rng, 0..121), |input: &String| {
        let _ = parse(input);
        Ok(())
    });
}

#[test]
fn parser_never_panics_on_queryish_text() {
    forall!(
        cases: 256,
        |rng| {
            let kw = *rng.choose(&["SELECT", "UPDATE", "DELETE", "INSERT"]).unwrap();
            let junk = string_of(
                rng,
                "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_'=<>,.() ",
                0..81,
            );
            format!("{kw} {junk}")
        },
        |text: &String| {
            let _ = parse(text);
            Ok(())
        }
    );
}

/// Every keyword of the language.
const KEYWORDS: [&str; 17] = [
    "SELECT", "FROM", "WHERE", "FOR", "READ", "UPDATE", "IN", "AND", "OR", "DELETE", "SET", "TRUE",
    "FALSE", "NOT", "INSERT", "INTO", "VALUES",
];

/// Statements whose words are separated by single spaces, every keyword a
/// word of its own and no literal holding a space.
const CANONICAL: [&str; 6] = [
    "SELECT o FROM c IN cells, o IN c.c_objects WHERE c.cell_id = 'c1' FOR READ",
    "SELECT r FROM c IN cells, r IN c.robots WHERE c.cell_id = 'c1' AND r.robot_id = 'r2' FOR UPDATE",
    "UPDATE r.trajectory = 'w0-1' FROM c IN cells, r IN c.robots WHERE c.cell_id = 'c2' AND r.robot_id = 'r3'",
    "DELETE e FROM e IN effectors WHERE NOT ( e.eff_id = 'e1' OR e.n >= -3 ) AND e.live = TRUE",
    "INSERT INTO effectors VALUES (eff_id: 'e9', live: FALSE , w: 2.5)",
    "SELECT COUNT(*) FROM c IN cells WHERE c.size <> 4 FOR READ",
];

/// `word` with each letter upper- or lower-cased at random.
fn random_case(rng: &mut Rng, word: &str) -> String {
    word.chars()
        .map(|c| if rng.gen_bool(0.5) { c.to_ascii_lowercase() } else { c.to_ascii_uppercase() })
        .collect()
}

/// A canonical statement respelled: keywords in random case, words
/// separated by runs of spaces, tabs and newlines.
#[derive(Debug, Clone)]
struct Respelled {
    canonical: &'static str,
    text: String,
}

colock_testkit::no_shrink!(Respelled);

#[test]
fn keywords_match_in_any_case_across_any_whitespace() {
    forall!(
        cases: 256,
        |rng| {
            let canonical = *rng.choose(&CANONICAL).unwrap();
            let mut text = string_of(rng, " \t\n\r", 0..3);
            for word in canonical.split(' ') {
                if KEYWORDS.contains(&word) {
                    text.push_str(&random_case(rng, word));
                } else {
                    text.push_str(word);
                }
                text.push_str(&string_of(rng, " \t\n\r", 1..5));
            }
            Respelled { canonical, text }
        },
        |case: &Respelled| {
            let canonical = parse(case.canonical);
            ensure!(canonical.is_ok(), "{}: {canonical:?}", case.canonical);
            ensure_eq!(parse(&case.text), canonical);
            Ok(())
        }
    );
}

#[test]
fn words_that_start_with_a_keyword_are_identifiers() {
    for word in ["selection", "format", "index", "order_in", "updated"] {
        assert_eq!(tokenize(word), Ok(vec![Token::Ident(word)]), "`{word}` is one identifier");
    }
    forall!(
        cases: 256,
        |rng| {
            let keyword = *rng.choose(&KEYWORDS).unwrap();
            let suffix = string_of(rng, "abcdefghijklmnopqrstuvwxyz0123456789_", 1..5);
            format!("{}{suffix}", random_case(rng, keyword))
        },
        |word: &String| {
            ensure_eq!(tokenize(word), Ok(vec![Token::Ident(word.as_str())]));
            Ok(())
        }
    );
    let Ok(Statement::Select(q)) = parse(
        "SELECT selection FROM selection IN format WHERE selection.index = 1 AND selection.updated = TRUE FOR UPDATE",
    ) else {
        panic!("identifiers that start with a keyword must parse")
    };
    assert_eq!(&*q.ranges[0].var, "selection");
    assert_eq!(q.ranges[0].source, colock_query::ast::RangeSource::Relation("format".into()));
}

/// Draws a lowercase identifier with length in `len` that is not one of the
/// `reserved` words (rejection sampling — the stand-in for `prop_assume!`).
fn ident_avoiding(rng: &mut Rng, len: std::ops::Range<usize>, reserved: &[&str]) -> String {
    loop {
        let s = alpha_string(rng, len.clone());
        if !reserved.contains(&s.as_str()) {
            return s;
        }
    }
}

#[test]
fn generated_selects_parse() {
    const COMMON: [&str; 7] = ["in", "or", "and", "not", "for", "set", "read"];
    const REL_RESERVED: [&str; 17] = [
        "in", "or", "and", "not", "for", "set", "read", "update", "select", "from", "where",
        "delete", "insert", "into", "values", "true", "false",
    ];
    const ATTR_RESERVED: [&str; 10] =
        ["in", "or", "and", "not", "for", "set", "read", "update", "true", "false"];
    forall!(
        cases: 256,
        |rng| (
            ident_avoiding(rng, 1..5, &COMMON),
            ident_avoiding(rng, 2..9, &REL_RESERVED),
            ident_avoiding(rng, 1..7, &ATTR_RESERVED),
            string_of(rng, "abcdefghijklmnopqrstuvwxyz0123456789", 1..7),
            rng.gen_bool(0.5),
        ),
        |(var, rel, attr, key, for_update): &(String, String, String, String, bool)| {
            let clause = if *for_update { "FOR UPDATE" } else { "FOR READ" };
            let q = format!("SELECT {var} FROM {var} IN {rel} WHERE {var}.{attr} = '{key}' {clause}");
            let stmt = parse(&q);
            ensure!(stmt.is_ok(), "{q}: {stmt:?}");
            let Ok(Statement::Select(sel)) = stmt else { return Err("not a select".into()) };
            ensure_eq!(sel.ranges.len(), 1);
            ensure!(sel.condition.is_some());
            Ok(())
        }
    );
}

#[test]
fn comparison_eval_is_consistent() {
    forall!(cases: 256, |rng| (any_i64(rng), any_i64(rng)), |&(a, b)| {
        let va = Value::Int(a);
        let vb = Value::Int(b);
        // Trichotomy.
        let eq = Comparison::Eq.eval(&va, &vb);
        let lt = Comparison::Lt.eval(&va, &vb);
        let gt = Comparison::Gt.eval(&va, &vb);
        ensure_eq!(eq as u8 + lt as u8 + gt as u8, 1);
        // Le/Ge are the complements of Gt/Lt.
        ensure_eq!(Comparison::Le.eval(&va, &vb), !gt);
        ensure_eq!(Comparison::Ge.eval(&va, &vb), !lt);
        ensure_eq!(Comparison::Neq.eval(&va, &vb), !eq);
        Ok(())
    });
}

#[test]
fn condition_de_morgan() {
    forall!(
        cases: 256,
        |rng| (any_i64(rng), any_i64(rng), any_i64(rng)),
        |&(a, b, x)| {
            use colock_query::analyze::eval_condition;
            let bindings = vec![("v".to_string(), Value::Int(x))];
            let atom = |op, lit: i64| Condition::Cmp {
                left: Operand::Path { var: "v".into(), path: vec![] },
                op,
                right: Operand::Literal(Value::Int(lit)),
            };
            // NOT (A AND B) == (NOT A) OR (NOT B)
            let lhs = Condition::Not(Box::new(Condition::And(
                Box::new(atom(Comparison::Lt, a)),
                Box::new(atom(Comparison::Gt, b)),
            )));
            let rhs = Condition::Or(
                Box::new(Condition::Not(Box::new(atom(Comparison::Lt, a)))),
                Box::new(Condition::Not(Box::new(atom(Comparison::Gt, b)))),
            );
            ensure_eq!(
                eval_condition(&bindings, &lhs).unwrap(),
                eval_condition(&bindings, &rhs).unwrap()
            );
            Ok(())
        }
    );
}

#[test]
fn and_or_precedence() {
    forall!(cases: 256, any_i64, |&x| {
        use colock_query::analyze::eval_condition;
        // `a OR b AND c` must parse as `a OR (b AND c)`.
        let q = "SELECT v FROM v IN r WHERE v.n = 1 OR v.n > 5 AND v.n < 10 FOR READ";
        let Ok(Statement::Select(sel)) = parse(q) else { return Err("parse failed".into()) };
        let cond = sel.condition.unwrap();
        ensure!(matches!(cond, Condition::Or(_, _)), "top is OR");
        let bindings = vec![(
            "v".to_string(),
            colock_nf2::value::build::tup(vec![("n", Value::Int(x))]),
        )];
        let expect = x == 1 || (x > 5 && x < 10);
        ensure_eq!(eval_condition(&bindings, &cond).unwrap(), expect);
        Ok(())
    });
}

/// One drawn conjunct-placement case: the inner range and the WHERE clause.
#[derive(Debug, Clone)]
struct Placement {
    inner: &'static str,
    condition: Condition,
}

colock_testkit::no_shrink!(Placement);

fn comparison(rng: &mut Rng) -> Comparison {
    // `=` is drawn most often: it is the shape that pins keys.
    use Comparison::*;
    *rng.choose(&[Eq, Eq, Eq, Neq, Lt, Ge]).unwrap()
}

/// A comparison of one attribute of the outer (`c`) or inner variable
/// with a literal, on either side: key attributes and plain ones, values
/// that exist and one that does not.
fn atom(rng: &mut Rng, inner: &str) -> Condition {
    let cell = rng.gen_range(1..5usize);
    let n = rng.gen_range(0..4usize);
    let (var, attr, literal) = match (inner, rng.gen_range(0..3u8)) {
        (_, 0) => ("c", "cell_id", format!("c{cell}")),
        ("c_objects", 1) => ("o", "obj_id", format!("c{cell}-o{n}")),
        ("c_objects", _) => ("o", "obj_name", format!("part-{n}")),
        (_, 1) => ("r", "robot_id", format!("r{}", n + 1)),
        _ => ("r", "trajectory", format!("traj-c{cell}-r{n}")),
    };
    let path = Operand::Path { var: var.into(), path: vec![attr.into()] };
    let lit = Operand::Literal(Value::str(literal));
    let op = comparison(rng);
    let (left, right) = if rng.gen_bool(0.8) { (path, lit) } else { (lit, path) };
    Condition::Cmp { left, op, right }
}

fn condition(rng: &mut Rng, inner: &str, depth: u32) -> Condition {
    if depth == 0 || rng.gen_bool(0.4) {
        return atom(rng, inner);
    }
    let kind = rng.gen_range(0..4u8);
    let mut sub = || Box::new(condition(rng, inner, depth - 1));
    match kind {
        0 | 1 => Condition::And(sub(), sub()),
        2 => Condition::Or(sub(), sub()),
        _ => Condition::Not(sub()),
    }
}

/// The executor places each top-level conjunct at the shallowest range that
/// binds its variables and pushes key equalities into navigation; it must
/// return exactly the rows of binding every row and filtering the complete
/// ones.
#[test]
fn conjunct_placement_returns_what_filtering_complete_rows_returns() {
    use colock_core::authorization::Authorization;
    use colock_core::optimizer::Optimizer;
    use colock_query::ast::{Query, RangeDecl, RangeSource};
    use colock_query::analyze::eval_condition;
    use colock_query::exec::run_statement;
    use colock_sim::{build_cells_store, CellsConfig};
    use colock_txn::{ProtocolKind, TransactionManager, TxnKind};

    let store = build_cells_store(&CellsConfig {
        n_cells: 3,
        c_objects_per_cell: 4,
        robots_per_cell: 3,
        n_effectors: 4,
        effectors_per_robot: 2,
        seed: 7,
    });
    let mgr =
        TransactionManager::over_store(store, Authorization::allow_all(), ProtocolKind::Proposed);
    forall!(
        cases: 256,
        |rng| {
            let inner = *rng.choose(&["c_objects", "robots"]).unwrap();
            // A top-level conjunction of one to three subtrees, so that
            // conjuncts land at both ranges and key equalities are pinned.
            let mut condition = self::condition(rng, inner, 2);
            for _ in 0..rng.gen_range(0..3usize) {
                let more = self::condition(rng, inner, 2);
                condition = Condition::And(Box::new(condition), Box::new(more));
            }
            Placement { inner, condition }
        },
        |case: &Placement| {
            let var = if case.inner == "c_objects" { "o" } else { "r" };
            let stmt = Statement::Select(Query {
                projections: vec![Operand::Path { var: var.into(), path: vec![] }],
                count: false,
                ranges: vec![
                    RangeDecl { var: "c".into(), source: RangeSource::Relation("cells".into()) },
                    RangeDecl {
                        var: var.into(),
                        source: RangeSource::Path {
                            parent: "c".into(),
                            path: vec![case.inner.into()],
                        },
                    },
                ],
                condition: Some(case.condition.clone()),
                for_clause: colock_query::ast::ForClause::Read,
            });
            let txn = mgr.begin(TxnKind::Short);
            let got =
                run_statement(&txn, stmt, &Optimizer::default()).map_err(|e| e.to_string())?;
            txn.commit().map_err(|e| e.to_string())?;

            let store = mgr.store();
            let mut want = Vec::new();
            for key in store.keys("cells").unwrap() {
                let cell = store.get("cells", &key).unwrap();
                for element in cell.field(case.inner).and_then(Value::elements).unwrap() {
                    let bindings =
                        vec![("c".to_string(), cell.clone()), (var.to_string(), element.clone())];
                    if eval_condition(&bindings, &case.condition).unwrap() {
                        want.push(element.clone());
                    }
                }
            }
            ensure_eq!(got.rows, want);
            Ok(())
        }
    );
}
