//! Property-based tests: the lexer/parser never panic, valid shapes
//! round-trip, and condition evaluation is logically consistent.

use colock_nf2::Value;
use colock_query::ast::{Comparison, Condition, Operand, Statement};
use colock_query::lexer::tokenize;
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
