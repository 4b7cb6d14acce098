//! Malformed statements: each error names the byte offset of the offending
//! token (the input's length when the statement ends too early) and the
//! token as written.

use colock_query::parse;

#[test]
fn errors_point_at_the_offending_token() {
    let cases: [(&str, &str); 12] = [
        (
            "SELECT r FROM c IN cells WHERE c.cell_id = FOR READ",
            "parse error @43: expected literal, found `FOR`",
        ),
        ("SELECT c WHERE x = 1", "parse error @9: expected `FROM`, found `WHERE`"),
        (
            "SELECT c FROM c IN cells FOR READ garbage",
            "parse error @34: expected end of statement, found `garbage`",
        ),
        ("SELECT c FROM c IN", "parse error @18: expected identifier, found end of input"),
        (
            "INSERT INTO effectors VALUES (a 1)",
            "parse error @32: expected `:` after attribute name, found `1`",
        ),
        (
            "UPDATE r.trajectory 'v' FROM c IN cells",
            "parse error @20: expected `=` in UPDATE, found `'v'`",
        ),
        (
            "select c from c in cells for write",
            "parse error @29: expected READ or UPDATE after FOR, found `write`",
        ),
        ("DELETE FROM e IN effectors", "parse error @7: expected identifier, found `FROM`"),
        (
            "SELECT c FROM c IN cells WHERE (c.n = 1",
            "parse error @39: expected `)`, found end of input",
        ),
        ("", "parse error @0: expected SELECT, UPDATE, DELETE or INSERT, found end of input"),
        // A lexical error is reported wherever it stands, before any parse
        // error and after a statement that would otherwise be complete.
        ("SELECT é FROM c IN cells", "lex error @7: unexpected character `é`"),
        ("SELECT c FROM c IN cells WHERE c.n > 1 ;", "lex error @39: unexpected character `;`"),
    ];
    for (input, expected) in cases {
        let got = parse(input).map(|_| ()).map_err(|e| e.to_string());
        assert_eq!(got, Err(expected.to_string()), "{input}");
    }
}

#[test]
fn a_lexical_error_after_a_parse_error_wins() {
    let err = parse("SELECT FROM c IN cells ;").unwrap_err().to_string();
    assert_eq!(err, "lex error @23: unexpected character `;`");
}
