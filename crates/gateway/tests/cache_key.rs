//! The result cache keys a query by [`normalize`]d text, and the text it
//! keeps is what gets parsed. Two texts that share a key must therefore
//! never parse differently: the key may forget insignificant whitespace
//! and nothing else.
//!
//! Texts are query-shaped: identifiers and numbers (`-5` among them),
//! every comparison spelling (`!=`, `<>`, `==`, ...), quoted literals
//! holding runs of whitespace, unterminated quotes, and whitespace of
//! every kind between tokens (tabs, newlines, Unicode spaces). Each case
//! follows from one `u64` seed, which a failure prints (`seed = …`);
//! `replay(seed)` reruns it.

use moara_gateway::cache::normalize;
use moara_query::parse_query;
use proptest::prelude::*;

/// splitmix64: a whole case drawn from its seed.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn one_in(&mut self, n: usize) -> bool {
        self.below(n) == 0
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len())]
    }
}

/// ASCII and Unicode whitespace, every one `char::is_whitespace`; the
/// plain space twice, as the commonest.
const SPACES: &[char] = &[
    ' ', ' ', '\t', '\n', '\r', '\u{0b}', '\u{0c}', '\u{85}', '\u{a0}', '\u{2003}', '\u{2028}',
    '\u{3000}',
];

/// A run of whitespace, empty a third of the time.
fn gap(d: &mut Draw) -> String {
    (0..d.below(3) * (1 + d.below(3)))
        .map(|_| d.pick(SPACES))
        .collect()
}

/// A literal's inside: words and runs of whitespace, edges included.
fn literal_body(d: &mut Draw) -> String {
    let mut s = String::new();
    for _ in 0..d.below(4) {
        s.push_str(&gap(d));
        s.push_str(d.pick(&["a", "Linux", "x-1", "5", "=", "!", "\"", "é"]));
    }
    s + &gap(d)
}

fn value(d: &mut Draw) -> String {
    match d.below(6) {
        0 => d
            .pick(&["0", "50", "-5", "3.25", "-0.5", "9999999999999999999"])
            .into(),
        1 => d.pick(&["true", "false"]).into(),
        2 => d.pick(&["Linux", "Load", "a.b"]).into(),
        _ => format!("'{}'", literal_body(d)),
    }
}

/// One comparison, its parts separated by random whitespace.
fn atom(d: &mut Draw) -> String {
    let attr = d.pick(&["ServiceX", "CPU-Util", "OS", "Load", "_k"]);
    let op = d.pick(&["=", "==", "!=", "<>", "<", "<=", ">", ">="]);
    format!("{attr}{}{op}{}{}", gap(d), gap(d), value(d))
}

/// A predicate: atoms joined by `and`/`or`, sometimes parenthesised.
fn predicate(d: &mut Draw) -> String {
    let mut p = atom(d);
    for _ in 0..d.below(3) {
        let join = d.pick(&["and", "AND", "or"]);
        let next = if d.one_in(3) {
            format!("({}{}{})", gap(d), atom(d), gap(d))
        } else {
            atom(d)
        };
        p = format!("{p} {}{join}{} {next}", gap(d), gap(d));
    }
    p
}

/// A whole query, well formed more often than not.
fn query(d: &mut Draw) -> String {
    let agg = d.pick(&["count(*)", "max(Load)", "avg( CPU-Util )", "top(Load,\t3)"]);
    let mut q = format!("{}SELECT {}{agg}", gap(d), gap(d));
    if !d.one_in(4) {
        q = format!("{q} {}WHERE{} {}", gap(d), gap(d), predicate(d));
    }
    q + &gap(d)
}

/// Query-shaped noise: fragments in any order, an unterminated quote or
/// a lone `!` among them.
fn fragments(d: &mut Draw) -> String {
    let mut q = String::new();
    for _ in 0..1 + d.below(8) {
        q.push_str(&gap(d));
        match d.below(5) {
            0 => q.push_str(&atom(d)),
            1 => q.push_str(&format!("'{}", literal_body(d))),
            2 => q.push_str(&value(d)),
            _ => q.push_str(d.pick(&[
                "SELECT", "WHERE", "(", ")", ",", "*", "!", "-", "-5", "and", "==", "<>",
            ])),
        }
    }
    q
}

/// The quoted literals of `q` that the query lexer would read, each with
/// its quotes: a literal runs from a quote to the next one, with no
/// escapes; an unterminated one is not included.
fn literals(q: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut rest = q;
    while let Some(open) = rest.find('\'') {
        let Some(len) = rest[open + 1..].find('\'') else {
            break;
        };
        out.push(&rest[open..open + len + 2]);
        rest = &rest[open + len + 2..];
    }
    out
}

/// Runs the case `seed` draws: a text and the three properties.
fn replay(seed: u64) {
    let mut d = Draw(seed);
    let q = if d.one_in(3) {
        fragments(&mut d)
    } else {
        query(&mut d)
    };
    let key = normalize(&q);
    assert_eq!(
        normalize(&key),
        key,
        "seed = {seed}: not idempotent on {q:?}"
    );
    assert_eq!(
        parse_query(&key).ok(),
        parse_query(&q).ok(),
        "seed = {seed}: {q:?} and its key {key:?} parse differently"
    );
    for lit in literals(&q) {
        assert!(
            key.contains(lit),
            "seed = {seed}: {lit:?} lost from {key:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_cache_key_parses_like_its_text(seed in any::<u64>()) {
        replay(seed);
    }
}

/// Whitespace inside a literal is the literal's, outside it is not.
#[test]
fn literal_whitespace_is_kept_and_the_rest_collapses() {
    assert_eq!(
        normalize(" SELECT\tcount(*)\u{3000}WHERE OS =\n'a \t\u{a0}b'  "),
        "SELECT count(*) WHERE OS = 'a \t\u{a0}b'"
    );
    assert_eq!(normalize("x = 'open  end  "), "x = 'open  end");
}
